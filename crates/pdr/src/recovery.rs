//! Self-healing recovery: watchdog classification, bounded retry with
//! frequency backoff, golden-bitstream scrubbing, and per-partition
//! quarantine.
//!
//! The paper's architecture *detects* every over-clocking failure (CRC
//! read-back, lost-interrupt watchdog) but leaves repair to the operator.
//! [`RecoveryManager`] closes the loop with a degradation ladder:
//!
//! 1. **Retry** the transfer — transient faults (a timing burst that
//!    passed, a dropped interrupt) usually clear on the second attempt.
//! 2. **Back off** the over-clock on each retry — delegated to the
//!    [`Governor`] when one is provided (its characterised step-down),
//!    arithmetic `backoff_mhz` steps towards `floor_mhz` otherwise.
//! 3. **Scrub** — re-run the transfer at the known-safe `scrub_mhz`; for
//!    background CRC alarms ([`RecoveryManager::on_crc_alarm`]), re-apply
//!    the partition's registered *golden* bitstream and re-verify by
//!    read-back.
//! 4. **Quarantine** — when even scrubbing fails repeatedly, take the
//!    partition out of service instead of looping forever.
//!
//! Every step feeds the telemetry counters surfaced by
//! [`RecoveryManager::stats`]: detection latency, mean-time-to-repair,
//! retries per success, scrub and quarantine counts.

use pdr_bitstream::{Bitstream, Bytes};
use pdr_bitstream_codec::{compress_bitstream, decompress_to_bitstream};
use pdr_sim_core::json::{from_hex, to_hex, FromJson, Json, JsonError, ToJson};
use pdr_sim_core::stats::OnlineStats;
use pdr_sim_core::{impl_json_enum, impl_json_struct, Frequency, SimDuration};

use crate::governor::Governor;
use crate::report::{ReconfigError, ReconfigReport, StatsSummary};
use crate::system::ZynqPdrSystem;
use crate::trace::TraceEvent;

/// Recovery-ladder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retries after the first failed attempt before escalating to scrub.
    pub max_retries: u32,
    /// Arithmetic backoff step per retry, MHz (used without a governor).
    pub backoff_mhz: u64,
    /// Hard frequency floor for backoff, MHz.
    pub floor_mhz: u64,
    /// The known-safe scrub frequency, MHz.
    pub scrub_mhz: u64,
    /// Consecutive scrub failures on one partition before quarantine.
    pub quarantine_after: u32,
    /// Hold golden images as `PDRC` containers (see `pdr-bitstream-codec`)
    /// instead of raw bitstreams. Scrubbing expands the container before
    /// re-applying it, and read-back still verifies the expanded image.
    pub compress_golden: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 3,
            backoff_mhz: 20,
            floor_mhz: 100,
            scrub_mhz: 100,
            quarantine_after: 1,
            compress_golden: false,
        }
    }
}

/// How a partition's golden image is held in the manager's store.
#[derive(Debug, Clone)]
enum GoldenImage {
    /// The raw image, as registered.
    Raw(Bitstream),
    /// A `PDRC` container; expanded when scrubbing needs it.
    Compressed(Vec<u8>),
}

/// Checkpoint encoding: `{"kind": "raw" | "compressed", "hex": …}`.
impl ToJson for GoldenImage {
    fn to_json(&self) -> Json {
        let (kind, bytes) = match self {
            GoldenImage::Raw(bs) => ("raw", bs.bytes().as_slice()),
            GoldenImage::Compressed(bytes) => ("compressed", bytes.as_slice()),
        };
        Json::Obj(vec![
            ("kind".to_string(), kind.to_json()),
            ("hex".to_string(), Json::Str(to_hex(bytes.iter().copied()))),
        ])
    }
}

impl FromJson for GoldenImage {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let bytes = from_hex(&v.field::<String>("hex")?)?;
        match v.field::<String>("kind")?.as_str() {
            "raw" if bytes.len().is_multiple_of(4) => Ok(GoldenImage::Raw(Bitstream::from_bytes(
                Bytes::copy_from_slice(&bytes),
            ))),
            "raw" => Err(JsonError {
                msg: "golden raw image is not word-aligned".to_string(),
            }),
            "compressed" => Ok(GoldenImage::Compressed(bytes)),
            other => Err(JsonError {
                msg: format!("unknown golden image kind `{other}`"),
            }),
        }
    }
}

impl GoldenImage {
    fn encode(bitstream: Bitstream, compress: bool) -> Self {
        if compress {
            GoldenImage::Compressed(compress_bitstream(&bitstream).bytes)
        } else {
            GoldenImage::Raw(bitstream)
        }
    }

    fn materialise(&self) -> Bitstream {
        match self {
            GoldenImage::Raw(bs) => bs.clone(),
            GoldenImage::Compressed(bytes) => decompress_to_bitstream(bytes)
                .expect("manager-encoded golden container round-trips bit-exactly"),
        }
    }

    fn stored_bytes(&self) -> u64 {
        match self {
            GoldenImage::Raw(bs) => bs.len() as u64,
            GoldenImage::Compressed(bytes) => bytes.len() as u64,
        }
    }
}

/// Per-partition health on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionHealth {
    /// Operating at the requested point.
    Healthy,
    /// Recovered, but only after backoff or scrubbing.
    Degraded,
    /// Out of service: even scrubbing failed.
    Quarantined,
}

impl_json_enum!(PartitionHealth {
    Healthy,
    Degraded,
    Quarantined
});

/// What one managed reconfiguration did end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The final attempt's report (`None` when the partition was already
    /// quarantined and nothing ran).
    pub report: Option<ReconfigReport>,
    /// Final classified error; `None` means the partition holds the
    /// requested content, verified by read-back.
    pub error: Option<ReconfigError>,
    /// Transfer attempts performed (0 when quarantined on entry).
    pub attempts: u32,
    /// The ladder escalated to the scrub step.
    pub scrubbed: bool,
    /// The first attempt failed but a later step succeeded.
    pub recovered_after_failure: bool,
    /// Failure-detection to verified-repair time, when recovery happened.
    pub mttr: Option<SimDuration>,
}

impl RecoveryOutcome {
    /// True when the partition ended up correctly configured.
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }
}

/// Aggregate recovery telemetry, serialisable for campaign reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Faults detected (failed first attempts + monitor alarms).
    pub faults_detected: u64,
    /// Faults repaired by retry, backoff or scrub.
    pub faults_recovered: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Scrub transfers issued.
    pub scrubs: u64,
    /// Scrubs that themselves failed.
    pub scrub_failures: u64,
    /// Partitions quarantined.
    pub quarantines: u64,
    /// Background-monitor detection latency, µs.
    pub detection_latency_us: StatsSummary,
    /// Mean time to repair, µs.
    pub mttr_us: StatsSummary,
}

impl_json_struct!(RecoveryStats {
    faults_detected,
    faults_recovered,
    retries,
    scrubs,
    scrub_failures,
    quarantines,
    detection_latency_us,
    mttr_us,
});

/// The self-healing controller. One instance manages every partition of a
/// system; state is per-partition.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    config: RecoveryConfig,
    golden: Vec<Option<GoldenImage>>,
    health: Vec<PartitionHealth>,
    /// Consecutive scrub failures per partition (quarantine trigger).
    scrub_strikes: Vec<u32>,
    detection_latency_us: OnlineStats,
    mttr_us: OnlineStats,
    faults_detected: u64,
    faults_recovered: u64,
    retries: u64,
    scrubs: u64,
    scrub_failures: u64,
    quarantines: u64,
}

impl RecoveryManager {
    /// Creates a manager for `partitions` reconfigurable partitions.
    pub fn new(partitions: usize, config: RecoveryConfig) -> Self {
        RecoveryManager {
            config,
            golden: vec![None; partitions],
            health: vec![PartitionHealth::Healthy; partitions],
            scrub_strikes: vec![0; partitions],
            detection_latency_us: OnlineStats::new(),
            mttr_us: OnlineStats::new(),
            faults_detected: 0,
            faults_recovered: 0,
            retries: 0,
            scrubs: 0,
            scrub_failures: 0,
            quarantines: 0,
        }
    }

    /// Creates a manager sized for `sys`'s floorplan.
    pub fn for_system(sys: &ZynqPdrSystem, config: RecoveryConfig) -> Self {
        RecoveryManager::new(sys.floorplan().partitions().len(), config)
    }

    /// The configuration.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Registers `bitstream` as partition `rp`'s golden image — the content
    /// scrubbing restores on a CRC alarm.
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range.
    pub fn register_golden(&mut self, rp: usize, bitstream: Bitstream) {
        self.golden[rp] = Some(GoldenImage::encode(bitstream, self.config.compress_golden));
    }

    /// The registered golden image for `rp`, if any — always the raw
    /// bitstream, expanded on demand when the store is compressed.
    pub fn golden(&self, rp: usize) -> Option<Bitstream> {
        self.golden[rp].as_ref().map(GoldenImage::materialise)
    }

    /// Bytes the golden store holds for `rp` (container size under
    /// [`RecoveryConfig::compress_golden`], raw size otherwise).
    pub fn golden_stored_bytes(&self, rp: usize) -> Option<u64> {
        self.golden[rp].as_ref().map(GoldenImage::stored_bytes)
    }

    /// Health of partition `rp`.
    pub fn health(&self, rp: usize) -> PartitionHealth {
        self.health[rp]
    }

    /// Health of every partition.
    pub fn health_all(&self) -> &[PartitionHealth] {
        &self.health
    }

    /// Records a background-monitor detection latency (the time from
    /// injection/occurrence to the CRC-error interrupt).
    pub fn record_detection(&mut self, latency: SimDuration) {
        self.faults_detected += 1;
        self.detection_latency_us.push(latency.as_micros_f64());
    }

    /// Managed reconfiguration: runs the degradation ladder until partition
    /// `rp` verifiably holds `bitstream` or the ladder is exhausted.
    ///
    /// On success after any failure, the successfully applied bitstream
    /// becomes the partition's golden image.
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range.
    pub fn reconfigure(
        &mut self,
        sys: &mut ZynqPdrSystem,
        mut gov: Option<&mut Governor>,
        rp: usize,
        bitstream: &Bitstream,
        freq: Frequency,
    ) -> RecoveryOutcome {
        if self.health[rp] == PartitionHealth::Quarantined {
            return RecoveryOutcome {
                report: None,
                error: Some(ReconfigError::Quarantined),
                attempts: 0,
                scrubbed: false,
                recovered_after_failure: false,
                mttr: None,
            };
        }

        let mut report = sys.reconfigure(rp, bitstream, freq);
        let mut attempts = 1;
        if report.error.is_none() {
            self.on_clean_success(rp, bitstream);
            return RecoveryOutcome {
                report: Some(report),
                error: None,
                attempts,
                scrubbed: false,
                recovered_after_failure: false,
                mttr: None,
            };
        }

        // The watchdog/read-back caught a failure: walk the ladder.
        self.faults_detected += 1;
        let t_detect = sys.now();
        let mut freq_mhz = freq.as_hz() / 1_000_000;
        for _ in 0..self.config.max_retries {
            let prev_mhz = freq_mhz;
            freq_mhz = self.next_backoff(&mut gov, freq_mhz);
            if freq_mhz != prev_mhz {
                sys.trace_emit(TraceEvent::Backoff {
                    rp: rp as u64,
                    from_mhz: prev_mhz,
                    to_mhz: freq_mhz,
                });
            }
            self.retries += 1;
            attempts += 1;
            sys.trace_emit(TraceEvent::Retry {
                rp: rp as u64,
                attempt: attempts as u64 - 1,
                freq_mhz,
            });
            report = sys.reconfigure(rp, bitstream, Frequency::from_mhz(freq_mhz));
            if report.error.is_none() {
                return self.recovered(sys, rp, bitstream, report, attempts, false, t_detect);
            }
            if freq_mhz <= self.config.floor_mhz {
                break; // further retries would repeat the same point
            }
        }

        // Retries exhausted: scrub — the known-safe frequency.
        self.scrubs += 1;
        attempts += 1;
        sys.trace_emit(TraceEvent::Scrub {
            rp: rp as u64,
            freq_mhz: self.config.scrub_mhz,
        });
        report = sys.reconfigure(rp, bitstream, Frequency::from_mhz(self.config.scrub_mhz));
        if report.error.is_none() {
            self.scrub_strikes[rp] = 0;
            return self.recovered(sys, rp, bitstream, report, attempts, true, t_detect);
        }

        // Even the safe point failed: strike, and quarantine past the limit.
        self.scrub_failures += 1;
        self.scrub_strikes[rp] += 1;
        let error = if self.scrub_strikes[rp] >= self.config.quarantine_after {
            self.quarantine(sys, rp);
            Some(ReconfigError::Quarantined)
        } else {
            report.error
        };
        RecoveryOutcome {
            report: Some(report),
            error,
            attempts,
            scrubbed: true,
            recovered_after_failure: false,
            mttr: None,
        }
    }

    /// Handles a background CRC-error alarm on partition `rp`: clears the
    /// interrupt, re-applies the registered golden bitstream at the scrub
    /// frequency and re-verifies by read-back. Returns the scrub outcome.
    ///
    /// The caller owns monitor lifecycle: reconfiguration pauses the
    /// background monitor, so re-arm it (`start_background_monitor`) after
    /// a successful scrub.
    ///
    /// # Panics
    ///
    /// Panics if `rp` is out of range or has no registered golden image.
    pub fn on_crc_alarm(&mut self, sys: &mut ZynqPdrSystem, rp: usize) -> RecoveryOutcome {
        let golden = self.golden[rp]
            .as_ref()
            .map(GoldenImage::materialise)
            .expect("scrubbing needs a registered golden bitstream");
        if self.health[rp] == PartitionHealth::Quarantined {
            return RecoveryOutcome {
                report: None,
                error: Some(ReconfigError::Quarantined),
                attempts: 0,
                scrubbed: true,
                recovered_after_failure: false,
                mttr: None,
            };
        }
        let t_detect = sys.now();
        sys.crc_error_irq().clear();
        self.scrubs += 1;
        sys.trace_emit(TraceEvent::Scrub {
            rp: rp as u64,
            freq_mhz: self.config.scrub_mhz,
        });
        let report = sys.reconfigure(rp, &golden, Frequency::from_mhz(self.config.scrub_mhz));
        if report.error.is_none() {
            self.scrub_strikes[rp] = 0;
            // A scrubbed partition is fully restored, not degraded: the
            // fault was in the fabric, not the operating point.
            self.health[rp] = PartitionHealth::Healthy;
            let mttr = sys.now().duration_since(t_detect);
            self.mttr_us.push(mttr.as_micros_f64());
            self.faults_recovered += 1;
            return RecoveryOutcome {
                report: Some(report),
                error: None,
                attempts: 1,
                scrubbed: true,
                recovered_after_failure: true,
                mttr: Some(mttr),
            };
        }
        self.scrub_failures += 1;
        self.scrub_strikes[rp] += 1;
        let error = if self.scrub_strikes[rp] >= self.config.quarantine_after {
            self.quarantine(sys, rp);
            Some(ReconfigError::Quarantined)
        } else {
            report.error
        };
        RecoveryOutcome {
            report: Some(report),
            error,
            attempts: 1,
            scrubbed: true,
            recovered_after_failure: false,
            mttr: None,
        }
    }

    /// Aggregate telemetry.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            faults_detected: self.faults_detected,
            faults_recovered: self.faults_recovered,
            retries: self.retries,
            scrubs: self.scrubs,
            scrub_failures: self.scrub_failures,
            quarantines: self.quarantines,
            detection_latency_us: StatsSummary::from(&self.detection_latency_us),
            mttr_us: StatsSummary::from(&self.mttr_us),
        }
    }

    /// Checkpoints the manager: per-partition golden images (which mutate
    /// as successful reconfigurations re-register them), health, scrub
    /// strikes, and the telemetry accumulators.
    pub fn snapshot_json(&self) -> Json {
        Json::Obj(vec![
            ("golden".to_string(), self.golden.to_json()),
            ("health".to_string(), self.health.to_json()),
            ("scrub_strikes".to_string(), self.scrub_strikes.to_json()),
            (
                "detection_latency_us".to_string(),
                self.detection_latency_us.to_json(),
            ),
            ("mttr_us".to_string(), self.mttr_us.to_json()),
            (
                "faults_detected".to_string(),
                self.faults_detected.to_json(),
            ),
            (
                "faults_recovered".to_string(),
                self.faults_recovered.to_json(),
            ),
            ("retries".to_string(), self.retries.to_json()),
            ("scrubs".to_string(), self.scrubs.to_json()),
            ("scrub_failures".to_string(), self.scrub_failures.to_json()),
            ("quarantines".to_string(), self.quarantines.to_json()),
        ])
    }

    /// Restores a checkpoint taken with [`RecoveryManager::snapshot_json`].
    /// The partition count must match this manager's construction.
    pub fn restore_json(&mut self, json: &Json) -> Result<(), JsonError> {
        let golden: Vec<Option<GoldenImage>> = json.field("golden")?;
        if golden.len() != self.golden.len() {
            return Err(JsonError {
                msg: format!(
                    "recovery snapshot has {} partitions, manager has {}",
                    golden.len(),
                    self.golden.len()
                ),
            });
        }
        let health: Vec<PartitionHealth> = json.field("health")?;
        let strikes: Vec<u32> = json.field("scrub_strikes")?;
        if health.len() != self.golden.len() || strikes.len() != self.golden.len() {
            return Err(JsonError {
                msg: "recovery snapshot per-partition arrays have mismatched lengths".to_string(),
            });
        }
        self.golden = golden;
        self.health = health;
        self.scrub_strikes = strikes;
        self.detection_latency_us = json.field("detection_latency_us")?;
        self.mttr_us = json.field("mttr_us")?;
        self.faults_detected = json.field("faults_detected")?;
        self.faults_recovered = json.field("faults_recovered")?;
        self.retries = json.field("retries")?;
        self.scrubs = json.field("scrubs")?;
        self.scrub_failures = json.field("scrub_failures")?;
        self.quarantines = json.field("quarantines")?;
        Ok(())
    }

    fn next_backoff(&self, gov: &mut Option<&mut Governor>, freq_mhz: u64) -> u64 {
        if let Some(g) = gov.as_deref_mut() {
            if let Some(p) = g.on_failure() {
                return p.freq_mhz.max(self.config.floor_mhz);
            }
        }
        freq_mhz
            .saturating_sub(self.config.backoff_mhz)
            .max(self.config.floor_mhz)
    }

    fn on_clean_success(&mut self, rp: usize, bitstream: &Bitstream) {
        self.scrub_strikes[rp] = 0;
        if self.health[rp] == PartitionHealth::Degraded {
            self.health[rp] = PartitionHealth::Healthy;
        }
        self.golden[rp] = Some(GoldenImage::encode(
            bitstream.clone(),
            self.config.compress_golden,
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn recovered(
        &mut self,
        sys: &ZynqPdrSystem,
        rp: usize,
        bitstream: &Bitstream,
        report: ReconfigReport,
        attempts: u32,
        scrubbed: bool,
        t_detect: pdr_sim_core::SimTime,
    ) -> RecoveryOutcome {
        self.health[rp] = PartitionHealth::Degraded;
        self.golden[rp] = Some(GoldenImage::encode(
            bitstream.clone(),
            self.config.compress_golden,
        ));
        let mttr = sys.now().duration_since(t_detect);
        self.mttr_us.push(mttr.as_micros_f64());
        self.faults_recovered += 1;
        RecoveryOutcome {
            report: Some(report),
            error: None,
            attempts,
            scrubbed,
            recovered_after_failure: true,
            mttr: Some(mttr),
        }
    }

    fn quarantine(&mut self, sys: &mut ZynqPdrSystem, rp: usize) {
        if self.health[rp] != PartitionHealth::Quarantined {
            self.health[rp] = PartitionHealth::Quarantined;
            self.quarantines += 1;
            sys.trace_emit(TraceEvent::Quarantine { rp: rp as u64 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::GovernorConfig;
    use crate::report::TimeoutCause;
    use crate::system::SystemConfig;
    use pdr_fabric::AspKind;
    use pdr_sim_core::json::{FromJson, ToJson};

    fn mhz(m: u64) -> Frequency {
        Frequency::from_mhz(m)
    }

    fn system() -> ZynqPdrSystem {
        ZynqPdrSystem::new(SystemConfig::fast_test())
    }

    #[test]
    fn clean_success_needs_one_attempt_and_registers_golden() {
        let mut sys = system();
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
        let out = mgr.reconfigure(&mut sys, None, 0, &bs, mhz(200));
        assert!(out.succeeded());
        assert_eq!(out.attempts, 1);
        assert!(!out.recovered_after_failure);
        assert_eq!(mgr.health(0), PartitionHealth::Healthy);
        assert_eq!(mgr.golden(0), Some(bs));
        assert_eq!(mgr.stats().faults_detected, 0);
    }

    #[test]
    fn compressed_golden_store_shrinks_and_scrub_still_restores() {
        let mut sys = system();
        let config = RecoveryConfig {
            compress_golden: true,
            ..RecoveryConfig::default()
        };
        let mut mgr = RecoveryManager::for_system(&sys, config);
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 9);
        assert!(mgr
            .reconfigure(&mut sys, None, 0, &bs, mhz(200))
            .succeeded());
        // The store holds a container smaller than the raw image, yet
        // hands back the bit-exact original.
        let stored = mgr.golden_stored_bytes(0).expect("registered");
        assert!(stored < bs.len() as u64, "{stored} vs {}", bs.len());
        assert_eq!(mgr.golden(0), Some(bs));
        // A CRC alarm scrubs from the compressed golden and re-verifies.
        sys.start_background_monitor(&[0]);
        let scan = sys.monitor_scan_period();
        sys.inject_seu(0, 11, 13, 3);
        sys.run_monitor_until_alarm(scan * 3)
            .expect("monitor must catch the upset");
        let out = mgr.on_crc_alarm(&mut sys, 0);
        assert!(out.succeeded(), "{out:?}");
        assert!(out.report.as_ref().unwrap().crc_ok());
    }

    #[test]
    fn lost_interrupt_recovers_via_backoff_retry() {
        let mut sys = system();
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::MatMul8, 2);
        // 310 MHz loses the interrupt; one 20 MHz backoff lands at 290,
        // inside the envelope.
        let out = mgr.reconfigure(&mut sys, None, 0, &bs, mhz(310));
        assert!(out.succeeded(), "{out:?}");
        assert!(out.recovered_after_failure);
        assert_eq!(out.attempts, 2);
        assert!(!out.scrubbed);
        assert!(out.mttr.expect("recovered").as_micros_f64() > 0.0);
        assert_eq!(mgr.health(0), PartitionHealth::Degraded);
        let s = mgr.stats();
        assert_eq!(
            (s.faults_detected, s.faults_recovered, s.retries),
            (1, 1, 1)
        );
        // A later clean success at a safe point restores full health.
        assert!(mgr
            .reconfigure(&mut sys, None, 0, &bs, mhz(200))
            .succeeded());
        assert_eq!(mgr.health(0), PartitionHealth::Healthy);
    }

    #[test]
    fn governor_delegated_backoff_steps_down_its_ladder() {
        let mut sys = system();
        let mut gov = Governor::new(GovernorConfig::default());
        gov.characterise(&mut sys, 0);
        let start = gov.select_highest().freq_mhz; // 280 under guard band
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 3);
        // A 30 MHz burst makes 280 lose its interrupt; the governor's
        // step-down (260) still has 45 MHz of interrupt slack.
        sys.inject_timing_burst(30.0, SimDuration::from_millis(400));
        let out = mgr.reconfigure(&mut sys, Some(&mut gov), 0, &bs, mhz(start));
        assert!(out.succeeded(), "{out:?}");
        assert_eq!(out.attempts, 2);
        assert_eq!(
            out.report.as_ref().unwrap().frequency_hz,
            260 * 1_000_000,
            "backoff must come from the governor's ladder"
        );
        assert_eq!(gov.current().unwrap().freq_mhz, 260);
    }

    #[test]
    fn persistent_fault_escalates_to_scrub_then_quarantine() {
        let mut sys = system();
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 4);
        // A catastrophic 280 MHz envelope collapse: every frequency down to
        // the floor corrupts data for the burst's duration.
        sys.inject_timing_burst(280.0, SimDuration::from_secs_f64(1.0));
        let out = mgr.reconfigure(&mut sys, None, 0, &bs, mhz(280));
        assert!(!out.succeeded());
        assert!(out.scrubbed, "ladder must reach the scrub step");
        assert_eq!(out.error, Some(ReconfigError::Quarantined));
        assert_eq!(mgr.health(0), PartitionHealth::Quarantined);
        let s = mgr.stats();
        assert_eq!(s.quarantines, 1);
        assert!(s.scrub_failures >= 1);
        // Quarantined partitions refuse further work without touching the
        // hardware.
        let n = sys.reconfig_count();
        let refused = mgr.reconfigure(&mut sys, None, 0, &bs, mhz(200));
        assert_eq!(refused.error, Some(ReconfigError::Quarantined));
        assert_eq!(refused.attempts, 0);
        assert_eq!(sys.reconfig_count(), n);
        // Other partitions are unaffected.
        let bs1 = sys.make_asp_bitstream(1, AspKind::Fir16, 5);
        sys.inject_timing_burst(0.0, SimDuration::from_micros(1)); // burst over
        sys.run_monitor_for(SimDuration::from_micros(2));
        assert!(mgr
            .reconfigure(&mut sys, None, 1, &bs1, mhz(200))
            .succeeded());
    }

    #[test]
    fn crc_alarm_scrub_restores_golden_content() {
        let mut sys = system();
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 6);
        assert!(mgr
            .reconfigure(&mut sys, None, 0, &bs, mhz(200))
            .succeeded());
        sys.start_background_monitor(&[0]);
        let scan = sys.monitor_scan_period();
        sys.inject_seu(0, 17, 31, 5);
        let latency = sys
            .run_monitor_until_alarm(scan * 3)
            .expect("monitor must catch the upset");
        mgr.record_detection(latency);
        let out = mgr.on_crc_alarm(&mut sys, 0);
        assert!(out.succeeded(), "{out:?}");
        assert!(out.scrubbed);
        assert!(out.report.as_ref().unwrap().crc_ok());
        assert_eq!(mgr.health(0), PartitionHealth::Healthy);
        assert_eq!(sys.identify_asp(0), Some((AspKind::AesMix, 6)));
        let s = mgr.stats();
        assert_eq!(s.detection_latency_us.count, 1);
        assert_eq!(s.mttr_us.count, 1);
        assert!(s.mttr_us.mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "registered golden bitstream")]
    fn alarm_without_golden_panics() {
        let mut sys = system();
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let _ = mgr.on_crc_alarm(&mut sys, 0);
    }

    #[test]
    fn stats_json_round_trips() {
        let mut sys = system();
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::MatMul8, 7);
        let _ = mgr.reconfigure(&mut sys, None, 0, &bs, mhz(310));
        let s = mgr.stats();
        let text = s.to_json_string();
        let back = RecoveryStats::from_json_str(&text).expect("decodes");
        assert_eq!(back, s);
        assert!(text.contains("\"mttr_us\""), "{text}");
    }

    #[test]
    fn timeout_cause_distinguishes_recovery_paths() {
        // A StillInFlight timeout (stalled DMA) still recovers by retry:
        // the stall is consumed by the failed attempt.
        let mut cfg = SystemConfig::fast_test();
        cfg.transfer_timeout = SimDuration::from_micros(200);
        let mut sys = ZynqPdrSystem::new(cfg);
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 8);
        sys.inject_dma_stall(100_000);
        let probe = sys.reconfigure(0, &bs, mhz(100));
        assert_eq!(
            probe.error,
            Some(ReconfigError::Timeout(TimeoutCause::StillInFlight))
        );
        let out = mgr.reconfigure(&mut sys, None, 0, &bs, mhz(100));
        assert!(out.succeeded(), "{out:?}");
    }
}

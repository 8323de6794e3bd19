//! Deterministic structured event tracing and metrics.
//!
//! The paper's argument is built on *measurement* — throughput at each ICAP
//! clock (Fig. 5), power per configuration (Fig. 6), failure onset under
//! stress — yet aggregate end-of-run reports cannot show what happened
//! *inside* a run: a stalled DMA burst, a mis-charged cache fetch, an extra
//! scrub. This module turns the simulator into an auditable instrument:
//!
//! * [`TraceEvent`] — a closed vocabulary of typed events covering every
//!   runtime subsystem: reconfiguration lifecycle, DMA bursts, CRC
//!   verdicts and alarms, fault injection, the recovery ladder (retry /
//!   backoff / scrub / quarantine), the scheduler's cache and prefetch,
//!   codec block decoding, SD boot staging, and QDR staged transfers.
//! * [`TraceRecord`] — an event stamped with the simulated time (`t_ps`)
//!   and a monotone sequence number (`seq`). Records serialise through the
//!   in-repo JSON module as flat single-line objects, so a tape exports as
//!   JSONL and diffs line-by-line.
//! * [`TraceSink`] — the per-system event bus. [`TraceLevel::Off`] keeps
//!   the disabled path to a single branch; [`TraceLevel::Counters`]
//!   aggregates [`TraceCounters`] and latency samples without retaining
//!   records; [`TraceLevel::Full`] additionally retains the whole tape.
//! * [`TraceReport`] — aggregate metrics under the repo's non-finite-float
//!   contract: exact p50/p99 via [`SampleSeries`], degenerate values as
//!   `None`, never `inf`/`NaN`.
//!
//! # Determinism
//!
//! Emission is *pure recording*: the sink never consults a clock of its
//! own, never touches any RNG, and never advances the engine. Every stamp
//! is the simulated time the emitting subsystem already held. Consequently
//! a same-seed, same-config run replays to a byte-identical JSONL tape —
//! the property the golden-trace harness in `tests/trace.rs` locks down —
//! and enabling tracing cannot change any report (observer effect = 0,
//! enforced by `tests/proptest_trace.rs`).
//!
//! ```
//! use pdr_core::trace::{TraceEvent, TraceLevel};
//! use pdr_core::{SystemConfig, ZynqPdrSystem};
//! use pdr_sim_core::Frequency;
//!
//! let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
//! sys.set_trace_level(TraceLevel::Full);
//! let bs = sys.make_partial_bitstream(0, 1);
//! let report = sys.reconfigure(0, &bs, Frequency::from_mhz(200));
//! assert!(report.crc_ok());
//! let tape = sys.tracer().export_jsonl();
//! assert!(tape.lines().any(|l| l.contains("\"event\":\"ReconfigDone\"")));
//! ```

use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::stats::SampleSeries;
use pdr_sim_core::{impl_json_enum, impl_json_struct, SimTime};

use crate::campaign::StatsSummary;
use crate::faults::FaultKind;

/// How much the sink records. Doubles as the cost dial: `Off` is a single
/// predicted branch on the hot path, `Counters` a handful of integer adds,
/// `Full` additionally a `Vec` push per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Record nothing. The default: zero observable overhead.
    #[default]
    Off,
    /// Aggregate counters and latency samples only; no per-event records.
    Counters,
    /// Counters plus the full event tape (exportable as JSONL).
    Full,
}

impl_json_enum!(TraceLevel {
    Off,
    Counters,
    Full
});

/// One structured event. Payloads are plain integers (or the already-typed
/// [`FaultKind`]) computed by the emitting subsystem — the tracer derives
/// nothing of its own, which is what keeps the observer effect at zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A reconfiguration attempt entered the driver.
    ReconfigStart {
        /// Target reconfigurable partition.
        rp: u64,
        /// Bitstream size in bytes.
        bytes: u64,
        /// Requested ICAP clock in MHz (0 for the PCAP path).
        freq_mhz: u64,
    },
    /// A reconfiguration attempt left the driver.
    ReconfigDone {
        /// Target reconfigurable partition.
        rp: u64,
        /// Whether the attempt succeeded (CRC-clean, interrupt seen).
        ok: bool,
        /// Transfer latency in picoseconds; 0 when unmeasured (refused or
        /// no completion interrupt).
        latency_ps: u64,
    },
    /// The DMA engine was programmed with a transfer.
    DmaBurst {
        /// Programmed transfer length in bytes.
        bytes: u64,
    },
    /// Post-transfer CRC read-back matched the golden reference.
    CrcPass {
        /// Frames verified.
        frames: u64,
    },
    /// Post-transfer CRC read-back found a mismatch.
    CrcFail {
        /// Frames verified.
        frames: u64,
    },
    /// The background frame monitor raised a CRC alarm.
    CrcAlarm {
        /// Detection latency (injection-to-alarm) in picoseconds.
        latency_ps: u64,
    },
    /// A fault was injected into the fabric or datapath.
    FaultInjected {
        /// Which fault class.
        kind: FaultKind,
    },
    /// The recovery ladder re-attempted a failed reconfiguration.
    Retry {
        /// Target reconfigurable partition.
        rp: u64,
        /// Attempt number (1 = first retry).
        attempt: u64,
        /// ICAP clock used for the retry, MHz.
        freq_mhz: u64,
    },
    /// The recovery ladder lowered the ICAP clock before retrying.
    Backoff {
        /// Target reconfigurable partition.
        rp: u64,
        /// Clock before the step, MHz.
        from_mhz: u64,
        /// Clock after the step, MHz.
        to_mhz: u64,
    },
    /// A golden-bitstream scrub was issued.
    Scrub {
        /// Target reconfigurable partition.
        rp: u64,
        /// ICAP clock used for the scrub, MHz.
        freq_mhz: u64,
    },
    /// A partition was quarantined after the ladder was exhausted.
    Quarantine {
        /// The partition taken out of service.
        rp: u64,
    },
    /// Scheduler dispatch found the bitstream already cached.
    CacheHit {
        /// Bitstream id.
        id: u64,
        /// Cached (stored) size in bytes.
        bytes: u64,
    },
    /// Scheduler dispatch had to fetch the bitstream.
    CacheMiss {
        /// Bitstream id.
        id: u64,
        /// Bytes actually fetched — *stored* bytes for compressed catalogs.
        stored_bytes: u64,
    },
    /// The LRU cache evicted an image to make room.
    CacheEvict {
        /// Evicted bitstream id.
        id: u64,
        /// Bytes released — the image's stored size.
        bytes: u64,
    },
    /// The prefetcher armed a background fetch on the QDR write port.
    PrefetchArmed {
        /// Bitstream id being prefetched.
        id: u64,
        /// Stored bytes the fetch will move.
        bytes: u64,
    },
    /// The streaming decompressor validated one more compressed block.
    CodecBlock {
        /// 1-based index of the block just validated.
        block: u64,
        /// Cumulative words emitted by the decoder so far.
        words_out: u64,
    },
    /// Boot staging copied one file from SD card to DRAM.
    SdFileStaged {
        /// Raw (decoded) image size in bytes.
        raw_bytes: u64,
        /// Bytes the file occupies on the card (compressed container size
        /// on a compressed card, `raw_bytes` otherwise).
        stored_bytes: u64,
    },
    /// The proposed system started a staged SRAM-to-ICAP transfer.
    StagedTransferStart {
        /// Words staged in QDR SRAM for this job.
        sram_words: u64,
    },
    /// The proposed system finished a staged transfer.
    StagedTransferDone {
        /// Whether the fabric CRC matched after the transfer.
        ok: bool,
        /// Words the decompressor (or bypass) delivered to the ICAP.
        words_out: u64,
    },
    /// The DVFS governor committed a new operating point.
    DvfsSet {
        /// Core supply voltage, millivolts.
        vdd_mv: u64,
        /// ICAP clock, MHz.
        freq_mhz: u64,
    },
    /// The thermal RC node crossed its alarm threshold.
    ThermalAlarm {
        /// Die temperature at the crossing, milli-°C.
        temp_mc: u64,
    },
    /// The governor backed off to its throttle point under thermal alarm.
    ThermalThrottle {
        /// Core supply voltage after the throttle, millivolts.
        vdd_mv: u64,
        /// ICAP clock after the throttle, MHz.
        freq_mhz: u64,
    },
}

/// The flat JSONL codec of [`TraceEvent`]: the wire tag is the variant
/// name and each payload key is the field name, listed once here in
/// declaration order.
macro_rules! trace_event_codec {
    ($($variant:ident { $($field:ident),+ }),+ $(,)?) => {
        impl TraceEvent {
            /// The event's wire tag — the `"event"` value in the JSONL encoding.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => stringify!($variant),)+
                }
            }

            /// Payload fields in declaration order, ready to splice into the
            /// flat record object.
            fn fields(&self) -> Vec<(String, Json)> {
                match self {
                    $(TraceEvent::$variant { $($field),+ } => {
                        vec![$((stringify!($field).to_string(), $field.to_json())),+]
                    })+
                }
            }

            /// Decodes the payload of the event tagged `tag`.
            fn from_fields(tag: &str, json: &Json) -> Result<Self, JsonError> {
                match tag {
                    $(stringify!($variant) => Ok(TraceEvent::$variant {
                        $($field: json.field(stringify!($field))?),+
                    }),)+
                    other => Err(JsonError {
                        msg: format!("unknown trace event tag `{other}`"),
                    }),
                }
            }
        }
    };
}

trace_event_codec! {
    ReconfigStart { rp, bytes, freq_mhz },
    ReconfigDone { rp, ok, latency_ps },
    DmaBurst { bytes },
    CrcPass { frames },
    CrcFail { frames },
    CrcAlarm { latency_ps },
    FaultInjected { kind },
    Retry { rp, attempt, freq_mhz },
    Backoff { rp, from_mhz, to_mhz },
    Scrub { rp, freq_mhz },
    Quarantine { rp },
    CacheHit { id, bytes },
    CacheMiss { id, stored_bytes },
    CacheEvict { id, bytes },
    PrefetchArmed { id, bytes },
    CodecBlock { block, words_out },
    SdFileStaged { raw_bytes, stored_bytes },
    StagedTransferStart { sram_words },
    StagedTransferDone { ok, words_out },
    DvfsSet { vdd_mv, freq_mhz },
    ThermalAlarm { temp_mc },
    ThermalThrottle { vdd_mv, freq_mhz },
}

/// One stamped event on the tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotone per-sink sequence number, starting at 0.
    pub seq: u64,
    /// Simulated time of emission, picoseconds.
    pub t_ps: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl ToJson for TraceRecord {
    /// Flat single-line object — `{"seq":…,"t_ps":…,"event":"…",…payload}` —
    /// so a tape renders as JSONL and diffs line-by-line.
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("seq".to_string(), Json::U64(self.seq)),
            ("t_ps".to_string(), Json::U64(self.t_ps)),
            ("event".to_string(), Json::Str(self.event.tag().to_string())),
        ];
        obj.extend(self.event.fields());
        Json::Obj(obj)
    }
}

impl FromJson for TraceRecord {
    /// Inverse of the flat encoding above — the checkpoint layer uses it to
    /// rebuild the retained tape, so every variant must round-trip exactly.
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let tag: String = json.field("event")?;
        let event = TraceEvent::from_fields(&tag, json)?;
        Ok(TraceRecord {
            seq: json.field("seq")?,
            t_ps: json.field("t_ps")?,
            event,
        })
    }
}

/// Aggregate event counters, maintained at `Counters` level and above.
///
/// Every field is derived from the event stream alone — a second accounting
/// path, deliberately independent of the subsystems' own telemetry, so the
/// cross-check tests can catch drift between the two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// [`TraceEvent::ReconfigStart`] events.
    pub reconfig_started: u64,
    /// [`TraceEvent::ReconfigDone`] with `ok = true`.
    pub reconfig_ok: u64,
    /// [`TraceEvent::ReconfigDone`] with `ok = false`.
    pub reconfig_failed: u64,
    /// [`TraceEvent::DmaBurst`] events.
    pub dma_bursts: u64,
    /// Total bytes across DMA bursts.
    pub dma_bytes: u64,
    /// [`TraceEvent::CrcPass`] events.
    pub crc_pass: u64,
    /// [`TraceEvent::CrcFail`] events.
    pub crc_fail: u64,
    /// [`TraceEvent::CrcAlarm`] events.
    pub crc_alarms: u64,
    /// [`TraceEvent::FaultInjected`] events.
    pub faults_injected: u64,
    /// [`TraceEvent::Retry`] events.
    pub retries: u64,
    /// [`TraceEvent::Backoff`] events.
    pub backoffs: u64,
    /// [`TraceEvent::Scrub`] events.
    pub scrubs: u64,
    /// [`TraceEvent::Quarantine`] events.
    pub quarantines: u64,
    /// [`TraceEvent::CacheHit`] events.
    pub cache_hits: u64,
    /// [`TraceEvent::CacheMiss`] events.
    pub cache_misses: u64,
    /// [`TraceEvent::CacheEvict`] events.
    pub cache_evictions: u64,
    /// Total stored bytes across cache misses (what dispatch fetched).
    pub bytes_fetched: u64,
    /// Total bytes released by cache evictions.
    pub bytes_evicted: u64,
    /// [`TraceEvent::PrefetchArmed`] events.
    pub prefetches_armed: u64,
    /// [`TraceEvent::CodecBlock`] events.
    pub codec_blocks: u64,
    /// [`TraceEvent::SdFileStaged`] events.
    pub sd_files: u64,
    /// Total stored bytes staged from SD.
    pub sd_stored_bytes: u64,
    /// [`TraceEvent::StagedTransferStart`] events.
    pub staged_transfers: u64,
    /// [`TraceEvent::DvfsSet`] events.
    pub dvfs_sets: u64,
    /// [`TraceEvent::ThermalAlarm`] events.
    pub thermal_alarms: u64,
    /// [`TraceEvent::ThermalThrottle`] events.
    pub thermal_throttles: u64,
}

impl_json_struct!(TraceCounters {
    reconfig_started,
    reconfig_ok,
    reconfig_failed,
    dma_bursts,
    dma_bytes,
    crc_pass,
    crc_fail,
    crc_alarms,
    faults_injected,
    retries,
    backoffs,
    scrubs,
    quarantines,
    cache_hits,
    cache_misses,
    cache_evictions,
    bytes_fetched,
    bytes_evicted,
    prefetches_armed,
    codec_blocks,
    sd_files,
    sd_stored_bytes,
    staged_transfers,
    dvfs_sets,
    thermal_alarms,
    thermal_throttles,
});

impl TraceCounters {
    /// Folds one event into the counters.
    pub fn absorb(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::ReconfigStart { .. } => self.reconfig_started += 1,
            TraceEvent::ReconfigDone { ok, .. } => {
                if ok {
                    self.reconfig_ok += 1;
                } else {
                    self.reconfig_failed += 1;
                }
            }
            TraceEvent::DmaBurst { bytes } => {
                self.dma_bursts += 1;
                self.dma_bytes += bytes;
            }
            TraceEvent::CrcPass { .. } => self.crc_pass += 1,
            TraceEvent::CrcFail { .. } => self.crc_fail += 1,
            TraceEvent::CrcAlarm { .. } => self.crc_alarms += 1,
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
            TraceEvent::Retry { .. } => self.retries += 1,
            TraceEvent::Backoff { .. } => self.backoffs += 1,
            TraceEvent::Scrub { .. } => self.scrubs += 1,
            TraceEvent::Quarantine { .. } => self.quarantines += 1,
            TraceEvent::CacheHit { .. } => self.cache_hits += 1,
            TraceEvent::CacheMiss { stored_bytes, .. } => {
                self.cache_misses += 1;
                self.bytes_fetched += stored_bytes;
            }
            TraceEvent::CacheEvict { bytes, .. } => {
                self.cache_evictions += 1;
                self.bytes_evicted += bytes;
            }
            TraceEvent::PrefetchArmed { .. } => self.prefetches_armed += 1,
            TraceEvent::CodecBlock { .. } => self.codec_blocks += 1,
            TraceEvent::SdFileStaged { stored_bytes, .. } => {
                self.sd_files += 1;
                self.sd_stored_bytes += stored_bytes;
            }
            TraceEvent::StagedTransferStart { .. } => self.staged_transfers += 1,
            TraceEvent::StagedTransferDone { .. } => {}
            TraceEvent::DvfsSet { .. } => self.dvfs_sets += 1,
            TraceEvent::ThermalAlarm { .. } => self.thermal_alarms += 1,
            TraceEvent::ThermalThrottle { .. } => self.thermal_throttles += 1,
        }
    }
}

/// Aggregate trace metrics under the non-finite-float contract: degenerate
/// percentiles are `None`, a zero-sample latency summary is
/// [`StatsSummary::EMPTY`] — never `inf`/`NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Level the sink ran at.
    pub level: TraceLevel,
    /// Events emitted (counted at `Counters` level and above).
    pub events_emitted: u64,
    /// Records retained on the tape (non-zero only at `Full`).
    pub events_retained: u64,
    /// The event-derived counters.
    pub counters: TraceCounters,
    /// Successful-reconfiguration latency, microseconds.
    pub reconfig_latency_us: StatsSummary,
    /// Exact p50 of successful-reconfiguration latency, µs (`None` when no
    /// latency was measured).
    pub reconfig_latency_p50_us: Option<f64>,
    /// Exact p99 of successful-reconfiguration latency, µs.
    pub reconfig_latency_p99_us: Option<f64>,
}

impl_json_struct!(TraceReport {
    level,
    events_emitted,
    events_retained,
    counters,
    reconfig_latency_us,
    reconfig_latency_p50_us,
    reconfig_latency_p99_us,
});

/// The per-system event bus: stamps, counts and (at `Full`) retains events.
///
/// Deliberately *passive*: it owns no clock and no RNG — callers pass the
/// simulated `now` they already hold, so attaching a sink cannot perturb
/// the simulation (see the module docs on determinism).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    level: TraceLevel,
    seq: u64,
    counters: TraceCounters,
    latency_samples: SampleSeries,
    events: Vec<TraceRecord>,
}

// The checkpoint form: the complete sink state, with the raw latency
// samples as bit-exact floats and the retained tape. Restoring it and
// continuing a run produces the same bytes as never pausing.
impl_json_struct!(TraceSink {
    level,
    seq,
    counters,
    latency_samples,
    events
});

impl TraceSink {
    /// A sink at [`TraceLevel::Off`].
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// A sink at the given level.
    pub fn with_level(level: TraceLevel) -> Self {
        TraceSink {
            level,
            ..TraceSink::default()
        }
    }

    /// Current level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Changes the level. Takes effect for subsequent emissions; already
    /// recorded state is kept.
    pub fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Records `event` at simulated time `now`.
    ///
    /// The `Off` fast path is a single branch — the cost the trace bench
    /// (`crates/bench/benches/trace.rs`) bounds at ≤ 5% on the headline
    /// reconfiguration loop.
    pub fn emit(&mut self, now: SimTime, event: TraceEvent) {
        if self.level == TraceLevel::Off {
            return;
        }
        self.counters.absorb(&event);
        if let TraceEvent::ReconfigDone {
            ok: true,
            latency_ps,
            ..
        } = event
        {
            if latency_ps > 0 {
                self.latency_samples.push(latency_ps as f64 / 1e6);
            }
        }
        let seq = self.seq;
        self.seq += 1;
        if self.level == TraceLevel::Full {
            self.events.push(TraceRecord {
                seq,
                t_ps: now.as_ps(),
                event,
            });
        }
    }

    /// Events emitted so far (0 while `Off`).
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }

    /// The retained tape (empty below `Full`).
    pub fn records(&self) -> &[TraceRecord] {
        &self.events
    }

    /// The event-derived counters.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// Renders the retained tape as JSONL: one compact JSON object per
    /// line, trailing newline after every record. Same seed, same config,
    /// same level ⇒ byte-identical output.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.events {
            out.push_str(&rec.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Aggregate metrics snapshot (`&mut` because exact quantiles sort
    /// lazily).
    pub fn report(&mut self) -> TraceReport {
        TraceReport {
            level: self.level,
            events_emitted: self.seq,
            events_retained: self.events.len() as u64,
            counters: self.counters.clone(),
            reconfig_latency_us: StatsSummary::from(&self.latency_samples.online_stats()),
            reconfig_latency_p50_us: self.latency_samples.quantile(0.50),
            reconfig_latency_p99_us: self.latency_samples.quantile(0.99),
        }
    }

    /// Drops everything recorded and restarts `seq` at 0; the level is
    /// kept. Useful to scope a tape to a region of interest.
    pub fn clear(&mut self) {
        self.seq = 0;
        self.counters = TraceCounters::default();
        self.latency_samples = SampleSeries::new();
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::json::FromJson;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn off_records_nothing() {
        let mut sink = TraceSink::new();
        sink.emit(t(10), TraceEvent::DmaBurst { bytes: 64 });
        assert_eq!(sink.events_emitted(), 0);
        assert_eq!(sink.counters(), &TraceCounters::default());
        assert!(sink.export_jsonl().is_empty());
    }

    #[test]
    fn counters_level_counts_without_retaining() {
        let mut sink = TraceSink::with_level(TraceLevel::Counters);
        sink.emit(t(10), TraceEvent::DmaBurst { bytes: 64 });
        sink.emit(t(20), TraceEvent::DmaBurst { bytes: 36 });
        assert_eq!(sink.events_emitted(), 2);
        assert_eq!(sink.counters().dma_bursts, 2);
        assert_eq!(sink.counters().dma_bytes, 100);
        assert!(sink.records().is_empty());
        assert!(sink.export_jsonl().is_empty());
    }

    #[test]
    fn full_level_retains_flat_jsonl_records() {
        let mut sink = TraceSink::with_level(TraceLevel::Full);
        sink.emit(
            t(1_000),
            TraceEvent::ReconfigStart {
                rp: 1,
                bytes: 4096,
                freq_mhz: 200,
            },
        );
        sink.emit(
            t(2_000),
            TraceEvent::ReconfigDone {
                rp: 1,
                ok: true,
                latency_ps: 1_000,
            },
        );
        let jsonl = sink.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_ps\":1000,\"event\":\"ReconfigStart\",\"rp\":1,\"bytes\":4096,\"freq_mhz\":200}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"t_ps\":2000,\"event\":\"ReconfigDone\",\"rp\":1,\"ok\":true,\"latency_ps\":1000}"
        );
    }

    #[test]
    fn latency_series_feeds_percentiles() {
        let mut sink = TraceSink::with_level(TraceLevel::Counters);
        for i in 1..=10u64 {
            sink.emit(
                t(i),
                TraceEvent::ReconfigDone {
                    rp: 0,
                    ok: true,
                    latency_ps: i * 1_000_000, // i µs
                },
            );
        }
        // Unmeasured and failed completions contribute no sample.
        sink.emit(
            t(11),
            TraceEvent::ReconfigDone {
                rp: 0,
                ok: true,
                latency_ps: 0,
            },
        );
        sink.emit(
            t(12),
            TraceEvent::ReconfigDone {
                rp: 0,
                ok: false,
                latency_ps: 5,
            },
        );
        let report = sink.report();
        assert_eq!(report.reconfig_latency_us.count, 10);
        assert_eq!(report.reconfig_latency_p50_us, Some(5.0));
        assert_eq!(report.reconfig_latency_p99_us, Some(10.0));
        assert_eq!(report.counters.reconfig_ok, 11);
        assert_eq!(report.counters.reconfig_failed, 1);
    }

    #[test]
    fn empty_report_is_json_safe() {
        let mut sink = TraceSink::with_level(TraceLevel::Full);
        let report = sink.report();
        assert_eq!(report.reconfig_latency_us, StatsSummary::EMPTY);
        assert_eq!(report.reconfig_latency_p50_us, None);
        let text = report.to_json_string();
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        assert_eq!(TraceReport::from_json_str(&text).unwrap(), report);
    }

    #[test]
    fn clear_resets_sequence_and_counters() {
        let mut sink = TraceSink::with_level(TraceLevel::Full);
        sink.emit(t(5), TraceEvent::Quarantine { rp: 2 });
        sink.clear();
        assert_eq!(sink.events_emitted(), 0);
        assert!(sink.records().is_empty());
        assert_eq!(sink.counters(), &TraceCounters::default());
        sink.emit(t(9), TraceEvent::Quarantine { rp: 2 });
        assert_eq!(sink.records()[0].seq, 0);
        assert_eq!(sink.level(), TraceLevel::Full);
    }

    #[test]
    fn dvfs_events_round_trip_and_count() {
        let mut sink = TraceSink::with_level(TraceLevel::Full);
        sink.emit(
            t(1),
            TraceEvent::DvfsSet {
                vdd_mv: 1000,
                freq_mhz: 200,
            },
        );
        sink.emit(t(2), TraceEvent::ThermalAlarm { temp_mc: 85_250 });
        sink.emit(
            t(3),
            TraceEvent::ThermalThrottle {
                vdd_mv: 950,
                freq_mhz: 100,
            },
        );
        assert_eq!(sink.counters().dvfs_sets, 1);
        assert_eq!(sink.counters().thermal_alarms, 1);
        assert_eq!(sink.counters().thermal_throttles, 1);
        for rec in sink.records() {
            let back = TraceRecord::from_json(&rec.to_json()).expect("round-trips");
            assert_eq!(&back, rec);
        }
        assert!(sink
            .export_jsonl()
            .contains("{\"seq\":1,\"t_ps\":2,\"event\":\"ThermalAlarm\",\"temp_mc\":85250}"));
    }

    #[test]
    fn every_event_counts_exactly_once_or_never() {
        // StagedTransferDone is the only variant absorbed without a
        // dedicated counter bump (its Start carries the count).
        let mut c = TraceCounters::default();
        c.absorb(&TraceEvent::StagedTransferDone {
            ok: true,
            words_out: 7,
        });
        assert_eq!(c, TraceCounters::default());
    }
}

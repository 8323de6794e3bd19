//! Fault-injection campaigns: statistical characterisation of the CRC
//! read-back monitor.
//!
//! The paper motivates the CRC block with "industrial IoT computers working
//! in harsh environments, such as factories" — environments where
//! configuration memory accumulates single-event upsets. A campaign injects
//! many randomly placed SEUs into monitored partitions, measures the
//! detection latency distribution, and verifies that upsets *outside* the
//! monitored regions (the static part, in this model's scope) do not raise
//! false alarms.
//!
//! Detection latency is bounded by construction: the monitor scans
//! round-robin, so an upset is caught within at most one full sweep after
//! the scan that first re-reads the flipped frame — the campaign checks the
//! measured distribution against that bound.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use pdr_sim_core::json::{Json, JsonError, ToJson};
use pdr_sim_core::stats::OnlineStats;
use pdr_sim_core::{
    impl_json_enum, impl_json_struct, Frequency, SimDuration, SimTime, Xoshiro256StarStar,
};

use crate::faults::{FaultKind, FaultPlan, FaultPlanConfig};
use crate::recovery::{PartitionHealth, RecoveryConfig, RecoveryManager, RecoveryStats};
use crate::snapshot;
use crate::system::{SystemConfig, ZynqPdrSystem};

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeuCampaign {
    /// Upsets to inject into monitored partitions.
    pub injections: u32,
    /// Additional upsets injected *outside* the monitored regions, which
    /// must not alarm (scope check).
    pub out_of_scope_injections: u32,
    /// Partitions under monitoring.
    pub rps: Vec<usize>,
    /// Campaign seed.
    pub seed: u64,
}

impl Default for SeuCampaign {
    fn default() -> Self {
        SeuCampaign {
            injections: 32,
            out_of_scope_injections: 4,
            rps: vec![0],
            seed: 2017,
        }
    }
}

/// Campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Upsets detected by the monitor.
    pub detected: u32,
    /// Upsets the monitor failed to detect within the deadline (must be 0).
    pub missed: u32,
    /// False alarms raised by out-of-scope upsets (must be 0).
    pub false_alarms: u32,
    /// Detection latencies in µs.
    pub latency_us: StatsSummary,
    /// One full monitor sweep, in µs (the theoretical latency bound is
    /// roughly two sweeps).
    pub scan_period_us: f64,
}

impl_json_struct!(CampaignResult {
    detected,
    missed,
    false_alarms,
    latency_us,
    scan_period_us,
});

/// A serialisable summary of an [`OnlineStats`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSummary {
    /// Sample count.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl_json_struct!(StatsSummary {
    count,
    mean,
    std_dev,
    min,
    max
});

impl StatsSummary {
    /// The canonical zero-sample summary: every field zero. A campaign that
    /// recorded nothing (e.g. a zero-fault recovery run) must still produce
    /// a well-defined, JSON-round-trippable summary, not NaN placeholders.
    pub const EMPTY: StatsSummary = StatsSummary {
        count: 0,
        mean: 0.0,
        std_dev: 0.0,
        min: 0.0,
        max: 0.0,
    };

    /// True when every field is finite (the codec renders non-finite floats
    /// as `null`, which then fails to decode — reports must never do that).
    pub fn is_json_safe(&self) -> bool {
        self.mean.is_finite()
            && self.std_dev.is_finite()
            && self.min.is_finite()
            && self.max.is_finite()
    }
}

impl From<&OnlineStats> for StatsSummary {
    fn from(s: &OnlineStats) -> Self {
        if s.count() == 0 {
            return StatsSummary::EMPTY;
        }
        // Defensive: a NaN pushed upstream would contaminate every Welford
        // moment. Clamp to 0.0 rather than serialize a non-finite float.
        let sanitize = |v: f64| if v.is_finite() { v } else { 0.0 };
        StatsSummary {
            count: s.count(),
            mean: sanitize(s.mean()),
            std_dev: sanitize(s.std_dev()),
            min: sanitize(s.min().unwrap_or(0.0)),
            max: sanitize(s.max().unwrap_or(0.0)),
        }
    }
}

/// Runs an SEU campaign on `sys`. The monitored partitions must already be
/// configured (their current content becomes the golden reference).
///
/// # Panics
///
/// Panics if the campaign monitors no partitions.
pub fn run_seu_campaign(sys: &mut ZynqPdrSystem, campaign: &SeuCampaign) -> CampaignResult {
    assert!(
        !campaign.rps.is_empty(),
        "campaign needs monitored partitions"
    );
    let mut rng = Xoshiro256StarStar::seed_from_u64(campaign.seed);
    sys.start_background_monitor(&campaign.rps);
    let scan = sys.monitor_scan_period();
    let deadline = scan * 3;

    let mut detected = 0;
    let mut missed = 0;
    let mut latency = OnlineStats::new();

    for _ in 0..campaign.injections {
        // Let the monitor free-run a random fraction of a sweep so the
        // injection lands at a random phase of the scan.
        sys.run_monitor_for(SimDuration::from_ps(rng.next_bounded(scan.as_ps().max(1))));
        let rp = campaign.rps[rng.next_bounded(campaign.rps.len() as u64) as usize];
        let frames = {
            let p = sys.floorplan().partition(rp);
            p.frame_count(sys.floorplan().geometry())
        };
        let frame = rng.next_bounded(frames as u64) as u32;
        let word = rng.next_bounded(pdr_bitstream::FRAME_WORDS as u64) as usize;
        let bit = rng.next_bounded(32) as u32;
        sys.inject_seu(rp, frame, word, bit);
        match sys.run_monitor_until_alarm(deadline) {
            Some(lat) => {
                detected += 1;
                latency.push(lat.as_micros_f64());
            }
            None => missed += 1,
        }
        // Scrub: flipping the same bit again restores the golden content,
        // then re-arm the alarm line.
        sys.inject_seu(rp, frame, word, bit);
        sys.crc_error_irq().clear();
        // Let the current sweep finish over the repaired frame so a stale
        // in-progress CRC cannot alarm spuriously.
        sys.run_monitor_for(scan);
        sys.crc_error_irq().clear();
    }

    // Out-of-scope upsets: static-region frames are nobody's golden
    // reference, so the monitor must stay silent.
    let mut false_alarms = 0;
    for _ in 0..campaign.out_of_scope_injections {
        if let Some(far) = static_region_far(sys, &campaign.rps, &mut rng) {
            sys.inject_static_seu(far, 3, 7);
            sys.run_monitor_for(scan * 2);
            if sys.crc_error_irq().is_raised() {
                false_alarms += 1;
                sys.crc_error_irq().clear();
            }
        }
    }

    CampaignResult {
        detected,
        missed,
        false_alarms,
        latency_us: StatsSummary::from(&latency),
        scan_period_us: scan.as_micros_f64(),
    }
}

/// Picks a frame outside every monitored partition, if the device has one.
fn static_region_far(
    sys: &ZynqPdrSystem,
    rps: &[usize],
    rng: &mut Xoshiro256StarStar,
) -> Option<pdr_bitstream::FrameAddress> {
    let geometry = sys.floorplan().geometry();
    let total = geometry.total_frames();
    'outer: for _ in 0..64 {
        let idx = rng.next_bounded(total as u64) as u32;
        for &rp in rps {
            let p = sys.floorplan().partition(rp);
            let start = p.start_index(geometry);
            let count = p.frame_count(geometry);
            if idx >= start && idx < start + count {
                continue 'outer;
            }
        }
        return Some(geometry.far_at(idx));
    }
    None
}

/// Mixed-fault campaign parameters: a replayable [`FaultPlanConfig`]
/// schedule plus the recovery policy that must absorb it.
///
/// The defaults are tuned so that, on [`FaultCampaign::fast_system`],
/// *every* scheduled fault manifests as an observable failure: timing
/// bursts derate past the 280 MHz interrupt slack (25 MHz at 40 °C), DMA
/// stalls outlast the watchdog timeout, and SEUs land in monitored
/// partitions. A fault that cannot manifest would count as `benign`, and
/// the acceptance tests pin `benign == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    /// The fault schedule (see [`FaultPlan::generate`]).
    pub plan: FaultPlanConfig,
    /// Partitions in service, monitored and used as reconfiguration
    /// vehicles. Must cover every partition the plan's SEUs target.
    pub rps: Vec<usize>,
    /// Requested over-clock for vehicle reconfigurations, MHz.
    pub operating_mhz: u64,
    /// The recovery ladder under test.
    pub recovery: RecoveryConfig,
}

impl Default for FaultCampaign {
    fn default() -> Self {
        FaultCampaign {
            plan: FaultPlanConfig {
                seed: 2017,
                duration: SimDuration::from_millis(6),
                mean_interarrival: SimDuration::from_micros(50),
                burst_probability: 0.1,
                burst_length: 3,
                burst_spacing: SimDuration::from_micros(20),
                weights: [6, 2, 1, 2, 0],
                // 280 MHz has 25 MHz of interrupt slack and 38 MHz of data
                // slack at 40 °C: every derate in range kills at least the
                // interrupt path, derates past 38 corrupt data too.
                derate_mhz: (30.0, 60.0),
                timing_burst_duration: SimDuration::from_micros(400),
                // The watchdog fires at 250 µs = 70 k cycles at 280 MHz;
                // every stall in range outlasts it.
                stall_cycles: (80_000, 150_000),
                ..FaultPlanConfig::default()
            },
            rps: vec![0, 1],
            operating_mhz: 280,
            recovery: RecoveryConfig {
                scrub_mhz: 200,
                ..RecoveryConfig::default()
            },
        }
    }
}

impl FaultCampaign {
    /// A system configuration tuned for campaign runs: the fast-test
    /// floorplan with a watchdog timeout short enough that the plan's DMA
    /// stalls manifest within simulated microseconds instead of the
    /// production 40 ms.
    pub fn fast_system() -> SystemConfig {
        let mut cfg = SystemConfig::fast_test();
        cfg.transfer_timeout = SimDuration::from_micros(250);
        cfg
    }
}

/// Aggregate outcome of [`run_fault_campaign`]. Serialisable; two runs from
/// the same seed produce byte-identical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignResult {
    /// The plan seed (replay provenance).
    pub seed: u64,
    /// Total scheduled fault events.
    pub events: u64,
    /// SEU bit-flips injected.
    pub injected_seu: u64,
    /// Timing bursts injected.
    pub injected_timing_bursts: u64,
    /// DMA stalls injected.
    pub injected_dma_stalls: u64,
    /// Completion interrupts dropped.
    pub injected_dropped_irqs: u64,
    /// Faults observed by the monitor or the watchdog.
    pub detected: u64,
    /// SEUs the monitor missed within its deadline (must be 0; a miss also
    /// surfaces in the final golden sweep).
    pub undetected: u64,
    /// Faults that produced no observable failure (must be 0 under the
    /// default tuning).
    pub benign: u64,
    /// Faults skipped because every candidate partition was quarantined.
    pub skipped: u64,
    /// Detected faults repaired by the recovery ladder.
    pub recovered: u64,
    /// Detected faults the ladder could not repair.
    pub unrecovered: u64,
    /// Partitions whose post-campaign fabric content silently diverged
    /// from their golden image (must be 0).
    pub silent_corruptions: u64,
    /// Partitions taken out of service.
    pub quarantined_partitions: u64,
    /// In-service fraction of partition-time: 1 minus accumulated
    /// detection + repair + quarantine downtime over the campaign span.
    pub availability: f64,
    /// Campaign wall time, µs (simulated).
    pub campaign_us: f64,
    /// The recovery manager's own telemetry.
    pub recovery: RecoveryStats,
}

impl_json_struct!(FaultCampaignResult {
    seed,
    events,
    injected_seu,
    injected_timing_bursts,
    injected_dma_stalls,
    injected_dropped_irqs,
    detected,
    undetected,
    benign,
    skipped,
    recovered,
    unrecovered,
    silent_corruptions,
    quarantined_partitions,
    availability,
    campaign_us,
    recovery,
});

/// What the system observed for one scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The fault manifested and was caught (CRC alarm, watchdog, or a
    /// recovered transfer failure).
    Detected,
    /// An SEU the monitor failed to catch within its deadline.
    Undetected,
    /// The fault produced no observable failure.
    Benign,
    /// Injection or exercise was skipped (every candidate quarantined).
    Skipped,
}

impl_json_enum!(FaultOutcome {
    Detected,
    Undetected,
    Benign,
    Skipped
});

/// Per-event campaign record, streamed to the caller's sink the moment the
/// event is resolved. The record carries full replay provenance: the event
/// index, its per-fault seed ([`FaultPlan::fault_seed`]) and the exact
/// injection timestamp, so any single fault can be re-run in isolation via
/// [`FaultPlan::isolate`] without regenerating the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Index of the event in the plan.
    pub idx: u64,
    /// The fault kind.
    pub kind: FaultKind,
    /// Per-fault RNG seed (replay provenance).
    pub seed: u64,
    /// Scheduled instant, ps from campaign start.
    pub scheduled_ps: u64,
    /// Absolute simulation time when the event was handled, ps.
    pub injected_ps: u64,
    /// What the system observed.
    pub outcome: FaultOutcome,
    /// Whether the recovery ladder repaired it.
    pub recovered: bool,
    /// Detection latency, µs (SEU detections; 0 otherwise).
    pub latency_us: f64,
    /// Time-to-repair, µs (recovered faults; 0 otherwise).
    pub mttr_us: f64,
}

impl_json_struct!(FaultRecord {
    idx,
    kind,
    seed,
    scheduled_ps,
    injected_ps,
    outcome,
    recovered,
    latency_us,
    mttr_us,
});

/// The campaign's mutable bookkeeping between events — everything the
/// stepwise runner needs besides the system, the recovery manager and the
/// (immutable) plan. Serialized whole into campaign checkpoints.
#[derive(Debug, Clone, PartialEq)]
struct CampaignState {
    idx: usize,
    detected: u64,
    undetected: u64,
    benign: u64,
    skipped: u64,
    recovered: u64,
    unrecovered: u64,
    downtime_ps: u64,
    quarantined_at: Vec<Option<SimTime>>,
    rr: usize,
    t0_ps: SimTime,
    scan_ps: SimDuration,
}

impl_json_struct!(CampaignState {
    idx,
    detected,
    undetected,
    benign,
    skipped,
    recovered,
    unrecovered,
    downtime_ps,
    quarantined_at,
    rr,
    t0_ps,
    scan_ps
});

/// Brings the system into service for a campaign: asserts the plan is in
/// scope, configures every partition (initial content becomes the golden
/// reference) and arms the background monitor.
fn init_campaign(
    sys: &mut ZynqPdrSystem,
    campaign: &FaultCampaign,
    plan: &FaultPlan,
) -> (RecoveryManager, CampaignState) {
    assert!(
        !campaign.rps.is_empty(),
        "campaign needs monitored partitions"
    );
    for e in plan.events.iter().filter(|e| e.kind == FaultKind::Seu) {
        assert!(
            campaign.rps.contains(&e.rp),
            "plan targets partition {} outside the monitored set",
            e.rp
        );
    }
    let scrub = Frequency::from_mhz(campaign.recovery.scrub_mhz);
    let mut mgr = RecoveryManager::for_system(sys, campaign.recovery);
    for (i, &rp) in campaign.rps.iter().enumerate() {
        let bs = sys.make_partial_bitstream(rp, i as u32 + 1);
        let out = mgr.reconfigure(sys, None, rp, &bs, scrub);
        assert!(out.succeeded(), "initial configuration of rp{rp} failed");
    }
    sys.start_background_monitor(&campaign.rps);
    let st = CampaignState {
        idx: 0,
        detected: 0,
        undetected: 0,
        benign: 0,
        skipped: 0,
        recovered: 0,
        unrecovered: 0,
        downtime_ps: 0,
        quarantined_at: vec![None; sys.floorplan().partitions().len()],
        rr: 0,
        t0_ps: sys.now(),
        scan_ps: sys.monitor_scan_period(),
    };
    (mgr, st)
}

/// Handles the next scheduled event: advances simulated time to its slot,
/// injects it, lets the monitor/recovery machinery resolve it, and folds
/// the outcome into the running counters. Returns the event's record, or
/// `None` when the plan is exhausted.
fn step_campaign(
    sys: &mut ZynqPdrSystem,
    mgr: &mut RecoveryManager,
    campaign: &FaultCampaign,
    plan: &FaultPlan,
    st: &mut CampaignState,
) -> Option<FaultRecord> {
    let i = st.idx;
    let e = plan.events.get(i)?;
    st.idx += 1;
    // Advance to the scheduled instant; events that fall behind the
    // handling of their predecessors run back-to-back.
    let elapsed = sys.now().duration_since(st.t0_ps).as_ps();
    if e.at_ps > elapsed {
        sys.run_monitor_for(SimDuration::from_ps(e.at_ps - elapsed));
    }
    let mut rec = FaultRecord {
        idx: i as u64,
        kind: e.kind,
        seed: plan.fault_seed(i),
        scheduled_ps: e.at_ps,
        injected_ps: sys.now().as_ps(),
        outcome: FaultOutcome::Skipped,
        recovered: false,
        latency_us: 0.0,
        mttr_us: 0.0,
    };
    match e.kind {
        FaultKind::Seu => {
            if mgr.health(e.rp) == PartitionHealth::Quarantined {
                st.skipped += 1;
                return Some(rec);
            }
            sys.inject_seu(e.rp, e.frame, e.word, e.bit);
            match sys.run_monitor_until_alarm(st.scan_ps * 3) {
                Some(lat) => {
                    st.detected += 1;
                    rec.outcome = FaultOutcome::Detected;
                    rec.latency_us = lat.as_micros_f64();
                    st.downtime_ps += lat.as_ps();
                    mgr.record_detection(lat);
                    let out = mgr.on_crc_alarm(sys, e.rp);
                    if out.succeeded() {
                        st.recovered += 1;
                        rec.recovered = true;
                        let mttr = out.mttr.expect("recovered");
                        rec.mttr_us = mttr.as_micros_f64();
                        st.downtime_ps += mttr.as_ps();
                    } else {
                        st.unrecovered += 1;
                        note_quarantines(mgr, &mut st.quarantined_at, sys.now());
                    }
                    restart_monitor(sys, mgr, &campaign.rps);
                }
                None => {
                    st.undetected += 1;
                    rec.outcome = FaultOutcome::Undetected;
                }
            }
        }
        kind => {
            match kind {
                FaultKind::TimingBurst => {
                    sys.inject_timing_burst(e.derate_mhz, SimDuration::from_ps(e.duration_ps))
                }
                FaultKind::DmaStall => sys.inject_dma_stall(e.stall_cycles),
                FaultKind::DroppedIrq => sys.drop_next_completion_irq(),
                FaultKind::HeatSoak => {
                    sys.inject_heat_soak(e.delta_mc, SimDuration::from_ps(e.duration_ps))
                }
                FaultKind::Seu => unreachable!("handled above"),
            }
            let n = campaign.rps.len();
            let mut vehicle = None;
            for k in 0..n {
                let rp = campaign.rps[(st.rr + k) % n];
                if mgr.health(rp) != PartitionHealth::Quarantined {
                    vehicle = Some(rp);
                    st.rr += k + 1;
                    break;
                }
            }
            let Some(rp) = vehicle else {
                st.skipped += 1;
                return Some(rec);
            };
            let bs = mgr.golden(rp).expect("configured at start");
            let out = mgr.reconfigure(
                sys,
                None,
                rp,
                &bs,
                Frequency::from_mhz(campaign.operating_mhz),
            );
            if out.recovered_after_failure || !out.succeeded() {
                st.detected += 1;
                rec.outcome = FaultOutcome::Detected;
            } else {
                st.benign += 1;
                rec.outcome = FaultOutcome::Benign;
            }
            if out.succeeded() {
                if out.recovered_after_failure {
                    st.recovered += 1;
                    rec.recovered = true;
                    let mttr = out.mttr.expect("recovered");
                    rec.mttr_us = mttr.as_micros_f64();
                    st.downtime_ps += mttr.as_ps();
                }
            } else {
                st.unrecovered += 1;
                note_quarantines(mgr, &mut st.quarantined_at, sys.now());
            }
            restart_monitor(sys, mgr, &campaign.rps);
        }
    }
    Some(rec)
}

/// The final golden sweep and availability accounting.
fn finish_campaign(
    sys: &ZynqPdrSystem,
    mgr: &RecoveryManager,
    campaign: &FaultCampaign,
    plan: &FaultPlan,
    st: &CampaignState,
) -> FaultCampaignResult {
    let end = sys.now();
    let duration = end.duration_since(st.t0_ps);
    let mut silent_corruptions = 0u64;
    for &rp in &campaign.rps {
        if mgr.health(rp) == PartitionHealth::Quarantined {
            continue;
        }
        let golden = mgr.golden(rp).expect("configured at start");
        if !sys.fabric_matches(&golden) {
            silent_corruptions += 1;
        }
    }
    let mut downtime_ps = st.downtime_ps;
    for q in st.quarantined_at.iter().flatten() {
        downtime_ps += end.duration_since(*q).as_ps();
    }
    let span_ps = duration
        .as_ps()
        .max(1)
        .saturating_mul(campaign.rps.len() as u64);
    let availability = (1.0 - downtime_ps as f64 / span_ps as f64).clamp(0.0, 1.0);

    FaultCampaignResult {
        seed: plan.seed,
        events: plan.events.len() as u64,
        injected_seu: plan.count(FaultKind::Seu) as u64,
        injected_timing_bursts: plan.count(FaultKind::TimingBurst) as u64,
        injected_dma_stalls: plan.count(FaultKind::DmaStall) as u64,
        injected_dropped_irqs: plan.count(FaultKind::DroppedIrq) as u64,
        detected: st.detected,
        undetected: st.undetected,
        benign: st.benign,
        skipped: st.skipped,
        recovered: st.recovered,
        unrecovered: st.unrecovered,
        silent_corruptions,
        quarantined_partitions: mgr.stats().quarantines,
        availability,
        campaign_us: duration.as_micros_f64(),
        recovery: mgr.stats(),
    }
}

/// Runs a mixed-fault campaign: generates the plan, brings every partition
/// into service (initial content becomes the golden reference), then walks
/// the schedule. SEUs are detected by the background CRC monitor and
/// scrubbed; timing bursts, DMA stalls and dropped interrupts are exercised
/// through a managed reconfiguration on a round-robin vehicle partition, so
/// the watchdog + retry/backoff ladder absorbs them. A final golden sweep
/// counts silent corruptions.
///
/// Memory stays flat in the number of faults: per-event [`FaultRecord`]s
/// are folded into the aggregate as they are produced and dropped — a
/// 10⁶-fault campaign holds the same RSS as a 10-fault one. Use
/// [`CampaignRun::run_to_end`] to observe the records.
///
/// Deterministic: the result (including its JSON) is a pure function of
/// the campaign, the system configuration and their seeds.
///
/// # Panics
///
/// Panics if the campaign monitors no partitions, the plan targets a
/// partition outside the monitored set, or initial configuration fails.
pub fn run_fault_campaign(
    sys: &mut ZynqPdrSystem,
    campaign: &FaultCampaign,
) -> FaultCampaignResult {
    let plan = FaultPlan::generate(&campaign.plan, sys.floorplan());
    let (mut mgr, mut st) = init_campaign(sys, campaign, &plan);
    while step_campaign(sys, &mut mgr, campaign, &plan, &mut st).is_some() {}
    finish_campaign(sys, &mgr, campaign, &plan, &st)
}

/// Re-arms the background monitor over the partitions still in service
/// (reconfiguration pauses it; quarantined partitions leave the scan).
fn restart_monitor(sys: &mut ZynqPdrSystem, mgr: &RecoveryManager, rps: &[usize]) {
    let active: Vec<usize> = rps
        .iter()
        .copied()
        .filter(|&rp| mgr.health(rp) != PartitionHealth::Quarantined)
        .collect();
    if !active.is_empty() {
        sys.start_background_monitor(&active);
    }
}

/// Stamps the quarantine instant of any newly quarantined partition, for
/// availability accounting.
fn note_quarantines(mgr: &RecoveryManager, at: &mut [Option<SimTime>], now: SimTime) {
    for (rp, h) in mgr.health_all().iter().enumerate() {
        if *h == PartitionHealth::Quarantined && at[rp].is_none() {
            at[rp] = Some(now);
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-resumable campaign runner
// ---------------------------------------------------------------------------

/// A stepwise, checkpointable fault campaign: the state `run_fault_campaign`
/// keeps in locals, owned so it can be serialized between events.
///
/// * [`CampaignRun::checkpoint`] captures the whole run — system snapshot,
///   recovery manager, plan, and counters — as a versioned JSON envelope;
///   [`CampaignRun::resume`] rebuilds a run from it that finishes
///   **byte-identically** to one that was never interrupted.
/// * [`CampaignRun::replan`] re-seeds the remaining schedule, which is how
///   [`fork_replicas`] fans a Monte Carlo fleet out of one warmed-up
///   checkpoint.
/// * [`CampaignRun::digest`] fingerprints the full observable state after
///   each event, which is what [`bisect_campaigns`] binary-searches to pin
///   a first divergence.
pub struct CampaignRun {
    sys: ZynqPdrSystem,
    mgr: RecoveryManager,
    campaign: FaultCampaign,
    plan: FaultPlan,
    st: CampaignState,
}

impl CampaignRun {
    /// Builds a run: constructs the system, generates the plan, configures
    /// every partition and arms the monitor. No events are handled yet.
    ///
    /// # Panics
    ///
    /// As [`run_fault_campaign`].
    pub fn new(config: SystemConfig, campaign: FaultCampaign) -> CampaignRun {
        let sys = ZynqPdrSystem::new(config);
        let plan = FaultPlan::generate(&campaign.plan, sys.floorplan());
        CampaignRun::with_plan(sys, campaign, plan)
    }

    /// Builds a run over an explicit plan instead of generating one — the
    /// hook for replaying an isolated fault ([`FaultPlan::isolate`]) or
    /// planting a known divergence for [`bisect_campaigns`].
    ///
    /// # Panics
    ///
    /// As [`run_fault_campaign`].
    pub fn with_plan(
        mut sys: ZynqPdrSystem,
        campaign: FaultCampaign,
        plan: FaultPlan,
    ) -> CampaignRun {
        let (mgr, st) = init_campaign(&mut sys, &campaign, &plan);
        CampaignRun {
            sys,
            mgr,
            campaign,
            plan,
            st,
        }
    }

    /// Handles the next scheduled event; `None` when the plan is exhausted.
    pub fn step(&mut self) -> Option<FaultRecord> {
        step_campaign(
            &mut self.sys,
            &mut self.mgr,
            &self.campaign,
            &self.plan,
            &mut self.st,
        )
    }

    /// Runs every remaining event, streaming records into `sink` the moment
    /// each resolves (records are never buffered), then produces the final
    /// report.
    pub fn run_to_end(&mut self, sink: &mut dyn FnMut(FaultRecord)) -> FaultCampaignResult {
        while let Some(rec) = self.step() {
            sink(rec);
        }
        self.finish()
    }

    /// True when every scheduled event has been handled.
    pub fn is_done(&self) -> bool {
        self.st.idx >= self.plan.events.len()
    }

    /// Scheduled events in the plan.
    pub fn events(&self) -> usize {
        self.plan.events.len()
    }

    /// Events handled so far.
    pub fn position(&self) -> usize {
        self.st.idx
    }

    /// The final golden sweep and availability report (normally called once
    /// the plan is exhausted; mid-run it reports the prefix handled so far
    /// against the full plan's injection counts).
    pub fn finish(&self) -> FaultCampaignResult {
        finish_campaign(&self.sys, &self.mgr, &self.campaign, &self.plan, &self.st)
    }

    /// The system under test.
    pub fn system(&self) -> &ZynqPdrSystem {
        &self.sys
    }

    /// Mutable access to the system under test — e.g. to raise the trace
    /// level before any events are handled. Mutations mid-run become part
    /// of the observable state and travel through checkpoints like any
    /// other state.
    pub fn system_mut(&mut self) -> &mut ZynqPdrSystem {
        &mut self.sys
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Serializes the whole run as a versioned checkpoint envelope
    /// (kind `"campaign"`). Write it with [`snapshot::save`] for the
    /// atomic temp-file-and-rename discipline.
    pub fn checkpoint(&self) -> Json {
        snapshot::envelope(
            "campaign",
            Json::Obj(vec![
                ("system".into(), self.sys.snapshot_json()),
                ("recovery".into(), self.mgr.snapshot_json()),
                ("plan".into(), self.plan.to_json()),
                ("state".into(), self.st.to_json()),
            ]),
        )
    }

    /// Rebuilds a run from a [`CampaignRun::checkpoint`]. `config` and
    /// `campaign` must be the ones the checkpointed run was built from
    /// (the plan itself travels inside the checkpoint); a structural
    /// mismatch is rejected before any state is mutated.
    pub fn resume(
        config: SystemConfig,
        campaign: FaultCampaign,
        checkpoint: &Json,
    ) -> Result<CampaignRun, JsonError> {
        let payload = snapshot::open(checkpoint, "campaign")?;
        let mut sys = ZynqPdrSystem::new(config);
        sys.restore_json(payload.required("system")?)?;
        let mut mgr = RecoveryManager::for_system(&sys, campaign.recovery);
        mgr.restore_json(payload.required("recovery")?)?;
        let plan: FaultPlan = payload.field("plan")?;
        let st: CampaignState = payload.field("state")?;
        let partitions = sys.floorplan().partitions().len();
        if st.quarantined_at.len() != partitions {
            return Err(JsonError {
                msg: format!(
                    "quarantined_at covers {} partitions, system has {partitions}",
                    st.quarantined_at.len()
                ),
            });
        }
        if st.idx > plan.events.len() {
            return Err(JsonError {
                msg: format!(
                    "checkpoint cursor {} past the end of the {}-event plan",
                    st.idx,
                    plan.events.len()
                ),
            });
        }
        Ok(CampaignRun {
            sys,
            mgr,
            campaign,
            plan,
            st,
        })
    }

    /// Replaces the *remaining* schedule with a fresh plan generated from
    /// `seed`: the new plan picks up where the old schedule left off —
    /// events scheduled at or before the last handled event's slot are
    /// dropped, so each replica faces the remaining campaign horizon with
    /// its own fault draws. Events already running behind schedule are
    /// handled back-to-back, exactly as in an uninterrupted run;
    /// accumulated counters and downtime carry over. This is the
    /// per-replica divergence point of [`fork_replicas`].
    pub fn replan(&mut self, seed: u64) {
        let mut pc = self.campaign.plan.clone();
        pc.seed = seed;
        let plan = FaultPlan::generate(&pc, self.sys.floorplan());
        let cut = match self.st.idx {
            0 => 0,
            i => self.plan.events[i.min(self.plan.events.len()) - 1].at_ps,
        };
        self.st.idx = plan.events.partition_point(|e| e.at_ps <= cut);
        self.plan = plan;
    }

    /// FNV-1a fingerprint of the run's entire observable state — system
    /// snapshot (including the trace tape), recovery state, and counters,
    /// but *not* the plan, so two runs executing different schedules
    /// compare equal exactly until their behaviour first differs.
    pub fn digest(&self) -> u64 {
        snapshot::digest(&Json::Obj(vec![
            ("system".into(), self.sys.snapshot_json()),
            ("recovery".into(), self.mgr.snapshot_json()),
            ("state".into(), self.st.to_json()),
        ]))
    }
}

// ---------------------------------------------------------------------------
// Monte Carlo fleet
// ---------------------------------------------------------------------------

/// Distribution summary with order statistics and a normal-approximation
/// 95% confidence interval on the mean (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    /// Sample count.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Lower edge of the 95% CI on the mean.
    pub ci95_lo: f64,
    /// Upper edge of the 95% CI on the mean.
    pub ci95_hi: f64,
}

impl_json_struct!(DistSummary {
    count,
    mean,
    std_dev,
    min,
    max,
    p50,
    p99,
    ci95_lo,
    ci95_hi,
});

impl DistSummary {
    /// Summarises a sample set. An empty set yields all-zero fields.
    ///
    /// The moments are accumulated by folding one single-sample fragment
    /// per value with [`OnlineStats::merge`] (parallel Welford), in sample
    /// order — exactly the fold [`ParallelExecutor`] applies to per-replica
    /// fragments, so the serial and merged-parallel summaries are
    /// bit-identical for any thread count.
    ///
    /// `std_dev` reports the *population* (÷n) deviation — the spread of
    /// the samples actually measured — while `ci95_lo`/`ci95_hi` are built
    /// from the *sample* (÷n−1) deviation, the unbiased estimator a
    /// confidence interval on the mean requires (a ÷n CI is systematically
    /// too narrow, worst at small replica counts).
    pub fn from_samples(samples: &[f64]) -> DistSummary {
        let mut stats = OnlineStats::new();
        for &s in samples {
            let mut fragment = OnlineStats::new();
            fragment.push(s);
            stats.merge(&fragment);
        }
        DistSummary::from_parts(&stats, samples)
    }

    /// Assembles a summary from moments already folded with
    /// [`OnlineStats::merge`] plus the samples themselves for the order
    /// statistics. `stats` must describe exactly `samples`.
    fn from_parts(stats: &OnlineStats, samples: &[f64]) -> DistSummary {
        let n = samples.len();
        if n == 0 {
            return DistSummary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p99: 0.0,
                ci95_lo: 0.0,
                ci95_hi: 0.0,
            };
        }
        debug_assert_eq!(stats.count(), n as u64);
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let nearest = |q: f64| {
            let rank = (q * n as f64).ceil() as usize;
            sorted[rank.max(1).min(n) - 1]
        };
        let half = if n > 1 {
            1.96 * stats.sample_std_dev() / (n as f64).sqrt()
        } else {
            0.0
        };
        DistSummary {
            count: n as u64,
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: nearest(0.50),
            p99: nearest(0.99),
            ci95_lo: stats.mean() - half,
            ci95_hi: stats.mean() + half,
        }
    }
}

/// One replica's row in a [`MonteCarloReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRow {
    /// The replica's plan seed.
    pub seed: u64,
    /// Events the replica actually handled: the shared warm-up prefix plus
    /// its own re-seeded remainder.
    pub events: u64,
    /// Faults detected.
    pub detected: u64,
    /// Faults repaired.
    pub recovered: u64,
    /// Faults the ladder could not repair.
    pub unrecovered: u64,
    /// The replica's availability.
    pub availability: f64,
}

impl_json_struct!(ReplicaRow {
    seed,
    events,
    detected,
    recovered,
    unrecovered,
    availability,
});

/// Fleet-style merge of N forked campaign replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Replica count.
    pub replicas: u64,
    /// Total scheduled events across replicas.
    pub events: u64,
    /// Total faults detected.
    pub detected: u64,
    /// Total SEUs missed (must be 0).
    pub undetected: u64,
    /// Total benign faults.
    pub benign: u64,
    /// Total skipped injections.
    pub skipped: u64,
    /// Total faults repaired.
    pub recovered: u64,
    /// Total unrepaired faults.
    pub unrecovered: u64,
    /// Total silent corruptions (must be 0).
    pub silent_corruptions: u64,
    /// Total partitions quarantined.
    pub quarantined_partitions: u64,
    /// Availability distribution across replicas (mean, p50/p99, 95% CI).
    pub availability: DistSummary,
    /// Per-replica rows, in seed order given to [`fork_replicas`].
    pub per_replica: Vec<ReplicaRow>,
}

impl_json_struct!(MonteCarloReport {
    replicas,
    events,
    detected,
    undetected,
    benign,
    skipped,
    recovered,
    unrecovered,
    silent_corruptions,
    quarantined_partitions,
    availability,
    per_replica,
});

/// Everything one replica contributes to the fleet merge: its row, its
/// full report, and its availability as a single-sample [`OnlineStats`]
/// fragment for the parallel-Welford fold.
struct ReplicaOutcome {
    row: ReplicaRow,
    result: FaultCampaignResult,
    fragment: OnlineStats,
}

/// Folds a finished replica's report into the merge inputs. The replica's
/// plan length counts only its own schedule; what it handled is the warm-up
/// prefix plus its re-seeded remainder — every handled event lands in
/// exactly one outcome bucket.
fn outcome_of(seed: u64, result: FaultCampaignResult) -> ReplicaOutcome {
    let handled = result.detected + result.undetected + result.benign + result.skipped;
    let mut fragment = OnlineStats::new();
    fragment.push(result.availability);
    ReplicaOutcome {
        row: ReplicaRow {
            seed,
            events: handled,
            detected: result.detected,
            recovered: result.recovered,
            unrecovered: result.unrecovered,
            availability: result.availability,
        },
        result,
        fragment,
    }
}

/// One replica of a Monte Carlo fork, start to finish: resume the shared
/// warmed checkpoint, re-seed the remaining schedule, run to completion.
/// A pure function of its inputs — the unit of work [`ParallelExecutor`]
/// hands to a worker thread.
fn run_replica(
    config: &SystemConfig,
    campaign: &FaultCampaign,
    checkpoint: &Json,
    seed: u64,
) -> Result<ReplicaOutcome, JsonError> {
    let mut run = CampaignRun::resume(config.clone(), campaign.clone(), checkpoint)?;
    run.replan(seed);
    let result = run.run_to_end(&mut |_| {});
    Ok(outcome_of(seed, result))
}

/// Merges replica outcomes — **already in replica-index order** — into the
/// fleet report. Both the serial and the parallel paths commit through this
/// one function, and the availability fold walks the fragments left to
/// right, so the merged report is a pure function of the ordered outcome
/// list: byte-identical no matter how many workers produced it.
fn merge_replicas(outcomes: Vec<ReplicaOutcome>) -> MonteCarloReport {
    let mut stats = OnlineStats::new();
    let mut avail = Vec::with_capacity(outcomes.len());
    let mut per_replica = Vec::with_capacity(outcomes.len());
    let mut report = MonteCarloReport {
        replicas: outcomes.len() as u64,
        events: 0,
        detected: 0,
        undetected: 0,
        benign: 0,
        skipped: 0,
        recovered: 0,
        unrecovered: 0,
        silent_corruptions: 0,
        quarantined_partitions: 0,
        availability: DistSummary::from_samples(&[]),
        per_replica: Vec::new(),
    };
    for o in outcomes {
        report.events += o.row.events;
        report.detected += o.result.detected;
        report.undetected += o.result.undetected;
        report.benign += o.result.benign;
        report.skipped += o.result.skipped;
        report.recovered += o.result.recovered;
        report.unrecovered += o.result.unrecovered;
        report.silent_corruptions += o.result.silent_corruptions;
        report.quarantined_partitions += o.result.quarantined_partitions;
        stats.merge(&o.fragment);
        avail.push(o.row.availability);
        per_replica.push(o.row);
    }
    report.availability = DistSummary::from_parts(&stats, &avail);
    report.per_replica = per_replica;
    report
}

/// Fans N Monte Carlo replicas out of one warmed-up checkpoint: each
/// replica resumes the checkpoint, re-seeds the remaining schedule with its
/// own seed ([`CampaignRun::replan`]), runs to completion, and the results
/// merge into a fleet report with confidence intervals. Deterministic: the
/// same checkpoint and seed set produce a byte-identical report.
///
/// This is the serial reference path; [`ParallelExecutor::fork_replicas`]
/// produces the same bytes from a worker pool.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn fork_replicas(
    config: &SystemConfig,
    campaign: &FaultCampaign,
    checkpoint: &Json,
    seeds: &[u64],
) -> Result<MonteCarloReport, JsonError> {
    ParallelExecutor::serial().fork_replicas(config, campaign, checkpoint, seeds)
}

// ---------------------------------------------------------------------------
// Deterministic multi-threaded execution
// ---------------------------------------------------------------------------

/// Environment variable selecting the default worker-thread count for
/// [`ParallelExecutor::from_env`]. Unset, the executor uses the host's
/// available parallelism. Any value — including `1` — produces the same
/// bytes; the variable only trades wall-clock for cores.
pub const THREADS_ENV: &str = "PDR_THREADS";

/// Fans independent campaign work — Monte Carlo replicas, sharded soaks —
/// across `std::thread` workers under a deterministic merge contract:
/// for any seed set and any thread count (including 1), the merged
/// [`MonteCarloReport`], its availability [`DistSummary`], and the
/// per-replica rows are **byte-identical** to the serial path.
///
/// The contract holds by construction, not by luck:
///
/// * each unit of work is a pure function of plain inputs (config,
///   campaign, checkpoint JSON, seed) — a worker builds its own
///   [`ZynqPdrSystem`] *inside* its thread, so none of the simulator's
///   single-threaded `Rc<RefCell<…>>` state ever crosses a thread
///   boundary (`ZynqPdrSystem` is deliberately `!Send`);
/// * workers pull indices from a shared queue, so completion order is
///   racy, but results are committed into an index-ordered table and
///   merged left to right by one shared merge fold — the same code the
///   serial path uses;
/// * the availability moments fold per-replica single-sample
///   [`OnlineStats`] fragments with the parallel-Welford
///   [`OnlineStats::merge`], in replica-index order, on the committing
///   thread.
///
/// Enforced by `tests/proptest_parallel.rs` (random plans × thread counts
/// {1, 2, 3, 8}), the `campaign` bench (equivalence before speedup), and
/// the CI thread-matrix smoke (`--threads {1,4}` × both engines, `cmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// The single-worker executor — the serial reference path.
    pub fn serial() -> ParallelExecutor {
        ParallelExecutor::new(1)
    }

    /// Reads the worker count from [`THREADS_ENV`], falling back to the
    /// host's available parallelism.
    ///
    /// `PDR_THREADS=0` clamps to one worker — zero is a request for "as
    /// little parallelism as possible", not a configuration error, and the
    /// byte-identity contract makes any clamp observationally safe. An
    /// `available_parallelism()` error likewise falls back to one worker.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to anything non-numeric — a
    /// misconfigured campaign must fail loudly, not run serial silently.
    pub fn from_env() -> ParallelExecutor {
        Self::from_env_value(std::env::var(THREADS_ENV).ok().as_deref())
    }

    /// [`ParallelExecutor::from_env`] with the variable's value passed in —
    /// the testable core (directed tests must not mutate process-global
    /// environment under a multi-threaded test harness). `None` means the
    /// variable is unset.
    pub fn from_env_value(value: Option<&str>) -> ParallelExecutor {
        match value {
            Some(v) => match v.trim().parse::<usize>() {
                // `new` clamps 0 to the serial executor.
                Ok(n) => ParallelExecutor::new(n),
                Err(_) => panic!("{THREADS_ENV} must be a non-negative integer, got `{v}`"),
            },
            None => {
                ParallelExecutor::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }

    /// The worker count this executor fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`fork_replicas`] across the worker pool: every replica restores its
    /// own system from the shared warmed checkpoint, runs to completion
    /// with its own RNG and trace sink, and the outcomes are committed in
    /// replica-index order regardless of completion order. Byte-identical
    /// to the serial path for any thread count. A resume failure reports
    /// the error of the lowest-indexed failing replica, deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn fork_replicas(
        &self,
        config: &SystemConfig,
        campaign: &FaultCampaign,
        checkpoint: &Json,
        seeds: &[u64],
    ) -> Result<MonteCarloReport, JsonError> {
        assert!(!seeds.is_empty(), "fork needs at least one replica seed");
        let outcomes = self.map(seeds.len(), |i| {
            run_replica(config, campaign, checkpoint, seeds[i])
        });
        let mut collected = Vec::with_capacity(seeds.len());
        for o in outcomes {
            collected.push(o?);
        }
        Ok(merge_replicas(collected))
    }

    /// Sharded soak: runs one full [`CampaignRun`] per seed — fresh system,
    /// fresh plan, no shared checkpoint — across the worker pool, returning
    /// the per-shard reports in seed order. Each report is byte-identical
    /// to what [`run_fault_campaign`] produces for that seed; use
    /// [`shard_report`] to merge them into a fleet view.
    pub fn run_shards(
        &self,
        config: &SystemConfig,
        campaign: &FaultCampaign,
        seeds: &[u64],
    ) -> Vec<FaultCampaignResult> {
        self.map(seeds.len(), |i| {
            let mut sharded = campaign.clone();
            sharded.plan.seed = seeds[i];
            let mut run = CampaignRun::new(config.clone(), sharded);
            run.run_to_end(&mut |_| {})
        })
    }

    /// Runs `task(i)` for `i in 0..n` on the worker pool and returns the
    /// results **in index order**, whatever order workers finish in. With
    /// one worker (or one item) the tasks run inline on the calling thread
    /// — the exact same code path, so thread count can never change bytes.
    ///
    /// Public so other deterministic fan-outs (the fleet's epoch-barriered
    /// shard step) can ride the same index-ordered commit contract.
    pub fn map<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(task).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let task = &task;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The receiver outlives every worker; a send can only
                    // fail if the committing thread already panicked, and
                    // then the scope re-raises that panic anyway.
                    let _ = tx.send((i, task(i)));
                });
            }
            drop(tx);
            for (i, v) in rx {
                slots[i] = Some(v);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index produces exactly one result"))
            .collect()
    }
}

/// Merges per-shard soak reports (from [`ParallelExecutor::run_shards`],
/// in the same seed order) into a [`MonteCarloReport`] through the same
/// ordered fold the replica fork uses.
///
/// # Panics
///
/// Panics if `seeds` and `results` differ in length or are empty.
pub fn shard_report(seeds: &[u64], results: &[FaultCampaignResult]) -> MonteCarloReport {
    assert_eq!(seeds.len(), results.len(), "one result per shard seed");
    assert!(!seeds.is_empty(), "shard report needs at least one shard");
    merge_replicas(
        seeds
            .iter()
            .zip(results)
            .map(|(&seed, r)| outcome_of(seed, r.clone()))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// First-divergence bisection
// ---------------------------------------------------------------------------

/// Outcome of [`bisect_campaigns`] / [`bisect_plans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectOutcome {
    /// 0-based plan index of the first event whose handling diverged. When
    /// the runs agree through the whole common prefix but schedule
    /// different event counts, this is the index of the first surplus
    /// event. Meaningless (0) when `diverged_in_warmup`.
    pub first_divergent_event: u64,
    /// The runs already differed before any event was handled (different
    /// warm-up, e.g. different partitions or initial images).
    pub diverged_in_warmup: bool,
    /// Probes performed by the binary search, each a partial replay of
    /// both runs from their deepest proven-equal checkpoints — bounded by
    /// ⌈log₂ n⌉ + 1.
    pub replays: u64,
    /// State digests computed across both runs — O(log n), two per probe
    /// plus the warm-up pair, never one per event.
    pub digests: u64,
    /// Length of the common event prefix that was searched.
    pub compared_events: u64,
}

impl_json_struct!(BisectOutcome {
    first_divergent_event,
    diverged_in_warmup,
    replays,
    digests,
    compared_events,
});

/// [`bisect_plans`] over the plans the two campaign configs generate.
pub fn bisect_campaigns(
    config: &SystemConfig,
    a: &FaultCampaign,
    b: &FaultCampaign,
) -> Result<Option<BisectOutcome>, JsonError> {
    let plan_a = FaultPlan::generate(&a.plan, &config.floorplan);
    let plan_b = FaultPlan::generate(&b.plan, &config.floorplan);
    bisect_plans(config, a, b, plan_a, plan_b)
}

/// Pins the first event at which two campaigns diverge, in O(log n) partial
/// replays instead of an O(n) event-by-event comparison.
///
/// Both runs stream lazily: the warm-up digests are compared before either
/// run handles a single event (a divergence at event 0 costs two digests
/// and zero replays, where the old eager form replayed and digested all of
/// run A first), and afterwards each binary-search probe advances *both*
/// runs from their deepest checkpoints already proven equal to the probe
/// index and compares one digest pair there. The checkpoints move with the
/// search's lower bound, so later probes replay ever-shorter suffixes, and
/// digest work — a full render of the observable state, the expensive part
/// — is O(log n) total instead of one digest per event with O(n) of them
/// retained. Returns `None` when the runs never diverge.
pub fn bisect_plans(
    config: &SystemConfig,
    a: &FaultCampaign,
    b: &FaultCampaign,
    plan_a: FaultPlan,
    plan_b: FaultPlan,
) -> Result<Option<BisectOutcome>, JsonError> {
    let run_a = CampaignRun::with_plan(ZynqPdrSystem::new(config.clone()), a.clone(), plan_a);
    let run_b = CampaignRun::with_plan(ZynqPdrSystem::new(config.clone()), b.clone(), plan_b);
    let n_a = run_a.events();
    let n_b = run_b.events();
    let limit = n_a.min(n_b);
    let mut replays = 0u64;
    let mut digests = 2u64;
    if run_b.digest() != run_a.digest() {
        return Ok(Some(BisectOutcome {
            first_divergent_event: 0,
            diverged_in_warmup: true,
            replays,
            digests,
            compared_events: limit as u64,
        }));
    }
    // Advancing bases: checkpoints of A and B at `lo`, the deepest
    // post-event state proven equal. Resuming a checkpoint and stepping is
    // digest-transparent (the byte-identity contract), so a probe digest
    // taken after a resume equals the uninterrupted run's.
    let mut base_a = run_a.checkpoint();
    let mut base_b = run_b.checkpoint();
    drop(run_a);
    drop(run_b);

    // Probes B (and, symmetrically, A) forward from the bases to `idx` and
    // reports whether the digests still agree there. Every call costs one
    // replay and one digest pair — accounted at the call sites.
    let probe = |base_a: &Json,
                 base_b: &Json,
                 from: usize,
                 idx: usize|
     -> Result<(CampaignRun, CampaignRun, bool), JsonError> {
        let mut ra = CampaignRun::resume(config.clone(), a.clone(), base_a)?;
        let mut rb = CampaignRun::resume(config.clone(), b.clone(), base_b)?;
        for _ in from..idx {
            ra.step();
            rb.step();
        }
        let agree = ra.digest() == rb.digest();
        Ok((ra, rb, agree))
    };

    let mut base_idx = 0usize;
    // One probe at the end of the common prefix settles whether a
    // divergence exists at all.
    if limit > 0 {
        let (_, _, agree) = probe(&base_a, &base_b, base_idx, limit)?;
        replays += 1;
        digests += 2;
        if agree {
            return Ok(if n_a == n_b {
                None
            } else {
                Some(BisectOutcome {
                    first_divergent_event: limit as u64,
                    diverged_in_warmup: false,
                    replays,
                    digests,
                    compared_events: limit as u64,
                })
            });
        }
    } else {
        // An empty common prefix with equal warm-ups: the runs never
        // diverge, or the longer plan's first event is the first surplus.
        return Ok(if n_a == n_b {
            None
        } else {
            Some(BisectOutcome {
                first_divergent_event: 0,
                diverged_in_warmup: false,
                replays,
                digests,
                compared_events: 0,
            })
        });
    }

    let mut lo = 0usize; // deepest post-event digest proven equal
    let mut hi = limit; // shallowest post-event digest proven divergent
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (ra, rb, agree) = probe(&base_a, &base_b, base_idx, mid)?;
        replays += 1;
        digests += 2;
        if agree {
            lo = mid;
            base_a = ra.checkpoint();
            base_b = rb.checkpoint();
            base_idx = mid;
        } else {
            hi = mid;
        }
    }
    // The digest after `hi` events is the first to differ, so event hi-1
    // (0-based) is the one whose handling diverged.
    Ok(Some(BisectOutcome {
        first_divergent_event: hi as u64 - 1,
        diverged_in_warmup: false,
        replays,
        digests,
        compared_events: limit as u64,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::AspKind;
    use pdr_sim_core::json::ToJson;

    #[test]
    fn executor_clamps_zero_threads_to_serial() {
        // Regression: `PDR_THREADS=0` used to panic; it must clamp to one
        // worker (as must a failing `available_parallelism`, which the
        // `None` arm's `map_or(1, …)` covers).
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        assert_eq!(ParallelExecutor::from_env_value(Some("0")).threads(), 1);
        assert_eq!(ParallelExecutor::from_env_value(Some(" 3 ")).threads(), 3);
        assert!(ParallelExecutor::from_env_value(None).threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "non-negative integer")]
    fn executor_rejects_non_numeric_thread_count() {
        let _ = ParallelExecutor::from_env_value(Some("many"));
    }

    fn configured_system() -> ZynqPdrSystem {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        for rp in 0..2 {
            let bs = sys.make_asp_bitstream(rp, AspKind::AesMix, rp as u32 + 1);
            assert!(sys.reconfigure(rp, &bs, Frequency::from_mhz(200)).crc_ok());
        }
        sys
    }

    #[test]
    fn campaign_detects_everything_in_scope() {
        let mut sys = configured_system();
        let campaign = SeuCampaign {
            injections: 16,
            out_of_scope_injections: 4,
            rps: vec![0, 1],
            seed: 7,
        };
        let r = run_seu_campaign(&mut sys, &campaign);
        assert_eq!(r.detected, 16, "{r:?}");
        assert_eq!(r.missed, 0, "{r:?}");
        assert_eq!(r.false_alarms, 0, "{r:?}");
        assert_eq!(r.latency_us.count, 16);
        // Every detection within the two-sweep bound (plus margin).
        assert!(
            r.latency_us.max <= 2.2 * r.scan_period_us,
            "worst {} vs bound {}",
            r.latency_us.max,
            2.0 * r.scan_period_us
        );
        assert!(r.latency_us.mean > 0.0);
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let run = |seed| {
            let mut sys = configured_system();
            run_seu_campaign(
                &mut sys,
                &SeuCampaign {
                    injections: 6,
                    out_of_scope_injections: 2,
                    rps: vec![0],
                    seed,
                },
            )
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).latency_us.mean, run(2).latency_us.mean);
    }

    fn small_fault_campaign() -> FaultCampaign {
        let mut c = FaultCampaign::default();
        c.plan.duration = SimDuration::from_millis(1);
        c.plan.mean_interarrival = SimDuration::from_micros(100);
        c
    }

    #[test]
    fn fault_campaign_detects_and_recovers_everything() {
        let mut sys = ZynqPdrSystem::new(FaultCampaign::fast_system());
        let c = small_fault_campaign();
        let r = run_fault_campaign(&mut sys, &c);
        assert!(r.events >= 5, "{r:?}");
        assert_eq!(r.detected, r.events, "{r:?}");
        assert_eq!(
            (r.undetected, r.benign, r.skipped, r.unrecovered),
            (0, 0, 0, 0),
            "{r:?}"
        );
        assert_eq!(r.recovered, r.detected, "{r:?}");
        assert_eq!(r.silent_corruptions, 0, "{r:?}");
        assert_eq!(r.quarantined_partitions, 0, "{r:?}");
        assert!(r.availability > 0.0 && r.availability < 1.0, "{r:?}");
        assert_eq!(r.recovery.faults_detected, r.detected, "{r:?}");
        assert_eq!(r.recovery.faults_recovered, r.recovered, "{r:?}");
    }

    #[test]
    fn fault_campaign_is_replay_identical() {
        let run = |seed| {
            let mut sys = ZynqPdrSystem::new(FaultCampaign::fast_system());
            let mut c = small_fault_campaign();
            c.plan.seed = seed;
            run_fault_campaign(&mut sys, &c)
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_ne!(run(5).to_json_string(), run(6).to_json_string());
    }

    #[test]
    fn streaming_records_reconcile_with_the_report() {
        let mut run = CampaignRun::new(FaultCampaign::fast_system(), small_fault_campaign());
        let mut counts = [0u64; 5]; // events, detected, benign, skipped, recovered
        let r = run.run_to_end(&mut |rec| {
            counts[0] += 1;
            match rec.outcome {
                FaultOutcome::Detected => counts[1] += 1,
                FaultOutcome::Benign => counts[2] += 1,
                FaultOutcome::Skipped => counts[3] += 1,
                FaultOutcome::Undetected => {}
            }
            if rec.recovered {
                counts[4] += 1;
                assert!(rec.mttr_us > 0.0, "{rec:?}");
            }
            assert_eq!(rec.idx, counts[0] - 1, "records arrive in plan order");
        });
        assert_eq!(counts[0], r.events);
        assert_eq!(counts[1], r.detected);
        assert_eq!(counts[2], r.benign);
        assert_eq!(counts[3], r.skipped);
        assert_eq!(counts[4], r.recovered);
    }

    #[test]
    fn stepwise_runner_matches_the_one_shot_entry_point() {
        let c = small_fault_campaign();
        let mut sys = ZynqPdrSystem::new(FaultCampaign::fast_system());
        let direct = run_fault_campaign(&mut sys, &c);
        let mut run = CampaignRun::new(FaultCampaign::fast_system(), c);
        let stepped = run.run_to_end(&mut |_| {});
        assert_eq!(direct, stepped);
        assert_eq!(direct.to_json_string(), stepped.to_json_string());
    }

    #[test]
    fn checkpoint_resume_finishes_byte_identically() {
        let c = small_fault_campaign();
        let cfg = FaultCampaign::fast_system();

        let mut uninterrupted = CampaignRun::new(cfg.clone(), c.clone());
        let r_full = uninterrupted.run_to_end(&mut |_| {});

        let mut killed = CampaignRun::new(cfg.clone(), c.clone());
        let mid = killed.events() / 2;
        for _ in 0..mid {
            killed.step();
        }
        // Round-trip the checkpoint through its text form, as a crash
        // would, and drop the original runner.
        let text = killed.checkpoint().render();
        drop(killed);
        let ckpt = Json::parse(&text).expect("checkpoint parses");
        let mut resumed = CampaignRun::resume(cfg, c, &ckpt).expect("resume");
        assert_eq!(resumed.position(), mid);
        let r_resumed = resumed.run_to_end(&mut |_| {});

        assert_eq!(r_full, r_resumed);
        assert_eq!(r_full.to_json_string(), r_resumed.to_json_string());
        assert_eq!(uninterrupted.digest(), resumed.digest());
        assert_eq!(
            uninterrupted.system().tracer().export_jsonl(),
            resumed.system().tracer().export_jsonl(),
            "the resumed tape must be byte-identical"
        );
    }

    #[test]
    fn ci95_uses_the_sample_std_dev() {
        // n = 2 pins the ÷n vs ÷(n−1) distinction at its worst: for
        // samples {a, b} the sample deviation is |a−b|/√2, so the CI
        // half-width must be 1.96·|a−b|/2 — the old population-deviation
        // form produced 1.96·|a−b|/(2√2), √2 too narrow.
        let d = DistSummary::from_samples(&[0.6, 0.8]);
        assert_eq!(d.count, 2);
        let half = 1.96 * (0.8_f64 - 0.6) / 2.0;
        assert!((d.ci95_hi - d.mean - half).abs() < 1e-12, "{d:?}");
        assert!((d.mean - d.ci95_lo - half).abs() < 1e-12, "{d:?}");
        // The std_dev field keeps its population (÷n) semantics.
        assert!((d.std_dev - 0.1).abs() < 1e-12, "{d:?}");
        // General n: the half-width is exactly 1.96·s/√n with s the
        // sample deviation.
        let samples = [0.61, 0.55, 0.70, 0.66, 0.59];
        let d = DistSummary::from_samples(&samples);
        let mut stats = OnlineStats::new();
        for &s in &samples {
            stats.push(s);
        }
        let half = 1.96 * stats.sample_std_dev() / (samples.len() as f64).sqrt();
        assert!((d.ci95_hi - d.ci95_lo - 2.0 * half).abs() < 1e-12, "{d:?}");
        // One sample: no interval, but still well-formed.
        let d = DistSummary::from_samples(&[0.5]);
        assert_eq!((d.ci95_lo, d.ci95_hi), (0.5, 0.5));
    }

    #[test]
    fn forked_replicas_merge_deterministically() {
        let c = small_fault_campaign();
        let cfg = FaultCampaign::fast_system();
        let mut warm = CampaignRun::new(cfg.clone(), c.clone());
        for _ in 0..3 {
            warm.step();
        }
        let ckpt = warm.checkpoint();
        let seeds: Vec<u64> = (100..108).collect();
        let a = fork_replicas(&cfg, &c, &ckpt, &seeds).expect("fork");
        let b = fork_replicas(&cfg, &c, &ckpt, &seeds).expect("fork");
        assert_eq!(a, b, "same checkpoint + seeds must merge identically");
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.replicas, 8);
        assert_eq!(a.per_replica.len(), 8);
        // The replica seeds genuinely diverge the runs.
        let distinct: std::collections::HashSet<u64> =
            a.per_replica.iter().map(|r| r.events).collect();
        assert!(distinct.len() > 1, "replicas all scheduled {distinct:?}");
        let d = &a.availability;
        assert_eq!(d.count, 8);
        assert!(d.min <= d.p50 && d.p50 <= d.p99 && d.p99 <= d.max);
        assert!(d.ci95_lo <= d.mean && d.mean <= d.ci95_hi);
    }

    #[test]
    fn parallel_fork_is_byte_identical_to_serial() {
        let c = small_fault_campaign();
        let cfg = FaultCampaign::fast_system();
        let mut warm = CampaignRun::new(cfg.clone(), c.clone());
        for _ in 0..3 {
            warm.step();
        }
        let ckpt = warm.checkpoint();
        let seeds: Vec<u64> = (300..306).collect();
        let serial = fork_replicas(&cfg, &c, &ckpt, &seeds).expect("serial fork");
        for threads in [2, 3, 8] {
            let parallel = ParallelExecutor::new(threads)
                .fork_replicas(&cfg, &c, &ckpt, &seeds)
                .expect("parallel fork");
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(
                serial.to_json_string(),
                parallel.to_json_string(),
                "threads={threads}: merged fleet JSON must be byte-identical"
            );
        }
    }

    #[test]
    fn sharded_soaks_match_the_one_shot_runner() {
        let c = small_fault_campaign();
        let cfg = FaultCampaign::fast_system();
        let seeds = [11u64, 12, 13, 14];
        let shards = ParallelExecutor::new(4).run_shards(&cfg, &c, &seeds);
        assert_eq!(shards.len(), seeds.len());
        for (&seed, shard) in seeds.iter().zip(&shards) {
            let mut sys = ZynqPdrSystem::new(FaultCampaign::fast_system());
            let mut sharded = c.clone();
            sharded.plan.seed = seed;
            let direct = run_fault_campaign(&mut sys, &sharded);
            assert_eq!(&direct, shard, "seed {seed}");
            assert_eq!(direct.to_json_string(), shard.to_json_string());
        }
        let merged = shard_report(&seeds, &shards);
        assert_eq!(merged.replicas, 4);
        assert_eq!(
            merged.events,
            shards.iter().map(|r| r.events).sum::<u64>(),
            "full shards handle their whole plans"
        );
        assert_eq!(merged, shard_report(&seeds, &shards), "merge is stable");
    }

    #[test]
    fn executor_commits_in_index_order_under_racy_completion() {
        // Tasks finish in reverse order (later indices sleep less); the
        // committed table must still be index-ordered.
        let out = ParallelExecutor::new(4).map(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            i * 10
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(ParallelExecutor::serial().map(3, |i| i), vec![0, 1, 2]);
        assert_eq!(ParallelExecutor::new(16).map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn bisect_pins_a_planted_divergence() {
        let c = small_fault_campaign();
        let cfg = FaultCampaign::fast_system();
        let plan = FaultPlan::generate(&c.plan, &cfg.floorplan);
        let n = plan.events.len();
        assert!(n >= 8, "plan too small to bisect meaningfully");
        // Plant the divergence on the last SEU in the plan, moved to the
        // other partition: the monitor scans one partition per slot, so the
        // detection latency (and everything downstream — downtime, health
        // counters, recovery stats) moves. Many perturbations are invisible
        // by design — a different frame in the same partition is caught by
        // the same scan slot and scrubbed back to golden, and a longer DMA
        // stall still trips the same fixed watchdog — and the whole point of
        // digest-driven bisection is to find changes that actually alter
        // observable state.
        let target = plan
            .events
            .iter()
            .rposition(|e| e.kind == FaultKind::Seu)
            .expect("generated plan must contain an SEU");
        assert!(target >= 2, "planted SEU too early to exercise the search");
        let mut planted = plan.clone();
        let e = &mut planted.events[target];
        e.rp = (e.rp + 1) % cfg.floorplan.partitions().len();
        let frames = cfg
            .floorplan
            .partition(e.rp)
            .frame_count(cfg.floorplan.geometry());
        e.frame %= frames;
        let out = bisect_plans(&cfg, &c, &c, plan.clone(), planted)
            .expect("bisect")
            .expect("the planted divergence must be found");
        assert!(!out.diverged_in_warmup);
        assert_eq!(out.first_divergent_event, target as u64);
        let bound = (n as f64).log2().ceil() as u64 + 1;
        assert!(
            out.replays <= bound,
            "{} replays exceeds the log2({n})+1 = {bound} bound",
            out.replays
        );
        // Digest work is two per probe plus the warm-up pair — O(log n),
        // never the old one-per-event O(n).
        assert_eq!(out.digests, 2 * out.replays + 2);
        assert!(
            out.digests < n as u64,
            "{} digests for an {n}-event plan is not O(log n)",
            out.digests
        );
        // Identical plans never diverge.
        let same = bisect_plans(&cfg, &c, &c, plan.clone(), plan).expect("bisect");
        assert_eq!(same, None);
    }

    #[test]
    fn bisect_streams_digests_lazily_for_early_divergences() {
        let c = small_fault_campaign();
        let cfg = FaultCampaign::fast_system();
        let plan = FaultPlan::generate(&c.plan, &cfg.floorplan);
        let n = plan.events.len();
        assert!(n >= 8);

        // A warm-up divergence (different scrub clock ⇒ different initial
        // reconfigurations) must be pinned before either run handles a
        // single event: zero replays, one digest pair.
        let mut c2 = c.clone();
        c2.recovery.scrub_mhz = 150;
        let out = bisect_plans(&cfg, &c, &c2, plan.clone(), plan.clone())
            .expect("bisect")
            .expect("different warm-ups must diverge");
        assert!(out.diverged_in_warmup);
        assert_eq!((out.replays, out.digests), (0, 2), "{out:?}");

        // A divergence planted on the first SEU: digest work stays
        // O(log n) even though the divergence sits near the front.
        let target = plan
            .events
            .iter()
            .position(|e| e.kind == FaultKind::Seu)
            .expect("generated plan must contain an SEU");
        let mut planted = plan.clone();
        let e = &mut planted.events[target];
        e.rp = (e.rp + 1) % cfg.floorplan.partitions().len();
        e.frame %= cfg
            .floorplan
            .partition(e.rp)
            .frame_count(cfg.floorplan.geometry());
        let out = bisect_plans(&cfg, &c, &c, plan.clone(), planted)
            .expect("bisect")
            .expect("planted divergence must be found");
        assert!(!out.diverged_in_warmup);
        assert_eq!(out.first_divergent_event, target as u64);
        let bound = (n as f64).log2().ceil() as u64 + 1;
        assert!(out.replays <= bound, "{out:?}");
        assert!(
            out.digests <= 2 * bound + 2,
            "{} digests for an early divergence in an {n}-event plan — \
             digest streaming must be lazy, not one per event",
            out.digests
        );
    }

    #[test]
    #[should_panic(expected = "needs monitored partitions")]
    fn empty_campaign_panics() {
        let mut sys = configured_system();
        let _ = run_seu_campaign(
            &mut sys,
            &SeuCampaign {
                rps: vec![],
                ..SeuCampaign::default()
            },
        );
    }
}

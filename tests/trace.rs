//! Golden-trace harness: canonical JSONL tapes for three fixed-seed
//! scenarios live under `tests/golden/` and every run must reproduce them
//! **byte-for-byte**. A schema or instrumentation change that moves a
//! single byte fails here; regenerate intentionally with
//! `PDR_TESTKIT_BLESS=1 cargo test --test trace`.
//!
//! Alongside the snapshots: the trace-vs-telemetry cross-checks (the
//! sink's event-derived counters are an independent second accounting
//! path) and the directed regression for the scheduler cache-eviction
//! telemetry that used to go entirely unaccounted.

use pdr_lab::fabric::AspKind;
use pdr_lab::pdr::{
    CampaignRun, FaultCampaign, FaultCampaignResult, FaultPlan, ReconfigRequest, RecoveryConfig,
    RecoveryManager, Scheduler, SchedulerConfig, SdCard, SystemConfig, TraceCounters, TraceEvent,
    TraceLevel, ZynqPdrSystem,
};
use pdr_lab::sim::{Frequency, SimDuration};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Diffs `actual` against the committed golden tape, or rewrites the tape
/// when blessing (`PDR_TESTKIT_BLESS=1`).
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if pdr_testkit::blessing() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden tape");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with: PDR_TESTKIT_BLESS=1 cargo test --test trace",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "{name}: first divergence at line {} (bless intentionally with PDR_TESTKIT_BLESS=1)",
            i + 1
        );
    }
    panic!(
        "{name}: tapes agree on the common prefix but lengths differ: {} vs {} lines \
         (bless intentionally with PDR_TESTKIT_BLESS=1)",
        expected.lines().count(),
        actual.lines().count()
    );
}

/// Re-derives counters from a retained tape — the third accounting path,
/// independent of both the sink's own fold and the subsystem telemetry.
fn counters_from_tape(sys: &ZynqPdrSystem) -> TraceCounters {
    let mut c = TraceCounters::default();
    for r in sys.tracer().records() {
        c.absorb(&r.event);
    }
    c
}

// ---------------------------------------------------------------------------
// scenario 1: fixed-seed reconfiguration (SD boot, healthy + failing
// transfer, SEU alarm, scrub recovery)
// ---------------------------------------------------------------------------

fn reconfig_scenario() -> ZynqPdrSystem {
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
    sys.set_trace_level(TraceLevel::Full);

    // Boot two compressed images off the card: SdFileStaged events.
    let bs0 = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let bs1 = sys.make_asp_bitstream(1, AspKind::AesMix, 2);
    let mut card = SdCard::class10_compressed();
    card.store("rp0_fir.bit", bs0.clone());
    card.store("rp1_aes.bit", bs1.clone());
    sys.boot_from_sd(&card);

    // Two healthy transfers at the paper's 200 MHz operating point.
    assert!(sys.reconfigure(0, &bs0, Frequency::from_mhz(200)).crc_ok());
    assert!(sys.reconfigure(1, &bs1, Frequency::from_mhz(200)).crc_ok());

    // One over-clocked transfer past the timing envelope: CrcFail + a
    // failed ReconfigDone.
    assert!(!sys.reconfigure(0, &bs0, Frequency::from_mhz(360)).crc_ok());

    // Restore rp0, arm the background monitor, flip one bit, catch the
    // alarm, scrub: FaultInjected, CrcAlarm, Scrub on the tape.
    assert!(sys.reconfigure(0, &bs0, Frequency::from_mhz(200)).crc_ok());
    let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
    mgr.register_golden(0, bs0);
    sys.start_background_monitor(&[0, 1]);
    let scan = sys.monitor_scan_period();
    sys.inject_seu(0, 1, 10, 3);
    let latency = sys
        .run_monitor_until_alarm(scan * 3)
        .expect("the monitor must catch an injected SEU");
    mgr.record_detection(latency);
    assert!(mgr.on_crc_alarm(&mut sys, 0).succeeded());
    sys
}

#[test]
fn golden_reconfig_tape_is_byte_stable() {
    let sys = reconfig_scenario();
    assert_matches_golden("reconfig.jsonl", &sys.tracer().export_jsonl());

    // The tape invariant: every started reconfiguration completed, one way
    // or the other, on every driver path.
    let c = sys.tracer().counters();
    assert_eq!(c.reconfig_started, c.reconfig_ok + c.reconfig_failed);
    assert_eq!(c.sd_files, 2);
    assert_eq!(c.crc_alarms, 1);
    assert_eq!(c.faults_injected, 1);
    assert_eq!(c.scrubs, 1);
}

// ---------------------------------------------------------------------------
// scenario 2: fault-campaign slice
// ---------------------------------------------------------------------------

/// Runs `campaign` on the campaign system with the full trace on from
/// before warm-up, so the tape records the initial configurations too.
fn traced_campaign(campaign: FaultCampaign) -> (CampaignRun, FaultCampaignResult) {
    let mut sys = ZynqPdrSystem::new(FaultCampaign::fast_system());
    sys.set_trace_level(TraceLevel::Full);
    let plan = FaultPlan::generate(&campaign.plan, sys.floorplan());
    let mut run = CampaignRun::with_plan(sys, campaign, plan);
    let r = run.run_to_end(&mut |_| {});
    (run, r)
}

fn fault_slice_scenario() -> (CampaignRun, FaultCampaignResult) {
    // The default mixed-fault campaign, cut to an 800 µs slice so the
    // committed tape stays reviewable.
    let mut campaign = FaultCampaign::default();
    campaign.plan.duration = SimDuration::from_micros(800);
    traced_campaign(campaign)
}

#[test]
fn golden_fault_slice_tape_is_byte_stable() {
    let (run, r) = fault_slice_scenario();
    assert!(r.events > 0, "the slice must schedule faults");
    assert_matches_golden("fault_slice.jsonl", &run.system().tracer().export_jsonl());
}

// ---------------------------------------------------------------------------
// scenario 3: compressed scheduler run with a cache small enough to thrash
// ---------------------------------------------------------------------------

fn compressed_scheduler_scenario() -> (ZynqPdrSystem, Scheduler) {
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_quad());
    sys.set_trace_level(TraceLevel::Full);
    let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());

    let images: Vec<_> = (0..4usize)
        .map(|rp| {
            let kind = AspKind::ALL[rp % AspKind::ALL.len()];
            sys.make_asp_bitstream(rp, kind, rp as u32 + 1)
        })
        .collect();
    let stored: Vec<u64> = images
        .iter()
        .map(|bs| pdr_lab::codec::compress_bitstream(bs).bytes.len() as u64)
        .collect();
    // A budget one byte short of the full compressed catalog: LRU must
    // evict on every cyclic pass.
    let budget = stored.iter().sum::<u64>() - 1;
    let mut sched = Scheduler::new(
        SchedulerConfig {
            cache_capacity_bytes: budget,
            ..SchedulerConfig::default()
        }
        .compressed(),
    );
    for (id, bs) in images.iter().enumerate() {
        sched.register_bitstream(id as u32, bs.clone());
    }
    for wave in 0..2u64 {
        for rp in 0..4usize {
            let req = ReconfigRequest {
                rp,
                bitstream_id: rp as u32,
                priority: 0,
                deadline: SimDuration::from_millis(50 + wave),
                tenant: 0,
            };
            sched.submit(&sys, &mgr, req).expect("workload must admit");
        }
        sched.run_until_idle(&mut sys, &mut mgr);
    }
    (sys, sched)
}

#[test]
fn golden_compressed_scheduler_tape_is_byte_stable() {
    let (sys, mut sched) = compressed_scheduler_scenario();
    assert_eq!(sched.report().completed, 8);
    assert_matches_golden("scheduler_compressed.jsonl", &sys.tracer().export_jsonl());
}

// ---------------------------------------------------------------------------
// cross-check: trace-derived counts == subsystem telemetry
// ---------------------------------------------------------------------------

#[test]
fn campaign_trace_counts_match_recovery_telemetry() {
    // A ≥150-fault campaign: the default plan stretched from 6 ms to 8 ms.
    let mut campaign = FaultCampaign::default();
    campaign.plan.duration = SimDuration::from_millis(8);
    let (run, r) = traced_campaign(campaign);
    let sys = run.system();

    assert!(
        r.events >= 150,
        "want a 150-fault campaign, got {}",
        r.events
    );
    assert_eq!(r.skipped, 0, "no fault may be skipped at this seed");

    // The sink's counters (folded event-by-event at emission time) must
    // agree with the recovery manager's own books.
    let c = sys.tracer().counters().clone();
    assert_eq!(
        c.faults_injected, r.events,
        "one injection per scheduled fault"
    );
    assert_eq!(c.retries, r.recovery.retries);
    assert_eq!(c.scrubs, r.recovery.scrubs);
    assert_eq!(c.quarantines, r.recovery.quarantines);
    assert_eq!(c.quarantines, r.quarantined_partitions);
    assert_eq!(
        c.crc_alarms, r.recovery.detection_latency_us.count,
        "every monitor alarm records exactly one detection latency"
    );
    assert_eq!(c.reconfig_started, c.reconfig_ok + c.reconfig_failed);

    // And the tape itself re-derives the same counters: emission-time fold
    // and post-hoc fold cannot drift.
    assert_eq!(counters_from_tape(sys), c);
}

// ---------------------------------------------------------------------------
// directed regression: cache-eviction telemetry (previously unaccounted)
// ---------------------------------------------------------------------------

#[test]
fn scheduler_eviction_telemetry_matches_the_tape() {
    let (sys, mut sched) = compressed_scheduler_scenario();
    let report = sched.report();

    // The regression: evictions used to vanish from SchedulerReport
    // entirely. The thrashing budget guarantees they happen.
    assert!(report.cache_evictions > 0, "{report:?}");
    assert!(report.bytes_evicted > 0);

    let mut evictions = 0u64;
    let mut evicted_bytes = 0u64;
    let mut fetched_bytes = 0u64;
    for rec in sys.tracer().records() {
        match rec.event {
            TraceEvent::CacheEvict { bytes, .. } => {
                evictions += 1;
                evicted_bytes += bytes;
            }
            TraceEvent::CacheMiss { stored_bytes, .. } => fetched_bytes += stored_bytes,
            _ => {}
        }
    }
    assert_eq!(evictions, report.cache_evictions);
    assert_eq!(evicted_bytes, report.bytes_evicted);
    assert_eq!(fetched_bytes, report.bytes_fetched);
    // Nothing can leave the cache that was never fetched into it.
    assert!(report.bytes_evicted <= report.bytes_fetched, "{report:?}");

    // Sink counters agree with the scheduler's books field-for-field.
    let c = sys.tracer().counters();
    assert_eq!(c.cache_hits, report.cache_hits);
    assert_eq!(c.cache_misses, report.cache_misses);
    assert_eq!(c.cache_evictions, report.cache_evictions);
    assert_eq!(c.bytes_evicted, report.bytes_evicted);
    assert_eq!(c.bytes_fetched, report.bytes_fetched);
}

// ---------------------------------------------------------------------------
// level semantics on a real scenario
// ---------------------------------------------------------------------------

#[test]
fn counters_level_keeps_the_books_but_no_tape() {
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
    sys.set_trace_level(TraceLevel::Counters);
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    assert!(sys.reconfigure(0, &bs, Frequency::from_mhz(200)).crc_ok());
    assert!(sys.tracer().events_emitted() > 0);
    assert_eq!(sys.tracer().counters().reconfig_ok, 1);
    assert!(sys.tracer().records().is_empty(), "no tape below Full");
    assert!(sys.tracer().export_jsonl().is_empty());
}

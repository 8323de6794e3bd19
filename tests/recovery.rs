//! The self-healing recovery subsystem, end to end: watchdog detection,
//! SEU scrubbing, and the mixed-fault acceptance soak.
//!
//! The monitor assertions promoted from `examples/seu_monitor.rs` live here
//! so CI enforces them: detection within the scan-period bound, no false
//! positives on a clean fabric, and scrubbing restoring a verified CRC.

use pdr_lab::fabric::AspKind;
use pdr_lab::pdr::{
    CampaignRun, FaultCampaign, PartitionHealth, ReconfigError, RecoveryConfig, RecoveryManager,
    SystemConfig, TimeoutCause, ZynqPdrSystem,
};
use pdr_lab::sim::json::ToJson;
use pdr_lab::sim::{Frequency, SimDuration};

fn mhz(m: u64) -> Frequency {
    Frequency::from_mhz(m)
}

/// Both partitions configured at the power-efficient 200 MHz point, as in
/// the `seu_monitor` example.
fn configured() -> (ZynqPdrSystem, RecoveryManager) {
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
    let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
    for (rp, kind, seed) in [(0usize, AspKind::Fir16, 1u32), (1, AspKind::AesMix, 2)] {
        let bs = sys.make_asp_bitstream(rp, kind, seed);
        assert!(mgr
            .reconfigure(&mut sys, None, rp, &bs, mhz(200))
            .succeeded());
    }
    (sys, mgr)
}

#[test]
fn clean_fabric_never_false_alarms() {
    let (mut sys, _) = configured();
    sys.start_background_monitor(&[0, 1]);
    let scan = sys.monitor_scan_period();
    // Many full sweeps over a clean fabric: the alarm line must stay low.
    sys.run_monitor_for(scan * 20);
    assert!(
        !sys.crc_error_irq().is_raised(),
        "clean fabric must not alarm"
    );
}

#[test]
fn seu_detected_within_scan_bound_and_scrub_restores_crc() {
    let (mut sys, mut mgr) = configured();
    sys.start_background_monitor(&[0, 1]);
    let scan = sys.monitor_scan_period();
    sys.inject_seu(1, 60, 42, 13);
    let latency = sys
        .run_monitor_until_alarm(scan * 3)
        .expect("the monitor must detect the SEU");
    // Round-robin scanning bounds detection: the flipped frame is re-read
    // within one full sweep of when the current sweep passes it again.
    assert!(
        latency <= scan * 2 + scan / 4,
        "latency {:.1} us vs scan {:.1} us",
        latency.as_micros_f64(),
        scan.as_micros_f64()
    );
    mgr.record_detection(latency);
    let out = mgr.on_crc_alarm(&mut sys, 1);
    assert!(out.succeeded(), "{out:?}");
    assert!(out.report.as_ref().expect("scrub ran").crc_ok());
    assert_eq!(mgr.health(1), PartitionHealth::Healthy);
    assert_eq!(sys.identify_asp(1), Some((AspKind::AesMix, 2)));
    // The repaired fabric stays quiet.
    sys.start_background_monitor(&[0, 1]);
    sys.run_monitor_for(scan * 10);
    assert!(!sys.crc_error_irq().is_raised());
}

#[test]
fn watchdog_types_the_two_timeout_causes() {
    // A dropped completion interrupt: data lands intact, but the watchdog
    // must still convert the silent wait into a typed error.
    let (mut sys, _) = configured();
    let bs = sys.make_asp_bitstream(0, AspKind::MatMul8, 3);
    sys.drop_next_completion_irq();
    let r = sys.reconfigure(0, &bs, mhz(200));
    assert_eq!(
        r.error,
        Some(ReconfigError::Timeout(TimeoutCause::InterruptLost))
    );
    assert!(r.crc_ok(), "the transfer itself completed");

    // A stalled DMA: nothing ever lands, the cause says so.
    let mut cfg = SystemConfig::fast_test();
    cfg.transfer_timeout = SimDuration::from_micros(200);
    let mut sys = ZynqPdrSystem::new(cfg);
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 4);
    sys.inject_dma_stall(100_000);
    let r = sys.reconfigure(0, &bs, mhz(200));
    assert_eq!(
        r.error,
        Some(ReconfigError::Timeout(TimeoutCause::StillInFlight))
    );
}

/// The acceptance soak: a deterministic campaign injecting 100+ mixed
/// faults must detect every one, recover every one without quarantining a
/// partition, leave zero silent corruptions, and produce byte-identical
/// telemetry JSON when replayed from the same seed.
#[test]
fn acceptance_soak_hundred_mixed_faults() {
    let run = || {
        CampaignRun::new(FaultCampaign::fast_system(), FaultCampaign::default())
            .run_to_end(&mut |_| {})
    };
    let a = run();
    assert!(a.events >= 100, "only {} faults injected", a.events);
    for (kind, n) in [
        ("seu", a.injected_seu),
        ("timing", a.injected_timing_bursts),
        ("stall", a.injected_dma_stalls),
        ("irq", a.injected_dropped_irqs),
    ] {
        assert!(n > 0, "no {kind} faults in the mix: {a:?}");
    }
    assert_eq!(a.detected, a.events, "100% detection: {a:?}");
    assert_eq!(
        (a.undetected, a.benign, a.skipped),
        (0, 0, 0),
        "every fault must manifest and be seen: {a:?}"
    );
    assert_eq!(a.recovered, a.detected, "every fault recovered: {a:?}");
    assert_eq!(a.unrecovered, 0, "{a:?}");
    assert_eq!(a.quarantined_partitions, 0, "no quarantine needed: {a:?}");
    assert_eq!(a.silent_corruptions, 0, "{a:?}");
    assert!(
        a.availability > 0.3 && a.availability < 1.0,
        "availability {}",
        a.availability
    );
    assert_eq!(a.recovery.faults_detected, a.detected);
    assert_eq!(a.recovery.faults_recovered, a.recovered);
    assert!(a.recovery.mttr_us.mean > 0.0);
    assert!(a.recovery.detection_latency_us.count == a.injected_seu);

    // Byte-for-byte replay from the same seed.
    let b = run();
    assert_eq!(a.to_json_string(), b.to_json_string());
}

/// A zero-fault run (no retries, no scrubs, no monitor alarms) must still
/// yield well-defined, JSON-round-trippable telemetry: the zero-sample
/// `StatsSummary` is the canonical all-zero summary, never NaN placeholders.
#[test]
fn zero_sample_recovery_stats_are_well_defined_and_json_safe() {
    use pdr_lab::pdr::{RecoveryStats, StatsSummary};
    use pdr_lab::sim::json::FromJson;

    let (mut sys, mut mgr) = configured();
    // `configured()` ran only clean successes: nothing on the ladder fired.
    let s = mgr.stats();
    assert_eq!(s.faults_detected, 0);
    assert_eq!(s.mttr_us, StatsSummary::EMPTY);
    assert_eq!(s.detection_latency_us, StatsSummary::EMPTY);
    for summary in [&s.mttr_us, &s.detection_latency_us] {
        assert_eq!(summary.count, 0);
        assert!(summary.is_json_safe(), "{summary:?}");
        assert_eq!(
            (summary.mean, summary.std_dev, summary.min, summary.max),
            (0.0, 0.0, 0.0, 0.0)
        );
    }

    // Bit-exact JSON round-trip of the zero-sample report (a NaN would
    // encode as `null` and fail to decode here).
    let text = s.to_json_string();
    assert!(!text.contains("null"), "{text}");
    assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    let back = RecoveryStats::from_json_str(&text).expect("decodes");
    assert_eq!(back, s);

    // Still true after more clean traffic.
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 9);
    assert!(mgr
        .reconfigure(&mut sys, None, 0, &bs, mhz(200))
        .succeeded());
    assert_eq!(mgr.stats().mttr_us, StatsSummary::EMPTY);
}

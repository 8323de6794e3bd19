//! Whole-system snapshot/restore byte-identity.
//!
//! The contract (docs/SNAPSHOT.md): snapshot → restore onto a freshly built
//! system → continue, and every observable — the full trace tape, the
//! event-derived counters, simulated time, reconfiguration reports, and the
//! digest of a *second* snapshot taken at the end — is byte-identical to a
//! run that never stopped. Checked under both engine strategies, because a
//! snapshot must capture exactly the state the event-skipping kernel folds
//! away.

use pdr_lab::fabric::AspKind;
use pdr_lab::pdr::snapshot;
use pdr_lab::pdr::{SystemConfig, TraceLevel, ZynqPdrSystem};
use pdr_lab::sim::{EngineStrategy, Frequency, SimDuration};

/// Drives the system through every class of snapshot-relevant state:
/// completed and failed transfers (RNG draws, trace tape, recovery-relevant
/// CRC state), an armed background monitor mid-scan, a pending SEU, an
/// active timing derate, and an armed DMA stall.
fn warm_up(sys: &mut ZynqPdrSystem) {
    sys.set_trace_level(TraceLevel::Full);
    let bs0 = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let bs1 = sys.make_asp_bitstream(1, AspKind::AesMix, 2);
    assert!(sys.reconfigure(0, &bs0, Frequency::from_mhz(200)).crc_ok());
    assert!(!sys.reconfigure(1, &bs1, Frequency::from_mhz(360)).crc_ok());
    assert!(sys.reconfigure(1, &bs1, Frequency::from_mhz(200)).crc_ok());
    sys.start_background_monitor(&[0, 1]);
    let scan = sys.monitor_scan_period();
    sys.run_monitor_for(scan / 2); // leave the scan cursor mid-region
    sys.inject_seu(0, 1, 10, 3);
    sys.inject_timing_burst(40.0, SimDuration::from_millis(80));
    sys.inject_dma_stall(250);
}

/// The post-snapshot tail: catches the armed SEU alarm, then performs a
/// transfer that consumes the armed DMA stall and the active derate.
fn continue_run(sys: &mut ZynqPdrSystem) -> String {
    let scan = sys.monitor_scan_period();
    let latency = sys
        .run_monitor_until_alarm(scan * 3)
        .expect("armed SEU must alarm");
    let bs = sys.make_asp_bitstream(1, AspKind::MatMul8, 4);
    let report = sys.reconfigure(1, &bs, Frequency::from_mhz(310));
    format!(
        "latency={latency:?} report={report:?} now={:?} reconfigs={} counters={:?}",
        sys.now(),
        sys.reconfig_count(),
        sys.tracer().counters(),
    )
}

fn config(strategy: EngineStrategy) -> SystemConfig {
    let mut cfg = SystemConfig::fast_test();
    cfg.strategy = strategy;
    cfg
}

#[test]
fn snapshot_restore_run_is_byte_identical() {
    for strategy in [EngineStrategy::EventSkip, EngineStrategy::Tick] {
        // Uninterrupted reference run.
        let mut reference = ZynqPdrSystem::new(config(strategy));
        warm_up(&mut reference);
        let checkpoint = snapshot::take(&reference);
        let ref_obs = continue_run(&mut reference);
        let ref_tape = reference.tracer().export_jsonl();
        let ref_final = snapshot::digest(&snapshot::take(&reference));

        // Killed-and-resumed run: restore the checkpoint onto a fresh
        // system (round-tripped through the text form, as a checkpoint
        // file would be) and replay the same tail.
        let parsed = pdr_lab::sim::json::Json::parse(&checkpoint.render())
            .expect("snapshot must round-trip through text");
        let mut resumed =
            snapshot::restore(config(strategy), &parsed).expect("restore must succeed");
        let res_obs = continue_run(&mut resumed);
        assert_eq!(ref_obs, res_obs, "observables diverged ({strategy:?})");
        assert_eq!(
            ref_tape,
            resumed.tracer().export_jsonl(),
            "trace tape diverged ({strategy:?})"
        );
        assert_eq!(
            ref_final,
            snapshot::digest(&snapshot::take(&resumed)),
            "final whole-state digest diverged ({strategy:?})"
        );
    }
}

#[test]
fn both_engines_agree_through_a_snapshot_boundary() {
    // The tick oracle and the event-skipping kernel must still agree when
    // the run is split by a snapshot/restore in the middle.
    let run = |strategy| {
        let mut sys = ZynqPdrSystem::new(config(strategy));
        warm_up(&mut sys);
        let snap = snapshot::take(&sys);
        let mut resumed = snapshot::restore(config(strategy), &snap).unwrap();
        continue_run(&mut resumed)
    };
    assert_eq!(run(EngineStrategy::EventSkip), run(EngineStrategy::Tick));
}

#[test]
fn taking_a_snapshot_perturbs_nothing() {
    let mut a = ZynqPdrSystem::new(config(EngineStrategy::EventSkip));
    let mut b = ZynqPdrSystem::new(config(EngineStrategy::EventSkip));
    warm_up(&mut a);
    warm_up(&mut b);
    let _ = snapshot::take(&a); // a is snapshotted, b is not
    assert_eq!(continue_run(&mut a), continue_run(&mut b));
    assert_eq!(a.tracer().export_jsonl(), b.tracer().export_jsonl());
}

#[test]
fn snapshot_is_deterministic() {
    let mut sys = ZynqPdrSystem::new(config(EngineStrategy::EventSkip));
    warm_up(&mut sys);
    assert_eq!(snapshot::take(&sys).render(), snapshot::take(&sys).render());
}

#[test]
fn restore_rejects_structural_mismatch() {
    let mut sys = ZynqPdrSystem::new(config(EngineStrategy::EventSkip));
    warm_up(&mut sys);
    let snap = snapshot::take(&sys);
    // A four-partition floorplan has a different component set: the engine
    // restore must reject it before mutating anything.
    let mut quad = SystemConfig::fast_quad();
    quad.strategy = EngineStrategy::EventSkip;
    assert!(snapshot::restore(quad, &snap).is_err());
}

/// `(rendered length, FNV-1a of the rendering)` of a checkpoint.
fn pin(json: &pdr_lab::sim::json::Json) -> (usize, u64) {
    let text = json.render();
    (text.len(), snapshot::fnv1a(text.as_bytes()))
}

#[test]
fn checkpoint_bytes_are_pinned() {
    // The checkpoint layout is a contract with every file already on disk:
    // a codec refactor must leave each byte where it was. The documents are
    // hundreds of kilobytes, so the test pins their digests, not golden files.
    use pdr_lab::pdr::fleet::{FleetConfig, FleetRun};
    use pdr_lab::pdr::{CampaignRun, FaultCampaign, ParallelExecutor};

    let mut got = Vec::new();
    for strategy in [EngineStrategy::EventSkip, EngineStrategy::Tick] {
        let mut sys = ZynqPdrSystem::new(config(strategy));
        warm_up(&mut sys);
        got.push(pin(&snapshot::take(&sys)));
    }
    let mut campaign = CampaignRun::new(FaultCampaign::fast_system(), FaultCampaign::default());
    for _ in 0..3 {
        campaign.step();
    }
    got.push(pin(&campaign.checkpoint()));
    let mut fleet = FleetRun::new(FleetConfig::default());
    fleet.step_epoch(&ParallelExecutor::serial());
    got.push(pin(&fleet.checkpoint()));
    let pinned = [
        (219625, 0x754d9712738bba45), // system, event-skip
        (219451, 0x6cd0afc34c5985d6), // system, tick
        (415396, 0xd0064455b0c151f0), // campaign after 3 steps
        (9955, 0x645e9e952cad5d53),   // fleet after one epoch
    ];
    assert_eq!(got, pinned);
}

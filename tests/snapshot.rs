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
use pdr_lab::pdr::{CampaignRun, FaultCampaign, SystemConfig, TraceLevel, ZynqPdrSystem};
use pdr_lab::sim::json::Json;
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
    use pdr_lab::pdr::ParallelExecutor;

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
        (219613, 0xe44dabc2003f2c3a), // system, event-skip
        (219438, 0x381884828a4b5b47), // system, tick
        // Campaign after 3 steps: its queue is the tick engine's (see
        // `both_engines_checkpoint_the_same_campaign_tree`).
        (415383, 0x63d9e0c3f6b0b184),
        (9955, 0x645e9e952cad5d53), // fleet after one epoch
    ];
    assert_eq!(got, pinned);
}

/// Every path at which two JSON trees differ, as `a.b[3].c`.
fn diff_paths(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) if x.len() == y.len() => {
            for ((ka, va), (kb, vb)) in x.iter().zip(y) {
                if ka != kb {
                    out.push(format!("{path}.{{{ka}|{kb}}}"));
                } else {
                    diff_paths(va, vb, &format!("{path}.{ka}"), out);
                }
            }
        }
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => {
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                diff_paths(va, vb, &format!("{path}[{i}]"), out);
            }
        }
        _ if a == b => {}
        _ => out.push(path.to_string()),
    }
}

/// Whether a differing path is one the kernels may legitimately disagree
/// on: a slot's wake bookkeeping (`due_cycle`).
fn kernel_private(path: &str) -> bool {
    let Some((_, rest)) = path.split_once(".engine.components[") else {
        return false;
    };
    let Some((index, field)) = rest.split_once(']') else {
        return false;
    };
    index.parse::<usize>().is_ok() && field == ".due_cycle"
}

/// Asserts two checkpoints are the same JSON tree apart from
/// kernel-private paths.
fn assert_same_tree(event_skip: &Json, tick: &Json) {
    let mut differing = Vec::new();
    diff_paths(event_skip, tick, "", &mut differing);
    let unexpected: Vec<&String> = differing.iter().filter(|p| !kernel_private(p)).collect();
    assert!(
        unexpected.is_empty(),
        "checkpoints differ across kernels at {unexpected:?}"
    );
}

#[test]
fn both_engines_checkpoint_the_same_tree() {
    // Queue entries and their sequence numbers, clock domains (including
    // partitions idle for the whole warm-up), action counts and every
    // component's state must match the tick oracle; only kernel-private
    // bookkeeping may differ.
    let take = |strategy| {
        let mut sys = ZynqPdrSystem::new(config(strategy));
        warm_up(&mut sys);
        snapshot::take(&sys)
    };
    assert_same_tree(
        &take(EngineStrategy::EventSkip),
        &take(EngineStrategy::Tick),
    );
}

#[test]
fn both_engines_checkpoint_the_same_campaign_tree() {
    // A campaign's system soaks through long idle spans, where every
    // domain parks and folds in closed form; the queue it leaves must
    // still carry the tick engine's sequence numbers.
    let campaign = |strategy| {
        let mut system = FaultCampaign::fast_system();
        system.strategy = strategy;
        let mut run = CampaignRun::new(system, FaultCampaign::default());
        for _ in 0..3 {
            run.step();
        }
        run.checkpoint()
    };
    assert_same_tree(
        &campaign(EngineStrategy::EventSkip),
        &campaign(EngineStrategy::Tick),
    );
}

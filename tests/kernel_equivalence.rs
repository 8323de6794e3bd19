//! Differential kernel-equivalence suite: every committed golden-trace
//! scenario, the ≥150-fault campaign and the compressed-scheduler workload
//! run under both [`EngineStrategy::Tick`] (the edge-by-edge oracle) and
//! [`EngineStrategy::EventSkip`] (the event-skipping kernel), and every
//! observable — the JSONL tape, the trace report, the campaign/scheduler
//! telemetry, simulated time and the dispatch count — must be
//! **byte-identical**. The three golden scenarios additionally pin both
//! engines to the committed tapes under `tests/golden/`, so a kernel
//! change that moves a single byte fails twice: against the oracle and
//! against the repository history.

use pdr_lab::fabric::{AspKind, ColumnKind, Floorplan, Geometry, Partition};
use pdr_lab::pdr::{
    CampaignRun, FaultCampaign, FaultCampaignResult, FaultPlan, ReconfigRequest, RecoveryConfig,
    RecoveryManager, Scheduler, SchedulerConfig, SchedulerReport, SdCard, SystemConfig, TraceLevel,
    ZynqPdrSystem,
};
use pdr_lab::sim::json::ToJson;
use pdr_lab::sim::{EngineStrategy, Frequency, KernelCounters, SimDuration};

const STRATEGIES: [EngineStrategy; 2] = [EngineStrategy::Tick, EngineStrategy::EventSkip];

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed golden tape {}: {e}", path.display()))
}

/// Everything both engines must agree on, down to the byte.
#[derive(Debug, PartialEq)]
struct Observed {
    tape: String,
    report_json: String,
    counters: String,
    now_ps: u64,
    actions: u64,
    interconnect: String,
    reconfigs: u64,
}

fn observe(sys: &mut ZynqPdrSystem) -> Observed {
    let tape = sys.tracer().export_jsonl();
    let counters = format!("{:?}", sys.tracer().counters());
    let interconnect = format!("{:?}", sys.interconnect_stats());
    let reconfigs = sys.reconfig_count();
    let now_ps = sys.now().as_ps();
    let report_json = sys.tracer_mut().report().to_json_string();
    let actions = sys.engine_mut().actions_dispatched();
    Observed {
        tape,
        report_json,
        counters,
        now_ps,
        actions,
        interconnect,
        reconfigs,
    }
}

fn assert_equivalent(name: &str, tick: &Observed, skip: &Observed) {
    assert_eq!(
        tick.tape, skip.tape,
        "{name}: tick and event-skip tapes must be byte-identical"
    );
    assert_eq!(tick, skip, "{name}: engines disagree on final state");
}

// ---------------------------------------------------------------------------
// scenario 1: the golden reconfiguration tape (SD boot, healthy + failing
// transfer, SEU alarm, scrub recovery)
// ---------------------------------------------------------------------------

fn reconfig_scenario(strategy: EngineStrategy) -> ZynqPdrSystem {
    let mut config = SystemConfig::fast_test();
    config.strategy = strategy;
    let mut sys = ZynqPdrSystem::new(config);
    sys.set_trace_level(TraceLevel::Full);

    let bs0 = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let bs1 = sys.make_asp_bitstream(1, AspKind::AesMix, 2);
    let mut card = SdCard::class10_compressed();
    card.store("rp0_fir.bit", bs0.clone());
    card.store("rp1_aes.bit", bs1.clone());
    sys.boot_from_sd(&card);

    assert!(sys.reconfigure(0, &bs0, Frequency::from_mhz(200)).crc_ok());
    assert!(sys.reconfigure(1, &bs1, Frequency::from_mhz(200)).crc_ok());
    assert!(!sys.reconfigure(0, &bs0, Frequency::from_mhz(360)).crc_ok());
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
fn reconfig_tape_is_identical_across_engines_and_matches_golden() {
    let [tick, skip] = STRATEGIES.map(|s| observe(&mut reconfig_scenario(s)));
    assert_equivalent("reconfig", &tick, &skip);
    assert_eq!(
        tick.tape,
        golden("reconfig.jsonl"),
        "both engines must reproduce the committed golden tape"
    );
}

// ---------------------------------------------------------------------------
// scenario 2: the golden fault-campaign slice (800 µs)
// ---------------------------------------------------------------------------

fn fault_campaign(strategy: EngineStrategy, duration: SimDuration) -> (Observed, String, u64) {
    let mut campaign = FaultCampaign::default();
    campaign.plan.duration = duration;
    let mut config = FaultCampaign::fast_system();
    config.strategy = strategy;
    let mut sys = ZynqPdrSystem::new(config);
    sys.set_trace_level(TraceLevel::Full);
    let plan = FaultPlan::generate(&campaign.plan, sys.floorplan());
    let mut run = CampaignRun::with_plan(sys, campaign, plan);
    let r: FaultCampaignResult = run.run_to_end(&mut |_| {});
    let events = r.events;
    (observe(run.system_mut()), r.to_json_string(), events)
}

#[test]
fn fault_slice_tape_is_identical_across_engines_and_matches_golden() {
    let [(tick, tick_r, tick_events), (skip, skip_r, _)] =
        STRATEGIES.map(|s| fault_campaign(s, SimDuration::from_micros(800)));
    assert!(tick_events > 0, "the slice must schedule faults");
    assert_equivalent("fault-slice", &tick, &skip);
    assert_eq!(tick_r, skip_r, "campaign result JSON must match");
    assert_eq!(tick.tape, golden("fault_slice.jsonl"));
}

#[test]
fn full_150_fault_campaign_is_identical_across_engines() {
    // The ≥150-fault campaign: the default mixed plan stretched to 8 ms —
    // every recovery path (retry, scrub, quarantine) under both kernels.
    let [(tick, tick_r, tick_events), (skip, skip_r, skip_events)] =
        STRATEGIES.map(|s| fault_campaign(s, SimDuration::from_millis(8)));
    assert!(
        tick_events >= 150,
        "want a ≥150-fault campaign, got {tick_events}"
    );
    assert_eq!(tick_events, skip_events);
    assert_equivalent("campaign-8ms", &tick, &skip);
    assert_eq!(
        tick_r, skip_r,
        "campaign telemetry JSON must be byte-identical"
    );
}

// ---------------------------------------------------------------------------
// scenario 3: the golden compressed-scheduler workload (thrashing cache)
// ---------------------------------------------------------------------------

fn scheduler_scenario(strategy: EngineStrategy) -> (ZynqPdrSystem, Scheduler) {
    let mut config = SystemConfig::fast_quad();
    config.strategy = strategy;
    let mut sys = ZynqPdrSystem::new(config);
    sys.set_trace_level(TraceLevel::Full);
    let mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());

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
    let mut mgr = mgr;
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
fn scheduler_tape_is_identical_across_engines_and_matches_golden() {
    let [(tick, tick_rep), (skip, skip_rep)] = STRATEGIES.map(|s| {
        let (mut sys, mut sched) = scheduler_scenario(s);
        let rep: SchedulerReport = sched.report();
        (observe(&mut sys), rep)
    });
    assert_eq!(tick_rep.completed, 8);
    assert_equivalent("scheduler", &tick, &skip);
    assert_eq!(tick_rep, skip_rep, "scheduler telemetry must match");
    assert_eq!(tick_rep.to_json_string(), skip_rep.to_json_string());
    assert_eq!(tick.tape, golden("scheduler_compressed.jsonl"));
}

/// Kernel counters across one `fast_test` reconfiguration of RP0 at
/// 200 MHz, on a system that already reconfigured once (so every idle
/// partition clock has parked).
fn reconfig_counters(strategy: EngineStrategy) -> (KernelCounters, KernelCounters) {
    let mut config = SystemConfig::fast_test();
    config.strategy = strategy;
    reconfig_counters_on(config)
}

/// Counter readings around the second of two 200 MHz reconfigurations of
/// RP1.
fn reconfig_counters_on(config: SystemConfig) -> (KernelCounters, KernelCounters) {
    let mut sys = ZynqPdrSystem::new(config);
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    assert!(sys.reconfigure(0, &bs, Frequency::from_mhz(200)).crc_ok());
    let before = sys.engine_mut().kernel_counters();
    assert!(sys.reconfigure(0, &bs, Frequency::from_mhz(200)).crc_ok());
    (before, sys.engine_mut().kernel_counters())
}

/// `(wake polls, member calls)` of the pinned reconfiguration.
fn polls_and_calls(strategy: EngineStrategy) -> (u64, u64) {
    let (before, after) = reconfig_counters(strategy);
    (after.polls - before.polls, after.calls - before.calls)
}

/// A domain's name and its `(pops, dispatched, folded, parked)` change.
type Delta = (String, (u64, u64, u64, u64));

/// Per-domain changes between two counter readings, and the queue pops.
fn counter_delta(before: &KernelCounters, after: &KernelCounters) -> (u64, Vec<Delta>) {
    let domains = before
        .domains
        .iter()
        .zip(&after.domains)
        .map(|((name, b), (_, a))| {
            let d = (
                a.pops - b.pops,
                a.dispatched - b.dispatched,
                a.folded - b.folded,
                a.parked - b.parked,
            );
            (name.clone(), d)
        })
        .collect();
    (after.queue_pops - before.queue_pops, domains)
}

#[test]
fn reconfiguration_kernel_counters_are_pinned() {
    let (before, after) = reconfig_counters(EngineStrategy::EventSkip);
    let (pops, skip) = counter_delta(&before, &after);
    let parked_steps = after.parked_steps - before.parked_steps;
    let (before, after) = reconfig_counters(EngineStrategy::Tick);
    let (tick_pops, tick) = counter_delta(&before, &after);

    // The partition clocks idle through the whole transfer: parked, they
    // pop nothing, and every one of their edges is accounted off the queue.
    for (name, (pops, dispatched, folded, parked)) in &skip {
        if name.starts_with("rp") {
            assert_eq!((*pops, *dispatched, *folded), (0, 0, 0), "{name}");
            assert!(*parked > 0, "{name}");
        }
    }
    // Every domain fires the tick engine's edges: dispatched, folded
    // before parking, or fired while parked.
    for ((name, (_, d, f, p)), (_, (_, tick_dispatched, tick_folded, tick_parked))) in
        skip.iter().zip(&tick)
    {
        assert_eq!((*tick_folded, *tick_parked), (0, 0), "{name}");
        assert_eq!(d + f + p, *tick_dispatched, "{name}");
    }
    let pin = |name: &str, d: (u64, u64, u64, u64)| (name.to_string(), d);
    assert_eq!(tick_pops, 178_741);
    assert_eq!(pops, 19_231);
    // The tick engine never parks; event-skip fires the partition clocks'
    // cohort, and the DDR clock through its stalls, off the queue.
    assert_eq!(after.parked_steps, 0, "tick");
    assert_eq!(parked_steps, 27_455);
    // Wake polls and member calls: event-skip polls the members it called,
    // the event targets and the components whose sources were written, and
    // calls only members with work; the tick engine calls every member on
    // every edge and never polls.
    assert_eq!(polls_and_calls(EngineStrategy::Tick), (0, 299_861));
    assert_eq!(polls_and_calls(EngineStrategy::EventSkip), (51_448, 46_328));
    assert_eq!(
        skip,
        vec![
            pin("fclk-axi", (5_451, 5_584, 0, 11_719)),
            // The controller sleeps while its beat FIFO is full.
            pin("ddr", (2_687, 7_768, 0, 84_457)),
            pin("overclock", (11_093, 11_093, 1, 23_512)),
            pin("rp1-clk", (0, 0, 0, 17_303)),
            pin("rp2-clk", (0, 0, 0, 17_303)),
        ]
    );
}

/// `fast_test` with `n` partitions of its shape, one per row (`fast_test`
/// itself has two).
fn one_partition_per_row(n: u32) -> SystemConfig {
    let geometry = Geometry::new(n, vec![ColumnKind::Clb; 6]);
    let partitions = (0..n)
        .map(|r| Partition::new(&format!("RP{}", r + 1), r, 0..3))
        .collect();
    SystemConfig {
        floorplan: Floorplan::new(geometry, partitions),
        ..SystemConfig::fast_test()
    }
}

#[test]
fn reconfiguration_work_is_flat_in_the_partition_count() {
    // Each partition adds a halted data DMA on the AXI clock and an idle
    // accelerator sink on its own clock. Neither is fed during a
    // reconfiguration of RP1, so neither may be called, polled or queued:
    // the work must not grow with the partition count.
    // The idle partition clocks share one edge grid: they park as one
    // cohort, whose edges fire in one kernel step per shared instant
    // however many partitions it holds.
    let work = |config| {
        let (before, after) = reconfig_counters_on(config);
        (
            after.queue_pops - before.queue_pops,
            after.polls - before.polls,
            after.calls - before.calls,
            after.parked_steps - before.parked_steps,
        )
    };
    let two = work(SystemConfig::fast_test());
    for n in [2, 8, 16] {
        assert_eq!(work(one_partition_per_row(n)), two, "{n} partitions");
    }
}

#[test]
fn partition_data_traffic_during_a_reconfiguration_matches_tick() {
    // RP2's data DMA streams 64 KiB into its accelerator while RP1
    // reconfigures: the register write wakes the halted DMA, its requests
    // wake the interconnect, its beats wake the partition's sink.
    let run = |strategy| {
        let mut config = SystemConfig::fast_test();
        config.strategy = strategy;
        let mut sys = ZynqPdrSystem::new(config);
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
        sys.start_asp_dma(1, 0x40_0000, 64 << 10);
        let report = sys.reconfigure(0, &bs, Frequency::from_mhz(200));
        assert!(report.crc_ok());
        sys.engine_mut().run_for(SimDuration::from_micros(200));
        assert!(!sys.asp_dma_busy(1), "the data transfer must finish");
        (report.to_json_string(), observe(&mut sys))
    };
    let (tick, skip) = (run(EngineStrategy::Tick), run(EngineStrategy::EventSkip));
    assert_eq!(tick.0, skip.0, "reconfiguration reports differ");
    assert_equivalent("partition data traffic", &tick.1, &skip.1);
}

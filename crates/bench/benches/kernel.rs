//! Event-skipping kernel speedup on idle-dominated soak workloads.
//!
//! The headline claim of the DES kernel: on workloads where the fabric is
//! mostly quiescent — a background CRC monitor soaking between sparse SEUs,
//! and scheduler waves separated by multi-millisecond gaps — the
//! event-skipping engine delivers **≥ 10× simulated-bytes-per-wall-second**
//! over the edge-by-edge tick oracle, while staying byte-identical on every
//! deterministic observable (trace report JSON, counters, simulated time
//! and the dispatched-action count).
//!
//! Both claims are asserted here (a regression fails the build). Besides
//! `target/experiments/kernel.md`, the bench writes `BENCH_kernel.json` at
//! the workspace root: a deterministic, simulated-time-only snapshot (no
//! wall-clock fields), committed so CI can diff it bit-for-bit.

use pdr_bench::harness::{Criterion, Throughput};
use pdr_bench::{publish, Table};
use pdr_core::{
    ReconfigRequest, RecoveryConfig, RecoveryManager, Scheduler, SchedulerConfig, SystemConfig,
    TraceLevel, ZynqPdrSystem,
};
use pdr_fabric::AspKind;
use pdr_sim_core::json::{Json, ToJson};
use pdr_sim_core::{EngineStrategy, Frequency, SimDuration};

/// SEUs injected into the fault soak, each after a quiet scrubbing span.
const SOAK_FAULTS: u64 = 5;
/// Quiet monitor span before each SEU. Still orders of magnitude denser
/// than real orbital upset rates — i.e. conservative for the speedup claim.
const SOAK_SPAN_US: u64 = 4000;
/// Scheduler waves, each followed by a 2 ms idle gap.
const WAVES: u64 = 3;

/// Deterministic observables of one finished workload — identical between
/// engines by the kernel contract, and committed in `BENCH_kernel.json`.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    sim_ps: u64,
    bytes: u64,
    actions: u64,
    report_json: String,
}

impl Outcome {
    fn capture(mut sys: ZynqPdrSystem, bytes: u64) -> Outcome {
        Outcome {
            sim_ps: sys.now().as_ps(),
            bytes,
            actions: sys.engine_mut().actions_dispatched(),
            report_json: sys.tracer_mut().report().to_json_string(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sim_ps".into(), Json::U64(self.sim_ps)),
            ("bytes".into(), Json::U64(self.bytes)),
            ("actions".into(), Json::U64(self.actions)),
        ])
    }
}

/// Background-monitor soak: sparse SEUs over long quiet scan spans, each
/// detected by the CRC read-back block and scrubbed.
fn fault_soak(strategy: EngineStrategy) -> (ZynqPdrSystem, u64) {
    let mut config = SystemConfig::fast_test();
    config.strategy = strategy;
    let mut sys = ZynqPdrSystem::new(config);
    sys.set_trace_level(TraceLevel::Counters);
    let bs0 = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let bs1 = sys.make_asp_bitstream(1, AspKind::AesMix, 2);
    let mut bytes = (bs0.len() + bs1.len()) as u64;
    assert!(sys.reconfigure(0, &bs0, Frequency::from_mhz(200)).crc_ok());
    assert!(sys.reconfigure(1, &bs1, Frequency::from_mhz(200)).crc_ok());
    let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
    mgr.register_golden(0, bs0.clone());
    for i in 0..SOAK_FAULTS {
        // The scrub reconfiguration pauses the monitor — re-arm every round.
        sys.start_background_monitor(&[0, 1]);
        let scan = sys.monitor_scan_period();
        sys.run_monitor_for(SimDuration::from_micros(SOAK_SPAN_US));
        sys.inject_seu(
            0,
            1 + (i % 40) as u32,
            (i % 25) as usize,
            1 + (i % 31) as u32,
        );
        let latency = sys
            .run_monitor_until_alarm(scan * 3)
            .expect("the monitor must catch every injected SEU");
        mgr.record_detection(latency);
        assert!(mgr.on_crc_alarm(&mut sys, 0).succeeded());
        bytes += bs0.len() as u64; // the scrub rewrites the golden image
    }
    (sys, bytes)
}

/// Scheduler waves with 2 ms inter-wave gaps — bursts of real transfer
/// work inside long fully-idle spans.
fn scheduler_soak(strategy: EngineStrategy) -> (ZynqPdrSystem, u64) {
    let mut config = SystemConfig::fast_quad();
    config.strategy = strategy;
    let mut sys = ZynqPdrSystem::new(config);
    sys.set_trace_level(TraceLevel::Counters);
    let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
    let mut sched = Scheduler::new(SchedulerConfig::default().compressed());
    let mut bytes = 0u64;
    let images: Vec<_> = (0..4usize)
        .map(|rp| {
            let kind = AspKind::ALL[rp % AspKind::ALL.len()];
            sys.make_asp_bitstream(rp, kind, rp as u32 + 1)
        })
        .collect();
    for (id, bs) in images.iter().enumerate() {
        sched.register_bitstream(id as u32, bs.clone());
    }
    for wave in 0..WAVES {
        for (rp, image) in images.iter().enumerate() {
            let req = ReconfigRequest {
                rp,
                bitstream_id: rp as u32,
                priority: 0,
                deadline: SimDuration::from_millis(50 + wave),
                tenant: 0,
            };
            sched.submit(&sys, &mgr, req).expect("workload must admit");
            bytes += image.len() as u64;
        }
        sched.run_until_idle(&mut sys, &mut mgr);
        // The inter-wave gap: nothing is armed, every component quiescent.
        sys.engine_mut().run_for(SimDuration::from_millis(2));
    }
    (sys, bytes)
}

type Workload = fn(EngineStrategy) -> (ZynqPdrSystem, u64);

fn measure(c: &mut Criterion, workload_name: &str, workload: Workload, bytes: u64) {
    let mut g = c.benchmark_group(workload_name);
    g.throughput(Throughput::Bytes(bytes));
    for (name, strategy) in [
        ("tick", EngineStrategy::Tick),
        ("event-skip", EngineStrategy::EventSkip),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(|| strategy, |s| std::hint::black_box(workload(s)))
        });
    }
}

fn median_ns(c: &Criterion, group: &str, name: &str) -> f64 {
    let id = format!("{group}/{name}");
    c.results()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no result for {id}"))
        .median
        .as_nanos() as f64
}

fn main() {
    let t0 = std::time::Instant::now();
    let workloads: [(&str, Workload); 2] = [
        ("fault_soak", fault_soak),
        ("scheduler_soak", scheduler_soak),
    ];

    // -- equivalence: every deterministic observable byte-identical --------
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for (name, workload) in workloads {
        let (tick_sys, tick_bytes) = workload(EngineStrategy::Tick);
        let (skip_sys, skip_bytes) = workload(EngineStrategy::EventSkip);
        let tick = Outcome::capture(tick_sys, tick_bytes);
        let skip = Outcome::capture(skip_sys, skip_bytes);
        assert_eq!(
            tick, skip,
            "{name}: tick and event-skip must agree on every deterministic \
             observable (see docs/KERNEL.md)"
        );
        outcomes.push((name, skip));
    }

    // -- wall-clock: the ≥10× claim ----------------------------------------
    let mut c = Criterion::default();
    for ((name, workload), (_, outcome)) in workloads.iter().zip(&outcomes) {
        measure(&mut c, name, *workload, outcome.bytes);
    }
    c.final_report("kernel");

    let mut rows = Vec::new();
    for (name, outcome) in &outcomes {
        let tick_ns = median_ns(&c, name, "tick");
        let skip_ns = median_ns(&c, name, "event-skip");
        // Same simulated bytes both ways, so the bytes-per-wall-second
        // ratio reduces to the wall-time ratio.
        let speedup = tick_ns / skip_ns;
        let rate = |ns: f64| outcome.bytes as f64 / (ns / 1e9) / 1e6;
        rows.push((name.to_string(), outcome.clone(), tick_ns, skip_ns, speedup));
        eprintln!(
            "{name}: {:.1} -> {:.1} simulated MB/s of wall time ({speedup:.1}x)",
            rate(tick_ns),
            rate(skip_ns),
        );
        assert!(
            speedup >= 10.0,
            "{name}: event skipping must deliver >=10x simulated-bytes-per-\
             wall-second over the tick oracle, got {speedup:.1}x \
             ({tick_ns:.0} ns -> {skip_ns:.0} ns)"
        );
    }

    // -- BENCH_kernel.json — deterministic snapshot only -------------------
    // No wall-clock fields: re-running at any sample count on any machine
    // reproduces this file bit-for-bit.
    let snapshot = Json::Obj(vec![
        ("bench".into(), Json::Str("kernel".into())),
        ("soak_faults".into(), Json::U64(SOAK_FAULTS)),
        ("scheduler_waves".into(), Json::U64(WAVES)),
        (
            "workloads".into(),
            Json::Obj(
                outcomes
                    .iter()
                    .map(|(name, o)| (name.to_string(), o.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let path = root.join("BENCH_kernel.json");
    match std::fs::write(&path, snapshot.render() + "\n") {
        Ok(()) => eprintln!("[kernel snapshot written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // -- markdown table ----------------------------------------------------
    let mut t = Table::new(&[
        "workload",
        "sim time [ms]",
        "bytes",
        "tick [ms]",
        "event-skip [ms]",
        "speedup",
    ]);
    for (name, o, tick_ns, skip_ns, speedup) in &rows {
        t.row(&[
            name.clone(),
            format!("{:.2}", o.sim_ps as f64 / 1e9),
            o.bytes.to_string(),
            format!("{:.2}", tick_ns / 1e6),
            format!("{:.2}", skip_ns / 1e6),
            format!("{speedup:.1}x"),
        ]);
    }
    let content = format!(
        "## Event-skipping kernel — speedup on idle-dominated soaks\n\n{}\n\
         Fault soak: {SOAK_FAULTS} sparse SEUs over {SOAK_SPAN_US} µs quiet \
         monitor spans, each detected and scrubbed. Scheduler soak: {WAVES} waves of \
         four transfers with 2 ms idle gaps. Speedup is asserted ≥ 10× on \
         both; every deterministic observable (trace report JSON, simulated \
         time, dispatched-action count) is asserted byte-identical between \
         the kernels first.\n\n\
         _regenerated in {:.2?}_\n",
        t.render(),
        t0.elapsed()
    );
    publish("kernel", &content);
}

//! Fleet control plane: determinism matrix + epoch fan-out speedup.
//!
//! The contract comes first: the merged `FleetReport` of the default fleet
//! campaign must render **byte-identically** for every thread count in
//! {1, 2, 3, 8} and under both engine strategies, and a campaign
//! checkpointed mid-flight must resume to the same bytes — any mismatch
//! fails the build before anything is timed. Only then is the wall-clock
//! cost of the sharded epoch fan-out measured serial vs all-cores.
//!
//! Besides `target/experiments/fleet.md`, the bench writes
//! `BENCH_fleet.json` at the workspace root: a deterministic,
//! simulation-only snapshot (no wall-clock fields), committed so CI can
//! diff it bit-for-bit.

use pdr_bench::harness::{Criterion, Throughput};
use pdr_bench::{publish, Table};
use pdr_core::fleet::{FleetConfig, FleetReport, FleetRun};
use pdr_core::{snapshot, ParallelExecutor};
use pdr_sim_core::json::{Json, ToJson};
use pdr_sim_core::EngineStrategy;

/// Thread counts the equivalence matrix sweeps.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn config(strategy: EngineStrategy) -> FleetConfig {
    let mut cfg = FleetConfig::default();
    cfg.system.strategy = strategy;
    cfg
}

fn run_campaign(strategy: EngineStrategy, executor: &ParallelExecutor) -> FleetReport {
    let mut run = FleetRun::new(config(strategy));
    run.run_to_end(executor);
    run.report()
}

fn main() {
    let t0 = std::time::Instant::now();
    let engines = [
        ("tick", EngineStrategy::Tick),
        ("event-skip", EngineStrategy::EventSkip),
    ];

    // -- equivalence: thread count and engine are unobservable --------------
    let reference = run_campaign(EngineStrategy::EventSkip, &ParallelExecutor::serial());
    let reference_json = reference.to_json_string();
    for (engine_name, strategy) in engines {
        for threads in THREADS {
            let report = run_campaign(strategy, &ParallelExecutor::new(threads));
            assert_eq!(
                reference_json,
                report.to_json_string(),
                "{engine_name}/threads={threads}: merged fleet report must be \
                 byte-identical to the serial event-skip path (docs/FLEET.md)"
            );
        }
    }
    // Mid-campaign checkpoint + resume must converge to the same bytes.
    {
        let ex = ParallelExecutor::new(2);
        let mut front = FleetRun::new(config(EngineStrategy::EventSkip));
        for _ in 0..3 {
            front.step_epoch(&ex);
        }
        let ckpt = front.checkpoint();
        let parsed = Json::parse(&ckpt.render()).expect("checkpoint parses");
        let mut back = FleetRun::resume(config(EngineStrategy::Tick), &parsed)
            .expect("checkpoints are engine-portable");
        back.run_to_end(&ex);
        assert_eq!(
            reference_json,
            back.report().to_json_string(),
            "resumed campaign must reproduce the uninterrupted bytes"
        );
    }
    let digest = snapshot::fnv1a(reference_json.as_bytes());
    eprintln!(
        "equivalence PASSED: {} thread counts x {} engines + resume, fleet digest {digest:#018x}",
        THREADS.len(),
        engines.len(),
    );

    // -- wall-clock: serial vs all-cores epoch fan-out ----------------------
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let par_threads = cores.min(reference.shards as usize);
    let strategy = EngineStrategy::EventSkip;
    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("fleet");
        g.throughput(Throughput::Elements(reference.submitted));
        for (name, threads) in [("serial", 1), ("parallel", par_threads)] {
            g.bench_function(name, |b| {
                b.iter_batched(
                    || {
                        (
                            FleetRun::new(config(strategy)),
                            ParallelExecutor::new(threads),
                        )
                    },
                    |(mut run, ex)| {
                        run.run_to_end(&ex);
                        std::hint::black_box(run.report())
                    },
                )
            });
        }
    }
    c.final_report("fleet");
    let median_ns = |name: &str| {
        c.results()
            .iter()
            .find(|r| r.id == format!("fleet/{name}"))
            .unwrap_or_else(|| panic!("no result for fleet/{name}"))
            .median
            .as_nanos() as f64
    };
    let serial_ns = median_ns("serial");
    let parallel_ns = median_ns("parallel");
    let speedup = serial_ns / parallel_ns;
    eprintln!(
        "{}-request campaign: {:.1} ms serial -> {:.1} ms on {par_threads} thread(s) \
         ({speedup:.2}x, {cores} core(s))",
        reference.submitted,
        serial_ns / 1e6,
        parallel_ns / 1e6,
    );

    // -- BENCH_fleet.json — deterministic snapshot only ---------------------
    // No wall-clock or host fields: re-running at any sample count, any
    // thread count, on any machine reproduces this file bit-for-bit.
    let r = &reference;
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::F64);
    let bench_snapshot = Json::Obj(vec![
        ("bench".into(), Json::Str("fleet".into())),
        ("boards".into(), Json::U64(r.boards)),
        ("shards".into(), Json::U64(r.shards)),
        ("epochs".into(), Json::U64(r.epochs)),
        (
            "threads_matrix".into(),
            Json::Arr(THREADS.iter().map(|&t| Json::U64(t as u64)).collect()),
        ),
        ("fleet_digest".into(), Json::U64(digest)),
        ("submitted".into(), Json::U64(r.submitted)),
        ("completed".into(), Json::U64(r.completed)),
        ("failed".into(), Json::U64(r.failed)),
        ("rejected".into(), Json::U64(r.rejected)),
        ("stolen".into(), Json::U64(r.stolen)),
        ("rerouted".into(), Json::U64(r.rerouted)),
        ("boards_quarantined".into(), Json::U64(r.boards_quarantined)),
        ("cache_hits".into(), Json::U64(r.cache_hits)),
        ("cache_misses".into(), Json::U64(r.cache_misses)),
        ("cache_hit_rate".into(), opt(r.cache_hit_rate)),
        ("availability".into(), opt(r.availability)),
        ("latency_p50_us".into(), opt(r.latency_p50_us)),
        ("latency_p99_us".into(), opt(r.latency_p99_us)),
        ("makespan_us".into(), Json::F64(r.makespan_us)),
        ("throughput_rps".into(), opt(r.throughput_rps)),
    ]);
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let path = root.join("BENCH_fleet.json");
    match std::fs::write(&path, bench_snapshot.render() + "\n") {
        Ok(()) => eprintln!("[fleet snapshot written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // -- markdown table ------------------------------------------------------
    let mut t = Table::new(&["path", "threads", "wall [ms]", "speedup", "fleet digest"]);
    t.row(&[
        "serial".into(),
        "1".into(),
        format!("{:.2}", serial_ns / 1e6),
        "1.00x".into(),
        format!("{digest:#018x}"),
    ]);
    t.row(&[
        "parallel".into(),
        par_threads.to_string(),
        format!("{:.2}", parallel_ns / 1e6),
        format!("{speedup:.2}x"),
        format!("{digest:#018x}"),
    ]);
    let content = format!(
        "## Fleet control plane — determinism matrix and epoch fan-out\n\n{}\n\
         Default fleet campaign ({} boards, {} shards, {} requests). Before \
         timing, the merged report is asserted byte-identical across thread \
         counts {{1, 2, 3, 8}}, across both engine strategies, and across a \
         mid-campaign checkpoint + engine-crossed resume — the digest column \
         is the FNV-1a of that one canonical JSON. Availability {:.4}, cache \
         hit rate {:.4}, p99 sojourn {:.0} µs. This run used {cores} \
         core(s).\n\n_regenerated in {:.2?}_\n",
        t.render(),
        r.boards,
        r.shards,
        r.submitted,
        r.availability.unwrap_or(0.0),
        r.cache_hit_rate.unwrap_or(0.0),
        r.latency_p99_us.unwrap_or(0.0),
        t0.elapsed()
    );
    publish("fleet", &content);
}

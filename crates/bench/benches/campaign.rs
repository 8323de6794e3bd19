//! Deterministic multi-threaded campaign executor: equivalence + speedup.
//!
//! The executor's contract comes first: on an 8-way Monte Carlo replica
//! soak forked from a quarter-warmed checkpoint, the merged fleet report
//! must render **byte-identically** for every thread count in {1, 2, 3, 8}
//! and under both engine strategies — a mismatch fails the build before
//! anything is timed. Only then is the wall-clock speedup of the
//! multi-threaded fan-out measured against the serial path, with the
//! asserted floor scaled to the cores this host actually has (the ≥ 4×
//! target applies on ≥ 8 cores; a single-core runner can only prove
//! equivalence, never speedup).
//!
//! Besides `target/experiments/campaign.md`, the bench writes
//! `BENCH_campaign.json` at the workspace root: a deterministic,
//! simulation-only snapshot (no wall-clock fields), committed so CI can
//! diff it bit-for-bit.

use pdr_bench::harness::{Criterion, Throughput};
use pdr_bench::{publish, Table};
use pdr_core::{
    snapshot, CampaignRun, FaultCampaign, MonteCarloReport, ParallelExecutor, SystemConfig,
};
use pdr_sim_core::json::{Json, ToJson};
use pdr_sim_core::{EngineStrategy, SimDuration};

/// Replicas in the soak — the ISSUE's 8-way fleet.
const REPLICAS: u64 = 8;
/// Thread counts the equivalence matrix sweeps.
const THREADS: [usize; 4] = [1, 2, 3, 8];
/// Scheduled-fault horizon of each replica's plan.
const DURATION_US: u64 = 2000;

fn campaign() -> FaultCampaign {
    let mut c = FaultCampaign::default();
    c.plan.duration = SimDuration::from_micros(DURATION_US);
    c
}

fn config(strategy: EngineStrategy) -> SystemConfig {
    let mut cfg = FaultCampaign::fast_system();
    cfg.strategy = strategy;
    cfg
}

/// The shared warmed checkpoint every replica restores from, plus the
/// number of events it consumed.
fn warmed_checkpoint(strategy: EngineStrategy) -> (Json, usize) {
    let mut base = CampaignRun::new(config(strategy), campaign());
    let warm = (base.events() / 4).max(1);
    for _ in 0..warm {
        base.step();
    }
    (base.checkpoint(), warm)
}

fn seeds() -> Vec<u64> {
    (0..REPLICAS).map(|i| 2017 + 1 + i).collect()
}

fn soak(
    strategy: EngineStrategy,
    checkpoint: &Json,
    executor: &ParallelExecutor,
) -> MonteCarloReport {
    executor
        .fork_replicas(&config(strategy), &campaign(), checkpoint, &seeds())
        .expect("fork replicas")
}

fn main() {
    let t0 = std::time::Instant::now();
    let engines = [
        ("tick", EngineStrategy::Tick),
        ("event-skip", EngineStrategy::EventSkip),
    ];

    // -- equivalence: thread count and engine are unobservable --------------
    let mut fleets: Vec<(&str, MonteCarloReport, usize)> = Vec::new();
    for (engine_name, strategy) in engines {
        let (checkpoint, warm) = warmed_checkpoint(strategy);
        let serial = soak(strategy, &checkpoint, &ParallelExecutor::serial());
        let serial_json = serial.to_json_string();
        for threads in THREADS {
            let parallel = soak(strategy, &checkpoint, &ParallelExecutor::new(threads));
            assert_eq!(
                serial_json,
                parallel.to_json_string(),
                "{engine_name}/threads={threads}: merged fleet JSON must be \
                 byte-identical to the serial path (see docs/SNAPSHOT.md)"
            );
        }
        fleets.push((engine_name, serial, warm));
    }
    let (tick_fleet, skip_fleet) = (&fleets[0].1, &fleets[1].1);
    assert_eq!(
        tick_fleet.to_json_string(),
        skip_fleet.to_json_string(),
        "the merged fleet must also be engine-invariant (kernel contract)"
    );
    let fleet = skip_fleet.clone();
    let warm = fleets[1].2;
    let digest = snapshot::fnv1a(fleet.to_json_string().as_bytes());
    eprintln!(
        "equivalence PASSED: {} thread counts x {} engines, fleet digest {digest:#018x}",
        THREADS.len(),
        engines.len(),
    );

    // -- wall-clock: serial vs all-cores fan-out ----------------------------
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let par_threads = cores.min(REPLICAS as usize);
    let strategy = EngineStrategy::EventSkip;
    let (checkpoint, _) = warmed_checkpoint(strategy);
    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("soak");
        g.throughput(Throughput::Elements(fleet.events));
        for (name, threads) in [("serial", 1), ("parallel", par_threads)] {
            g.bench_function(name, |b| {
                b.iter_batched(
                    || ParallelExecutor::new(threads),
                    |ex| std::hint::black_box(soak(strategy, &checkpoint, &ex)),
                )
            });
        }
    }
    c.final_report("campaign");
    let median_ns = |name: &str| {
        c.results()
            .iter()
            .find(|r| r.id == format!("soak/{name}"))
            .unwrap_or_else(|| panic!("no result for soak/{name}"))
            .median
            .as_nanos() as f64
    };
    let serial_ns = median_ns("serial");
    let parallel_ns = median_ns("parallel");
    let speedup = serial_ns / parallel_ns;
    eprintln!(
        "{REPLICAS}-way soak: {:.1} ms serial -> {:.1} ms on {par_threads} thread(s) \
         ({speedup:.2}x, {cores} core(s))",
        serial_ns / 1e6,
        parallel_ns / 1e6,
    );
    // The ≥ 4× target needs ≥ 8 cores; scale the floor to the host so the
    // bench still guards against fan-out regressions on smaller runners.
    let floor = match par_threads {
        8.. => 4.0,
        4..=7 => 1.5,
        2..=3 => 1.2,
        _ => 0.0,
    };
    if floor > 0.0 {
        assert!(
            speedup >= floor,
            "fanning {REPLICAS} replicas across {par_threads} threads must be \
             >={floor}x faster than serial, got {speedup:.2}x \
             ({serial_ns:.0} ns -> {parallel_ns:.0} ns)"
        );
    } else {
        eprintln!(
            "NOTE: single-core host — speedup unverifiable here ({speedup:.2}x \
             measured); equivalence above is the binding assertion"
        );
    }

    // -- BENCH_campaign.json — deterministic snapshot only ------------------
    // No wall-clock or host fields: re-running at any sample count, any
    // thread count, on any machine reproduces this file bit-for-bit.
    let a = &fleet.availability;
    let bench_snapshot = Json::Obj(vec![
        ("bench".into(), Json::Str("campaign".into())),
        ("replicas".into(), Json::U64(REPLICAS)),
        ("duration_us".into(), Json::U64(DURATION_US)),
        ("warm_events".into(), Json::U64(warm as u64)),
        (
            "threads_matrix".into(),
            Json::Arr(THREADS.iter().map(|&t| Json::U64(t as u64)).collect()),
        ),
        ("fleet_digest".into(), Json::U64(digest)),
        ("events".into(), Json::U64(fleet.events)),
        ("detected".into(), Json::U64(fleet.detected)),
        ("recovered".into(), Json::U64(fleet.recovered)),
        ("unrecovered".into(), Json::U64(fleet.unrecovered)),
        (
            "silent_corruptions".into(),
            Json::U64(fleet.silent_corruptions),
        ),
        ("availability".into(), a.to_json()),
    ]);
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let path = root.join("BENCH_campaign.json");
    match std::fs::write(&path, bench_snapshot.render() + "\n") {
        Ok(()) => eprintln!("[campaign snapshot written to {}]", path.display()),
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
        "## Parallel campaign executor — determinism and speedup\n\n{}\n\
         {REPLICAS} replicas forked from one quarter-warmed checkpoint \
         ({warm} warm events, {DURATION_US} µs fault horizon each). Before \
         timing, the merged fleet report is asserted byte-identical across \
         thread counts {{1, 2, 3, 8}} and across both engine strategies — \
         the digest column is the FNV-1a of that one canonical JSON. The \
         speedup floor scales with host cores (≥ 4× on ≥ 8 cores); this run \
         used {cores} core(s).\n\n\
         Availability over the fleet: mean {:.4} (95% CI [{:.4}, {:.4}]).\n\n\
         _regenerated in {:.2?}_\n",
        t.render(),
        a.mean,
        a.ci95_lo,
        a.ci95_hi,
        t0.elapsed()
    );
    publish("campaign", &content);
}

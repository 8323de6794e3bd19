//! Host-time benchmark of the pdr-lab simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_sweep|fault_soak|tenant_waves|fleet_campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the simulator through its public API only, on one thread, with a
//! single closed-loop client. Prints a human-readable report and, as the
//! last line of standard output, one JSON object: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end ones with `--trace 0`, per-layer
//! ones with `--trace 1`). Exits 1 when an output differs from the pinned
//! reference and 2 on a usage error. See `perfbench/README.md`.

mod gate;
mod harness;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use pdr_sim_core::json::Json;

use harness::Ctx;
use workloads::fault_soak::FaultSoak;
use workloads::fleet::Fleet;
use workloads::table1::Table1;
use workloads::tenant::TenantWaves;
use workloads::Workload;

const USAGE: &str = "usage: pdr-perfbench --workload <table1_sweep|fault_soak|tenant_waves|\
                     fleet_campaign> --seed <n> --seconds <s> --trace <0|1>";

/// `setup_s` is the median of at least this many set-ups...
const SETUP_MIN_REPS: usize = 5;
/// ...repeated, while under this budget, up to `SETUP_MAX_REPS`.
const SETUP_BUDGET: Duration = Duration::from_millis(1000);
const SETUP_MAX_REPS: usize = 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "table1_sweep" => run::<Table1>(&args),
        "fault_soak" => run::<FaultSoak>(&args),
        "tenant_waves" => run::<TenantWaves>(&args),
        "fleet_campaign" => run::<Fleet>(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    let host = host_metadata();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.render());
    let mut ctx = Ctx::new(args.seconds as f64, args.trace);

    let mut setups = Vec::new();
    let mut built = None;
    let start = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (start.elapsed() < SETUP_BUDGET && setups.len() < SETUP_MAX_REPS)
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(W::setup(args.seed, &mut ctx));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up ran");
    w.reference(&mut ctx);
    while ctx.more() {
        w.lap(&mut ctx);
    }

    let mut report = Report::default();
    let [untraced, traced] = ctx.tally;
    let secs = untraced.secs + traced.secs;
    let op_ms = ctx.op_ms();
    let p50 = stats::percentile(op_ms, 50).expect("ops were timed");
    let p90 = stats::percentile(op_ms, 90).expect("the timed loop runs until p90 is measurable");
    report.e2e(
        "setup_s",
        stats::median_or_zero(&setups),
        format!("(n={})", setups.len()),
    );
    report.e2e(
        "ops_per_s",
        (untraced.ops + traced.ops) as f64 / secs,
        format!("({} ops in {secs:.3} s)", untraced.ops + traced.ops),
    );
    report.e2e(
        "op_ms.p50",
        p50.value,
        format!("(n={}, {} beyond)", p50.n, p50.beyond),
    );
    report.e2e(
        "op_ms.p90",
        p90.value,
        format!("(n={}, {} beyond)", p90.n, p90.beyond),
    );
    report.e2e("sim_s_per_host_s", ctx.sim_s() / secs, String::new());
    report.e2e("peak_rss_mb", peak_rss_mb(), String::new());

    if args.trace {
        probes::run(&mut ctx, &w.images());
        let rate = |t: harness::Tally| t.ops as f64 / t.secs;
        let overhead = if traced.ops > 0 && untraced.ops > 0 {
            (rate(untraced) / rate(traced) - 1.0) * 100.0
        } else {
            0.0
        };
        ctx.set("trace_overhead_pct", overhead);
        let error_rate = ctx.gate.error_rate();
        ctx.set("error_rate", error_rate);
        if traced.wall > 0.0 {
            for (layer, ns) in spans::layer_self_ns(ctx.rec.spans()) {
                ctx.set(
                    &format!("self_pct.{layer}"),
                    ns as f64 / 1e9 / traced.wall * 100.0,
                );
            }
        }
        let path = write_spans(&args.workload, args.seed, &host, ctx.rec.spans());
        report.notes.push(format!(
            "{} spans over {:.3} s of traced laps written to {}",
            ctx.rec.spans().len(),
            traced.wall,
            path.display()
        ));
        report.notes.push(format!(
            "{} ops in traced laps and {} in untraced laps, all checked against one reference",
            traced.ops, untraced.ops
        ));
    }
    report.layer = ctx.layer_values();

    let gate = &ctx.gate;
    report.notes.push(format!(
        "error_rate = {} ({} of {} checked ops differ from the reference)",
        gate.error_rate(),
        gate.failed(),
        gate.attempted()
    ));
    for msg in gate.messages() {
        eprintln!("MISMATCH: {msg}");
    }
    report.print(args.trace);
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(gate.passed())),
        ("attempted".into(), Json::U64(gate.attempted())),
        ("failed".into(), Json::U64(gate.failed())),
        ("metrics".into(), report.metrics(args.trace)),
    ]);
    println!("{}", result.render());
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("outputs differ from the pinned reference");
        ExitCode::FAILURE
    }
}

#[derive(Default)]
struct Report {
    e2e: Vec<(&'static str, f64, String)>,
    layer: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, note: String) {
        self.e2e.push((name, value, note));
    }

    fn print(&self, trace: bool) {
        for (name, v, note) in &self.e2e {
            let unit = metrics::unit(name).unwrap_or("");
            println!("{name:<44} {v:>16.6} {unit:<6} {note}");
        }
        if trace {
            for (name, v) in &self.layer {
                let unit = metrics::unit(name).unwrap_or("(unlisted)");
                println!("{name:<44} {v:>16.6} {unit}");
            }
        }
        for note in &self.notes {
            println!("{note}");
        }
    }

    /// The result's `metrics` object: every end-to-end metric, or with
    /// `trace` every per-layer one (0 for a layer the workload never
    /// calls).
    fn metrics(&self, trace: bool) -> Json {
        let entry = |name: &str, unit: &str, v: f64| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::F64(v)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        };
        let fields = if trace {
            metrics::PER_LAYER
                .iter()
                .map(|&(n, u)| entry(n, u, self.layer.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self.e2e.iter().find(|m| m.0 == n).map(|m| m.1);
                    entry(n, u, v.expect("every end-to-end metric is measured"))
                })
                .collect()
        };
        Json::Obj(fields)
    }
}

/// Host facts every result is tagged with.
fn host_metadata() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![
        ("nproc".into(), Json::U64(nproc)),
        ("rustc".into(), Json::Str(rustc)),
        ("profile".into(), Json::Str(profile.into())),
        ("commit".into(), Json::Str(git_commit())),
    ])
}

/// The checked-out commit, read from `.git` beside the benchmark
/// (`unknown` outside a git checkout).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Writes the traced run's spans to `perfbench/out/`.
fn write_spans(workload: &str, seed: u64, host: &Json, spans: &[spans::Span]) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the spans directory");
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::U64(seed)),
        ("host".into(), host.clone()),
        ("spans".into(), spans::to_json(spans)),
    ]);
    std::fs::write(&path, doc.render() + "\n").expect("write the spans file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = args("--workload fault_soak --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fault_soak", 7, 10, true)
        );
        assert!(args("--workload fault_soak --seed 7 --seconds 10").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }
}

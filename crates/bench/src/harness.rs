//! A small, dependency-free micro-benchmark harness with a criterion-like
//! surface: named groups, per-function warmup, a median-of-N measurement, a
//! throughput annotation, and a machine-readable JSON report under
//! `target/experiments/`.
//!
//! The surface is the subset of criterion the benches use
//! ([`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`Bencher::iter_batched`], [`Throughput`]). `PDR_BENCH_SAMPLES` sets the
//! samples per benchmark (default 15), which CI trims for smoke runs.

use std::time::{Duration, Instant};

use pdr_sim_core::json::{Json, ToJson};

/// Samples per benchmark unless `PDR_BENCH_SAMPLES` overrides it.
pub const DEFAULT_SAMPLES: usize = 15;
/// Warmup budget per benchmark.
pub const WARMUP: Duration = Duration::from_millis(200);

/// What one iteration processes, for derived rates in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes per iteration (reported as MB/s, 10⁶ bytes per second).
    Bytes(u64),
    /// Abstract elements per iteration (reported as Melem/s).
    Elements(u64),
}

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function` label.
    pub id: String,
    /// Median iteration time.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of samples taken.
    pub samples: usize,
    /// Optional throughput annotation.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    /// Derived rate string (`"812.40 MB/s"`), when a throughput was set.
    pub fn rate(&self) -> Option<String> {
        let secs = self.median.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        match self.throughput? {
            Throughput::Bytes(n) => Some(format!("{:.2} MB/s", n as f64 / secs / 1e6)),
            Throughput::Elements(n) => Some(format!("{:.2} Melem/s", n as f64 / secs / 1e6)),
        }
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            (
                "median_ns".to_string(),
                Json::U64(self.median.as_nanos() as u64),
            ),
            ("min_ns".to_string(), Json::U64(self.min.as_nanos() as u64)),
            ("max_ns".to_string(), Json::U64(self.max.as_nanos() as u64)),
            ("samples".to_string(), Json::U64(self.samples as u64)),
        ];
        match self.throughput {
            Some(Throughput::Bytes(n)) => fields.push(("bytes".into(), Json::U64(n))),
            Some(Throughput::Elements(n)) => fields.push(("elements".into(), Json::U64(n))),
            None => {}
        }
        Json::Obj(fields)
    }
}

/// The benchmark driver: collects results across groups and renders the
/// final human + JSON report.
#[derive(Debug)]
pub struct Criterion {
    results: Vec<BenchResult>,
    samples: usize,
    warmup: Duration,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            results: Vec::new(),
            samples: env_usize("PDR_BENCH_SAMPLES", DEFAULT_SAMPLES),
            warmup: WARMUP,
        }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the summary table and writes `target/experiments/<name>.json`.
    pub fn final_report(&self, name: &str) {
        let mut out = String::new();
        out.push_str(&format!("## micro-benchmarks — {name}\n\n"));
        for r in &self.results {
            let rate = r.rate().map(|s| format!("  ({s})")).unwrap_or_default();
            out.push_str(&format!(
                "{:<40} median {:>12?}  [{:?} .. {:?}] / {} samples{}\n",
                r.id, r.median, r.min, r.max, r.samples, rate
            ));
        }
        println!("{out}");

        let json = Json::Arr(self.results.iter().map(ToJson::to_json).collect());
        let dir = crate::report_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.json"));
        match std::fs::write(&path, json.render()) {
            Ok(()) => eprintln!("[bench report written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// A named group; configures the throughput of the functions benchmarked
/// inside it.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotates subsequent benchmarks with work-per-iteration.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measures `f` (which drives a [`Bencher`]) and records the result.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            samples: self.c.samples,
            warmup: self.c.warmup,
            timings: Vec::new(),
        };
        f(&mut b);
        assert!(
            !b.timings.is_empty(),
            "bench_function body must call Bencher::iter_batched"
        );
        let mut sorted = b.timings.clone();
        sorted.sort();
        let result = BenchResult {
            id: format!("{}/{}", self.name, name),
            median: sorted[sorted.len() / 2],
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            samples: sorted.len(),
            throughput: self.throughput,
        };
        self.c.results.push(result);
        self
    }
}

/// Runs and times the benchmark body.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    warmup: Duration,
    timings: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` on fresh state from `setup`: warmup iterations for
    /// the warmup budget, then one timed sample each; setup runs outside
    /// the timed section.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        // Warmup: at least one run, then keep going until the budget is
        // spent (caches hot, lazy statics initialised, frequency scaled up).
        let start = Instant::now();
        loop {
            let state = setup();
            std::hint::black_box(routine(state));
            if start.elapsed() >= self.warmup {
                break;
            }
        }
        self.timings.clear();
        for _ in 0..self.samples {
            let state = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(state));
            self.timings.push(t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Criterion {
        Criterion {
            results: Vec::new(),
            samples: 5,
            warmup: Duration::from_millis(1),
        }
    }

    #[test]
    fn measures_and_records() {
        let mut c = tiny();
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(1_000_000));
        g.bench_function("sum", |b| {
            b.iter_batched(|| 10_000u64, |n| (0..n).sum::<u64>());
        });
        assert_eq!(c.results().len(), 1);
        let r = &c.results()[0];
        assert_eq!(r.id, "g/sum");
        assert_eq!(r.samples, 5);
        assert!(r.min <= r.median && r.median <= r.max);
        assert!(r.rate().expect("has throughput").ends_with("MB/s"));
    }

    #[test]
    fn iter_batched_gets_fresh_state() {
        let mut c = tiny();
        let mut g = c.benchmark_group("g");
        g.bench_function("drain", |b| {
            b.iter_batched(
                || vec![1u32, 2, 3],
                |mut v| {
                    // Would panic on a reused (already drained) vector.
                    assert_eq!(v.drain(..).sum::<u32>(), 6);
                },
            );
        });
        assert_eq!(c.results()[0].samples, 5);
    }

    #[test]
    fn result_json_shape() {
        let r = BenchResult {
            id: "g/f".into(),
            median: Duration::from_nanos(1500),
            min: Duration::from_nanos(1000),
            max: Duration::from_nanos(2000),
            samples: 7,
            throughput: Some(Throughput::Elements(42)),
        };
        let j = r.to_json();
        assert_eq!(j.get("median_ns").and_then(Json::as_u64), Some(1500));
        assert_eq!(j.get("elements").and_then(Json::as_u64), Some(42));
    }
}

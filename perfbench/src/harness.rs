//! The timed loop shared by every workload: laps, op timing, the
//! traced/untraced lap alternation, and per-layer samples.
//!
//! A lap replays the workload's inputs from a fresh starting state. Its
//! set-up (building that state) is excluded from the timed window; every
//! other host second of the lap counts towards `ops_per_s`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gate::Gate;
use crate::spans::{Open, Recorder};
use crate::stats;

/// Longest the timed phase may run while waiting for enough op samples.
const TIMED_CAP: Duration = Duration::from_secs(120);

/// Ops (and host seconds) of the laps of one tracing class.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Ops completed.
    pub ops: u64,
    /// Host seconds in the timed window.
    pub secs: f64,
    /// Wall seconds of the laps, set-up included.
    pub wall: f64,
}

/// Everything a workload reports into while it runs.
pub struct Ctx {
    seconds: f64,
    trace: bool,
    /// Span recorder (enabled only inside traced laps).
    pub rec: Recorder,
    /// The correctness gate.
    pub gate: Gate,
    timed_start: Option<Instant>,
    laps: u64,
    lap_traced: bool,
    lap_start: Option<Instant>,
    lap_excluded: Duration,
    next_op: u64,
    op_ms: Vec<f64>,
    /// Totals of untraced (`[0]`) and traced (`[1]`) laps.
    pub tally: [Tally; 2],
    sim_s: f64,
    edges: u64,
    edge_ms: f64,
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

/// An open lap.
pub struct Lap {
    span: Open,
}

impl Ctx {
    /// A context for a run of `seconds`, tracing every other lap when
    /// `trace` is set.
    pub fn new(seconds: f64, trace: bool) -> Self {
        Ctx {
            seconds,
            trace,
            rec: Recorder::new(),
            gate: Gate::new(),
            timed_start: None,
            laps: 0,
            lap_traced: false,
            lap_start: None,
            lap_excluded: Duration::ZERO,
            next_op: 0,
            op_ms: Vec::new(),
            tally: [Tally::default(); 2],
            sim_s: 0.0,
            edges: 0,
            edge_ms: 0.0,
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    /// True in a `--trace 1` run.
    pub fn trace_run(&self) -> bool {
        self.trace
    }

    /// True inside a traced lap.
    pub fn traced(&self) -> bool {
        self.lap_traced
    }

    /// Laps started so far (the index of the next lap).
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Whether the timed phase should go on: until `seconds` have passed
    /// and enough ops were timed for `op_ms.p90`.
    ///
    /// # Panics
    ///
    /// Panics if the cap passes before enough ops were timed.
    pub fn more(&mut self) -> bool {
        let start = *self.timed_start.get_or_insert_with(Instant::now);
        let enough = self.op_ms.len() >= stats::min_samples(90);
        if start.elapsed() < Duration::from_secs_f64(self.seconds) {
            return true;
        }
        assert!(
            enough || start.elapsed() < TIMED_CAP,
            "only {} ops timed in {TIMED_CAP:?}: too few for op_ms.p90",
            self.op_ms.len()
        );
        !enough
    }

    /// Opens the next lap; in a traced run every second lap is traced.
    pub fn start_lap(&mut self) -> Lap {
        self.lap_traced = self.trace && self.laps % 2 == 1;
        self.laps += 1;
        self.rec.set_enabled(self.lap_traced);
        self.rec.set_op(self.next_op);
        self.lap_start = Some(Instant::now());
        self.lap_excluded = Duration::ZERO;
        Lap {
            span: self.rec.enter("bench.lap"),
        }
    }

    /// Removes `d` of lap set-up from the lap's timed window.
    pub fn exclude(&mut self, d: Duration) {
        self.lap_excluded += d;
    }

    /// Closes a lap that advanced simulated time by `sim_s`.
    pub fn end_lap(&mut self, lap: Lap, sim_s: f64) {
        self.rec.exit(lap.span);
        self.rec.set_enabled(false);
        let wall = self
            .lap_start
            .take()
            .expect("end_lap follows start_lap")
            .elapsed();
        let t = &mut self.tally[usize::from(self.lap_traced)];
        t.wall += wall.as_secs_f64();
        t.secs += wall.saturating_sub(self.lap_excluded).as_secs_f64();
        self.sim_s += sim_s;
        self.lap_traced = false;
    }

    /// Tags spans with the next op's id.
    pub fn begin_op(&mut self) {
        self.rec.set_op(self.next_op);
    }

    /// Records a batch of `count` completed ops; `sample` is its host time
    /// per op in ms (`None` leaves the batch out of `op_ms`).
    pub fn end_op(&mut self, count: u64, sample: Option<f64>) {
        self.next_op += count;
        self.tally[usize::from(self.lap_traced)].ops += count;
        if let Some(ms) = sample {
            self.op_ms.push(ms);
        }
    }

    /// Per-op host times, ms.
    pub fn op_ms(&self) -> &[f64] {
        &self.op_ms
    }

    /// Simulated seconds advanced by the timed laps.
    pub fn sim_s(&self) -> f64 {
        self.sim_s
    }

    /// Counts the tick-equivalent edges (`Engine::actions_dispatched`, folded
    /// edges included) of a timed op that took `ms`.
    pub fn count_edges(&mut self, edges: u64, ms: f64) {
        self.edges += edges;
        self.edge_ms += ms;
    }

    /// Adds a sample to per-layer metric `name` (reported as the median).
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Sets per-layer metric `name` outright.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Every per-layer value recorded: set values, then sample medians.
    pub fn layer_values(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), stats::median_or_zero(v)))
            .collect();
        out.extend(self.values.iter().map(|(k, v)| (k.clone(), *v)));
        if self.edges > 0 {
            let ns = self.edge_ms * 1e6 / self.edges as f64;
            out.insert("sim_core.ns_per_tick_edge".into(), ns);
        }
        out
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

//! Property-based tests of the simulation kernel and fabric invariants,
//! including the differential property that the event-skipping kernel is
//! observationally identical to the tick oracle on arbitrary random
//! component graphs (random wake patterns, cross-domain clocks, IRQ
//! storms, mid-run reprogramming and gating).

use std::cell::RefCell;
use std::rc::Rc;

use pdr_testkit::{
    any_u64, bools, f64s, indices, property, select, tuple2, tuple3, tuple4, u32s, u64s, usizes,
    vec_of, Config, Gen,
};

use pdr_lab::fabric::{ColumnKind, Geometry};
use pdr_lab::sim::json::Json;
use pdr_lab::sim::stats::OnlineStats;
use pdr_lab::sim::{
    fifo_channel, Component, ComponentId, Consumer, EdgeCtx, Engine, EngineStrategy, Event,
    Frequency, NextWake, Producer, SimDuration, WakeSource, Waker,
};

fn cfg() -> Config {
    Config::with_cases(128).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ))
}

fn column_kinds() -> Gen<ColumnKind> {
    select(vec![
        ColumnKind::Clb,
        ColumnKind::Dsp,
        ColumnKind::Bram,
        ColumnKind::Clk,
        ColumnKind::Io,
    ])
}

property! {
    config = cfg();

    /// FAR ↔ linear index is a bijection for arbitrary geometries.
    fn far_mapping_is_bijective(
        rows in u32s(1..5),
        cols in vec_of(column_kinds(), 1..24),
    ) {
        let g = Geometry::new(rows, cols);
        for idx in 0..g.total_frames() {
            let far = g.far_at(idx);
            assert_eq!(g.frame_index(far), Some(idx));
        }
    }

    /// `advance` equals index arithmetic for arbitrary geometries.
    fn advance_matches_linear_arithmetic(
        rows in u32s(1..4),
        cols in vec_of(column_kinds(), 1..12),
        start in indices(),
        n in u32s(0..64),
    ) {
        let g = Geometry::new(rows, cols);
        let start_idx = start.index(g.total_frames() as usize) as u32;
        let far = g.far_at(start_idx);
        match g.advance(far, n) {
            Some(next) => {
                assert_eq!(g.frame_index(next), Some(start_idx + n));
            }
            None => assert!(start_idx + n >= g.total_frames()),
        }
    }

    /// FIFOs preserve order and never lose or duplicate elements under an
    /// arbitrary interleaving of pushes and pops.
    fn fifo_preserves_order_and_count(
        capacity in usizes(1..16),
        ops in vec_of(bools(), 1..256),
    ) {
        let (tx, rx) = fifo_channel::<u64>("prop", capacity);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for push in ops {
            if push {
                if tx.try_push(next_in).is_ok() {
                    next_in += 1;
                }
            } else if let Some(v) = rx.pop() {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        while let Some(v) = rx.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        let s = tx.stats();
        assert_eq!(s.pushed, next_in);
        assert_eq!(s.popped, next_in);
    }

    /// Exact clock arithmetic: cycles in a window never drift by more than
    /// one edge from the real-valued expectation, for arbitrary frequencies
    /// and windows.
    fn clock_edges_do_not_drift(
        mhz in u64s(1..1000),
        micros in u64s(1..100_000),
    ) {
        let f = Frequency::from_mhz(mhz);
        let d = SimDuration::from_micros(micros);
        let cycles = f.cycles_in(d);
        let exact = mhz as f64 * micros as f64; // f[MHz] × t[µs] = cycles
        assert!((cycles as f64 - exact).abs() <= 1.0,
            "{mhz} MHz over {micros} us: {cycles} vs {exact}");
    }

    /// Welford merge equals sequential accumulation on arbitrary data.
    fn online_stats_merge_is_sequential(
        xs in vec_of(f64s(-1e6..1e6), 1..200),
        split in indices(),
    ) {
        let k = split.index(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.push(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..k] { a.push(x); }
        for &x in &xs[k..] { b.push(x); }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6);
        let tol = (whole.variance() * 1e-9).max(1e-3);
        assert!((a.variance() - whole.variance()).abs() < tol);
    }

    /// DRAM bank/row decode: addresses within one row map to the same
    /// (bank, row); crossing a row boundary changes one of them; the map
    /// covers all banks.
    fn dram_decode_is_consistent(addr in u64s(0..(1 << 30)), offset in u64s(0..8192)) {
        use pdr_lab::mem::DramConfig;
        let cfg = DramConfig::ddr3_533();
        let (bank, row) = cfg.decode(addr);
        assert!(bank < cfg.banks);
        // Same row ↔ same decode.
        let row_base = addr - addr % cfg.row_bytes;
        let inside = row_base + offset % cfg.row_bytes;
        assert_eq!(cfg.decode(inside), (bank, row));
        // The next row lands on the next bank (row-granular interleaving).
        let (nb, nr) = cfg.decode(row_base + cfg.row_bytes);
        assert!(nb != bank || nr != row);
        assert_eq!(nb, (bank + 1) % cfg.banks);
    }

    /// The PRNG's bounded sampler is in range and seed-deterministic.
    fn rng_bounded_in_range(seed in any_u64(), bound in u64s(1..1_000_000)) {
        use pdr_lab::sim::Xoshiro256StarStar;
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            let x = a.next_bounded(bound);
            assert!(x < bound);
            assert_eq!(x, b.next_bounded(bound));
        }
    }
}

// ---------------------------------------------------------------------------
// Differential kernel property: tick ≡ event-skip on random component graphs
// ---------------------------------------------------------------------------

fn mix(x: u64) -> u64 {
    // SplitMix64 finalizer: cheap, bijective, avalanche-complete.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a component did at an instant: work on a clock edge, or an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    Edge,
    Event,
}

/// `(time_ps, component, what)` for every edge or event on which a
/// component did observable work, in dispatch order. Two kernels that
/// agree on it agree on the tie order of same-instant work across domains,
/// which end-of-run summaries cannot see.
type WorkLog = Rc<RefCell<Vec<WorkEntry>>>;
type WorkEntry = (u64, u64, Work);

fn log_work(log: &WorkLog, ctx: &EdgeCtx<'_>, component: u64, what: Work) {
    log.borrow_mut().push((ctx.now().as_ps(), component, what));
}

/// The engine's checkpoint without its component slots (whose wake
/// bookkeeping is kernel-private): time, sequence counter, action count,
/// every queued entry with its sequence number, and every clock domain.
fn kernel_state(e: &Engine) -> String {
    match e.snapshot() {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "components")
                .collect(),
        )
        .render(),
        other => panic!("engine snapshot is not an object: {other:?}"),
    }
}

/// A randomly parameterised clocked component: it does observable work on a
/// random cycle pattern, launches decaying event chains at other nodes
/// (IRQ storms, cross-domain), optionally goes permanently idle after a
/// quota, and declares its wake times either honestly or ultra-
/// conservatively (`EveryCycle`, modelling an unported component).
struct ChaosNode {
    name: String,
    id: u64,
    /// Work-period schedule, cycled through one period per work edge.
    periods: Vec<u64>,
    pi: usize,
    /// Absolute domain cycle of the next work edge.
    next_work: u64,
    /// Stop working after this many work edges (`None` = never).
    quota: Option<u64>,
    /// Declare wakes truthfully (`true`) or tick on every edge (`false`).
    honest: bool,
    /// Event chains still to launch (one per work edge while positive).
    storm_budget: u64,
    /// Chain target (the next node in the ring).
    target: Option<ComponentId>,
    /// Domain cycle up to which this node is synchronised.
    last_cycle: u64,
    /// Observable state: must be engine-independent.
    hash: u64,
    works: u64,
    events: u64,
    log: WorkLog,
}

impl ChaosNode {
    fn new(
        id: u64,
        periods: Vec<u64>,
        quota: Option<u64>,
        honest: bool,
        storm: u64,
        log: WorkLog,
    ) -> Self {
        assert!(!periods.is_empty());
        ChaosNode {
            name: format!("chaos{id}"),
            id,
            next_work: periods[0],
            periods,
            pi: 1,
            quota,
            honest,
            storm_budget: storm,
            target: None,
            last_cycle: 0,
            hash: mix(id),
            works: 0,
            events: 0,
            log,
        }
    }

    fn done(&self) -> bool {
        self.quota.is_some_and(|q| self.works >= q)
    }

    fn summary(&self) -> (u64, u64, u64) {
        (self.works, self.events, self.hash)
    }
}

impl Component for ChaosNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        if self.done() || cycle != self.next_work {
            return; // a no-op edge the skipping kernel may fold
        }
        self.works += 1;
        log_work(&self.log, ctx, self.id, Work::Edge);
        self.hash = mix(self.hash ^ cycle);
        let p = self.periods[self.pi % self.periods.len()].max(1);
        self.pi += 1;
        self.next_work = cycle + p;
        if self.storm_budget > 0 {
            self.storm_budget -= 1;
            if let Some(t) = self.target {
                let delay = SimDuration::from_nanos(1 + self.hash % 97);
                ctx.schedule(delay, t, Event::with_args(7, 2 + self.hash % 3, self.id));
            }
        }
    }

    fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
        let cycle = ctx.cycle();
        self.catch_up(cycle);
        self.events += 1;
        log_work(&self.log, ctx, self.id, Work::Event);
        self.hash = mix(self.hash ^ event.a.wrapping_mul(31) ^ event.b ^ cycle);
        // The storm perturbs the wake schedule: pull the next work edge
        // closer, as an interrupt handler re-arming a timer would.
        if !self.done() && event.a.is_multiple_of(2) && self.next_work > cycle + 1 {
            self.next_work = cycle + 1 + event.a % 3;
        }
        // Decaying chain: forward the event around the ring.
        if event.a > 0 {
            if let Some(t) = self.target {
                let delay = SimDuration::from_nanos(1 + self.hash % 53);
                ctx.schedule(delay, t, Event::with_args(7, event.a - 1, self.id));
            }
        }
    }

    fn next_wake(&self, now_cycle: u64) -> NextWake {
        if !self.honest {
            return NextWake::EveryCycle;
        }
        if self.done() {
            return NextWake::Idle;
        }
        if self.next_work > now_cycle {
            NextWake::In(self.next_work - now_cycle)
        } else {
            NextWake::EveryCycle
        }
    }

    fn catch_up(&mut self, cycle: u64) {
        // Skipped edges touch nothing observable; just track the sync point.
        if cycle > self.last_cycle {
            self.last_cycle = cycle;
        }
    }
}

/// Node parameters as drawn by the generators:
/// `(domain pick, periods, storm budget, (honest, quota draw))`.
type NodeSpec = (usize, Vec<u64>, u64, (bool, u64));

/// Everything a chaos run can observe: per-node summaries, the work log,
/// the kernel state after every run segment, and the dispatched-action
/// count.
type ChaosOutcome = (Vec<(u64, u64, u64)>, Vec<WorkEntry>, Vec<String>, u64);

fn run_chaos(
    strategy: EngineStrategy,
    freqs: &[u64],
    nodes: &[NodeSpec],
    segments: &[u64],
    reprogram: bool,
    gate: bool,
) -> ChaosOutcome {
    let mut e = Engine::with_strategy(strategy);
    let log = WorkLog::default();
    let domains: Vec<_> = freqs
        .iter()
        .enumerate()
        .map(|(i, &mhz)| e.add_clock_domain(&format!("d{i}"), Frequency::from_mhz(mhz)))
        .collect();
    let ids: Vec<ComponentId> = nodes
        .iter()
        .enumerate()
        .map(|(i, (dom, periods, storm, (honest, quota_draw)))| {
            let quota = (*quota_draw < 8).then_some(*quota_draw);
            let node = ChaosNode::new(
                i as u64,
                periods.clone(),
                quota,
                *honest,
                *storm,
                log.clone(),
            );
            e.add_component(node, Some(domains[dom % domains.len()]))
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let target = ids[(i + 1) % ids.len()];
        e.component_mut::<ChaosNode>(id).target = Some(target);
    }
    // Seed the storm with one external event.
    e.schedule(
        SimDuration::from_nanos(1),
        ids[0],
        Event::with_args(7, 3, 99),
    );
    let mut states = Vec::new();
    for (si, &us) in segments.iter().enumerate() {
        e.run_for(SimDuration::from_micros(us));
        states.push(kernel_state(&e));
        // Between-run perturbations: reprogramming and gating exercise the
        // generation/gating paths of the skipping kernel.
        if si == 0 {
            if reprogram {
                e.set_clock_frequency(domains[0], Frequency::from_mhz(freqs[0] * 2 + 1));
            }
            if gate {
                e.gate_clock(domains[0], true);
            }
        } else if gate {
            e.gate_clock(domains[0], false);
        }
    }
    let summaries = ids
        .iter()
        .map(|&id| e.component::<ChaosNode>(id).summary())
        .collect();
    states.push(kernel_state(&e));
    let work = log.borrow().clone();
    (summaries, work, states, e.actions_dispatched())
}

property! {
    config = Config::with_cases(48).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ));

    /// The event-skipping kernel is observationally identical to the tick
    /// oracle on arbitrary component graphs: same per-node work/event
    /// counts and state hashes, same final simulated time, same action
    /// count — under random wake patterns, cross-domain clocking, IRQ
    /// storms, mid-run reprogramming and clock gating.
    fn event_skip_equals_tick_on_random_graphs(
        freqs in vec_of(select(vec![1u64, 7, 100, 280, 333, 533, 999]), 1..4),
        nodes in vec_of(
            tuple4(
                usizes(0..8),
                vec_of(u64s(1..40), 1..5),
                u64s(0..6),
                tuple2(bools(), u64s(0..30)),
            ),
            2..7,
        ),
        segments in vec_of(u64s(1..50), 1..4),
        perturb in tuple2(bools(), bools()),
    ) {
        let (reprogram, gate) = perturb;
        let tick = run_chaos(EngineStrategy::Tick, &freqs, &nodes, &segments, reprogram, gate);
        let skip = run_chaos(EngineStrategy::EventSkip, &freqs, &nodes, &segments, reprogram, gate);
        assert_eq!(tick.0, skip.0, "per-node observable state diverged");
        assert_eq!(tick.1, skip.1, "work order diverged");
        assert_eq!(tick.2, skip.2, "time, queue or clocks diverged");
        assert_eq!(tick.3, skip.3, "dispatched-action accounting diverged");
    }

    /// Long sleepers woken across domains: a feeder pushes bursts into the
    /// FIFOs of sleepers that declare `Idle` between bursts, each sleeper on
    /// its own clock domain, and optionally a busy chaos node keeps real
    /// edges queued around them. On a shared edge grid every push lands on an instant
    /// where the sleepers also have an edge, so whether a sleeper sees the
    /// beat on that edge or the next depends only on the tie order of
    /// same-instant edges; co-prime grids share an instant every few edges.
    /// Both domain registration orders are covered. The work logs must
    /// match the tick oracle entry for entry.
    fn sleepers_woken_by_fifo_pushes_match_tick(
        grid in select(vec![(100u64, 100u64), (280, 280), (200, 300), (300, 200), (100, 133)]),
        shape in tuple3(usizes(1..4), bools(), bools()),
        feed in tuple3(u64s(2..400), u64s(1..4), u64s(1..9)),
        segments in vec_of(u64s(1..30), 1..4),
    ) {
        let (sleepers, feeder_first, busy) = shape;
        let run = |strategy| {
            run_sleepers(strategy, grid, sleepers, feeder_first, busy, feed, &segments)
        };
        let tick = run(EngineStrategy::Tick);
        let skip = run(EngineStrategy::EventSkip);
        assert_eq!(tick.1, skip.1, "work order diverged");
        assert_eq!(tick, skip, "consumption, time, queue or clocks diverged");
    }
}

/// Pushes `burst` beats, round-robin over the sleepers' FIFOs, on every
/// `gap`-th edge of its domain, and logs the pings sleepers send back.
struct Feeder {
    gap: u64,
    burst: u64,
    bursts_left: u64,
    outputs: Vec<Producer<u64>>,
    next_out: usize,
    log: WorkLog,
}

impl Component for Feeder {
    fn name(&self) -> &str {
        "feeder"
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        if self.bursts_left == 0 || !cycle.is_multiple_of(self.gap) {
            return;
        }
        self.bursts_left -= 1;
        log_work(&self.log, ctx, 0, Work::Edge);
        for _ in 0..self.burst {
            let out = &self.outputs[self.next_out % self.outputs.len()];
            self.next_out += 1;
            let _ = out.try_push(cycle);
        }
    }

    fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, _event: Event) {
        log_work(&self.log, ctx, 0, Work::Event);
    }

    fn next_wake(&self, now_cycle: u64) -> NextWake {
        if self.bursts_left == 0 {
            NextWake::Idle
        } else {
            NextWake::In(self.gap - now_cycle % self.gap)
        }
    }
}

/// Consumes one beat per edge and sleeps (`Idle`) while its FIFO is empty;
/// on draining a burst it pings the feeder with a cross-domain event.
struct Sleeper {
    id: u64,
    input: Consumer<u64>,
    feeder: Option<ComponentId>,
    consumed: u64,
    log: WorkLog,
}

impl Component for Sleeper {
    fn name(&self) -> &str {
        "sleeper"
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let Some(beat) = self.input.pop() else {
            return;
        };
        self.consumed += 1;
        log_work(&self.log, ctx, self.id, Work::Edge);
        if let (true, Some(feeder)) = (self.input.is_empty(), self.feeder) {
            let delay = SimDuration::from_ps(1 + (beat * 7 + self.id * 13) % 20_000);
            ctx.schedule(delay, feeder, Event::with_arg(1, self.id));
        }
    }

    fn sensitivity(&self, waker: &Waker) {
        self.input.subscribe(waker);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        if self.input.is_empty() {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }
}

fn run_sleepers(
    strategy: EngineStrategy,
    (feeder_mhz, sleeper_mhz): (u64, u64),
    sleepers: usize,
    feeder_first: bool,
    busy: bool,
    (gap, burst, bursts): (u64, u64, u64),
    segments: &[u64],
) -> (Vec<u64>, Vec<WorkEntry>, Vec<String>) {
    let mut e = Engine::with_strategy(strategy);
    let log = WorkLog::default();
    let add_sleeper_domains = |e: &mut Engine| -> Vec<_> {
        (0..sleepers)
            .map(|i| e.add_clock_domain(&format!("sleep{i}"), Frequency::from_mhz(sleeper_mhz)))
            .collect()
    };
    let (feed_clk, sleep_clks) = if feeder_first {
        let f = e.add_clock_domain("feed", Frequency::from_mhz(feeder_mhz));
        (f, add_sleeper_domains(&mut e))
    } else {
        let s = add_sleeper_domains(&mut e);
        (
            e.add_clock_domain("feed", Frequency::from_mhz(feeder_mhz)),
            s,
        )
    };
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..sleepers)
        .map(|i| fifo_channel::<u64>(&format!("beats{i}"), 64))
        .unzip();
    let feeder = Feeder {
        gap,
        burst,
        bursts_left: bursts,
        outputs: txs,
        next_out: 0,
        log: log.clone(),
    };
    // Components register in the same order as their domains.
    let add_sleepers = |e: &mut Engine| -> Vec<ComponentId> {
        rxs.into_iter()
            .zip(&sleep_clks)
            .enumerate()
            .map(|(i, (rx, &clk))| {
                let sleeper = Sleeper {
                    id: i as u64 + 1,
                    input: rx,
                    feeder: None,
                    consumed: 0,
                    log: log.clone(),
                };
                e.add_component(sleeper, Some(clk))
            })
            .collect()
    };
    let (fid, sleeper_ids) = if feeder_first {
        let fid = e.add_component(feeder, Some(feed_clk));
        (fid, add_sleepers(&mut e))
    } else {
        let ids = add_sleepers(&mut e);
        (e.add_component(feeder, Some(feed_clk)), ids)
    };
    for &id in &sleeper_ids {
        e.component_mut::<Sleeper>(id).feeder = Some(fid);
    }
    if busy {
        // Real edges on a third grid between the sleepers' edges.
        let clk = e.add_clock_domain("busy", Frequency::from_mhz(333));
        let node = ChaosNode::new(99, vec![1, 2, 3], None, true, 0, log.clone());
        e.add_component(node, Some(clk));
    }
    let states = segments
        .iter()
        .map(|&us| {
            e.run_for(SimDuration::from_micros(us));
            kernel_state(&e)
        })
        .collect();
    let mut observed: Vec<u64> = sleeper_ids
        .iter()
        .map(|&id| e.component::<Sleeper>(id).consumed)
        .collect();
    observed.extend(sleep_clks.iter().map(|&d| e.clock_info(d).total_edges));
    observed.push(e.clock_info(feed_clk).total_edges);
    let work = log.borrow().clone();
    (observed, work, states)
}

//! Property tests of the AXI substrate: data integrity through the width
//! converter and the multi-master interconnect under arbitrary traffic.

use pdr_testkit::{
    any_u64, bools, property, select, tuple2, tuple3, u16s, u64s, usizes, vec_of, Config,
};

use pdr_lab::axi::interconnect::{ReadInterconnect, SlaveEndpoints};
use pdr_lab::axi::mm::{ReadBeat, ReadReq};
use pdr_lab::axi::width::{Width64To32, Word32};
use pdr_lab::axi::StreamBeat;
use pdr_lab::mem::dram::DramStats;
use pdr_lab::mem::{Backing, DramConfig, DramController};
use pdr_lab::sim::json::Json;
use pdr_lab::sim::{
    fifo_channel, Component, ComponentId, Consumer, EdgeCtx, Engine, EngineStrategy, Frequency,
    NextWake, SimDuration,
};

fn cfg() -> Config {
    Config::with_cases(16).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ))
}

/// Memory stub: data word = address-derived tag so routing errors are
/// detectable by value.
struct TagMem {
    ep: SlaveEndpoints,
    current: Option<(ReadReq, u16)>,
}
impl Component for TagMem {
    fn name(&self) -> &str {
        "tag-mem"
    }
    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        if self.current.is_none() {
            self.current = self.ep.req.pop().map(|r| (r, 0));
        }
        if let Some((req, sent)) = self.current {
            if self.ep.beats.can_push() {
                let last = sent + 1 == req.beats;
                let addr = req.addr + sent as u64 * 8;
                self.ep
                    .beats
                    .try_push(ReadBeat {
                        id: req.id,
                        data: addr ^ ((req.id as u64) << 56),
                        last,
                    })
                    .expect("space checked");
                self.current = if last { None } else { Some((req, sent + 1)) };
            }
        }
    }
}

property! {
    config = cfg();

    /// The width converter emits exactly the low/high halves of every beat,
    /// in order, with `last` only on the final word — for arbitrary beat
    /// streams and drain schedules.
    fn width_converter_preserves_data(
        beats in vec_of(any_u64(), 1..64),
        drain_every in u64s(1..8),
    ) {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("oc", Frequency::from_mhz(200));
        let (btx, brx) = fifo_channel::<StreamBeat>("in", 256);
        let (wtx, wrx) = fifo_channel::<Word32>("out", 8); // small: backpressure
        e.add_component(Width64To32::new("wc", brx, wtx), Some(clk));
        for (i, &d) in beats.iter().enumerate() {
            btx.try_push(StreamBeat::full(d, i == beats.len() - 1)).unwrap();
        }
        let mut words = Vec::new();
        let mut guard = 0;
        while words.len() < beats.len() * 2 {
            e.run_for(SimDuration::from_nanos(5 * drain_every));
            while let Some(w) = wrx.pop() {
                words.push(w);
            }
            guard += 1;
            assert!(guard < 10_000, "converter hung");
        }
        let expect: Vec<u32> = beats
            .iter()
            .flat_map(|&d| [d as u32, (d >> 32) as u32])
            .collect();
        assert_eq!(words.iter().map(|w| w.data).collect::<Vec<_>>(), expect);
        let lasts: Vec<bool> = words.iter().map(|w| w.last).collect();
        assert!(lasts[..lasts.len() - 1].iter().all(|&l| !l));
        assert!(lasts[lasts.len() - 1]);
    }

    /// Every master of the interconnect receives exactly its own bursts,
    /// complete and in issue order, for arbitrary request interleavings.
    fn interconnect_routes_every_beat_to_its_owner(
        script in vec_of(tuple2(usizes(0..3), u16s(1..32)), 1..24),
    ) {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let masters: Vec<_> = (0..3).map(|_| ic.add_master(512)).collect();
        e.add_component(TagMem { ep: slave, current: None }, Some(clk));
        e.add_component(ic, Some(clk));

        // Issue the script: per master, bursts tagged by unique addresses.
        let mut expected: Vec<Vec<(u64, u16)>> = vec![Vec::new(); 3];
        let mut next_addr = 0u64;
        for &(m, beats) in &script {
            let (id, ep) = &masters[m];
            // Queue may be shallow; run the engine until there is room.
            let mut guard = 0;
            while ep.req.try_push(ReadReq::new(*id, next_addr, beats)).is_err() {
                e.run_for(SimDuration::from_micros(1));
                guard += 1;
                assert!(guard < 1000, "request queue never drained");
            }
            expected[m].push((next_addr, beats));
            next_addr += 0x10_000;
        }
        let total_beats: usize = script.iter().map(|&(_, b)| b as usize).sum();
        let mut got: Vec<Vec<ReadBeat>> = vec![Vec::new(); 3];
        let mut guard = 0;
        while got.iter().map(Vec::len).sum::<usize>() < total_beats {
            e.run_for(SimDuration::from_micros(1));
            for (m, (_, ep)) in masters.iter().enumerate() {
                while let Some(b) = ep.beats.pop() {
                    got[m].push(b);
                }
            }
            guard += 1;
            assert!(guard < 10_000, "interconnect hung");
        }
        // Validate per master: bursts arrive whole, in order, with the
        // owner's tag in every beat.
        for (m, bursts) in expected.iter().enumerate() {
            let mut cursor = 0usize;
            for &(addr, beats) in bursts {
                for k in 0..beats {
                    let beat = got[m][cursor];
                    assert_eq!(beat.id as usize, m);
                    let want = (addr + k as u64 * 8) ^ ((m as u64) << 56);
                    assert_eq!(beat.data, want, "master {m} beat {cursor}");
                    assert_eq!(beat.last, k + 1 == beats);
                    cursor += 1;
                }
            }
            assert_eq!(cursor, got[m].len(), "master {m} got extra beats");
        }
    }
}

/// Pops one beat off the DRAM controller's beat FIFO on every `stride`-th
/// edge of its own clock, logging `(time, data, last)`, and sleeps in
/// between: each pop ends a controller stall on a sparse edge grid.
struct StrideDrain {
    beats: Consumer<ReadBeat>,
    stride: u64,
    log: Vec<(u64, u64, bool)>,
}

impl Component for StrideDrain {
    fn name(&self) -> &str {
        "stride-drain"
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        if ctx.cycle().is_multiple_of(self.stride) {
            if let Some(b) = self.beats.pop() {
                self.log.push((ctx.now().as_ps(), b.data, b.last));
            }
        }
    }

    fn next_wake(&self, now_cycle: u64) -> NextWake {
        NextWake::In(self.stride - now_cycle % self.stride)
    }
}

/// The inputs of a DRAM stall run: `(ddr MHz, drain MHz, drain first)`,
/// `(beat FIFO depth, drain stride)`, burst lengths, and `(refresh
/// interval, refresh duration, row-hit latency)` in controller cycles.
type StallRig = ((u64, u64, bool), (usize, u64), Vec<u16>, (u32, u32, u32));

/// After every run segment: the controller's stats, the beats drained so
/// far, and the engine checkpoint without its kernel-private `due_cycle`
/// bookkeeping.
type StallSegment = (DramStats, usize, String);

/// Every segment's [`StallSegment`], the drained beats in order, and the
/// DDR clock's parked edges.
fn dram_stall_run(
    strategy: EngineStrategy,
    rig: &StallRig,
) -> (Vec<StallSegment>, Vec<(u64, u64, bool)>, u64) {
    let ((ddr_mhz, drain_mhz, drain_first), (depth, stride), bursts, (interval, refresh, hit)) =
        rig;
    let mut e = Engine::with_strategy(strategy);
    let (ddr, drain_clk) = if *drain_first {
        let d = e.add_clock_domain("drain", Frequency::from_mhz(*drain_mhz));
        (e.add_clock_domain("ddr", Frequency::from_mhz(*ddr_mhz)), d)
    } else {
        let d = e.add_clock_domain("ddr", Frequency::from_mhz(*ddr_mhz));
        (
            d,
            e.add_clock_domain("drain", Frequency::from_mhz(*drain_mhz)),
        )
    };
    let (req_tx, req_rx) = fifo_channel::<ReadReq>("req", bursts.len().max(1));
    let (beat_tx, beat_rx) = fifo_channel::<ReadBeat>("beats", *depth);
    let backing = Backing::new(1 << 20);
    let mut addr = 0u64;
    for (i, &beats) in bursts.iter().enumerate() {
        for k in 0..beats as u64 {
            backing.write(addr + k * 8, &(addr + k * 8 + i as u64).to_le_bytes());
        }
        req_tx
            .try_push(ReadReq::new(0, addr, beats))
            .expect("sized for every burst");
        // Alternate rows of one bank and of the next, for hits and misses.
        addr = (addr + beats as u64 * 8 + (i as u64 % 3) * 64 * 1024) % (1 << 19);
    }
    let config = DramConfig {
        row_hit_cycles: *hit,
        row_miss_cycles: hit * 3,
        refresh_interval_cycles: *interval,
        refresh_cycles: *refresh,
        ..DramConfig::ddr3_533()
    };
    let ports = SlaveEndpoints {
        req: req_rx,
        beats: beat_tx,
    };
    let add_dram = |e: &mut Engine| {
        e.add_component(
            DramController::new("dram", config, backing.clone(), ports),
            Some(ddr),
        )
    };
    let drain = StrideDrain {
        beats: beat_rx,
        stride: *stride,
        log: Vec::new(),
    };
    let (dram, drain): (ComponentId, ComponentId) = if *drain_first {
        let d = e.add_component(drain, Some(drain_clk));
        (add_dram(&mut e), d)
    } else {
        let m = add_dram(&mut e);
        (m, e.add_component(drain, Some(drain_clk)))
    };
    let mut segments = Vec::new();
    for us in [3, 7, 20] {
        e.run_for(SimDuration::from_micros(us));
        let stats = e.component::<DramController>(dram).stats();
        let drained = e.component::<StrideDrain>(drain).log.len();
        segments.push((stats, drained, checkpoint_without_wakes(&e)));
    }
    let log = e.component::<StrideDrain>(drain).log.clone();
    let parked = e.kernel_counters().domains[ddr.index()].1.parked;
    (segments, log, parked)
}

/// An engine checkpoint without each component's `due_cycle`, the one
/// field the two kernels may disagree on.
fn checkpoint_without_wakes(e: &Engine) -> String {
    let strip = |v: Json| match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "due_cycle")
                .collect(),
        ),
        other => other,
    };
    match e.snapshot() {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| match (k.as_str(), v) {
                    ("components", Json::Arr(cs)) => {
                        (k, Json::Arr(cs.into_iter().map(strip).collect()))
                    }
                    (_, v) => (k, v),
                })
                .collect(),
        )
        .render(),
        other => panic!("engine snapshot is not an object: {other:?}"),
    }
}

property! {
    config = cfg();

    /// A controller that sleeps through a full beat FIFO folds its output
    /// stalls and refresh state machine exactly: stats, drained beats in
    /// order, and the checkpoint match the tick oracle after every run
    /// segment, for any FIFO depth, drain stride, burst mix and refresh
    /// timing. On 400/100 MHz and 200/100 MHz grids every pop lands on an
    /// instant the controller also has an edge on.
    fn dram_stall_folds_match_tick(
        clocks in tuple3(select(vec![533u64, 400, 200]), select(vec![100u64, 200, 133]), bools()),
        drain in tuple2(usizes(1..12), u64s(1..40)),
        bursts in vec_of(u16s(1..64), 1..12),
        refresh in tuple3(u64s(8..400), u64s(1..40), u64s(1..20)),
    ) {
        let (interval, duration, hit) = refresh;
        let rig = (clocks, drain, bursts, (interval as u32, duration as u32, hit as u32));
        let tick = dram_stall_run(EngineStrategy::Tick, &rig);
        let skip = dram_stall_run(EngineStrategy::EventSkip, &rig);
        assert_eq!(tick.1, skip.1, "beat order diverged");
        assert_eq!(tick.0, skip.0, "stats or checkpoint diverged");
    }
}

#[test]
fn dram_stalls_across_a_refresh_and_onto_a_shared_edge_match_tick() {
    // A pop every 400 ns against a 40-cycle refresh interval: every stall
    // spans refresh starts. On the 400/100 MHz grid each pop shares its
    // instant with a controller edge, in both registration orders.
    for drain_first in [false, true] {
        let rig: StallRig = (
            (400, 100, drain_first),
            (4, 40),
            vec![63, 7, 40, 1],
            (40, 9, 3),
        );
        let tick = dram_stall_run(EngineStrategy::Tick, &rig);
        let skip = dram_stall_run(EngineStrategy::EventSkip, &rig);
        assert_eq!(tick.1, skip.1, "beat order diverged");
        assert_eq!(tick.0, skip.0, "stats or checkpoint diverged");
        let stats = skip.0.last().expect("three segments").0;
        assert!(
            stats.output_stalls > 1_000 && stats.refresh_cycles > 100,
            "{stats:?}"
        );
        // The controller slept through its stalls: its clock parked.
        assert!(skip.2 > stats.output_stalls / 2, "{} parked edges", skip.2);
        assert_eq!(tick.2, 0);
    }
}

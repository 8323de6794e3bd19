//! The DDR3-like DRAM controller.
//!
//! The controller serves AXI read bursts from a [`Backing`] store, one beat
//! per cycle of its own (controller) clock, with per-bank open-row state
//! (row hits pay CAS only; misses pay precharge + activate + CAS) and
//! periodic refresh stalls that close every row. Its raw rate (533 MHz × 8 B) far
//! exceeds the interconnect's 800 MB/s, so in the full system the controller
//! only shapes the stream (latency, refresh gaps) while the interconnect
//! sets the ceiling — matching where the paper locates the bottleneck
//! ("Memory Port → AXI Interconnect → AXI DMA", Sec. VI).

use pdr_axi::interconnect::SlaveEndpoints;
use pdr_axi::mm::ReadBeat;
use pdr_sim_core::json::{Json, JsonError, ToJson};
use pdr_sim_core::{impl_json_struct, Component, EdgeCtx, NextWake, WakeSource, Waker};

use crate::backing::Backing;

/// DRAM controller timing parameters, in controller-clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Cycles from accepting a burst to its first beat when the bank's row
    /// buffer already holds the right row (CAS latency).
    pub row_hit_cycles: u32,
    /// Cycles when the wrong row is open (precharge + activate + CAS).
    pub row_miss_cycles: u32,
    /// Number of banks (open-row state is tracked per bank).
    pub banks: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Cycles between refreshes (tREFI).
    pub refresh_interval_cycles: u32,
    /// Refresh duration (tRFC) during which no beats are served; refresh
    /// closes every row buffer.
    pub refresh_cycles: u32,
}

impl DramConfig {
    /// DDR3-533-like defaults: 8 banks × 8 kB rows, ~26 ns row hit /
    /// ~79 ns row miss, refresh every 7.8 µs for 160 ns (at a 533 MHz
    /// controller clock).
    pub fn ddr3_533() -> Self {
        DramConfig {
            row_hit_cycles: 14,
            row_miss_cycles: 42,
            banks: 8,
            row_bytes: 8 * 1024,
            refresh_interval_cycles: 4158,
            refresh_cycles: 85,
        }
    }

    /// Bank and row of a byte address (low-order bank interleaving at row
    /// granularity, the common controller mapping for streaming locality).
    pub fn decode(&self, addr: u64) -> (u32, u64) {
        let row_global = addr / self.row_bytes;
        (
            (row_global % self.banks as u64) as u32,
            row_global / self.banks as u64,
        )
    }
}

/// Counters describing controller activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Bursts accepted.
    pub bursts: u64,
    /// Beats served.
    pub beats: u64,
    /// Bursts that found their row open.
    pub row_hits: u64,
    /// Bursts that had to precharge/activate.
    pub row_misses: u64,
    /// Cycles spent refreshing.
    pub refresh_cycles: u64,
    /// Cycles the output FIFO back-pressured a ready beat.
    pub output_stalls: u64,
}

impl_json_struct!(DramStats {
    bursts,
    beats,
    row_hits,
    row_misses,
    refresh_cycles,
    output_stalls
});

#[derive(Debug)]
enum BurstState {
    Idle,
    /// Counting down first-access latency.
    Opening {
        req: pdr_axi::mm::ReadReq,
        remaining: u32,
    },
    /// Streaming beats.
    Serving {
        req: pdr_axi::mm::ReadReq,
        sent: u16,
    },
}

/// The DRAM controller component. Bind to the controller clock domain.
#[derive(Debug)]
pub struct DramController {
    name: String,
    config: DramConfig,
    backing: Backing,
    ports: SlaveEndpoints,
    state: BurstState,
    /// Open row per bank (`None` = precharged).
    open_rows: Vec<Option<u64>>,
    /// Cycles until the next refresh.
    refresh_in: u32,
    /// Remaining refresh busy cycles (0 = not refreshing).
    refreshing: u32,
    /// Domain cycle up to which refresh state is synchronised (event
    /// skipping).
    last_cycle: u64,
    stats: DramStats,
}

impl DramController {
    /// Creates a controller serving `ports` from `backing`.
    pub fn new(name: &str, config: DramConfig, backing: Backing, ports: SlaveEndpoints) -> Self {
        DramController {
            name: name.to_string(),
            refresh_in: config.refresh_interval_cycles,
            open_rows: vec![None; config.banks as usize],
            config,
            backing,
            ports,
            state: BurstState::Idle,
            refreshing: 0,
            last_cycle: 0,
            stats: DramStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The backing store handle.
    pub fn backing(&self) -> &Backing {
        &self.backing
    }
}

impl Component for DramController {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        // Refresh bookkeeping runs unconditionally.
        if self.refreshing > 0 {
            self.refreshing -= 1;
            self.stats.refresh_cycles += 1;
            return;
        }
        if self.refresh_in == 0 {
            self.refreshing = self.config.refresh_cycles;
            self.refresh_in = self.config.refresh_interval_cycles;
            // Refresh closes every row buffer.
            self.open_rows.iter_mut().for_each(|r| *r = None);
            return;
        }
        self.refresh_in -= 1;

        match &mut self.state {
            BurstState::Idle => {
                if let Some(req) = self.ports.req.pop() {
                    self.stats.bursts += 1;
                    let (bank, row) = self.config.decode(req.addr);
                    let hit = self.open_rows[bank as usize] == Some(row);
                    if hit {
                        self.stats.row_hits += 1;
                    } else {
                        self.stats.row_misses += 1;
                        self.open_rows[bank as usize] = Some(row);
                    }
                    let remaining = if hit {
                        self.config.row_hit_cycles
                    } else {
                        self.config.row_miss_cycles
                    };
                    self.state = BurstState::Opening { req, remaining };
                }
            }
            BurstState::Opening { req, remaining } => {
                if *remaining == 0 {
                    self.state = BurstState::Serving { req: *req, sent: 0 };
                    // Fall through next cycle; keeping one cycle here models
                    // the CAS-to-first-beat handoff.
                } else {
                    *remaining -= 1;
                }
            }
            BurstState::Serving { req, sent } => {
                if !self.ports.beats.can_push() {
                    self.stats.output_stalls += 1;
                    return;
                }
                let addr = req.addr + *sent as u64 * 8;
                let last = *sent + 1 == req.beats;
                self.ports
                    .beats
                    .try_push(ReadBeat {
                        id: req.id,
                        data: self.backing.read_u64(addr),
                        last,
                    })
                    .expect("checked can_push");
                self.stats.beats += 1;
                if last {
                    self.state = BurstState::Idle;
                } else {
                    *sent += 1;
                }
            }
        }
    }

    fn sensitivity(&self, waker: &Waker) {
        self.ports.req.subscribe(waker);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Any in-flight burst or queued request needs edge-by-edge service;
        // an idle controller only cycles its refresh counters, which
        // catch_up folds in closed form.
        if !matches!(self.state, BurstState::Idle) || !self.ports.req.is_empty() {
            NextWake::EveryCycle
        } else {
            NextWake::Idle
        }
    }

    fn catch_up(&mut self, cycle: u64) {
        // Replay `cycle - last_cycle` idle edges of the refresh state
        // machine in closed form. Only legal because every folded edge had
        // `state == Idle` and an empty request queue (next_wake contract),
        // so the burst arm of on_clock_edge was unreachable.
        let mut k = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle;
        while k > 0 {
            if self.refreshing > 0 {
                let d = (self.refreshing as u64).min(k);
                self.refreshing -= d as u32;
                self.stats.refresh_cycles += d;
                k -= d;
            } else if self.refresh_in == 0 {
                self.refreshing = self.config.refresh_cycles;
                self.refresh_in = self.config.refresh_interval_cycles;
                self.open_rows.iter_mut().for_each(|r| *r = None);
                k -= 1;
            } else {
                let d = (self.refresh_in as u64).min(k);
                self.refresh_in -= d as u32;
                k -= d;
            }
        }
    }

    fn snapshot_state(&self) -> Json {
        // The backing store is shared with software and serialised once at
        // system level, not per controller.
        let state = match &self.state {
            BurstState::Idle => Json::Obj(vec![("kind".to_string(), Json::Str("idle".into()))]),
            BurstState::Opening { req, remaining } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("opening".into())),
                ("req".to_string(), req.to_json()),
                ("remaining".to_string(), remaining.to_json()),
            ]),
            BurstState::Serving { req, sent } => Json::Obj(vec![
                ("kind".to_string(), Json::Str("serving".into())),
                ("req".to_string(), req.to_json()),
                ("sent".to_string(), sent.to_json()),
            ]),
        };
        Json::Obj(vec![
            ("state".to_string(), state),
            ("open_rows".to_string(), self.open_rows.to_json()),
            ("refresh_in".to_string(), self.refresh_in.to_json()),
            ("refreshing".to_string(), self.refreshing.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            ("stats".to_string(), self.stats.to_json()),
            ("req_in".to_string(), self.ports.req.fifo().snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        let sv = state.required("state")?;
        self.state = match sv.field::<String>("kind")?.as_str() {
            "idle" => BurstState::Idle,
            "opening" => BurstState::Opening {
                req: sv.field("req")?,
                remaining: sv.field("remaining")?,
            },
            "serving" => BurstState::Serving {
                req: sv.field("req")?,
                sent: sv.field("sent")?,
            },
            other => {
                return Err(JsonError {
                    msg: format!("unknown dram burst state '{other}'"),
                })
            }
        };
        let open_rows: Vec<Option<u64>> = state.field("open_rows")?;
        if open_rows.len() != self.open_rows.len() {
            return Err(JsonError {
                msg: format!(
                    "dram snapshot has {} banks, controller has {}",
                    open_rows.len(),
                    self.open_rows.len()
                ),
            });
        }
        self.open_rows = open_rows;
        self.refresh_in = state.field("refresh_in")?;
        self.refreshing = state.field("refreshing")?;
        self.last_cycle = state.field("last_cycle")?;
        self.stats = state.field("stats")?;
        self.ports
            .req
            .fifo()
            .restore_json(state.required("req_in")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_axi::interconnect::ReadInterconnect;
    use pdr_axi::mm::ReadReq;
    use pdr_sim_core::{Engine, Frequency, SimDuration, SimTime};

    struct Rig {
        e: Engine,
        m: pdr_axi::interconnect::MasterEndpoints,
        id: u8,
        backing: Backing,
        dram_id: pdr_sim_core::ComponentId,
    }

    fn harness(config: DramConfig) -> Rig {
        let mut e = Engine::new();
        let axi_clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let dram_clk = e.add_clock_domain("dram", Frequency::from_mhz(533));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 16);
        let (id, m) = ic.add_master(64);
        let backing = Backing::new(1 << 20);
        let dram_id = e.add_component(
            DramController::new("dram", config, backing.clone(), slave),
            Some(dram_clk),
        );
        e.add_component(ic, Some(axi_clk));
        Rig {
            e,
            m,
            id,
            backing,
            dram_id,
        }
    }

    #[test]
    fn serves_correct_data_in_order() {
        let Rig {
            mut e,
            m,
            id,
            backing,
            ..
        } = harness(DramConfig::ddr3_533());
        for i in 0..64u64 {
            backing.write(0x100 + i * 8, &(i * 3).to_le_bytes());
        }
        m.req.try_push(ReadReq::new(id, 0x100, 64)).unwrap();
        e.run_for(SimDuration::from_micros(2));
        let beats: Vec<ReadBeat> = std::iter::from_fn(|| m.beats.pop()).collect();
        assert_eq!(beats.len(), 64);
        for (i, b) in beats.iter().enumerate() {
            assert_eq!(b.data, i as u64 * 3);
            assert_eq!(b.last, i == 63);
        }
    }

    #[test]
    fn sustained_bandwidth_is_interconnect_bound_near_800mbs() {
        // Saturate with back-to-back 64-beat bursts for 100 us and measure
        // the delivered byte rate: it must sit between 770 and 800 MB/s
        // (800 MB/s ceiling minus refresh and re-arbitration losses).
        let Rig { mut e, m, id, .. } = harness(DramConfig::ddr3_533());
        let mut delivered: u64 = 0;
        let mut next_addr = 0u64;
        let deadline = SimTime::ZERO + SimDuration::from_micros(100);
        while e.now() < deadline {
            while m.req.can_push() {
                m.req.try_push(ReadReq::new(id, next_addr, 64)).unwrap();
                next_addr = (next_addr + 512) % (1 << 19);
            }
            e.run_for(SimDuration::from_nanos(500));
            while m.beats.pop().is_some() {
                delivered += 8;
            }
        }
        let mb_s = delivered as f64 / 100e-6 / 1e6;
        assert!(
            (730.0..=800.0).contains(&mb_s),
            "sustained rate {mb_s:.1} MB/s out of expected window"
        );
    }

    #[test]
    fn refresh_steals_cycles() {
        let Rig { mut e, m, id, .. } = harness(DramConfig {
            row_hit_cycles: 2,
            row_miss_cycles: 4,
            refresh_interval_cycles: 50,
            refresh_cycles: 25, // exaggerated refresh for visibility
            ..DramConfig::ddr3_533()
        });
        m.req.try_push(ReadReq::new(id, 0, 64)).unwrap();
        e.run_for(SimDuration::from_micros(2));
        // With 1/3 of cycles refreshing, the burst still completes.
        let beats: Vec<ReadBeat> = std::iter::from_fn(|| m.beats.pop()).collect();
        assert_eq!(beats.len(), 64);
    }

    #[test]
    fn sequential_streams_mostly_hit_the_row_buffer() {
        let Rig {
            mut e,
            m,
            id,
            dram_id,
            ..
        } = harness(DramConfig::ddr3_533());
        // Stream 64 kB sequentially in 512 B bursts: 128 bursts over 8 rows
        // (8 kB each) → 8 misses, 120 hits.
        let mut addr = 0u64;
        let mut received = 0u64;
        while received < 128 * 64 {
            while m.req.can_push() && addr < 64 * 1024 {
                m.req.try_push(ReadReq::new(id, addr, 64)).unwrap();
                addr += 512;
            }
            e.run_for(SimDuration::from_micros(1));
            while m.beats.pop().is_some() {
                received += 1;
            }
        }
        // Find the controller (registered first in the harness).
        let stats = e.component::<DramController>(dram_id).stats();
        assert_eq!(stats.row_hits + stats.row_misses, 128, "{stats:?}");
        // 8 compulsory misses (one per 8 kB row) plus one re-open per
        // refresh that interrupted the stream (refresh closes all rows).
        let refreshes = stats.refresh_cycles / 85;
        assert!(
            stats.row_misses >= 8 && stats.row_misses <= 8 + refreshes,
            "{stats:?}"
        );
        assert!(stats.row_hits >= 100, "{stats:?}");
    }

    #[test]
    fn random_access_pays_row_misses() {
        let Rig {
            mut e,
            m,
            id,
            dram_id,
            ..
        } = harness(DramConfig::ddr3_533());
        // Jump across rows of the same bank: every burst misses.
        let stride = 8 * 1024 * 8; // row_bytes × banks → same bank, new row
        for i in 0..4u64 {
            m.req.try_push(ReadReq::new(id, i * stride, 4)).unwrap();
        }
        e.run_for(SimDuration::from_micros(2));
        let stats = e.component::<DramController>(dram_id).stats();
        assert_eq!(stats.row_misses, 4, "{stats:?}");
        assert_eq!(stats.row_hits, 0);
    }

    #[test]
    fn out_of_range_reads_deliver_zeros_not_hangs() {
        let Rig {
            mut e,
            m,
            id,
            backing,
            ..
        } = harness(DramConfig::ddr3_533());
        m.req
            .try_push(ReadReq::new(id, backing.len() as u64 + 64, 4))
            .unwrap();
        e.run_for(SimDuration::from_micros(1));
        let beats: Vec<ReadBeat> = std::iter::from_fn(|| m.beats.pop()).collect();
        assert_eq!(beats.len(), 4);
        assert!(beats.iter().all(|b| b.data == 0));
        assert!(backing.oob_accesses() >= 4);
    }
}

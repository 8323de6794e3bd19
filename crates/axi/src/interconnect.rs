//! The AXI read interconnect: N masters, one memory port.
//!
//! This is the "AXI-MEM" interconnect of the paper's Fig. 2 — the component
//! whose data channel moves **one 64-bit beat per cycle of its own clock
//! domain**. Clocked at the Zynq's standard 100 MHz fabric clock, that is an
//! 800 MB/s ceiling; with DRAM refresh stalls the sustained rate lands near
//! 790 MB/s, which is exactly the throughput plateau the paper measures once
//! the ICAP clock exceeds ~200 MHz (Fig. 5).

use pdr_sim_core::json::{Json, JsonError, ToJson};
use pdr_sim_core::{
    fifo_channel, impl_json_struct, Component, Consumer, EdgeCtx, NextWake, Producer, WakeLog,
    WakeSource, Waker,
};

use crate::mm::{ReadBeat, ReadReq};

/// Per-master ports held by the interconnect.
#[derive(Debug)]
struct MasterPort {
    req_in: Consumer<ReadReq>,
    beat_out: Producer<ReadBeat>,
}

/// Counters describing interconnect activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterconnectStats {
    /// Requests forwarded to the memory port.
    pub requests: u64,
    /// Data beats routed back to masters.
    pub beats: u64,
    /// Cycles the data channel had a beat but the target master was full.
    pub data_stalls: u64,
    /// Cycles the data channel had nothing to route.
    pub data_idle: u64,
}

impl_json_struct!(InterconnectStats {
    requests,
    beats,
    data_stalls,
    data_idle
});

/// The interconnect component. Register it on the fabric interconnect clock
/// domain (100 MHz on the modelled ZedBoard design).
#[derive(Debug)]
pub struct ReadInterconnect {
    name: String,
    masters: Vec<MasterPort>,
    slave_req_out: Producer<ReadReq>,
    slave_beat_in: Consumer<ReadBeat>,
    /// Round-robin pointer over masters for the address channel.
    rr_next: usize,
    /// Per master: whether its request FIFO may hold a request. A clear
    /// entry is empty, so the round-robin scan skips it.
    req_pending: Vec<bool>,
    /// The masters whose request FIFO was pushed since the last edge.
    req_pushed: WakeLog,
    stats: InterconnectStats,
    /// Domain cycle up to which `data_idle` is synchronised (event skipping).
    last_cycle: u64,
}

/// Endpoints handed to a master when it is attached.
#[derive(Debug)]
pub struct MasterEndpoints {
    /// Where the master pushes burst requests.
    pub req: Producer<ReadReq>,
    /// Where the master pops its data beats.
    pub beats: Consumer<ReadBeat>,
}

/// Endpoints handed to the memory controller.
#[derive(Debug)]
pub struct SlaveEndpoints {
    /// Where the memory pops forwarded requests.
    pub req: Consumer<ReadReq>,
    /// Where the memory pushes data beats.
    pub beats: Producer<ReadBeat>,
}

impl ReadInterconnect {
    /// Creates an interconnect and its memory-side endpoints.
    ///
    /// `req_depth`/`beat_depth` size the slave-side FIFOs (a few requests
    /// and a handful of beats, like real interconnect skid buffers).
    pub fn new(name: &str, req_depth: usize, beat_depth: usize) -> (Self, SlaveEndpoints) {
        let (req_tx, req_rx) = fifo_channel(&format!("{name}.slave-req"), req_depth);
        let (beat_tx, beat_rx) = fifo_channel(&format!("{name}.slave-beats"), beat_depth);
        (
            ReadInterconnect {
                name: name.to_string(),
                masters: Vec::new(),
                slave_req_out: req_tx,
                slave_beat_in: beat_rx,
                rr_next: 0,
                req_pending: Vec::new(),
                req_pushed: WakeLog::default(),
                stats: InterconnectStats::default(),
                last_cycle: 0,
            },
            SlaveEndpoints {
                req: req_rx,
                beats: beat_tx,
            },
        )
    }

    /// Attaches a master, returning its endpoints. The master **must** tag
    /// its requests with the returned port index as `id`. Attach every
    /// master before adding the interconnect to an engine: its sensitivity
    /// list covers the masters it has then.
    ///
    /// `beat_depth` sizes the master's response FIFO (the skid buffer in
    /// front of the master's clock-domain crossing).
    pub fn add_master(&mut self, beat_depth: usize) -> (u8, MasterEndpoints) {
        let idx = self.masters.len();
        assert!(idx < 256, "too many masters");
        let (req_tx, req_rx) = fifo_channel(&format!("{}.m{idx}-req", self.name), 4);
        let (beat_tx, beat_rx) = fifo_channel(&format!("{}.m{idx}-beats", self.name), beat_depth);
        req_rx.subscribe(&self.req_pushed.add());
        self.req_pending.push(false);
        self.masters.push(MasterPort {
            req_in: req_rx,
            beat_out: beat_tx,
        });
        (
            idx as u8,
            MasterEndpoints {
                req: req_tx,
                beats: beat_rx,
            },
        )
    }

    /// Activity counters.
    pub fn stats(&self) -> InterconnectStats {
        self.stats
    }
}

impl Component for ReadInterconnect {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        // Address channel: forward one request per cycle, round-robin.
        while let Some(i) = self.req_pushed.take() {
            self.req_pending[i] = true;
        }
        if self.slave_req_out.can_push() && !self.masters.is_empty() {
            let n = self.masters.len();
            for off in 0..n {
                let i = (self.rr_next + off) % n;
                if !self.req_pending[i] {
                    continue;
                }
                let Some(req) = self.masters[i].req_in.pop() else {
                    self.req_pending[i] = false;
                    continue;
                };
                debug_assert_eq!(
                    req.id as usize, i,
                    "master {i} must tag requests with its port index"
                );
                self.slave_req_out
                    .try_push(req)
                    .expect("checked can_push above");
                self.stats.requests += 1;
                self.rr_next = (i + 1) % n;
                break;
            }
        }

        // Data channel: route one beat per cycle back to its master.
        match self.slave_beat_in.peek() {
            Some(beat) => {
                let port = &self.masters[beat.id as usize];
                if port.beat_out.can_push() {
                    let beat = self.slave_beat_in.pop().expect("peeked beat vanished");
                    port.beat_out.try_push(beat).expect("checked can_push");
                    self.stats.beats += 1;
                } else {
                    self.stats.data_stalls += 1;
                }
            }
            None => self.stats.data_idle += 1,
        }
    }

    fn sensitivity(&self, waker: &Waker) {
        // Requests from every master attached so far (attach them all
        // before adding the interconnect to an engine), request slots the
        // memory frees, and beats the memory returns.
        for m in &self.masters {
            m.req_in.subscribe(waker);
        }
        self.slave_req_out.subscribe(waker);
        self.slave_beat_in.subscribe(waker);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Beats in flight settle it without scanning the masters' queues;
        // a master neither pending nor pushed since the last edge is empty.
        let pushed = !self.req_pushed.is_empty();
        let addr_work = || {
            self.slave_req_out.can_push()
                && (self.masters.iter().zip(&self.req_pending))
                    .any(|(m, &pending)| (pending || pushed) && !m.req_in.is_empty())
        };
        if !self.slave_beat_in.is_empty() || addr_work() {
            NextWake::EveryCycle
        } else {
            // Every skipped edge would only have counted data-channel
            // idleness, which catch_up folds in closed form.
            NextWake::Idle
        }
    }

    fn catch_up(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            self.stats.data_idle += cycle - self.last_cycle;
            self.last_cycle = cycle;
        }
    }

    fn snapshot_state(&self) -> Json {
        // The interconnect consumes the slave beat FIFO and every master's
        // request FIFO, so it serialises all of them.
        let masters: Vec<Json> = self
            .masters
            .iter()
            .map(|m| m.req_in.fifo().snapshot_json())
            .collect();
        Json::Obj(vec![
            ("rr_next".to_string(), self.rr_next.to_json()),
            ("stats".to_string(), self.stats.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            (
                "slave_beats".to_string(),
                self.slave_beat_in.fifo().snapshot_json(),
            ),
            ("master_reqs".to_string(), Json::Arr(masters)),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.rr_next = state.field("rr_next")?;
        self.stats = state.field("stats")?;
        self.last_cycle = state.field("last_cycle")?;
        self.slave_beat_in
            .fifo()
            .restore_json(state.required("slave_beats")?)?;
        let reqs = state
            .required("master_reqs")?
            .as_array()
            .ok_or_else(|| JsonError {
                msg: "master_reqs: expected array".to_string(),
            })?;
        if reqs.len() != self.masters.len() {
            return Err(JsonError {
                msg: format!(
                    "interconnect snapshot has {} masters, engine has {}",
                    reqs.len(),
                    self.masters.len()
                ),
            });
        }
        for (m, v) in self.masters.iter().zip(reqs) {
            m.req_in.fifo().restore_json(v)?;
        }
        // A restore fills the queues without pushes: rescan them all.
        self.req_pending.fill(true);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_sim_core::{Engine, Frequency, SimDuration};

    /// A memory stub that answers every request with `beats` incrementing
    /// data words, one beat per cycle.
    struct MemStub {
        ep: SlaveEndpoints,
        current: Option<(ReadReq, u16)>,
        counter: u64,
    }
    impl Component for MemStub {
        fn name(&self) -> &str {
            "mem-stub"
        }
        fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
            if self.current.is_none() {
                self.current = self.ep.req.pop().map(|r| (r, 0));
            }
            if let Some((req, sent)) = self.current {
                if self.ep.beats.can_push() {
                    let last = sent + 1 == req.beats;
                    self.ep
                        .beats
                        .try_push(ReadBeat {
                            id: req.id,
                            data: self.counter,
                            last,
                        })
                        .expect("space checked");
                    self.counter += 1;
                    self.current = if last { None } else { Some((req, sent + 1)) };
                }
            }
        }
    }

    #[test]
    fn single_master_burst_roundtrip() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id, m) = ic.add_master(16);
        assert_eq!(id, 0);
        // Order matters for same-cycle flow: memory first, then interconnect.
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        let ic_id = e.add_component(ic, Some(clk));
        m.req.try_push(ReadReq::new(0, 0x1000, 16)).unwrap();
        e.run_for(SimDuration::from_micros(1));
        let mut got = Vec::new();
        while let Some(b) = m.beats.pop() {
            got.push(b);
        }
        assert_eq!(got.len(), 16);
        assert!(got[15].last);
        assert!(!got[14].last);
        assert_eq!(got[0].data, 0);
        let stats = e.component::<ReadInterconnect>(ic_id).stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.beats, 16);
    }

    #[test]
    fn two_masters_get_their_own_data() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id0, m0) = ic.add_master(32);
        let (id1, m1) = ic.add_master(32);
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        e.add_component(ic, Some(clk));
        m0.req.try_push(ReadReq::new(id0, 0, 8)).unwrap();
        m1.req.try_push(ReadReq::new(id1, 0x800, 8)).unwrap();
        e.run_for(SimDuration::from_micros(1));
        let c0: Vec<ReadBeat> = std::iter::from_fn(|| m0.beats.pop()).collect();
        let c1: Vec<ReadBeat> = std::iter::from_fn(|| m1.beats.pop()).collect();
        assert_eq!(c0.len(), 8);
        assert_eq!(c1.len(), 8);
        assert!(c0.iter().all(|b| b.id == id0));
        assert!(c1.iter().all(|b| b.id == id1));
    }

    #[test]
    fn data_channel_is_one_beat_per_cycle() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id, m) = ic.add_master(1024);
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        e.add_component(ic, Some(clk));
        m.req.try_push(ReadReq::new(id, 0, 64)).unwrap();
        // 64 beats need at least 64 data-channel cycles (+pipeline fill).
        e.run_for(SimDuration::from_nanos(300)); // 30 cycles at 100 MHz
        let got: Vec<ReadBeat> = std::iter::from_fn(|| m.beats.pop()).collect();
        assert!(got.len() <= 30, "routed {} beats in 30 cycles", got.len());
        assert!(got.len() >= 25, "pipeline should be flowing: {}", got.len());
    }

    #[test]
    fn round_robin_shares_bandwidth_fairly_under_saturation() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let masters: Vec<_> = (0..4).map(|_| ic.add_master(256)).collect();
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        e.add_component(ic, Some(clk));
        // Keep all four masters saturated with requests for 50 us.
        let mut delivered = vec![0u64; 4];
        for _ in 0..50 {
            for (id, (mid, m)) in masters.iter().enumerate() {
                debug_assert_eq!(*mid as usize, id);
                while m.req.can_push() {
                    m.req.try_push(ReadReq::new(*mid, 0, 16)).unwrap();
                }
            }
            e.run_for(SimDuration::from_micros(1));
            for (id, (_, m)) in masters.iter().enumerate() {
                while m.beats.pop().is_some() {
                    delivered[id] += 1;
                }
            }
        }
        let total: u64 = delivered.iter().sum();
        assert!(
            total > 4000,
            "link should be near saturation: {delivered:?}"
        );
        let fair = total as f64 / 4.0;
        for (id, &d) in delivered.iter().enumerate() {
            assert!(
                (d as f64 - fair).abs() / fair < 0.05,
                "master {id} got {d} of fair {fair}: {delivered:?}"
            );
        }
    }

    #[test]
    fn back_pressure_counts_stalls_without_losing_beats() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("axi", Frequency::from_mhz(100));
        let (mut ic, slave) = ReadInterconnect::new("ic", 4, 8);
        let (id, m) = ic.add_master(2); // tiny master FIFO: stalls guaranteed
        e.add_component(
            MemStub {
                ep: slave,
                current: None,
                counter: 0,
            },
            Some(clk),
        );
        let ic_id = e.add_component(ic, Some(clk));
        m.req.try_push(ReadReq::new(id, 0, 32)).unwrap();
        e.run_for(SimDuration::from_micros(2));
        // Drain slowly afterwards: every beat must still arrive, in order.
        let mut expect = 0u64;
        loop {
            while let Some(b) = m.beats.pop() {
                assert_eq!(b.data, expect);
                expect += 1;
            }
            if expect == 32 {
                break;
            }
            e.run_for(SimDuration::from_micros(1));
        }
        assert!(e.component::<ReadInterconnect>(ic_id).stats().data_stalls > 0);
    }
}

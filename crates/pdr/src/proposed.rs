//! The proposed Sec. VI partial-reconfiguration environment.
//!
//! The paper's measured system is bottlenecked by the link *Memory Port →
//! AXI Interconnect → AXI DMA* (~790 MB/s). Sec. VI sketches a redesign
//! that removes that link from the critical path (Fig. 7):
//!
//! * partial bitstreams are **pre-loaded into an external QDR-II+ SRAM**
//!   (Cypress CY7C2263KV18: independent DDR read/write ports at 550 MHz,
//!   36-bit words, 1237.5 MB/s per port);
//! * a **PR Controller** arbitrates between the SRAM and the ICAP;
//! * a **Bitstream Decompressor** expands compressed images on the fly;
//! * the **PS Scheduler** refills the SRAM with the *next* bitstream through
//!   the independent write port while the current accelerator computes, so
//!   the pre-load never appears on the reconfiguration's critical path.
//!
//! The ICAP here is an HKT-2011-style enhanced hard macro clocked at
//! 550 MHz (the design the paper says it builds on), so the SRAM read port
//! is the bottleneck at 1237.5 MB/s raw — and compressed images beat even
//! that, because template frames (zero/repeat) cost no SRAM bandwidth.

use std::cell::RefCell;
use std::rc::Rc;

use pdr_axi::width::Word32;
use pdr_bitstream::Bitstream;
use pdr_bitstream_codec::{compress_bitstream, CodecReport, StreamDecoder};
use pdr_fabric::{AspImage, AspKind, ConfigMemory, Floorplan};
use pdr_icap::{shared_config_memory, IcapController, SharedConfigMemory};
use pdr_mem::{QdrSram, SramConfig, SramReadCmd};
use pdr_sim_core::{
    Component, ComponentId, Consumer, EdgeCtx, Engine, EngineStrategy, Frequency, IrqBus, IrqLine,
    NextWake, Producer, SimDuration, SimTime, WakeSource, Waker,
};

use crate::system::{bitstream_payload, frames_crc, IDCODE};
use crate::trace::{TraceEvent, TraceLevel, TraceReport, TraceSink};

/// The trace sink shared between the [`ProposedSystem`] driver and its
/// in-engine [`Decompressor`] component — same `Rc<RefCell<..>>` idiom as
/// [`SharedConfigMemory`], so both sides stamp one tape with one sequence.
type SharedTraceSink = Rc<RefCell<TraceSink>>;

/// Configuration of the proposed system.
#[derive(Debug, Clone)]
pub struct ProposedConfig {
    /// Device floorplan (shared with the measured system).
    pub floorplan: Floorplan,
    /// Staging SRAM.
    pub sram: SramConfig,
    /// Clock of the enhanced ICAP macro and the decompressor.
    pub icap_clock: Frequency,
    /// Store images compressed and decompress on the fly.
    pub compress: bool,
    /// Abort threshold per reconfiguration.
    pub timeout: SimDuration,
    /// Simulation kernel strategy (see `docs/KERNEL.md`).
    pub strategy: EngineStrategy,
}

impl Default for ProposedConfig {
    fn default() -> Self {
        ProposedConfig {
            floorplan: Floorplan::zedboard_quad(),
            sram: SramConfig::cy7c2263kv18(),
            icap_clock: Frequency::from_mhz(550),
            compress: true,
            timeout: SimDuration::from_millis(20),
            strategy: EngineStrategy::EventSkip,
        }
    }
}

/// One pre-staged bitstream job: where it sits in the SRAM and how to feed
/// it to the ICAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StagedJob {
    /// Raw (uncompressed) bitstream size in bytes.
    raw_bytes: u64,
    /// Total SRAM words to stream (the `PDRC` container, word-padded,
    /// when compression is on; the raw image otherwise).
    total_words: u32,
    /// Words the decompressor must hand the ICAP (the full packet stream).
    words_out: u64,
    /// Whether the staged image is a `PDRC` container.
    compressed: bool,
    /// Verification region.
    start_idx: u32,
    frame_count: u32,
    golden: u32,
}

/// Outcome of one proposed-system reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedReport {
    /// Raw bitstream size in bytes.
    pub raw_bytes: u64,
    /// Bytes actually read from the SRAM (compressed size when enabled).
    pub sram_bytes: u64,
    /// Reconfiguration latency (PR-controller start to ICAP done).
    pub latency: SimDuration,
    /// Effective throughput in raw-configuration MB/s.
    pub throughput_mb_s: f64,
    /// Whether the configured region verified against the intended image.
    pub crc_ok: bool,
    /// Time the pre-load occupied on the SRAM write port (hidden behind
    /// the previous accelerator's runtime by the PS Scheduler).
    pub preload_time: SimDuration,
    /// Compression ratio (sram/raw payload), 1.0 when disabled.
    pub compression_ratio: f64,
    /// Codec telemetry for the staged image (`None` when uncompressed).
    pub codec: Option<CodecReport>,
}

pdr_sim_core::impl_json_struct!(ProposedReport {
    raw_bytes,
    sram_bytes,
    latency,
    throughput_mb_s,
    crc_ok,
    preload_time,
    compression_ratio,
    codec,
});

/// Feeds the ICAP from the SRAM stream, expanding `PDRC` containers on
/// the fly — the PR Controller's datapath half plus the Bitstream
/// Decompressor of Fig. 7.
///
/// Cycle model: per ICAP clock edge the block pulls at most one SRAM word
/// into the codec's bounded input FIFO (backpressure: it only pulls when
/// the FIFO has a word of space) and hands at most one decoded word to the
/// ICAP. RLE/back-reference spans therefore stream at the full 550 MHz
/// ICAP rate while costing no SRAM read bandwidth — that is the whole
/// throughput win.
#[derive(Debug)]
struct Decompressor {
    input: Consumer<Word32>,
    output: Producer<Word32>,
    /// SRAM words left to pull.
    words_in: u32,
    /// Words left to hand the ICAP.
    words_out: u64,
    decoder: StreamDecoder,
    compressed: bool,
    idle: bool,
    /// Shared event bus; per-block progress is attributed to the cycle the
    /// block's payload CRC validated.
    trace: SharedTraceSink,
    /// Blocks already put on the tape for the current job.
    blocks_seen: u32,
}

impl Decompressor {
    fn new(input: Consumer<Word32>, output: Producer<Word32>, trace: SharedTraceSink) -> Self {
        Decompressor {
            input,
            output,
            words_in: 0,
            words_out: 0,
            decoder: StreamDecoder::new(),
            compressed: false,
            idle: true,
            trace,
            blocks_seen: 0,
        }
    }

    fn load(&mut self, job: &StagedJob) {
        self.words_in = job.total_words;
        self.words_out = job.words_out;
        self.decoder = StreamDecoder::new();
        self.compressed = job.compressed;
        self.idle = false;
        self.blocks_seen = 0;
    }
}

impl Component for Decompressor {
    fn name(&self) -> &str {
        "bitstream-decompressor"
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        if self.idle || !self.output.can_push() {
            return;
        }
        if !self.compressed {
            // Bypass: one word in, one word out.
            if self.words_out > 0 && self.words_in > 0 {
                if let Some(w) = self.input.pop() {
                    self.words_in -= 1;
                    self.words_out -= 1;
                    self.output
                        .try_push(Word32 {
                            data: w.data,
                            last: self.words_out == 0,
                        })
                        .expect("checked can_push");
                    if self.words_out == 0 {
                        self.idle = true;
                    }
                }
            }
            return;
        }
        // Pull one container word into the bounded FIFO when it fits.
        if self.words_in > 0 && self.decoder.free_capacity() >= 4 {
            if let Some(w) = self.input.pop() {
                self.words_in -= 1;
                self.decoder.push(&w.data.to_le_bytes());
            }
        }
        match self.decoder.pop_word() {
            Ok(Some(word)) => {
                self.words_out -= 1;
                self.output
                    .try_push(Word32 {
                        data: word,
                        last: self.words_out == 0,
                    })
                    .expect("checked can_push");
                if self.words_out == 0 {
                    self.idle = true;
                }
            }
            Ok(None) => {}
            Err(_) => self.idle = true, // malformed staging: wedge until reset
        }
        // Per-block progress. The u32 compare is free on every edge; the
        // sink is only borrowed on the (rare) edge where a block validates.
        let validated = self.decoder.blocks_done();
        if validated > self.blocks_seen {
            let now = ctx.now();
            let words_out = self.decoder.words_out();
            let mut sink = self.trace.borrow_mut();
            for block in self.blocks_seen + 1..=validated {
                sink.emit(
                    now,
                    TraceEvent::CodecBlock {
                        block: block as u64,
                        words_out,
                    },
                );
            }
            self.blocks_seen = validated;
        }
    }

    fn sensitivity(&self, waker: &Waker) {
        // The ICAP freeing a word slot; a load() between runs goes through
        // Engine::component_mut, which re-polls by itself.
        self.output.subscribe(waker);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // Idle (no job, completed, or wedged) and back-pressured edges are
        // pure no-ops until a load() or a freed word slot.
        if self.idle || !self.output.can_push() {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }
}

/// The assembled Sec. VI system.
pub struct ProposedSystem {
    engine: Engine,
    config: ProposedConfig,
    sram_id: ComponentId,
    decomp_id: ComponentId,
    icap_id: ComponentId,
    cmd: Producer<SramReadCmd>,
    mem: SharedConfigMemory,
    done_irq: IrqLine,
    /// Monitor handles for draining stream tails between jobs.
    sram_data: pdr_sim_core::Fifo<Word32>,
    to_icap: pdr_sim_core::Fifo<Word32>,
    /// Next free staging offset in the SRAM.
    stage_cursor: u64,
    staged: Option<StagedJob>,
    last_preload: SimDuration,
    last_codec: Option<CodecReport>,
    trace: SharedTraceSink,
}

impl ProposedSystem {
    /// Builds and wires Fig. 7.
    pub fn new(config: ProposedConfig) -> Self {
        let mut engine = Engine::with_strategy(config.strategy);
        let sram_clk = engine.add_clock_domain("sram-rd", config.sram.read_word_rate);
        let icap_clk = engine.add_clock_domain("icap-550", config.icap_clock);

        let (sram, ports) = QdrSram::new("qdr-sram", config.sram);
        let sram_id = engine.add_component(sram, Some(sram_clk));

        let (to_icap_tx, to_icap_rx) = pdr_sim_core::fifo_channel::<Word32>("pr-icap", 64);
        let sram_data = ports.data.fifo().clone();
        let to_icap = to_icap_tx.fifo().clone();
        let trace: SharedTraceSink = Rc::new(RefCell::new(TraceSink::new()));
        let decomp_id = engine.add_component(
            Decompressor::new(ports.data, to_icap_tx, trace.clone()),
            Some(icap_clk),
        );

        let mem = shared_config_memory(ConfigMemory::new(config.floorplan.geometry().clone()));
        let irq_bus = IrqBus::new();
        let done_irq = irq_bus.allocate("icap-done");
        let icap_id = engine.add_component(
            IcapController::new("icap-macro", to_icap_rx, mem.clone(), done_irq.clone(), 7),
            Some(icap_clk),
        );

        ProposedSystem {
            engine,
            config,
            sram_id,
            decomp_id,
            icap_id,
            cmd: ports.cmd,
            mem,
            done_irq,
            sram_data,
            to_icap,
            stage_cursor: 0,
            staged: None,
            last_preload: SimDuration::ZERO,
            last_codec: None,
            trace,
        }
    }

    /// Sets the structured-trace level (default [`TraceLevel::Off`]).
    pub fn set_trace_level(&mut self, level: TraceLevel) {
        self.trace.borrow_mut().set_level(level);
    }

    /// Aggregate trace metrics snapshot.
    pub fn trace_report(&self) -> TraceReport {
        self.trace.borrow_mut().report()
    }

    /// The retained event tape as JSONL (empty below [`TraceLevel::Full`]).
    pub fn export_trace_jsonl(&self) -> String {
        self.trace.borrow().export_jsonl()
    }

    /// Stamps `event` with the engine clock onto the shared tape.
    fn trace_emit(&self, event: TraceEvent) {
        let now = self.engine.now();
        self.trace.borrow_mut().emit(now, event);
    }

    /// The configuration.
    pub fn config(&self) -> &ProposedConfig {
        &self.config
    }

    /// Generates a partition-filling ASP bitstream (same generator as the
    /// measured system, so comparisons are apples-to-apples).
    pub fn make_asp_bitstream(&self, rp: usize, kind: AspKind, seed: u32) -> Bitstream {
        let p = self.config.floorplan.partition(rp);
        let frames = p.frame_count(self.config.floorplan.geometry());
        let image = AspImage::generate(kind, seed, frames);
        let mut b = pdr_bitstream::Builder::new(IDCODE);
        b.add_frames(p.start_far(), image.into_frames());
        b.build()
    }

    /// Pre-loads `bitstream` into the SRAM through the write port — the PS
    /// Scheduler's background job. Returns the time the write port was
    /// occupied; the caller overlaps it with accelerator runtime.
    pub fn preload(&mut self, bitstream: &Bitstream) -> SimDuration {
        let (start_far, frames) = bitstream_payload(bitstream);
        let geometry = self.config.floorplan.geometry();
        let start_idx = geometry
            .frame_index(start_far)
            .expect("bitstream targets an address outside the device");
        let golden = frames_crc(&frames);

        // Stage either the raw packet stream or the whole image as a
        // `PDRC` container (the codec passes the sync/header preamble
        // through internally, so the ICAP sees an identical word stream).
        let compressed = self.config.compress;
        let (staged_bytes, codec) = if compressed {
            let c = compress_bitstream(bitstream);
            let mut bytes = c.bytes;
            // The SRAM stores whole 32-bit words.
            bytes.resize(bytes.len().next_multiple_of(4), 0);
            (bytes, Some(c.report))
        } else {
            (bitstream.to_le_bytes(), None)
        };

        let addr = self.stage_cursor;
        assert!(
            addr as usize + staged_bytes.len() <= self.config.sram.capacity,
            "staged image exceeds SRAM capacity"
        );
        let dur = self
            .engine
            .component_mut::<QdrSram>(self.sram_id)
            .preload(addr, &staged_bytes);
        self.last_preload = dur;
        self.last_codec = codec;
        self.staged = Some(StagedJob {
            raw_bytes: bitstream.len() as u64,
            total_words: (staged_bytes.len() / 4) as u32,
            words_out: bitstream.word_count() as u64,
            compressed,
            start_idx,
            frame_count: frames.len() as u32,
            golden,
        });
        dur
    }

    /// Triggers the PR Controller: stream the staged image into the ICAP
    /// and wait for completion.
    ///
    /// # Panics
    ///
    /// Panics if nothing is staged.
    pub fn reconfigure_staged(&mut self) -> ProposedReport {
        let job = self
            .staged
            .expect("no bitstream staged; call preload first");
        self.done_irq.clear();
        // Quiesce the datapath: the previous job's trailing words (the NOPs
        // after DESYNC) may still be in flight when its done-interrupt fired.
        for _ in 0..64 {
            let idle = self.engine.component::<QdrSram>(self.sram_id).is_idle();
            self.sram_data.clear();
            self.to_icap.clear();
            if idle {
                break;
            }
            self.engine.run_for(SimDuration::from_micros(1));
        }
        self.engine
            .component_mut::<IcapController>(self.icap_id)
            .reset();
        {
            let d = self.engine.component_mut::<Decompressor>(self.decomp_id);
            d.load(&job);
        }
        let t_start = self.engine.now();
        self.trace_emit(TraceEvent::StagedTransferStart {
            sram_words: job.total_words as u64,
        });
        self.cmd
            .try_push(SramReadCmd {
                addr: 0,
                words: job.total_words,
            })
            .expect("command queue full");
        let deadline = self.engine.now() + self.config.timeout;
        let done = self.done_irq.clone();
        let (_, hit) = self
            .engine
            .run_until_condition(deadline, |_| done.is_raised());
        assert!(hit, "proposed-system transfer timed out");
        let latency = self.engine.now().duration_since(t_start);

        let crc_ok = {
            let mem = self.mem.borrow();
            mem.range_crc(job.start_idx, job.frame_count) == job.golden
        };
        self.trace_emit(TraceEvent::StagedTransferDone {
            ok: crc_ok,
            words_out: job.words_out,
        });
        let sram_bytes = job.total_words as u64 * 4;
        ProposedReport {
            raw_bytes: job.raw_bytes,
            sram_bytes,
            latency,
            throughput_mb_s: job.raw_bytes as f64 / latency.as_secs_f64() / 1e6,
            crc_ok,
            preload_time: self.last_preload,
            compression_ratio: sram_bytes as f64 / job.raw_bytes as f64,
            codec: self.last_codec.clone(),
        }
    }

    /// Convenience: preload + reconfigure in one call (no overlap credit).
    pub fn reconfigure(&mut self, bitstream: &Bitstream) -> ProposedReport {
        self.preload(bitstream);
        self.reconfigure_staged()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The theoretical SRAM-port bound the paper derives: 1237.5 MB/s.
    pub fn theoretical_bound_mb_s(&self) -> f64 {
        self.config.sram.read_word_rate.as_hz() as f64 * 4.0 / 1e6
    }

    /// The fetch model of this system's SRAM write port — what the
    /// multi-tenant [`Scheduler`](crate::scheduler::Scheduler) uses to
    /// price prefetches it hides behind running transfers.
    pub fn prefetch_model(&self) -> crate::scheduler::FetchModel {
        crate::scheduler::FetchModel::from_qdr_write_port(&self.config.sram)
    }
}

impl std::fmt::Debug for ProposedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProposedSystem")
            .field("now", &self.engine.now())
            .field("compress", &self.config.compress)
            .field("staged", &self.staged.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::{ColumnKind, Geometry, Partition};

    fn small_config(compress: bool) -> ProposedConfig {
        let geometry = Geometry::new(1, vec![ColumnKind::Clb; 6]);
        let partitions = vec![Partition::new("RP1", 0, 0..4)];
        ProposedConfig {
            floorplan: Floorplan::new(geometry, partitions),
            compress,
            ..ProposedConfig::default()
        }
    }

    #[test]
    fn uncompressed_path_hits_the_sram_bound() {
        let mut sys = ProposedSystem::new(small_config(false));
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
        let r = sys.reconfigure(&bs);
        assert!(r.crc_ok, "{r:?}");
        assert_eq!(r.compression_ratio, 1.0);
        let bound = sys.theoretical_bound_mb_s();
        assert!((bound - 1237.5).abs() < 0.1);
        assert!(
            r.throughput_mb_s > 0.9 * bound && r.throughput_mb_s <= bound + 1.0,
            "throughput {:.1} vs bound {bound:.1}",
            r.throughput_mb_s
        );
    }

    #[test]
    fn compression_beats_the_sram_bound() {
        let mut sys = ProposedSystem::new(small_config(true));
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
        let r = sys.reconfigure(&bs);
        assert!(r.crc_ok, "{r:?}");
        assert!(r.compression_ratio < 0.9, "ratio {}", r.compression_ratio);
        assert!(
            r.throughput_mb_s > sys.theoretical_bound_mb_s(),
            "compressed rate {:.1} should exceed the raw SRAM bound",
            r.throughput_mb_s
        );
        // But never beyond the 550 MHz ICAP macro's 2200 MB/s.
        assert!(r.throughput_mb_s <= 2200.0 + 1.0);
    }

    #[test]
    fn configured_content_matches_either_way() {
        let mut raw = ProposedSystem::new(small_config(false));
        let mut comp = ProposedSystem::new(small_config(true));
        let bs_r = raw.make_asp_bitstream(0, AspKind::MatMul8, 5);
        let bs_c = comp.make_asp_bitstream(0, AspKind::MatMul8, 5);
        assert_eq!(bs_r, bs_c);
        let rr = raw.reconfigure(&bs_r);
        let rc = comp.reconfigure(&bs_c);
        assert!(rr.crc_ok && rc.crc_ok);
        assert_eq!(rr.raw_bytes, rc.raw_bytes);
        assert!(rc.sram_bytes < rr.sram_bytes);
    }

    #[test]
    fn preload_time_scales_with_stored_bytes() {
        let mut sys = ProposedSystem::new(small_config(true));
        let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 2);
        let d = sys.preload(&bs);
        let expected = d.as_secs_f64() * sys.config().sram.write_bw_bytes_per_s as f64;
        // preload duration × write bandwidth ≈ staged bytes (≤ raw size).
        assert!(expected <= bs.len() as f64 + 4.0);
        let r = sys.reconfigure_staged();
        assert_eq!(r.preload_time, d);
    }

    #[test]
    fn consecutive_reconfigurations_work() {
        let mut sys = ProposedSystem::new(small_config(true));
        for seed in 0..3 {
            let kind = AspKind::ALL[seed as usize % AspKind::ALL.len()];
            let bs = sys.make_asp_bitstream(0, kind, seed);
            let r = sys.reconfigure(&bs);
            assert!(r.crc_ok, "seed {seed}: {r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "no bitstream staged")]
    fn reconfigure_without_staging_panics() {
        let mut sys = ProposedSystem::new(small_config(true));
        let _ = sys.reconfigure_staged();
    }
}

//! # pdr-icap
//!
//! The Internal Configuration Access Port: the 32-bit hardware port through
//! which the programmable logic rewrites its own configuration memory.
//!
//! [`IcapController`] consumes **one 32-bit word per cycle** of the
//! over-clock domain from the width converter's stream, runs the
//! [`pdr_bitstream::Parser`] state machine on it, and applies frame writes
//! to the shared [`pdr_fabric::ConfigMemory`]. At 100 MHz this is the
//! canonical 400 MB/s ICAP rate; over-clocking scales it linearly until the
//! memory path saturates.
//!
//! Timing-violation injection: when the over-clocked data path fails
//! (see `pdr-timing`), each transferred word is corrupted with the assessed
//! word-error rate before parsing — which is what makes the paper's
//! "CRC not valid" rows fail *honestly*: the corrupted frames land in
//! configuration memory and both the in-stream CRC check and the read-back
//! CRC detect them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use pdr_axi::width::Word32;
use pdr_bitstream::{Action, CmdCode, FrameAddress, ParseError, Parser, ParserSnapshot};
use pdr_fabric::ConfigMemory;
use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::{
    Component, Consumer, EdgeCtx, IrqLine, NextWake, SimTime, WakeSource, Waker, Xoshiro256StarStar,
};

/// Shared handle to the device's configuration memory.
pub type SharedConfigMemory = Rc<RefCell<ConfigMemory>>;

/// Creates a shared configuration memory handle.
pub fn shared_config_memory(mem: ConfigMemory) -> SharedConfigMemory {
    Rc::new(RefCell::new(mem))
}

/// Observable state of an ICAP transfer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IcapStatus {
    /// Words consumed from the stream.
    pub words_consumed: u64,
    /// Frames committed to configuration memory.
    pub frames_written: u64,
    /// Result of the in-stream CRC check word, once seen.
    pub stream_crc_ok: Option<bool>,
    /// The stream desynchronised cleanly (end of configuration reached).
    pub done: bool,
    /// Time of the DESYNC, when reached.
    pub done_time: Option<SimTime>,
    /// A malformed stream poisoned the configuration logic.
    pub parse_error: Option<ParseError>,
    /// The stream's IDCODE did not match the device (configuration was
    /// refused from that point on).
    pub idcode_mismatch: bool,
    /// Words corrupted by injected timing violations.
    pub corrupted_words: u64,
}

impl IcapStatus {
    /// True when configuration completed with a passing in-stream CRC.
    pub fn succeeded(&self) -> bool {
        self.done
            && self.stream_crc_ok == Some(true)
            && self.parse_error.is_none()
            && !self.idcode_mismatch
    }
}

/// The ICAP controller component. Bind it to the over-clock domain.
#[derive(Debug)]
pub struct IcapController {
    name: String,
    stream_in: Consumer<Word32>,
    mem: SharedConfigMemory,
    done_irq: IrqLine,
    irq_functional: bool,
    /// One-shot fault injection: swallow the next done interrupt (a lost
    /// IRQ edge, distinct from a dead path). Survives [`IcapController::reset`]
    /// so it can be armed before the driver's pre-transfer quiesce.
    drop_next_done: bool,
    parser: Parser,
    status: IcapStatus,
    word_error_rate: f64,
    /// Device IDCODE to enforce (`None` disables the check).
    expected_idcode: Option<u32>,
    rng: Xoshiro256StarStar,
    /// FAR of the current FDRI burst (tracked for burst-relative writes).
    burst_far: Option<FrameAddress>,
}

impl IcapController {
    /// Creates the controller.
    ///
    /// * `stream_in` — 32-bit words from the width converter;
    /// * `mem` — the configuration memory to write;
    /// * `done_irq` — the end-of-configuration interrupt;
    /// * `rng_seed` — seed for the corruption sampler (determinism).
    pub fn new(
        name: &str,
        stream_in: Consumer<Word32>,
        mem: SharedConfigMemory,
        done_irq: IrqLine,
        rng_seed: u64,
    ) -> Self {
        IcapController {
            name: name.to_string(),
            stream_in,
            mem,
            done_irq,
            irq_functional: true,
            drop_next_done: false,
            parser: Parser::new(),
            status: IcapStatus::default(),
            word_error_rate: 0.0,
            expected_idcode: None,
            rng: Xoshiro256StarStar::seed_from_u64(rng_seed),
            burst_far: None,
        }
    }

    /// Enables IDCODE enforcement: streams carrying a different device id
    /// are refused from the IDCODE write onward, as on real silicon.
    pub fn set_expected_idcode(&mut self, idcode: u32) {
        self.expected_idcode = Some(idcode);
    }

    /// Sets the per-word corruption probability (timing-violation
    /// injection; 0.0 = healthy data path).
    pub fn set_word_error_rate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
        self.word_error_rate = rate;
    }

    /// Enables or disables the physical done-interrupt path.
    pub fn set_irq_functional(&mut self, functional: bool) {
        self.irq_functional = functional;
    }

    /// Arms a one-shot fault: the next completion interrupt is silently
    /// swallowed (the edge is lost between controller and interrupt
    /// controller) even though the transfer itself completes. The flag
    /// survives [`IcapController::reset`] and is consumed when the drop
    /// happens.
    pub fn drop_next_done_irq(&mut self) {
        self.drop_next_done = true;
    }

    /// True while a one-shot interrupt drop is armed.
    pub fn done_irq_drop_armed(&self) -> bool {
        self.drop_next_done
    }

    /// Current transfer status.
    pub fn status(&self) -> &IcapStatus {
        &self.status
    }

    /// Resets parser and status for the next transfer (the stream CRC and
    /// sync hunt restart, like issuing an ICAP abort sequence).
    pub fn reset(&mut self) {
        self.parser = Parser::new();
        self.status = IcapStatus::default();
        self.burst_far = None;
    }

    /// The shared configuration memory handle.
    pub fn memory(&self) -> &SharedConfigMemory {
        &self.mem
    }
}

fn parse_error_to_json(e: &Option<ParseError>) -> Json {
    let (kind, word) = match e {
        None => return Json::Null,
        Some(ParseError::InvalidHeader(w)) => ("invalid_header", *w),
        Some(ParseError::UnexpectedType2(w)) => ("unexpected_type2", *w),
        Some(ParseError::UnknownRegister(a)) => ("unknown_register", *a),
        Some(ParseError::InvalidCommand(w)) => ("invalid_command", *w),
        Some(ParseError::TruncatedFrame) => ("truncated_frame", 0),
        Some(ParseError::FdriWithoutFar) => ("fdri_without_far", 0),
    };
    Json::Obj(vec![
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("word".to_string(), word.to_json()),
    ])
}

fn parse_error_from_json(v: &Json) -> Result<Option<ParseError>, JsonError> {
    if matches!(v, Json::Null) {
        return Ok(None);
    }
    let word = v.field("word")?;
    Ok(Some(match v.field::<String>("kind")?.as_str() {
        "invalid_header" => ParseError::InvalidHeader(word),
        "unexpected_type2" => ParseError::UnexpectedType2(word),
        "unknown_register" => ParseError::UnknownRegister(word),
        "invalid_command" => ParseError::InvalidCommand(word),
        "truncated_frame" => ParseError::TruncatedFrame,
        "fdri_without_far" => ParseError::FdriWithoutFar,
        other => {
            return Err(JsonError {
                msg: format!("unknown parse error kind '{other}'"),
            })
        }
    }))
}

fn parser_snapshot_to_json(s: &ParserSnapshot) -> Json {
    Json::Obj(vec![
        ("state".to_string(), s.state.to_json()),
        ("reg_addr".to_string(), s.reg_addr.to_json()),
        ("remaining".to_string(), s.remaining.to_json()),
        ("crc".to_string(), s.crc.to_json()),
        ("burst_far".to_string(), s.burst_far.to_json()),
        ("burst_seq".to_string(), s.burst_seq.to_json()),
        ("frame_buf".to_string(), s.frame_buf.to_json()),
        ("words_consumed".to_string(), s.words_consumed.to_json()),
        ("frames_emitted".to_string(), s.frames_emitted.to_json()),
    ])
}

fn parser_snapshot_from_json(v: &Json) -> Result<ParserSnapshot, JsonError> {
    Ok(ParserSnapshot {
        state: v.field("state")?,
        reg_addr: v.field("reg_addr")?,
        remaining: v.field("remaining")?,
        crc: v.field("crc")?,
        burst_far: v.field("burst_far")?,
        burst_seq: v.field("burst_seq")?,
        frame_buf: v.field("frame_buf")?,
        words_consumed: v.field("words_consumed")?,
        frames_emitted: v.field("frames_emitted")?,
    })
}

/// Hand-written because `parse_error` has no [`ToJson`] of its own: the
/// bitstream crate that owns [`ParseError`] carries no codec.
impl ToJson for IcapStatus {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("words_consumed".to_string(), self.words_consumed.to_json()),
            ("frames_written".to_string(), self.frames_written.to_json()),
            ("stream_crc_ok".to_string(), self.stream_crc_ok.to_json()),
            ("done".to_string(), self.done.to_json()),
            ("done_time".to_string(), self.done_time.to_json()),
            (
                "parse_error".to_string(),
                parse_error_to_json(&self.parse_error),
            ),
            (
                "idcode_mismatch".to_string(),
                self.idcode_mismatch.to_json(),
            ),
            (
                "corrupted_words".to_string(),
                self.corrupted_words.to_json(),
            ),
        ])
    }
}

impl FromJson for IcapStatus {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(IcapStatus {
            words_consumed: v.field("words_consumed")?,
            frames_written: v.field("frames_written")?,
            stream_crc_ok: v.field("stream_crc_ok")?,
            done: v.field("done")?,
            done_time: v.field("done_time")?,
            parse_error: match v.get("parse_error") {
                Some(e) => parse_error_from_json(e)?,
                None => None,
            },
            idcode_mismatch: v.field("idcode_mismatch")?,
            corrupted_words: v.field("corrupted_words")?,
        })
    }
}

impl Component for IcapController {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let Some(word) = self.stream_in.pop() else {
            return;
        };
        self.status.words_consumed += 1;
        let mut data = word.data;
        if self.word_error_rate > 0.0 && self.rng.next_bool(self.word_error_rate) {
            data ^= 1 << self.rng.next_bounded(32);
            self.status.corrupted_words += 1;
        }
        if self.status.parse_error.is_some() || self.status.idcode_mismatch {
            return; // wedged until reset, like real config logic
        }
        let mem = &self.mem;
        let status = &mut self.status;
        let burst_far = &mut self.burst_far;
        let expected_idcode = self.expected_idcode;
        let now = ctx.now();
        let result = self.parser.push_word(data, &mut |action| match action {
            Action::Sync => {}
            Action::Idcode(id) => {
                if expected_idcode.is_some_and(|want| want != id) {
                    status.idcode_mismatch = true;
                }
            }
            Action::SetFar(far) => *burst_far = Some(far),
            Action::Command(cmd) => {
                debug_assert!(
                    CmdCode::from_word(cmd as u32).is_some(),
                    "parser emitted invalid command"
                );
            }
            Action::WriteFrame { far, seq, data } => {
                let ok = mem.borrow_mut().write_burst_frame(far, seq, data);
                if ok {
                    status.frames_written += 1;
                }
            }
            Action::CrcCheck { ok } => status.stream_crc_ok = Some(ok),
            Action::Desync => {
                status.done = true;
                status.done_time = Some(now);
            }
            Action::WriteReg(_, _) | Action::ReadRequest(_, _) => {}
        });
        if let Err(e) = result {
            self.status.parse_error = Some(e);
            return;
        }
        if self.status.done && self.status.done_time == Some(now) {
            // Completed this cycle: fire the interrupt if its path works and
            // no one-shot drop is armed.
            if self.drop_next_done {
                self.drop_next_done = false;
            } else if self.irq_functional {
                self.done_irq.raise(now);
            }
        }
    }

    fn sensitivity(&self, waker: &Waker) {
        self.stream_in.subscribe(waker);
    }

    fn next_wake(&self, _now_cycle: u64) -> NextWake {
        // An empty-stream edge pops nothing and returns immediately — a pure
        // no-op, so the ICAP sleeps until the converter pushes a word. Even a
        // wedged controller still consumes (and RNG-corrupts) words, so any
        // non-empty stream needs edge-by-edge service.
        if self.stream_in.is_empty() {
            NextWake::Idle
        } else {
            NextWake::EveryCycle
        }
    }

    fn snapshot_state(&self) -> Json {
        // The controller owns its done-IRQ line, the consumer side of the
        // 32-bit word stream, and the parser. Configuration memory is shared
        // device state, serialised once at system level.
        Json::Obj(vec![
            ("irq_functional".to_string(), self.irq_functional.to_json()),
            ("drop_next_done".to_string(), self.drop_next_done.to_json()),
            (
                "parser".to_string(),
                parser_snapshot_to_json(&self.parser.snapshot_parts()),
            ),
            ("status".to_string(), self.status.to_json()),
            (
                "word_error_rate".to_string(),
                self.word_error_rate.to_json(),
            ),
            (
                "expected_idcode".to_string(),
                self.expected_idcode.to_json(),
            ),
            ("rng".to_string(), self.rng.to_json()),
            (
                "burst_far".to_string(),
                self.burst_far.map(|f| f.as_word()).to_json(),
            ),
            ("done_irq".to_string(), self.done_irq.snapshot_json()),
            (
                "stream_in".to_string(),
                self.stream_in.fifo().snapshot_json(),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.irq_functional = state.field("irq_functional")?;
        self.drop_next_done = state.field("drop_next_done")?;
        let parts = parser_snapshot_from_json(state.required("parser")?)?;
        self.parser
            .restore_parts(&parts)
            .map_err(|msg| JsonError { msg })?;
        self.status = state.field("status")?;
        self.word_error_rate = state.field("word_error_rate")?;
        self.expected_idcode = state.field("expected_idcode")?;
        self.rng = state.field("rng")?;
        self.burst_far = state
            .field::<Option<u32>>("burst_far")?
            .map(|w| {
                FrameAddress::from_word(w).ok_or_else(|| JsonError {
                    msg: format!("invalid FAR word {w:#010X}"),
                })
            })
            .transpose()?;
        self.done_irq.restore_json(state.required("done_irq")?)?;
        self.stream_in
            .fifo()
            .restore_json(state.required("stream_in")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_bitstream::{Builder, Frame, FrameAddress};
    use pdr_fabric::Geometry;
    use pdr_sim_core::{fifo_channel, Engine, Frequency, IrqBus, Producer, SimDuration};

    struct Rig {
        engine: Engine,
        words: Producer<Word32>,
        irq: IrqLine,
        icap_id: pdr_sim_core::ComponentId,
        mem: SharedConfigMemory,
    }

    fn rig(mhz: u64) -> Rig {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("oc", Frequency::from_mhz(mhz));
        let (tx, rx) = fifo_channel("icap-in", 1 << 20);
        let mem = shared_config_memory(ConfigMemory::new(Geometry::zynq7020()));
        let bus = IrqBus::new();
        let irq = bus.allocate("icap-done");
        let icap = IcapController::new("icap", rx, mem.clone(), irq.clone(), 42);
        let id = e.add_component(icap, Some(clk));
        Rig {
            engine: e,
            words: tx,
            irq,
            icap_id: id,
            mem,
        }
    }

    fn sample_bitstream(frames: usize) -> pdr_bitstream::Bitstream {
        let mut b = Builder::new(0x0372_7093);
        b.add_frames(
            FrameAddress::new(0, 1, 0, 0),
            (0..frames)
                .map(|i| Frame::filled(0xF00D_0000 + i as u32))
                .collect(),
        );
        b.build()
    }

    fn feed(r: &Rig, bs: &pdr_bitstream::Bitstream) {
        for w in bs.words() {
            r.words
                .try_push(Word32 {
                    data: w,
                    last: false,
                })
                .unwrap();
        }
    }

    #[test]
    fn healthy_transfer_configures_and_interrupts() {
        let mut r = rig(100);
        let bs = sample_bitstream(8);
        feed(&r, &bs);
        r.engine.run_for(SimDuration::from_micros(100));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert!(st.succeeded(), "status: {st:?}");
        assert_eq!(st.frames_written, 8);
        assert_eq!(st.words_consumed, bs.word_count() as u64);
        assert!(r.irq.is_raised());
        // The frames actually landed in configuration memory.
        let frame = r
            .mem
            .borrow_mut()
            .read_frame(FrameAddress::new(0, 1, 0, 3))
            .cloned()
            .unwrap();
        assert_eq!(frame, Frame::filled(0xF00D_0003));
    }

    #[test]
    fn consumes_exactly_one_word_per_cycle() {
        let mut r = rig(100);
        let bs = sample_bitstream(4);
        feed(&r, &bs);
        // 40 cycles at 100 MHz = 400 ns → exactly 40 words consumed.
        r.engine.run_for(SimDuration::from_nanos(400));
        let st = r.engine.component::<IcapController>(r.icap_id).status();
        assert_eq!(st.words_consumed, 40);
    }

    #[test]
    fn corrupted_transfer_fails_stream_crc() {
        let mut r = rig(320);
        r.engine
            .component_mut::<IcapController>(r.icap_id)
            .set_word_error_rate(0.005);
        let bs = sample_bitstream(16);
        feed(&r, &bs);
        r.engine.run_for(SimDuration::from_micros(100));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert!(st.corrupted_words > 0, "corruption must trigger at 0.5 %");
        assert!(!st.succeeded(), "corrupted stream must not verify: {st:?}");
    }

    #[test]
    fn armed_drop_swallows_exactly_one_done_irq() {
        let mut r = rig(100);
        {
            let icap = r.engine.component_mut::<IcapController>(r.icap_id);
            icap.drop_next_done_irq();
            // The drop must survive the driver's pre-transfer reset.
            icap.reset();
            assert!(icap.done_irq_drop_armed());
        }
        let bs = sample_bitstream(4);
        feed(&r, &bs);
        r.engine.run_for(SimDuration::from_micros(50));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert!(st.succeeded(), "transfer itself completes: {st:?}");
        assert!(!r.irq.is_raised(), "armed drop must swallow the interrupt");
        assert!(!r
            .engine
            .component::<IcapController>(r.icap_id)
            .done_irq_drop_armed());
        // The next transfer interrupts normally (one-shot consumed).
        r.engine.component_mut::<IcapController>(r.icap_id).reset();
        feed(&r, &bs);
        r.engine.run_for(SimDuration::from_micros(50));
        assert!(r.irq.is_raised(), "drop is one-shot");
    }

    #[test]
    fn dead_interrupt_path_still_configures() {
        let mut r = rig(310);
        r.engine
            .component_mut::<IcapController>(r.icap_id)
            .set_irq_functional(false);
        let bs = sample_bitstream(8);
        feed(&r, &bs);
        r.engine.run_for(SimDuration::from_micros(100));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert!(st.succeeded(), "data path is healthy at 310 MHz/40 °C");
        assert!(!r.irq.is_raised(), "interrupt path is dead");
    }

    #[test]
    fn reset_allows_reuse() {
        let mut r = rig(100);
        feed(&r, &sample_bitstream(2));
        r.engine.run_for(SimDuration::from_micros(50));
        assert!(
            r.engine
                .component::<IcapController>(r.icap_id)
                .status()
                .done
        );
        r.irq.clear();
        r.engine.component_mut::<IcapController>(r.icap_id).reset();
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert_eq!(st, IcapStatus::default());
        feed(&r, &sample_bitstream(3));
        r.engine.run_for(SimDuration::from_micros(50));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert!(st.succeeded());
        assert_eq!(st.frames_written, 3);
    }

    #[test]
    fn idcode_enforcement_refuses_foreign_streams() {
        let mut r = rig(100);
        r.engine
            .component_mut::<IcapController>(r.icap_id)
            .set_expected_idcode(0x0372_7093);
        // sample_bitstream uses the matching id: accepted.
        feed(&r, &sample_bitstream(2));
        r.engine.run_for(SimDuration::from_micros(50));
        assert!(r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .succeeded());
        // A stream with a different id is refused and writes nothing new.
        r.irq.clear();
        r.engine.component_mut::<IcapController>(r.icap_id).reset();
        let mut b = Builder::new(0xDEAD_0001);
        b.add_frames(FrameAddress::new(0, 2, 0, 0), vec![Frame::filled(9); 3]);
        feed(&r, &b.build());
        r.engine.run_for(SimDuration::from_micros(50));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert!(st.idcode_mismatch);
        assert!(!st.succeeded());
        assert_eq!(st.frames_written, 0);
        assert!(!r.irq.is_raised());
        assert!(r
            .mem
            .borrow_mut()
            .read_frame(FrameAddress::new(0, 2, 0, 0))
            .unwrap()
            .is_zero());
    }

    #[test]
    fn frames_outside_the_device_are_dropped_not_fatal() {
        let mut r = rig(100);
        // Target the last frame of the device, then keep writing past it.
        let geometry = r.mem.borrow().geometry().clone();
        let last = geometry.far_at(geometry.total_frames() - 1);
        let mut b = Builder::new(0x0372_7093);
        b.add_frames(last, vec![Frame::filled(1); 3]); // 2 frames fall off
        feed(&r, &b.build());
        r.engine.run_for(SimDuration::from_micros(50));
        let st = r
            .engine
            .component::<IcapController>(r.icap_id)
            .status()
            .clone();
        assert_eq!(st.frames_written, 1, "only the in-device frame lands");
        assert!(st.done, "the stream still completes");
    }

    #[test]
    fn garbage_stream_never_completes() {
        let mut r = rig(100);
        for i in 0..1000u32 {
            r.words
                .try_push(Word32 {
                    data: 0x0BAD_0000 | i,
                    last: false,
                })
                .unwrap();
        }
        r.engine.run_for(SimDuration::from_micros(50));
        let st = r.engine.component::<IcapController>(r.icap_id).status();
        assert!(!st.done);
        assert!(!r.irq.is_raised());
    }
}

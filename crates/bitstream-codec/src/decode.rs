//! The streaming decompressor.
//!
//! [`StreamDecoder`] is the software model of the hardware block that sits
//! between the staging memory and the ICAP in the paper's Sec. VI
//! architecture. It is written as a push/pull state machine so a
//! cycle-level component can drive it with real backpressure:
//!
//! * [`StreamDecoder::push`] accepts at most [`StreamDecoder::free_capacity`]
//!   bytes — the bounded input FIFO. The decoder never buffers payload: each
//!   byte is consumed into the CRC and the op state machine as it arrives,
//!   so a tiny FIFO (default 64 bytes) suffices at line rate.
//! * [`StreamDecoder::pop_word`] produces at most one decoded 32-bit word
//!   per call — the ICAP-side handshake. It returns `Ok(None)` when starved
//!   for input and latches any [`CodecError`] permanently (a hardware
//!   decoder would raise an error IRQ and wedge until reset).
//!
//! Integrity is verified **incrementally**: each block's CRC-32 accumulates
//! as payload bytes stream through and is checked the moment the block
//! completes, bounding undetected-corruption exposure to one
//! [`BLOCK_WORDS`] block (the read-back CRC pass after reconfiguration
//! backstops even that, see `System::verify_region`).

use std::collections::VecDeque;
use std::fmt;

use pdr_bitstream::packet::NOP_WORD;
use pdr_bitstream::Crc32;

use crate::container::{
    BLOCK_HEADER_BYTES, BLOCK_WORDS, CONTAINER_HEADER_BYTES, MAGIC, OP_COPY, OP_LIT, OP_NOP,
    OP_ZERO, VERSION, WINDOW_WORDS,
};

/// Everything that can go wrong while decoding a `PDRC` container. Every
/// header field is validated, so any single corrupted byte either trips one
/// of these or changes the decoded words (never a silent identical decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The container does not start with `PDRC`.
    BadMagic,
    /// Unknown container version.
    BadVersion(u8),
    /// Non-zero flags/reserved header fields.
    BadHeader,
    /// Unknown op byte in a block payload.
    BadOpcode(u8),
    /// An op with a zero run length (the encoder never emits one).
    ZeroRun,
    /// A `COPY` reaching beyond the decoded history or the window.
    BackrefOutOfRange {
        /// The offending distance.
        dist: u16,
        /// Words actually available to reference.
        available: u64,
    },
    /// A block's payload CRC-32 did not match its header.
    BlockCrcMismatch {
        /// Zero-based index of the failing block.
        block: u32,
    },
    /// A block's ops decoded more words than its header claimed.
    BlockOverrun {
        /// Zero-based index of the failing block.
        block: u32,
    },
    /// A block's ops finished with payload bytes left over.
    TrailingPayload {
        /// Zero-based index of the failing block.
        block: u32,
    },
    /// The stream ended mid-structure.
    Truncated,
    /// The decoded word count disagrees with the container header.
    WordCountMismatch {
        /// Words the container header promised.
        expected: u64,
        /// Words actually decoded.
        got: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "container magic is not PDRC"),
            CodecError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            CodecError::BadHeader => write!(f, "non-zero reserved header fields"),
            CodecError::BadOpcode(b) => write!(f, "unknown op byte {b:#04x}"),
            CodecError::ZeroRun => write!(f, "zero-length run"),
            CodecError::BackrefOutOfRange { dist, available } => {
                write!(
                    f,
                    "back-reference {dist} exceeds history ({available} words)"
                )
            }
            CodecError::BlockCrcMismatch { block } => {
                write!(f, "payload CRC mismatch in block {block}")
            }
            CodecError::BlockOverrun { block } => {
                write!(f, "block {block} decodes more words than declared")
            }
            CodecError::TrailingPayload { block } => {
                write!(f, "block {block} has undecoded trailing payload")
            }
            CodecError::Truncated => write!(f, "container truncated"),
            CodecError::WordCountMismatch { expected, got } => {
                write!(f, "decoded {got} words, container promised {expected}")
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    ContainerHeader,
    BlockHeader,
    Block,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum OpState {
    NeedOpcode,
    Params { code: u8, got: u8 },
    Lit { left: u16 },
    Run { word: u32, left: u16 },
    Copy { left: u16, dist: u16 },
}

/// The longest run of payload bytes the block CRC absorbs in one slice.
const CRC_RUN_BYTES: usize = 64;

enum PayloadByte {
    Byte(u8),
    Starved,
    Exhausted,
}

/// The bounded-FIFO streaming decoder. See the module docs for the
/// push/pull contract.
#[derive(Debug)]
pub struct StreamDecoder {
    input: VecDeque<u8>,
    capacity: usize,
    phase: Phase,
    hdr_buf: [u8; CONTAINER_HEADER_BYTES],
    hdr_got: usize,
    raw_words: u64,
    block_count: u32,
    blocks_done: u32,
    payload_left: u32,
    raw_left: u32,
    expected_crc: u32,
    crc: Crc32,
    /// Payload bytes consumed since the CRC last absorbed any: the CRC
    /// takes them as one slice when the run fills or the block ends.
    crc_run: [u8; CRC_RUN_BYTES],
    crc_run_len: usize,
    op: OpState,
    pbuf: [u8; 4],
    wbuf: [u8; 4],
    wgot: u8,
    history: Vec<u32>,
    hist_pos: usize,
    words_out: u64,
    error: Option<CodecError>,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// A decoder with the default 64-byte input FIFO.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// A decoder whose input FIFO holds `capacity` bytes (clamped up to the
    /// container header size so headers can always make progress).
    pub fn with_capacity(capacity: usize) -> Self {
        StreamDecoder {
            input: VecDeque::new(),
            capacity: capacity.max(CONTAINER_HEADER_BYTES),
            phase: Phase::ContainerHeader,
            hdr_buf: [0; CONTAINER_HEADER_BYTES],
            hdr_got: 0,
            raw_words: 0,
            block_count: 0,
            blocks_done: 0,
            payload_left: 0,
            raw_left: 0,
            expected_crc: 0,
            crc: Crc32::ieee(),
            crc_run: [0; CRC_RUN_BYTES],
            crc_run_len: 0,
            op: OpState::NeedOpcode,
            pbuf: [0; 4],
            wbuf: [0; 4],
            wgot: 0,
            history: vec![0; WINDOW_WORDS],
            hist_pos: 0,
            words_out: 0,
            error: None,
        }
    }

    /// Free input-FIFO space, in bytes.
    pub fn free_capacity(&self) -> usize {
        self.capacity - self.input.len()
    }

    /// Offers `bytes`; the decoder accepts up to its free capacity and
    /// returns how many it took. Once the container is fully decoded any
    /// trailing bytes (e.g. word-alignment padding from the staging memory)
    /// are swallowed without buffering.
    pub fn push(&mut self, bytes: &[u8]) -> usize {
        if self.phase == Phase::Done && self.error.is_none() {
            return bytes.len();
        }
        let n = bytes.len().min(self.free_capacity());
        self.input.extend(bytes[..n].iter().copied());
        n
    }

    /// Total words decoded so far.
    pub fn words_out(&self) -> u64 {
        self.words_out
    }

    /// Total words the container header promised (0 until the header is
    /// parsed).
    pub fn total_words(&self) -> u64 {
        self.raw_words
    }

    /// Blocks whose payload CRC has validated so far. Monotone within a
    /// stream; observers (e.g. the proposed system's trace layer) poll it
    /// between clock edges to attribute progress to individual blocks.
    pub fn blocks_done(&self) -> u32 {
        self.blocks_done
    }

    /// Total blocks the container header promised (0 until the header is
    /// parsed).
    pub fn block_count(&self) -> u32 {
        self.block_count
    }

    /// Whether the whole container decoded cleanly.
    pub fn finished(&self) -> bool {
        self.phase == Phase::Done && self.error.is_none()
    }

    /// The latched error, if the stream wedged.
    pub fn error(&self) -> Option<CodecError> {
        self.error
    }

    fn fail(&mut self, e: CodecError) -> Result<Option<u32>, CodecError> {
        self.error = Some(e);
        Err(e)
    }

    fn payload_byte(&mut self) -> PayloadByte {
        if self.payload_left == 0 {
            return PayloadByte::Exhausted;
        }
        match self.input.pop_front() {
            Some(b) => {
                if self.crc_run_len == CRC_RUN_BYTES {
                    self.absorb_crc_run();
                }
                self.crc_run[self.crc_run_len] = b;
                self.crc_run_len += 1;
                self.payload_left -= 1;
                PayloadByte::Byte(b)
            }
            None => PayloadByte::Starved,
        }
    }

    /// Feeds the pending run of payload bytes to the block CRC.
    fn absorb_crc_run(&mut self) {
        self.crc.update(&self.crc_run[..self.crc_run_len]);
        self.crc_run_len = 0;
    }

    /// Emits one decoded word into the history window and the output.
    fn emit(&mut self, word: u32) -> Result<Option<u32>, CodecError> {
        if self.raw_left == 0 {
            return self.fail(CodecError::BlockOverrun {
                block: self.blocks_done,
            });
        }
        self.history[self.hist_pos] = word;
        self.hist_pos = (self.hist_pos + 1) % WINDOW_WORDS;
        self.words_out += 1;
        self.raw_left -= 1;
        Ok(Some(word))
    }

    /// Transitions to the next block header, or finishes the container.
    fn next_block(&mut self) -> Result<(), CodecError> {
        self.hdr_got = 0;
        if self.blocks_done == self.block_count {
            if self.words_out != self.raw_words {
                let e = CodecError::WordCountMismatch {
                    expected: self.raw_words,
                    got: self.words_out,
                };
                self.error = Some(e);
                return Err(e);
            }
            self.phase = Phase::Done;
            self.input.clear(); // swallow any trailing alignment padding
        } else {
            self.phase = Phase::BlockHeader;
        }
        Ok(())
    }

    /// Decodes and returns the next word, `Ok(None)` when starved for
    /// input (or finished), or the latched error.
    pub fn pop_word(&mut self) -> Result<Option<u32>, CodecError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        loop {
            match self.phase {
                Phase::Done => return Ok(None),
                Phase::ContainerHeader => {
                    while self.hdr_got < CONTAINER_HEADER_BYTES {
                        let Some(b) = self.input.pop_front() else {
                            return Ok(None);
                        };
                        self.hdr_buf[self.hdr_got] = b;
                        self.hdr_got += 1;
                    }
                    let h = self.hdr_buf;
                    if h[0..4] != MAGIC {
                        return self.fail(CodecError::BadMagic);
                    }
                    if h[4] != VERSION {
                        return self.fail(CodecError::BadVersion(h[4]));
                    }
                    if h[5] != 0 || h[6] != 0 || h[7] != 0 {
                        return self.fail(CodecError::BadHeader);
                    }
                    self.raw_words = u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as u64;
                    self.block_count = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
                    self.next_block()?;
                }
                Phase::BlockHeader => {
                    while self.hdr_got < BLOCK_HEADER_BYTES {
                        let Some(b) = self.input.pop_front() else {
                            return Ok(None);
                        };
                        self.hdr_buf[self.hdr_got] = b;
                        self.hdr_got += 1;
                    }
                    let h = self.hdr_buf;
                    self.payload_left = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
                    self.raw_left = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
                    self.expected_crc = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
                    if self.raw_left as usize > BLOCK_WORDS {
                        return self.fail(CodecError::BlockOverrun {
                            block: self.blocks_done,
                        });
                    }
                    self.crc.reset();
                    self.crc_run_len = 0;
                    self.op = OpState::NeedOpcode;
                    self.phase = Phase::Block;
                }
                Phase::Block => {
                    // Block complete? Verify the CRC the moment the last op
                    // finishes — incremental integrity.
                    if self.raw_left == 0 && matches!(self.op, OpState::NeedOpcode) {
                        let block = self.blocks_done;
                        if self.payload_left != 0 {
                            return self.fail(CodecError::TrailingPayload { block });
                        }
                        self.absorb_crc_run();
                        if self.crc.value() != self.expected_crc {
                            return self.fail(CodecError::BlockCrcMismatch { block });
                        }
                        self.blocks_done += 1;
                        self.next_block()?;
                        continue;
                    }
                    match self.op {
                        OpState::NeedOpcode => {
                            let code = match self.payload_byte() {
                                PayloadByte::Byte(b) => b,
                                PayloadByte::Starved => return Ok(None),
                                PayloadByte::Exhausted => return self.fail(CodecError::Truncated),
                            };
                            if !matches!(code, OP_LIT | OP_NOP | OP_ZERO | OP_COPY) {
                                return self.fail(CodecError::BadOpcode(code));
                            }
                            self.op = OpState::Params { code, got: 0 };
                        }
                        OpState::Params { code, got } => {
                            let need: u8 = if code == OP_COPY { 4 } else { 2 };
                            if got < need {
                                let b = match self.payload_byte() {
                                    PayloadByte::Byte(b) => b,
                                    PayloadByte::Starved => return Ok(None),
                                    PayloadByte::Exhausted => {
                                        return self.fail(CodecError::Truncated)
                                    }
                                };
                                self.pbuf[got as usize] = b;
                                self.op = OpState::Params { code, got: got + 1 };
                                continue;
                            }
                            let n = u16::from_le_bytes([self.pbuf[0], self.pbuf[1]]);
                            if n == 0 {
                                return self.fail(CodecError::ZeroRun);
                            }
                            self.op = match code {
                                OP_LIT => {
                                    self.wgot = 0;
                                    OpState::Lit { left: n }
                                }
                                OP_NOP => OpState::Run {
                                    word: NOP_WORD,
                                    left: n,
                                },
                                OP_ZERO => OpState::Run { word: 0, left: n },
                                _ => {
                                    let dist = u16::from_le_bytes([self.pbuf[2], self.pbuf[3]]);
                                    let available = self.words_out.min(WINDOW_WORDS as u64);
                                    if dist == 0 || dist as u64 > available {
                                        return self.fail(CodecError::BackrefOutOfRange {
                                            dist,
                                            available,
                                        });
                                    }
                                    OpState::Copy { left: n, dist }
                                }
                            };
                        }
                        OpState::Lit { left } => {
                            while self.wgot < 4 {
                                let b = match self.payload_byte() {
                                    PayloadByte::Byte(b) => b,
                                    PayloadByte::Starved => return Ok(None),
                                    PayloadByte::Exhausted => {
                                        return self.fail(CodecError::Truncated)
                                    }
                                };
                                self.wbuf[self.wgot as usize] = b;
                                self.wgot += 1;
                            }
                            self.wgot = 0;
                            let word = u32::from_le_bytes(self.wbuf);
                            self.op = if left == 1 {
                                OpState::NeedOpcode
                            } else {
                                OpState::Lit { left: left - 1 }
                            };
                            return self.emit(word);
                        }
                        OpState::Run { word, left } => {
                            self.op = if left == 1 {
                                OpState::NeedOpcode
                            } else {
                                OpState::Run {
                                    word,
                                    left: left - 1,
                                }
                            };
                            return self.emit(word);
                        }
                        OpState::Copy { left, dist } => {
                            let idx = (self.hist_pos + WINDOW_WORDS - dist as usize) % WINDOW_WORDS;
                            let word = self.history[idx];
                            self.op = if left == 1 {
                                OpState::NeedOpcode
                            } else {
                                OpState::Copy {
                                    left: left - 1,
                                    dist,
                                }
                            };
                            return self.emit(word);
                        }
                    }
                }
            }
        }
    }
}

/// One-shot decompression of a whole container (plus any trailing
/// alignment padding). Drives a [`StreamDecoder`] through its bounded FIFO
/// exactly like the cycle model does.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut d = StreamDecoder::new();
    let mut out = Vec::new();
    let mut off = 0;
    loop {
        if off < bytes.len() {
            off += d.push(&bytes[off..]);
        }
        match d.pop_word()? {
            Some(w) => out.push(w),
            None if off >= bytes.len() => break,
            None => {}
        }
    }
    if !d.finished() {
        return Err(CodecError::Truncated);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::compress;
    use pdr_bitstream::SYNC_WORD;

    fn sample_words() -> Vec<u32> {
        let mut words = vec![0xFFFF_FFFF, 0xFFFF_FFFF, SYNC_WORD, 0x3000_8001];
        words.extend(std::iter::repeat_n(NOP_WORD, 40));
        let frame: Vec<u32> = (0..101u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for _ in 0..5 {
            words.extend_from_slice(&frame);
        }
        words.extend(std::iter::repeat_n(0u32, 500));
        words.extend((0..97u32).map(|i| i ^ 0xA5A5_5A5A));
        words
    }

    #[test]
    fn roundtrip_through_tiny_fifo_is_bit_exact() {
        let words = sample_words();
        let c = compress(&words);
        // Feed one byte at a time through a minimal FIFO: worst-case
        // backpressure still decodes exactly.
        let mut d = StreamDecoder::with_capacity(16);
        let mut out = Vec::new();
        let mut off = 0;
        while out.len() < words.len() {
            if off < c.bytes.len() {
                off += d.push(&c.bytes[off..off + 1.min(c.bytes.len() - off)]);
            }
            if let Some(w) = d.pop_word().expect("clean stream") {
                out.push(w);
            }
        }
        assert_eq!(out, words);
        // One more pull lets the decoder run the final CRC check and
        // retire the container.
        assert_eq!(d.pop_word().expect("clean stream"), None);
        assert!(d.finished());
        assert_eq!(d.words_out(), words.len() as u64);
    }

    #[test]
    fn pop_is_none_when_starved_then_resumes() {
        let words = sample_words();
        let c = compress(&words);
        let mut d = StreamDecoder::new();
        assert_eq!(d.pop_word(), Ok(None), "no input yet");
        d.push(&c.bytes[..20]);
        // Header consumed; block payload not yet available → None again.
        let mut got = Vec::new();
        while let Some(w) = d.pop_word().unwrap() {
            got.push(w);
        }
        assert!(!d.finished());
        let mut off = 20;
        loop {
            if off < c.bytes.len() {
                off += d.push(&c.bytes[off..]);
            }
            match d.pop_word().unwrap() {
                Some(w) => got.push(w),
                None if off >= c.bytes.len() => break,
                None => {}
            }
        }
        assert_eq!(got, words);
    }

    #[test]
    fn bad_magic_is_rejected_and_latched() {
        let mut bytes = compress(&[1, 2, 3]).bytes;
        bytes[0] = b'X';
        let mut d = StreamDecoder::new();
        d.push(&bytes);
        assert_eq!(d.pop_word(), Err(CodecError::BadMagic));
        assert_eq!(d.pop_word(), Err(CodecError::BadMagic), "latched");
    }

    #[test]
    fn payload_corruption_trips_block_crc() {
        let words = sample_words();
        let c = compress(&words);
        // Flip one payload byte (past both headers).
        let mut bytes = c.bytes.clone();
        let idx = CONTAINER_HEADER_BYTES + BLOCK_HEADER_BYTES + 5;
        bytes[idx] ^= 0x40;
        match decompress(&bytes) {
            Err(_) => {}
            Ok(w) => assert_ne!(w, words, "corruption must never decode silently"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let words = sample_words();
        let c = compress(&words);
        for cut in [3, 17, 40, c.bytes.len() - 1] {
            assert!(
                decompress(&c.bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_padding_is_swallowed() {
        let words = sample_words();
        let mut bytes = compress(&words).bytes;
        while !bytes.len().is_multiple_of(4) {
            bytes.push(0);
        }
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(decompress(&bytes).unwrap(), words);
    }

    #[test]
    fn word_count_mismatch_is_detected() {
        let words = sample_words();
        let mut bytes = compress(&words).bytes;
        // Claim one more word than the blocks produce.
        let claimed = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) + 1;
        bytes[8..12].copy_from_slice(&claimed.to_le_bytes());
        assert!(decompress(&bytes).is_err());
    }
}

//! # pdr-bitstream
//!
//! A 7-series-like FPGA configuration bitstream toolchain: the packet format,
//! configuration registers, CRC engines, a bitstream [`Builder`] and a
//! streaming [`Parser`] (the state machine an ICAP runs internally). The
//! paper's Sec. VI bitstream decompressor is modelled by the separate
//! `pdr-bitstream-codec` crate.
//!
//! The format follows the Xilinx 7-series configuration user guide (UG470) in
//! structure — sync word, type-1/type-2 packets, `FAR`/`FDRI`/`CMD`/`CRC`
//! registers, 101-word frames — without claiming bit-exactness to any real
//! device. What matters for the reproduction is that:
//!
//! * bitstream size is dominated by frame payload (101 words/frame) plus a
//!   few tens of overhead words, matching the paper's ~528 kB partial
//!   bitstreams;
//! * the CRC mechanism genuinely detects corrupted transfers (the paper's
//!   "CRC not valid" rows exist because over-clocking flips bits);
//! * parsing is a word-at-a-time streaming process, so the ICAP model can
//!   consume exactly one 32-bit word per clock edge.
//!
//! # Example
//!
//! ```
//! use pdr_bitstream::{Builder, FrameAddress, Frame, Parser, Action};
//!
//! // One-frame partial bitstream.
//! let far = FrameAddress::new(0, 0, 3, 0);
//! let frame = Frame::filled(0xDEAD_BEEF);
//! let bs = Builder::new(0x0372_7093) // 7z020-like IDCODE
//!     .add_frames(far, vec![frame.clone()])
//!     .build();
//!
//! // Parse it back, collecting frame writes.
//! let mut parser = Parser::new();
//! let mut frames = Vec::new();
//! for word in bs.words() {
//!     parser.push_word(word, &mut |action| {
//!         if let Action::WriteFrame { far, data, .. } = action {
//!             frames.push((far, data));
//!         }
//!     }).unwrap();
//! }
//! assert_eq!(frames, vec![(far, frame)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod bytes;
pub mod crc;
pub mod frame;
pub mod packet;
pub mod parser;

pub use builder::Builder;
pub use bytes::Bytes;
pub use crc::{ConfigCrc, Crc32};
pub use frame::{BlockType, Frame, FrameAddress, FRAME_WORDS};
pub use packet::{Bitstream, CmdCode, ConfigReg, Opcode, PacketHeader, SYNC_WORD};
pub use parser::{Action, ParseError, Parser, ParserSnapshot};

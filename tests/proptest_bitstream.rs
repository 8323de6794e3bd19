//! Property-based tests of the bitstream toolchain (pdr-testkit).

use pdr_testkit::{
    any_u32, assume, indices, property, tuple2, tuple4, u32s, usizes, vec_of, weighted, Config, Gen,
};

use pdr_lab::bitstream::{Action, Bitstream, Builder, Frame, FrameAddress, Parser, FRAME_WORDS};

fn cfg() -> Config {
    Config::with_cases(64).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ))
}

/// Generator: an arbitrary frame (mixing dense, sparse and zero content).
fn frames() -> Gen<Frame> {
    weighted(vec![
        (
            3,
            vec_of(any_u32(), FRAME_WORDS..=FRAME_WORDS).map(Frame::from_words),
        ),
        (1, pdr_testkit::constant(Frame::zeroed())),
        (1, any_u32().map(Frame::filled)),
    ])
}

/// Generator: a short frame sequence with realistic run structure.
fn frame_runs(max: usize) -> Gen<Vec<Frame>> {
    vec_of(tuple2(frames(), usizes(1..4)), 1..max).map(|runs| {
        runs.into_iter()
            .flat_map(|(f, n)| std::iter::repeat_n(f, n))
            .collect()
    })
}

fn fars() -> Gen<FrameAddress> {
    tuple4(u32s(0..2), u32s(0..4), u32s(0..64), u32s(0..8))
        .map(|(top, row, col, minor)| FrameAddress::new(top, row, col, minor))
}

property! {
    config = cfg();

    /// Whatever we build, the parser reconstructs exactly — with a passing
    /// CRC and a clean desync.
    fn build_parse_roundtrip(far in fars(), frames in frame_runs(12)) {
        let mut b = Builder::new(0x1234_5678);
        b.add_frames(far, frames.clone());
        let bs = b.build();
        let actions = Parser::parse_all(bs.words()).expect("well-formed");
        let got: Vec<Frame> = actions.iter().filter_map(|a| match a {
            Action::WriteFrame { data, .. } => Some(data.clone()),
            _ => None,
        }).collect();
        assert_eq!(got, frames);
        assert!(actions.contains(&Action::CrcCheck { ok: true }));
        assert!(actions.contains(&Action::Desync));
        assert!(actions.contains(&Action::SetFar(far)));
    }

    /// Any single bit flip in the transfer is *detected or harmless*: the
    /// corrupted stream either produces exactly the original configuration
    /// actions (flips in pre-sync pad words change nothing), or the failure
    /// is observable — a parse error, a failing CRC check, a missing
    /// desync, or frame/address content that the read-back CRC would catch.
    fn single_bit_flip_never_verifies_silently(
        frames in frame_runs(6),
        word_sel in indices(),
        bit in u32s(0..32),
    ) {
        let mut b = Builder::new(0x1234_5678);
        let far = FrameAddress::new(0, 0, 1, 0);
        b.add_frames(far, frames.clone());
        let bs = b.build();
        let idx = word_sel.index(bs.word_count());
        let corrupt = bs.with_flipped_bit(idx, bit);
        let original = Parser::parse_all(bs.words()).expect("pristine stream");
        let acceptable = match Parser::parse_all(corrupt.words()) {
            Err(_) => true, // poisoned: the ICAP reports a config error
            Ok(actions) if actions == original => true, // semantically null flip
            Ok(actions) => {
                let crc_fail = actions.contains(&Action::CrcCheck { ok: false });
                let got: Vec<Frame> = actions.iter().filter_map(|a| match a {
                    Action::WriteFrame { data, .. } => Some(data.clone()),
                    _ => None,
                }).collect();
                let desynced = actions.contains(&Action::Desync);
                // Detectable = CRC fails, or the stream never completes, or
                // the configured content/address differs from the intent
                // (which the read-back CRC over the intended region catches).
                let same_far = actions.contains(&Action::SetFar(far));
                crc_fail || !desynced || got != frames || !same_far
            }
        };
        assert!(acceptable, "flip of word {idx} bit {bit} went unnoticed");
    }

    /// Word-level serialisation round-trips through both byte orders.
    fn bitstream_word_views_consistent(words in vec_of(any_u32(), 1..64)) {
        let bs = Bitstream::from_words(&words);
        assert_eq!(bs.words().collect::<Vec<_>>(), words.clone());
        let le = bs.to_le_bytes();
        assert_eq!(le.len(), bs.len());
        for (i, w) in words.iter().enumerate() {
            let chunk: [u8; 4] = le[i * 4..i * 4 + 4].try_into().unwrap();
            assert_eq!(u32::from_le_bytes(chunk), *w);
        }
    }

    /// The config CRC is order-sensitive: swapping two different adjacent
    /// frame writes changes the check value.
    fn config_crc_is_order_sensitive(a in any_u32(), b in any_u32()) {
        assume!(a != b);
        use pdr_lab::bitstream::ConfigCrc;
        let mut x = ConfigCrc::new();
        x.absorb(2, a);
        x.absorb(2, b);
        let mut y = ConfigCrc::new();
        y.absorb(2, b);
        y.absorb(2, a);
        assert_ne!(x.value(), y.value());
    }

    /// The config CRC equals the bit-serial definition — 32 data bits then
    /// the 5 low address bits, each LSB first, into a reflected CRC-32C —
    /// over arbitrary register writes and `RCRC` resets (`None`).
    fn config_crc_matches_the_bit_serial_definition(
        writes in vec_of(weighted(vec![
            (1, pdr_testkit::constant(None)),
            (8, tuple2(any_u32(), any_u32()).map(Some)),
        ]), 1..64),
    ) {
        use pdr_lab::bitstream::ConfigCrc;
        let mut crc = ConfigCrc::new();
        let mut oracle = 0u32;
        for write in writes {
            let Some((reg, data)) = write else {
                crc.reset();
                oracle = 0;
                continue;
            };
            crc.absorb(reg, data);
            let bits = (0..32).map(|i| (data >> i) & 1).chain((0..5).map(|i| (reg >> i) & 1));
            for bit in bits {
                let feedback = (oracle ^ bit) & 1;
                oracle >>= 1;
                if feedback != 0 {
                    oracle ^= pdr_lab::bitstream::crc::POLY_CASTAGNOLI;
                }
            }
            assert_eq!(crc.value(), oracle);
        }
    }

    /// Both CRC-32 engines give the byte-at-a-time result whatever the
    /// chunking: one long `update`, a random split, and `update_word` on
    /// little-endian words.
    fn crc32_chunking_never_changes_the_value(
        bytes in vec_of(u32s(0..256).map(|b| b as u8), 0..200),
        split in indices(),
        words in vec_of(any_u32(), 0..16),
    ) {
        use pdr_lab::bitstream::Crc32;
        for engine in [Crc32::ieee(), Crc32::castagnoli()] {
            let mut bytewise = engine.clone();
            for &b in &bytes {
                bytewise.update(&[b]);
            }
            let mut whole = engine.clone();
            whole.update(&bytes);
            assert_eq!(whole.value(), bytewise.value());
            let (head, tail) = bytes.split_at(split.index(bytes.len() + 1));
            let mut split_up = engine.clone();
            split_up.update(head);
            split_up.update(tail);
            assert_eq!(split_up.value(), bytewise.value());

            for &w in &words {
                for b in w.to_le_bytes() {
                    bytewise.update(&[b]);
                }
                whole.update_word(w);
                assert_eq!(whole.value(), bytewise.value());
            }
        }
    }
}

/// The counterexample recorded by the retired proptest regression file
/// (`tests/proptest_bitstream.proptest-regressions`): three identical
/// mostly-sparse frames with bit 7 of some word flipped. Replayed here as a
/// directed sweep over *every* word, which subsumes the recorded index.
#[test]
fn legacy_regression_three_identical_frames_bit7_flip() {
    let frame = {
        let mut words = vec![0u32; FRAME_WORDS];
        *words.last_mut().expect("non-empty") = 0xCDF6_81B8;
        Frame::from_words(words)
    };
    let frames = vec![frame; 3];
    let far = FrameAddress::new(0, 0, 1, 0);
    let mut b = Builder::new(0x1234_5678);
    b.add_frames(far, frames.clone());
    let bs = b.build();
    let original = Parser::parse_all(bs.words()).expect("pristine stream");
    for idx in 0..bs.word_count() {
        let corrupt = bs.with_flipped_bit(idx, 7);
        let acceptable = match Parser::parse_all(corrupt.words()) {
            Err(_) => true,
            Ok(actions) if actions == original => true,
            Ok(actions) => {
                let crc_fail = actions.contains(&Action::CrcCheck { ok: false });
                let got: Vec<Frame> = actions
                    .iter()
                    .filter_map(|a| match a {
                        Action::WriteFrame { data, .. } => Some(data.clone()),
                        _ => None,
                    })
                    .collect();
                let desynced = actions.contains(&Action::Desync);
                let same_far = actions.contains(&Action::SetFar(far));
                crc_fail || !desynced || got != frames || !same_far
            }
        };
        assert!(acceptable, "flip of word {idx} bit 7 went unnoticed");
    }
}

// ---------------------------------------------------------------------------
// Codec properties (pdr-bitstream-codec): the PDRC container round-trips
// bit-exactly over realistic frame-structured images, streaming decode
// agrees with one-shot decode, and single-byte corruption never yields a
// silently identical image.
// ---------------------------------------------------------------------------

use pdr_lab::codec::{
    compress, compress_bitstream, decompress as codec_decompress, decompress_to_bitstream,
};
use pdr_testkit::bitstreams::{padded_word_streams, realistic_bitstreams};

property! {
    config = cfg();

    /// Compress → decompress is the identity on builder-produced images.
    fn codec_roundtrip_is_bit_exact(bs in realistic_bitstreams(1..24)) {
        let c = compress_bitstream(&bs);
        assert_eq!(decompress_to_bitstream(&c.bytes).expect("own container"), bs);
        // Telemetry is consistent with what was actually produced.
        assert_eq!(c.report.raw_bytes, bs.len() as u64);
        assert_eq!(c.report.compressed_bytes, c.bytes.len() as u64);
    }

    /// The container layer is sound on arbitrary padded word streams, not
    /// just parseable bitstreams.
    fn codec_roundtrip_on_raw_word_streams(words in padded_word_streams(0..2000)) {
        let c = compress(&words);
        assert_eq!(codec_decompress(&c.bytes).expect("own container"), words);
    }

    /// Streaming decode through a minimal FIFO produces exactly the
    /// one-shot result, whatever the push granularity.
    fn streaming_decode_matches_one_shot(
        words in padded_word_streams(1..600),
        chunk in usizes(1..9),
    ) {
        let c = compress(&words);
        let mut d = pdr_lab::codec::StreamDecoder::with_capacity(16);
        let mut fed = 0usize;
        let mut out = Vec::new();
        loop {
            if fed < c.bytes.len() {
                let end = (fed + chunk).min(c.bytes.len());
                fed += d.push(&c.bytes[fed..end]);
            }
            match d.pop_word().expect("clean stream") {
                Some(w) => out.push(w),
                None if d.finished() && fed == c.bytes.len() => break,
                None => {}
            }
        }
        assert_eq!(out, words);
    }

    /// Flipping any single byte of the container is never silent: decode
    /// either reports an error or produces different words. (Payload flips
    /// are always *errors* thanks to the per-block CRC; header flips may
    /// legally decode to a different stream, e.g. a changed run length.)
    fn single_byte_corruption_is_never_silent(
        words in padded_word_streams(1..400),
        byte_idx in indices(),
        bit in u32s(0..8),
    ) {
        let c = compress(&words);
        let mut bad = c.bytes.clone();
        let i = byte_idx.index(bad.len());
        bad[i] ^= 1 << bit;
        match codec_decompress(&bad) {
            Err(_) => {}
            Ok(got) => assert_ne!(got, words, "corrupt byte {i} decoded identically"),
        }
    }
}

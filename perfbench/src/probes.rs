//! Kernel probes for the traced run: the host throughput of single
//! library kernels, measured on the workload's own images. Bytes per op
//! divided by a probe's rate bounds that kernel's share of an op.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pdr_bitstream::{Bitstream, Crc32, Parser};
use pdr_bitstream_codec::{compress_bitstream, decompress_to_bitstream};
use pdr_sim_core::{Component, EdgeCtx, Engine, Frequency, SimDuration};

use crate::harness::Ctx;
use crate::stats::median_or_zero;

/// Host time each probe runs for, at least.
const PROBE_TIME: Duration = Duration::from_millis(250);
const PROBE_MIN_PASSES: usize = 5;

/// Repeats `pass`, which returns the units it processed, for
/// `PROBE_TIME`; the median of the per-pass rates, units per second.
fn rate(mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < PROBE_MIN_PASSES || start.elapsed() < PROBE_TIME {
        let t = Instant::now();
        let units = pass();
        rates.push(units as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    median_or_zero(&rates)
}

/// The cheapest component: one counter bump per clock edge.
struct Ticker(u64);

impl Component for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }

    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        self.0 += 1;
    }
}

/// Runs every probe and sets its per-layer metric.
pub fn run(ctx: &mut Ctx, images: &[Bitstream]) {
    let mut engine = Engine::new();
    let clk = engine.add_clock_domain("clk", Frequency::from_mhz(100));
    engine.add_component(Ticker(0), Some(clk));
    let edges_per_s = rate(|| {
        let before = engine.actions_dispatched();
        engine.run_for(SimDuration::from_millis(1));
        engine.actions_dispatched() - before
    });
    ctx.set("sim_core.bare_edges_per_s", edges_per_s);

    let raw: Vec<Vec<u8>> = images.iter().map(Bitstream::to_le_bytes).collect();
    let raw_bytes: u64 = raw.iter().map(|b| b.len() as u64).sum();
    let crc = rate(|| {
        for bytes in &raw {
            let mut crc = Crc32::ieee();
            crc.update(black_box(bytes));
            black_box(crc.value());
        }
        raw_bytes
    });
    ctx.set("bitstream.crc32_mb_s", crc / 1e6);

    let parse = rate(|| {
        for image in images {
            let mut parser = Parser::new();
            for word in image.words() {
                parser
                    .push_word(word, &mut |action| {
                        black_box(action);
                    })
                    .expect("workload images parse cleanly");
            }
        }
        raw_bytes
    });
    ctx.set("bitstream.parse_mb_s", parse / 1e6);

    let containers: Vec<Vec<u8>> = images.iter().map(|b| compress_bitstream(b).bytes).collect();
    let stored: u64 = containers.iter().map(|c| c.len() as u64).sum();
    ctx.set(
        "bitstream_codec.stored_over_raw",
        stored as f64 / raw_bytes as f64,
    );
    let decode = rate(|| {
        for container in &containers {
            black_box(decompress_to_bitstream(container).expect("containers round-trip"));
        }
        raw_bytes
    });
    ctx.set("bitstream_codec.decode_mb_s", decode / 1e6);
}

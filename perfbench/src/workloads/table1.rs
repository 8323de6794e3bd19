//! `table1_sweep`: one 528,568-byte reconfiguration per op on the full
//! ZedBoard floorplan at 40 °C, cycling through the Table I frequencies.
//! Each op runs on a freshly built system, as the paper's Table I runner
//! does, so every op at a frequency has the same deterministic outcome.

use std::time::Instant;

use pdr_bitstream::Bitstream;
use pdr_core::experiments::TABLE1_PAPER;
use pdr_core::{
    ReconfigError, ReconfigReport, SystemConfig, TimeoutCause, TraceLevel, ZynqPdrSystem,
};
use pdr_sim_core::Frequency;

use super::{set_interconnect, set_trace_counters, Workload};
use crate::harness::{ms_since, Ctx};

/// Table I as the simulator reproduces it, whatever the seed:
/// `(MHz, latency ps, CRC valid, interrupt seen)`.
const PINNED: [(u64, Option<u64>, bool, bool); 9] = [
    (100, Some(1_325_050_000), true, true),
    (140, Some(947_435_714), true, true),
    (180, Some(737_650_000), true, true),
    (200, Some(671_805_000), true, true),
    (240, Some(671_804_166), true, true),
    (280, Some(671_803_571), true, true),
    (310, None, true, false),
    (320, None, false, false),
    (360, None, false, false),
];

pub struct Table1 {
    cfg: SystemConfig,
    image: Bitstream,
    reference: Vec<ReconfigReport>,
}

/// Outcome class of a reconfiguration, for the per-class timings. Both
/// failing frequencies corrupt the data; depending on the seed the DMA
/// then either completes (`CrcMismatch`) or stalls until the watchdog
/// (`Timeout(StillInFlight)`), and both count as `crc_mismatch`.
fn class(r: &ReconfigReport) -> &'static str {
    match r.error {
        None => "ok",
        Some(ReconfigError::Timeout(TimeoutCause::InterruptLost)) => "lost_irq",
        Some(_) => "crc_mismatch",
    }
}

impl Table1 {
    fn system(&self, trace: bool) -> ZynqPdrSystem {
        let mut sys = ZynqPdrSystem::new(self.cfg.clone());
        if trace {
            sys.set_trace_level(TraceLevel::Counters);
        }
        sys
    }

    /// Largest relative error, %, between the reference run's throughput
    /// and the paper's Table I, over the rows the paper reports.
    fn paper_err_pct(&self) -> f64 {
        self.reference
            .iter()
            .zip(TABLE1_PAPER.iter())
            .filter_map(|(r, (_, paper, _))| Some((r.throughput_mb_s()?, paper.as_ref()?.1)))
            .map(|(sim, paper)| ((sim - paper) / paper).abs() * 100.0)
            .fold(0.0, f64::max)
    }
}

impl Workload for Table1 {
    fn setup(seed: u64, ctx: &mut Ctx) -> Self {
        let cfg = SystemConfig {
            ideal_instruments: true,
            initial_die_temp_c: 40.0,
            seed,
            ..SystemConfig::default()
        };
        let t = Instant::now();
        let sys = ZynqPdrSystem::new(cfg.clone());
        ctx.sample("pdr.system.new_ms", ms_since(t));
        let t = Instant::now();
        let image = sys.make_partial_bitstream(0, (seed ^ (seed >> 32)) as u32);
        ctx.sample("bitstream.build_ms", ms_since(t));
        Table1 {
            cfg,
            image,
            reference: Vec::new(),
        }
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        let (mut stats, mut counters) = (Vec::new(), Vec::new());
        let (mut edges, mut frames, mut corrupted) = (0, 0, 0);
        for &(mhz, latency_ps, crc_valid, irq) in &PINNED {
            let mut sys = self.system(ctx.trace_run());
            let r = sys.reconfigure(0, &self.image, Frequency::from_mhz(mhz));
            let row = (
                r.frequency_hz / 1_000_000,
                r.latency.map(|l| l.as_ps()),
                r.crc_ok(),
                r.interrupt_seen,
            );
            ctx.gate
                .require(row == (mhz, latency_ps, crc_valid, irq), || {
                    format!("Table I row {row:?} differs from the pinned row at {mhz} MHz")
                });
            edges += sys.engine_mut().actions_dispatched();
            frames += r.frames_written;
            corrupted += r.corrupted_words;
            stats.push(sys.interconnect_stats());
            counters.push(sys.tracer().counters().clone());
            self.reference.push(r);
        }
        ctx.set("paper_err_pct", self.paper_err_pct());
        ctx.set(
            "sim_core.tick_edges_per_op",
            edges as f64 / PINNED.len() as f64,
        );
        ctx.set("icap.frames_written", frames as f64);
        ctx.set("icap.corrupted_words", corrupted as f64);
        set_interconnect(ctx, &stats, PINNED.len());
        set_trace_counters(ctx, &counters);
    }

    fn lap(&mut self, ctx: &mut Ctx) {
        let i = (ctx.laps() % PINNED.len() as u64) as usize;
        let freq = Frequency::from_mhz(PINNED[i].0);
        let lap = ctx.start_lap();
        let t = Instant::now();
        let traced = ctx.traced();
        let mut sys = ctx.rec.span("pdr.system.new", || self.system(traced));
        ctx.sample("pdr.system.new_ms", ms_since(t));
        ctx.exclude(t.elapsed());

        ctx.begin_op();
        let t = Instant::now();
        let r = ctx.rec.span("pdr.system.reconfigure", || {
            sys.reconfigure(0, &self.image, freq)
        });
        let ms = ms_since(t);
        ctx.end_op(1, Some(ms));
        ctx.sample(&format!("pdr.system.reconfigure_ms.{}.p50", class(&r)), ms);
        ctx.count_edges(sys.engine_mut().actions_dispatched(), ms);
        ctx.gate
            .op("Table I reconfiguration", &r, &self.reference[i]);
        ctx.end_lap(lap, sys.now().as_secs_f64());
    }

    fn images(&self) -> Vec<Bitstream> {
        vec![self.image.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_core::experiments::TABLE1_FREQS_MHZ;

    #[test]
    fn pinned_rows_follow_the_paper_frequencies_and_verdicts() {
        for ((pinned, mhz), paper) in PINNED.iter().zip(TABLE1_FREQS_MHZ).zip(TABLE1_PAPER) {
            assert_eq!(pinned.0, mhz);
            assert_eq!(pinned.0, paper.0);
            assert_eq!(pinned.1.is_some(), paper.1.is_some(), "{mhz} MHz interrupt");
            assert_eq!(pinned.2, paper.2, "{mhz} MHz CRC verdict");
        }
    }
}

//! The four workloads. Each builds its inputs from the seed alone, pins
//! its deterministic outputs in an untimed reference run, then replays
//! the same inputs lap after lap while the harness times it.

use pdr_axi::interconnect::InterconnectStats;
use pdr_bitstream::Bitstream;
use pdr_core::TraceCounters;
use pdr_sim_core::json::{Json, ToJson};

use crate::harness::Ctx;

pub mod fault_soak;
pub mod fleet;
pub mod table1;
pub mod tenant;

/// A benchmark workload.
pub trait Workload {
    /// Builds the state the first timed op needs from the seed's inputs.
    /// The harness times this as `setup_s`.
    fn setup(seed: u64, ctx: &mut Ctx) -> Self
    where
        Self: Sized;

    /// Runs the inputs once, untimed, and pins every deterministic output.
    fn reference(&mut self, ctx: &mut Ctx);

    /// Replays the inputs once from a fresh state, checking every op
    /// against the reference. May stop early when `ctx.more()` turns false.
    fn lap(&mut self, ctx: &mut Ctx);

    /// The bitstreams the workload reconfigures with (probe inputs).
    fn images(&self) -> Vec<Bitstream>;
}

/// Sets `pdr.trace.<field>` from the sum of `counters`.
pub fn set_trace_counters<'a>(
    ctx: &mut Ctx,
    counters: impl IntoIterator<Item = &'a TraceCounters>,
) {
    let mut sum: Vec<(String, u64)> = Vec::new();
    for c in counters {
        let Json::Obj(fields) = c.to_json() else {
            unreachable!("TraceCounters renders as an object")
        };
        for (i, (name, v)) in fields.into_iter().enumerate() {
            let v = v.as_u64().expect("trace counters are integers");
            match sum.get_mut(i) {
                Some(slot) => slot.1 += v,
                None => sum.push((name, v)),
            }
        }
    }
    for (name, v) in sum {
        ctx.set(&format!("pdr.trace.{name}"), v as f64);
    }
}

/// Sets the `axi.interconnect.*` counts as totals over `stats` per op.
pub fn set_interconnect(ctx: &mut Ctx, stats: &[InterconnectStats], ops: usize) {
    let per_op = |f: fn(&InterconnectStats) -> u64| {
        stats.iter().map(f).sum::<u64>() as f64 / ops.max(1) as f64
    };
    ctx.set("axi.interconnect.beats", per_op(|s| s.beats));
    ctx.set("axi.interconnect.data_stalls", per_op(|s| s.data_stalls));
    ctx.set("axi.interconnect.data_idle", per_op(|s| s.data_idle));
}

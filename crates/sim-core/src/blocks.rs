//! Reusable generic components.
//!
//! [`Sink`] drains a stream at a bounded rate and counts what it consumed,
//! so device models can terminate an output port without a bespoke
//! component.

use crate::component::{Component, NextWake};
use crate::engine::EdgeCtx;
use crate::fifo::Consumer;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::wake::{WakeSource, Waker};

/// Consumes up to one item per clock edge, counting and optionally
/// inspecting them.
pub struct Sink<T, F> {
    name: String,
    input: Consumer<T>,
    inspector: F,
    consumed: u64,
    /// Consume only every `stride`-th edge (rate limiting); 1 = every edge.
    stride: u32,
    phase: u32,
    /// Domain cycle up to which `phase` is synchronised (event skipping).
    last_cycle: u64,
}

impl<T, F: FnMut(T)> Sink<T, F> {
    /// Creates a sink consuming one item per edge.
    pub fn new(name: &str, input: Consumer<T>, inspector: F) -> Self {
        Self::with_stride(name, input, 1, inspector)
    }

    /// Creates a sink consuming one item every `stride` edges.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn with_stride(name: &str, input: Consumer<T>, stride: u32, inspector: F) -> Self {
        assert!(stride > 0, "stride must be non-zero");
        Sink {
            name: name.to_string(),
            input,
            inspector,
            consumed: 0,
            stride,
            phase: 0,
            last_cycle: 0,
        }
    }

    /// Items consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

impl<T: ToJson + FromJson + 'static, F: FnMut(T) + 'static> Component for Sink<T, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let cycle = ctx.cycle();
        self.catch_up(cycle - 1);
        self.last_cycle = cycle;
        self.phase += 1;
        if self.phase < self.stride {
            return;
        }
        self.phase = 0;
        if let Some(item) = self.input.pop() {
            (self.inspector)(item);
            self.consumed += 1;
        }
    }

    fn sensitivity(&self, waker: &Waker) {
        self.input.subscribe(waker);
    }

    fn next_wake(&self, now_cycle: u64) -> NextWake {
        if self.input.is_empty() {
            // Skipped edges only cycle `phase`, which catch_up realigns.
            return NextWake::Idle;
        }
        // Virtual phase after the not-yet-folded skipped edges: the next pop
        // attempt is the edge that brings it up to `stride`.
        let elapsed = now_cycle - self.last_cycle;
        let phase = (self.phase as u64 + elapsed) % self.stride as u64;
        NextWake::In(self.stride as u64 - phase)
    }

    fn catch_up(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            let delta = cycle - self.last_cycle;
            // Each edge increments `phase` and resets it at `stride`, which
            // is exactly addition modulo `stride`.
            self.phase = ((self.phase as u64 + delta) % self.stride as u64) as u32;
            self.last_cycle = cycle;
        }
    }

    fn snapshot_state(&self) -> Json {
        // This sink is the input FIFO's unique consumer, so it serialises
        // the buffered elements. The inspector closure is structure.
        Json::Obj(vec![
            ("consumed".to_string(), self.consumed.to_json()),
            ("phase".to_string(), self.phase.to_json()),
            ("last_cycle".to_string(), self.last_cycle.to_json()),
            ("input".to_string(), self.input.fifo().snapshot_json()),
        ])
    }

    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        self.consumed = state.field("consumed")?;
        self.phase = state.field("phase")?;
        self.last_cycle = state.field("last_cycle")?;
        self.input.fifo().restore_json(state.required("input")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fifo::fifo_channel;
    use crate::time::{Frequency, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn sink_with_stride_rate_limits() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let (tx, rx) = fifo_channel::<u32>("s", 256);
        for i in 0..100 {
            tx.try_push(i).unwrap();
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        e.add_component(
            Sink::with_stride("snk", rx, 4, move |v| seen2.borrow_mut().push(v)),
            Some(clk),
        );
        e.run_for(SimDuration::from_micros(1)); // 100 edges → 25 items
        assert_eq!(seen.borrow().len(), 25);
        assert_eq!(seen.borrow()[..3], [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        let (_, rx) = fifo_channel::<u8>("s", 1);
        let _ = Sink::with_stride("snk", rx, 0, |_| {});
    }
}

//! The [`Component`] trait and component addressing.

use core::any::Any;
use core::fmt;

use crate::engine::EdgeCtx;
use crate::json::{Json, JsonError};
use crate::wake::Waker;

/// Identifies a component registered with an [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The raw index of this component inside its engine.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// Discriminates event meanings within a component.
///
/// Keys are plain integers; each component defines its own local constants
/// (e.g. `const EV_DESCRIPTOR_DONE: EventKey = 1`). Richer payloads travel
/// through [`fifo`](crate::fifo) channels, not events.
pub type EventKey = u64;

/// A discrete event delivered to a component at a scheduled instant.
///
/// Events carry a [`EventKey`] and two untyped word arguments — enough to
/// convey "which timer fired" or "burst 17 completed with status 0" without
/// heap allocation in the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Event {
    /// Component-local event discriminator.
    pub key: EventKey,
    /// First argument word.
    pub a: u64,
    /// Second argument word.
    pub b: u64,
}

impl Event {
    /// Creates an event with both argument words zero.
    pub const fn new(key: EventKey) -> Self {
        Event { key, a: 0, b: 0 }
    }

    /// Creates an event with one argument word.
    pub const fn with_arg(key: EventKey, a: u64) -> Self {
        Event { key, a, b: 0 }
    }

    /// Creates an event with two argument words.
    pub const fn with_args(key: EventKey, a: u64, b: u64) -> Self {
        Event { key, a, b }
    }
}

/// A clocked component's declaration of its next interesting clock edge,
/// returned from [`Component::next_wake`].
///
/// The event-skipping engine uses these declarations to fast-forward a clock
/// domain across spans where every member is quiescent. See `docs/KERNEL.md`
/// for the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Dispatch this component on every edge (the tick-accurate default for
    /// unported components).
    EveryCycle,
    /// The next `n - 1` edges only advance internal countdowns that
    /// [`Component::catch_up`] can reproduce in closed form; the first edge
    /// with observable work is `n` cycles after `now_cycle`. `In(1)` is
    /// equivalent to [`NextWake::EveryCycle`]; `In(0)` is treated as `In(1)`.
    In(u64),
    /// Every future edge is a no-op (beyond what [`Component::catch_up`]
    /// folds) until some external input arrives — a FIFO push, a register
    /// write, a delivered event, a re-arm between runs. A write to a source
    /// on the component's [sensitivity list](Component::sensitivity), a
    /// delivered event and [`Engine::component_mut`](crate::Engine::component_mut)
    /// each make the engine re-poll it, so new input wakes it on the same
    /// edge the tick engine would act. Input arriving any other way is
    /// missed.
    Idle,
}

/// A simulated hardware block (or software agent) driven by the engine.
///
/// Components are registered with
/// [`Engine::add_component`](crate::Engine::add_component) and optionally
/// bound to a clock domain;
/// bound components receive [`Component::on_clock_edge`] on every rising edge.
/// Any component can receive discrete [`Event`]s scheduled via
/// [`EdgeCtx::schedule`](crate::EdgeCtx::schedule).
///
/// The supertrait bound on [`Any`] enables typed access to registered
/// components through [`Engine::component`](crate::Engine::component).
pub trait Component: Any {
    /// A short, stable, human-readable name used in traces and panics.
    fn name(&self) -> &str;

    /// Declares this component's next interesting edge, counted from
    /// `now_cycle` (the bound domain's lifetime edge count).
    ///
    /// Called by the event-skipping engine after every edge on which this
    /// component ran, after every event delivered to it, and after every
    /// write to a source on its [sensitivity list](Component::sensitivity)
    /// (those polls can only move the wake earlier). The answer must be
    /// *truthful for the component's current inputs*: declaring a wake
    /// later than the first edge with observable work diverges from the
    /// tick engine. Declaring it earlier is always safe — an early edge
    /// simply dispatches as the (no-op) edge the tick engine would also
    /// have processed. Implementations that track a synchronisation cycle
    /// must use `now_cycle` to account for skipped edges not yet folded by
    /// [`Component::catch_up`].
    ///
    /// A component that can sleep (`In(n > 1)` or `Idle`) must list every
    /// signal whose writes can make this answer earlier in
    /// [`Component::sensitivity`]; debug builds check this after every
    /// refresh. The default keeps unported components tick-accurate.
    fn next_wake(&self, now_cycle: u64) -> NextWake {
        let _ = now_cycle;
        NextWake::EveryCycle
    }

    /// Declares this component's sensitivity list: subscribes `waker` to
    /// every signal whose writes can move [`Component::next_wake`] earlier
    /// ([`WakeSource::subscribe`](crate::WakeSource::subscribe)),
    /// typically the [`Consumer`](crate::Consumer) it pops (woken by
    /// pushes), the [`Producer`](crate::Producer) it waits on for space
    /// (woken by pops), and register files or interrupt lines it checks.
    /// Called once, when the component is added to an engine, so every
    /// source must exist by then. Reads are never tracked.
    ///
    /// The default subscribes to nothing, which is right for components
    /// that never sleep and for those whose wake changes only through their
    /// own edges, delivered events or
    /// [`Engine::component_mut`](crate::Engine::component_mut).
    fn sensitivity(&self, waker: &Waker) {
        let _ = waker;
    }

    /// Folds the effect of the quiescent edges up to and including `cycle`
    /// into this component's state, in closed form.
    ///
    /// The event-skipping engine guarantees every folded edge was covered by
    /// a [`Component::next_wake`] declaration, i.e. it would only have
    /// advanced internal countdowns or idle accounting. Implementations
    /// track their own synchronisation cycle and must be idempotent for
    /// `cycle` values at or before it. Called by ported components at the
    /// top of their own `on_clock_edge` (with `cycle - 1`) and by the engine
    /// at the end of every run so externally observed state is always
    /// tick-identical.
    fn catch_up(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Called on every rising edge of the bound clock domain.
    ///
    /// The default implementation does nothing, which suits purely
    /// event-driven components.
    fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when a scheduled [`Event`] addressed to this component fires.
    ///
    /// The default implementation panics: receiving an event you never
    /// scheduled indicates a wiring bug, and silently dropping it would turn
    /// that bug into a hang.
    fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
        let _ = ctx;
        panic!(
            "component {:?} received unexpected event {:?}",
            self.name(),
            event
        );
    }

    /// Serialises this component's mutable state for a whole-system
    /// checkpoint (see `docs/SNAPSHOT.md`).
    ///
    /// The contract: restoring the returned value into a freshly constructed
    /// component (same constructor arguments, same wiring) must make every
    /// future observable — FIFO traffic, interrupts, counters — byte-
    /// identical to the component that was snapshotted. Construction-time
    /// structure (names, capacities, closures, port wiring) is *not*
    /// serialised; only state that evolves during simulation is.
    ///
    /// A component whose consumer-side FIFOs buffer data serialises those
    /// FIFO contents itself (each FIFO has exactly one consuming component,
    /// so ownership is unambiguous and nothing is written twice).
    ///
    /// The default returns [`Json::Null`], correct only for stateless
    /// components.
    fn snapshot_state(&self) -> Json {
        Json::Null
    }

    /// Restores state captured by [`Component::snapshot_state`] into this
    /// freshly constructed component.
    ///
    /// The default accepts only [`Json::Null`] (the stateless default) so a
    /// stateful component that forgot to implement the pair fails loudly at
    /// restore instead of silently resuming from reset state.
    fn restore_state(&mut self, state: &Json) -> Result<(), JsonError> {
        match state {
            Json::Null => Ok(()),
            _ => Err(JsonError {
                msg: format!(
                    "component '{}' has snapshot state but no restore_state impl",
                    self.name()
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_constructors() {
        assert_eq!(Event::new(3), Event { key: 3, a: 0, b: 0 });
        assert_eq!(Event::with_arg(3, 9), Event { key: 3, a: 9, b: 0 });
        assert_eq!(Event::with_args(3, 9, 8), Event { key: 3, a: 9, b: 8 });
    }

    #[test]
    fn component_id_display_and_index() {
        let id = ComponentId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "component#7");
    }
}

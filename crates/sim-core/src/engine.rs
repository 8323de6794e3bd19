//! The deterministic event-driven simulation engine.
//!
//! # Determinism
//!
//! The engine is totally ordered: every queued action carries `(time, seq)`
//! where `seq` is a monotone schedule counter, so two actions scheduled for
//! the same instant always fire in the order they were scheduled, on every
//! run, on every platform. Clock-domain members are called in registration
//! order. Given the same component set and seeds, two runs produce identical
//! component state (this is asserted by property tests).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::{ClockDomain, ClockDomainId, ClockDomainInfo};
use crate::component::{Component, ComponentId, Event, NextWake};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::time::{Frequency, SimDuration, SimTime, PS_PER_SEC};

/// How the engine advances a clock domain between interesting edges.
///
/// Both strategies produce byte-identical traces, reports and component
/// state; `Tick` exists as the oracle for differential testing (see
/// `tests/kernel_equivalence.rs` and `docs/KERNEL.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStrategy {
    /// Dispatch every rising edge of every running clock domain.
    Tick,
    /// Fold spans where every member of a domain is quiescent (per
    /// [`Component::next_wake`]) into O(1) accounting updates.
    EventSkip,
}

impl EngineStrategy {
    /// Reads the strategy from the `PDR_ENGINE` environment variable
    /// (`tick` or `event`); defaults to [`EngineStrategy::EventSkip`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value, so CI jobs fail loudly instead of
    /// silently benchmarking the wrong engine.
    pub fn from_env() -> Self {
        match std::env::var("PDR_ENGINE").as_deref() {
            Ok("tick") => EngineStrategy::Tick,
            Ok("event") | Ok("event-skip") => EngineStrategy::EventSkip,
            Ok(other) => panic!("PDR_ENGINE must be `tick` or `event`, got {other:?}"),
            Err(_) => EngineStrategy::EventSkip,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// A rising edge of `domain`; ignored if the domain's generation moved on
    /// (frequency re-programmed or clock gated since this edge was queued).
    Edge {
        domain: ClockDomainId,
        generation: u64,
    },
    /// Deliver `event` to `target`.
    Deliver { target: ComponentId, event: Event },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueEntry {
    time: SimTime,
    seq: u64,
    action: Action,
}

/// A clock domain's dynamic state in a checkpoint; the name is checked
/// against the rebuilt engine, not restored.
struct DomainState {
    name: String,
    hz: Frequency,
    phase_origin: SimTime,
    edges_since_origin: u64,
    next_edge: u64,
    total_edges: u64,
    generation: u64,
    gated: bool,
}

crate::impl_json_struct!(DomainState {
    name,
    hz,
    phase_origin,
    edges_since_origin,
    next_edge,
    total_edges,
    generation,
    gated
});

/// Checkpoint encoding: `{"t", "seq"}` plus `{"edge", "generation"}` for a
/// clock edge or `{"deliver", "key", "a", "b"}` for an event delivery.
impl ToJson for QueueEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("t".to_string(), self.time.to_json()),
            ("seq".to_string(), self.seq.to_json()),
        ];
        match self.action {
            Action::Edge { domain, generation } => {
                fields.push(("edge".to_string(), domain.0.to_json()));
                fields.push(("generation".to_string(), generation.to_json()));
            }
            Action::Deliver { target, event } => {
                fields.push(("deliver".to_string(), target.0.to_json()));
                fields.push(("key".to_string(), event.key.to_json()));
                fields.push(("a".to_string(), event.a.to_json()));
                fields.push(("b".to_string(), event.b.to_json()));
            }
        }
        Json::Obj(fields)
    }
}

impl FromJson for QueueEntry {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let action = if v.get("edge").is_some() {
            Action::Edge {
                domain: ClockDomainId(v.field("edge")?),
                generation: v.field("generation")?,
            }
        } else if v.get("deliver").is_some() {
            Action::Deliver {
                target: ComponentId(v.field("deliver")?),
                event: Event {
                    key: v.field("key")?,
                    a: v.field("a")?,
                    b: v.field("b")?,
                },
            }
        } else {
            return Err(JsonError {
                msg: "queue entry is neither edge nor deliver".into(),
            });
        };
        Ok(QueueEntry {
            time: v.field("t")?,
            seq: v.field("seq")?,
            action,
        })
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The requested deadline was reached.
    DeadlineReached,
    /// A component requested a stop with the given code.
    Stopped(u64),
    /// The event queue drained completely (possible only when no clock
    /// domain is running).
    Idle,
}

/// Outcome of a `run_*` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run returned.
    pub reason: StopReason,
    /// Simulated time when the run returned.
    pub now: SimTime,
    /// Actions dispatched during this call.
    pub actions: u64,
}

/// Scheduler state shared with components during dispatch.
#[derive(Debug)]
struct Kernel {
    queue: BinaryHeap<Reverse<QueueEntry>>,
    now: SimTime,
    seq: u64,
    domains: Vec<ClockDomain>,
    stop_request: Option<u64>,
    actions_dispatched: u64,
}

impl Kernel {
    fn push(&mut self, time: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry { time, seq, action }));
    }

    fn schedule_edge(&mut self, id: ClockDomainId) {
        let d = &self.domains[id.index()];
        if d.gated {
            return;
        }
        let t = d.next_edge_time();
        let generation = d.generation;
        self.push(
            t,
            Action::Edge {
                domain: id,
                generation,
            },
        );
    }

    fn set_frequency(&mut self, id: ClockDomainId, frequency: Frequency) {
        let now = self.now;
        self.domains[id.index()].set_frequency(now, frequency);
        self.schedule_edge(id);
    }

    fn set_gated(&mut self, id: ClockDomainId, gated: bool) {
        let now = self.now;
        let was = self.domains[id.index()].gated;
        self.domains[id.index()].set_gated(now, gated);
        if was && !gated {
            self.schedule_edge(id);
        }
    }
}

/// The execution context handed to components during dispatch.
///
/// Through the context a component can read time, schedule events, re-program
/// or gate clock domains (the Clock Wizard's lever) and request a simulation
/// stop.
pub struct EdgeCtx<'a> {
    kernel: &'a mut Kernel,
    self_id: ComponentId,
    domain: Option<ClockDomainId>,
}

impl<'a> EdgeCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The id of the component being dispatched.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// The clock domain this component is bound to, if any.
    pub fn domain(&self) -> Option<ClockDomainId> {
        self.domain
    }

    /// Lifetime rising-edge count of this component's clock domain.
    ///
    /// # Panics
    ///
    /// Panics if the component is not bound to a clock domain.
    pub fn cycle(&self) -> u64 {
        let d = self.domain.expect("component has no clock domain");
        self.kernel.domains[d.index()].total_edges
    }

    /// Schedules `event` for `target`, `after` from now.
    pub fn schedule(&mut self, after: SimDuration, target: ComponentId, event: Event) {
        let t = self.kernel.now + after;
        self.kernel.push(t, Action::Deliver { target, event });
    }

    /// Schedules `event` for the current component, `after` from now.
    pub fn schedule_self(&mut self, after: SimDuration, event: Event) {
        self.schedule(after, self.self_id, event);
    }

    /// Current frequency of a clock domain.
    pub fn clock_frequency(&self, domain: ClockDomainId) -> Frequency {
        self.kernel.domains[domain.index()].frequency
    }

    /// Re-programs a clock domain; the next edge fires one new-period later.
    pub fn set_clock_frequency(&mut self, domain: ClockDomainId, frequency: Frequency) {
        self.kernel.set_frequency(domain, frequency);
    }

    /// Gates (`true`) or un-gates (`false`) a clock domain.
    pub fn gate_clock(&mut self, domain: ClockDomainId, gated: bool) {
        self.kernel.set_gated(domain, gated);
    }

    /// Requests that the surrounding `run_*` call return with
    /// [`StopReason::Stopped`]`(code)` after this dispatch completes.
    pub fn request_stop(&mut self, code: u64) {
        self.kernel.stop_request = Some(code);
    }
}

struct Slot {
    component: Option<Box<dyn Component>>,
    name: String,
    domain: Option<ClockDomainId>,
    /// Next interesting cycle of this component, in its domain's lifetime
    /// edge count (`total_edges` terms, so re-programming survives). Zero
    /// forces the first edge to materialise. Only meaningful for clocked
    /// components under [`EngineStrategy::EventSkip`].
    due_cycle: u64,
}

/// The simulation engine: owns components, clock domains and the event queue.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Engine {
    kernel: Kernel,
    slots: Vec<Slot>,
    strategy: EngineStrategy,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an empty engine at t = 0, using the event-skipping strategy.
    pub fn new() -> Self {
        Self::with_strategy(EngineStrategy::EventSkip)
    }

    /// Creates an empty engine using the given advance strategy.
    pub fn with_strategy(strategy: EngineStrategy) -> Self {
        Engine {
            kernel: Kernel {
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                domains: Vec::new(),
                stop_request: None,
                actions_dispatched: 0,
            },
            slots: Vec::new(),
            strategy,
        }
    }

    /// The engine's advance strategy.
    pub fn strategy(&self) -> EngineStrategy {
        self.strategy
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Total actions (edges + events) dispatched since construction.
    pub fn actions_dispatched(&self) -> u64 {
        self.kernel.actions_dispatched
    }

    /// Registers a clock domain running at `frequency`; its first edge fires
    /// one period after the current instant.
    pub fn add_clock_domain(&mut self, name: &str, frequency: Frequency) -> ClockDomainId {
        let id = ClockDomainId(self.kernel.domains.len() as u32);
        let mut domain = ClockDomain::new(name.to_string(), frequency);
        domain.phase_origin = self.kernel.now;
        self.kernel.domains.push(domain);
        self.kernel.schedule_edge(id);
        id
    }

    /// Registers a component, optionally binding it to a clock domain.
    ///
    /// Bound components receive [`Component::on_clock_edge`] on every rising
    /// edge of that domain, in registration order.
    pub fn add_component<C: Component>(
        &mut self,
        component: C,
        domain: Option<ClockDomainId>,
    ) -> ComponentId {
        let id = ComponentId(self.slots.len() as u32);
        let name = component.name().to_string();
        self.slots.push(Slot {
            component: Some(Box::new(component)),
            name,
            domain,
            due_cycle: 0,
        });
        if let Some(d) = domain {
            self.kernel.domains[d.index()].members.push(id);
        }
        id
    }

    /// The registered name of a component.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.slots[id.index()].name
    }

    /// Typed shared access to a registered component.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a component of type `T`.
    pub fn component<T: Component>(&self, id: ComponentId) -> &T {
        let slot = &self.slots[id.index()];
        let c = slot
            .component
            .as_ref()
            .expect("component is currently being dispatched");
        let any: &dyn Any = c.as_ref();
        any.downcast_ref::<T>().unwrap_or_else(|| {
            panic!(
                "component {} ({}) is not a {}",
                id,
                slot.name,
                std::any::type_name::<T>()
            )
        })
    }

    /// Typed exclusive access to a registered component.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a component of type `T`.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> &mut T {
        let slot = &mut self.slots[id.index()];
        let name = slot.name.clone();
        let c = slot
            .component
            .as_mut()
            .expect("component is currently being dispatched");
        let any: &mut dyn Any = c.as_mut();
        any.downcast_mut::<T>().unwrap_or_else(|| {
            panic!(
                "component {} ({}) is not a {}",
                id,
                name,
                std::any::type_name::<T>()
            )
        })
    }

    /// Information about a clock domain.
    pub fn clock_info(&self, id: ClockDomainId) -> ClockDomainInfo {
        self.kernel.domains[id.index()].info()
    }

    /// Re-programs a clock domain from outside the simulation (test benches,
    /// experiment harnesses).
    pub fn set_clock_frequency(&mut self, id: ClockDomainId, frequency: Frequency) {
        self.kernel.set_frequency(id, frequency);
    }

    /// Gates or un-gates a clock domain from outside the simulation.
    pub fn gate_clock(&mut self, id: ClockDomainId, gated: bool) {
        self.kernel.set_gated(id, gated);
    }

    /// Schedules an event from outside the simulation.
    pub fn schedule(&mut self, after: SimDuration, target: ComponentId, event: Event) {
        let t = self.kernel.now + after;
        self.kernel.push(t, Action::Deliver { target, event });
    }

    /// Runs until `deadline` (inclusive of actions scheduled exactly at it),
    /// a stop request, or queue exhaustion.
    pub fn run_until(&mut self, deadline: SimTime) -> RunResult {
        let start_actions = self.kernel.actions_dispatched;
        self.kernel.stop_request = None;
        self.refresh_all_wakes();
        let result = loop {
            let head_time = match self.kernel.queue.peek() {
                Some(Reverse(e)) => e.time,
                None => {
                    break RunResult {
                        reason: StopReason::Idle,
                        now: self.kernel.now,
                        actions: self.kernel.actions_dispatched - start_actions,
                    };
                }
            };
            if head_time > deadline {
                self.kernel.now = deadline;
                break RunResult {
                    reason: StopReason::DeadlineReached,
                    now: deadline,
                    actions: self.kernel.actions_dispatched - start_actions,
                };
            }
            let Reverse(entry) = self.kernel.queue.pop().expect("peeked entry vanished");
            debug_assert!(entry.time >= self.kernel.now, "time ran backwards");
            self.kernel.now = entry.time;
            self.execute(entry.action, deadline);
            if let Some(code) = self.kernel.stop_request.take() {
                break RunResult {
                    reason: StopReason::Stopped(code),
                    now: self.kernel.now,
                    actions: self.kernel.actions_dispatched - start_actions,
                };
            }
        };
        self.sync_components();
        result
    }

    /// Runs for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: SimDuration) -> RunResult {
        let deadline = self.kernel.now + duration;
        self.run_until(deadline)
    }

    /// Runs until `predicate` returns true (checked after every dispatched
    /// action) or `deadline` passes. Returns the final result plus whether
    /// the predicate was satisfied.
    pub fn run_until_condition(
        &mut self,
        deadline: SimTime,
        mut predicate: impl FnMut(&Engine) -> bool,
    ) -> (RunResult, bool) {
        let start_actions = self.kernel.actions_dispatched;
        self.kernel.stop_request = None;
        self.refresh_all_wakes();
        let result = loop {
            if predicate(self) {
                break (
                    RunResult {
                        reason: StopReason::Stopped(0),
                        now: self.kernel.now,
                        actions: self.kernel.actions_dispatched - start_actions,
                    },
                    true,
                );
            }
            let head_time = match self.kernel.queue.peek() {
                Some(Reverse(e)) => e.time,
                None => {
                    break (
                        RunResult {
                            reason: StopReason::Idle,
                            now: self.kernel.now,
                            actions: self.kernel.actions_dispatched - start_actions,
                        },
                        false,
                    );
                }
            };
            if head_time > deadline {
                self.kernel.now = deadline;
                break (
                    RunResult {
                        reason: StopReason::DeadlineReached,
                        now: deadline,
                        actions: self.kernel.actions_dispatched - start_actions,
                    },
                    false,
                );
            }
            let Reverse(entry) = self.kernel.queue.pop().expect("peeked entry vanished");
            self.kernel.now = entry.time;
            self.execute(entry.action, deadline);
            if let Some(code) = self.kernel.stop_request.take() {
                break (
                    RunResult {
                        reason: StopReason::Stopped(code),
                        now: self.kernel.now,
                        actions: self.kernel.actions_dispatched - start_actions,
                    },
                    false,
                );
            }
        };
        self.sync_components();
        result
    }

    /// Executes one popped action: the tick engine dispatches it directly;
    /// the event-skipping engine first checks whether a fresh edge heads a
    /// quiescent span it can fold.
    fn execute(&mut self, action: Action, deadline: SimTime) {
        if self.strategy == EngineStrategy::Tick {
            self.dispatch(action);
            return;
        }
        match action {
            Action::Edge { domain, generation } => {
                let d = &self.kernel.domains[domain.index()];
                if d.gated || d.generation != generation {
                    // Stale edge: route through dispatch so the action
                    // accounting matches the tick engine exactly.
                    self.dispatch(action);
                    return;
                }
                let next_cycle = d.total_edges + 1;
                let min_due = d
                    .members
                    .iter()
                    .map(|m| self.slots[m.index()].due_cycle)
                    .min()
                    .unwrap_or(u64::MAX);
                if min_due <= next_cycle {
                    // Some member does work on this very edge.
                    self.dispatch(action);
                    self.refresh_wakes(Some(domain), None);
                } else if !self.global_fold(domain, min_due, deadline) {
                    self.fold_edges(domain, min_due, deadline);
                }
            }
            Action::Deliver { target, .. } => {
                self.dispatch(action);
                self.refresh_wakes(None, Some(target));
            }
        }
    }

    /// Attempts to fold a *globally* quiescent span. When every queued entry
    /// is a fresh edge and every running domain's members are asleep, the
    /// tick engine would grind through nothing but no-op edge dispatches
    /// until the earliest declared wake (or the deadline); this folds all of
    /// those — across every domain — in one O(domains·log domains) step,
    /// where [`Engine::fold_edges`] alone is capped at the next queued entry
    /// and so advances a multi-domain system only one inter-edge gap per pop.
    ///
    /// Exactness: the accounting (clock counters, time, dispatched actions,
    /// the schedule-sequence counter) matches `Σk` tick dispatches, and the
    /// surviving queue state matches the tick engine's — entry times by
    /// construction, and the *relative sequence order* of the re-pushed
    /// edges by re-pushing in the tick engine's push chronology: ascending
    /// last-folded-edge time (a surviving entry is pushed at the pop of the
    /// last folded edge), then predecessor-edge time (two domains tying on
    /// `t_last` with distinct grids pushed their `t_last` entries at their
    /// respective predecessor pops), then — full ties share one edge grid —
    /// captured-entry time *descending* with the popped entry winning
    /// same-instant ties: a domain already a cycle ahead at fold time keeps
    /// its older sequence number at the first shared instant, and that pop
    /// order then reproduces itself at every later instant of the span.
    ///
    /// Returns false when ineligible — a Deliver or stale edge is queued
    /// (those interleave with the span in ways only the bounded per-domain
    /// fold handles), or the earliest wake does not clear the next queued
    /// entry (no cross-domain skip to be had) — and the caller falls back
    /// to [`Engine::fold_edges`].
    fn global_fold(
        &mut self,
        popped: ClockDomainId,
        popped_min_due: u64,
        deadline: SimTime,
    ) -> bool {
        // Eligibility scan; also capture each domain's live entry.
        let n_domains = self.kernel.domains.len();
        let mut entries: Vec<Option<(u64, SimTime)>> = vec![None; n_domains];
        let mut head: Option<SimTime> = None;
        for Reverse(e) in self.kernel.queue.iter() {
            match e.action {
                Action::Edge { domain, generation } => {
                    let d = &self.kernel.domains[domain.index()];
                    if d.gated || d.generation != generation {
                        return false;
                    }
                    entries[domain.index()] = Some((e.seq, e.time));
                    head = Some(head.map_or(e.time, |h: SimTime| h.min(e.time)));
                }
                Action::Deliver { .. } => return false,
            }
        }
        let Some(head) = head else {
            return false; // single-domain system: fold_edges already optimal
        };

        // The fold stops at the earliest cycle any member declared
        // interesting, over every running domain, or at the deadline.
        let mut t_stop = deadline;
        for (idx, d) in self.kernel.domains.iter().enumerate() {
            if d.gated {
                continue;
            }
            let min_due = if idx == popped.index() {
                popped_min_due
            } else {
                d.members
                    .iter()
                    .map(|m| self.slots[m.index()].due_cycle)
                    .min()
                    .unwrap_or(u64::MAX)
            };
            if min_due == u64::MAX {
                continue;
            }
            let delta = min_due.saturating_sub(d.total_edges + 1);
            let t_due = d.phase_origin + d.frequency.edge_offset(d.next_edge + delta);
            t_stop = t_stop.min(t_due);
        }
        if t_stop <= head {
            return false; // cannot skip past any queued entry
        }

        // Fold every running domain's edges strictly before `t_stop` (the
        // popped edge always folds: it already won its pop ordering).
        let horizon = SimTime::from_ps(t_stop.as_ps().saturating_sub(1));
        type FoldKey = (SimTime, SimTime, std::cmp::Reverse<SimTime>, u8, u64);
        let mut folds: Vec<(FoldKey, ClockDomainId)> = Vec::new();
        let mut total_k = 0u64;
        let mut max_t_last = self.kernel.now;
        for (idx, &entry) in entries.iter().enumerate() {
            let is_popped = idx == popped.index();
            if !is_popped && entry.is_none() {
                continue; // gated (or an unreachable entry-less domain)
            }
            let d = &mut self.kernel.domains[idx];
            if d.gated {
                continue;
            }
            let n0 = d.next_edge;
            let k_time = if horizon < d.phase_origin {
                0
            } else {
                let y = (horizon - d.phase_origin).as_ps();
                let e_max =
                    ((y as u128 + 1) * d.frequency.as_hz() as u128 - 1) / PS_PER_SEC as u128;
                let e_max = u64::try_from(e_max).unwrap_or(u64::MAX);
                if e_max < n0 {
                    0
                } else {
                    e_max - n0 + 1
                }
            };
            let k = if is_popped { k_time.max(1) } else { k_time };
            if k == 0 {
                continue; // entry at or past t_stop: stays queued verbatim
            }
            d.edges_since_origin = n0 + k - 1;
            d.next_edge = n0 + k;
            d.total_edges += k;
            let t_last = d.phase_origin + d.frequency.edge_offset(n0 + k - 1);
            // The instant the tick engine pushed this domain's surviving
            // entry: the pop of the edge before it.
            let t_prev = if k >= 2 {
                d.phase_origin + d.frequency.edge_offset(n0 + k - 2)
            } else if n0 >= 1 {
                d.phase_origin + d.frequency.edge_offset(n0 - 1)
            } else {
                SimTime::ZERO
            };
            // Within a (t_last, t_prev) tie group every domain shares one
            // edge grid, and the tick pop order at the final shared instant
            // is set at the first: domains already *ahead* (captured entry at
            // a later instant) keep their older sequence numbers and stay in
            // front of the stragglers' fresh re-pushes forever after. So the
            // group orders by captured-entry time DESCENDING; the popped
            // entry out-popped every same-instant peer, so it wins that tie.
            let (t_cap, pop_rank, s_cap) = if is_popped {
                (self.kernel.now, 0u8, 0u64)
            } else {
                let (s, t) = entry.expect("captured");
                (t, 1, s)
            };
            debug_assert!(t_last <= horizon || (is_popped && k == 1));
            total_k += k;
            max_t_last = max_t_last.max(t_last);
            folds.push((
                (t_last, t_prev, std::cmp::Reverse(t_cap), pop_rank, s_cap),
                ClockDomainId(idx as u32),
            ));
        }

        // Drop the folded domains' consumed entries; keep the rest verbatim
        // (original seq included).
        let folded: Vec<bool> = {
            let mut v = vec![false; n_domains];
            for &(_, id) in &folds {
                v[id.index()] = true;
            }
            v
        };
        let retained: Vec<QueueEntry> = self
            .kernel
            .queue
            .drain()
            .map(|Reverse(e)| e)
            .filter(|e| match e.action {
                Action::Edge { domain, .. } => !folded[domain.index()],
                Action::Deliver { .. } => unreachable!("eligibility scan admitted a Deliver"),
            })
            .collect();
        self.kernel.queue.extend(retained.into_iter().map(Reverse));

        debug_assert!(max_t_last >= self.kernel.now, "global fold ran backwards");
        self.kernel.now = max_t_last;
        self.kernel.actions_dispatched += total_k;
        // The tick engine consumed one sequence number per folded pop's
        // re-push; only the final pushes below survive.
        self.kernel.seq += total_k - folds.len() as u64;
        folds.sort_unstable_by_key(|&(key, _)| key);
        for (_, id) in folds {
            self.kernel.schedule_edge(id);
        }
        true
    }

    /// Folds a run of consecutive quiescent edges of `domain` into O(1)
    /// accounting updates, emulating exactly what `k` sequential tick
    /// dispatches would have done to clocks, time, action counts and the
    /// schedule-sequence counter. Member state is folded lazily via
    /// [`Component::catch_up`]. The popped edge (already off the queue) is
    /// the first folded edge.
    fn fold_edges(&mut self, domain: ClockDomainId, min_due: u64, deadline: SimTime) {
        // Folded edges after the first must fire strictly before every other
        // queued entry: a freshly re-scheduled edge always carries the
        // youngest sequence number, so the tick engine breaks same-time ties
        // in favour of the other entry.
        let other_min = self.kernel.queue.peek().map(|Reverse(e)| e.time);
        let d = &mut self.kernel.domains[domain.index()];
        let c = d.total_edges;
        debug_assert!(min_due > c + 1, "fold requires a quiescent next edge");
        let k_wake = if min_due == u64::MAX {
            u64::MAX
        } else {
            min_due - 1 - c
        };
        let horizon = match other_min {
            Some(t) => SimTime::from_ps(t.as_ps().saturating_sub(1)).min(deadline),
            None => deadline,
        };
        let n0 = d.next_edge; // origin-relative index of the popped edge
        let k_time = if horizon < d.phase_origin {
            0
        } else {
            let y = (horizon - d.phase_origin).as_ps();
            // Largest edge index e with edge_offset(e) <= y, inverting
            // edge_offset's truncating division in 128-bit arithmetic.
            let e_max = ((y as u128 + 1) * d.frequency.as_hz() as u128 - 1) / PS_PER_SEC as u128;
            let e_max = u64::try_from(e_max).unwrap_or(u64::MAX);
            if e_max < n0 {
                0
            } else {
                e_max - n0 + 1
            }
        };
        // Even when the horizon forbids folding past the popped edge, the
        // popped edge itself already won its pop ordering: a k = 1 "fold" is
        // exactly the tick engine's no-op dispatch of that edge.
        let k = k_wake.min(k_time).max(1);
        d.edges_since_origin = n0 + k - 1;
        d.next_edge = n0 + k;
        d.total_edges = c + k;
        let new_now = d.phase_origin + d.frequency.edge_offset(n0 + k - 1);
        debug_assert!(new_now >= self.kernel.now, "fold ran backwards");
        self.kernel.now = new_now;
        self.kernel.actions_dispatched += k;
        // The tick engine would have consumed one sequence number per
        // re-scheduled edge; only the last push survives in the queue.
        self.kernel.seq += k - 1;
        self.kernel.schedule_edge(domain);
    }

    /// Re-polls component wake declarations after a dispatched action.
    ///
    /// Members of the just-dispatched edge's domain (or the event's target)
    /// answer authoritatively — their state is freshly synchronised, so the
    /// poll may move the wake later. Every other clocked component is
    /// min-merged: its stored wake can only move earlier, which is always
    /// safe (an early edge dispatches as a tick-identical no-op) and is what
    /// wakes sleepers whose inputs this action just refilled.
    fn refresh_wakes(&mut self, edge_domain: Option<ClockDomainId>, target: Option<ComponentId>) {
        for idx in 0..self.slots.len() {
            let Some(sd) = self.slots[idx].domain else {
                continue;
            };
            let authoritative = edge_domain == Some(sd) || target.map(|t| t.index()) == Some(idx);
            let now_cycle = self.kernel.domains[sd.index()].total_edges;
            if !authoritative && self.slots[idx].due_cycle <= now_cycle + 1 {
                continue; // already awake; min-merge cannot move it earlier
            }
            let Some(component) = self.slots[idx].component.as_ref() else {
                continue;
            };
            let due = match component.next_wake(now_cycle) {
                NextWake::EveryCycle => now_cycle + 1,
                NextWake::In(n) => now_cycle.saturating_add(n.max(1)),
                NextWake::Idle => u64::MAX,
            };
            let slot = &mut self.slots[idx];
            slot.due_cycle = if authoritative {
                due
            } else {
                slot.due_cycle.min(due)
            };
        }
    }

    /// Min-merges every clocked component's wake at the start of a run:
    /// harness code may have pushed FIFOs, written registers or re-armed
    /// components since the previous run returned.
    fn refresh_all_wakes(&mut self) {
        if self.strategy == EngineStrategy::EventSkip {
            self.refresh_wakes(None, None);
        }
    }

    /// Folds every clocked component up to its domain's current edge count
    /// at the end of a run, so state observed between runs (stats readers,
    /// test assertions, driver decisions) is byte-identical to the tick
    /// engine's.
    fn sync_components(&mut self) {
        if self.strategy != EngineStrategy::EventSkip {
            return;
        }
        for idx in 0..self.slots.len() {
            let Some(d) = self.slots[idx].domain else {
                continue;
            };
            let cycle = self.kernel.domains[d.index()].total_edges;
            if let Some(component) = self.slots[idx].component.as_mut() {
                component.catch_up(cycle);
            }
        }
    }

    fn dispatch(&mut self, action: Action) {
        self.kernel.actions_dispatched += 1;
        match action {
            Action::Edge { domain, generation } => {
                {
                    let d = &self.kernel.domains[domain.index()];
                    if d.gated || d.generation != generation {
                        return; // stale edge from before a re-program/gate
                    }
                }
                // Advance the edge counters before member dispatch so that
                // ctx.cycle() observes the edge being processed.
                let members = {
                    let d = &mut self.kernel.domains[domain.index()];
                    d.edges_since_origin = d.next_edge;
                    d.next_edge += 1;
                    d.total_edges += 1;
                    std::mem::take(&mut d.members)
                };
                for &id in &members {
                    self.call(id, Some(domain), None);
                }
                {
                    let d = &mut self.kernel.domains[domain.index()];
                    debug_assert!(d.members.is_empty(), "members registered mid-edge");
                    d.members = members;
                }
                // Re-schedule unless a member re-programmed the domain (in
                // which case set_frequency already queued the new edge).
                let d = &self.kernel.domains[domain.index()];
                if d.generation == generation && !d.gated {
                    self.kernel.schedule_edge(domain);
                }
            }
            Action::Deliver { target, event } => {
                let domain = self.slots[target.index()].domain;
                self.call(target, domain, Some(event));
            }
        }
    }

    /// Serialises the whole engine — event queue, clock domains, per-slot
    /// wake bookkeeping and every component's [`Component::snapshot_state`] —
    /// for a deterministic checkpoint (see `docs/SNAPSHOT.md`).
    ///
    /// The snapshot captures *mutable* state only: the component graph
    /// (registration order, domain bindings, FIFO wiring) is reproduced by
    /// re-running the same construction code, then [`Engine::restore`]
    /// overlays this state.
    ///
    /// Must be taken between runs (never from inside a dispatch).
    pub fn snapshot(&self) -> Json {
        debug_assert!(
            self.kernel.stop_request.is_none(),
            "snapshot taken mid-dispatch"
        );
        let mut entries: Vec<&QueueEntry> = self.kernel.queue.iter().map(|Reverse(e)| e).collect();
        entries.sort();
        let domains: Vec<DomainState> = self
            .kernel
            .domains
            .iter()
            .map(|d| DomainState {
                name: d.name.clone(),
                hz: d.frequency,
                phase_origin: d.phase_origin,
                edges_since_origin: d.edges_since_origin,
                next_edge: d.next_edge,
                total_edges: d.total_edges,
                generation: d.generation,
                gated: d.gated,
            })
            .collect();
        let components: Vec<Json> = self
            .slots
            .iter()
            .map(|s| {
                let state = s
                    .component
                    .as_ref()
                    .expect("snapshot taken mid-dispatch")
                    .snapshot_state();
                Json::Obj(vec![
                    ("name".to_string(), s.name.to_json()),
                    ("due_cycle".to_string(), s.due_cycle.to_json()),
                    ("state".to_string(), state),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("now".to_string(), self.kernel.now.to_json()),
            ("seq".to_string(), self.kernel.seq.to_json()),
            (
                "actions_dispatched".to_string(),
                self.kernel.actions_dispatched.to_json(),
            ),
            ("queue".to_string(), entries.to_json()),
            ("domains".to_string(), domains.to_json()),
            ("components".to_string(), Json::Arr(components)),
        ])
    }

    /// Restores a snapshot taken by [`Engine::snapshot`] into this engine.
    ///
    /// The engine must have been rebuilt by the *same construction code* that
    /// produced the snapshotted engine (same domains, same components, same
    /// registration order, same strategy); names are validated to catch
    /// drift. After restore, running the engine is byte-identical to running
    /// the snapshotted engine.
    pub fn restore(&mut self, v: &Json) -> Result<(), JsonError> {
        let err = |msg: String| JsonError { msg };
        let now: SimTime = v.field("now")?;
        let seq: u64 = v.field("seq")?;
        let actions: u64 = v.field("actions_dispatched")?;
        let entries: Vec<QueueEntry> = v.field("queue")?;
        let domains: Vec<DomainState> = v.field("domains")?;
        if domains.len() != self.kernel.domains.len() {
            return Err(err(format!(
                "snapshot has {} clock domains, engine has {}",
                domains.len(),
                self.kernel.domains.len()
            )));
        }
        let components = v
            .required("components")?
            .as_array()
            .ok_or_else(|| err("components: expected array".into()))?;
        if components.len() != self.slots.len() {
            return Err(err(format!(
                "snapshot has {} components, engine has {}",
                components.len(),
                self.slots.len()
            )));
        }
        // Validate all names and queue targets before mutating anything.
        for (i, dv) in domains.iter().enumerate() {
            if dv.name != self.kernel.domains[i].name {
                return Err(err(format!(
                    "clock domain {i} is '{}' in the snapshot but '{}' in the engine",
                    dv.name, self.kernel.domains[i].name
                )));
            }
        }
        for (i, cv) in components.iter().enumerate() {
            let name: String = cv.field("name")?;
            if name != self.slots[i].name {
                return Err(err(format!(
                    "component {i} is '{}' in the snapshot but '{}' in the engine",
                    name, self.slots[i].name
                )));
            }
        }
        for e in &entries {
            match e.action {
                Action::Edge { domain, .. } if domain.index() >= self.kernel.domains.len() => {
                    return Err(err(format!("queued edge for unknown domain {}", domain.0)));
                }
                Action::Deliver { target, .. } if target.index() >= self.slots.len() => {
                    return Err(err(format!(
                        "queued event for unknown component {}",
                        target.0
                    )));
                }
                _ => {}
            }
        }

        // All decoded; now mutate.
        self.kernel.now = now;
        self.kernel.seq = seq;
        self.kernel.actions_dispatched = actions;
        self.kernel.stop_request = None;
        self.kernel.queue.clear();
        self.kernel.queue.extend(entries.into_iter().map(Reverse));
        for (d, dv) in self.kernel.domains.iter_mut().zip(domains) {
            d.frequency = dv.hz;
            d.phase_origin = dv.phase_origin;
            d.edges_since_origin = dv.edges_since_origin;
            d.next_edge = dv.next_edge;
            d.total_edges = dv.total_edges;
            d.generation = dv.generation;
            d.gated = dv.gated;
        }
        for (i, cv) in components.iter().enumerate() {
            self.slots[i].due_cycle = cv.field("due_cycle")?;
            self.slots[i]
                .component
                .as_mut()
                .expect("restore during dispatch")
                .restore_state(cv.required("state")?)
                .map_err(|e| err(format!("component '{}': {}", self.slots[i].name, e.msg)))?;
        }
        Ok(())
    }

    fn call(&mut self, id: ComponentId, domain: Option<ClockDomainId>, event: Option<Event>) {
        let mut component = self.slots[id.index()]
            .component
            .take()
            .expect("re-entrant component dispatch");
        {
            let mut ctx = EdgeCtx {
                kernel: &mut self.kernel,
                self_id: id,
                domain,
            };
            match event {
                Some(ev) => component.on_event(&mut ctx, ev),
                None => component.on_clock_edge(&mut ctx),
            }
        }
        self.slots[id.index()].component = Some(component);
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.kernel.now)
            .field("components", &self.slots.len())
            .field("clock_domains", &self.kernel.domains.len())
            .field("queued", &self.kernel.queue.len())
            .field("actions_dispatched", &self.kernel.actions_dispatched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EdgeCounter {
        edges: u64,
        last_cycle: u64,
    }
    impl Component for EdgeCounter {
        fn name(&self) -> &str {
            "edge-counter"
        }
        fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
            self.edges += 1;
            self.last_cycle = ctx.cycle();
        }
    }

    struct Echo {
        got: Vec<(u64, u64)>,
    }
    impl Component for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
            self.got.push((ctx.now().as_ps(), event.a));
            if event.key == 1 {
                // re-schedule once
                ctx.schedule_self(SimDuration::from_nanos(3), Event::with_arg(2, event.a + 1));
            }
        }
    }

    #[test]
    fn clock_edges_fire_at_exact_period() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            Some(clk),
        );
        e.run_for(SimDuration::from_nanos(95));
        // Edges at 10,20,...,90 ns => 9 edges.
        assert_eq!(e.component::<EdgeCounter>(id).edges, 9);
        assert_eq!(e.component::<EdgeCounter>(id).last_cycle, 9);
        assert_eq!(e.clock_info(clk).total_edges, 9);
    }

    #[test]
    fn events_deliver_in_schedule_order_at_same_time() {
        let mut e = Engine::new();
        let id = e.add_component(Echo { got: vec![] }, None);
        e.schedule(SimDuration::from_nanos(5), id, Event::with_arg(0, 10));
        e.schedule(SimDuration::from_nanos(5), id, Event::with_arg(0, 20));
        e.schedule(SimDuration::from_nanos(1), id, Event::with_arg(0, 30));
        e.run_for(SimDuration::from_nanos(10));
        let got = &e.component::<Echo>(id).got;
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (1_000, 30));
        assert_eq!(got[1], (5_000, 10));
        assert_eq!(got[2], (5_000, 20));
    }

    #[test]
    fn components_can_reschedule_themselves() {
        let mut e = Engine::new();
        let id = e.add_component(Echo { got: vec![] }, None);
        e.schedule(SimDuration::from_nanos(2), id, Event::with_arg(1, 0));
        e.run_for(SimDuration::from_nanos(20));
        let got = &e.component::<Echo>(id).got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], (5_000, 1));
    }

    #[test]
    fn frequency_reprogram_takes_effect() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            Some(clk),
        );
        e.run_for(SimDuration::from_nanos(100)); // 10 edges at 100 MHz
        assert_eq!(e.component::<EdgeCounter>(id).edges, 10);
        e.set_clock_frequency(clk, Frequency::from_mhz(200));
        e.run_for(SimDuration::from_nanos(100)); // 20 edges at 200 MHz
        assert_eq!(e.component::<EdgeCounter>(id).edges, 30);
        assert_eq!(e.clock_info(clk).frequency, Frequency::from_mhz(200));
    }

    #[test]
    fn gating_pauses_edges() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            Some(clk),
        );
        e.run_for(SimDuration::from_nanos(50));
        assert_eq!(e.component::<EdgeCounter>(id).edges, 5);
        e.gate_clock(clk, true);
        e.run_for(SimDuration::from_nanos(100));
        assert_eq!(e.component::<EdgeCounter>(id).edges, 5);
        e.gate_clock(clk, false);
        e.run_for(SimDuration::from_nanos(50));
        assert_eq!(e.component::<EdgeCounter>(id).edges, 10);
    }

    #[test]
    fn run_until_idle_without_clocks() {
        let mut e = Engine::new();
        let id = e.add_component(Echo { got: vec![] }, None);
        e.schedule(SimDuration::from_nanos(4), id, Event::with_arg(0, 1));
        let r = e.run_until(SimTime::from_ps(u64::MAX / 2));
        assert_eq!(r.reason, StopReason::Idle);
        assert_eq!(e.component::<Echo>(id).got.len(), 1);
    }

    struct Stopper;
    impl Component for Stopper {
        fn name(&self) -> &str {
            "stopper"
        }
        fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
            ctx.request_stop(event.a);
        }
    }

    #[test]
    fn stop_request_is_honoured() {
        let mut e = Engine::new();
        let _clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(Stopper, None);
        e.schedule(SimDuration::from_nanos(7), id, Event::with_arg(0, 99));
        let r = e.run_for(SimDuration::from_micros(1));
        assert_eq!(r.reason, StopReason::Stopped(99));
        assert_eq!(r.now, SimTime::from_ps(7_000));
    }

    #[test]
    fn run_until_condition_stops_early() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            Some(clk),
        );
        let (r, hit) = e.run_until_condition(SimTime::from_ps(u64::MAX / 2), |e| {
            e.component::<EdgeCounter>(id).edges >= 7
        });
        assert!(hit);
        assert_eq!(r.now, SimTime::from_ps(70_000));
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn typed_access_panics_on_wrong_type() {
        let mut e = Engine::new();
        let id = e.add_component(Stopper, None);
        let _ = e.component::<Echo>(id);
    }

    #[test]
    fn run_until_condition_times_out_cleanly() {
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            Some(clk),
        );
        let deadline = SimTime::from_ps(50_000); // 5 edges
        let (r, hit) =
            e.run_until_condition(deadline, |e| e.component::<EdgeCounter>(id).edges >= 100);
        assert!(!hit);
        assert_eq!(r.reason, StopReason::DeadlineReached);
        assert_eq!(e.now(), deadline);
        assert_eq!(e.component::<EdgeCounter>(id).edges, 5);
    }

    #[test]
    fn events_reach_clocked_components() {
        struct Both {
            edges: u64,
            events: Vec<u64>,
        }
        impl Component for Both {
            fn name(&self) -> &str {
                "both"
            }
            fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
                self.edges += 1;
            }
            fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
                // Clocked components see their domain's cycle count in events.
                self.events.push(ctx.cycle() * 1000 + event.a);
            }
        }
        let mut e = Engine::new();
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let id = e.add_component(
            Both {
                edges: 0,
                events: vec![],
            },
            Some(clk),
        );
        e.schedule(SimDuration::from_nanos(25), id, Event::with_arg(0, 7));
        e.run_for(SimDuration::from_nanos(100));
        let b = e.component::<Both>(id);
        assert_eq!(b.edges, 10);
        assert_eq!(b.events, vec![2 * 1000 + 7]); // after edge 2 (20 ns)
    }

    #[test]
    fn component_names_are_indexed_by_id() {
        let mut e = Engine::new();
        let a = e.add_component(Stopper, None);
        let b = e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            None,
        );
        assert_eq!(e.component_name(a), "stopper");
        assert_eq!(e.component_name(b), "edge-counter");
    }

    /// A ported component doing observable work every `period`-th cycle,
    /// counting raw dispatches so tests can prove spans were skipped.
    struct Beacon {
        period: u64,
        last_cycle: u64,
        raw_calls: u64,
        work: Vec<u64>,
    }
    impl Beacon {
        fn new(period: u64) -> Self {
            Beacon {
                period,
                last_cycle: 0,
                raw_calls: 0,
                work: Vec::new(),
            }
        }
    }
    impl Component for Beacon {
        fn name(&self) -> &str {
            "beacon"
        }
        fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
            let cycle = ctx.cycle();
            self.catch_up(cycle - 1);
            self.last_cycle = cycle;
            self.raw_calls += 1;
            if cycle.is_multiple_of(self.period) {
                self.work.push(cycle);
            }
        }
        fn next_wake(&self, now_cycle: u64) -> crate::component::NextWake {
            crate::component::NextWake::In(self.period - now_cycle % self.period)
        }
        fn catch_up(&mut self, cycle: u64) {
            if cycle > self.last_cycle {
                self.last_cycle = cycle;
            }
        }
    }

    /// Directed regression for the `ctx.cycle()` observation audit: the
    /// counters advance *before* member dispatch, so a component must see
    /// its own wake edge's 1-based cycle number — in both engines, at every
    /// wake, with identical clock/action accounting.
    #[test]
    fn cycle_observation_on_wake_edges_pinned_in_both_engines() {
        let run = |strategy: EngineStrategy| {
            let mut e = Engine::with_strategy(strategy);
            let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
            let id = e.add_component(Beacon::new(10), Some(clk));
            e.run_for(SimDuration::from_micros(1)); // 100 edges
            let b = e.component::<Beacon>(id);
            (
                b.work.clone(),
                b.raw_calls,
                b.last_cycle,
                e.clock_info(clk).total_edges,
                e.actions_dispatched(),
                e.now(),
            )
        };
        let tick = run(EngineStrategy::Tick);
        let skip = run(EngineStrategy::EventSkip);
        let expected: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(tick.0, expected, "tick engine must see wake-edge cycles");
        assert_eq!(skip.0, expected, "event engine must see wake-edge cycles");
        assert_eq!(tick.1, 100, "tick dispatches every edge");
        assert!(
            skip.1 <= 11,
            "event engine must skip quiescent edges, dispatched {}",
            skip.1
        );
        // Folded accounting is byte-identical: synced state, clocks, action
        // counts and time all match the tick oracle.
        assert_eq!(tick.2, skip.2, "catch_up must sync last_cycle at run end");
        assert_eq!(tick.3, skip.3, "total_edges");
        assert_eq!(tick.4, skip.4, "actions_dispatched counts folded edges");
        assert_eq!(tick.5, skip.5, "final now");
    }

    /// Events delivered between edges observe the same cycle count in both
    /// engines, even when the event lands inside a span the event engine
    /// would otherwise fold.
    #[test]
    fn event_delivery_observes_same_cycle_in_both_engines() {
        struct CycleProbe {
            seen: Vec<u64>,
        }
        impl Component for CycleProbe {
            fn name(&self) -> &str {
                "probe"
            }
            fn next_wake(&self, _now_cycle: u64) -> crate::component::NextWake {
                crate::component::NextWake::Idle
            }
            fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
                self.seen.push(ctx.cycle() * 1000 + event.a);
            }
        }
        let run = |strategy: EngineStrategy| {
            let mut e = Engine::with_strategy(strategy);
            let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
            let id = e.add_component(CycleProbe { seen: vec![] }, Some(clk));
            e.schedule(SimDuration::from_nanos(25), id, Event::with_arg(0, 7));
            e.schedule(SimDuration::from_nanos(91), id, Event::with_arg(0, 8));
            e.run_for(SimDuration::from_micros(1));
            (
                e.component::<CycleProbe>(id).seen.clone(),
                e.actions_dispatched(),
            )
        };
        let tick = run(EngineStrategy::Tick);
        let skip = run(EngineStrategy::EventSkip);
        assert_eq!(tick.0, vec![2 * 1000 + 7, 9 * 1000 + 8]);
        assert_eq!(tick, skip);
    }

    /// An idle domain folds whole runs into O(1) work while keeping the
    /// clock arithmetic exact across frequency re-programming.
    #[test]
    fn idle_fold_survives_reprogram_and_gating() {
        let run = |strategy: EngineStrategy| {
            let mut e = Engine::with_strategy(strategy);
            let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
            let id = e.add_component(Beacon::new(7), Some(clk));
            e.run_for(SimDuration::from_micros(1));
            e.set_clock_frequency(clk, Frequency::from_mhz(280));
            e.run_for(SimDuration::from_micros(1));
            e.gate_clock(clk, true);
            e.run_for(SimDuration::from_micros(1));
            e.gate_clock(clk, false);
            e.run_for(SimDuration::from_micros(1));
            let b = e.component::<Beacon>(id);
            (
                b.work.clone(),
                b.last_cycle,
                e.clock_info(clk).total_edges,
                e.actions_dispatched(),
                e.now(),
            )
        };
        assert_eq!(run(EngineStrategy::Tick), run(EngineStrategy::EventSkip));
    }

    #[test]
    fn determinism_same_setup_same_action_count() {
        let build = || {
            let mut e = Engine::new();
            let clk = e.add_clock_domain("clk", Frequency::from_mhz(310));
            let id = e.add_component(
                EdgeCounter {
                    edges: 0,
                    last_cycle: 0,
                },
                Some(clk),
            );
            e.run_for(SimDuration::from_micros(50));
            (e.actions_dispatched(), e.component::<EdgeCounter>(id).edges)
        };
        assert_eq!(build(), build());
    }
}

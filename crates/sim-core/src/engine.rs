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

use crate::clock::{ClockDomain, ClockDomainId, ClockDomainInfo, DomainCounters};
use crate::component::{Component, ComponentId, Event, NextWake};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::time::{Frequency, SimDuration, SimTime, PS_PER_SEC};
use crate::wake::{DirtyList, Waker};

/// How the engine advances a clock domain between interesting edges.
///
/// Both strategies produce byte-identical traces, reports and component
/// state; `Tick` exists as the oracle for differential testing (see
/// `tests/kernel_equivalence.rs` and `docs/KERNEL.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStrategy {
    /// Dispatch every rising edge of every running clock domain.
    Tick,
    /// Take a clock domain off the event queue ("park" it) while every
    /// member is quiescent (per [`Component::next_wake`]), and fire its
    /// edges in closed form until a member has work.
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

impl QueueEntry {
    /// The clock domain of an edge entry.
    fn edge_domain(&self) -> Option<ClockDomainId> {
        match self.action {
            Action::Edge { domain, .. } => Some(domain),
            Action::Deliver { .. } => None,
        }
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

/// Deterministic counts of how the kernel advanced, returned by
/// [`Engine::kernel_counters`]: plain integers, counted on every run, never
/// checkpointed. They depend only on the simulated work, so a test can pin
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCounters {
    /// Entries popped off the event queue: live and stale edges and event
    /// deliveries. A dispatched edge overwritten in place by its successor
    /// counts as popped; a parked domain's edges pop nothing.
    pub queue_pops: u64,
    /// [`Component::next_wake`] polls. The tick engine never polls.
    pub polls: u64,
    /// [`Component::on_clock_edge`] calls. The tick engine calls every
    /// member on every edge; event-skip calls only members with work.
    pub calls: u64,
    /// Per clock domain, in registration order, with the domain's name.
    pub domains: Vec<(String, DomainCounters)>,
}

/// Scheduler state shared with components during dispatch.
#[derive(Debug)]
struct Kernel {
    queue: BinaryHeap<Reverse<QueueEntry>>,
    /// The next edge of every parked domain, ascending by `(time, seq)`:
    /// exactly the entry the tick engine holds in its queue for that domain.
    /// Event-skip only (see `docs/KERNEL.md` §3).
    parked: Vec<QueueEntry>,
    now: SimTime,
    seq: u64,
    domains: Vec<ClockDomain>,
    stop_request: Option<u64>,
    actions_dispatched: u64,
    queue_pops: u64,
    polls: u64,
    calls: u64,
}

impl Kernel {
    fn push(&mut self, time: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry { time, seq, action }));
    }

    /// The domain's next edge as a queue entry, taking the next sequence
    /// number.
    fn next_edge_entry(&mut self, id: ClockDomainId) -> QueueEntry {
        let d = &self.domains[id.index()];
        let entry = QueueEntry {
            time: d.next_edge_time(),
            seq: self.seq,
            action: Action::Edge {
                domain: id,
                generation: d.generation,
            },
        };
        self.seq += 1;
        entry
    }

    fn schedule_edge(&mut self, id: ClockDomainId) {
        if !self.domains[id.index()].gated {
            let entry = self.next_edge_entry(id);
            self.queue.push(Reverse(entry));
        }
    }

    /// Retires a dispatched edge and queues its `successor`, if any. An
    /// edge popped off the parked list (`dispatched` is `None`) is already
    /// gone, so its successor is pushed. An edge from the queue was left at
    /// the top while its members ran: everything they pushed lies at or
    /// after it in time and takes a later sequence number, so it is still
    /// the minimum. The successor overwrites it in place, one sift-down
    /// instead of a pop and a push; without one, it pops.
    fn requeue(&mut self, dispatched: Option<QueueEntry>, successor: Option<QueueEntry>) {
        match (dispatched, successor) {
            (Some(done), Some(next)) => {
                let mut top = self
                    .queue
                    .peek_mut()
                    .expect("the dispatched edge is queued");
                debug_assert!(top.0 == done, "the dispatched edge left the queue top");
                top.0 = next;
            }
            (Some(done), None) => {
                let top = self.queue.pop();
                debug_assert!(
                    top == Some(Reverse(done)),
                    "the dispatched edge left the queue top"
                );
            }
            (None, Some(next)) => self.queue.push(Reverse(next)),
            (None, None) => {}
        }
    }

    /// Parks a running domain: its next edge goes on the parked list with
    /// the sequence number the tick engine's re-push would take.
    fn park(&mut self, id: ClockDomainId) {
        let entry = self.next_edge_entry(id);
        let at = self.parked.partition_point(|e| *e < entry);
        self.parked.insert(at, entry);
    }

    /// Moves a parked domain's next edge onto the event queue unchanged.
    /// Called before a re-program or gate turns that edge stale, so it pops
    /// (as a counted no-op) exactly where the tick engine's would.
    fn unpark(&mut self, id: ClockDomainId) {
        if let Some(i) = self.parked.iter().position(|e| e.edge_domain() == Some(id)) {
            let entry = self.parked.remove(i);
            self.queue.push(Reverse(entry));
        }
    }

    fn set_frequency(&mut self, id: ClockDomainId, frequency: Frequency) {
        self.unpark(id);
        let now = self.now;
        self.domains[id.index()].set_frequency(now, frequency);
        self.schedule_edge(id);
    }

    fn set_gated(&mut self, id: ClockDomainId, gated: bool) {
        if gated {
            self.unpark(id);
        }
        let now = self.now;
        let was = self.domains[id.index()].gated;
        self.domains[id.index()].set_gated(now, gated);
        if was && !gated {
            self.schedule_edge(id);
        }
    }
}

/// What [`Engine::step`] did.
enum Step {
    /// Dispatched the next action.
    Ran,
    /// The next action lies beyond the deadline.
    PastDeadline,
    /// Nothing is queued or parked.
    Idle,
}

/// A parked domain's part in a closed-form fold: `k` edges from origin
/// index `n0` (the parked entry, sequence number `seq`).
struct Span {
    domain: ClockDomainId,
    seq: u64,
    n0: u64,
    k: u64,
}

/// Whether domain `x`'s edge `a` pops before domain `y`'s edge `b`, both on
/// the same instant inside a parked fold.
///
/// Each domain's first entry of the fold (index `n0`) keeps the sequence
/// number it was parked with, older than every entry pushed during the
/// fold. A later entry was pushed when the domain's previous edge popped,
/// so two such entries order as those two pops did, one edge back. On a
/// shared grid the walk back only ends at a first entry: the domain whose
/// fold started later gets there first and holds the older entry.
fn pops_first(x: (&ClockDomain, &Span), mut a: u64, y: (&ClockDomain, &Span), mut b: u64) -> bool {
    let ((dx, sx), (dy, sy)) = (x, y);
    loop {
        match (a == sx.n0, b == sy.n0) {
            (true, true) => return sx.seq < sy.seq,
            (true, false) => return true,
            (false, true) => return false,
            (false, false) => {}
        }
        let (pa, pb) = (dx.edge_time(a - 1), dy.edge_time(b - 1));
        if pa != pb {
            return pa < pb;
        }
        if dx.same_grid(dy) {
            let (fa, fb) = (dx.edge_time(sx.n0), dy.edge_time(sy.n0));
            return if fa != fb { fa > fb } else { sx.seq < sy.seq };
        }
        a -= 1;
        b -= 1;
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
    /// Marks this slot dirty; its sensitivity list's sources hold clones.
    waker: Waker,
}

/// The simulation engine: owns components, clock domains and the event queue.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Engine {
    kernel: Kernel,
    slots: Vec<Slot>,
    strategy: EngineStrategy,
    /// Components whose sensitivity lists saw a write since the last
    /// wake refresh.
    dirty: DirtyList,
    /// The members called on the edge being dispatched, kept for its
    /// capacity.
    called: Vec<ComponentId>,
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
                parked: Vec::new(),
                now: SimTime::ZERO,
                seq: 0,
                domains: Vec::new(),
                stop_request: None,
                actions_dispatched: 0,
                queue_pops: 0,
                polls: 0,
                calls: 0,
            },
            slots: Vec::new(),
            strategy,
            dirty: DirtyList::default(),
            called: Vec::new(),
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

    /// How this engine advanced since it was built: queue pops, wake
    /// polls, member calls, and per clock domain the dispatched, folded and
    /// parked edges.
    pub fn kernel_counters(&self) -> KernelCounters {
        KernelCounters {
            queue_pops: self.kernel.queue_pops,
            polls: self.kernel.polls,
            calls: self.kernel.calls,
            domains: self
                .kernel
                .domains
                .iter()
                .map(|d| (d.name.clone(), d.counters))
                .collect(),
        }
    }

    /// Registers a clock domain running at `frequency`; its first edge fires
    /// one period after the current instant.
    pub fn add_clock_domain(&mut self, name: &str, frequency: Frequency) -> ClockDomainId {
        let id = ClockDomainId(self.kernel.domains.len() as u32);
        let mut domain = ClockDomain::new(name.to_string(), frequency);
        domain.phase_origin = self.kernel.now;
        self.kernel.domains.push(domain);
        // The parked list holds at most one entry per domain: it never
        // grows while the engine runs.
        self.kernel.parked.reserve(1);
        self.kernel.schedule_edge(id);
        id
    }

    /// Registers a component, optionally binding it to a clock domain, and
    /// takes its sensitivity list ([`Component::sensitivity`]).
    ///
    /// Bound components receive [`Component::on_clock_edge`] on every rising
    /// edge of that domain on which they have work (every edge under
    /// [`EngineStrategy::Tick`]), in registration order.
    pub fn add_component<C: Component>(
        &mut self,
        component: C,
        domain: Option<ClockDomainId>,
    ) -> ComponentId {
        let id = ComponentId(self.slots.len() as u32);
        let name = component.name().to_string();
        let waker = Waker::new(&self.dirty, id.0);
        component.sensitivity(&waker);
        self.slots.push(Slot {
            component: Some(Box::new(component)),
            name,
            domain,
            due_cycle: 0,
            waker,
        });
        if let Some(d) = domain {
            self.kernel.domains[d.index()].members.push(id);
            let members = self.kernel.domains[d.index()].members.len();
            self.called.reserve(members);
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

    /// Typed exclusive access to a registered component. Marks it dirty:
    /// the next run re-polls its wake, so re-arming a component between
    /// runs needs no sensitivity-list entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a component of type `T`.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> &mut T {
        let slot = &mut self.slots[id.index()];
        slot.waker.wake();
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
        self.start_run();
        let reason = loop {
            match self.step(deadline) {
                Step::Idle => break StopReason::Idle,
                Step::PastDeadline => {
                    self.kernel.now = deadline;
                    break StopReason::DeadlineReached;
                }
                Step::Ran => {
                    if let Some(code) = self.kernel.stop_request.take() {
                        break StopReason::Stopped(code);
                    }
                }
            }
        };
        self.sync_components();
        RunResult {
            reason,
            now: self.kernel.now,
            actions: self.kernel.actions_dispatched - start_actions,
        }
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
        self.start_run();
        let (reason, hit) = loop {
            if predicate(self) {
                break (StopReason::Stopped(0), true);
            }
            match self.step(deadline) {
                Step::Idle => break (StopReason::Idle, false),
                Step::PastDeadline => {
                    self.kernel.now = deadline;
                    break (StopReason::DeadlineReached, false);
                }
                Step::Ran => {
                    if let Some(code) = self.kernel.stop_request.take() {
                        break (StopReason::Stopped(code), false);
                    }
                }
            }
        };
        self.sync_components();
        let result = RunResult {
            reason,
            now: self.kernel.now,
            actions: self.kernel.actions_dispatched - start_actions,
        };
        (result, hit)
    }

    /// Runs the next action in the tick engine's order, first firing the
    /// parked edges that precede it. A parked domain whose member has work
    /// on its next edge leaves the parked list and dispatches that edge.
    fn step(&mut self, deadline: SimTime) -> Step {
        loop {
            let head = self.kernel.queue.peek().map(|Reverse(e)| *e);
            if let Some(&p) = self.kernel.parked.first() {
                if head.is_none_or(|h| p < h) {
                    if p.time > deadline {
                        return Step::PastDeadline;
                    }
                    let domain = p.edge_domain().expect("parked entries are edges");
                    if self.due(domain) {
                        self.kernel.parked.remove(0);
                        self.kernel.now = p.time;
                        self.run_edge(domain, None);
                        return Step::Ran;
                    }
                    let past_deadline = SimTime::from_ps(deadline.as_ps().saturating_add(1));
                    self.advance_parked(head.map_or(past_deadline, |h| h.time.min(past_deadline)));
                    continue;
                }
            }
            let Some(entry) = head else {
                return Step::Idle;
            };
            if entry.time > deadline {
                return Step::PastDeadline;
            }
            self.kernel.queue_pops += 1;
            debug_assert!(entry.time >= self.kernel.now, "time ran backwards");
            self.kernel.now = entry.time;
            self.execute(entry);
            return Step::Ran;
        }
    }

    /// Executes the entry at the queue top, which the caller has counted
    /// as popped, and takes it off the queue. A live edge that dispatches
    /// stays at the top until its successor overwrites it
    /// ([`Kernel::requeue`]). Under event-skip, a
    /// live edge on which every member sleeps is accounted as the tick
    /// engine's no-op dispatch without calling the members, and its domain
    /// parks.
    fn execute(&mut self, entry: QueueEntry) {
        match entry.action {
            Action::Edge { domain, generation } => {
                let d = &mut self.kernel.domains[domain.index()];
                d.counters.pops += 1;
                if d.gated || d.generation != generation {
                    // Stale edge from before a re-program or gate: both
                    // kernels count it as a no-op dispatch.
                    self.kernel.queue.pop();
                    self.kernel.actions_dispatched += 1;
                } else if self.strategy == EngineStrategy::Tick || self.due(domain) {
                    self.run_edge(domain, Some(entry));
                } else {
                    self.kernel.queue.pop();
                    let d = &mut self.kernel.domains[domain.index()];
                    d.advance(1);
                    d.counters.folded += 1;
                    self.kernel.actions_dispatched += 1;
                    self.kernel.park(domain);
                }
            }
            Action::Deliver { target, event } => {
                self.kernel.queue.pop();
                self.kernel.actions_dispatched += 1;
                let domain = self.slots[target.index()].domain;
                self.call(target, domain, Some(event));
                if self.strategy == EngineStrategy::EventSkip {
                    self.refresh_wakes(&[target]);
                }
            }
        }
    }

    /// Dispatches a live edge of `domain`: advances its counters (so
    /// `ctx.cycle()` observes the edge being processed), calls its members
    /// in registration order, then queues its next edge — or, under
    /// event-skip, parks the domain if every member sleeps through it.
    /// `dispatched` is the edge's entry while it sits at the queue top,
    /// `None` for an edge taken off the parked list.
    ///
    /// Under event-skip a member sleeping past this edge is not called,
    /// unless it is dirty when its turn comes: a member earlier in the
    /// order may have just fed it, and the tick engine's call would act on
    /// that input on this very edge. Its `catch_up` covers the skipped edge.
    fn run_edge(&mut self, domain: ClockDomainId, dispatched: Option<QueueEntry>) {
        self.kernel.actions_dispatched += 1;
        let (generation, cycle, members) = {
            let d = &mut self.kernel.domains[domain.index()];
            d.advance(1);
            d.counters.dispatched += 1;
            (d.generation, d.total_edges, std::mem::take(&mut d.members))
        };
        let skip = self.strategy == EngineStrategy::EventSkip;
        let mut called = std::mem::take(&mut self.called);
        for &id in &members {
            let slot = &self.slots[id.index()];
            if skip && slot.due_cycle > cycle && !slot.waker.is_marked() {
                continue;
            }
            self.kernel.calls += 1;
            self.call(id, Some(domain), None);
            called.push(id);
        }
        let d = &mut self.kernel.domains[domain.index()];
        debug_assert!(d.members.is_empty(), "members registered mid-edge");
        d.members = members;
        // A member that re-programmed or gated the domain has already
        // queued its next edge (or none).
        let current = d.generation == generation && !d.gated;
        if skip {
            // The poll pushes nothing, so the next edge takes the same
            // sequence number as in the tick engine.
            self.refresh_wakes(&called);
        }
        called.clear();
        self.called = called;
        let successor = if !current {
            None
        } else if skip && !self.due(domain) {
            self.kernel.park(domain);
            None
        } else {
            Some(self.kernel.next_edge_entry(domain))
        };
        self.kernel.requeue(dispatched, successor);
    }

    /// The earliest cycle on which a member of `domain` declared work
    /// (`u64::MAX` when all sleep until new input).
    fn min_due(&self, domain: ClockDomainId) -> u64 {
        let d = &self.kernel.domains[domain.index()];
        d.members
            .iter()
            .map(|m| self.slots[m.index()].due_cycle)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Whether some member of `domain` declared work on its next edge.
    fn due(&self, domain: ClockDomainId) -> bool {
        self.min_due(domain) <= self.kernel.domains[domain.index()].total_edges + 1
    }

    /// Fires the earliest parked edge, whose members all sleep, together
    /// with every other parked edge that pops before `bound` (exclusive:
    /// the queue head, or one past the deadline) and before any parked
    /// domain's wake. One domain alone on the span steps one edge; several
    /// edges fold in closed form ([`Engine::fold_parked`]).
    fn advance_parked(&mut self, bound: SimTime) {
        let head = self.kernel.parked[0];
        let id = head.edge_domain().expect("parked entries are edges");
        let d = &self.kernel.domains[id.index()];
        let after = d.edge_time(d.next_edge + 1);
        if after < bound && self.fold_parked(bound) {
            return;
        }
        // The tick engine pops this edge, dispatches it as a no-op and
        // pushes the next one: here the next one takes the head's place
        // and moves back past every entry that pops before it.
        let d = &mut self.kernel.domains[id.index()];
        d.advance(1);
        d.counters.parked += 1;
        self.kernel.now = head.time;
        self.kernel.actions_dispatched += 1;
        let parked = &mut self.kernel.parked;
        parked[0] = QueueEntry {
            time: after,
            seq: self.kernel.seq,
            action: head.action,
        };
        self.kernel.seq += 1;
        let mut i = 0;
        while i + 1 < parked.len() && parked[i + 1] < parked[i] {
            parked.swap(i, i + 1);
            i += 1;
        }
    }

    /// Folds every parked domain's edges before `bound` and before the
    /// earliest parked wake in one step. Returns false, folding nothing,
    /// when the head domain has fewer than two edges in that span.
    ///
    /// Exactness: each domain's clock counters advance by its `k` edges,
    /// time moves to the last folded edge, and `actions_dispatched` and the
    /// sequence counter grow by the total, as that many tick pops would.
    /// Each domain's next entry takes the sequence number the tick engine
    /// gave it: the counter plus every pop before that domain's last one —
    /// its own earlier edges, other domains' earlier edges, and their edges
    /// on the same instant that pop first ([`pops_first`]).
    fn fold_parked(&mut self, bound: SimTime) -> bool {
        // A wake ends the span for every domain: the woken edge dispatches,
        // and what it pushes can land anywhere after it.
        let mut limit = bound;
        for e in &self.kernel.parked {
            let id = e.edge_domain().expect("parked entries are edges");
            let (due, d) = (self.min_due(id), &self.kernel.domains[id.index()]);
            if due == u64::MAX {
                continue;
            }
            let wake = due.saturating_sub(d.total_edges + 1);
            if wake < d.edges_before(limit) {
                limit = d.edge_time(d.next_edge + wake);
            }
        }
        let domains = &self.kernel.domains;
        let spans: Vec<Span> = self
            .kernel
            .parked
            .iter()
            .map(|e| {
                let domain = e.edge_domain().expect("parked entries are edges");
                let d = &domains[domain.index()];
                Span {
                    domain,
                    seq: e.seq,
                    n0: d.next_edge,
                    k: d.edges_before(limit),
                }
            })
            .collect();
        if spans[0].k < 2 {
            return false;
        }

        let start_seq = self.kernel.seq;
        let mut seqs = Vec::with_capacity(spans.len());
        for x in &spans {
            let dx = &domains[x.domain.index()];
            if x.k == 0 {
                seqs.push(None);
                continue;
            }
            let a = x.n0 + x.k - 1;
            let t = dx.edge_time(a);
            let mut before = x.k - 1;
            for y in spans.iter().filter(|y| y.domain != x.domain) {
                let dy = &domains[y.domain.index()];
                let c = dy.edges_before(t);
                debug_assert!(c <= y.k, "fold span overran a domain");
                before += c;
                let b = y.n0 + c;
                if c < y.k && dy.edge_time(b) == t && pops_first((dy, y), b, (dx, x), a) {
                    before += 1;
                }
            }
            seqs.push(Some(start_seq + before));
        }

        let mut total = 0;
        let mut last = self.kernel.now;
        for ((span, seq), entry) in spans.iter().zip(seqs).zip(&mut self.kernel.parked) {
            let Some(seq) = seq else {
                continue;
            };
            let d = &mut self.kernel.domains[span.domain.index()];
            last = last.max(d.edge_time(span.n0 + span.k - 1));
            d.advance(span.k);
            d.counters.parked += span.k;
            total += span.k;
            entry.time = d.next_edge_time();
            entry.seq = seq;
        }
        self.kernel.parked.sort_unstable();
        self.kernel.now = last;
        self.kernel.actions_dispatched += total;
        self.kernel.seq += total;
        true
    }

    /// Starts a run. Harness code may have pushed FIFOs, written
    /// registers or re-armed components since the previous run returned;
    /// their sensitivity lists and [`Engine::component_mut`] marked them
    /// dirty, and the refresh re-polls them.
    fn start_run(&mut self) {
        self.kernel.stop_request = None;
        if self.strategy == EngineStrategy::EventSkip {
            self.refresh_wakes(&[]);
        }
    }

    /// Re-polls wake declarations after a dispatched action.
    ///
    /// The components just called — the members that ran on the edge, or
    /// the event's target — answer authoritatively: their state is freshly
    /// synchronised, so the poll may move the wake later. Every other
    /// dirty component is min-merged: it may not be synchronised, and a
    /// write can only have brought its work earlier, never later (an early
    /// wake is always safe, see `docs/KERNEL.md` §2). No other component
    /// is polled: nothing it declared sensitivity to was written.
    fn refresh_wakes(&mut self, called: &[ComponentId]) {
        for &id in called {
            self.poll(id, true);
        }
        loop {
            let Some(id) = self.dirty.borrow_mut().pop() else {
                break;
            };
            let id = ComponentId(id);
            self.slots[id.index()].waker.clear_mark();
            if !called.contains(&id) {
                self.poll(id, false);
            }
        }
        #[cfg(debug_assertions)]
        self.audit_wakes();
    }

    /// Polls one component's wake: authoritatively, or min-merged into its
    /// stored wake. A min-merge skips a component already due on its next
    /// edge, since it cannot move that wake earlier.
    fn poll(&mut self, id: ComponentId, authoritative: bool) {
        let slot = &self.slots[id.index()];
        let (Some(domain), Some(component)) = (slot.domain, slot.component.as_ref()) else {
            return;
        };
        let now_cycle = self.kernel.domains[domain.index()].total_edges;
        if !authoritative && slot.due_cycle <= now_cycle + 1 {
            return;
        }
        self.kernel.polls += 1;
        let due = due_cycle(now_cycle, component.next_wake(now_cycle));
        let slot = &mut self.slots[id.index()];
        slot.due_cycle = if authoritative {
            due
        } else {
            slot.due_cycle.min(due)
        };
    }

    /// Debug builds: checks every sleeping component's declaration against
    /// its stored wake after a refresh. A poll that would move a wake
    /// earlier means some write reached the component through a source
    /// missing from its sensitivity list, and the kernel would have slept
    /// through work the tick engine does.
    #[cfg(debug_assertions)]
    fn audit_wakes(&self) {
        for slot in &self.slots {
            let (Some(domain), Some(component)) = (slot.domain, slot.component.as_ref()) else {
                continue;
            };
            let now_cycle = self.kernel.domains[domain.index()].total_edges;
            if slot.due_cycle <= now_cycle + 1 {
                continue;
            }
            let due = due_cycle(now_cycle, component.next_wake(now_cycle));
            assert!(
                due >= slot.due_cycle,
                "component '{}' now declares a wake at cycle {due}, before its stored wake at \
                 cycle {}: a write it depends on is missing from its sensitivity list",
                slot.name,
                slot.due_cycle
            );
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
        // Parked domains' next edges render where the tick engine queues them.
        let mut entries: Vec<&QueueEntry> = self.kernel.queue.iter().map(|Reverse(e)| e).collect();
        entries.extend(&self.kernel.parked);
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
        // The queue must be one the kernel can build: parking and the run
        // loop rely on every running domain having exactly one live edge.
        let mut seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        if let Some(w) = seqs.windows(2).find(|w| w[0] == w[1]) {
            return Err(err(format!("queue sequence number {} repeats", w[0])));
        }
        if let Some(&max) = seqs.last().filter(|&&max| max >= seq) {
            return Err(err(format!(
                "queue sequence number {max} is not below the counter {seq}"
            )));
        }
        for e in &entries {
            if e.time < now {
                return Err(err(format!(
                    "queue entry at {} ps precedes now ({} ps)",
                    e.time.as_ps(),
                    now.as_ps()
                )));
            }
            match e.action {
                Action::Edge { domain, generation } => {
                    let Some(dv) = domains.get(domain.index()) else {
                        return Err(err(format!("queued edge for unknown domain {}", domain.0)));
                    };
                    if generation > dv.generation {
                        return Err(err(format!(
                            "queued edge of clock domain '{}' has generation {generation}, \
                             beyond the domain's {}",
                            dv.name, dv.generation
                        )));
                    }
                }
                Action::Deliver { target, .. } if target.index() >= self.slots.len() => {
                    return Err(err(format!(
                        "queued event for unknown component {}",
                        target.0
                    )));
                }
                Action::Deliver { .. } => {}
            }
        }
        for (i, dv) in domains.iter().enumerate() {
            let live: Vec<SimTime> = entries
                .iter()
                .filter(|e| {
                    e.action
                        == Action::Edge {
                            domain: ClockDomainId(i as u32),
                            generation: dv.generation,
                        }
                })
                .map(|e| e.time)
                .collect();
            if dv.gated {
                if !live.is_empty() {
                    return Err(err(format!(
                        "gated clock domain '{}' has a live edge queued",
                        dv.name
                    )));
                }
                continue;
            }
            // In 128 bits: a corrupt edge index must not overflow.
            let next = dv.phase_origin.as_ps() as u128
                + dv.next_edge as u128 * PS_PER_SEC as u128 / dv.hz.as_hz() as u128;
            if live.len() != 1 || live[0].as_ps() as u128 != next {
                return Err(err(format!(
                    "running clock domain '{}' needs one live edge at {next} ps, \
                     the queue holds {live:?}",
                    dv.name
                )));
            }
        }

        // All decoded; now mutate.
        self.kernel.now = now;
        self.kernel.seq = seq;
        self.kernel.actions_dispatched = actions;
        self.kernel.stop_request = None;
        // Sleeping domains park again as their first edge pops.
        self.kernel.parked.clear();
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
            // The restored state's pending writes were never marked on
            // this engine: the next run re-polls every component.
            self.slots[i].waker.wake();
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

/// The absolute cycle a declaration made at `now_cycle` asks to wake on.
fn due_cycle(now_cycle: u64, wake: NextWake) -> u64 {
    match wake {
        NextWake::EveryCycle => now_cycle + 1,
        NextWake::In(n) => now_cycle.saturating_add(n.max(1)),
        NextWake::Idle => u64::MAX,
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.kernel.now)
            .field("components", &self.slots.len())
            .field("clock_domains", &self.kernel.domains.len())
            .field("queued", &self.kernel.queue.len())
            .field("parked", &self.kernel.parked.len())
            .field("actions_dispatched", &self.kernel.actions_dispatched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wake::WakeSource;

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

    /// Pops one item per edge and sleeps while its FIFO is empty, with or
    /// without the FIFO on its sensitivity list.
    struct Drain {
        input: crate::fifo::Consumer<u32>,
        declared: bool,
        popped: u64,
    }
    impl Component for Drain {
        fn name(&self) -> &str {
            "drain"
        }
        fn sensitivity(&self, waker: &Waker) {
            if self.declared {
                self.input.subscribe(waker);
            }
        }
        fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
            self.popped += self.input.pop().map_or(0, |_| 1);
        }
        fn next_wake(&self, _now_cycle: u64) -> NextWake {
            if self.input.is_empty() {
                NextWake::Idle
            } else {
                NextWake::EveryCycle
            }
        }
    }

    /// A busy counter and a drain on one domain, with `items` queued for
    /// the drain between two 10-edge runs.
    fn drain_beside_a_counter(strategy: EngineStrategy, declared: bool) -> (Engine, ComponentId) {
        let mut e = Engine::with_strategy(strategy);
        let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
        let (tx, rx) = crate::fifo::fifo_channel("in", 4);
        e.add_component(
            EdgeCounter {
                edges: 0,
                last_cycle: 0,
            },
            Some(clk),
        );
        let id = e.add_component(
            Drain {
                input: rx,
                declared,
                popped: 0,
            },
            Some(clk),
        );
        e.run_for(SimDuration::from_nanos(100));
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        e.run_for(SimDuration::from_nanos(100));
        (e, id)
    }

    #[test]
    fn sleeping_members_are_not_called_until_a_write_wakes_them() {
        let (tick, tick_id) = drain_beside_a_counter(EngineStrategy::Tick, true);
        let (skip, skip_id) = drain_beside_a_counter(EngineStrategy::EventSkip, true);
        assert_eq!(tick.component::<Drain>(tick_id).popped, 2);
        assert_eq!(skip.component::<Drain>(skip_id).popped, 2);
        assert_eq!(tick.kernel_counters().calls, 40);
        // The counter runs on all 20 edges; the drain runs on the first
        // edge (nothing polled it yet) and on the two edges with an item.
        assert_eq!(skip.kernel_counters().calls, 23);
        assert_eq!(tick.kernel_counters().polls, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "component 'drain' now declares a wake")]
    fn wake_audit_names_a_component_with_an_undeclared_source() {
        drain_beside_a_counter(EngineStrategy::EventSkip, false);
    }

    #[test]
    fn irq_level_changes_wake_listeners() {
        /// Counts the edges on which its line is raised.
        struct IrqWatcher {
            line: crate::irq::IrqLine,
            seen: u64,
        }
        impl Component for IrqWatcher {
            fn name(&self) -> &str {
                "irq-watcher"
            }
            fn sensitivity(&self, waker: &Waker) {
                self.line.subscribe(waker);
            }
            fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
                self.seen += self.line.is_raised() as u64;
            }
            fn next_wake(&self, _now_cycle: u64) -> NextWake {
                if self.line.is_raised() {
                    NextWake::EveryCycle
                } else {
                    NextWake::Idle
                }
            }
        }
        let run = |strategy| {
            let mut e = Engine::with_strategy(strategy);
            let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
            let line = crate::irq::IrqBus::new().allocate("irq");
            let id = e.add_component(
                IrqWatcher {
                    line: line.clone(),
                    seen: 0,
                },
                Some(clk),
            );
            e.run_for(SimDuration::from_nanos(50));
            line.raise(e.now());
            e.run_for(SimDuration::from_nanos(30));
            line.clear();
            e.run_for(SimDuration::from_nanos(50));
            (
                e.component::<IrqWatcher>(id).seen,
                e.kernel_counters().calls,
            )
        };
        assert_eq!(run(EngineStrategy::Tick), (3, 13));
        // The first edge, the three raised ones, and the one after the
        // clear: a write never moves a wake later, so the watcher finds the
        // line low once before it sleeps again.
        assert_eq!(run(EngineStrategy::EventSkip), (3, 5));
    }

    /// What a [`Lever`] does to its own domain on every eighth edge.
    #[derive(Clone, Copy)]
    enum Pull {
        Reprogram,
        Gate,
        SelfEvent,
    }

    /// Works on five edges of every eight and sleeps through the other
    /// three, pulling its own domain's lever on the fifth.
    struct Lever {
        pull: Pull,
        log: Vec<(u64, u64)>,
    }
    impl Component for Lever {
        fn name(&self) -> &str {
            "lever"
        }
        fn on_clock_edge(&mut self, ctx: &mut EdgeCtx<'_>) {
            let cycle = ctx.cycle();
            if cycle % 8 >= 5 {
                return;
            }
            self.log.push((ctx.now().as_ps(), cycle));
            let own = ctx.domain().expect("clocked");
            match (self.pull, cycle % 8 == 4) {
                (Pull::Reprogram, true) => {
                    let mhz = if ctx.clock_frequency(own) == Frequency::from_mhz(100) {
                        150
                    } else {
                        100
                    };
                    ctx.set_clock_frequency(own, Frequency::from_mhz(mhz));
                }
                (Pull::Gate, true) => ctx.gate_clock(own, true),
                (Pull::SelfEvent, _) => {
                    ctx.schedule_self(SimDuration::ZERO, Event::with_arg(0, cycle))
                }
                _ => {}
            }
        }
        fn on_event(&mut self, ctx: &mut EdgeCtx<'_>, event: Event) {
            self.log.push((ctx.now().as_ps(), 1_000_000 + event.a));
        }
        fn next_wake(&self, now_cycle: u64) -> NextWake {
            match (now_cycle + 1) % 8 {
                c @ 5..=7 => NextWake::In(9 - c),
                _ => NextWake::EveryCycle,
            }
        }
    }

    /// The dispatched edge's successor, a member re-programming or gating
    /// its own domain mid-edge, and a zero-delay event on the same instant
    /// leave the queue (every entry with its sequence number), the clocks
    /// and the work order exactly as pinned, in both kernels, after every
    /// run segment. A sleeping beacon on a second domain parks around them.
    #[test]
    fn dispatched_edge_successors_are_pinned_in_both_kernels() {
        let run = |strategy, pull| {
            let mut e = Engine::with_strategy(strategy);
            let own = e.add_clock_domain("own", Frequency::from_mhz(100));
            let other = e.add_clock_domain("other", Frequency::from_mhz(70));
            let lever = e.add_component(Lever { pull, log: vec![] }, Some(own));
            e.add_component(Beacon::new(5), Some(other));
            let mut states = Vec::new();
            for _ in 0..4 {
                e.run_for(SimDuration::from_nanos(230));
                let mut state = e.snapshot();
                if let Json::Obj(fields) = &mut state {
                    fields.retain(|(k, _)| k != "components");
                }
                states.push(state.render());
                e.gate_clock(own, false);
            }
            let log = e.component::<Lever>(lever).log.clone();
            (states, log, e.kernel_counters().queue_pops)
        };
        for (pull, pin) in [
            (Pull::Reprogram, 0x8104_5e54_c702_7353),
            (Pull::Gate, 0x6e84_9ef1_03db_00b7),
            (Pull::SelfEvent, 0x8a2b_08ed_ccdf_0752),
        ] {
            let tick = run(EngineStrategy::Tick, pull);
            let skip = run(EngineStrategy::EventSkip, pull);
            assert_eq!(tick.0, skip.0, "queue or clocks diverged");
            assert_eq!(tick.1, skip.1, "work order diverged");
            let digest = crate::fnv1a(format!("{tick:?}").as_bytes());
            assert_eq!(digest, pin, "{tick:?}");
        }
    }

    /// Two clocked domains (one gated mid-run), a pending event, and a
    /// snapshot of the lot, for the restore-validation tests.
    fn restorable() -> (impl Fn() -> Engine, Json) {
        let build = || {
            let mut e = Engine::new();
            let a = e.add_clock_domain("a", Frequency::from_mhz(100));
            let b = e.add_clock_domain("b", Frequency::from_mhz(280));
            e.add_component(Beacon::new(7), Some(a));
            e.add_component(Beacon::new(3), Some(b));
            e.add_component(Echo { got: vec![] }, None);
            (e, b)
        };
        let (mut e, b) = build();
        e.schedule(SimDuration::from_micros(5), ComponentId(2), Event::new(0));
        e.run_for(SimDuration::from_nanos(500));
        e.gate_clock(b, true);
        e.run_for(SimDuration::from_nanos(100));
        let snap = e.snapshot();
        (move || build().0, snap)
    }

    /// Applies `edit` to the snapshot's queue array and restores the result
    /// into a fresh engine.
    fn restore_edited(edit: impl FnOnce(&mut Vec<Json>)) -> Result<(), JsonError> {
        let (build, mut snap) = restorable();
        let Json::Obj(fields) = &mut snap else {
            unreachable!()
        };
        let Some((_, Json::Arr(queue))) = fields.iter_mut().find(|(k, _)| k == "queue") else {
            unreachable!()
        };
        edit(queue);
        build().restore(&snap)
    }

    fn set(entry: &mut Json, key: &str, value: u64) {
        let Json::Obj(fields) = entry else {
            unreachable!()
        };
        fields.iter_mut().find(|(k, _)| k == key).expect("key").1 = Json::U64(value);
    }

    fn get(entry: &Json, key: &str) -> Option<u64> {
        entry.get(key).and_then(Json::as_u64)
    }

    /// Index of the queued edge of domain `d` with generation `generation`.
    fn edge_of(queue: &[Json], d: u64, generation: u64) -> usize {
        queue
            .iter()
            .position(|e| get(e, "edge") == Some(d) && get(e, "generation") == Some(generation))
            .expect("edge entry")
    }

    fn assert_rejected(result: Result<(), JsonError>, needle: &str) {
        match result {
            Ok(()) => panic!("restore accepted an impossible queue ({needle})"),
            Err(e) => assert!(e.msg.contains(needle), "unexpected error: {}", e.msg),
        }
    }

    #[test]
    fn restore_accepts_the_unedited_queue() {
        let (build, snap) = restorable();
        let mut e = build();
        e.restore(&snap).expect("a real snapshot restores");
        assert_eq!(e.snapshot().render(), snap.render());
    }

    #[test]
    fn restore_rejects_an_entry_before_now() {
        assert_rejected(restore_edited(|q| set(&mut q[0], "t", 1)), "precedes now");
    }

    #[test]
    fn restore_rejects_a_repeated_seq() {
        assert_rejected(
            restore_edited(|q| {
                let seq = get(&q[0], "seq").unwrap();
                set(&mut q[1], "seq", seq);
            }),
            "repeats",
        );
    }

    #[test]
    fn restore_rejects_a_seq_not_below_the_counter() {
        let (_, snap) = restorable();
        let counter = get(&snap, "seq").unwrap();
        assert_rejected(
            restore_edited(|q| set(&mut q[0], "seq", counter)),
            "not below the counter",
        );
    }

    #[test]
    fn restore_rejects_a_generation_from_the_future() {
        assert_rejected(
            restore_edited(|q| {
                let i = edge_of(q, 0, 0);
                set(&mut q[i], "generation", 1);
            }),
            "beyond the domain's",
        );
    }

    #[test]
    fn restore_rejects_a_running_domain_without_a_live_edge() {
        assert_rejected(
            restore_edited(|q| {
                let i = edge_of(q, 0, 0);
                q.remove(i);
            }),
            "needs one live edge",
        );
    }

    #[test]
    fn restore_rejects_a_running_domain_with_two_live_edges() {
        assert_rejected(
            restore_edited(|q| {
                // A second live edge, one cycle later, with an unused seq.
                let i = edge_of(q, 0, 0);
                let mut twin = q[i].clone();
                let t = get(&twin, "t").unwrap();
                set(&mut twin, "t", t + 10_000);
                set(&mut twin, "seq", 0);
                q.push(twin);
            }),
            "needs one live edge",
        );
    }

    #[test]
    fn restore_rejects_a_live_edge_off_the_clock_grid() {
        assert_rejected(
            restore_edited(|q| {
                let i = edge_of(q, 0, 0);
                let t = get(&q[i], "t").unwrap();
                set(&mut q[i], "t", t + 1);
            }),
            "needs one live edge",
        );
    }

    #[test]
    fn restore_rejects_a_live_edge_of_a_gated_domain() {
        assert_rejected(
            restore_edited(|q| {
                // Domain b is gated at generation 1: queue it an edge.
                let mut edge = q[edge_of(q, 0, 0)].clone();
                set(&mut edge, "edge", 1);
                set(&mut edge, "generation", 1);
                set(&mut edge, "seq", 0);
                q.push(edge);
            }),
            "gated clock domain 'b' has a live edge",
        );
    }
}

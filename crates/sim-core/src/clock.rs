//! Clock domains: programmable periodic edge sources.
//!
//! Each domain keeps a *phase origin* and counts edges since that origin, and
//! the time of edge `n` is computed exactly as `origin + n·10¹²/f` in 128-bit
//! arithmetic (see [`Frequency::edge_offset`]). Re-programming the frequency
//! (what the paper does through the Xilinx Clock Wizard and the ZedBoard's
//! eight switches) resets the phase origin to "now", exactly like an MMCM
//! re-locking.

use crate::component::ComponentId;
use crate::time::{Frequency, SimDuration, SimTime, PS_PER_SEC};

/// Identifies a clock domain registered with an [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClockDomainId(pub(crate) u32);

impl ClockDomainId {
    /// The raw index of this domain inside its engine.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Read-only snapshot of a clock domain's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDomainInfo {
    /// Domain name as given at registration.
    pub name: String,
    /// Current programmed frequency.
    pub frequency: Frequency,
    /// Rising edges delivered since the simulation started (across all
    /// re-programmings).
    pub total_edges: u64,
    /// Whether the domain is currently gated off.
    pub gated: bool,
}

/// How a clock domain's edges were accounted for, counted by the engine
/// that owns it (see [`KernelCounters`](crate::KernelCounters)).
///
/// Under [`EngineStrategy::Tick`](crate::EngineStrategy::Tick) every edge is
/// popped and dispatched. Under event-skip, `dispatched + folded + parked`
/// equals the edges the tick engine would have dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainCounters {
    /// Entries of this domain popped off the event queue, stale ones included.
    pub pops: u64,
    /// Edges on which the members ran.
    pub dispatched: u64,
    /// Edges popped while every member slept: accounted without calling
    /// the members, after which the domain parks.
    pub folded: u64,
    /// Edges that fired while the domain was parked, off the queue.
    pub parked: u64,
}

/// Spans of up to this many edges are walked with the division-free
/// stepper; longer ones invert [`Frequency::edge_offset`] in closed form.
const STEP_LIMIT: u64 = 8;

/// Internal clock-domain state (owned by the engine).
#[derive(Debug)]
pub(crate) struct ClockDomain {
    pub(crate) name: String,
    pub(crate) frequency: Frequency,
    /// Instant from which edge offsets are measured.
    pub(crate) phase_origin: SimTime,
    /// Edges delivered since `phase_origin` (edge 0 fires *at* the origin
    /// only for the initial origin at t=0; after re-programming the first
    /// edge fires one period later).
    pub(crate) edges_since_origin: u64,
    /// Next edge index to fire (relative to origin).
    pub(crate) next_edge: u64,
    /// Lifetime edge counter.
    pub(crate) total_edges: u64,
    /// Invalidates in-flight edge events after re-programming or gating.
    pub(crate) generation: u64,
    pub(crate) gated: bool,
    /// Components receiving `on_clock_edge`, in registration order.
    pub(crate) members: Vec<ComponentId>,
    pub(crate) counters: DomainCounters,
    /// Time of edge `next_edge`, stepped without dividing.
    next_time: SimTime,
    /// `next_edge · 10¹² mod hz`: the part of a picosecond `next_time`
    /// truncates, in units of `1/hz` ps.
    phase_rem: u64,
    /// `10¹² / hz`, as quotient and remainder.
    period_ps: u64,
    period_rem: u64,
    /// The earliest `due_cycle` of the members (`u64::MAX` without any),
    /// kept by the engine as it polls them.
    pub(crate) min_due: u64,
    /// Whether the domain's next edge waits in a parked cohort.
    pub(crate) parked: bool,
    /// The next member of its parked cohort, in pop order.
    pub(crate) cohort_next: Option<ClockDomainId>,
    /// Its parked edge's sequence number, as an offset from the cohort's.
    pub(crate) cohort_offset: u64,
    /// The head of its parked cohort. The head's state is always current;
    /// the other members lag it by the head's `cohort_lag` edges.
    pub(crate) cohort_head: ClockDomainId,
    /// Head only: the members of its cohort.
    pub(crate) cohort_len: u64,
    /// Head only: edges the cohort fired that the other members' state
    /// does not show yet.
    pub(crate) cohort_lag: u64,
    /// Head only: edges the whole cohort may still fire in one step each,
    /// before any member is due. Zero forces the member-by-member step,
    /// which also renumbers the offsets `0..cohort_len`.
    pub(crate) cohort_quiet: u64,
}

impl ClockDomain {
    /// A domain whose phase starts at `origin`.
    pub(crate) fn new(name: String, frequency: Frequency, origin: SimTime) -> Self {
        let mut d = ClockDomain {
            name,
            frequency,
            phase_origin: origin,
            edges_since_origin: 0,
            next_edge: 1, // first edge one period after t=0, like a real MMCM
            total_edges: 0,
            generation: 0,
            gated: false,
            members: Vec::new(),
            counters: DomainCounters::default(),
            next_time: origin,
            phase_rem: 0,
            period_ps: 0,
            period_rem: 0,
            min_due: u64::MAX,
            parked: false,
            cohort_next: None,
            cohort_offset: 0,
            cohort_head: ClockDomainId(0),
            cohort_len: 0,
            cohort_lag: 0,
            cohort_quiet: 0,
        };
        d.resync();
        d
    }

    /// Recomputes the stepper from the frequency, origin and edge index:
    /// the one division, after a re-program, a restore or a long fold.
    pub(crate) fn resync(&mut self) {
        let hz = self.frequency.as_hz();
        self.period_ps = PS_PER_SEC / hz;
        self.period_rem = PS_PER_SEC % hz;
        let scaled = self.next_edge as u128 * PS_PER_SEC as u128;
        self.next_time = self.phase_origin + SimDuration::from_ps((scaled / hz as u128) as u64);
        self.phase_rem = (scaled % hz as u128) as u64;
    }

    /// The time and remainder one edge after `(time, rem)`: edge `n + 1`
    /// lies `⌊(n·10¹² mod hz + 10¹² mod hz) / hz⌋` ps past `n + 10¹²/hz`,
    /// a carry of at most one.
    fn stepped(&self, (time, rem): (SimTime, u64)) -> (SimTime, u64) {
        let rem = rem + self.period_rem;
        let carry = rem >= self.frequency.as_hz();
        let time = time + SimDuration::from_ps(self.period_ps + carry as u64);
        (time, rem - if carry { self.frequency.as_hz() } else { 0 })
    }

    /// Time of origin-relative edge `n`.
    pub(crate) fn edge_time(&self, n: u64) -> SimTime {
        self.phase_origin + self.frequency.edge_offset(n)
    }

    /// Time of the next pending edge.
    pub(crate) fn next_edge_time(&self) -> SimTime {
        self.next_time
    }

    /// The stepper state `k` edges after the next pending one, walked.
    fn stepped_by(&self, k: u64) -> (SimTime, u64) {
        let mut probe = (self.next_time, self.phase_rem);
        for _ in 0..k {
            probe = self.stepped(probe);
        }
        probe
    }

    /// Time of the edge `k` edges after the next pending one.
    pub(crate) fn time_after(&self, k: u64) -> SimTime {
        if k > STEP_LIMIT {
            self.edge_time(self.next_edge + k)
        } else {
            self.stepped_by(k).0
        }
    }

    /// Whether some member declared work on the next edge.
    pub(crate) fn due(&self) -> bool {
        self.min_due <= self.total_edges + 1
    }

    /// How many edges, from the next one on, fire before a member is due.
    pub(crate) fn quiet_edges(&self) -> u64 {
        self.min_due.saturating_sub(self.total_edges + 1)
    }

    /// Catches up on `k` parked edges that an in-step cohort head has
    /// already fired, copying the head's stepper instead of stepping.
    pub(crate) fn follow(&mut self, k: u64, head: (SimTime, u64)) {
        self.edges_since_origin = self.next_edge + k - 1;
        self.next_edge += k;
        self.total_edges += k;
        self.counters.parked += k;
        (self.next_time, self.phase_rem) = head;
        debug_assert_eq!(self.next_time, self.edge_time(self.next_edge));
    }

    /// The stepper state of the next edge: its time and sub-picosecond
    /// remainder.
    pub(crate) fn stepper(&self) -> (SimTime, u64) {
        (self.next_time, self.phase_rem)
    }

    /// Fires the next `k` edges: the counter updates of `k` tick dispatches.
    pub(crate) fn advance(&mut self, k: u64) {
        debug_assert!(k > 0);
        self.edges_since_origin = self.next_edge + k - 1;
        self.next_edge += k;
        self.total_edges += k;
        if k > STEP_LIMIT {
            self.resync();
        } else {
            (self.next_time, self.phase_rem) = self.stepped_by(k);
        }
        debug_assert_eq!(self.next_time, self.edge_time(self.next_edge));
    }

    /// How many edges, from the next pending one on, fire strictly before
    /// `t`. Steps through short spans; inverts [`Frequency::edge_offset`]'s
    /// truncating division in 128-bit arithmetic for long ones.
    pub(crate) fn edges_before(&self, t: SimTime) -> u64 {
        if t <= self.next_time {
            return 0;
        }
        let mut probe = (self.next_time, self.phase_rem);
        for k in 1..=STEP_LIMIT {
            probe = self.stepped(probe);
            if probe.0 >= t {
                return k;
            }
        }
        let y = (t - self.phase_origin).as_ps() as u128; // edge_offset(e) < y
        let e_max = (y * self.frequency.as_hz() as u128 - 1) / PS_PER_SEC as u128;
        let e_max = u64::try_from(e_max).unwrap_or(u64::MAX);
        e_max.saturating_add(1).saturating_sub(self.next_edge)
    }

    /// Whether this domain's edges and `other`'s coincide from the next
    /// one on: same frequency, same next edge, same sub-picosecond phase.
    /// Division-free, unlike [`ClockDomain::same_grid`], which it implies.
    pub(crate) fn in_step_with(&self, other: &ClockDomain) -> bool {
        self.frequency == other.frequency
            && self.next_time == other.next_time
            && self.phase_rem == other.phase_rem
    }

    /// Whether every edge of `other` falls on an edge of this domain and
    /// vice versa: same frequency, and phase origins a whole number of
    /// periods apart.
    pub(crate) fn same_grid(&self, other: &ClockDomain) -> bool {
        let hz = self.frequency.as_hz() as u128;
        let gap = self
            .phase_origin
            .as_ps()
            .abs_diff(other.phase_origin.as_ps()) as u128;
        self.frequency == other.frequency && (gap * hz).is_multiple_of(PS_PER_SEC as u128)
    }

    /// Re-programs the frequency at instant `now`; the next edge fires one
    /// new-period after `now`.
    pub(crate) fn set_frequency(&mut self, now: SimTime, frequency: Frequency) {
        self.frequency = frequency;
        self.phase_origin = now;
        self.edges_since_origin = 0;
        self.next_edge = 1;
        self.generation += 1;
        self.resync();
    }

    pub(crate) fn set_gated(&mut self, now: SimTime, gated: bool) {
        if self.gated == gated {
            return;
        }
        self.gated = gated;
        self.generation += 1;
        if !gated {
            // Re-start the phase from the un-gating instant.
            self.phase_origin = now;
            self.edges_since_origin = 0;
            self.next_edge = 1;
            self.resync();
        }
    }

    pub(crate) fn info(&self) -> ClockDomainInfo {
        ClockDomainInfo {
            name: self.name.clone(),
            frequency: self.frequency,
            total_edges: self.total_edges,
            gated: self.gated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_edge_is_one_period_after_origin() {
        let d = ClockDomain::new("clk".into(), Frequency::from_mhz(100), SimTime::ZERO);
        assert_eq!(
            d.next_edge_time(),
            SimTime::ZERO + SimDuration::from_nanos(10)
        );
    }

    #[test]
    fn reprogram_resets_phase() {
        let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(100), SimTime::ZERO);
        let now = SimTime::from_ps(123_456);
        let gen_before = d.generation;
        d.set_frequency(now, Frequency::from_mhz(200));
        assert_eq!(d.generation, gen_before + 1);
        assert_eq!(d.next_edge_time(), now + SimDuration::from_nanos(5));
    }

    #[test]
    fn edges_before_inverts_edge_time() {
        for mhz in [1, 7, 100, 280, 333, 999] {
            let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(mhz), SimTime::ZERO);
            d.set_frequency(SimTime::from_ps(12_345), Frequency::from_mhz(mhz));
            d.advance(5);
            for n in d.next_edge..d.next_edge + 50 {
                let t = d.edge_time(n);
                assert_eq!(d.edges_before(t), n - d.next_edge, "{mhz} MHz edge {n}");
                assert_eq!(
                    d.edges_before(t + SimDuration::from_ps(1)),
                    n - d.next_edge + 1
                );
            }
            assert_eq!(d.edges_before(SimTime::ZERO), 0);
        }
    }

    #[test]
    fn same_grid_needs_whole_periods_between_origins() {
        let at = |mhz, origin_ps| {
            let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(mhz), SimTime::ZERO);
            d.set_frequency(SimTime::from_ps(origin_ps), Frequency::from_mhz(mhz));
            d
        };
        assert!(at(100, 0).same_grid(&at(100, 30_000)));
        assert!(!at(100, 0).same_grid(&at(100, 5_000)));
        assert!(!at(100, 0).same_grid(&at(200, 0)));
        // 300 MHz: three periods are exactly 10 ns, one is not whole.
        assert!(at(300, 0).same_grid(&at(300, 10_000)));
        assert!(!at(300, 0).same_grid(&at(300, 3_333)));
    }

    #[test]
    fn gating_toggles_and_restarts_phase() {
        let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(100), SimTime::ZERO);
        let t1 = SimTime::from_ps(1_000);
        d.set_gated(t1, true);
        assert!(d.gated);
        let gen = d.generation;
        d.set_gated(t1, true); // no-op
        assert_eq!(d.generation, gen);
        let t2 = SimTime::from_ps(5_000);
        d.set_gated(t2, false);
        assert_eq!(d.next_edge_time(), t2 + SimDuration::from_nanos(10));
    }
}

//! Clock domains: programmable periodic edge sources.
//!
//! Each domain keeps a *phase origin* and counts edges since that origin, and
//! the time of edge `n` is computed exactly as `origin + n·10¹²/f` in 128-bit
//! arithmetic (see [`Frequency::edge_offset`]). Re-programming the frequency
//! (what the paper does through the Xilinx Clock Wizard and the ZedBoard's
//! eight switches) resets the phase origin to "now", exactly like an MMCM
//! re-locking.

use crate::component::ComponentId;
use crate::time::{Frequency, SimTime, PS_PER_SEC};

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
}

impl ClockDomain {
    pub(crate) fn new(name: String, frequency: Frequency) -> Self {
        ClockDomain {
            name,
            frequency,
            phase_origin: SimTime::ZERO,
            edges_since_origin: 0,
            next_edge: 1, // first edge one period after t=0, like a real MMCM
            total_edges: 0,
            generation: 0,
            gated: false,
            members: Vec::new(),
            counters: DomainCounters::default(),
        }
    }

    /// Time of origin-relative edge `n`.
    pub(crate) fn edge_time(&self, n: u64) -> SimTime {
        self.phase_origin + self.frequency.edge_offset(n)
    }

    /// Time of the next pending edge.
    pub(crate) fn next_edge_time(&self) -> SimTime {
        self.edge_time(self.next_edge)
    }

    /// Fires the next `k` edges: the counter updates of `k` tick dispatches.
    pub(crate) fn advance(&mut self, k: u64) {
        debug_assert!(k > 0);
        self.edges_since_origin = self.next_edge + k - 1;
        self.next_edge += k;
        self.total_edges += k;
    }

    /// How many edges, from the next pending one on, fire strictly before
    /// `t`. Inverts [`Frequency::edge_offset`]'s truncating division in
    /// 128-bit arithmetic to find the last such edge index.
    pub(crate) fn edges_before(&self, t: SimTime) -> u64 {
        if t <= self.phase_origin {
            return 0;
        }
        let y = (t - self.phase_origin).as_ps() as u128; // edge_offset(e) < y
        let e_max = (y * self.frequency.as_hz() as u128 - 1) / PS_PER_SEC as u128;
        let e_max = u64::try_from(e_max).unwrap_or(u64::MAX);
        e_max.saturating_add(1).saturating_sub(self.next_edge)
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
    use crate::time::SimDuration;

    #[test]
    fn first_edge_is_one_period_after_origin() {
        let d = ClockDomain::new("clk".into(), Frequency::from_mhz(100));
        assert_eq!(
            d.next_edge_time(),
            SimTime::ZERO + SimDuration::from_nanos(10)
        );
    }

    #[test]
    fn reprogram_resets_phase() {
        let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(100));
        let now = SimTime::from_ps(123_456);
        let gen_before = d.generation;
        d.set_frequency(now, Frequency::from_mhz(200));
        assert_eq!(d.generation, gen_before + 1);
        assert_eq!(d.next_edge_time(), now + SimDuration::from_nanos(5));
    }

    #[test]
    fn edges_before_inverts_edge_time() {
        for mhz in [1, 7, 100, 280, 333, 999] {
            let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(mhz));
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
            let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(mhz));
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
        let mut d = ClockDomain::new("clk".into(), Frequency::from_mhz(100));
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

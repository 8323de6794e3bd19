//! Fleet boards and the calibration bridge to the cycle-level simulator.
//!
//! A fleet of a thousand boards serving a million requests cannot run a
//! thousand cycle-level [`ZynqPdrSystem`]s — but it must not invent service
//! times either. The bridge is **calibration**: per campaign, one real
//! system (built from the campaign's [`SystemConfig`], so the configured
//! [`EngineStrategy`](pdr_sim_core::EngineStrategy) kernel is what actually
//! runs) executes a managed reconfiguration per catalog size class through
//! [`RecoveryManager::reconfigure`], and the *measured* picosecond costs —
//! service transfer, scrub re-apply, catalog fetch of the compressed image
//! — become the exact integer service kernels every board replays. Engine
//! invariance of the fleet is therefore inherited from the PR 6 kernel
//! contract rather than asserted by fiat, and
//! `tests/fleet.rs::board_service_time_matches_cycle_level_system` pins a
//! board's latency to the direct cycle-level measurement.
//!
//! Boards themselves are plain deterministic state machines: a FIFO of
//! in-flight completions, an LRU slice of the replicated catalog cache, a
//! per-board fault stream, and the quarantine strike counter mirroring the
//! `RecoveryManager` ladder semantics (consecutive scrub failures).

use pdr_bitstream_codec::compress_bitstream;
use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::rng::Xoshiro256StarStar;
use pdr_sim_core::Frequency;

use crate::recovery::{RecoveryConfig, RecoveryManager};
use crate::scheduler::FetchModel;
use crate::system::{SystemConfig, ZynqPdrSystem};

use std::collections::VecDeque;

/// Calibrated picosecond costs for one bitstream size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClass {
    /// Raw bitstream bytes (what crosses the ICAP).
    pub raw_bytes: u64,
    /// Compressed (`PDRC`) bytes — what the catalog stores and fetches.
    pub stored_bytes: u64,
    /// Managed reconfiguration at the service frequency, measured on the
    /// cycle-level system.
    pub transfer_ps: u64,
    /// Golden re-apply at the scrub frequency, measured likewise.
    pub scrub_ps: u64,
    /// Catalog fetch of the stored image through the [`FetchModel`].
    pub fetch_ps: u64,
}

/// The per-campaign calibration table: one [`ServiceClass`] per size class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calibration {
    /// Calibrated classes, indexed by `entry % classes.len()`.
    pub classes: Vec<ServiceClass>,
    /// Service-path reconfiguration frequency, MHz.
    pub service_mhz: u64,
    /// Scrub frequency, MHz.
    pub scrub_mhz: u64,
}

impl Calibration {
    /// Runs the calibration campaign on a real system built from `system`.
    /// Deterministic: same config, same table — under either engine
    /// strategy (the PR 6 kernel contract).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero or a calibration reconfiguration fails
    /// (both frequencies are within the safe envelope by construction).
    pub fn measure(
        system: &SystemConfig,
        fetch: &FetchModel,
        classes: u32,
        service_mhz: u64,
        scrub_mhz: u64,
    ) -> Calibration {
        assert!(classes > 0, "calibration needs at least one size class");
        let mut sys = ZynqPdrSystem::new(system.clone());
        let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
        let partitions = system.floorplan.partitions().len();
        let mut table = Vec::with_capacity(classes as usize);
        for c in 0..classes {
            let rp = c as usize % partitions;
            let bs = sys.make_partial_bitstream(rp, c + 1);
            let stored_bytes = compress_bitstream(&bs).bytes.len() as u64;
            let raw_bytes = bs.len() as u64;

            let t0 = sys.now();
            let out = mgr.reconfigure(&mut sys, None, rp, &bs, Frequency::from_mhz(service_mhz));
            assert!(
                out.error.is_none(),
                "calibration reconfigure failed for class {c}: {:?}",
                out.error
            );
            let transfer_ps = sys.now().duration_since(t0).as_ps();

            let t1 = sys.now();
            let out = mgr.reconfigure(&mut sys, None, rp, &bs, Frequency::from_mhz(scrub_mhz));
            assert!(
                out.error.is_none(),
                "calibration scrub failed for class {c}"
            );
            let scrub_ps = sys.now().duration_since(t1).as_ps();

            table.push(ServiceClass {
                raw_bytes,
                stored_bytes,
                transfer_ps,
                scrub_ps,
                fetch_ps: fetch.fetch_time(stored_bytes).as_ps(),
            });
        }
        Calibration {
            classes: table,
            service_mhz,
            scrub_mhz,
        }
    }

    /// The class serving catalog entry `entry`.
    pub fn class_of(&self, entry: u32) -> &ServiceClass {
        &self.classes[entry as usize % self.classes.len()]
    }
}

/// One catalog entry as the fleet control plane sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCatalogEntry {
    /// Size class index into [`Calibration::classes`].
    pub class: u32,
    /// Current version; bumped by control-plane invalidation.
    pub version: u32,
}

/// Builds the fleet catalog over `entries` entries and `classes` classes.
pub fn build_catalog(entries: u32, classes: u32) -> Vec<FleetCatalogEntry> {
    (0..entries)
        .map(|e| FleetCatalogEntry {
            class: e % classes,
            version: 0,
        })
        .collect()
}

/// A resident copy in a board's replicated catalog cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedCopy {
    /// Catalog entry id.
    pub entry: u32,
    /// Version the copy was fetched at.
    pub version: u32,
    /// Stored bytes charged against the cache budget.
    pub stored_bytes: u64,
}

/// Checkpoint encoding: `[entry, version, stored_bytes]`.
impl ToJson for CachedCopy {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.entry.to_json(),
            self.version.to_json(),
            self.stored_bytes.to_json(),
        ])
    }
}

impl FromJson for CachedCopy {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([entry, version, stored_bytes]) => Ok(CachedCopy {
                entry: u32::from_json(entry)?,
                version: u32::from_json(version)?,
                stored_bytes: u64::from_json(stored_bytes)?,
            }),
            _ => Err(JsonError {
                msg: "expected a cached copy [entry, version, stored_bytes]".into(),
            }),
        }
    }
}

/// What one dispatch did — folded into the shard delta by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// When service started (>= arrival; queueing delay is start-arrival).
    pub start_ps: u64,
    /// When the request left the board.
    pub completion_ps: u64,
    /// Catalog cache hit?
    pub hit: bool,
    /// Copies evicted to make room.
    pub evictions: u32,
    /// CRC failure on the first transfer attempt?
    pub crc_failed: bool,
    /// A scrub (golden re-apply + retry) ran?
    pub scrubbed: bool,
    /// The scrub itself failed — the request is lost and the board takes a
    /// quarantine strike.
    pub scrub_failed: bool,
}

/// One simulated board: deterministic queue/cache/fault state driving the
/// calibrated service kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    /// Fleet-wide board id.
    pub id: u32,
    /// Per-board fault stream (seeded from the campaign seed and id).
    pub rng: Xoshiro256StarStar,
    /// Per-request CRC failure probability on this board.
    pub fault_rate: f64,
    /// When the board next goes idle, ps.
    pub busy_until_ps: u64,
    /// Completion instants of admitted, not-yet-finished requests (FIFO).
    pub inflight: VecDeque<u64>,
    /// Replicated catalog cache, LRU order (most recent last).
    pub cache: Vec<CachedCopy>,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: u64,
    /// Consecutive scrub failures (the quarantine ladder).
    pub scrub_strikes: u32,
    /// Quarantined by the control plane?
    pub quarantined: bool,
}

impl Board {
    /// A fresh board.
    pub fn new(id: u32, seed: u64, fault_rate: f64) -> Board {
        Board {
            id,
            rng: Xoshiro256StarStar::seed_from_u64(seed ^ 0x424f_4152_4400_0000 ^ u64::from(id)),
            fault_rate,
            busy_until_ps: 0,
            inflight: VecDeque::new(),
            cache: Vec::new(),
            cache_bytes: 0,
            scrub_strikes: 0,
            quarantined: false,
        }
    }

    /// Drops completions at or before `now_ps` and returns the remaining
    /// backlog (queued or in service).
    pub fn prune(&mut self, now_ps: u64) -> usize {
        while matches!(self.inflight.front(), Some(&c) if c <= now_ps) {
            self.inflight.pop_front();
        }
        self.inflight.len()
    }

    fn cache_lookup(&mut self, entry: u32, version: u32) -> bool {
        if let Some(pos) = self.cache.iter().position(|c| c.entry == entry) {
            let copy = self.cache.remove(pos);
            if copy.version == version {
                self.cache.push(copy); // refresh LRU position
                return true;
            }
            self.cache_bytes -= copy.stored_bytes; // stale: drop and refetch
        }
        false
    }

    fn cache_insert(&mut self, copy: CachedCopy, capacity_bytes: u64) -> u32 {
        if copy.stored_bytes > capacity_bytes {
            return 0; // an image larger than the budget is never cached
        }
        let mut evictions = 0;
        while self.cache_bytes + copy.stored_bytes > capacity_bytes {
            let evicted = self.cache.remove(0);
            self.cache_bytes -= evicted.stored_bytes;
            evictions += 1;
        }
        self.cache_bytes += copy.stored_bytes;
        self.cache.push(copy);
        evictions
    }

    /// Drops a cached copy of `entry` (control-plane invalidation). Returns
    /// whether a copy was resident.
    pub fn invalidate(&mut self, entry: u32) -> bool {
        if let Some(pos) = self.cache.iter().position(|c| c.entry == entry) {
            let copy = self.cache.remove(pos);
            self.cache_bytes -= copy.stored_bytes;
            return true;
        }
        false
    }

    /// Warms `copy` into the cache (control-plane re-replication after a
    /// quarantine). Returns evictions performed.
    pub fn warm(&mut self, copy: CachedCopy, capacity_bytes: u64) -> u32 {
        if self.cache.iter().any(|c| c.entry == copy.entry) {
            return 0;
        }
        self.cache_insert(copy, capacity_bytes)
    }

    /// Serves one request for `entry` arriving at `arr_ps`: cache lookup
    /// (miss pays the calibrated fetch), the calibrated transfer, and the
    /// fault ladder (CRC failure -> scrub + retry; scrub failure -> lost
    /// request + strike). Advances the board clock and in-flight FIFO.
    pub fn dispatch(
        &mut self,
        arr_ps: u64,
        entry: u32,
        version: u32,
        class: &ServiceClass,
        cache_capacity_bytes: u64,
    ) -> DispatchOutcome {
        let start_ps = self.busy_until_ps.max(arr_ps);
        let hit = self.cache_lookup(entry, version);
        let mut evictions = 0;
        let mut service_ps = class.transfer_ps;
        if !hit {
            service_ps += class.fetch_ps;
            evictions = self.cache_insert(
                CachedCopy {
                    entry,
                    version,
                    stored_bytes: class.stored_bytes,
                },
                cache_capacity_bytes,
            );
        }
        let crc_failed = self.rng.next_f64() < self.fault_rate;
        let mut scrubbed = false;
        let mut scrub_failed = false;
        if crc_failed {
            scrubbed = true;
            service_ps += class.scrub_ps + class.transfer_ps;
            scrub_failed = self.rng.next_f64() < self.fault_rate;
        }
        if scrub_failed {
            self.scrub_strikes += 1;
        } else {
            self.scrub_strikes = 0;
        }
        let completion_ps = start_ps + service_ps;
        self.busy_until_ps = completion_ps;
        self.inflight.push_back(completion_ps);
        DispatchOutcome {
            start_ps,
            completion_ps,
            hit,
            evictions,
            crc_failed,
            scrubbed,
            scrub_failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class() -> ServiceClass {
        ServiceClass {
            raw_bytes: 4096,
            stored_bytes: 1024,
            transfer_ps: 1_000_000,
            scrub_ps: 2_000_000,
            fetch_ps: 500_000,
        }
    }

    #[test]
    fn dispatch_hits_after_miss_and_respects_fifo() {
        let mut b = Board::new(0, 1, 0.0);
        let c = class();
        let first = b.dispatch(0, 7, 0, &c, 10_000);
        assert!(!first.hit);
        assert_eq!(first.completion_ps, c.transfer_ps + c.fetch_ps);
        let second = b.dispatch(0, 7, 0, &c, 10_000);
        assert!(second.hit, "second request for the same entry hits");
        assert_eq!(second.start_ps, first.completion_ps, "FIFO service");
        assert_eq!(second.completion_ps - second.start_ps, c.transfer_ps);
        assert_eq!(b.prune(first.completion_ps), 1);
        assert_eq!(b.prune(second.completion_ps), 0);
    }

    #[test]
    fn stale_version_misses_and_refetches() {
        let mut b = Board::new(0, 1, 0.0);
        let c = class();
        b.dispatch(0, 7, 0, &c, 10_000);
        let stale = b.dispatch(0, 7, 1, &c, 10_000);
        assert!(!stale.hit, "version bump invalidates the resident copy");
        let fresh = b.dispatch(0, 7, 1, &c, 10_000);
        assert!(fresh.hit);
    }

    #[test]
    fn lru_eviction_charges_stored_bytes() {
        let mut b = Board::new(0, 1, 0.0);
        let c = class();
        let out = b.dispatch(0, 0, 0, &c, 2_500);
        assert_eq!(out.evictions, 0);
        b.dispatch(0, 1, 0, &c, 2_500);
        // Third distinct entry: budget 2500 holds two 1024-byte copies.
        let out = b.dispatch(0, 2, 0, &c, 2_500);
        assert_eq!(out.evictions, 1);
        assert!(b.invalidate(2));
        assert!(!b.invalidate(0), "entry 0 was the LRU victim");
        assert_eq!(b.cache_bytes, 1024);
    }

    #[test]
    fn certain_faults_walk_the_strike_ladder() {
        let mut b = Board::new(3, 9, 1.0);
        let c = class();
        let out = b.dispatch(0, 0, 0, &c, 10_000);
        assert!(out.crc_failed && out.scrubbed && out.scrub_failed);
        assert_eq!(b.scrub_strikes, 1);
        assert_eq!(
            out.completion_ps,
            c.fetch_ps + c.transfer_ps + c.scrub_ps + c.transfer_ps
        );
        b.dispatch(out.completion_ps, 0, 0, &c, 10_000);
        assert_eq!(b.scrub_strikes, 2);
        // A healthy board resets the ladder.
        let mut ok = Board::new(4, 9, 0.0);
        ok.scrub_strikes = 1;
        let out = ok.dispatch(0, 0, 0, &c, 10_000);
        assert!(!out.crc_failed);
        assert_eq!(ok.scrub_strikes, 0);
    }
}

//! Fleet-scale PDR-as-a-service control plane.
//!
//! Turns the single-board simulator into a control plane over N simulated
//! boards: a consistent-hash [`PlacementRing`] routes Zipf-skewed tenant
//! traffic ([`TrafficModel`]) onto boards whose service costs are
//! *calibrated* on the real cycle-level system ([`Calibration`]); boards
//! cache the compressed catalog ([`Board`]), steal work within their
//! shard, and walk a quarantine ladder whose events propagate to the
//! control plane at epoch barriers — draining the board from the ring and
//! optionally re-replicating its hot entries.
//!
//! # Determinism invariants (see `docs/FLEET.md`)
//!
//! The merged [`FleetReport`] is **byte-identical** for every
//! `PDR_THREADS` value and both `PDR_ENGINE` strategies, and a campaign
//! killed at any epoch and resumed from its checkpoint finishes with the
//! same bytes. The construction:
//!
//! * the shard count is a config knob, *never* derived from the thread
//!   count — threads only decide which worker executes a shard;
//! * arrivals are generated serially from one RNG stream and routed
//!   before the fan-out; each shard's epoch step is a pure function of
//!   (shard boards, its arrivals, catalog, calibration);
//! * shard deltas are merged in shard-index order on the committing
//!   thread ([`ParallelExecutor::map`]'s ordered-commit contract), and
//!   cross-shard effects (quarantine, re-replication, invalidation) apply
//!   only at the barrier;
//! * engine invariance is inherited: the only component that touches the
//!   [`EngineStrategy`](pdr_sim_core::EngineStrategy) kernel is the
//!   calibration pass, whose observables are byte-identical under both
//!   engines by the PR 6 contract;
//! * no libm transcendentals anywhere near report bytes
//!   ([`traffic::det_ln`]/[`traffic::det_exp`],
//!   bit-pattern histogram bins in
//!   [`pdr_sim_core::stats::BoundedQuantiles`]) — the
//!   committed `BENCH_fleet.json` must reproduce across hosts.

pub mod board;
pub mod ring;
pub mod traffic;

pub use board::{Board, CachedCopy, Calibration, DispatchOutcome, FleetCatalogEntry, ServiceClass};
pub use ring::{mix64, PlacementRing};
pub use traffic::{Arrival, TrafficConfig, TrafficModel, ZipfSampler};

use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::rng::Xoshiro256StarStar;
use pdr_sim_core::stats::{BoundedQuantiles, OnlineStats};
use pdr_sim_core::{impl_json_struct, SimDuration};

use crate::campaign::{ParallelExecutor, StatsSummary};
use crate::scheduler::FetchModel;
use crate::snapshot;
use crate::system::SystemConfig;

use board::build_catalog;

/// Exact-mode capacity of the fleet latency sketches: small campaigns (and
/// every per-shard epoch delta) stay exact; million-request campaigns spill
/// into the fixed histogram and RSS stays flat.
const QUANTILE_LIMIT: usize = 4096;

/// Fleet campaign configuration. `Default` is the CI-sized smoke fleet;
/// [`FleetConfig::full_scale`] is the ISSUE's ≥1000-board, ≥10⁶-request
/// campaign.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated boards behind the control plane.
    pub boards: u32,
    /// Shards the boards are split into (contiguous ranges). Fixed by
    /// config — never derived from the thread count.
    pub shards: u32,
    /// Virtual nodes per board on the placement ring.
    pub vnodes_per_board: u32,
    /// Tenant population.
    pub tenants: u32,
    /// Catalog entries (distinct bitstream images).
    pub catalog_entries: u32,
    /// Calibrated size classes (entry -> class by modulo).
    pub size_classes: u32,
    /// Campaign seed: traffic, per-board fault streams, bad-board draw.
    pub seed: u64,
    /// Traffic model knobs.
    pub traffic: TrafficConfig,
    /// Epoch barrier interval.
    pub epoch: SimDuration,
    /// Per-board admission cap (queued + in-service requests).
    pub queue_capacity: u32,
    /// Backlog at which an arrival tries to steal to a sibling board.
    pub steal_threshold: u32,
    /// Per-board replicated-catalog cache budget, stored (compressed) bytes.
    pub cache_capacity_bytes: u64,
    /// Catalog fetch path for cache misses.
    pub fetch: FetchModel,
    /// Service-path reconfiguration frequency, MHz (safe envelope).
    pub service_mhz: u64,
    /// Scrub frequency, MHz.
    pub scrub_mhz: u64,
    /// Per-request CRC failure probability on a healthy board.
    pub base_fault_rate: f64,
    /// Permille of boards drawn "bad" at init.
    pub bad_board_permille: u32,
    /// Per-request CRC failure probability on a bad board.
    pub bad_fault_rate: f64,
    /// Consecutive scrub failures before the control plane quarantines.
    pub quarantine_strikes: u32,
    /// Re-replicate a quarantined board's resident entries to their ring
    /// homes?
    pub replicate_on_quarantine: bool,
    /// Bump one catalog entry's version every this many epochs (0 = never).
    pub invalidate_every_epochs: u64,
    /// The cycle-level system calibration runs on. Its `strategy` field is
    /// how `PDR_ENGINE` reaches the fleet.
    pub system: SystemConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            boards: 16,
            shards: 4,
            vnodes_per_board: 128,
            tenants: 500,
            catalog_entries: 96,
            size_classes: 6,
            seed: 2017,
            traffic: TrafficConfig {
                duration: SimDuration::from_millis(2_500),
                ..TrafficConfig::default()
            },
            epoch: SimDuration::from_millis(50),
            queue_capacity: 64,
            steal_threshold: 6,
            cache_capacity_bytes: 256 * 1024,
            fetch: FetchModel {
                bandwidth_bytes_per_s: 19_000_000,
                per_fetch_overhead: SimDuration::from_micros(200),
            },
            service_mhz: 200,
            scrub_mhz: 100,
            base_fault_rate: 0.002,
            bad_board_permille: 0,
            bad_fault_rate: 0.25,
            quarantine_strikes: 2,
            replicate_on_quarantine: true,
            invalidate_every_epochs: 4,
            system: SystemConfig::fast_quad(),
        }
    }
}

impl FleetConfig {
    /// The ISSUE's acceptance-scale campaign: ≥1000 boards, ≥10⁶ requests,
    /// a sprinkling of bad boards so quarantine propagation actually fires.
    pub fn full_scale() -> Self {
        FleetConfig {
            boards: 1000,
            shards: 16,
            tenants: 10_000,
            catalog_entries: 512,
            traffic: TrafficConfig {
                target_requests: 1_010_000,
                duration: SimDuration::from_millis(2_500),
                ..TrafficConfig::default()
            },
            epoch: SimDuration::from_millis(100),
            bad_board_permille: 5,
            ..FleetConfig::default()
        }
    }

    /// Effective shard count (clamped into `1..=boards`).
    pub fn effective_shards(&self) -> u32 {
        self.shards.clamp(1, self.boards.max(1))
    }

    /// Boards per shard (contiguous ranges; the last shard may be short).
    pub fn boards_per_shard(&self) -> u32 {
        self.boards.div_ceil(self.effective_shards())
    }
}

/// The merged fleet campaign report. Every field is deterministic
/// simulation output — no wall-clock, no host state — and every float is
/// finite or `None` (the repo-wide JSON contract).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Boards in the fleet.
    pub boards: u64,
    /// Shards the epoch step fanned over.
    pub shards: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Requests entering the control plane.
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests lost to scrub failures.
    pub failed: u64,
    /// Requests refused admission (full queue or no healthy board).
    pub rejected: u64,
    /// Requests re-routed off a quarantined board mid-epoch.
    pub rerouted: u64,
    /// Requests stolen to a less-loaded sibling board.
    pub stolen: u64,
    /// First-attempt CRC failures.
    pub crc_failures: u64,
    /// Scrub (golden re-apply + retry) passes.
    pub scrubs: u64,
    /// Scrubs that themselves failed.
    pub scrub_failures: u64,
    /// Boards quarantined and drained from the ring.
    pub boards_quarantined: u64,
    /// Hot entries re-replicated to ring homes after quarantines.
    pub replicated_entries: u64,
    /// Control-plane invalidation rounds.
    pub invalidations: u64,
    /// Resident copies dropped by invalidations.
    pub invalidated_copies: u64,
    /// Replicated-catalog cache hits (fleet-wide).
    pub cache_hits: u64,
    /// Cache misses (paid the calibrated fetch).
    pub cache_misses: u64,
    /// LRU evictions across all boards.
    pub cache_evictions: u64,
    /// Fleet-wide hit rate, `None` when no lookups happened.
    pub cache_hit_rate: Option<f64>,
    /// completed / submitted, `None` when nothing was submitted.
    pub availability: Option<f64>,
    /// End-to-end sojourn (arrival to completion), µs.
    pub latency_us: StatsSummary,
    /// Queueing delay (arrival to service start), µs.
    pub queue_wait_us: StatsSummary,
    /// Median sojourn, µs (bounded-memory sketch; `None` when empty).
    pub latency_p50_us: Option<f64>,
    /// 99th-percentile sojourn, µs.
    pub latency_p99_us: Option<f64>,
    /// First arrival to last completion, µs.
    pub makespan_us: f64,
    /// Completed requests per simulated second, `None` for an empty run.
    pub throughput_rps: Option<f64>,
}

impl_json_struct!(FleetReport {
    boards,
    shards,
    epochs,
    submitted,
    completed,
    failed,
    rejected,
    rerouted,
    stolen,
    crc_failures,
    scrubs,
    scrub_failures,
    boards_quarantined,
    replicated_entries,
    invalidations,
    invalidated_copies,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_hit_rate,
    availability,
    latency_us,
    queue_wait_us,
    latency_p50_us,
    latency_p99_us,
    makespan_us,
    throughput_rps,
});

/// Cumulative campaign event counters, checkpointed key for key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct FleetCounters {
    submitted: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    rerouted: u64,
    stolen: u64,
    crc_failures: u64,
    scrubs: u64,
    scrub_failures: u64,
    boards_quarantined: u64,
    replicated_entries: u64,
    invalidations: u64,
    invalidated_copies: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl_json_struct!(FleetCounters {
    submitted,
    completed,
    failed,
    rejected,
    rerouted,
    stolen,
    crc_failures,
    scrubs,
    scrub_failures,
    boards_quarantined,
    replicated_entries,
    invalidations,
    invalidated_copies,
    cache_hits,
    cache_misses,
    cache_evictions
});

impl FleetCounters {
    fn add(&mut self, d: &FleetCounters) {
        self.submitted += d.submitted;
        self.completed += d.completed;
        self.failed += d.failed;
        self.rejected += d.rejected;
        self.rerouted += d.rerouted;
        self.stolen += d.stolen;
        self.crc_failures += d.crc_failures;
        self.scrubs += d.scrubs;
        self.scrub_failures += d.scrub_failures;
        self.boards_quarantined += d.boards_quarantined;
        self.replicated_entries += d.replicated_entries;
        self.invalidations += d.invalidations;
        self.invalidated_copies += d.invalidated_copies;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_evictions += d.cache_evictions;
    }
}

/// Campaign counters + bounded-memory latency accumulators.
#[derive(Debug, Clone, PartialEq)]
struct FleetStats {
    counters: FleetCounters,
    latency: OnlineStats,
    queue_wait: OnlineStats,
    sketch: BoundedQuantiles,
    max_completion_ps: u64,
}

impl FleetStats {
    fn new() -> Self {
        FleetStats {
            counters: FleetCounters::default(),
            latency: OnlineStats::new(),
            queue_wait: OnlineStats::new(),
            sketch: BoundedQuantiles::new(QUANTILE_LIMIT),
            max_completion_ps: 0,
        }
    }

    fn merge(&mut self, d: &FleetStats) {
        self.counters.add(&d.counters);
        self.latency.merge(&d.latency);
        self.queue_wait.merge(&d.queue_wait);
        self.sketch.merge(&d.sketch);
        self.max_completion_ps = self.max_completion_ps.max(d.max_completion_ps);
    }
}

/// Checkpoint encoding: the counters' keys, then the accumulators.
impl ToJson for FleetStats {
    fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.counters.to_json() else {
            unreachable!("a struct encodes as an object")
        };
        fields.extend([
            ("latency".to_string(), welford_to_json(&self.latency)),
            ("queue_wait".to_string(), welford_to_json(&self.queue_wait)),
            (
                "sketch".to_string(),
                SketchState::of(&self.sketch).to_json(),
            ),
            (
                "max_completion_ps".to_string(),
                self.max_completion_ps.to_json(),
            ),
        ]);
        Json::Obj(fields)
    }
}

impl FromJson for FleetStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(FleetStats {
            counters: FleetCounters::from_json(v)?,
            latency: welford_from_json(v.required("latency")?)?,
            queue_wait: welford_from_json(v.required("queue_wait")?)?,
            sketch: v.field::<SketchState>("sketch")?.restore()?,
            max_completion_ps: v.field("max_completion_ps")?,
        })
    }
}

/// The fleet's [`OnlineStats`] layout, `[n, mean, m2, min, max]` with the
/// mean and M2 as `f64` bit patterns (recovery checkpoints use the type's
/// own object layout).
fn welford_to_json(s: &OnlineStats) -> Json {
    let (n, mean, m2, min, max) = s.raw_parts();
    Json::Arr(vec![
        n.to_json(),
        mean.to_bits().to_json(),
        m2.to_bits().to_json(),
        min.to_json(),
        max.to_json(),
    ])
}

fn welford_from_json(v: &Json) -> Result<OnlineStats, JsonError> {
    match v.as_array() {
        Some([n, mean, m2, min, max]) => Ok(OnlineStats::from_raw_parts(
            u64::from_json(n)?,
            f64::from_bits(u64::from_json(mean)?),
            f64::from_bits(u64::from_json(m2)?),
            Option::from_json(min)?,
            Option::from_json(max)?,
        )),
        _ => Err(JsonError {
            msg: "expected online stats [n, mean, m2, min, max]".into(),
        }),
    }
}

/// The latency sketch in a checkpoint: exact samples as `f64` bit
/// patterns, spilled bins as `[index, count]` pairs.
struct SketchState {
    count: u64,
    min: Option<f64>,
    max: Option<f64>,
    exact: Vec<u64>,
    bins: Vec<[u64; 2]>,
}

impl_json_struct!(SketchState {
    count,
    min,
    max,
    exact,
    bins
});

impl SketchState {
    fn of(sketch: &BoundedQuantiles) -> SketchState {
        let (count, min, max, exact, bins) = sketch.raw_parts();
        SketchState {
            count,
            min,
            max,
            exact: exact.iter().map(|x| x.to_bits()).collect(),
            bins: bins.iter().map(|&(i, c)| [i, c]).collect(),
        }
    }

    fn restore(self) -> Result<BoundedQuantiles, JsonError> {
        BoundedQuantiles::from_raw_parts(
            QUANTILE_LIMIT,
            self.count,
            self.min,
            self.max,
            self.exact.into_iter().map(f64::from_bits).collect(),
            self.bins.into_iter().map(|[i, c]| (i, c)).collect(),
        )
        .ok_or_else(|| JsonError {
            msg: "sketch bin out of range or overflowing".into(),
        })
    }
}

/// One shard's epoch outcome, merged in shard order at the barrier.
struct ShardDelta {
    stats: FleetStats,
    /// Boards newly quarantined this epoch, with their resident cache at
    /// the moment of quarantine (for re-replication).
    quarantines: Vec<(u32, Vec<CachedCopy>)>,
}

/// Pure shard epoch step: processes `arrivals` (time-ordered, already
/// routed to boards in this shard) against the shard's board slice.
fn process_shard(
    boards: &mut [Board],
    base_id: u32,
    arrivals: &[(Arrival, u32)],
    catalog: &[FleetCatalogEntry],
    calibration: &Calibration,
    cfg: &FleetConfig,
) -> ShardDelta {
    let mut d = ShardDelta {
        stats: FleetStats::new(),
        quarantines: Vec::new(),
    };
    for &(arr, board_id) in arrivals {
        let mut bi = (board_id - base_id) as usize;
        // Least-backlog healthy sibling (deterministic tie-break: lowest
        // index) — the fallback for both re-routing and work-stealing.
        let least_loaded =
            |boards: &mut [Board], except: Option<usize>| -> Option<(usize, usize)> {
                let mut best: Option<(usize, usize)> = None;
                for (j, b) in boards.iter_mut().enumerate() {
                    if b.quarantined || Some(j) == except {
                        continue;
                    }
                    let depth = b.prune(arr.at_ps);
                    if best.is_none_or(|(_, bd)| depth < bd) {
                        best = Some((j, depth));
                    }
                }
                best
            };
        if boards[bi].quarantined {
            // Mid-epoch the ring still names this board (membership changes
            // only at barriers); the shard's admission layer re-routes.
            match least_loaded(boards, None) {
                Some((j, _)) => {
                    bi = j;
                    d.stats.counters.rerouted += 1;
                }
                None => {
                    d.stats.counters.rejected += 1;
                    continue;
                }
            }
        } else {
            let backlog = boards[bi].prune(arr.at_ps);
            if backlog >= cfg.steal_threshold as usize {
                if let Some((j, depth)) = least_loaded(boards, Some(bi)) {
                    if depth + 1 < backlog {
                        bi = j;
                        d.stats.counters.stolen += 1;
                    }
                }
            }
        }
        if boards[bi].prune(arr.at_ps) >= cfg.queue_capacity as usize {
            d.stats.counters.rejected += 1;
            continue;
        }
        let entry = &catalog[arr.entry as usize];
        let class = &calibration.classes[entry.class as usize];
        let out = boards[bi].dispatch(
            arr.at_ps,
            arr.entry,
            entry.version,
            class,
            cfg.cache_capacity_bytes,
        );
        if out.hit {
            d.stats.counters.cache_hits += 1;
        } else {
            d.stats.counters.cache_misses += 1;
        }
        d.stats.counters.cache_evictions += u64::from(out.evictions);
        if out.crc_failed {
            d.stats.counters.crc_failures += 1;
        }
        if out.scrubbed {
            d.stats.counters.scrubs += 1;
        }
        if out.scrub_failed {
            d.stats.counters.scrub_failures += 1;
            d.stats.counters.failed += 1;
        } else {
            d.stats.counters.completed += 1;
            let sojourn_us = (out.completion_ps - arr.at_ps) as f64 / 1e6;
            d.stats.latency.push(sojourn_us);
            d.stats.sketch.push(sojourn_us);
            d.stats
                .queue_wait
                .push((out.start_ps - arr.at_ps) as f64 / 1e6);
        }
        d.stats.max_completion_ps = d.stats.max_completion_ps.max(out.completion_ps);
        if boards[bi].scrub_strikes >= cfg.quarantine_strikes && !boards[bi].quarantined {
            boards[bi].quarantined = true;
            d.quarantines
                .push((boards[bi].id, boards[bi].cache.clone()));
        }
    }
    d
}

/// Per-board fault rates drawn once from the campaign seed (bad boards are
/// a deterministic function of config, so resume can rebuild them).
fn fault_rates(cfg: &FleetConfig) -> Vec<f64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0x4241_445f_424f_4152);
    let p_bad = cfg.bad_board_permille as f64 / 1000.0;
    (0..cfg.boards)
        .map(|_| {
            if rng.next_f64() < p_bad {
                cfg.bad_fault_rate
            } else {
                cfg.base_fault_rate
            }
        })
        .collect()
}

/// A resumable fleet campaign. Drive with [`FleetRun::step_epoch`] or
/// [`FleetRun::run_to_end`]; checkpoint with [`FleetRun::checkpoint`] +
/// [`snapshot::save`]; resume with [`FleetRun::resume`].
pub struct FleetRun {
    config: FleetConfig,
    calibration: Calibration,
    catalog: Vec<FleetCatalogEntry>,
    ring: PlacementRing,
    /// Boards, shard-major: `shards[s]` owns ids `s*per .. (s+1)*per`.
    shards: Vec<Vec<Board>>,
    traffic: TrafficModel,
    epoch_idx: u64,
    finished: bool,
    stats: FleetStats,
    config_digest: u64,
}

impl FleetRun {
    /// Builds a fresh campaign: runs calibration on the cycle-level system,
    /// builds catalog, ring, boards and the traffic stream.
    pub fn new(config: FleetConfig) -> FleetRun {
        assert!(config.boards > 0, "fleet needs at least one board");
        assert!(config.epoch.as_ps() > 0, "fleet needs a positive epoch");
        let calibration = Calibration::measure(
            &config.system,
            &config.fetch,
            config.size_classes,
            config.service_mhz,
            config.scrub_mhz,
        );
        let catalog = build_catalog(config.catalog_entries, config.size_classes);
        let ring = PlacementRing::new(config.boards, config.vnodes_per_board);
        let rates = fault_rates(&config);
        let per = config.boards_per_shard();
        let shards = (0..config.effective_shards())
            .map(|s| {
                (s * per..((s + 1) * per).min(config.boards))
                    .map(|b| Board::new(b, config.seed, rates[b as usize]))
                    .collect()
            })
            .collect();
        let traffic = TrafficModel::new(
            config.traffic.clone(),
            config.tenants,
            config.catalog_entries,
            config.seed,
        );
        let config_digest = Self::digest_config(&config, &calibration);
        FleetRun {
            config,
            calibration,
            catalog,
            ring,
            shards,
            traffic,
            epoch_idx: 0,
            finished: false,
            stats: FleetStats::new(),
            config_digest,
        }
    }

    /// A digest binding a checkpoint to its config — including the
    /// calibration table, which transitively covers the [`SystemConfig`]
    /// (but *not* the engine strategy: both engines calibrate to identical
    /// tables, so checkpoints are engine-portable by construction).
    fn digest_config(cfg: &FleetConfig, calibration: &Calibration) -> u64 {
        let t = &cfg.traffic;
        let fields: Vec<u64> = [
            u64::from(cfg.boards),
            u64::from(cfg.shards),
            u64::from(cfg.vnodes_per_board),
            u64::from(cfg.tenants),
            u64::from(cfg.catalog_entries),
            u64::from(cfg.size_classes),
            cfg.seed,
            t.target_requests,
            t.duration.as_ps(),
            u64::from(t.burst_amplitude_permille),
            t.burst_period.as_ps(),
            u64::from(t.tenant_zipf_milli),
            u64::from(t.entry_zipf_milli),
            cfg.epoch.as_ps(),
            u64::from(cfg.queue_capacity),
            u64::from(cfg.steal_threshold),
            cfg.cache_capacity_bytes,
            cfg.fetch.bandwidth_bytes_per_s,
            cfg.fetch.per_fetch_overhead.as_ps(),
            cfg.service_mhz,
            cfg.scrub_mhz,
            cfg.base_fault_rate.to_bits(),
            u64::from(cfg.bad_board_permille),
            cfg.bad_fault_rate.to_bits(),
            u64::from(cfg.quarantine_strikes),
            u64::from(cfg.replicate_on_quarantine),
            cfg.invalidate_every_epochs,
        ]
        .into_iter()
        .chain(calibration.classes.iter().flat_map(|c| {
            [
                c.raw_bytes,
                c.stored_bytes,
                c.transfer_ps,
                c.scrub_ps,
                c.fetch_ps,
            ]
        }))
        .collect();
        let mut bytes = Vec::with_capacity(fields.len() * 8);
        for f in fields {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        snapshot::fnv1a(&bytes)
    }

    /// The placement ring (current membership).
    pub fn ring(&self) -> &PlacementRing {
        &self.ring
    }

    /// The calibration table driving every board's service times.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Epoch barriers executed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch_idx
    }

    /// True once the traffic stream is exhausted.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Runs one epoch: serial arrival generation + routing, parallel shard
    /// step over `executor`, ordered merge, then the control-plane barrier
    /// (quarantine propagation, re-replication, invalidation). Returns
    /// `false` once the campaign is finished.
    pub fn step_epoch(&mut self, executor: &ParallelExecutor) -> bool {
        if self.finished {
            return false;
        }
        let end_ps = (self.epoch_idx + 1) * self.config.epoch.as_ps();
        let mut arrivals = Vec::new();
        let more = self.traffic.fill_until(end_ps, &mut arrivals);

        // Serial routing through the barrier-frozen ring.
        let shard_count = self.shards.len();
        let per = self.config.boards_per_shard();
        let mut buckets: Vec<Vec<(Arrival, u32)>> = (0..shard_count).map(|_| Vec::new()).collect();
        for a in arrivals {
            self.stats.counters.submitted += 1;
            match self.ring.lookup(a.key) {
                None => self.stats.counters.rejected += 1,
                Some(b) => buckets[(b / per) as usize].push((a, b)),
            }
        }

        // Parallel shard step; results committed in shard-index order.
        let shards_ref = &self.shards;
        let buckets_ref = &buckets;
        let catalog_ref = &self.catalog;
        let calib_ref = &self.calibration;
        let cfg_ref = &self.config;
        let results = executor.map(shard_count, |s| {
            let mut boards = shards_ref[s].clone();
            let delta = process_shard(
                &mut boards,
                s as u32 * per,
                &buckets_ref[s],
                catalog_ref,
                calib_ref,
                cfg_ref,
            );
            (boards, delta)
        });

        // Ordered merge at the barrier.
        let mut quarantines: Vec<(u32, Vec<CachedCopy>)> = Vec::new();
        for (s, (boards, d)) in results.into_iter().enumerate() {
            self.shards[s] = boards;
            self.stats.merge(&d.stats);
            quarantines.extend(d.quarantines);
        }

        // Quarantine propagation: drain from the ring, then re-replicate
        // the drained boards' resident entries to their ring homes.
        for &(board_id, _) in &quarantines {
            if self.ring.drain(board_id) {
                self.stats.counters.boards_quarantined += 1;
            }
        }
        if self.config.replicate_on_quarantine {
            let budget = self.config.cache_capacity_bytes;
            for (_, residents) in &quarantines {
                for copy in residents {
                    let home_key = mix64(0x454e_5452_595f_484f ^ u64::from(copy.entry));
                    if let Some(home) = self.ring.lookup(home_key) {
                        let fresh = CachedCopy {
                            entry: copy.entry,
                            version: self.catalog[copy.entry as usize].version,
                            stored_bytes: copy.stored_bytes,
                        };
                        let per = self.config.boards_per_shard();
                        let b = &mut self.shards[(home / per) as usize][(home % per) as usize];
                        let evicted = b.warm(fresh, budget);
                        if evicted > 0 {
                            self.stats.counters.cache_evictions += u64::from(evicted);
                        }
                        self.stats.counters.replicated_entries += 1;
                    }
                }
            }
        }

        // Catalog invalidation: bump one entry's version; every resident
        // copy fleet-wide drops (the next request re-fetches).
        let k = self.config.invalidate_every_epochs;
        if k > 0 && (self.epoch_idx + 1).is_multiple_of(k) && !self.catalog.is_empty() {
            let victim =
                (mix64(self.config.seed ^ (self.epoch_idx + 1)) % self.catalog.len() as u64) as u32;
            self.catalog[victim as usize].version += 1;
            self.stats.counters.invalidations += 1;
            for shard in &mut self.shards {
                for b in shard {
                    if b.invalidate(victim) {
                        self.stats.counters.invalidated_copies += 1;
                    }
                }
            }
        }

        self.epoch_idx += 1;
        if !more {
            // Every admitted request already has a computed completion —
            // the fleet clock is lazy — so exhaustion ends the campaign.
            self.finished = true;
        }
        more
    }

    /// Steps until the traffic stream is exhausted.
    pub fn run_to_end(&mut self, executor: &ParallelExecutor) {
        while self.step_epoch(executor) {}
    }

    fn board_mut(&mut self, id: u32) -> &mut Board {
        let per = self.config.boards_per_shard();
        let s = (id / per) as usize;
        &mut self.shards[s][(id % per) as usize]
    }

    /// The merged fleet report.
    pub fn report(&self) -> FleetReport {
        let st = &self.stats;
        let c = &st.counters;
        let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        let makespan_us = st.max_completion_ps as f64 / 1e6;
        FleetReport {
            boards: u64::from(self.config.boards),
            shards: self.shards.len() as u64,
            epochs: self.epoch_idx,
            submitted: c.submitted,
            completed: c.completed,
            failed: c.failed,
            rejected: c.rejected,
            rerouted: c.rerouted,
            stolen: c.stolen,
            crc_failures: c.crc_failures,
            scrubs: c.scrubs,
            scrub_failures: c.scrub_failures,
            boards_quarantined: c.boards_quarantined,
            replicated_entries: c.replicated_entries,
            invalidations: c.invalidations,
            invalidated_copies: c.invalidated_copies,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            cache_evictions: c.cache_evictions,
            cache_hit_rate: ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            availability: ratio(c.completed, c.submitted),
            latency_us: StatsSummary::from(&st.latency),
            queue_wait_us: StatsSummary::from(&st.queue_wait),
            latency_p50_us: st.sketch.quantile(0.5),
            latency_p99_us: st.sketch.quantile(0.99),
            makespan_us,
            throughput_rps: (st.max_completion_ps > 0)
                .then(|| c.completed as f64 / (st.max_completion_ps as f64 / 1e12)),
        }
    }

    /// FNV-1a digest of the rendered report — the campaign's identity for
    /// equivalence checks.
    pub fn digest(&self) -> u64 {
        snapshot::fnv1a(self.report().to_json_string().as_bytes())
    }

    // ---- checkpoint / resume -------------------------------------------

    /// Serialises the full campaign state as a snapshot envelope of kind
    /// `"fleet"`. Pair with [`snapshot::save`] for atomic on-disk
    /// checkpoints.
    pub fn checkpoint(&self) -> Json {
        let versions: Vec<u32> = self.catalog.iter().map(|e| e.version).collect();
        let boards: Vec<Json> = self
            .shards
            .iter()
            .flatten()
            .map(|b| {
                Json::Obj(vec![
                    ("id".into(), b.id.to_json()),
                    ("rng".into(), b.rng.to_json()),
                    ("busy".into(), b.busy_until_ps.to_json()),
                    ("inflight".into(), b.inflight.to_json()),
                    ("cache".into(), b.cache.to_json()),
                    ("strikes".into(), b.scrub_strikes.to_json()),
                    ("quarantined".into(), b.quarantined.to_json()),
                ])
            })
            .collect();
        snapshot::envelope(
            "fleet",
            Json::Obj(vec![
                ("config_digest".into(), Json::U64(self.config_digest)),
                ("epoch".into(), Json::U64(self.epoch_idx)),
                ("finished".into(), Json::Bool(self.finished)),
                ("traffic".into(), self.traffic.snapshot_json()),
                ("versions".into(), versions.to_json()),
                ("stats".into(), self.stats.to_json()),
                ("boards".into(), Json::Arr(boards)),
            ]),
        )
    }

    /// Rebuilds a campaign from `config` plus a checkpoint produced by
    /// [`FleetRun::checkpoint`]. The config must match the one the
    /// checkpoint was taken under (verified via the config digest, which
    /// includes the calibration table); the continued run is byte-identical
    /// to one that never stopped.
    pub fn resume(config: FleetConfig, json: &Json) -> Result<FleetRun, JsonError> {
        let payload = snapshot::open(json, "fleet")?;
        let err = |msg: &str| JsonError { msg: msg.into() };

        let mut run = FleetRun::new(config);
        let digest: u64 = payload.field("config_digest")?;
        if digest != run.config_digest {
            return Err(err(&format!(
                "fleet checkpoint config digest {digest:#x} does not match \
                 {:#x} — wrong config for this checkpoint",
                run.config_digest
            )));
        }
        run.epoch_idx = payload.field("epoch")?;
        run.finished = payload.field("finished")?;
        run.traffic.restore_json(payload.required("traffic")?)?;

        let versions: Vec<u32> = payload.field("versions")?;
        if versions.len() != run.catalog.len() {
            return Err(err("catalog version count mismatch"));
        }
        for (e, v) in run.catalog.iter_mut().zip(versions) {
            e.version = v;
        }
        run.stats = payload.field("stats")?;

        // Boards (ids are positional: shard-major flatten order).
        let boards = payload
            .required("boards")?
            .as_array()
            .ok_or_else(|| err("boards: expected array"))?;
        if boards.len() != run.config.boards as usize {
            return Err(err("board count mismatch"));
        }
        for bj in boards {
            let id: u32 = bj.field("id")?;
            if id >= run.config.boards {
                return Err(err("board id out of range"));
            }
            let cache: Vec<CachedCopy> = bj.field("cache")?;
            let cache_bytes = cache
                .iter()
                .try_fold(0u64, |sum, c| sum.checked_add(c.stored_bytes))
                .ok_or_else(|| err("board cache bytes overflow"))?;
            let b = run.board_mut(id);
            b.rng = bj.field("rng")?;
            b.busy_until_ps = bj.field("busy")?;
            b.inflight = bj.field("inflight")?;
            b.cache = cache;
            b.cache_bytes = cache_bytes;
            b.scrub_strikes = bj.field("strikes")?;
            b.quarantined = bj.field("quarantined")?;
            if b.quarantined {
                run.ring.drain(id);
            }
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            boards: 6,
            shards: 2,
            tenants: 40,
            catalog_entries: 24,
            size_classes: 3,
            traffic: TrafficConfig {
                target_requests: 400,
                duration: SimDuration::from_millis(40),
                ..TrafficConfig::default()
            },
            epoch: SimDuration::from_millis(10),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_campaign_is_thread_invariant() {
        let mut serial = FleetRun::new(tiny());
        serial.run_to_end(&ParallelExecutor::serial());
        let reference = serial.report().to_json_string();
        for threads in [2, 3, 8] {
            let mut run = FleetRun::new(tiny());
            run.run_to_end(&ParallelExecutor::new(threads));
            assert_eq!(
                reference,
                run.report().to_json_string(),
                "threads={threads} must not change fleet bytes"
            );
        }
        assert!(serial.finished());
        let r = serial.report();
        assert_eq!(r.submitted, 400);
        assert_eq!(r.submitted, r.completed + r.failed + r.rejected);
        assert!(r.cache_hit_rate.unwrap() > 0.0);
    }

    #[test]
    fn fleet_checkpoint_resumes_byte_identically() {
        let ex = ParallelExecutor::new(2);
        let mut whole = FleetRun::new(tiny());
        whole.run_to_end(&ex);
        let expect = whole.report().to_json_string();

        let mut front = FleetRun::new(tiny());
        front.step_epoch(&ex);
        front.step_epoch(&ex);
        let ckpt = front.checkpoint();
        // Round-trip through rendered text, as a file would.
        let parsed = Json::parse(&ckpt.render()).expect("checkpoint parses");
        let mut back = FleetRun::resume(tiny(), &parsed).expect("resume");
        assert_eq!(back.epoch(), 2);
        back.run_to_end(&ex);
        assert_eq!(expect, back.report().to_json_string());
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let mut run = FleetRun::new(tiny());
        run.step_epoch(&ParallelExecutor::serial());
        let ckpt = run.checkpoint();
        let mut other = tiny();
        other.seed ^= 1;
        assert!(FleetRun::resume(other, &ckpt).is_err());
    }

    #[test]
    fn bad_boards_quarantine_and_leave_the_ring() {
        let mut cfg = tiny();
        cfg.bad_board_permille = 400;
        cfg.bad_fault_rate = 0.9;
        cfg.traffic.target_requests = 1500;
        let mut run = FleetRun::new(cfg);
        run.run_to_end(&ParallelExecutor::new(3));
        let r = run.report();
        assert!(
            r.boards_quarantined > 0,
            "bad boards must quarantine: {r:?}"
        );
        assert!(r.scrub_failures > 0 && r.crc_failures > r.scrub_failures);
        assert_eq!(
            run.ring().member_count() as u64,
            r.boards - r.boards_quarantined
        );
        // Placement never routes to a quarantined board after the barrier.
        for k in 0..200u64 {
            if let Some(b) = run.ring().lookup(mix64(k)) {
                assert!(run.ring().is_member(b));
            }
        }
        assert!(r.replicated_entries > 0, "hot entries re-replicate");
    }

    #[test]
    fn invalidation_rounds_drop_copies() {
        let mut cfg = tiny();
        cfg.invalidate_every_epochs = 1;
        let mut run = FleetRun::new(cfg);
        run.run_to_end(&ParallelExecutor::serial());
        let r = run.report();
        assert!(r.invalidations > 0);
        assert!(
            r.invalidated_copies > 0,
            "popular entries must have resident copies to drop: {r:?}"
        );
    }
}

//! Multi-tenant reconfiguration scheduling: admission, EDF-within-priority
//! queueing, and a bitstream cache with QDR-style prefetch.
//!
//! The measured system reconfigures **one partition at a time**, and every
//! request pays the full bitstream *fetch* (SD card at boot, ~19 MB/s) in
//! front of the *transfer* (over-clocked ICAP, ~790 MB/s). Sec. VI's
//! redesign exists precisely to break that serialisation: the QDR-II+ SRAM
//! has independent read and write ports, so the PS Scheduler refills the
//! staging memory with the *next* bitstream while the current one streams
//! into the ICAP. [`Scheduler`] is that control layer:
//!
//! * **Admission** — a request is rejected up front when it names an
//!   unknown bitstream or partition, when its partition is quarantined by
//!   the recovery ladder ([`RecoveryManager`]), or when the ready queue is
//!   full. Rejection is cheap and synchronous; nothing touches hardware.
//! * **Ready queue** — earliest-deadline-first within strictly higher
//!   priority, with submission order as the final tie-break so identical
//!   workloads replay identically.
//! * **Bitstream cache + prefetch** — staged images are cached (LRU under
//!   a byte budget). A miss charges the [`FetchModel`]'s fetch time on the
//!   critical path; when prefetch is enabled the scheduler starts fetching
//!   the *next* queued request's image on the independent write port as
//!   soon as the current transfer begins, so back-to-back transfers on
//!   different partitions pipeline instead of serialising behind fetches.
//! * **Compressed catalog** — with
//!   [`compress_catalog`](SchedulerConfig::compress_catalog) the catalog
//!   holds `PDRC` containers (see `pdr-bitstream-codec`): fetches move the
//!   *compressed* bytes and the LRU budget is charged by *stored* size, so
//!   the same staging SRAM holds more images and cold misses stall for
//!   `fetch_time(stored_bytes)` instead of the raw size. Dispatch expands
//!   the container and the transfer still verifies by CRC read-back.
//! * **Telemetry** — per-request queueing and service latency (exact
//!   p50/p99 via [`SampleSeries`]), aggregate throughput, cache and
//!   deadline counters, all serialisable as [`SchedulerReport`] with the
//!   workspace-wide guarantee that no non-finite float reaches JSON.
//!
//! Transfers themselves are delegated to [`RecoveryManager::reconfigure`],
//! so every request gets the full self-healing ladder (retry → backoff →
//! scrub → quarantine) and quarantine feedback flows straight back into
//! admission.

use std::collections::BTreeMap;

use pdr_bitstream::Bitstream;
use pdr_bitstream_codec::{compress_bitstream, decompress_to_bitstream, CodecReport};
use pdr_mem::SramConfig;
use pdr_sim_core::json::{Json, JsonError, ToJson};
use pdr_sim_core::stats::SampleSeries;
use pdr_sim_core::{impl_json_enum, impl_json_struct, Frequency, SimDuration, SimTime};

use crate::campaign::StatsSummary;
use crate::recovery::{PartitionHealth, RecoveryManager};
use crate::report::ReconfigError;
use crate::sdcard::SdCard;
use crate::system::ZynqPdrSystem;
use crate::trace::TraceEvent;

/// One tenant's reconfiguration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigRequest {
    /// Target reconfigurable partition.
    pub rp: usize,
    /// Catalog id of the bitstream to apply (see
    /// [`Scheduler::register_bitstream`]).
    pub bitstream_id: u32,
    /// Scheduling priority; higher runs first.
    pub priority: u8,
    /// Relative deadline from submission. Requests finishing later still
    /// complete, but are counted as deadline misses.
    pub deadline: SimDuration,
    /// Owning tenant. Tenants with an energy budget (see
    /// [`Scheduler::set_energy_budget_j`]) are metered per verified
    /// transfer and refused admission once the budget is spent; tenant 0
    /// with no registered budget is the legacy unmetered behaviour.
    pub tenant: u32,
}

impl_json_struct!(ReconfigRequest {
    rp,
    bitstream_id,
    priority,
    deadline,
    tenant,
});

/// Why admission refused a request. Rejection happens synchronously at
/// submission; nothing is queued and no hardware is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// `bitstream_id` was never registered with the scheduler.
    UnknownBitstream,
    /// `rp` is outside the system's floorplan.
    InvalidPartition,
    /// The recovery ladder quarantined the target partition.
    Quarantined,
    /// The ready queue is at capacity.
    QueueFull,
    /// The tenant's energy budget is exhausted.
    EnergyExhausted,
}

impl_json_enum!(RejectReason {
    UnknownBitstream,
    InvalidPartition,
    Quarantined,
    QueueFull,
    EnergyExhausted
});

/// Analytic model of the path that brings a bitstream *into* the staging
/// store: bandwidth plus a fixed per-fetch overhead (file-system lookup,
/// command setup). The scheduler charges this on the critical path for
/// cold misses, and hides it behind the running transfer when prefetch is
/// enabled (the QDR write port is independent of the read port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchModel {
    /// Sustained fetch bandwidth, bytes per second.
    pub bandwidth_bytes_per_s: u64,
    /// Fixed overhead per fetch.
    pub per_fetch_overhead: SimDuration,
}

impl FetchModel {
    /// Fetch model of `card` (a class-10 SD card sustains ~19 MB/s with
    /// ~2 ms of file overhead — the paper's boot-time staging path).
    pub fn from_sd_card(card: &SdCard) -> Self {
        FetchModel {
            bandwidth_bytes_per_s: card.bandwidth_bytes_per_s(),
            per_fetch_overhead: card.per_file_overhead(),
        }
    }

    /// Fetch model of a QDR SRAM's independent write port: the Sec. VI
    /// prefetch path (1237.5 MB/s on the CY7C2263KV18, no per-file
    /// overhead — the image is already in DRAM).
    pub fn from_qdr_write_port(sram: &SramConfig) -> Self {
        FetchModel {
            bandwidth_bytes_per_s: sram.write_bw_bytes_per_s,
            per_fetch_overhead: SimDuration::ZERO,
        }
    }

    /// Time to fetch `bytes` through this path.
    pub fn fetch_time(&self, bytes: u64) -> SimDuration {
        assert!(
            self.bandwidth_bytes_per_s > 0,
            "fetch bandwidth must be > 0"
        );
        self.per_fetch_overhead
            + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_s as f64)
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Transfer frequency handed to the recovery ladder, MHz.
    pub freq_mhz: u64,
    /// Bitstream-cache budget in bytes; 0 disables caching entirely.
    pub cache_capacity_bytes: u64,
    /// Ready-queue depth; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// The cold-fetch path (cache misses pay this).
    pub fetch: FetchModel,
    /// Overlap the next request's fetch with the running transfer.
    pub prefetch: bool,
    /// Store the catalog as `PDRC` containers: fetches move compressed
    /// bytes and the cache budget is charged by stored size.
    pub compress_catalog: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            freq_mhz: 200,
            cache_capacity_bytes: 8 << 20,
            queue_capacity: 64,
            fetch: FetchModel::from_sd_card(&SdCard::class10()),
            prefetch: true,
            compress_catalog: false,
        }
    }
}

impl SchedulerConfig {
    /// The single-request-at-a-time strawman the saturation bench compares
    /// against: no cache, no prefetch — every dispatch serialises the full
    /// fetch in front of its transfer, exactly like re-reading the SD card
    /// per request on the measured system.
    pub fn baseline(self) -> Self {
        SchedulerConfig {
            cache_capacity_bytes: 0,
            prefetch: false,
            ..self
        }
    }

    /// Enables the compressed catalog (Sec. VI decompressor in front of
    /// the ICAP): fetch stalls and cache residency are charged on stored
    /// container bytes instead of raw image bytes.
    pub fn compressed(self) -> Self {
        SchedulerConfig {
            compress_catalog: true,
            ..self
        }
    }
}

/// How a registered image is held in the catalog.
#[derive(Debug, Clone)]
enum CatalogImage {
    /// The raw image, as registered.
    Raw(Bitstream),
    /// A `PDRC` container; expanded at dispatch.
    Compressed(Vec<u8>),
}

/// One catalog slot: the image plus both of its sizes. Fetch time and the
/// LRU byte budget are always charged on `stored_bytes`; `raw_bytes` is
/// what actually crosses the ICAP once expanded.
#[derive(Debug, Clone)]
struct CatalogEntry {
    image: CatalogImage,
    raw_bytes: u64,
    stored_bytes: u64,
    codec: Option<CodecReport>,
}

impl CatalogEntry {
    fn materialise(&self) -> Bitstream {
        match &self.image {
            CatalogImage::Raw(bs) => bs.clone(),
            CatalogImage::Compressed(bytes) => decompress_to_bitstream(bytes)
                .expect("scheduler-encoded container round-trips bit-exactly"),
        }
    }
}

/// A queued (admitted, not yet dispatched) request.
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: ReconfigRequest,
    submitted: SimTime,
    abs_deadline: SimTime,
    seq: u64,
}

impl_json_struct!(Queued {
    req,
    submitted,
    abs_deadline,
    seq
});

/// What one completed (dispatched) request observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// The request as submitted.
    pub req: ReconfigRequest,
    /// Submission → dispatch.
    pub queueing: SimDuration,
    /// Dispatch → completion (fetch stall + transfer + any recovery).
    pub service: SimDuration,
    /// Whether the image was resident when dispatched.
    pub cache_hit: bool,
    /// Completion at or before the absolute deadline.
    pub deadline_met: bool,
    /// Final classified error (`None` = verified success).
    pub error: Option<ReconfigError>,
}

impl_json_struct!(RequestRecord {
    req,
    queueing,
    service,
    cache_hit,
    deadline_met,
    error,
});

/// Aggregate scheduler telemetry, serialisable like every other report.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerReport {
    /// Requests submitted (admitted + rejected).
    pub submitted: u64,
    /// Requests admitted to the ready queue.
    pub admitted: u64,
    /// Rejections naming an unregistered bitstream.
    pub rejected_unknown_bitstream: u64,
    /// Rejections naming a partition outside the floorplan.
    pub rejected_invalid_partition: u64,
    /// Rejections against a quarantined partition.
    pub rejected_quarantined: u64,
    /// Rejections against a full ready queue.
    pub rejected_queue_full: u64,
    /// Rejections against an exhausted tenant energy budget.
    pub rejected_energy_exhausted: u64,
    /// Joules charged to metered tenants by verified transfers.
    pub energy_charged_j: f64,
    /// Dispatched requests that verified end-to-end.
    pub completed: u64,
    /// Dispatched requests whose recovery ladder still failed.
    pub failed: u64,
    /// Completions at or before their absolute deadline.
    pub deadlines_met: u64,
    /// Completions after their absolute deadline.
    pub deadlines_missed: u64,
    /// Dispatches served from the resident cache.
    pub cache_hits: u64,
    /// Dispatches that paid a fetch on the critical path.
    pub cache_misses: u64,
    /// Misses fully or partially hidden by prefetch overlap.
    pub prefetch_hits: u64,
    /// Images evicted from the resident cache (capacity pressure, or
    /// replacement when an id is re-registered). Until this PR evictions
    /// went entirely unaccounted, so cache thrash was invisible in the
    /// report even though every evicted image pays a re-fetch later.
    pub cache_evictions: u64,
    /// Stored bytes released by those evictions.
    pub bytes_evicted: u64,
    /// Payload bytes of verified transfers (raw, post-decompression).
    pub bytes_transferred: u64,
    /// Stored (possibly compressed) bytes fetched on cold misses.
    pub bytes_fetched: u64,
    /// Sum of raw image sizes across the catalog.
    pub catalog_raw_bytes: u64,
    /// Sum of stored image sizes across the catalog (equals
    /// `catalog_raw_bytes` when the catalog is uncompressed).
    pub catalog_stored_bytes: u64,
    /// First submission to last completion, µs.
    pub makespan_us: f64,
    /// Aggregate goodput over the makespan in MB/s (10⁶ bytes/s), `None`
    /// when the window is degenerate (no finite ratio).
    pub throughput_mb_s: Option<f64>,
    /// Submission → dispatch latency, µs.
    pub queueing_latency_us: StatsSummary,
    /// Dispatch → completion latency, µs.
    pub service_latency_us: StatsSummary,
    /// Exact median queueing latency, µs (`None` with no completions).
    pub queueing_p50_us: Option<f64>,
    /// Exact 99th-percentile queueing latency, µs.
    pub queueing_p99_us: Option<f64>,
    /// Exact median service latency, µs.
    pub service_p50_us: Option<f64>,
    /// Exact 99th-percentile service latency, µs.
    pub service_p99_us: Option<f64>,
}

impl_json_struct!(SchedulerReport {
    submitted,
    admitted,
    rejected_unknown_bitstream,
    rejected_invalid_partition,
    rejected_quarantined,
    rejected_queue_full,
    rejected_energy_exhausted,
    energy_charged_j,
    completed,
    failed,
    deadlines_met,
    deadlines_missed,
    cache_hits,
    cache_misses,
    prefetch_hits,
    cache_evictions,
    bytes_evicted,
    bytes_transferred,
    bytes_fetched,
    catalog_raw_bytes,
    catalog_stored_bytes,
    makespan_us,
    throughput_mb_s,
    queueing_latency_us,
    service_latency_us,
    queueing_p50_us,
    queueing_p99_us,
    service_p50_us,
    service_p99_us,
});

/// An in-flight prefetch on the staging store's write port.
#[derive(Debug, Clone, Copy)]
struct Prefetch {
    bitstream_id: u32,
    ready_at: SimTime,
}

impl_json_struct!(Prefetch {
    bitstream_id,
    ready_at
});

/// A catalog image's sizes, checkpointed to verify the rebuilt catalog.
struct CatalogDigest {
    id: u32,
    raw_bytes: u64,
    stored_bytes: u64,
}

impl_json_struct!(CatalogDigest {
    id,
    raw_bytes,
    stored_bytes
});

/// One tenant's energy figure in a checkpoint.
struct TenantJoules {
    tenant: u32,
    j: f64,
}

impl_json_struct!(TenantJoules { tenant, j });

fn energy_to_json(map: &BTreeMap<u32, f64>) -> Json {
    let entries = map.iter().map(|(&tenant, &j)| TenantJoules { tenant, j });
    Json::Arr(entries.map(|e| e.to_json()).collect())
}

/// Checkpoints from before energy budgets carry no energy maps.
fn energy_from_json(json: &Json, key: &str) -> Result<BTreeMap<u32, f64>, JsonError> {
    if json.get(key).is_none() {
        return Ok(BTreeMap::new());
    }
    let entries: Vec<TenantJoules> = json.field(key)?;
    Ok(entries.into_iter().map(|e| (e.tenant, e.j)).collect())
}

/// The multi-tenant reconfiguration scheduler.
///
/// Owns the request queue, the bitstream catalog/cache and the telemetry;
/// borrows the [`ZynqPdrSystem`] and [`RecoveryManager`] per call so they
/// remain usable (and inspectable) between scheduling rounds.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    /// Registered images by id (`BTreeMap` for deterministic iteration).
    catalog: BTreeMap<u32, CatalogEntry>,
    /// Resident ids, least-recently-used first.
    cache: Vec<u32>,
    cache_bytes: u64,
    queue: Vec<Queued>,
    prefetch: Option<Prefetch>,
    seq: u64,
    first_submit: Option<SimTime>,
    last_complete: Option<SimTime>,
    records: Vec<RequestRecord>,
    queueing_us: SampleSeries,
    service_us: SampleSeries,
    submitted: u64,
    rejections: [u64; 5],
    /// Per-tenant energy caps, joules (absent = unmetered).
    energy_budget_j: BTreeMap<u32, f64>,
    /// Joules charged so far per metered tenant.
    energy_spent_j: BTreeMap<u32, f64>,
    completed: u64,
    failed: u64,
    deadlines_met: u64,
    deadlines_missed: u64,
    cache_hits: u64,
    cache_misses: u64,
    prefetch_hits: u64,
    cache_evictions: u64,
    bytes_evicted: u64,
    bytes_transferred: u64,
    bytes_fetched: u64,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            catalog: BTreeMap::new(),
            cache: Vec::new(),
            cache_bytes: 0,
            queue: Vec::new(),
            prefetch: None,
            seq: 0,
            first_submit: None,
            last_complete: None,
            records: Vec::new(),
            queueing_us: SampleSeries::new(),
            service_us: SampleSeries::new(),
            submitted: 0,
            rejections: [0; 5],
            energy_budget_j: BTreeMap::new(),
            energy_spent_j: BTreeMap::new(),
            completed: 0,
            failed: 0,
            deadlines_met: 0,
            deadlines_missed: 0,
            cache_hits: 0,
            cache_misses: 0,
            prefetch_hits: 0,
            cache_evictions: 0,
            bytes_evicted: 0,
            bytes_transferred: 0,
            bytes_fetched: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Registers `bitstream` in the catalog under `id` (replacing any
    /// previous image with that id, which is also evicted from the cache).
    /// With a [compressed catalog](SchedulerConfig::compress_catalog) the
    /// image is encoded to a `PDRC` container here, once.
    pub fn register_bitstream(&mut self, id: u32, bitstream: Bitstream) {
        self.evict(id);
        let raw_bytes = bitstream.len() as u64;
        let entry = if self.config.compress_catalog {
            let c = compress_bitstream(&bitstream);
            CatalogEntry {
                raw_bytes,
                stored_bytes: c.bytes.len() as u64,
                codec: Some(c.report),
                image: CatalogImage::Compressed(c.bytes),
            }
        } else {
            CatalogEntry {
                raw_bytes,
                stored_bytes: raw_bytes,
                codec: None,
                image: CatalogImage::Raw(bitstream),
            }
        };
        self.catalog.insert(id, entry);
    }

    /// Marks `id` resident in the cache without charging fetch time — the
    /// "warm cache" starting state (images staged at boot).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the catalog.
    pub fn warm(&mut self, id: u32) {
        let bytes = self.catalog[&id].stored_bytes;
        self.insert_cached(id, bytes);
    }

    /// Raw image size of `id`, bytes.
    pub fn raw_bytes(&self, id: u32) -> Option<u64> {
        self.catalog.get(&id).map(|e| e.raw_bytes)
    }

    /// Bytes `id` occupies in the catalog/cache (container size when the
    /// catalog is compressed, the raw size otherwise).
    pub fn stored_bytes(&self, id: u32) -> Option<u64> {
        self.catalog.get(&id).map(|e| e.stored_bytes)
    }

    /// Codec telemetry for `id` (`None` on an uncompressed catalog).
    pub fn codec_report(&self, id: u32) -> Option<&CodecReport> {
        self.catalog.get(&id).and_then(|e| e.codec.as_ref())
    }

    /// Bytes currently resident in the cache (stored sizes).
    pub fn cached_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Number of requests waiting in the ready queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether `id` is currently resident in the cache.
    pub fn is_cached(&self, id: u32) -> bool {
        self.cache.contains(&id)
    }

    /// Per-request records of every dispatched request, completion order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Caps `tenant`'s verified-transfer energy at `budget_j` joules.
    /// Requests from a tenant whose spend has reached its cap are rejected
    /// at admission with [`RejectReason::EnergyExhausted`]. Re-registering
    /// raises (or lowers) the cap without forgetting past spend.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative budget.
    pub fn set_energy_budget_j(&mut self, tenant: u32, budget_j: f64) {
        assert!(
            budget_j.is_finite() && budget_j >= 0.0,
            "energy budget must be finite and non-negative: {budget_j}"
        );
        self.energy_budget_j.insert(tenant, budget_j);
    }

    /// `tenant`'s energy cap, if one is registered.
    pub fn energy_budget_j(&self, tenant: u32) -> Option<f64> {
        self.energy_budget_j.get(&tenant).copied()
    }

    /// Joules charged to `tenant` so far (0.0 for a tenant never seen).
    pub fn energy_spent_j(&self, tenant: u32) -> f64 {
        self.energy_spent_j.get(&tenant).copied().unwrap_or(0.0)
    }

    /// Remaining joules under `tenant`'s cap (`None` when unmetered).
    pub fn energy_remaining_j(&self, tenant: u32) -> Option<f64> {
        self.energy_budget_j
            .get(&tenant)
            .map(|b| (b - self.energy_spent_j(tenant)).max(0.0))
    }

    /// Submits one request at the system's current simulated time. On
    /// success the request joins the ready queue; on rejection nothing is
    /// queued and the reason is returned.
    pub fn submit(
        &mut self,
        sys: &ZynqPdrSystem,
        recovery: &RecoveryManager,
        req: ReconfigRequest,
    ) -> Result<(), RejectReason> {
        self.submitted += 1;
        let reason = if !self.catalog.contains_key(&req.bitstream_id) {
            Some(RejectReason::UnknownBitstream)
        } else if req.rp >= sys.floorplan().partitions().len() {
            Some(RejectReason::InvalidPartition)
        } else if recovery.health(req.rp) == PartitionHealth::Quarantined {
            Some(RejectReason::Quarantined)
        } else if self.queue.len() >= self.config.queue_capacity {
            Some(RejectReason::QueueFull)
        } else if self
            .energy_budget_j
            .get(&req.tenant)
            .is_some_and(|b| self.energy_spent_j(req.tenant) >= *b)
        {
            Some(RejectReason::EnergyExhausted)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.rejections[reason as usize] += 1;
            return Err(reason);
        }
        let now = sys.now();
        self.first_submit.get_or_insert(now);
        self.queue.push(Queued {
            req,
            submitted: now,
            abs_deadline: now + req.deadline,
            seq: self.seq,
        });
        self.seq += 1;
        Ok(())
    }

    /// Dispatches the best ready request (EDF within priority): charges
    /// any fetch stall, runs the transfer through the recovery ladder,
    /// arms the next prefetch, and records telemetry. Returns the record,
    /// or `None` when the queue is empty.
    pub fn dispatch_one(
        &mut self,
        sys: &mut ZynqPdrSystem,
        recovery: &mut RecoveryManager,
    ) -> Option<RequestRecord> {
        let idx = self.best_ready()?;
        let q = self.queue.remove(idx);
        let entry = &self.catalog[&q.req.bitstream_id];
        // Fetch and residency are charged on stored (possibly compressed)
        // bytes; the ICAP transfer moves the raw expansion.
        let stored = entry.stored_bytes;
        let raw = entry.raw_bytes;

        // ---- Stage the image: cache hit, prefetch overlap, or cold miss.
        let dispatch = sys.now();
        let was_hit = self.is_cached(q.req.bitstream_id);
        if was_hit {
            self.cache_hits += 1;
            self.touch(q.req.bitstream_id);
            sys.trace_emit(TraceEvent::CacheHit {
                id: q.req.bitstream_id as u64,
                bytes: stored,
            });
        } else {
            self.cache_misses += 1;
            let stall = match self.prefetch {
                // An earlier dispatch already started this fetch on the
                // independent write port: only the uncovered tail stalls.
                Some(p) if p.bitstream_id == q.req.bitstream_id => {
                    self.prefetch_hits += 1;
                    if p.ready_at > dispatch {
                        p.ready_at.duration_since(dispatch)
                    } else {
                        SimDuration::ZERO
                    }
                }
                _ => self.config.fetch.fetch_time(stored),
            };
            self.bytes_fetched += stored;
            sys.trace_emit(TraceEvent::CacheMiss {
                id: q.req.bitstream_id as u64,
                stored_bytes: stored,
            });
            for (victim, released) in self.insert_cached(q.req.bitstream_id, stored) {
                sys.trace_emit(TraceEvent::CacheEvict {
                    id: victim as u64,
                    bytes: released,
                });
            }
            if stall > SimDuration::ZERO {
                sys.run_monitor_for(stall);
            }
        }
        if self
            .prefetch
            .is_some_and(|p| p.bitstream_id == q.req.bitstream_id)
        {
            self.prefetch = None;
        }

        // ---- Arm the next prefetch before the transfer occupies the read
        // port: the write port is independent, so the fetch runs behind it.
        if self.config.prefetch && self.prefetch.is_none() {
            if let Some(next) = self.next_uncached_id() {
                let bytes = self.catalog[&next].stored_bytes;
                self.prefetch = Some(Prefetch {
                    bitstream_id: next,
                    ready_at: sys.now() + self.config.fetch.fetch_time(bytes),
                });
                sys.trace_emit(TraceEvent::PrefetchArmed {
                    id: next as u64,
                    bytes,
                });
            }
        }

        // ---- Transfer through the full self-healing ladder. A compressed
        // entry is expanded here; the read-back CRC check inside the ladder
        // therefore verifies the *post-decompression* image on the fabric.
        let bs = self.catalog[&q.req.bitstream_id].materialise();
        let freq = Frequency::from_mhz(self.config.freq_mhz);
        let out = recovery.reconfigure(sys, None, q.req.rp, &bs, freq);
        let done = sys.now();

        let record = RequestRecord {
            req: q.req,
            queueing: dispatch.duration_since(q.submitted),
            service: done.duration_since(dispatch),
            cache_hit: was_hit,
            deadline_met: done <= q.abs_deadline,
            error: out.error,
        };
        if out.error.is_none() {
            self.completed += 1;
            self.bytes_transferred += raw;
        } else {
            self.failed += 1;
        }
        // Metered tenants are charged the measured transfer energy (the
        // instrument can read slightly negative under noise at idle;
        // clamp so a budget can never be *refilled* by a charge).
        if self.energy_budget_j.contains_key(&q.req.tenant) {
            if let Some(e) = out.report.as_ref().and_then(|r| r.energy_j) {
                *self.energy_spent_j.entry(q.req.tenant).or_insert(0.0) += e.max(0.0);
            }
        }
        if record.deadline_met {
            self.deadlines_met += 1;
        } else {
            self.deadlines_missed += 1;
        }
        self.queueing_us.push(record.queueing.as_micros_f64());
        self.service_us.push(record.service.as_micros_f64());
        self.last_complete = Some(done);
        self.records.push(record);
        Some(record)
    }

    /// Dispatches until the ready queue is empty, returning how many
    /// requests ran.
    pub fn run_until_idle(
        &mut self,
        sys: &mut ZynqPdrSystem,
        recovery: &mut RecoveryManager,
    ) -> usize {
        let mut n = 0;
        while self.dispatch_one(sys, recovery).is_some() {
            n += 1;
        }
        n
    }

    /// Aggregate telemetry over everything scheduled so far.
    pub fn report(&mut self) -> SchedulerReport {
        let makespan = match (self.first_submit, self.last_complete) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => SimDuration::ZERO,
        };
        let throughput = Some(self.bytes_transferred as f64 / makespan.as_secs_f64() / 1e6)
            .filter(|t| t.is_finite());
        SchedulerReport {
            submitted: self.submitted,
            admitted: self.seq,
            rejected_unknown_bitstream: self.rejections[RejectReason::UnknownBitstream as usize],
            rejected_invalid_partition: self.rejections[RejectReason::InvalidPartition as usize],
            rejected_quarantined: self.rejections[RejectReason::Quarantined as usize],
            rejected_queue_full: self.rejections[RejectReason::QueueFull as usize],
            rejected_energy_exhausted: self.rejections[RejectReason::EnergyExhausted as usize],
            // `+ 0.0` canonicalises the empty-sum identity (`f64: Sum`
            // folds from -0.0) so unmetered runs report 0, not -0.
            energy_charged_j: self.energy_spent_j.values().sum::<f64>() + 0.0,
            completed: self.completed,
            failed: self.failed,
            deadlines_met: self.deadlines_met,
            deadlines_missed: self.deadlines_missed,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            prefetch_hits: self.prefetch_hits,
            cache_evictions: self.cache_evictions,
            bytes_evicted: self.bytes_evicted,
            bytes_transferred: self.bytes_transferred,
            bytes_fetched: self.bytes_fetched,
            catalog_raw_bytes: self.catalog.values().map(|e| e.raw_bytes).sum(),
            catalog_stored_bytes: self.catalog.values().map(|e| e.stored_bytes).sum(),
            makespan_us: makespan.as_micros_f64(),
            throughput_mb_s: throughput,
            queueing_latency_us: StatsSummary::from(&self.queueing_us.online_stats()),
            service_latency_us: StatsSummary::from(&self.service_us.online_stats()),
            queueing_p50_us: self.queueing_us.quantile(0.5),
            queueing_p99_us: self.queueing_us.quantile(0.99),
            service_p50_us: self.service_us.quantile(0.5),
            service_p99_us: self.service_us.quantile(0.99),
        }
    }

    /// Checkpoints the scheduler's dynamic state: ready queue, cache
    /// residency, in-flight prefetch, telemetry, and per-request records.
    ///
    /// The *catalog* is structural — the resume path rebuilds the scheduler
    /// with the same deterministic [`Scheduler::register_bitstream`] calls
    /// before restoring — so the snapshot carries only a per-id size digest
    /// used by [`Scheduler::restore_json`] to verify the rebuilt catalog is
    /// the one the checkpoint was taken against.
    pub fn snapshot_json(&self) -> Json {
        let catalog: Vec<CatalogDigest> = self
            .catalog
            .iter()
            .map(|(&id, e)| CatalogDigest {
                id,
                raw_bytes: e.raw_bytes,
                stored_bytes: e.stored_bytes,
            })
            .collect();
        Json::Obj(vec![
            ("catalog".to_string(), catalog.to_json()),
            ("cache".to_string(), self.cache.to_json()),
            ("cache_bytes".to_string(), self.cache_bytes.to_json()),
            ("queue".to_string(), self.queue.to_json()),
            ("prefetch".to_string(), self.prefetch.to_json()),
            ("seq".to_string(), self.seq.to_json()),
            ("first_submit".to_string(), self.first_submit.to_json()),
            ("last_complete".to_string(), self.last_complete.to_json()),
            ("records".to_string(), self.records.to_json()),
            ("queueing_us".to_string(), self.queueing_us.to_json()),
            ("service_us".to_string(), self.service_us.to_json()),
            ("submitted".to_string(), self.submitted.to_json()),
            ("rejections".to_string(), self.rejections.to_json()),
            (
                "energy_budget_j".to_string(),
                energy_to_json(&self.energy_budget_j),
            ),
            (
                "energy_spent_j".to_string(),
                energy_to_json(&self.energy_spent_j),
            ),
            ("completed".to_string(), self.completed.to_json()),
            ("failed".to_string(), self.failed.to_json()),
            ("deadlines_met".to_string(), self.deadlines_met.to_json()),
            (
                "deadlines_missed".to_string(),
                self.deadlines_missed.to_json(),
            ),
            ("cache_hits".to_string(), self.cache_hits.to_json()),
            ("cache_misses".to_string(), self.cache_misses.to_json()),
            ("prefetch_hits".to_string(), self.prefetch_hits.to_json()),
            (
                "cache_evictions".to_string(),
                self.cache_evictions.to_json(),
            ),
            ("bytes_evicted".to_string(), self.bytes_evicted.to_json()),
            (
                "bytes_transferred".to_string(),
                self.bytes_transferred.to_json(),
            ),
            ("bytes_fetched".to_string(), self.bytes_fetched.to_json()),
        ])
    }

    /// Restores a checkpoint taken with [`Scheduler::snapshot_json`] into a
    /// scheduler whose catalog has already been re-registered. Fails (and
    /// leaves this scheduler untouched) if the rebuilt catalog does not
    /// match the checkpoint's per-id size digest.
    pub fn restore_json(&mut self, json: &Json) -> Result<(), JsonError> {
        // ---- Validate the catalog digest before touching anything.
        let digest: Vec<CatalogDigest> = json.field("catalog")?;
        if digest.len() != self.catalog.len() {
            return Err(JsonError {
                msg: format!(
                    "scheduler snapshot catalog has {} images, rebuilt catalog has {}",
                    digest.len(),
                    self.catalog.len()
                ),
            });
        }
        for d in digest {
            match self.catalog.get(&d.id) {
                Some(e) if e.raw_bytes == d.raw_bytes && e.stored_bytes == d.stored_bytes => {}
                Some(_) => {
                    return Err(JsonError {
                        msg: format!("catalog image {} differs from the checkpointed image", d.id),
                    })
                }
                None => {
                    return Err(JsonError {
                        msg: format!("catalog image {} missing from the rebuilt scheduler", d.id),
                    })
                }
            }
        }
        // ---- Decode everything else, then overlay.
        let rejections: Vec<u64> = json.field("rejections")?;
        // 4 entries = pre-energy-budget checkpoint (no energy rejections
        // could have happened); 5 = current layout.
        if rejections.len() != 4 && rejections.len() != 5 {
            return Err(JsonError {
                msg: "scheduler snapshot `rejections` must have 4 or 5 entries".to_string(),
            });
        }
        *self = Scheduler {
            cache: json.field("cache")?,
            cache_bytes: json.field("cache_bytes")?,
            queue: json.field("queue")?,
            prefetch: json.field("prefetch")?,
            seq: json.field("seq")?,
            first_submit: json.field("first_submit")?,
            last_complete: json.field("last_complete")?,
            records: json.field("records")?,
            queueing_us: json.field("queueing_us")?,
            service_us: json.field("service_us")?,
            submitted: json.field("submitted")?,
            rejections: [
                rejections[0],
                rejections[1],
                rejections[2],
                rejections[3],
                rejections.get(4).copied().unwrap_or(0),
            ],
            energy_budget_j: energy_from_json(json, "energy_budget_j")?,
            energy_spent_j: energy_from_json(json, "energy_spent_j")?,
            completed: json.field("completed")?,
            failed: json.field("failed")?,
            deadlines_met: json.field("deadlines_met")?,
            deadlines_missed: json.field("deadlines_missed")?,
            cache_hits: json.field("cache_hits")?,
            cache_misses: json.field("cache_misses")?,
            prefetch_hits: json.field("prefetch_hits")?,
            cache_evictions: json.field("cache_evictions")?,
            bytes_evicted: json.field("bytes_evicted")?,
            bytes_transferred: json.field("bytes_transferred")?,
            bytes_fetched: json.field("bytes_fetched")?,
            // Structural state moves over last, once every field decoded.
            config: self.config,
            catalog: std::mem::take(&mut self.catalog),
        };
        Ok(())
    }

    /// Index of the best ready request: highest priority, then earliest
    /// absolute deadline, then submission order.
    fn best_ready(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (std::cmp::Reverse(q.req.priority), q.abs_deadline, q.seq))
            .map(|(i, _)| i)
    }

    /// The next dispatch's bitstream id when it is not yet resident — the
    /// prefetch target.
    fn next_uncached_id(&self) -> Option<u32> {
        let idx = self.best_ready()?;
        let id = self.queue[idx].req.bitstream_id;
        (!self.is_cached(id)).then_some(id)
    }

    fn touch(&mut self, id: u32) {
        if let Some(pos) = self.cache.iter().position(|&c| c == id) {
            let id = self.cache.remove(pos);
            self.cache.push(id);
        }
    }

    /// Removes `id` from the cache, booking the eviction in the telemetry.
    /// Returns the bytes released (`None` when `id` was not resident).
    fn evict(&mut self, id: u32) -> Option<u64> {
        let pos = self.cache.iter().position(|&c| c == id)?;
        self.cache.remove(pos);
        // Residency was charged at the stored size, so release exactly
        // that — charging raw here was the old accounting bug.
        let bytes = self.catalog[&id].stored_bytes;
        self.cache_bytes -= bytes;
        self.cache_evictions += 1;
        self.bytes_evicted += bytes;
        Some(bytes)
    }

    /// Makes `id` resident, evicting least-recently-used images as needed.
    /// Returns the `(id, bytes)` of every image evicted, in eviction order,
    /// so the caller can put them on the event tape.
    fn insert_cached(&mut self, id: u32, bytes: u64) -> Vec<(u32, u64)> {
        let mut evicted = Vec::new();
        if self.config.cache_capacity_bytes == 0 || bytes > self.config.cache_capacity_bytes {
            return evicted; // caching disabled or image larger than the budget
        }
        if self.is_cached(id) {
            self.touch(id);
            return evicted;
        }
        while self.cache_bytes + bytes > self.config.cache_capacity_bytes {
            let lru = self.cache[0];
            let released = self.evict(lru).expect("LRU head is resident");
            evicted.push((lru, released));
        }
        self.cache.push(id);
        self.cache_bytes += bytes;
        evicted
    }
}

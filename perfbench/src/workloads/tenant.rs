//! `tenant_waves`: one `Scheduler::dispatch_one` per op on `fast_quad`,
//! with a compressed catalog of 16 images whose stored size is about three
//! times the cache budget, so every wave brings LRU misses, prefetches and
//! codec decodes. Waves of one request per partition are separated by
//! idle gaps.

use std::time::Instant;

use pdr_bitstream::Bitstream;
use pdr_core::scheduler::{ReconfigRequest, RequestRecord, Scheduler, SchedulerConfig};
use pdr_core::snapshot::fnv1a;
use pdr_core::{RecoveryConfig, RecoveryManager, SystemConfig, TraceLevel, ZynqPdrSystem};
use pdr_fabric::AspKind;
use pdr_sim_core::json::{Json, ToJson};
use pdr_sim_core::{SimDuration, Xoshiro256StarStar};

use super::{set_interconnect, set_trace_counters, Workload};
use crate::harness::{ms_since, Ctx};

const PARTITIONS: usize = 4;
const IMAGES_PER_PARTITION: u32 = 4;
/// Cache budget: room for about 5 of the 16 compressed images.
const CACHE_BYTES: u64 = 128 << 10;
/// Waves per lap.
const WAVES: usize = 32;
/// Idle time between two waves.
const GAP: SimDuration = SimDuration::from_millis(2);
const DEADLINE: SimDuration = SimDuration::from_millis(20);

pub struct TenantWaves {
    first: Option<(ZynqPdrSystem, RecoveryManager)>,
    sched: Scheduler,
    /// The scheduler's state right after registration.
    pristine: Json,
    images: Vec<Bitstream>,
    waves: Vec<Vec<ReconfigRequest>>,
    reference: Vec<RequestRecord>,
    records_digest: u64,
}

fn system(trace: bool) -> (ZynqPdrSystem, RecoveryManager) {
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_quad());
    if trace {
        sys.set_trace_level(TraceLevel::Counters);
    }
    let mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
    (sys, mgr)
}

fn digest(records: &[RequestRecord]) -> u64 {
    let json = Json::Arr(records.iter().map(ToJson::to_json).collect());
    fnv1a(json.render().as_bytes())
}

fn edges(sys: &mut ZynqPdrSystem) -> u64 {
    sys.engine_mut().actions_dispatched()
}

impl Workload for TenantWaves {
    fn setup(seed: u64, ctx: &mut Ctx) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let t = Instant::now();
        let (sys, mgr) = system(false);
        ctx.sample("pdr.system.new_ms", ms_since(t));
        let config = SchedulerConfig {
            cache_capacity_bytes: CACHE_BYTES,
            ..SchedulerConfig::default()
        };
        let mut sched = Scheduler::new(config.compressed());
        let mut images = Vec::new();
        for rp in 0..PARTITIONS {
            for k in 0..IMAGES_PER_PARTITION {
                // Kinds are fixed per slot, so every seed has the same mix
                // of compressed sizes; the seed varies image content.
                let kind = AspKind::ALL[(rp + k as usize) % AspKind::ALL.len()];
                let t = Instant::now();
                let image = sys.make_asp_bitstream(rp, kind, rng.next_u32());
                ctx.sample("bitstream.build_ms", ms_since(t));
                images.push(image.clone());
                let t = Instant::now();
                sched.register_bitstream(rp as u32 * IMAGES_PER_PARTITION + k, image);
                ctx.sample("bitstream_codec.encode_ms", ms_since(t));
            }
        }
        let waves = (0..WAVES)
            .map(|_| {
                (0..PARTITIONS)
                    .map(|rp| ReconfigRequest {
                        rp,
                        bitstream_id: rp as u32 * IMAGES_PER_PARTITION
                            + rng.next_bounded(u64::from(IMAGES_PER_PARTITION)) as u32,
                        priority: rng.next_bounded(2) as u8,
                        deadline: DEADLINE,
                        tenant: rp as u32,
                    })
                    .collect()
            })
            .collect();
        TenantWaves {
            first: Some((sys, mgr)),
            pristine: sched.snapshot_json(),
            sched,
            images,
            waves,
            reference: Vec::new(),
            records_digest: 0,
        }
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        let (mut sys, mut mgr) = self.first.take().expect("reference runs once, after setup");
        if ctx.trace_run() {
            sys.set_trace_level(TraceLevel::Counters);
        }
        let e0 = edges(&mut sys);
        for (w, wave) in self.waves.iter().enumerate() {
            if w > 0 {
                sys.engine_mut().run_for(GAP);
            }
            for &req in wave {
                let admitted = self.sched.submit(&sys, &mgr, req);
                ctx.gate.require(admitted.is_ok(), || {
                    format!("{req:?} refused: {admitted:?}")
                });
            }
            for _ in wave {
                let rec = self.sched.dispatch_one(&mut sys, &mut mgr);
                ctx.gate
                    .require(rec.is_some_and(|r| r.error.is_none()), || {
                        format!("wave {w}: dispatch failed: {rec:?}")
                    });
            }
        }
        self.reference = self.sched.records().to_vec();
        self.records_digest = digest(&self.reference);
        let ops = self.reference.len();
        ctx.set(
            "sim_core.tick_edges_per_op",
            (edges(&mut sys) - e0) as f64 / ops.max(1) as f64,
        );
        let r = self.sched.report();
        ctx.set("pdr.scheduler.cache_hits", r.cache_hits as f64);
        ctx.set("pdr.scheduler.cache_misses", r.cache_misses as f64);
        ctx.set("pdr.scheduler.prefetch_hits", r.prefetch_hits as f64);
        ctx.set("pdr.scheduler.cache_evictions", r.cache_evictions as f64);
        ctx.set("pdr.scheduler.bytes_fetched", r.bytes_fetched as f64);
        set_trace_counters(ctx, [sys.tracer().counters()]);
        set_interconnect(ctx, &[sys.interconnect_stats()], ops);
    }

    fn lap(&mut self, ctx: &mut Ctx) {
        let lap = ctx.start_lap();
        let t = Instant::now();
        let traced = ctx.traced();
        let (mut sys, mut mgr) = ctx.rec.span("pdr.system.new", || system(traced));
        let restored = ctx.rec.span("pdr.scheduler.restore", || {
            self.sched.restore_json(&self.pristine)
        });
        ctx.gate.require(restored.is_ok(), || {
            format!("scheduler restore: {restored:?}")
        });
        ctx.exclude(t.elapsed());

        let t0 = sys.now();
        let mut i = 0;
        for (w, wave) in self.waves.iter().enumerate() {
            if !ctx.more() {
                break;
            }
            if w > 0 {
                let t = Instant::now();
                ctx.rec
                    .span("sim_core.run_for", || sys.engine_mut().run_for(GAP));
                ctx.sample("sim_core.run_for_ms", ms_since(t));
            }
            for &req in wave {
                let t = Instant::now();
                let admitted = ctx.rec.span("pdr.scheduler.submit", || {
                    self.sched.submit(&sys, &mgr, req)
                });
                ctx.sample("pdr.scheduler.submit_us", ms_since(t) * 1e3);
                ctx.gate.require(admitted.is_ok(), || {
                    format!("{req:?} refused: {admitted:?}")
                });
            }
            for _ in wave {
                ctx.begin_op();
                let e0 = edges(&mut sys);
                let t = Instant::now();
                let rec = ctx.rec.span("pdr.scheduler.dispatch_one", || {
                    self.sched.dispatch_one(&mut sys, &mut mgr)
                });
                let ms = ms_since(t);
                ctx.end_op(1, Some(ms));
                ctx.count_edges(edges(&mut sys) - e0, ms);
                let class = if rec.is_some_and(|r| r.cache_hit) {
                    "hit"
                } else {
                    "miss"
                };
                ctx.sample(&format!("pdr.scheduler.dispatch_ms.{class}.p50"), ms);
                ctx.gate
                    .op("dispatch", &rec, &self.reference.get(i).copied());
                i += 1;
            }
        }
        if i == self.reference.len() {
            let got = digest(self.sched.records());
            ctx.gate.require(got == self.records_digest, || {
                format!("scheduler record digest {got:#x} differs")
            });
        }
        let sim_s = sys.now().duration_since(t0).as_secs_f64();
        ctx.end_lap(lap, sim_s);
    }

    fn images(&self) -> Vec<Bitstream> {
        self.images.clone()
    }
}

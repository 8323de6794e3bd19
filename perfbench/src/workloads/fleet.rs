//! `fleet_campaign`: `FleetConfig::full_scale()` (1.01 M requests over
//! 1000 boards) stepped with `FleetRun::step_epoch` on the serial executor.
//! One op is one fleet request; an epoch is timed as a batch, and its
//! host time per request is one `op_ms` sample. The cycle-level engine
//! runs only in `FleetRun::new` (calibration), which is lap set-up.

use std::time::Instant;

use pdr_bitstream::Bitstream;
use pdr_core::snapshot::fnv1a;
use pdr_core::{FleetConfig, FleetRun, ParallelExecutor, ZynqPdrSystem};
use pdr_sim_core::json::ToJson;

use super::Workload;
use crate::harness::{ms_since, Ctx};

pub struct Fleet {
    cfg: FleetConfig,
    first: Option<FleetRun>,
    /// Requests submitted in each epoch of the reference run.
    per_epoch: Vec<u64>,
    report_digest: u64,
}

impl Workload for Fleet {
    fn setup(seed: u64, ctx: &mut Ctx) -> Self {
        let cfg = FleetConfig {
            seed,
            ..FleetConfig::full_scale()
        };
        let t = Instant::now();
        let first = FleetRun::new(cfg.clone());
        ctx.sample("pdr.fleet.calibrate_ms", ms_since(t));
        Fleet {
            cfg,
            first: Some(first),
            per_epoch: Vec::new(),
            report_digest: 0,
        }
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        let mut run = self.first.take().expect("reference runs once, after setup");
        let executor = ParallelExecutor::serial();
        let mut submitted = 0;
        loop {
            let more = run.step_epoch(&executor);
            let now = run.report().submitted;
            self.per_epoch.push(now - submitted);
            submitted = now;
            if !more {
                break;
            }
        }
        let r = run.report();
        ctx.gate
            .require(r.submitted == self.cfg.traffic.target_requests, || {
                format!("{} requests submitted", r.submitted)
            });
        self.report_digest = fnv1a(r.to_json_string().as_bytes());
        ctx.set("pdr.fleet.stolen", r.stolen as f64);
        ctx.set("pdr.fleet.rerouted", r.rerouted as f64);
        ctx.set("pdr.fleet.boards_quarantined", r.boards_quarantined as f64);
    }

    fn lap(&mut self, ctx: &mut Ctx) {
        let lap = ctx.start_lap();
        let t = Instant::now();
        let mut run = ctx
            .rec
            .span("pdr.fleet.new", || FleetRun::new(self.cfg.clone()));
        ctx.sample("pdr.fleet.calibrate_ms", ms_since(t));
        ctx.exclude(t.elapsed());

        let executor = ParallelExecutor::serial();
        let epochs = self.per_epoch.len();
        for (e, &requests) in self.per_epoch.iter().enumerate() {
            ctx.begin_op();
            let t = Instant::now();
            let more = ctx
                .rec
                .span("pdr.fleet.step_epoch", || run.step_epoch(&executor));
            let ms = ms_since(t);
            ctx.sample("pdr.fleet.epoch_ms.p50", ms);
            ctx.end_op(requests, (requests > 0).then(|| ms / requests as f64));
            ctx.gate.require(more == (e + 1 < epochs), || {
                format!("fleet campaign length changed at epoch {e}")
            });
        }
        let t = Instant::now();
        let r = ctx.rec.span("pdr.fleet.report", || run.report());
        ctx.sample("pdr.fleet.report_ms", ms_since(t));
        let digest = fnv1a(r.to_json_string().as_bytes());
        ctx.gate.ops(
            "fleet campaign report",
            r.submitted,
            &digest,
            &self.report_digest,
        );
        ctx.end_lap(lap, r.makespan_us / 1e6);
    }

    fn images(&self) -> Vec<Bitstream> {
        // The size classes calibration reconfigures with.
        let sys = ZynqPdrSystem::new(self.cfg.system.clone());
        let partitions = self.cfg.system.floorplan.partitions().len();
        (0..self.cfg.size_classes)
            .map(|c| sys.make_partial_bitstream(c as usize % partitions, c + 1))
            .collect()
    }
}

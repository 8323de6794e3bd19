//! `fault_soak`: one `CampaignRun::step` of the default `FaultCampaign`
//! mix per op on `FaultCampaign::fast_system()`, with a checkpoint
//! rendered and re-parsed every ten events, as
//! `examples/fault_campaign --checkpoint-every 10` does.

use std::time::Instant;

use pdr_bitstream::Bitstream;
use pdr_core::snapshot::fnv1a;
use pdr_core::{CampaignRun, FaultCampaign, FaultKind, FaultRecord, TraceLevel, ZynqPdrSystem};
use pdr_sim_core::json::{Json, ToJson};

use super::{set_interconnect, set_trace_counters, Workload};
use crate::harness::{ms_since, Ctx};

/// Events between two checkpoints.
const CHECKPOINT_EVERY: usize = 10;

/// Partitions the default campaign keeps in service.
const RPS: [usize; 2] = [0, 1];

pub struct FaultSoak {
    campaign: FaultCampaign,
    first: Option<CampaignRun>,
    reference: Vec<FaultRecord>,
    result_digest: u64,
}

fn kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::Seu => "seu",
        FaultKind::TimingBurst => "timing_burst",
        FaultKind::DmaStall => "dma_stall",
        FaultKind::DroppedIrq => "dropped_irq",
        FaultKind::HeatSoak => "heat_soak",
    }
}

fn new_run(campaign: &FaultCampaign, trace: bool) -> CampaignRun {
    let mut run = CampaignRun::new(FaultCampaign::fast_system(), campaign.clone());
    if trace {
        run.system_mut().set_trace_level(TraceLevel::Counters);
    }
    run
}

fn edges(run: &mut CampaignRun) -> u64 {
    run.system_mut().engine_mut().actions_dispatched()
}

/// Builds, renders and re-parses a checkpoint of `run`.
fn checkpoint(run: &CampaignRun, ctx: &mut Ctx) {
    let t = Instant::now();
    let json = ctx.rec.span("pdr.campaign.checkpoint", || run.checkpoint());
    ctx.sample("pdr.campaign.checkpoint_ms", ms_since(t));
    let t = Instant::now();
    let text = ctx.rec.span("sim_core.json.render", || json.render());
    ctx.sample("sim_core.json.render_ms", ms_since(t));
    ctx.sample("pdr.snapshot.bytes", text.len() as f64);
    let t = Instant::now();
    let back = ctx.rec.span("sim_core.json.parse", || Json::parse(&text));
    ctx.sample("sim_core.json.parse_ms", ms_since(t));
    ctx.gate.require(back.is_ok_and(|b| b == json), || {
        format!(
            "checkpoint at event {} does not re-parse to itself",
            run.position()
        )
    });
}

impl Workload for FaultSoak {
    fn setup(seed: u64, _ctx: &mut Ctx) -> Self {
        let mut campaign = FaultCampaign::default();
        campaign.plan.seed = seed;
        let first = new_run(&campaign, false);
        FaultSoak {
            campaign,
            first: Some(first),
            reference: Vec::new(),
            result_digest: 0,
        }
    }

    fn reference(&mut self, ctx: &mut Ctx) {
        let mut run = self.first.take().expect("reference runs once, after setup");
        if ctx.trace_run() {
            run.system_mut().set_trace_level(TraceLevel::Counters);
        }
        let e0 = edges(&mut run);
        while let Some(rec) = run.step() {
            self.reference.push(rec);
        }
        let steps = self.reference.len();
        ctx.set(
            "sim_core.tick_edges_per_op",
            (edges(&mut run) - e0) as f64 / steps.max(1) as f64,
        );
        let r = run.finish();
        ctx.gate.require(r.silent_corruptions == 0, || {
            format!("{} silent corruptions", r.silent_corruptions)
        });
        ctx.gate.require(
            r.detected == r.events && r.recovered == r.events && r.events == steps as u64,
            || {
                format!(
                    "{} events, {steps} handled, {} detected, {} recovered",
                    r.events, r.detected, r.recovered
                )
            },
        );
        self.result_digest = fnv1a(r.to_json_string().as_bytes());
        ctx.set("pdr.recovery.retries", r.recovery.retries as f64);
        ctx.set("pdr.recovery.scrubs", r.recovery.scrubs as f64);
        ctx.set("pdr.recovery.quarantines", r.recovery.quarantines as f64);
        let counters = run.system().tracer().counters().clone();
        ctx.set("pdr.recovery.backoffs", counters.backoffs as f64);
        set_trace_counters(ctx, [&counters]);
        set_interconnect(ctx, &[run.system().interconnect_stats()], steps);
    }

    fn lap(&mut self, ctx: &mut Ctx) {
        let lap = ctx.start_lap();
        let t = Instant::now();
        let traced = ctx.traced();
        let mut run = ctx
            .rec
            .span("pdr.campaign.new", || new_run(&self.campaign, traced));
        ctx.exclude(t.elapsed());

        let t0 = run.system().now();
        let mut handled = 0;
        let mut done = false;
        while ctx.more() {
            ctx.begin_op();
            let e0 = edges(&mut run);
            let t = Instant::now();
            let Some(rec) = ctx.rec.span("pdr.campaign.step", || run.step()) else {
                done = true;
                break;
            };
            let ms = ms_since(t);
            ctx.end_op(1, Some(ms));
            ctx.sample(
                &format!("pdr.campaign.step_ms.{}.p50", kind_name(rec.kind)),
                ms,
            );
            ctx.count_edges(edges(&mut run) - e0, ms);
            ctx.gate
                .op("fault event", &Some(&rec), &self.reference.get(handled));
            handled += 1;
            if handled % CHECKPOINT_EVERY == 0 {
                checkpoint(&run, ctx);
            }
        }
        if done {
            let r = ctx.rec.span("pdr.campaign.finish", || run.finish());
            let digest = fnv1a(r.to_json_string().as_bytes());
            ctx.gate.require(
                handled == self.reference.len() && digest == self.result_digest,
                || format!("campaign result digest {digest:#x} after {handled} events differs"),
            );
        }
        let sim_s = run.system().now().duration_since(t0).as_secs_f64();
        ctx.end_lap(lap, sim_s);
    }

    fn images(&self) -> Vec<Bitstream> {
        let sys = ZynqPdrSystem::new(FaultCampaign::fast_system());
        RPS.iter()
            .map(|&rp| sys.make_partial_bitstream(rp, rp as u32 + 1))
            .collect()
    }
}

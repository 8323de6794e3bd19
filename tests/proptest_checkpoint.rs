//! Mutated-checkpoint properties for the system, campaign and fleet
//! checkpoints.
//!
//! A checkpoint is input from outside the program: restoring one must give
//! `Ok` or `Err` and never panic, whatever was done to the file. An
//! unmutated checkpoint restores, and a fresh checkpoint taken right after
//! the restore renders byte-identical to it. A campaign checkpoint whose
//! plan holds an event the runner cannot inject must fail to resume rather
//! than panic on the next step.

use std::sync::OnceLock;

use pdr_testkit::{
    any_u32, f64s, indices, one_of, property, select, tuple3, tuple4, u32s, u64s, usizes, vec_of,
    Config, Gen, Index,
};

use pdr_lab::fabric::AspKind;
use pdr_lab::pdr::fleet::{FleetConfig, FleetRun};
use pdr_lab::pdr::snapshot;
use pdr_lab::pdr::{
    CampaignRun, FaultCampaign, FaultEvent, FaultKind, FaultPlan, ParallelExecutor, SystemConfig,
    TraceLevel, ZynqPdrSystem,
};
use pdr_lab::sim::json::{FromJson, Json, JsonError, ToJson};
use pdr_lab::sim::{Frequency, SimDuration};

fn cfg() -> Config {
    Config::with_cases(256).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ))
}

/// The three checkpoint kinds, each with its restore path.
#[derive(Debug, Clone, Copy)]
enum Kind {
    System,
    Campaign,
    Fleet,
}

const KINDS: [Kind; 3] = [Kind::System, Kind::Campaign, Kind::Fleet];

/// Restores `json` and returns a checkpoint taken right after.
fn restore(kind: Kind, json: &Json) -> Result<Json, JsonError> {
    match kind {
        Kind::System => {
            snapshot::restore(SystemConfig::fast_test(), json).map(|s| snapshot::take(&s))
        }
        Kind::Campaign => {
            CampaignRun::resume(FaultCampaign::fast_system(), FaultCampaign::default(), json)
                .map(|r| r.checkpoint())
        }
        Kind::Fleet => FleetRun::resume(FleetConfig::default(), json).map(|r| r.checkpoint()),
    }
}

/// Events the campaign checkpoint has already handled.
const HANDLED: usize = 3;

/// One checkpoint of each kind from a run with live state: transfers, an
/// armed monitor, a pending SEU and derate; a campaign three events in; a
/// fleet one epoch in.
fn checkpoint(kind: Kind) -> &'static Json {
    static CHECKPOINTS: OnceLock<[Json; 3]> = OnceLock::new();
    let all = CHECKPOINTS.get_or_init(|| {
        let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
        sys.set_trace_level(TraceLevel::Full);
        let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
        assert!(sys.reconfigure(0, &bs, Frequency::from_mhz(200)).crc_ok());
        assert!(!sys.reconfigure(0, &bs, Frequency::from_mhz(360)).crc_ok());
        sys.start_background_monitor(&[0, 1]);
        sys.run_monitor_for(sys.monitor_scan_period() / 2);
        sys.inject_seu(0, 1, 10, 3);
        sys.inject_timing_burst(40.0, SimDuration::from_millis(80));
        let mut campaign = CampaignRun::new(FaultCampaign::fast_system(), FaultCampaign::default());
        for _ in 0..HANDLED {
            campaign.step();
        }
        let mut fleet = FleetRun::new(FleetConfig::default());
        fleet.step_epoch(&ParallelExecutor::serial());
        [
            snapshot::take(&sys),
            campaign.checkpoint(),
            fleet.checkpoint(),
        ]
    });
    &all[kind as usize]
}

fn children(node: &Json) -> usize {
    match node {
        Json::Obj(fields) => fields.len(),
        Json::Arr(items) => items.len(),
        _ => 0,
    }
}

fn child_mut(node: &mut Json, i: usize) -> &mut Json {
    match node {
        Json::Obj(fields) => &mut fields[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("scalars have no children"),
    }
}

/// Walks down from the root, one random child per step, until the steps
/// run out or a scalar or empty container is reached.
fn walk<'a>(mut node: &'a mut Json, steps: &[Index]) -> (&'a mut Json, usize) {
    let mut depth = 0;
    for step in steps {
        let n = children(node);
        if n == 0 {
            break;
        }
        node = child_mut(node, step.index(n));
        depth += 1;
    }
    (node, depth)
}

/// Applies mutation `op` at the end of the walk: 0 drops an object key,
/// 1–4 replace a scalar with a string, -1, 2⁶⁴−1 or 1.5, 5 truncates an
/// array and 6 extends one.
fn mutate(json: &mut Json, op: usize, steps: &[Index], arg: Index) {
    match op {
        0 => {
            // Stop one level short so the last step picks the key to drop.
            let (parent, depth) = walk(json, &steps[..steps.len() - 1]);
            if let Json::Obj(fields) = parent {
                if !fields.is_empty() {
                    fields.remove(steps[depth].index(fields.len()));
                }
            }
        }
        1..=4 => {
            let (node, _) = walk(json, steps);
            *node = match op {
                1 => Json::Str("x".into()),
                2 => Json::I64(-1),
                3 => Json::U64(u64::MAX),
                _ => Json::F64(1.5),
            };
        }
        _ => {
            let (node, _) = walk(json, steps);
            if let Json::Arr(items) = node {
                if op == 5 {
                    items.truncate(arg.index(items.len() + 1));
                } else {
                    items.push(items.last().cloned().unwrap_or(Json::Null));
                }
            }
        }
    }
}

#[test]
fn unmutated_checkpoints_restore_byte_identically() {
    for kind in KINDS {
        let text = checkpoint(kind).render();
        let parsed = Json::parse(&text).expect("checkpoint must parse");
        let again = restore(kind, &parsed).unwrap_or_else(|e| panic!("{kind:?}: {}", e.msg));
        assert!(again.render() == text, "{kind:?} re-checkpoint differs");
    }
}

fn field_mut<'a>(node: &'a mut Json, key: &str) -> &'a mut Json {
    match node {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
        _ => unreachable!("{key}: not an object field"),
    }
}

/// The campaign checkpoint with `edit` applied to its plan.
fn edited_campaign(edit: impl FnOnce(&mut FaultPlan)) -> Json {
    let mut json = checkpoint(Kind::Campaign).clone();
    let plan_json = field_mut(field_mut(&mut json, "payload"), "plan");
    let mut plan = FaultPlan::from_json(plan_json).expect("plan decodes");
    edit(&mut plan);
    *plan_json = plan.to_json();
    json
}

/// Applies `edit` to every event the checkpointed campaign has not handled
/// yet and asserts that resuming fails with an error naming the fault.
fn assert_resume_rejects(edit: impl Fn(&mut FaultEvent), expected: &str) {
    let json = edited_campaign(|plan| plan.events[HANDLED..].iter_mut().for_each(edit));
    match CampaignRun::resume(
        FaultCampaign::fast_system(),
        FaultCampaign::default(),
        &json,
    ) {
        Ok(_) => panic!("a plan the runner cannot inject resumed"),
        Err(e) => assert!(e.msg.contains(expected), "{}", e.msg),
    }
}

#[test]
fn resume_rejects_an_seu_outside_the_monitored_set() {
    assert_resume_rejects(|e| e.rp = 9, "outside the monitored set");
}

#[test]
fn resume_rejects_an_seu_frame_outside_its_partition() {
    assert_resume_rejects(|e| e.frame = 1_000_000, "frame 1000000");
}

#[test]
fn resume_rejects_an_seu_word_outside_its_frame() {
    assert_resume_rejects(|e| e.word = 5000, "word 5000");
}

#[test]
fn resume_rejects_an_seu_bit_outside_its_word() {
    assert_resume_rejects(|e| e.bit = 40, "bit 40");
}

#[test]
fn resume_rejects_a_negative_derate() {
    assert_resume_rejects(|e| e.derate_mhz = -5.0, "-5 MHz");
}

/// A fault of any kind whose coordinates fall inside or outside the ranges
/// the campaign can inject: partitions beyond the two monitored ones,
/// frames, words and bits past their ends, and negative or non-finite
/// derates.
fn fault_events() -> Gen<FaultEvent> {
    let derates = one_of(vec![
        f64s(0.0..100.0),
        f64s(-100.0..0.0),
        select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
    ]);
    let others = tuple3(u64s(0..=1_000_000_000), u64s(0..=200_000), u64s(0..=20_000));
    tuple4(
        select(FaultKind::ALL.to_vec()),
        tuple4(
            usizes(0..4),
            one_of(vec![u32s(0..200), any_u32()]),
            usizes(0..256),
            u32s(0..64),
        ),
        derates,
        others,
    )
    .map(
        |(kind, (rp, frame, word, bit), derate_mhz, (duration_ps, stall_cycles, soak))| {
            FaultEvent {
                at_ps: 0,
                kind,
                rp,
                frame,
                word,
                bit,
                derate_mhz,
                duration_ps,
                stall_cycles,
                delta_mc: soak as i64 - 10_000,
            }
        },
    )
}

property! {
    config = cfg();

    /// One random mutation anywhere in a checkpoint gives `Ok` or `Err`
    /// from the restore, never a panic.
    fn mutated_checkpoints_never_panic(
        mutation in tuple3(usizes(0..7), vec_of(indices(), 1..=10), indices()),
        kind in usizes(0..3)
    ) {
        let (op, steps, arg) = mutation;
        let mut json = checkpoint(KINDS[kind]).clone();
        mutate(&mut json, op, &steps, arg);
        let _ = restore(KINDS[kind], &json);
    }

    /// Replacing the campaign's next unhandled event with an arbitrary
    /// fault either fails the resume or lets the next step complete.
    fn resumed_plans_step_or_fail_to_resume(event in fault_events()) {
        let json = edited_campaign(|plan| {
            let next = &mut plan.events[HANDLED];
            *next = FaultEvent {
                at_ps: next.at_ps,
                ..event.clone()
            };
        });
        let resumed =
            CampaignRun::resume(FaultCampaign::fast_system(), FaultCampaign::default(), &json);
        if let Ok(mut run) = resumed {
            assert!(run.step().is_some(), "the edited event must be handled");
        }
    }
}

//! Mutated-checkpoint properties for the system, campaign and fleet
//! checkpoints.
//!
//! A checkpoint is input from outside the program: restoring one must give
//! `Ok` or `Err` and never panic, whatever was done to the file. An
//! unmutated checkpoint restores, and a fresh checkpoint taken right after
//! the restore renders byte-identical to it.

use std::sync::OnceLock;

use pdr_testkit::{indices, property, tuple3, usizes, vec_of, Config, Index};

use pdr_lab::fabric::AspKind;
use pdr_lab::pdr::fleet::{FleetConfig, FleetRun};
use pdr_lab::pdr::snapshot;
use pdr_lab::pdr::{
    CampaignRun, FaultCampaign, ParallelExecutor, SystemConfig, TraceLevel, ZynqPdrSystem,
};
use pdr_lab::sim::json::{Json, JsonError};
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
        for _ in 0..3 {
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
}

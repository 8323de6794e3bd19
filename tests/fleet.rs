//! Directed fleet control-plane integration tests.
//!
//! The fleet tier is an integer-picosecond queueing model *replaying*
//! service costs calibrated on the cycle-level system; these tests pin the
//! joints the unit tests cannot see: the calibration really equals a
//! direct cycle-level measurement, checkpoints survive the disk round
//! trip, and the emergent behaviours (stealing, quarantine propagation,
//! invalidation) fire under the configurations the docs promise.

use pdr_lab::pdr::fleet::{Board, Calibration, FleetConfig, FleetRun, TrafficConfig};
use pdr_lab::pdr::recovery::{RecoveryConfig, RecoveryManager};
use pdr_lab::pdr::snapshot;
use pdr_lab::pdr::{ParallelExecutor, SystemConfig, ZynqPdrSystem};
use pdr_lab::sim::json::{Json, ToJson};
use pdr_lab::sim::{Frequency, SimDuration};

/// The calibration table is an honest transcript of the cycle-level
/// system: re-measuring any class directly on a fresh `ZynqPdrSystem`
/// through the recovery manager reproduces the stored transfer time
/// exactly, and a warm-cache fleet dispatch bills exactly that time.
#[test]
fn board_service_time_matches_cycle_level_system() {
    let system = SystemConfig::fast_quad();
    let cfg = FleetConfig::default();
    let cal = Calibration::measure(&system, &cfg.fetch, 3, cfg.service_mhz, cfg.scrub_mhz);
    assert_eq!(cal.classes.len(), 3);

    // Replay the calibration protocol by hand on a second, independent
    // cycle-level system and require exact agreement with the table.
    let mut sys = ZynqPdrSystem::new(system.clone());
    let mut mgr = RecoveryManager::for_system(&sys, RecoveryConfig::default());
    let partitions = system.floorplan.partitions().len();
    for (c, class) in cal.classes.iter().enumerate() {
        let rp = c % partitions;
        let bs = sys.make_partial_bitstream(rp, c as u32 + 1);
        let t0 = sys.now();
        let outcome = mgr.reconfigure(
            &mut sys,
            None,
            rp,
            &bs,
            Frequency::from_mhz(cfg.service_mhz),
        );
        assert!(outcome.error.is_none(), "calibration path must be healthy");
        let measured = sys.now().duration_since(t0).as_ps();
        assert_eq!(
            class.transfer_ps, measured,
            "class {c}: calibration table must equal the direct measurement"
        );
        let t1 = sys.now();
        let outcome = mgr.reconfigure(&mut sys, None, rp, &bs, Frequency::from_mhz(cfg.scrub_mhz));
        assert!(outcome.error.is_none());
        assert_eq!(class.scrub_ps, sys.now().duration_since(t1).as_ps());
        assert!(class.fetch_ps > 0);

        // A warm-cache, fault-free dispatch on an idle board bills exactly
        // the calibrated transfer time.
        let mut board = Board::new(0, 7, 0.0);
        board.warm(
            pdr_lab::pdr::fleet::CachedCopy {
                entry: 0,
                version: 0,
                stored_bytes: class.stored_bytes,
            },
            u64::MAX,
        );
        let out = board.dispatch(1_000, 0, 0, class, u64::MAX);
        assert!(out.hit && !out.crc_failed);
        assert_eq!(out.completion_ps - out.start_ps, class.transfer_ps);
    }
}

/// Probe used while sizing the default config; keeps printing the real
/// numbers under `--nocapture` so future re-tuning starts from data.
#[test]
fn default_fleet_campaign_exercises_the_control_plane() {
    let mut run = FleetRun::new(FleetConfig::default());
    run.run_to_end(&ParallelExecutor::from_env());
    let r = run.report();
    println!("calibration: {:?}", run.calibration().classes);
    println!("report: {}", r.to_json_string());
    assert!(run.finished());
    assert_eq!(r.submitted, FleetConfig::default().traffic.target_requests);
    assert_eq!(r.submitted, r.completed + r.failed + r.rejected);
    assert!(
        r.availability.unwrap() > 0.9,
        "default fleet must be mostly up: {r:?}"
    );
    assert!(
        r.cache_hit_rate.unwrap() > 0.3,
        "Zipf skew must make the cache useful: {r:?}"
    );
    assert!(r.stolen > 0, "hotspots must trigger work stealing: {r:?}");
    assert!(r.invalidations > 0 && r.invalidated_copies > 0);
    assert!(r.latency_p50_us.unwrap() <= r.latency_p99_us.unwrap());
    assert!(r.latency_p99_us.unwrap() <= r.latency_us.max);
}

/// Checkpoints survive the actual disk round trip (atomic save + load +
/// digest) and the resumed campaign finishes byte-identical to the
/// uninterrupted one.
#[test]
fn fleet_checkpoint_survives_the_disk_round_trip() {
    let cfg = || FleetConfig {
        boards: 8,
        shards: 3,
        tenants: 80,
        catalog_entries: 32,
        size_classes: 3,
        traffic: TrafficConfig {
            target_requests: 600,
            duration: SimDuration::from_millis(60),
            ..TrafficConfig::default()
        },
        epoch: SimDuration::from_millis(10),
        bad_board_permille: 150,
        bad_fault_rate: 0.8,
        ..FleetConfig::default()
    };
    let ex = ParallelExecutor::new(2);
    let mut whole = FleetRun::new(cfg());
    whole.run_to_end(&ex);
    let expect = whole.report().to_json_string();

    let mut front = FleetRun::new(cfg());
    front.step_epoch(&ex);
    front.step_epoch(&ex);
    front.step_epoch(&ex);
    let dir = std::env::temp_dir().join(format!("pdr_fleet_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.ckpt.json");
    let envelope = front.checkpoint();
    snapshot::save(&path, &envelope).expect("atomic checkpoint save");
    let loaded: Json = snapshot::load(&path).expect("checkpoint load");
    assert_eq!(snapshot::digest(&loaded), snapshot::digest(&envelope));
    let mut back = FleetRun::resume(cfg(), &loaded).expect("resume from disk");
    assert_eq!(back.epoch(), 3);
    back.run_to_end(&ex);
    assert_eq!(expect, back.report().to_json_string());
    std::fs::remove_dir_all(&dir).ok();
}

/// Quarantine propagation end to end: with a large bad-board population
/// the control plane drains boards mid-campaign, re-routes the traffic
/// they would have received, re-replicates their hot entries, and the
/// fleet keeps serving.
#[test]
fn quarantine_propagation_keeps_the_fleet_serving() {
    let mut config = FleetConfig {
        boards: 10,
        shards: 2,
        tenants: 100,
        catalog_entries: 40,
        size_classes: 3,
        traffic: TrafficConfig {
            target_requests: 3_000,
            duration: SimDuration::from_millis(600),
            ..TrafficConfig::default()
        },
        epoch: SimDuration::from_millis(10),
        bad_board_permille: 350,
        bad_fault_rate: 0.9,
        ..FleetConfig::default()
    };
    config.quarantine_strikes = 2;
    let mut run = FleetRun::new(config);
    run.run_to_end(&ParallelExecutor::new(3));
    let r = run.report();
    assert!(
        r.boards_quarantined >= 2,
        "bad boards must quarantine: {r:?}"
    );
    assert!(
        r.rerouted > 0,
        "mid-epoch arrivals to drained boards re-route: {r:?}"
    );
    assert!(
        r.replicated_entries > 0,
        "hot entries must re-replicate: {r:?}"
    );
    assert_eq!(
        run.ring().member_count() as u64,
        r.boards - r.boards_quarantined,
        "ring membership must track quarantine"
    );
    assert!(
        r.availability.unwrap() > 0.6,
        "surviving boards must absorb the traffic: {r:?}"
    );
}

/// The value under `path` (object keys, or array indices as decimal text).
fn node_mut<'a>(json: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(json, |node, key| match node {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        other => panic!("no `{key}` under {other:?}"),
    })
}

/// Checkpoint integers wider than `u32` used to be truncated on resume:
/// a last board with `"id": 2^32` overwrote board 0 and resumed `Ok`.
/// Every such value must now be rejected.
#[test]
fn resume_rejects_u32_overflow_instead_of_truncating() {
    let cfg = || FleetConfig {
        boards: 4,
        shards: 2,
        tenants: 20,
        catalog_entries: 8,
        size_classes: 2,
        traffic: TrafficConfig {
            target_requests: 200,
            duration: SimDuration::from_millis(20),
            ..TrafficConfig::default()
        },
        epoch: SimDuration::from_millis(5),
        ..FleetConfig::default()
    };
    let mut run = FleetRun::new(cfg());
    run.step_epoch(&ParallelExecutor::serial());
    let ckpt = run.checkpoint();
    assert!(FleetRun::resume(cfg(), &ckpt).is_ok());
    let wide = Json::U64(1 << 32);
    for path in [
        &["payload", "boards", "3", "id"][..],
        &["payload", "boards", "0", "strikes"],
        &["payload", "versions", "0"],
    ] {
        let mut bad = ckpt.clone();
        *node_mut(&mut bad, path) = wide.clone();
        assert!(
            FleetRun::resume(cfg(), &bad).is_err(),
            "{path:?} = 2^32 must not resume"
        );
    }
}

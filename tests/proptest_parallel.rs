//! Parallel campaign-executor property tests.
//!
//! The executor's contract (docs/SNAPSHOT.md §"Parallel execution") is that
//! thread count is unobservable: for any campaign, any replica seed set and
//! any `PDR_THREADS` value, the merged fleet report renders byte-identically
//! to the serial path. These properties drive that contract with randomly
//! drawn campaigns instead of the directed fixtures in `campaign.rs`, and
//! pin the [`OnlineStats::merge`] algebra the merge relies on.

use pdr_testkit::{property, tuple4, u64s, usizes, vec_of, Config};

use pdr_lab::pdr::campaign::{CampaignRun, FaultCampaign};
use pdr_lab::pdr::executor::ParallelExecutor;
use pdr_lab::sim::json::ToJson;
use pdr_lab::sim::stats::OnlineStats;
use pdr_lab::sim::SimDuration;

fn cfg() -> Config {
    Config::with_cases(4).regressions(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/regressions.seeds"
    ))
}

/// A randomly drawn campaign shape: (plan seed, duration µs, warm steps,
/// replica count).
type Shape = (u64, u64, usize, usize);

fn shapes() -> pdr_testkit::Gen<Shape> {
    tuple4(
        u64s(0..10_000),
        u64s(200..=600),
        usizes(0..=3),
        usizes(2..=4),
    )
}

fn campaign(seed: u64, duration_us: u64) -> FaultCampaign {
    let mut c = FaultCampaign::default();
    c.plan.seed = seed;
    c.plan.duration = SimDuration::from_micros(duration_us);
    c.plan.mean_interarrival = SimDuration::from_micros(60);
    c
}

property! {
    config = cfg();

    /// For every thread count the merged `MonteCarloReport` — struct and
    /// rendered JSON — is identical to the serial path, from any warmed
    /// checkpoint and any replica seed set.
    fn thread_count_is_unobservable(shape in shapes()) {
        let (seed, duration_us, warm_steps, replicas) = shape;
        let c = campaign(seed, duration_us);
        let cfg = FaultCampaign::fast_system();
        let mut warm = CampaignRun::new(cfg.clone(), c.clone());
        for _ in 0..warm_steps {
            warm.step();
        }
        let ckpt = warm.checkpoint();
        let seeds: Vec<u64> = (0..replicas as u64).map(|i| seed ^ (i + 1)).collect();
        let serial = ParallelExecutor::serial()
            .fork_replicas(&cfg, &c, &ckpt, &seeds)
            .expect("serial fork");
        let serial_json = serial.to_json_string();
        for threads in [1usize, 2, 3, 8] {
            let parallel = ParallelExecutor::new(threads)
                .fork_replicas(&cfg, &c, &ckpt, &seeds)
                .expect("parallel fork");
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(
                serial_json,
                parallel.to_json_string(),
                "threads={threads}: merged fleet JSON must be byte-identical"
            );
        }
    }

    /// `OnlineStats::merge` is partition-independent: accumulating random
    /// contiguous fragments and folding them in order agrees with pushing
    /// every sample serially — counts and extrema exactly, moments to
    /// floating-point round-off.
    fn merge_is_partition_independent(draw in tuple4(
        vec_of(u64s(0..1_000_000), 2..=24),
        vec_of(usizes(1..=5), 1..=24),
        u64s(0..2),
        u64s(0..2),
    )) {
        let (raw, cuts, _, _) = draw;
        // Map the integer draws onto an awkward float range (negative,
        // fractional) so the Welford algebra is actually exercised.
        let samples: Vec<f64> = raw.iter().map(|&v| v as f64 / 997.0 - 300.0).collect();
        let mut serial = OnlineStats::new();
        for &s in &samples {
            serial.push(s);
        }
        // Split into contiguous fragments at the drawn widths.
        let mut fragments: Vec<OnlineStats> = Vec::new();
        let mut i = 0;
        let mut widths = cuts.iter().cycle();
        while i < samples.len() {
            let w = (*widths.next().unwrap()).min(samples.len() - i);
            let mut frag = OnlineStats::new();
            for &s in &samples[i..i + w] {
                frag.push(s);
            }
            fragments.push(frag);
            i += w;
        }
        let mut merged = OnlineStats::new();
        for frag in &fragments {
            merged.merge(frag);
        }
        assert_eq!(merged.count(), serial.count());
        assert_eq!(merged.min(), serial.min(), "min is exact under merge");
        assert_eq!(merged.max(), serial.max(), "max is exact under merge");
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        assert!(close(merged.mean(), serial.mean()), "{merged:?} vs {serial:?}");
        assert!(
            close(merged.sample_variance(), serial.sample_variance()),
            "{merged:?} vs {serial:?}"
        );
        // Width-1 fragments ARE the serial computation: merging a
        // single-sample accumulator follows the exact same arithmetic as
        // `push`, which is what makes the parallel fleet merge bitwise
        // reproducible. Pin that stronger guarantee separately.
        let mut unit = OnlineStats::new();
        for &s in &samples {
            let mut one = OnlineStats::new();
            one.push(s);
            unit.merge(&one);
        }
        assert_eq!(unit.count(), serial.count());
        assert_eq!(unit.mean(), serial.mean(), "single-sample merge must be exact");
        assert_eq!(unit.min(), serial.min());
        assert_eq!(unit.max(), serial.max());
        assert!(close(unit.sample_variance(), serial.sample_variance()));
    }
}

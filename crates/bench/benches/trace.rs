//! Trace-layer overhead on the headline reconfiguration loop.
//!
//! The same 24-transfer loop runs four ways: untouched (the sink is never
//! configured — the shipped default), `TraceLevel::Off` set explicitly,
//! `Counters`, and `Full`. Asserted claims (a regression fails the build):
//!
//! * the explicit-`Off` loop costs ≤ 5% over the untouched baseline — the
//!   disabled path must stay one predictable branch;
//! * the reconfiguration report is **byte-identical** across all four
//!   levels (observer effect = 0);
//! * `Counters`/`Full` actually emit events.
//!
//! Besides `target/experiments/trace.md`, this bench writes
//! `BENCH_trace.json` at the workspace root: a deterministic,
//! simulated-time-only snapshot (per-level event counts and trace reports —
//! no wall-clock fields), committed as the observability-cost trajectory.

use pdr_bench::harness::{Criterion, Throughput};
use pdr_bench::{publish, Table};
use pdr_bitstream::Bitstream;
use pdr_core::{ReconfigReport, SystemConfig, TraceLevel, ZynqPdrSystem};
use pdr_fabric::AspKind;
use pdr_sim_core::json::{Json, ToJson};
use pdr_sim_core::Frequency;

const RECONFIGS_PER_ITER: u64 = 24;

/// A fresh headline system; `None` leaves the sink untouched (baseline).
fn fresh(level: Option<TraceLevel>) -> (ZynqPdrSystem, Bitstream) {
    let mut sys = ZynqPdrSystem::new(SystemConfig::fast_test());
    if let Some(level) = level {
        sys.set_trace_level(level);
    }
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    (sys, bs)
}

/// The headline loop: back-to-back 200 MHz transfers on one partition.
fn reconfig_loop(sys: &mut ZynqPdrSystem, bs: &Bitstream) -> ReconfigReport {
    let mut last = None;
    for _ in 0..RECONFIGS_PER_ITER {
        last = Some(sys.reconfigure(0, bs, Frequency::from_mhz(200)));
    }
    last.expect("loop runs at least once")
}

fn measure(c: &mut Criterion, name: &str, level: Option<TraceLevel>, bytes: u64) {
    let mut g = c.benchmark_group("reconfig_loop");
    g.throughput(Throughput::Bytes(bytes * RECONFIGS_PER_ITER));
    g.bench_function(name, |b| {
        b.iter_batched(
            || fresh(level),
            |(mut sys, bs)| {
                let r = reconfig_loop(&mut sys, &bs);
                std::hint::black_box((sys, r))
            },
        )
    });
}

fn median_ns(c: &Criterion, name: &str) -> f64 {
    let id = format!("reconfig_loop/{name}");
    c.results()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no result for {id}"))
        .median
        .as_nanos() as f64
}

fn main() {
    let t0 = std::time::Instant::now();
    let bytes = fresh(None).1.len() as u64;

    let mut c = Criterion::default();
    measure(&mut c, "baseline", None, bytes);
    measure(&mut c, "off", Some(TraceLevel::Off), bytes);
    measure(&mut c, "counters", Some(TraceLevel::Counters), bytes);
    measure(&mut c, "full", Some(TraceLevel::Full), bytes);
    c.final_report("trace_micro");

    let base = median_ns(&c, "baseline");
    let off = median_ns(&c, "off");
    let counters = median_ns(&c, "counters");
    let full = median_ns(&c, "full");

    // -- asserted claims ---------------------------------------------------
    assert!(
        off <= base * 1.05,
        "TraceLevel::Off must cost ≤5% over the untouched loop, got \
         {off:.0} ns vs {base:.0} ns ({:+.1}%)",
        100.0 * (off - base) / base
    );

    // Observer effect = 0: the physics is byte-identical at every level.
    let reports: Vec<(&str, ReconfigReport, pdr_core::TraceReport)> = [
        ("baseline", None),
        ("off", Some(TraceLevel::Off)),
        ("counters", Some(TraceLevel::Counters)),
        ("full", Some(TraceLevel::Full)),
    ]
    .into_iter()
    .map(|(name, level)| {
        let (mut sys, bs) = fresh(level);
        let r = reconfig_loop(&mut sys, &bs);
        let t = sys.tracer_mut().report();
        (name, r, t)
    })
    .collect();
    let golden = reports[0].1.to_json_string();
    for (name, r, _) in &reports {
        assert_eq!(
            r.to_json_string(),
            golden,
            "{name}: tracing must not change the reconfiguration report"
        );
    }
    assert_eq!(
        reports[0].2.events_emitted, 0,
        "untouched sink stays silent"
    );
    assert_eq!(reports[1].2.events_emitted, 0, "Off emits nothing");
    assert!(reports[2].2.events_emitted > 0, "Counters must emit");
    assert_eq!(reports[2].2.events_retained, 0, "no tape below Full");
    assert!(
        reports[3].2.events_retained > 0,
        "Full must retain the tape"
    );
    assert_eq!(
        reports[3].2.counters.reconfig_ok, RECONFIGS_PER_ITER,
        "every transfer lands on the tape"
    );

    // -- BENCH_trace.json — the committed observability-cost point ---------
    // Simulated-time metrics only: re-running at any sample count
    // reproduces this file bit-for-bit.
    let snapshot = Json::Obj(vec![
        ("bench".into(), Json::Str("trace".into())),
        ("reconfigs_per_iter".into(), Json::U64(RECONFIGS_PER_ITER)),
        ("bitstream_bytes".into(), Json::U64(bytes)),
        ("report".into(), reports[0].1.to_json()),
        (
            "trace".into(),
            Json::Obj(
                reports
                    .iter()
                    .map(|(name, _, t)| (name.to_string(), t.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let mut root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    let path = root.join("BENCH_trace.json");
    match std::fs::write(&path, snapshot.render() + "\n") {
        Ok(()) => eprintln!("[observability trajectory written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    // -- markdown table ----------------------------------------------------
    let pct = |x: f64| 100.0 * (x - base) / base;
    let mut t = Table::new(&[
        "level",
        "median [µs]",
        "vs baseline",
        "events",
        "tape records",
    ]);
    for ((name, _, tr), ns) in reports.iter().zip([base, off, counters, full]) {
        t.row(&[
            name.to_string(),
            format!("{:.1}", ns / 1e3),
            if *name == "baseline" {
                "—".into()
            } else {
                format!("{:+.1}%", pct(ns))
            },
            tr.events_emitted.to_string(),
            tr.events_retained.to_string(),
        ]);
    }

    let content = format!(
        "## Trace layer — overhead on the headline reconfiguration loop\n\n{}\n\
         {RECONFIGS_PER_ITER} back-to-back 200 MHz transfers per iteration, \
         fresh system per sample. `Off` is asserted ≤ +5% over the untouched \
         baseline (the disabled path is one branch), and the reconfiguration \
         report is asserted byte-identical across all four levels — the tape \
         is a pure observer.\n\n\
         _regenerated in {:.2?}_\n",
        t.render(),
        t0.elapsed()
    );
    publish("trace", &content);
}

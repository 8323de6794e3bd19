//! Host wall time and kernel counters of a reconfiguration as the
//! partition count grows, and of one Table I-sized ZedBoard op.
//!
//! * `fast_test` with 2, 4, 8 and 16 partitions, one per row: the second
//!   of two 200 MHz reconfigurations of RP1 (the first warms the system
//!   up). The idle partitions add a halted data DMA and a parked clock
//!   each; the kernel counters show whether they add work.
//! * One 528,568-byte partial bitstream (`make_partial_bitstream(0, 2017)`)
//!   written at 200 MHz on a freshly built ZedBoard system.
//!
//! The cases run in alternation, round after round, and each row reports
//! the median wall time of its op: a host slowdown hits every case alike.
//! The counters are deterministic; the wall times are this host's. It
//! writes no file and asserts no timing.
//!
//! ```text
//! cargo run --release --example partition_scaling [rounds]
//! ```

use std::time::Instant;

use pdr_lab::fabric::{AspKind, ColumnKind, Floorplan, Geometry, Partition};
use pdr_lab::pdr::{SystemConfig, ZynqPdrSystem};
use pdr_lab::sim::{Frequency, KernelCounters};

/// `fast_test` with `n` partitions of its shape, one per row.
fn one_partition_per_row(n: u32) -> SystemConfig {
    let geometry = Geometry::new(n, vec![ColumnKind::Clb; 6]);
    let partitions = (0..n)
        .map(|r| Partition::new(&format!("RP{}", r + 1), r, 0..3))
        .collect();
    SystemConfig {
        floorplan: Floorplan::new(geometry, partitions),
        ..SystemConfig::fast_test()
    }
}

/// One timed op's wall time in ms, and the counters before and after it.
type Timed = (f64, KernelCounters, KernelCounters);

fn fast_test_op(partitions: u32) -> Timed {
    let mut sys = ZynqPdrSystem::new(one_partition_per_row(partitions));
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let mhz = Frequency::from_mhz(200);
    assert!(sys.reconfigure(0, &bs, mhz).crc_ok());
    let before = sys.engine_mut().kernel_counters();
    let t = Instant::now();
    assert!(sys.reconfigure(0, &bs, mhz).crc_ok());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, before, sys.engine_mut().kernel_counters())
}

fn zedboard_op() -> Timed {
    let config = SystemConfig {
        ideal_instruments: true,
        initial_die_temp_c: 40.0,
        seed: 2017,
        ..SystemConfig::default()
    };
    let mut sys = ZynqPdrSystem::new(config);
    let image = sys.make_partial_bitstream(0, 2017);
    assert_eq!(image.len(), 528_568);
    let before = sys.engine_mut().kernel_counters();
    let t = Instant::now();
    assert!(sys
        .reconfigure(0, &image, Frequency::from_mhz(200))
        .crc_ok());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (ms, before, sys.engine_mut().kernel_counters())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rounds must be a positive integer"))
        .unwrap_or(7)
        .max(1);
    let cases: Vec<(String, fn() -> Timed)> = vec![
        ("fast_test, 2 partitions".into(), || fast_test_op(2)),
        ("fast_test, 4 partitions".into(), || fast_test_op(4)),
        ("fast_test, 8 partitions".into(), || fast_test_op(8)),
        ("fast_test, 16 partitions".into(), || fast_test_op(16)),
        ("zedboard 528,568 B @ 200 MHz".into(), zedboard_op),
    ];
    let mut walls = vec![Vec::new(); cases.len()];
    let mut counters = Vec::new();
    for round in 0..rounds {
        for (i, (_, op)) in cases.iter().enumerate() {
            let (ms, before, after) = op();
            walls[i].push(ms);
            if round == 0 {
                counters.push((before, after));
            }
        }
    }

    println!("{rounds} alternating rounds; median wall ms per op\n");
    println!(
        "{:<30} {:>9} {:>10} {:>9} {:>9} {:>12}",
        "case", "wall ms", "pops", "polls", "calls", "parked steps"
    );
    for (((name, _), wall), (before, after)) in cases.iter().zip(&mut walls).zip(&counters) {
        println!(
            "{:<30} {:>9.2} {:>10} {:>9} {:>9} {:>12}",
            name,
            median(wall),
            after.queue_pops - before.queue_pops,
            after.polls - before.polls,
            after.calls - before.calls,
            after.parked_steps - before.parked_steps,
        );
    }
    for ((name, _), (before, after)) in cases.iter().zip(&counters).skip(3) {
        println!("\n{name}: per clock domain (pops, dispatched, folded, parked)");
        for ((domain, b), (_, a)) in before.domains.iter().zip(&after.domains) {
            println!(
                "  {:<12} {:>9} {:>9} {:>7} {:>9}",
                domain,
                a.pops - b.pops,
                a.dispatched - b.dispatched,
                a.folded - b.folded,
                a.parked - b.parked
            );
        }
    }
}

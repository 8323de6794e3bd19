//! End-to-end reconfiguration scenarios across the whole stack.

use pdr_lab::bitstream::Bitstream;
use pdr_lab::fabric::AspKind;
use pdr_lab::pdr::{CrcStatus, ReconfigError, SystemConfig, ZynqPdrSystem};
use pdr_lab::sim::Frequency;

fn mhz(m: u64) -> Frequency {
    Frequency::from_mhz(m)
}

fn system() -> ZynqPdrSystem {
    ZynqPdrSystem::new(SystemConfig::fast_test())
}

#[test]
fn empty_bitstream_is_refused_before_any_register_writes() {
    // Regression: a zero-byte image used to reach the datapath and program
    // a zero-length DMA descriptor (REG_LENGTH = 0). It must be refused
    // up front, with nothing armed and nothing timed — on both transports.
    let mut sys = system();
    let empty = Bitstream::from_words(&[]);
    let before = sys.now();
    let r = sys.reconfigure(0, &empty, mhz(200));
    assert_eq!(r.error, Some(ReconfigError::Refused));
    assert_eq!(r.bitstream_bytes, 0);
    assert_eq!(r.frames_written, 0);
    assert_eq!(r.latency, None);
    assert!(!r.interrupt_seen);
    assert_eq!(r.crc, CrcStatus::NotChecked);
    assert_eq!(sys.now(), before, "refusal must not consume simulated time");
    // The refused report is JSON-safe (no non-finite throughput/PpW).
    assert_eq!(r.throughput_mb_s(), None);
    assert_eq!(r.ppw_mb_j(), None);

    let p = sys.reconfigure_pcap(0, &empty);
    assert_eq!(p.error, Some(ReconfigError::Refused));
    assert_eq!(p.frequency_hz, 0);
    assert_eq!(p.frames_written, 0);

    // The system remains fully serviceable after a refusal.
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let ok = sys.reconfigure(0, &bs, mhz(200));
    assert!(ok.succeeded(), "{ok:?}");
}

#[test]
fn throughput_scales_linearly_below_the_knee() {
    let mut sys = system();
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let mut last = 0.0;
    for m in [100u64, 140, 180] {
        let r = sys.reconfigure(0, &bs, mhz(m));
        let t = r.throughput_mb_s().expect("safe frequency");
        // Linear region: throughput ≈ 4 B × f within 15 % (overheads shrink
        // the small-bitstream rate more than the full-scale one).
        let ideal = 4.0 * m as f64;
        assert!(t <= ideal, "cannot beat the stream bound: {t} vs {ideal}");
        assert!(
            t > 0.85 * ideal,
            "too far below stream bound: {t} vs {ideal}"
        );
        assert!(t > last, "throughput must increase with frequency");
        last = t;
    }
}

#[test]
fn all_four_regimes_of_table1_reproduce() {
    let mut sys = system();
    let bs = sys.make_asp_bitstream(0, AspKind::AesMix, 2);

    // Regime 1 (≤ 280 MHz): interrupt + valid.
    let ok = sys.reconfigure(0, &bs, mhz(280));
    assert!(ok.interrupt_seen && ok.crc == CrcStatus::Valid);

    // Regime 2 (310 MHz at ≤ 90 °C): no interrupt, CRC valid.
    let silent = sys.reconfigure(0, &bs, mhz(310));
    assert!(!silent.interrupt_seen && silent.crc == CrcStatus::Valid);
    assert_eq!(silent.latency, None);

    // Regime 3 (≥ 320 MHz): no interrupt, CRC invalid.
    let corrupt = sys.reconfigure(0, &bs, mhz(320));
    assert!(!corrupt.interrupt_seen && corrupt.crc == CrcStatus::Invalid);
    assert!(corrupt.corrupted_words > 0);

    // Regime 4 (310 MHz at 100 °C): the stress failure.
    sys.set_die_temp_c(100.0);
    let hot = sys.reconfigure(0, &bs, mhz(310));
    assert_eq!(hot.crc, CrcStatus::Invalid);
}

#[test]
fn partitions_are_isolated() {
    let mut sys = system();
    let a = sys.make_asp_bitstream(0, AspKind::Fir16, 10);
    let b = sys.make_asp_bitstream(1, AspKind::MatMul8, 11);
    assert!(sys.reconfigure(0, &a, mhz(200)).crc_ok());
    assert!(sys.reconfigure(1, &b, mhz(200)).crc_ok());
    // Corrupt RP1 with an over-clocked transfer; RP2 must stay intact.
    let a2 = sys.make_asp_bitstream(0, AspKind::AesMix, 12);
    let bad = sys.reconfigure(0, &a2, mhz(360));
    assert!(!bad.crc_ok());
    assert_eq!(sys.identify_asp(1), Some((AspKind::MatMul8, 11)));
    let out = sys.execute_asp(1, &[2; 64]).expect("RP2 still runs");
    assert_eq!(out, AspKind::MatMul8.execute(11, &[2; 64]));
}

#[test]
fn scrubbing_recovers_a_corrupted_partition() {
    let mut sys = system();
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 20);
    assert!(!sys.reconfigure(0, &bs, mhz(360)).crc_ok());
    // Re-write at a safe frequency: the partition must verify again.
    let fixed = sys.reconfigure(0, &bs, mhz(100));
    assert!(fixed.crc_ok());
    assert_eq!(sys.identify_asp(0), Some((AspKind::Fir16, 20)));
}

#[test]
fn repeated_reconfigurations_are_stable() {
    let mut sys = system();
    for i in 0..8u32 {
        let kind = AspKind::ALL[i as usize % AspKind::ALL.len()];
        let bs = sys.make_asp_bitstream((i % 2) as usize, kind, i);
        let r = sys.reconfigure((i % 2) as usize, &bs, mhz(200));
        assert!(r.crc_ok(), "iteration {i}: {r:?}");
        assert_eq!(sys.identify_asp((i % 2) as usize), Some((kind, i)));
    }
    assert_eq!(sys.reconfig_count(), 8);
}

#[test]
fn latency_includes_driver_overhead() {
    let mut cfg = SystemConfig::fast_test();
    cfg.driver_overhead = pdr_lab::sim::SimDuration::from_micros(50);
    let mut slow_driver = ZynqPdrSystem::new(cfg);
    let mut fast_driver = ZynqPdrSystem::new(SystemConfig::fast_test());
    let bs = fast_driver.make_asp_bitstream(0, AspKind::Fir16, 1);
    let slow = slow_driver.reconfigure(0, &bs, mhz(100)).latency.unwrap();
    let fast = fast_driver.reconfigure(0, &bs, mhz(100)).latency.unwrap();
    let delta = (slow - fast).as_micros_f64();
    assert!(
        (46.0..=48.0).contains(&delta),
        "driver overhead must appear in the C-timer measurement: {delta}"
    );
}

#[test]
fn die_temperature_sensor_reads_close_to_truth() {
    let mut sys = system();
    sys.set_die_temp_c(73.4);
    let reading = sys.read_die_temp_c();
    assert!((reading - 73.4).abs() <= 0.25, "reading {reading}");
}

#[test]
fn background_monitor_detects_and_localises_nothing_when_clean() {
    let mut sys = system();
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 5);
    assert!(sys.reconfigure(0, &bs, mhz(100)).crc_ok());
    sys.start_background_monitor(&[0]);
    sys.run_monitor_for(sys.monitor_scan_period() * 4);
    assert!(!sys.crc_error_irq().is_raised());
}

#[test]
fn background_monitor_catches_injected_seu() {
    let mut sys = system();
    let bs = sys.make_asp_bitstream(1, AspKind::AesMix, 6);
    assert!(sys.reconfigure(1, &bs, mhz(100)).crc_ok());
    sys.start_background_monitor(&[1]);
    sys.run_monitor_for(sys.monitor_scan_period());
    sys.inject_seu(1, 50, 17, 3);
    let latency = sys
        .run_monitor_until_alarm(sys.monitor_scan_period() * 3)
        .expect("SEU must be detected");
    assert!(latency <= sys.monitor_scan_period() * 2);
}

#[test]
fn interconnect_sees_traffic_proportional_to_bitstream() {
    let mut sys = system();
    let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
    let before = sys.interconnect_stats().beats;
    assert!(sys.reconfigure(0, &bs, mhz(100)).crc_ok());
    let after = sys.interconnect_stats().beats;
    let expected_beats = bs.len() as u64 / 8;
    let moved = after - before;
    assert!(
        moved >= expected_beats && moved <= expected_beats + 64,
        "moved {moved} beats for a {}-byte bitstream",
        bs.len()
    );
}

//! Reconfiguration reports: what one `reconfigure` call observed.

use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::stats::OnlineStats;
use pdr_sim_core::{impl_json_enum, impl_json_struct, Frequency, SimDuration};

/// Outcome of the CRC read-back verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcStatus {
    /// The configured region matches the intended bitstream.
    Valid,
    /// The configured region is corrupt (the paper's "not valid").
    Invalid,
    /// Verification was not performed (read-back disabled).
    NotChecked,
}

impl_json_enum!(CrcStatus {
    Valid,
    Invalid,
    NotChecked
});

/// Why a reconfiguration attempt hit the watchdog deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutCause {
    /// The transfer finished (all bytes streamed, frames committed) but the
    /// completion interrupt never arrived — the paper's 310 MHz failure
    /// mode, where only the interrupt path violates timing.
    InterruptLost,
    /// The transfer itself never finished before the deadline (stalled DMA,
    /// starved interconnect): data may be partially written.
    StillInFlight,
}

impl_json_enum!(TimeoutCause {
    InterruptLost,
    StillInFlight
});

/// Classified failure of one reconfiguration attempt. `None` on a report
/// means the attempt succeeded end-to-end (interrupt seen, CRC valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigError {
    /// The watchdog deadline expired without a completion interrupt.
    Timeout(TimeoutCause),
    /// The transfer completed but read-back found the partition corrupt.
    CrcMismatch,
    /// The configuration logic refused the bitstream (bad sync word, wrong
    /// IDCODE, malformed packet): nothing was written.
    Refused,
    /// The recovery ladder exhausted its options and the partition was
    /// taken out of service.
    Quarantined,
}

// `impl_json_enum!` handles unit variants only; `Timeout` carries a cause,
// so the encoding is written out: flat "Timeout:<cause>" strings keep the
// report JSON greppable.
impl ToJson for ReconfigError {
    fn to_json(&self) -> Json {
        let text = match self {
            ReconfigError::Timeout(cause) => {
                return Json::Str(format!(
                    "Timeout:{}",
                    cause.to_json_string().trim_matches('"')
                ))
            }
            ReconfigError::CrcMismatch => "CrcMismatch",
            ReconfigError::Refused => "Refused",
            ReconfigError::Quarantined => "Quarantined",
        };
        Json::Str(text.to_string())
    }
}

impl FromJson for ReconfigError {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v.as_str().ok_or_else(|| JsonError {
            msg: "expected ReconfigError variant string".to_string(),
        })?;
        match s {
            "CrcMismatch" => Ok(ReconfigError::CrcMismatch),
            "Refused" => Ok(ReconfigError::Refused),
            "Quarantined" => Ok(ReconfigError::Quarantined),
            _ => match s.strip_prefix("Timeout:") {
                Some(cause) => Ok(ReconfigError::Timeout(TimeoutCause::from_json(
                    &Json::Str(cause.to_string()),
                )?)),
                None => Err(JsonError {
                    msg: format!("unknown ReconfigError variant '{s}'"),
                }),
            },
        }
    }
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::Timeout(TimeoutCause::InterruptLost) => {
                write!(f, "timeout: completion interrupt lost")
            }
            ReconfigError::Timeout(TimeoutCause::StillInFlight) => {
                write!(f, "timeout: transfer still in flight")
            }
            ReconfigError::CrcMismatch => write!(f, "CRC read-back mismatch"),
            ReconfigError::Refused => write!(f, "bitstream refused"),
            ReconfigError::Quarantined => write!(f, "partition quarantined"),
        }
    }
}

/// Everything observed during one partial reconfiguration — the raw material
/// for every row of Table I/II and every cell of the stress matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigReport {
    /// The over-clock frequency used, in Hz.
    pub frequency_hz: u64,
    /// Die temperature during the transfer, in °C (sensor reading).
    pub die_temp_c: f64,
    /// Bitstream size in bytes.
    pub bitstream_bytes: u64,
    /// Configuration latency measured by the software timer, from driver
    /// start to the completion interrupt. `None` when the interrupt never
    /// arrived (the paper's "N/A no interrupt" rows).
    pub latency: Option<SimDuration>,
    /// Whether the end-of-configuration interrupt was observed.
    pub interrupt_seen: bool,
    /// CRC read-back verdict.
    pub crc: CrcStatus,
    /// Whether the in-stream CRC check word matched (`None` if the parser
    /// never reached it).
    pub stream_crc_ok: Option<bool>,
    /// Frames committed to configuration memory.
    pub frames_written: u64,
    /// Words corrupted by timing violations (0 on a healthy data path).
    pub corrupted_words: u64,
    /// P_PDR measured during the transfer (board reading minus P0), in W.
    pub p_pdr_w: f64,
    /// Energy attributed to the transfer (P_PDR × latency), in J; `None`
    /// without a latency measurement.
    pub energy_j: Option<f64>,
    /// Classified failure, `None` when the attempt succeeded end-to-end.
    pub error: Option<ReconfigError>,
}

impl_json_struct!(ReconfigReport {
    frequency_hz,
    die_temp_c,
    bitstream_bytes,
    latency,
    interrupt_seen,
    crc,
    stream_crc_ok,
    frames_written,
    corrupted_words,
    p_pdr_w,
    energy_j,
    error,
});

impl ReconfigReport {
    /// True when the read-back verified the configuration.
    pub fn crc_ok(&self) -> bool {
        self.crc == CrcStatus::Valid
    }

    /// True when the attempt succeeded end-to-end (no classified error).
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }

    /// Transfer throughput in MB/s (10⁶ bytes per second, the paper's
    /// unit). `None` without a latency measurement, and `None` for
    /// degenerate reports (zero-duration latency) whose ratio would not be
    /// finite — report JSON must never carry `inf`/`NaN`.
    pub fn throughput_mb_s(&self) -> Option<f64> {
        self.latency
            .map(|l| self.bitstream_bytes as f64 / l.as_secs_f64() / 1e6)
            .filter(|t| t.is_finite())
    }

    /// Performance-per-watt in MB/J. `None` without a latency measurement
    /// or without a usable (strictly positive, finite) power reading.
    pub fn ppw_mb_j(&self) -> Option<f64> {
        self.throughput_mb_s()
            .and_then(|t| pdr_power::performance_per_watt(t, self.p_pdr_w))
    }

    /// The over-clock frequency, or `None` for transports without a PL
    /// clock (the PCAP path reports `frequency_hz == 0`).
    pub fn frequency(&self) -> Option<Frequency> {
        (self.frequency_hz > 0).then(|| Frequency::from_hz(self.frequency_hz))
    }

    /// A compact one-line summary (the OLED display's content).
    pub fn summary(&self) -> String {
        let lat = match self.latency {
            Some(l) => format!("{:.2} us", l.as_micros_f64()),
            None => "N/A no interrupt".to_string(),
        };
        let thpt = match self.throughput_mb_s() {
            Some(t) => format!("{t:.2} MB/s"),
            None => "N/A".to_string(),
        };
        let crc = match self.crc {
            CrcStatus::Valid => "valid",
            CrcStatus::Invalid => "not valid",
            CrcStatus::NotChecked => "unchecked",
        };
        format!(
            "{} MHz {:.0} C | {} | {} | CRC {}",
            self.frequency_hz / 1_000_000,
            self.die_temp_c,
            lat,
            thpt,
            crc
        )
    }
}

/// A serialisable summary of an [`OnlineStats`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSummary {
    /// Sample count.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl_json_struct!(StatsSummary {
    count,
    mean,
    std_dev,
    min,
    max
});

impl StatsSummary {
    /// The canonical zero-sample summary: every field zero. A campaign that
    /// recorded nothing (e.g. a zero-fault recovery run) must still produce
    /// a well-defined, JSON-round-trippable summary, not NaN placeholders.
    pub const EMPTY: StatsSummary = StatsSummary {
        count: 0,
        mean: 0.0,
        std_dev: 0.0,
        min: 0.0,
        max: 0.0,
    };

    /// True when every field is finite (the codec renders non-finite floats
    /// as `null`, which then fails to decode — reports must never do that).
    pub fn is_json_safe(&self) -> bool {
        self.mean.is_finite()
            && self.std_dev.is_finite()
            && self.min.is_finite()
            && self.max.is_finite()
    }
}

impl From<&OnlineStats> for StatsSummary {
    fn from(s: &OnlineStats) -> Self {
        if s.count() == 0 {
            return StatsSummary::EMPTY;
        }
        // Defensive: a NaN pushed upstream would contaminate every Welford
        // moment. Clamp to 0.0 rather than serialize a non-finite float.
        let sanitize = |v: f64| if v.is_finite() { v } else { 0.0 };
        StatsSummary {
            count: s.count(),
            mean: sanitize(s.mean()),
            std_dev: sanitize(s.std_dev()),
            min: sanitize(s.min().unwrap_or(0.0)),
            max: sanitize(s.max().unwrap_or(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latency_us: Option<u64>) -> ReconfigReport {
        ReconfigReport {
            frequency_hz: 200_000_000,
            die_temp_c: 40.0,
            bitstream_bytes: 528_568,
            latency: latency_us.map(SimDuration::from_micros),
            interrupt_seen: latency_us.is_some(),
            crc: CrcStatus::Valid,
            stream_crc_ok: Some(true),
            frames_written: 1308,
            corrupted_words: 0,
            p_pdr_w: 1.30,
            energy_j: latency_us.map(|u| 1.30 * u as f64 * 1e-6),
            error: latency_us
                .is_none()
                .then_some(ReconfigError::Timeout(TimeoutCause::InterruptLost)),
        }
    }

    #[test]
    fn throughput_uses_paper_units() {
        let r = report(Some(676));
        let t = r.throughput_mb_s().unwrap();
        assert!((t - 781.9).abs() < 1.0, "t={t}");
    }

    #[test]
    fn ppw_matches_definition() {
        let r = report(Some(676));
        let ppw = r.ppw_mb_j().unwrap();
        assert!((ppw - 781.9 / 1.30).abs() < 1.0, "ppw={ppw}");
    }

    #[test]
    fn degenerate_report_yields_none_not_inf_and_round_trips() {
        use pdr_sim_core::json::{FromJson, ToJson};
        // Regression: a zero-latency report used to return `inf` MB/s
        // (and 0/0 → NaN for a zero-byte transfer), which `ppw_mb_j`
        // forwarded into report consumers. Both must degrade to `None`.
        let mut r = report(Some(0));
        assert_eq!(r.latency, Some(SimDuration::ZERO));
        assert_eq!(r.throughput_mb_s(), None, "inf must not escape");
        assert_eq!(r.ppw_mb_j(), None);
        assert!(r.summary().contains("N/A"), "{}", r.summary());

        r.bitstream_bytes = 0; // 0 bytes / 0 s → NaN
        assert_eq!(r.throughput_mb_s(), None, "NaN must not escape");
        assert_eq!(r.ppw_mb_j(), None);

        // Zero power on an otherwise healthy report: throughput is fine,
        // PpW is unmeasurable.
        let mut r = report(Some(676));
        r.p_pdr_w = 0.0;
        assert!(r.throughput_mb_s().is_some());
        assert_eq!(r.ppw_mb_j(), None);

        // The degenerate report still JSON round-trips bit-exactly: the
        // codec's promise that report JSON never holds non-finite floats
        // relies on accessors filtering them out before serialization.
        let degenerate = ReconfigReport {
            bitstream_bytes: 0,
            latency: Some(SimDuration::ZERO),
            p_pdr_w: 0.0,
            energy_j: Some(0.0),
            ..report(Some(0))
        };
        let text = degenerate.to_json_string();
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        let back = ReconfigReport::from_json_str(&text).expect("decodes");
        assert_eq!(back, degenerate);
    }

    #[test]
    fn missing_interrupt_yields_no_throughput() {
        let r = report(None);
        assert_eq!(r.throughput_mb_s(), None);
        assert_eq!(r.ppw_mb_j(), None);
        assert!(r.summary().contains("N/A no interrupt"));
    }

    #[test]
    fn pcap_report_has_no_frequency() {
        let mut r = report(Some(100));
        assert!(r.frequency().is_some());
        r.frequency_hz = 0; // PCAP
        assert_eq!(r.frequency(), None);
        // The summary still renders without panicking.
        assert!(r.summary().contains("0 MHz"));
    }

    #[test]
    fn summary_mentions_crc_state() {
        let mut r = report(Some(676));
        assert!(r.summary().contains("CRC valid"));
        r.crc = CrcStatus::Invalid;
        assert!(r.summary().contains("not valid"));
    }

    #[test]
    fn report_json_round_trips_with_latency() {
        use pdr_sim_core::json::{FromJson, ToJson};
        let r = report(Some(676));
        let text = r.to_json_string();
        assert!(text.contains("\"crc\":\"Valid\""), "{text}");
        let back = ReconfigReport::from_json_str(&text).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn report_json_round_trips_without_latency() {
        use pdr_sim_core::json::{FromJson, ToJson};
        let r = report(None);
        let text = r.to_json_string();
        // Absent optionals render as null and come back as None.
        assert!(text.contains("\"latency\":null"), "{text}");
        let back = ReconfigReport::from_json_str(&text).expect("decodes");
        assert_eq!(back, r);
        assert_eq!(back.latency, None);
        assert_eq!(back.energy_j, None);
    }

    #[test]
    fn reconfig_error_json_round_trips_every_variant() {
        use pdr_sim_core::json::{FromJson, ToJson};
        for e in [
            ReconfigError::Timeout(TimeoutCause::InterruptLost),
            ReconfigError::Timeout(TimeoutCause::StillInFlight),
            ReconfigError::CrcMismatch,
            ReconfigError::Refused,
            ReconfigError::Quarantined,
        ] {
            let j = e.to_json_string();
            assert_eq!(ReconfigError::from_json_str(&j).expect("decodes"), e, "{j}");
        }
        assert_eq!(
            ReconfigError::Timeout(TimeoutCause::InterruptLost).to_json_string(),
            "\"Timeout:InterruptLost\""
        );
        assert!(ReconfigError::from_json_str("\"Timeout:Nonsense\"").is_err());
        assert!(ReconfigError::from_json_str("\"Bogus\"").is_err());
        assert!(ReconfigError::from_json_str("17").is_err());
    }

    #[test]
    fn error_field_round_trips_and_marks_failure() {
        use pdr_sim_core::json::{FromJson, ToJson};
        let ok = report(Some(676));
        assert!(ok.succeeded());
        let failed = report(None);
        assert!(!failed.succeeded());
        let text = failed.to_json_string();
        assert!(
            text.contains("\"error\":\"Timeout:InterruptLost\""),
            "{text}"
        );
        let back = ReconfigReport::from_json_str(&text).expect("decodes");
        assert_eq!(back, failed);
    }

    #[test]
    fn crc_status_json_round_trips_every_variant() {
        use pdr_sim_core::json::{FromJson, ToJson};
        for status in [CrcStatus::Valid, CrcStatus::Invalid, CrcStatus::NotChecked] {
            let j = status.to_json();
            assert_eq!(CrcStatus::from_json(&j).expect("decodes"), status);
        }
        assert!(CrcStatus::from_json_str("\"Bogus\"").is_err());
    }
}

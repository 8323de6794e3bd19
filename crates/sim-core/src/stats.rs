//! Measurement helpers: online statistics, histograms and time-weighted
//! averages.
//!
//! Experiment harnesses use these to summarise latencies, throughputs, FIFO
//! occupancies and power samples without retaining full sample vectors in the
//! hot loop.

use core::fmt;

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::time::SimTime;

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, `m2 / n` (0 for fewer than two samples).
    ///
    /// This describes the spread of the samples *seen*; an inference about
    /// the mean of the distribution they were drawn from (a confidence
    /// interval) must use [`OnlineStats::sample_variance`] instead.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation, `sqrt(m2 / n)`.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Unbiased sample variance, `m2 / (n - 1)` (Bessel's correction; 0 for
    /// fewer than two samples). This is the estimator a confidence interval
    /// on the mean is built from — using the population variance there makes
    /// every CI systematically too narrow, worst at small `n`.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation, `sqrt(m2 / (n - 1))`.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The raw accumulator state `(n, mean, m2, min, max)` for
    /// checkpointing; `min`/`max` are `None` when empty (their internal
    /// sentinels are non-finite and must never reach JSON).
    pub fn raw_parts(&self) -> (u64, f64, f64, Option<f64>, Option<f64>) {
        (self.n, self.mean, self.m2, self.min(), self.max())
    }

    /// Rebuilds an accumulator from state captured by
    /// [`OnlineStats::raw_parts`].
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64, min: Option<f64>, max: Option<f64>) -> Self {
        OnlineStats {
            n,
            mean,
            m2,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Checkpoint encoding: `{"n", "mean", "m2", "min", "max"}`, with `min` and
/// `max` `null` while empty.
impl ToJson for OnlineStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".to_string(), self.n.to_json()),
            ("mean".to_string(), self.mean.to_json()),
            ("m2".to_string(), self.m2.to_json()),
            ("min".to_string(), self.min().to_json()),
            ("max".to_string(), self.max().to_json()),
        ])
    }
}

impl FromJson for OnlineStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(OnlineStats::from_raw_parts(
            v.field("n")?,
            v.field("mean")?,
            v.field("m2")?,
            v.field("min")?,
            v.field("max")?,
        ))
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// Exact-quantile accumulator: retains every sample and sorts on demand.
///
/// [`OnlineStats`] gives streaming moments; latency telemetry (p50/p99 of
/// queueing delay) wants exact order statistics, which need the full sample
/// vector.
/// Workloads in this simulator are bounded (thousands of requests, not
/// billions), so retention is cheap.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleSeries {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        SampleSeries::default()
    }

    /// Adds one sample. Non-finite samples are ignored — the consumers of
    /// this type serialise their quantiles into report JSON, which must
    /// never carry `inf`/`NaN`.
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Number of (finite) samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The exact `q`-quantile (`0.0 ..= 1.0`) by nearest-rank on the sorted
    /// samples, `None` when empty. `quantile(0.5)` is the median and
    /// `quantile(0.99)` the p99.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0 ..= 1.0`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Streaming moments over the retained samples.
    pub fn online_stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &x in &self.samples {
            s.push(x);
        }
        s
    }
}

/// Checkpoint encoding: the retained samples in their current storage
/// order, as an array of floats.
impl ToJson for SampleSeries {
    fn to_json(&self) -> Json {
        self.samples.to_json()
    }
}

/// Non-finite entries are dropped, matching [`SampleSeries::push`].
impl FromJson for SampleSeries {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut s = SampleSeries::new();
        for x in Vec::<f64>::from_json(v)? {
            s.push(x);
        }
        Ok(s)
    }
}

/// Linear sub-bins per power-of-two binade in [`BoundedQuantiles`]' spilled
/// histogram: 32 sub-bins bound the relative quantile error at ~3%.
const BQ_SUB_BITS: u32 = 5;
const BQ_SUB: usize = 1 << BQ_SUB_BITS;
/// Smallest binade the histogram resolves; anything below (including zero
/// and negatives) lands in the underflow bucket and reports the exact min.
const BQ_EXP_MIN: i32 = -64;
/// One past the largest binade; anything at or above lands in the overflow
/// bucket and reports the exact max.
const BQ_EXP_MAX: i32 = 64;
/// Bucket count: one underflow + one overflow + the binade grid.
const BQ_BINS: usize = ((BQ_EXP_MAX - BQ_EXP_MIN) as usize) * BQ_SUB + 2;

/// Bounded-memory quantile estimator for fleet-scale sample streams.
///
/// [`SampleSeries`] retains every sample, which breaks the flat-RSS
/// discipline once campaigns push 10⁶⁺ latencies. This sketch is **exact
/// while small** — up to `limit` samples it keeps the raw values and its
/// quantiles equal [`SampleSeries::quantile`] bit-for-bit — and on spilling
/// degrades to a fixed log₂-spaced histogram (32 linear sub-bins per binade,
/// ≤ ~3% relative error) whose footprint never grows again.
///
/// Determinism contract: bucketing and bucket edges are computed from the
/// IEEE-754 bit pattern (exponent and top mantissa bits) — no `ln`/`powf`,
/// whose last-ulp behaviour is libm-specific — so two runs on any host
/// produce byte-identical state and quantiles. Merging is
/// order-sensitive only while both sides are exact (sample order is
/// preserved); spilled histograms merge commutatively.
///
/// Non-finite samples are ignored on push and quantiles are `None` when
/// empty, matching the repo-wide report contract (no NaN/inf in JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedQuantiles {
    limit: usize,
    /// Raw samples in insertion order while exact; drained on spill.
    exact: Vec<f64>,
    /// Allocated (BQ_BINS entries) only after spilling.
    bins: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl BoundedQuantiles {
    /// Creates an empty sketch that stays exact up to `limit` samples.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "BoundedQuantiles limit must be >= 1");
        BoundedQuantiles {
            limit,
            exact: Vec::new(),
            bins: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bin_index(x: f64) -> usize {
        // Everything below the smallest resolvable binade — zero, negatives,
        // subnormals — underflows to bucket 0.
        let lo = f64::from_bits(((BQ_EXP_MIN + 1023) as u64) << 52);
        if x < lo {
            return 0;
        }
        let b = x.to_bits();
        let exp = ((b >> 52) & 0x7ff) as i32 - 1023;
        if exp >= BQ_EXP_MAX {
            return BQ_BINS - 1;
        }
        let sub = ((b >> (52 - BQ_SUB_BITS)) & (BQ_SUB as u64 - 1)) as usize;
        1 + ((exp - BQ_EXP_MIN) as usize) * BQ_SUB + sub
    }

    /// The lower edge of interior bucket `i` (`1..BQ_BINS-1`), rebuilt from
    /// the same bit pattern the index was derived from.
    fn bin_lower_edge(i: usize) -> f64 {
        let k = i - 1;
        let exp = BQ_EXP_MIN + (k / BQ_SUB) as i32;
        let sub = (k % BQ_SUB) as u64;
        f64::from_bits((((exp + 1023) as u64) << 52) | (sub << (52 - BQ_SUB_BITS)))
    }

    fn spill(&mut self) {
        if !self.bins.is_empty() {
            return;
        }
        self.bins = vec![0u64; BQ_BINS];
        for x in std::mem::take(&mut self.exact) {
            self.bins[Self::bin_index(x)] += 1;
        }
    }

    /// True while quantiles are exact (no spill has happened).
    pub fn is_exact(&self) -> bool {
        self.bins.is_empty()
    }

    /// Adds one sample. Non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        if self.bins.is_empty() {
            self.exact.push(x);
            if self.exact.len() > self.limit {
                self.spill();
            }
        } else {
            self.bins[Self::bin_index(x)] += 1;
        }
    }

    /// Number of (finite) samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact-mode capacity this sketch was built with.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest-rank; `None` when empty.
    /// Exact (bit-identical to [`SampleSeries::quantile`]) until the sketch
    /// spills; afterwards the bucket's lower edge clamped into the observed
    /// `[min, max]` range, within ~3% relative error.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0 ..= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if self.bins.is_empty() {
            let mut sorted = self.exact.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            return Some(sorted[rank as usize - 1]);
        }
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = if i == 0 {
                    self.min
                } else if i == BQ_BINS - 1 {
                    self.max
                } else {
                    Self::bin_lower_edge(i)
                };
                return Some(edge.clamp(self.min, self.max));
            }
        }
        unreachable!("bin counts sum to self.count");
    }

    /// Smallest sample (`None` when empty) — always exact.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty) — always exact.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges `other` into `self`. While both sides are exact and fit within
    /// `self.limit`, sample order is preserved (self's samples then other's),
    /// so a fixed merge order yields byte-identical state; once either side
    /// has spilled (or the union exceeds the limit) the merge goes through
    /// the histogram, which is order-insensitive.
    pub fn merge(&mut self, other: &BoundedQuantiles) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.bins.is_empty()
            && other.bins.is_empty()
            && self.exact.len() + other.exact.len() <= self.limit
        {
            self.exact.extend_from_slice(&other.exact);
            return;
        }
        self.spill();
        for &x in &other.exact {
            self.bins[Self::bin_index(x)] += 1;
        }
        if !other.bins.is_empty() {
            for (dst, &src) in self.bins.iter_mut().zip(other.bins.iter()) {
                *dst += src;
            }
        }
    }

    /// Checkpoint state: `(count, min, max, exact_samples, sparse_bins)`.
    /// `min`/`max` are `None` when empty (their sentinels are non-finite and
    /// must never reach JSON); `sparse_bins` lists only non-zero buckets as
    /// `(index, count)` pairs. An empty `sparse_bins` with a non-empty
    /// `exact` means the sketch has not spilled.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (u64, Option<f64>, Option<f64>, Vec<f64>, Vec<(u64, u64)>) {
        let sparse = self
            .bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect();
        (
            self.count,
            self.min(),
            self.max(),
            self.exact.clone(),
            sparse,
        )
    }

    /// Rebuilds a sketch from [`BoundedQuantiles::raw_parts`] state. A
    /// sketch that had spilled (`count > exact.len()`) is rebuilt in spilled
    /// form even if `sparse_bins` happens to be empty. `None` when a bin
    /// index is out of range or a bin count overflows.
    pub fn from_raw_parts(
        limit: usize,
        count: u64,
        min: Option<f64>,
        max: Option<f64>,
        exact: Vec<f64>,
        sparse_bins: Vec<(u64, u64)>,
    ) -> Option<Self> {
        let mut bins = Vec::new();
        if count > exact.len() as u64 || !sparse_bins.is_empty() {
            bins = vec![0u64; BQ_BINS];
            for (i, c) in sparse_bins {
                let bin = bins.get_mut(usize::try_from(i).ok()?)?;
                *bin = bin.checked_add(c)?;
            }
        }
        Some(BoundedQuantiles {
            limit,
            exact,
            bins,
            count,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        })
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. FIFO occupancy
/// or instantaneous power): the integral of value·dt divided by elapsed time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    start: SimTime,
    last_time: SimTime,
    last_value: f64,
    integral: f64, // value * picoseconds
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial value `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            start,
            last_time: start,
            last_value: value,
            integral: 0.0,
        }
    }

    /// Records that the signal changed to `value` at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn update(&mut self, now: SimTime, value: f64) {
        let dt = now.duration_since(self.last_time);
        self.integral += self.last_value * dt.as_ps() as f64;
        self.last_time = now;
        self.last_value = value;
    }

    /// The time-weighted mean over `[start, now]`.
    pub fn mean_at(&self, now: SimTime) -> f64 {
        let total = now.duration_since(self.start).as_ps() as f64;
        if total == 0.0 {
            return self.last_value;
        }
        let tail = now.duration_since(self.last_time).as_ps() as f64;
        (self.integral + self.last_value * tail) / total
    }

    /// The current signal value.
    pub fn value(&self) -> f64 {
        self.last_value
    }

    /// Integral of the signal in value·seconds over `[start, now]` — with the
    /// signal in watts this is energy in joules.
    pub fn integral_at(&self, now: SimTime) -> f64 {
        let tail = now.duration_since(self.last_time).as_ps() as f64;
        (self.integral + self.last_value * tail) / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty_is_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn sample_variance_applies_bessel_correction() {
        // n = 2 is where the ÷n vs ÷(n−1) distinction is largest: for
        // samples {a, b} the population variance is (a−b)²/4 but the
        // unbiased sample variance is (a−b)²/2.
        let mut s = OnlineStats::new();
        s.push(3.0);
        s.push(7.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.sample_variance() - 8.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.sample_std_dev() - 8.0_f64.sqrt()).abs() < 1e-12);
        // For one sample neither variance is defined; both report 0.
        let mut one = OnlineStats::new();
        one.push(5.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.sample_variance(), 0.0);
        // The ratio is exactly n/(n−1) for any n ≥ 2.
        let mut many = OnlineStats::new();
        for i in 0..10 {
            many.push((i * i) as f64);
        }
        let n = many.count() as f64;
        assert!((many.sample_variance() - many.variance() * n / (n - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn sample_series_exact_quantiles() {
        let mut s = SampleSeries::new();
        for x in (1..=100).rev() {
            s.push(x as f64);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        // Pushing after a sort re-sorts lazily.
        s.push(0.5);
        assert_eq!(s.quantile(0.0), Some(0.5));
    }

    #[test]
    fn sample_series_empty_and_non_finite() {
        let mut s = SampleSeries::new();
        assert_eq!(s.quantile(0.5), None);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        assert_eq!(s.count(), 0, "non-finite samples are dropped");
        s.push(2.0);
        assert_eq!(s.quantile(0.99), Some(2.0));
        assert_eq!(s.online_stats().count(), 1);
    }

    #[test]
    fn bounded_quantiles_exact_mode_pins_sample_series() {
        // Below the spill limit the sketch must agree with the exact
        // nearest-rank series bit-for-bit — including p50 and p99, the two
        // quantiles FleetReport publishes.
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(2017);
        for n in [1usize, 2, 3, 17, 100, 255] {
            let mut sketch = BoundedQuantiles::new(256);
            let mut series = SampleSeries::new();
            for _ in 0..n {
                let x = rng.next_f64() * 1e5 + 0.125;
                sketch.push(x);
                series.push(x);
            }
            assert!(sketch.is_exact());
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(sketch.quantile(q), series.quantile(q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn bounded_quantiles_spill_keeps_bounded_error() {
        let mut sketch = BoundedQuantiles::new(64);
        let mut series = SampleSeries::new();
        for i in 0..10_000u64 {
            // Deterministic spread over ~4 decades.
            let x = 1.5 + (i as f64) * 3.25;
            sketch.push(x);
            series.push(x);
        }
        assert!(!sketch.is_exact());
        assert_eq!(sketch.count(), 10_000);
        for q in [0.5, 0.99] {
            let approx = sketch.quantile(q).unwrap();
            let exact = series.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(rel <= 0.04, "q={q}: {approx} vs exact {exact} (rel {rel})");
        }
        // Extremes stay exact even after spilling.
        assert_eq!(sketch.quantile(0.0), series.quantile(0.0));
        assert_eq!(sketch.min(), Some(1.5));
        assert_eq!(sketch.max(), series.quantile(1.0));
    }

    #[test]
    fn bounded_quantiles_non_finite_and_empty_contract() {
        let mut s = BoundedQuantiles::new(16);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        assert_eq!(s.count(), 0, "non-finite samples are dropped");
        s.push(0.0);
        s.push(-3.0);
        assert_eq!(s.quantile(1.0), Some(0.0));
        assert_eq!(s.quantile(0.0), Some(-3.0));
        // Zero and negatives survive spilling via the underflow bucket.
        for _ in 0..32 {
            s.push(-1.0);
        }
        assert!(!s.is_exact());
        let q = s.quantile(0.5).unwrap();
        assert!(q.is_finite() && (-3.0..=0.0).contains(&q));
    }

    #[test]
    fn bounded_quantiles_merge_matches_single_stream() {
        // Exact-mode merge in a fixed order reproduces the single-stream
        // sketch exactly (the fleet merges shard deltas in shard order).
        let xs: Vec<f64> = (0..300).map(|i| ((i * 37) % 100) as f64 + 0.5).collect();
        let mut whole = BoundedQuantiles::new(4096);
        for &x in &xs {
            whole.push(x);
        }
        let mut a = BoundedQuantiles::new(4096);
        let mut b = BoundedQuantiles::new(4096);
        for &x in &xs[..120] {
            a.push(x);
        }
        for &x in &xs[120..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Spilled merge keeps counts and bounded error.
        let mut small = BoundedQuantiles::new(32);
        let mut other = BoundedQuantiles::new(32);
        for &x in &xs[..150] {
            small.push(x);
        }
        for &x in &xs[150..] {
            other.push(x);
        }
        small.merge(&other);
        assert_eq!(small.count(), 300);
        assert!(!small.is_exact());
        let exact = whole.quantile(0.5).unwrap();
        let approx = small.quantile(0.5).unwrap();
        assert!((approx - exact).abs() / exact <= 0.04);
    }

    #[test]
    fn bounded_quantiles_raw_parts_round_trip() {
        let mut exact = BoundedQuantiles::new(64);
        for i in 0..10 {
            exact.push(i as f64 + 0.25);
        }
        let (c, mn, mx, xs, bins) = exact.raw_parts();
        assert!(bins.is_empty());
        let back = BoundedQuantiles::from_raw_parts(64, c, mn, mx, xs, bins).unwrap();
        assert_eq!(back, exact);
        let mut spilled = BoundedQuantiles::new(8);
        for i in 0..100 {
            spilled.push((i * i) as f64 + 1.0);
        }
        let (c, mn, mx, xs, bins) = spilled.raw_parts();
        assert!(xs.is_empty() && !bins.is_empty());
        let back = BoundedQuantiles::from_raw_parts(8, c, mn, mx, xs, bins).unwrap();
        assert_eq!(back, spilled);
        assert_eq!(back.quantile(0.99), spilled.quantile(0.99));
    }

    #[test]
    fn time_weighted_mean_and_integral() {
        let t0 = SimTime::ZERO;
        let mut tw = TimeWeighted::new(t0, 1.0);
        let t1 = t0 + SimDuration::from_secs(1);
        tw.update(t1, 3.0);
        let t2 = t1 + SimDuration::from_secs(1);
        // 1 W for 1 s then 3 W for 1 s => mean 2 W, energy 4 J.
        assert!((tw.mean_at(t2) - 2.0).abs() < 1e-12);
        assert!((tw.integral_at(t2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(SimTime::ZERO, 5.0);
        assert_eq!(tw.mean_at(SimTime::ZERO), 5.0);
    }
}

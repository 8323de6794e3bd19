//! Open-loop synthetic fleet traffic: deterministic Poisson arrivals under
//! a diurnal burst envelope, with Zipf-skewed tenant and catalog-entry
//! popularity.
//!
//! Everything here is bit-deterministic across hosts. The usual samplers
//! lean on `ln`/`powf`/`sin`, whose last-ulp behaviour is libm-specific and
//! would leak into the committed `BENCH_fleet.json`; instead this module
//! ships its own `det_ln`/`det_exp` built from IEEE-exact operations only
//! (add/mul/div/floor and bit twiddling), and a triangular wave replaces
//! the sinusoidal envelope. Tests pin both against `std` to 1e-12.
//!
//! The arrival process is *count-exact*: a model generates exactly
//! `target_requests` arrivals (the campaign's denominator is a constant,
//! not a random variate); `duration` sets the mean rate, so the realised
//! span of the stream is `duration` give or take Poisson noise.

use pdr_sim_core::json::{FromJson, Json, JsonError, ToJson};
use pdr_sim_core::rng::Xoshiro256StarStar;
use pdr_sim_core::SimDuration;

use super::ring::mix64;

const LN_2: f64 = core::f64::consts::LN_2;

/// Deterministic natural log for finite `x > 0`: exponent/mantissa split by
/// bit pattern, then the atanh series on the mantissa folded into
/// `[1/sqrt(2), sqrt(2))`. Uses only IEEE-exact ops, so every host computes
/// the same bits. Accurate to ~1 ulp over the f64 range.
pub fn det_ln(x: f64) -> f64 {
    assert!(
        x > 0.0 && x.is_finite(),
        "det_ln domain: finite x > 0, got {x}"
    );
    let bits = x.to_bits();
    let mut exp = ((bits >> 52) & 0x7ff) as i64;
    let frac_bits;
    if exp == 0 {
        // Subnormal: normalise by scaling with 2^64 (exact).
        let y = x * f64::from_bits((1023u64 + 64) << 52);
        let yb = y.to_bits();
        exp = ((yb >> 52) & 0x7ff) as i64 - 64;
        frac_bits = yb & 0x000f_ffff_ffff_ffff;
    } else {
        frac_bits = bits & 0x000f_ffff_ffff_ffff;
    }
    let mut e = exp - 1023;
    // m in [1, 2); fold to [1/sqrt(2), sqrt(2)) so |t| <= 0.1716.
    let mut m = f64::from_bits((1023u64 << 52) | frac_bits);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // 2 * (t + t^3/3 + ... + t^19/19): the t^21 term is < 3e-16 relative.
    let mut s = 1.0 / 19.0;
    for k in (1..=9).rev() {
        s = s * t2 + 1.0 / (2 * k - 1) as f64;
    }
    e as f64 * LN_2 + 2.0 * t * s
}

/// Deterministic `exp(x)` for `|x| <= 700`: argument reduction by powers of
/// two plus a Taylor tail on `|r| <= ln(2)/2`. IEEE-exact ops only.
pub fn det_exp(x: f64) -> f64 {
    assert!(
        x.is_finite() && x.abs() <= 700.0,
        "det_exp domain: |x| <= 700, got {x}"
    );
    let k = (x / LN_2 + 0.5).floor();
    let r = x - k * LN_2;
    // 16 Taylor terms: r^16/16! < 1e-17 at |r| <= 0.347.
    let mut term = 1.0;
    let mut sum = 1.0;
    for n in 1..=16 {
        term = term * r / n as f64;
        sum += term;
    }
    // Scale by 2^k via exponent arithmetic (k in [-1011, 1011] here).
    let ki = k as i64;
    let scale = if (-1022..=1023).contains(&ki) {
        f64::from_bits(((ki + 1023) as u64) << 52)
    } else if ki > 1023 {
        f64::INFINITY
    } else {
        0.0
    };
    sum * scale
}

/// Deterministic `base^(-s)` for `base >= 1`, `s >= 0` — the Zipf weight.
pub fn det_pow_neg(base: f64, s: f64) -> f64 {
    if s == 0.0 {
        return 1.0;
    }
    det_exp(-s * det_ln(base))
}

/// Zipf(s) sampler over `0..n` by inverse CDF (precomputed cumulative
/// weights + binary search). Rank 0 is the most popular.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` items with exponent `s_milli / 1000`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32, s_milli: u32) -> Self {
        assert!(n > 0, "zipf sampler needs at least one item");
        let s = s_milli as f64 / 1000.0;
        let mut cdf = Vec::with_capacity(n as usize);
        let mut cum = 0.0;
        for i in 0..n {
            cum += det_pow_neg((i + 1) as f64, s);
            cdf.push(cum);
        }
        ZipfSampler { cdf }
    }

    /// Maps a uniform `u in [0, 1)` to an item rank.
    pub fn sample(&self, u: f64) -> u32 {
        let target = u * self.cdf[self.cdf.len() - 1];
        let i = self.cdf.partition_point(|&c| c <= target);
        (i as u32).min(self.cdf.len() as u32 - 1)
    }
}

/// Traffic-model knobs. See `docs/FLEET.md` for the full schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Exact number of arrivals the model generates.
    pub target_requests: u64,
    /// Mean span of the arrival stream; sets the base rate
    /// `target_requests / duration`.
    pub duration: SimDuration,
    /// Diurnal burst amplitude in permille: the instantaneous rate swings
    /// between `base*(1 - a)` and `base*(1 + a)` with `a = permille/1000`.
    pub burst_amplitude_permille: u32,
    /// Period of the (triangular) diurnal envelope.
    pub burst_period: SimDuration,
    /// Zipf exponent x1000 for tenant popularity (1000 = classic Zipf).
    pub tenant_zipf_milli: u32,
    /// Zipf exponent x1000 for catalog-entry popularity.
    pub entry_zipf_milli: u32,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            target_requests: 20_000,
            duration: SimDuration::from_millis(2_000),
            burst_amplitude_permille: 600,
            burst_period: SimDuration::from_millis(500),
            tenant_zipf_milli: 1100,
            entry_zipf_milli: 900,
        }
    }
}

/// One reconfiguration request entering the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant, picoseconds since campaign start.
    pub at_ps: u64,
    /// Requesting tenant.
    pub tenant: u32,
    /// Requested catalog entry.
    pub entry: u32,
    /// Placement key (tenant x entry mixed) fed to the ring.
    pub key: u64,
}

/// Checkpoint encoding: `[at_ps, tenant, entry, key]`.
impl ToJson for Arrival {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.at_ps.to_json(),
            self.tenant.to_json(),
            self.entry.to_json(),
            self.key.to_json(),
        ])
    }
}

impl FromJson for Arrival {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([at_ps, tenant, entry, key]) => Ok(Arrival {
                at_ps: u64::from_json(at_ps)?,
                tenant: u32::from_json(tenant)?,
                entry: u32::from_json(entry)?,
                key: u64::from_json(key)?,
            }),
            _ => Err(JsonError {
                msg: "expected an arrival [at_ps, tenant, entry, key]".into(),
            }),
        }
    }
}

/// The seeded arrival generator: thinned exponential inter-arrivals (exact
/// Poisson at the envelope rate), Zipf draws for tenant and entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficModel {
    cfg: TrafficConfig,
    tenants: ZipfSampler,
    entries: ZipfSampler,
    rng: Xoshiro256StarStar,
    /// Current stream time in ps (f64 accumulation is exact to ~1 ps for
    /// campaigns up to hours of simulated time).
    t_ps: f64,
    generated: u64,
    /// Lookahead arrival that fell past the last epoch boundary.
    pending: Option<Arrival>,
}

impl TrafficModel {
    /// A model drawing from `seed` over `tenants x entries`.
    pub fn new(cfg: TrafficConfig, tenants: u32, entries: u32, seed: u64) -> Self {
        assert!(cfg.target_requests > 0, "traffic needs a positive target");
        assert!(
            cfg.duration.as_ps() > 0,
            "traffic needs a positive duration"
        );
        TrafficModel {
            tenants: ZipfSampler::new(tenants, cfg.tenant_zipf_milli),
            entries: ZipfSampler::new(entries, cfg.entry_zipf_milli),
            rng: Xoshiro256StarStar::seed_from_u64(seed ^ 0x5452_4146_4649_4331),
            cfg,
            t_ps: 0.0,
            generated: 0,
            pending: None,
        }
    }

    /// Triangular diurnal multiplier in `[1-a, 1+a]` at stream time `t_ps`.
    fn envelope(&self, t_ps: f64) -> f64 {
        let a = self.cfg.burst_amplitude_permille as f64 / 1000.0;
        if a == 0.0 {
            return 1.0;
        }
        let phase = t_ps / self.cfg.burst_period.as_ps() as f64;
        let frac = phase - phase.floor();
        let tri = if frac < 0.5 {
            4.0 * frac - 1.0
        } else {
            3.0 - 4.0 * frac
        };
        1.0 + a * tri
    }

    fn draw(&mut self) -> Option<Arrival> {
        if self.generated >= self.cfg.target_requests {
            return None;
        }
        let base_per_ps = self.cfg.target_requests as f64 / self.cfg.duration.as_ps() as f64;
        let a = self.cfg.burst_amplitude_permille as f64 / 1000.0;
        let peak = base_per_ps * (1.0 + a);
        loop {
            // Exponential inter-arrival at the peak rate...
            let u = self.rng.next_f64();
            self.t_ps += -det_ln(1.0 - u) / peak;
            // ...thinned against the envelope: an exact non-homogeneous
            // Poisson process at rate base*envelope(t).
            let accept = self.rng.next_f64() * (1.0 + a);
            if accept < self.envelope(self.t_ps) {
                break;
            }
        }
        self.generated += 1;
        let tenant = self.tenants.sample(self.rng.next_f64());
        let entry = self.entries.sample(self.rng.next_f64());
        Some(Arrival {
            at_ps: self.t_ps as u64,
            tenant,
            entry,
            key: mix64((u64::from(tenant) << 32) ^ u64::from(entry) ^ 0x004b_4559),
        })
    }

    /// Appends every arrival strictly before `end_ps` to `out`, in time
    /// order. Returns `false` once the stream is exhausted *and* no
    /// lookahead remains.
    pub fn fill_until(&mut self, end_ps: u64, out: &mut Vec<Arrival>) -> bool {
        if let Some(p) = self.pending {
            if p.at_ps >= end_ps {
                return true;
            }
            out.push(p);
            self.pending = None;
        }
        loop {
            match self.draw() {
                None => return false,
                Some(arr) if arr.at_ps >= end_ps => {
                    self.pending = Some(arr);
                    return true;
                }
                Some(arr) => out.push(arr),
            }
        }
    }

    /// True when every one of `target_requests` arrivals has been handed
    /// out (no pending lookahead either).
    pub fn exhausted(&self) -> bool {
        self.generated >= self.cfg.target_requests && self.pending.is_none()
    }

    /// Arrivals generated so far (including a pending lookahead).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The stream's dynamic state for a checkpoint: generator, clock (as
    /// `f64` bits), arrivals generated and the pending lookahead.
    pub fn snapshot_json(&self) -> Json {
        Json::Obj(vec![
            ("rng".into(), self.rng.to_json()),
            ("t_bits".into(), self.t_ps.to_bits().to_json()),
            ("generated".into(), self.generated.to_json()),
            ("pending".into(), self.pending.to_json()),
        ])
    }

    /// Restores [`TrafficModel::snapshot_json`] state onto a model built
    /// from the same config.
    pub fn restore_json(&mut self, v: &Json) -> Result<(), JsonError> {
        self.rng = v.field("rng")?;
        self.t_ps = f64::from_bits(v.field("t_bits")?);
        self.generated = v.field("generated")?;
        self.pending = v.field("pending")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_std() {
        let mut worst: f64 = 0.0;
        for i in 1..=2000 {
            let x = i as f64 * 0.37 + 1e-4;
            let rel = ((det_ln(x) - x.ln()) / x.ln().abs().max(1e-300)).abs();
            worst = worst.max(rel);
        }
        for x in [1e-300, 1e-12, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 1e18] {
            let d = det_ln(x);
            let s = x.ln();
            assert!(
                (d - s).abs() <= 1e-12 * s.abs().max(1.0),
                "ln({x}): {d} vs {s}"
            );
        }
        assert!(worst < 1e-12, "worst relative error {worst}");
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn det_exp_matches_std() {
        for i in -600..=600 {
            let x = i as f64 * 0.731;
            let d = det_exp(x);
            let s = x.exp();
            let rel = ((d - s) / s).abs();
            assert!(rel < 1e-12, "exp({x}): {d} vs {s} (rel {rel})");
        }
        assert_eq!(det_exp(0.0), 1.0);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ZipfSampler::new(100, 1000);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut counts = [0u64; 100];
        for _ in 0..20_000 {
            counts[z.sample(rng.next_f64()) as usize] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "rank 0 must dominate rank 50");
        assert!(counts.iter().sum::<u64>() == 20_000);
        // u -> 1 must stay in range.
        assert!(z.sample(1.0 - 1e-16) < 100);
    }

    #[test]
    fn traffic_is_count_exact_ordered_and_replayable() {
        let cfg = TrafficConfig {
            target_requests: 5000,
            duration: SimDuration::from_millis(50),
            ..TrafficConfig::default()
        };
        let mut m1 = TrafficModel::new(cfg.clone(), 50, 16, 42);
        let mut all = Vec::new();
        let epoch = SimDuration::from_millis(5).as_ps();
        let mut end = epoch;
        while m1.fill_until(end, &mut all) {
            end += epoch;
        }
        assert_eq!(all.len(), 5000, "count-exact");
        assert!(
            all.windows(2).all(|w| w[0].at_ps <= w[1].at_ps),
            "time-ordered"
        );
        assert!(all.iter().all(|a| a.tenant < 50 && a.entry < 16));
        // Same seed, different epoching: identical stream.
        let mut m2 = TrafficModel::new(cfg, 50, 16, 42);
        let mut all2 = Vec::new();
        m2.fill_until(u64::MAX, &mut all2);
        assert_eq!(all, all2);
        assert!(m1.exhausted() && m2.exhausted());
    }

    #[test]
    fn traffic_checkpoint_round_trip_is_exact() {
        let cfg = TrafficConfig {
            target_requests: 2000,
            duration: SimDuration::from_millis(20),
            ..TrafficConfig::default()
        };
        let mut whole = TrafficModel::new(cfg.clone(), 20, 8, 9);
        let mut expect = Vec::new();
        whole.fill_until(u64::MAX, &mut expect);

        let mut front = TrafficModel::new(cfg.clone(), 20, 8, 9);
        let mut got = Vec::new();
        front.fill_until(SimDuration::from_millis(7).as_ps(), &mut got);
        let mut back = TrafficModel::new(cfg, 20, 8, 9);
        back.restore_json(&front.snapshot_json()).unwrap();
        back.fill_until(u64::MAX, &mut got);
        assert_eq!(got, expect);
    }
}

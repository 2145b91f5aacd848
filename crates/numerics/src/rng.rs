//! Deterministic pseudo-random number generation.
//!
//! All stochastic processes in the workspace — weight initialization,
//! stochastic pulse trains, device noise, trace generation — draw from
//! [`Rng64`], a xoshiro256** generator seeded through SplitMix64. Two runs
//! with the same seed produce identical experiment output on every platform.

/// A deterministic xoshiro256** pseudo-random number generator.
///
/// xoshiro256** is a small, fast, high-quality generator (period 2^256 − 1)
/// suitable for simulation workloads. It is **not** cryptographically secure.
///
/// # Example
///
/// ```
/// use enw_numerics::rng::Rng64;
///
/// let mut a = Rng64::new(7);
/// let mut b = Rng64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng64 {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of state are expanded from the seed with SplitMix64,
    /// which guarantees a well-mixed, non-zero state for every seed
    /// (including zero).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng64 { state: [next_sm(), next_sm(), next_sm(), next_sm()], gauss_spare: None }
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → mantissa-exact uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range");
        lo + (hi - lo) * self.uniform()
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so results are exactly
    /// uniform.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
            // Rejected a biased sample; retry (vanishingly rare for small n).
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Integer form of [`bernoulli`](Rng64::bernoulli) for hot loops that
    /// draw many times against one probability: `threshold` comes from
    /// [`bernoulli_threshold`](Rng64::bernoulli_threshold)`(p)`, and the
    /// call consumes one draw and returns exactly what `bernoulli(p)`
    /// returns from the same state.
    ///
    /// The identity: `uniform()` is `k · 2^-53` with `k = next_u64() >> 11`,
    /// so `uniform() < p` is `k < p · 2^53` (scaling by a power of two is
    /// exact), and for an integer `k` that is `k < ceil(p · 2^53)`.
    #[inline]
    pub fn bernoulli_below(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }

    /// The threshold [`bernoulli_below`](Rng64::bernoulli_below) compares
    /// against: `ceil(p · 2^53)`. The saturating float-to-integer cast maps
    /// `p <= 0` and NaN to 0 (never true) and `p >= 1` to at least `2^53`
    /// (always true), matching `bernoulli` at every `p`.
    #[inline]
    pub fn bernoulli_threshold(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// Returns a standard normal (mean 0, variance 1) sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Box–Muller on two uniforms; u1 must be non-zero for ln().
        let mut u1 = self.uniform();
        while u1 <= f64::EPSILON {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Returns a normal sample with the given `mean` and `std`.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` without replacement.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        // Partial Fisher–Yates over an index vector.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Derives an independent child generator (for parallel sub-experiments).
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Captures the generator's full state for checkpointing. Restoring
    /// via [`Rng64::restore`] resumes the exact output stream, including
    /// a cached Box–Muller spare, so checkpoint/resume is bit-identical
    /// to an uninterrupted run.
    pub fn state(&self) -> RngState {
        RngState { words: self.state, gauss_spare_bits: self.gauss_spare.map(f64::to_bits) }
    }

    /// Rebuilds a generator from a captured [`RngState`].
    pub fn restore(state: RngState) -> Rng64 {
        Rng64 { state: state.words, gauss_spare: state.gauss_spare_bits.map(f64::from_bits) }
    }
}

/// A [`Rng64`] snapshot: the four xoshiro256** state words plus the
/// bit pattern of the cached Box–Muller spare (if one is pending).
/// The spare is carried as raw bits so a round trip through a
/// checkpoint file cannot perturb the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// xoshiro256** state words.
    pub words: [u64; 4],
    /// `f64::to_bits` of the pending Box–Muller spare, if any.
    pub gauss_spare_bits: Option<u64>,
}

/// Samples from a Zipf (power-law) distribution over `{0, 1, …, n−1}`.
///
/// Rank `r` (0-based) is drawn with probability proportional to
/// `1 / (r + 1)^alpha`. Recommendation-system item popularity is classically
/// Zipf-distributed, which is what makes small embedding caches effective
/// (paper Sec. V-B).
///
/// Sampling is by inverse transform over the precomputed CDF, `O(log n)` per
/// draw.
///
/// # Example
///
/// ```
/// use enw_numerics::rng::{Rng64, ZipfSampler};
///
/// let mut rng = Rng64::new(1);
/// let zipf = ZipfSampler::new(1000, 1.0);
/// let item = zipf.sample(&mut rng);
/// assert!(item < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha >= 0`.
    ///
    /// `alpha == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.uniform();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn pmf(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(123);
        let mut b = Rng64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::new(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng64::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(3);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(4);
        let s = rng.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng64::new(6);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn bernoulli_threshold_matches_bernoulli() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let edges = [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            ulp,
            2.0 * ulp,
            0.5,
            0.5 + ulp,
            0.5 - ulp,
            1.0 - ulp,
            1.0 - 1.0 / (1u64 << 24) as f64,
            1.0,
            1.0 + f64::EPSILON,
            f64::INFINITY,
        ];
        for p in edges {
            let t = Rng64::bernoulli_threshold(p);
            // The raw outputs either side of the threshold, plus 0 and the
            // largest 53-bit value, fed through both forms.
            for k in [0, 1, t.saturating_sub(1), t, t.saturating_add(1), (1u64 << 53) - 1] {
                let k = k.min((1u64 << 53) - 1);
                let u = k as f64 * ulp;
                assert_eq!(k < t, u < p, "p {p:e}, k {k}, threshold {t}");
            }
        }
        let mut probs = Rng64::new(12);
        let (mut a, mut b) = (Rng64::new(13), Rng64::new(13));
        for _ in 0..20_000 {
            // Probabilities as the pulse update forms them: f32 values
            // widened to f64, plus uniform f64s.
            let p = if probs.below(2) == 0 { probs.uniform_f32() as f64 } else { probs.uniform() };
            let t = Rng64::bernoulli_threshold(p);
            assert_eq!(a.bernoulli(p), b.bernoulli_below(t), "p {p:e}");
        }
        assert_eq!(a, b, "both forms consume one draw each");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = ZipfSampler::new(500, 0.9);
        let total: f64 = (0..500).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_head_heavier_than_tail() {
        let z = ZipfSampler::new(1000, 1.0);
        assert!(z.pmf(0) > z.pmf(999) * 100.0);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf_roughly() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = Rng64::new(8);
        let n = 100_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        let emp0 = counts[0] as f64 / n as f64;
        assert!((emp0 - z.pmf(0)).abs() < 0.01, "emp {emp0} vs {}", z.pmf(0));
    }

    #[test]
    fn state_round_trip_resumes_exact_stream() {
        let mut rng = Rng64::new(77);
        // Leave a Box–Muller spare pending so the snapshot must carry it.
        let _ = rng.normal();
        let snap = rng.state();
        let ahead: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let spare_ahead = rng.normal();
        let mut resumed = Rng64::restore(snap);
        let replay: Vec<u64> = (0..16).map(|_| resumed.next_u64()).collect();
        assert_eq!(replay, ahead);
        assert_eq!(resumed.normal().to_bits(), spare_ahead.to_bits());
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Rng64::new(42);
        let mut child = a.fork();
        // Parent and child must not produce identical next outputs.
        assert_ne!(a.next_u64(), child.next_u64());
    }
}

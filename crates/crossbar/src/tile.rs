//! The analog tile: a crossbar array plus its periphery, exposed through
//! the `enw-nn` [`LinearBackend`] trait so that whole networks train on
//! simulated hardware unmodified.
//!
//! A tile performs the three crossbar cycles of paper Fig. 1:
//!
//! * **Forward** — DAC-quantized inputs on the columns, currents summed per
//!   row, read noise added, ADC-quantized output.
//! * **Backward** — the transposed read, same periphery.
//! * **Update** — the parallel stochastic pulse scheme of \[14\]: rows and
//!   columns fire independent Bernoulli pulse trains of length `BL`;
//!   every coincidence steps the device at that crosspoint once. The
//!   expected step equals the SGD rank-1 update while touching each device
//!   `O(BL)` times independent of array size.

use crate::array::AnalogArray;
use crate::device::{DeviceSpec, PulseDir};
use crate::error::CrossbarError;
use crate::noise::AnalogNoise;
use enw_nn::backend::LinearBackend;
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::{Rng64, RngState};

/// Fixed row-chunk size for the parallel stochastic update; boundaries
/// depend only on the array shape, never the worker count.
const PAR_UPDATE_ROW_CHUNK: usize = 16;

/// How the rank-1 update is realized on the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateScheme {
    /// Stochastic pulse trains of length `bl` (the hardware scheme).
    StochasticPulse {
        /// Pulse-train length (paper uses BL ≈ 10–100; 31 is typical).
        bl: u32,
    },
    /// Analytic expectation of the pulse scheme: one state-dependent step
    /// evaluation per crosspoint. Faster, preserves bounded/asymmetric
    /// dynamics, drops pulse-level stochasticity. For sweeps.
    MeanField,
}

/// Event counts for one tile (inputs to energy/latency models and the
/// O(1)-scaling experiment E1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Forward crossbar reads.
    pub forward_ops: u64,
    /// Backward (transposed) crossbar reads.
    pub backward_ops: u64,
    /// Rank-1 update operations.
    pub update_ops: u64,
    /// Device programming pulses actually fired.
    pub pulses: u64,
}

/// Tile configuration: periphery plus update realization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileConfig {
    /// Converter/noise model.
    pub noise: AnalogNoise,
    /// Update realization.
    pub update: UpdateScheme,
    /// Probability of suppressing an individual update coincidence —
    /// hardware-aware "drop-connect" training \[33\]. 0 disables.
    pub drop_connect: f32,
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig {
            noise: AnalogNoise::standard(),
            update: UpdateScheme::StochasticPulse { bl: 31 },
            drop_connect: 0.0,
        }
    }
}

impl TileConfig {
    /// An ideal tile: no converters, no noise, stochastic pulses.
    pub fn ideal() -> Self {
        TileConfig { noise: AnalogNoise::ideal(), ..TileConfig::default() }
    }

    /// Starts building a configuration; constraints are checked once at
    /// [`TileConfigBuilder::build`].
    pub fn builder() -> TileConfigBuilder {
        TileConfigBuilder::default()
    }
}

/// Builder for [`TileConfig`]: set what differs from the defaults
/// (standard noise, stochastic pulses with `bl = 31`, no drop-connect)
/// and let [`build`](TileConfigBuilder::build) validate the whole
/// configuration at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileConfigBuilder {
    noise: Option<AnalogNoise>,
    update: Option<UpdateScheme>,
    drop_connect: f32,
}

impl TileConfigBuilder {
    /// Converter/noise model (default: [`AnalogNoise::standard`]).
    pub fn noise(mut self, noise: AnalogNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Update realization (default: stochastic pulses, `bl = 31`).
    pub fn update(mut self, update: UpdateScheme) -> Self {
        self.update = Some(update);
        self
    }

    /// Probability of suppressing an update coincidence (default 0).
    pub fn drop_connect(mut self, p: f32) -> Self {
        self.drop_connect = p;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<TileConfig, CrossbarError> {
        let defaults = TileConfig::default();
        let update = self.update.unwrap_or(defaults.update);
        if let UpdateScheme::StochasticPulse { bl } = update {
            if bl == 0 {
                return Err(CrossbarError::InvalidConfig {
                    reason: "pulse-train length bl must be at least 1",
                });
            }
        }
        if !(0.0..1.0).contains(&self.drop_connect) {
            return Err(CrossbarError::InvalidConfig { reason: "drop_connect must lie in [0, 1)" });
        }
        Ok(TileConfig {
            noise: self.noise.unwrap_or(defaults.noise),
            update,
            drop_connect: self.drop_connect,
        })
    }
}

/// An analog crossbar tile of shape `out_dim × (in_dim + 1)` (one bias
/// column), implementing [`LinearBackend`].
///
/// # Example
///
/// ```
/// use enw_crossbar::devices;
/// use enw_crossbar::tile::{AnalogTile, TileConfig};
/// use enw_nn::backend::LinearBackend;
/// use enw_numerics::rng::Rng64;
///
/// let mut rng = Rng64::new(0);
/// let mut tile = AnalogTile::new(8, 4, &devices::ideal(1000), TileConfig::ideal(), &mut rng);
/// let y = tile.forward(&[0.1, -0.2, 0.3, 0.4]);
/// assert_eq!(y.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct AnalogTile {
    array: AnalogArray,
    /// Zero-shift reference conductances (row-major), if calibrated.
    reference: Option<Vec<f32>>,
    cfg: TileConfig,
    in_dim: usize,
    /// Mean step size used to scale pulse probabilities.
    dw_avg: f32,
    rng: Rng64,
    stats: TileStats,
    /// Per-row RNG seeds for the parallel stochastic update, redrawn
    /// from the tile RNG on every update. Kept as a field so the
    /// steady-state training loop reuses its capacity instead of
    /// allocating per call; the contents are transient (fully rewritten
    /// before use) and excluded from checkpoints.
    row_seeds: Vec<u64>,
}

impl AnalogTile {
    /// Builds a tile over freshly materialized devices, weights at zero.
    pub fn new(
        out_dim: usize,
        in_dim: usize,
        spec: &DeviceSpec,
        cfg: TileConfig,
        rng: &mut Rng64,
    ) -> Self {
        let array = AnalogArray::new(out_dim, in_dim + 1, spec, rng);
        let dw_avg = 0.5 * (spec.base.dw_up + spec.base.dw_down);
        AnalogTile {
            array,
            reference: None,
            cfg,
            in_dim,
            dw_avg,
            rng: rng.fork(),
            stats: TileStats::default(),
            row_seeds: Vec::new(),
        }
    }

    /// Snapshot of the tile RNG for checkpointing. Together with the
    /// array's [`weights_raw`](AnalogArray::weights_raw) and
    /// [`pulse_count`](AnalogArray::pulse_count) this captures every
    /// bit of mutable tile state (the per-row update seeds are
    /// transient — redrawn from this RNG before each use).
    pub fn rng_state(&self) -> RngState {
        self.rng.state()
    }

    /// Restores the tile RNG from a checkpoint snapshot.
    pub fn restore_rng(&mut self, state: RngState) {
        self.rng = Rng64::restore(state);
    }

    /// Restores the event counters from a checkpoint snapshot.
    pub fn restore_stats(&mut self, stats: TileStats) {
        self.stats = stats;
    }

    /// Write-verify programs the tile's *effective* weights to `target`
    /// (shape `out_dim × (in_dim + 1)`), accounting for any zero-shift
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the shape mismatches.
    pub fn program_effective(&mut self, target: &Matrix) {
        let physical = match &self.reference {
            None => target.clone(),
            Some(r) => {
                let mut t = target.clone();
                for row in 0..t.rows() {
                    for col in 0..t.cols() {
                        let v = t.at(row, col) + r[row * t.cols() + col];
                        t.set(row, col, v);
                    }
                }
                t
            }
        };
        let mut rng = self.rng.fork();
        self.array.program(&physical, self.dw_avg * 0.6, 4000, &mut rng);
        let cells = (self.array.rows() * self.array.cols()) as u64;
        // Program reads the full target image and rewrites every device.
        enw_trace::record_span_io("crossbar/program", cells, 4 * cells, 4 * cells);
    }

    /// Zero-shift calibration \[30\]: drives every device to its symmetry
    /// point, then records that state as the reference. Effective weights
    /// are zero afterwards; the symmetry point becomes the logical zero,
    /// so asymmetric devices decay toward 0 instead of a biased value.
    pub fn calibrate_zero_shift(&mut self, pairs: u32) {
        let mut rng = self.rng.fork();
        self.array.converge_to_symmetry(pairs, &mut rng);
        self.reference = Some(self.array.read_matrix().as_slice().to_vec());
    }

    /// Returns `true` if a zero-shift reference is installed.
    pub fn is_zero_shifted(&self) -> bool {
        self.reference.is_some()
    }

    /// Event counters.
    pub fn stats(&self) -> TileStats {
        self.stats
    }

    /// The underlying array (for defect injection and inspection).
    pub fn array_mut(&mut self) -> &mut AnalogArray {
        &mut self.array
    }

    /// The underlying array, shared.
    pub fn array(&self) -> &AnalogArray {
        &self.array
    }

    /// Subtracts the zero-shift reference product `R · x` from `y`
    /// in place (no-op without a calibrated reference). The reference
    /// term for each row accumulates in ascending-column order, exactly
    /// as the pre-`_into` per-call-buffer code did, so results are
    /// bit-identical.
    // enw:hot
    fn sub_reference_matvec(&self, x: &[f32], y: &mut [f32]) {
        if let Some(r) = &self.reference {
            let cols = self.array.cols();
            for (row, out) in y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (c, xi) in x.iter().enumerate() {
                    acc += r[row * cols + c] * xi;
                }
                *out -= acc;
            }
        }
    }

    /// Transposed counterpart of
    /// [`sub_reference_matvec`](AnalogTile::sub_reference_matvec):
    /// subtracts `Rᵀ · d` from `y` in place, walking rows in ascending
    /// order like the serial reference read.
    // enw:hot
    fn sub_reference_matvec_t(&self, d: &[f32], y: &mut [f32]) {
        if let Some(r) = &self.reference {
            let cols = self.array.cols();
            let mut refp = enw_parallel::scratch::take_f32(cols);
            for (row, di) in d.iter().enumerate() {
                for (c, out) in refp.iter_mut().enumerate() {
                    *out += r[row * cols + c] * di;
                }
            }
            for (out, rp) in y.iter_mut().zip(refp.iter()) {
                *out -= rp;
            }
        }
    }

    /// Checks out a scratch buffer holding the bias-augmented input
    /// `[x; bias_drive]`, hoisting the old per-call `Vec` off the hot
    /// path. Monolithic use drives the bias line at 1.0; sub-tiles of a
    /// [`TiledAnalogLayer`](crate::tiled::TiledAnalogLayer) that do not
    /// own the logical bias drive it at 0.0, which silences their bias
    /// column in every cycle (zero forward contribution, zero pulse
    /// probability, no RNG draws).
    fn augmented_scratch(&self, x: &[f32], bias_drive: f32) -> enw_parallel::scratch::ScratchF32 {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        let mut xa = enw_parallel::scratch::take_f32(self.in_dim + 1);
        xa[..self.in_dim].copy_from_slice(x);
        xa[self.in_dim] = bias_drive;
        xa
    }

    /// Compacts the lines with a non-zero pulse probability
    /// `min(amp·|v|, 1)` into `idx` (ascending line index) and `thr`
    /// (their [`Rng64::bernoulli_threshold`]); returns how many there are.
    /// Inactive lines never fire and draw nothing, so the train loop
    /// skips them.
    fn active_lines(values: &[f32], amp: f32, idx: &mut [usize], thr: &mut [u64]) -> usize {
        let mut n = 0;
        for (i, v) in values.iter().enumerate() {
            let p = (amp * v.abs()).min(1.0);
            if p > 0.0 {
                idx[n] = i;
                thr[n] = Rng64::bernoulli_threshold(p as f64);
                n += 1;
            }
        }
        n
    }

    fn update_stochastic(&mut self, delta: &[f32], xa: &[f32], lr: f32, bl: u32) {
        // Choose pulse probabilities so the expected coincidence count
        // yields the SGD step: E[Δw_ij] = −lr·d_i·x_j. All staging
        // buffers come from the scratch pools (and the row-seed vector
        // reuses its retained capacity), so a steady-state training step
        // performs no heap allocation here.
        let amp = (lr / (bl as f32 * self.dw_avg)).sqrt();
        let (rows, cols) = (delta.len(), xa.len());
        let mut row_idx = enw_parallel::scratch::take_usize(rows);
        let mut row_thr = enw_parallel::scratch::take_bits(rows);
        let n_rows = Self::active_lines(delta, amp, &mut row_idx, &mut row_thr);
        let mut col_idx = enw_parallel::scratch::take_usize(cols);
        let mut col_thr = enw_parallel::scratch::take_bits(cols);
        let n_cols = Self::active_lines(xa, amp, &mut col_idx, &mut col_thr);
        let active_rows = row_idx[..n_rows].iter().zip(&row_thr[..n_rows]);
        let active_cols = col_idx[..n_cols].iter().zip(&col_thr[..n_cols]);
        // Phase 1 (serial): draw the row/column pulse trains for every
        // bit-line step with the tile RNG, exactly as the hardware fires
        // them — active rows then active columns per step. Row firings
        // land in a row-major bitset (`words` limbs of step bits per
        // row); column firings are index lists flattened into one
        // scratch buffer (`col_fired[s*n_cols..]`, `col_count[s]` live),
        // and `live` marks the steps on which any column fired.
        let bl = bl as usize;
        let words = bl.div_ceil(64);
        let mut row_steps = enw_parallel::scratch::take_bits(rows * words);
        let mut live = enw_parallel::scratch::take_bits(words);
        let mut col_fired = enw_parallel::scratch::take_usize(bl * n_cols);
        let mut col_count = enw_parallel::scratch::take_usize(bl);
        let mut rng = self.rng.clone();
        let mut any_row = 0u64;
        for s in 0..bl {
            let (word, bit) = (s / 64, s % 64);
            for (&i, &t) in active_rows.clone() {
                let hit = u64::from(rng.bernoulli_below(t));
                row_steps[i * words + word] |= hit << bit;
                any_row |= hit;
            }
            let step_cols = &mut col_fired[s * n_cols..(s + 1) * n_cols];
            let mut fired = 0;
            for (&j, &t) in active_cols.clone() {
                // Written unconditionally, kept only on a hit.
                step_cols[fired] = j;
                fired += usize::from(rng.bernoulli_below(t));
            }
            col_count[s] = fired;
            live[word] |= u64::from(fired > 0) << bit;
        }
        // One seed per row, drawn serially in row order whether or not
        // the row fires: the row's pulse stream is `Rng64::new(seed)`.
        self.row_seeds.clear();
        self.row_seeds.extend((0..rows).map(|_| rng.next_u64()));
        self.rng = rng;
        if any_row == 0 || live.iter().all(|&w| w == 0) {
            return;
        }
        // Phase 2 (parallel over rows): every coincidence on row i only
        // touches devices in row i, so rows are independent given their
        // own RNG stream, and the result is identical for any worker
        // count — and identical to running the loop serially. A row's
        // stream is built only if it has a coincidence.
        let seeds = &self.row_seeds;
        let (row_steps, live) = (&*row_steps, &*live);
        let (col_fired, col_count) = (&*col_fired, &*col_count);
        let dropping = self.cfg.drop_connect > 0.0;
        let drop_t = Rng64::bernoulli_threshold(self.cfg.drop_connect as f64);
        let pulses = self.array.par_pulse_by_row(PAR_UPDATE_ROW_CHUNK, |r, pulser| {
            let steps = &row_steps[r * words..(r + 1) * words];
            if steps.iter().zip(live).all(|(&a, &l)| a & l == 0) {
                return 0;
            }
            let mut rng = Rng64::new(seeds[r]);
            let di = delta[r];
            let mut fired = 0u64;
            for (word, (&a, &l)) in steps.iter().zip(live).enumerate() {
                let mut hits = a & l;
                while hits != 0 {
                    let s = word * 64 + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    for &j in &col_fired[s * n_cols..s * n_cols + col_count[s]] {
                        if dropping && rng.bernoulli_below(drop_t) {
                            continue;
                        }
                        // Δw should be −lr·d·x: step up when d·x < 0.
                        let dir = if di * xa[j] < 0.0 { PulseDir::Up } else { PulseDir::Down };
                        pulser.pulse(j, dir, &mut rng);
                        fired += 1;
                    }
                }
            }
            fired
        });
        self.stats.pulses += pulses;
    }

    fn update_mean_field(&mut self, delta: &[f32], xa: &[f32], lr: f32) {
        for (i, &d) in delta.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            for (j, &x) in xa.iter().enumerate() {
                let target = -lr * d * x;
                if target == 0.0 {
                    continue;
                }
                let dir = if target > 0.0 { PulseDir::Up } else { PulseDir::Down };
                let n = target.abs() / self.dw_avg;
                // One state-dependent step evaluation scaled by the pulse
                // count; write noise scales with √n as for n i.i.d. pulses.
                let dev = *self.array.device(i, j);
                let mean = dev.expected_step(self.array.weight(i, j), dir) * n;
                let noise = if dev.write_noise > 0.0 && dev.responsive {
                    (dev.write_noise as f64
                        * self.dw_avg as f64
                        * (n as f64).sqrt()
                        * self.rng.normal()) as f32
                } else {
                    0.0
                };
                let w = self.array.weight(i, j);
                self.array.set_weight(i, j, w + mean + noise);
                self.stats.pulses += n.ceil() as u64;
            }
        }
    }
}

impl AnalogTile {
    /// [`forward_into`](LinearBackend::forward_into) with an explicit
    /// bias-line drive. The public trait method drives the bias at 1.0;
    /// [`TiledAnalogLayer`](crate::tiled::TiledAnalogLayer) drives it at
    /// 0.0 on every sub-tile except the ones owning the logical bias, so
    /// partial sums across column blocks add exactly one bias term per
    /// output row. With `bias_drive == 1.0` this is the identical code
    /// (and RNG) path as the monolithic forward.
    // enw:hot
    pub fn forward_biased_into(&mut self, x: &[f32], bias_drive: f32, out: &mut [f32]) {
        let mut xa = self.augmented_scratch(x, bias_drive);
        self.cfg.noise.apply_input(&mut xa);
        // Bit-identical to the serial read; parallel only above the
        // array-size threshold (see AnalogArray::par_matvec_into).
        self.array.par_matvec_into(&xa, self.cfg.noise.ir_drop, out);
        self.sub_reference_matvec(&xa, out);
        self.cfg.noise.apply_output(out, &mut self.rng);
        self.stats.forward_ops += 1;
        let (rows, cols) = (self.array.rows() as u64, self.array.cols() as u64);
        enw_trace::record_span_io("crossbar/mvm", rows * cols, 4 * (rows * cols + cols), 4 * rows);
    }

    /// [`update`](LinearBackend::update) with an explicit bias-line
    /// drive (see [`forward_biased_into`](AnalogTile::forward_biased_into)).
    /// A 0.0 drive gives the bias column zero pulse probability, so it
    /// fires no pulses and consumes no RNG draws.
    pub fn update_biased(&mut self, delta: &[f32], x: &[f32], bias_drive: f32, lr: f32) {
        assert_eq!(delta.len(), self.array.rows(), "gradient dimension mismatch");
        let xa = self.augmented_scratch(x, bias_drive);
        let pulses_before = self.stats.pulses;
        match self.cfg.update {
            UpdateScheme::StochasticPulse { bl } => self.update_stochastic(delta, &xa, lr, bl),
            UpdateScheme::MeanField => self.update_mean_field(delta, &xa, lr),
        }
        self.stats.update_ops += 1;
        enw_trace::record_span("crossbar/update", self.stats.pulses - pulses_before);
    }
}

impl LinearBackend for AnalogTile {
    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.array.rows()
    }

    // enw:hot
    fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        self.forward_biased_into(x, 1.0, out);
    }

    // enw:hot
    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]) {
        assert_eq!(delta.len(), self.array.rows(), "gradient dimension mismatch");
        assert_eq!(out.len(), self.in_dim, "gradient output dimension mismatch");
        // The periphery applies output noise to the full column read —
        // bias column included — before truncation, so the RNG stream
        // (and therefore every later draw) matches the allocating path.
        let mut y = enw_parallel::scratch::take_f32(self.array.cols());
        self.array.par_matvec_t_into(delta, self.cfg.noise.ir_drop, &mut y);
        self.sub_reference_matvec_t(delta, &mut y);
        self.cfg.noise.apply_output(&mut y, &mut self.rng);
        out.copy_from_slice(&y[..self.in_dim]);
        self.stats.backward_ops += 1;
        let (rows, cols) = (self.array.rows() as u64, self.array.cols() as u64);
        enw_trace::record_span_io(
            "crossbar/mvm_t",
            rows * cols,
            4 * (rows * cols + rows),
            4 * cols,
        );
    }

    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32) {
        self.update_biased(delta, x, 1.0, lr);
    }

    fn weights(&self) -> Matrix {
        let physical = self.array.read_matrix();
        match &self.reference {
            None => physical,
            Some(r) => {
                let mut m = physical;
                let cols = m.cols();
                for row in 0..m.rows() {
                    for col in 0..cols {
                        let v = m.at(row, col) - r[row * cols + col];
                        m.set(row, col, v);
                    }
                }
                m
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;

    fn ideal_tile(out: usize, inp: usize, seed: u64) -> AnalogTile {
        let mut rng = Rng64::new(seed);
        AnalogTile::new(out, inp, &devices::ideal(2000), TileConfig::ideal(), &mut rng)
    }

    #[test]
    fn forward_of_zero_weights_is_zero() {
        let mut t = ideal_tile(3, 2, 1);
        assert_eq!(t.forward(&[0.5, -0.5]), vec![0.0; 3]);
    }

    #[test]
    fn programmed_tile_matches_digital_forward() {
        let mut t = ideal_tile(2, 2, 2);
        let target = Matrix::from_rows(&[&[0.3, -0.2, 0.1], &[0.0, 0.5, -0.4]]);
        t.program_effective(&target);
        let y = t.forward(&[1.0, 1.0]);
        let expect = [0.3 - 0.2 + 0.1, 0.5 - 0.4];
        for (a, e) in y.iter().zip(expect) {
            assert!((a - e).abs() < 0.01, "{a} vs {e}");
        }
    }

    #[test]
    fn backward_is_transpose() {
        let mut t = ideal_tile(2, 3, 3);
        let target = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.0], &[-0.1, 0.0, 0.4, 0.0]]);
        t.program_effective(&target);
        let dx = t.backward(&[1.0, 1.0]);
        assert_eq!(dx.len(), 3);
        assert!((dx[0] - 0.0).abs() < 0.02);
        assert!((dx[2] - 0.7).abs() < 0.02);
    }

    #[test]
    fn stochastic_update_moves_weights_in_expectation() {
        let mut t = ideal_tile(1, 1, 4);
        // Repeat the same update many times; mean movement should approach
        // −lr·d·x per update.
        let lr = 0.001;
        let n = 400;
        for _ in 0..n {
            t.update(&[1.0], &[1.0], lr);
        }
        let w = t.weights().at(0, 0);
        let expect = -(lr * n as f32);
        assert!((w - expect).abs() < 0.2 * expect.abs(), "w {w} vs expected {expect}");
    }

    #[test]
    fn update_sign_convention_descends() {
        // Positive delta and positive x must *decrease* the weight
        // (gradient descent), matching DigitalLinear.
        let mut t = ideal_tile(1, 1, 5);
        for _ in 0..50 {
            t.update(&[1.0], &[1.0], 0.05);
        }
        assert!(t.weights().at(0, 0) < -0.01);
    }

    #[test]
    fn mean_field_matches_stochastic_direction() {
        let mut rng = Rng64::new(6);
        let cfg = TileConfig { update: UpdateScheme::MeanField, ..TileConfig::ideal() };
        let mut t = AnalogTile::new(1, 1, &devices::ideal(2000), cfg, &mut rng);
        for _ in 0..50 {
            t.update(&[-1.0], &[1.0], 0.05);
        }
        assert!(t.weights().at(0, 0) > 0.01);
    }

    #[test]
    fn zero_shift_reference_zeroes_effective_weights() {
        let mut rng = Rng64::new(7);
        let mut t = AnalogTile::new(4, 3, &devices::rram(), TileConfig::ideal(), &mut rng);
        t.calibrate_zero_shift(800);
        assert!(t.is_zero_shifted());
        let w = t.weights();
        for r in 0..4 {
            for c in 0..4 {
                assert!(w.at(r, c).abs() < 0.05, "effective weight {} at ({r},{c})", w.at(r, c));
            }
        }
        // Forward of the zero-shifted tile is ~0 for any input.
        let y = t.forward(&[1.0, 1.0, 1.0]);
        assert!(y.iter().all(|v| v.abs() < 0.2), "{y:?}");
    }

    #[test]
    fn stats_count_cycles() {
        let mut t = ideal_tile(2, 2, 8);
        t.forward(&[0.0, 0.0]);
        t.backward(&[0.0, 0.0]);
        t.update(&[1.0, 0.5], &[1.0, 1.0], 0.01);
        let s = t.stats();
        assert_eq!(s.forward_ops, 1);
        assert_eq!(s.backward_ops, 1);
        assert_eq!(s.update_ops, 1);
    }

    #[test]
    fn bias_column_participates_in_forward() {
        let mut t = ideal_tile(1, 1, 9);
        let target = Matrix::from_rows(&[&[0.0, 0.5]]); // zero weight, 0.5 bias
        t.program_effective(&target);
        let y = t.forward(&[0.0]);
        assert!((y[0] - 0.5).abs() < 0.01);
    }

    #[test]
    fn stochastic_update_is_thread_count_invariant() {
        // Noisy devices + drop-connect exercise every RNG consumer in the
        // update; per-row seeded streams must make the final weights and
        // pulse counts bitwise independent of the worker count.
        let make = || {
            let mut rng = Rng64::new(21);
            let cfg = TileConfig { drop_connect: 0.3, ..TileConfig::ideal() };
            AnalogTile::new(40, 24, &devices::rram(), cfg, &mut rng)
        };
        let d: Vec<f32> = (0..40).map(|i| ((i % 5) as f32 - 2.0) / 8.0).collect();
        let x: Vec<f32> = (0..24).map(|i| ((i % 7) as f32 - 3.0) / 8.0).collect();
        let run = |threads: usize| {
            enw_parallel::with_threads(threads, || {
                let mut t = make();
                for _ in 0..5 {
                    t.update(&d, &x, 0.02);
                }
                (t.weights(), t.stats().pulses)
            })
        };
        let (w1, p1) = run(1);
        assert!(p1 > 0, "update should fire pulses");
        for threads in [3usize, 8] {
            let (w, p) = run(threads);
            assert_eq!(p, p1, "pulse count changed at {threads} threads");
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&w1), "weights changed at {threads} threads");
        }
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = TileConfig::builder().build().expect("defaults are valid");
        assert_eq!(built, TileConfig::default());
        let ideal = TileConfig::builder().noise(AnalogNoise::ideal()).build().expect("valid");
        assert_eq!(ideal, TileConfig::ideal());
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let err = TileConfig::builder().drop_connect(1.5).build();
        assert!(matches!(err, Err(CrossbarError::InvalidConfig { .. })), "{err:?}");
        let err = TileConfig::builder().update(UpdateScheme::StochasticPulse { bl: 0 }).build();
        assert!(matches!(err, Err(CrossbarError::InvalidConfig { .. })), "{err:?}");
    }

    #[test]
    fn drop_connect_reduces_pulse_count() {
        let mut rng = Rng64::new(10);
        let spec = devices::ideal(2000);
        let mut plain = AnalogTile::new(8, 8, &spec, TileConfig::ideal(), &mut rng);
        let cfg_dc = TileConfig { drop_connect: 0.8, ..TileConfig::ideal() };
        let mut dropped = AnalogTile::new(8, 8, &spec, cfg_dc, &mut rng);
        let d = vec![1.0f32; 8];
        let x = vec![1.0f32; 8];
        for _ in 0..20 {
            plain.update(&d, &x, 0.05);
            dropped.update(&d, &x, 0.05);
        }
        assert!(dropped.stats().pulses < plain.stats().pulses / 2);
    }
}

//! `analog_train`: steady-state streaming training of E21's deep tiled
//! stack through `AnalogPipeline::step`.
//!
//! One long-lived network, nearly all host time in crossbar forward,
//! backward and pulse-update cycles plus nn's im2col. An op is one step;
//! a work item is one training sample. Steps run in episodes restored
//! from a post-warm-up checkpoint, so every episode repeats the same
//! losses bit for bit and each step is checked against a single-worker
//! reference episode.

use crate::metrics::{ratio, Outcome};
use crate::runner::{end_to_end, run_for, time_setup, timed, traced_share, Baseline, OpLog};
use crate::stats::Digest;
use crate::workloads::{sub_seed, Ctx};
use enw_crossbar::devices;
use enw_crossbar::pipeline::{AnalogPipeline, PipelineConfig};
use enw_crossbar::tile::{TileConfig, TileStats};
use enw_crossbar::tiled::{TiledAnalogLayer, TilingConfig};
use enw_crossbar::CrossbarError;
use enw_nn::backend::LinearBackend;
use enw_nn::conv::{ConvNet, ConvNetConfig, MapShape};
use enw_nn::data::{Dataset, SyntheticImages};
use enw_nn::snapshot::{SnapshotError, StateReader, StateWriter};
use enw_numerics::matrix::Matrix;
use enw_numerics::rng::Rng64;
use std::time::Instant;

/// E21's deep stack: 28×28 input, four conv stages, embedding, head —
/// six trainable layers on twelve 16×24 ECRAM tiles, built from E21's
/// seed.
const SIDE: usize = 28;
const CONV_CHANNELS: [usize; 4] = [4, 6, 6, 8];
const EMBED: usize = 24;
const CLASSES: usize = 4;
const TRAIN_PER_CLASS: usize = 30;
const LR: f32 = 0.005;
const TILING: TilingConfig = TilingConfig { tile_rows: 16, tile_cols: 24 };
const NET_SEED: u64 = 21;
pub const LAYERS: usize = 6;
pub const TILES: usize = 12;

/// Training sets drawn from the run's seed, one pipeline each. Step cost
/// depends on the data (pulse counts, ReLU sparsity); the network is
/// E21's for every run, and averaging over several data sets keeps the
/// seed-to-seed spread near the host's own.
const DATASETS: usize = 4;
/// Steps before the checkpoint every episode restores.
const WARMUP: usize = 16;
/// Steps per episode.
const EPISODE: usize = 100;
/// Ops per cycle: one episode on each data set.
const CYCLE: usize = DATASETS * EPISODE;

pub fn config() -> PipelineConfig {
    PipelineConfig {
        net: ConvNetConfig {
            input: MapShape { channels: 1, height: SIDE, width: SIDE },
            conv_channels: CONV_CHANNELS.to_vec(),
            embed_dim: EMBED,
            classes: CLASSES,
        },
        spec: devices::ecram(),
        tile: TileConfig::default(),
        tiling: TILING,
        lr: LR,
        seed: NET_SEED,
    }
}

pub fn dataset(seed: u64) -> Dataset {
    let mut rng = Rng64::new(seed);
    SyntheticImages::builder()
        .classes(CLASSES)
        .dim(SIDE * SIDE)
        .train_per_class(TRAIN_PER_CLASS)
        .test_per_class(1)
        .noise(0.3)
        .build(&mut rng)
        .train
}

/// One data set with its pipeline and post-warm-up checkpoint.
struct Stream {
    data: Dataset,
    pipeline: AnalogPipeline,
    checkpoint: Vec<u8>,
}

/// Load generation, tile write-verify programming, warm-up, checkpoint —
/// for every data set.
fn setup(seed: u64) -> Result<Vec<Stream>, CrossbarError> {
    (0..DATASETS as u64)
        .map(|j| {
            let data = dataset(sub_seed(seed, j));
            let mut pipeline = AnalogPipeline::new(&config(), &data)?;
            pipeline.run(&data, WARMUP);
            let checkpoint = pipeline.checkpoint();
            Ok(Stream { data, pipeline, checkpoint })
        })
        .collect()
}

/// Per-step loss bits and final tile counters of one episode.
#[derive(Debug, PartialEq)]
struct Episode {
    losses: Vec<u32>,
    stats: TileStats,
}

impl Episode {
    fn record(s: &mut Stream) -> Result<Episode, SnapshotError> {
        s.pipeline.restore(&s.checkpoint)?;
        let losses = (0..EPISODE).map(|_| s.pipeline.step(&s.data).to_bits()).collect();
        Ok(Episode { losses, stats: s.pipeline.stats() })
    }

    fn fold(&self, d: &mut Digest) {
        for &l in &self.losses {
            d.u64(u64::from(l));
        }
        let s = self.stats;
        d.u64(s.forward_ops).u64(s.backward_ops).u64(s.update_ops).u64(s.pulses);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, built) = time_setup(|| setup(ctx.seed));
    let mut streams = match built {
        Ok(s) => s,
        Err(e) => {
            out.lines.push(format!("error: analog_train setup failed: {e}"));
            return out;
        }
    };
    let net = streams[0].pipeline.net_mut();
    let layers = net.layer_count();
    let tiles: usize = net.backends().map(TiledAnalogLayer::tile_count).sum();

    // Single-worker reference episodes.
    let reference =
        enw_parallel::with_threads(1, || streams.iter_mut().map(Episode::record).collect());
    let reference: Vec<Episode> = match reference {
        Ok(r) => r,
        Err(e) => {
            out.lines.push(format!("error: checkpoint restore failed: {e}"));
            return out;
        }
    };
    let mut digest = Digest::default();
    for (s, r) in streams.iter().zip(&reference) {
        r.fold(&mut digest);
        out.lines.push(format!(
            "sim.episode loss_first={} loss_last={} pulses={} samples_per_virtual_s={:.1}",
            f32::from_bits(r.losses[0]),
            f32::from_bits(r.losses[EPISODE - 1]),
            r.stats.pulses,
            s.pipeline.throughput()
        ));
    }
    out.lines
        .push(format!("sim.layers = {layers} sim.tiles = {tiles} sim.episode_steps = {EPISODE}"));
    out.lines.push(format!("sim.digest = {:016x}", digest.value()));

    let mut restored = true;
    let mut op = |k: usize, log: &mut OpLog| {
        let (j, i) = ((k / EPISODE) % DATASETS, k % EPISODE);
        let Stream { data, pipeline, checkpoint } = &mut streams[j];
        if i == 0 {
            restored = pipeline.restore(checkpoint).is_ok();
        }
        let (loss, secs) = timed(|| pipeline.step(data));
        let mut ok = restored && loss.to_bits() == reference[j].losses[i];
        if i == EPISODE - 1 {
            ok &= pipeline.stats() == reference[j].stats;
        }
        log.push(secs, 1, ok);
    };

    let log = if ctx.trace {
        let base = Baseline::measure(&mut out.values, ctx.seconds, CYCLE, &mut op);
        let data: Vec<&Dataset> = streams.iter().map(|s| &s.data).collect();
        let traced = traced_segment(ctx, &data, &reference, &mut out);
        base.finish(&mut out.values, &traced)
    } else {
        let log = run_for(ctx.seconds, CYCLE, &mut op);
        end_to_end(&mut out, &log, setup_s);
        log
    };
    out.lines.push(format!("ops.steps = {}", log.attempted()));
    out.attempted = log.attempted();
    out.failed = log.failed;
    out.checks_ok = layers == LAYERS && tiles == TILES;
    out
}

/// A `LinearBackend` that times the three crossbar cycles of the layer it
/// wraps and otherwise forwards every call unchanged.
#[derive(Debug)]
pub struct Timed {
    pub inner: TiledAnalogLayer,
    forward_ns: u64,
    backward_ns: u64,
    update_ns: u64,
    forward_calls: u64,
}

impl Timed {
    pub fn new(inner: TiledAnalogLayer) -> Timed {
        Timed { inner, forward_ns: 0, backward_ns: 0, update_ns: 0, forward_calls: 0 }
    }

    fn reset(&mut self) {
        (self.forward_ns, self.backward_ns, self.update_ns, self.forward_calls) = (0, 0, 0, 0);
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl LinearBackend for Timed {
    fn in_dim(&self) -> usize {
        self.inner.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.inner.out_dim()
    }

    fn forward_into(&mut self, x: &[f32], out: &mut [f32]) {
        let t = Instant::now();
        self.inner.forward_into(x, out);
        self.forward_ns += elapsed_ns(t);
        self.forward_calls += 1;
    }

    fn backward_into(&mut self, delta: &[f32], out: &mut [f32]) {
        let t = Instant::now();
        self.inner.backward_into(delta, out);
        self.backward_ns += elapsed_ns(t);
    }

    fn update(&mut self, delta: &[f32], x: &[f32], lr: f32) {
        let t = Instant::now();
        self.inner.update(delta, x, lr);
        self.update_ns += elapsed_ns(t);
    }

    fn weights(&self) -> Matrix {
        self.inner.weights()
    }
}

/// The pipeline's network rebuilt with timed backends: the same
/// constructor calls in the same order on the same RNG stream as
/// `AnalogPipeline::new`, which then draws the epoch shuffle. Returns the
/// network and the samples the pipeline's first `steps` steps train on.
pub fn timed_net(
    cfg: &PipelineConfig,
    samples: usize,
    steps: usize,
) -> Result<(ConvNet<Timed>, Vec<usize>), CrossbarError> {
    let mut rng = Rng64::new(cfg.seed);
    let (spec, tile, tiling) = (&cfg.spec, cfg.tile, cfg.tiling);
    let net = ConvNet::try_with_backends(&cfg.net, &mut rng, |in_dim, out_dim, rng| {
        TiledAnalogLayer::new(out_dim, in_dim, spec, tile, tiling, rng).map(Timed::new)
    })?;
    Ok((net, sample_order(&mut rng, samples, steps)))
}

/// The samples `AnalogPipeline::step` trains on, in order: a shuffled
/// epoch, reshuffled in place at every epoch boundary.
fn sample_order(rng: &mut Rng64, samples: usize, steps: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..samples).collect();
    rng.shuffle(&mut order);
    let mut seq = Vec::with_capacity(steps);
    let mut cursor = 0;
    for _ in 0..steps {
        seq.push(order[cursor]);
        cursor += 1;
        if cursor == samples {
            rng.shuffle(&mut order);
            cursor = 0;
        }
    }
    seq
}

fn save_layers(net: &ConvNet<Timed>) -> Vec<u8> {
    let mut w = StateWriter::new();
    for layer in net.backends() {
        layer.inner.save_state(&mut w);
    }
    w.into_bytes()
}

fn restore_layers(net: &mut ConvNet<Timed>, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = StateReader::new(bytes);
    for layer in net.backends_mut() {
        layer.inner.restore_state(&mut r)?;
    }
    r.finish()
}

/// The timed network warmed up on each data set, as layer snapshots.
fn warm_states(
    net: &mut ConvNet<Timed>,
    seq: &[usize],
    data: &[&Dataset],
) -> Result<Vec<Vec<u8>>, SnapshotError> {
    let initial = save_layers(net);
    data.iter()
        .map(|d| {
            restore_layers(net, &initial)?;
            for &i in &seq[..WARMUP] {
                net.train_step(d.input(i), d.label(i), LR);
            }
            Ok(save_layers(net))
        })
        .collect()
}

/// Traced episodes on the timed network, checked against the same
/// reference losses; records the crossbar and nn layer metrics.
fn traced_segment(ctx: &Ctx, data: &[&Dataset], reference: &[Episode], out: &mut Outcome) -> OpLog {
    let built = timed_net(&config(), data[0].len(), WARMUP + EPISODE)
        .map_err(|e| e.to_string())
        .and_then(|(mut net, seq)| {
            warm_states(&mut net, &seq, data).map(|w| (net, seq, w)).map_err(|e| e.to_string())
        });
    let (mut net, seq, warm) = match built {
        Ok(b) => b,
        Err(e) => {
            out.lines.push(format!("error: timed network failed to build: {e}"));
            return OpLog { secs: vec![0.0], failed: 1, ..OpLog::default() };
        }
    };
    for layer in net.backends_mut() {
        layer.reset();
    }
    enw_trace::reset();
    enw_trace::set_mode(enw_trace::TraceMode::Summary);
    let mut restored = true;
    let log = run_for(traced_share(ctx.seconds), CYCLE, |k, log| {
        let (j, i) = ((k / EPISODE) % DATASETS, k % EPISODE);
        if i == 0 {
            restored = restore_layers(&mut net, &warm[j]).is_ok();
        }
        let (d, sample) = (data[j], seq[WARMUP + i]);
        let (loss, secs) = timed(|| net.train_step(d.input(sample), d.label(sample), LR));
        log.push(secs, 1, restored && loss.to_bits() == reference[j].losses[i]);
    });
    let report = enw_trace::take_report();
    enw_trace::set_mode(enw_trace::TraceMode::Off);

    let steps = log.attempted() as f64;
    let per_step = |ns: u64| ns as f64 / 1e9 / steps;
    let (mut fwd, mut bwd, mut upd, mut flops, mut bytes) = (0, 0, 0, 0u64, 0u64);
    for l in net.backends() {
        fwd += l.forward_ns;
        bwd += l.backward_ns;
        upd += l.update_ns;
        let (o, i) = (l.out_dim() as u64, l.in_dim() as u64);
        flops += l.forward_calls * 2 * o * (i + 1);
        bytes += l.forward_calls * 4 * (o * (i + 1) + i + o);
    }
    let span_work = |name: &str| report.spans.iter().find(|s| s.name == name).map_or(0, |s| s.work);
    let v = &mut out.values;
    let step_s = log.busy_s() / steps;
    v.set("nn.train_step.s", step_s);
    v.set("crossbar.forward.s", per_step(fwd));
    v.set("crossbar.backward.s", per_step(bwd));
    v.set("crossbar.update.s", per_step(upd));
    v.set("nn.self.s", step_s - per_step(fwd + bwd + upd));
    v.set("crossbar.update.pulses", span_work("crossbar/update") as f64 / steps);
    v.set("crossbar.reduce.partials", span_work("crossbar/tiled/reduce") as f64 / steps);
    let gflops = ratio(flops as f64, fwd as f64);
    let roof = ctx.host.roofline_gflops(ratio(flops as f64, bytes as f64), ctx.host.threads);
    v.set("crossbar.forward.pct_roofline", 100.0 * ratio(gflops, roof));
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_network_reproduces_the_pipeline_loss_sequence() {
        let steps = 12;
        let data = dataset(5);
        let mut pipeline = AnalogPipeline::new(&config(), &data).expect("valid config");
        let expected: Vec<u32> = (0..steps).map(|_| pipeline.step(&data).to_bits()).collect();
        let (mut net, seq) = timed_net(&config(), data.len(), steps).expect("valid config");
        assert_eq!(net.layer_count(), LAYERS);
        assert_eq!(net.backends().map(|l| l.inner.tile_count()).sum::<usize>(), TILES);
        let got: Vec<u32> = seq
            .iter()
            .map(|&i| net.train_step(data.input(i), data.label(i), LR).to_bits())
            .collect();
        assert_eq!(got, expected);
        assert!(net.backends().all(|l| l.forward_calls > 0 && l.forward_ns > 0));
    }

    #[test]
    fn sample_order_reshuffles_at_each_epoch_boundary() {
        let mut rng = Rng64::new(3);
        let seq = sample_order(&mut rng, 5, 12);
        let mut first: Vec<usize> = seq[..5].to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
        let mut second: Vec<usize> = seq[5..10].to_vec();
        second.sort_unstable();
        assert_eq!(second, vec![0, 1, 2, 3, 4]);
    }
}

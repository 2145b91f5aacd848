//! Host fingerprint and roofline probe.
//!
//! Every result is read against the machine that produced it: CPU model,
//! core count, the SIMD features the CPU offers and the ones the build
//! targets, plus two measured ceilings — single-core STREAM-triad memory
//! bandwidth and single-core FMA throughput. Per-layer rates
//! (`crossbar.forward.pct_roofline`, `numerics.matvec.gflops`,
//! `fleet.shard.gather_gbps`) are meaningful only next to these.

use std::hint::black_box;
use std::time::Instant;

/// What the benchmark knows about the machine it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    pub cores: usize,
    pub threads: usize,
    /// Runtime-detected CPU features (`avx2`, `avx512f`, `fma`).
    pub cpu_features: Vec<&'static str>,
    /// Target features the binary was compiled for.
    pub build_features: Vec<&'static str>,
    /// Single-core STREAM triad, GB/s (24 bytes per element).
    pub stream_triad_gbps: f64,
    /// Single-core fused multiply-add peak, GFLOP/s (2 flops per FMA).
    pub fma_gflops: f64,
}

impl Host {
    /// Fingerprints the host; the roofline fields stay 0 until
    /// [`Host::measure_roofline`].
    pub fn fingerprint() -> Host {
        Host {
            cpu_model: cpu_model(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: enw_parallel::max_threads(),
            cpu_features: cpu_features(),
            build_features: build_features(),
            stream_triad_gbps: 0.0,
            fma_gflops: 0.0,
        }
    }

    /// Runs both roofline probes (about 0.2 s, 48 MiB of STREAM arrays —
    /// so an untraced run probes after reading its peak RSS).
    pub fn measure_roofline(&mut self) {
        self.stream_triad_gbps = stream_triad_gbps();
        self.fma_gflops = fma_gflops();
    }

    /// Attainable GFLOP/s at arithmetic intensity `flops_per_byte` on
    /// `threads` cores: the lower of the compute and bandwidth roofs.
    /// Bandwidth is the single-core triad figure; it is not scaled.
    pub fn roofline_gflops(&self, flops_per_byte: f64, threads: usize) -> f64 {
        (self.fma_gflops * threads as f64).min(flops_per_byte * self.stream_triad_gbps)
    }

    /// The fingerprint as `host.*` lines for the run log.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("host.cpu_model = {}", self.cpu_model),
            format!("host.cores = {}", self.cores),
            format!("host.threads = {}", self.threads),
            format!("host.cpu_features = {}", self.cpu_features.join(",")),
            format!("host.build_features = {}", self.build_features.join(",")),
            format!("host.stream_triad_gbps = {:.2} GB/s", self.stream_triad_gbps),
            format!("host.fma_gflops = {:.2} GFLOP/s", self.fma_gflops),
        ]
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if is_x86_feature_detected!("avx2") {
        f.push("avx2");
    }
    if is_x86_feature_detected!("avx512f") {
        f.push("avx512f");
    }
    if is_x86_feature_detected!("fma") {
        f.push("fma");
    }
    f
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> Vec<&'static str> {
    Vec::new()
}

fn build_features() -> Vec<&'static str> {
    let all = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    all.iter().filter(|(_, on)| *on).map(|(n, _)| *n).collect()
}

/// Elements per STREAM array: 3 × 16 MiB, well past a server L2 and
/// most of an L3 slice, small enough for a shared host.
const STREAM_LEN: usize = 2 << 20;

fn stream_triad_gbps() -> f64 {
    let b = vec![1.0f64; STREAM_LEN];
    let c = vec![2.0f64; STREAM_LEN];
    let mut a = vec![0.0f64; STREAM_LEN];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..6 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (24 * STREAM_LEN) as f64 / best / 1e9
}

/// FMA iterations per probe pass (each does 8 independent 8-wide FMAs).
const FMA_ITERS: usize = 4 << 20;

fn fma_gflops() -> f64 {
    let mut best = f64::INFINITY;
    let mut flops = 0.0;
    for _ in 0..3 {
        let t = Instant::now();
        flops = fma_kernel(FMA_ITERS);
        best = best.min(t.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Runs the peak-FMA loop and returns the flops it performed.
#[cfg(target_arch = "x86_64")]
fn fma_kernel(iters: usize) -> f64 {
    if is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma") {
        // SAFETY: both target features the function enables were just
        // detected on this CPU.
        let sink = unsafe { fma_avx(iters) };
        black_box(sink);
        return (iters * 8 * 8 * 2) as f64;
    }
    scalar_fma(iters)
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_kernel(iters: usize) -> f64 {
    scalar_fma(iters)
}

/// Eight independent 8-wide FMA chains: enough in flight to cover the
/// FMA latency on two ports.
///
/// # Safety
///
/// The caller must have checked that the CPU supports `avx` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn fma_avx(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let m = _mm256_set1_ps(black_box(0.999_999));
    let c = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); 8];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_ps(*a, m, c);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for a in acc {
        sum = _mm256_add_ps(sum, a);
    }
    let mut out = [0.0f32; 8];
    _mm256_storeu_ps(out.as_mut_ptr(), sum);
    out.iter().sum()
}

/// Portable fallback: independent multiply-add chains the compiler can
/// vectorise for the build target.
fn scalar_fma(iters: usize) -> f64 {
    let m = black_box(0.999_999f32);
    let c = black_box(1e-7f32);
    let mut acc = [1.0f32; 32];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * m + c;
        }
    }
    black_box(acc);
    (iters * 32 * 2) as f64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

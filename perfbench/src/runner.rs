//! The measurement loop every workload shares.
//!
//! All load is generated before the loop. Inside it only the library
//! call of each op is timed; rebuilding consumed state and computing the
//! digest happen between ops, outside the timed region.

use crate::metrics::{ratio, Outcome, Values};
use crate::stats::{median, percentile, quartiles, relative_spread};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Allocations made inside timed calls while counting is on.
    static OP_ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Percentile of an op's repeated times taken as its typical time.
pub const TYPICAL_PERCENTILE: f64 = 5.0;

/// Per-op record of one measured segment.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Host seconds of each op's timed call.
    pub secs: Vec<f64>,
    /// Work items the ops completed (samples, requests, evaluations).
    pub items: u64,
    /// Ops whose call errored or whose digest missed the reference.
    pub failed: u64,
    /// Ops per cycle of the workload's inputs (see [`run_for`]).
    pub cycle: usize,
}

impl OpLog {
    /// Records one op.
    pub fn push(&mut self, secs: f64, items: u64, ok: bool) {
        self.secs.push(secs);
        self.items += items;
        self.failed += u64::from(!ok);
    }

    pub fn attempted(&self) -> u64 {
        self.secs.len() as u64
    }

    /// Host seconds in timed calls.
    pub fn busy_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Host seconds per work item.
    pub fn secs_per_item(&self) -> f64 {
        ratio(self.busy_s(), self.items as f64)
    }

    /// Typical host seconds of each op of the cycle: the
    /// [`TYPICAL_PERCENTILE`] of that op's repeats. Every repeat of an op
    /// does the same work (its digest checks it), so the spread between
    /// repeats is the host's — other tenants of a shared machine slowing
    /// some of them — and a low percentile keeps the op's own cost with
    /// most of that left out.
    pub fn typical_op_secs(&self) -> Vec<f64> {
        let cycle = self.cycle.max(1);
        (0..cycle)
            .map(|k| {
                let repeats: Vec<f64> = self.secs.iter().skip(k).step_by(cycle).copied().collect();
                percentile(&repeats, TYPICAL_PERCENTILE)
            })
            .collect()
    }

    /// Work items per host second of a typical cycle: items per cycle over
    /// the sum of the cycle's typical op times.
    pub fn typical_rate(&self) -> f64 {
        let cycles = self.secs.len() / self.cycle.max(1);
        let items_per_cycle = ratio(self.items as f64, cycles as f64);
        ratio(items_per_cycle, self.typical_op_secs().iter().sum())
    }

    /// Folds another segment's ops into this one.
    pub fn absorb(&mut self, other: &OpLog) {
        self.secs.extend_from_slice(&other.secs);
        self.items += other.items;
        self.failed += other.failed;
    }
}

/// Runs ops until `seconds` of wall time have passed and the op count is
/// a multiple of `cycle`, so every run covers whole cycles of a mixed
/// input set. `op(k, log)` runs op `k` and records it.
pub fn run_for(seconds: f64, cycle: usize, mut op: impl FnMut(usize, &mut OpLog)) -> OpLog {
    let mut log = OpLog { cycle, ..OpLog::default() };
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || k % cycle != 0 || start.elapsed().as_secs_f64() < seconds {
        op(k, &mut log);
        k += 1;
    }
    log
}

/// Times `f` once and returns its result with the elapsed host seconds.
/// Inside [`count_op_allocs`] it also counts `f`'s allocations.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = match OP_ALLOCS.get() {
        None => f(),
        Some(n) => {
            let (out, allocs) = crate::alloc::count_during(f);
            OP_ALLOCS.set(Some(n + allocs));
            out
        }
    };
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f`, counting the allocations of the timed calls inside it.
fn count_op_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    OP_ALLOCS.set(Some(0));
    let out = f();
    (out, OP_ALLOCS.take().unwrap_or(0))
}

/// Set-up first runs untimed for this long: the first set-ups of a
/// process are slower while the allocator's free lists and the caches
/// fill.
const SETUP_WARMUP_SECS: f64 = 0.5;
/// Set-up is then timed at least this often and for at least this long,
/// so a cheap set-up is timed over enough repetitions, and over enough
/// of a shared host's slow and fast stretches, for a steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 1.5;

/// Median host seconds of one run of the workload's set-up, over repeated
/// runs after a warm-up, plus the last set-up's product.
pub fn time_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < SETUP_WARMUP_SECS {
        f();
    }
    let mut secs = Vec::new();
    let start = Instant::now();
    loop {
        let (v, s) = timed(&mut f);
        secs.push(s);
        if secs.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_SECS {
            return (median(&secs), v);
        }
    }
}

/// End-to-end metrics of an untraced segment, plus the op-time median,
/// quartiles, their spread and the op-time tail for the run log. Op times
/// are logged, not metrics: an op's size follows the seed (a search's
/// length, a trace's) and its tail follows other tenants of a shared host
/// more than the program.
pub fn end_to_end(out: &mut Outcome, log: &OpLog, setup_s: f64) {
    let values = &mut out.values;
    values.set("items_per_s", log.typical_rate());
    values.set("setup_s", setup_s);
    values.set("peak_rss_mb", crate::host::peak_rss_mb());
    if let (Some((q1, q3)), Some(spread)) = (quartiles(&log.secs), relative_spread(&log.secs)) {
        out.lines.push(format!(
            "ops.op_ms_p50 = {} ops.op_ms_q1 = {} ops.op_ms_q3 = {} ops.op_spread = {spread:.4} ops.op_ms_p90 = {}",
            1e3 * median(&log.secs),
            1e3 * q1,
            1e3 * q3,
            1e3 * percentile(&log.secs, 90.0)
        ));
    }
}

/// Untraced reference segments of a traced run.
#[derive(Debug)]
pub struct Baseline {
    /// Segment at the default worker count (tracing off).
    log: OpLog,
    /// Segment pinned to one worker, then one cycle with allocations
    /// counted.
    rest: OpLog,
}

/// Share of a traced run's time spent in each untraced segment; the rest
/// is traced.
const BASELINE_SHARE: f64 = 0.3;
const SERIAL_SHARE: f64 = 0.2;

impl Baseline {
    /// Runs `op` untraced at the default worker count, then at one
    /// worker, then one cycle counting allocations, and records the
    /// parallel speed-up and allocations per op.
    pub fn measure(
        values: &mut Values,
        seconds: f64,
        cycle: usize,
        mut op: impl FnMut(usize, &mut OpLog),
    ) -> Baseline {
        enw_trace::set_mode(enw_trace::TraceMode::Off);
        let log = run_for(BASELINE_SHARE * seconds, cycle, &mut op);
        let mut rest =
            enw_parallel::with_threads(1, || run_for(SERIAL_SHARE * seconds, cycle, &mut op));
        values.set("parallel.speedup_2t", ratio(rest.secs_per_item(), log.secs_per_item()));
        let (counted, allocs) = count_op_allocs(|| run_for(0.0, cycle, &mut op));
        values.set("parallel.allocs_per_op", ratio(allocs as f64, counted.attempted() as f64));
        rest.absorb(&counted);
        Baseline { log, rest }
    }

    /// Records `trace.overhead_frac` for a traced segment and folds every
    /// segment's ops into one log.
    pub fn finish(self, values: &mut Values, traced: &OpLog) -> OpLog {
        values.set(
            "trace.overhead_frac",
            ratio(traced.secs_per_item(), self.log.secs_per_item()) - 1.0,
        );
        let mut all = self.log;
        all.absorb(&self.rest);
        all.absorb(traced);
        all
    }
}

/// Seconds left for the traced segment of a traced run.
pub fn traced_share(seconds: f64) -> f64 {
    (1.0 - BASELINE_SHARE - SERIAL_SHARE) * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_end_on_whole_cycles() {
        let log = run_for(0.0, 3, |_, log| log.push(0.001, 2, true));
        assert_eq!((log.attempted(), log.items, log.cycle), (3, 6, 3));
    }

    #[test]
    fn typical_times_leave_out_slow_repeats() {
        let mut log = OpLog { cycle: 2, ..OpLog::default() };
        // Op 0 takes 1 s and op 1 takes 3 s, except in one slow cycle;
        // 20 items per cycle.
        for s in [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 5.0, 9.0, 1.0, 3.0] {
            log.push(s, 10, true);
        }
        // The slow cycle is one of five, above the typical percentile.
        assert_eq!(log.typical_op_secs(), vec![1.0, 3.0]);
        assert_eq!(log.typical_rate(), 5.0);
        assert_eq!(log.secs_per_item(), 30.0 / 100.0);
    }

    #[test]
    fn setup_is_repeated_and_its_median_reported() {
        let mut calls = 0;
        let (secs, last) = time_setup(|| {
            calls += 1;
            calls
        });
        assert!(calls >= SETUP_MIN_REPS && secs >= 0.0);
        assert_eq!(last, calls);
    }
}

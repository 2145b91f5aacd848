//! `codesign_search`: `enw_dse::explore` over all five co-design lanes,
//! repeated across several search seeds.
//!
//! The opposite of `analog_train`: thousands of short-lived configs are
//! built and scored, so config construction, the lanes' cost models
//! (X-MANN's among them) and the parallel `eval_batch` fan-out dominate.
//! The only workload that touches `dse` and `xmann`. An op is one
//! `explore`; a work item is one candidate evaluation. One pass over the
//! five lanes is only about a quarter of a second, so a run repeats a
//! fixed cycle of (seed, lane) searches many times and ends on a cycle
//! boundary, so every search of the cycle is repeated equally often and
//! has a typical time of its own.

use crate::metrics::{ratio, Outcome, DSE_EVAL};
use crate::runner::{end_to_end, run_for, time_setup, timed, traced_share, Baseline, OpLog};
use crate::stats::Digest;
use crate::workloads::{sub_seed, Ctx};
use enw_dse::{explore, Lane, Objectives, SearchConfig, SearchResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Search seeds per cycle; each is explored on every lane.
const SEARCH_SEEDS: usize = 4;

/// One op: a lane and the search configuration to explore it with.
struct Search {
    lane: Lane,
    space: enw_core::ParamSpace,
    cfg: SearchConfig,
}

struct Load {
    searches: Vec<Search>,
    /// Each lane's hand-picked default, scored — the baseline its front
    /// is judged against.
    defaults: Vec<Option<Objectives>>,
}

fn setup(seed: u64) -> Load {
    let lanes = Lane::all();
    let searches = (0..SEARCH_SEEDS)
        .flat_map(|j| {
            let cfg = SearchConfig { seed: sub_seed(seed, j as u64), ..SearchConfig::default() };
            lanes.into_iter().map(move |lane| Search { lane, space: lane.space(), cfg })
        })
        .collect();
    let defaults = lanes.iter().map(|l| l.evaluate(&l.default_point())).collect();
    Load { searches, defaults }
}

fn digest(r: &SearchResult) -> u64 {
    let mut d = Digest::default();
    for c in &r.front {
        let o = c.objectives;
        d.bytes(c.point.key().as_bytes())
            .f64(o.latency_ns)
            .f64(o.energy_pj)
            .f64(o.quality_per_area);
    }
    d.u64(r.evaluated as u64).u64(r.feasible as u64).value()
}

fn lane_index(lane: Lane) -> usize {
    Lane::all().iter().position(|l| *l == lane).unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, load) = time_setup(|| setup(ctx.seed));

    // Single-worker reference results, one per search of the cycle.
    let reference: Vec<SearchResult> = enw_parallel::with_threads(1, || {
        load.searches.iter().map(|s| explore(&s.space, &|p| s.lane.evaluate(p), &s.cfg)).collect()
    });
    let ref_digests: Vec<u64> = reference.iter().map(digest).collect();
    for (lane, default) in Lane::all().iter().zip(&load.defaults) {
        let runs: Vec<&SearchResult> = load
            .searches
            .iter()
            .zip(&reference)
            .filter(|(s, _)| s.lane == *lane)
            .map(|(_, r)| r)
            .collect();
        let dominated = default.is_some_and(|d| {
            runs.iter().all(|r| r.front.iter().any(|c| c.objectives.dominates(&d)))
        });
        out.lines.push(format!(
            "sim.{} evaluated={} feasible={} front={} default_dominated={}",
            lane.name(),
            runs.iter().map(|r| r.evaluated).sum::<usize>(),
            runs.iter().map(|r| r.feasible).sum::<usize>(),
            runs.iter().map(|r| r.front.len()).sum::<usize>(),
            dominated
        ));
    }
    let mut all = Digest::default();
    for d in &ref_digests {
        all.u64(*d);
    }
    out.lines.push(format!("sim.digest = {:016x}", all.value()));

    let cycle = load.searches.len();
    let mut op = |k: usize, log: &mut OpLog| {
        let s = &load.searches[k % cycle];
        let (r, secs) = timed(|| explore(&s.space, &|p| s.lane.evaluate(p), &s.cfg));
        log.push(secs, r.evaluated as u64, digest(&r) == ref_digests[k % cycle]);
    };

    let log = if ctx.trace {
        let base = Baseline::measure(&mut out.values, ctx.seconds, cycle, &mut op);
        let traced = traced_segment(ctx, &load, &ref_digests, &mut out);
        base.finish(&mut out.values, &traced)
    } else {
        let log = run_for(ctx.seconds, cycle, &mut op);
        end_to_end(&mut out, &log, setup_s);
        log
    };
    out.lines.push(format!("ops.explores = {}", log.attempted()));
    out.attempted = log.attempted();
    out.failed = log.failed;
    out.checks_ok = load.defaults.iter().all(Option::is_some);
    out
}

/// Searches with every `Lane::evaluate` timed inside the `eval` closure
/// handed to `explore`, checked against the same reference digests;
/// records the dse layer metrics.
fn traced_segment(ctx: &Ctx, load: &Load, ref_digests: &[u64], out: &mut Outcome) -> OpLog {
    let eval_ns: [AtomicU64; 5] = Default::default();
    let evals: [AtomicU64; 5] = Default::default();
    let (mut evaluated, mut feasible) = (0u64, 0u64);
    let cycle = load.searches.len();
    enw_trace::reset();
    enw_trace::set_mode(enw_trace::TraceMode::Summary);
    let log = run_for(traced_share(ctx.seconds), cycle, |k, log| {
        let s = &load.searches[k % cycle];
        let li = lane_index(s.lane);
        let eval = |p: &enw_core::Point| {
            let t = Instant::now();
            let o = s.lane.evaluate(p);
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // Statistics only: nothing else is published through them.
            eval_ns[li].fetch_add(ns, Ordering::Relaxed);
            evals[li].fetch_add(1, Ordering::Relaxed);
            o
        };
        let (r, secs) = timed(|| explore(&s.space, &eval, &s.cfg));
        evaluated += r.evaluated as u64;
        feasible += r.feasible as u64;
        log.push(secs, r.evaluated as u64, digest(&r) == ref_digests[k % cycle]);
    });
    enw_trace::reset();
    enw_trace::set_mode(enw_trace::TraceMode::Off);

    let ops = log.attempted() as f64;
    let v = &mut out.values;
    let mut total_eval_ns = 0;
    for (i, name) in DSE_EVAL.iter().enumerate() {
        let ns = eval_ns[i].load(Ordering::Relaxed);
        total_eval_ns += ns;
        v.set(name, ratio(ns as f64, evals[i].load(Ordering::Relaxed) as f64));
    }
    // Evaluations run on every worker; their summed time divided by the
    // worker count approximates the wall time they occupied.
    let eval_wall_s = total_eval_ns as f64 / 1e9 / ctx.host.threads as f64;
    v.set("dse.search.self.s", (log.busy_s() - eval_wall_s) / ops);
    v.set("dse.feasible_ratio", ratio(feasible as f64, evaluated as f64));
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_metric_names_follow_lane_order() {
        for (lane, name) in Lane::all().iter().zip(DSE_EVAL) {
            assert_eq!(name, format!("dse.eval.{}.ns_per_eval", lane.name()));
            assert_eq!(DSE_EVAL[lane_index(*lane)], name);
        }
    }

    #[test]
    fn a_cycle_searches_every_lane_under_each_seed() {
        let load = setup(9);
        assert_eq!(load.searches.len(), SEARCH_SEEDS * Lane::all().len());
        let seeds: std::collections::BTreeSet<u64> =
            load.searches.iter().map(|s| s.cfg.seed).collect();
        assert_eq!(seeds.len(), SEARCH_SEEDS);
        assert!(load.defaults.iter().all(Option::is_some));
    }
}

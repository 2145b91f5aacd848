//! `fleet_flash`: the sharded multi-node fleet (`Fleet::try_run` on
//! `fleet::presets::fleet_spec` at 8 nodes / 16 shards) under E19's
//! flash crowd over a hot user set.
//!
//! Exercises the fleet event loop, bounded-load ring routing and sharded
//! embedding gathers; autoscaler scale events trigger shard-rebalance
//! copies beside the gather reads. No crossbar or TCAM work. An op is one
//! `try_run` over a pre-generated trace; a work item is one simulated
//! request. The fleet is built before each op (`Fleet::try_new`, not
//! timed), so the op times only the simulation.

use crate::metrics::{ratio, Outcome};
use crate::runner::{end_to_end, run_for, time_setup, timed, traced_share, Baseline, OpLog};
use crate::stats::Digest;
use crate::workloads::{sub_seed, Ctx};
use enw_fleet::presets::{fleet_spec, trace, FleetScale, Scenario};
use enw_fleet::{Fleet, FleetError, FleetReport, FleetRequest, FleetSpec, HashRing, ShardedStore};

const SCALE: FleetScale = FleetScale { nodes: 8, shards: 16 };
/// Virtual horizon: the flash crowd runs from 20 to 30 ms.
const HORIZON_NS: u64 = 40_000_000;
/// Lane index of the sharded recsys lane in `fleet_spec`.
const SHARDED_LANE: usize = 1;
/// Users per replayed gather batch (the recsys lane's `max_batch`).
const REPLAY_BATCH: usize = 16;
/// Ring-replay load window and the per-node cap within it (25% above an
/// even share), so the bounded-load spill path runs.
const PICK_WINDOW: usize = 256;

struct Load {
    spec: FleetSpec,
    trace: Vec<FleetRequest>,
}

/// The fleet spec, the trace and one built fleet.
fn setup(seed: u64) -> Result<Load, FleetError> {
    let spec = fleet_spec(SCALE);
    let trace = trace(Scenario::FlashHotSet, SCALE, HORIZON_NS, sub_seed(seed, 0));
    Fleet::try_new(spec.clone())?;
    Ok(Load { spec, trace })
}

fn digest(report: &FleetReport) -> u64 {
    Digest::of_str(&report.render())
}

fn simulate(load: &Load) -> Result<(FleetReport, f64), FleetError> {
    let fleet = Fleet::try_new(load.spec.clone())?;
    let (report, secs) = timed(|| fleet.try_run(&load.trace));
    Ok((report?, secs))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, built) = time_setup(|| setup(ctx.seed));
    let load = match built {
        Ok(l) => l,
        Err(e) => {
            out.lines.push(format!("error: fleet_flash setup failed: {e}"));
            return out;
        }
    };
    let reference = match enw_parallel::with_threads(1, || simulate(&load)) {
        Ok((r, _)) => r,
        Err(e) => {
            out.lines.push(format!("error: reference run failed: {e}"));
            return out;
        }
    };
    let ref_digest = digest(&reference);
    out.lines.push(format!("sim.requests = {}", load.trace.len()));
    out.lines.extend(reference.render().lines().map(|l| format!("sim.{}", l.trim())));
    out.lines.push(format!("sim.digest = {ref_digest:016x}"));

    let mut op = |_k: usize, log: &mut OpLog| match simulate(&load) {
        Ok((report, secs)) => {
            log.push(secs, load.trace.len() as u64, digest(&report) == ref_digest)
        }
        Err(_) => log.push(0.0, 0, false),
    };

    let (log, replays_ok) = if ctx.trace {
        let base = Baseline::measure(&mut out.values, ctx.seconds, 1, &mut op);
        let (traced, replays_ok) = traced_segment(ctx, &load, ref_digest, &mut out);
        if let Some(sh) = reference.shard {
            let miss = ratio(sh.cache_misses as f64, (sh.cache_hits + sh.cache_misses) as f64);
            out.values.set("fleet.cache_miss_ratio", miss);
        }
        (base.finish(&mut out.values, &traced), replays_ok)
    } else {
        let log = run_for(ctx.seconds, 1, &mut op);
        end_to_end(&mut out, &log, setup_s);
        (log, true)
    };
    out.lines.push(format!("ops.try_runs = {}", log.attempted()));
    out.attempted = log.attempted();
    out.failed = log.failed;
    let arrived: u64 = reference.lanes.iter().map(|l| l.metrics.arrived).sum();
    out.checks_ok = replays_ok && arrived == load.trace.len() as u64;
    out
}

/// Replays every request's user key through `HashRing::pick_bounded`
/// with windowed per-node load; returns (picks, digest of the picks).
fn replay_ring(load: &Load) -> (u64, u64) {
    let nodes = SCALE.nodes;
    let ring = HashRing::with_nodes(64, nodes as u32);
    let cap = PICK_WINDOW / nodes * 5 / 4;
    let mut loads = vec![0usize; nodes];
    let mut d = Digest::default();
    for (i, r) in load.trace.iter().enumerate() {
        if i % PICK_WINDOW == 0 {
            loads.fill(0);
        }
        let pick = ring.pick_bounded(r.user, cap, |n| loads[n as usize]);
        if let Some(n) = pick {
            loads[n as usize] += 1;
        }
        d.u64(pick.map_or(u64::MAX, u64::from));
    }
    (load.trace.len() as u64, d.value())
}

/// A store placed on the initial replica set, as `Fleet::try_new` builds
/// it.
fn fresh_store(load: &Load) -> Option<ShardedStore> {
    let mut store = ShardedStore::new(load.spec.store.clone()?, load.spec.seed);
    let nodes: Vec<u32> = (0..SCALE.nodes as u32).collect();
    store.rebalance(&nodes);
    Some(store)
}

/// Replays the sharded lane's users through `ShardedStore::pool_batch`
/// in `REPLAY_BATCH`-user batches; returns (batches, digest).
fn replay_shard(store: &mut ShardedStore, users: &[u64]) -> (u64, u64) {
    let mut d = Digest::default();
    let mut batches = 0;
    for batch in users.chunks(REPLAY_BATCH) {
        d.u64(store.pool_batch(batch).checksum);
        batches += 1;
    }
    (batches, d.value())
}

/// Traced simulations checked against the reference digest, each
/// followed by the ring and shard replays; records the fleet layer
/// metrics. Replay figures are replay cost, outside the simulation.
/// Also returns whether every replay repeated its first result.
fn traced_segment(ctx: &Ctx, load: &Load, ref_digest: u64, out: &mut Outcome) -> (OpLog, bool) {
    let users: Vec<u64> =
        load.trace.iter().filter(|r| r.lane == SHARDED_LANE).map(|r| r.user).collect();
    let ring_ref = replay_ring(load).1;
    let shard_ref = enw_parallel::with_threads(1, || {
        fresh_store(load).map(|mut s| replay_shard(&mut s, &users).1)
    });
    let (mut rebalanced, mut scale_events) = (0u64, 0u64);
    let (mut picks, mut pick_s, mut batches, mut batch_s, mut gather_bytes) =
        (0u64, 0.0, 0u64, 0.0, 0u64);
    let mut replays_ok = shard_ref.is_some();
    enw_trace::reset();
    enw_trace::set_mode(enw_trace::TraceMode::Summary);
    let log = run_for(traced_share(ctx.seconds), 1, |_k, log| {
        match simulate(load) {
            Ok((report, secs)) => {
                log.push(secs, load.trace.len() as u64, digest(&report) == ref_digest)
            }
            Err(_) => log.push(0.0, 0, false),
        }
        let sim = enw_trace::take_report();
        let counter =
            |name: &str| sim.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
        rebalanced += counter("fleet.rebalanced_bytes");
        scale_events += counter("fleet.scale_ups") + counter("fleet.scale_downs");

        let ((n, d), secs) = timed(|| replay_ring(load));
        picks += n;
        pick_s += secs;
        replays_ok &= d == ring_ref;
        if let Some(mut store) = fresh_store(load) {
            enw_trace::reset();
            let ((n, d), secs) = timed(|| replay_shard(&mut store, &users));
            let replay = enw_trace::take_report();
            batches += n;
            batch_s += secs;
            replays_ok &= Some(d) == shard_ref;
            gather_bytes += replay
                .spans
                .iter()
                .find(|s| s.name == "fleet/pool_batch")
                .map_or(0, |s| s.bytes_moved());
        }
    });
    enw_trace::set_mode(enw_trace::TraceMode::Off);

    let ops = log.attempted() as f64;
    let v = &mut out.values;
    v.set("fleet.sim.s", log.busy_s() / ops);
    v.set("fleet.rebalanced_bytes", rebalanced as f64 / ops);
    v.set("fleet.scale_events", scale_events as f64 / ops);
    v.set("fleet.ring.ns_per_pick", 1e9 * ratio(pick_s, picks as f64));
    v.set("fleet.shard.ns_per_batch", 1e9 * ratio(batch_s, batches as f64));
    v.set("fleet.shard.gather_gbps", ratio(gather_bytes as f64, batch_s) / 1e9);
    (log, replays_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flash_crowd_trace_is_seeded_and_reaches_both_lanes() {
        let a = setup(4).expect("valid preset");
        let b = setup(4).expect("valid preset");
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, setup(5).expect("valid preset").trace);
        assert!(a.trace.iter().any(|r| r.lane == SHARDED_LANE));
        assert!(a.trace.iter().any(|r| r.lane != SHARDED_LANE));
    }

    #[test]
    fn replays_repeat_exactly() {
        let load = setup(4).expect("valid preset");
        assert_eq!(replay_ring(&load), replay_ring(&load));
        let users: Vec<u64> = load.trace.iter().take(200).map(|r| r.user).collect();
        let mut a = fresh_store(&load).expect("sharded preset");
        let mut b = fresh_store(&load).expect("sharded preset");
        assert_eq!(replay_shard(&mut a, &users), replay_shard(&mut b, &users));
    }
}

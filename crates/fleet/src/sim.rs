//! The fleet simulator: replicated lanes, routed admission, autoscaling
//! and sharded embedding service on one virtual clock.
//!
//! Each lane runs N replica nodes behind its own consistent-hash ring.
//! An arrival hashes its user key onto the ring; the bounded-load pick
//! walks clockwise past full replicas and rejects only when the whole
//! lane is at capacity (admission control). Replicas micro-batch their
//! queues exactly like `serve` stations, because they run the same
//! [`StationCore`]; a sharded lane additionally pays for its batch's
//! embedding fan-out — distinct shard owners touched and cache misses,
//! priced per event — through the [`ShardedStore`](crate::shard::ShardedStore).
//!
//! At every control epoch the per-lane [`Autoscaler`] reads queue depth,
//! the epoch p99 and drop counts, and may add or retire one replica;
//! membership changes pay a measured rebalance cost (moved probe keys on
//! the ring, moved shard bytes in the store). Event order at one instant
//! is fixed — completions, control, arrivals, batch starts — so a whole
//! fleet run is a pure function of `(spec, trace)`, bit-identical across
//! reruns and `ENW_THREADS` settings.

use crate::autoscale::{AutoscalePolicy, Autoscaler, EpochSignals, ScaleDecision};
use crate::error::FleetError;
use crate::ring::{key_point, HashRing};
use crate::shard::{ShardSpec, ShardedStore};
use crate::traffic::FleetRequest;
use enw_serve::{BatchPolicy, ServiceModel, StationCore, StationMetrics, VirtualClock};
use enw_trace::Histogram;

/// Probe keys hashed to price a membership change (`keys_moved` is the
/// count whose primary changed, out of this many).
const REBALANCE_PROBES: u64 = 2048;

/// One lane's static configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Lane name for reports.
    pub name: String,
    /// Per-batch service pricing on every replica.
    pub service: ServiceModel,
    /// Per-replica batching and queue capacity.
    pub policy: BatchPolicy,
    /// Scaling thresholds; also fixes the lane's control epoch.
    pub autoscale: AutoscalePolicy,
    /// Replicas at t = 0 (must sit inside the autoscale bounds).
    pub initial_replicas: usize,
    /// Virtual points per replica on the routing ring.
    pub vnodes: u32,
    /// Extra service ns per distinct shard owner a batch touches
    /// (sharded lanes; the RPC fan-out cost).
    pub fanout_ns: u64,
    /// Extra service ns per embedding-cache miss (sharded lanes; the
    /// DRAM detour).
    pub miss_ns: u64,
    /// Whether this lane serves through the fleet's sharded store.
    pub sharded: bool,
}

/// The whole cluster's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Lanes, addressed by index from [`FleetRequest::lane`].
    pub lanes: Vec<LaneSpec>,
    /// Embedding-store geometry; present iff exactly one lane is
    /// `sharded`.
    pub store: Option<ShardSpec>,
    /// Seed for the store's tables.
    pub seed: u64,
}

/// One replica node of a lane.
#[derive(Debug)]
struct Replica {
    id: u32,
    station: StationCore<FleetRequest>,
}

impl Replica {
    fn new(lane: &str, id: u32, policy: BatchPolicy) -> Self {
        Replica { id, station: StationCore::new(&format!("{lane}/n{id}"), policy) }
    }
}

/// One lane's live state.
#[derive(Debug)]
struct Lane {
    spec: LaneSpec,
    ring: HashRing,
    /// Live replicas, ascending id (ids are never reused).
    replicas: Vec<Replica>,
    next_id: u32,
    scaler: Autoscaler,
    next_epoch_ns: u64,
    epoch_hist: Histogram,
    epoch_served: u64,
    epoch_dropped: u64,
    scale_ups: u64,
    scale_downs: u64,
    keys_moved: u64,
    moved_bytes: u64,
    /// Retired replicas' metrics plus lane-level rejections.
    folded: StationMetrics,
    checksum: u64,
    /// Integral of live replicas over virtual time, node·ns.
    node_ns: u128,
    last_t_ns: u64,
    replicas_peak: usize,
    /// Batch user-key scratch (reused; capacity `max_batch`).
    users: Vec<u64>,
}

impl Lane {
    fn new(spec: LaneSpec) -> Self {
        let scaler = Autoscaler::new(spec.autoscale);
        let ring = HashRing::with_nodes(spec.vnodes, spec.initial_replicas as u32);
        let replicas = (0..spec.initial_replicas as u32)
            .map(|id| Replica::new(&spec.name, id, spec.policy))
            .collect();
        Lane {
            next_epoch_ns: spec.autoscale.epoch_ns,
            next_id: spec.initial_replicas as u32,
            replicas_peak: spec.initial_replicas,
            folded: StationMetrics::new(&spec.name),
            users: Vec::with_capacity(spec.policy.max_batch),
            spec,
            ring,
            replicas,
            scaler,
            epoch_hist: Histogram::new(),
            epoch_served: 0,
            epoch_dropped: 0,
            scale_ups: 0,
            scale_downs: 0,
            keys_moved: 0,
            moved_bytes: 0,
            checksum: 0,
            node_ns: 0,
            last_t_ns: 0,
        }
    }

    /// Closes the node·time integral up to `t` (call before membership
    /// changes and once at the end of the run).
    fn integrate_to(&mut self, t: u64) {
        self.node_ns += (t - self.last_t_ns) as u128 * self.replicas.len() as u128;
        self.last_t_ns = t;
    }
}

/// Everything one run produced for one lane.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// Lane name.
    pub name: String,
    /// Aggregated counters and latencies over every replica that ever
    /// served (retired ones included) plus lane-level rejections.
    pub metrics: StationMetrics,
    /// Replicas live when the run ended.
    pub replicas_final: usize,
    /// Most replicas ever live.
    pub replicas_peak: usize,
    /// Applied scale-up events.
    pub scale_ups: u64,
    /// Applied scale-down events.
    pub scale_downs: u64,
    /// Probe keys (of [`REBALANCE_PROBES`] per event) whose primary
    /// moved across all membership changes — the routing rebalance cost.
    pub keys_moved: u64,
    /// Shard bytes copied for this lane's membership changes (sharded
    /// lanes only).
    pub moved_bytes: u64,
    /// Integral of live replicas over the run, in node·seconds — the
    /// denominator of goodput-per-node.
    pub node_seconds: f64,
    /// Order-sensitive fold of every served output (pooled embedding
    /// bits on sharded lanes, completion identities elsewhere).
    pub checksum: u64,
}

impl LaneReport {
    /// On-time completions per node-second — the paper-facing
    /// deployment-efficiency metric (E19).
    pub fn goodput_per_node_qps(&self) -> f64 {
        if self.node_seconds <= 0.0 {
            0.0
        } else {
            self.metrics.completed as f64 / self.node_seconds
        }
    }
}

/// End-of-run state of the sharded store.
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// Total `(table, shard)` slots.
    pub shards: usize,
    /// Slots flagged hot by the last placement pass.
    pub hot_shards: usize,
    /// Aggregate cache hits across shards.
    pub cache_hits: u64,
    /// Aggregate cache misses across shards.
    pub cache_misses: u64,
    /// Bytes pinned across owners, replicas included.
    pub replicated_bytes: u64,
    /// Unreplicated table bytes.
    pub table_bytes: u64,
}

/// The result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// When the last work drained, virtual ns.
    pub duration_ns: u64,
    /// Per-lane results, in lane order.
    pub lanes: Vec<LaneReport>,
    /// Store state, when the fleet had a sharded lane.
    pub shard: Option<ShardReport>,
}

impl FleetReport {
    /// Canonical byte rendering — what the determinism tests and E19's
    /// rerun check fingerprint. Every field that could drift is in here.
    pub fn render(&self) -> String {
        let mut s = format!("fleet duration_ns={}\n", self.duration_ns);
        for l in &self.lanes {
            let p = l.metrics.summary();
            s.push_str(&format!(
                "lane {} replicas={} peak={} ups={} downs={} keys_moved={} moved_bytes={}\n  \
                 arrived={} completed={} misses={} shed={} rejected={} batches={}\n  \
                 p50={} p95={} p99={} max={} node_s={:.6} goodput_per_node={:.3} \
                 checksum={:016x}\n",
                l.name,
                l.replicas_final,
                l.replicas_peak,
                l.scale_ups,
                l.scale_downs,
                l.keys_moved,
                l.moved_bytes,
                l.metrics.arrived,
                l.metrics.completed,
                l.metrics.deadline_misses,
                l.metrics.shed,
                l.metrics.rejected,
                l.metrics.batches,
                p.p50_ns,
                p.p95_ns,
                p.p99_ns,
                p.max_ns,
                l.node_seconds,
                l.goodput_per_node_qps(),
                l.checksum,
            ));
        }
        if let Some(sh) = &self.shard {
            s.push_str(&format!(
                "shard slots={} hot={} hits={} misses={} replicated_bytes={} table_bytes={}\n",
                sh.shards,
                sh.hot_shards,
                sh.cache_hits,
                sh.cache_misses,
                sh.replicated_bytes,
                sh.table_bytes,
            ));
        }
        s
    }
}

/// A built, validated cluster ready to serve traces.
#[derive(Debug)]
pub struct Fleet {
    lanes: Vec<Lane>,
    store: Option<ShardedStore>,
    sharded_lane: Option<usize>,
}

impl Fleet {
    /// Builds the cluster: rings, initial replicas, and (for a sharded
    /// lane) the embedding store placed onto the initial replica set.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NoLanes`] for an empty spec and
    /// [`FleetError::InvalidSpec`] when a batch policy, autoscale policy,
    /// replica bound, store spec or the store/lane wiring is invalid.
    pub fn try_new(spec: FleetSpec) -> Result<Fleet, FleetError> {
        if spec.lanes.is_empty() {
            return Err(FleetError::NoLanes);
        }
        let sharded: Vec<usize> =
            spec.lanes.iter().enumerate().filter_map(|(i, l)| l.sharded.then_some(i)).collect();
        if sharded.len() != usize::from(spec.store.is_some()) {
            return Err(FleetError::InvalidSpec {
                reason: format!("{} sharded lanes need as many stores (0 or 1)", sharded.len()),
            });
        }
        for l in &spec.lanes {
            l.policy
                .validate()
                .map_err(|e| FleetError::InvalidSpec { reason: format!("lane {}: {e}", l.name) })?;
            let a = &l.autoscale;
            a.validate()?;
            if l.initial_replicas < a.min_replicas || l.initial_replicas > a.max_replicas {
                return Err(FleetError::InvalidSpec {
                    reason: format!(
                        "lane {}: {} initial replicas outside [{}, {}]",
                        l.name, l.initial_replicas, a.min_replicas, a.max_replicas
                    ),
                });
            }
        }
        spec.store.as_ref().map_or(Ok(()), ShardSpec::validate)?;
        let seed = spec.seed;
        let mut store = spec.store.map(|s| ShardedStore::new(s, seed));
        let lanes: Vec<Lane> = spec.lanes.into_iter().map(Lane::new).collect();
        let sharded_lane = sharded.first().copied();
        if let (Some(st), Some(li)) = (store.as_mut(), sharded_lane) {
            // Initial placement: not charged as rebalance cost.
            st.rebalance(lanes[li].ring.nodes());
        }
        Ok(Fleet { lanes, store, sharded_lane })
    }

    /// Serves `trace` to completion and reports.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnsortedTrace`] or
    /// [`FleetError::UnknownLane`] when the trace does not fit this
    /// fleet; the fleet itself is consumed either way.
    pub fn try_run(mut self, trace: &[FleetRequest]) -> Result<FleetReport, FleetError> {
        let unsorted = |w: &[FleetRequest]| matches!(w, [a, b] if a.arrival_ns > b.arrival_ns);
        if let Some(i) = trace.windows(2).position(unsorted) {
            return Err(FleetError::UnsortedTrace { position: i + 1 });
        }
        if let Some(r) = trace.iter().find(|r| r.lane >= self.lanes.len()) {
            return Err(FleetError::UnknownLane {
                request: r.id,
                lane: r.lane,
                lanes: self.lanes.len(),
            });
        }

        let mut clock = VirtualClock::new();
        let mut next_arrival = 0usize;
        loop {
            let work_left = next_arrival < trace.len()
                || self.lanes.iter().flat_map(|l| &l.replicas).any(|r| !r.station.is_idle());
            let arrival = trace.get(next_arrival).map(|r| r.arrival_ns);
            let replica_events = self.lanes.iter().flat_map(|lane| {
                lane.replicas.iter().filter_map(|rep| rep.station.next_event_ns())
            });
            let epochs = self.lanes.iter().filter(|_| work_left).map(|lane| lane.next_epoch_ns);
            let Some(t) = arrival.into_iter().chain(replica_events).chain(epochs).min() else {
                break;
            };
            clock.advance_to(t);
            self.complete(t);
            self.control(t);
            next_arrival = self.admit(trace, next_arrival, t);
            self.start_batches(t);
        }

        let t_end = clock.now_ns();
        for lane in &mut self.lanes {
            lane.integrate_to(t_end);
        }
        let shard = self.store.as_ref().map(|st| ShardReport {
            shards: st.spec().total_shards(),
            hot_shards: st.hot_shards(),
            cache_hits: st.cache_stats().hits,
            cache_misses: st.cache_stats().misses,
            replicated_bytes: st.replicated_bytes(),
            table_bytes: st.bytes(),
        });
        let lanes = self
            .lanes
            .into_iter()
            .map(|lane| {
                let mut metrics = lane.folded;
                for rep in &lane.replicas {
                    metrics.merge(rep.station.metrics());
                }
                LaneReport {
                    name: lane.spec.name,
                    metrics,
                    replicas_final: lane.replicas.len(),
                    replicas_peak: lane.replicas_peak,
                    scale_ups: lane.scale_ups,
                    scale_downs: lane.scale_downs,
                    keys_moved: lane.keys_moved,
                    moved_bytes: lane.moved_bytes,
                    node_seconds: lane.node_ns as f64 / 1e9,
                    checksum: lane.checksum,
                }
            })
            .collect();
        Ok(FleetReport { duration_ns: t_end, lanes, shard })
    }

    /// Finishes every batch due at `t`, feeding the epoch's signals.
    fn complete(&mut self, t: u64) {
        for lane in &mut self.lanes {
            let Lane { spec, replicas, epoch_hist, epoch_served, checksum, .. } = lane;
            for rep in replicas.iter_mut() {
                rep.station.complete(t, |r, _late, latency| {
                    epoch_hist.record(latency);
                    *epoch_served += 1;
                    if !spec.sharded {
                        // Sharded lanes fold their pooled-output bits at
                        // batch start; plain lanes fold completion
                        // identities here.
                        *checksum = checksum.rotate_left(1) ^ key_point(r.user ^ t);
                    }
                });
            }
        }
    }

    /// Runs every lane whose control epoch closes at `t`.
    fn control(&mut self, t: u64) {
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            if t != lane.next_epoch_ns {
                continue;
            }
            let signals = EpochSignals {
                replicas: lane.replicas.len(),
                queued: lane.replicas.iter().map(|r| r.station.queued()).sum(),
                queue_cap: lane.replicas.len() * lane.spec.policy.queue_cap,
                epoch_p99_ns: lane.epoch_hist.percentile(99.0),
                served: lane.epoch_served,
                dropped: lane.epoch_dropped,
            };
            let sharded = self.sharded_lane == Some(li);
            let decision = lane.scaler.observe(&signals);
            // Scale-down retires the highest-id idle replica; with none
            // idle the decision is dropped (never kill in-flight work).
            let retire = (decision == ScaleDecision::Down)
                .then(|| lane.replicas.iter().rposition(|r| r.station.is_idle()))
                .flatten();
            if decision == ScaleDecision::Up || retire.is_some() {
                lane.integrate_to(t);
                let before = lane.ring.clone();
                if let Some(pos) = retire {
                    let rep = lane.replicas.remove(pos);
                    lane.ring.remove_node(rep.id);
                    lane.folded.merge(rep.station.metrics());
                    lane.scale_downs += 1;
                } else {
                    let id = lane.next_id;
                    lane.next_id += 1;
                    lane.ring.add_node(id);
                    lane.replicas.push(Replica::new(&lane.spec.name, id, lane.spec.policy));
                    lane.replicas_peak = lane.replicas_peak.max(lane.replicas.len());
                    lane.scale_ups += 1;
                }
                lane.keys_moved += before.moved_keys(&lane.ring, REBALANCE_PROBES);
                if let Some(st) = self.store.as_mut().filter(|_| sharded) {
                    lane.moved_bytes += st.rebalance(lane.ring.nodes()).moved_bytes;
                }
                let counter =
                    if retire.is_some() { "fleet.scale_downs" } else { "fleet.scale_ups" };
                enw_trace::counter_add(counter, 1);
            }
            lane.epoch_hist = Histogram::new();
            lane.epoch_served = 0;
            lane.epoch_dropped = 0;
            lane.next_epoch_ns += lane.spec.autoscale.epoch_ns;
        }
    }

    /// Routes every arrival at `t`: bounded-load pick over the lane's
    /// ring, reject when every replica's queue is at capacity.
    fn admit(&mut self, trace: &[FleetRequest], mut i: usize, t: u64) -> usize {
        while let Some(&r) = trace.get(i) {
            if r.arrival_ns != t {
                break;
            }
            i += 1;
            let lane = &mut self.lanes[r.lane];
            let cap = lane.spec.policy.queue_cap;
            let pick = {
                let reps = &lane.replicas;
                lane.ring.pick_bounded(r.user, cap, |id| {
                    match reps.binary_search_by_key(&id, |rep| rep.id) {
                        Ok(p) => reps[p].station.queued(),
                        // Ring and replica set are kept in lockstep;
                        // treat a stranger as full just in case.
                        Err(_) => cap,
                    }
                })
            };
            match pick {
                Some(id) => {
                    if let Ok(p) = lane.replicas.binary_search_by_key(&id, |rep| rep.id) {
                        // The pick skips full replicas, so this admits.
                        if lane.replicas[p].station.admit(r).is_err() {
                            lane.epoch_dropped += 1;
                        }
                    }
                }
                None => {
                    lane.folded.arrived += 1;
                    lane.folded.rejected += 1;
                    lane.epoch_dropped += 1;
                }
            }
        }
        i
    }

    /// Closes every due batch and prices it. A close that sheds its whole
    /// batch leaves the replica idle, so each replica closes until it is
    /// busy or has nothing due.
    fn start_batches(&mut self, t: u64) {
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            let sharded = self.sharded_lane == Some(li);
            let Lane { spec, replicas, users, checksum, epoch_dropped, .. } = lane;
            for rep in replicas.iter_mut() {
                while rep.station.can_close(t) {
                    let batch = rep.station.close(t, |_, shed| *epoch_dropped += u64::from(shed));
                    if batch.is_empty() {
                        continue;
                    }
                    let mut ns = spec.service.ns(batch.len());
                    if sharded {
                        users.clear();
                        users.extend(batch.iter().map(|r| r.user));
                        if let Some(st) = self.store.as_mut() {
                            let cost = st.pool_batch(users);
                            ns = ns
                                .saturating_add(spec.fanout_ns * cost.owner_touches)
                                .saturating_add(spec.miss_ns * cost.misses);
                            *checksum = checksum.rotate_left(1) ^ cost.checksum;
                        }
                    }
                    rep.station.start(t, ns);
                }
            }
        }
    }
}

/// Convenience: build and run in one call.
///
/// # Errors
///
/// Propagates [`Fleet::try_new`] and [`Fleet::try_run`] errors.
pub fn try_run(spec: FleetSpec, trace: &[FleetRequest]) -> Result<FleetReport, FleetError> {
    Fleet::try_new(spec)?.try_run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{ShapeKind, UserMix, UserSampler};
    use crate::shard::ShardScheme;
    use crate::traffic::{generate_fleet_trace, FleetClass, FleetLoadSpec};

    fn scale(min: usize, max: usize) -> AutoscalePolicy {
        AutoscalePolicy {
            min_replicas: min,
            max_replicas: max,
            epoch_ns: 2_000_000,
            p99_slo_ns: 1_500_000,
            up_queue_frac: 0.5,
            down_queue_frac: 0.1,
            calm_epochs_to_downscale: 3,
            cooldown_epochs: 1,
        }
    }

    fn plain_lane(max_replicas: usize) -> LaneSpec {
        LaneSpec {
            name: "mlp".to_string(),
            service: ServiceModel { setup_ns: 30_000, per_item_ns: 10_000 },
            policy: BatchPolicy::new(8, 200_000, 32),
            autoscale: scale(1, max_replicas),
            initial_replicas: 2,
            vnodes: 32,
            fanout_ns: 0,
            miss_ns: 0,
            sharded: false,
        }
    }

    fn sharded_lane(max_replicas: usize) -> LaneSpec {
        LaneSpec {
            name: "recsys".to_string(),
            service: ServiceModel { setup_ns: 40_000, per_item_ns: 12_000 },
            policy: BatchPolicy::new(8, 200_000, 32),
            autoscale: scale(1, max_replicas),
            initial_replicas: 2,
            vnodes: 32,
            fanout_ns: 4_000,
            miss_ns: 1_000,
            sharded: true,
        }
    }

    fn store() -> ShardSpec {
        ShardSpec {
            tables: 2,
            rows_per_table: 512,
            dim: 8,
            lookups_per_table: 4,
            shards: 4,
            replication: 2,
            scheme: ShardScheme::Range,
            hot_fraction: 0.25,
            cache_rows: 64,
        }
    }

    fn spec(max_replicas: usize) -> FleetSpec {
        FleetSpec {
            lanes: vec![plain_lane(max_replicas), sharded_lane(max_replicas)],
            store: Some(store()),
            seed: 19,
        }
    }

    fn trace(qps: f64, horizon_ns: u64, seed: u64) -> Vec<FleetRequest> {
        let users = UserSampler::new(UserMix::Zipf { users: 4096, alpha: 1.0 });
        let classes = vec![
            FleetClass { lane: 0, weight: 1.0, deadline_ns: 3_000_000 },
            FleetClass { lane: 1, weight: 1.0, deadline_ns: 4_000_000 },
        ];
        let mut shape = ShapeKind::Poisson { qps };
        generate_fleet_trace(
            &FleetLoadSpec { duration_ns: horizon_ns, seed },
            &classes,
            &mut shape,
            &users,
        )
    }

    #[test]
    fn light_load_serves_everything_on_time() {
        let report = try_run(spec(4), &trace(20_000.0, 30_000_000, 1)).expect("valid spec");
        for lane in &report.lanes {
            assert!(lane.metrics.arrived > 100, "{} saw no traffic", lane.name);
            assert_eq!(lane.metrics.rejected, 0, "{} rejected under light load", lane.name);
            assert!(
                lane.metrics.completed as f64 >= 0.99 * lane.metrics.arrived as f64,
                "{}: {}/{} on time",
                lane.name,
                lane.metrics.completed,
                lane.metrics.arrived
            );
        }
    }

    #[test]
    fn every_request_is_accounted_for_exactly_once() {
        let t = trace(150_000.0, 30_000_000, 2);
        let report = try_run(spec(3), &t).expect("valid spec");
        let mut total_arrived = 0;
        for lane in &report.lanes {
            let m = &lane.metrics;
            assert_eq!(
                m.arrived,
                m.rejected + m.shed + m.completed + m.deadline_misses,
                "{} loses requests",
                lane.name
            );
            total_arrived += m.arrived;
        }
        assert_eq!(total_arrived as usize, t.len(), "arrivals must cover the whole trace");
    }

    #[test]
    fn overload_triggers_scale_up_and_admission_control() {
        let report = try_run(spec(6), &trace(400_000.0, 30_000_000, 3)).expect("valid spec");
        let ups: u64 = report.lanes.iter().map(|l| l.scale_ups).sum();
        assert!(ups > 0, "sustained overload must grow the fleet");
        let dropped: u64 = report.lanes.iter().map(|l| l.metrics.rejected + l.metrics.shed).sum();
        assert!(dropped > 0, "overload must trip admission control somewhere");
        for lane in &report.lanes {
            assert!(lane.replicas_peak > 2, "{} never grew", lane.name);
            if lane.scale_ups > 0 {
                assert!(lane.keys_moved > 0, "{} rebalanced for free?", lane.name);
            }
        }
    }

    #[test]
    fn quiet_tail_scales_back_down() {
        // Heavy burst then a long quiet tail: ups then downs.
        let mut t = trace(350_000.0, 10_000_000, 4);
        // One straggler far out so epochs keep ticking through the calm.
        let last_id = t.last().map_or(0, |r| r.id + 1);
        t.push(FleetRequest {
            id: last_id,
            lane: 0,
            user: 1,
            arrival_ns: 60_000_000,
            deadline_ns: 63_000_000,
        });
        let report = try_run(spec(6), &t).expect("valid spec");
        let downs: u64 = report.lanes.iter().map(|l| l.scale_downs).sum();
        assert!(downs > 0, "a quiet tail must shrink the fleet again");
    }

    #[test]
    fn sharded_lane_pays_for_fanout() {
        let report = try_run(spec(4), &trace(30_000.0, 20_000_000, 5)).expect("valid spec");
        let shard = report.shard.expect("spec has a store");
        assert!(shard.cache_hits + shard.cache_misses > 0, "store never consulted");
        assert!(shard.replicated_bytes >= shard.table_bytes, "owners must cover every shard");
        let recsys = &report.lanes[1];
        let mlp = &report.lanes[0];
        assert!(recsys.checksum != 0, "sharded lane must fold pooled bits");
        assert!(
            recsys.metrics.summary().p50_ns > mlp.metrics.summary().p50_ns,
            "fan-out and misses must cost the sharded lane latency"
        );
    }

    #[test]
    fn reports_are_bit_identical_across_reruns() {
        let t = trace(120_000.0, 25_000_000, 6);
        let a = try_run(spec(5), &t).expect("valid spec").render();
        let b = try_run(spec(5), &t).expect("valid spec").render();
        assert_eq!(a, b, "same (spec, trace) must name the same report bytes");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(matches!(
            try_run(FleetSpec { lanes: vec![], store: None, seed: 0 }, &[]),
            Err(FleetError::NoLanes)
        ));
        let no_store = FleetSpec { lanes: vec![sharded_lane(4)], store: None, seed: 0 };
        assert!(matches!(try_run(no_store, &[]), Err(FleetError::InvalidSpec { .. })));
        let mut bad_initial = spec(4);
        bad_initial.lanes[0].initial_replicas = 9;
        assert!(matches!(try_run(bad_initial, &[]), Err(FleetError::InvalidSpec { .. })));
        // Each of these panicked or hung instead of returning an error.
        let mut empty_batches = spec(4);
        empty_batches.lanes[0].policy.max_batch = 0;
        let mut zero_epoch = spec(4);
        zero_epoch.lanes[1].autoscale.epoch_ns = 0;
        let mut no_tables = spec(4);
        no_tables.store = Some(ShardSpec { tables: 0, ..store() });
        for bad in [empty_batches, zero_epoch, no_tables] {
            let err = try_run(bad, &trace(50_000.0, 1_000_000, 8));
            assert!(matches!(err, Err(FleetError::InvalidSpec { .. })), "{err:?}");
        }
    }

    /// Minimal serve backend priced like a fleet lane.
    struct Priced(ServiceModel);

    impl enw_serve::Backend for Priced {
        fn name(&self) -> &str {
            "priced"
        }
        fn service_ns(&self, batch: usize) -> u64 {
            self.0.ns(batch)
        }
        fn serve(&mut self, batch: &[enw_serve::Request]) -> Vec<enw_serve::Output> {
            batch.iter().map(|_| enw_serve::Output::Label(None)).collect()
        }
        fn make_payload(&self, _rng: &mut enw_numerics::rng::Rng64) -> enw_serve::Payload {
            enw_serve::Payload::Features(Vec::new())
        }
    }

    #[test]
    fn unbounded_wait_matches_a_one_station_serve_run() {
        // `max_wait_ns = u64::MAX` closes by size only; the timeout must
        // saturate rather than wrap into an immediate close. One replica
        // then has to behave exactly like one serve station.
        let mut lane = plain_lane(1);
        lane.initial_replicas = 1;
        lane.policy = BatchPolicy::new(4, u64::MAX, 16);
        let fleet = FleetSpec { lanes: vec![lane.clone()], store: None, seed: 0 };
        let reqs: Vec<FleetRequest> = (0..8u64)
            .map(|k| FleetRequest {
                id: k,
                lane: 0,
                user: k,
                arrival_ns: 5_000 + 10_000 * k,
                deadline_ns: 105_000 + 10_000 * k,
            })
            .collect();
        let got = try_run(fleet, &reqs).expect("valid spec");
        let serve_trace: Vec<enw_serve::Request> = reqs
            .iter()
            .map(|r| enw_serve::Request {
                id: r.id,
                station: 0,
                payload: enw_serve::Payload::Features(Vec::new()),
                arrival_ns: r.arrival_ns,
                deadline_ns: r.deadline_ns,
            })
            .collect();
        let station = enw_serve::StationSpec::simple(Box::new(Priced(lane.service)), lane.policy);
        let want = enw_serve::Server::try_new(vec![station])
            .and_then(|s| s.try_run(&serve_trace))
            .expect("valid station");
        let (g, w) = (&got.lanes[0].metrics, &want.stations[0]);
        assert_eq!(g.batches, 2, "two full batches, none closed early");
        assert!(g.deadline_misses > 0 && g.completed > 0, "fixture mixes on-time and late");
        assert_eq!(
            (g.arrived, g.completed, g.deadline_misses, g.shed, g.rejected, g.batches),
            (w.arrived, w.completed, w.deadline_misses, w.shed, w.rejected, w.batches)
        );
        assert_eq!(g.summary(), w.summary());
        assert_eq!(got.duration_ns, want.duration_ns);
    }

    #[test]
    fn bad_traces_are_rejected() {
        let mut t = trace(50_000.0, 5_000_000, 7);
        t.swap(0, 1);
        assert!(matches!(try_run(spec(4), &t), Err(FleetError::UnsortedTrace { position: 1 })));
        let stray = vec![FleetRequest { id: 0, lane: 7, user: 1, arrival_ns: 10, deadline_ns: 20 }];
        assert!(matches!(try_run(spec(4), &stray), Err(FleetError::UnknownLane { lane: 7, .. })));
    }
}

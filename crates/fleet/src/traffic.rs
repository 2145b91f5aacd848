//! Fleet-level load generation: shaped arrivals carrying routable user
//! keys.
//!
//! The fleet runs `serve`'s open-loop arrival process
//! ([`enw_serve::generate_arrivals`]: one shape draw, one class pick, one
//! user draw per arrival, all from a single seeded stream) but its
//! requests carry a *user key* instead of a payload: the router hashes it, the sharded store derives the user's
//! embedding lookups from it, and popularity skew in the
//! [`UserSampler`](crate::shape::UserSampler) is what turns traffic
//! shape into shard heat.

use crate::shape::UserSampler;
use enw_serve::{generate_arrivals, LoadShape, Queued};

/// One routed request. No payload: everything a replica serves is a
/// deterministic function of `(user, lane)`, which is what keeps the
/// steady-state path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Trace-unique id, ascending with arrival order.
    pub id: u64,
    /// Target lane index.
    pub lane: usize,
    /// Routing key and lookup seed.
    pub user: u64,
    /// Arrival instant, virtual ns.
    pub arrival_ns: u64,
    /// Latency budget: completions after this are deadline misses.
    pub deadline_ns: u64,
}

impl Queued for FleetRequest {
    fn arrival_ns(&self) -> u64 {
        self.arrival_ns
    }
    fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }
}

/// One slice of the fleet traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetClass {
    /// Target lane index.
    pub lane: usize,
    /// Relative share of aggregate arrivals.
    pub weight: f64,
    /// Per-request budget: deadline = arrival + this.
    pub deadline_ns: u64,
}

/// Horizon and seed of one fleet trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetLoadSpec {
    /// Trace horizon in virtual ns.
    pub duration_ns: u64,
    /// Seed naming this trace.
    pub seed: u64,
}

/// Generates a fleet arrival trace: inter-arrival gaps from `shape`,
/// lanes picked by class weight, then user keys from `users`.
///
/// # Panics
///
/// Panics as [`generate_arrivals`] does.
pub fn generate_fleet_trace(
    spec: &FleetLoadSpec,
    classes: &[FleetClass],
    shape: &mut dyn LoadShape,
    users: &UserSampler,
) -> Vec<FleetRequest> {
    let weights: Vec<f64> = classes.iter().map(|c| c.weight).collect();
    generate_arrivals(spec.duration_ns, spec.seed, &weights, shape, |id, k, arrival_ns, rng| {
        let class = classes[k];
        FleetRequest {
            id,
            lane: class.lane,
            user: users.sample(rng),
            arrival_ns,
            deadline_ns: arrival_ns.saturating_add(class.deadline_ns),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{ShapeKind, UserMix};

    fn classes() -> Vec<FleetClass> {
        vec![
            FleetClass { lane: 0, weight: 3.0, deadline_ns: 2_000_000 },
            FleetClass { lane: 1, weight: 1.0, deadline_ns: 5_000_000 },
        ]
    }

    fn spec(seed: u64) -> FleetLoadSpec {
        FleetLoadSpec { duration_ns: 50_000_000, seed }
    }

    #[test]
    fn traces_are_reproducible_and_sorted() {
        let users = UserSampler::new(UserMix::Zipf { users: 10_000, alpha: 1.0 });
        let mut shape = ShapeKind::Diurnal { base_qps: 20_000.0, swing: 0.5, period_s: 0.01 };
        let a = generate_fleet_trace(&spec(1), &classes(), &mut shape.clone(), &users);
        let b = generate_fleet_trace(&spec(1), &classes(), &mut shape, &users);
        assert_eq!(a, b, "same seed must name the same trace");
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn bursts_concentrate_arrivals_in_the_on_phase() {
        let users = UserSampler::new(UserMix::Uniform { users: 1000 });
        let mut shape =
            ShapeKind::Bursty { hi_qps: 50_000.0, lo_qps: 1_000.0, on_s: 0.01, off_s: 0.01 };
        let trace = generate_fleet_trace(&spec(2), &classes(), &mut shape, &users);
        let in_burst =
            trace.iter().filter(|r| (r.arrival_ns as f64 / 1e9).rem_euclid(0.02) < 0.01).count()
                as f64;
        let share = in_burst / trace.len() as f64;
        assert!(share > 0.9, "burst share {share} too low for a 50:1 rate ratio");
    }

    #[test]
    fn lanes_follow_the_class_weights() {
        let users = UserSampler::new(UserMix::Uniform { users: 1000 });
        let mut shape = ShapeKind::Poisson { qps: 20_000.0 };
        let trace = generate_fleet_trace(&spec(3), &classes(), &mut shape, &users);
        let to_zero = trace.iter().filter(|r| r.lane == 0).count() as f64;
        let share = to_zero / trace.len() as f64;
        assert!((0.65..0.85).contains(&share), "lane share {share} far from 0.75");
        for r in &trace {
            let budget = if r.lane == 0 { 2_000_000 } else { 5_000_000 };
            assert_eq!(r.deadline_ns, r.arrival_ns + budget);
        }
    }
}

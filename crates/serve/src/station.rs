//! The micro-batching station: the one implementation of the
//! size-or-timeout batch rule (paper Sec. V-B), run by every
//! [`Server`](crate::scheduler::Server) station and `enw-fleet` replica.
//!
//! A full queue rejects (backpressure). An idle station closes once
//! `max_batch` requests wait or the oldest has waited `max_wait_ns`
//! (saturating: `u64::MAX` closes by size only). A close takes the
//! `max_batch` oldest requests, then sheds those past their deadline.
//! The core records no trace data; callers trace at the call sites.

use crate::error::ServeError;
use crate::metrics::StationMetrics;
use crate::policy::BatchPolicy;
use crate::queue::BoundedQueue;
use crate::request::Request;

/// What a station needs to know about a queued request.
pub trait Queued {
    /// Arrival instant on the virtual clock.
    fn arrival_ns(&self) -> u64;
    /// Served after this instant is late; still queued at it is shed.
    fn deadline_ns(&self) -> u64;
}

impl Queued for Request {
    fn arrival_ns(&self) -> u64 {
        self.arrival_ns
    }
    fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }
}

/// One station's queue, in-flight batch and counters.
#[derive(Debug)]
pub struct StationCore<R = Request> {
    policy: BatchPolicy,
    queue: BoundedQueue<R>,
    // In-flight batch, refilled in place: no steady-state allocation.
    batch: Vec<R>,
    busy_until: Option<u64>,
    metrics: StationMetrics,
}

impl<R: Queued> StationCore<R> {
    /// An idle station; `name` labels its metrics.
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`BatchPolicy::validate`], which
    /// `Server::try_new` and `Fleet::try_new` report as an error first.
    pub fn new(name: &str, policy: BatchPolicy) -> Self {
        let verdict = policy.validate();
        assert!(verdict.is_ok(), "{verdict:?}");
        StationCore {
            policy,
            queue: BoundedQueue::new(policy.queue_cap),
            batch: Vec::new(),
            busy_until: None,
            metrics: StationMetrics::new(name),
        }
    }

    /// The batch policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Counters and latencies so far.
    pub fn metrics(&self) -> &StationMetrics {
        &self.metrics
    }

    /// Mutable counters, for the ones the caller keeps (serve's ladder).
    pub fn metrics_mut(&mut self) -> &mut StationMetrics {
        &mut self.metrics
    }

    /// Requests waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True when no batch is in flight and nothing waits.
    pub fn is_idle(&self) -> bool {
        self.busy_until.is_none() && self.queue.is_empty()
    }

    /// When the in-flight batch completes, if one is in flight.
    pub fn busy_until(&self) -> Option<u64> {
        self.busy_until
    }

    /// The next instant this station must act if left alone: its batch
    /// completion when busy, else the oldest request's wait timeout.
    pub fn next_event_ns(&self) -> Option<u64> {
        self.busy_until.or_else(|| {
            let oldest = self.queue.oldest_arrival_ns()?;
            Some(oldest.saturating_add(self.policy.max_wait_ns))
        })
    }

    /// True when an idle station should close a batch now.
    pub fn can_close(&self, now_ns: u64) -> bool {
        self.busy_until.is_none()
            && !self.queue.is_empty()
            && (self.queue.len() >= self.policy.max_batch
                || self.next_event_ns().is_some_and(|timeout| now_ns >= timeout))
    }

    /// Counts an arrival and queues it; a full queue refuses it with
    /// [`ServeError::QueueFull`] and counts a rejection.
    pub fn admit(&mut self, req: R) -> Result<(), ServeError> {
        self.metrics.arrived += 1;
        let offered = self.queue.try_offer(req);
        self.metrics.rejected += u64::from(offered.is_err());
        offered
    }

    /// Closes a batch (when [`can_close`](StationCore::can_close)
    /// holds): takes up to `max_batch` requests in FIFO order, then
    /// sheds each one at or past its deadline. `visit` sees every taken
    /// request in order with whether it was shed. Returns the live
    /// batch, possibly empty.
    pub fn close(&mut self, now_ns: u64, mut visit: impl FnMut(&R, bool)) -> &[R] {
        self.queue.take_into(self.policy.max_batch, &mut self.batch);
        let shed = &mut self.metrics.shed;
        self.batch.retain(|req| {
            let expired = now_ns >= req.deadline_ns();
            *shed += u64::from(expired);
            visit(req, expired);
            !expired
        });
        &self.batch
    }

    /// Serves the closed batch for `service_ns` (at least 1 ns, so the
    /// event loop always moves forward).
    pub fn start(&mut self, now_ns: u64, service_ns: u64) {
        self.busy_until = Some(now_ns.saturating_add(service_ns.max(1)));
        self.metrics.batches += 1;
    }

    /// Finishes the in-flight batch if it is due at `now_ns`, passing
    /// `done` each request with whether it is late and its latency.
    pub fn complete(&mut self, now_ns: u64, mut done: impl FnMut(R, bool, u64)) {
        if self.busy_until != Some(now_ns) {
            return;
        }
        self.busy_until = None;
        for req in self.batch.drain(..) {
            let late = now_ns > req.deadline_ns();
            if late {
                self.metrics.deadline_misses += 1;
            } else {
                self.metrics.completed += 1;
            }
            let latency = now_ns.saturating_sub(req.arrival_ns());
            self.metrics.record_latency(latency);
            done(req, late, latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct Job {
        arrival: u64,
        deadline: u64,
    }

    impl Queued for Job {
        fn arrival_ns(&self) -> u64 {
            self.arrival
        }
        fn deadline_ns(&self) -> u64 {
            self.deadline
        }
    }

    fn job(arrival: u64, deadline: u64) -> Job {
        Job { arrival, deadline }
    }

    #[test]
    fn close_takes_then_sheds() {
        // max_batch 2: the two oldest are taken, the expired one is shed
        // and the batch runs short rather than pulling the third.
        let mut st = StationCore::new("s", BatchPolicy::new(2, 0, 4));
        for j in [job(0, 5), job(1, 100), job(2, 100)] {
            assert_eq!(st.admit(j), Ok(()));
        }
        let mut seen = Vec::new();
        let live = st.close(10, |j, shed| seen.push((j.arrival, shed))).len();
        assert_eq!(seen, vec![(0, true), (1, false)]);
        assert_eq!(live, 1);
        assert_eq!((st.metrics().shed, st.queued()), (1, 1));
        st.start(10, 0);
        assert_eq!(st.next_event_ns(), Some(11), "service is at least 1 ns");
        let mut done = Vec::new();
        st.complete(10, |_, _, _| panic!("nothing is due yet"));
        st.complete(11, |j, late, latency| done.push((j.arrival, late, latency)));
        assert_eq!(done, vec![(1, false, 10)]);
        assert_eq!((st.metrics().completed, st.metrics().batches), (1, 1));
    }

    #[test]
    fn unbounded_wait_saturates_instead_of_wrapping() {
        let mut st = StationCore::new("s", BatchPolicy::new(4, u64::MAX, 4));
        assert_eq!(st.admit(job(10, u64::MAX)), Ok(()));
        assert_eq!(st.next_event_ns(), Some(u64::MAX));
        assert!(!st.can_close(1_000_000), "a lone request waits for a full batch");
    }

    #[test]
    fn full_queue_refuses_and_counts() {
        let mut st = StationCore::new("s", BatchPolicy::new(1, 0, 1));
        assert_eq!(st.admit(job(0, 9)), Ok(()));
        assert_eq!(st.admit(job(0, 9)), Err(ServeError::QueueFull { capacity: 1 }));
        assert_eq!((st.metrics().arrived, st.metrics().rejected), (2, 1));
        assert!(!st.is_idle());
    }
}

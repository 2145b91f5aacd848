//! Bounded per-station admission queues.
//!
//! Admission control is the outermost defence of the SLA: a queue that
//! grows without bound converts overload into unbounded latency for
//! *everyone*, while a bounded queue converts it into explicit
//! [`ServeError::QueueFull`] refusals the client can retry elsewhere
//! (backpressure). FIFO order is part of the determinism contract — the
//! batch a request lands in depends only on the trace, never on host
//! scheduling. The queue holds any [`Queued`] type, [`Request`] by default.

use crate::error::ServeError;
use crate::request::Request;
use crate::station::Queued;
use std::collections::VecDeque;

/// A FIFO queue with a hard capacity.
#[derive(Debug, Clone)]
pub struct BoundedQueue<R = Request> {
    items: VecDeque<R>,
    cap: usize,
}

impl<R: Queued> BoundedQueue<R> {
    /// A queue holding at most `cap` waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (a station that can never hold work is a
    /// configuration error, not a policy).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        BoundedQueue { items: VecDeque::with_capacity(cap.min(1024)), cap }
    }

    /// Waiting requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offers a request; a full queue refuses it with
    /// [`ServeError::QueueFull`] (backpressure).
    pub fn try_offer(&mut self, req: R) -> Result<(), ServeError> {
        if self.items.len() >= self.cap {
            return Err(ServeError::QueueFull { capacity: self.cap });
        }
        self.items.push_back(req);
        Ok(())
    }

    /// Moves up to `n` oldest requests, in FIFO order, into `out` after
    /// clearing it. A warm buffer is refilled in place, so steady-state
    /// batch closes perform no per-request allocation.
    pub fn take_into(&mut self, n: usize, out: &mut Vec<R>) {
        out.clear();
        let k = n.min(self.items.len());
        out.extend(self.items.drain(..k));
    }

    /// Arrival instant of the oldest waiting request, if any.
    pub fn oldest_arrival_ns(&self) -> Option<u64> {
        self.items.front().map(Queued::arrival_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Payload;

    fn req(id: u64, arrival_ns: u64) -> Request {
        Request {
            id,
            station: 0,
            payload: Payload::Features(vec![]),
            arrival_ns,
            deadline_ns: u64::MAX,
        }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.try_offer(req(1, 10)), Ok(()));
        assert_eq!(q.try_offer(req(2, 11)), Ok(()));
        assert_eq!(
            q.try_offer(req(3, 12)),
            Err(ServeError::QueueFull { capacity: 2 }),
            "cap 2 must reject the third"
        );
        assert_eq!(q.oldest_arrival_ns(), Some(10));
        let mut taken = Vec::new();
        q.take_into(5, &mut taken);
        assert_eq!(taken.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(q.is_empty());
        assert_eq!(q.oldest_arrival_ns(), None);
    }

    #[test]
    fn take_respects_n() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            let _ = q.try_offer(req(i, i));
        }
        let mut first = Vec::new();
        q.take_into(2, &mut first);
        assert_eq!(first.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn take_into_reuses_the_buffer() {
        let mut q = BoundedQueue::new(8);
        for i in 0..6 {
            let _ = q.try_offer(req(i, i));
        }
        let mut buf = Vec::new();
        q.take_into(4, &mut buf);
        assert_eq!(buf.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let cap = buf.capacity();
        q.take_into(4, &mut buf);
        assert_eq!(buf.iter().map(|r| r.id).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(buf.capacity(), cap, "warm buffer must be reused, not reallocated");
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_is_rejected() {
        BoundedQueue::<Request>::new(0);
    }
}

//! Zero-allocation integration tests, run under a counting global
//! allocator (the same [`enw_bench::alloc_audit::CountingAlloc`] the E18
//! binary installs). These pin the memory-discipline contract so a
//! regression that re-introduces per-request heap traffic fails CI, not
//! just the benchmark narrative.
//!
//! Each test reads the calling thread's counters
//! ([`alloc_audit::thread_snapshot`]), so allocations on libtest's other
//! threads cannot leak into a measurement. The tests still serialize on
//! one lock, which tolerates poisoning so one failure cannot fail the
//! rest, and assert *marginal* allocation rates with a small tolerance.

use enw_bench::alloc_audit::{self, CountingAlloc};
use enw_core::mann::memory::{DifferentiableMemory, Similarity};
use enw_core::numerics::rng::Rng64;
use enw_core::parallel::scratch;
use enw_core::serve::backend::{Backend, ServiceModel};
use enw_core::serve::policy::{BatchPolicy, StationSpec};
use enw_core::serve::request::{Output, Payload, Request};
use enw_core::serve::scheduler::Server;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Constant-output backend: isolates the scheduler event loop from
/// backend output allocation (labels are plain enum payloads).
struct ConstLabel;

impl Backend for ConstLabel {
    fn name(&self) -> &str {
        "const_label"
    }
    fn service_ns(&self, batch: usize) -> u64 {
        ServiceModel { setup_ns: 200, per_item_ns: 50 }.ns(batch)
    }
    fn serve(&mut self, batch: &[Request]) -> Vec<Output> {
        let mut out = Vec::new();
        self.serve_into(batch, &mut out);
        out
    }
    fn serve_into(&mut self, batch: &[Request], out: &mut Vec<Output>) {
        out.clear();
        out.extend(batch.iter().map(|_| Output::Label(Some(1))));
    }
    fn make_payload(&self, _rng: &mut Rng64) -> Payload {
        Payload::Features(Vec::new())
    }
}

fn serve_run_allocs(n: usize) -> u64 {
    let reqs: Vec<Request> = (0..n)
        .map(|k| Request {
            id: k as u64,
            station: 0,
            payload: Payload::Features(Vec::new()),
            arrival_ns: 1_000 * k as u64,
            deadline_ns: u64::MAX,
        })
        .collect();
    let server = Server::try_new(vec![StationSpec::simple(
        Box::new(ConstLabel),
        BatchPolicy::new(8, 500, 64),
    )])
    .expect("one valid station");
    let s0 = alloc_audit::thread_snapshot();
    let report = server.try_run_owned(reqs).expect("trace is valid");
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert_eq!(report.responses.len(), n);
    allocs
}

#[test]
fn serve_loop_allocates_nothing_per_request_after_warm_up() {
    let _guard = serialize();
    let _ = serve_run_allocs(128); // warm-up: lazy statics, code paths
    let small = serve_run_allocs(256);
    let large = serve_run_allocs(2048);
    let marginal = large.saturating_sub(small) as f64 / (2048 - 256) as f64;
    assert!(
        marginal < 0.01,
        "serve loop leaked {marginal:.4} allocations per extra request ({small} -> {large})"
    );
}

#[test]
fn mann_into_kernels_run_allocation_free_once_pools_are_warm() {
    let _guard = serialize();
    let mut rng = Rng64::new(18);
    let mem = DifferentiableMemory::random(128, 32, &mut rng);
    let q: Vec<f32> = (0..32).map(|_| rng.uniform_f32() - 0.5).collect();
    let mut w = vec![0.0f32; 128];
    let mut r = vec![0.0f32; 32];
    for _ in 0..8 {
        mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
        mem.soft_read_into(&w, &mut r);
    }
    let iters = 256;
    let s0 = alloc_audit::thread_snapshot();
    for _ in 0..iters {
        mem.content_address_into(&q, Similarity::Cosine, 2.0, &mut w);
        mem.soft_read_into(&w, &mut r);
    }
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert!(
        (allocs as f64) < 0.01 * iters as f64,
        "warm _into kernels made {allocs} allocations over {iters} iterations"
    );
    assert!(r.iter().all(|x| x.is_finite()));
}

#[test]
fn scratch_checkout_reuses_buffers_instead_of_allocating() {
    let _guard = serialize();
    {
        let _warm = scratch::take_f32(1000); // provisions the size class
    }
    let iters = 256;
    let s0 = alloc_audit::thread_snapshot();
    for _ in 0..iters {
        let buf = scratch::take_f32(1000);
        assert_eq!(buf.len(), 1000);
    }
    let allocs = alloc_audit::thread_snapshot().since(s0).allocs;
    assert!(
        (allocs as f64) < 0.01 * iters as f64,
        "warm scratch checkouts made {allocs} allocations over {iters} iterations"
    );
}

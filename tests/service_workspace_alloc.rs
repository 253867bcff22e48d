//! Steady-state allocation pin for the service's default path: once warm,
//! a request served by the chunked primary performs **no large
//! allocations beyond its own buffers**. The default dispatcher runs the
//! chunked engine on one chunk, whose only table is the reduction vector
//! it returns, so the run allocates no chunk table at all.
//!
//! A counting global allocator tallies every allocation at or above a
//! threshold chosen so the interesting buffers (request values/labels,
//! output sums/reductions, any m-sized label map) all count while
//! incidental small allocations (queue nodes, join handles, strings) do
//! not. After warm-up, the per-request large-allocation budget is exactly
//! four: the two input vectors this test builds and the two output vectors
//! the engine must hand back. Anything above that means the default path
//! started allocating scratch of its own.

use multiprefix::op::Plus;
use multiprefix::serial::multiprefix_serial;
use multiprefix::service::{Reply, Request, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations of at least this many bytes are counted. An m-sized label
/// map for `m = 32768` is 128 KiB+; the request/output vectors are
/// 256 KiB each; typical bookkeeping allocations are far below 64 KiB.
const LARGE: usize = 64 * 1024;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter update has no other
// side effect and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn problem(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
    let values: Vec<i64> = (0..n as i64).map(|i| i % 101 - 50).collect();
    let labels: Vec<usize> = (0..n).map(|i| (i * 7919) % m).collect();
    (values, labels)
}

#[test]
fn steady_state_requests_allocate_only_their_own_buffers() {
    // One worker keeps the execution path deterministic; n = m would put
    // any chunk table in direct (m-sized) mode, large enough to count.
    let n = 32 * 1024;
    let m = n;
    let service = Service::new(
        Plus,
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");

    // Warm-up: first requests grow any queue/stack capacity the service
    // lazily grows. Correctness is checked against the serial oracle here,
    // outside the counted window.
    for _ in 0..4 {
        let (values, labels) = problem(n, m);
        let expect = multiprefix_serial(&values, &labels, m, Plus);
        let req = Request::multiprefix(values, labels, m);
        match service.submit(req).expect("admitted").wait().expect("ok") {
            Reply::Prefix(out) => assert_eq!(out, expect),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    // Steady state: per request, exactly 4 large allocations — values and
    // labels (built here), sums and reductions (the engine's output).
    // `Ticket::take` moves the reply out, so retrieval allocates nothing.
    const ROUNDS: usize = 8;
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        let (values, labels) = problem(n, m);
        let req = Request::multiprefix(values, labels, m);
        match service.submit(req).expect("admitted").take().expect("ok") {
            Reply::Prefix(out) => assert_eq!(out.sums.len(), n),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let delta = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta,
        4 * ROUNDS,
        "the default path allocated scratch: {delta} large allocations over {ROUNDS} requests"
    );
    drop(service);
}

//! Retention pin for the chunked engine's split tables: a service whose
//! dispatcher splits every request (`ExecConfig::threads`) allocates its
//! chunk tables per run, so one huge request must leave none of them live
//! once it has been answered — its memory is actually freed, as measured
//! with a counting global allocator. A control holds the huge reply and
//! sees its buffers, which proves the measurement would catch tables kept
//! past the run.
//!
//! The counter is process-wide, so everything runs in a single `#[test]`:
//! a concurrently running test's allocations would otherwise land in its
//! deltas.

use multiprefix::op::Plus;
use multiprefix::resilience::DispatcherConfig;
use multiprefix::serial::multiprefix_serial;
use multiprefix::service::{Reply, Request, Service, ServiceConfig};
use multiprefix::{ExecConfig, MultiprefixOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Only allocations at least this large are tracked: the huge request's
/// m-sized chunk tables are megabytes; bookkeeping allocations are not.
const LARGE: usize = 256 * 1024;

/// Net live bytes held by large allocations (alloc adds, dealloc
/// subtracts) — a release shows up as the counter falling back down.
static LIVE_LARGE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter updates have no
// other side effect and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LIVE_LARGE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= LARGE {
            LIVE_LARGE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if layout.size() >= LARGE {
            LIVE_LARGE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        if new_size >= LARGE {
            LIVE_LARGE_BYTES.fetch_add(new_size as isize, Ordering::Relaxed);
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

/// Serve one request of shape (n, m), check it against the serial oracle
/// and hand back the reply.
fn request(service: &Service<i64, Plus>, n: usize, m: usize) -> MultiprefixOutput<i64> {
    let (values, labels) = problem(n, m);
    let expect = multiprefix_serial(&values, &labels, m, Plus);
    let ticket = service.submit(Request::multiprefix(values, labels, m));
    match ticket.expect("admitted").take().expect("served") {
        Reply::Prefix(out) => {
            assert_eq!(out, expect);
            out
        }
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Huge enough that the split run's m-sized tables are megabytes; `n = m`
/// keeps them in direct (label-indexed, m-sized) mode: 12 bytes per label
/// each (an `i64` value and a `u32` epoch mark), about 18 MiB for the three
/// tables of a four-way split (the first chunk accumulates into the
/// output).
const HUGE: usize = 512 * 1024;
/// Small shape, one chunk (below `MIN_CHUNK_LEN` per worker), no tables.
const SMALL: usize = 4 * 1024;

#[test]
fn oversized_workspace_is_released_not_pinned() {
    // One worker serves requests in order, and four-way splits on every
    // host give the huge request its three chunk tables.
    let service = Service::new(
        Plus,
        ServiceConfig {
            workers: Some(1),
            dispatcher: DispatcherConfig {
                exec: ExecConfig::default().threads(4),
                ..DispatcherConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    drop(request(&service, SMALL, SMALL));

    let before = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
    let huge = request(&service, HUGE, HUGE);
    // Control: the held reply's sums and reductions are visible.
    let held = LIVE_LARGE_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        held >= (2 * HUGE * 8) as isize,
        "the counter must see the held reply, saw {held} bytes"
    );
    drop(huge);
    // The single worker answers this only after it has finished the huge
    // request's batch and dropped the request with it.
    drop(request(&service, SMALL, SMALL));

    // Everything the huge request allocated (inputs, outputs, chunk
    // tables) is dead again; allow slack for incidental retained growth
    // far below the tables' own footprint (~3 × HUGE × 12 bytes).
    let leaked = LIVE_LARGE_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        leaked < (HUGE * 8) as isize / 4,
        "huge request pinned {leaked} bytes past its lifetime"
    );
    drop(service);
}

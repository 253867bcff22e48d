//! High-water retention pin for [`WorkspacePool`]: one huge request must
//! not permanently pin megabytes of chunk tables in the pool. A workspace
//! grown past the pool's high-water budget is *released* on return (and
//! its memory actually freed — measured with a counting global
//! allocator), while a pool with the cap disabled
//! (`with_high_water(n, usize::MAX)`) demonstrably keeps it: the control
//! that proves the measurement would catch a pinning regression.
//!
//! The counter is process-wide, so both legs run one after the other in a
//! single `#[test]`: a concurrently running test's allocations would
//! otherwise land in the other leg's deltas.

use multiprefix::op::Plus;
use multiprefix::resilience::RunContext;
use multiprefix::serial::multiprefix_serial;
use multiprefix::{chunked, ExecConfig, WorkspacePool};
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

/// Run one pooled request of shape (n, m) against `pool` and check it
/// against the serial oracle. Four workers on every host, so the
/// workspace holds three label-indexed chunk tables (the first chunk
/// accumulates into the output) whatever the machine's core count.
fn pooled_request(pool: &WorkspacePool<i64>, n: usize, m: usize) {
    let (values, labels) = problem(n, m);
    let expect = multiprefix_serial(&values, &labels, m, Plus);
    let mut ws = pool.checkout();
    let got = chunked::try_multiprefix_chunked_ws_ctx(
        &values,
        &labels,
        m,
        Plus,
        ExecConfig::default().threads(4),
        &mut ws,
        &RunContext::new(),
    )
    .expect("chunked run failed")
    .expect("Wrap never trips");
    assert_eq!(got, expect);
}

/// Huge enough that the workspace's m-sized tables alone blow a 1 MiB
/// high-water budget; `n = m` keeps the tables in direct (label-indexed,
/// m-sized) mode: 12 bytes per label each (an `i64` value and a `u32`
/// epoch mark), about 18 MiB for the three tables.
const HUGE: usize = 512 * 1024;
/// Small steady-state shape whose workspace stays well under the budget.
const SMALL: usize = 4 * 1024;

#[test]
fn oversized_workspace_is_released_not_pinned() {
    capped_pool_releases_the_huge_workspace();
    uncapped_pool_demonstrably_pins_the_workspace();
}

fn capped_pool_releases_the_huge_workspace() {
    let pool: WorkspacePool<i64> = WorkspacePool::with_high_water(2, 1024 * 1024);

    // Steady state: a small workspace is pooled for reuse.
    pooled_request(&pool, SMALL, SMALL);
    assert_eq!(pool.idle(), 1, "small workspace must be retained");

    // One huge request: it checks out the warm workspace, grows it past
    // the budget, and the pool must *drop* it on return — leaving the
    // pool empty rather than pinning megabytes of chunk tables.
    let before = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
    pooled_request(&pool, HUGE, HUGE);
    let after = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
    assert_eq!(
        pool.idle(),
        0,
        "oversized workspace must be discarded on return, not pooled"
    );
    // Everything the huge request allocated (inputs, outputs, workspace)
    // is dead again; allow slack for incidental retained growth far below
    // the workspace's own footprint (~3 × HUGE × 12 bytes).
    let leaked = after - before;
    assert!(
        leaked < (HUGE * 8) as isize / 4,
        "huge request pinned {leaked} bytes past its lifetime"
    );

    // The retained small workspace still serves warm requests.
    pooled_request(&pool, SMALL, SMALL);
    assert_eq!(pool.idle(), 1);
}

/// Control: with the cap disabled the huge workspace *is* pooled and its
/// tables stay live — proving the measurement above would catch a
/// regression that stopped shrinking on return.
fn uncapped_pool_demonstrably_pins_the_workspace() {
    let pool: WorkspacePool<i64> = WorkspacePool::with_high_water(2, usize::MAX);

    let before = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
    pooled_request(&pool, HUGE, HUGE);
    let after = LIVE_LARGE_BYTES.load(Ordering::Relaxed);

    assert_eq!(pool.idle(), 1, "uncapped pool must retain the workspace");
    let pinned = after - before;
    // Three label-indexed tables, each an m-sized value array plus an
    // m-sized mark array: their live footprint must still be visible after
    // the request.
    assert!(
        pinned >= (3 * HUGE * 12) as isize,
        "expected the uncapped pool to pin the grown workspace, saw {pinned} bytes"
    );
}

//! A real allocation failure through the dispatcher: a global allocator
//! over [`System`] that, once armed, refuses the next allocation of at
//! least 1 MiB, once. This is the one real fault a second run on the same
//! engine could clear, and the next chain entry clears it instead.

use multiprefix::op::Plus;
use multiprefix::resilience::{DispatchOpts, Dispatcher, DispatcherConfig};
use multiprefix::{multiprefix, Engine, MemoryRecorder, MpError, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

const REFUSED_BYTES: usize = 1 << 20;

/// [`System`], except that an armed refusal fails the next allocation of
/// at least [`REFUSED_BYTES`].
struct RefusingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);

fn refuse(size: usize) -> bool {
    size >= REFUSED_BYTES && ARMED.swap(false, Ordering::SeqCst)
}

// SAFETY: delegates directly to `System`, or returns null, which the
// `GlobalAlloc` contract allows for a refused request (a refused `realloc`
// leaves the old block with its owner); the flag swap cannot allocate.
unsafe impl GlobalAlloc for RefusingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if refuse(layout.size()) {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if refuse(new_size) {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: RefusingAlloc = RefusingAlloc;

/// The tests share the one refusal flag, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

/// n = 2¹⁸ `i64` values: each engine's 2 MiB output is the request's first
/// allocation of at least 1 MiB.
fn problem() -> (Vec<i64>, Vec<usize>) {
    let n = 1 << 18;
    let values = (0..n as i64).map(|i| (i * 7) % 23 - 11).collect();
    let labels = (0..n).map(|i| (i * 31 + i / 7) % 64).collect();
    (values, labels)
}

fn recorded(cfg: DispatcherConfig) -> (Dispatcher, Arc<MemoryRecorder>) {
    let rec = MemoryRecorder::shared();
    let dispatcher = Dispatcher::new(cfg)
        .unwrap()
        .with_recorder(rec.clone() as Arc<dyn Recorder>);
    (dispatcher, rec)
}

#[test]
fn refused_allocation_falls_through_to_serial() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let (values, labels) = problem();
    let expect = multiprefix(&values, &labels, 64, Plus, Engine::Serial).unwrap();
    let (dispatcher, rec) = recorded(DispatcherConfig::default());
    ARMED.store(true, Ordering::SeqCst);
    let out = dispatcher
        .dispatch(&values, &labels, 64, Plus, &DispatchOpts::default())
        .unwrap();
    assert!(!ARMED.load(Ordering::SeqCst), "the refusal fired");
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Serial);
    assert_eq!((out.attempts, out.fallbacks), (2, 1));
    assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);

    // The next, unarmed request is served by the chunked engine on its
    // first attempt.
    let out = dispatcher
        .dispatch(&values, &labels, 64, Plus, &DispatchOpts::default())
        .unwrap();
    assert_eq!(out.output, expect);
    assert_eq!(out.engine, Engine::Chunked);
    assert_eq!((out.attempts, out.fallbacks), (1, 0));
}

#[test]
fn refused_allocation_ends_a_chunked_chain_after_one_attempt() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let (values, labels) = problem();
    let (dispatcher, rec) = recorded(DispatcherConfig {
        chain: vec![Engine::Chunked],
        ..DispatcherConfig::default()
    });
    ARMED.store(true, Ordering::SeqCst);
    let err = dispatcher
        .dispatch(&values, &labels, 64, Plus, &DispatchOpts::default())
        .unwrap_err();
    assert!(
        matches!(err, MpError::AllocationFailed { bytes } if bytes >= REFUSED_BYTES),
        "{err:?}"
    );
    assert_eq!(rec.counter_value("dispatch.chunked.attempts"), 1);

    // The next, unarmed request is served by the chunked engine on its
    // first attempt: nothing of the refusal carries over.
    let out = dispatcher
        .dispatch(&values, &labels, 64, Plus, &DispatchOpts::default())
        .unwrap();
    assert_eq!(
        out.output,
        multiprefix(&values, &labels, 64, Plus, Engine::Serial).unwrap()
    );
    assert_eq!(out.engine, Engine::Chunked);
    assert_eq!((out.attempts, out.fallbacks), (1, 0));
}

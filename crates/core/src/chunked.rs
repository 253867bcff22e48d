//! The two-level local/combine/apply engine: work-efficient parallel
//! multiprefix with per-chunk bucket tables.
//!
//! This is the multicore instance of the paper's §4 two-level decomposition.
//! There, the element vector is laid out as rows of length `p ≈ 0.749√n`;
//! each row computes its contribution independently and a spine pass
//! combines the row summaries. Here the "rows" are `p` contiguous chunks —
//! one per worker thread — and the operation runs in three phases:
//!
//! 1. **local** (parallel over chunks): each worker runs the serial
//!    (Figure 2) multiprefix over its chunk into its own bucket table, and a
//!    touched-label list records which of the `m` buckets this chunk
//!    actually saw. Per-chunk cost is `O(chunk_len + distinct_labels)` —
//!    **not** `O(m)` — so `m ≫ n` workloads pay for the labels present,
//!    never the label space;
//! 2. **combine** (sequential over chunks, `O(Σ distinct)` total): an
//!    exclusive scan per touched label across the chunk summaries, in chunk
//!    order. Associativity plus preserved order makes this correct for
//!    non-commutative operators; the running totals end as the global
//!    reductions;
//! 3. **apply** (parallel over chunks): one linear pass prepends each
//!    chunk's per-label offset: `sums[i] = offset(chunk, lᵢ) ⊕ local[i]`.
//!
//! The tables ([`ChunkSpace`]) are indexed by label while `chunks · m`
//! stays within a small multiple of `n` — one load per element in the local
//! phase and one in apply, as in the Figure 2 loop — and fall back to a
//! probed hash map when the label space dwarfs the data. There is no
//! cross-thread `fetch_add` traffic (unlike [`crate::atomic`]): every cache
//! line is written by exactly one worker until the (tiny) combine phase.
//! Each run **owns its tables**: a split run allocates one per chunk after
//! the first, and a one-chunk run none, since its table is the reduction
//! vector — the paper's `O(n + m)` space. Reuse is per shard task: a
//! [`crate::shard`] worker keeps one epoch-marked table across its tasks.
//!
//! The hardened entry points (`try_*`) thread the full execution contract
//! through all three phases: [`crate::exec::OverflowPolicy`] trip-and-replay
//! via `CheckGuard`, [`RunContext`] cancellation/deadline checkpoints at
//! phase boundaries and every [`crate::resilience::CHECK_STRIDE`] elements,
//! obs phase spans (`engine.chunked.phase.{local,combine,apply}`), and
//! chaos worker faults in the local phase.
//!
//! The local loop checks each label against `m` where it indexes its
//! table, so a bad label comes back as [`MpError::LabelOutOfRange`] at its
//! index in the whole vector and [`crate::api`] needs no separate
//! validation pass (except for `m == 1`, whose vector kernels never read a
//! label). Every [`ExecConfig`] entry — [`crate::Engine::Auto`], the
//! dispatcher and the service among them — runs one chunk unless
//! [`ExecConfig::threads`] is set (DESIGN §8, "The chunk count").

use crate::api::Engine;
use crate::error::MpError;
use crate::exec::{
    try_filled_vec, try_with_capacity, CheckGuard, ExecConfig, OverflowPolicy, TryEngineResult,
};
use crate::obs::{phase_key, Phase};
use crate::op::{CombineOp, TryCombineOp};
use crate::problem::{validate_lengths, Element, MultiprefixOutput};
use crate::resilience::{RunContext, CHECK_STRIDE};
use crate::shard::exscan::{exscan_parts, SummaryPart};
use crate::simd::{Kernel, Kernels};
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Minimum chunk length before the engine stops splitting: below this the
/// per-thread spawn cost outweighs the parallelism and the chunk count
/// collapses toward one (which runs inline on the caller's thread).
pub const MIN_CHUNK_LEN: usize = 4096;

/// The number of chunks (= workers) for an `n`-element run on `threads`
/// threads: one chunk per thread, but never chunks shorter than
/// [`MIN_CHUNK_LEN`].
fn chunk_count(n: usize, threads: usize) -> usize {
    threads.max(1).min(n.div_ceil(MIN_CHUNK_LEN)).max(1)
}

/// The combine abstraction the engine cores are generic over — this
/// engine's, the spinetree's phases and the atomic engine's: the plain
/// operator on the infallible path, a [`CheckGuard`] on the hardened path.
/// Keeping each core monomorphic over this avoids duplicating its phases
/// for the plain/try split.
pub(crate) trait Comb<T: Element>: Copy + Send + Sync {
    fn identity(&self) -> T;
    fn combine(&self, a: T, b: T) -> T;
    /// The recognized vector-kernel class for this combine, when engaging
    /// it is bit-exact for this run ([`crate::op::CombineOp::KERNEL`],
    /// vetoed by checked/saturating policies and
    /// [`crate::ExecConfig::force_scalar`]). `None` keeps every phase on
    /// the scalar loops.
    fn kernel(&self) -> Option<Kernel> {
        None
    }
    /// Whether the opt-in `f32` kernel is admitted
    /// ([`crate::ExecConfig::simd_f32`]).
    fn allow_f32(&self) -> bool {
        false
    }
    /// `len` copies of the identity — the `m`-sized reduction vector here,
    /// and the spinetree's pivot blocks; this engine writes its element
    /// output once into uninitialized capacity instead ([`run_prefix`]).
    /// Fallible ([`try_filled_vec`]) on the hardened path.
    fn identity_vec(&self, len: usize) -> Result<Vec<T>, MpError> {
        try_filled_vec(self.identity(), len)
    }
}

/// Resolve the vector-kernel table for this run, or `None` for scalar.
#[inline]
pub(crate) fn comb_kernels<T: Element, C: Comb<T>>(comb: C) -> Option<&'static Kernels<T>> {
    comb.kernel()
        .and_then(|k| crate::simd::kernels::<T>(k, comb.allow_f32()))
}

/// Plain (unchecked) combine for the infallible entry points.
#[derive(Clone, Copy)]
pub(crate) struct PlainComb<O>(pub(crate) O);

impl<T: Element, O: CombineOp<T>> Comb<T> for PlainComb<O> {
    #[inline(always)]
    fn identity(&self) -> T {
        self.0.identity()
    }
    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        self.0.combine(a, b)
    }
    #[inline(always)]
    fn kernel(&self) -> Option<Kernel> {
        O::KERNEL
    }
    /// The plain path allocates with `vec!`, which hands an all-zero
    /// identity to `calloc`: when `m ≫ n`, most reduction slots belong to
    /// labels the run never touches, and fresh zero pages leave those
    /// pages unwritten where a fill pass would write every one (the same
    /// holds for the spinetree's pivot blocks). An allocation it cannot
    /// make aborts, as `vec!` does.
    fn identity_vec(&self, len: usize) -> Result<Vec<T>, MpError> {
        Ok(vec![self.0.identity(); len])
    }
}

impl<T: Element, O: TryCombineOp<T>> Comb<T> for CheckGuard<'_, O> {
    #[inline(always)]
    fn identity(&self) -> T {
        CheckGuard::identity(self)
    }
    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        CheckGuard::combine(self, a, b)
    }
    #[inline(always)]
    fn kernel(&self) -> Option<Kernel> {
        if self.simd_ok() {
            O::KERNEL
        } else {
            None
        }
    }
    #[inline(always)]
    fn allow_f32(&self) -> bool {
        CheckGuard::allow_f32(self)
    }
}

/// Fallibly grow `v` to at least `len`, filling new space with `fill`.
fn try_grow<U: Element>(v: &mut Vec<U>, len: usize, fill: U) -> Result<(), MpError> {
    if v.len() < len {
        let additional = len - v.len();
        v.try_reserve(additional)
            .map_err(|_| MpError::AllocationFailed {
                bytes: additional.saturating_mul(std::mem::size_of::<U>()),
            })?;
        v.resize(len, fill);
    }
    Ok(())
}

/// Fibonacci hash of a label into the probed map's power-of-two table.
#[inline(always)]
fn hash_label(l: usize) -> usize {
    ((l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
}

/// The label → bucket-index half of a [`ChunkSpace`], plus the
/// touched-label list in first-touch order.
#[derive(Default)]
struct LabelMap {
    // Direct mode: a label is its own index; it is live iff
    // mark[label] == epoch.
    mark: Vec<u32>,
    epoch: u32,
    // Probed mode: open-addressed keys (usize::MAX = empty) -> slot.
    keys: Vec<usize>,
    slots: Vec<u32>,
    mask: usize,
    direct: bool,
    // Both modes.
    touched: Vec<usize>,
}

impl LabelMap {
    /// Direct-mode lookup: the label's index (the label itself), and
    /// whether this is its first touch in the run.
    #[inline(always)]
    fn locate_direct(&mut self, label: usize) -> (usize, bool) {
        let fresh = self.mark[label] != self.epoch;
        if fresh {
            self.mark[label] = self.epoch;
            self.touched.push(label);
        }
        (label, fresh)
    }

    /// Probed-mode lookup: the label's compact slot (its position in the
    /// touched list), and whether this is its first touch in the run.
    #[inline(always)]
    fn locate_probed(&mut self, label: usize) -> (usize, bool) {
        let mut j = hash_label(label) & self.mask;
        loop {
            let k = self.keys[j];
            if k == label {
                return (self.slots[j] as usize, false);
            }
            if k == usize::MAX {
                let slot = self.touched.len();
                self.keys[j] = label;
                self.slots[j] = slot as u32;
                self.touched.push(label);
                return (slot, true);
            }
            j = (j + 1) & self.mask;
        }
    }

    /// The index of a label already located in this run (apply phase).
    #[inline]
    fn slot(&self, label: usize) -> usize {
        if self.direct {
            debug_assert_eq!(self.mark[label], self.epoch, "label not in chunk table");
            return label;
        }
        let mut j = hash_label(label) & self.mask;
        loop {
            if self.keys[j] == label {
                return self.slots[j] as usize;
            }
            debug_assert_ne!(self.keys[j], usize::MAX, "label not in chunk table");
            j = (j + 1) & self.mask;
        }
    }
}

/// One chunk's label table: per-label values plus a touched-label list in
/// first-touch order.
///
/// Two layouts, chosen per run:
///
/// * **direct** — `vals` is indexed by label (`m` entries), and
///   `mark[label] == epoch` says the entry belongs to the current use.
///   Bumping the epoch invalidates every stale entry without touching
///   memory, so a reused table resets in `O(1)` and the `m`-sized arrays are
///   written once, when first grown to a given `m`, not per use: a shard
///   worker reuses one space across its `Scan` and `Apply` tasks. An element
///   costs one mark test and one `vals[label]` access, like Figure 2's
///   bucket loop;
/// * **probed** — an open-addressed, linear-probe map from label to a
///   compact slot, sized to twice the chunk's maximum distinct-label count
///   (`≤ 50%` load, so probes are short and insertion cannot fail); `vals`
///   is slot-indexed, parallel to the touched list. Used when `m` is large
///   relative to `n` and the direct arrays would dwarf the data.
///
/// Either way the per-use work is `O(elements + distinct)`, never `O(m)`,
/// and a first touch reads the identity instead of the (stale) entry, so
/// `vals` is never cleared between uses.
pub struct ChunkSpace<T> {
    map: LabelMap,
    pub(crate) vals: Vec<T>,
}

impl<T> Default for ChunkSpace<T> {
    fn default() -> Self {
        ChunkSpace {
            map: LabelMap::default(),
            vals: Vec::new(),
        }
    }
}

impl<T> std::fmt::Debug for ChunkSpace<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkSpace")
            .field("direct", &self.map.direct)
            .field("touched", &self.map.touched.len())
            .field(
                "map_capacity",
                &self.map.mark.len().max(self.map.keys.len()),
            )
            .finish()
    }
}

impl<T: Element> ChunkSpace<T> {
    /// Prepare the space for one run: clear the touched list and
    /// (re)validate the table. `distinct_cap` bounds the number of distinct
    /// labels this use can see (chunk length, or `m`, whichever is smaller);
    /// `identity` fills newly grown entries. Self-healing: a space abandoned
    /// mid-run by a panic is fully reset here.
    pub(crate) fn begin_use(
        &mut self,
        m: usize,
        distinct_cap: usize,
        direct: bool,
        identity: T,
    ) -> Result<(), MpError> {
        let map = &mut self.map;
        map.touched.clear();
        map.direct = direct;
        if direct {
            try_grow(&mut map.mark, m, 0)?;
            try_grow(&mut self.vals, m, identity)?;
            map.epoch = map.epoch.wrapping_add(1);
            if map.epoch == 0 {
                // Epoch wrapped: stale stamps could collide. Reset once per
                // 2³² uses.
                map.mark.fill(0);
                map.epoch = 1;
            }
        } else {
            let cap = distinct_cap
                .max(1)
                .saturating_mul(2)
                .next_power_of_two()
                .max(16);
            try_grow(&mut map.keys, cap, usize::MAX)?;
            try_grow(&mut map.slots, cap, 0)?;
            // Memset (not epoch) clearing keeps the probed map panic-safe:
            // no state from an abandoned run can alias a live label.
            map.keys[..cap].fill(usize::MAX);
            map.mask = cap - 1;
            try_grow(&mut self.vals, distinct_cap, identity)?;
        }
        Ok(())
    }

    /// The `vals` index for `label`, setting its entry to `identity` on
    /// first sight.
    #[inline]
    pub(crate) fn slot_or_insert(&mut self, label: usize, identity: T) -> usize {
        let (slot, fresh) = if self.map.direct {
            self.map.locate_direct(label)
        } else {
            self.map.locate_probed(label)
        };
        if fresh {
            self.vals[slot] = identity;
        }
        slot
    }

    /// The touched labels, and their values parallel to them, moved out of
    /// the space (`O(distinct)`): the compact summary the sharded engine
    /// ships between phases.
    pub(crate) fn take_summary(&mut self) -> (Vec<usize>, Vec<T>) {
        let touched = std::mem::take(&mut self.map.touched);
        let vals = if self.map.direct {
            touched.iter().map(|&l| self.vals[l]).collect()
        } else {
            self.vals[..touched.len()].to_vec()
        };
        (touched, vals)
    }
}

impl<T: Element> SummaryPart<T> for ChunkSpace<T> {
    fn summary(&mut self) -> (&[usize], &mut [T], bool) {
        (&self.map.touched, &mut self.vals, self.map.direct)
    }
}

/// Split `n > 0` elements into at most `parts` chunks and prepare a table
/// for every chunk after the first (fallible allocation surfaces here,
/// before any thread spawns). Returns the chunk length and those tables,
/// which the run owns: a one-chunk run gets none.
fn begin_chunks<T: Element>(
    n: usize,
    m: usize,
    parts: usize,
    identity: T,
) -> Result<(usize, Vec<ChunkSpace<T>>), MpError> {
    let chunk_len = n.div_ceil(parts.clamp(1, n));
    let tables = n.div_ceil(chunk_len) - 1;
    let direct = use_direct(tables, n, m);
    let spaces = (0..tables)
        .map(|_| {
            let mut space = ChunkSpace::default();
            space.begin_use(m, chunk_len.min(m), direct, identity)?;
            Ok(space)
        })
        .collect::<Result<_, MpError>>()?;
    Ok((chunk_len, spaces))
}

/// Direct (label-indexed) tables are admitted while `tables` `m`-sized
/// arrays stay within a small multiple of the data we already hold.
pub(crate) fn use_direct(tables: usize, n: usize, m: usize) -> bool {
    tables.saturating_mul(m) <= 8 * n.max(1) + 1024
}

/// The vector kernels for a run, when it has a single label class: then the
/// local scan and the apply prepend degenerate to plain prefix operations
/// the simd kernels implement bit-exactly. Multi-bucket tables stay scalar
/// (see DESIGN §12).
pub(crate) fn single_label_kernels<T: Element, C: Comb<T>>(
    m: usize,
    comb: C,
) -> Option<&'static Kernels<T>> {
    if m == 1 {
        comb_kernels::<T, C>(comb)
    } else {
        None
    }
}

/// One chunk's local-phase table. The first chunk accumulates straight into
/// the reduction vector: its totals seed the combine scan and its offsets
/// are all the identity, so it needs no marks, no touched list and no apply
/// pass. Every later chunk gets its own [`ChunkSpace`].
enum Table<'a, T> {
    Output(&'a mut [T]),
    Space(&'a mut ChunkSpace<T>),
}

/// The local phase over one chunk. `worker` indexes the chunk for chaos
/// injection.
fn local_pass<T: Element, C: Comb<T>>(
    table: Table<'_, T>,
    sums: Option<&mut [MaybeUninit<T>]>,
    input: Input<'_, T>,
    comb: C,
    fast: Option<&'static Kernels<T>>,
    ctx: &RunContext,
    worker: usize,
) -> Result<(), MpError> {
    // The chunk-worker chaos checkpoint: a targeted plan can panic or stall
    // this worker, exercising the engine's containment (the panic unwinds
    // through the scope join into the engine's catch_unwind).
    if let Some(chaos) = ctx.chaos() {
        chaos.inject_chunk_worker(worker, ctx.deadline());
    }
    match table {
        Table::Output(vals) => fold(vals, |l| (l, false), sums, input, comb, fast, ctx),
        Table::Space(space) => fold_space(space, sums, input, comb, fast, ctx),
    }
}

/// The local loop over one span into its own table: [`fold`]'s direct or
/// probed arm, by the table's layout — one monomorphic loop per layout, no
/// per-element mode branch. The later chunks of a chunked run and the
/// shard workers' `Scan` and `Apply` tasks all run it; a table seeded with
/// per-label offsets before the call makes `sums` the span's final prefix
/// sums.
pub(crate) fn fold_space<T: Element, C: Comb<T>>(
    space: &mut ChunkSpace<T>,
    sums: Option<&mut [MaybeUninit<T>]>,
    input: Input<'_, T>,
    comb: C,
    fast: Option<&'static Kernels<T>>,
    ctx: &RunContext,
) -> Result<(), MpError> {
    let ChunkSpace { map, vals } = space;
    if map.direct {
        fold(vals, |l| map.locate_direct(l), sums, input, comb, fast, ctx)
    } else {
        fold(vals, |l| map.locate_probed(l), sums, input, comb, fast, ctx)
    }
}

/// One span's input: its values and labels, the label bound `m`, and the
/// span's first element index in the whole vector.
#[derive(Clone, Copy)]
pub(crate) struct Input<'a, T> {
    pub(crate) values: &'a [T],
    pub(crate) labels: &'a [usize],
    pub(crate) m: usize,
    pub(crate) base: usize,
}

/// The error for `label` at chunk-local index `i`, reported at its index
/// in the whole vector.
#[cold]
fn bad_label<T>(input: &Input<'_, T>, i: usize, label: usize) -> MpError {
    MpError::LabelOutOfRange {
        index: input.base + i,
        label,
        m: input.m,
    }
}

/// The serial (Figure 2) loop over one chunk into `vals`: writes each
/// element's chunk-local exclusive prefix into `sums` — or, for a
/// reduce-only run (`sums` is `None`), only the per-label totals.
/// `locate` maps a label to its `vals` index and reports a first touch,
/// whose stale entry is read as the identity.
///
/// `sums` may be uninitialized and must be as long as `values` and
/// `labels`: an `Ok` return means every slot of it was written, once.
/// Every loop here walks [`CHECK_STRIDE`]-element blocks and polls `ctx`
/// once at each block start, the indices where `checkpoint_every` fires.
///
/// The scalar loops check `label < m` where they index the table, so a bad
/// label is an [`MpError::LabelOutOfRange`] at its global index, not an
/// out-of-bounds panic, and callers need no separate validation pass. The
/// single-label kernels never read a label: with `m == 1` the caller
/// validates.
#[inline(always)]
fn fold<T: Element, C: Comb<T>>(
    vals: &mut [T],
    mut locate: impl FnMut(usize) -> (usize, bool),
    sums: Option<&mut [MaybeUninit<T>]>,
    input: Input<'_, T>,
    comb: C,
    fast: Option<&'static Kernels<T>>,
    ctx: &RunContext,
) -> Result<(), MpError> {
    let Input {
        values, labels, m, ..
    } = input;
    let id = comb.identity();
    // Single-label fast path (`fast` is only `Some` when `m == 1`, so
    // every label is 0): the whole chunk is one exclusive scan (or
    // reduction) with the bucket value as carry.
    if let Some(tbl) = fast {
        if !values.is_empty() {
            let (s, fresh) = locate(0);
            let mut acc = if fresh { id } else { vals[s] };
            match sums {
                Some(sums) => {
                    let blocks = sums
                        .chunks_mut(CHECK_STRIDE)
                        .zip(values.chunks(CHECK_STRIDE));
                    for (out, values) in blocks {
                        ctx.checkpoint()?;
                        acc = (tbl.excl_scan_into)(values, out, acc);
                    }
                }
                None => {
                    for values in values.chunks(CHECK_STRIDE) {
                        ctx.checkpoint()?;
                        acc = (tbl.reduce)(acc, values);
                    }
                }
            }
            vals[s] = acc;
        }
        return Ok(());
    }
    let inputs = values.chunks(CHECK_STRIDE).zip(labels.chunks(CHECK_STRIDE));
    match sums {
        Some(sums) => {
            for (b, (sums, (values, labels))) in
                sums.chunks_mut(CHECK_STRIDE).zip(inputs).enumerate()
            {
                ctx.checkpoint()?;
                let base = b * CHECK_STRIDE;
                for (i, ((si, &v), &l)) in sums.iter_mut().zip(values).zip(labels).enumerate() {
                    if l >= m {
                        return Err(bad_label(&input, base + i, l));
                    }
                    let (s, fresh) = locate(l);
                    let acc = if fresh { id } else { vals[s] };
                    si.write(acc);
                    vals[s] = comb.combine(acc, v);
                }
            }
        }
        None => {
            for (b, (values, labels)) in inputs.enumerate() {
                ctx.checkpoint()?;
                let base = b * CHECK_STRIDE;
                for (i, (&v, &l)) in values.iter().zip(labels).enumerate() {
                    if l >= m {
                        return Err(bad_label(&input, base + i, l));
                    }
                    let (s, fresh) = locate(l);
                    let acc = if fresh { id } else { vals[s] };
                    vals[s] = comb.combine(acc, v);
                }
            }
        }
    }
    Ok(())
}

/// The apply phase over (a piece of) one chunk: prepend the chunk's
/// per-label offsets, polling `ctx` once per [`CHECK_STRIDE`] block.
fn apply_pass<T: Element, C: Comb<T>>(
    space: &ChunkSpace<T>,
    sums: &mut [T],
    labels: &[usize],
    comb: C,
    fast: Option<&'static Kernels<T>>,
    ctx: &RunContext,
) -> Result<(), MpError> {
    let ChunkSpace { map, vals } = space;
    // Single-label fast path: one offset prepended across the chunk.
    if let Some(tbl) = fast {
        if !sums.is_empty() {
            let acc = vals[map.slot(0)];
            for block in sums.chunks_mut(CHECK_STRIDE) {
                ctx.checkpoint()?;
                (tbl.combine_broadcast)(acc, block);
            }
        }
        return Ok(());
    }
    let blocks = sums
        .chunks_mut(CHECK_STRIDE)
        .zip(labels.chunks(CHECK_STRIDE));
    if map.direct {
        for (sums, labels) in blocks {
            ctx.checkpoint()?;
            for (si, &l) in sums.iter_mut().zip(labels) {
                *si = comb.combine(vals[l], *si);
            }
        }
    } else {
        for (sums, labels) in blocks {
            ctx.checkpoint()?;
            for (si, &l) in sums.iter_mut().zip(labels) {
                *si = comb.combine(vals[map.slot(l)], *si);
            }
        }
    }
    Ok(())
}

/// Run `f` over every item, the first on the caller's thread and the rest
/// on scoped threads. Worker panics are re-raised on the caller's thread
/// (the hardened entry points contain them); worker errors surface as the
/// first `Err` in item order.
fn run_chunks<I, F>(items: Vec<I>, f: F) -> Result<(), MpError>
where
    I: Send,
    F: Fn(usize, I) -> Result<(), MpError> + Sync,
{
    let f = &f;
    let mut items = items.into_iter().enumerate();
    let Some((first_idx, first)) = items.next() else {
        return Ok(());
    };
    let results: Vec<Result<(), MpError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .map(|(idx, item)| scope.spawn(move || f(idx, item)))
            .collect();
        let first = f(first_idx, first);
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            }))
            .collect()
    });
    results.into_iter().collect()
}

/// The engine core: all three phases, generic over the combine wrapper.
/// `pub(crate)` so the sharded supervisor can degrade to single-node
/// chunked execution without re-wrapping the public API.
///
/// `sums` is reserved uninitialized and the local pass writes each slot
/// once, so unequal `values`/`labels` lengths are rejected first
/// ([`MpError::LengthMismatch`]): a short `labels` would end a chunk's loop
/// before its last slot.
pub(crate) fn run_prefix<T: Element, C: Comb<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    comb: C,
    parts: usize,
    ctx: &RunContext,
) -> Result<MultiprefixOutput<T>, MpError> {
    validate_lengths(values.len(), labels.len())?;
    ctx.checkpoint()?;
    let n = values.len();
    let mut reductions = comb.identity_vec(m)?;
    if n == 0 {
        return Ok(MultiprefixOutput {
            sums: Vec::new(),
            reductions,
        });
    }
    let mut sums = try_with_capacity(n)?;
    let fast = single_label_kernels(m, comb);
    if let Some(rec) = ctx.recorder() {
        rec.event(
            phase_key(Engine::Chunked, Phase::Local),
            if fast.is_some() {
                "kernel=simd"
            } else {
                "kernel=scalar"
            },
        );
    }

    // Phase 1 — local: each chunk runs its serial multiprefix on its own
    // thread.
    let local_span = ctx.phase_span(Phase::Local);
    let (chunk_len, mut spaces) = begin_chunks(n, m, parts, comb.identity())?;
    let tables = std::iter::once(Table::Output(&mut reductions[..]))
        .chain(spaces.iter_mut().map(Table::Space));
    let items: Vec<_> = tables
        .zip(sums.spare_capacity_mut()[..n].chunks_mut(chunk_len))
        .zip(values.chunks(chunk_len).zip(labels.chunks(chunk_len)))
        .collect();
    run_chunks(items, |idx, ((table, s), (values, labels))| {
        let input = Input {
            values,
            labels,
            m,
            base: idx * chunk_len,
        };
        local_pass(table, Some(s), input, comb, fast, ctx, idx)
    })?;
    // SAFETY: `sums` has capacity `n`, and its first `n` slots were cut
    // into one piece per chunk, each as long as that chunk of `values` and
    // of `labels` (equal lengths, checked above). A local pass that
    // returns `Ok` has written every slot of its piece, and `run_chunks`
    // returns `Ok` only when every chunk's pass did. An `Err` or a panic
    // leaves this function above, with `sums` still at length 0.
    unsafe { sums.set_len(n) };
    drop(local_span);

    // Phase 2 — combine: the shared exscan-over-summaries primitive
    // ([`crate::shard::exscan`]), seeded with the first chunk's totals: an
    // exclusive scan per touched label across the later chunks' summaries,
    // in chunk order; the running totals end as the reductions.
    ctx.checkpoint()?;
    {
        let _span = ctx.phase_span(Phase::Combine);
        exscan_parts(&mut spaces, &mut reductions, comb, ctx)?;
    }

    // Phase 3 — apply: prepend each later chunk's offsets in one linear
    // pass, cut into one piece per worker so every worker shares it.
    ctx.checkpoint()?;
    {
        let _span = ctx.phase_span(Phase::Apply);
        let piece = (n - chunk_len).div_ceil(spaces.len() + 1).max(1);
        let items: Vec<_> = spaces
            .iter()
            .zip(
                sums.chunks_mut(chunk_len)
                    .zip(labels.chunks(chunk_len))
                    .skip(1),
            )
            .flat_map(|(space, (s, l))| {
                s.chunks_mut(piece)
                    .zip(l.chunks(piece))
                    .map(move |part| (space, part))
            })
            .collect();
        run_chunks(items, |_, (space, (s, l))| {
            apply_pass(space, s, l, comb, fast, ctx)
        })?;
    }
    Ok(MultiprefixOutput { sums, reductions })
}

/// The reduce-only core: the local phase without element output, then the
/// combine scan, whose running totals are the reductions (no apply phase).
fn run_reduce<T: Element, C: Comb<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    comb: C,
    parts: usize,
    ctx: &RunContext,
) -> Result<Vec<T>, MpError> {
    validate_lengths(values.len(), labels.len())?;
    ctx.checkpoint()?;
    let n = values.len();
    let mut reductions = comb.identity_vec(m)?;
    if n == 0 {
        return Ok(reductions);
    }
    let fast = single_label_kernels(m, comb);
    let local_span = ctx.phase_span(Phase::Local);
    let (chunk_len, mut spaces) = begin_chunks(n, m, parts, comb.identity())?;
    let tables = std::iter::once(Table::Output(&mut reductions[..]))
        .chain(spaces.iter_mut().map(Table::Space));
    let items: Vec<_> = tables
        .zip(values.chunks(chunk_len).zip(labels.chunks(chunk_len)))
        .collect();
    run_chunks(items, |idx, (table, (values, labels))| {
        let input = Input {
            values,
            labels,
            m,
            base: idx * chunk_len,
        };
        local_pass(table, None, input, comb, fast, ctx, idx)
    })?;
    drop(local_span);
    ctx.checkpoint()?;
    let _span = ctx.phase_span(Phase::Combine);
    exscan_parts(&mut spaces, &mut reductions, comb, ctx)?;
    Ok(reductions)
}

/// A plain entry's result: an engine error there is a broken precondition
/// (unequal lengths, a label `>= m`) or a failed allocation, raised as a
/// panic whose message names the engine and the error.
pub(crate) fn expect_plain<R>(engine: Engine, result: Result<R, MpError>) -> R {
    result.unwrap_or_else(|e| panic!("{engine} engine: {e}"))
}

/// The chunk count of every [`ExecConfig`] entry: one chunk, unless
/// [`ExecConfig::threads`] is set (DESIGN §8, "The chunk count").
fn default_parts(n: usize, cfg: ExecConfig) -> usize {
    chunk_count(n, cfg.threads.unwrap_or(1))
}

/// The chunked run behind [`crate::api::multiprefix`]: the plain combine
/// on one chunk (the [`ExecConfig`] rule), with out-of-range labels
/// reported as errors (for `m != 1`; see [`fold`]).
pub(crate) fn prefix<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> Result<MultiprefixOutput<T>, MpError> {
    run_prefix(values, labels, m, PlainComb(op), 1, &RunContext::new())
}

/// [`prefix`] for [`crate::api::multireduce`].
pub(crate) fn reduce<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> Result<Vec<T>, MpError> {
    run_reduce(values, labels, m, PlainComb(op), 1, &RunContext::new())
}

/// Chunked multiprefix with the default thread count (available
/// parallelism). Preconditions as elsewhere (validated by
/// [`crate::api::multiprefix`]): equal lengths, labels `< m`.
///
/// # Panics
///
/// If `values` and `labels` differ in length (the message names both
/// lengths), or, for `m != 1`, on a label `>= m`. The same holds for every
/// plain entry below.
pub fn multiprefix_chunked<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> MultiprefixOutput<T> {
    multiprefix_chunked_with_threads(
        values,
        labels,
        m,
        op,
        ExecConfig::default().effective_threads(),
    )
}

/// [`multiprefix_chunked`] on exactly `threads` workers (still subject to
/// [`MIN_CHUNK_LEN`]: tiny inputs collapse to one inline chunk).
pub fn multiprefix_chunked_with_threads<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    threads: usize,
) -> MultiprefixOutput<T> {
    multiprefix_chunked_with_parts(values, labels, m, op, chunk_count(values.len(), threads))
}

/// [`multiprefix_chunked`] split into exactly `parts` chunks (clamped to
/// `[1, n]`), bypassing [`MIN_CHUNK_LEN`] — the tuning knob the
/// chunks-per-thread bench sweep turns, and the way tests force multi-chunk
/// execution on small inputs.
pub fn multiprefix_chunked_with_parts<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    parts: usize,
) -> MultiprefixOutput<T> {
    expect_plain(
        Engine::Chunked,
        run_prefix(values, labels, m, PlainComb(op), parts, &RunContext::new()),
    )
}

/// Chunked multireduce: per-label reductions only, on one chunk, as
/// [`crate::multireduce`] runs it.
pub fn multireduce_chunked<T: Element, O: CombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
) -> Vec<T> {
    expect_plain(Engine::Chunked, reduce(values, labels, m, op))
}

/// Hardened chunked multiprefix (see [`crate::exec`] for the contract):
/// fallible allocation, guarded combines under a checking
/// [`OverflowPolicy`] (a trip yields `Ok(None)` and the caller replays the
/// serial engine), and panic containment for the whole engine body
/// including its scoped workers.
///
/// Unequal `values`/`labels` lengths are [`MpError::LengthMismatch`]. A
/// label `>= m` is reported as [`MpError::LabelOutOfRange`] with its
/// index in the whole vector — except when `m == 1`, where the vector
/// kernels never read a label: there every label must be `0`, as
/// [`crate::api::try_multiprefix`] checks before it calls the engine.
/// The same holds for every `try_*` entry below.
pub fn try_multiprefix_chunked<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
) -> TryEngineResult<MultiprefixOutput<T>> {
    try_multiprefix_chunked_ctx(values, labels, m, op, policy, &RunContext::new())
}

/// [`try_multiprefix_chunked`] under a [`RunContext`]: the context is
/// polled at phase boundaries and every
/// [`crate::resilience::CHECK_STRIDE`] elements (chunk-locally in the
/// parallel phases), and its chaos stream's worker faults fire at each
/// local-phase worker's entry.
pub fn try_multiprefix_chunked_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<T>> {
    try_multiprefix_chunked_cfg_ctx(
        values,
        labels,
        m,
        op,
        ExecConfig::default().overflow(policy),
        ctx,
    )
}

/// [`try_multiprefix_chunked_ctx`] taking the policy *and* chunk count
/// from an [`ExecConfig`]: one chunk unless [`ExecConfig::threads`] is
/// set.
pub fn try_multiprefix_chunked_cfg_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
    ctx: &RunContext,
) -> TryEngineResult<MultiprefixOutput<T>> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let tripped = AtomicBool::new(false);
        let guard = CheckGuard::new(op, cfg.overflow, &tripped)
            .with_simd_opts(cfg.force_scalar, cfg.simd_f32);
        let out = run_prefix(
            values,
            labels,
            m,
            guard,
            default_parts(values.len(), cfg),
            ctx,
        )?;
        if tripped.load(Ordering::Relaxed) {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }));
    // AssertUnwindSafe is sound: on panic the partially-built output and
    // the run's chunk tables die inside the closure.
    caught.unwrap_or(Err(MpError::EnginePanicked))
}

/// Hardened chunked multireduce. Same contract as
/// [`try_multiprefix_chunked`]; as with every parallel engine, a checking
/// policy is canonicalized by the *caller* (dispatcher / API) replaying
/// serially.
pub fn try_multireduce_chunked<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
) -> TryEngineResult<Vec<T>> {
    try_multireduce_chunked_ctx(values, labels, m, op, policy, &RunContext::new())
}

/// [`try_multireduce_chunked`] under a [`RunContext`].
pub fn try_multireduce_chunked_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    policy: OverflowPolicy,
    ctx: &RunContext,
) -> TryEngineResult<Vec<T>> {
    try_multireduce_chunked_cfg_ctx(
        values,
        labels,
        m,
        op,
        ExecConfig::default().overflow(policy),
        ctx,
    )
}

/// [`try_multireduce_chunked_ctx`] with policy and chunk count from an
/// [`ExecConfig`].
pub fn try_multireduce_chunked_cfg_ctx<T: Element, O: TryCombineOp<T>>(
    values: &[T],
    labels: &[usize],
    m: usize,
    op: O,
    cfg: ExecConfig,
    ctx: &RunContext,
) -> TryEngineResult<Vec<T>> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let tripped = AtomicBool::new(false);
        let guard = CheckGuard::new(op, cfg.overflow, &tripped)
            .with_simd_opts(cfg.force_scalar, cfg.simd_f32);
        let red = run_reduce(
            values,
            labels,
            m,
            guard,
            default_parts(values.len(), cfg),
            ctx,
        )?;
        if tripped.load(Ordering::Relaxed) {
            Ok(None)
        } else {
            Ok(Some(red))
        }
    }));
    caught.unwrap_or(Err(MpError::EnginePanicked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Max, Plus};
    use crate::serial::{multiprefix_serial, multireduce_serial};

    fn mixed_input(n: usize, m: usize) -> (Vec<i64>, Vec<usize>) {
        let values = (0..n).map(|i| (i as i64 * 37 % 101) - 50).collect();
        let labels = (0..n).map(|i| (i * 7 + i / 13) % m.max(1)).collect();
        (values, labels)
    }

    #[test]
    fn matches_serial_small() {
        let (values, labels) = mixed_input(100, 7);
        assert_eq!(
            multiprefix_chunked(&values, &labels, 7, Plus),
            multiprefix_serial(&values, &labels, 7, Plus)
        );
    }

    #[test]
    fn matches_serial_multi_chunk() {
        let (values, labels) = mixed_input(50_000, 97);
        assert_eq!(
            multiprefix_chunked_with_threads(&values, &labels, 97, Plus, 7),
            multiprefix_serial(&values, &labels, 97, Plus)
        );
    }

    #[test]
    fn every_part_count_is_correct() {
        let (values, labels) = mixed_input(10_000, 23);
        let expect = multiprefix_serial(&values, &labels, 23, Plus);
        for parts in [1usize, 2, 3, 5, 16, 100, 9_999, 10_000, 20_000] {
            assert_eq!(
                multiprefix_chunked_with_parts(&values, &labels, 23, Plus, parts),
                expect,
                "parts {parts}"
            );
        }
    }

    #[test]
    fn probed_tables_when_m_dwarfs_n() {
        // m >> n forces the probed (open-addressed) label maps.
        let n = 5_000;
        let m = 1_000_000;
        let values: Vec<i64> = (0..n as i64).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 104_729) % m).collect();
        assert_eq!(
            multiprefix_chunked_with_parts(&values, &labels, m, Plus, 4),
            multiprefix_serial(&values, &labels, m, Plus)
        );
    }

    #[test]
    fn noncommutative_across_chunk_boundaries() {
        let n = 30_000;
        let values: Vec<(i32, i32)> = (0..n as i32).map(|i| (i, i)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 5).collect();
        assert_eq!(
            multiprefix_chunked_with_threads(&values, &labels, 5, FirstLast, 6),
            multiprefix_serial(&values, &labels, 5, FirstLast)
        );
    }

    #[test]
    fn max_identity_for_absent_labels() {
        let (values, labels) = mixed_input(10_000, 3);
        let out = multiprefix_chunked(&values, &labels, 10, Max);
        assert_eq!(out, multiprefix_serial(&values, &labels, 10, Max));
        assert_eq!(out.reductions[9], i64::MIN);
    }

    #[test]
    fn empty_and_single() {
        let out = multiprefix_chunked::<i64, _>(&[], &[], 4, Plus);
        assert!(out.sums.is_empty());
        assert_eq!(out.reductions, vec![0; 4]);
        let out = multiprefix_chunked(&[9i64], &[2], 4, Plus);
        assert_eq!(out.sums, vec![0]);
        assert_eq!(out.reductions, vec![0, 0, 9, 0]);
    }

    #[test]
    fn multireduce_agrees() {
        let (values, labels) = mixed_input(40_000, 1000);
        let expect = multireduce_serial(&values, &labels, 1000, Plus);
        assert_eq!(multireduce_chunked(&values, &labels, 1000, Plus), expect);
        let cfg = ExecConfig::default().threads(4);
        let split =
            try_multireduce_chunked_cfg_ctx(&values, &labels, 1000, Plus, cfg, &RunContext::new());
        assert_eq!(split, Ok(Some(expect)));
    }

    #[test]
    fn split_runs_in_both_table_modes_are_bit_identical() {
        // Shapes that flip between label-indexed and probed tables and
        // change the chunk count, each split four ways: serial's answer.
        for &(n, m) in &[(10_000usize, 16usize), (257, 100_000), (20_000, 3), (0, 5)] {
            let (values, labels) = mixed_input(n, m);
            let got = try_multiprefix_chunked_cfg_ctx(
                &values,
                &labels,
                m,
                Plus,
                ExecConfig::default().threads(4),
                &RunContext::new(),
            )
            .unwrap()
            .unwrap();
            assert_eq!(
                got,
                multiprefix_serial(&values, &labels, m, Plus),
                "n={n} m={m}"
            );
        }
    }

    #[test]
    fn checked_policy_trips_to_none() {
        // Overflow at a chunk boundary region: the engine reports the trip
        // (Ok(None)); canonicalization is the caller's serial replay.
        let mut values = vec![1i64; 10_000];
        values[5_000] = i64::MAX;
        let labels = vec![0usize; 10_000];
        for threads in [1, 2] {
            let cfg = ExecConfig::default()
                .overflow(OverflowPolicy::Checked)
                .threads(threads);
            let got =
                try_multiprefix_chunked_cfg_ctx(&values, &labels, 1, Plus, cfg, &RunContext::new());
            assert_eq!(
                got,
                Ok(None),
                "checked overflow must trip on {threads} chunk(s)"
            );
        }
        // Wrap never trips.
        let got = try_multiprefix_chunked(&values, &labels, 1, Plus, OverflowPolicy::Wrap)
            .unwrap()
            .unwrap();
        assert_eq!(got, multiprefix_serial(&values, &labels, 1, Plus));
    }

    #[test]
    fn cancellation_at_any_checkpoint_is_clean() {
        use crate::resilience::CancelToken;
        let (values, labels) = mixed_input(20_000, 31);
        for k in [0u64, 1, 2, 3, 5, 8, 13] {
            let ctx = RunContext::new().with_cancel(&CancelToken::cancel_after(k));
            let cfg = ExecConfig::default().threads(4);
            let got = try_multiprefix_chunked_cfg_ctx(&values, &labels, 31, Plus, cfg, &ctx);
            match got {
                Err(MpError::Cancelled) => {}
                Ok(Some(out)) => {
                    assert_eq!(out, multiprefix_serial(&values, &labels, 31, Plus), "k={k}")
                }
                other => panic!("unexpected outcome at k={k}: {other:?}"),
            }
        }
    }

    /// Miri target (name-matched by the CI `miri` filter): a genuinely
    /// multi-chunk run — scoped threads, combine scan, probed maps — on an
    /// input small enough for the interpreter.
    #[test]
    fn combine_phase_small_multichunk_for_miri() {
        let n = 120;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 9 - 4).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 11) % 7).collect();
        let expect = multiprefix_serial(&values, &labels, 7, Plus);
        assert_eq!(
            multiprefix_chunked_with_parts(&values, &labels, 7, Plus, 5),
            expect
        );
        // Probed-map flavor of the same shape (m >> n).
        let m = 100_000;
        let labels: Vec<usize> = (0..n).map(|i| (i * 31_337) % m).collect();
        assert_eq!(
            multiprefix_chunked_with_parts(&values, &labels, m, Plus, 5),
            multiprefix_serial(&values, &labels, m, Plus)
        );
    }

    /// Miri target: the write-once outputs on an input a little over one
    /// `CHECK_STRIDE` block, so the block loops cross an edge. One chunk
    /// and two to four forced parts; label-indexed, probed and `m == 1`
    /// tables; through `run_prefix`, plain and hardened. Every `Ok` output
    /// is read back and compared with serial, where Miri reports any slot
    /// the local pass never wrote; the error exits (a bad label in the last
    /// chunk, a cancel at the second block, a chaos worker panic) return
    /// their typed errors.
    #[test]
    fn write_once_outputs_cross_block_edges_for_miri() {
        use crate::resilience::{CancelToken, ChaosPlan};
        // The hardened core on exactly `parts` chunks, panics contained as
        // in the `try_*` entries.
        fn hardened(
            values: &[i64],
            labels: &[usize],
            m: usize,
            parts: usize,
            ctx: &RunContext,
        ) -> Result<MultiprefixOutput<i64>, MpError> {
            let tripped = AtomicBool::new(false);
            let guard = CheckGuard::new(Plus, OverflowPolicy::Wrap, &tripped);
            catch_unwind(AssertUnwindSafe(|| {
                run_prefix(values, labels, m, guard, parts, ctx)
            }))
            .unwrap_or(Err(MpError::EnginePanicked))
        }
        // Polls: entry, block 0, block 1 — the third poll is the second
        // block of a one-chunk run, and inside the local phase on any split.
        let cancel_at_second_block =
            || RunContext::new().with_cancel(&CancelToken::cancel_after(2));
        let worker_panic = |worker| {
            let chaos = ChaosPlan::seeded(7)
                .worker_panic_ppm(1_000_000)
                .only(Engine::Chunked)
                .only_worker(worker)
                .arm();
            RunContext::new().with_chaos(chaos)
        };
        let n = CHECK_STRIDE + 5;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 9 - 4).collect();
        // m == 1 runs the vector kernels, 7 the label-indexed tables and
        // 50 000 (≫ n) the probed ones.
        for m in [1usize, 7, 50_000] {
            let labels: Vec<usize> = (0..n).map(|i| (i * 31_337) % m).collect();
            let expect = multiprefix_serial(&values, &labels, m, Plus);
            for parts in 1..=4 {
                let why = format!("m={m} parts={parts}");
                let plain = multiprefix_chunked_with_parts(&values, &labels, m, Plus, parts);
                assert_eq!(plain, expect, "{why}");
                let got = hardened(&values, &labels, m, parts, &RunContext::new());
                assert_eq!(got.as_ref(), Ok(&expect), "{why}");
                let got = hardened(&values, &labels, m, parts, &cancel_at_second_block());
                assert_eq!(got, Err(MpError::Cancelled), "{why}");
                let got = hardened(&values, &labels, m, parts, &worker_panic(parts - 1));
                assert_eq!(got, Err(MpError::EnginePanicked), "{why}");
                if m != 1 {
                    let mut bad = labels.clone();
                    bad[n - 1] = m + 3;
                    let got = hardened(&values, &bad, m, parts, &RunContext::new());
                    let label = m + 3;
                    let index = n - 1;
                    let want = MpError::LabelOutOfRange { index, label, m };
                    assert_eq!(got, Err(want), "{why}");
                }
            }
        }
    }

    #[test]
    fn operator_panic_is_contained() {
        #[derive(Clone, Copy)]
        struct PanicAfter(i64);
        impl CombineOp<i64> for PanicAfter {
            const COMMUTATIVE: bool = true;
            fn identity(&self) -> i64 {
                0
            }
            fn combine(&self, a: i64, b: i64) -> i64 {
                assert!(a < self.0, "boom");
                a.wrapping_add(b)
            }
        }
        impl TryCombineOp<i64> for PanicAfter {
            fn checked_combine(&self, a: i64, b: i64) -> Option<i64> {
                Some(self.combine(a, b))
            }
            fn saturating_combine(&self, a: i64, b: i64) -> i64 {
                self.combine(a, b)
            }
        }
        let values = vec![1i64; 9_000];
        let labels: Vec<usize> = (0..9_000).map(|i| i % 13).collect();
        let cfg = ExecConfig::default().threads(3);
        let got = try_multiprefix_chunked_cfg_ctx(
            &values,
            &labels,
            13,
            PanicAfter(10),
            cfg,
            &RunContext::new(),
        );
        assert_eq!(got, Err(MpError::EnginePanicked));
    }
}

//! The paper's parallel multiprefix algorithm: the **spinetree**.
//!
//! The algorithm (Figures 3–4 of the paper) arranges the `n` elements into a
//! conceptual grid of `√n` rows × `√n` columns and runs in four phases, each
//! a sweep of `√n` parallel steps over whole rows or whole columns:
//!
//! 1. **SPINETREE** ([`build`]) — rows, top to bottom. Every element reads
//!    its bucket's `spine` pointer (concurrent read) and then all elements
//!    of the row attempt to overwrite the bucket pointer with their own
//!    address (concurrent **ARB** write — the "overwrite-and-test" idiom).
//!    The winners become candidates for parenthood; the next row down reads
//!    them back. The resulting pointers link every label class into a tree
//!    whose root is the class's bucket.
//! 2. **ROWSUMS** ([`phases::rowsums`]) — columns, left to right. Each
//!    element adds its value into its parent's `rowsum`. Theorem 1
//!    guarantees all same-parent elements sit in one row, hence in distinct
//!    columns, so a column-parallel step never has two writers per cell.
//! 3. **SPINESUMS** ([`phases::spinesums`]) — rows, bottom to top. Spine
//!    elements forward `spinesum ⊕ rowsum` to their parent, computing a
//!    recurrence along the unique spine path of each class.
//! 4. **MULTISUMS** ([`phases::multisums`]) — columns, left to right. Each
//!    element fetches its parent's `spinesum` (its multiprefix result) and
//!    appends its own value for the next same-class element on its row.
//!
//! Step complexity `S = O(√n)` (each phase is one sweep), work `W = O(n)`,
//! space `O(n + m)` — work efficient.
//!
//! Each phase has one body, and one pipeline runs them: every entry —
//! plain or hardened, multiprefix or multireduce (§4.2, which stops before
//! MULTISUMS), one-shot ([`engine`]) or over a stored spinetree
//! ([`PreparedMultiprefix`], §5.2.1) — builds or reuses the spinetree and
//! then runs phases 2–4 through the same sweep. The hardened entries differ
//! only in the combine they pass (a trip guard under a checking overflow
//! policy) and the [`crate::resilience::RunContext`] the sweep polls.
//!
//! ## Fidelity notes
//!
//! * Memory is laid out exactly as the CRAY implementation (§4, Figure 8):
//!   one structure-of-arrays block with buckets at slots `0..m` and element
//!   `i` at slot `m + i` (the "pivot" layout), so pointer dereferences are
//!   plain `usize` gathers/scatters. See [`layout`].
//! * The row length need not be `√n` (§4.4): [`layout::Layout`] accepts any
//!   row length and the grid may be ragged (no padding is materialized; the
//!   last row is simply short).
//! * The paper's SPINESUMS guards on `rowsum ≠ 0` to detect spine elements
//!   (§4.1 loop 3). That test is only correct when a genuine combination of
//!   values can never equal the identity. This implementation keeps an
//!   explicit `has_child` flag (set during ROWSUMS) so the algorithm is
//!   correct for *all* inputs — e.g. PLUS over values summing to zero. The
//!   `cray-sim` crate still models the `≠ 0` masked loop's *timing*
//!   (dummy-location hot spot, all-false early exit) because those effects
//!   drive the paper's Figure 10.
//! * The ARB write is modeled by an explicit, configurable
//!   [`build::ArbPolicy`]; a property test checks the theorem implicit in
//!   the paper — the final sums and reductions are independent of which
//!   writer wins arbitration.

pub mod build;
pub mod engine;
pub mod layout;
pub mod phases;
pub mod prepared;
pub mod trace;
pub mod validate;

pub use build::{build_spinetree, ArbPolicy};
pub use engine::{
    multiprefix_spinetree, multiprefix_spinetree_instrumented, multireduce_spinetree,
    try_multiprefix_spinetree_ctx, try_multireduce_spinetree_ctx, PhaseStats, SpinetreeRun,
};
pub use layout::Layout;
pub use prepared::PreparedMultiprefix;

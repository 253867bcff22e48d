//! The SPINETREE phase: overwrite-and-test construction of the spinetree.
//!
//! ```text
//! SPINETREE:
//! for (r = √n downto 1)
//!     pardo (i = elements of row r) {
//!         temp[i].spine = bucket[label[i]].spine;   // concurrent READ
//!         bucket[label[i]].spine = &temp[i];        // concurrent ARB WRITE
//!     }
//! ```
//!
//! Rows are processed from the **top** (highest element indices) downward.
//! Within one row, every element first *tests* (reads) its bucket's current
//! spine pointer — all same-label elements of the row observe the same
//! value, which becomes their common parent — and then all of them attempt
//! to *overwrite* the pointer with their own slot address. On a CRCW-ARB
//! PRAM an arbitrary writer succeeds; the winner is the potential parent for
//! the next row down.
//!
//! On the CRAY the loop is split by the compiler into a gather followed by a
//! scatter (§4.1 loop 1); this module performs exactly that fission. The
//! scatter's "arbitrary" winner is configurable via [`ArbPolicy`] so tests
//! can demonstrate that the *results* of the algorithm are invariant under
//! the arbitration choice (the property the ARB model demands).

use super::layout::Layout;
use crate::error::MpError;
use crate::problem::input_error;
use crate::resilience::RunContext;

/// Which concurrent writer wins the bucket-pointer scatter within a row.
///
/// All policies yield identical multiprefix results (checked by property
/// tests); they differ only in the shape of the resulting spinetree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbPolicy {
    /// The element with the highest vector index in the row wins — what a
    /// sequential simulation of the scatter naturally produces (later
    /// stores overwrite earlier ones).
    LastWins,
    /// The element with the lowest vector index wins.
    FirstWins,
    /// A pseudo-random writer wins, keyed by the given seed. This is the
    /// closest model of genuine hardware arbitration.
    Seeded(u64),
}

#[inline(always)]
fn mix(seed: u64, i: u64) -> u64 {
    // splitmix64 finalizer — cheap, well distributed, deterministic.
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the spinetree pointer array for `labels` under `layout`.
///
/// Returns the `spine` vector of length `layout.slots()`:
/// * `spine[b]` for `b < m` is the bucket's final pointer (the paper: "no
///   longer used and … not considered part of the tree" — kept for traces);
/// * `spine[m + i]` is the parent slot of element `i`: either its bucket
///   (elements of the topmost occupied row of their class) or an element
///   slot in the next occupied row *above*.
///
/// # Panics
///
/// On a label `>= layout.m`, with a message naming the error
/// [`crate::validate`] reports. The same holds for
/// [`build_spinetree_traced`].
pub fn build_spinetree(labels: &[usize], layout: &Layout, policy: ArbPolicy) -> Vec<usize> {
    build_spinetree_traced(labels, layout, policy, |_, _| {})
}

/// [`build_spinetree`], invoking `on_row(row, spine)` after every row update
/// — used by the trace renderer (Figure 6) and the PRAM cross-checks.
pub fn build_spinetree_traced(
    labels: &[usize],
    layout: &Layout,
    policy: ArbPolicy,
    mut on_row: impl FnMut(usize, &[usize]),
) -> Vec<usize> {
    let mut spine: Vec<usize> = Vec::with_capacity(layout.slots());
    let built = build_rows(&mut spine, labels, layout, policy, |r, s| {
        on_row(r, s);
        Ok(())
    });
    // The callback never errors, so an error is a label `>= m`.
    if let Err(e) = built {
        panic!("spinetree build: {e}");
    }
    spine
}

/// [`build_spinetree`] for the hardened engines: the `slots()` pointer
/// vector is allocated fallibly and the [`RunContext`] is polled after
/// every row of the SPINETREE sweep, so a deadline or cancellation
/// interrupts the build within one row (`O(√n)` elements) of work.
pub(crate) fn build_spinetree_ctx(
    labels: &[usize],
    layout: &Layout,
    policy: ArbPolicy,
    ctx: &RunContext,
) -> Result<Vec<usize>, MpError> {
    ctx.checkpoint()?;
    let mut spine = crate::exec::try_with_capacity(layout.slots())?;
    build_rows(&mut spine, labels, layout, policy, |_, _| ctx.checkpoint())?;
    Ok(spine)
}

/// The SPINETREE row loop shared by the plain, traced and hardened builds:
/// initializes `spine` in place, then gathers/scatters row by row, calling
/// `per_row(row, spine)` after each row and aborting on its error.
///
/// The initialization reads every label once, and that read is also its
/// check: a label `>= m` would aim an element at another element's slot,
/// or past the block, so it is [`crate::validate`]'s
/// [`MpError::LabelOutOfRange`] before any row runs.
fn build_rows(
    spine: &mut Vec<usize>,
    labels: &[usize],
    layout: &Layout,
    policy: ArbPolicy,
    mut per_row: impl FnMut(usize, &[usize]) -> Result<(), MpError>,
) -> Result<(), MpError> {
    debug_assert_eq!(labels.len(), layout.n);
    let m = layout.m;
    // INITIALIZATION (Figure 3): each bucket points at itself...
    spine.extend(0..m);
    // ...and each element points at its bucket.
    let mut bad = false;
    spine.extend(labels.iter().map(|&l| {
        bad |= l >= m;
        l
    }));
    if bad {
        return Err(input_error(layout.n, labels, m));
    }

    // Arbitration bookkeeping for the Seeded policy: the row that last
    // stamped each bucket, and the winning key so far within that row.
    let (mut stamp, mut winner_key) = match policy {
        ArbPolicy::Seeded(_) => (vec![usize::MAX; m], vec![0u64; m]),
        _ => (Vec::new(), Vec::new()),
    };

    for r in layout.rows_top_down() {
        let range = layout.row_elements(r);

        // GATHER (the concurrent read): every element of the row reads its
        // bucket's current pointer. Loop fission keeps this a pure read
        // step — no element may observe a same-row overwrite.
        for i in range.clone() {
            spine[m + i] = spine[labels[i]];
        }

        // SCATTER (the concurrent ARB write): all elements of the row try
        // to install their own slot address in the bucket.
        match policy {
            ArbPolicy::LastWins => {
                for i in range.clone() {
                    spine[labels[i]] = m + i;
                }
            }
            ArbPolicy::FirstWins => {
                // Visiting the row in reverse makes the lowest index the
                // final (surviving) store.
                for i in range.clone().rev() {
                    spine[labels[i]] = m + i;
                }
            }
            ArbPolicy::Seeded(seed) => {
                for i in range.clone() {
                    let b = labels[i];
                    let key = mix(seed, (m + i) as u64);
                    if stamp[b] != r || key > winner_key[b] {
                        stamp[b] = r;
                        winner_key[b] = key;
                        spine[b] = m + i;
                    }
                }
            }
        }

        per_row(r, spine)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parent map from the paper's 9-elements-one-label example (§2.2,
    /// Figures 5–6): every element points at *some* same-label element of
    /// the row above; top-row elements point at the bucket.
    #[test]
    fn nine_ones_structure() {
        let labels = [2usize; 9];
        let layout = Layout::with_row_len(9, 5, 3);
        let spine = build_spinetree(&labels, &layout, ArbPolicy::LastWins);
        let m = layout.m;
        for i in 0..9 {
            let parent = spine[m + i];
            let row = layout.row_of(i);
            if row == layout.n_rows - 1 {
                assert_eq!(parent, 2, "top row parents the bucket");
            } else {
                assert!(parent >= m, "lower rows parent an element");
                let pe = parent - m;
                assert_eq!(layout.row_of(pe), row + 1, "parent one row above");
                assert_eq!(labels[pe], labels[i], "parent shares the label");
            }
        }
    }

    #[test]
    fn last_wins_bucket_points_into_bottom_row() {
        let labels = [0usize; 9];
        let layout = Layout::with_row_len(9, 1, 3);
        let spine = build_spinetree(&labels, &layout, ArbPolicy::LastWins);
        // The bottom row (r = 0) is processed last; with LastWins its final
        // element (index 2) owns the bucket pointer.
        assert_eq!(spine[0], 1 + 2);
    }

    #[test]
    fn first_wins_picks_lowest_index() {
        let labels = [0usize; 9];
        let layout = Layout::with_row_len(9, 1, 3);
        let spine = build_spinetree(&labels, &layout, ArbPolicy::FirstWins);
        #[allow(clippy::identity_op)]
        {
            assert_eq!(spine[0], 1 + 0);
        }
        // And the middle row's parents must be the first element of the top
        // row (index 6).
        for i in 3..6 {
            assert_eq!(spine[1 + i], 1 + 6);
        }
    }

    #[test]
    fn parents_always_same_label_row_above() {
        // Mixed labels, ragged grid, all policies.
        let labels = [0usize, 1, 0, 2, 1, 0, 2, 2, 1, 0, 0];
        let layout = Layout::with_row_len(labels.len(), 3, 4);
        for policy in [
            ArbPolicy::LastWins,
            ArbPolicy::FirstWins,
            ArbPolicy::Seeded(42),
            ArbPolicy::Seeded(7),
        ] {
            let spine = build_spinetree(&labels, &layout, policy);
            let m = layout.m;
            for i in 0..labels.len() {
                let parent = spine[m + i];
                if parent < m {
                    assert_eq!(parent, labels[i], "bucket parent is own bucket");
                    // must be topmost occupied row of the class
                    let my_row = layout.row_of(i);
                    for (j, &l) in labels.iter().enumerate() {
                        if l == labels[i] {
                            assert!(
                                layout.row_of(j) <= my_row,
                                "element {i} parents bucket but {j} sits higher"
                            );
                        }
                    }
                } else {
                    let pe = parent - m;
                    assert_eq!(labels[pe], labels[i]);
                    assert!(layout.row_of(pe) > layout.row_of(i));
                }
            }
        }
    }

    #[test]
    fn seeded_policies_can_differ_in_shape() {
        // With 3 same-label elements per row, different seeds should
        // (eventually) elect different winners.
        let labels = [0usize; 64];
        let layout = Layout::with_row_len(64, 1, 8);
        let a = build_spinetree(&labels, &layout, ArbPolicy::Seeded(1));
        let b = build_spinetree(&labels, &layout, ArbPolicy::Seeded(2));
        assert_ne!(a, b, "distinct seeds produced identical arbitration");
    }

    #[test]
    fn empty_input() {
        let layout = Layout::square(0, 4);
        let spine = build_spinetree(&[], &layout, ArbPolicy::LastWins);
        assert_eq!(spine, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_element() {
        let layout = Layout::square(1, 2);
        let spine = build_spinetree(&[1], &layout, ArbPolicy::Seeded(9));
        assert_eq!(spine[2], 1, "lone element parents its bucket");
        assert_eq!(spine[1], 2, "bucket points at the lone element");
        assert_eq!(spine[0], 0, "untouched bucket still points at itself");
    }
}

#![warn(missing_docs)]

//! # mp-sort — integer sorting via multiprefix (§5.1 of the paper)
//!
//! "An algorithm for integer sorting using multiprefix was first described
//! by Ranade \[RBJ88\]. The algorithm computes a rank value for each key
//! that gives its position in the final sorted order" (Figure 11).
//! Because multiprefix computes prefix sums in vector order, the ranking
//! — and hence the sort — is **stable**.
//!
//! Modules:
//!
//! * [`rank_sort`] — the paper's algorithm over any core engine;
//! * [`counting_sort`] — the serial counterpart ("counting sort" [Knu68,
//!   CLR89]), the work-efficiency baseline;
//! * [`bucket_sort`] — the "Partially Vectorized FORTRAN Bucket Sort" of
//!   Table 1, structured as the classic histogram / offset / permute
//!   three-pass;
//! * [`radix_sort`] — LSD radix sorts (classic, and one whose per-digit
//!   pass *is* a multiprefix call), standing in for the proprietary Cray
//!   Research Inc. row of Table 1;
//! * [`nas_is`] — the NAS Integer Sorting benchmark workload: the suite's
//!   linear-congruential generator and sum-of-four-uniforms key
//!   distribution over `[0, 2^19)`, scalable in `n`.

//! ## Example
//!
//! ```
//! use mp_sort::{rank_keys, sort_by_ranks};
//! use multiprefix::Engine;
//!
//! let keys = [5usize, 1, 5, 0, 1];
//! let ranks = rank_keys(&keys, 8, Engine::Auto).unwrap();
//! assert_eq!(ranks, vec![3, 1, 4, 0, 2]); // stable
//! assert_eq!(sort_by_ranks(&keys, &ranks), vec![0, 1, 1, 5, 5]);
//! ```

pub mod benchmark;
pub mod bucket_sort;
pub mod counting_sort;
pub mod float_sort;
pub mod nas_is;
pub mod radix_sort;
pub mod rank_sort;

pub use rank_sort::{mp_sort, rank_keys, sort_by_ranks};

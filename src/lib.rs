#![warn(missing_docs)]

//! # multiprefix-suite
//!
//! Umbrella crate for the reproduction of Sheffler's *Implementing the
//! Multiprefix Operation on Parallel and Vector Computers* (SPAA 1993 /
//! CMU-CS-92-173). It re-exports the five member crates and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).
//!
//! * [`multiprefix`] — the operation itself: serial, spinetree (the
//!   paper's `O(√n)`-step CRCW-ARB algorithm), the chunked
//!   local/combine/apply engine and the atomic engine, plus the derived primitives (segmented scans, fetch-and-op,
//!   histogram, plain scans);
//! * [`pram`] — a synchronous PRAM simulator that checks the paper's
//!   step/work/EREW claims and the CRCW-PLUS simulation theorem;
//! * [`cray_sim`] — an executable cost model of the CRAY Y-MP used to
//!   regenerate every table and figure of the evaluation;
//! * [`mp_sort`] — integer sorting (Figure 11) and the NAS IS workload;
//! * [`spmv`] — sparse-matrix × vector via CSR, jagged-diagonal and
//!   multireduce (Figure 12).
//!
//! Start with `cargo run --example quickstart`, then see DESIGN.md for the
//! system inventory and EXPERIMENTS.md for paper-vs-measured results.

pub use cray_sim;
pub use mp_sort;
pub use multiprefix;
pub use pram;
pub use spmv;

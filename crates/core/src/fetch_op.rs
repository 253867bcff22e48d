//! Deterministic fetch-and-op via multiprefix.
//!
//! §1 of the paper: "\[Multiprefix\] provides the functionality of the
//! fetch-and-op primitive of the NYU Ultracomputer \[GLR81\]. While the
//! fetch-and-op primitive is non-deterministic in its evaluation order, the
//! multiprefix operator ensures that results are computed in vector index
//! order."
//!
//! Given a memory image and a batch of `(address, increment)` requests, one
//! multiprefix call serves the whole batch *as if* the requests executed
//! one at a time in vector order: request `i` fetches
//! `memory[a_i] ⊕ (⊕ of earlier increments to a_i)` and the final memory
//! holds every cell's full combination.

use crate::api::{multiprefix, Engine};
use crate::error::MpError;
use crate::op::CombineOp;
use crate::problem::Element;

/// Result of a batched fetch-and-op.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchOpResult<T> {
    /// `fetched[i]`: the value request `i` observed — the cell content just
    /// before its own increment applied, in vector order.
    pub fetched: Vec<T>,
    /// The memory image after all requests.
    pub memory: Vec<T>,
}

/// Execute a batch of fetch-and-⊕ requests against `memory`.
///
/// `addresses[i]` must index into `memory`; `increments[i]` is combined in.
/// Equivalent to the serial loop
///
/// ```text
/// for i in 0..k { fetched[i] = mem[a[i]]; mem[a[i]] = mem[a[i]] ⊕ inc[i]; }
/// ```
///
/// but implemented as a single multiprefix over the batch (labels =
/// addresses), so any engine — including the parallel ones — serves it.
pub fn fetch_and_op<T: Element, O: CombineOp<T>>(
    memory: &[T],
    addresses: &[usize],
    increments: &[T],
    op: O,
    engine: Engine,
) -> Result<FetchOpResult<T>, MpError> {
    let out = multiprefix(increments, addresses, memory.len(), op, engine)?;
    let fetched = out
        .sums
        .iter()
        .zip(addresses)
        .map(|(&prefix, &a)| op.combine(memory[a], prefix))
        .collect();
    let new_memory = memory
        .iter()
        .zip(out.reductions.iter())
        .map(|(&base, &delta)| op.combine(base, delta))
        .collect();
    Ok(FetchOpResult {
        fetched,
        memory: new_memory,
    })
}

/// Serial oracle for [`fetch_and_op`] (the loop above, literally).
pub fn fetch_and_op_serial<T: Element, O: CombineOp<T>>(
    memory: &[T],
    addresses: &[usize],
    increments: &[T],
    op: O,
) -> FetchOpResult<T> {
    let mut mem = memory.to_vec();
    let mut fetched = Vec::with_capacity(addresses.len());
    for (&a, &inc) in addresses.iter().zip(increments) {
        fetched.push(mem[a]);
        mem[a] = op.combine(mem[a], inc);
    }
    FetchOpResult {
        fetched,
        memory: mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Plus;

    #[test]
    fn matches_serial_oracle() {
        let memory = vec![100i64, 200, 300];
        let addresses = vec![0, 1, 0, 2, 1, 0];
        let increments = vec![1i64, 2, 3, 4, 5, 6];
        let expect = fetch_and_op_serial(&memory, &addresses, &increments, Plus);
        for engine in [Engine::Serial, Engine::Spinetree, Engine::Chunked] {
            let got = fetch_and_op(&memory, &addresses, &increments, Plus, engine).unwrap();
            assert_eq!(got, expect, "{engine:?}");
        }
    }

    #[test]
    fn fetch_values_are_vector_ordered() {
        // Three increments to the same cell fetch 0, 1, 3 — strictly the
        // vector-order story, never a permuted one.
        let got = fetch_and_op(&[0i64], &[0, 0, 0], &[1, 2, 4], Plus, Engine::Serial).unwrap();
        assert_eq!(got.fetched, vec![0, 1, 3]);
        assert_eq!(got.memory, vec![7]);
    }

    #[test]
    fn untouched_cells_survive() {
        let got = fetch_and_op(&[5i64, 6, 7], &[1], &[10], Plus, Engine::Serial).unwrap();
        assert_eq!(got.memory, vec![5, 16, 7]);
    }

    #[test]
    fn empty_batch() {
        let got = fetch_and_op::<i64, _>(&[1, 2], &[], &[], Plus, Engine::Serial).unwrap();
        assert_eq!(got.fetched, Vec::<i64>::new());
        assert_eq!(got.memory, vec![1, 2]);
    }

    #[test]
    fn bad_address_is_reported() {
        let err = fetch_and_op(&[0i64], &[1], &[1], Plus, Engine::Serial).unwrap_err();
        assert!(matches!(
            err,
            MpError::LabelOutOfRange { label: 1, m: 1, .. }
        ));
    }

    #[test]
    fn ticket_counter_idiom() {
        // fetch-and-add of 1 hands out consecutive tickets.
        let got = fetch_and_op(&[0i64], &[0; 8], &[1i64; 8], Plus, Engine::Chunked).unwrap();
        assert_eq!(got.fetched, (0..8).collect::<Vec<i64>>());
        assert_eq!(got.memory, vec![8]);
    }
}

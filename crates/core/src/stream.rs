//! Streaming (out-of-core) multiprefix.
//!
//! The engines in this crate hold the whole problem in memory. When the
//! element stream is larger than that — log processing, external files,
//! network feeds — the multiprefix can still be computed in one pass over
//! arbitrarily sized chunks, because the only state the operation carries
//! between positions is the per-label running combination (the paper's
//! bucket vector). [`MultiprefixStream`] owns that state: feed it chunks,
//! get each chunk's exclusive sums back immediately; the final bucket
//! vector is the reduction.
//!
//! Within a chunk any engine may be used (the chunk-local prefixes are
//! combined with the carried bucket state exactly as the chunked engine
//! combines its chunks), so large chunks still run in parallel.

use crate::api::{multiprefix, Engine};
use crate::error::MpError;
use crate::op::CombineOp;
use crate::problem::Element;

/// Incremental multiprefix state over a fixed label universe `[0, m)`.
#[derive(Debug, Clone)]
pub struct MultiprefixStream<T, O> {
    buckets: Vec<T>,
    op: O,
    engine: Engine,
    consumed: usize,
}

impl<T: Element, O: CombineOp<T>> MultiprefixStream<T, O> {
    /// Start a stream over `m` labels.
    pub fn new(m: usize, op: O, engine: Engine) -> Self {
        MultiprefixStream {
            buckets: vec![op.identity(); m],
            op,
            engine,
            consumed: 0,
        }
    }

    /// Number of labels.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total elements consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Current per-label running reductions (identical to what a one-shot
    /// multireduce over everything consumed so far would return).
    pub fn reductions(&self) -> &[T] {
        &self.buckets
    }

    /// Consume one chunk, returning its elements' exclusive multiprefix
    /// sums *with respect to the whole stream so far*.
    pub fn feed(&mut self, values: &[T], labels: &[usize]) -> Result<Vec<T>, MpError> {
        let local = multiprefix(values, labels, self.buckets.len(), self.op, self.engine)?;
        // Prepend the carried state to each local prefix (order: stream
        // prefix ⊕ chunk-local prefix — non-commutative safe)…
        let sums = local
            .sums
            .iter()
            .zip(labels)
            .map(|(&s, &l)| self.op.combine(self.buckets[l], s))
            .collect();
        // …then fold the chunk's totals into the carried state.
        for (bucket, &total) in self.buckets.iter_mut().zip(&local.reductions) {
            *bucket = self.op.combine(*bucket, total);
        }
        self.consumed += values.len();
        Ok(sums)
    }

    /// Finish the stream, returning the final reductions.
    pub fn finish(self) -> Vec<T> {
        self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FirstLast, Plus};
    use crate::serial::multiprefix_serial;
    use proptest::prelude::*;

    #[test]
    fn chunked_equals_one_shot() {
        let n = 1000;
        let values: Vec<i64> = (0..n as i64).map(|i| i % 19 - 9).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 13) % 7).collect();
        let expect = multiprefix_serial(&values, &labels, 7, Plus);

        for chunk in [1usize, 3, 64, 250, 1000] {
            let mut stream = MultiprefixStream::new(7, Plus, Engine::Serial);
            let mut sums = Vec::new();
            for (v, l) in values.chunks(chunk).zip(labels.chunks(chunk)) {
                sums.extend(stream.feed(v, l).unwrap());
            }
            assert_eq!(sums, expect.sums, "chunk size {chunk}");
            assert_eq!(stream.consumed(), n);
            assert_eq!(stream.finish(), expect.reductions, "chunk size {chunk}");
        }
    }

    #[test]
    fn noncommutative_across_chunks() {
        let values: Vec<(i32, i32)> = (0..100).map(|i| (i, i)).collect();
        let labels: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let expect = multiprefix_serial(&values, &labels, 3, FirstLast);
        let mut stream = MultiprefixStream::new(3, FirstLast, Engine::Serial);
        let mut sums = Vec::new();
        for (v, l) in values.chunks(7).zip(labels.chunks(7)) {
            sums.extend(stream.feed(v, l).unwrap());
        }
        assert_eq!(sums, expect.sums);
        assert_eq!(stream.finish(), expect.reductions);
    }

    #[test]
    fn interleaved_queries() {
        let mut stream = MultiprefixStream::new(2, Plus, Engine::Serial);
        assert_eq!(stream.feed(&[5i64], &[0]).unwrap(), vec![0]);
        assert_eq!(stream.reductions(), &[5, 0]);
        assert_eq!(stream.feed(&[7, 1], &[0, 1]).unwrap(), vec![5, 0]);
        assert_eq!(stream.reductions(), &[12, 1]);
    }

    #[test]
    fn errors_are_clean_and_non_destructive() {
        let mut stream = MultiprefixStream::new(2, Plus, Engine::Serial);
        stream.feed(&[1i64], &[0]).unwrap();
        let err = stream.feed(&[2i64], &[9]).unwrap_err();
        assert!(matches!(err, MpError::LabelOutOfRange { label: 9, .. }));
        // The failed chunk must not have corrupted the carried state.
        assert_eq!(stream.reductions(), &[1, 0]);
        assert_eq!(stream.consumed(), 1);
    }

    proptest! {
        #[test]
        fn any_chunking_equals_one_shot(
            pairs in proptest::collection::vec((any::<i16>(), 0usize..5), 0..400),
            cuts in proptest::collection::vec(1usize..50, 0..20),
        ) {
            let values: Vec<i64> = pairs.iter().map(|&(v, _)| v as i64).collect();
            let labels: Vec<usize> = pairs.iter().map(|&(_, l)| l).collect();
            let expect = multiprefix_serial(&values, &labels, 5, Plus);

            let mut stream = MultiprefixStream::new(5, Plus, Engine::Serial);
            let mut sums = Vec::new();
            let mut at = 0usize;
            let mut cut_iter = cuts.iter();
            while at < values.len() {
                let step = cut_iter.next().copied().unwrap_or(usize::MAX);
                let end = at.saturating_add(step).min(values.len());
                sums.extend(stream.feed(&values[at..end], &labels[at..end]).unwrap());
                at = end;
            }
            prop_assert_eq!(sums, expect.sums);
            prop_assert_eq!(stream.finish(), expect.reductions);
        }
    }
}

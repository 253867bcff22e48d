//! The oracle harness's recorder cells (see `tests/oracle`):
//! instrumentation is purely observational. Every entry that takes a
//! `RunContext`, and the dispatcher above them, returns serial's answer
//! with a recorder installed as it does without one (the other cells run
//! them without) — and the recorder really saw the run. That "no recorder
//! ⇒ no clock read" is `obs::tests::span_without_recorder_is_inert`'s.

mod oracle;

use multiprefix::op::{FirstLast, Plus};
use oracle::{Case, Shape, Side, BENIGN, FLOATS, PAIRS, WHOLE};
use proptest::prelude::*;

proptest! {
    /// Each case runs one value family, by seed, and the atomic engine.
    #[test]
    fn every_engine_is_bit_identical_with_and_without_recorder(seed: u64) {
        let shape = Shape::draw(seed);
        Case::new(shape, BENIGN, Plus).atomic(true);
        match seed % 4 {
            0 => {
                let case = Case::new(shape, BENIGN, Plus);
                case.with_ctx(Side::Prefix, true);
                case.with_ctx(Side::Reduce, true);
            }
            1 => Case::new(shape, PAIRS, FirstLast).with_ctx(Side::Prefix, true),
            2 => Case::new(shape, FLOATS, Plus).with_ctx(Side::Reduce, true),
            _ => Case::new(shape, WHOLE, Plus).with_ctx(Side::Prefix, true),
        }
    }

    #[test]
    fn dispatcher_output_is_bit_identical_with_and_without_recorder(seed: u64) {
        let shape = Shape::draw(seed);
        let case = Case::new(shape, BENIGN, Plus);
        case.dispatch(Side::Prefix, true);
        case.dispatch(Side::Reduce, true);
        if case.atomic_sampled() {
            case.atomic_dispatch(true);
        }
        Case::new(shape, FLOATS, Plus).dispatch(Side::Prefix, true);
    }
}

//! The oracle harness's float and service cells (see `tests/oracle` for
//! the generator, the check, and which file drives which cell).
//!
//! On floats only serial order gives serial's bits: `Serial`, every
//! one-chunk chunked run (`Auto`, the default dispatcher chain, the
//! service) must return them, a split chunked run the bits of its own
//! grouping, and the spinetree is held to serial where the sums are exact.
//! The service runs the default dispatcher, so on every value family its
//! replies are serial's bits, with coalescing or without, and it refuses
//! an invalid request at submission with `validate`'s error.

mod oracle;

use multiprefix::op::{FirstLast, Plus, TryCombineOp};
use oracle::{
    fixed_shapes, service_matches_serial, Case, Exact, Invalid, Shape, Side, Values, BENIGN,
    FLOATS, PAIRS, SERVES, WHOLE,
};
use proptest::prelude::*;

fn fixed<T: Exact, O: TryCombineOp<T>>(family: Values<T>, op: O) -> Vec<Case<T, O>> {
    fixed_shapes()
        .into_iter()
        .map(|s| Case::new(s, family, op))
        .collect()
}

proptest! {
    #[test]
    fn every_entry_matches_serial_or_its_grouping_on_floats(seed: u64) {
        for family in [FLOATS, WHOLE] {
            let case = Case::new(Shape::draw(seed), family, Plus);
            case.every_entry(Side::Both);
        }
    }
}

#[test]
fn service_matches_serial_with_and_without_coalescing() {
    for serve in SERVES {
        service_matches_serial(&fixed(BENIGN, Plus), serve);
        service_matches_serial(&fixed(FLOATS, Plus), serve);
        service_matches_serial(&fixed(WHOLE, Plus), serve);
        service_matches_serial(&fixed(PAIRS, FirstLast), serve);
        for seed in 0..12 {
            Invalid::draw(seed).service(serve);
        }
    }
}

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
//!
//! One `i64` shape is large enough that the engines advise huge pages on
//! its outputs (4 MiB and up, see `multiprefix::exec`): every entry that
//! takes it must still return serial's bits.

mod oracle;

use multiprefix::op::{FirstLast, Plus, TryCombineOp};
use oracle::{
    fixed_shapes, service_matches_serial, Case, Exact, Invalid, Shape, Side, Skew, Values, BENIGN,
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

/// n = 2¹⁹ + 3 `i64`s: every `n`-element output is just past the 4 MiB the
/// engines advise for huge pages. Seed 3 splits the `threads` runs in two.
#[test]
fn outputs_past_the_huge_page_threshold_match_serial() {
    let n = (1 << 19) + 3;
    let shape = Shape {
        n,
        m: n / 16,
        skew: Skew::Uniform,
        seed: 3,
    };
    let case = Case::new(shape, BENIGN, Plus);
    assert_eq!(case.threads, 2);
    case.every_entry(Side::Prefix);
}

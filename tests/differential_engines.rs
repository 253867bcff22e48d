//! The oracle harness's overflow-policy cells (see `tests/oracle`): for
//! any input and policy, every entry that takes a policy returns the
//! *same* `Result` as Figure 2's hardened loop — serial's bits on success,
//! the identical serial-order error on overflow — and an engine's own
//! hardened entry either agrees or reports a trip for its caller's serial
//! replay. The policy, not the engine choice, decides what the caller
//! observes.

mod oracle;

use multiprefix::op::Plus;
use multiprefix::{MpError, OverflowPolicy};
use oracle::{fixed_shapes, Case, Shape, Side, ADVERSARIAL, BENIGN, POLICIES};
use proptest::prelude::*;

/// Every entry that takes a policy: the `RunContext` entries (Figure 2's,
/// the engines' and the API's), the dispatcher's generic two and the
/// atomic engine's canonical entry — and, on the sampled cases, the atomic
/// engine's context entry and the dispatcher's `i64` two.
fn policy_entries(case: &Case<i64, Plus>) {
    case.with_ctx(Side::Both, false);
    case.dispatch(Side::Both, false);
    case.atomic_hardened();
    if case.atomic_sampled() {
        case.atomic(false);
        case.atomic_dispatch(false);
    }
}

proptest! {
    /// i32-range values never overflow an `i64` sum, so every policy's
    /// answer is the plain one.
    #[test]
    fn benign_inputs_succeed_identically_under_every_policy(seed: u64) {
        let shape = Shape::draw(seed);
        let wrap = Case::new(shape, BENIGN, Plus).want;
        for policy in POLICIES {
            let case = Case::with_policy(shape, BENIGN, Plus, policy);
            prop_assert_eq!(&case.want, &wrap);
            case.with_ctx(Side::Prefix, false);
            case.dispatch(Side::Prefix, false);
            case.atomic_hardened();
        }
    }

    #[test]
    fn adversarial_inputs_yield_one_canonical_result(seed: u64) {
        let shape = Shape::draw(seed);
        for policy in POLICIES {
            let case = Case::with_policy(shape, ADVERSARIAL, Plus, policy);
            case.with_ctx(Side::Prefix, false);
            case.dispatch(Side::Prefix, false);
            case.atomic_hardened();
        }
    }

    #[test]
    fn multireduce_policies_agree_across_engines(seed: u64) {
        let shape = Shape::draw(seed);
        for policy in POLICIES {
            let case = Case::with_policy(shape, ADVERSARIAL, Plus, policy);
            case.with_ctx(Side::Reduce, false);
            case.dispatch(Side::Reduce, false);
            if case.atomic_sampled() {
                case.atomic_dispatch(false);
            }
        }
    }

    #[test]
    fn saturating_never_errors(seed: u64) {
        let saturating = OverflowPolicy::Saturating;
        let case = Case::with_policy(Shape::draw(seed), ADVERSARIAL, Plus, saturating);
        prop_assert!(case.want.is_ok(), "{:?}", case.want);
        case.with_ctx(Side::Reduce, false);
        case.dispatch(Side::Reduce, false);
    }

    /// Whenever Checked fails, the reported index is the first element
    /// whose serial bucket combine is unrepresentable — checked against a
    /// direct reconstruction.
    #[test]
    fn checked_errors_carry_the_first_serial_trip_index(seed: u64) {
        let checked = OverflowPolicy::Checked;
        let case = Case::with_policy(Shape::draw(seed), ADVERSARIAL, Plus, checked);
        let mut buckets = vec![0i64; case.p.m];
        let trip = case.p.values.iter().zip(&case.p.labels).position(|(&v, &l)| {
            match buckets[l].checked_add(v) {
                Some(sum) => {
                    buckets[l] = sum;
                    false
                }
                None => true,
            }
        });
        match (&case.want, trip) {
            (Err(MpError::ArithmeticOverflow { index }), Some(t)) => prop_assert_eq!(*index, t),
            (Ok(_), None) => {}
            (want, trip) => prop_assert!(false, "serial {:?}, first trip {:?}", want, trip),
        }
    }

    /// Under `Wrap` the entries that take no policy — the plain API on
    /// every engine and the engines' plain entries — give the same
    /// wrapped bits.
    #[test]
    fn wrap_policy_is_the_plain_api(seed: u64) {
        let case = Case::new(Shape::draw(seed), ADVERSARIAL, Plus);
        case.plain(Side::Prefix);
        case.plain(Side::Reduce);
    }
}

/// The fixed shapes (every length, label-space and skew class, three
/// `MIN_CHUNK_LEN` chunks among them) and 44 drawn ones, with fixed
/// seeds, under every policy.
#[test]
fn deterministic_adversarial_sweep() {
    for shape in fixed_shapes().into_iter().chain((0..44).map(Shape::draw)) {
        for policy in POLICIES {
            policy_entries(&Case::with_policy(shape, ADVERSARIAL, Plus, policy));
        }
    }
}

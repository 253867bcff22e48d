//! Seeded chaos soak for the resilient dispatcher: under mixed
//! panic/alloc-failure/stall injection, every request must come back as
//! either the serial-oracle answer or a typed resilience error — never a
//! hang, never a silently wrong answer, never a process abort.
//!
//! The heavy sweep is `#[ignore]`d (run it with
//! `cargo test -- --ignored soak`); a fast smoke version runs in the
//! default suite.

use multiprefix::op::Plus;
use multiprefix::resilience::{
    BreakerConfig, ChaosPlan, DispatchOpts, Dispatcher, DispatcherConfig, RetryPolicy,
};
use multiprefix::{multiprefix, Engine, ExecConfig, MpError, MultiprefixOutput};
use std::time::Duration;

/// Deterministic request shapes: sizes and bucket counts chosen to cross
/// the engines' block/row boundaries.
const SHAPES: [(usize, usize); 6] = [(0, 0), (1, 1), (64, 3), (500, 1), (1_331, 7), (4_097, 31)];

fn problem(n: usize, m: usize, salt: u64) -> (Vec<i64>, Vec<usize>) {
    let values = (0..n as u64)
        .map(|i| ((i.wrapping_mul(salt | 1) >> 3) % 201) as i64 - 100)
        .collect();
    let labels = (0..n as u64)
        .map(|i| (i.wrapping_mul(salt.wrapping_mul(2).wrapping_add(7)) % m.max(1) as u64) as usize)
        .collect();
    (values, labels)
}

fn oracle(values: &[i64], labels: &[usize], m: usize) -> MultiprefixOutput<i64> {
    multiprefix(values, labels, m, Plus, Engine::Serial).unwrap()
}

/// The only errors chaos is allowed to surface: the typed resilience
/// vocabulary. Anything else (validation errors can't occur here; a wrong
/// answer or panic even less so) fails the soak.
fn is_typed_resilience_error(err: &MpError) -> bool {
    matches!(
        err,
        MpError::AllocationFailed { .. }
            | MpError::EnginePanicked
            | MpError::DeadlineExceeded
            | MpError::Cancelled
            | MpError::Unavailable
    )
}

/// Zero-backoff retry: the soak spends its wall-clock in engines, not sleeps.
fn soak_retry() -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        ..RetryPolicy::default()
    }
}

/// Run every shape through a dispatcher armed with a mixed fault plan and
/// assert the all-or-typed-error contract. Returns (ok, err) counts.
fn soak_round(seed: u64, chain: Vec<Engine>) -> (usize, usize) {
    let cfg = DispatcherConfig {
        chain,
        retry: soak_retry(),
        breaker: BreakerConfig {
            // Let engines keep getting traffic all round: the breaker's own
            // behavior has dedicated tests; the soak wants fault coverage.
            failure_threshold: u32::MAX,
            cooldown: Duration::ZERO,
        },
        // Two threads split the 4 097-element shape into two chunks, so
        // faults land in the combine and apply phases too.
        exec: ExecConfig::default().threads(2),
        ..DispatcherConfig::default()
    };
    let dispatcher = Dispatcher::new(cfg).unwrap();
    let chaos = ChaosPlan::seeded(seed)
        .panic_ppm(60_000)
        .alloc_fail_ppm(60_000)
        .stall(20_000, Duration::from_micros(20))
        .arm();
    let opts = DispatchOpts {
        chaos: Some(chaos),
        ..DispatchOpts::default()
    };

    let (mut ok, mut err) = (0, 0);
    for (round, &(n, m)) in SHAPES.iter().enumerate() {
        let (values, labels) = problem(n, m, seed.wrapping_add(round as u64));
        let expect = oracle(&values, &labels, m);

        match dispatcher.dispatch(&values, &labels, m, Plus, &opts) {
            Ok(out) => {
                assert_eq!(
                    out.output, expect,
                    "seed={seed} shape=({n},{m}): wrong answer from {}",
                    out.engine
                );
                ok += 1;
            }
            Err(e) => {
                assert!(
                    is_typed_resilience_error(&e),
                    "seed={seed} shape=({n},{m}): untyped chaos error {e:?}"
                );
                err += 1;
            }
        }

        match dispatcher.dispatch_reduce_i64(&values, &labels, m, Plus, &opts) {
            Ok(out) => {
                assert_eq!(
                    out.output, expect.reductions,
                    "seed={seed} shape=({n},{m}): wrong reduction from {}",
                    out.engine
                );
                ok += 1;
            }
            Err(e) => {
                assert!(
                    is_typed_resilience_error(&e),
                    "seed={seed} shape=({n},{m}): untyped chaos error {e:?}"
                );
                err += 1;
            }
        }
    }
    (ok, err)
}

#[test]
fn soak_smoke_mixed_faults() {
    let mut total_ok = 0;
    for seed in 0..3u64 {
        let (ok, _err) = soak_round(seed, Engine::ALL.to_vec());
        total_ok += ok;
    }
    // The chain ends in serial, and the fault rates are low enough that the
    // soak must not degenerate into all-errors.
    assert!(
        total_ok > 0,
        "every request failed; fallback is not working"
    );
}

#[test]
fn soak_outcomes_replay_deterministically() {
    // A single-threaded chain draws from the chaos stream in program order,
    // so the same seed must reproduce the same outcome sequence exactly —
    // the property that makes a failing soak seed replayable.
    let run = |seed: u64| -> Vec<String> {
        let cfg = DispatcherConfig {
            chain: vec![Engine::Serial],
            retry: soak_retry(),
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: Duration::ZERO,
            },
            ..DispatcherConfig::default()
        };
        let dispatcher = Dispatcher::new(cfg).unwrap();
        let chaos = ChaosPlan::seeded(seed)
            .panic_ppm(150_000)
            .alloc_fail_ppm(150_000)
            .arm();
        let opts = DispatchOpts {
            chaos: Some(chaos),
            ..DispatchOpts::default()
        };
        SHAPES
            .iter()
            .map(|&(n, m)| {
                let (values, labels) = problem(n, m, seed);
                match dispatcher.dispatch(&values, &labels, m, Plus, &opts) {
                    Ok(out) => format!("ok:{}:{}:{}", out.engine, out.attempts, out.fallbacks),
                    Err(e) => format!("err:{e:?}"),
                }
            })
            .collect()
    };

    for seed in [5u64, 17, 96] {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
    }
}

#[test]
#[ignore = "heavy sweep; run with `cargo test -- --ignored soak`"]
fn soak_full_matrix() {
    // The scheduled job's workload: many seeds, both the full chain and a
    // serial-free chain (so exhausted-chain errors are actually reachable),
    // with higher fault rates than the smoke test.
    let mut total_ok = 0;
    let mut total_err = 0;
    for seed in 0..24u64 {
        let (ok, err) = soak_round(seed, Engine::ALL.to_vec());
        total_ok += ok;
        total_err += err;
        let (ok, err) = soak_round(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            vec![Engine::Chunked, Engine::Spinetree],
        );
        total_ok += ok;
        total_err += err;
    }
    assert!(total_ok > 0, "soak produced no successful requests");
    // With 6% panic + 6% alloc-fail rates per checkpoint over thousands of
    // checkpoints, some requests must have exercised the error path.
    assert!(total_err > 0, "soak never exercised a fault path");
}

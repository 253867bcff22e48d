//! Seeded chaos soak for the resilient dispatcher and the atomic engine:
//! under mixed panic/alloc-failure/stall injection, every request must come
//! back as either the serial-oracle answer or a typed resilience error —
//! never a hang, never a silently wrong answer, never a process abort.
//!
//! The heavy sweep is `#[ignore]`d (run it with
//! `cargo test -- --ignored soak`); a fast smoke version runs in the
//! default suite.

use multiprefix::atomic::try_multiprefix_atomic_cfg_ctx;
use multiprefix::op::Plus;
use multiprefix::resilience::{ChaosPlan, DispatchOpts, Dispatcher, DispatcherConfig, RunContext};
use multiprefix::{multiprefix, Engine, ExecConfig, MpError, MultiprefixOutput};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Count one request's outcome: the oracle answer (`ok`) or a typed
/// resilience error (`err`). Anything else fails the soak.
fn settle<R: Debug + PartialEq>(
    got: Result<R, MpError>,
    want: &R,
    what: &str,
    tally: &mut [usize; 2],
) {
    match got {
        Ok(out) => {
            assert_eq!(&out, want, "{what}: wrong answer");
            tally[0] += 1;
        }
        Err(e) => {
            assert!(
                is_typed_resilience_error(&e),
                "{what}: untyped chaos error {e:?}"
            );
            tally[1] += 1;
        }
    }
}

/// Run every shape through a dispatcher armed with a mixed fault plan, as a
/// multiprefix and a multireduce, and through the atomic engine's hardened
/// entry under the same plan (the dispatcher skips that engine), and assert
/// the all-or-typed-error contract. Returns (ok, err) counts.
fn soak_round(seed: u64, chain: Vec<Engine>) -> (usize, usize) {
    // Two threads split the 4 097-element shape into two chunks, so faults
    // land in the combine and apply phases too, and run the atomic engine
    // on a two-worker pool.
    let exec = ExecConfig::default().threads(2);
    let cfg = DispatcherConfig {
        chain,
        exec,
        ..DispatcherConfig::default()
    };
    let dispatcher = Dispatcher::new(cfg).unwrap();
    let chaos = ChaosPlan::seeded(seed)
        .panic_ppm(60_000)
        .alloc_fail_ppm(60_000)
        .stall(20_000, Duration::from_micros(20))
        .arm();
    let atomic_ctx = RunContext::new()
        .for_engine(Engine::Atomic)
        .with_chaos(chaos.clone());
    let opts = DispatchOpts {
        chaos: Some(chaos),
        ..DispatchOpts::default()
    };

    let mut tally = [0, 0];
    for (round, &(n, m)) in SHAPES.iter().enumerate() {
        let (values, labels) = problem(n, m, seed.wrapping_add(round as u64));
        let expect = oracle(&values, &labels, m);
        let what = |leg: &str| format!("seed={seed} shape=({n},{m}) {leg}");

        let got = dispatcher
            .dispatch(&values, &labels, m, Plus, &opts)
            .map(|o| o.output);
        settle(got, &expect, &what("dispatch"), &mut tally);
        let got = dispatcher
            .dispatch_reduce(&values, &labels, m, Plus, &opts)
            .map(|o| o.output);
        settle(
            got,
            &expect.reductions,
            &what("dispatch_reduce"),
            &mut tally,
        );
        // A panic is contained as the dispatcher contains an attempt's.
        let got = catch_unwind(AssertUnwindSafe(|| {
            try_multiprefix_atomic_cfg_ctx(&values, &labels, m, Plus, exec, &atomic_ctx)
        }))
        .unwrap_or(Err(MpError::EnginePanicked));
        let got = got.map(|o| o.expect("a Wrap run never trips"));
        settle(got, &expect, &what("atomic"), &mut tally);
    }
    (tally[0], tally[1])
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

//! Seeded shard-chaos matrix: {worker panic, worker stall, message drop,
//! message duplication} crossed with faulty-shard selections, from one
//! targeted shard up to every shard at once. The contract under every
//! cell is all-or-nothing: each run returns either the bit-identical
//! serial-oracle answer (possibly via requeue-recovery or single-node
//! degradation) or a clean typed [`MpError`] — never a hang, never a
//! silently wrong answer.
//!
//! The heavy sweep is `#[ignore]`d (`cargo test -- --ignored shard_soak`);
//! a fast deterministic smoke matrix runs in the default suite.
//!
//! Exact-k-faulty-shard subsets are not directly expressible in a ppm
//! plan: `only_shard` pins faults to exactly one shard, full-rate plans
//! hit all `N` shards, and the intermediate ppm arms exercise random
//! proper subsets in between (the per-count recovery ladder is unit
//! tested in `shard::tests`).

use multiprefix::op::Plus;
use multiprefix::resilience::{
    BreakerConfig, ChaosPlan, ChaosState, DispatchOpts, Dispatcher, DispatcherConfig, RunContext,
};
use multiprefix::{
    multiprefix, Engine, ExecConfig, MpError, MultiprefixOutput, ShardConfig, ShardSupervisor,
};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;

/// Shapes crossing the degenerate (empty, single-element, single-bucket)
/// and multi-span layouts without making the drop arms (which must burn
/// through full attempt deadlines) dominate wall-clock.
const SHAPES: [(usize, usize); 5] = [(0, 0), (1, 1), (257, 5), (1_024, 17), (4_097, 31)];

#[derive(Clone, Copy, Debug)]
enum Fault {
    Panic,
    Stall,
    Drop,
    Dup,
}

const FAULTS: [Fault; 4] = [Fault::Panic, Fault::Stall, Fault::Drop, Fault::Dup];

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

/// The only errors shard chaos may surface. `Unavailable` is the
/// recovery-exhausted signal when degradation is disabled; the rest are
/// the shared resilience vocabulary.
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

/// Tight timeouts keep the all-messages-dropped arms bounded: worst case
/// is (retries + 1) attempt deadlines per span, not a hang.
fn fast_cfg() -> ShardConfig {
    ShardConfig::default()
        .shards(SHARDS)
        .task_timeout(Duration::from_millis(40))
        .heartbeat_interval(Duration::from_millis(5))
        .max_task_retries(2)
}

fn plan_for(fault: Fault, seed: u64, ppm: u32, only: Option<usize>) -> Arc<ChaosState> {
    // `stall(0, ..)` injects no engine-level stalls but sets the stall
    // length the shard-worker stall arm shares.
    let mut plan = ChaosPlan::seeded(seed).stall(0, Duration::from_millis(5));
    plan = match fault {
        Fault::Panic => plan.shard_panic_ppm(ppm),
        Fault::Stall => plan.shard_stall_ppm(ppm),
        Fault::Drop => plan.shard_drop_ppm(ppm),
        Fault::Dup => plan.shard_dup_ppm(ppm),
    };
    if let Some(shard) = only {
        plan = plan.only_shard(shard);
    }
    plan.arm()
}

/// Run one (shape, plan) cell and assert the all-or-typed-error contract.
/// Returns true when the run produced the oracle answer.
fn check_cell(
    sup: &ShardSupervisor,
    n: usize,
    m: usize,
    salt: u64,
    chaos: Arc<ChaosState>,
    label: &str,
) -> bool {
    let (values, labels) = problem(n, m, salt);
    let expect = oracle(&values, &labels, m);
    let ctx = RunContext::new().with_chaos(chaos);
    match sup.try_multiprefix(&values, &labels, m, Plus, ExecConfig::default(), &ctx) {
        Ok(Some(out)) => {
            assert_eq!(out, expect, "{label} shape=({n},{m}): wrong answer");
            true
        }
        Ok(None) => panic!("{label} shape=({n},{m}): Wrap policy tripped overflow"),
        Err(e) => {
            assert!(
                is_typed_resilience_error(&e),
                "{label} shape=({n},{m}): untyped chaos error {e:?}"
            );
            false
        }
    }
}

/// Targeted matrix: each fault kind pinned (at certainty) to each shard
/// in turn. Loss of any single shard must be fully recoverable — with
/// `SHARDS - 1` healthy workers and `min_live = 1`, every one of these
/// cells must produce the oracle answer, not an error.
#[test]
fn single_shard_faults_always_recover() {
    let sup = ShardSupervisor::new(fast_cfg());
    for fault in FAULTS {
        for shard in 0..SHARDS {
            for (round, &(n, m)) in SHAPES.iter().enumerate() {
                let seed = 1000 + round as u64;
                let chaos = plan_for(fault, seed, 1_000_000, Some(shard));
                let ok = check_cell(&sup, n, m, seed, chaos, &format!("{fault:?}@shard{shard}"));
                assert!(
                    ok,
                    "{fault:?}@shard{shard} shape=({n},{m}): single-shard fault must recover"
                );
            }
        }
    }
    // Panic and drop arms really did kill shards and requeue their spans.
    assert!(sup.shards_lost() > 0, "matrix never tripped shard loss");
    assert!(sup.requeues() > 0, "matrix never requeued a span");
}

/// Unrestricted moderate-rate faults: random proper subsets of shards
/// fault each run. With degradation enabled every run must still come
/// back correct or cleanly typed.
#[test]
fn mixed_subset_faults_hold_the_contract() {
    let sup = ShardSupervisor::new(fast_cfg());
    let mut oks = 0usize;
    for fault in FAULTS {
        for seed in 0..3u64 {
            for (round, &(n, m)) in SHAPES.iter().enumerate() {
                let salt = seed * 31 + round as u64;
                let chaos = plan_for(fault, 7_000 + seed, 250_000, None);
                if check_cell(&sup, n, m, salt, chaos, &format!("{fault:?}@subset")) {
                    oks += 1;
                }
            }
        }
    }
    assert!(
        oks > 0,
        "every subset-fault run failed; recovery is not working"
    );
}

/// Every shard faulting at certainty exhausts distributed recovery; the
/// supervisor must then degrade to the single-node chunked path and still
/// return the oracle answer (chaos shard faults cannot touch it).
#[test]
fn total_shard_loss_degrades_to_single_node() {
    let sup = ShardSupervisor::new(fast_cfg());
    let (n, m) = (2_048, 13);
    let chaos = plan_for(Fault::Panic, 99, 1_000_000, None);
    let ok = check_cell(&sup, n, m, 99, chaos, "Panic@all");
    assert!(ok, "degraded run must still produce the oracle answer");
    assert!(
        sup.degraded_runs() > 0,
        "total shard loss did not take the degradation path"
    );
}

/// Same total-loss scenario with degradation disabled: the run must fail
/// *closed* with `MpError::Unavailable`, never hang or fabricate output.
#[test]
fn total_shard_loss_without_fallback_fails_closed() {
    let sup = ShardSupervisor::new(fast_cfg().fallback_single_node(false));
    let (values, labels) = problem(1_024, 7, 5);
    let chaos = plan_for(Fault::Panic, 5, 1_000_000, None);
    let ctx = RunContext::new().with_chaos(chaos);
    let err = sup
        .try_multiprefix(&values, &labels, 7, Plus, ExecConfig::default(), &ctx)
        .expect_err("all shards dead and no fallback must error");
    assert!(
        matches!(err, MpError::Unavailable),
        "expected Unavailable, got {err:?}"
    );
}

/// End-to-end through the dispatcher: a chain fronted by the sharded
/// engine under shard chaos must either serve correct answers from the
/// sharded engine (recovering or degrading internally) or fall through
/// the chain — the caller always sees the oracle answer.
#[test]
fn dispatcher_with_sharded_front_survives_shard_chaos() {
    let cfg = DispatcherConfig {
        chain: vec![Engine::Sharded, Engine::Chunked, Engine::Serial],
        shard: Some(fast_cfg()),
        // The chunked fallback splits the 4 097-element shape in two.
        exec: ExecConfig::default().threads(2),
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            cooldown: Duration::ZERO,
        },
        ..DispatcherConfig::default()
    };
    let dispatcher = Dispatcher::new(cfg).unwrap();
    for fault in FAULTS {
        for seed in 0..2u64 {
            let chaos = plan_for(fault, 40 + seed, 400_000, None);
            let opts = DispatchOpts {
                chaos: Some(chaos),
                ..DispatchOpts::default()
            };
            for &(n, m) in &SHAPES {
                let (values, labels) = problem(n, m, seed + 17);
                let expect = oracle(&values, &labels, m);
                let out = dispatcher
                    .dispatch(&values, &labels, m, Plus, &opts)
                    .expect("chain ends in serial; shard chaos must not escape it");
                assert_eq!(
                    out.output, expect,
                    "{fault:?} seed={seed} shape=({n},{m}): wrong answer from {}",
                    out.engine
                );
            }
        }
    }
}

/// Heavy sweep: more seeds and a ppm ladder per fault kind. Run with
/// `cargo test -- --ignored shard_soak`.
#[test]
#[ignore = "heavy chaos soak; run explicitly"]
fn shard_soak_full_matrix() {
    let sup = ShardSupervisor::new(fast_cfg());
    for fault in FAULTS {
        for &ppm in &[50_000u32, 250_000, 1_000_000] {
            for seed in 0..8u64 {
                for (round, &(n, m)) in SHAPES.iter().enumerate() {
                    let salt = seed * 131 + round as u64;
                    let chaos = plan_for(fault, seed.wrapping_mul(911) + ppm as u64, ppm, None);
                    check_cell(&sup, n, m, salt, chaos, &format!("{fault:?}@{ppm}ppm"));
                }
            }
        }
    }
}

//! Seeded **byte-level** chaos matrix for the socket shard transport:
//! {bit corruption, frame truncation, mid-message disconnect, slow-writer
//! stall} over both Unix-domain and loopback-TCP fabrics, plus real
//! worker **processes** SIGKILLed mid-Scan and mid-Apply. Frames are
//! fail-stop, so every injected fault ends in a dead connection, a task
//! timeout, or both. The contract under every cell mirrors
//! `tests/shard_chaos.rs`: each run returns the bit-identical
//! serial-oracle answer (via requeue-recovery, keeper reconnect/respawn,
//! or single-node degradation) or a clean typed [`MpError`] — never a
//! hang, never a silently wrong answer.
//!
//! Worker processes are this very test binary re-executed: the
//! [`proc_worker_entry`] test is the self-exec hook
//! ([`multiprefix::maybe_run_worker_from_env`] flips it into a worker
//! when the worker environment is present, and is a no-op in a normal
//! test run).
//!
//! The heavy ladder is `#[ignore]`d (`cargo test -- --ignored
//! shard_net_soak`); a deterministic smoke matrix runs in the default
//! suite.

use multiprefix::op::Plus;
use multiprefix::resilience::{ChaosPlan, ChaosState, RunContext};
use multiprefix::shard::net::{NetConfig, ENV_DIE};
use multiprefix::shard::{COUNTER_CONN_DEAD_CLOSED, COUNTER_CONN_DEAD_DECODE};
use multiprefix::{MemoryRecorder, MpError, MultiprefixOutput, ShardConfig, ShardSupervisor};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

/// The self-exec hook: when the supervisor spawns worker processes it
/// re-runs this binary filtered to exactly this "test", whose only job
/// is to become the worker. Without the worker environment it is a
/// no-op that trivially passes.
#[test]
fn proc_worker_entry() {
    multiprefix::maybe_run_worker_from_env();
}

fn self_exec(net: NetConfig) -> NetConfig {
    net.self_exec(vec![
        "proc_worker_entry".to_string(),
        "--exact".to_string(),
        "--nocapture".to_string(),
    ])
}

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
    let mut buckets = vec![0i64; m];
    let mut sums = Vec::with_capacity(values.len());
    for (&v, &l) in values.iter().zip(labels) {
        sums.push(buckets[l]);
        buckets[l] = buckets[l].wrapping_add(v);
    }
    MultiprefixOutput {
        sums,
        reductions: buckets,
    }
}

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

/// Tight timeouts bound the all-frames-damaged arms: worst case is
/// (retries + 1) attempt deadlines per span plus a few reconnect
/// backoffs, not a hang.
fn fast_cfg() -> ShardConfig {
    ShardConfig::default()
        .shards(SHARDS)
        .task_timeout(Duration::from_millis(250))
        .heartbeat_interval(Duration::from_millis(10))
        .max_task_retries(2)
        .max_reconnects(2)
        .reconnect_backoff(Duration::from_millis(2))
}

#[derive(Clone, Copy, Debug)]
enum NetChaos {
    Corrupt,
    Truncate,
    Disconnect,
    Stall,
}

const NET_FAULTS: [NetChaos; 4] = [
    NetChaos::Corrupt,
    NetChaos::Truncate,
    NetChaos::Disconnect,
    NetChaos::Stall,
];

fn plan_for(fault: NetChaos, seed: u64, ppm: u32) -> Arc<ChaosState> {
    // `stall(0, ..)` injects no engine stalls but sets the stall length
    // the slow-writer arm shares (clamped to the attempt deadline).
    let plan = ChaosPlan::seeded(seed).stall(0, Duration::from_millis(10));
    match fault {
        NetChaos::Corrupt => plan.net_corrupt_ppm(ppm),
        NetChaos::Truncate => plan.net_truncate_ppm(ppm),
        NetChaos::Disconnect => plan.net_disconnect_ppm(ppm),
        NetChaos::Stall => plan.net_stall_ppm(ppm),
    }
    .arm()
}

/// Run one (shape, plan, fabric) cell and assert the all-or-typed-error
/// contract. Returns true when the run produced the oracle answer.
fn check_cell(
    sup: &ShardSupervisor,
    net: &NetConfig,
    n: usize,
    m: usize,
    salt: u64,
    chaos: Option<Arc<ChaosState>>,
    label: &str,
) -> bool {
    let ctx = match chaos {
        Some(chaos) => RunContext::new().with_chaos(chaos),
        None => RunContext::new(),
    };
    check_cell_ctx(sup, net, n, m, salt, &ctx, label)
}

fn check_cell_ctx(
    sup: &ShardSupervisor,
    net: &NetConfig,
    n: usize,
    m: usize,
    salt: u64,
    ctx: &RunContext,
    label: &str,
) -> bool {
    let (values, labels) = problem(n, m, salt);
    let expect = oracle(&values, &labels, m);
    match sup.try_multiprefix_socket(&values, &labels, m, Plus, net, ctx) {
        Ok(out) => {
            assert_eq!(out, expect, "{label} shape=({n},{m}): wrong answer");
            true
        }
        Err(e) => {
            assert!(
                is_typed_resilience_error(&e),
                "{label} shape=({n},{m}): untyped chaos error {e:?}"
            );
            false
        }
    }
}

/// Moderate-rate byte faults over both fabrics and in-process socket
/// workers: every cell must come back exact or cleanly typed, and with
/// requeue + reconnect + degradation all available most cells recover.
#[test]
fn byte_chaos_matrix_matches_oracle() {
    let shapes = [(1usize, 1usize), (257, 5), (2_048, 17)];
    let mut oks = 0usize;
    let mut injected = 0usize;
    for (kind, net) in [("uds", NetConfig::uds()), ("tcp", NetConfig::tcp())] {
        let sup = ShardSupervisor::new(fast_cfg());
        for (f, fault) in NET_FAULTS.iter().enumerate() {
            // One armed state per fault arm: the draw stream continues
            // across the shape cells, so later runs see fresh positions
            // of the seeded sequence instead of replaying its head.
            let chaos = plan_for(*fault, 40_000 + f as u64 * 17, 250_000);
            for (round, &(n, m)) in shapes.iter().enumerate() {
                if check_cell(
                    &sup,
                    &net,
                    n,
                    m,
                    round as u64,
                    Some(chaos.clone()),
                    &format!("{fault:?}@{kind}"),
                ) {
                    oks += 1;
                }
            }
            injected += chaos.faults_injected();
        }
    }
    assert!(oks > 0, "every byte-chaos run failed; recovery is broken");
    assert!(injected > 0, "the matrix never actually injected a fault");
}

/// Every data frame corrupted, both directions: each damaged frame kills
/// its connection, reconnects die the same way, and the supervisor must
/// degrade to the single-node chunked engine and still return the
/// oracle answer.
#[test]
fn full_rate_corruption_degrades_to_single_node() {
    let sup = ShardSupervisor::new(fast_cfg().task_timeout(Duration::from_millis(100)));
    let net = NetConfig::uds();
    let chaos = plan_for(NetChaos::Corrupt, 77, 1_000_000);
    let rec = MemoryRecorder::shared();
    let ctx = RunContext::new()
        .with_chaos(chaos)
        .with_recorder(rec.clone());
    let ok = check_cell_ctx(&sup, &net, 1_024, 9, 77, &ctx, "Corrupt@full-rate");
    assert!(ok, "degraded run must still produce the oracle answer");
    assert!(
        sup.degraded_runs() > 0,
        "total corruption did not take the degradation path"
    );
    // The damage kills each connection, but the worker's reader meets it
    // first (the supervisor's `Scan` is each stream's first data frame),
    // shuts the socket, and the supervisor's reader sees it close. The
    // in-crate `reader_counts_connection_deaths_by_cause` pins `damage`.
    assert!(
        rec.counter_value(COUNTER_CONN_DEAD_CLOSED) >= 1,
        "no connection death was counted"
    );
    assert_eq!(rec.counter_value(COUNTER_CONN_DEAD_DECODE), 0);
}

/// A worker **process** SIGKILLs itself on its first `Scan` — the
/// "power went out" failure. The reader sees the dead socket, the span
/// is requeued on survivors, the keeper respawns the slot, and the
/// output is bit-identical.
#[test]
fn proc_worker_killed_mid_scan_recovers_bit_identical() {
    let sup = ShardSupervisor::new(fast_cfg());
    let net = self_exec(NetConfig::uds()).shard_env(|shard| {
        if shard == 1 {
            vec![(ENV_DIE.to_string(), "scan:1".to_string())]
        } else {
            Vec::new()
        }
    });
    let ok = check_cell(&sup, &net, 4_096, 31, 9, None, "SIGKILL@scan");
    assert!(ok, "mid-scan kill must recover to the exact answer");
    assert!(sup.shards_lost() >= 1, "the kill was never noticed");
}

/// A seeded mid-message-disconnect storm: connections keep dying while
/// the run is in flight, and the contract must hold — exact output or a
/// typed error, with the losses accounted. (Whether a keeper revival
/// lands *inside* a given run is a timing race — these runs finish in
/// milliseconds — so the reconnect counter itself is pinned
/// deterministically by the in-crate
/// `keeper_revives_severed_connection_and_ticks_counter` test, which
/// severs a socket directly and waits for the revival.)
#[test]
fn disconnect_storm_is_exact_or_typed_and_counts_losses() {
    let sup = ShardSupervisor::new(
        fast_cfg()
            .task_timeout(Duration::from_millis(100))
            .max_reconnects(16),
    );
    let net = NetConfig::uds();
    let chaos = plan_for(NetChaos::Disconnect, 4_242, 400_000);
    for round in 0..3 {
        check_cell(
            &sup,
            &net,
            4_096,
            31,
            4_242 + round,
            Some(chaos.clone()),
            "Disconnect@storm",
        );
    }
    assert!(
        sup.shards_lost() >= 1,
        "the storm never killed a connection"
    );
}

/// Same, but the victim dies on its first `Apply` — after global state
/// (the exscan offsets) has been computed from its Scan answer.
#[test]
fn proc_worker_killed_mid_apply_recovers_bit_identical() {
    let sup = ShardSupervisor::new(fast_cfg());
    let net = self_exec(NetConfig::tcp()).shard_env(|shard| {
        if shard == 2 {
            vec![(ENV_DIE.to_string(), "apply:1".to_string())]
        } else {
            Vec::new()
        }
    });
    let ok = check_cell(&sup, &net, 4_096, 31, 11, None, "SIGKILL@apply");
    assert!(ok, "mid-apply kill must recover to the exact answer");
    assert!(sup.shards_lost() >= 1, "the kill was never noticed");
}

/// Every worker process dies on every `Scan` it receives: respawns burn
/// through the per-slot reconnect budget, distributed recovery is
/// exhausted, and the run must degrade to single-node and stay exact.
#[test]
fn all_proc_workers_dying_exhausts_reconnects_and_degrades() {
    let sup = ShardSupervisor::new(fast_cfg());
    let net = self_exec(NetConfig::uds())
        .shard_env(|_| vec![(ENV_DIE.to_string(), "scan:1".to_string())]);
    let ok = check_cell(&sup, &net, 1_024, 9, 13, None, "SIGKILL@all");
    assert!(ok, "degraded run must still produce the oracle answer");
    assert!(
        sup.degraded_runs() > 0,
        "total worker loss did not take the degradation path"
    );
}

/// **Vanished-peer regression** (no respawn budget): a worker that dies
/// and can never come back maps to shard loss — `Crashed`, requeue on
/// survivors, exact output — and must never become an indefinite hang.
#[test]
fn vanished_peer_requeues_and_never_hangs() {
    let sup = ShardSupervisor::new(fast_cfg().max_reconnects(0));
    let net = self_exec(NetConfig::uds()).shard_env(|shard| {
        if shard == 0 {
            vec![(ENV_DIE.to_string(), "scan:1".to_string())]
        } else {
            Vec::new()
        }
    });
    let start = Instant::now();
    let ok = check_cell(&sup, &net, 2_048, 13, 17, None, "vanish@shard0");
    assert!(ok, "survivors must absorb the vanished peer's span");
    assert!(
        sup.shards_lost() >= 1,
        "the vanished peer was never declared lost"
    );
    assert_eq!(sup.reconnects(), 0, "no budget, so no reconnects");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "vanished peer turned into a stall: {:?}",
        start.elapsed()
    );
}

/// Degenerate shapes end-to-end through real worker processes: the
/// single-element problem (one worker, zero-length apply payloads on
/// idle slots) and the empty problem (identity short-circuit).
#[test]
fn empty_and_single_element_through_proc_workers() {
    let sup = ShardSupervisor::new(fast_cfg());
    let net = self_exec(NetConfig::uds());
    for &(n, m) in &[(0usize, 4usize), (1, 1), (1, 6)] {
        let ok = check_cell(&sup, &net, n, m, 23, None, "degenerate@proc");
        assert!(ok, "clean degenerate shape ({n},{m}) must succeed exactly");
    }
}

/// The heavy soak ladder (`cargo test -- --ignored shard_net_soak`, the
/// CI `shard-net-soak` arm): the fault × rate × seed × fabric sweep, a
/// combined-fault storm, and repeated proc-kill rounds.
#[test]
#[ignore = "heavy soak; run explicitly or via the scheduled CI arm"]
fn shard_net_soak() {
    let shapes = [(1usize, 1usize), (513, 7), (4_097, 31), (16_384, 101)];
    let mut oks = 0usize;
    for (kind, net) in [("uds", NetConfig::uds()), ("tcp", NetConfig::tcp())] {
        let sup = ShardSupervisor::new(fast_cfg());
        for fault in NET_FAULTS {
            for ppm in [30_000u32, 200_000, 600_000] {
                // One armed stream per (fault, rate): continues across
                // the seed × shape cells below.
                let chaos = plan_for(fault, 90_000 + ppm as u64, ppm);
                for seed in 0..3u64 {
                    for (round, &(n, m)) in shapes.iter().enumerate() {
                        let salt = seed * 131 + round as u64;
                        if check_cell(
                            &sup,
                            &net,
                            n,
                            m,
                            salt,
                            Some(chaos.clone()),
                            &format!("soak:{fault:?}@{kind}:{ppm}"),
                        ) {
                            oks += 1;
                        }
                    }
                }
            }
        }
        // Combined storm: all four byte faults at once.
        for seed in 0..3u64 {
            let chaos = ChaosPlan::seeded(7_700 + seed)
                .stall(0, Duration::from_millis(10))
                .net_corrupt_ppm(120_000)
                .net_truncate_ppm(120_000)
                .net_disconnect_ppm(60_000)
                .net_stall_ppm(60_000)
                .arm();
            if check_cell(
                &sup,
                &net,
                8_192,
                53,
                seed,
                Some(chaos),
                &format!("soak:storm@{kind}"),
            ) {
                oks += 1;
            }
        }
    }
    // Repeated proc-kill rounds, alternating the victim and the phase.
    for round in 0..4u64 {
        let sup = ShardSupervisor::new(fast_cfg());
        let victim = (round as usize) % SHARDS;
        let spec = if round % 2 == 0 { "scan:1" } else { "apply:1" };
        let net = self_exec(NetConfig::uds()).shard_env(move |shard| {
            if shard == victim {
                vec![(ENV_DIE.to_string(), spec.to_string())]
            } else {
                Vec::new()
            }
        });
        let ok = check_cell(&sup, &net, 8_192, 53, round, None, "soak:SIGKILL");
        assert!(ok, "soak proc-kill round {round} failed to recover");
    }
    assert!(oks > 0, "soak never produced a successful run");
}

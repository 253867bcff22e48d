//! Socket-sharded multiprefix with real worker *processes*: this
//! example re-executes itself as four shard workers over Unix-domain
//! sockets, runs a multiprefix through the wire protocol, then repeats
//! the run with one worker configured to SIGKILL itself mid-Scan — and
//! shows the supervisor absorbing the loss (the lost shard's span
//! requeues on survivors) while producing the bit-identical answer.
//!
//! ```sh
//! cargo run --release --example sharded_sockets
//! ```

use multiprefix::op::Plus;
use multiprefix::shard::net::{NetConfig, ENV_DIE};
use multiprefix::{maybe_run_worker_from_env, ShardConfig, ShardSupervisor};

fn main() {
    // Self-exec hook: when the worker environment is present this
    // process *is* a shard worker — it connects back to the
    // supervisor, serves Scan/Apply over the socket, and exits here.
    maybe_run_worker_from_env();

    let n = 200_000;
    let m = 64;
    let values: Vec<i64> = (0..n as u64)
        .map(|i| ((i.wrapping_mul(0x9E37_79B9) >> 7) % 201) as i64 - 100)
        .collect();
    let labels: Vec<usize> = (0..n as u64)
        .map(|i| ((i.wrapping_mul(0xC2B2_AE35) >> 9) % m as u64) as usize)
        .collect();

    // Serial oracle for the bit-identical check.
    let mut buckets = vec![0i64; m];
    let mut sums = Vec::with_capacity(n);
    for (&v, &l) in values.iter().zip(&labels) {
        sums.push(buckets[l]);
        buckets[l] = buckets[l].wrapping_add(v);
    }

    let sup = ShardSupervisor::new(ShardConfig::default().shards(4));

    // Round 1: a healthy fleet of four spawned worker processes, wired
    // up over Unix-domain sockets. `self_exec(vec![])` re-runs this
    // binary with no extra arguments as each worker.
    let net = NetConfig::uds().self_exec(vec![]);
    let out = sup.multiprefix_socket(&values, &labels, m, Plus, &net);
    assert_eq!(out.sums, sums);
    assert_eq!(out.reductions, buckets);
    println!("healthy fleet (uds):   4 worker processes, exact answer");

    // Round 2: shard 2's process is told (via its environment) to
    // SIGKILL itself the first time it receives a Scan — a worker
    // vanishing mid-run. The supervisor sees the dead socket, counts the
    // shard lost for the rest of the run, requeues the span on
    // survivors, and the answer must not change by a single bit.
    let net = net.shard_env(|shard| {
        if shard == 2 {
            vec![(ENV_DIE.to_string(), "scan:1".to_string())]
        } else {
            Vec::new()
        }
    });
    let out = sup.multiprefix_socket(&values, &labels, m, Plus, &net);
    assert_eq!(out.sums, sums);
    assert_eq!(out.reductions, buckets);
    println!("killed mid-scan (uds): worker 2 SIGKILLed itself, exact answer");

    // Round 3: the same recovery story over loopback TCP.
    let net = NetConfig::tcp().self_exec(vec![]).shard_env(|shard| {
        if shard == 1 {
            vec![(ENV_DIE.to_string(), "apply:1".to_string())]
        } else {
            Vec::new()
        }
    });
    let out = sup.multiprefix_socket(&values, &labels, m, Plus, &net);
    assert_eq!(out.sums, sums);
    assert_eq!(out.reductions, buckets);
    println!("killed mid-apply (tcp): worker 1 SIGKILLed itself, exact answer");

    println!(
        "supervisor counters:   shards_lost={} requeues={} degraded_runs={}",
        sup.shards_lost(),
        sup.requeues(),
        sup.degraded_runs(),
    );
}

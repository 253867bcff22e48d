//! Machine-readable bench baseline: per-engine, per-phase timings plus the
//! §4.4 row-length sweep and a chunks-per-thread sweep for the chunked
//! engine, written to `BENCH_multiprefix.json`.
//!
//! Every engine runs under a [`MemoryRecorder`], so the per-phase numbers
//! come from exactly the instrumentation a production embedding would see
//! (`engine.<kind>.phase.<phase>` histograms) rather than ad-hoc stopwatch
//! code. The row-length sweep reruns the spinetree engine across row-length
//! factors bracketing the paper's `p ≈ 0.749·√n` optimum; the chunk sweep
//! reruns the chunked engine across chunks-per-thread oversubscription
//! factors.
//!
//! ```text
//! cargo run --release --example bench_report            # full sweep
//! cargo run --release --example bench_report -- --smoke # CI smoke mode
//! cargo run --release --example bench_report -- --out my_report.json
//! cargo run --release --example bench_report -- --gate BENCH_multiprefix.json
//! cargo run --release --example bench_report -- --transport uds
//! cargo run --release --example bench_report -- --kernel simd  # pin AVX2, refuse fallback
//! cargo run --release --example bench_report -- --service           # service saturation sweep
//! cargo run --release --example bench_report -- --service --gate BENCH_service.json
//! ```
//!
//! `--kernel={auto,simd,scalar}` pins the process-wide vectorized-kernel
//! level before anything runs: `simd` refuses to start (exit 2) unless
//! the host actually has AVX2 — no silent portable fallback — `scalar`
//! pins every engine to its scalar inner loops, and `auto` (the default)
//! keeps runtime detection. The gate's `simd_vs_scalar` check only fires
//! when the resolved level is AVX2, so the `--kernel scalar` CI leg
//! exercises the scalar engines against the same engine baselines without
//! tripping the SIMD pin.
//!
//! `--service` switches to the **service saturation bench**: sustained
//! req/s and queue-wait p99 versus offered load (1/8/32/64 pipelined
//! submitter threads) over the sharded ingress, against the single-mutex
//! baseline (`ingress_shards = 1`) and across coalescing modes (adaptive /
//! static sweep / off), written to `BENCH_service.json`. Each row also
//! records which path served it: `inline` counts requests run on their
//! submitters' threads, `workers_started` the pool threads the first
//! queued request spawned (0 when none queued). Its `--gate`
//! compares *ratios between cells measured back-to-back on the same host*
//! (sharded/single throughput per thread count, adaptive/best-static) so
//! the check is immune to absolute machine speed; any ratio regressing
//! more than 25% versus the committed baseline fails the process.
//!
//! `--transport={channel,uds,tcp}` selects the wire the *sharded* engine
//! rides for its rows (the in-process channel transport, Unix-domain
//! sockets, or loopback TCP — the latter two serialize every
//! `Scan`/`Apply` through the framed codec). The choice is recorded in
//! the report as the top-level `"transport"` key; it is informational
//! and does not participate in `--gate` comparisons, which always
//! measure the default channel transport.
//!
//! `--gate` is the regression gate: it re-measures every engine at the
//! baseline's sizes and compares *serial-normalized* ratios (engine time /
//! serial time on the same host), so the check is immune to absolute machine
//! speed. Any engine whose ratio regresses by more than 25% versus the
//! committed baseline fails the process with a non-zero exit.
//!
//! The `auto` section times what callers get by default:
//! `multiprefix(…, Engine::Auto)` through the public API (validation
//! included), paired with the serial Figure 2 loop at the same sizes.
//! `--gate` holds its `auto_vs_serial` ratios to the same 25% tolerance.
//!
//! The `dispatch` section pairs the default [`Dispatcher`] with
//! `try_multiprefix(…, Engine::Auto, …)`: the dispatcher runs what `Auto`
//! runs, so `--gate` fails a `dispatch_vs_auto` ratio above 1.10 at
//! n ≥ 10⁵ (the n = 10⁴ point is recorded, not gated).

use multiprefix::chunked::multiprefix_chunked_with_parts;
use multiprefix::obs::{phase_key, MemoryRecorder, Phase};
use multiprefix::op::Plus;
use multiprefix::resilience::RunContext;
use multiprefix::simd::{active_level, avx2_available, pin_level, SimdLevel};
use multiprefix::spinetree::build::ArbPolicy;
use multiprefix::spinetree::engine::multiprefix_spinetree_instrumented;
use multiprefix::spinetree::layout::{choose_row_len_skewed, Layout};
use multiprefix::{
    multiprefix, try_multiprefix, try_multiprefix_socket_ctx, DispatchOpts, Dispatcher,
    DispatcherConfig, Engine, ExecConfig, NetConfig, OverflowPolicy, ShardConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic pseudo-random labels over `[0, m)` — the §4.3 workload.
fn lcg_labels(n: usize, m: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        })
        .collect()
}

struct SweepConfig {
    sizes: &'static [usize],
    iters: u32,
    row_sweep_n: usize,
    row_sweep_iters: u32,
    session_ops: u64,
    session_recovery: &'static [u64],
    mode: &'static str,
}

// 19 timed iterations plus one warm-up put 20 samples in every phase
// histogram, so rank(p95) = 19 and rank(p99) = 20 are distinct — together
// with the histogram's in-bucket interpolation, the committed p95/p99
// stay distinguishable instead of collapsing to one bucket midpoint.
const FULL: SweepConfig = SweepConfig {
    sizes: &[10_000, 100_000, 1_000_000],
    iters: 19,
    row_sweep_n: 250_000,
    row_sweep_iters: 3,
    session_ops: 20_000,
    session_recovery: &[1_000, 10_000, 50_000],
    mode: "full",
};

const SMOKE: SweepConfig = SweepConfig {
    sizes: &[4_096],
    iters: 2,
    row_sweep_n: 4_096,
    row_sweep_iters: 1,
    session_ops: 1_000,
    session_recovery: &[256, 1_024],
    mode: "smoke",
};

const ROW_FACTORS: [f64; 5] = [0.25, 0.5, 0.749, 1.0, 2.0];

/// Worker count pinned for the parallel engines so baseline and gate runs
/// compare like against like regardless of host core count.
const BENCH_THREADS: usize = 4;

/// Chunks-per-thread oversubscription factors for the chunked-engine sweep.
const CHUNK_FACTORS: [usize; 4] = [1, 2, 4, 8];

/// Wire for the sharded engine's bench rows (`--transport`): the
/// in-process channel transport, or the socket transport over UDS /
/// loopback TCP with in-process workers. Set once at startup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ShardTransport {
    Channel,
    Uds,
    Tcp,
}

impl ShardTransport {
    fn name(self) -> &'static str {
        match self {
            ShardTransport::Channel => "channel",
            ShardTransport::Uds => "uds",
            ShardTransport::Tcp => "tcp",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "channel" => Some(ShardTransport::Channel),
            "uds" => Some(ShardTransport::Uds),
            "tcp" => Some(ShardTransport::Tcp),
            _ => None,
        }
    }
}

static TRANSPORT: std::sync::OnceLock<ShardTransport> = std::sync::OnceLock::new();

fn shard_transport() -> ShardTransport {
    TRANSPORT.get().copied().unwrap_or(ShardTransport::Channel)
}

/// Regression tolerance for `--gate`: fail when an engine's
/// serial-normalized ratio grows past `baseline * (1 + 25%)`.
const GATE_TOLERANCE: f64 = 0.25;

/// Paired trials per engine/size point at `n = 1e6`; smaller sizes get
/// proportionally more trials (capped) so every point receives comparable
/// total measurement time — sub-millisecond runs need many more samples
/// before their median ratio stabilizes.
const GATE_TRIALS: usize = 9;

/// Trials for a point of size `n`: scale [`GATE_TRIALS`] up as `n` shrinks
/// below 1e6, clamped to an odd count in `[GATE_TRIALS, 61]`.
fn gate_trials(n: usize) -> usize {
    let scaled = GATE_TRIALS.saturating_mul(1_000_000) / n.max(1);
    scaled.clamp(GATE_TRIALS, 61) | 1
}

/// One engine iteration under `ctx`; returns the reduction checksum so the
/// work cannot be optimized away.
fn run_engine(kind: Engine, values: &[i64], labels: &[usize], m: usize, ctx: &RunContext) -> i64 {
    let policy = OverflowPolicy::Wrap;
    let cfg = ExecConfig::default().threads(BENCH_THREADS);
    let out = match kind {
        Engine::Serial => {
            multiprefix::serial::try_multiprefix_serial_ctx(values, labels, m, Plus, policy, ctx)
                .map(Some)
        }
        Engine::Spinetree => multiprefix::spinetree::engine::try_multiprefix_spinetree_ctx(
            values, labels, m, Plus, policy, ctx,
        ),
        Engine::Auto | Engine::Chunked => {
            multiprefix::chunked::try_multiprefix_chunked_cfg_ctx(values, labels, m, Plus, cfg, ctx)
        }
        Engine::Atomic => {
            multiprefix::atomic::try_multiprefix_atomic_cfg_ctx(values, labels, m, Plus, cfg, ctx)
        }
        Engine::Sharded => {
            let shard_cfg = ShardConfig::default().shards(BENCH_THREADS);
            match shard_transport() {
                ShardTransport::Channel => multiprefix::shard::try_multiprefix_sharded_ctx(
                    values, labels, m, Plus, cfg, &shard_cfg, ctx,
                ),
                ShardTransport::Uds => try_multiprefix_socket_ctx(
                    values,
                    labels,
                    m,
                    Plus,
                    &shard_cfg,
                    &NetConfig::uds(),
                    ctx,
                )
                .map(Some),
                ShardTransport::Tcp => try_multiprefix_socket_ctx(
                    values,
                    labels,
                    m,
                    Plus,
                    &shard_cfg,
                    &NetConfig::tcp(),
                    ctx,
                )
                .map(Some),
            }
        }
    };
    let out = out
        .expect("bench workload must not fail")
        .expect("Wrap policy never trips");
    out.reductions.iter().copied().fold(0i64, i64::wrapping_add)
}

fn engine_from_name(name: &str) -> Option<Engine> {
    Engine::ALL.into_iter().find(|k| k.to_string() == name)
}

fn json_num(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// One engine/size measurement recovered from a committed report.
struct BaselineRow {
    engine: String,
    n: usize,
    /// `total_ns_min` when present, else `total_ns_mean`.
    ns: u64,
    /// Load-cancelling paired ratio (`serial_ratio_min`), when present.
    ratio: Option<f64>,
}

/// Line-scan the report's own output format for engine/size rows. The
/// schema is ours (`multiprefix-bench/1`), written by `main` below with
/// one key per line, so a full JSON parser is unnecessary.
fn parse_engine_times(text: &str) -> Vec<BaselineRow> {
    let mut out: Vec<BaselineRow> = Vec::new();
    let mut engine = String::new();
    let mut n = 0usize;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with("\"row_length_sweep\"") {
            break;
        }
        if let Some(rest) = t.strip_prefix("\"engine\": \"") {
            engine = rest.trim_end_matches("\",").to_string();
        } else if let Some(rest) = t.strip_prefix("\"n\": ") {
            n = rest.trim_end_matches(',').parse().unwrap_or(0);
        } else if let Some(rest) = t.strip_prefix("\"total_ns_mean\": ") {
            let mean = rest.trim_end_matches(',').parse().unwrap_or(0);
            out.push(BaselineRow {
                engine: engine.clone(),
                n,
                ns: mean,
                ratio: None,
            });
        } else if let Some(rest) = t.strip_prefix("\"total_ns_min\": ") {
            let min = rest.trim_end_matches(',').parse().unwrap_or(0);
            if let Some(last) = out.last_mut() {
                if last.engine == engine && last.n == n {
                    last.ns = min;
                }
            }
        } else if let Some(rest) = t.strip_prefix("\"serial_ratio_min\": ") {
            let ratio = rest.trim_end_matches(',').parse().ok();
            if let Some(last) = out.last_mut() {
                if last.engine == engine && last.n == n {
                    last.ratio = ratio;
                }
            }
        }
    }
    out
}

/// Measure the serial-normalized ratio of `kind` on the standard workload
/// at size `n`. Each trial times the serial reference and the engine
/// back-to-back and forms their ratio, so a sustained slowdown of the host
/// (another tenant, thermal throttling) inflates numerator and denominator
/// together and cancels out. The **median** ratio over [`GATE_TRIALS`]
/// trials is returned — pairing cancels sustained load, the median
/// discards the per-trial outliers pairing can't (a context switch landing
/// inside exactly one of the two timed runs).
fn measure_paired_ratio(kind: Engine, n: usize, checksum: &mut i64) -> f64 {
    let m = (n / 16).max(1);
    let values = vec![1i64; n];
    let labels = lcg_labels(n, m, 42);
    let ctx = RunContext::new();
    // Warm up both sides (first-touch faults, thread spawn-up).
    *checksum = checksum.wrapping_add(run_engine(Engine::Serial, &values, &labels, m, &ctx));
    *checksum = checksum.wrapping_add(run_engine(kind, &values, &labels, m, &ctx));
    let trials = gate_trials(n);
    let mut ratios = Vec::with_capacity(trials);
    for _ in 0..trials {
        let started = Instant::now();
        *checksum = checksum.wrapping_add(run_engine(Engine::Serial, &values, &labels, m, &ctx));
        let serial_ns = started.elapsed().as_nanos().max(1) as f64;
        let started = Instant::now();
        *checksum = checksum.wrapping_add(run_engine(kind, &values, &labels, m, &ctx));
        let engine_ns = started.elapsed().as_nanos().max(1) as f64;
        ratios.push(engine_ns / serial_ns);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

/// The SIMD-vs-scalar paired ratio on the workload the vectorized kernels
/// actually accelerate: a single-label (`m == 1`) wrapping-add multiprefix
/// over `u64`, run by the chunked engine — its dense local scan and apply
/// prepend become [`multiprefix::simd`] kernel calls, while the scalar leg
/// pins the per-run [`ExecConfig::force_scalar`] escape hatch. Both legs
/// run back-to-back inside every trial so sustained host load cancels out
/// of the quotient; the median ratio over [`gate_trials`] trials is
/// returned together with each leg's minimum wall time.
fn measure_simd_point(n: usize, checksum: &mut i64) -> (f64, u64, u64) {
    let values: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let labels = vec![0usize; n];
    let ctx = RunContext::new();
    let simd_cfg = ExecConfig::default().threads(BENCH_THREADS);
    let scalar_cfg = simd_cfg.force_scalar(true);
    let time_leg = |cfg: ExecConfig, checksum: &mut i64| -> u64 {
        let started = Instant::now();
        let out = multiprefix::chunked::try_multiprefix_chunked_cfg_ctx(
            &values, &labels, 1, Plus, cfg, &ctx,
        )
        .expect("simd bench workload must not fail")
        .expect("Wrap policy never trips");
        *checksum = checksum.wrapping_add(out.reductions[0] as i64);
        started.elapsed().as_nanos().max(1) as u64
    };
    // Warm both legs (first-touch faults, rayon pool spin-up).
    time_leg(scalar_cfg, checksum);
    time_leg(simd_cfg, checksum);
    let trials = gate_trials(n);
    let mut ratios = Vec::with_capacity(trials);
    let (mut simd_min, mut scalar_min) = (u64::MAX, u64::MAX);
    for _ in 0..trials {
        let scalar_ns = time_leg(scalar_cfg, checksum);
        let simd_ns = time_leg(simd_cfg, checksum);
        scalar_min = scalar_min.min(scalar_ns);
        simd_min = simd_min.min(simd_ns);
        ratios.push(scalar_ns as f64 / simd_ns as f64);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (ratios[ratios.len() / 2], simd_min, scalar_min)
}

/// The paired loop behind the `auto` and `dispatch` sections: `time(false)`
/// times the reference and `time(true)` the measured call, back to back in
/// each of [`gate_trials`] trials after one warm-up of each, as in
/// [`measure_paired_ratio`]. Returns the median per-trial quotient
/// (measured / reference) and each side's minimum wall time, measured
/// first.
fn paired_median(n: usize, mut time: impl FnMut(bool) -> u64) -> (f64, u64, u64) {
    // Warm up both sides (first-touch faults).
    time(false);
    time(true);
    let trials = gate_trials(n);
    let mut ratios = Vec::with_capacity(trials);
    let (mut probe_min, mut base_min) = (u64::MAX, u64::MAX);
    for _ in 0..trials {
        let base_ns = time(false);
        let probe_ns = time(true);
        base_min = base_min.min(base_ns);
        probe_min = probe_min.min(probe_ns);
        ratios.push(probe_ns as f64 / base_ns as f64);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (ratios[ratios.len() / 2], probe_min, base_min)
}

/// `Engine::Auto` against the serial reference: the public
/// `multiprefix(…, Engine::Auto)`, as any caller runs it, against
/// `multiprefix_serial` ([`paired_median`]). Returns the median ratio and
/// each side's minimum wall time.
fn measure_auto_point(n: usize, checksum: &mut i64) -> (f64, u64, u64) {
    let m = (n / 16).max(1);
    let values = vec![1i64; n];
    let labels = lcg_labels(n, m, 42);
    paired_median(n, |auto| {
        let started = Instant::now();
        let out = if auto {
            multiprefix(&values, &labels, m, Plus, Engine::Auto)
                .expect("auto bench workload must not fail")
        } else {
            multiprefix::serial::multiprefix_serial(&values, &labels, m, Plus)
        };
        let ns = started.elapsed().as_nanos().max(1) as u64;
        *checksum = checksum.wrapping_add(out.reductions[0]);
        ns
    })
}

/// `--gate` holds the `dispatch_vs_auto` ratio at or below this bound: the
/// dispatcher runs what `Engine::Auto` runs, so only its own bookkeeping
/// may separate them.
const DISPATCH_BOUND: f64 = 1.10;

/// The smallest size whose `dispatch_vs_auto` ratio `--gate` checks. Below
/// it the dispatcher's fixed per-request cost is a visible share of a
/// call, so the ratio is recorded but not gated.
const DISPATCH_GATE_MIN_N: usize = 100_000;

/// The default dispatcher against `Engine::Auto`, both hardened:
/// `Dispatcher::dispatch` under `DispatcherConfig::default()` against
/// `try_multiprefix(…, Engine::Auto, ExecConfig::default())`
/// ([`paired_median`]). Returns the median ratio and each side's minimum
/// wall time.
fn measure_dispatch_point(n: usize, checksum: &mut i64) -> (f64, u64, u64) {
    let m = (n / 16).max(1);
    let values = vec![1i64; n];
    let labels = lcg_labels(n, m, 42);
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).expect("default dispatcher");
    let opts = DispatchOpts::default();
    paired_median(n, |dispatch| {
        let started = Instant::now();
        let out = if dispatch {
            dispatcher
                .dispatch(&values, &labels, m, Plus, &opts)
                .map(|outcome| outcome.output)
        } else {
            try_multiprefix(
                &values,
                &labels,
                m,
                Plus,
                Engine::Auto,
                ExecConfig::default(),
            )
        }
        .expect("dispatch bench workload must not fail");
        let ns = started.elapsed().as_nanos().max(1) as u64;
        *checksum = checksum.wrapping_add(out.reductions[0]);
        ns
    })
}

/// Line-scan a committed report for the one-line `{"size": …}` points
/// carrying `key` (`simd_vs_scalar` under `"simd"`, `auto_vs_serial`
/// under `"auto"`, `dispatch_vs_auto` under `"dispatch"`; see `main`'s
/// writer).
fn parse_points(text: &str, key: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let marker = format!("\"{key}\": ");
    for line in text.lines() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix("{\"size\": ") else {
            continue;
        };
        let Some((size, tail)) = rest.split_once(',') else {
            continue;
        };
        let Some(ratio) = tail.split(marker.as_str()).nth(1) else {
            continue;
        };
        let size = size.trim().parse::<usize>().ok();
        let ratio = ratio
            .trim_end_matches(['}', ','])
            .trim()
            .parse::<f64>()
            .ok();
        if let (Some(size), Some(ratio)) = (size, ratio) {
            out.push((size, ratio));
        }
    }
    out
}

/// The `--gate` mode: compare fresh serial-normalized ratios against the
/// committed baseline and exit non-zero on a >25% regression.
fn run_gate(baseline_path: &str) -> ! {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let base = parse_engine_times(&text);
    assert!(
        !base.is_empty(),
        "baseline {baseline_path} has no engine measurements"
    );
    let base_ns = |name: &str, n: usize| -> Option<u64> {
        base.iter()
            .find(|r| r.engine == name && r.n == n)
            .map(|r| r.ns)
    };
    let mut sizes: Vec<usize> = base
        .iter()
        .filter(|r| r.engine == "serial")
        .map(|r| r.n)
        .collect();
    sizes.dedup();
    assert!(!sizes.is_empty(), "baseline lacks serial reference rows");

    let mut checksum = 0i64;
    // Warm the process the way the baseline generator does: its sweep
    // touches the largest size early, which (among other things) raises
    // the allocator's dynamic mmap threshold so mid-size engine buffers
    // are recycled from the heap instead of being mapped — and
    // page-faulted — afresh on every run. Without this, sub-millisecond
    // points measure page-fault overhead the baseline never saw.
    if let Some(&max_n) = sizes.iter().max() {
        let ctx = RunContext::new();
        let m = (max_n / 16).max(1);
        let values = vec![1i64; max_n];
        let labels = lcg_labels(max_n, m, 42);
        for kind in Engine::ALL {
            checksum = checksum.wrapping_add(run_engine(kind, &values, &labels, m, &ctx));
        }
    }
    let mut failures = 0usize;
    for &n in &sizes {
        let serial_base = base_ns("serial", n).expect("serial baseline row") as f64;
        for row in &base {
            if row.n != n || row.engine == "serial" {
                continue;
            }
            let name = row.engine.as_str();
            let Some(kind) = engine_from_name(name) else {
                eprintln!("gate: skipping unknown engine {name:?} in baseline");
                continue;
            };
            // Prefer the committed paired ratio: both its sides were
            // measured back-to-back, so it is immune to load shifts during
            // baseline generation. Fall back to min-ns division for
            // baselines written before the field existed.
            let base_ratio = row.ratio.unwrap_or(row.ns as f64 / serial_base);
            let cur_ratio = measure_paired_ratio(kind, n, &mut checksum);
            let regressed = cur_ratio > base_ratio * (1.0 + GATE_TOLERANCE);
            eprintln!(
                "gate: n={n:>8} {name:<9} ratio {cur_ratio:>7.3} vs baseline {base_ratio:>7.3} {}",
                if regressed { "REGRESSED" } else { "ok" }
            );
            if regressed {
                failures += 1;
            }
        }
    }
    // The SIMD regression pin: the committed simd_vs_scalar points must
    // reproduce within the same tolerance. Only meaningful when this
    // process actually resolved the AVX2 kernels — the `--kernel scalar`
    // CI leg and non-AVX2 hosts skip it (the engine rows above still ran).
    let simd_base = parse_points(&text, "simd_vs_scalar");
    if simd_base.is_empty() {
        eprintln!("gate: baseline has no simd_vs_scalar points (pre-simd baseline)");
    } else if active_level() != SimdLevel::Avx2 {
        eprintln!(
            "gate: simd ratio check skipped (kernel level = {})",
            active_level().name()
        );
    } else {
        for &(n, base) in &simd_base {
            let (cur, simd_ns, scalar_ns) = measure_simd_point(n, &mut checksum);
            let regressed = cur < base * (1.0 - GATE_TOLERANCE);
            eprintln!(
                "gate: n={n:>8} simd_vs_scalar {cur:>7.3} vs baseline {base:>7.3} \
                 (simd {simd_ns}ns, scalar {scalar_ns}ns) {}",
                if regressed { "REGRESSED" } else { "ok" }
            );
            if regressed {
                failures += 1;
            }
        }
    }
    // The default path: `Engine::Auto` against serial; a ratio grown
    // past the tolerance fails.
    let auto_base = parse_points(&text, "auto_vs_serial");
    if auto_base.is_empty() {
        eprintln!("gate: baseline has no auto_vs_serial points (pre-auto baseline)");
    }
    for &(n, base) in &auto_base {
        let (cur, auto_ns, serial_ns) = measure_auto_point(n, &mut checksum);
        let regressed = cur > base * (1.0 + GATE_TOLERANCE);
        eprintln!(
            "gate: n={n:>8} auto_vs_serial {cur:>7.3} vs baseline {base:>7.3} \
             (auto {auto_ns}ns, serial {serial_ns}ns) {}",
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            failures += 1;
        }
    }
    // The dispatcher runs what `Auto` runs: at the gated sizes its ratio
    // must stay within the absolute bound, whatever the baseline recorded.
    let dispatch_base = parse_points(&text, "dispatch_vs_auto");
    if dispatch_base.is_empty() {
        eprintln!("gate: baseline has no dispatch_vs_auto points (pre-dispatch baseline)");
    }
    for &(n, _) in &dispatch_base {
        let (cur, dispatch_ns, auto_ns) = measure_dispatch_point(n, &mut checksum);
        let verdict = if n < DISPATCH_GATE_MIN_N {
            "recorded, not gated"
        } else if cur > DISPATCH_BOUND {
            failures += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "gate: n={n:>8} dispatch_vs_auto {cur:>7.3} vs bound {DISPATCH_BOUND:>7.3} \
             (dispatch {dispatch_ns}ns, auto {auto_ns}ns) {verdict}"
        );
    }
    eprintln!("gate: checksum {checksum}");
    if failures > 0 {
        eprintln!("gate: FAILED — {failures} engine/size point(s) past their bound");
        std::process::exit(1);
    }
    eprintln!("gate: passed");
    std::process::exit(0);
}

/// The durable-session measurements: a fresh store per leg under a
/// temporary directory, removed afterwards.
fn session_bench(json: &mut String, cfg: &SweepConfig, checksum: &mut i64) {
    use multiprefix::session::{DurableSession, SessionOptions};

    const SESSION_M: usize = 64;
    let n_ops = cfg.session_ops;
    let labels = lcg_labels(n_ops as usize, SESSION_M, 13);
    let bench_dir = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("mpx-bench-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let fill = |dir: &std::path::Path, ops: u64, no_sync: bool| -> u64 {
        let opts = SessionOptions {
            no_sync,
            ..SessionOptions::default()
        };
        let mut s = DurableSession::open(dir, SESSION_M, Plus, opts).unwrap();
        let started = Instant::now();
        for i in 0..ops {
            s.append(labels[(i as usize) % labels.len()], i as i64)
                .unwrap();
        }
        let ns = started.elapsed().as_nanos() as u64;
        s.close().unwrap();
        ns / ops.max(1)
    };

    json.push_str("  \"session\": {\n");
    let _ = writeln!(json, "    \"m\": {SESSION_M},");
    let _ = writeln!(json, "    \"append_ops\": {n_ops},");

    // Append throughput, both sides of the durability barrier: the
    // fsync-per-record contract an `Ok` acknowledgment stands on, and
    // the no_sync configuration that trades the barrier for throughput.
    let dir = bench_dir("nosync");
    let nosync_ns = fill(&dir, n_ops, true);
    std::fs::remove_dir_all(&dir).unwrap();
    let dir = bench_dir("synced");
    let synced_ns = fill(&dir, n_ops, false);
    let _ = writeln!(json, "    \"append_synced_ns_per_op\": {synced_ns},");
    let _ = writeln!(json, "    \"append_nosync_ns_per_op\": {nosync_ns},");

    // Query latency over the synced store, via the session's own
    // observability histogram (the same instrument an embedding reads).
    let rec = MemoryRecorder::shared();
    let opts = SessionOptions {
        recorder: Some(Arc::clone(&rec) as Arc<dyn multiprefix::Recorder>),
        ..SessionOptions::default()
    };
    let s = DurableSession::<i64, Plus>::open(&dir, SESSION_M, Plus, opts).unwrap();
    let queries = (n_ops * 4).min(50_000);
    let mut state = 0xBEEFu64;
    for _ in 0..queries {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (state >> 33) % n_ops;
        *checksum = checksum.wrapping_add(s.prefix_query(idx).unwrap());
    }
    drop(s);
    let snap = rec.histogram("session.query").expect("query histogram");
    let _ = writeln!(json, "    \"query_count\": {},", snap.count);
    let _ = writeln!(
        json,
        "    \"query_ns\": {{\"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}},",
        json_num(snap.mean()),
        json_num(snap.p50()),
        json_num(snap.p95()),
        json_num(snap.p99()),
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Recovery time vs WAL length: a store whose whole history sits in
    // one un-snapshotted segment, so `open` replays exactly `wal_records`
    // records (plus the exscan self-check) to rebuild the Fenwick forest.
    json.push_str("    \"recovery\": [\n");
    for (ri, &records) in cfg.session_recovery.iter().enumerate() {
        let dir = bench_dir(&format!("recover-{records}"));
        fill(&dir, records, true);
        let started = Instant::now();
        let s = DurableSession::<i64, Plus>::open(&dir, SESSION_M, Plus, SessionOptions::default())
            .unwrap();
        let recover_ns = started.elapsed().as_nanos() as u64;
        assert_eq!(s.recovery_report().replayed_records, records);
        *checksum = checksum.wrapping_add(s.label_total(0).unwrap());
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = write!(
            json,
            "      {{\"wal_records\": {records}, \"recover_ns\": {recover_ns}}}"
        );
        json.push_str(if ri + 1 < cfg.session_recovery.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
}

/// The `--service` arm: saturation curves for the sharded MPMC ingress.
mod service_bench {
    use super::{json_num, GATE_TOLERANCE};
    use multiprefix::op::Plus;
    use multiprefix::service::{CoalesceConfig, Request, Service, ServiceConfig, Ticket};
    use std::fmt::Write as _;
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    /// Request size for the saturation cells: small enough (n ≤ 512) that
    /// the engines' fixed costs — and therefore the ingress path — dominate.
    const SERVICE_N: usize = 64;
    /// Label-space size; each submitter thread uses a distinct dominant
    /// label (`tid % SERVICE_M`) so affinity routing actually spreads load.
    const SERVICE_M: usize = 8;
    /// In-flight pipeline window per submitter thread. At the higher
    /// thread counts `threads × WINDOW` deliberately exceeds the queue
    /// capacity, so the cells drive the full backpressure machinery —
    /// space waits, targeted wakeups, shed scans — not just the lock.
    const WINDOW: usize = 8;
    const QUEUE_CAPACITY: usize = 128;
    /// Static `max_requests` sweep points the adaptive coalescer must
    /// match or beat at full load.
    const STATIC_SWEEP: [usize; 3] = [4, 16, 64];

    /// The pre-sharding single-mutex monitor ingress (one
    /// `Mutex<QueueState>`, submitters sleeping on the queue condvar, an
    /// unconditional `space.notify_all()` per pop), measured at commit
    /// 2b15e71 with this exact cell shape (64 threads, window 8, capacity
    /// 128, n=64, m=8, median of 3) on a 1-CPU reference host. Recorded
    /// here because one binary cannot contain both ingress
    /// implementations; re-measure by checking out that commit and running
    /// the same closed-loop driver. A report generated on another host
    /// (the committed one comes from a 2-vCPU host) divides across hosts
    /// in its `ingress_vs_legacy_monitor` ratio.
    const LEGACY_MONITOR_COMMIT: &str = "2b15e71";
    const LEGACY_MONITOR_UNCOALESCED_RPS: f64 = 9_490.0;
    const LEGACY_MONITOR_STATIC16_RPS: f64 = 151_000.0;
    const LEGACY_MONITOR_STATIC64_RPS: f64 = 306_000.0;

    pub(super) struct Cell {
        pub config: &'static str,
        pub shards: Option<usize>,
        pub coalesce: Option<CoalesceConfig>,
        pub threads: usize,
    }

    pub(super) struct CellResult {
        pub shard_count: usize,
        pub total_requests: u64,
        pub elapsed_ns: u64,
        pub req_per_s: f64,
        pub p50_ns: u64,
        pub p95_ns: u64,
        pub p99_ns: u64,
        pub steals: u64,
        pub coalesced_requests: u64,
        /// Requests run on their submitters' threads: which path served
        /// the cell.
        pub inline: u64,
        pub workers_started: u64,
    }

    fn adaptive() -> Option<CoalesceConfig> {
        Some(CoalesceConfig {
            max_request_elements: 512,
            ..CoalesceConfig::default()
        })
    }

    fn static_coalesce(max_requests: usize) -> Option<CoalesceConfig> {
        Some(CoalesceConfig {
            max_requests,
            adaptive: false,
            max_request_elements: 512,
            ..CoalesceConfig::default()
        })
    }

    /// Drive one (config, thread-count) cell: closed-loop pipelined
    /// submitters, each keeping [`WINDOW`] requests in flight, per-request
    /// latency taken from submit to observed resolution. The cell's clock
    /// runs from the earliest submitter's first submit to the latest one's
    /// last reply: each submitter stamps both ends itself, so a main thread
    /// descheduled after the barrier cannot shorten the measured time.
    pub(super) fn run_cell(cell: &Cell, total_requests: usize) -> CellResult {
        let service = Arc::new(
            Service::new(
                Plus,
                ServiceConfig {
                    workers: Some(super::BENCH_THREADS),
                    queue_capacity: Some(QUEUE_CAPACITY),
                    ingress_shards: cell.shards,
                    coalesce: cell.coalesce,
                    ..ServiceConfig::default()
                },
            )
            .expect("bench service config must be valid"),
        );
        let per_thread = (total_requests / cell.threads).max(WINDOW * 2);
        let start = Arc::new(Barrier::new(cell.threads));
        let handles: Vec<_> = (0..cell.threads)
            .map(|tid| {
                let service = Arc::clone(&service);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    // Per-thread dominant label: affinity routing sends
                    // each submitter's stream to a stable home shard.
                    let label = tid % SERVICE_M;
                    let values = vec![1i64; SERVICE_N];
                    let labels: Vec<usize> = (0..SERVICE_N)
                        .map(|i| {
                            if i % 11 == 7 {
                                (label + 1) % SERVICE_M
                            } else {
                                label
                            }
                        })
                        .collect();
                    let mut latencies = Vec::with_capacity(per_thread);
                    let mut checksum = 0i64;
                    let mut window: Vec<(Ticket<i64>, Instant)> = Vec::with_capacity(WINDOW);
                    start.wait();
                    let began = Instant::now();
                    for _ in 0..per_thread {
                        let request =
                            Request::multireduce(values.clone(), labels.clone(), SERVICE_M);
                        let submitted = Instant::now();
                        let ticket = service.submit(request).expect("bench submit");
                        window.push((ticket, submitted));
                        if window.len() >= WINDOW {
                            let (ticket, submitted) = window.remove(0);
                            let reply = ticket.wait().expect("bench request failed");
                            latencies.push(submitted.elapsed().as_nanos() as u64);
                            checksum =
                                checksum.wrapping_add(reply.reductions().iter().sum::<i64>());
                        }
                    }
                    for (ticket, submitted) in window {
                        let reply = ticket.wait().expect("bench request failed");
                        latencies.push(submitted.elapsed().as_nanos() as u64);
                        checksum = checksum.wrapping_add(reply.reductions().iter().sum::<i64>());
                    }
                    (latencies, checksum, began, Instant::now())
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(per_thread * cell.threads);
        let mut checksum = 0i64;
        let mut span: Option<(Instant, Instant)> = None;
        for handle in handles {
            let (lat, sum, began, ended) = handle.join().expect("bench submitter panicked");
            latencies.extend(lat);
            checksum = checksum.wrapping_add(sum);
            span = Some(span.map_or((began, ended), |(b, e)| (b.min(began), e.max(ended))));
        }
        let (began, ended) = span.expect("a cell has at least one submitter");
        let elapsed_ns = ended.duration_since(began).as_nanos().max(1) as u64;
        let shard_count = service.ingress_shards();
        let metrics = service.shutdown();
        assert_eq!(
            metrics.admitted,
            metrics.completed + metrics.errored,
            "bench cell broke the accounting invariant"
        );
        assert_eq!(metrics.completed, latencies.len() as u64);
        std::hint::black_box(checksum);
        latencies.sort_unstable();
        let pct = |q: f64| -> u64 {
            let idx = ((latencies.len() as f64 * q) as usize).min(latencies.len() - 1);
            latencies[idx]
        };
        CellResult {
            shard_count,
            total_requests: latencies.len() as u64,
            elapsed_ns,
            req_per_s: latencies.len() as f64 / (elapsed_ns as f64 / 1e9),
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            steals: metrics.steals,
            coalesced_requests: metrics.coalesced_requests,
            inline: metrics.inline,
            workers_started: metrics.workers_started,
        }
    }

    /// Median-of-trials cell measurement (by sustained throughput).
    fn measure(cell: &Cell, total_requests: usize, trials: usize) -> CellResult {
        let mut results: Vec<CellResult> = (0..trials.max(1))
            .map(|_| run_cell(cell, total_requests))
            .collect();
        results.sort_by(|a, b| a.req_per_s.total_cmp(&b.req_per_s));
        results.remove(results.len() / 2)
    }

    /// The full saturation grid. `None` shards = the default sharded
    /// ingress; `Some(1)` = the single-mutex baseline.
    fn grid(threads: &[usize]) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &t in threads {
            cells.push(Cell {
                config: "sharded_adaptive",
                shards: None,
                coalesce: adaptive(),
                threads: t,
            });
            cells.push(Cell {
                config: "single_adaptive",
                shards: Some(1),
                coalesce: adaptive(),
                threads: t,
            });
            cells.push(Cell {
                config: "sharded_uncoalesced",
                shards: None,
                coalesce: None,
                threads: t,
            });
            cells.push(Cell {
                config: "single_uncoalesced",
                shards: Some(1),
                coalesce: None,
                threads: t,
            });
        }
        cells
    }

    /// Static-coalescing sweep cells at `threads` (full offered load):
    /// the points the adaptive mode has to match or beat.
    fn static_cells(threads: usize) -> Vec<(usize, Cell)> {
        STATIC_SWEEP
            .iter()
            .map(|&k| {
                (
                    k,
                    Cell {
                        config: match k {
                            4 => "sharded_static4",
                            16 => "sharded_static16",
                            _ => "sharded_static64",
                        },
                        shards: None,
                        coalesce: static_coalesce(k),
                        threads,
                    },
                )
            })
            .collect()
    }

    fn write_row(json: &mut String, cell: &Cell, r: &CellResult, last: bool) {
        let _ = write!(
            json,
            "    {{\"config\": \"{}\", \"shards\": {}, \"threads\": {}, \
             \"requests\": {}, \"elapsed_ns\": {}, \"req_per_s\": {:.1}, \
             \"wait_p50_ns\": {}, \"wait_p95_ns\": {}, \"wait_p99_ns\": {}, \
             \"steals\": {}, \"coalesced_requests\": {}, \"inline\": {}, \
             \"workers_started\": {}}}",
            cell.config,
            r.shard_count,
            cell.threads,
            r.total_requests,
            r.elapsed_ns,
            r.req_per_s,
            json_num(Some(r.p50_ns)),
            json_num(Some(r.p95_ns)),
            json_num(Some(r.p99_ns)),
            r.steals,
            r.coalesced_requests,
            r.inline,
            r.workers_started,
        );
        json.push_str(if last { "\n" } else { ",\n" });
    }

    /// Generate `BENCH_service.json`.
    pub(super) fn run(smoke: bool, out_path: &str) {
        let (threads, total, trials, mode): (&[usize], usize, usize, &str) = if smoke {
            (&[1, 8], 2_048, 1, "smoke")
        } else {
            (&[1, 8, 32, 64], 16_384, 3, "full")
        };
        let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"schema\": \"multiprefix-service-bench/1\",");
        let _ = writeln!(json, "  \"mode\": \"{mode}\",");
        let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
        let _ = writeln!(json, "  \"workers\": {},", super::BENCH_THREADS);
        let _ = writeln!(json, "  \"queue_capacity\": {QUEUE_CAPACITY},");
        let _ = writeln!(json, "  \"request_n\": {SERVICE_N},");
        let _ = writeln!(json, "  \"request_m\": {SERVICE_M},");
        let _ = writeln!(json, "  \"window\": {WINDOW},");
        let _ = writeln!(json, "  \"trials\": {trials},");
        json.push_str("  \"cells\": [\n");
        let cells = grid(threads);
        let statics = static_cells(*threads.last().unwrap());
        let mut rows: Vec<(Cell, CellResult)> = Vec::new();
        for cell in cells {
            eprintln!("service cell {} threads={} ...", cell.config, cell.threads);
            let r = measure(&cell, total, trials);
            rows.push((cell, r));
        }
        for (_, cell) in statics {
            eprintln!("service cell {} threads={} ...", cell.config, cell.threads);
            let r = measure(&cell, total, trials);
            rows.push((cell, r));
        }
        let count = rows.len();
        let find = |config: &str, threads: usize| -> Option<f64> {
            rows.iter()
                .find(|(c, _)| c.config == config && c.threads == threads)
                .map(|(_, r)| r.req_per_s)
        };
        let max_threads = *threads.last().unwrap();
        // Headline ratios, written into the report for the gate and the
        // README: sharded-vs-single throughput at peak load, and adaptive
        // coalescing vs the best static sweep point.
        let speedup = find("sharded_adaptive", max_threads).unwrap()
            / find("single_adaptive", max_threads).unwrap().max(1.0);
        let best_static = STATIC_SWEEP
            .iter()
            .filter_map(|&k| {
                find(
                    match k {
                        4 => "sharded_static4",
                        16 => "sharded_static16",
                        _ => "sharded_static64",
                    },
                    max_threads,
                )
            })
            .fold(1.0f64, f64::max);
        let adaptive_vs_static = find("sharded_adaptive", max_threads).unwrap() / best_static;
        for (i, (cell, r)) in rows.iter().enumerate() {
            write_row(&mut json, cell, r, i + 1 == count);
        }
        json.push_str("  ],\n");
        // The pre-sharding monitor ingress, for the cross-commit ratio the
        // in-binary grid cannot produce (see LEGACY_MONITOR_COMMIT).
        // Only meaningful at the thread count the legacy numbers were
        // measured at (64); smoke runs stop short of it.
        let legacy_ratio = (max_threads == 64)
            .then(|| find("sharded_uncoalesced", max_threads))
            .flatten()
            .map(|rps| rps / LEGACY_MONITOR_UNCOALESCED_RPS);
        let _ = writeln!(json, "  \"legacy_monitor\": {{");
        let _ = writeln!(
            json,
            "    \"commit\": \"{LEGACY_MONITOR_COMMIT}\", \"measured_host_cpus\": 1,"
        );
        let _ = writeln!(
            json,
            "    \"uncoalesced_req_per_s\": {LEGACY_MONITOR_UNCOALESCED_RPS:.0},"
        );
        let _ = writeln!(
            json,
            "    \"static16_req_per_s\": {LEGACY_MONITOR_STATIC16_RPS:.0},"
        );
        let _ = writeln!(
            json,
            "    \"static64_req_per_s\": {LEGACY_MONITOR_STATIC64_RPS:.0}"
        );
        let _ = writeln!(json, "  }},");
        if let Some(r) = legacy_ratio {
            let _ = writeln!(
                json,
                "  \"ingress_vs_legacy_monitor_uncoalesced_at_{max_threads}\": {r:.3},"
            );
        }
        let _ = writeln!(
            json,
            "  \"sharded_vs_single_at_{max_threads}\": {speedup:.3},"
        );
        let _ = writeln!(
            json,
            "  \"adaptive_vs_best_static\": {adaptive_vs_static:.3}"
        );
        json.push_str("}\n");
        std::fs::write(out_path, &json).expect("write service bench report");
        eprintln!(
            "wrote {out_path} ({} bytes); sharded/single@{max_threads} = {speedup:.2}x, \
             adaptive/best-static = {adaptive_vs_static:.2}x, \
             vs-legacy-monitor(uncoalesced) = {}x",
            json.len(),
            legacy_ratio.map_or_else(|| "n/a".into(), |r| format!("{r:.2}")),
        );
    }

    /// Line-scan a committed service report for its headline ratios.
    fn parse_ratios(text: &str) -> (Option<(usize, f64)>, Option<f64>) {
        let mut shard_ratio = None;
        let mut adaptive_ratio = None;
        for line in text.lines() {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("\"sharded_vs_single_at_") {
                if let Some((threads, val)) = rest.split_once("\": ") {
                    let threads = threads.parse().ok();
                    let val = val.trim_end_matches(',').parse().ok();
                    if let (Some(threads), Some(val)) = (threads, val) {
                        shard_ratio = Some((threads, val));
                    }
                }
            } else if let Some(rest) = t.strip_prefix("\"adaptive_vs_best_static\": ") {
                adaptive_ratio = rest.trim_end_matches(',').parse().ok();
            }
        }
        (shard_ratio, adaptive_ratio)
    }

    /// The `--service --gate` mode: re-measure the headline ratios at the
    /// baseline's peak thread count and fail on a >25% relative regression.
    /// Both sides of each ratio are measured back-to-back on this host, so
    /// absolute machine speed cancels out of the comparison.
    pub(super) fn run_gate(baseline_path: &str) -> ! {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("cannot read service baseline {baseline_path}: {e}"));
        let (shard_ratio, adaptive_ratio) = parse_ratios(&text);
        let (threads, base_speedup) = shard_ratio.expect("baseline lacks sharded_vs_single ratio");
        let base_adaptive = adaptive_ratio.expect("baseline lacks adaptive_vs_best_static ratio");
        let total = 8_192;
        let measure3 = |cell: &Cell| measure(cell, total, 3).req_per_s;
        // Warm-up: one throwaway cell so thread spawn-up and allocator
        // growth are paid before any measured ratio.
        let _ = run_cell(
            &Cell {
                config: "warmup",
                shards: None,
                coalesce: adaptive(),
                threads,
            },
            total / 4,
        );
        let sharded = measure3(&Cell {
            config: "sharded_adaptive",
            shards: None,
            coalesce: adaptive(),
            threads,
        });
        let single = measure3(&Cell {
            config: "single_adaptive",
            shards: Some(1),
            coalesce: adaptive(),
            threads,
        });
        let cur_speedup = sharded / single.max(1.0);
        let best_static = static_cells(threads)
            .iter()
            .map(|(_, cell)| measure3(cell))
            .fold(1.0f64, f64::max);
        let cur_adaptive = sharded / best_static;
        let mut failures = 0usize;
        for (name, cur, base) in [
            ("sharded_vs_single", cur_speedup, base_speedup),
            ("adaptive_vs_best_static", cur_adaptive, base_adaptive),
        ] {
            let regressed = cur < base * (1.0 - GATE_TOLERANCE);
            eprintln!(
                "service gate: {name} at {threads} threads: {cur:.3} vs baseline {base:.3} {}",
                if regressed { "REGRESSED" } else { "ok" }
            );
            if regressed {
                failures += 1;
            }
        }
        if failures > 0 {
            eprintln!("service gate: FAILED — {failures} ratio(s) regressed >25%");
            std::process::exit(1);
        }
        eprintln!("service gate: passed");
        std::process::exit(0);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `--kernel={auto,simd,scalar}`: pin the process-wide kernel level
    // before the first engine run resolves it. Parsed up front so every
    // mode — sweep, gate, service — runs under the requested level.
    let kernel_arg = args
        .iter()
        .position(|a| a == "--kernel")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--kernel=").map(str::to_string))
        })
        .unwrap_or_else(|| "auto".to_string());
    match kernel_arg.as_str() {
        "auto" => {}
        "simd" => {
            if !avx2_available() {
                eprintln!("--kernel simd: this host lacks AVX2; refusing silent fallback");
                std::process::exit(2);
            }
            pin_level(SimdLevel::Avx2);
        }
        "scalar" => {
            pin_level(SimdLevel::Scalar);
        }
        other => panic!("unknown --kernel {other:?} (auto|simd|scalar)"),
    }
    if args.iter().any(|a| a == "--service") {
        if let Some(i) = args.iter().position(|a| a == "--gate") {
            let baseline = args
                .get(i + 1)
                .map(String::as_str)
                .unwrap_or("BENCH_service.json");
            service_bench::run_gate(baseline);
        }
        let out_path = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_service.json");
        service_bench::run(args.iter().any(|a| a == "--smoke"), out_path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--gate") {
        let baseline = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_multiprefix.json");
        run_gate(baseline);
    }
    let cfg = if args.iter().any(|a| a == "--smoke") {
        SMOKE
    } else {
        FULL
    };
    // `--transport uds` / `--transport=tcp`: wire for the sharded rows.
    // Parsed after `--gate` on purpose — gate comparisons always run the
    // default channel transport so ratios stay comparable to committed
    // baselines.
    let transport = args
        .iter()
        .position(|a| a == "--transport")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--transport=").map(str::to_string))
        })
        .map(|name| {
            ShardTransport::from_name(&name)
                .unwrap_or_else(|| panic!("unknown --transport {name:?} (channel|uds|tcp)"))
        })
        .unwrap_or(ShardTransport::Channel);
    let _ = TRANSPORT.set(transport);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_multiprefix.json")
        .to_string();

    let engines = [
        Engine::Serial,
        Engine::Spinetree,
        Engine::Chunked,
        Engine::Atomic,
        Engine::Sharded,
    ];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"multiprefix-bench/1\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", cfg.mode);
    let _ = writeln!(json, "  \"iters\": {},", cfg.iters);
    let _ = writeln!(json, "  \"threads\": {BENCH_THREADS},");
    // Informational: which wire the sharded engine's rows rode.
    let _ = writeln!(json, "  \"transport\": \"{}\",", transport.name());
    json.push_str("  \"engines\": [\n");

    let mut checksum = 0i64;
    for (ei, &kind) in engines.iter().enumerate() {
        eprintln!("engine {kind} ...");
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"engine\": \"{kind}\",");
        json.push_str("      \"sizes\": [\n");
        for (si, &n) in cfg.sizes.iter().enumerate() {
            let m = (n / 16).max(1);
            let values = vec![1i64; n];
            let labels = lcg_labels(n, m, 42);
            let rec = MemoryRecorder::shared();
            let ctx = RunContext::new()
                .for_engine(kind)
                .with_recorder(Arc::clone(&rec) as Arc<dyn multiprefix::Recorder>);
            // One untimed warm-up so cold-start effects (first-touch page
            // faults, thread spawn-up) don't skew the committed numbers.
            checksum = checksum.wrapping_add(run_engine(kind, &values, &labels, m, &ctx));
            let mut total_ns = 0u64;
            let mut min_ns = u64::MAX;
            for _ in 0..cfg.iters {
                let started = Instant::now();
                checksum = checksum.wrapping_add(run_engine(kind, &values, &labels, m, &ctx));
                let iter_ns = started.elapsed().as_nanos() as u64;
                total_ns += iter_ns;
                min_ns = min_ns.min(iter_ns);
            }
            let _ = writeln!(json, "        {{");
            let _ = writeln!(json, "          \"n\": {n},");
            let _ = writeln!(json, "          \"m\": {m},");
            let _ = writeln!(
                json,
                "          \"total_ns_mean\": {},",
                total_ns / u64::from(cfg.iters)
            );
            // The gate compares minimums: background load on a shared
            // runner can only inflate a timing, so the fastest run is the
            // statistic that reproduces across hosts.
            let _ = writeln!(json, "          \"total_ns_min\": {},", min_ns.max(1));
            // Paired serial-normalized ratio for the regression gate:
            // measured with the engine and the serial reference timed
            // back-to-back so host load cancels out of the quotient.
            if kind != Engine::Serial {
                let ratio = measure_paired_ratio(kind, n, &mut checksum);
                let _ = writeln!(json, "          \"serial_ratio_min\": {ratio:.4},");
            }
            json.push_str("          \"phases\": [\n");
            let phases = Phase::for_engine(kind);
            for (pi, &phase) in phases.iter().enumerate() {
                // A phase may legitimately record nothing: the sharded
                // engine's `recover` span only fires under shard loss, so
                // clean runs report it as count 0 with null stats.
                match rec.histogram(phase_key(kind, phase)) {
                    Some(snap) => {
                        let _ = write!(
                            json,
                            "            {{\"phase\": \"{}\", \"count\": {}, \"mean_ns\": {}, \
                             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                            phase.name(),
                            snap.count,
                            json_num(snap.mean()),
                            json_num(snap.p50()),
                            json_num(snap.p95()),
                            json_num(snap.p99()),
                        );
                    }
                    None => {
                        let _ = write!(
                            json,
                            "            {{\"phase\": \"{}\", \"count\": 0, \"mean_ns\": null, \
                             \"p50_ns\": null, \"p95_ns\": null, \"p99_ns\": null}}",
                            phase.name(),
                        );
                    }
                }
                json.push_str(if pi + 1 < phases.len() { ",\n" } else { "\n" });
            }
            json.push_str("          ]\n");
            json.push_str("        }");
            json.push_str(if si + 1 < cfg.sizes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("      ]\n");
        json.push_str("    }");
        json.push_str(if ei + 1 < engines.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // §4.4 row-length ablation: factors around the paper's 0.749·√n optimum.
    eprintln!("row-length sweep ...");
    let n = cfg.row_sweep_n;
    let m = (n / 16).max(1);
    let values = vec![1i64; n];
    let labels = lcg_labels(n, m, 7);
    json.push_str("  \"row_length_sweep\": {\n");
    let _ = writeln!(json, "    \"n\": {n},");
    let _ = writeln!(json, "    \"m\": {m},");
    let _ = writeln!(json, "    \"iters\": {},", cfg.row_sweep_iters);
    json.push_str("    \"points\": [\n");
    for (fi, &factor) in ROW_FACTORS.iter().enumerate() {
        let row_len = choose_row_len_skewed(n, factor);
        let layout = Layout::with_row_len(n, m, row_len);
        let started = Instant::now();
        for _ in 0..cfg.row_sweep_iters {
            let run = multiprefix_spinetree_instrumented(
                &values,
                &labels,
                Plus,
                layout,
                ArbPolicy::LastWins,
            );
            checksum = checksum.wrapping_add(run.output.sums[n - 1]);
        }
        let mean_ns = started.elapsed().as_nanos() as u64 / u64::from(cfg.row_sweep_iters);
        let _ = write!(
            json,
            "      {{\"factor\": {factor}, \"row_len\": {row_len}, \"mean_ns\": {mean_ns}}}"
        );
        json.push_str(if fi + 1 < ROW_FACTORS.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    // Chunked-engine ablation: how many chunks per worker thread? One chunk
    // per thread minimizes combine-phase work; oversubscription smooths load
    // imbalance at the cost of a longer cross-chunk scan.
    eprintln!("chunks-per-thread sweep ...");
    json.push_str("  \"chunk_sweep\": {\n");
    let _ = writeln!(json, "    \"n\": {n},");
    let _ = writeln!(json, "    \"m\": {m},");
    let _ = writeln!(json, "    \"threads\": {BENCH_THREADS},");
    let _ = writeln!(json, "    \"iters\": {},", cfg.row_sweep_iters);
    json.push_str("    \"points\": [\n");
    for (fi, &factor) in CHUNK_FACTORS.iter().enumerate() {
        let parts = BENCH_THREADS * factor;
        let started = Instant::now();
        for _ in 0..cfg.row_sweep_iters {
            let out = multiprefix_chunked_with_parts(&values, &labels, m, Plus, parts);
            checksum = checksum.wrapping_add(out.sums[n - 1]);
        }
        let mean_ns = started.elapsed().as_nanos() as u64 / u64::from(cfg.row_sweep_iters);
        let _ = write!(
            json,
            "      {{\"chunks_per_thread\": {factor}, \"parts\": {parts}, \"mean_ns\": {mean_ns}}}"
        );
        json.push_str(if fi + 1 < CHUNK_FACTORS.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    // SIMD-vs-scalar ablation: the single-label (`m == 1`) chunked
    // workload whose dense local scan and apply prepend the vectorized
    // kernels take over; the scalar leg pins `ExecConfig::force_scalar`
    // per run, so both legs share one process, one allocator state, one
    // host — the ratio is what the regression gate re-measures.
    eprintln!("simd-vs-scalar sweep ...");
    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    json.push_str("  \"simd\": {\n");
    let _ = writeln!(json, "    \"level\": \"{}\",", active_level().name());
    let _ = writeln!(json, "    \"kernel_arg\": \"{kernel_arg}\",");
    let _ = writeln!(json, "    \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "    \"workload\": \"chunked engine, m=1, u64 wrapping add, threads={BENCH_THREADS}\","
    );
    let _ = writeln!(
        json,
        "    \"note\": \"median of paired per-trial scalar/simd quotients, so absolute host \
         speed cancels; on a host_cpus=1 runner the {BENCH_THREADS} workers time-slice one \
         core, which leaves the ratio meaningful but makes absolute ns pessimistic\","
    );
    json.push_str("    \"points\": [\n");
    for (si, &n) in cfg.sizes.iter().enumerate() {
        let (ratio, simd_ns, scalar_ns) = measure_simd_point(n, &mut checksum);
        let _ = write!(
            json,
            "      {{\"size\": {n}, \"scalar_ns_min\": {scalar_ns}, \
             \"simd_ns_min\": {simd_ns}, \"simd_vs_scalar\": {ratio:.3}}}"
        );
        json.push_str(if si + 1 < cfg.sizes.len() {
            ",\n"
        } else {
            "\n"
        });
        eprintln!("  n={n}: simd_vs_scalar = {ratio:.3}");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    // What callers get by default: `Engine::Auto` through the public API,
    // against the serial loop.
    eprintln!("auto-vs-serial sweep ...");
    json.push_str("  \"auto\": {\n");
    let _ = writeln!(json, "    \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "    \"workload\": \"multiprefix(.., Engine::Auto) vs multiprefix_serial, i64 Plus, \
         m = n/16\","
    );
    let _ = writeln!(
        json,
        "    \"note\": \"median of paired per-trial auto/serial quotients; Auto runs the chunked \
         engine on one chunk and its label check replaces the API's validation pass\","
    );
    json.push_str("    \"points\": [\n");
    for (si, &n) in cfg.sizes.iter().enumerate() {
        let (ratio, auto_ns, serial_ns) = measure_auto_point(n, &mut checksum);
        let _ = write!(
            json,
            "      {{\"size\": {n}, \"serial_ns_min\": {serial_ns}, \
             \"auto_ns_min\": {auto_ns}, \"auto_vs_serial\": {ratio:.3}}}"
        );
        json.push_str(if si + 1 < cfg.sizes.len() {
            ",\n"
        } else {
            "\n"
        });
        eprintln!("  n={n}: auto_vs_serial = {ratio:.3}");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    // The dispatcher's default chain against `Engine::Auto`: both run the
    // chunked engine on one chunk, so the ratio is the dispatcher's own
    // cost.
    eprintln!("dispatch-vs-auto sweep ...");
    json.push_str("  \"dispatch\": {\n");
    let _ = writeln!(json, "    \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "    \"workload\": \"Dispatcher::dispatch (DispatcherConfig::default()) vs \
         try_multiprefix(.., Engine::Auto, ExecConfig::default()), i64 Plus, m = n/16\","
    );
    let _ = writeln!(
        json,
        "    \"note\": \"median of paired per-trial dispatch/auto quotients; --gate fails a \
         ratio above {DISPATCH_BOUND} at n >= {DISPATCH_GATE_MIN_N}\","
    );
    json.push_str("    \"points\": [\n");
    for (si, &n) in cfg.sizes.iter().enumerate() {
        let (ratio, dispatch_ns, auto_ns) = measure_dispatch_point(n, &mut checksum);
        let _ = write!(
            json,
            "      {{\"size\": {n}, \"auto_ns_min\": {auto_ns}, \
             \"dispatch_ns_min\": {dispatch_ns}, \"dispatch_vs_auto\": {ratio:.3}}}"
        );
        json.push_str(if si + 1 < cfg.sizes.len() {
            ",\n"
        } else {
            "\n"
        });
        eprintln!("  n={n}: dispatch_vs_auto = {ratio:.3}");
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    // Durable-session arm: append throughput (WAL-acknowledged, with and
    // without the per-record fsync barrier), O(log n) query latency from
    // the session's own `session.query` histogram, and recovery time as a
    // function of replayed WAL length. Informational — the regression
    // gate reads only the engine rows above.
    eprintln!("session sweep ...");
    session_bench(&mut json, &cfg, &mut checksum);

    let _ = writeln!(json, "  \"checksum\": {checksum}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("wrote {out_path} ({} bytes)", json.len());
}

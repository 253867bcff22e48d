//! Differential suite for the chunked engine: for any input shape, any
//! operator, and any overflow policy, `multiprefix::chunked` must agree
//! bit-for-bit with the serial reference — including the degenerate shapes
//! a chunked decomposition is most likely to get wrong (empty input, one
//! element, every element on one label, `m ≫ n` sparse label spaces) and
//! the non-commutative operators the combine scan's chunk ordering exists
//! to protect. Each run owns its chunk tables, so call sequences that
//! change `m`, flip between label-indexed and probed tables, and inject a
//! local-phase panic must leave every later call serial's answer.
//!
//! The engine checks labels inside its local loop, so a bad label must
//! surface from every entry point as exactly the error `validate()`
//! reports — same index, whichever chunk found it, and even when a
//! cancel, an expired deadline or an injected fault stops the run first.
//! Unequal `values`/`labels` lengths must too: the engine writes each
//! output slot once, and a short `labels` would leave slots unwritten.
//! And `Engine::Auto` must stay bit-identical to serial when many threads
//! call it at once, and on floats from one call to the next.

use multiprefix::atomic::{
    multiprefix_atomic, multireduce_atomic, try_multiprefix_atomic_ctx, try_multireduce_atomic_ctx,
};
use multiprefix::chunked::{
    multiprefix_chunked, multiprefix_chunked_with_parts, multiprefix_chunked_with_threads,
    multireduce_chunked, try_multiprefix_chunked, try_multiprefix_chunked_cfg_ctx,
    try_multiprefix_chunked_ctx, try_multireduce_chunked, try_multireduce_chunked_cfg_ctx,
    MIN_CHUNK_LEN,
};
use multiprefix::op::{FirstLast, Max, Min, Plus, TryCombineOp};
use multiprefix::resilience::{
    CancelToken, ChaosPlan, Deadline, DispatchOpts, Dispatcher, DispatcherConfig, RunContext,
};
use multiprefix::serial::{multiprefix_serial, multireduce_serial, try_multiprefix_serial};
use multiprefix::service::{Reply, Request, Service, ServiceConfig};
use multiprefix::spinetree::{
    multiprefix_spinetree, multireduce_spinetree, try_multiprefix_spinetree_ctx,
    try_multireduce_spinetree_ctx,
};
use multiprefix::{
    multiprefix, multireduce, try_multiprefix, try_multiprefix_ctx, try_multireduce,
    try_multireduce_ctx, validate, Element, Engine, ExecConfig, MpError, OverflowPolicy,
    ShardConfig,
};
use proptest::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::Wrap,
    OverflowPolicy::Checked,
    OverflowPolicy::Saturating,
];

/// A draw from `usual` three times in four, and from `huge` otherwise.
fn mostly(usual: Range<usize>, huge: Range<usize>) -> impl Strategy<Value = usize> {
    (0u8..4, usual, huge).prop_map(|(k, usual, huge)| if k == 0 { huge } else { usual })
}

/// Label-space sizes: small and mid-sized ones that keep the chunk tables
/// label-indexed, plus `m ≫ n` ones that force the probed tables.
fn label_space() -> impl Strategy<Value = usize> {
    mostly(1..4096, 50_000..200_000)
}

/// Arbitrary problems with the degenerate shapes weighted in: tiny n
/// (including 0 and 1), all-same-label runs, and `m` up to hundreds of
/// times larger than `n`.
fn problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize)> {
    label_space().prop_flat_map(|m| {
        // One draw in four collapses to label 0 so all-same-label runs and
        // long single-label prefixes are sampled often.
        let label = any::<u32>().prop_map(move |x| {
            let x = x as usize;
            if x.is_multiple_of(4) {
                0
            } else {
                x % m
            }
        });
        proptest::collection::vec((any::<i32>().prop_map(|v| v as i64), label), 0..300).prop_map(
            move |pairs| {
                let (values, labels): (Vec<i64>, Vec<usize>) = pairs.into_iter().unzip();
                (values, labels, m)
            },
        )
    })
}

/// One call of a sequence: `(n, m, seed, panic)`. The
/// lengths span one to four 4096-element chunks on four workers, and `m`
/// moves between label-indexed and probed tables from call to call;
/// `panic` injects a chaos panic into the first local-phase worker.
fn call_sequence() -> impl Strategy<Value = Vec<(usize, usize, u64, bool)>> {
    let m = (0u8..3, 1usize..8, 8usize..5_000, 70_000usize..250_000)
        .prop_map(|(k, tiny, mid, huge)| [tiny, mid, huge][k as usize]);
    let call = (
        0usize..14_000,
        m,
        any::<u64>(),
        (0u8..5).prop_map(|k| k == 0),
    );
    proptest::collection::vec(call, 1..6)
}

/// Bucket counts for the error draws: 0, 1, small, or large enough
/// (`m ≫ n`) to force the probed chunk tables.
fn error_bucket_count() -> impl Strategy<Value = usize> {
    (0u8..4, 2usize..300, 200_000usize..2_000_000)
        .prop_map(|(k, small, huge)| [0, 1, small, huge][k as usize])
}

/// A problem with out-of-range labels, and a thread count in `1..=8`. Bad
/// labels (`m`, `m + 3` or `usize::MAX`) sit at the first or last element
/// or on either side of a chunk boundary of the split on that many threads
/// (one chunk per `MIN_CHUNK_LEN` elements, rounded up, at most one per
/// thread).
fn bad_label_problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize, usize)> {
    let n = mostly(1..64, MIN_CHUNK_LEN..40_000);
    (n, error_bucket_count(), 1usize..9, any::<u64>()).prop_map(|(n, m, parts, seed)| {
        let mut state = seed;
        let values = (0..n).map(|_| lcg(&mut state) as i64).collect();
        let mut labels: Vec<usize> = (0..n)
            .map(|_| lcg(&mut state) as usize % m.max(1))
            .collect();
        let chunks = parts.min(n.div_ceil(MIN_CHUNK_LEN));
        let len = n.div_ceil(chunks);
        let mut sites = vec![0, n - 1];
        sites.extend((1..chunks).flat_map(|k| [k * len - 1, k * len]));
        // At least one bad label, usually several.
        let first = lcg(&mut state) as usize % sites.len();
        for (k, &i) in sites.iter().enumerate() {
            if k == first || lcg(&mut state).is_multiple_of(3) {
                labels[i] = [m, m + 3, usize::MAX][lcg(&mut state) as usize % 3];
            }
        }
        (values, labels, m, parts)
    })
}

/// A problem whose `labels` is shorter or longer than `values` (either way
/// round, by 1 to 63), and a thread count in `1..=4`.
fn mismatched_problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize, usize)> {
    let n = mostly(0..64, MIN_CHUNK_LEN..40_000);
    let lengths = (n, 1usize..64, any::<bool>()).prop_map(|(n, extra, short_labels)| {
        if short_labels {
            (n + extra, n)
        } else {
            (n, n + extra)
        }
    });
    (lengths, error_bucket_count(), 1usize..5, any::<u64>()).prop_map(
        |((n_values, n_labels), m, parts, seed)| {
            let mut state = seed;
            let values = (0..n_values).map(|_| lcg(&mut state) as i64).collect();
            let labels = (0..n_labels)
                .map(|_| lcg(&mut state) as usize % m.max(1))
                .collect();
            (values, labels, m, parts)
        },
    )
}

/// One error draw in three has unequal lengths; the rest plant bad labels.
fn invalid_problem() -> impl Strategy<Value = (Vec<i64>, Vec<usize>, usize, usize)> {
    (0u8..3, bad_label_problem(), mismatched_problem()).prop_map(|(k, bad_label, mismatched)| {
        if k == 0 {
            mismatched
        } else {
            bad_label
        }
    })
}

const ENGINES: [Engine; 5] = [
    Engine::Auto,
    Engine::Serial,
    Engine::Spinetree,
    Engine::Chunked,
    Engine::Sharded,
];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 17
}

/// Run `calls` one after another, each split four ways, and require every
/// successful call to be bit-identical to serial, and every injected panic
/// to surface as `EnginePanicked` without poisoning the calls after it.
fn assert_call_sequence_matches_serial<T, O>(
    calls: &[(usize, usize, u64, bool)],
    op: O,
    value: impl Fn(u64) -> T,
) where
    T: Element + PartialEq + std::fmt::Debug,
    O: TryCombineOp<T> + Copy,
{
    let cfg = ExecConfig::default().threads(4);
    for (call, &(n, m, seed, panic)) in calls.iter().enumerate() {
        let mut state = seed;
        let values: Vec<T> = (0..n).map(|_| value(lcg(&mut state))).collect();
        // Clustered labels so chunks share some labels and miss others.
        let labels: Vec<usize> = (0..n)
            .map(|i| (lcg(&mut state) as usize % 64 + i / 97) % m)
            .collect();
        let mut ctx = RunContext::new();
        if panic {
            let chaos = ChaosPlan::seeded(seed)
                .worker_panic_ppm(1_000_000)
                .only(Engine::Chunked)
                .only_worker(0)
                .arm();
            ctx = ctx.with_chaos(chaos);
        }
        let got = try_multiprefix_chunked_cfg_ctx(&values, &labels, m, op, cfg, &ctx);
        if panic && n > 0 {
            assert_eq!(
                got,
                Err(MpError::EnginePanicked),
                "call {call}: n={n} m={m}"
            );
        } else {
            let expect = multiprefix_serial(&values, &labels, m, op);
            assert_eq!(got, Ok(Some(expect)), "call {call}: n={n} m={m}");
        }
    }
}

proptest! {
    #[test]
    fn chunked_matches_serial_for_any_parts((values, labels, m) in problem(), parts in 1usize..20) {
        let expect = multiprefix_serial(&values, &labels, m, Plus);
        let got = multiprefix_chunked_with_parts(&values, &labels, m, Plus, parts);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn chunked_matches_serial_under_every_policy((values, labels, m) in problem()) {
        // i32-range values with n < 300 can never overflow an i64 sum, so
        // Checked must succeed (no trip) and all three policies agree.
        for policy in POLICIES {
            let expect = try_multiprefix_serial(&values, &labels, m, Plus, policy)
                .expect("benign input never errors");
            let got = try_multiprefix_chunked(&values, &labels, m, Plus, policy)
                .expect("benign input never errors")
                .expect("benign input never trips");
            prop_assert_eq!(got, expect, "{:?}", policy);
        }
    }

    #[test]
    fn checked_trip_decision_matches_serial(parts in 1usize..8) {
        // An input engineered to overflow mid-array: serial reports the
        // canonical overflow error; the chunked engine trips to `Ok(None)`
        // so the dispatcher replays serial. Either way, no wrong answer.
        let values = vec![i64::MAX, 1, -3, 7];
        let labels = vec![0usize, 0, 1, 1];
        let serial = try_multiprefix_serial(&values, &labels, 2, Plus, OverflowPolicy::Checked);
        prop_assert!(serial.is_err(), "serial must report the overflow");
        let got = multiprefix_chunked_with_parts(&values, &labels, 2, Max, parts); // sanity: Max never overflows
        prop_assert_eq!(got.reductions[0], i64::MAX);
        let chunked = try_multiprefix_chunked(&values, &labels, 2, Plus, OverflowPolicy::Checked)
            .expect("trip is not an error");
        prop_assert!(chunked.is_none(), "chunked must trip to None");
    }

    #[test]
    fn noncommutative_operator_survives_chunking(
        n in 0usize..260,
        m in mostly(1..9, 50_000..200_000),
        parts in 1usize..12,
    ) {
        let values: Vec<(i32, i32)> = (0..n as i32).map(|i| (i, i * 31 % 97)).collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + i / 5) % m).collect();
        let expect = multiprefix_serial(&values, &labels, m, FirstLast);
        let got = multiprefix_chunked_with_parts(&values, &labels, m, FirstLast, parts);
        prop_assert_eq!(got, expect);
    }

    /// Every call of a sequence runs on its own tables, so an injected
    /// panic leaves nothing behind that a later call could read.
    #[test]
    fn reused_workspace_matches_serial(calls in call_sequence()) {
        assert_call_sequence_matches_serial(&calls, Plus, |x| x as i64 - (1 << 46));
        // FirstLast is not commutative: a stale or misordered table entry
        // changes the answer.
        assert_call_sequence_matches_serial(&calls, FirstLast, |x| (x as i32, (x >> 20) as i32));
    }

    /// The chunked multireduce is serial's. (The name predates the
    /// deletion of the reusable chunked plan this also used to run.)
    #[test]
    fn multireduce_and_plan_agree((values, labels, m) in problem()) {
        prop_assert_eq!(
            multireduce_chunked(&values, &labels, m, Plus),
            multireduce_serial(&values, &labels, m, Plus)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_entry_reports_the_validate_error((values, labels, m, parts) in invalid_problem()) {
        let expect = validate(&values.len(), &labels, m).err();
        prop_assert!(expect.is_some(), "the draw is invalid");
        for engine in ENGINES {
            prop_assert_eq!(multiprefix(&values, &labels, m, Plus, engine).err(), expect.clone(), "{:?}", engine);
            prop_assert_eq!(multireduce(&values, &labels, m, Plus, engine).err(), expect.clone(), "{:?}", engine);
            for cfg in [ExecConfig::default(), ExecConfig::default().threads(parts)] {
                prop_assert_eq!(
                    try_multiprefix(&values, &labels, m, Plus, engine, cfg).err(),
                    expect.clone(),
                    "{:?} {:?}", engine, cfg
                );
                prop_assert_eq!(
                    try_multireduce(&values, &labels, m, Plus, engine, cfg).err(),
                    expect.clone(),
                    "{:?} {:?}", engine, cfg
                );
            }
        }
        // A run stopped before its loop reaches the bad label still reports
        // the label, as the engines that scan first do.
        let cancel = CancelToken::new();
        cancel.cancel();
        let chaos = ChaosPlan::seeded(parts as u64)
            .worker_panic_ppm(1_000_000)
            .only(Engine::Chunked)
            .arm();
        let stopped = [
            ("cancelled", RunContext::new().with_cancel(&cancel)),
            ("expired", RunContext::new().with_timeout(Duration::ZERO)),
            ("worker panic", RunContext::new().with_chaos(chaos)),
        ];
        for engine in ENGINES {
            for (why, ctx) in &stopped {
                for cfg in [ExecConfig::default(), ExecConfig::default().threads(parts)] {
                    prop_assert_eq!(
                        try_multiprefix_ctx(&values, &labels, m, Plus, engine, cfg, ctx).err(),
                        expect.clone(),
                        "{:?} {} {:?}", engine, why, cfg
                    );
                    prop_assert_eq!(
                        try_multireduce_ctx(&values, &labels, m, Plus, engine, cfg, ctx).err(),
                        expect.clone(),
                        "{:?} {} {:?}", engine, why, cfg
                    );
                }
            }
        }
        // The dispatcher's four entries report it too, under the default
        // config and the same stops: they run the same engine table, with
        // no label scan of their own.
        // So does a sharded front, whose one label scan is its supervisor's.
        let chaos = ChaosPlan::seeded(parts as u64)
            .worker_panic_ppm(1_000_000)
            .only(Engine::Chunked)
            .arm();
        let none = DispatchOpts::default;
        let stops = [
            ("default", DispatchOpts::default()),
            ("cancelled", DispatchOpts { cancel: Some(cancel.clone()), ..none() }),
            ("expired", DispatchOpts { deadline: Some(Deadline::after(Duration::ZERO)), ..none() }),
            ("worker panic", DispatchOpts { chaos: Some(chaos), ..none() }),
        ];
        let sharded = DispatcherConfig {
            chain: vec![Engine::Sharded, Engine::Serial],
            shard: Some(ShardConfig::default()),
            ..DispatcherConfig::default()
        };
        for config in [DispatcherConfig::default(), sharded] {
            let front = config.chain[0];
            let dispatcher = Dispatcher::new(config).unwrap();
            let (d, v, l) = (&dispatcher, &values[..], &labels[..]);
            for (why, opts) in &stops {
                let errors = [
                    ("dispatch", d.dispatch(v, l, m, Plus, opts).err()),
                    ("dispatch_i64", d.dispatch_i64(v, l, m, Plus, opts).err()),
                    ("dispatch_reduce", d.dispatch_reduce(v, l, m, Plus, opts).err()),
                    ("dispatch_reduce_i64", d.dispatch_reduce_i64(v, l, m, Plus, opts).err()),
                ];
                for (entry, err) in errors {
                    prop_assert_eq!(err, expect.clone(), "{} {} {}", front, entry, why);
                }
            }
            // A valid request right after is served by the chain's first
            // engine on its first attempt.
            let fresh = d.dispatch(&[3i64, 4], &[0, 0], 1, Plus, &none()).unwrap();
            prop_assert_eq!((fresh.engine, fresh.attempts), (front, 1), "{}", front);
            prop_assert_eq!(fresh.output.sums, vec![0, 3]);
            if let Some(sup) = dispatcher.shard_supervisor() {
                prop_assert_eq!(sup.shards_lost(), 0, "a bad input reached a shard worker");
            }
        }
        // The engine's own entries check lengths, and labels too except
        // with m == 1 (a documented precondition: the vector kernels never
        // read one).
        if m != 1 || values.len() != labels.len() {
            let cfg = ExecConfig::default().threads(parts);
            let ctx = RunContext::new();
            let wrap = OverflowPolicy::Wrap;
            prop_assert_eq!(
                try_multiprefix_chunked(&values, &labels, m, Plus, wrap).err(),
                expect.clone()
            );
            prop_assert_eq!(
                try_multiprefix_chunked_ctx(&values, &labels, m, Plus, wrap, &ctx).err(),
                expect.clone()
            );
            prop_assert_eq!(
                try_multiprefix_chunked_cfg_ctx(&values, &labels, m, Plus, cfg, &ctx).err(),
                expect.clone()
            );
            prop_assert_eq!(
                try_multireduce_chunked(&values, &labels, m, Plus, wrap).err(),
                expect.clone()
            );
            prop_assert_eq!(
                try_multireduce_chunked_cfg_ctx(&values, &labels, m, Plus, cfg, &ctx).err(),
                expect
            );
        }
    }
}

/// The entries that used to panic on a bad label (and report the
/// contained panic as `EnginePanicked`) now name it, at its global index.
#[test]
fn direct_entries_name_the_bad_label() {
    let n = 20_000;
    for m in [7usize, 1_000_000] {
        for index in [5usize, 15_000] {
            let values = vec![1i64; n];
            let mut labels: Vec<usize> = (0..n).map(|i| i % m).collect();
            labels[index] = m + 3;
            let expect = Err(MpError::LabelOutOfRange {
                index,
                label: m + 3,
                m,
            });
            let got = try_multiprefix_chunked(&values, &labels, m, Plus, OverflowPolicy::Wrap);
            assert_eq!(got, expect, "m={m} index={index}");
            let cfg = ExecConfig::default().threads(4);
            let got =
                try_multireduce_chunked_cfg_ctx(&values, &labels, m, Plus, cfg, &RunContext::new());
            assert_eq!(got, expect.map(|_| None), "m={m} index={index}");
        }
    }
}

/// Unequal lengths, either way round, through the direct entries of the
/// chunked engine and of the spinetree and atomic engines: the hardened
/// ones return `LengthMismatch`, and the plain ones panic with a message
/// that names both lengths. (They used to answer from the shorter prefix —
/// chunked sums `[0, 0, 0, 0, 0]` and reductions `[1, 2]` for the first
/// pair here — or, in the spinetree and atomic prefix entries, panic on an
/// out-of-bounds index.)
#[test]
fn direct_entries_reject_unequal_lengths() {
    let pairs: [(Vec<i64>, Vec<usize>); 2] = [
        (vec![1, 2, 3, 4, 5], vec![0, 1]),
        (vec![1, 2], vec![0, 1, 0, 1, 1]),
    ];
    for (values, labels) in &pairs {
        let want = MpError::LengthMismatch {
            values: values.len(),
            labels: labels.len(),
        };
        let panics_naming_want = |entry: &str, run: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
            let message = payload.downcast_ref::<String>().expect("formatted message");
            assert!(message.contains(&want.to_string()), "{entry}: {message}");
        };
        let wrap = OverflowPolicy::Wrap;
        let got = try_multiprefix_chunked(values, labels, 2, Plus, wrap);
        assert_eq!(got, Err(want.clone()));
        let got = try_multireduce_chunked(values, labels, 2, Plus, wrap);
        assert_eq!(got, Err(want.clone()));
        for parts in 1..=4 {
            let cfg = ExecConfig::default().threads(parts);
            let ctx = RunContext::new();
            let got = try_multiprefix_chunked_cfg_ctx(values, labels, 2, Plus, cfg, &ctx);
            assert_eq!(got, Err(want.clone()), "parts {parts}");
            let got = try_multireduce_chunked_cfg_ctx(values, labels, 2, Plus, cfg, &ctx);
            assert_eq!(got, Err(want.clone()), "parts {parts}");
            let plain: [(&str, &dyn Fn()); 4] = [
                ("with_parts", &|| {
                    drop(multiprefix_chunked_with_parts(
                        values, labels, 2, Plus, parts,
                    ))
                }),
                ("with_threads", &|| {
                    drop(multiprefix_chunked_with_threads(
                        values, labels, 2, Plus, parts,
                    ))
                }),
                ("default", &|| {
                    drop(multiprefix_chunked(values, labels, 2, Plus))
                }),
                ("reduce", &|| {
                    drop(multireduce_chunked(values, labels, 2, Plus))
                }),
            ];
            for (entry, run) in plain {
                panics_naming_want(&format!("{entry}, parts {parts}"), run);
            }
        }
        let ctx = RunContext::new();
        let got = try_multiprefix_spinetree_ctx(values, labels, 2, Plus, wrap, &ctx);
        assert_eq!(got, Err(want.clone()), "spinetree");
        let got = try_multireduce_spinetree_ctx(values, labels, 2, Plus, wrap, &ctx);
        assert_eq!(got, Err(want.clone()), "spinetree reduce");
        let got = try_multiprefix_atomic_ctx(values, labels, 2, Plus, wrap, &ctx);
        assert_eq!(got, Err(want.clone()), "atomic");
        let got = try_multireduce_atomic_ctx(values, labels, 2, Plus, wrap, &ctx);
        assert_eq!(got, Err(want.clone()), "atomic reduce");
        let plain: [(&str, &dyn Fn()); 4] = [
            ("spinetree", &|| {
                drop(multiprefix_spinetree(values, labels, 2, Plus))
            }),
            ("spinetree reduce", &|| {
                drop(multireduce_spinetree(values, labels, 2, Plus))
            }),
            ("atomic", &|| {
                drop(multiprefix_atomic(values, labels, 2, Plus))
            }),
            ("atomic reduce", &|| {
                drop(multireduce_atomic(values, labels, 2, Plus))
            }),
        ];
        for (entry, run) in plain {
            panics_naming_want(entry, run);
        }
    }
}

/// Eight threads call `Engine::Auto` at once over mixed sizes — from empty
/// to several `MIN_CHUNK_LEN` chunks, one label to `m ≫ n` — through the
/// plain and hardened entries: every answer is serial's.
#[test]
fn auto_storm_matches_serial() {
    let shapes: Vec<(Vec<i64>, Vec<usize>, usize)> = [
        (0usize, 3usize),
        (100, 1),
        (5_000, 17),
        (9_000, 1),
        (20_000, 600),
        (33_000, 200_000),
    ]
    .iter()
    .map(|&(n, m)| {
        let mut state = (n * 31 + m) as u64;
        let values = (0..n).map(|_| lcg(&mut state) as i64).collect();
        let labels = (0..n).map(|_| lcg(&mut state) as usize % m).collect();
        (values, labels, m)
    })
    .collect();
    let expect: Vec<_> = shapes
        .iter()
        .map(|(v, l, m)| multiprefix_serial(v, l, *m, Plus))
        .collect();
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (shapes, expect, start) = (&shapes, &expect, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..10 {
                    for k in 0..shapes.len() {
                        let i = (k + t + round) % shapes.len();
                        let (values, labels, m) = &shapes[i];
                        let out = multiprefix(values, labels, *m, Plus, Engine::Auto).unwrap();
                        assert_eq!(out, expect[i], "thread {t} shape {i}");
                        let red = multireduce(values, labels, *m, Plus, Engine::Auto).unwrap();
                        assert_eq!(red, expect[i].reductions, "thread {t} shape {i}");
                        let cfg = ExecConfig::default();
                        let out = try_multiprefix(values, labels, *m, Plus, Engine::Auto, cfg);
                        assert_eq!(out.as_ref(), Ok(&expect[i]), "thread {t} shape {i}");
                    }
                }
            });
        }
    });
}

/// `Engine::Auto` on floats gives the same bits on every call, and serial's:
/// it runs one chunk, which combines in serial order. A split adds each
/// chunk's offset after its local prefix, which rounds differently — the
/// data is chosen so that it does. The default dispatcher and the default
/// service run what `Auto` runs, so their answers are serial's bits too,
/// also when the chunked engine fails and the serial fallback serves.
#[test]
fn auto_on_floats_is_bit_stable() {
    let (n, m) = (50_000, 7);
    let mut state = 0x5eed;
    let values: Vec<f64> = (0..n)
        .map(|i| (lcg(&mut state) >> 11) as f64 * [1e-24, 1e-16, 1e-8][i % 3])
        .collect();
    let labels: Vec<usize> = (0..n).map(|_| lcg(&mut state) as usize % m).collect();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let serial = multiprefix_serial(&values, &labels, m, Plus);
    let (sums, reductions) = (bits(&serial.sums), bits(&serial.reductions));
    let split = multiprefix_chunked_with_parts(&values, &labels, m, Plus, 4);
    assert_ne!(
        bits(&split.sums),
        sums,
        "the data must be rounding-sensitive"
    );
    for call in 0..70 {
        let out = multiprefix(&values, &labels, m, Plus, Engine::Auto).unwrap();
        assert_eq!(bits(&out.sums), sums, "call {call}");
        assert_eq!(bits(&out.reductions), reductions, "call {call}");
        let red = multireduce(&values, &labels, m, Plus, Engine::Auto).unwrap();
        assert_eq!(bits(&red), reductions, "call {call}");
        let out = try_multiprefix(
            &values,
            &labels,
            m,
            Plus,
            Engine::Auto,
            ExecConfig::default(),
        );
        assert_eq!(bits(&out.unwrap().sums), sums, "call {call}");
    }
    let dispatcher = Dispatcher::new(DispatcherConfig::default()).unwrap();
    let wedged = DispatchOpts {
        chaos: Some(
            ChaosPlan::seeded(3)
                .alloc_fail_ppm(1_000_000)
                .only(Engine::Chunked)
                .arm(),
        ),
        ..DispatchOpts::default()
    };
    for (opts, served) in [
        (DispatchOpts::default(), Engine::Chunked),
        (wedged, Engine::Serial),
    ] {
        let out = dispatcher
            .dispatch(&values, &labels, m, Plus, &opts)
            .unwrap();
        assert_eq!(out.engine, served);
        assert_eq!(bits(&out.output.sums), sums, "dispatch via {served}");
        assert_eq!(
            bits(&out.output.reductions),
            reductions,
            "dispatch via {served}"
        );
    }
    let service = Service::new(Plus, ServiceConfig::default()).unwrap();
    let ticket = service
        .submit(Request::multiprefix(values, labels, m))
        .unwrap();
    let Reply::Prefix(out) = ticket.wait().unwrap() else {
        panic!("a multiprefix request gets a prefix reply");
    };
    assert_eq!(bits(&out.sums), sums, "service");
    assert_eq!(bits(&out.reductions), reductions, "service");
}

/// Deterministic pins for the shapes the strategies above only sample, so
/// every `cargo test` run covers them regardless of proptest's schedule.
#[test]
fn degenerate_shapes_pinned() {
    // n = 0 and n = 1 under every ops/parts combination that matters.
    for parts in [1usize, 3, 8] {
        let empty = multiprefix_chunked_with_parts::<i64, _>(&[], &[], 5, Plus, parts);
        assert!(empty.sums.is_empty());
        assert_eq!(empty.reductions, vec![0; 5]);
        let one = multiprefix_chunked_with_parts(&[42i64], &[2], 5, Plus, parts);
        assert_eq!(one.sums, vec![0]);
        assert_eq!(one.reductions, vec![0, 0, 42, 0, 0]);
    }
    // All elements on one label: the combine scan degenerates to a plain
    // exclusive scan across chunks.
    let n = 10_000;
    let values: Vec<i64> = (0..n as i64).collect();
    let labels = vec![3usize; n];
    assert_eq!(
        multiprefix_chunked_with_parts(&values, &labels, 7, Plus, 9),
        multiprefix_serial(&values, &labels, 7, Plus)
    );
    // m ≫ n: forces the probed (open-addressed) chunk tables.
    let n = 2_000;
    let m = 1_000_000;
    let labels: Vec<usize> = (0..n).map(|i| (i * 499) % m).collect();
    let values: Vec<i64> = (0..n as i64).map(|i| i % 13 - 6).collect();
    assert_eq!(
        multiprefix_chunked_with_parts(&values, &labels, m, Plus, 5),
        multiprefix_serial(&values, &labels, m, Plus)
    );
    // Min/Max identities must survive for absent labels.
    let out = multiprefix_chunked_with_parts(&values, &labels, m, Max, 5);
    assert_eq!(out.reductions[1], i64::MIN);
    let out = multiprefix_chunked_with_parts(&values, &labels, m, Min, 5);
    assert_eq!(out.reductions[1], i64::MAX);
}

/// Cancellation must be able to interrupt every phase of the chunked
/// engine, always yielding a clean `Err(Cancelled)` and never a partial
/// or corrupt success.
#[test]
fn cancellation_interrupts_every_phase() {
    let n = 40_000;
    let m = 512;
    let values: Vec<i64> = vec![1; n];
    let labels: Vec<usize> = (0..n).map(|i| i % m).collect();
    let expect = multiprefix_serial(&values, &labels, m, Plus);
    // Polls happen at phase entry and every CHECK_STRIDE elements; sweep
    // budgets from "cancel immediately" to "cancel in the apply pass".
    for budget in [0u64, 1, 2, 3, 5, 9, 17, 33, 65, u64::MAX] {
        let token = CancelToken::cancel_after(budget);
        let ctx = RunContext::new().with_cancel(&token);
        let got =
            try_multiprefix_chunked_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &ctx);
        match got {
            Err(MpError::Cancelled) => {}
            Ok(Some(out)) => assert_eq!(out, expect, "budget {budget}"),
            other => panic!("budget {budget}: unexpected {other:?}"),
        }
    }
    // A generous budget completes; an exhausted one cancels.
    let token = CancelToken::cancel_after(u64::MAX);
    let ctx = RunContext::new().with_cancel(&token);
    let out = try_multiprefix_chunked_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &ctx)
        .expect("no cancellation")
        .expect("Wrap never trips");
    assert_eq!(out, expect);
    let token = CancelToken::cancel_after(0);
    let ctx = RunContext::new().with_cancel(&token);
    assert!(matches!(
        try_multiprefix_chunked_ctx(&values, &labels, m, Plus, OverflowPolicy::Wrap, &ctx),
        Err(MpError::Cancelled)
    ));
}

//! The oracle harness: one generator of `(values, labels, m)` problems and
//! one check, [`Case::assert_matches_serial`], that every public entry
//! point goes through — the engines' own entries, the API, the dispatcher,
//! the service and the sharded engine. The paper's Figure 2 serial loop
//! defines the multiprefix, and an entry is correct exactly when it
//! returns that loop's answer:
//!
//! * on integer operators (and `FirstLast` over integers) every entry
//!   returns serial's bits;
//! * on floats, `Serial` and every one-chunk chunked run (`Auto`, the
//!   default dispatcher chain, the service) return serial's bits; a split
//!   chunked run and the sharded engine the bits of their own contiguous
//!   grouping ([`span_grouped`]); the spinetree is checked where sums are
//!   exact;
//! * on an invalid input ([`Invalid`]) a hardened entry returns exactly the
//!   error `validate` reports, and a plain entry panics with a message that
//!   contains it — except the chunked engine's own entries with `m == 1`,
//!   whose vector kernels never read a label (the API scans for them).
//!
//! Four test files drive its cells — entry group × value family × shape:
//! `oracle_harness.rs` the operators, arbitration and the definition, the
//! overflow policies, the recorder, floats, the service and one shape past
//! the engines' huge-page threshold; `chunked_differential.rs` chunk counts
//! and the invalid family; `shard_exscan_differential.rs` the sharded
//! engine; `simd_differential.rs` the vector kernels, on this generator's
//! shapes.
#![allow(dead_code)] // each test binary drives its own cells

use multiprefix::atomic::{
    multiprefix_atomic, multiprefix_atomic_hardened, multireduce_atomic,
    try_multiprefix_atomic_cfg_ctx, AtomicCombine,
};
use multiprefix::chunked::{
    multiprefix_chunked, multiprefix_chunked_with_parts, try_multiprefix_chunked_cfg_ctx,
    MIN_CHUNK_LEN,
};
use multiprefix::obs::MemoryRecorder;
use multiprefix::op::{CombineOp, Plus, TryCombineOp};
use multiprefix::resilience::{
    CancelToken, ChaosPlan, Deadline, DispatchOpts, DispatchOutcome as Outcome, Dispatcher,
    DispatcherConfig, RunContext,
};
use multiprefix::serial::{multiprefix_serial, multireduce_serial, try_multiprefix_serial_ctx};
use multiprefix::service::{CoalesceConfig, Request, Service, ServiceConfig};
use multiprefix::shard::net::{try_multiprefix_socket_ctx, NetConfig, WireOp, WireValue};
use multiprefix::shard::try_multiprefix_sharded_ctx;
use multiprefix::spinetree::{build::ArbPolicy, layout::Layout, PreparedMultiprefix};
use multiprefix::spinetree::{
    multiprefix_spinetree, multiprefix_spinetree_instrumented, try_multiprefix_spinetree_ctx,
};
use multiprefix::{
    multiprefix, multireduce, try_multiprefix_ctx, try_multireduce_ctx, validate, Element, Engine,
    ExecConfig, MpError, MultiprefixOutput, OverflowPolicy, Recorder, ShardConfig,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Duration;

/// The engines the API selects from; the last two, which only a
/// dispatcher runs, are `Unavailable` there.
pub const ENGINES: [Engine; 6] = [
    Engine::Auto,
    Engine::Serial,
    Engine::Spinetree,
    Engine::Chunked,
    Engine::Atomic,
    Engine::Sharded,
];

pub const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::Wrap,
    OverflowPolicy::Checked,
    OverflowPolicy::Saturating,
];

/// splitmix64: the harness's one source of draws.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn f64(&mut self) -> f64 {
        self.next() as f64
    }

    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// How a shape's labels are laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skew {
    Uniform,
    OneLabel,
    /// One hot label for three elements in four, the rest uniform.
    HotLabel,
    /// Runs of one label, 1 to 96 long, stepping through the label space,
    /// so chunks share some labels and miss others.
    Clustered,
}

pub const SKEWS: [Skew; 4] = [
    Skew::Uniform,
    Skew::OneLabel,
    Skew::HotLabel,
    Skew::Clustered,
];

/// One problem shape: its length, label-space size and label layout, and
/// the seed its labels and values come from.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub m: usize,
    pub skew: Skew,
    pub seed: u64,
}

/// A label space that puts any split of `n` elements on the probed chunk
/// tables (`m ≫ n`: more than `8n + 1024` labels per extra chunk).
fn probed_m(n: usize, r: &mut Rng) -> usize {
    8 * n + 1025 + r.below(4 * n + 1024)
}

impl Shape {
    /// The shape drawn from `seed`. n: 0 or 1; a length straddling a SIMD
    /// lane boundary (7–9, 15–17, 31–33); up to 400; or, one draw in 32,
    /// one to three `MIN_CHUNK_LEN` chunks. m: 1; 2–16; about n; or, below
    /// `MIN_CHUNK_LEN`, `m ≫ n`. Labels: any [`Skew`].
    pub fn draw(seed: u64) -> Shape {
        let mut r = Rng(seed);
        let n = match r.below(32) {
            0..=1 => r.below(2),
            2..=13 => [7, 8, 9, 15, 16, 17, 31, 32, 33][r.below(9)],
            14..=30 => r.range(2, 400),
            _ => r.range(MIN_CHUNK_LEN - 1, 3 * MIN_CHUNK_LEN + 1),
        };
        let m = match r.below(4) {
            0 => 1,
            1 => r.range(2, 17),
            3 if n < MIN_CHUNK_LEN => probed_m(n, &mut r),
            _ => (n * 3 / 4 + r.below(n / 2 + 1)).max(1),
        };
        let (skew, seed) = (SKEWS[r.below(4)], r.next());
        Shape { n, m, skew, seed }
    }

    pub fn labels(&self) -> Vec<usize> {
        let (mut r, m) = (Rng(self.seed), self.m);
        let hot = r.below(m);
        let (mut label, mut left) = (hot, 0usize);
        let mut next = || match self.skew {
            Skew::Uniform => r.below(m),
            Skew::OneLabel => hot,
            Skew::HotLabel if r.below(4) == 0 => r.below(m),
            Skew::HotLabel => hot,
            Skew::Clustered => {
                if left == 0 {
                    (label, left) = ((label + 1 + r.below(3)) % m, 1 + r.below(96));
                }
                left -= 1;
                label
            }
        };
        (0..self.n).map(|_| next()).collect()
    }
}

/// The fixed shapes the slow entries (the service, the sharded engine)
/// run: every length, label-space and skew class, with fixed seeds.
pub fn fixed_shapes() -> Vec<Shape> {
    let c = MIN_CHUNK_LEN;
    let ns = [0, 1, 1, 7, 8, 9, 16, 17, 31, 33, 257, 400].into_iter();
    let ns = ns.chain([c + 17, 2 * c + 3, 2 * c + 3, 3 * c]);
    let ms = [
        3, 1, 5, 1, 3, 2_000, 12, 1, 31, 5, 200, 4_500, 1, 7, 120_000, 63,
    ];
    let shape = |(k, (n, m))| {
        let (skew, seed) = (SKEWS[k * 5 % 4], k as u64);
        Shape { n, m, skew, seed }
    };
    ns.zip(ms).enumerate().map(shape).collect()
}

/// A value family: how a value is drawn, and whether every sum of drawn
/// values is exact (so every grouping of the combines has the same bits).
#[derive(Clone, Copy)]
pub struct Values<T>(pub &'static str, pub fn(&mut Rng) -> T, pub bool);

/// `i64` in the `i32` range: no sum of a generated problem overflows.
pub const BENIGN: Values<i64> = Values("benign i64", |r| r.next() as i32 as i64, true);
/// `i64` near the ends of its range: the overflow policies decide.
pub const ADVERSARIAL: Values<i64> = Values("adversarial i64", |r| EXTREMES[r.below(8)], true);
const EXTREMES: [i64; 8] = [
    i64::MAX,
    i64::MIN,
    i64::MAX / 2 + 1,
    i64::MIN / 2 - 1,
    1,
    -1,
    58,
    89,
];
/// `(i32, i32)` pairs, for the non-commutative `FirstLast`.
pub const PAIRS: Values<(i32, i32)> = Values("pairs", |r| (r.next() as i32, r.next() as i32), true);
/// `f64` at magnitudes 1e8 apart, so sums round and their grouping shows.
pub const FLOATS: Values<f64> = Values("rounding f64", |r| SCALES[r.below(3)] * r.f64(), false);
const SCALES: [f64; 3] = [1e-24, -1e-16, 1e-8];
/// Whole-number `f64`: every sum is exact.
pub const WHOLE: Values<f64> = Values("whole f64", |r| r.below(2_001) as f64 - 1_000.0, true);

/// An element type whose answers compare bit for bit.
pub trait Exact: Element + Debug + PartialEq {
    fn bits(self) -> u64;
}

impl Exact for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
}

impl Exact for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Exact for (i32, i32) {
    fn bits(self) -> u64 {
        ((self.0 as u32 as u64) << 32) | self.1 as u32 as u64
    }
}

/// An entry's answer: a full multiprefix, or the reductions alone.
pub trait Answer<T>: Debug {
    fn parts(&self) -> (Option<&[T]>, &[T]);
}

impl<T: Debug> Answer<T> for MultiprefixOutput<T> {
    fn parts(&self) -> (Option<&[T]>, &[T]) {
        (Some(&self.sums), &self.reductions)
    }
}

impl<T: Debug> Answer<T> for Vec<T> {
    fn parts(&self) -> (Option<&[T]>, &[T]) {
        (None, self)
    }
}

/// How an entry groups its combines: the float answer it is held to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Figure 2's order, and every one-chunk chunked run's.
    Serial,
    /// The chunked engine on this many chunks: each chunk's offsets are
    /// prepended to its chunk-local prefixes.
    Chunks(usize),
    /// The sharded engine on this many spans: each span is replayed from
    /// its offsets.
    Spans(usize),
    /// The spinetree: checked where every grouping has the same bits.
    Spinetree,
}

/// The chunk count of an `ExecConfig` run on `threads` threads.
pub fn chunk_count(n: usize, threads: usize) -> usize {
    threads.min(n.div_ceil(MIN_CHUNK_LEN)).max(1)
}

/// What a run split into `spans` equal contiguous spans computes: each
/// span folds its labels from the identity, each label's running total
/// crosses the spans in order and ends as its reduction, and a span's
/// sums are its offsets prepended to its local prefixes (`replay` false:
/// the chunked engine) or its values folded on from its offsets (`replay`:
/// the sharded engine). On exact operators this is serial's answer.
pub fn span_grouped<T: Element, O: CombineOp<T>>(
    (values, labels, m, op): (&[T], &[usize], usize, O),
    spans: usize,
    replay: bool,
) -> MultiprefixOutput<T> {
    let (mut reductions, mut sums) = (vec![op.identity(); m], Vec::with_capacity(values.len()));
    let len = values.len().div_ceil(spans.max(1)).max(1);
    for (k, (vals, labs)) in values.chunks(len).zip(labels.chunks(len)).enumerate() {
        let (mut local, mut runs) = (HashMap::new(), HashMap::new());
        for (&v, &l) in vals.iter().zip(labs) {
            let acc: &mut T = local.entry(l).or_insert(op.identity());
            let offset = reductions[l];
            let run: &mut T = runs.entry(l).or_insert(offset);
            sums.push(match (k, replay) {
                (0, _) => *acc,
                (_, true) => *run,
                (_, false) => op.combine(offset, *acc),
            });
            (*acc, *run) = (op.combine(*acc, v), op.combine(*run, v));
        }
        for (l, total) in local {
            reductions[l] = if k == 0 {
                total
            } else {
                op.combine(reductions[l], total)
            };
        }
    }
    MultiprefixOutput { sums, reductions }
}

/// One generated problem.
#[derive(Clone, Debug)]
pub struct Problem<T> {
    pub values: Vec<T>,
    pub labels: Vec<usize>,
    pub m: usize,
    pub shape: Shape,
    pub family: &'static str,
    pub exact: bool,
}

impl<T> Problem<T> {
    pub fn new(shape: Shape, Values(family, draw, exact): Values<T>) -> Problem<T> {
        let mut r = Rng(shape.seed ^ 0x5EED);
        let values = (0..shape.n).map(|_| draw(&mut r)).collect();
        let (labels, m) = (shape.labels(), shape.m);
        Problem {
            values,
            labels,
            m,
            shape,
            family,
            exact,
        }
    }
}

/// Which answers a check covers: full multiprefixes, reductions, or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Prefix,
    Reduce,
    Both,
}

impl Side {
    fn prefix(self) -> bool {
        self != Side::Reduce
    }

    fn reduce(self) -> bool {
        self != Side::Prefix
    }
}

/// A problem, its operator and overflow policy, and Figure 2's answer
/// under them — the plain loop's under `Wrap`, else the hardened loop's,
/// which defines the checking policies: what every entry is checked
/// against.
pub struct Case<T, O> {
    pub p: Problem<T>,
    pub op: O,
    pub policy: OverflowPolicy,
    pub want: Result<MultiprefixOutput<T>, MpError>,
    /// The thread count of the split runs: 2 to 4.
    pub threads: usize,
    grouped: RefCell<HashMap<(usize, bool), MultiprefixOutput<T>>>,
}

type Got<A> = Result<A, MpError>;
type Seen = Option<Arc<MemoryRecorder>>;

impl<T: Exact, O: TryCombineOp<T>> Case<T, O> {
    pub fn new(shape: Shape, family: Values<T>, op: O) -> Case<T, O> {
        Case::with_policy(shape, family, op, OverflowPolicy::Wrap)
    }

    pub fn with_policy(shape: Shape, family: Values<T>, op: O, policy: OverflowPolicy) -> Self {
        let p = Problem::new(shape, family);
        let (v, l, m) = (&p.values[..], &p.labels[..], p.m);
        let want = match policy {
            OverflowPolicy::Wrap => Ok(multiprefix_serial(v, l, m, op)),
            _ => try_multiprefix_serial_ctx(v, l, m, op, policy, &RunContext::new()),
        };
        let (threads, grouped) = (2 + (shape.seed % 3) as usize, RefCell::default());
        Case {
            p,
            op,
            policy,
            want,
            threads,
            grouped,
        }
    }

    pub fn io(&self) -> (&[T], &[usize], usize, O) {
        (&self.p.values, &self.p.labels, self.p.m, self.op)
    }

    pub fn n(&self) -> usize {
        self.p.values.len()
    }

    fn what(&self, entry: &str) -> String {
        let (family, s, policy) = (self.p.family, &self.p.shape, self.policy);
        let (n, m, skew, seed) = (s.n, s.m, s.skew, s.seed);
        format!("{entry} on {family} n={n} m={m} {skew:?} seed={seed:#x} {policy:?}")
    }

    /// `got`, `entry`'s answer, must be serial's — bit for bit, result or
    /// error — or, on floats whose sums round, that of the grouping
    /// `order` names. An entry that reports only reductions is held to
    /// serial's reductions.
    pub fn assert_matches_serial<A: Answer<T>>(&self, entry: &str, order: Order, got: Got<A>) {
        let what = || self.what(entry);
        let (serial, got) = match (&self.want, got) {
            (Ok(want), Ok(got)) => (want, got),
            (want, got) => {
                return assert_eq!(got.err().as_ref(), want.as_ref().err(), "{}", what())
            }
        };
        if !self.p.exact && order == Order::Spinetree {
            return;
        }
        let split = match order {
            Order::Chunks(spans) => Some((spans, false)),
            Order::Spans(spans) => Some((spans, true)),
            _ => None,
        };
        let grouped = split.filter(|_| !self.p.exact).map(|(spans, replay)| {
            let key = (spans.clamp(1, self.n().max(1)), replay);
            let mut cache = self.grouped.borrow_mut();
            cache
                .entry(key)
                .or_insert_with(|| span_grouped(self.io(), key.0, replay))
                .clone()
        });
        let want = grouped.as_ref().unwrap_or(serial);
        let (sums, reductions) = got.parts();
        let pairs = [(sums, &want.sums), (Some(reductions), &want.reductions)];
        for (got, want) in pairs.into_iter().filter_map(|(g, w)| Some((g?, w))) {
            assert_eq!(got.len(), want.len(), "{}: length", what());
            if let Some(i) = (0..got.len()).find(|&i| got[i].bits() != want[i].bits()) {
                let (got, want) = (got[i], want[i]);
                panic!("{}: [{i}] is {got:?}, serial's is {want:?}", what());
            }
        }
    }

    /// A hardened engine entry's answer: `Ok(None)` (a checked combine
    /// tripped, and the caller replays serial) is allowed under a checking
    /// policy; anything else must match serial's.
    pub fn assert_engine_matches<A: Answer<T>>(&self, entry: &str, o: Order, got: Got<Option<A>>) {
        match got {
            Ok(None) => assert!(self.policy != OverflowPolicy::Wrap, "{}", self.what(entry)),
            Ok(Some(out)) => self.assert_matches_serial(entry, o, Ok(out)),
            Err(e) => self.assert_matches_serial::<A>(entry, o, Err(e)),
        }
    }

    /// An API call's answer: `Unavailable` for the dispatcher-only
    /// engines, else serial's in the order `engine` on `threads` groups
    /// in (serial's reductions under a checking policy).
    fn assert_api<A: Answer<T>>(&self, entry: &str, engine: Engine, threads: usize, got: Got<A>) {
        let entry = format!("{entry} {engine} threads={threads}");
        let reduce = got.as_ref().is_ok_and(|a| a.parts().0.is_none());
        let order = match engine.resolve() {
            _ if reduce && self.policy != OverflowPolicy::Wrap => Order::Serial,
            Engine::Chunked => Order::Chunks(chunk_count(self.n(), threads)),
            Engine::Spinetree => Order::Spinetree,
            _ => Order::Serial,
        };
        match engine {
            Engine::Atomic | Engine::Sharded => {
                let unavailable = matches!(got, Err(MpError::Unavailable));
                assert!(unavailable, "{}", self.what(&entry))
            }
            _ => self.assert_matches_serial(&entry, order, got),
        }
    }

    /// A context for `engine`'s run, with a recorder when `observe` is set.
    fn ctx(&self, engine: Engine, observe: bool) -> (RunContext, Seen) {
        let ctx = RunContext::new().for_engine(engine.resolve());
        let rec = observe.then(MemoryRecorder::shared);
        let ctx = match &rec {
            Some(rec) => ctx.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>),
            None => ctx,
        };
        (ctx, rec)
    }

    /// A recorder that watched a run of `n > 0` elements holds at least one
    /// phase sample: the run was really observed.
    fn assert_seen(&self, entry: &str, rec: Seen) {
        if let Some(rec) = rec.filter(|_| self.n() > 0) {
            let seen = rec.snapshot().histograms.values().any(|h| h.count > 0);
            assert!(seen, "{}: no phase sample", self.what(entry));
        }
    }

    /// One chunk, and `threads` chunks, under the case's policy.
    fn configs(&self) -> [(ExecConfig, usize); 2] {
        let cfg = ExecConfig::default().overflow(self.policy);
        [(cfg, 1), (cfg.threads(self.threads), self.threads)]
    }

    /// Every entry generic over the element type: [`Self::plain`],
    /// [`Self::with_ctx`] and [`Self::dispatch`].
    pub fn every_entry(&self, side: Side) {
        self.plain(side);
        self.with_ctx(side, false);
        self.dispatch(side, false);
    }

    /// The entries that take no context (only under `Wrap`): the API's
    /// `multiprefix` and `multireduce` on every engine, Figure 2's
    /// `multireduce_serial`, and the chunked and spinetree engines' plain
    /// entries — one-shot, instrumented (with its step and work counts)
    /// and over a prepared spinetree.
    pub fn plain(&self, side: Side) {
        if self.policy != OverflowPolicy::Wrap {
            return;
        }
        let ((v, l, m, op), n, serial) = (self.io(), self.n(), Order::Serial);
        let prepared = PreparedMultiprefix::new(l, m).expect("valid labels");
        for engine in ENGINES {
            if side.prefix() {
                self.assert_api("multiprefix", engine, 1, multiprefix(v, l, m, op, engine));
            }
            if side.reduce() {
                self.assert_api("multireduce", engine, 1, multireduce(v, l, m, op, engine));
            }
        }
        if side.reduce() {
            let got = Ok(multireduce_serial(v, l, m, op));
            self.assert_matches_serial("multireduce_serial", serial, got);
            let got = Ok(prepared.run_reduce(v, op));
            self.assert_matches_serial("run_reduce", Order::Spinetree, got);
        }
        if !side.prefix() {
            return;
        }
        let host = Order::Chunks(chunk_count(n, ExecConfig::default().effective_threads()));
        let got = Ok(multiprefix_chunked(v, l, m, op));
        self.assert_matches_serial("multiprefix_chunked", host, got);
        for parts in [1, 2, self.threads + 1] {
            let got = Ok(multiprefix_chunked_with_parts(v, l, m, op, parts));
            self.assert_matches_serial("with_parts", Order::Chunks(parts), got);
        }
        let got = Ok(multiprefix_spinetree(v, l, m, op));
        self.assert_matches_serial("multiprefix_spinetree", Order::Spinetree, got);
        let layout = Layout::square(n, m);
        let run = multiprefix_spinetree_instrumented(v, l, op, layout, ArbPolicy::LastWins);
        let steps = 1 + 2 * layout.n_rows + 2 * layout.cols_left_right().len();
        let (counts, work) = (
            (run.total_steps(), run.total_work()),
            layout.slots() + 4 * n,
        );
        assert_eq!(counts, (steps, work), "{}", self.what("steps and work"));
        self.assert_matches_serial("instrumented", Order::Spinetree, Ok(run.output));
        let p = &prepared;
        let got = (p.len(), p.is_empty(), p.buckets(), p.layout());
        assert_eq!(got, (n, n == 0, m, &layout), "{}", self.what("prepared"));
        self.assert_matches_serial("prepared run", Order::Spinetree, Ok(prepared.run(v, op)));
    }

    /// The entries that take a [`RunContext`], under the case's policy:
    /// Figure 2's hardened loop, the chunked and spinetree engines' hardened
    /// entries, and the API's `try_multiprefix_ctx` and
    /// `try_multireduce_ctx` on every engine, on one chunk and on
    /// `threads`. With `observe` each run has a recorder that must see it.
    pub fn with_ctx(&self, side: Side, observe: bool) {
        let ((v, l, m, op), policy) = (self.io(), self.policy);
        for (cfg, threads) in self.configs() {
            for engine in ENGINES {
                let seen = observe && !matches!(engine, Engine::Atomic | Engine::Sharded);
                if side.prefix() {
                    let (ctx, rec) = self.ctx(engine, seen);
                    let got = try_multiprefix_ctx(v, l, m, op, engine, cfg, &ctx);
                    self.assert_api("try_multiprefix_ctx", engine, threads, got);
                    self.assert_seen("try_multiprefix_ctx", rec);
                }
                if side.reduce() {
                    let (ctx, rec) = self.ctx(engine, seen);
                    let got = try_multireduce_ctx(v, l, m, op, engine, cfg, &ctx);
                    self.assert_api("try_multireduce_ctx", engine, threads, got);
                    self.assert_seen("try_multireduce_ctx", rec);
                }
            }
            if side.prefix() {
                let (ctx, rec) = self.ctx(Engine::Chunked, observe);
                let got = try_multiprefix_chunked_cfg_ctx(v, l, m, op, cfg, &ctx);
                let order = Order::Chunks(chunk_count(v.len(), threads));
                self.assert_engine_matches("try_multiprefix_chunked_cfg_ctx", order, got);
                self.assert_seen("try_multiprefix_chunked_cfg_ctx", rec);
            }
        }
        if side.prefix() {
            let (ctx, rec) = self.ctx(Engine::Serial, observe);
            let got = try_multiprefix_serial_ctx(v, l, m, op, policy, &ctx);
            self.assert_matches_serial("try_multiprefix_serial_ctx", Order::Serial, got);
            self.assert_seen("try_multiprefix_serial_ctx", rec);
            let (ctx, rec) = self.ctx(Engine::Spinetree, observe);
            let got = try_multiprefix_spinetree_ctx(v, l, m, op, policy, &ctx);
            self.assert_engine_matches("try_multiprefix_spinetree_ctx", Order::Spinetree, got);
            self.assert_seen("try_multiprefix_spinetree_ctx", rec);
        }
    }

    /// The default chain and `[Atomic, Serial]`, under the case's policy,
    /// with a recorder when `observe` is set.
    fn dispatchers(&self, observe: bool) -> [(Dispatcher, Seen); 2] {
        let mut cfg = DispatcherConfig::default();
        cfg.exec = cfg.exec.overflow(self.policy);
        let chains = [cfg.chain.clone(), vec![Engine::Atomic, Engine::Serial]];
        chains.map(|chain| {
            let d = Dispatcher::new(DispatcherConfig {
                chain,
                ..cfg.clone()
            })
            .unwrap();
            let rec = observe.then(MemoryRecorder::shared);
            match rec.clone() {
                Some(r) => (d.with_recorder(r as Arc<dyn Recorder>), rec),
                None => (d, rec),
            }
        })
    }

    /// A recorder watches and does not steer: `got`, from a dispatcher with
    /// one, was served by the engine that served `plain`, from the same
    /// chain without one.
    fn assert_same_engine<R, S>(&self, entry: &str, got: &Got<Outcome<R>>, plain: Got<Outcome<S>>) {
        let (got, plain) = (
            got.as_ref().ok().map(|o| o.engine),
            plain.ok().map(|o| o.engine),
        );
        let what = self.what(entry);
        assert_eq!(got, plain, "{what}: recorder changed engine selection");
    }

    /// `Dispatcher::{dispatch, dispatch_reduce}` on both chains: the default
    /// chain runs what `Auto` runs (one chunk), and `[Atomic, Serial]` skips
    /// the atomic entry.
    pub fn dispatch(&self, side: Side, observe: bool) {
        let ((v, l, m, op), opts) = (self.io(), DispatchOpts::default());
        let plain = self.dispatchers(false);
        for ((d, rec), (p, _)) in self.dispatchers(observe).iter().zip(&plain) {
            let entry = format!("dispatch {:?}", d.config().chain);
            if side.prefix() {
                let got = d.dispatch(v, l, m, op, &opts);
                if observe {
                    self.assert_same_engine(&entry, &got, p.dispatch(v, l, m, op, &opts));
                }
                self.assert_matches_serial(&entry, Order::Serial, got.map(|out| out.output));
            }
            if side.reduce() {
                let got = d.dispatch_reduce(v, l, m, op, &opts);
                if observe {
                    let plain = p.dispatch_reduce(v, l, m, op, &opts);
                    self.assert_same_engine(&entry, &got, plain);
                }
                self.assert_matches_serial(&entry, Order::Serial, got.map(|out| out.output));
            }
            self.assert_seen(&entry, rec.clone());
        }
    }
}

impl<O: AtomicCombine + TryCombineOp<i64>> Case<i64, O> {
    /// Whether the case runs the atomic engine's costlier legs too: one
    /// shape seed in four. The engine spawns its workers afresh on each of
    /// its `O(√n)` parallel steps, so a run costs milliseconds even at
    /// n = 30.
    pub fn atomic_sampled(&self) -> bool {
        self.p.shape.seed.is_multiple_of(4)
    }

    /// The atomic engine's canonical `multiprefix_atomic_hardened`, under
    /// the case's policy.
    pub fn atomic_hardened(&self) {
        let (v, l, m, op) = self.io();
        let got = multiprefix_atomic_hardened(v, l, m, op, self.policy);
        self.assert_matches_serial("multiprefix_atomic_hardened", Order::Serial, got);
    }

    /// The atomic engine's other entries: the plain ones (under `Wrap`,
    /// without `observe`) and the hardened `try_multiprefix_atomic_cfg_ctx`
    /// on the global pool, with a recorder when `observe` is set — and, on
    /// [`Self::atomic_sampled`] cases, on `threads` workers.
    pub fn atomic(&self, observe: bool) {
        let ((v, l, m, op), serial) = (self.io(), Order::Serial);
        if self.policy == OverflowPolicy::Wrap && !observe {
            let got = Ok(multiprefix_atomic(v, l, m, op));
            self.assert_matches_serial("multiprefix_atomic", serial, got);
            let got = Ok(multireduce_atomic(v, l, m, op));
            self.assert_matches_serial("multireduce_atomic", serial, got);
        }
        let configs = &self.configs()[..1 + usize::from(self.atomic_sampled())];
        for &(cfg, threads) in configs {
            let entry = format!("try_multiprefix_atomic_cfg_ctx threads={threads}");
            let (ctx, rec) = self.ctx(Engine::Atomic, observe);
            let got = try_multiprefix_atomic_cfg_ctx(v, l, m, op, cfg, &ctx);
            self.assert_engine_matches(&entry, serial, got);
            self.assert_seen(&entry, rec);
        }
    }
}

impl<T: Exact + WireValue, O: TryCombineOp<T> + WireOp> Case<T, O> {
    /// The sharded engine on 1 to 5 shards, over the channel transport or
    /// Unix-domain sockets: each span replayed from its offsets. With
    /// `observe` the run has a recorder that must see it.
    pub fn shard(&self, uds: bool, observe: bool) {
        let ((v, l, m, op), shards) = (self.io(), 1 + (self.p.shape.seed % 5) as usize);
        let order = Order::Spans(shards.min(v.len()));
        let cfg = ShardConfig::default().shards(shards);
        let (ctx, rec) = self.ctx(Engine::Sharded, observe);
        if uds {
            let got = try_multiprefix_socket_ctx(v, l, m, op, &cfg, &NetConfig::uds(), &ctx);
            self.assert_matches_serial("shard over uds", order, got);
        } else {
            let exec = ExecConfig::default();
            let got = try_multiprefix_sharded_ctx(v, l, m, op, exec, &cfg, &ctx);
            self.assert_engine_matches("shard over channels", order, got);
        }
        self.assert_seen("shard", rec);
    }
}

/// How the service under test runs its requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serve {
    /// No coalescing: every request runs alone on the pool.
    Pool,
    /// Coalescing, on an idle service: small requests run on the submitter.
    Inline,
    /// Coalescing with one worker that stalls at each checkpoint, so the
    /// queued requests are fused into shared runs.
    Fused,
}

pub const SERVES: [Serve; 3] = [Serve::Pool, Serve::Inline, Serve::Fused];

fn service<T: Element, O: TryCombineOp<T>>(op: O, serve: Serve) -> Service<T, O> {
    let mut cfg = ServiceConfig::default();
    if serve != Serve::Pool {
        cfg.coalesce = Some(CoalesceConfig::default());
    }
    if serve == Serve::Fused {
        let stall = ChaosPlan::seeded(0).worker_stall_ppm(1_000_000);
        cfg.chaos = Some(stall.stall(0, Duration::from_millis(10)).arm());
        cfg.workers = Some(1);
    }
    Service::new(op, cfg).unwrap()
}

/// One service takes every case as a multiprefix and a multireduce
/// request, all submitted before any is awaited; every reply must be
/// serial's bits (the default dispatcher runs one chunk), however the
/// service runs it.
pub fn service_matches_serial<T: Exact, O: TryCombineOp<T>>(cases: &[Case<T, O>], serve: Serve) {
    let service = service(cases[0].op, serve);
    let submit = |r: Request<T>| service.submit(r).expect("admitted");
    let tickets: Vec<_> = cases
        .iter()
        .map(|c| {
            let (v, l, m) = (c.p.values.clone(), c.p.labels.clone(), c.p.m);
            let prefix = submit(Request::multiprefix(v.clone(), l.clone(), m));
            (prefix, submit(Request::multireduce(v, l, m)))
        })
        .collect();
    let entry = format!("service {serve:?}");
    for (case, (prefix, reduce)) in cases.iter().zip(tickets) {
        let got = prefix
            .wait()
            .map(|r| r.into_prefix().expect("a prefix reply"));
        case.assert_matches_serial(&entry, Order::Serial, got);
        let got = reduce.wait().map(|r| r.reductions().to_vec());
        case.assert_matches_serial(&entry, Order::Serial, got);
    }
    // The service really ran the requests the way `serve` names.
    let metrics = service.shutdown();
    let (inline, fused) = (metrics.inline > 0, metrics.coalesced_batches > 0);
    assert_eq!(
        (inline, fused),
        (serve == Serve::Inline, serve == Serve::Fused),
        "{entry}"
    );
}

thread_local! {
    /// Set while this thread runs a plain entry that must panic.
    static EXPECTING_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Run `f`, which must panic, without printing the panic: a plain entry
/// rejecting an invalid input is the outcome wanted here, not noise.
/// Returns the panic's message.
fn expect_panic<R>(what: &str, f: impl FnOnce() -> R) -> String {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTING_PANIC.with(Cell::get) {
                default(info);
            }
        }));
    });
    EXPECTING_PANIC.with(|e| e.set(true));
    let caught = catch_unwind(AssertUnwindSafe(f));
    EXPECTING_PANIC.with(|e| e.set(false));
    let payload = caught
        .err()
        .unwrap_or_else(|| panic!("{what}: returned instead of panicking"));
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or(String::new(), |s| s.to_string()),
    }
}

/// An invalid input — bad labels or unequal lengths — and the error
/// `validate` reports for it.
#[derive(Clone, Debug)]
pub struct Invalid {
    pub values: Vec<i64>,
    pub labels: Vec<usize>,
    pub m: usize,
    /// The thread count of the split runs.
    pub parts: usize,
    pub error: MpError,
    pub seed: u64,
}

impl Invalid {
    /// One draw in three has unequal lengths; the rest plant bad labels.
    pub fn draw(seed: u64) -> Invalid {
        match seed % 3 {
            0 => Invalid::mismatched(seed),
            _ => Invalid::bad_label(seed),
        }
    }

    /// n mostly 1 to 63, one draw in four one to three `MIN_CHUNK_LEN`
    /// chunks; m 0, 1, small or `m ≫ n`; the thread count; `labels` in
    /// range; `n + extra` values.
    fn new(seed: u64, extra: usize) -> (Rng, Invalid) {
        let mut r = Rng(seed);
        let n = match r.below(4) {
            0 => r.range(MIN_CHUNK_LEN, 3 * MIN_CHUNK_LEN + 1),
            _ => r.range(1, 64),
        };
        let m = [0, 1, r.range(2, 300), probed_m(n, &mut r)][r.below(4)];
        let parts = r.range(1, 9);
        let values = (0..n + extra).map(|_| (BENIGN.1)(&mut r)).collect();
        let labels = (0..n + extra).map(|_| r.below(m)).collect();
        let error = MpError::Unavailable;
        (
            r,
            Invalid {
                values,
                labels,
                m,
                parts,
                error,
                seed,
            },
        )
    }

    fn validated(mut self) -> Invalid {
        self.error = validate(&self.values.len(), &self.labels, self.m).expect_err("invalid");
        self
    }

    /// Bad labels — `m`, `m + 3`, `usize::MAX`, or one inside `[m, m + n)`
    /// (an element slot of the spinetree's pivot layout) — at the first or
    /// last element, or on either side of a chunk boundary of a `parts`-way
    /// split (as `threads(parts)` and `with_parts(parts)` cut it).
    pub fn bad_label(seed: u64) -> Invalid {
        let (mut r, mut inv) = Invalid::new(seed, 0);
        let (n, m, parts) = (inv.labels.len(), inv.m, inv.parts);
        let mut sites = vec![0, n - 1];
        for len in [n.div_ceil(chunk_count(n, parts)), n.div_ceil(parts)] {
            sites.extend((1..n.div_ceil(len)).flat_map(|k| [k * len - 1, k * len]));
        }
        let first = r.below(sites.len());
        for (k, &i) in sites.iter().enumerate() {
            if k == first || r.below(3) == 0 {
                inv.labels[i] = [m, m + 3, usize::MAX, m + r.below(n)][r.below(4)];
            }
        }
        inv.validated()
    }

    /// `labels` shorter or longer than `values`, by 1 to 63.
    pub fn mismatched(seed: u64) -> Invalid {
        let extra = 1 + (seed >> 8) as usize % 63;
        let (mut r, mut inv) = Invalid::new(seed, extra);
        let n = inv.labels.len() - extra;
        match r.below(2) {
            0 => inv.labels.truncate(n),
            _ => inv.values.truncate(n),
        }
        inv.validated()
    }

    fn what(&self, entry: &str) -> String {
        let (n, k, m, e) = (self.values.len(), self.labels.len(), self.m, &self.error);
        let (parts, seed) = (self.parts, self.seed);
        format!("{entry} on {n} values, {k} labels, m={m}, parts={parts}, seed={seed:#x}: {e}")
    }

    /// A hardened entry returns exactly `validate`'s error.
    pub fn assert_rejects<R: Debug>(&self, entry: &str, got: Got<R>) {
        let err = got.err();
        assert_eq!(err.as_ref(), Some(&self.error), "{}", self.what(entry));
    }

    /// A plain entry panics, with `validate`'s error in its message.
    pub fn assert_panics<R>(&self, entry: &str, run: impl FnOnce() -> R) {
        let message = expect_panic(&self.what(entry), run);
        let named = message.contains(&self.error.to_string());
        assert!(named, "{}: panicked with {message:?}", self.what(entry));
    }

    fn configs(&self) -> [ExecConfig; 2] {
        [
            ExecConfig::default(),
            ExecConfig::default().threads(self.parts),
        ]
    }

    /// Every direct engine entry, plain and hardened: Figure 2's, the
    /// chunked engine's, the spinetree's (one-shot, instrumented and
    /// prepared) and the atomic engine's.
    pub fn direct_entries(&self) {
        let (v, l, m, parts) = (&self.values[..], &self.labels[..], self.m, self.parts);
        let (wrap, ctx) = (OverflowPolicy::Wrap, RunContext::new());
        self.assert_panics("multiprefix_serial", || multiprefix_serial(v, l, m, Plus));
        self.assert_panics("multireduce_serial", || multireduce_serial(v, l, m, Plus));
        let got = try_multiprefix_serial_ctx(v, l, m, Plus, wrap, &ctx);
        self.assert_rejects("try_multiprefix_serial_ctx", got);
        // With `m == 1` and equal lengths the chunked entries read no label.
        if m != 1 || v.len() != l.len() {
            self.assert_panics("multiprefix_chunked", || multiprefix_chunked(v, l, m, Plus));
            let got = || multiprefix_chunked_with_parts(v, l, m, Plus, parts);
            self.assert_panics("multiprefix_chunked_with_parts", got);
            for cfg in self.configs() {
                let got = try_multiprefix_chunked_cfg_ctx(v, l, m, Plus, cfg, &ctx);
                self.assert_rejects("try_multiprefix_chunked_cfg_ctx", got);
            }
        }
        self.assert_panics("multiprefix_spinetree", || {
            multiprefix_spinetree(v, l, m, Plus)
        });
        let (layout, arb) = (Layout::square(v.len(), m), ArbPolicy::LastWins);
        let got = || multiprefix_spinetree_instrumented(v, l, Plus, layout, arb);
        self.assert_panics("multiprefix_spinetree_instrumented", got);
        let got = try_multiprefix_spinetree_ctx(v, l, m, Plus, wrap, &ctx);
        self.assert_rejects("try_multiprefix_spinetree_ctx", got);
        match PreparedMultiprefix::new(l, m) {
            // Built from the labels alone: their own error.
            Err(e) => assert_eq!(Err(e), validate(&l.len(), l, m), "prepared"),
            Ok(prepared) => {
                self.assert_panics("prepared run", || prepared.run(v, Plus));
                self.assert_panics("prepared run_reduce", || prepared.run_reduce(v, Plus));
            }
        }
        self.assert_panics("multiprefix_atomic", || multiprefix_atomic(v, l, m, Plus));
        self.assert_panics("multireduce_atomic", || multireduce_atomic(v, l, m, Plus));
        let got = multiprefix_atomic_hardened(v, l, m, Plus, wrap);
        self.assert_rejects("multiprefix_atomic_hardened", got);
        for cfg in self.configs() {
            let got = try_multiprefix_atomic_cfg_ctx(v, l, m, Plus, cfg, &ctx);
            self.assert_rejects("try_multiprefix_atomic_cfg_ctx", got);
        }
    }

    /// The front doors: the API's four entries on every engine, on one
    /// chunk and on `parts`, and the dispatcher's two on the default chain
    /// and on a sharded front — also when a cancel, an expired deadline or
    /// an injected worker panic stops the run before its loop reaches the
    /// bad label.
    pub fn front_doors(&self) {
        let (v, l, m) = (&self.values[..], &self.labels[..], self.m);
        let cancel = CancelToken::new();
        cancel.cancel();
        let chaos = ChaosPlan::seeded(self.seed).worker_panic_ppm(1_000_000);
        let chaos = chaos.only(Engine::Chunked).arm();
        let opts = |cancel, deadline, chaos| DispatchOpts {
            cancel,
            deadline,
            chaos,
        };
        let expired = Some(Deadline::after(Duration::ZERO));
        let ctx = RunContext::new;
        let zero = Duration::ZERO;
        let stops = [
            (ctx(), opts(None, None, None)),
            (
                ctx().with_cancel(&cancel),
                opts(Some(cancel.clone()), None, None),
            ),
            (ctx().with_timeout(zero), opts(None, expired, None)),
            (
                ctx().with_chaos(chaos.clone()),
                opts(None, None, Some(chaos)),
            ),
        ];
        let why = ["running", "cancelled", "expired", "worker panic"];
        for engine in ENGINES {
            let got = multiprefix(v, l, m, Plus, engine);
            self.assert_rejects(&format!("multiprefix {engine}"), got);
            let got = multireduce(v, l, m, Plus, engine);
            self.assert_rejects(&format!("multireduce {engine}"), got);
            for ((k, (ctx, _)), cfg) in stops
                .iter()
                .enumerate()
                .flat_map(|s| self.configs().map(|c| (s, c)))
            {
                let entry = format!("{engine} {} {cfg:?}", why[k]);
                let got = try_multiprefix_ctx(v, l, m, Plus, engine, cfg, ctx);
                self.assert_rejects(&format!("try_multiprefix_ctx {entry}"), got);
                let got = try_multireduce_ctx(v, l, m, Plus, engine, cfg, ctx);
                self.assert_rejects(&format!("try_multireduce_ctx {entry}"), got);
            }
        }
        for front in [Engine::Chunked, Engine::Sharded] {
            let (chain, shard) = (vec![front, Engine::Serial], ShardConfig::default());
            let shard = (front == Engine::Sharded).then_some(shard);
            let d = Dispatcher::new(DispatcherConfig {
                chain,
                shard,
                ..Default::default()
            });
            let d = d.unwrap();
            for (k, (_, opts)) in stops.iter().enumerate() {
                let entry = |f: &str| format!("{f} {front} {}", why[k]);
                let got = d.dispatch(v, l, m, Plus, opts);
                self.assert_rejects(&entry("dispatch"), got);
                let got = d.dispatch_reduce(v, l, m, Plus, opts);
                self.assert_rejects(&entry("dispatch_reduce"), got);
            }
            // A valid request right after is served by the chain's first
            // engine on its first attempt, and no bad input reached a shard.
            let fresh = d.dispatch(&[3i64, 4], &[0, 0], 1, Plus, &opts(None, None, None));
            let fresh = fresh.map(|out| (out.engine, out.attempts, out.output.sums));
            assert_eq!(fresh, Ok((front, 1, vec![0, 3])));
            let lost = d.shard_supervisor().map_or(0, |sup| sup.shards_lost());
            assert_eq!(lost, 0, "a bad input reached a shard worker");
        }
    }

    /// The sharded engine over the channel transport, or over UDS.
    pub fn shard(&self, uds: bool) {
        let (v, l, m) = (&self.values[..], &self.labels[..], self.m);
        let (cfg, ctx) = (ShardConfig::default().shards(self.parts), RunContext::new());
        if uds {
            let got = try_multiprefix_socket_ctx(v, l, m, Plus, &cfg, &NetConfig::uds(), &ctx);
            self.assert_rejects("shard over uds", got);
        } else {
            let exec = ExecConfig::default();
            let got = try_multiprefix_sharded_ctx(v, l, m, Plus, exec, &cfg, &ctx);
            self.assert_rejects("shard over channels", got);
        }
    }

    /// The service refuses the request at submission.
    pub fn service(&self, serve: Serve) {
        let service = service(Plus, serve);
        let (v, l, m) = (self.values.clone(), self.labels.clone(), self.m);
        let got = service.submit(Request::multiprefix(v.clone(), l.clone(), m));
        self.assert_rejects("service multiprefix", got.map(drop));
        let got = service.submit(Request::multireduce(v, l, m));
        self.assert_rejects("service multireduce", got.map(drop));
    }
}

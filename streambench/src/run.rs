//! Set-up, the interleaved rounds, and the traced run's probes.

use crate::workload::{build, Call, Rung, Workload};
use forkjoin::{ForkJoinPool, MetricsSnapshot};
use jstreams::ExecConfig;
use plobs::RunReport;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streambench::heap;
use streambench::stats::{better_quartile, median, percentile, round_quartile, Better};
use streambench::trace::Spans;

/// What one run measures.
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs and one round, for tests.
    pub smoke: bool,
}

impl Options {
    /// Rounds of the ladder. Many short interleaved rounds put every
    /// rung in every slot position several times, so host drift hits all
    /// rungs alike, and give the better-quartile rule enough rounds to
    /// find the ones no neighbour disturbed.
    pub fn rounds(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, _) => 1,
            (false, false) => 32,
            (false, true) => 16,
        }
    }

    /// Set-ups per run; `setup_s` is their first quartile.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            7
        }
    }
}

/// Slots never end before this many whole call cycles.
const MIN_CYCLES: usize = 3;

/// Calls attempted and failed over a whole run, set-up included.
#[derive(Default)]
pub struct Tally {
    /// Calls made.
    pub attempted: Cell<u64>,
    /// Calls that returned an error or a wrong value.
    pub failed: Cell<u64>,
    /// Largest heap growth (tracked blocks) seen during one library call.
    pub transient_peak: Cell<usize>,
}

/// A set-up workload with its two pools. The caller thread blocks in
/// `install` while a pool runs a call, so at most `nproc` threads are
/// busy; the 1-worker pool only wakes for the par@1 rung.
pub struct Bench<'t> {
    /// The workload.
    pub w: Box<dyn Workload>,
    /// Workers of the par@N pool.
    pub nproc: usize,
    /// The par@N pool.
    pub parn: Arc<ForkJoinPool>,
    cfgs: [ExecConfig; 5],
    tally: &'t Tally,
}

impl<'t> Bench<'t> {
    /// Builds the inputs, views and pools, then warms up with one
    /// checked call of every ladder rung and two more par@N calls.
    pub fn set_up(opts: &Options, nproc: usize, tally: &'t Tally) -> Option<Bench<'t>> {
        let w = build(&opts.workload, opts.smoke, opts.seed)?;
        let par1 = Arc::new(ForkJoinPool::new(1));
        let parn = Arc::new(ForkJoinPool::new(nproc));
        let par = |p: &Arc<ForkJoinPool>| ExecConfig::par().with_pool(Arc::clone(p));
        let cfgs = [
            ExecConfig::seq(),
            ExecConfig::seq(),
            par(&par1),
            par(&parn),
            par(&parn),
        ];
        let b = Bench {
            w,
            nproc,
            parn,
            cfgs,
            tally,
        };
        for rung in [
            Rung::Hand,
            Rung::Seq,
            Rung::Par1,
            Rung::ParN,
            Rung::ParN,
            Rung::ParN,
        ] {
            b.call(rung, 0);
        }
        Some(b)
    }

    /// One checked call, counted in the tally. Library calls also
    /// record how far the heap grew while they ran, which leaves the
    /// benchmark's own sample buffers out of `peak_heap_mib`.
    pub fn call(&self, rung: Rung, i: usize) -> Call {
        let before = heap::live_bytes();
        heap::reset_peak();
        let c = self.w.call(rung, i, &self.cfgs[rung.index()]);
        if rung != Rung::Hand {
            let grown = heap::peak_bytes().saturating_sub(before);
            let t = &self.tally.transient_peak;
            t.set(t.get().max(grown));
        }
        self.count(c.ok);
        c
    }

    fn count(&self, ok: bool) {
        let t = self.tally;
        t.attempted.set(t.attempted.get() + 1);
        if !ok {
            t.failed.set(t.failed.get() + 1);
        }
    }

    fn parn_cfg(&self) -> &ExecConfig {
        &self.cfgs[Rung::ParN.index()]
    }
}

/// Sets up `opts.setups()` times, timing each, and keeps the last.
/// Each earlier set-up is dropped (its pools joined) before the next
/// starts, so only one copy of the inputs is ever live.
pub fn set_up_repeated<'t>(
    opts: &Options,
    nproc: usize,
    tally: &'t Tally,
) -> Option<(Bench<'t>, Vec<f64>)> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..opts.setups() {
        drop(last.take());
        let start = Instant::now();
        let b = Bench::set_up(opts, nproc, tally)?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(b);
    }
    last.map(|b| (b, secs))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ratio that reads 0 instead of NaN or infinity on a zero base.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Pool counters summed over par@N slots.
#[derive(Default)]
struct PoolDelta {
    calls: u64,
    executed: u64,
    steals: u64,
    parks: u64,
    joins: u64,
    joins_stolen: u64,
}

impl PoolDelta {
    fn add(&mut self, d: MetricsSnapshot, calls: u64) {
        self.calls += calls;
        self.executed += d.executed;
        self.steals += d.injector_steals + d.peer_steals;
        self.parks += d.parks;
        self.joins += d.joins;
        self.joins_stolen += d.joins_stolen;
    }
}

/// Samples of a ladder run: per rung, per round, call times in ms.
pub struct Rounds {
    by_rung: [Vec<Vec<f64>>; 5],
    parn_pool: PoolDelta,
}

impl Rounds {
    /// Median call time within each round; first quartile across rounds.
    pub fn p50(&self, rung: Rung) -> f64 {
        round_quartile(&self.by_rung[rung.index()], median, Better::Lower)
    }

    /// 90th-percentile call time within each round; first quartile
    /// across rounds.
    pub fn p90(&self, rung: Rung) -> f64 {
        let p90 = |s: &[f64]| percentile(s, 90.0).value;
        round_quartile(&self.by_rung[rung.index()], p90, Better::Lower)
    }

    /// p90 ÷ p50 of the rung's calls within each round; first quartile
    /// across rounds. A ratio of two times taken moments apart, so it
    /// keeps the tail's shape and drops the host's speed.
    pub fn tail(&self, rung: Rung) -> f64 {
        let tail = |s: &[f64]| ratio(percentile(s, 90.0).value, median(s));
        round_quartile(&self.by_rung[rung.index()], tail, Better::Lower)
    }

    /// Calls made on `rung`.
    pub fn calls(&self, rung: Rung) -> usize {
        self.by_rung[rung.index()].iter().map(Vec::len).sum()
    }

    /// Fewest calls `rung` made in one round.
    pub fn min_round_calls(&self, rung: Rung) -> usize {
        self.by_rung[rung.index()]
            .iter()
            .map(Vec::len)
            .min()
            .unwrap_or(0)
    }
}

/// Runs whole call cycles of `rung` until `budget` has passed (and at
/// least `min_cycles` cycles ran), passing each call to `each`.
fn slot(
    b: &Bench,
    budget: Duration,
    min_cycles: usize,
    mut each: impl FnMut(usize) -> Call,
) -> Vec<Call> {
    let start = Instant::now();
    let mut calls = Vec::new();
    let mut cycles = 0;
    while cycles < min_cycles || start.elapsed() < budget {
        for i in 0..b.w.calls_per_cycle() {
            calls.push(each(i));
        }
        cycles += 1;
    }
    calls
}

/// The ladder: `rounds` rounds, each running every `(rung, share)` of
/// `plan` for `share` of the round's budget, in an order that rotates
/// by one slot per round.
pub fn run_rounds(
    b: &Bench,
    plan: &[(Rung, f64)],
    rounds: usize,
    budget: Duration,
    mut spans: Option<&mut Spans>,
) -> Rounds {
    let mut by_rung: [Vec<Vec<f64>>; 5] = Default::default();
    let mut parn_pool = PoolDelta::default();
    for r in 0..rounds {
        for k in 0..plan.len() {
            let (rung, share) = plan[(r + k) % plan.len()];
            let slot_budget = budget.mul_f64(share / rounds as f64);
            let before = b.parn.metrics();
            let t0 = Instant::now();
            let calls = slot(b, slot_budget, MIN_CYCLES, |i| b.call(rung, i));
            let t1 = Instant::now();
            if rung == Rung::ParN {
                parn_pool.add(b.parn.metrics().since(&before), calls.len() as u64);
            }
            if let Some(spans) = spans.as_deref_mut() {
                let id = spans.reserve();
                for c in &calls {
                    spans.call(id, ("terminal", rung.name()), c.start, c.start + c.elapsed);
                }
                spans.record(id, 0, ("slot", rung.name()), t0, t1);
            }
            by_rung[rung.index()].push(calls.iter().map(|c| ms(c.elapsed)).collect());
        }
    }
    Rounds { by_rung, parn_pool }
}

/// The untraced ladder: shares of the budget per rung. par@N gets the
/// most, as the headline rung and the source of the tail ratio; the
/// hand rung is the denominator of both `_over_hand` metrics.
const E2E_PLAN: [(Rung, f64); 4] = [
    (Rung::Hand, 0.15),
    (Rung::Seq, 0.25),
    (Rung::Par1, 0.15),
    (Rung::ParN, 0.45),
];

/// The traced run's ladder adds the twin rung.
const TRACE_PLAN: [(Rung, f64); 5] = [
    (Rung::Hand, 0.15),
    (Rung::Seq, 0.20),
    (Rung::Par1, 0.20),
    (Rung::ParN, 0.25),
    (Rung::Twin, 0.20),
];

/// Results of the end-to-end run.
pub struct EndToEndRun {
    /// `(metric, value)` for every end-to-end metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// The ladder behind them.
    pub rounds: Rounds,
}

/// The end-to-end run: the ladder with tracing off, plus set-up time
/// and the peak heap a library call holds: its input plus the most any
/// one call (set-up warm-ups included) grew the heap.
///
/// Call times are reported in units of the hand rung's time, measured
/// in the same rounds. The hand loop never calls the library, so a
/// change to the library moves only the numerator, while the host's
/// speed, which drifts by 10–20% over minutes on a shared machine,
/// cancels out.
pub fn end_to_end(b: &Bench, opts: &Options, setup_secs: &[f64]) -> EndToEndRun {
    let budget = Duration::from_secs_f64(opts.seconds);
    let rounds = run_rounds(b, &E2E_PLAN, opts.rounds(), budget, None);
    let peak = b.w.input_bytes() + b.tally.transient_peak.get();
    let peak_mib = peak as f64 / (1u64 << 20) as f64;
    let hand = rounds.p50(Rung::Hand);
    let metrics = vec![
        ("setup_s", better_quartile(setup_secs, Better::Lower)),
        ("par_over_hand", ratio(rounds.p50(Rung::ParN), hand)),
        ("par_p90_over_p50", rounds.tail(Rung::ParN)),
        ("seq_over_hand", ratio(rounds.p50(Rung::Seq), hand)),
        ("peak_heap_mib", peak_mib),
    ];
    EndToEndRun { metrics, rounds }
}

/// `RunReport` counts summed over recorded par@N calls.
#[derive(Default)]
struct Counts {
    calls: u64,
    leaves: u64,
    leaves_max: u64,
    placement_leaves: u64,
    combines: u64,
    combines_placement: u64,
    leaf_ns: u64,
    descend_ns: u64,
    ascend_ns: u64,
    leaves_pruned: u64,
    found_cancels: u64,
    cancels: u64,
    fallbacks: u64,
    lock_acquisitions: u64,
    lock_contended: u64,
    hit_calls_leaves: u64,
    hit_useful_items: u64,
}

impl Counts {
    fn add(&mut self, r: &RunReport, useful: Option<u64>) {
        let leaves = r.routes.total_leaves();
        self.calls += 1;
        self.leaves += leaves;
        self.leaves_max = self.leaves_max.max(leaves);
        self.placement_leaves += r.routes.placement.leaves;
        self.combines += r.combines;
        self.combines_placement += r.combines_placement;
        self.leaf_ns += r.leaf_ns;
        self.descend_ns += r.descend_ns;
        self.ascend_ns += r.ascend_ns;
        self.leaves_pruned += r.leaves_pruned;
        self.found_cancels += r.cancels_found;
        self.cancels += r.cancels();
        self.fallbacks += r.fallbacks();
        self.lock_acquisitions += r.lock_acquisitions;
        self.lock_contended += r.lock_contended;
        if let Some(u) = useful {
            self.hit_calls_leaves += leaves;
            self.hit_useful_items += u;
        }
    }

    fn per_call(&self, x: u64) -> f64 {
        ratio(x as f64, self.calls as f64)
    }

    fn phase_share(&self, x: u64) -> f64 {
        ratio(
            x as f64,
            (self.leaf_ns + self.descend_ns + self.ascend_ns) as f64,
        )
    }
}

/// Runs `f` until `budget` has passed and at least `min_reps` times,
/// with one span per repetition under one probe span; returns `f`'s
/// values.
fn probe<T>(
    spans: &mut Spans,
    name: &'static str,
    budget: Duration,
    min_reps: usize,
    mut f: impl FnMut() -> T,
) -> Vec<T> {
    let id = spans.reserve();
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        values.push(f());
        spans.call(id, ("probe", name), t, Instant::now());
    }
    spans.record(id, 0, ("probe", name), start, Instant::now());
    values
}

/// Read bandwidth of a plain `threads`-thread sum over `buf`, repeated
/// so each measurement reads at least 64 MiB; GB/s.
fn read_gbps(buf: &[u64], threads: usize) -> f64 {
    let bytes = std::mem::size_of_val(buf);
    let passes = ((64usize << 20) / bytes.max(1)).max(1);
    let chunk = buf.len().div_ceil(threads);
    let start = Instant::now();
    let total = std::thread::scope(|s| {
        let readers: Vec<_> = buf
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut acc = 0u64;
                    for _ in 0..passes {
                        acc = black_box(part).iter().fold(acc, |a, &x| a.wrapping_add(x));
                    }
                    acc
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .fold(0u64, u64::wrapping_add)
    });
    black_box(total);
    ratio((bytes * passes) as f64, start.elapsed().as_nanos() as f64)
}

/// The traced run: a shorter ladder (with the twin rung), recorded
/// par@N calls alternating with untraced ones, and one probe per layer.
/// Returns every per-layer metric and the span log.
pub fn traced(b: &Bench, opts: &Options) -> (Vec<(&'static str, f64)>, Spans) {
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut spans = Spans::default();
    let n = b.w.n();
    let r = run_rounds(
        b,
        &TRACE_PLAN,
        opts.rounds(),
        budget.mul_f64(0.5),
        Some(&mut spans),
    );

    // Recorded par@N calls — one RunReport per call — alternating with
    // untraced batches, for the counts and the tracing overhead.
    let alternations = if opts.smoke { 1 } else { 4 };
    let half = budget.mul_f64(0.2 / (2 * alternations) as f64);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut counts = Counts::default();
    for _ in 0..alternations {
        let id = spans.reserve();
        let t0 = Instant::now();
        for c in slot(b, half, 1, |i| b.call(Rung::ParN, i)) {
            untraced.push(ms(c.elapsed));
            spans.call(id, ("terminal", "parn"), c.start, c.start + c.elapsed);
        }
        spans.record(id, 0, ("batch", "untraced"), t0, Instant::now());
        let id = spans.reserve();
        let t0 = Instant::now();
        let recorded = slot(b, half, 1, |i| {
            let (c, report) = plobs::recorded(|| b.call(Rung::ParN, i));
            counts.add(&report, b.w.useful_items(i));
            c
        });
        for c in recorded {
            traced.push(ms(c.elapsed));
            spans.call(
                id,
                ("terminal", "parn.recorded"),
                c.start,
                c.start + c.elapsed,
            );
        }
        spans.record(id, 0, ("batch", "recorded"), t0, Instant::now());
    }

    // Probes run on the leaf geometry the recorded calls showed.
    let depth = counts.leaves_max.max(1).ilog2();
    let probe_budget = budget.mul_f64(0.3);
    let share = |s: f64| probe_budget.mul_f64(s);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let install_us = median(&probe(
        &mut spans,
        "forkjoin.install",
        share(0.10),
        20,
        || {
            let t = Instant::now();
            b.parn.install(|| ());
            us(t.elapsed())
        },
    ));
    let split_us = median(&probe(
        &mut spans,
        "spliterator.split",
        share(0.10),
        5,
        || us(b.w.split_probe(depth)),
    ));
    let leaf_runs = probe(&mut spans, "leaf.kernel", share(0.25), 5, || {
        b.w.leaf_probe(depth)
    });
    let per_run = |f: &dyn Fn(f64, &crate::workload::LeafRun) -> f64| -> f64 {
        let values: Vec<f64> = leaf_runs
            .iter()
            .map(|run| f(run.elapsed.as_nanos() as f64, run))
            .collect();
        median(&values)
    };
    let ns_per_elem = per_run(&|ns, run| ratio(ns, run.elems as f64));
    let computed_gbps = per_run(&|ns, run| ratio(run.computed_bytes as f64, ns));
    let combine_us = median(&probe(
        &mut spans,
        "collect.combine",
        share(0.10),
        5,
        || b.w.combine_probe(depth),
    ));
    let buf: Vec<u64> = (0..n as u64).collect();
    let read = median(&probe(&mut spans, "mem.read", share(0.20), 3, || {
        read_gbps(&buf, b.nproc)
    }));
    drop(buf);
    let absent_ms = median(&probe(&mut spans, "search.absent", share(0.25), 5, || {
        let c = b.w.absent_search(b.parn_cfg());
        b.count(c.ok);
        ms(c.elapsed)
    }));

    let (hand, seq, par1, parn, twin) = (
        r.p50(Rung::Hand),
        r.p50(Rung::Seq),
        r.p50(Rung::Par1),
        r.p50(Rung::ParN),
        r.p50(Rung::Twin),
    );
    let pool = &r.parn_pool;
    let pool_per_call = |x: u64| ratio(x as f64, pool.calls as f64);
    let leaf_len = ratio(n as f64, counts.leaves_max as f64);
    let metrics = vec![
        ("ladder.hand_ms_p50", hand),
        ("ladder.seq_ms_p50", seq),
        ("ladder.par1_ms_p50", par1),
        ("ladder.parn_ms_p50", parn),
        ("ladder.parn_ms_p90", r.p90(Rung::ParN)),
        ("ladder.stream_overhead_ms", seq - hand),
        ("ladder.driver_overhead_ms", par1 - seq),
        ("ladder.scaling_eff", ratio(par1, b.nproc as f64 * parn)),
        ("ladder.speedup", ratio(seq, parn)),
        ("ladder.twin_ms_p50", twin),
        ("ladder.parn_over_twin", ratio(parn, twin)),
        (
            "placement.leaf_frac",
            ratio(counts.placement_leaves as f64, counts.leaves as f64),
        ),
        (
            "placement.splice_combines_per_call",
            counts.per_call(counts.combines - counts.combines_placement),
        ),
        ("forkjoin.install_us_p50", install_us),
        ("forkjoin.executed_per_call", pool_per_call(pool.executed)),
        ("forkjoin.steals_per_call", pool_per_call(pool.steals)),
        ("forkjoin.parks_per_call", pool_per_call(pool.parks)),
        (
            "forkjoin.joins_stolen_frac",
            ratio(pool.joins_stolen as f64, pool.joins as f64),
        ),
        ("spliterator.split_us", split_us),
        (
            "spliterator.leaves_per_call",
            counts.per_call(counts.leaves),
        ),
        ("leaf.ns_per_elem", ns_per_elem),
        ("leaf.computed_gbps", computed_gbps),
        ("mem.read_gbps", read),
        ("leaf.bw_frac", ratio(computed_gbps * b.nproc as f64, read)),
        ("collect.leaf_share", counts.phase_share(counts.leaf_ns)),
        (
            "collect.descend_share",
            counts.phase_share(counts.descend_ns),
        ),
        ("collect.ascend_share", counts.phase_share(counts.ascend_ns)),
        ("collect.combine_us", combine_us),
        (
            "search.leaves_pruned_per_call",
            counts.per_call(counts.leaves_pruned),
        ),
        (
            "search.found_cancels_per_call",
            counts.per_call(counts.found_cancels),
        ),
        (
            "search.items_per_hit",
            ratio(
                counts.hit_calls_leaves as f64 * leaf_len,
                counts.hit_useful_items as f64,
            ),
        ),
        ("search.absent_ms_p50", absent_ms),
        (
            "shared.contention_ratio",
            ratio(
                counts.lock_contended as f64,
                counts.lock_acquisitions as f64,
            ),
        ),
        ("exec.fallbacks_per_call", counts.per_call(counts.fallbacks)),
        ("exec.cancels_per_call", counts.per_call(counts.cancels)),
        (
            "plobs.trace_overhead",
            ratio(median(&traced), median(&untraced)),
        ),
    ];
    (metrics, spans)
}

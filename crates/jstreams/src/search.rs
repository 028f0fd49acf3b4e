//! Short-circuiting search terminals: the quantifier half of Java's
//! Stream API (`anyMatch` / `allMatch` / `noneMatch` / `findFirst` /
//! `findAny`), executed by a driver that prunes the fork-join tree
//! instead of draining it.
//!
//! The driver reuses the collect machinery wholesale — the split-tree
//! walker ([`crate::walk`]) with its split policies, the tuner's plan
//! cache, pool fallbacks, and the fused-borrow leaf protocol
//! (predicates run push-style over *borrowed* source runs, so a
//! `map`/`filter` chain is searched without materializing it) — but
//! replaces the combine phase with shared search state
//! ([`walk::Combine::Skip`]) and adds two short-circuit mechanisms:
//!
//! * **`Found` cancellation** — when a leaf records a decisive hit
//!   (`any_match`, `find_any`), it first publishes the hit to the shared
//!   sink and *then* trips the run's internal
//!   [`CancelToken`] with [`CancelReason::Found`]; every sibling subtree
//!   observes the trip at its next split/leaf checkpoint and returns
//!   without scanning (one [`Event::EarlyExit`] per pruned subtree
//!   root). Record-before-cancel is the invariant that makes the
//!   short-circuit lossless: any task that observes `Found` can rely on
//!   the sink already holding an answer.
//! * **Encounter-order pruning** (`find_first`) — a hit is never
//!   decisive (a left-er subtree may still hold an earlier one), so
//!   instead of cancelling, leaves record hits into a [`FirstHit`] cell
//!   carrying a shared atomic "best prefix index"; a subtree whose base
//!   encounter index is at or past the recorded best abandons itself at
//!   its node-entry checkpoint.
//!
//! The indices compared come from one of two keyspaces, fixed once per
//! run (the private `OrderMode`):
//!
//! * **Ranked** — when the root source publishes exact encounter ranks
//!   ([`Spliterator::encounter_rank`]: descriptor-backed sources report
//!   physical storage indices, monotone in encounter order), every hit
//!   is keyed by its true rank and every subtree prunes against its own
//!   rank base. This is the only sound keyspace over sources whose
//!   splits *interleave* (zip decomposition: the split-off "prefix" is
//!   the even positions, not an encounter-order prefix), and it is what
//!   keeps `find_first` deterministic — and parallel — over
//!   zip-decomposed power streams (the same protocol as the JPLF
//!   mirror's physical-index `FirstHit`).
//! * **Virtual** — otherwise, indices are derived from split structure:
//!   at every split, the suffix subtree's base advances by the prefix's
//!   `estimate_size()`. For non-SIZED pipelines (filter chains) that
//!   estimate is an upper bound, so leaf survivor ranges stay disjoint
//!   and ordered — virtual indices increase strictly with encounter
//!   order, which is all the pruning comparison needs. This is only
//!   sound when `try_split` cuts true prefixes
//!   ([`Spliterator::prefix_splits`]); a rank-less source that also
//!   interleaves (a filter chain over a zip decomposition) sends
//!   `find_first` down a guarded sequential scan instead.
//!
//! In either keyspace, pruning at `bound ≤ base` can never lose the
//! minimal hit: every index in the pruned subtree is ≥ its base ≥ an
//! already-recorded hit.
//!
//! A search run executes on a **private** token
//! ([`SearchSession`]): `Found` (and panic containment) must never trip
//! a caller-held token that outlives the run. The caller's token is
//! still observed at every checkpoint, so external cancellation and
//! deadlines behave exactly as in `try_collect`.
//!
//! Before engaging the pool, the parallel driver scans a short root
//! prefix of SIZED sources inline on the calling thread
//! (`ROOT_PROBE` elements): a
//! front-loaded hit — the case short-circuiting exists for — then
//! answers without paying a single pool round-trip, and since the
//! prefix is first in encounter order, a probe hit is globally first
//! and decisive for every terminal, `find_first` included.

use crate::exec::{ExecConfig, ExecError, ExecMode, ExecSession, Interrupt};
use crate::spliterator::Spliterator;
use crate::walk::{self, Combine, Terminal};
use forkjoin::{CancelReason, CancelToken};
use parking_lot::Mutex;
use plobs::{Event, LeafRoute};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A search run's cancellation context: a fresh private token (the
/// `Found` short-circuit channel, also used for panic containment)
/// layered over the caller's optional token — observed at every
/// checkpoint, never tripped by the search itself.
///
/// Exposed so the JPLF executors (and concurrency models) can drive
/// their own search recursions through the exact protocol the streams
/// driver uses.
#[derive(Clone, Debug)]
pub struct SearchSession {
    inner: ExecSession,
    caller: Option<CancelToken>,
}

impl SearchSession {
    /// Arms a session from `cfg`: a private token plus `cfg`'s deadline;
    /// `cfg`'s own cancel token is kept aside for observation only.
    pub fn new(cfg: &ExecConfig) -> Self {
        SearchSession {
            inner: ExecSession::private(cfg),
            caller: cfg.cancel_token().cloned(),
        }
    }

    /// The run's private token (what `Found` trips).
    pub fn token(&self) -> &CancelToken {
        self.inner.token()
    }

    /// Publishes a decisive hit: trips the private token with
    /// [`CancelReason::Found`]. Callers must have recorded the hit in
    /// shared state *before* calling this (record-before-cancel).
    /// Returns `true` when this call won the trip.
    pub fn found(&self) -> bool {
        self.token().cancel(CancelReason::Found)
    }

    /// A cooperative checkpoint. `Ok(false)` — keep going. `Ok(true)` —
    /// the run short-circuited via `Found`: the subtree should count
    /// itself pruned and return *success* (the answer is already in the
    /// shared sink). `Err` — a real interruption (panic, caller cancel,
    /// deadline) that must propagate to the root.
    pub fn check(&self) -> Result<bool, Interrupt> {
        if let Some(t) = &self.caller {
            if let Some(r) = t.reason() {
                // Propagate the caller's cancellation into the private
                // token once, so sibling tasks observe it without
                // re-reading the caller's token (first-cancel-wins keeps
                // an earlier Found from being overwritten). A caller
                // token carrying `Found` (reused from some earlier
                // search) is demoted to `User`: only *this* run's leaves
                // may claim the answered state, and a foreign `Found`
                // has no hit in this run's sink to back it.
                let r = match r {
                    CancelReason::Found => CancelReason::User,
                    other => other,
                };
                self.token().cancel(r);
            }
        }
        match self.inner.check() {
            Ok(()) => Ok(false),
            Err(Interrupt::Cancelled(CancelReason::Found)) => Ok(true),
            Err(i) => Err(i),
        }
    }

    /// Runs user code (predicates) under panic containment; see
    /// [`ExecSession::run`].
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt> {
        self.inner.run(f)
    }

    /// Converts a root-level interrupt into the public error. `Found`
    /// never reaches here: checkpoints convert it to success.
    pub fn error_of(&self, interrupt: Interrupt) -> ExecError {
        self.inner.error_of(interrupt)
    }
}

/// Which keyspace a search run's encounter indices live in. Fixed once
/// at the root before the recursion starts, so every hit and every
/// pruning comparison in one run speaks the same language.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OrderMode {
    /// Indices are derived from split structure: each suffix subtree's
    /// base advances by the prefix's size estimate. Sound only over
    /// sources whose `try_split` cuts true encounter-order prefixes
    /// ([`Spliterator::prefix_splits`]).
    Virtual,
    /// Indices are the source's own exact encounter ranks
    /// ([`Spliterator::encounter_rank`]): each node prunes against its
    /// own rank base and each leaf keys hits at `base + j·step`. Sound
    /// under arbitrary split geometry, including zip's interleaving
    /// parity splits.
    Ranked,
}

/// The leaf hit-key lattice for `mode`: the leaf's j-th delivered
/// element is keyed `base + j·step`.
///
/// In `Ranked` mode the source *must* still carry a rank — rank-ness is
/// preserved under `try_split` by contract, and the mode was chosen at
/// the root because the root had one. The release fallback `(0, 1)`
/// merely under-keys hits (debug builds assert instead).
fn leaf_keys<T, S: Spliterator<T>>(source: &S, mode: OrderMode, base: usize) -> (usize, usize) {
    match mode {
        OrderMode::Virtual => (base, 1),
        OrderMode::Ranked => {
            let rank = source.encounter_rank();
            debug_assert!(
                rank.is_some(),
                "Ranked search reached a rank-less node: encounter_rank \
                 must be preserved under try_split"
            );
            rank.unwrap_or((0, 1))
        }
    }
}

/// The `find_first` protocol cell: the best (lowest encounter index)
/// hit so far, plus an atomic copy of its index that subtrees read to
/// decide pruning.
///
/// The mutex-guarded slot is the source of truth — `offer` only
/// improves it, and the atomic bound is updated inside the critical
/// section, so the bound is monotonically decreasing and never lower
/// than a real recorded hit. A stale (too high) bound read merely
/// fails to prune; it can never prune a subtree that could still win.
#[derive(Debug, Default)]
pub struct FirstHit<T> {
    best: AtomicUsize,
    slot: Mutex<Option<(usize, T)>>,
}

impl<T> FirstHit<T> {
    /// An empty cell (bound = `usize::MAX`).
    pub fn new() -> Self {
        FirstHit {
            best: AtomicUsize::new(usize::MAX),
            slot: Mutex::new(None),
        }
    }

    /// Offers a hit at encounter index `idx`; keeps it only when it is
    /// strictly earlier than the current record. Returns `true` when
    /// the record improved.
    pub fn offer(&self, idx: usize, value: T) -> bool {
        let mut slot = self.slot.lock();
        let improves = slot.as_ref().is_none_or(|(best, _)| idx < *best);
        if improves {
            *slot = Some((idx, value));
            self.best.store(idx, Ordering::Release);
        }
        improves
    }

    /// The recorded best index (`usize::MAX` while empty). An upper
    /// bound on the final answer's index.
    pub fn bound(&self) -> usize {
        self.best.load(Ordering::Acquire)
    }

    /// `true` when a subtree whose encounter indices are all ≥ `base`
    /// cannot improve the record and may be abandoned.
    pub fn prunes(&self, base: usize) -> bool {
        self.bound() <= base
    }

    /// Takes the recorded `(index, value)` pair, emptying the cell.
    pub fn take(&self) -> Option<(usize, T)> {
        self.slot.lock().take()
    }

    /// The recorded `(index, value)` pair, cloned.
    pub fn get(&self) -> Option<(usize, T)>
    where
        T: Clone,
    {
        self.slot.lock().clone()
    }
}

/// Where leaf hits go. One implementation per quantifier family; the
/// recursion is generic over it so all five terminals share one driver.
trait SearchSink<T>: Send + Sync + 'static {
    /// Records a hit on `value` at encounter index `idx` (virtual or
    /// ranked, per the run's [`OrderMode`]). Returns `true` when the
    /// hit is decisive and the whole run should short-circuit via
    /// `Found`.
    fn hit(&self, idx: usize, value: &T) -> bool;

    /// Encounter-order pruning bound: subtrees whose base index is ≥
    /// this may be abandoned. `usize::MAX` disables pruning (the
    /// default for first-hit-wins sinks).
    fn bound(&self) -> usize {
        usize::MAX
    }
}

/// Existence sink (`any_match` / `all_match` / `none_match`): one
/// decisive bit, no element is retained (so `T: Clone` is not needed).
#[derive(Default)]
struct ExistsSink {
    found: AtomicBool,
}

impl<T> SearchSink<T> for ExistsSink {
    fn hit(&self, _idx: usize, _value: &T) -> bool {
        self.found.store(true, Ordering::Release);
        true
    }
}

/// First-hit-wins sink (`find_any`): keeps the first recorded element,
/// decisively.
struct AnySink<T> {
    slot: Mutex<Option<T>>,
}

impl<T: Clone + Send + 'static> SearchSink<T> for AnySink<T> {
    fn hit(&self, _idx: usize, value: &T) -> bool {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(value.clone());
        }
        true
    }
}

/// Encounter-order sink (`find_first`): hits are never decisive (an
/// earlier one may still turn up to the left); pruning comes from the
/// shared bound instead.
struct FirstSink<T> {
    hit: FirstHit<T>,
}

impl<T: Clone + Send + 'static> SearchSink<T> for FirstSink<T> {
    fn hit(&self, idx: usize, value: &T) -> bool {
        self.hit.offer(idx, value.clone());
        false
    }

    fn bound(&self) -> usize {
        self.hit.bound()
    }
}

/// Chunk width of the zero-copy scan: predicates are evaluated over a
/// whole chunk branch-free (so simple predicates autovectorise like a
/// reduce leaf does) before the stop test runs; a positive chunk is
/// rescanned scalar to pin the exact first hit. The overrun is at most
/// one chunk — well inside the search terminals' "stops at the next
/// checkpoint" contract. 256 keeps the stop-test branch off the hot
/// path (measured within ~1.1× of a plain reduce fold on an absent
/// needle) while bounding the overrun to a few cache lines.
const SCAN_CHUNK: usize = 256;

/// Scans a contiguous run, returning `(elements_scanned, first_hit)`.
/// The predicate may be invoked on up to `SCAN_CHUNK - 1` elements past
/// the first hit, and twice on elements of the hit's chunk — search
/// predicates must be pure (Java imposes the same statelessness rule).
fn scan_run<T, P: Fn(&T) -> bool>(items: &[T], pred: &P) -> (u64, Option<usize>) {
    let mut done = 0usize;
    for chunk in items.chunks(SCAN_CHUNK) {
        let mut any = false;
        for x in chunk {
            any |= pred(x);
        }
        if any {
            let off = chunk.iter().position(pred).expect("chunk reported a hit");
            return ((done + off + 1) as u64, Some(done + off));
        }
        done += chunk.len();
    }
    (done as u64, None)
}

/// One search leaf: scans the remaining elements in encounter order,
/// stopping at the first predicate match; the hit is recorded in the
/// sink at its encounter key (`keys.0 + delivered-position · keys.1`, so
/// virtual keys pass `(base, 1)` and ranked leaves pass their
/// `(rank_base, rank_step)`) and, when decisive, trips `Found` on
/// `token` — strictly *after* the sink recorded it. Callers run it under
/// panic containment.
///
/// Route selection mirrors [`crate::collect::run_leaf`]: a borrowed
/// contiguous run takes the chunked [`scan_run`] (the predicate sees
/// `&T`, no clones, vectorisable); a strided borrow scans scalar over
/// the residue class; a fused adapter pipeline drives its chain
/// push-style over the *underlying* source's borrow
/// ([`crate::spliterator::LeafAccess::fused_search`]); everything else
/// takes the per-element cloning drain. Observed runs emit one
/// [`Event::Leaf`] counting the elements actually delivered to the
/// predicate (survivors, for filtering chains).
fn search_leaf<T, S, P, K>(
    source: &mut S,
    pred: &P,
    sink: &K,
    keys: (usize, usize),
    token: &CancelToken,
) where
    S: Spliterator<T>,
    P: Fn(&T) -> bool,
    K: SearchSink<T> + ?Sized,
{
    let (key_base, key_step) = keys;
    let start = plobs::enabled().then(Instant::now);
    // Record-before-cancel: the sink holds the hit before any sibling
    // can observe the Found trip. Within a leaf the first match is the
    // leaf's earliest delivered element, so every sink stops the scan
    // there.
    let record = |local: usize, x: &T| {
        let key = key_base.saturating_add(local.saturating_mul(key_step));
        if sink.hit(key, x) {
            token.cancel(CancelReason::Found);
        }
    };
    let (route, items) = if let Some((items, step)) = source.try_as_strided() {
        let (scanned, hit) = if step == 1 {
            scan_run(items, pred)
        } else {
            // Strided residue class (zip leaves): scalar early-exit
            // scan — these runs are short by construction.
            let mut scanned = 0u64;
            let mut hit = None;
            for (j, x) in items.iter().step_by(step).enumerate() {
                scanned += 1;
                if pred(x) {
                    hit = Some(j);
                    break;
                }
            }
            (scanned, hit)
        };
        match hit {
            Some(local) => record(local, &items[local * step]),
            None => source.mark_drained(),
        }
        (LeafRoute::ZeroCopy, scanned)
    } else {
        let mut delivered = 0usize;
        // fused_search leaves a fully-scanned source drained itself.
        let fused = source.fused_search(&mut |x| {
            let local = delivered;
            delivered += 1;
            if pred(x) {
                record(local, x);
                true
            } else {
                false
            }
        });
        if fused.is_some() {
            (LeafRoute::FusedBorrow, delivered as u64)
        } else {
            // Cloning drain: advance one element at a time so a hit
            // stops the scan with at most one element of overrun.
            let mut stopped = false;
            loop {
                let more = source.try_advance(&mut |x| {
                    let local = delivered;
                    delivered += 1;
                    if !stopped && pred(&x) {
                        record(local, &x);
                        stopped = true;
                    }
                });
                if stopped || !more {
                    break;
                }
            }
            (LeafRoute::CloningDrain, delivered as u64)
        }
    };
    if let Some(start) = start {
        plobs::emit(Event::Leaf {
            route,
            items,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
}

/// Elements the parallel driver scans *inline on the calling thread*
/// before engaging the pool. Submitting to an external pool costs two
/// context switches (inject + latch wake) — several microseconds that
/// dominate a front-loaded hit, the best case short-circuiting exists
/// for. A prefix probe answers those hits at memory speed; a miss costs
/// one cloning pass over this many elements, noise against any input
/// large enough to deserve the pool.
const ROOT_PROBE: usize = 1024;

/// What [`probe_root`] concluded.
enum Probe {
    /// The search is over: the prefix hit (recorded in the sink), the
    /// source ran out inside the prefix, or a checkpoint pruned it.
    Answered,
    /// The prefix missed; this many elements were consumed, so the
    /// parallel phase continues from that encounter-order base.
    Miss(usize),
}

/// Scans the first [`ROOT_PROBE`] delivered elements inline. The prefix
/// precedes everything in encounter order, so a probe hit is globally
/// first — decisive for *every* sink, `find_first` included, and the
/// whole un-scanned remainder is pruned (recorded as one `Found`
/// cancellation plus one `EarlyExit`, the driver standing in for the
/// node checkpoints that never got to observe the trip).
///
/// Only SIZED sources are probed (the caller checks `exact_size()`):
/// there `try_advance` delivers exactly one element per call, so the
/// delivered count bounds the work. On a filtering chain a single
/// `try_advance` may scan the *entire* underlying source hunting for
/// one survivor — an absent needle would be drained element-by-element
/// on the calling thread instead of by the parallel kernels.
fn probe_root<T, S, P, K>(
    source: &mut S,
    pred: &P,
    sink: &K,
    session: &SearchSession,
) -> Result<Probe, Interrupt>
where
    S: Spliterator<T>,
    P: Fn(&T) -> bool,
    K: SearchSink<T> + ?Sized,
{
    // Honour a caller token that tripped before the search even began.
    if session.check()? {
        plobs::emit(Event::EarlyExit { leaves_pruned: 1 });
        return Ok(Probe::Answered);
    }
    let token = session.token().clone();
    let observe = plobs::enabled();
    let start = if observe { Some(Instant::now()) } else { None };
    let mut delivered = 0usize;
    let mut hit = false;
    let mut more = true;
    session.run(|| {
        while more && !hit && delivered < ROOT_PROBE {
            more = source.try_advance(&mut |x| {
                let local = delivered;
                delivered += 1;
                if !hit && pred(&x) {
                    sink.hit(local, &x);
                    token.cancel(CancelReason::Found);
                    hit = true;
                }
            });
        }
    })?;
    if let Some(start) = start {
        plobs::emit(Event::Leaf {
            route: LeafRoute::CloningDrain,
            items: delivered as u64,
            ns: start.elapsed().as_nanos() as u64,
        });
    }
    if hit {
        plobs::emit(Event::Cancel {
            reason: CancelReason::Found,
        });
        plobs::emit(Event::EarlyExit { leaves_pruned: 1 });
    }
    if hit || !more {
        Ok(Probe::Answered)
    } else {
        Ok(Probe::Miss(delivered))
    }
}

/// The guarded sequential route: one checkpoint, then the whole source
/// as a single contained leaf. Also the degradation target when the
/// parallel route's pool is unavailable or saturated, and the
/// ordered-terminal escape hatch for *opaque* sources (no encounter rank
/// AND interleaving splits — e.g. a filter chain over a zip
/// decomposition), where neither keyspace can order parallel hits but a
/// single `try_advance` drain is encounter order by definition.
fn search_leaf_all<T, S, P, K>(
    source: &mut S,
    pred: &P,
    sink: &K,
    session: &SearchSession,
) -> Result<(), Interrupt>
where
    S: Spliterator<T>,
    P: Fn(&T) -> bool,
    K: SearchSink<T> + ?Sized,
{
    if session.check()? {
        plobs::emit(Event::EarlyExit { leaves_pruned: 1 });
        return Ok(());
    }
    // One whole-source leaf: its first delivered match is the global
    // encounter-order first, so the key lattice `(0, 1)` is exact.
    session.run(|| search_leaf(source, pred, sink, (0, 1), session.token()))
}

/// The parallel search's subtree protocol for the split-tree walker: a
/// node is a spliterator plus its virtual key base. Node entry observes
/// both the `Found` trip (the walker's checkpoint) and the
/// encounter-order bound ([`Terminal::prune`]); sibling results merge by
/// interrupt priority alone, because the answer lives in the shared
/// sink ([`Combine::Skip`]).
struct SearchWalk<T, S, P, K> {
    pred: P,
    sink: Arc<K>,
    mode: OrderMode,
    session: SearchSession,
    _source: PhantomData<fn(S) -> T>,
}

impl<T, S, P, K> Terminal for SearchWalk<T, S, P, K>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    P: Fn(&T) -> bool + Send + Sync + 'static,
    K: SearchSink<T>,
{
    type Node = (S, usize);
    type Out = ();
    type Cut = ();
    type Session = SearchSession;
    const COMBINE: Combine = Combine::Skip;

    fn session(&self) -> &SearchSession {
        &self.session
    }

    fn exact_size(&self, (source, _): &(S, usize)) -> Option<usize> {
        source.exact_size()
    }

    /// Everything in a subtree sits at encounter key ≥ its key base —
    /// the threaded virtual base, or (Ranked) the node's own rank base,
    /// which each split keeps as the minimum remaining rank. A recorded
    /// hit at or before that base makes the subtree irrelevant. A
    /// rank-less node in Ranked mode (contract violation, asserted in
    /// `leaf_keys`) degrades to base 0, which never wrongly prunes.
    fn prune(&self, (source, base): &(S, usize)) -> bool {
        let prune_base = match self.mode {
            OrderMode::Virtual => *base,
            OrderMode::Ranked => source.encounter_rank().map_or(0, |(b, _)| b),
        };
        self.sink.bound() <= prune_base
    }

    fn pruned(&self) {}

    fn split(
        &self,
        (mut source, base): (S, usize),
    ) -> Result<((S, usize), (S, usize), ()), (S, usize)> {
        let Some(prefix) = source.try_split() else {
            return Err((source, base));
        };
        // Virtual keyspace only: the suffix's base advances by the
        // prefix's estimate — an upper bound on what the prefix can
        // deliver, which keeps virtual indices strictly increasing with
        // encounter order across the whole tree (sound because Virtual
        // mode implies prefix-order splits). Ranked nodes ignore the
        // threaded base and re-derive their own.
        let suffix_base = match self.mode {
            OrderMode::Virtual => base.saturating_add(prefix.estimate_size()),
            OrderMode::Ranked => base,
        };
        Ok(((prefix, base), (source, suffix_base), ()))
    }

    fn leaf(&self, (mut source, base): (S, usize)) {
        let keys = leaf_keys(&source, self.mode, base);
        search_leaf(
            &mut source,
            &self.pred,
            &*self.sink,
            keys,
            self.session.token(),
        );
    }

    fn combine(&self, (): (), (): (), (): ()) {}
}

/// The unified fallible search driver: mode dispatch, pool resolution,
/// saturation/shutdown fallbacks and split-policy precedence exactly as
/// [`crate::collect::try_collect_with`]; `kind` labels the terminal in
/// the tuner's fingerprint so searches and collects over the same
/// source tune independently.
///
/// `ordered` marks the one terminal whose answer depends on encounter
/// order (`find_first`). The order keyspace is fixed here at the root:
/// ranked when the source publishes exact ranks, virtual when its
/// splits cut true prefixes — and when it offers *neither* (opaque: a
/// filter chain over zip's interleaving decomposition), an ordered
/// search degrades to the guarded sequential whole-scan, because no
/// parallel keyspace can rank its hits. Unordered terminals never
/// consult keys decisively, so they keep the parallel route regardless.
fn try_search_with<T, S, P, K>(
    source: S,
    pred: P,
    sink: Arc<K>,
    cfg: &ExecConfig,
    kind: &'static str,
    ordered: bool,
) -> Result<(), ExecError>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    P: Fn(&T) -> bool + Send + Sync + 'static,
    K: SearchSink<T>,
{
    let session = SearchSession::new(cfg);
    let mut source = source;
    let mode = if source.encounter_rank().is_some() {
        OrderMode::Ranked
    } else {
        OrderMode::Virtual
    };
    let opaque = ordered && mode == OrderMode::Virtual && !source.prefix_splits();
    let result = match cfg.mode() {
        // Opaque source + ordered terminal: splitting would interleave
        // encounter order with no ranks to re-sort hits, so correctness
        // wins over parallelism.
        ExecMode::Seq => search_leaf_all(&mut source, &pred, &*sink, &session),
        ExecMode::Par if opaque => search_leaf_all(&mut source, &pred, &*sink, &session),
        ExecMode::Par => {
            let probed = if source.exact_size().is_some() {
                probe_root(&mut source, &pred, &*sink, &session)
            } else {
                // Non-SIZED (filtering) pipelines skip the probe: one
                // try_advance may drain the whole underlying source.
                Ok(Probe::Miss(0))
            };
            match probed {
                Err(i) => Err(i),
                Ok(Probe::Answered) => Ok(()),
                Ok(Probe::Miss(probed)) => {
                    let pool = walk::pool_of(cfg);
                    match walk::fallback_reason(pool, cfg) {
                        Some(reason) => {
                            plobs::emit(Event::Fallback { reason });
                            // Degraded single-leaf scan of the
                            // post-probe remainder.
                            let keys = leaf_keys(&source, mode, probed);
                            session.run(|| {
                                search_leaf(&mut source, &pred, &*sink, keys, session.token())
                            })
                        }
                        None => {
                            let policy = walk::resolve_policy(cfg, pool, &source, kind);
                            let search = SearchWalk {
                                pred,
                                sink,
                                mode,
                                session: session.clone(),
                                _source: PhantomData,
                            };
                            walk::submit(pool, Arc::new(search), (source, probed), policy)
                        }
                    }
                }
            }
        }
    };
    result.map_err(|i| session.error_of(i))
}

/// Fallible `any_match` over a spliterator: `Ok(true)` iff some element
/// satisfies `pred`. Short-circuits the whole tree via `Found` on the
/// first hit.
pub fn try_any_match_with<T, S, P>(source: S, pred: P, cfg: &ExecConfig) -> Result<bool, ExecError>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    P: Fn(&T) -> bool + Send + Sync + 'static,
{
    let sink = Arc::new(ExistsSink::default());
    try_search_with(
        source,
        pred,
        Arc::clone(&sink),
        cfg,
        "jstreams::search::any_match",
        false,
    )?;
    Ok(sink.found.load(Ordering::Acquire))
}

/// Fallible `all_match`: `Ok(true)` iff every element satisfies `pred`
/// (vacuously true on an empty source). Runs the existence driver on
/// the negated predicate, so one counterexample short-circuits.
pub fn try_all_match_with<T, S, P>(source: S, pred: P, cfg: &ExecConfig) -> Result<bool, ExecError>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    P: Fn(&T) -> bool + Send + Sync + 'static,
{
    try_any_match_with(source, move |x: &T| !pred(x), cfg).map(|any_fails| !any_fails)
}

/// Fallible `none_match`: `Ok(true)` iff no element satisfies `pred`.
pub fn try_none_match_with<T, S, P>(source: S, pred: P, cfg: &ExecConfig) -> Result<bool, ExecError>
where
    T: Send + 'static,
    S: Spliterator<T> + 'static,
    P: Fn(&T) -> bool + Send + Sync + 'static,
{
    try_any_match_with(source, pred, cfg).map(|any| !any)
}

/// Fallible `find_any`: some element of the pipeline, first-hit-wins
/// across leaves (nondeterministic under parallel execution, like
/// Java's `findAny`). `Ok(None)` on an empty pipeline.
pub fn try_find_any_with<T, S>(source: S, cfg: &ExecConfig) -> Result<Option<T>, ExecError>
where
    T: Clone + Send + 'static,
    S: Spliterator<T> + 'static,
{
    let sink = Arc::new(AnySink {
        slot: Mutex::new(None),
    });
    try_search_with(
        source,
        |_: &T| true,
        Arc::clone(&sink),
        cfg,
        "jstreams::search::find_any",
        false,
    )?;
    let hit = sink.slot.lock().take();
    Ok(hit)
}

/// Fallible `find_first`: the pipeline's first element in encounter
/// order, under every execution mode and schedule. Right subtrees are
/// pruned through the shared [`FirstHit`] bound once a left-er hit
/// exists.
pub fn try_find_first_with<T, S>(source: S, cfg: &ExecConfig) -> Result<Option<T>, ExecError>
where
    T: Clone + Send + 'static,
    S: Spliterator<T> + 'static,
{
    let sink = Arc::new(FirstSink {
        hit: FirstHit::new(),
    });
    try_search_with(
        source,
        |_: &T| true,
        Arc::clone(&sink),
        cfg,
        "jstreams::search::find_first",
        true,
    )?;
    Ok(sink.hit.take().map(|(_, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spliterator::SliceSpliterator;
    use crate::stream::stream_support;
    use forkjoin::ForkJoinPool;

    fn pool() -> Arc<ForkJoinPool> {
        Arc::new(ForkJoinPool::new(3))
    }

    fn par_cfg(leaf: usize) -> ExecConfig {
        ExecConfig::par().with_pool(pool()).with_leaf_size(leaf)
    }

    fn ints(n: i64) -> SliceSpliterator<i64> {
        SliceSpliterator::new((0..n).collect())
    }

    #[test]
    fn any_match_agrees_across_modes_and_needle_positions() {
        let _serial = crate::test_serial::shared();
        for needle in [0i64, 1000, 4095, -1] {
            let seq =
                try_any_match_with(ints(4096), move |x| *x == needle, &ExecConfig::seq()).unwrap();
            let par = try_any_match_with(ints(4096), move |x| *x == needle, &par_cfg(64)).unwrap();
            assert_eq!(seq, (0..4096).contains(&needle));
            assert_eq!(par, seq, "needle {needle}");
        }
    }

    #[test]
    fn all_and_none_match_quantify_correctly() {
        let _serial = crate::test_serial::shared();
        let cfg = par_cfg(32);
        assert!(try_all_match_with(ints(512), |x| *x >= 0, &cfg).unwrap());
        assert!(!try_all_match_with(ints(512), |x| *x < 511, &cfg).unwrap());
        assert!(try_none_match_with(ints(512), |x| *x > 1000, &cfg).unwrap());
        assert!(!try_none_match_with(ints(512), |x| *x == 200, &cfg).unwrap());
        // Vacuous truth on the empty source.
        assert!(try_all_match_with(ints(0), |_| false, &ExecConfig::seq()).unwrap());
        assert!(try_none_match_with(ints(0), |_| true, &ExecConfig::seq()).unwrap());
    }

    #[test]
    fn find_first_is_minimal_in_encounter_order() {
        let _serial = crate::test_serial::shared();
        // Ascending data: the first element ≥ 1000 is 1000 itself.
        let src = stream_support(ints(4096), true)
            .filter(|x: &i64| *x >= 1000)
            .into_spliterator();
        assert_eq!(try_find_first_with(src, &par_cfg(16)).unwrap(), Some(1000));
        // Descending data: the first element ≥ 1000 in encounter order
        // is the very first element, 4095.
        let desc = SliceSpliterator::new((0..4096i64).rev().collect());
        let src = stream_support(desc, true)
            .filter(|x: &i64| *x >= 1000)
            .into_spliterator();
        assert_eq!(try_find_first_with(src, &par_cfg(16)).unwrap(), Some(4095));
    }

    #[test]
    fn find_any_returns_some_matching_element() {
        let _serial = crate::test_serial::shared();
        let src = stream_support(ints(4096), true)
            .filter(|x: &i64| x % 7 == 0)
            .into_spliterator();
        let hit = try_find_any_with(src, &par_cfg(64)).unwrap().unwrap();
        assert_eq!(hit % 7, 0);
        let empty = stream_support(ints(64), true)
            .filter(|x: &i64| *x > 1000)
            .into_spliterator();
        assert_eq!(try_find_any_with(empty, &par_cfg(8)).unwrap(), None);
    }

    #[test]
    fn late_needle_prunes_leaves_and_counts_found_cancels() {
        let _serial = crate::test_serial::exclusive();
        // Needle deep in the suffix: by the time a leaf hits it, left
        // siblings are done but *later* leaves must observe Found and
        // record EarlyExit prunes. Whether any subtree is still pending
        // at trip time is schedule-dependent (a single hardware thread
        // can drain leaves in pure DFS order), so the pruning half of
        // the assertion retries a few recorded runs — it must hold on
        // at least one schedule. `cancels_found` counts checkpoints that
        // observed the trip, and in an existence search each of them
        // prunes its subtree, so it equals `early_exits` on *every*
        // schedule (both are 0 when the hit lands in the last leaf).
        // (100 retries: under full-suite load a 1-CPU box can drain in
        // DFS order for many consecutive runs.)
        let cfg = par_cfg(16);
        let mut pruned = false;
        for _ in 0..100 {
            let (hit, report) = plobs::recorded(|| {
                try_any_match_with(ints(1 << 14), |x| *x == (1 << 14) - 5, &cfg)
            });
            assert!(hit.unwrap());
            assert_eq!(
                report.cancels_found, report.early_exits,
                "every Found observation prunes one subtree: {report:?}"
            );
            if report.early_exits >= 1 && report.leaves_pruned >= 1 {
                pruned = true;
                break;
            }
        }
        assert!(
            pruned,
            "no schedule in 100 runs pruned a subtree on a late needle"
        );
    }

    #[test]
    fn absent_needle_scans_everything_without_prunes() {
        let _serial = crate::test_serial::exclusive();
        let cfg = par_cfg(64);
        let (hit, report) = plobs::recorded(|| try_any_match_with(ints(4096), |x| *x < 0, &cfg));
        assert!(!hit.unwrap());
        assert_eq!(report.early_exits, 0);
        assert_eq!(report.cancels_found, 0);
        assert_eq!(
            report.routes.total_items(),
            4096,
            "an absent needle must scan every element exactly once"
        );
    }

    #[test]
    fn fused_pipelines_search_over_borrowed_runs() {
        let _serial = crate::test_serial::exclusive();
        let cfg = par_cfg(64);
        let (hit, report) = plobs::recorded(|| {
            let src = stream_support(ints(4096), true)
                .map(|x: i64| x * 3)
                .filter(|x: &i64| x % 2 == 0)
                .into_spliterator();
            try_any_match_with(src, |x| *x == 6000, &cfg)
        });
        assert!(hit.unwrap());
        assert!(
            report.routes.fused_borrow.leaves > 0,
            "map/filter search must take the fused-borrow route: {report:?}"
        );
        // Non-SIZED pipelines skip the root probe, so no cloning pass
        // of any kind is allowed here.
        assert_eq!(report.routes.cloning_drain.leaves, 0);
    }

    #[test]
    fn predicate_panic_surfaces_as_exec_error() {
        let _serial = crate::test_serial::shared();
        let cfg = par_cfg(32);
        let err = try_any_match_with(
            ints(1024),
            |x| {
                if *x == 700 {
                    panic!("poison predicate");
                }
                false
            },
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err.panic_message(), Some("poison predicate"));
    }

    #[test]
    fn found_never_trips_the_callers_token() {
        let _serial = crate::test_serial::shared();
        let token = CancelToken::new();
        let cfg = par_cfg(16).with_cancel_token(token.clone());
        assert!(try_any_match_with(ints(4096), |x| *x == 9, &cfg).unwrap());
        assert!(
            !token.is_cancelled(),
            "a search hit must stay on the private token"
        );
        // The caller's token still cancels the search.
        token.cancel(CancelReason::User);
        let err = try_any_match_with(ints(4096), |x| *x == 9, &cfg).unwrap_err();
        assert!(matches!(err, ExecError::Cancelled));
    }

    #[test]
    fn ranked_zip_recursion_finds_minimal_physical_index() {
        let _serial = crate::test_serial::shared();
        // Exercises the Ranked keyspace below the root probe: the
        // recursion runs directly over a zip spliterator (interleaving
        // parity splits) with single-element leaves, and the FirstHit
        // winner must be the minimal *physical* index — value 1 at rank
        // 1 beats value 2 at rank 2 no matter which leaf lands first.
        use crate::zip::ZipSpliterator;
        use powerlist::tabulate;
        let p = pool();
        let cfg = ExecConfig::par()
            .with_pool(Arc::clone(&p))
            .with_leaf_size(1);
        let pred = |x: &i64| *x == 1 || *x == 2;
        for _ in 0..50 {
            let src = ZipSpliterator::over(tabulate(16, |i| i as i64).unwrap());
            assert_eq!(src.encounter_rank(), Some((0, 1)));
            assert!(!src.prefix_splits());
            let sink = Arc::new(FirstSink {
                hit: FirstHit::new(),
            });
            let search = SearchWalk {
                pred,
                sink: Arc::clone(&sink),
                mode: OrderMode::Ranked,
                session: SearchSession::new(&cfg),
                _source: PhantomData,
            };
            walk::submit(
                &p,
                Arc::new(search),
                (src, 0),
                forkjoin::SplitPolicy::Fixed(1),
            )
            .unwrap();
            assert_eq!(sink.hit.take(), Some((1, 1)));
        }
    }

    #[test]
    fn zip_find_first_degrades_to_encounter_order_scan() {
        let _serial = crate::test_serial::shared();
        // Public-API regression for the same hazard: a filtered zip
        // power stream is opaque (interleaving splits, no ranks), so
        // parallel find_first must take the guarded sequential scan and
        // agree with the sequential route on every schedule.
        use crate::power::{power_stream, Decomposition};
        use powerlist::tabulate;
        let list = tabulate(16, |i| i as i64).unwrap();
        let p = pool();
        for _ in 0..50 {
            let par = power_stream(list.clone(), Decomposition::Zip)
                .with_pool(Arc::clone(&p))
                .with_leaf_size(1)
                .filter(|x: &i64| *x == 1 || *x == 2)
                .find_first();
            assert_eq!(par, Some(1));
        }
    }

    #[test]
    fn caller_token_found_reason_is_demoted_to_cancellation() {
        let _serial = crate::test_serial::shared();
        // A caller token that already carries Found (reused from some
        // earlier search) must cancel this run, not masquerade as its
        // answered state.
        let token = CancelToken::new();
        token.cancel(CancelReason::Found);
        let cfg = par_cfg(16).with_cancel_token(token);
        let err = try_any_match_with(ints(4096), |x| *x == 9, &cfg).unwrap_err();
        assert!(matches!(err, ExecError::Cancelled));
    }

    #[test]
    fn first_hit_cell_keeps_the_minimum() {
        let _serial = crate::test_serial::shared();
        let cell = FirstHit::new();
        assert_eq!(cell.bound(), usize::MAX);
        assert!(!cell.prunes(0));
        assert!(cell.offer(40, "d"));
        assert!(cell.offer(7, "a"));
        assert!(!cell.offer(12, "b"), "later index must not replace");
        assert_eq!(cell.bound(), 7);
        assert!(cell.prunes(7));
        assert!(!cell.prunes(6));
        assert_eq!(cell.get(), Some((7, "a")));
        assert_eq!(cell.take(), Some((7, "a")));
        assert_eq!(cell.take(), None);
    }
}

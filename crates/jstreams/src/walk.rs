//! The split-tree walker: the one fork-join recursion behind every
//! binary divide-and-conquer terminal.
//!
//! The paper's point is that `collect` *is* a divide-and-conquer
//! template method — split, leaf, combine — and JPLF's `PowerFunction`
//! is the same skeleton. This module writes that skeleton once. A
//! terminal describes its subtrees through [`Terminal`]: the exact size
//! of a node, how to split it (descent work included), how to run it as
//! a leaf, an optional prune predicate and an optional combine. The
//! walker owns everything else:
//!
//! * the **node-entry checkpoint** ([`Checkpoint::check`]): cancel and
//!   deadline, plus — for search sessions — the `Found` trip, which
//!   prunes the subtree as success with one `Event::EarlyExit`. It
//!   covers both the split decision and leaf entry;
//! * the **stop rule**, [`SplitPolicy::stop`], against the depth cap;
//! * the **split step**, run contained, recorded as `Event::Split` and
//!   `Event::DescendNs`;
//! * the `join`, the merge of sibling interrupts (a panic outranks a
//!   cancellation), the **combine checkpoint** and `Event::Combine`;
//! * **submission** ([`submit`]): the depth cap budgets the pool that
//!   actually executes, and a submission lost to a shutdown race runs on
//!   the caller as a recorded fallback.
//!
//! A terminal without combine work (search: the answer lives in a
//! shared sink) declares [`Combine::Skip`] and gets neither a combine
//! checkpoint nor a Combine event. A search checkpoint that observes
//! `Found` emits an `Event::Cancel`; at node entry it is paired with the
//! `EarlyExit` of the pruned subtree, but a combine checkpoint would add
//! unpaired ones and break `cancels_found == early_exits`.
//!
//! The walker is monomorphised per terminal. The terminal travels down
//! the tree as one `Arc`, so a split costs two reference-count bumps and
//! no allocation beyond the `join` itself.

use crate::collect::default_leaf_size;
use crate::exec::{ExecConfig, ExecSession, Interrupt};
use crate::search::SearchSession;
use crate::spliterator::Spliterator;
use forkjoin::{current_probe, join, ForkJoinPool, SplitPolicy};
use plobs::{Event, FallbackReason};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative checkpoint the walker polls at node entry and before
/// combine: [`ExecSession`] for collect and compute terminals,
/// [`SearchSession`] for search.
pub trait Checkpoint: Send + Sync {
    /// `Ok(false)`: keep going. `Ok(true)`: the run is already answered
    /// (a search `Found` trip), so the subtree is pruned as success.
    /// `Err`: an interrupt that propagates to the root.
    fn check(&self) -> Result<bool, Interrupt>;

    /// Runs user code under panic containment.
    fn run<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt>;
}

impl Checkpoint for ExecSession {
    fn check(&self) -> Result<bool, Interrupt> {
        ExecSession::check(self).map(|()| false)
    }

    fn run<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt> {
        ExecSession::run(self, f)
    }
}

impl Checkpoint for SearchSession {
    fn check(&self) -> Result<bool, Interrupt> {
        SearchSession::check(self)
    }

    fn run<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt> {
        SearchSession::run(self, f)
    }
}

/// What the walker does once both halves of a split have returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// No combine work (search): the halves merge by interrupt priority
    /// alone; no combine checkpoint and no `Event::Combine`.
    Skip,
    /// A value merge (splice collect, JPLF `combine`), recorded as
    /// `Event::Combine { placement: false }`.
    Merge,
    /// A placement buffer's constant-size combine, recorded as
    /// `Event::Combine { placement: true }`.
    Placement,
}

/// One binary divide-and-conquer terminal, as the walker sees it.
pub trait Terminal: Send + Sync + 'static {
    /// One subtree: a spliterator or view, plus whatever the terminal
    /// threads down with it (a placement window, a search base, a JPLF
    /// function instance).
    type Node: Send + 'static;
    /// A subtree's result.
    type Out: Send + 'static;
    /// What a split node keeps across the `join` for its combine.
    type Cut: Send + 'static;
    /// The run's checkpoint.
    type Session: Checkpoint;
    /// How the walker treats the combine step.
    const COMBINE: Combine;

    /// The run's session.
    fn session(&self) -> &Self::Session;

    /// The node's exact element count: `None` when its size estimate is
    /// only an upper bound (a non-SIZED source), which the stop rule
    /// must not trust.
    fn exact_size(&self, node: &Self::Node) -> Option<usize>;

    /// The prune predicate (search's encounter-order bound): `true`
    /// abandons the node as success before the stop rule runs.
    fn prune(&self, _node: &Self::Node) -> bool {
        false
    }

    /// The value of a pruned subtree. Reached only by terminals that
    /// prune, through [`Terminal::prune`] or an answered checkpoint.
    fn pruned(&self) -> Self::Out {
        unreachable!("this terminal never prunes")
    }

    /// Cuts `node` into its encounter-order halves, including the
    /// terminal's own descent work. `Err(node)` hands back a node that
    /// cannot split; it then runs as a leaf. Runs contained.
    #[allow(clippy::type_complexity)]
    fn split(&self, node: Self::Node) -> Result<(Self::Node, Self::Node, Self::Cut), Self::Node>;

    /// Runs `node` as one leaf and records its `Event::Leaf`. Runs
    /// contained.
    fn leaf(&self, node: Self::Node) -> Self::Out;

    /// Merges a split's halves in encounter order. Runs contained and
    /// after the combine checkpoint, except under [`Combine::Skip`],
    /// where it must be trivial.
    fn combine(&self, cut: Self::Cut, left: Self::Out, right: Self::Out) -> Self::Out;
}

/// Submits the walk to `pool`. The depth cap is derived inside the
/// installed closure, so it budgets the pool that executes the joins:
/// the caller's own pool on a worker thread, the global pool otherwise.
/// If the submission is lost to a shutdown race, the closure comes back
/// unexecuted ([`ForkJoinPool::try_install`]) and runs on the calling
/// thread as a recorded `SubmitFailed` fallback, its joins migrating to
/// the global pool — a cap captured from the dead target would split
/// for the wrong width.
pub fn submit<T: Terminal>(
    pool: &ForkJoinPool,
    terminal: Arc<T>,
    root: T::Node,
    policy: SplitPolicy,
) -> Result<T::Out, Interrupt> {
    let run = move || {
        let threads =
            current_probe().map_or_else(|| forkjoin::global_pool().threads(), |p| p.threads());
        walk(terminal, root, policy, policy.depth_cap(threads))
    };
    match pool.try_install(run) {
        Ok(out) => out,
        Err(run) => {
            plobs::emit(Event::Fallback {
                reason: FallbackReason::SubmitFailed,
            });
            run()
        }
    }
}

/// Walks the tree rooted at `root` from the calling thread, splitting no
/// deeper than `cap` where the policy consults it.
pub fn walk<T: Terminal>(
    terminal: Arc<T>,
    root: T::Node,
    policy: SplitPolicy,
    cap: u32,
) -> Result<T::Out, Interrupt> {
    let steals = current_probe().map_or(0, |p| p.steal_pressure());
    visit(terminal, root, policy, cap, 0, steals)
}

fn visit<T: Terminal>(
    t: Arc<T>,
    node: T::Node,
    policy: SplitPolicy,
    cap: u32,
    depth: u32,
    steals_seen: u64,
) -> Result<T::Out, Interrupt> {
    let session = t.session();
    if session.check()? || t.prune(&node) {
        plobs::emit(Event::EarlyExit { leaves_pruned: 1 });
        return Ok(t.pruned());
    }
    let (stop, steals_next) = policy.stop(t.exact_size(&node), depth, cap, steals_seen);
    if stop {
        return session.run(|| t.leaf(node));
    }
    let observe = plobs::enabled();
    let descend_start = observe.then(Instant::now);
    let (left, right, cut) = match session.run(|| t.split(node))? {
        Ok(halves) => halves,
        Err(node) => return session.run(|| t.leaf(node)),
    };
    if let Some(start) = descend_start {
        plobs::emit(Event::Split {
            depth,
            adaptive: policy.is_adaptive(),
        });
        plobs::emit(Event::DescendNs {
            ns: start.elapsed().as_nanos() as u64,
        });
    }
    let (t_left, t_right) = (Arc::clone(&t), Arc::clone(&t));
    let (left, right) = join(
        move || visit(t_left, left, policy, cap, depth + 1, steals_next),
        move || visit(t_right, right, policy, cap, depth + 1, steals_next),
    );
    let (left, right) = match (left, right) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(a), Err(b)) => return Err(a.merge(b)),
        (Err(a), Ok(_)) | (Ok(_), Err(a)) => return Err(a),
    };
    if T::COMBINE == Combine::Skip {
        return Ok(t.combine(cut, left, right));
    }
    // Skip a merge whose result is already doomed to be discarded.
    session.check()?;
    let combine_start = observe.then(Instant::now);
    let out = session.run(|| t.combine(cut, left, right))?;
    if let Some(start) = combine_start {
        plobs::emit(Event::Combine {
            depth,
            ns: start.elapsed().as_nanos() as u64,
            placement: T::COMBINE == Combine::Placement,
        });
    }
    Ok(out)
}

/// Why a parallel run on `pool` should take its sequential route
/// instead of submitting: the pool is shut down, or its queued backlog
/// exceeds `cfg`'s fallback threshold. `None` means submit.
pub fn fallback_reason(pool: &ForkJoinPool, cfg: &ExecConfig) -> Option<FallbackReason> {
    if pool.is_shut_down() {
        Some(FallbackReason::SubmitFailed)
    } else if cfg
        .fallback_threshold()
        .is_some_and(|t| pool.queued_tasks() > t)
    {
        Some(FallbackReason::PoolSaturated)
    } else {
        None
    }
}

/// The pool of a parallel streams run: `cfg`'s, else the global pool.
pub(crate) fn pool_of(cfg: &ExecConfig) -> &ForkJoinPool {
    match cfg.pool() {
        Some(pool) => pool,
        None => forkjoin::global_pool(),
    }
}

/// The split policy of a parallel streams run: [`configured_policy`],
/// else [`SplitPolicy::Fixed`] at [`default_leaf_size`].
pub(crate) fn resolve_policy<T, S: Spliterator<T>>(
    cfg: &ExecConfig,
    pool: &ForkJoinPool,
    source: &S,
    kind: &str,
) -> SplitPolicy {
    configured_policy(cfg, pool, source, kind).unwrap_or_else(|| {
        SplitPolicy::Fixed(default_leaf_size(source.estimate_size(), pool.threads()))
    })
}

/// The configured split policy of a parallel streams run, if any. An
/// explicit `with_split_policy` / `with_leaf_size` always wins;
/// otherwise a tuner attached via `auto_tune` resolves a cached (or
/// freshly calibrated) plan; otherwise `None`, and the route picks its
/// default ([`resolve_policy`], or the splice route's
/// [`splice_leaf_size`](crate::collect::splice_leaf_size)). `kind`
/// labels the terminal in the tuner's fingerprint, so searches and
/// collects over the same source tune apart. The fingerprint's
/// size/`sized` pair comes from `exact_size()`, so a non-SIZED upper
/// bound is bucketed as inexact, not mistaken for a real length.
pub(crate) fn configured_policy<T, S: Spliterator<T>>(
    cfg: &ExecConfig,
    pool: &ForkJoinPool,
    source: &S,
    kind: &str,
) -> Option<SplitPolicy> {
    cfg.policy().or_else(|| {
        cfg.tuner().and_then(|cache| {
            let exact = source.exact_size();
            let fp = pltune::Fingerprint::new(
                std::any::type_name::<S>(),
                kind,
                exact.unwrap_or_else(|| source.estimate_size()),
                exact.is_some(),
                pool.threads(),
            );
            pltune::resolve(cache, pool, &fp)
        })
    })
}

//! The multithreading executor: fork-join parallel recursion.
//!
//! This is JPLF's tested executor (paper, Section III: "the tested
//! implementation uses the ForkJoinPool executor, as is the
//! parallelisation of Java Streams"). It runs on the same split-tree
//! walker as the streams `collect` ([`jstreams::walk`]): each
//! deconstruction forks the two half-computations with
//! [`forkjoin::join`]; below a size threshold the recursion continues
//! sequentially on the worker (the descending phase — including
//! `create_left`/`create_right` parameter descent and `transform_halves`
//! data transforms — still runs, only the forking stops).

use crate::executor::{finish, ExecConfig, ExecError, Executor};
use crate::function::{try_compute_sequential, Decomp, PowerFunction};
use forkjoin::{ForkJoinPool, SplitPolicy};
use jstreams::walk::{self, Combine, Terminal};
use jstreams::ExecSession;
use plobs::{Event, LeafRoute};
use powerlist::PowerView;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Fork-join executor with an explicit pool and split policy.
pub struct ForkJoinExecutor {
    pool: Arc<ForkJoinPool>,
    policy: SplitPolicy,
    tuner: Option<Arc<pltune::PlanCache>>,
}

impl ForkJoinExecutor {
    /// Unified-config constructor: takes the config's pool (default: a
    /// dedicated pool sized to the machine) and split policy (default:
    /// [`SplitPolicy::adaptive`]) — the same resolution the streams
    /// front-end applies. The historical constructors are shims over
    /// this one.
    ///
    /// When the config carries a tuner ([`ExecConfig::auto_tune`]) and
    /// no explicit policy, each execution resolves its policy from the
    /// shared plan cache (calibrating on first sight of a
    /// function-shape/size/pool fingerprint); [`Self::policy`] then
    /// reports the untuned default. An explicit policy disables tuning,
    /// same as the streams driver.
    pub fn from_config(cfg: &ExecConfig) -> Self {
        ForkJoinExecutor {
            pool: cfg
                .pool()
                .cloned()
                .unwrap_or_else(|| Arc::new(ForkJoinPool::with_default_parallelism())),
            policy: cfg.policy().unwrap_or_else(SplitPolicy::adaptive),
            tuner: if cfg.policy().is_some() {
                None
            } else {
                cfg.tuner().cloned()
            },
        }
    }

    /// Executor on a dedicated pool of `threads` workers; forking stops
    /// at sublists of `leaf_size` elements ([`SplitPolicy::Fixed`]).
    pub fn new(threads: usize, leaf_size: usize) -> Self {
        Self::from_config(
            &ExecConfig::par()
                .with_pool(Arc::new(ForkJoinPool::new(threads)))
                .with_leaf_size(leaf_size),
        )
    }

    /// Executor on a dedicated pool of `threads` workers with
    /// demand-driven forking ([`SplitPolicy::adaptive`]).
    pub fn adaptive(threads: usize) -> Self {
        Self::from_config(&ExecConfig::par().with_pool(Arc::new(ForkJoinPool::new(threads))))
    }

    /// Executor over an existing pool with a fixed leaf threshold.
    pub fn with_pool(pool: Arc<ForkJoinPool>, leaf_size: usize) -> Self {
        Self::from_config(&ExecConfig::par().with_pool(pool).with_leaf_size(leaf_size))
    }

    /// Executor over an existing pool under an explicit [`SplitPolicy`].
    pub fn with_policy(pool: Arc<ForkJoinPool>, policy: SplitPolicy) -> Self {
        Self::from_config(&ExecConfig::par().with_pool(pool).with_split_policy(policy))
    }

    /// The underlying pool (for metrics inspection).
    pub fn pool(&self) -> &Arc<ForkJoinPool> {
        &self.pool
    }

    /// The sequential cutoff: the fixed threshold, or the adaptive
    /// policy's minimum leaf.
    pub fn leaf_size(&self) -> usize {
        match self.policy {
            SplitPolicy::Fixed(n) => n,
            SplitPolicy::Adaptive(a) => a.min_leaf,
        }
    }

    /// The split policy in force.
    pub fn policy(&self) -> SplitPolicy {
        self.policy
    }

    /// Resolves the policy for one execution: tuner plan (calibrated on
    /// first sight) when attached, else the configured policy.
    /// PowerViews are always exactly sized, so the fingerprint's size
    /// is exact by construction.
    pub(crate) fn resolve_policy(&self, pipe: &str, len: usize) -> SplitPolicy {
        self.tuner
            .as_ref()
            .and_then(|cache| {
                let fp = pltune::Fingerprint::new(
                    pipe,
                    "jplf::power_function",
                    len,
                    true,
                    self.pool.threads(),
                );
                pltune::resolve(cache, &self.pool, &fp)
            })
            .unwrap_or(self.policy)
    }
}

/// The fork-join subtree protocol of a [`PowerFunction`] for the
/// split-tree walker: a node is a function instance plus its view. The
/// split step is the template's descending phase (deconstruction,
/// `create_left`/`create_right`, `transform_halves`); below the split
/// threshold the leaf kernel runs the rest of the recursion on the
/// worker, and the ascending phase is the function's `combine`.
struct Compute<F> {
    session: ExecSession,
    _function: PhantomData<fn(F)>,
}

impl<F: PowerFunction> Terminal for Compute<F> {
    type Node = (F, PowerView<F::Elem>);
    type Out = F::Out;
    /// The parent instance, whose `combine` merges the halves.
    type Cut = F;
    type Session = ExecSession;
    const COMBINE: Combine = Combine::Merge;

    fn session(&self) -> &ExecSession {
        &self.session
    }

    /// PowerViews are always exactly sized, so the size cutoff is sound
    /// under both policies.
    fn exact_size(&self, (_, input): &(F, PowerView<F::Elem>)) -> Option<usize> {
        Some(input.len())
    }

    #[allow(clippy::type_complexity)]
    fn split(
        &self,
        (f, input): (F, PowerView<F::Elem>),
    ) -> Result<((F, PowerView<F::Elem>), (F, PowerView<F::Elem>), F), (F, PowerView<F::Elem>)>
    {
        if input.is_singleton() {
            return Err((f, input));
        }
        let (l, r) = match f.decomposition() {
            Decomp::Tie => input.untie().expect("non-singleton"),
            Decomp::Zip => input.unzip().expect("non-singleton"),
        };
        let (fl, fr) = (f.create_left(), f.create_right());
        Ok(match f.transform_halves(&l, &r) {
            None => ((fl, l), (fr, r), f),
            Some((l2, r2)) => ((fl, l2.view()), (fr, r2.view()), f),
        })
    }

    /// The leaf kernel (paper §V: the basic case applied to a whole
    /// sub-list); defaults to the template recursion.
    fn leaf(&self, (f, input): (F, PowerView<F::Elem>)) -> F::Out {
        let start = plobs::enabled().then(Instant::now);
        let out = f.leaf_case(&input);
        if let Some(start) = start {
            plobs::emit(Event::Leaf {
                route: LeafRoute::Template,
                items: input.len() as u64,
                ns: start.elapsed().as_nanos() as u64,
            });
        }
        out
    }

    fn combine(&self, f: F, left: F::Out, right: F::Out) -> F::Out {
        f.combine(left, right)
    }
}

impl Executor for ForkJoinExecutor {
    /// Shim over [`Executor::try_execute`], like every streams terminal:
    /// a contained panic resumes on the caller.
    fn execute<F>(&self, f: &F, input: &PowerView<F::Elem>) -> F::Out
    where
        F: PowerFunction + Clone + Sync,
    {
        finish(self.try_execute(f, input, &ExecConfig::par()), "execute")
    }

    fn try_execute<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<F::Out, ExecError>
    where
        F: PowerFunction + Clone + Sync,
    {
        let session = ExecSession::new(cfg);
        // Graceful degradation mirrors the streams driver: a shut-down
        // or saturated pool routes the whole computation through the
        // guarded sequential template instead of failing.
        let out = match walk::fallback_reason(&self.pool, cfg) {
            Some(reason) => {
                plobs::emit(Event::Fallback { reason });
                try_compute_sequential(f, input, &session)
            }
            None => {
                let policy = self.resolve_policy(std::any::type_name::<F>(), input.len());
                let compute = Compute {
                    session: session.clone(),
                    _function: PhantomData,
                };
                walk::submit(
                    &self.pool,
                    Arc::new(compute),
                    (f.clone(), input.clone()),
                    policy,
                )
            }
        };
        out.map_err(|i| session.error_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SequentialExecutor;
    use powerlist::{tabulate, PowerList};

    #[derive(Clone)]
    struct Sum;

    impl PowerFunction for Sum {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> i64 {
            *v
        }
        fn create_left(&self) -> Self {
            Sum
        }
        fn create_right(&self) -> Self {
            Sum
        }
        fn combine(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// Map returning a PowerList via zip recombination — checks result
    /// ordering under parallel execution.
    #[derive(Clone)]
    struct Square;

    impl PowerFunction for Square {
        type Elem = i64;
        type Out = PowerList<i64>;
        fn decomposition(&self) -> Decomp {
            Decomp::Zip
        }
        fn basic_case(&self, v: &i64) -> PowerList<i64> {
            PowerList::singleton(v * v)
        }
        fn create_left(&self) -> Self {
            Square
        }
        fn create_right(&self) -> Self {
            Square
        }
        fn combine(&self, l: PowerList<i64>, r: PowerList<i64>) -> PowerList<i64> {
            PowerList::zip(l, r)
        }
    }

    #[test]
    fn matches_sequential_sum() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(1 << 12, |i| i as i64).unwrap();
        let seq = SequentialExecutor::new().execute(&Sum, &p.clone().view());
        for threads in [1, 2, 4] {
            let exec = ForkJoinExecutor::new(threads, 64);
            assert_eq!(
                exec.execute(&Sum, &p.clone().view()),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_order_preserved() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(256, |i| i as i64).unwrap();
        let exec = ForkJoinExecutor::new(3, 8);
        let out = exec.execute(&Square, &p.clone().view());
        let expected: Vec<i64> = (0..256).map(|i: i64| i * i).collect();
        assert_eq!(out.into_vec(), expected);
    }

    #[test]
    fn leaf_size_extremes_agree() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(128, |i| i as i64 % 13).unwrap();
        let a = ForkJoinExecutor::new(2, 1).execute(&Sum, &p.clone().view());
        let b = ForkJoinExecutor::new(2, 128).execute(&Sum, &p.clone().view());
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_input() {
        let _serial = crate::test_serial::shared();
        let p = PowerList::singleton(9i64);
        assert_eq!(
            ForkJoinExecutor::new(2, 4).execute(&Sum, &p.clone().view()),
            9
        );
    }

    #[test]
    fn adaptive_matches_sequential() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(1 << 10, |i| i as i64 % 17).unwrap();
        let seq = SequentialExecutor::new().execute(&Sum, &p.clone().view());
        let exec = ForkJoinExecutor::adaptive(2);
        assert!(exec.policy().is_adaptive());
        assert_eq!(exec.execute(&Sum, &p.clone().view()), seq);
        // Adaptive zip recombination preserves order too.
        let q = tabulate(256, |i| i as i64).unwrap();
        let small_cutoff = forkjoin::SplitPolicy::Adaptive(forkjoin::AdaptiveSplit {
            min_leaf: 8,
            ..Default::default()
        });
        let exec = ForkJoinExecutor::with_policy(Arc::new(ForkJoinPool::new(3)), small_cutoff);
        let out = exec.execute(&Square, &q.view());
        let expected: Vec<i64> = (0..256).map(|i: i64| i * i).collect();
        assert_eq!(out.into_vec(), expected);
    }

    #[test]
    fn shared_pool_reuse() {
        let _serial = crate::test_serial::shared();
        let pool = Arc::new(ForkJoinPool::new(2));
        let e1 = ForkJoinExecutor::with_pool(Arc::clone(&pool), 16);
        let e2 = ForkJoinExecutor::with_pool(Arc::clone(&pool), 4);
        let p = tabulate(64, |i| i as i64).unwrap();
        assert_eq!(
            e1.execute(&Sum, &p.clone().view()),
            e2.execute(&Sum, &p.clone().view())
        );
        assert!(pool.metrics().executed > 0);
    }

    #[test]
    fn from_config_resolves_pool_and_policy() {
        let _serial = crate::test_serial::shared();
        let pool = Arc::new(ForkJoinPool::new(2));
        let exec = ForkJoinExecutor::from_config(
            &ExecConfig::par()
                .with_pool(Arc::clone(&pool))
                .with_leaf_size(32),
        );
        assert!(Arc::ptr_eq(exec.pool(), &pool));
        assert_eq!(exec.leaf_size(), 32);
        // No policy in the config -> adaptive by default.
        assert!(ForkJoinExecutor::from_config(&ExecConfig::par())
            .policy()
            .is_adaptive());
    }

    #[test]
    fn auto_tuned_executor_calibrates_once_then_hits() {
        let _serial = crate::test_serial::exclusive();
        let cache = Arc::new(pltune::PlanCache::new());
        let exec = ForkJoinExecutor::from_config(
            &ExecConfig::par()
                .with_pool(Arc::new(ForkJoinPool::new(2)))
                .auto_tune(Arc::clone(&cache)),
        );
        let p = tabulate(1 << 11, |i| i as i64 % 7).unwrap();
        let seq = SequentialExecutor::new().execute(&Sum, &p.clone().view());
        let ((), report) = plobs::recorded(|| {
            assert_eq!(exec.execute(&Sum, &p.clone().view()), seq);
            assert_eq!(
                exec.try_execute(&Sum, &p.clone().view(), &ExecConfig::par())
                    .ok(),
                Some(seq)
            );
        });
        assert_eq!(report.tune_calibrations, 1, "first execution calibrates");
        assert_eq!(report.tune_hits, 1, "second execution reuses the plan");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn explicit_policy_disables_the_tuner() {
        let _serial = crate::test_serial::exclusive();
        let cache = Arc::new(pltune::PlanCache::new());
        let exec = ForkJoinExecutor::from_config(
            &ExecConfig::par()
                .with_pool(Arc::new(ForkJoinPool::new(2)))
                .with_leaf_size(32)
                .auto_tune(Arc::clone(&cache)),
        );
        let p = tabulate(256, |i| i as i64).unwrap();
        let (out, report) = plobs::recorded(|| exec.execute(&Sum, &p.clone().view()));
        assert_eq!(out, (0..256).sum());
        assert_eq!(
            report.tunes(),
            0,
            "explicit policies never consult the cache"
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn try_execute_happy_path_matches_execute() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(1 << 10, |i| i as i64 % 23).unwrap();
        let exec = ForkJoinExecutor::new(2, 64);
        let plain = exec.execute(&Sum, &p.clone().view());
        let tried = exec.try_execute(&Sum, &p.clone().view(), &ExecConfig::par());
        assert_eq!(tried.ok(), Some(plain));
    }

    /// Sum whose basic case panics on one poisoned value.
    #[derive(Clone)]
    struct PoisonSum(i64);

    impl PowerFunction for PoisonSum {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> i64 {
            assert!(*v != self.0, "poisoned value {v}");
            *v
        }
        fn create_left(&self) -> Self {
            self.clone()
        }
        fn create_right(&self) -> Self {
            self.clone()
        }
        fn combine(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    #[test]
    fn try_execute_contains_panics_and_pool_survives() {
        let _serial = crate::test_serial::shared();
        let pool = Arc::new(ForkJoinPool::new(2));
        let exec = ForkJoinExecutor::with_pool(Arc::clone(&pool), 1);
        let p = tabulate(256, |i| i as i64).unwrap();
        let err = exec
            .try_execute(&PoisonSum(100), &p.clone().view(), &ExecConfig::par())
            .expect_err("panicking primitive must surface as an error");
        match err {
            ExecError::Panicked(_) => {
                assert_eq!(err.panic_message(), Some("poisoned value 100"));
            }
            other => panic!("expected Panicked, got {other}"),
        }
        // The same pool completes a clean follow-up run.
        assert_eq!(
            exec.try_execute(&Sum, &p.clone().view(), &ExecConfig::par())
                .ok(),
            Some((0..256).sum())
        );
    }

    #[test]
    fn try_execute_honours_pre_cancelled_token() {
        let _serial = crate::test_serial::shared();
        let token = jstreams::CancelToken::new();
        token.cancel(jstreams::CancelReason::User);
        let exec = ForkJoinExecutor::new(2, 64);
        let p = tabulate(128, |i| i as i64).unwrap();
        let err = exec
            .try_execute(&Sum, &p.view(), &ExecConfig::par().with_cancel_token(token))
            .err();
        assert!(matches!(err, Some(ExecError::Cancelled)), "got {err:?}");
    }

    #[test]
    fn try_execute_falls_back_on_shut_down_pool() {
        let _serial = crate::test_serial::exclusive();
        let pool = Arc::new(ForkJoinPool::new(1));
        let exec = ForkJoinExecutor::with_pool(Arc::clone(&pool), 16);
        pool.shutdown();
        let p = tabulate(64, |i| i as i64).unwrap();
        let (out, report) =
            plobs::recorded(|| exec.try_execute(&Sum, &p.clone().view(), &ExecConfig::par()));
        assert_eq!(out.ok(), Some((0..64).sum()));
        assert_eq!(report.fallbacks_submit, 1);
        assert_eq!(report.splits, 0, "fallback route must not fork");
    }
}

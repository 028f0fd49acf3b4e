//! Execution sessions: the unified config / error surface of `collect`.
//!
//! [`ExecConfig`] folds every execution knob (mode, pool, split policy,
//! fault-tolerance limits) into one builder-style value consumed by the
//! fallible drivers ([`crate::collect::try_collect_with`] and the search
//! terminals); the infallible terminals are thin shims over them.
//!
//! The fallible layer is organised around an [`ExecSession`]: a
//! first-cancel-wins [`CancelToken`] plus an optional [`Deadline`],
//! polled cooperatively at every split, leaf-entry and combine point of
//! the divide-and-conquer descent. User code (accumulators, combiners,
//! finishers) runs under `catch_unwind`, so a panic becomes a value —
//! [`ExecError::Panicked`] — and trips the token so sibling subtrees
//! stop descending instead of computing results that will be discarded.
//! The pool itself never sees an unwinding task and stays reusable.

use forkjoin::{CancelReason, CancelToken, Deadline, ForkJoinPool, SplitPolicy};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Whether a terminal operation runs on the calling thread or a pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Drain on the calling thread, no splitting (Java's sequential
    /// stream).
    Seq,
    /// Divide-and-conquer on a fork-join pool.
    Par,
}

/// The unified execution configuration: mode, pool, split policy, and
/// per-run fault-tolerance limits (deadline, cancel token, saturation
/// fallback threshold).
///
/// ```
/// use jstreams::{stream_support, ExecConfig, SliceSpliterator};
/// use std::time::Duration;
///
/// let cfg = ExecConfig::par()
///     .with_leaf_size(64)
///     .with_deadline(Duration::from_secs(5));
/// let sum = stream_support(SliceSpliterator::new((0i64..1024).collect()), true)
///     .map(|x| x * 2)
///     .try_collect(jstreams::ReduceCollector::new(0, |a, b| a + b), &cfg)
///     .unwrap();
/// assert_eq!(sum, 1023 * 1024);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExecConfig {
    mode: Option<ExecMode>,
    pool: Option<Arc<ForkJoinPool>>,
    policy: Option<SplitPolicy>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    fallback_threshold: Option<usize>,
    ranks: Option<usize>,
    tuner: Option<Arc<pltune::PlanCache>>,
    placement: Option<bool>,
}

impl ExecConfig {
    /// A parallel configuration (the default) — pool and split policy
    /// resolved lazily (global pool, `default_leaf_size`) unless set.
    pub fn par() -> Self {
        ExecConfig::default().with_mode(ExecMode::Par)
    }

    /// A sequential configuration: one leaf on the calling thread.
    pub fn seq() -> Self {
        ExecConfig::default().with_mode(ExecMode::Seq)
    }

    /// Sets the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Pins parallel execution to `pool` (default: the global pool).
    pub fn with_pool(mut self, pool: Arc<ForkJoinPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Selects the split policy for parallel execution.
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Shorthand for [`SplitPolicy::Fixed`] with a static leaf size.
    pub fn with_leaf_size(self, leaf_size: usize) -> Self {
        self.with_split_policy(SplitPolicy::Fixed(leaf_size.max(1)))
    }

    /// Bounds the run to `budget` of wall-clock time; past it the
    /// session cancels with [`ExecError::DeadlineExceeded`]. Checked at
    /// split, leaf-entry and combine points, so the worst-case overrun
    /// is one leaf.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a caller-held [`CancelToken`]; tripping it (from any
    /// thread) aborts the run with [`ExecError::Cancelled`] at the next
    /// checkpoint. Without one, each fallible run creates a private
    /// token (used internally for panic containment).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Degrades to the sequential route when the pool's queued backlog
    /// exceeds `threshold` tasks at submission time (recorded as a
    /// `Fallback` event). Off by default.
    pub fn with_fallback_threshold(mut self, threshold: usize) -> Self {
        self.fallback_threshold = Some(threshold);
        self
    }

    /// Number of simulated MPI ranks for rank-based executors (JPLF's
    /// `MpiExecutor::from_config`); defaults to the machine parallelism.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Enables self-tuning execution against the shared plan cache:
    /// when no explicit split policy is set, parallel drivers
    /// fingerprint the pipeline and consult `cache` — first sight runs
    /// a short calibration sweep and installs the winner; later runs
    /// (including other processes, via [`pltune::PlanCache::load`])
    /// reuse it. An explicit [`ExecConfig::with_split_policy`] /
    /// [`ExecConfig::with_leaf_size`] always takes precedence over the
    /// tuner.
    pub fn auto_tune(mut self, cache: Arc<pltune::PlanCache>) -> Self {
        self.tuner = Some(cache);
        self
    }

    /// The execution mode ([`ExecMode::Par`] unless set).
    pub fn mode(&self) -> ExecMode {
        self.mode.unwrap_or(ExecMode::Par)
    }

    /// The pinned pool, when set.
    pub fn pool(&self) -> Option<&Arc<ForkJoinPool>> {
        self.pool.as_ref()
    }

    /// The split policy, when set.
    pub fn policy(&self) -> Option<SplitPolicy> {
        self.policy
    }

    /// The wall-clock budget, when set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The caller-held cancel token, when set.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The saturation fallback threshold, when set.
    pub fn fallback_threshold(&self) -> Option<usize> {
        self.fallback_threshold
    }

    /// The simulated-MPI rank count, when set.
    pub fn ranks(&self) -> Option<usize> {
        self.ranks
    }

    /// The plan cache enabling self-tuning execution, when set.
    pub fn tuner(&self) -> Option<&Arc<pltune::PlanCache>> {
        self.tuner.as_ref()
    }

    /// Enables or disables the destination-passing (placement) collect
    /// route for eligible pipelines (see [`crate::placement`]). On by
    /// default; `with_placement(false)` forces the splice route — the
    /// A/B switch the placement benchmarks use.
    pub fn with_placement(mut self, enabled: bool) -> Self {
        self.placement = Some(enabled);
        self
    }

    /// Whether the placement collect route may be used (`true` unless
    /// disabled).
    pub fn placement(&self) -> bool {
        self.placement.unwrap_or(true)
    }
}

/// Why a fallible terminal operation did not produce a value.
pub enum ExecError {
    /// User code (accumulator, combiner, finisher, leaf kernel)
    /// panicked; the payload is carried as a value instead of unwinding
    /// through the scheduler.
    Panicked(Box<dyn Any + Send + 'static>),
    /// The session's [`CancelToken`] was tripped by the caller.
    Cancelled,
    /// The session's wall-clock budget ran out.
    DeadlineExceeded {
        /// Time from session start to the checkpoint that observed the
        /// expiry.
        elapsed: Duration,
    },
    /// A PowerList shape violation (e.g. a non-power-of-two source fed
    /// to a PowerList collect).
    Shape(powerlist::Error),
}

impl ExecError {
    /// The panic payload rendered as a string, when this is
    /// [`ExecError::Panicked`] with a `&str` / `String` payload (the
    /// common `panic!("...")` case).
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            ExecError::Panicked(p) => p
                .downcast_ref::<&'static str>()
                .copied()
                .or_else(|| p.downcast_ref::<String>().map(String::as_str)),
            _ => None,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Panicked(_) => match self.panic_message() {
                Some(msg) => write!(f, "task panicked: {msg}"),
                None => write!(f, "task panicked (non-string payload)"),
            },
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::DeadlineExceeded { elapsed } => {
                write!(f, "deadline exceeded after {elapsed:?}")
            }
            ExecError::Shape(e) => write!(f, "shape error: {e}"),
        }
    }
}

// The panic payload is not `Debug`, so `Debug` shares the `Display` body.
impl fmt::Debug for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<powerlist::Error> for ExecError {
    fn from(e: powerlist::Error) -> Self {
        ExecError::Shape(e)
    }
}

/// Why a subtree of a fallible run stopped early. The internal currency
/// of the drivers; the root converts it to an [`ExecError`] via
/// [`ExecSession::error_of`].
pub enum Interrupt {
    /// A task panicked; the payload travels with the interrupt.
    Panicked(Box<dyn Any + Send + 'static>),
    /// A checkpoint observed the tripped token.
    Cancelled(CancelReason),
}

impl Interrupt {
    /// Combines the interrupts of two sibling subtrees: a panic (with
    /// its payload) always outranks a cancellation, and the left panic
    /// wins when both halves panicked (encounter order).
    pub fn merge(self, other: Interrupt) -> Interrupt {
        match (self, other) {
            (i @ Interrupt::Panicked(_), _) => i,
            (_, i @ Interrupt::Panicked(_)) => i,
            (i @ Interrupt::Cancelled(_), _) => i,
        }
    }
}

impl fmt::Debug for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Panicked(_) => f.write_str("Interrupt::Panicked(..)"),
            Interrupt::Cancelled(r) => write!(f, "Interrupt::Cancelled({r:?})"),
        }
    }
}

/// One fallible run's cancellation context: the shared token plus the
/// armed deadline. Cloned into every forked task of the run.
///
/// Drivers call [`ExecSession::check`] at split, leaf-entry and combine
/// points and wrap user code in [`ExecSession::run`]; both produce
/// [`Interrupt`]s that bubble to the root as values, never as unwinds.
#[derive(Clone, Debug)]
pub struct ExecSession {
    token: CancelToken,
    deadline: Option<Deadline>,
}

impl Default for ExecSession {
    fn default() -> Self {
        ExecSession {
            token: CancelToken::new(),
            deadline: None,
        }
    }
}

impl ExecSession {
    /// Arms a session from `cfg`: the caller's token (or a fresh private
    /// one) and the deadline measured from now.
    pub fn new(cfg: &ExecConfig) -> Self {
        ExecSession {
            token: cfg.cancel_token().cloned().unwrap_or_default(),
            deadline: cfg.deadline().map(Deadline::after),
        }
    }

    /// The session's token (e.g. for handing to sibling subsystems).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The armed deadline, when the config set one.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// A cooperative checkpoint: observes a tripped token or an expired
    /// deadline (tripping the token with [`CancelReason::Deadline`] so
    /// sibling tasks see it without re-reading the clock). On `Err`, one
    /// `Event::Cancel` is emitted — the count of pruned checkpoints in a
    /// recorded [`plobs::RunReport`].
    pub fn check(&self) -> Result<(), Interrupt> {
        let reason = match self.token.reason() {
            Some(r) => r,
            None => match self.deadline {
                Some(d) if d.expired() => {
                    self.token.cancel(CancelReason::Deadline);
                    // A racing cancel may have won with another reason.
                    self.token.reason().unwrap_or(CancelReason::Deadline)
                }
                _ => return Ok(()),
            },
        };
        plobs::emit(plobs::Event::Cancel { reason });
        Err(Interrupt::Cancelled(reason))
    }

    /// Runs a piece of user code under panic containment: a panic trips
    /// the token with [`CancelReason::Panic`] (so sibling subtrees
    /// short-circuit) and comes back as [`Interrupt::Panicked`].
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> Result<R, Interrupt> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(v) => Ok(v),
            Err(payload) => {
                self.token.cancel(CancelReason::Panic);
                Err(Interrupt::Panicked(payload))
            }
        }
    }

    /// Like [`ExecSession::new`], but always arms a fresh private token,
    /// even when `cfg` carries a caller-held one. Search drivers run on
    /// a private session so their `Found` short-circuit (and panic
    /// containment) never trips a token the caller may reuse across
    /// runs; the caller's token is observed separately at every
    /// checkpoint (see [`crate::search::SearchSession`]).
    pub(crate) fn private(cfg: &ExecConfig) -> Self {
        ExecSession {
            token: CancelToken::new(),
            deadline: cfg.deadline().map(Deadline::after),
        }
    }

    /// Converts a root-level [`Interrupt`] into the public error.
    pub fn error_of(&self, interrupt: Interrupt) -> ExecError {
        match interrupt {
            Interrupt::Panicked(p) => ExecError::Panicked(p),
            Interrupt::Cancelled(CancelReason::Deadline) => ExecError::DeadlineExceeded {
                elapsed: self.deadline.map_or(Duration::ZERO, |d| d.elapsed()),
            },
            Interrupt::Cancelled(_) => ExecError::Cancelled,
        }
    }
}

/// The single definition of infallible-shim semantics: every infallible
/// terminal (`collect`, `reduce`, `count`, the quantifiers, …) is a
/// documented shim that calls its fallible `try_` twin and finishes
/// through here. A contained panic resumes on the caller, exactly as if
/// the terminal had run inline; any other failure (cancellation,
/// deadline, shape) aborts with a message pointing at the `try_` twin —
/// those can only arise when the stream's [`ExecConfig`] armed
/// fault-tolerance knobs, and callers who arm them should be calling
/// the fallible surface.
pub(crate) fn finish_infallible<R>(result: Result<R, ExecError>, op: &str) -> R {
    match result {
        Ok(v) => v,
        Err(ExecError::Panicked(payload)) => std::panic::resume_unwind(payload),
        Err(e) => panic!("stream {op} failed: {e}; use the try_ variant for fallible execution"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_parallel_and_unset() {
        let _serial = crate::test_serial::shared();
        let cfg = ExecConfig::default();
        assert_eq!(cfg.mode(), ExecMode::Par);
        assert!(cfg.pool().is_none());
        assert!(cfg.policy().is_none());
        assert!(cfg.deadline().is_none());
        assert!(cfg.cancel_token().is_none());
        assert!(cfg.fallback_threshold().is_none());
        assert!(cfg.ranks().is_none());
        assert!(cfg.tuner().is_none());
        assert!(cfg.placement(), "placement route is on by default");
    }

    #[test]
    fn auto_tune_attaches_a_shared_cache() {
        let _serial = crate::test_serial::shared();
        let cache = Arc::new(pltune::PlanCache::new());
        let cfg = ExecConfig::par().auto_tune(Arc::clone(&cache));
        assert!(Arc::ptr_eq(cfg.tuner().unwrap(), &cache));
        // Cloning the config shares the same cache.
        assert!(Arc::ptr_eq(cfg.clone().tuner().unwrap(), &cache));
    }

    #[test]
    fn builder_sets_every_knob() {
        let _serial = crate::test_serial::shared();
        let token = CancelToken::new();
        let cfg = ExecConfig::seq()
            .with_leaf_size(0) // clamped to 1
            .with_deadline(Duration::from_millis(5))
            .with_cancel_token(token.clone())
            .with_fallback_threshold(8)
            .with_ranks(4)
            .with_placement(false);
        assert_eq!(cfg.mode(), ExecMode::Seq);
        assert!(!cfg.placement());
        assert_eq!(cfg.policy(), Some(SplitPolicy::Fixed(1)));
        assert_eq!(cfg.deadline(), Some(Duration::from_millis(5)));
        assert_eq!(cfg.fallback_threshold(), Some(8));
        assert_eq!(cfg.ranks(), Some(4));
        token.cancel(CancelReason::User);
        assert!(cfg.cancel_token().unwrap().is_cancelled());
    }

    #[test]
    fn session_check_observes_token_and_deadline() {
        let _serial = crate::test_serial::shared();
        let s = ExecSession::default();
        assert!(s.check().is_ok());
        s.token().cancel(CancelReason::User);
        assert!(matches!(
            s.check(),
            Err(Interrupt::Cancelled(CancelReason::User))
        ));

        let cfg = ExecConfig::par().with_deadline(Duration::ZERO);
        let s = ExecSession::new(&cfg);
        assert!(matches!(
            s.check(),
            Err(Interrupt::Cancelled(CancelReason::Deadline))
        ));
        // The expiry tripped the shared token for siblings.
        assert_eq!(s.token().reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn session_run_contains_panics_and_trips_token() {
        let _serial = crate::test_serial::shared();
        let s = ExecSession::default();
        let r = s.run(|| -> i32 { panic!("leaf bang") });
        match r {
            Err(Interrupt::Panicked(_)) => {}
            _ => panic!("expected a contained panic"),
        }
        assert_eq!(s.token().reason(), Some(CancelReason::Panic));
        // Values pass through untouched.
        assert_eq!(s.run(|| 5).ok(), Some(5));
    }

    #[test]
    fn merge_prefers_panics() {
        let _serial = crate::test_serial::shared();
        let p = Interrupt::Panicked(Box::new("x"));
        let c = Interrupt::Cancelled(CancelReason::Panic);
        assert!(matches!(c.merge(p), Interrupt::Panicked(_)));
        let c1 = Interrupt::Cancelled(CancelReason::User);
        let c2 = Interrupt::Cancelled(CancelReason::Deadline);
        assert!(matches!(
            c1.merge(c2),
            Interrupt::Cancelled(CancelReason::User)
        ));
    }

    #[test]
    fn exec_error_formatting_and_message() {
        let _serial = crate::test_serial::shared();
        let e = ExecError::Panicked(Box::new("boom"));
        assert_eq!(e.panic_message(), Some("boom"));
        assert!(e.to_string().contains("boom"));
        let e = ExecError::Panicked(Box::new(String::from("sboom")));
        assert_eq!(e.panic_message(), Some("sboom"));
        let e = ExecError::Panicked(Box::new(17u32));
        assert_eq!(e.panic_message(), None);
        assert!(e.to_string().contains("non-string"));
        assert!(ExecError::Cancelled.to_string().contains("cancelled"));
        let e = ExecError::DeadlineExceeded {
            elapsed: Duration::from_millis(3),
        };
        assert!(e.to_string().contains("deadline"));
        let e: ExecError = powerlist::Error::NotPowerOfTwo(12).into();
        assert!(e.to_string().contains("power of two"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_of_maps_reasons() {
        let _serial = crate::test_serial::shared();
        let cfg = ExecConfig::par().with_deadline(Duration::ZERO);
        let s = ExecSession::new(&cfg);
        let i = s.check().unwrap_err();
        assert!(matches!(s.error_of(i), ExecError::DeadlineExceeded { .. }));
        let s = ExecSession::default();
        assert!(matches!(
            s.error_of(Interrupt::Cancelled(CancelReason::User)),
            ExecError::Cancelled
        ));
        assert!(matches!(
            s.error_of(Interrupt::Panicked(Box::new(()))),
            ExecError::Panicked(_)
        ));
    }
}

//! Executors: the separated execution strategies of JPLF.
//!
//! "An important advantage of the framework is the fact that the
//! execution is managed separately from the PowerList function
//! definition" (paper, Section III). The [`Executor`] trait captures
//! that separation: every executor runs any [`PowerFunction`] purely
//! through its four primitives.
//!
//! * [`SequentialExecutor`] — the reference template-method recursion;
//! * [`ForkJoinExecutor`] — multithreading on the work-stealing pool
//!   (JPLF's tested executor, like Java parallel streams);
//! * [`MpiExecutor`] — SPMD execution over the simulated MPI substrate:
//!   scatter of descended leaf problems, local computation, binomial
//!   combine tree.

pub mod forkjoin_exec;
pub mod mpi;
pub mod sequential;

pub use forkjoin_exec::ForkJoinExecutor;
pub use mpi::MpiExecutor;
pub use sequential::SequentialExecutor;

use crate::function::PowerFunction;
use powerlist::PowerView;

pub use jstreams::{ExecConfig, ExecError};

/// A strategy for running [`PowerFunction`]s.
///
/// `Clone + Sync` on the function lets executors replicate instances
/// across workers/ranks; all JPLF-style function objects are cheap
/// parameter carriers, so cloning is trivial.
///
/// Every executor offers two surfaces: the historical infallible
/// [`Executor::execute`], and the fault-tolerant
/// [`Executor::try_execute`] which runs under the session limits of a
/// [`jstreams::ExecConfig`] — the same configuration object the streams
/// front-end consumes — containing panics in the function's primitives
/// and honouring cancel tokens and deadlines at every split, leaf and
/// combine point.
pub trait Executor {
    /// Runs `f` on `input` and returns the function's result.
    fn execute<F>(&self, f: &F, input: &PowerView<F::Elem>) -> F::Out
    where
        F: PowerFunction + Clone + Sync;

    /// Fallibly runs `f` on `input` under the deadline / cancel token of
    /// `cfg`. A panic in any primitive (`basic_case`, `combine`,
    /// `create_left`/`create_right`, `transform_halves`, `leaf_case`)
    /// surfaces as [`ExecError::Panicked`] instead of unwinding, and
    /// trips the run's token so sibling subtrees (or ranks) stop early.
    ///
    /// `cfg`'s pool/policy/rank knobs do **not** reconfigure an already
    /// constructed executor — build one with the `from_config`
    /// constructors for that; only the session limits (deadline, cancel
    /// token, fallback threshold) apply per call.
    fn try_execute<F>(
        &self,
        f: &F,
        input: &PowerView<F::Elem>,
        cfg: &ExecConfig,
    ) -> Result<F::Out, ExecError>
    where
        F: PowerFunction + Clone + Sync;
}

/// Resumes a contained panic and panics on any other failure — the
/// finishing move of the infallible shims over `try_` twins (mirrors the
/// streams front-end).
pub(crate) fn finish<R>(result: Result<R, ExecError>, op: &str) -> R {
    match result {
        Ok(v) => v,
        Err(ExecError::Panicked(payload)) => std::panic::resume_unwind(payload),
        Err(e) => panic!("jplf {op} failed: {e}; use the try_ variant for fallible execution"),
    }
}

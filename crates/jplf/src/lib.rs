//! # jplf — the JPLF framework, ported
//!
//! A Rust port of the JPLF framework the paper builds on (Section III):
//! divide-and-conquer *PowerList functions* defined through the template
//! method pattern and executed by interchangeable strategies.
//!
//! * [`PowerFunction`] — the template: `basic_case`, `combine`,
//!   `create_left` / `create_right` (the descending phase), plus an
//!   optional descending-phase data transform for Eq.-5-style functions;
//! * [`SequentialExecutor`] — reference semantics;
//! * [`ForkJoinExecutor`] — multithreading over the work-stealing pool;
//! * [`MpiExecutor`] — SPMD execution over the in-process
//!   [MPI simulation](mpisim) (scatter → local compute → binomial
//!   combine), standing in for the cluster executors of the paper.
//!
//! The three phases of a PowerList function execution (Section III) map
//! directly: *descending/splitting* = deconstruction + `create_*` +
//! `transform_halves`; *leaf* = `basic_case` (or the sequential template
//! below an executor's threshold); *ascending/combining* = `combine`.
//!
//! ```
//! use jplf::{Decomp, PowerFunction, Executor, SequentialExecutor, ForkJoinExecutor};
//! use powerlist::tabulate;
//!
//! #[derive(Clone)]
//! struct Sum;
//! impl PowerFunction for Sum {
//!     type Elem = i64;
//!     type Out = i64;
//!     fn decomposition(&self) -> Decomp { Decomp::Tie }
//!     fn basic_case(&self, v: &i64) -> i64 { *v }
//!     fn create_left(&self) -> Self { Sum }
//!     fn create_right(&self) -> Self { Sum }
//!     fn combine(&self, l: i64, r: i64) -> i64 { l + r }
//! }
//!
//! let p = tabulate(1024, |i| i as i64).unwrap();
//! let seq = SequentialExecutor::new().execute(&Sum, &p.clone().view());
//! let par = ForkJoinExecutor::new(4, 64).execute(&Sum, &p.clone().view());
//! assert_eq!(seq, par);
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod function;
pub mod mpisim;
pub mod plist_function;
pub mod search;
pub mod trace;

pub use executor::{
    ExecConfig, ExecError, Executor, ForkJoinExecutor, MpiExecutor, SequentialExecutor,
};
pub use function::{
    compute_on_list, compute_sequential, try_compute_sequential, Decomp, PowerFunction,
    TransformedHalves,
};
pub use plist_function::{compute_plist_sequential, NWayReduce, PListFunction};
pub use search::{Not, PowerSearchFunction, SearchExecutor};
pub use trace::{compute_traced, compute_with_sink, PhaseTrace};

/// Serialises unit tests around the process-global `plobs` sink: a test
/// that records a `RunReport` holds [`exclusive`](test_serial::exclusive)
/// so no concurrently running executor leaks events into it; every
/// other test that runs an executor holds
/// [`shared`](test_serial::shared).
#[cfg(test)]
mod test_serial {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(|e| e.into_inner())
    }
}

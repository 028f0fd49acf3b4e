//! The sequential executor: the reference semantics.

use crate::executor::{ExecConfig, ExecError, Executor};
use crate::function::{compute_sequential, try_compute_sequential, PowerFunction};
use jstreams::ExecSession;
use powerlist::PowerView;

/// Runs the template-method recursion on the calling thread.
///
/// Every other executor is tested against this one: for any function and
/// input, all executors must return the same value (the determinism
/// property of the PowerList algebra).
#[derive(Debug, Default, Clone, Copy)]
pub struct SequentialExecutor;

impl SequentialExecutor {
    /// Creates the executor.
    pub fn new() -> Self {
        SequentialExecutor
    }

    /// Unified-config constructor. The sequential strategy has no
    /// pool/policy knobs, so every configuration maps to the same
    /// executor; the constructor exists so all three executors share the
    /// `from_config` surface (the per-call session limits of a config
    /// are honoured by [`Executor::try_execute`], not stored here).
    pub fn from_config(_cfg: &ExecConfig) -> Self {
        SequentialExecutor
    }
}

impl Executor for SequentialExecutor {
    fn execute<F>(&self, f: &F, input: &PowerView<F::Elem>) -> F::Out
    where
        F: PowerFunction + Clone + Sync,
    {
        if plobs::enabled() {
            // Same recursion, but publishing split/leaf/combine events
            // to the globally installed sink.
            crate::trace::compute_with_sink(f, input, &plobs::GlobalSink)
        } else {
            compute_sequential(f, input)
        }
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
        try_compute_sequential(f, input, &session).map_err(|i| session.error_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Decomp;
    use powerlist::{tabulate, PowerList};

    #[derive(Clone)]
    struct Max;

    impl PowerFunction for Max {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Zip
        }
        fn basic_case(&self, v: &i64) -> i64 {
            *v
        }
        fn create_left(&self) -> Self {
            Max
        }
        fn create_right(&self) -> Self {
            Max
        }
        fn combine(&self, l: i64, r: i64) -> i64 {
            l.max(r)
        }
    }

    #[test]
    fn computes_max() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(32, |i| ((i * 37) % 61) as i64).unwrap();
        let expected = *p.iter().max().unwrap();
        assert_eq!(
            SequentialExecutor::new().execute(&Max, &p.clone().view()),
            expected
        );
    }

    #[test]
    fn singleton_is_basic_case() {
        let _serial = crate::test_serial::shared();
        let p = PowerList::singleton(-5i64);
        assert_eq!(
            SequentialExecutor::new().execute(&Max, &p.clone().view()),
            -5
        );
    }
}

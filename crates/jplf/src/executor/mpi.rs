//! The simulated-MPI executor: SPMD divide-and-conquer.
//!
//! JPLF's MPI executors distribute a PowerList function over cluster
//! ranks (paper, Section III; \[20\] details the scaling study). The
//! execution plan is the classical one for tree-shaped computations:
//!
//! 1. **Plan (rank 0)** — descend the deconstruction tree `log2(ranks)`
//!    levels, applying the descending-phase primitives
//!    (`create_left`/`create_right`, `transform_halves`) along every
//!    path; this yields one *leaf problem* (sub-list + descended function
//!    instance + combine-function stack) per rank, in rank order.
//! 2. **Scatter** — leaf problems travel point-to-point to their ranks
//!    (real data movement through the message substrate, as on a real
//!    cluster).
//! 3. **Local leaf phase** — every rank runs the sequential template on
//!    its sub-problem.
//! 4. **Combine tree** — a binomial tree mirrors the deconstruction
//!    tree: at step `s`, ranks whose low `s+1` bits are zero receive
//!    their partner's result and apply the `combine` of the tree node at
//!    depth `k-1-s` of their path. Rank 0 finishes with the result.

use crate::executor::{ExecConfig, ExecError, Executor};
use crate::function::{compute_sequential, try_compute_sequential, Decomp, PowerFunction};
use crate::mpisim::collective::scatter;
use crate::mpisim::comm::run_mpi;
use jstreams::{ExecSession, Interrupt};
use parking_lot::Mutex;
use powerlist::{PowerList, PowerView};
use std::sync::Arc;

/// Tag base for the combine-tree messages.
const COMBINE_TAG_BASE: u64 = 1_000;

/// SPMD executor over simulated MPI ranks.
#[derive(Debug, Clone, Copy)]
pub struct MpiExecutor {
    ranks: usize,
}

impl MpiExecutor {
    /// Executor with `ranks` simulated processes; rounded down to a
    /// power of two (the deconstruction tree is binary), minimum 1.
    pub fn new(ranks: usize) -> Self {
        let ranks = ranks.max(1);
        // Largest power of two ≤ ranks.
        let ranks = 1usize << (usize::BITS - 1 - ranks.leading_zeros());
        MpiExecutor { ranks }
    }

    /// Unified-config constructor: takes the rank count from the
    /// config's `ranks` knob (default: the machine's available
    /// parallelism), with the same power-of-two rounding as
    /// [`MpiExecutor::new`].
    pub fn from_config(cfg: &ExecConfig) -> Self {
        let ranks = cfg.ranks().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Self::new(ranks)
    }

    /// Number of simulated ranks actually used.
    pub fn ranks(&self) -> usize {
        self.ranks
    }
}

/// One rank's work order: the leaf sub-problem plus the stack of function
/// instances along its path (stack[d] = instance at tree depth d; the
/// last entry computes the leaf).
struct LeafProblem<F: PowerFunction> {
    leaf: PowerList<F::Elem>,
    stack: Vec<F>,
}

/// Builds the per-rank leaf problems by descending `depth` levels, in
/// path (= rank) order.
fn plan<F>(f: &F, input: &PowerView<F::Elem>, depth: u32) -> Vec<LeafProblem<F>>
where
    F: PowerFunction + Clone,
{
    fn go<F>(
        f: F,
        view: PowerView<F::Elem>,
        mut stack: Vec<F>,
        depth: u32,
        out: &mut Vec<LeafProblem<F>>,
    ) where
        F: PowerFunction + Clone,
    {
        if depth == 0 {
            stack.push(f);
            out.push(LeafProblem {
                leaf: view.to_powerlist(),
                stack,
            });
            return;
        }
        let (l, r) = match f.decomposition() {
            Decomp::Tie => view.untie().expect("depth bounded by log2(len)"),
            Decomp::Zip => view.unzip().expect("depth bounded by log2(len)"),
        };
        let (fl, fr) = (f.create_left(), f.create_right());
        let (lv, rv) = match f.transform_halves(&l, &r) {
            None => (l, r),
            Some((l2, r2)) => (l2.view(), r2.view()),
        };
        stack.push(f);
        // Both subtrees share the path prefix (including this node).
        let right_stack = stack.clone();
        go(fl, lv, stack, depth - 1, out);
        go(fr, rv, right_stack, depth - 1, out);
    }

    let mut out = Vec::with_capacity(1 << depth);
    go(f.clone(), input.clone(), Vec::new(), depth, &mut out);
    out
}

impl Executor for MpiExecutor {
    fn execute<F>(&self, f: &F, input: &PowerView<F::Elem>) -> F::Out
    where
        F: PowerFunction + Clone + Sync,
    {
        // Cannot use more ranks than elements.
        let ranks = self.ranks.min(input.len());
        let k = powerlist::log2_exact(ranks);

        if ranks == 1 {
            return compute_sequential(f, input);
        }

        // Rank 0 consumes the plan; hand it through a Mutex'd Option so
        // the SPMD closure stays `Fn`.
        let problems = plan(f, input, k);
        let plan_slot: Arc<Mutex<Option<Vec<LeafProblem<F>>>>> =
            Arc::new(Mutex::new(Some(problems)));

        let results = run_mpi(ranks, move |comm| {
            let rank = comm.rank();
            // Phase 2: scatter the leaf problems.
            let parts = if rank == 0 {
                plan_slot.lock().take()
            } else {
                None
            };
            let LeafProblem { leaf, stack } = scatter(&comm, 0, parts);

            // Phase 3: local leaf computation with the descended
            // function (specialised leaf kernel where the function
            // provides one).
            let leaf_fn = stack.last().expect("stack holds the leaf function");
            let mut acc = leaf_fn.leaf_case(&leaf.view());

            // Phase 4: binomial combine tree.
            for s in 0..k {
                let bit = 1usize << s;
                if rank & ((bit << 1) - 1) == 0 {
                    let partner = rank + bit;
                    if partner < comm.size() {
                        let theirs: F::Out = comm.recv(partner, COMBINE_TAG_BASE + s as u64);
                        // The node at depth k-1-s along this rank's path.
                        let node_fn = &stack[(k - 1 - s) as usize];
                        acc = node_fn.combine(acc, theirs);
                    }
                } else if rank & ((bit << 1) - 1) == bit {
                    comm.send(rank - bit, COMBINE_TAG_BASE + s as u64, acc);
                    return None;
                }
            }
            if rank == 0 {
                Some(acc)
            } else {
                None
            }
        });

        results
            .into_iter()
            .next()
            .expect("rank 0 exists")
            .expect("rank 0 holds the combined result")
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
        let ranks = self.ranks.min(input.len());
        let k = powerlist::log2_exact(ranks);

        let acc: Result<F::Out, Interrupt> = (|| {
            session.check()?;
            if ranks == 1 {
                return try_compute_sequential(f, input, &session);
            }

            // Planning runs user primitives, so it too is contained; a
            // panic here never reaches the ranks.
            let problems = session.run(|| plan(f, input, k))?;
            let plan_slot: Arc<Mutex<Option<Vec<LeafProblem<F>>>>> =
                Arc::new(Mutex::new(Some(problems)));

            let s2 = session.clone();
            let results = run_mpi(ranks, move |comm| {
                let rank = comm.rank();
                let parts = if rank == 0 {
                    plan_slot.lock().take()
                } else {
                    None
                };
                let LeafProblem { leaf, stack } = scatter(&comm, 0, parts);

                let leaf_fn = stack.last().expect("stack holds the leaf function");
                let mut acc: Result<F::Out, Interrupt> = s2
                    .check()
                    .and_then(|()| s2.run(|| leaf_fn.leaf_case(&leaf.view())));

                // The combine tree carries `Result`s: a failed rank still
                // sends its `Err` upward, so no partner ever hangs waiting
                // for a rank that panicked or observed cancellation.
                for s in 0..k {
                    let bit = 1usize << s;
                    if rank & ((bit << 1) - 1) == 0 {
                        let partner = rank + bit;
                        if partner < comm.size() {
                            let theirs: Result<F::Out, Interrupt> =
                                comm.recv(partner, COMBINE_TAG_BASE + s as u64);
                            let node_fn = &stack[(k - 1 - s) as usize];
                            acc = match (acc, theirs) {
                                (Ok(l), Ok(r)) => {
                                    s2.check().and_then(|()| s2.run(|| node_fn.combine(l, r)))
                                }
                                (Err(a), Err(b)) => Err(a.merge(b)),
                                (Err(a), Ok(_)) | (Ok(_), Err(a)) => Err(a),
                            };
                        }
                    } else if rank & ((bit << 1) - 1) == bit {
                        comm.send(rank - bit, COMBINE_TAG_BASE + s as u64, acc);
                        return None;
                    }
                }
                if rank == 0 {
                    Some(acc)
                } else {
                    None
                }
            });

            results
                .into_iter()
                .next()
                .expect("rank 0 exists")
                .expect("rank 0 holds the combined result")
        })();
        acc.map_err(|i| session.error_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SequentialExecutor;
    use powerlist::tabulate;

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

    /// Non-commutative but associative: catches wrong combine ordering.
    #[derive(Clone)]
    struct Concat;

    impl PowerFunction for Concat {
        type Elem = u8;
        type Out = String;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &u8) -> String {
            format!("{v},")
        }
        fn create_left(&self) -> Self {
            Concat
        }
        fn create_right(&self) -> Self {
            Concat
        }
        fn combine(&self, l: String, r: String) -> String {
            l + &r
        }
    }

    /// Zip-decomposed map: the scatter must follow parity classes.
    #[derive(Clone)]
    struct Neg;

    impl PowerFunction for Neg {
        type Elem = i64;
        type Out = PowerList<i64>;
        fn decomposition(&self) -> Decomp {
            Decomp::Zip
        }
        fn basic_case(&self, v: &i64) -> PowerList<i64> {
            PowerList::singleton(-v)
        }
        fn create_left(&self) -> Self {
            Neg
        }
        fn create_right(&self) -> Self {
            Neg
        }
        fn combine(&self, l: PowerList<i64>, r: PowerList<i64>) -> PowerList<i64> {
            PowerList::zip(l, r)
        }
    }

    #[test]
    fn rank_rounding() {
        let _serial = crate::test_serial::shared();
        assert_eq!(MpiExecutor::new(1).ranks(), 1);
        assert_eq!(MpiExecutor::new(2).ranks(), 2);
        assert_eq!(MpiExecutor::new(3).ranks(), 2);
        assert_eq!(MpiExecutor::new(7).ranks(), 4);
        assert_eq!(MpiExecutor::new(8).ranks(), 8);
        assert_eq!(MpiExecutor::new(0).ranks(), 1);
    }

    #[test]
    fn sum_matches_sequential_across_rank_counts() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(256, |i| i as i64 * 3 - 100).unwrap();
        let expected = SequentialExecutor::new().execute(&Sum, &p.clone().view());
        for ranks in [1, 2, 4, 8] {
            assert_eq!(
                MpiExecutor::new(ranks).execute(&Sum, &p.clone().view()),
                expected,
                "ranks={ranks}"
            );
        }
    }

    #[test]
    fn noncommutative_combine_order_is_correct() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(16, |i| i as u8).unwrap();
        let expected = SequentialExecutor::new().execute(&Concat, &p.clone().view());
        for ranks in [2, 4, 8] {
            assert_eq!(
                MpiExecutor::new(ranks).execute(&Concat, &p.clone().view()),
                expected,
                "ranks={ranks}"
            );
        }
    }

    #[test]
    fn zip_decomposition_scatters_parity_classes() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(64, |i| i as i64).unwrap();
        let expected = SequentialExecutor::new().execute(&Neg, &p.clone().view());
        for ranks in [2, 4] {
            let out = MpiExecutor::new(ranks).execute(&Neg, &p.clone().view());
            assert_eq!(out, expected, "ranks={ranks}");
        }
    }

    #[test]
    fn more_ranks_than_elements_clamps() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(4, |i| i as i64).unwrap();
        assert_eq!(MpiExecutor::new(16).execute(&Sum, &p.clone().view()), 6);
    }

    #[test]
    fn singleton_input_short_circuits() {
        let _serial = crate::test_serial::shared();
        let p = PowerList::singleton(11i64);
        assert_eq!(MpiExecutor::new(8).execute(&Sum, &p.clone().view()), 11);
    }

    #[test]
    fn from_config_takes_ranks_knob() {
        let _serial = crate::test_serial::shared();
        assert_eq!(
            MpiExecutor::from_config(&ExecConfig::par().with_ranks(6)).ranks(),
            4
        );
        assert!(MpiExecutor::from_config(&ExecConfig::par()).ranks() >= 1);
    }

    #[test]
    fn try_execute_happy_path_matches_execute() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(128, |i| i as i64 * 7 - 50).unwrap();
        for ranks in [1, 2, 4] {
            let exec = MpiExecutor::new(ranks);
            let plain = exec.execute(&Sum, &p.clone().view());
            assert_eq!(
                exec.try_execute(&Sum, &p.clone().view(), &ExecConfig::par())
                    .ok(),
                Some(plain),
                "ranks={ranks}"
            );
        }
    }

    /// Sum whose basic case panics on one poisoned value — the leaf
    /// phase of exactly one rank fails; its `Err` must travel the
    /// combine tree without deadlocking any partner.
    #[derive(Clone)]
    struct PoisonSum(i64);

    impl PowerFunction for PoisonSum {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> i64 {
            assert!(*v != self.0, "rank hit poison {v}");
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
    fn try_execute_contains_rank_panics() {
        let _serial = crate::test_serial::shared();
        let p = tabulate(64, |i| i as i64).unwrap();
        for ranks in [2, 4, 8] {
            let err = MpiExecutor::new(ranks)
                .try_execute(&PoisonSum(40), &p.clone().view(), &ExecConfig::par())
                .expect_err("poisoned leaf must surface as an error");
            assert_eq!(
                err.panic_message(),
                Some("rank hit poison 40"),
                "ranks={ranks}"
            );
        }
    }

    #[test]
    fn try_execute_honours_pre_cancelled_token() {
        let _serial = crate::test_serial::shared();
        let token = jstreams::CancelToken::new();
        token.cancel(jstreams::CancelReason::User);
        let p = tabulate(32, |i| i as i64).unwrap();
        let err = MpiExecutor::new(4)
            .try_execute(&Sum, &p.view(), &ExecConfig::par().with_cancel_token(token))
            .err();
        assert!(matches!(err, Some(ExecError::Cancelled)), "got {err:?}");
    }
}

//! Cross-checks the calibrator against the `simsched` analytical model:
//! the candidate grid must bracket the model's optimal granularity, the
//! model must agree that pathological granularity loses by at least the
//! benchmark acceptance margin, and a live sweep's winner must land at
//! a granularity the model considers near-optimal. Together these pin
//! that the tuner searches the right region for the right reason — not
//! merely that it picks *something*.

use forkjoin::{ForkJoinPool, SplitPolicy};
use pltune::{candidate_policies, run_sweep};
use simsched::{adaptive_leaf_size, predict_poly, MachineModel};
use std::sync::Arc;

/// Predicted parallel time (ms) of the polynomial workload at a given
/// leaf granularity on `machine`.
fn par_ms(machine: &MachineModel, n: usize, leaf: usize) -> f64 {
    predict_poly(machine, n, Some(leaf.max(1)), false).par_ms
}

/// The model's best leaf over a dense power-of-two scan. Leaves below
/// 2^6 are excluded: split overhead alone makes them strictly worse,
/// and simulating their million-task DAGs dominates test wall time.
fn model_best_leaf(machine: &MachineModel, n: usize) -> usize {
    (6..=n.trailing_zeros())
        .map(|k| 1usize << k)
        .min_by(|&a, &b| par_ms(machine, n, a).total_cmp(&par_ms(machine, n, b)))
        .expect("non-empty scan")
}

/// The equilibrium leaf size a candidate policy converges to, in the
/// model's terms: fixed policies use their leaf directly, the adaptive
/// policy its steady-state granularity under sustained demand.
fn equilibrium_leaf(policy: SplitPolicy, n: usize, cores: usize) -> usize {
    match policy {
        SplitPolicy::Fixed(leaf) => leaf,
        SplitPolicy::Adaptive(a) => adaptive_leaf_size(n, cores, a.depth_slack, a.min_leaf),
    }
}

/// The candidate grid the sweep searches must contain a policy whose
/// equilibrium granularity the model scores within 10% of its true
/// optimum — the structural reason a sweep over the grid can find a
/// near-best plan (the `autotune` ledger rows' acceptance bound).
#[test]
fn candidate_grid_brackets_the_model_optimum() {
    let machine = MachineModel::paper_8core();
    let n = 1 << 20;
    let best = par_ms(&machine, n, model_best_leaf(&machine, n));
    let grid_best = candidate_policies(n, machine.cores)
        .into_iter()
        .map(|p| par_ms(&machine, n, equilibrium_leaf(p, n, machine.cores)))
        .min_by(f64::total_cmp)
        .expect("non-empty grid");
    assert!(
        grid_best <= best * 1.10,
        "best candidate predicts {grid_best:.4} ms vs model optimum {best:.4} ms"
    );
}

/// The model must reproduce the benchmark's worst-case margin: a
/// single-element leaf (the deliberately pathological arm of the
/// autotune bench) loses to the best candidate by at least the 1.3×
/// acceptance bound, at every paper-scale size.
#[test]
fn model_agrees_pathological_granularity_loses() {
    let machine = MachineModel::paper_8core();
    for k in [14, 16, 18] {
        let n = 1usize << k;
        let grid_best = candidate_policies(n, machine.cores)
            .into_iter()
            .map(|p| par_ms(&machine, n, equilibrium_leaf(p, n, machine.cores)))
            .min_by(f64::total_cmp)
            .expect("non-empty grid");
        let pathological = par_ms(&machine, n, 1);
        assert!(
            pathological >= grid_best * 1.3,
            "2^{k}: leaf-1 predicts {pathological:.4} ms, best candidate {grid_best:.4} ms"
        );
    }
}

/// A live sweep's winner, translated to its equilibrium granularity,
/// must be near-optimal *in the model* for the pool it was calibrated
/// on — the sweep and the simulator have to agree on direction, or one
/// of them is measuring the wrong trade-off.
#[test]
fn live_sweep_winner_is_model_near_optimal() {
    let pool = Arc::new(ForkJoinPool::new(2));
    let n = 1 << 14;
    let candidates = candidate_policies(n, pool.threads());
    let plan = run_sweep(&pool, n, &candidates);

    let machine = MachineModel::paper_8core().with_cores(pool.threads());
    let winner_ms = par_ms(
        &machine,
        n,
        equilibrium_leaf(plan.policy, n, pool.threads()),
    );
    let grid_best = candidates
        .iter()
        .map(|&p| par_ms(&machine, n, equilibrium_leaf(p, n, pool.threads())))
        .min_by(f64::total_cmp)
        .expect("non-empty grid");
    // Loose bound on purpose: the live sweep times a real machine, the
    // model an idealised one; they must agree on the region, not the
    // exact ranking.
    assert!(
        winner_ms <= grid_best * 1.5,
        "live winner {:?} predicts {winner_ms:.4} ms vs grid best {grid_best:.4} ms",
        plan.policy
    );
}

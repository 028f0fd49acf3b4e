//! The paper's Figures 3–4 and the ablations its discussion motivates,
//! as ledger rows.
//!
//! ```text
//! figures [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends `plbench.ab.v1` rows (see `plbench::ab`) at the log₂ sizes
//! `K−4`, `K−2` and `K` (default `K` = 24: 2^20, 2^22, 2^24), one row
//! per workload and size, all parallel arms on the host's cores:
//!
//! * `poly` — Figures 3–4 and Ablation D: polynomial evaluation as the
//!   sequential stream (`seq`), the paper's hooked zip collect on the
//!   JVM's task tree (`par`), the tupled tie collect (`tupled`), the
//!   JPLF fork-join executor on `vp` and on the tupled function (`jplf`,
//!   `tupled_jplf`), `horner`, and the indexed map+sum loop that
//!   recomputes `x^i` per element (`hand_map_sum`). `extra.sim8` and
//!   `extra.sim8_jit_dip` hold the `simsched` 8-core prediction at the
//!   row's size, without and with the modelled JIT anomaly at 2^24.
//! * `tiezip_map`, `tiezip_reduce` — Ablation A: the collect-based map
//!   and reduce over a tie and a zip decomposition (`tie`, `zip`);
//!   `tiezip_map`'s `extra.sim8_ms` holds the 8-core cost model.
//! * `frameworks_reduce`, `frameworks_map` — Ablation B: the JPLF
//!   executor (`jplf`), the streams collect (`stream`), the collect over
//!   a source that hides its borrowed runs (`stream_cloning`, reduce)
//!   and the sequential specification (`spec_seq`, map).
//! * `mpi_vp`, `mpi_reduce` — the MPI ablation: the simulated-MPI
//!   executor at 1, 2, 4 and 8 ranks (`ranks_<r>`) beside the sequential
//!   executor (`sequential`); `mpi_vp`'s `extra.sim8_speedup` holds the
//!   cost model's speedup at each rank count.
//!
//! One `power_sum_stride` row at `2^K` runs the `power_sum` leaf kernel
//! over one span at steps 1, 2, 4 and 8 (`step_<s>`): Ablation A's
//! strided traffic.
//!
//! Arms that compute one exact value are checked against each other
//! before timing; floating-point arms are only timed.

use forkjoin::ForkJoinPool;
use jplf::{Decomp, Executor, ForkJoinExecutor, MpiExecutor, SequentialExecutor};
use jstreams::{stream_support, Decomposition, ReduceCollector, TieSpliterator};
use plalgo::{ReduceFunction, TupledVp, VpFunction};
use plbench::ab::{Ablation, Arm};
use plbench::{random_coeffs, random_ints, Opaque};
use simsched::{predict_poly, MachineModel, PolyPrediction};
use std::sync::Arc;

const EVAL_POINT: f64 = 0.9999993;

/// The rank counts of the MPI rows.
const RANKS: [usize; 4] = [1, 2, 4, 8];

/// A prediction as a JSON object.
fn sim_json(p: &PolyPrediction) -> String {
    format!(
        "{{\"seq_ms\":{:.4},\"par_ms\":{:.4},\"speedup\":{:.4}}}",
        p.seq_ms, p.par_ms, p.speedup
    )
}

fn poly(ab: &Ablation, pool: &Arc<ForkJoinPool>, n: usize) {
    let coeffs = random_coeffs(n, 0xC0FFEE);
    let view = coeffs.clone().view();
    // The JVM's tree (~4 leaves per worker), not the splice route's
    // one-parity-leaf-per-worker default: the `par` arm reproduces the
    // paper's task tree.
    let leaf = jstreams::default_leaf_size(n, pool.threads());
    let exec = ForkJoinExecutor::with_pool(Arc::clone(pool), (n / 16).max(1));
    let slice = coeffs.as_slice();
    let arms = ab.measure::<()>(vec![
        Arm::timed("seq", || {
            plalgo::eval_seq_stream(coeffs.clone(), EVAL_POINT)
        }),
        Arm::timed("par", || {
            let pool = Some(Arc::clone(pool));
            plalgo::eval_par_stream_with(coeffs.clone(), EVAL_POINT, pool, Some(leaf))
        }),
        Arm::timed("tupled", || {
            plalgo::eval_tupled_stream(coeffs.clone(), EVAL_POINT)
        }),
        Arm::timed("jplf", || exec.execute(&VpFunction::new(EVAL_POINT), &view)),
        Arm::timed("tupled_jplf", || {
            exec.execute(&TupledVp::new(EVAL_POINT), &view)
        }),
        Arm::timed("horner", || plalgo::horner(slice, EVAL_POINT)),
        Arm::timed("hand_map_sum", || {
            (slice.iter().enumerate())
                .map(|(i, &a)| a * EVAL_POINT.powi(i as i32))
                .sum::<f64>()
        }),
    ]);
    let machine = MachineModel::paper_8core();
    let row = ab
        .row("poly", n, arms)
        .extra("sim8", sim_json(&predict_poly(&machine, n, None, false)))
        .extra(
            "sim8_jit_dip",
            sim_json(&predict_poly(&machine, n, None, true)),
        );
    ab.append(&row);
}

fn power_sum_stride(ab: &Ablation, n: usize) {
    let coeffs = random_coeffs(n, 0xC0FFEE);
    let arms = [1usize, 2, 4, 8]
        .into_iter()
        .map(|step| {
            let run = &coeffs.as_slice()[..(n / step).saturating_sub(1) * step + 1];
            Arm::timed(format!("step_{step}"), move || {
                plalgo::power_sum(run, step, EVAL_POINT)
            })
        })
        .collect();
    ab.append(&ab.row("power_sum_stride", n, ab.measure::<()>(arms)));
}

fn tiezip(ab: &Ablation, n: usize) {
    let data = &random_ints(n, 0xA11CE);
    let decomps = [("tie", Decomposition::Tie), ("zip", Decomposition::Zip)];
    let arms = decomps.map(|(name, d)| {
        Arm::new(name, move || {
            plalgo::map_stream(data.clone(), d, |x| x * 3 + 1)
        })
    });
    let model = simsched::MapCostModel::default();
    let (tie, zip) = simsched::predict_map_collect(8, n, (n / 32).max(1), &model);
    let sim = format!("{{\"tie\":{tie:.4},\"zip\":{zip:.4}}}");
    let row = ab.row("tiezip_map", n, ab.measure(arms.into()));
    ab.append(&row.extra("sim8_ms", sim));

    let arms = decomps.map(|(name, d)| {
        Arm::new(name, move || {
            plalgo::reduce_stream(data.clone(), d, 0i64, |a, b| a + b)
        })
    });
    ab.append(&ab.row("tiezip_reduce", n, ab.measure(arms.into())));
}

fn frameworks(ab: &Ablation, pool: &Arc<ForkJoinPool>, n: usize) {
    let data = random_ints(n, 0xA11CE);
    let view = data.clone().view();
    let exec = ForkJoinExecutor::with_pool(Arc::clone(pool), (n / 16).max(1));
    let reduce_fn = ReduceFunction::new(Decomp::Tie, |a: &i64, b: &i64| a + b);
    let arms = ab.measure(vec![
        Arm::new("jplf", || exec.execute(&reduce_fn, &view)),
        Arm::new("stream", || {
            plalgo::reduce_stream(data.clone(), Decomposition::Tie, 0, |a, b| a + b)
        }),
        Arm::new("stream_cloning", || {
            stream_support(Opaque(TieSpliterator::over(data.clone())), true)
                .with_pool(Arc::clone(pool))
                .collect(ReduceCollector::new(0i64, |a, b| a + b))
        }),
    ]);
    ab.append(&ab.row("frameworks_reduce", n, arms));

    let map_fn = plalgo::MapFunction::new(Decomp::Tie, |x: &i64| x * 2 + 1);
    let arms = ab.measure(vec![
        Arm::new("jplf", || exec.execute(&map_fn, &view)),
        Arm::new("stream", || {
            plalgo::map_stream(data.clone(), Decomposition::Tie, |x| x * 2 + 1)
        }),
        Arm::new("spec_seq", || powerlist::ops::map(&data, |x| x * 2 + 1)),
    ]);
    ab.append(&ab.row("frameworks_map", n, arms));
}

fn mpi(ab: &Ablation, n: usize) {
    let machine = MachineModel::paper_8core();
    let coeffs = random_coeffs(n, 0xC0FFEE).view();
    let vp = VpFunction::new(EVAL_POINT);
    let mut arms = vec![Arm::timed("sequential", || {
        SequentialExecutor::new().execute(&vp, &coeffs)
    })];
    let mut sim = Vec::new();
    for ranks in RANKS {
        let exec = MpiExecutor::new(ranks);
        let (vp, coeffs) = (&vp, &coeffs);
        arms.push(Arm::timed(format!("ranks_{ranks}"), move || {
            exec.execute(vp, coeffs)
        }));
        let speedup = predict_poly(&machine.with_cores(ranks), n, None, false).speedup;
        sim.push(format!("\"{ranks}\":{speedup:.4}"));
    }
    let sim = format!("{{{}}}", sim.join(","));
    let row = ab.row("mpi_vp", n, ab.measure::<()>(arms));
    ab.append(&row.extra("sim8_speedup", sim));

    let ints = random_ints(n, 0xA11CE).view();
    let reduce_fn = ReduceFunction::new(Decomp::Tie, |a: &i64, b: &i64| a + b);
    let mut arms = vec![Arm::new("sequential", || {
        SequentialExecutor::new().execute(&reduce_fn, &ints)
    })];
    for ranks in RANKS {
        let exec = MpiExecutor::new(ranks);
        let (reduce_fn, ints) = (&reduce_fn, &ints);
        arms.push(Arm::new(format!("ranks_{ranks}"), move || {
            exec.execute(reduce_fn, ints)
        }));
    }
    ab.append(&ab.row("mpi_reduce", n, ab.measure(arms)));
}

fn main() {
    let pool = Arc::new(ForkJoinPool::with_default_parallelism());
    let ab = Ablation::from_args("figures", 24, pool.threads());
    for n in [ab.n() >> 4, ab.n() >> 2, ab.n()]
        .into_iter()
        .filter(|&n| n > 0)
    {
        poly(&ab, &pool, n);
        tiezip(&ab, n);
        frameworks(&ab, &pool, n);
        mpi(&ab, n);
    }
    power_sum_stride(&ab, ab.n());
}

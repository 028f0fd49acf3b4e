//! The run report's price: one workload with no sink, with a do-nothing
//! sink and under a full recorder.
//!
//! ```text
//! run_report [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Appends two `plbench.ab.v1` rows to the ledger (see `plbench::ab`),
//! one per workload at `2^K` (default 2^18): `reduce`, a tie-decomposed
//! reduce, and `polynomial`, the paper's polynomial evaluation through
//! the parallel stream collect. Each row has three arms:
//!
//! * `baseline` — no sink installed (the `plobs::enabled()` fast path);
//! * `noop_sink` — a do-nothing sink installed, paying event
//!   construction and dispatch;
//! * `recorded` — a full [`plobs::RunRecorder`], whose aggregated
//!   [`plobs::RunReport`] (split depth, leaf-route histogram, phase
//!   shares, steal counts) the arm carries.
//!
//! The baseline/noop pair is the measured form of the
//! zero-cost-when-disabled contract.

use jstreams::Decomposition;
use plbench::ab::{Ablation, Arm};
use plbench::{random_coeffs, random_ints};
use plobs::{Event, EventSink};
use std::sync::Arc;

const EVAL_POINT: f64 = 0.9999993;

/// Sink that receives every event and drops it.
struct NoopSink;

impl EventSink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Measures `f` in the three arms and appends its row.
fn run<R: PartialEq + std::fmt::Debug>(ab: &Ablation, bench: &str, f: impl Fn() -> R) {
    let mut arms = ab.measure(vec![
        Arm::new("baseline", &f),
        Arm::new("noop_sink", || {
            plobs::install(Arc::new(NoopSink));
            let v = f();
            plobs::uninstall();
            v
        }),
        Arm::new("recorded", || plobs::recorded(&f).0),
    ]);
    let report = plobs::recorded(&f).1;
    println!("{}", report.tree_summary());
    arms[2].report = Some(report);
    ab.append(&ab.row(bench, ab.n(), arms));
}

fn main() {
    let ab = Ablation::from_args("run_report", 18, forkjoin::global_pool().threads());
    let ints = random_ints(ab.n(), 0x5EED);
    run(&ab, "reduce", || {
        plalgo::reduce_stream(ints.clone(), Decomposition::Tie, 0i64, |a, b| a + b)
    });
    let coeffs = random_coeffs(ab.n(), 0xC0FFEE);
    run(&ab, "polynomial", || {
        plalgo::eval_par_stream(coeffs.clone(), EVAL_POINT)
    });
}

//! Phase instrumentation: measuring the three phases of a PowerList
//! function execution.
//!
//! Section III distinguishes the *descending/splitting*, *leaf*, and
//! *ascending/combining* phases; the paper's analysis (Section V) hinges
//! on where a function does its work — `map`/`reduce`/`fft` do nothing
//! on the way down, the polynomial evaluation squares `x` per level,
//! Eq.-5 functions transform whole sublists.
//!
//! The instrumented recursion is [`compute_with_sink`]: it publishes one
//! structured [`plobs::Event`] per split, leaf and combine to any
//! [`EventSink`] — the same event vocabulary the streams collect driver
//! and the fork-join pool use, so JPLF executions aggregate into the
//! same [`plobs::RunReport`]. [`compute_traced`] (the historical entry
//! point) feeds a recorder that is **local to the call** — it is never
//! installed globally, so concurrent traced runs cannot cross-talk —
//! and condenses the report into the small [`PhaseTrace`] summary.

use crate::function::{Decomp, PowerFunction};
use plobs::{Event, EventSink, LeafRoute, RunRecorder, RunReport};
use powerlist::PowerView;
use std::time::Instant;

/// Counts and cumulative times of the three execution phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTrace {
    /// Deconstruction steps performed (interior nodes).
    pub splits: u64,
    /// Basic cases evaluated (singletons reached).
    pub leaves: u64,
    /// Combine steps performed (interior nodes).
    pub combines: u64,
    /// Nanoseconds in the descending phase (deconstruction +
    /// `create_*` + `transform_halves`).
    pub descend_ns: u64,
    /// Nanoseconds in the leaf phase (`basic_case`).
    pub leaf_ns: u64,
    /// Nanoseconds in the ascending phase (`combine`).
    pub ascend_ns: u64,
}

impl PhaseTrace {
    /// Fraction of traced time spent descending — near zero for
    /// map/reduce/FFT, substantial for Eq.-5 data-transforming
    /// functions.
    pub fn descend_share(&self) -> f64 {
        let total = (self.descend_ns + self.leaf_ns + self.ascend_ns) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.descend_ns as f64 / total
        }
    }

    /// Fraction of traced time spent combining.
    pub fn ascend_share(&self) -> f64 {
        let total = (self.descend_ns + self.leaf_ns + self.ascend_ns) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.ascend_ns as f64 / total
        }
    }

    /// Condenses a full [`RunReport`] into the per-phase summary. JPLF
    /// leaves are singleton basic cases, recorded under the
    /// [`LeafRoute::Template`] route.
    pub fn from_report(report: &RunReport) -> PhaseTrace {
        PhaseTrace {
            splits: report.splits,
            leaves: report.routes.total_leaves(),
            combines: report.combines,
            descend_ns: report.descend_ns,
            leaf_ns: report.leaf_ns,
            ascend_ns: report.ascend_ns,
        }
    }
}

/// Runs the sequential template while tracing the three phases into a
/// call-local recorder (never installed globally).
pub fn compute_traced<F: PowerFunction>(f: &F, input: &PowerView<F::Elem>) -> (F::Out, PhaseTrace) {
    let recorder = RunRecorder::new();
    let out = compute_with_sink(f, input, &recorder);
    (out, PhaseTrace::from_report(&recorder.finish()))
}

/// Runs the sequential template, publishing one event per split, leaf
/// and combine to `sink`. Pass [`plobs::GlobalSink`] to forward into
/// whatever sink is globally installed, or a local
/// [`RunRecorder`] for an isolated trace.
pub fn compute_with_sink<F: PowerFunction>(
    f: &F,
    input: &PowerView<F::Elem>,
    sink: &dyn EventSink,
) -> F::Out {
    go(f, input, 0, sink)
}

fn go<F: PowerFunction>(
    f: &F,
    input: &PowerView<F::Elem>,
    depth: u32,
    sink: &dyn EventSink,
) -> F::Out {
    if input.is_singleton() {
        let t0 = Instant::now();
        let out = f.basic_case(input.singleton_value());
        sink.record(&Event::Leaf {
            route: LeafRoute::Template,
            items: 1,
            ns: t0.elapsed().as_nanos() as u64,
        });
        return out;
    }

    // Descending phase.
    let t0 = Instant::now();
    let (l, r) = match f.decomposition() {
        Decomp::Tie => input.untie().expect("non-singleton"),
        Decomp::Zip => input.unzip().expect("non-singleton"),
    };
    let (fl, fr) = (f.create_left(), f.create_right());
    let transformed = f.transform_halves(&l, &r);
    sink.record(&Event::Split {
        depth,
        adaptive: false,
    });
    sink.record(&Event::DescendNs {
        ns: t0.elapsed().as_nanos() as u64,
    });

    let (lo, ro) = match transformed {
        None => (go(&fl, &l, depth + 1, sink), go(&fr, &r, depth + 1, sink)),
        Some((l2, r2)) => (
            go(&fl, &l2.view(), depth + 1, sink),
            go(&fr, &r2.view(), depth + 1, sink),
        ),
    };

    // Ascending phase.
    let t0 = Instant::now();
    let out = f.combine(lo, ro);
    sink.record(&Event::Combine {
        depth,
        ns: t0.elapsed().as_nanos() as u64,
        placement: false,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlist::{tabulate, PowerList, PowerView};

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

    /// The work one node of the phase-share test does in its phase: far
    /// above any timer or scheduling noise inside the other, empty
    /// phases, so the shares are decided by construction.
    const PHASE_WORK: std::time::Duration = std::time::Duration::from_millis(2);

    /// Map/reduce style: all the work sits in the leaves.
    #[derive(Clone)]
    struct LeafWork;

    impl PowerFunction for LeafWork {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> i64 {
            std::thread::sleep(PHASE_WORK);
            *v
        }
        fn create_left(&self) -> Self {
            LeafWork
        }
        fn create_right(&self) -> Self {
            LeafWork
        }
        fn combine(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// Eq.-5 style: all the work sits in the descending phase, where
    /// the halves are transformed.
    #[derive(Clone)]
    struct DescentWork;

    impl PowerFunction for DescentWork {
        type Elem = i64;
        type Out = i64;
        fn decomposition(&self) -> Decomp {
            Decomp::Tie
        }
        fn basic_case(&self, v: &i64) -> i64 {
            *v
        }
        fn create_left(&self) -> Self {
            DescentWork
        }
        fn create_right(&self) -> Self {
            DescentWork
        }
        fn combine(&self, l: i64, r: i64) -> i64 {
            l + r
        }
        fn transform_halves(
            &self,
            _l: &PowerView<i64>,
            _r: &PowerView<i64>,
        ) -> crate::TransformedHalves<i64> {
            std::thread::sleep(PHASE_WORK);
            None
        }
    }

    #[test]
    fn counts_match_tree_shape() {
        let p = tabulate(64, |i| i as i64).unwrap();
        let (out, t) = compute_traced(&Sum, &p.view());
        assert_eq!(out, (0..64).sum::<i64>());
        assert_eq!(t.leaves, 64);
        assert_eq!(t.splits, 63);
        assert_eq!(t.combines, 63);
    }

    #[test]
    fn singleton_has_no_interior_phases() {
        let p = PowerList::singleton(5i64);
        let (out, t) = compute_traced(&Sum, &p.view());
        assert_eq!(out, 5);
        assert_eq!(
            t,
            PhaseTrace {
                leaves: 1,
                leaf_ns: t.leaf_ns,
                ..Default::default()
            }
        );
    }

    #[test]
    fn traced_result_matches_untraced() {
        let p = tabulate(128, |i| (i as i64 * 7) % 13).unwrap();
        let v = p.view();
        let plain = crate::compute_sequential(&Sum, &v);
        let (traced, _) = compute_traced(&Sum, &v);
        assert_eq!(plain, traced);
    }

    #[test]
    fn descent_share_distinguishes_function_classes() {
        // The Section V claim, as the trace must report it: map/reduce
        // functions do their work at the leaves, Eq.-5 functions on the
        // way down. Each side puts at least 31 × PHASE_WORK (62 ms) into
        // its own phase and only timer overhead into the others, so
        // the 0.5 line holds on any schedule short of a 60 ms stall
        // inside the empty phases.
        let p = tabulate(32, |i| i as i64).unwrap();
        let v = p.view();
        let (light_out, light) = compute_traced(&LeafWork, &v);
        let (heavy_out, heavy) = compute_traced(&DescentWork, &v);
        assert_eq!(light_out, (0..32).sum::<i64>());
        assert_eq!(heavy_out, light_out);
        assert!(light.descend_share() < 0.5, "{light:?}");
        assert!(heavy.descend_share() > 0.5, "{heavy:?}");
    }

    #[test]
    fn shares_sum_to_one() {
        let p = tabulate(256, |i| i as i64).unwrap();
        let (_, t) = compute_traced(&Sum, &p.view());
        let leaf_share = t.leaf_ns as f64 / (t.descend_ns + t.leaf_ns + t.ascend_ns).max(1) as f64;
        let total = t.descend_share() + t.ascend_share() + leaf_share;
        assert!((total - 1.0).abs() < 1e-9 || t.descend_ns + t.leaf_ns + t.ascend_ns == 0);
    }
}

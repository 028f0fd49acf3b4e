//! Maximum segment sum — the classic list homomorphism, as a PowerList
//! function.
//!
//! The paper's related-work section points at list homomorphisms
//! ("Parallel Programming with List Homomorphisms", Cole) as the
//! divide-and-conquer functions that decompose into map/reduce; MSS is
//! *the* canonical example: it is not a homomorphism itself, but its
//! tupled form — `(best, best_prefix, best_suffix, total)` — is, which
//! makes it a perfect PowerList tie-reduction and a natural stream
//! collect. Both routes are provided and tested against the brute-force
//! O(n²) specification and Kadane's O(n) algorithm.

use jplf::{Decomp, PowerFunction};
use jstreams::Collector;
use powerlist::PowerList;

/// The homomorphic state: all four quantities needed to merge two
/// adjacent segments' answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MssState {
    /// Best segment sum anywhere inside this block (empty segment
    /// allowed: never below 0... see note in [`mss`] — we use the
    /// "non-empty segments" convention).
    pub best: i64,
    /// Best sum of a prefix of the block.
    pub prefix: i64,
    /// Best sum of a suffix of the block.
    pub suffix: i64,
    /// Total of the block.
    pub total: i64,
}

impl MssState {
    /// State of a single element.
    pub fn leaf(v: i64) -> MssState {
        MssState {
            best: v,
            prefix: v,
            suffix: v,
            total: v,
        }
    }

    /// Merges two adjacent blocks (left precedes right).
    pub fn merge(l: MssState, r: MssState) -> MssState {
        MssState {
            best: l.best.max(r.best).max(l.suffix + r.prefix),
            prefix: l.prefix.max(l.total + r.prefix),
            suffix: r.suffix.max(r.total + l.suffix),
            total: l.total + r.total,
        }
    }
}

/// Brute-force O(n²) specification: maximum over all non-empty
/// contiguous segments.
pub fn mss_spec(v: &[i64]) -> i64 {
    let mut best = i64::MIN;
    for i in 0..v.len() {
        let mut sum = 0;
        for &x in &v[i..] {
            sum += x;
            best = best.max(sum);
        }
    }
    best
}

/// Kadane's O(n) algorithm — the sequential production answer.
pub fn mss_kadane(v: &[i64]) -> i64 {
    let mut best = i64::MIN;
    let mut cur = 0i64;
    for &x in v {
        cur = (cur + x).max(x);
        best = best.max(cur);
    }
    best
}

/// MSS as a JPLF PowerFunction: tie decomposition, homomorphic merge.
#[derive(Debug, Clone, Copy, Default)]
pub struct MssFunction;

impl PowerFunction for MssFunction {
    type Elem = i64;
    type Out = MssState;

    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }

    fn basic_case(&self, v: &i64) -> MssState {
        MssState::leaf(*v)
    }

    fn create_left(&self) -> Self {
        MssFunction
    }

    fn create_right(&self) -> Self {
        MssFunction
    }

    fn combine(&self, l: MssState, r: MssState) -> MssState {
        MssState::merge(l, r)
    }

    /// Leaf kernel: linear left-to-right state extension.
    fn leaf_case(&self, view: &powerlist::PowerView<i64>) -> MssState {
        let mut it = view.iter();
        let mut acc = MssState::leaf(*it.next().expect("views are non-empty"));
        for &v in it {
            acc = MssState::merge(acc, MssState::leaf(v));
        }
        acc
    }
}

/// MSS as a stream collector (tie-compatible: the accumulator *is* the
/// left-to-right extension of the state, the combiner the homomorphic
/// merge).
pub struct MssCollector;

impl Collector<i64> for MssCollector {
    type Acc = Option<MssState>;
    type Out = i64;

    fn supplier(&self) -> Option<MssState> {
        None
    }

    fn accumulate(&self, acc: &mut Option<MssState>, item: i64) {
        let leaf = MssState::leaf(item);
        *acc = Some(match acc.take() {
            None => leaf,
            Some(s) => MssState::merge(s, leaf),
        });
    }

    fn combine(&self, left: Option<MssState>, right: Option<MssState>) -> Option<MssState> {
        match (left, right) {
            (None, r) => r,
            (l, None) => l,
            (Some(l), Some(r)) => Some(MssState::merge(l, r)),
        }
    }

    fn finish(&self, acc: Option<MssState>) -> i64 {
        acc.expect("MSS of a non-empty PowerList").best
    }

    /// Zero-copy leaf: extend the homomorphic state directly over the
    /// borrowed run.
    fn leaf_strided(&self, items: &[i64], step: usize) -> Option<Option<MssState>> {
        let mut acc: Option<MssState> = None;
        for &v in items.iter().step_by(step) {
            let leaf = MssState::leaf(v);
            acc = Some(match acc {
                None => leaf,
                Some(s) => MssState::merge(s, leaf),
            });
        }
        Some(acc)
    }
}

/// MSS through the parallel streams adaptation.
pub fn mss_stream(input: PowerList<i64>) -> i64 {
    jstreams::power_stream(input, jstreams::Decomposition::Tie).collect(MssCollector)
}

/// MSS through a JPLF executor.
pub fn mss(input: &PowerList<i64>) -> i64 {
    use jplf::Executor;
    jplf::SequentialExecutor::new()
        .execute(&MssFunction, &input.clone().view())
        .best
}

#[cfg(test)]
mod tests {
    use super::*;
    use jplf::{Executor, ForkJoinExecutor, MpiExecutor, SequentialExecutor};
    use powerlist::tabulate;

    fn workload(n: usize, seed: i64) -> PowerList<i64> {
        tabulate(n, |i| ((i as i64 * 37 + seed) % 21) - 10).unwrap()
    }

    #[test]
    fn hand_examples() {
        assert_eq!(mss_spec(&[-2, 1, -3, 4, -1, 2, 1, -5]), 6); // [4,-1,2,1]
        assert_eq!(mss_kadane(&[-2, 1, -3, 4, -1, 2, 1, -5]), 6);
        assert_eq!(mss_spec(&[-3, -1, -2, -4]), -1); // all negative
        assert_eq!(mss_kadane(&[-3, -1, -2, -4]), -1);
        assert_eq!(mss_spec(&[5]), 5);
    }

    #[test]
    fn kadane_matches_spec() {
        for seed in 0..20 {
            let p = workload(64, seed);
            assert_eq!(
                mss_kadane(p.as_slice()),
                mss_spec(p.as_slice()),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn powerfunction_matches_kadane() {
        for k in 0..9 {
            let p = workload(1 << k, 7);
            assert_eq!(mss(&p), mss_kadane(p.as_slice()), "k={k}");
        }
    }

    #[test]
    fn all_executors_agree() {
        let p = workload(512, 3);
        let expected = MssState {
            best: mss_kadane(p.as_slice()),
            ..SequentialExecutor::new().execute(&MssFunction, &p.clone().view())
        };
        let v = p.view();
        assert_eq!(
            SequentialExecutor::new().execute(&MssFunction, &v),
            expected
        );
        assert_eq!(
            ForkJoinExecutor::new(3, 16).execute(&MssFunction, &v),
            expected
        );
        assert_eq!(MpiExecutor::new(4).execute(&MssFunction, &v), expected);
    }

    #[test]
    fn stream_collect_matches() {
        for k in [0usize, 1, 4, 8, 10] {
            let p = workload(1 << k, 11);
            assert_eq!(mss_stream(p.clone()), mss_kadane(p.as_slice()), "k={k}");
        }
    }

    #[test]
    fn merge_components_are_consistent() {
        // total is the sum, prefix/suffix bracket best.
        let p = workload(128, 5);
        let s = SequentialExecutor::new().execute(&MssFunction, &p.clone().view());
        assert_eq!(s.total, p.iter().sum::<i64>());
        assert!(s.best >= s.prefix && s.best >= s.suffix);
        assert!(s.prefix >= *p.as_slice().first().unwrap().min(&s.prefix));
    }

    #[test]
    fn all_positive_is_total() {
        let p = tabulate(32, |i| i as i64 + 1).unwrap();
        assert_eq!(mss(&p), p.iter().sum::<i64>());
    }
}

//! Property tests of executor equivalence: for random inputs, random
//! leaf sizes, random thread/rank counts, every executor computes the
//! sequential template's answer.

use jplf::{
    compute_plist_sequential, Decomp, ExecConfig, Executor, ForkJoinExecutor, MpiExecutor,
    NWayReduce, PowerFunction, SequentialExecutor,
};
use powerlist::{PList, PowerList};
use proptest::prelude::*;

#[derive(Clone)]
struct AffineThenSum {
    mul: i64,
    add: i64,
}

impl PowerFunction for AffineThenSum {
    type Elem = i64;
    type Out = i64;

    fn decomposition(&self) -> Decomp {
        Decomp::Tie
    }

    fn basic_case(&self, v: &i64) -> i64 {
        v.wrapping_mul(self.mul).wrapping_add(self.add)
    }

    // Parameters descend unchanged — but through create_*, so a broken
    // descent path would corrupt results.
    fn create_left(&self) -> Self {
        self.clone()
    }

    fn create_right(&self) -> Self {
        self.clone()
    }

    fn combine(&self, l: i64, r: i64) -> i64 {
        l.wrapping_add(r)
    }
}

fn powerlist_i64(max_k: u32) -> impl Strategy<Value = PowerList<i64>> {
    (0..=max_k)
        .prop_flat_map(|k| proptest::collection::vec(-1000i64..1000, 1 << k as usize))
        .prop_map(|v| PowerList::from_vec(v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn executors_agree_on_random_functions(
        p in powerlist_i64(8),
        mul in -3i64..4,
        add in -10i64..10,
        threads in 1usize..4,
        leaf in 1usize..64,
        ranks in 1usize..9,
    ) {
        let f = AffineThenSum { mul, add };
        let v = p.view();
        let spec = SequentialExecutor::new().execute(&f, &v);
        prop_assert_eq!(ForkJoinExecutor::new(threads, leaf).execute(&f, &v), spec);
        prop_assert_eq!(MpiExecutor::new(ranks).execute(&f, &v), spec);
    }

    #[test]
    fn plist_parallel_equals_sequential(
        v in proptest::collection::vec(-100i64..100, 1..200),
        arity in 2usize..5,
        leaf in 1usize..32,
        threads in 1usize..4,
    ) {
        let p = PList::from_vec(v).unwrap();
        let f = NWayReduce::new(arity, |a: &i64, b: &i64| a + b);
        let seq = compute_plist_sequential(&f, &p);
        let exec = ForkJoinExecutor::new(threads, leaf);
        let par = exec.try_execute_plist(&f, &p, &ExecConfig::par()).ok();
        prop_assert_eq!(Some(seq), par);
        // And both equal the plain sum.
        prop_assert_eq!(seq, p.iter().sum::<i64>());
    }

    #[test]
    fn mpi_matches_on_noncommutative(
        v in proptest::collection::vec(0u8..10, 1..65),
        ranks in 1usize..9,
    ) {
        // Pad to the next power of two with a neutral marker digit.
        let mut v = v;
        let n = v.len().next_power_of_two();
        v.resize(n, 0);
        #[derive(Clone)]
        struct Digits;
        impl PowerFunction for Digits {
            type Elem = u8;
            type Out = String;
            fn decomposition(&self) -> Decomp { Decomp::Tie }
            fn basic_case(&self, v: &u8) -> String { v.to_string() }
            fn create_left(&self) -> Self { Digits }
            fn create_right(&self) -> Self { Digits }
            fn combine(&self, l: String, r: String) -> String { l + &r }
        }
        let p = PowerList::from_vec(v).unwrap();
        let view = p.view();
        let spec = SequentialExecutor::new().execute(&Digits, &view);
        prop_assert_eq!(MpiExecutor::new(ranks).execute(&Digits, &view), spec);
    }
}

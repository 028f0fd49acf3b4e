//! Fused filtered searches across survivor densities: median ms per
//! call of six `filter(..)` + search-terminal pipelines over a 2^20
//! permutation, sequential and on a 2-worker pool.
//!
//! The sparse cases (`find_first` of a needle, present or absent) are
//! where the fused search's survivor-free chunk skip pays; the dense
//! ones (`any_match`/`all_match` that never stop, behind filters
//! keeping every element, every 2nd, every 64th or every 4096th) check
//! that it costs nothing when survivors are everywhere. The example
//! uses only the public `Stream` API, so the same file builds against
//! another commit for an A/B:
//!
//! ```sh
//! cargo run --release -p plbench --example search_density -- 61
//! ```

use jstreams::{stream_support, ExecConfig, TieSpliterator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Case<'a> = (&'static str, Box<dyn Fn(&ExecConfig) -> bool + 'a>);

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map_or(61, |s| s.parse().expect("repetitions"));
    let n: usize = 1 << 20;
    let mask = n as i64 - 1;
    // An odd multiplier permutes 0..n, so filters on the values branch
    // unpredictably.
    let list = powerlist::tabulate(n, |i| (i as i64).wrapping_mul(0x9E37_79B1) & mask).unwrap();
    let needle = list.as_slice()[n / 2];
    let view = list.view();
    let src = || stream_support(TieSpliterator::from_view(&view), true);
    let cases: Vec<Case> = vec![
        (
            "sparse_find_mid",
            Box::new(|c| {
                src()
                    .filter(move |x| *x == needle)
                    .try_find_first(c)
                    .unwrap()
                    == Some(needle)
            }),
        ),
        (
            "sparse_find_absent",
            Box::new(|c| {
                src()
                    .filter(|x| *x < 0)
                    .try_find_first(c)
                    .unwrap()
                    .is_none()
            }),
        ),
        (
            "dense_all_every",
            Box::new(|c| {
                src()
                    .filter(|x| *x >= 0)
                    .try_all_match(|x| *x >= 0, c)
                    .unwrap()
            }),
        ),
        (
            "dense_any_1in2",
            Box::new(|c| {
                !src()
                    .filter(|x| x % 2 == 0)
                    .try_any_match(|x| *x < 0, c)
                    .unwrap()
            }),
        ),
        (
            "dense_any_1in64",
            Box::new(|c| {
                !src()
                    .filter(|x| x % 64 == 0)
                    .try_any_match(|x| *x < 0, c)
                    .unwrap()
            }),
        ),
        (
            "dense_any_1in4096",
            Box::new(|c| {
                !src()
                    .filter(|x| x % 4096 == 0)
                    .try_any_match(|x| *x < 0, c)
                    .unwrap()
            }),
        ),
    ];
    let par = ExecConfig::par().with_pool(Arc::new(forkjoin::ForkJoinPool::new(2)));
    for (mode, cfg) in [("seq", &ExecConfig::seq()), ("par2", &par)] {
        for (name, run) in &cases {
            let mut ms: Vec<f64> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    assert!(black_box(run(cfg)), "{name}: wrong answer");
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ms.sort_by(f64::total_cmp);
            println!("{mode} {name} {:.4}", ms[reps / 2]);
        }
    }
}

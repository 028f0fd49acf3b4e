//! Ablation B (paper, Section III): JPLF-style executor vs the streams
//! adaptation vs a plain sequential baseline.
//!
//! "In [19] a comparison between the performance of some algorithms'
//! implementations using Java parallel streams and using the JPLF
//! framework … emphasizes that for applications based on simple
//! concatenation, the performance results are similar, but this
//! framework has the advantage of the additional support …". The JPLF
//! route avoids copying during descent (no-copy views); the collect
//! route pays for fresh containers at every combine — this bench
//! quantifies that difference for map and reduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jplf::{Decomp, Executor};
use jstreams::{stream_support, Decomposition, ReduceCollector, TieSpliterator};
use plbench::{random_ints, Opaque};
use std::hint::black_box;
use std::sync::Arc;

fn bench_frameworks(c: &mut Criterion) {
    let mut group = c.benchmark_group("frameworks");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let pool = Arc::new(forkjoin::ForkJoinPool::with_default_parallelism());

    for k in [14u32, 16, 18] {
        let n = 1usize << k;
        let data = random_ints(n, 3);
        let view = data.clone().view();
        let leaf = (n / 16).max(1);
        let exec = jplf::ForkJoinExecutor::with_pool(Arc::clone(&pool), leaf);

        // --- reduce (scalar result: no container copying anywhere) ---
        let reduce_fn = plalgo::ReduceFunction::new(Decomp::Tie, |a: &i64, b: &i64| a + b);
        group.bench_with_input(BenchmarkId::new("reduce_jplf", k), &n, |b, _| {
            b.iter(|| exec.execute(&reduce_fn, black_box(&view)))
        });
        group.bench_with_input(BenchmarkId::new("reduce_stream", k), &n, |b, _| {
            b.iter(|| {
                plalgo::reduce_stream(black_box(data.clone()), Decomposition::Tie, 0, |a, b| a + b)
            })
        });
        group.bench_with_input(BenchmarkId::new("reduce_stream_cloning", k), &n, |b, _| {
            b.iter(|| {
                stream_support(Opaque(TieSpliterator::over(black_box(data.clone()))), true)
                    .with_pool(Arc::clone(&pool))
                    .collect(ReduceCollector::new(0i64, |a, b| a + b))
            })
        });

        // --- map (PowerList result: collect pays for container merges) ---
        let map_fn = plalgo::MapFunction::new(Decomp::Tie, |x: &i64| x * 2 + 1);
        group.bench_with_input(BenchmarkId::new("map_jplf", k), &n, |b, _| {
            b.iter(|| exec.execute(&map_fn, black_box(&view)))
        });
        group.bench_with_input(BenchmarkId::new("map_stream", k), &n, |b, _| {
            b.iter(|| {
                plalgo::map_stream(black_box(data.clone()), Decomposition::Tie, |x| x * 2 + 1)
            })
        });

        // --- sequential reference ---
        group.bench_with_input(BenchmarkId::new("map_spec_seq", k), &n, |b, _| {
            b.iter(|| powerlist::ops::map(black_box(&data), |x| x * 2 + 1))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frameworks);
criterion_main!(benches);

//! Figures 3–4 microbenchmark: polynomial evaluation, sequential stream
//! baseline vs the parallel PowerList collect, plus the JPLF executor
//! and hand-written loops as reference points.
//!
//! Absolute numbers on a small host will not match the paper's 8-core
//! machine (see the `figures` binary for the simulated series); this
//! bench tracks the *relative* costs of the execution routes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jplf::Executor;
use plbench::random_coeffs;
use std::hint::black_box;
use std::sync::Arc;

const EVAL_POINT: f64 = 0.99999;

fn bench_poly(c: &mut Criterion) {
    let mut group = c.benchmark_group("poly_eval");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let pool = Arc::new(forkjoin::ForkJoinPool::with_default_parallelism());

    for k in [14u32, 16, 18] {
        let n = 1usize << k;
        let coeffs = random_coeffs(n, 1);

        group.bench_with_input(BenchmarkId::new("seq_stream", k), &n, |b, _| {
            b.iter(|| plalgo::eval_seq_stream(black_box(coeffs.clone()), EVAL_POINT))
        });

        group.bench_with_input(BenchmarkId::new("horner", k), &n, |b, _| {
            b.iter(|| plalgo::horner(black_box(coeffs.as_slice()), EVAL_POINT))
        });

        group.bench_with_input(BenchmarkId::new("par_stream", k), &n, |b, _| {
            b.iter(|| {
                plalgo::eval_par_stream_with(
                    black_box(coeffs.clone()),
                    EVAL_POINT,
                    Some(Arc::clone(&pool)),
                    None,
                )
            })
        });

        let view = coeffs.clone().view();
        let exec = jplf::ForkJoinExecutor::with_pool(Arc::clone(&pool), (n / 16).max(1));
        group.bench_with_input(BenchmarkId::new("jplf_forkjoin", k), &n, |b, _| {
            b.iter(|| exec.execute(&plalgo::VpFunction::new(EVAL_POINT), black_box(&view)))
        });

        // Ablation D: the tupling transformation (no descending phase).
        group.bench_with_input(BenchmarkId::new("tupled_stream", k), &n, |b, _| {
            b.iter(|| plalgo::eval_tupled_stream(black_box(coeffs.clone()), EVAL_POINT))
        });
        let exec_tupled = jplf::ForkJoinExecutor::with_pool(Arc::clone(&pool), (n / 16).max(1));
        group.bench_with_input(BenchmarkId::new("tupled_jplf", k), &n, |b, _| {
            b.iter(|| exec_tupled.execute(&plalgo::TupledVp::new(EVAL_POINT), black_box(&view)))
        });

        // Hand-written loop: the indexed map+sum evaluation (not the
        // same algorithm shape as Horner) on the calling thread.
        let slice: Vec<f64> = coeffs.as_slice().to_vec();
        group.bench_with_input(BenchmarkId::new("hand_map_sum", k), &n, |b, _| {
            b.iter(|| {
                black_box(&slice)
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| a * EVAL_POINT.powi(i as i32))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poly);
criterion_main!(benches);

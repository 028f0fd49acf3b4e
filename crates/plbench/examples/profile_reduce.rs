//! Ad-hoc timing breakdown of the reduce_stream path (dev diagnostics).

use jstreams::{try_collect_with, Decomposition, ExecConfig, ReduceCollector};
use plbench::random_ints;
use std::hint::black_box;
use std::time::Instant;

fn time<F: FnMut()>(label: &str, mut f: F) {
    // warm up
    for _ in 0..3 {
        f();
    }
    let iters = 50;
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    println!("{label:40} {:>10.1} us", per * 1e6);
}

fn main() {
    let n = 1usize << 18;
    let data = random_ints(n, 3);

    time("clone powerlist", || {
        black_box(data.clone());
    });

    time("slice sum", || {
        let s: i64 = data.as_slice().iter().sum();
        black_box(s);
    });

    time("reduce_stream parallel (default leaf)", || {
        black_box(plalgo::reduce_stream(
            black_box(data.clone()),
            Decomposition::Tie,
            0,
            |a, b| a + b,
        ));
    });

    time("reduce_stream sequential", || {
        let s = jstreams::power_stream(black_box(data.clone()), Decomposition::Tie)
            .sequential()
            .collect(jstreams::ReduceCollector::new(0i64, |a, b| a + b));
        black_box(s);
    });

    time("try_collect_with seq on TieSpliterator", || {
        let sp = jstreams::TieSpliterator::over(black_box(data.clone()));
        let s = try_collect_with(
            sp,
            ReduceCollector::new(0i64, |a, b| a + b),
            &ExecConfig::seq(),
        );
        black_box(s.unwrap());
    });

    // Is the borrowed-run path actually taken?
    {
        use jstreams::LeafAccess;
        let sp = jstreams::TieSpliterator::over(data.clone());
        match sp.try_as_strided() {
            Some((items, step)) => {
                println!("tie try_as_strided: Some(len={}, step={step})", items.len())
            }
            None => println!("tie try_as_strided: None  <-- zero-copy path NOT taken"),
        }
    }

    time("ReduceCollector::leaf_strided(.., 1) direct", || {
        use jstreams::Collector;
        let c = jstreams::ReduceCollector::new(0i64, |a, b| a + b);
        let s = c.leaf_strided(data.as_slice(), 1).unwrap();
        black_box(s);
    });

    time("run_leaf on TieSpliterator", || {
        let mut sp = jstreams::TieSpliterator::over(black_box(data.clone()));
        let c = jstreams::ReduceCollector::new(0i64, |a, b| a + b);
        let s = jstreams::run_leaf(&mut sp, &c);
        black_box(s);
    });

    time("TieSpliterator::over only", || {
        black_box(jstreams::TieSpliterator::over(black_box(data.clone())));
    });

    time("powerlist view() only", || {
        black_box(black_box(data.clone()).view());
    });

    let raw: Vec<i64> = data.as_slice().to_vec();
    time("vec clone", || {
        black_box(raw.clone());
    });
    time("Storage::new(vec clone)", || {
        black_box(powerlist::Storage::new(raw.clone()));
    });

    let pool = std::sync::Arc::new(forkjoin::ForkJoinPool::with_default_parallelism());
    println!("pool threads: {}", pool.threads());

    time("pool.install(noop)", || {
        black_box(pool.install(|| 1i64));
    });

    for (label, leaf) in [("leaf=n/4", n / 4), ("leaf=n (single leaf)", n)] {
        let cfg = ExecConfig::par()
            .with_pool(std::sync::Arc::clone(&pool))
            .with_leaf_size(leaf);
        time(&format!("try_collect_with par {label}"), || {
            let sp = jstreams::TieSpliterator::over(black_box(data.clone()));
            let s = try_collect_with(sp, ReduceCollector::new(0i64, |a, b| a + b), &cfg);
            black_box(s.unwrap());
        });
    }
}

//! Emits `BENCH_fused_*.json` A/B rows: the cloning drain vs the
//! fused-borrow leaf route.
//!
//! ```text
//! fused [--runs R] [--exp K] [--out-dir DIR]
//! ```
//!
//! Two rows are produced, one per pipeline shape (default `2^18`):
//!
//! * `BENCH_fused_mapreduce.json` — `map(|x| a*x + b).reduce(+)`. The
//!   cloning arm builds the same pipeline over an [`Opaque`] source,
//!   which hides the slice's borrowed run, so every leaf takes the
//!   per-element cloning drain (the pre-fusion behaviour); the fused
//!   arm runs over the slice source itself, so every leaf takes the
//!   [`FusedBorrow`](plobs::LeafRoute) route.
//! * `BENCH_fused_filtered_poly.json` — the same A/B for a
//!   `map ∘ filter` polynomial-term pipeline. The chain drops `SIZED`,
//!   so splitting is depth-capped, but fused leaves still borrow the
//!   source run and report **survivor** item counts.
//!
//! Each row carries `cloning_ms` / `fused_ms` / `fused_speedup` columns
//! plus both aggregated [`plobs::RunReport`]s, and the bin *asserts* the
//! route split: the fused arm must record zero cloning-drain leaves and
//! at least one fused-borrow leaf, and both arms must agree on the
//! reduced value.

use forkjoin::ForkJoinPool;
use jstreams::{stream_support, SliceSpliterator};
use plbench::{ms, random_ints, time_avg, Opaque, PAPER_RUNS};
use plobs::RunReport;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Affine map coefficients (`a*x + b`) for the mapreduce row.
const A: i64 = 3;
const B: i64 = 7;

struct Args {
    runs: usize,
    exp: u32,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        runs: PAPER_RUNS,
        exp: 18,
        out_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => {
                args.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--runs needs an integer");
            }
            "--exp" => {
                args.exp = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--exp needs an integer");
            }
            "--out-dir" => {
                args.out_dir = PathBuf::from(it.next().expect("--out-dir needs a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Times both arms and captures one recorded report per arm:
/// `(cloning_ms, fused_ms, cloning_report, fused_report)`. Panics when
/// the two arms disagree on the computed value.
fn ab<R: PartialEq + std::fmt::Debug>(
    runs: usize,
    mut cloning: impl FnMut() -> R,
    mut fused: impl FnMut() -> R,
) -> (f64, f64, RunReport, RunReport) {
    // Warm caches, the allocator and the pool before either arm.
    for _ in 0..2 {
        let a = cloning();
        let b = fused();
        assert_eq!(a, b, "cloning and fused arms must compute the same value");
    }
    let (_, t_cloning) = time_avg(runs, &mut cloning);
    let (_, t_fused) = time_avg(runs, &mut fused);
    let (_, rep_cloning) = plobs::recorded(&mut cloning);
    let (_, rep_fused) = plobs::recorded(&mut fused);
    (ms(t_cloning), ms(t_fused), rep_cloning, rep_fused)
}

/// Asserts the route-counter contract of one A/B pair: the fused arm
/// never touches the cloning drain, the cloning arm never reaches the
/// fused route.
fn check_routes(label: &str, cloning: &RunReport, fused: &RunReport) {
    assert!(
        fused.routes.cloning_drain.leaves == 0,
        "{label}: fused arm hit the cloning drain ({} leaves)",
        fused.routes.cloning_drain.leaves
    );
    assert!(
        fused.routes.fused_borrow.leaves > 0,
        "{label}: fused arm recorded no fused-borrow leaves"
    );
    assert!(
        cloning.routes.fused_borrow.leaves == 0,
        "{label}: cloning arm unexpectedly took the fused route"
    );
    assert!(
        cloning.routes.cloning_drain.leaves > 0,
        "{label}: cloning arm recorded no cloning-drain leaves"
    );
}

fn row_json(
    bench: &str,
    n: usize,
    runs: usize,
    threads: usize,
    (cloning_ms, fused_ms): (f64, f64),
    cloning_report: &RunReport,
    fused_report: &RunReport,
) -> String {
    let speedup = if fused_ms > 0.0 {
        cloning_ms / fused_ms
    } else {
        1.0
    };
    format!(
        concat!(
            "{{\"schema\":\"plbench.fused.v1\",\"bench\":\"{}\",\"n\":{},\"runs\":{},",
            "\"threads\":{},",
            "\"cloning_ms\":{:.6},\"fused_ms\":{:.6},\"fused_speedup\":{:.6},",
            "\"cloning_report\":{},\"fused_report\":{}}}"
        ),
        bench,
        n,
        runs,
        threads,
        cloning_ms,
        fused_ms,
        speedup,
        cloning_report.to_json(),
        fused_report.to_json()
    )
}

fn write_row(out_dir: &PathBuf, name: &str, row: &str) {
    if let Err(e) = plobs::json::validate(row) {
        eprintln!("malformed fused row for {name}: {e}");
        std::process::exit(1);
    }
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out_dir.display()));
    let path = out_dir.join(name);
    let mut file = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    writeln!(file, "{row}").expect("write row");
    println!("wrote {}", path.display());
}

fn print_arm(label: &str, cloning_ms: f64, fused_ms: f64, cl: &RunReport, fu: &RunReport) {
    println!("\n{label}:");
    println!(
        "  cloning {cloning_ms:.3} ms ({} cloned leaves) | fused {fused_ms:.3} ms ({} fused leaves, speedup {:.2}x)",
        cl.routes.cloning_drain.leaves,
        fu.routes.fused_borrow.leaves,
        cloning_ms / fused_ms.max(1e-12),
    );
}

fn main() {
    let args = parse_args();
    let n = 1usize << args.exp;
    let threads = num_cpus::get();
    let pool = Arc::new(ForkJoinPool::new(threads));
    println!(
        "fused: n = 2^{} = {n}, {} runs per arm, {threads} threads",
        args.exp, args.runs
    );

    // One shared buffer for every arm and run, so the A/B measures
    // traversal cost, not input re-copying.
    let ints: Arc<Vec<i64>> = Arc::new(random_ints(n, 0x5EED_F00D).into_vec());

    // Row 1: map + reduce. The cloning arm runs the same pipeline over
    // an opaque source, whose leaves have no borrowed access.
    let data = Arc::clone(&ints);
    let p2 = Arc::clone(&pool);
    let cloning = move || {
        stream_support(Opaque(SliceSpliterator::shared(Arc::clone(&data))), true)
            .with_pool(Arc::clone(&p2))
            .map(|x: i64| A.wrapping_mul(x).wrapping_add(B))
            .reduce(0i64, |a, b| a.wrapping_add(b))
    };
    let data = Arc::clone(&ints);
    let p2 = Arc::clone(&pool);
    let fused = move || {
        stream_support(SliceSpliterator::shared(Arc::clone(&data)), true)
            .with_pool(Arc::clone(&p2))
            .map(|x: i64| A.wrapping_mul(x).wrapping_add(B))
            .reduce(0i64, |a, b| a.wrapping_add(b))
    };
    let (cloning_ms, fused_ms, cl, fu) = ab(args.runs, cloning, fused);
    check_routes("mapreduce", &cl, &fu);
    print_arm("map+reduce", cloning_ms, fused_ms, &cl, &fu);
    let row = row_json(
        "mapreduce",
        n,
        args.runs,
        threads,
        (cloning_ms, fused_ms),
        &cl,
        &fu,
    );
    write_row(&args.out_dir, "BENCH_fused_mapreduce.json", &row);

    // Row 2: map ∘ filter polynomial terms, one two-stage chain in
    // both arms. The filtered fused leaves must report survivor counts,
    // so total items agree across the two reports.
    let data = Arc::clone(&ints);
    let p2 = Arc::clone(&pool);
    let cloning = move || {
        // x²+1 is odd exactly when x is even: the filter genuinely
        // drops ~half the elements, so survivor accounting is exercised.
        stream_support(Opaque(SliceSpliterator::shared(Arc::clone(&data))), true)
            .with_pool(Arc::clone(&p2))
            .map(|x: i64| x.wrapping_mul(x).wrapping_add(1))
            .filter(|t: &i64| t & 1 == 1)
            .reduce(0i64, |a, b| a.wrapping_add(b))
    };
    let data = ints;
    let p2 = Arc::clone(&pool);
    let fused = move || {
        stream_support(SliceSpliterator::shared(Arc::clone(&data)), true)
            .with_pool(Arc::clone(&p2))
            .map(|x: i64| x.wrapping_mul(x).wrapping_add(1))
            .filter(|t: &i64| t & 1 == 1)
            .reduce(0i64, |a, b| a.wrapping_add(b))
    };
    let (cloning_ms, fused_ms, cl, fu) = ab(args.runs, cloning, fused);
    check_routes("filtered_poly", &cl, &fu);
    // Survivor accounting: both arms feed the same elements to the
    // accumulator, so the per-route item totals must agree exactly.
    assert_eq!(
        cl.routes.total_items(),
        fu.routes.total_items(),
        "filtered fused leaves must report survivor counts"
    );
    print_arm("map∘filter poly", cloning_ms, fused_ms, &cl, &fu);
    let row = row_json(
        "filtered_poly",
        n,
        args.runs,
        threads,
        (cloning_ms, fused_ms),
        &cl,
        &fu,
    );
    write_row(&args.out_dir, "BENCH_fused_filtered_poly.json", &row);
}

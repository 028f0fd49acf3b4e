//! Emits `BENCH_search_{any,findfirst}.json`: short-circuiting search
//! terminals vs a full-drain equivalent, swept over needle positions.
//!
//! ```text
//! search [--runs R] [--exp K] [--out-dir DIR] [--min-front-speedup X]
//! ```
//!
//! * `BENCH_search_any.json` — `any_match(x == NEEDLE)` vs the
//!   full-drain spelling `filter(x == NEEDLE).count() > 0`, with the
//!   needle planted at the front, early (n/16), middle (n/2) and late
//!   (13n/16) positions, plus an absent row. The absent row also times
//!   a plain `reduce` over the same buffer and records
//!   `absent_overhead_ratio = search_ms / reduce_ms` — the price of the
//!   search driver's checkpoints when nothing ever short-circuits.
//! * `BENCH_search_findfirst.json` — `filter(x == NEEDLE).find_first()`
//!   vs draining `filter(..).to_vec()` and taking the head, same sweep.
//!
//! The bin asserts the observability contract on recorded runs: a
//! mid-or-later needle must record `Found` cancellations (for
//! `any_match`) and at least one pruned subtree (`early_exits` ≥ 1,
//! `leaves_pruned` ≥ 1), while the absent row must record none. With
//! `--min-front-speedup X` it additionally gates
//! `front_speedup ≥ X` (the ci.sh smoke gate passes 3).

use forkjoin::ForkJoinPool;
use jstreams::{stream_support, SliceSpliterator};
use plbench::{ms, random_ints, time_min, PAPER_RUNS};
use plobs::RunReport;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Outside `random_ints`' value range (−1 000 000‥1 000 000), so a
/// buffer contains the needle exactly where we plant it.
const NEEDLE: i64 = 2_000_000;

struct Args {
    runs: usize,
    exp: u32,
    out_dir: PathBuf,
    min_front_speedup: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        runs: PAPER_RUNS,
        exp: 18,
        out_dir: PathBuf::from("."),
        min_front_speedup: 0.0,
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
            "--min-front-speedup" => {
                args.min_front_speedup = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-front-speedup needs a number");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Times the search and full-drain arms and records one report each:
/// `(search_ms, drain_ms, search_report, drain_report)`. Panics when the
/// arms disagree.
fn ab<R: PartialEq + std::fmt::Debug>(
    runs: usize,
    want_prunes: bool,
    mut search: impl FnMut() -> R,
    mut drain: impl FnMut() -> R,
) -> (f64, f64, RunReport, RunReport) {
    for _ in 0..2 {
        let a = search();
        let b = drain();
        assert_eq!(a, b, "search and full-drain arms must agree");
    }
    // Minimum-of-runs: a front-needle arm finishes in microseconds, so
    // a single scheduler preemption would dominate an average.
    let (_, t_search) = time_min(runs, &mut search);
    let (_, t_drain) = time_min(runs, &mut drain);
    // Whether subtrees are still pending when the short-circuit fires
    // is schedule-dependent; when the sweep position should prune, keep
    // the report of the first schedule that did (bounded retries).
    let mut rep_search = plobs::recorded(&mut search).1;
    if want_prunes {
        for _ in 0..20 {
            if rep_search.early_exits >= 1 {
                break;
            }
            rep_search = plobs::recorded(&mut search).1;
        }
    }
    let (_, rep_drain) = plobs::recorded(&mut drain);
    (ms(t_search), ms(t_drain), rep_search, rep_drain)
}

/// One sweep entry as a JSON object.
#[allow(clippy::too_many_arguments)]
fn sweep_entry(
    pos: &str,
    needle_index: Option<usize>,
    found: bool,
    search_ms: f64,
    drain_ms: f64,
    search_report: &RunReport,
    drain_report: &RunReport,
) -> String {
    format!(
        concat!(
            "{{\"pos\":\"{}\",\"needle_index\":{},\"found\":{},",
            "\"search_ms\":{:.6},\"drain_ms\":{:.6},\"speedup\":{:.6},",
            "\"search_report\":{},\"drain_report\":{}}}"
        ),
        pos,
        needle_index.map_or_else(|| "null".to_string(), |i| i.to_string()),
        found,
        search_ms,
        drain_ms,
        drain_ms / search_ms.max(1e-12),
        search_report.to_json(),
        drain_report.to_json()
    )
}

fn write_row(out_dir: &PathBuf, name: &str, row: &str) {
    if let Err(e) = plobs::json::validate(row) {
        eprintln!("malformed search row for {name}: {e}");
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

/// Clones the base buffer and plants the needle (if any).
fn plant(base: &[i64], at: Option<usize>) -> Arc<Vec<i64>> {
    let mut v = base.to_vec();
    if let Some(i) = at {
        v[i] = NEEDLE;
    }
    Arc::new(v)
}

/// The sweep positions: label → planted index (None = absent).
fn positions(n: usize) -> Vec<(&'static str, Option<usize>)> {
    vec![
        ("front", Some(0)),
        ("early", Some(n / 16)),
        ("middle", Some(n / 2)),
        // 13n/16 — late, but with at least one whole leaf still ahead
        // on any power-of-two leaf grid of 16+ leaves. A needle at the
        // very tail (say 15n/16 on a 16-leaf split) leaves nothing
        // behind it to prune, so the observability asserts below could
        // never hold there, even though the short-circuit fires.
        ("late", Some(n / 16 * 13)),
        ("absent", None),
    ]
}

/// Asserts the pruning observability contract for one sweep entry.
fn check_pruning(bench: &str, pos: &str, planted: Option<usize>, n: usize, rep: &RunReport) {
    let late_enough = planted.is_some_and(|i| i >= n / 2);
    if late_enough {
        assert!(
            rep.early_exits >= 1,
            "{bench}/{pos}: a needle at {planted:?} must prune subtrees, got {rep:?}"
        );
        assert!(
            rep.leaves_pruned >= 1,
            "{bench}/{pos}: pruned-leaf counter must move, got {rep:?}"
        );
    }
    if planted.is_none() {
        assert_eq!(
            rep.cancels_found, 0,
            "{bench}/{pos}: an absent needle must not record Found"
        );
        assert_eq!(
            rep.early_exits, 0,
            "{bench}/{pos}: an absent needle must not prune"
        );
    }
}

fn main() {
    let args = parse_args();
    let n = 1usize << args.exp;
    // A single worker drains leaves in pure depth-first encounter
    // order, which is fine: the late needle sits at 13n/16 so the tail
    // subtrees behind it still get pruned at their entry checkpoints,
    // and oversubscribing a small box would only let leaves run out of
    // encounter order (a front needle could then fire after most of the
    // buffer had already been scanned, destroying the measurement).
    let threads = num_cpus::get();
    let pool = Arc::new(ForkJoinPool::new(threads));
    // Pin the leaf grid so the sweep positions mean the same thing on
    // every box: the default policy scales leaves with the thread count
    // (a 1-thread pool would carve 2^18 into just 4 leaves, putting the
    // 13n/16 "late" needle inside the final leaf with nothing behind it
    // to prune). 64 leaves keep every planted position strictly inside
    // the tree.
    let leaf = (n / 64).max(64);
    println!(
        "search: n = 2^{} = {n}, {} runs per arm, {threads} threads",
        args.exp, args.runs
    );

    let base: Vec<i64> = random_ints(n, 0x5EED_F00D).into_vec();

    // ---- BENCH_search_any.json -------------------------------------
    let mut entries = Vec::new();
    let mut front_speedup = 0.0;
    let mut absent_overhead_ratio = 0.0;
    for (pos, at) in positions(n) {
        let data = plant(&base, at);
        let d1 = Arc::clone(&data);
        let p1 = Arc::clone(&pool);
        let search = move || {
            stream_support(SliceSpliterator::shared(Arc::clone(&d1)), true)
                .with_pool(Arc::clone(&p1))
                .with_leaf_size(leaf)
                .any_match(|x: &i64| *x == NEEDLE)
        };
        let d2 = Arc::clone(&data);
        let p2 = Arc::clone(&pool);
        let drain = move || {
            stream_support(SliceSpliterator::shared(Arc::clone(&d2)), true)
                .with_pool(Arc::clone(&p2))
                .with_leaf_size(leaf)
                .filter(|x: &i64| *x == NEEDLE)
                .count()
                > 0
        };
        let late_enough = at.is_some_and(|i| i >= n / 2);
        let (search_ms, drain_ms, rep_s, rep_d) = ab(args.runs, late_enough, search, drain);
        check_pruning("any_match", pos, at, n, &rep_s);
        assert_eq!(
            rep_s.cancels_found, rep_s.early_exits,
            "any_match/{pos}: every Found observation prunes one subtree"
        );
        if pos == "front" {
            front_speedup = drain_ms / search_ms.max(1e-12);
        }
        if pos == "absent" {
            // The driver's overhead when nothing short-circuits,
            // against a plain full reduction of the same buffer.
            let d3 = Arc::clone(&data);
            let p3 = Arc::clone(&pool);
            let (_, t_reduce) = time_min(args.runs, move || {
                stream_support(SliceSpliterator::shared(Arc::clone(&d3)), true)
                    .with_pool(Arc::clone(&p3))
                    .with_leaf_size(leaf)
                    .reduce(0i64, |a, b| a.wrapping_add(b))
            });
            absent_overhead_ratio = search_ms / ms(t_reduce).max(1e-12);
        }
        println!(
            "  any/{pos:<7} search {search_ms:>9.4} ms | drain {drain_ms:>9.4} ms | x{:.2} (pruned {} subtrees)",
            drain_ms / search_ms.max(1e-12),
            rep_s.early_exits
        );
        entries.push(sweep_entry(
            pos,
            at,
            at.is_some(),
            search_ms,
            drain_ms,
            &rep_s,
            &rep_d,
        ));
    }
    let row = format!(
        concat!(
            "{{\"schema\":\"plbench.search.v1\",\"bench\":\"any_match\",\"n\":{},",
            "\"runs\":{},\"threads\":{},\"needle\":{},",
            "\"front_speedup\":{:.6},\"absent_overhead_ratio\":{:.6},",
            "\"sweep\":[{}]}}"
        ),
        n,
        args.runs,
        threads,
        NEEDLE,
        front_speedup,
        absent_overhead_ratio,
        entries.join(",")
    );
    write_row(&args.out_dir, "BENCH_search_any.json", &row);
    println!(
        "  any_match: front speedup x{front_speedup:.2}, absent overhead x{absent_overhead_ratio:.3} of plain reduce"
    );
    if args.min_front_speedup > 0.0 {
        assert!(
            front_speedup >= args.min_front_speedup,
            "front-needle any_match speedup x{front_speedup:.2} below the x{:.2} gate",
            args.min_front_speedup
        );
    }

    // ---- BENCH_search_findfirst.json --------------------------------
    let mut entries = Vec::new();
    let mut ff_front_speedup = 0.0;
    for (pos, at) in positions(n) {
        let data = plant(&base, at);
        let d1 = Arc::clone(&data);
        let p1 = Arc::clone(&pool);
        let search = move || {
            stream_support(SliceSpliterator::shared(Arc::clone(&d1)), true)
                .with_pool(Arc::clone(&p1))
                .with_leaf_size(leaf)
                .filter(|x: &i64| *x == NEEDLE)
                .find_first()
        };
        let d2 = Arc::clone(&data);
        let p2 = Arc::clone(&pool);
        let drain = move || {
            stream_support(SliceSpliterator::shared(Arc::clone(&d2)), true)
                .with_pool(Arc::clone(&p2))
                .with_leaf_size(leaf)
                .filter(|x: &i64| *x == NEEDLE)
                .to_vec()
                .first()
                .cloned()
        };
        let late_enough = at.is_some_and(|i| i >= n / 2);
        let (search_ms, drain_ms, rep_s, rep_d) = ab(args.runs, late_enough, search, drain);
        check_pruning("find_first", pos, at, n, &rep_s);
        if pos == "front" {
            ff_front_speedup = drain_ms / search_ms.max(1e-12);
        }
        println!(
            "  first/{pos:<7} search {search_ms:>9.4} ms | drain {drain_ms:>9.4} ms | x{:.2} (pruned {} subtrees)",
            drain_ms / search_ms.max(1e-12),
            rep_s.early_exits
        );
        entries.push(sweep_entry(
            pos,
            at,
            at.is_some(),
            search_ms,
            drain_ms,
            &rep_s,
            &rep_d,
        ));
    }
    let row = format!(
        concat!(
            "{{\"schema\":\"plbench.search.v1\",\"bench\":\"find_first\",\"n\":{},",
            "\"runs\":{},\"threads\":{},\"needle\":{},",
            "\"front_speedup\":{:.6},",
            "\"sweep\":[{}]}}"
        ),
        n,
        args.runs,
        threads,
        NEEDLE,
        ff_front_speedup,
        entries.join(",")
    );
    write_row(&args.out_dir, "BENCH_search_findfirst.json", &row);
    println!("  find_first: front speedup x{ff_front_speedup:.2}");
}

//! The benchmark driver.
//!
//! ```text
//! streambench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! streambench compare <dirA> <dirB>
//! ```
//!
//! A run prints `name value unit` for every metric it reports, writes
//! one JSON row to `DIR/<workload>-<seed>[-trace].json` (default `DIR`:
//! `target/streambench`), and ends its standard output with one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics and
//! also writes `DIR/trace_<workload>.json` (Chrome trace events).

mod compare;
mod run;
mod workload;

use run::{Bench, Options, Tally};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use streambench::heap::PeakAlloc;
use streambench::{END_TO_END, PER_LAYER};
use workload::Rung;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const USAGE: &str = "usage: streambench --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out DIR]\n       \
                     streambench compare <dirA> <dirB>";

struct Args {
    opts: Options,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut out = PathBuf::from("target/streambench");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::log2_n(&workload, false).is_none() {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            streambench::WORKLOADS
        ));
    }
    opts.workload = workload;
    Ok(Args { opts, out })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("streambench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let opts = &args.opts;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tally = Tally::default();
    let (b, setup_secs) =
        run::set_up_repeated(opts, nproc, &tally).ok_or("workload failed to build")?;
    let n = b.w.n();
    println!(
        "streambench {} seed {} n 2^{} nproc {nproc} pools par1=1 parn={nproc} features {}",
        opts.workload,
        opts.seed,
        n.ilog2(),
        target_features()
    );

    let mut row = Row::new(opts, &b, &setup_secs);
    let metrics = if opts.trace {
        let (metrics, spans) = run::traced(&b, opts);
        let path = args.out.join(format!("trace_{}.json", opts.workload));
        write_checked(&path, &spans.to_chrome_json())?;
        println!("wrote {}", path.display());
        check_names(&metrics, PER_LAYER.iter().map(|m| (m.name, m.unit)))
    } else {
        let e2e = run::end_to_end(&b, opts, &setup_secs);
        let r = &e2e.rounds;
        for rung in [Rung::Hand, Rung::Seq, Rung::Par1, Rung::ParN] {
            println!(
                "ladder.{}_ms_p50 {} ms ({} calls)",
                rung.name(),
                r.p50(rung),
                r.calls(rung)
            );
        }
        let per_round = r.min_round_calls(Rung::ParN);
        println!(
            "par@N: {} calls in {} rounds, at least {per_round} per round",
            r.calls(Rung::ParN),
            opts.rounds()
        );
        row.calls(r);
        row.field("parn_min_round_calls", per_round);
        check_names(&e2e.metrics, END_TO_END.iter().map(|m| (m.name, m.unit)))
    };
    let (attempted, failed) = (tally.attempted.get(), tally.failed.get());
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("error_rate {error_rate} fraction ({failed} of {attempted} calls)");
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }

    let metrics_json = metrics_object(&metrics);
    row.field("attempted", attempted);
    row.field("failed", failed);
    row.field("error_rate", error_rate);
    row.field("metrics", &metrics_json);
    let suffix = if opts.trace { "-trace" } else { "" };
    let path = args
        .out
        .join(format!("{}-{}{suffix}.json", opts.workload, opts.seed));
    write_checked(&path, &row.finish())?;
    println!("wrote {}", path.display());
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        failed == 0
    );
    Ok(())
}

/// Pairs each reported value with its table entry, in table order; a
/// missing or unknown metric is a bug in this benchmark.
fn check_names(
    values: &[(&'static str, f64)],
    table: impl Iterator<Item = (&'static str, &'static str)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let out: Vec<_> = table
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            (name, v, unit)
        })
        .collect();
    assert_eq!(
        out.len(),
        values.len(),
        "a measured metric is not in the table"
    );
    out
}

fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

/// The JSON row of one run, schema `streambench.bench.v1`.
struct Row(String);

impl Row {
    fn new(opts: &Options, b: &Bench, setup_secs: &[f64]) -> Row {
        let mut row = Row(String::from("{\"schema\":\"streambench.bench.v1\""));
        row.field("workload", format!("\"{}\"", opts.workload));
        row.field("seed", opts.seed);
        row.field("trace", opts.trace);
        row.field("commit", format!("\"{}\"", plobs::json::escape(&commit())));
        row.field("nproc", b.nproc);
        row.field(
            "threads",
            format!("{{\"par1\":1,\"parn\":{},\"caller\":1}}", b.nproc),
        );
        row.field("target_features", format!("\"{}\"", target_features()));
        row.field("n", b.w.n());
        row.field("seconds", opts.seconds);
        row.field("rounds", opts.rounds());
        row.field("setups", setup_secs.len());
        row
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = write!(self.0, ",\"{key}\":{value}");
    }

    fn calls(&mut self, r: &run::Rounds) {
        let mut calls = String::from("{");
        let mut ladder = String::from("{");
        for (i, rung) in [Rung::Hand, Rung::Seq, Rung::Par1, Rung::ParN]
            .into_iter()
            .enumerate()
        {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(calls, "{sep}\"{}\":{}", rung.name(), r.calls(rung));
            let _ = write!(ladder, "{sep}\"{}_ms_p50\":{}", rung.name(), r.p50(rung));
        }
        self.field("calls", calls + "}");
        self.field("ladder", ladder + "}");
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Writes `json` to `path` after checking it with the strict validator.
fn write_checked(path: &Path, json: &str) -> Result<(), String> {
    plobs::json::validate(json)
        .map_err(|e| format!("malformed JSON for {}: {e}", path.display()))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one; `unknown` otherwise (e.g. in an exported tree).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Vector features the binary was compiled for (`target-cpu=native`
/// turns them on), recorded with every row because they change leaf
/// kernel speed.
fn target_features() -> String {
    let f: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    if f.is_empty() {
        "baseline".into()
    } else {
        f.join("+")
    }
}

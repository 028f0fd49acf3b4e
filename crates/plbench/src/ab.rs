//! One A/B harness and one ledger for the ablation bins.
//!
//! Every bin (`figures`, `fused`, `placement`, `search`, `split_policy`,
//! `autotune`, `run_report`) times two or more *arms* of one workload
//! and appends one row per workload and size to [`LEDGER`], one JSON
//! object per line under the [`SCHEMA`] schema:
//!
//! ```text
//! {"schema":"plbench.ab.v1","ablation":"fused","bench":"mapreduce",
//!  "n":262144,"runs":5,"commit":"<sha>","nproc":2,"threads":2,
//!  "target_features":"avx2+fma",
//!  "arms":[{"name":"cloning","ms_p50":1.02,"report":{...}},
//!          {"name":"fused","ms_p50":0.18,"report":{...}}],
//!  "extra":{}}
//! ```
//!
//! `commit`, `nproc` and `target_features` mean what they mean in
//! streambench's `streambench.bench.v1` rows; `commit` ends in `-dirty`
//! when the tree had uncommitted changes (the ledger itself aside).
//! `threads` is the worker count of the pool the arms ran on. Each arm
//! carries the median of `runs` timed calls (what streambench reports)
//! and, where the bin records one, a [`RunReport`]. `extra` holds facts
//! about the row that are not a quotient of two arms.
//!
//! The timer ([`measure`]) gives every arm two warm-up calls, checks
//! that all arms that compute a value agree on it, then times `runs`
//! calls per arm. A row is checked with the strict JSON validator before
//! it is appended.

use crate::PAPER_RUNS;
use plobs::RunReport;
use std::fmt::{Debug, Display, Write as _};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The schema name of every ledger row.
pub const SCHEMA: &str = "plbench.ab.v1";

/// The ledger's file name inside `--out-dir`.
pub const LEDGER: &str = "BENCH_ledger.jsonl";

/// Untimed calls per arm before the timed ones.
const WARMUPS: usize = 2;

/// One ablation bin's run: its command-line options and the envelope
/// every row it appends carries.
pub struct Ablation {
    name: &'static str,
    /// Timed calls per arm (`--runs`, default [`PAPER_RUNS`]).
    runs: usize,
    /// log2 of the workload size (`--exp`).
    exp: u32,
    threads: usize,
    ledger: PathBuf,
    commit: String,
}

impl Ablation {
    /// Parses `[--runs R] [--exp K] [--out-dir DIR]` from the command
    /// line for the bin `name`, whose arms run on a `threads`-worker
    /// pool. An unknown or malformed argument prints the error and
    /// exits with status 2.
    pub fn from_args(name: &'static str, default_exp: u32, threads: usize) -> Ablation {
        let ab = Ablation::parse(name, default_exp, threads, std::env::args().skip(1))
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2)
            });
        println!(
            "{name}: n = 2^{} = {}, {} runs per arm, {threads} threads, ledger {}",
            ab.exp,
            ab.n(),
            ab.runs,
            ab.ledger.display()
        );
        ab
    }

    fn parse(
        name: &'static str,
        default_exp: u32,
        threads: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Ablation, String> {
        let mut ab = Ablation {
            name,
            runs: PAPER_RUNS,
            exp: default_exp,
            threads,
            ledger: PathBuf::from(LEDGER),
            commit: commit(),
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--runs" => ab.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
                "--exp" => ab.exp = value()?.parse().map_err(|e| format!("--exp: {e}"))?,
                "--out-dir" => ab.ledger = Path::new(&value()?).join(LEDGER),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if ab.runs == 0 {
            return Err("--runs must be at least 1".into());
        }
        if 1usize.checked_shl(ab.exp).is_none() {
            return Err(format!("--exp {} overflows a usize size", ab.exp));
        }
        Ok(ab)
    }

    /// The workload size, `2^exp`.
    pub fn n(&self) -> usize {
        1 << self.exp
    }

    /// Times `arms` with `--runs` timed calls each; see [`measure`].
    pub fn measure<R: PartialEq + Debug>(&self, arms: Vec<Arm<'_, R>>) -> Vec<Measured> {
        measure(self.runs, arms)
    }

    /// A row of this ablation for the workload `bench` at size `n`.
    pub fn row(&self, bench: &str, n: usize, arms: Vec<Measured>) -> Row<'_> {
        Row {
            ab: self,
            bench: bench.to_string(),
            n,
            arms,
            extra: Vec::new(),
        }
    }

    /// Validates `row` with the strict JSON validator, then appends it
    /// to the ledger as one line and prints its arms. Panics on a
    /// malformed row or an I/O error, so a bad row fails the run.
    pub fn append(&self, row: &Row) {
        let json = row.to_json();
        if let Err(e) = plobs::json::validate(&json) {
            panic!("malformed {SCHEMA} row {}/{}: {e}", self.name, row.bench);
        }
        append_line(&self.ledger, &json);
        println!("{}", row.summary());
    }
}

/// One arm of an A/B: a named call, timed with the others.
pub struct Arm<'a, R> {
    name: String,
    call: Box<dyn FnMut() -> Option<R> + 'a>,
    record: bool,
}

impl<'a, R: 'a> Arm<'a, R> {
    /// An arm whose value every other valued arm must match.
    pub fn new(name: impl Into<String>, mut f: impl FnMut() -> R + 'a) -> Self {
        Arm {
            name: name.into(),
            call: Box::new(move || Some(f())),
            record: false,
        }
    }

    /// An arm timed beside the others whose value is not compared
    /// (it computes something else, e.g. a baseline reduction).
    pub fn timed<X>(name: impl Into<String>, mut f: impl FnMut() -> X + 'a) -> Self {
        Arm {
            name: name.into(),
            call: Box::new(move || {
                std::hint::black_box(f());
                None
            }),
            record: false,
        }
    }

    /// Records one [`RunReport`] of this arm after its timed calls.
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }
}

/// One timed arm: its median call time and, if recorded, its report.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The arm's name.
    pub name: String,
    /// Median wall time of the timed calls, in ms.
    pub ms_p50: f64,
    /// The arm's recorded report, if any.
    pub report: Option<RunReport>,
}

impl Measured {
    /// The recorded report; panics if the arm was not recorded.
    pub fn report(&self) -> &RunReport {
        self.report
            .as_ref()
            .unwrap_or_else(|| panic!("arm `{}` recorded no report", self.name))
    }
}

/// Times `arms`: two warm-up rounds over every arm, each checking that
/// all arms that compute a value agree on it (panics otherwise), then
/// `runs` timed calls per arm, whose median is kept. Arms marked
/// [`Arm::recorded`] then run once more under a [`plobs::recorded`]
/// sink.
pub fn measure<R: PartialEq + Debug>(runs: usize, mut arms: Vec<Arm<'_, R>>) -> Vec<Measured> {
    assert!(runs >= 1, "runs must be at least 1");
    for _ in 0..WARMUPS {
        let mut first: Option<(&str, R)> = None;
        for arm in &mut arms {
            let Some(v) = (arm.call)() else { continue };
            match &first {
                None => first = Some((&arm.name, v)),
                Some((name, want)) => assert!(
                    v == *want,
                    "arms `{name}` and `{}` disagree: {want:?} vs {v:?}",
                    arm.name
                ),
            }
        }
    }
    arms.into_iter()
        .map(|mut arm| {
            let mut ms: Vec<f64> = (0..runs)
                .map(|_| {
                    let t0 = Instant::now();
                    let v = std::hint::black_box((arm.call)());
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    drop(v);
                    ms
                })
                .collect();
            let report = arm.record.then(|| plobs::recorded(&mut arm.call).1);
            Measured {
                name: arm.name,
                ms_p50: median(&mut ms),
                report,
            }
        })
        .collect()
}

/// Median (mean of the middle pair for an even count).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// One ledger row, built by [`Ablation::row`].
pub struct Row<'a> {
    ab: &'a Ablation,
    bench: String,
    n: usize,
    arms: Vec<Measured>,
    extra: Vec<(String, String)>,
}

impl Row<'_> {
    /// Adds `key` to the row's `extra` object; `json` is a JSON value.
    pub fn extra(mut self, key: &str, json: impl Display) -> Self {
        self.extra.push((key.to_string(), json.to_string()));
        self
    }

    /// Adds the string `value` under `key` to the row's `extra` object.
    pub fn extra_str(self, key: &str, value: &str) -> Self {
        let json = format!("\"{}\"", plobs::json::escape(value));
        self.extra(key, json)
    }

    /// The row as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            concat!(
                "{{\"schema\":\"{}\",\"ablation\":\"{}\",\"bench\":\"{}\",\"n\":{},",
                "\"runs\":{},\"commit\":\"{}\",\"nproc\":{},\"threads\":{},",
                "\"target_features\":\"{}\",\"arms\":["
            ),
            SCHEMA,
            self.ab.name,
            plobs::json::escape(&self.bench),
            self.n,
            self.ab.runs,
            plobs::json::escape(&self.ab.commit),
            nproc(),
            self.ab.threads,
            target_features(),
        );
        for (i, arm) in self.arms.iter().enumerate() {
            let report = arm
                .report
                .as_ref()
                .map_or("null".into(), RunReport::to_json);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"ms_p50\":{:.6},\"report\":{report}}}",
                if i > 0 { "," } else { "" },
                plobs::json::escape(&arm.name),
                arm.ms_p50,
            );
        }
        s.push_str("],\"extra\":{");
        for (i, (key, json)) in self.extra.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}\"{}\":{json}", plobs::json::escape(key));
        }
        s.push_str("}}");
        s
    }

    /// `ablation/bench key=value: arm 1.234 ms | arm 0.567 ms`.
    fn summary(&self) -> String {
        let mut s = format!("{}/{} n={}", self.ab.name, self.bench, self.n);
        for (key, json) in &self.extra {
            let _ = write!(s, " {key}={json}");
        }
        for (i, arm) in self.arms.iter().enumerate() {
            let sep = if i > 0 { " |" } else { ":" };
            let _ = write!(s, "{sep} {} {:.4} ms", arm.name, arm.ms_p50);
        }
        s
    }
}

fn append_line(path: &Path, line: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    writeln!(file, "{line}").unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// The commit of the source tree this crate was built from, with
/// `-dirty` appended when `git status` shows changes other than a
/// ledger file; `unknown` outside a git checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())?;
        Some(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    let dirty = git(&["status", "--porcelain"])
        .is_none_or(|status| status.lines().any(|l| !l.ends_with(LEDGER)));
    format!("{}{}", head.trim(), if dirty { "-dirty" } else { "" })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Vector features the binary was compiled for (`target-cpu=native`
/// turns them on); they change leaf-kernel speed.
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

#[cfg(test)]
mod tests {
    use super::*;
    use plobs::json::{parse, Value};

    /// An ablation writing to a fresh ledger under the temp directory.
    fn scratch(tag: &str) -> Ablation {
        let dir = std::env::temp_dir().join(format!("plbench-ab-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = ["--runs", "3", "--exp", "4", "--out-dir"].map(String::from);
        let out = dir.to_string_lossy().into_owned();
        Ablation::parse("unit", 10, 2, args.into_iter().chain([out])).unwrap()
    }

    fn lines(ab: &Ablation) -> Vec<String> {
        std::fs::read_to_string(&ab.ledger)
            .map(|s| s.lines().map(String::from).collect())
            .unwrap_or_default()
    }

    fn two_arms(ab: &Ablation) -> Vec<Measured> {
        ab.measure(vec![
            Arm::new("a", || (0..64u64).sum::<u64>()).recorded(),
            Arm::new("b", || 64 * 63 / 2),
            Arm::timed("other", || "not compared"),
        ])
    }

    #[test]
    fn options_parse_and_unknown_ones_are_refused() {
        let ab = scratch("options");
        assert_eq!((ab.runs, ab.exp, ab.n()), (3, 4, 16));
        assert!(ab.ledger.ends_with(LEDGER));
        let parse = |a: &[&str]| Ablation::parse("unit", 10, 1, a.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]).unwrap().exp, 10);
        assert!(parse(&["--leaf", "2048"]).is_err());
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        // 1 << 64 and 1 << 70 would wrap to sizes 1 and 64 in release builds.
        for exp in ["63", "64", "70"] {
            assert_eq!(parse(&["--exp", exp]).is_ok(), exp == "63", "--exp {exp}");
        }
    }

    #[test]
    fn a_row_validates_and_carries_the_envelope() {
        let ab = scratch("envelope");
        let row = ab
            .row("sum", 64, two_arms(&ab))
            .extra_str("position", "front");
        let json = row.to_json();
        plobs::json::validate(&json).unwrap();
        let v = parse(&json).unwrap();
        for key in [
            "schema",
            "ablation",
            "bench",
            "n",
            "runs",
            "commit",
            "nproc",
            "threads",
            "target_features",
            "arms",
            "extra",
        ] {
            assert!(v.get(key).is_some(), "missing {key} in {json}");
        }
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(64));
        assert_eq!(v.get("threads").and_then(Value::as_u64), Some(2));
        let arms = v.get("arms").and_then(Value::as_array).unwrap();
        assert_eq!(arms.len(), 3);
        assert!(arms[0]
            .get("report")
            .and_then(|r| r.get("schema"))
            .is_some());
        assert_eq!(arms[1].get("report"), Some(&Value::Null));
        let extra = v.get("extra").unwrap();
        assert_eq!(extra.get("position").and_then(Value::as_str), Some("front"));
    }

    #[test]
    fn disagreeing_arms_panic_before_anything_is_appended() {
        let ab = scratch("disagree");
        let run = std::panic::catch_unwind(|| {
            let arms = ab.measure(vec![Arm::new("one", || 1), Arm::new("two", || 2)]);
            ab.append(&ab.row("bad", ab.n(), arms));
        });
        assert!(run.is_err());
        assert!(lines(&ab).is_empty());
    }

    #[test]
    fn two_appends_give_two_parsable_lines() {
        let ab = scratch("append");
        ab.append(&ab.row("first", ab.n(), two_arms(&ab)));
        ab.append(&ab.row("second", ab.n(), two_arms(&ab)).extra("leaf", 64));
        let lines = lines(&ab);
        assert_eq!(lines.len(), 2);
        for (line, bench) in lines.iter().zip(["first", "second"]) {
            let v = parse(line).unwrap();
            assert_eq!(v.get("bench").and_then(Value::as_str), Some(bench));
        }
        let _ = std::fs::remove_dir_all(ab.ledger.parent().unwrap());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

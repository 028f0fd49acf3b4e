//! `streambench compare <dirA> <dirB>`: judges set B of end-to-end rows
//! against set A, workload by workload and metric by metric.

use plobs::json::{parse, Value};
use std::collections::BTreeMap;
use streambench::stats::{verdict, Bound, Summary, Verdict};
use streambench::{END_TO_END, WORKLOADS};

/// How far the hand rung's median may move between the sets before
/// the host, not the code, is the likelier cause of any difference.
const HAND_DRIFT: f64 = 0.10;

/// Untraced rows of one directory, grouped by workload.
type Rows = BTreeMap<String, Vec<Value>>;

fn load(dir: &str) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(row) = parse(&text) else { continue };
        let schema = row.get("schema").and_then(Value::as_str);
        let traced = row.get("trace").and_then(Value::as_bool);
        if schema != Some("streambench.bench.v1") || traced != Some(false) {
            continue;
        }
        let workload = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: row has no workload", path.display()))?
            .to_string();
        rows.entry(workload).or_default().push(row);
    }
    Ok(rows)
}

fn values(rows: &[Value], path: &[&str]) -> Vec<f64> {
    rows.iter()
        .filter_map(|r| {
            path.iter()
                .try_fold(r, |v, key| v.get(key))
                .and_then(Value::as_f64)
        })
        .collect()
}

fn show(s: &Summary) -> String {
    format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
}

/// Runs the comparison; the process exit code: 0 when no metric is
/// worse, 1 when one is, 2 on bad input.
pub fn main(args: &[String]) -> i32 {
    let [a_dir, b_dir] = args else {
        eprintln!("usage: streambench compare <dirA> <dirB>");
        return 2;
    };
    let (a, b) = match (load(a_dir), load(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut worse = 0;
    let mut compared = 0;
    for workload in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        compared += 1;
        println!(
            "{workload}: A {} runs, B {} runs   (median [q1, q3])",
            ra.len(),
            rb.len()
        );
        let (ha, hb) = (
            Summary::of(&values(ra, &["ladder", "hand_ms_p50"])),
            Summary::of(&values(rb, &["ladder", "hand_ms_p50"])),
        );
        let drift = (hb.median - ha.median) / ha.median;
        if drift.abs() > HAND_DRIFT {
            println!(
                "  HAND-RUNG DRIFT {:+.1}% (A {}, B {} ms): the host changed between the sets; treat this pair as void",
                100.0 * drift,
                show(&ha),
                show(&hb)
            );
        }
        for m in END_TO_END {
            let (va, vb) = (
                values(ra, &["metrics", m.name, "value"]),
                values(rb, &["metrics", m.name, "value"]),
            );
            if va.is_empty() || vb.is_empty() {
                println!("  {:<16} missing", m.name);
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(&va, &vb, m.better, m.bound);
            if v == Verdict::Worse {
                worse += 1;
            }
            let change = 100.0 * (sb.median - sa.median) / sa.median;
            println!(
                "  {:<16} A {}  B {}  {:+.1}%  spread A {:.1}% B {:.1}%  bound {}  {}",
                m.name,
                show(&sa),
                show(&sb),
                change,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                describe(m.bound),
                v.as_str()
            );
        }
    }
    if compared == 0 {
        eprintln!("no workload has untraced rows in both {a_dir} and {b_dir}");
        return 2;
    }
    i32::from(worse > 0)
}

fn describe(b: Bound) -> String {
    if b.abs_floor > 0.0 {
        format!("{:.0}% or {}", 100.0 * b.rel, b.abs_floor)
    } else {
        format!("{:.0}%", 100.0 * b.rel)
    }
}

//! The committed ablation ledger (`BENCH_ledger.jsonl` at the repository
//! root) parses line by line under the `plbench.ab.v1` schema, every bin
//! of this crate has at least one row in it, and every row names a bin.

use plbench::ab::{LEDGER, SCHEMA};
use plobs::json::{parse, Value};
use std::path::Path;

/// The bins, by file stem of `src/bin/*.rs`, as their rows name them.
fn bins() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut bins: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    bins.sort();
    assert!(!bins.is_empty(), "no bins under {}", dir.display());
    bins
}

#[test]
fn committed_ledger_rows_carry_the_envelope_and_timed_arms() {
    let bins = bins();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(LEDGER);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut seen = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("{LEDGER}:{}", i + 1);
        let row = parse(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let str_of = |key: &str| {
            row.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{at}: `{key}` is not a string"))
        };
        let count_of = |key: &str| {
            row.get(key)
                .and_then(Value::as_u64)
                .filter(|&v| v >= 1)
                .unwrap_or_else(|| panic!("{at}: `{key}` is not a positive integer"))
        };
        assert_eq!(str_of("schema"), SCHEMA, "{at}");
        for key in ["ablation", "bench", "commit", "target_features"] {
            assert!(!str_of(key).is_empty(), "{at}: empty `{key}`");
        }
        for key in ["n", "runs", "nproc", "threads"] {
            count_of(key);
        }
        assert!(
            matches!(row.get("extra"), Some(Value::Obj(_))),
            "{at}: `extra` is not an object"
        );
        let arms = row
            .get("arms")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{at}: `arms` is not an array"));
        assert!(arms.len() >= 2, "{at}: fewer than 2 arms");
        for arm in arms {
            assert!(arm.get("name").and_then(Value::as_str).is_some(), "{at}");
            let ms = arm.get("ms_p50").and_then(Value::as_f64);
            assert!(ms.is_some_and(|ms| ms > 0.0), "{at}: arm ms_p50 {ms:?}");
            assert!(
                matches!(arm.get("report"), Some(Value::Null | Value::Obj(_))),
                "{at}: arm `report` is neither null nor an object"
            );
        }
        let ablation = str_of("ablation");
        assert!(
            bins.iter().any(|bin| bin == ablation),
            "{at}: `{ablation}` names no bin of {bins:?}"
        );
        seen.push(ablation.to_string());
    }
    for bin in &bins {
        assert!(seen.contains(bin), "{LEDGER} has no `{bin}` row");
    }
}

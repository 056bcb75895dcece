//! Consistency of the committed benchmark trajectory: every
//! `BENCH_<rev>.json` in the repo root must be indexed in
//! `bench_history.json` and vice versa, and every revision label must
//! agree between the index entry, the filename, and the artifact's own
//! `revision` field. A stale index silently weakens
//! `bench-diff --against-latest`, which trusts the last entry to be the
//! newest committed artifact.

use std::collections::BTreeSet;
use std::path::PathBuf;

use hpm_bench::diff::{parse_history, parse_json, Json};

#[test]
fn bench_history_indexes_exactly_the_committed_artifacts() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&root)
        .expect("repo root readable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    assert!(!on_disk.is_empty(), "no BENCH_*.json artifacts found");

    let raw = std::fs::read_to_string(root.join("bench_history.json"))
        .expect("bench_history.json present in repo root");
    let mut indexed = BTreeSet::new();
    for (revision, file) in parse_history(&raw).expect("bench_history.json parses") {
        assert_eq!(
            file,
            format!("BENCH_{revision}.json"),
            "index entry file does not match its revision"
        );
        assert!(on_disk.contains(&file), "{file} is indexed, not committed");
        // The artifact's own revision field must agree with the
        // filename, or --against-latest reports deltas under the
        // wrong label.
        let artifact = std::fs::read_to_string(root.join(&file))
            .unwrap_or_else(|e| panic!("{file} unreadable: {e}"));
        let parsed = parse_json(&artifact).unwrap_or_else(|e| panic!("{file}: {e}"));
        let inner = parsed.get("revision").and_then(Json::as_str);
        assert_eq!(inner, Some(revision.as_str()), "{file}: revision field");
        assert!(indexed.insert(file.clone()), "duplicate index entry {file}");
    }
    let unindexed: Vec<&String> = on_disk.difference(&indexed).collect();
    assert!(
        unindexed.is_empty(),
        "committed artifacts missing from bench_history.json: {unindexed:?}"
    );
}

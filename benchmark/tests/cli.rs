//! Drives the built binary the way `run.sh` and the benchmark driver do.
//! Run with `cargo test --release` in `benchmark/` (not part of the repo's
//! tier-1 suite).

use otp_benchmark::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const SIM_WORKLOADS: [&str; 5] =
    ["sim-opt-sparse", "sim-opt-dense", "sim-seq-cons-query", "sim-sharded-cross", "sim-seq-crash"];

/// Runs the binary; returns its exit success and the JSON on the last line
/// of its standard output.
fn bench(args: &[&str], out_dir: &str) -> (bool, Json) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out_dir);
    let output = Command::new(env!("CARGO_BIN_EXE_otp-benchmark"))
        .args(args)
        .args(["--out", out.to_str().expect("utf-8 temp dir")])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("no output from {args:?}; stderr: {}", String::from_utf8_lossy(&output.stderr))
    });
    let doc =
        Json::parse(last).unwrap_or_else(|e| panic!("last line of {args:?} is not JSON: {e}"));
    (output.status.success(), doc)
}

fn field(doc: &Json, group: &str, name: &str) -> f64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{group}.{name} missing"))
}

/// `--seconds` of a run at 1/50 of the declared size (`--seconds 10`).
const FIFTIETH: &str = "0.2";

/// The sim-clock metrics and the exact counts of one traced 1/50-scale
/// run, and its allocations per operation. The latter repeat to within a
/// few allocations per run, not exactly: whether a hash table rehashes in
/// place or reallocates depends on its tombstones, hence on the process's
/// random hash seed.
fn fingerprint(workload: &str, seed: &str) -> (Vec<(String, f64)>, f64) {
    let args =
        ["child", "--workload", workload, "--seed", seed, "--seconds", FIFTIETH, "--trace", "1"];
    let (ok, doc) = bench(&args, &format!("determinism-{workload}-{seed}"));
    assert!(ok, "{workload} seed {seed} failed: {}", doc.render());
    let mut print = Vec::new();
    for name in ["tps", "commit_p50_ms", "commit_p99_ms"] {
        print.push((name.to_string(), field(&doc, "e2e", name)));
    }
    for name in ["broadcast.frames_per_commit", "simnet.events_per_txn"] {
        print.push((name.to_string(), field(&doc, "layers", name)));
    }
    (print, field(&doc, "layers", "cluster.allocs_per_txn"))
}

#[test]
fn sim_workloads_repeat_exactly_and_follow_the_seed() {
    for workload in SIM_WORKLOADS {
        let (first, first_allocs) = fingerprint(workload, "42");
        let (again, again_allocs) = fingerprint(workload, "42");
        assert_eq!(first, again, "{workload}: same seed, different numbers");
        assert!(
            (first_allocs - again_allocs).abs() <= first_allocs * 1e-3,
            "{workload}: allocations per operation moved from {first_allocs} to {again_allocs}"
        );
        let (other, _) = fingerprint(workload, "43");
        assert_ne!(first, other, "{workload}: another seed, same numbers");
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(list: Option<&Json>) -> BTreeSet<String> {
    list.map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let catalogue = otp_benchmark::report::catalogue();
    let declared = benchmark_json();
    for list in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            catalogue.get(list),
            declared.get(list),
            "`{list}` drifted between the binary and BENCHMARK.json"
        );
    }
    for name in names_of(catalogue.get("workloads"))
        .iter()
        .chain(&names_of(catalogue.get("end_to_end")))
        .chain(&names_of(catalogue.get("per_layer")))
    {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }
}

#[test]
fn both_passes_print_exactly_the_declared_metrics() {
    let declared = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args =
            ["--workload", "live-opt-c32", "--seed", "7", "--seconds", FIFTIETH, "--trace", trace];
        let (ok, doc) = bench(&args, &format!("names-{trace}"));
        assert!(ok, "{}", doc.render());
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: BTreeSet<String> = doc
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                assert!(v.get("value").and_then(Json::as_f64).is_some(), "{k} has no value");
                assert!(v.get("unit").and_then(Json::as_str).is_some(), "{k} has no unit");
                k.clone()
            })
            .collect();
        assert_eq!(printed, names_of(declared.get(list)), "--trace {trace} vs `{list}`");
    }
}

#[test]
fn a_run_cut_short_by_its_deadline_counts_failures_and_exits_nonzero() {
    let args = [
        "--workload",
        "sim-opt-sparse",
        "--seed",
        "42",
        "--seconds",
        FIFTIETH,
        "--trace",
        "0",
        "--sim-deadline-s",
        "0.001",
    ];
    let (ok, doc) = bench(&args, "doctored");
    assert!(!ok, "a run with failed operations must not exit 0");
    let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap();
    let failed = doc.get("failed").and_then(Json::as_f64).unwrap();
    assert!(failed > 0.0 && failed <= attempted, "attempted {attempted} failed {failed}");
}

#[test]
fn compare_flags_a_regression_and_an_unresolved_spread() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, tps: f64, min: f64, max: f64| {
        let path = dir.join(name);
        let doc = format!(
            r#"{{"workloads": [{{"name": "sim-opt-sparse", "failed": 0, "metrics":
               {{"tps": {{"value": {tps}, "unit": "1/s", "min": {min}, "max": {max}, "n": 3}}}}}}]}}"#
        );
        std::fs::write(&path, doc).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = file("base.json", 2000.0, 2000.0, 2000.0);
    let run = |other: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_otp-benchmark"))
            .args(["compare", &base, other])
            .output()
            .unwrap();
        (output.status.success(), String::from_utf8(output.stdout).unwrap())
    };
    let (ok, text) = run(&file("same.json", 1990.0, 1990.0, 1990.0));
    assert!(ok && text.contains(" ok"), "{text}");
    let (ok, text) = run(&file("slow.json", 1800.0, 1800.0, 1800.0));
    assert!(!ok && text.contains("REGRESSED"), "{text}");
    let (ok, text) = run(&file("noisy.json", 1800.0, 1500.0, 2100.0));
    assert!(ok && text.contains("unresolved"), "{text}");
}

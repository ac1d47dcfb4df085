//! Tier-1 smoke suite for `otp-lint` (DESIGN.md §13): the workspace must
//! lint clean under the real scope table, the JSON report must be
//! byte-stable across runs, and a doctored tree must fail with the
//! expected rule id and a usable reproducer line. Runs through the
//! library API so it needs no pre-built binary; `make lint-otp` and CI
//! exercise the CLI itself.

use otp_analysis::config::Config;
use otp_analysis::report::RuleId;
use otp_analysis::{analyze_workspace, workspace_files};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // The root package's manifest dir IS the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_lints_clean() {
    let rep = analyze_workspace(&repo_root(), &Config::workspace()).expect("scan workspace");
    assert!(rep.is_clean(), "otp-lint found violations in the workspace:\n{}", rep.render_text());
    // The real tree exercises the scope table: the live-runtime clock
    // reads must show up as audited allowances, not vanish silently.
    assert!(
        rep.allowances
            .iter()
            .any(|a| a.rule == RuleId::WallClock && a.file == "crates/core/src/runtime.rs"),
        "expected audited wall-clock allowances for the live runtime"
    );
    assert!(rep.files_scanned > 50, "suspiciously few files scanned: {}", rep.files_scanned);
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let root = repo_root();
    let cfg = Config::workspace();
    let a = analyze_workspace(&root, &cfg).expect("first run").render_json();
    let b = analyze_workspace(&root, &cfg).expect("second run").render_json();
    assert_eq!(a, b, "two --json runs over the same tree must be byte-identical");
    assert!(a.ends_with("\n"), "report must be newline-terminated for cmp-friendly artifacts");
}

#[test]
fn workspace_walk_is_sorted_and_in_bounds() {
    let files = workspace_files(&repo_root()).expect("walk");
    let mut sorted = files.clone();
    sorted.sort();
    assert_eq!(files, sorted, "workspace walk must be deterministic (sorted)");
    assert!(
        files.iter().all(|f| !f.components().any(|c| c.as_os_str() == "vendor")),
        "vendored shims must stay out of lint scope"
    );
}

/// Builds a throwaway workspace-shaped tree with one doctored source
/// file, lints it with the *real* scope table, and checks the failure
/// mode end-to-end: nonzero findings, the right rule id, and a
/// reproducer line naming the file.
#[test]
fn doctored_tree_fails_with_rule_id_and_reproducer() {
    let dir = std::env::temp_dir().join(format!("otp-lint-smoke-{}", std::process::id()));
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("evil.rs"),
        "pub fn drift(m: &HashMap<u32, u32>) -> Vec<u32> {\n    let t = Instant::now();\n    \
         let mut out = Vec::new();\n    for k in m.keys() {\n        out.push(*k);\n    }\n    \
         touch(t);\n    out\n}\n",
    )
    .expect("write doctored file");

    let rep = analyze_workspace(&dir, &Config::workspace()).expect("scan doctored tree");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!rep.is_clean(), "doctored tree must fail the lint");
    let rules: Vec<RuleId> = rep.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&RuleId::WallClock), "expected wall-clock, got {rules:?}");
    assert!(rules.contains(&RuleId::UnorderedIter), "expected unordered-iter, got {rules:?}");
    let text = rep.render_text();
    assert!(
        text.contains(
            "re-run: cargo run --release -p otp-analysis --bin otp-lint -- --path src/evil.rs"
        ),
        "missing reproducer line:\n{text}"
    );
    assert!(text.contains("src/evil.rs:2: wall-clock:"), "missing diagnostic:\n{text}");
}

/// The committed scope table must only name files (and wire-sending
/// functions) that exist — a stale entry would silently stop auditing
/// anything.
#[test]
fn scope_table_paths_exist() {
    let root = repo_root();
    let cfg = Config::workspace();
    for a in &cfg.scope_allows {
        assert!(root.join(&a.path).is_file(), "stale scope-table entry: {}", a.path);
    }
    for f in &cfg.concurrency_files {
        assert!(root.join(f).is_file(), "stale concurrency-scope entry: {f}");
    }
    for (f, func) in &cfg.net_thread_fns {
        let src = std::fs::read_to_string(root.join(f)).unwrap_or_default();
        assert!(src.contains(&format!("fn {func}(")), "stale blocking-net-send entry: {f} {func}");
    }
}

/// Every `.rs` file under `dir`, sorted, skipping hidden directories, build
/// output, the vendored shims and the benchmark's own workspace.
fn rust_files(dir: &std::path::Path) -> Vec<PathBuf> {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if p.is_dir() {
                if !name.starts_with('.') && !["target", "vendor", "benchmark"].contains(&name) {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files
}

/// Every simulated part, and the threaded runtime's site worker, runs on
/// the one scheduler (`otp_simnet::sched::Sched`, DESIGN.md §19): no source
/// file outside `otp-simnet` builds or names an event queue of its own,
/// and no library code outside it keeps a private due-heap. The
/// benchmark's own workspace (`benchmark/`) measures the queue directly and
/// is exempt.
#[test]
fn no_event_loop_outside_the_scheduler() {
    let root = repo_root();
    let files = rust_files(&root);
    let exempt = root.join("crates/simnet/src");
    let needles = [concat!("EventQueue", "::new"), concat!("EventQueue", "<")];
    let heaps = [concat!("BinaryHeap", "<"), concat!("BinaryHeap", "::new")];
    let offenders: Vec<String> = files
        .iter()
        .filter(|f| !f.starts_with(&exempt))
        .filter(|f| {
            let src = std::fs::read_to_string(f).unwrap_or_default();
            let code = src.split("#[cfg(test)]\nmod tests").next().unwrap_or_default();
            needles.iter().any(|n| src.contains(n)) || heaps.iter().any(|n| code.contains(n))
        })
        .map(|f| f.strip_prefix(&root).unwrap_or(f).display().to_string())
        .collect();
    assert!(files.len() > 50, "suspiciously few files walked: {}", files.len());
    assert!(offenders.is_empty(), "event loops outside the scheduler: {offenders:?}");
}

/// One payload store per site (DESIGN.md §18): a message body is kept in
/// its engine's store, and TO-delivery, which names only ids, reads it
/// there. No library code in `otp-core` keeps a second index by message
/// id; its test modules (`#[cfg(test)] mod tests`, at a file's end) may.
#[test]
fn no_message_id_map_in_the_site_layer() {
    let root = repo_root();
    let files = rust_files(&root.join("crates/core/src"));
    let needles = [concat!("HashMap", "<MsgId"), concat!("BTreeMap", "<MsgId")];
    let offenders: Vec<String> = files
        .iter()
        .filter(|f| {
            let src = std::fs::read_to_string(f).unwrap_or_default();
            let code = src.split("#[cfg(test)]\nmod tests").next().unwrap_or_default();
            needles.iter().any(|n| code.contains(n))
        })
        .map(|f| f.strip_prefix(&root).unwrap_or(f).display().to_string())
        .collect();
    assert!(files.len() > 5, "suspiciously few files walked: {}", files.len());
    assert!(offenders.is_empty(), "a second payload index keyed by message id: {offenders:?}");
}

/// One replica (DESIGN.md §17): the paper's Serialization module is
/// written once, in `crates/core/src/replica.rs`, for both execution
/// policies and for class sets of any size. No other library source
/// defines an Opt-delivery handler of a replica of its own. The
/// benchmark's own workspace (`benchmark/`) is exempt.
#[test]
fn one_replica() {
    let root = repo_root();
    let files: Vec<PathBuf> =
        ["crates", "src"].iter().flat_map(|d| rust_files(&root.join(d))).collect();
    let home = root.join("crates/core/src/replica.rs");
    let offenders: Vec<String> = files
        .iter()
        .filter(|f| **f != home)
        .filter(|f| {
            std::fs::read_to_string(f)
                .unwrap_or_default()
                .contains(concat!("fn ", "on_opt_deliver"))
        })
        .map(|f| f.strip_prefix(&root).unwrap_or(f).display().to_string())
        .collect();
    assert!(files.len() > 50, "suspiciously few files walked: {}", files.len());
    assert!(files.contains(&home), "the replica moved: update this test");
    assert!(offenders.is_empty(), "a second replica: {offenders:?}");
}

/// One interpreter of the fault vocabulary (DESIGN.md §10): what a
/// `NemesisEvent` does is written once, in `Faults::apply` in
/// `otp-simnet`, for both drivers. No library code outside
/// `crates/simnet/src` matches on the vocabulary — no `match` arm, guard,
/// `matches!` or `let` pattern naming one of its variants. Test modules
/// (at a file's end) and integration tests may.
#[test]
fn one_interpreter_of_the_fault_vocabulary() {
    let root = repo_root();
    let files: Vec<PathBuf> =
        ["crates", "src", "examples"].iter().flat_map(|d| rust_files(&root.join(d))).collect();
    let exempt = root.join("crates/simnet/src");
    let offenders: Vec<String> = files
        .iter()
        .filter(|f| !f.starts_with(&exempt) && !f.components().any(|c| c.as_os_str() == "tests"))
        .flat_map(|f| {
            let src = std::fs::read_to_string(f).unwrap_or_default();
            let code = src.split("#[cfg(test)]\nmod tests").next().unwrap_or_default().to_string();
            let name = f.strip_prefix(&root).unwrap_or(f).display().to_string();
            fault_patterns(&code).into_iter().map(move |line| format!("{name}:{line}"))
        })
        .collect();
    assert!(files.len() > 50, "suspiciously few files walked: {}", files.len());
    assert!(offenders.is_empty(), "the fault vocabulary matched outside otp-simnet: {offenders:?}");
}

/// The 1-based lines of `code` where a `NemesisEvent` variant is a
/// pattern: its path (and its `{ .. }` or `( .. )` fields) is followed by
/// `=>`, a match guard, a `|` alternative or a `let`'s `=`, or closes a
/// `matches!(..)`.
fn fault_patterns(code: &str) -> Vec<usize> {
    let needle = concat!("Nemesis", "Event::");
    let bytes = code.as_bytes();
    let mut lines = Vec::new();
    for (at, _) in code.match_indices(needle) {
        let mut i = at + needle.len();
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let skip_ws = |mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        i = skip_ws(i);
        if i < bytes.len() && (bytes[i] == b'{' || bytes[i] == b'(') {
            let mut depth = 0i32;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' | b'(' | b'[' => depth += 1,
                    b'}' | b')' | b']' => depth -= 1,
                    _ => {}
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            i = skip_ws(i);
        }
        let rest = &code[i..];
        let pattern = rest.starts_with("=>")
            || rest.starts_with("if ")
            || (rest.starts_with('|') && !rest.starts_with("||"))
            || (rest.starts_with('=') && !rest.starts_with("=="))
            || (rest.starts_with(')') && closes_matches(&code[..at]));
        if pattern {
            lines.push(code[..at].matches('\n').count() + 1);
        }
    }
    lines
}

/// Whether the innermost bracket still open at the end of `before` is a
/// `matches!(`.
fn closes_matches(before: &str) -> bool {
    let mut depth = 0i32;
    for (i, b) in before.bytes().enumerate().rev() {
        match b {
            b')' | b'}' | b']' => depth += 1,
            b'(' | b'{' | b'[' if depth > 0 => depth -= 1,
            b'(' => return before[..i].ends_with("matches!"),
            b'{' | b'[' => return false,
            _ => {}
        }
    }
    false
}

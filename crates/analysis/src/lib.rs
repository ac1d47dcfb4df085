//! # otp-analysis — the workspace determinism & concurrency linter
//!
//! The repo's central guarantee is bit-identical replay: any seed, any
//! grid cell, twice, byte-for-byte (DESIGN.md §2). CI enforces that
//! *dynamically* (double runs + `cmp`). This crate is the *static* half
//! of the bargain, FoundationDB-style: a dependency-free token-level
//! pass over the workspace's own sources that refuses the constructs
//! which break replay days later — wall-clock reads, `HashMap`
//! iteration order, ambient entropy — plus lock-discipline rules for
//! the threaded runtime where loom/tsan-style hazards live. DESIGN.md
//! §13 is the rule catalogue.
//!
//! Structure:
//! * [`lexer`] — hand-rolled comment/string-stripping tokenizer (no
//!   `syn`, per the offline `vendor/` policy), plus
//!   `// otp-lint: allow(<rule>): <reason>` directive capture.
//! * [`config`] — the scope tables: which files each rule family
//!   covers and the audited per-file allowances.
//! * [`determinism`] / [`concurrency`] — the rule passes.
//! * [`report`] — findings, allowances, text + byte-stable JSON.
//!
//! The linter lints itself: `crates/analysis/src/` is in deterministic
//! scope, which is why every internal table here is a `BTreeMap`/
//! `BTreeSet` and the report renders are byte-stable.

pub mod concurrency;
pub mod config;
pub mod determinism;
pub mod lexer;
pub mod report;

use concurrency::LockEdge;
use config::Config;
use report::{AllowSource, Allowance, Finding, Report, RuleId};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Raw per-file analysis output, before global (cross-file) passes.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Findings that survived suppression.
    pub findings: Vec<Finding>,
    /// Suppressed findings (inline or scope-table).
    pub allowances: Vec<Allowance>,
    /// Lock-graph edges contributed to the workspace graph.
    pub edges: Vec<LockEdge>,
    /// Directives that have not yet suppressed anything (the global
    /// lock-order pass may still consume them).
    pub pending_directives: Vec<PendingDirective>,
}

/// An inline directive carried forward to the global passes.
#[derive(Debug, Clone)]
pub struct PendingDirective {
    /// File the directive lives in.
    pub file: String,
    /// The source line the directive *covers* (its own line when code
    /// shares it, else the next line bearing tokens).
    pub covers_line: u32,
    /// Line of the comment itself, for diagnostics.
    pub at_line: u32,
    /// The allowed rule.
    pub rule: RuleId,
    /// The justification.
    pub reason: String,
}

/// Analyzes one file's source under `cfg`. `path` must be the
/// workspace-relative path with forward slashes — scoping and
/// suppression auditing key off it.
pub fn analyze_file(path: &str, source: &str, cfg: &Config) -> FileAnalysis {
    let lexed = lexer::lex(source);
    let toks = lexer::mask_cfg_test(&lexed.toks);
    let mut out = FileAnalysis::default();

    // Resolve each directive to the line it covers: its own line when
    // that line has tokens (trailing comment), else the next token line.
    let token_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let mut directives: Vec<PendingDirective> = Vec::new();
    for d in &lexed.directives {
        if d.malformed {
            out.findings.push(Finding {
                file: path.to_string(),
                line: d.line,
                rule: RuleId::BadDirective,
                message: "malformed otp-lint directive — the shape is `// otp-lint: \
                          allow(<rule>): <reason>` (reason mandatory)"
                    .to_string(),
            });
            continue;
        }
        let Some(rule) = RuleId::parse(&d.rule) else {
            out.findings.push(Finding {
                file: path.to_string(),
                line: d.line,
                rule: RuleId::BadDirective,
                message: format!("unknown rule `{}` in otp-lint directive", d.rule),
            });
            continue;
        };
        let covers_line = if token_lines.contains(&d.line) {
            d.line
        } else {
            token_lines.range(d.line + 1..).next().copied().unwrap_or(d.line)
        };
        directives.push(PendingDirective {
            file: path.to_string(),
            covers_line,
            at_line: d.line,
            rule,
            reason: d.reason.clone(),
        });
    }

    // Run the rule passes this path is in scope for.
    let mut raw: Vec<(RuleId, u32, String)> = Vec::new();
    if cfg.wall_clock_scope(path) {
        for (line, msg) in determinism::wall_clock(&toks) {
            raw.push((RuleId::WallClock, line, msg));
        }
    }
    if cfg.determinism_scope(path) {
        for (line, msg) in determinism::unordered_iter(&toks) {
            raw.push((RuleId::UnorderedIter, line, msg));
        }
        for (line, msg) in determinism::ambient_rng(&toks) {
            raw.push((RuleId::AmbientRng, line, msg));
        }
    }
    if cfg.float_scope(path) {
        for (line, msg) in determinism::float_accum(&toks) {
            raw.push((RuleId::FloatAccum, line, msg));
        }
    }
    if cfg.concurrency_scope(path) {
        let net = cfg.net_fns_for(path);
        let scan = concurrency::scan(path, &toks, &net);
        for (line, msg) in scan.send_under_lock {
            raw.push((RuleId::SendUnderLock, line, msg));
        }
        for (line, msg) in scan.blocking_net_send {
            raw.push((RuleId::BlockingNetSend, line, msg));
        }
        out.edges = scan.edges;
    }

    // Apply suppressions: inline first (most specific), then the scope
    // table. Either way the hit is recorded as an allowance.
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for (rule, line, msg) in raw {
        let inline =
            directives.iter().enumerate().find(|(_, d)| d.rule == rule && d.covers_line == line);
        if let Some((idx, d)) = inline {
            used.insert(idx);
            out.allowances.push(Allowance {
                file: path.to_string(),
                line,
                rule,
                reason: d.reason.clone(),
                source: AllowSource::Inline,
            });
            continue;
        }
        if let Some(sa) = cfg.scope_allow_for(path, rule) {
            out.allowances.push(Allowance {
                file: path.to_string(),
                line,
                rule,
                reason: sa.reason.clone(),
                source: AllowSource::ScopeTable,
            });
            continue;
        }
        out.findings.push(Finding { file: path.to_string(), line, rule, message: msg });
    }
    out.pending_directives = directives
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, d)| d)
        .collect();
    out
}

/// Code lines of one source file, the unit of the repo's net-lines
/// policy: the lines a token starts on once comments and literals are
/// stripped and `#[cfg(test)]` items are masked. Blank lines, comment
/// lines, lines inside a string literal and test modules count nothing.
pub fn code_lines(source: &str) -> usize {
    let toks = lexer::mask_cfg_test(&lexer::lex(source).toks);
    toks.iter().map(|t| t.line).collect::<BTreeSet<u32>>().len()
}

/// Runs the global passes (the lock graph) and folds everything into a
/// normalized [`Report`]. `per_file` is the per-file output in any
/// order; unused directives become `bad-directive` findings here, after
/// the global passes had their chance to consume them.
pub fn finish(per_file: Vec<FileAnalysis>, files_scanned: usize) -> Report {
    let mut report = Report { findings: Vec::new(), allowances: Vec::new(), files_scanned };
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut pending: Vec<PendingDirective> = Vec::new();
    for f in per_file {
        report.findings.extend(f.findings);
        report.allowances.extend(f.allowances);
        edges.extend(f.edges);
        pending.extend(f.pending_directives);
    }
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for (file, line, msg) in concurrency::lock_cycles(&edges) {
        let inline = pending
            .iter()
            .enumerate()
            .find(|(_, d)| d.rule == RuleId::LockOrder && d.file == file && d.covers_line == line);
        if let Some((idx, d)) = inline {
            used.insert(idx);
            report.allowances.push(Allowance {
                file,
                line,
                rule: RuleId::LockOrder,
                reason: d.reason.clone(),
                source: AllowSource::Inline,
            });
        } else {
            report.findings.push(Finding { file, line, rule: RuleId::LockOrder, message: msg });
        }
    }
    for (i, d) in pending.iter().enumerate() {
        if !used.contains(&i) {
            report.findings.push(Finding {
                file: d.file.clone(),
                line: d.at_line,
                rule: RuleId::BadDirective,
                message: format!(
                    "otp-lint directive allows `{}` but nothing on line {} fires it — remove \
                     the stale suppression",
                    d.rule, d.covers_line
                ),
            });
        }
    }
    report.normalize();
    report
}

/// Deterministically collects the workspace's own `.rs` sources under
/// `root`: `src/` (the facade crate) and every `crates/*/src/` tree.
/// `vendor/`, `target/`, tests and fixtures are out of scope by
/// construction. Paths come back workspace-relative, sorted, with
/// forward slashes.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints the whole workspace at `root` under `cfg`. IO errors surface
/// as `Err`; lint findings live in the returned [`Report`].
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    let mut per_file = Vec::with_capacity(files.len());
    let count = files.len();
    for abs in &files {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(abs)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let source = std::fs::read_to_string(abs)?;
        per_file.push(analyze_file(&rel, &source, cfg));
    }
    Ok(finish(per_file, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_cfg() -> Config {
        Config {
            determinism_prefixes: vec!["sim/".into()],
            float_files: vec!["sim/f.rs".into()],
            concurrency_files: vec!["live/r.rs".into()],
            net_thread_fns: vec![("live/r.rs".into(), "net_main".into())],
            ..Config::default()
        }
    }

    #[test]
    fn inline_allow_suppresses_and_is_audited() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n    // otp-lint: allow(unordered-iter): \
                   order folded into a set\n    for k in m.keys() { touch(k); }\n}";
        let out = analyze_file("sim/a.rs", src, &sim_cfg());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.allowances.len(), 1);
        assert_eq!(out.allowances[0].source, AllowSource::Inline);
    }

    #[test]
    fn stale_directive_is_a_finding() {
        let src = "// otp-lint: allow(wall-clock): nothing here\nfn f() { touch(); }";
        let rep = finish(vec![analyze_file("sim/a.rs", src, &sim_cfg())], 1);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, RuleId::BadDirective);
    }

    #[test]
    fn out_of_scope_files_do_not_fire_determinism_rules() {
        let src = "fn f(m: &HashMap<u32, u32>) { for k in m.keys() { touch(k); } }";
        let out = analyze_file("other/a.rs", src, &sim_cfg());
        assert!(out.findings.is_empty());
    }

    #[test]
    fn code_lines_skip_comments_blank_lines_and_tests() {
        let src = "//! docs\nfn f() {\n\n    // note\n    let s = \"a\nb\nc\";\n}\n#[cfg(test)]\n\
                   mod tests {\n    fn t() {}\n}\n";
        // `fn f() {`, `let s = "a`, `c";` and `}`: the string's middle
        // line and the test module count nothing.
        assert_eq!(code_lines(src), 4);
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(m: &HashMap<u32, u32>) { for k in \
                   m.keys() { touch(k); } }\n}";
        let out = analyze_file("sim/a.rs", src, &sim_cfg());
        assert!(out.findings.is_empty());
    }
}

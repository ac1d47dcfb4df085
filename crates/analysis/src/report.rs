//! Findings, allowances, and the two report renderings (human text and
//! byte-stable JSON). Everything here is deterministic: findings and
//! allowances are sorted by `(file, line, rule)` before rendering, no
//! timestamps or absolute paths appear in the output, and JSON is
//! emitted by hand with a fixed key order — two runs over the same tree
//! are byte-identical, which CI checks.

use std::fmt;

/// Stable rule identifiers — these strings appear in diagnostics, in
/// `allow(<rule>)` suppressions, and in the JSON report, so they are
/// part of the tool's interface and must never be renamed casually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `Instant::now`/`SystemTime` outside the live-runtime allowlist.
    WallClock,
    /// Iteration over `HashMap`/`HashSet` in deterministic scope.
    UnorderedIter,
    /// `thread_rng`/`from_entropy`/`RandomState`-style ambient entropy.
    AmbientRng,
    /// Float `+=` accumulation feeding gated BENCH metrics.
    FloatAccum,
    /// Cyclic Mutex acquisition order across the threaded runtime.
    LockOrder,
    /// Blocking channel `send` while a lock guard is live.
    SendUnderLock,
    /// Blocking `send` on a wire path to a peer (must be `try_send`).
    BlockingNetSend,
    /// A malformed or unused `otp-lint:` directive (suppressions must
    /// stay auditable, so a broken one is itself a finding).
    BadDirective,
}

/// Every rule, in diagnostic order (determinism rules, then
/// concurrency rules, then the meta rule).
pub const ALL_RULES: &[RuleId] = &[
    RuleId::WallClock,
    RuleId::UnorderedIter,
    RuleId::AmbientRng,
    RuleId::FloatAccum,
    RuleId::LockOrder,
    RuleId::SendUnderLock,
    RuleId::BlockingNetSend,
    RuleId::BadDirective,
];

impl RuleId {
    /// The stable string id (`wall-clock`, `unordered-iter`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock",
            RuleId::UnorderedIter => "unordered-iter",
            RuleId::AmbientRng => "ambient-rng",
            RuleId::FloatAccum => "float-accum",
            RuleId::LockOrder => "lock-order",
            RuleId::SendUnderLock => "send-under-lock",
            RuleId::BlockingNetSend => "blocking-net-send",
            RuleId::BadDirective => "bad-directive",
        }
    }

    /// Parses a stable string id back to the rule.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.as_str() == s)
    }

    /// One-line description for `--list-rules` and the catalogue.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::WallClock => {
                "wall-clock read (Instant::now / SystemTime) outside the live-runtime allowlist"
            }
            RuleId::UnorderedIter => {
                "iteration over HashMap/HashSet in deterministic scope — use BTreeMap/BTreeSet \
                 or a sorted collect"
            }
            RuleId::AmbientRng => {
                "ambient entropy (thread_rng / from_entropy / RandomState / OsRng) in \
                 deterministic scope — thread a seeded SimRng instead"
            }
            RuleId::FloatAccum => {
                "float += accumulation on a gated-metrics path — sum integers, or fix the \
                 iteration order and annotate"
            }
            RuleId::LockOrder => {
                "cyclic Mutex acquisition order across the threaded runtime (deadlock risk)"
            }
            RuleId::SendUnderLock => {
                "blocking channel send while a Mutex guard is live (priority-inversion / \
                 deadlock risk) — drop the guard or use try_send"
            }
            RuleId::BlockingNetSend => {
                "blocking send on a wire path to a peer — a site thread must only try_send \
                 (its heap retries Full)"
            }
            RuleId::BadDirective => {
                "malformed or unused otp-lint directive — suppressions must name a rule and a \
                 reason, and must actually suppress something"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a rule fired at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human message (what was seen, what to do instead).
    pub message: String,
}

/// Where an allowance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllowSource {
    /// An inline `// otp-lint: allow(<rule>): <reason>` comment.
    Inline,
    /// The per-crate scope table in `config.rs`.
    ScopeTable,
}

impl AllowSource {
    fn as_str(self) -> &'static str {
        match self {
            AllowSource::Inline => "inline",
            AllowSource::ScopeTable => "scope-table",
        }
    }
}

/// A finding that *would* have fired but was suppressed — kept in the
/// report so every suppression stays auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowance {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The suppressed rule.
    pub rule: RuleId,
    /// The justification (from the comment or the scope table).
    pub reason: String,
    /// Inline comment or scope table.
    pub source: AllowSource,
}

/// The full lint report over a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted.
    pub findings: Vec<Finding>,
    /// Suppressed findings, sorted — the audit trail.
    pub allowances: Vec<Allowance>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings and allowances into the canonical order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        self.allowances.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
    }

    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human rendering: one `file:line: rule-id: message` per finding,
    /// a one-line re-run reproducer per distinct file, and a summary —
    /// the swarm/perf house style.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: {}: {}\n", f.file, f.line, f.rule, f.message));
        }
        if !self.findings.is_empty() {
            out.push('\n');
            let mut seen: Vec<&str> = Vec::new();
            for f in &self.findings {
                if !seen.contains(&f.file.as_str()) {
                    seen.push(&f.file);
                    out.push_str(&format!(
                        "re-run: cargo run --release -p otp-analysis --bin otp-lint -- --path {}\n",
                        f.file
                    ));
                }
            }
        }
        out.push_str(&format!(
            "otp-lint: {} finding(s), {} allowance(s) ({} inline, {} scope-table), {} file(s) \
             scanned\n",
            self.findings.len(),
            self.allowances.len(),
            self.allowances.iter().filter(|a| a.source == AllowSource::Inline).count(),
            self.allowances.iter().filter(|a| a.source == AllowSource::ScopeTable).count(),
            self.files_scanned,
        ));
        out
    }

    /// Byte-stable JSON rendering (fixed key order, sorted entries, no
    /// timestamps or absolute paths) for the CI artifact.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"finding_count\": {},\n", self.findings.len()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule.as_str()),
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"allowances\": [");
        for (i, a) in self.allowances.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"source\": {}, \"reason\": \
                 {}}}",
                json_str(&a.file),
                a.line,
                json_str(a.rule.as_str()),
                json_str(a.source.as_str()),
                json_str(&a.reason)
            ));
        }
        if !self.allowances.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn json_is_stable_across_renders() {
        let mut rep = Report {
            findings: vec![Finding {
                file: "b.rs".into(),
                line: 2,
                rule: RuleId::WallClock,
                message: "x".into(),
            }],
            allowances: vec![],
            files_scanned: 3,
        };
        rep.normalize();
        assert_eq!(rep.render_json(), rep.render_json());
    }

    #[test]
    fn text_has_reproducer_line() {
        let mut rep = Report::default();
        rep.findings.push(Finding {
            file: "crates/core/src/cluster.rs".into(),
            line: 7,
            rule: RuleId::UnorderedIter,
            message: "m".into(),
        });
        let txt = rep.render_text();
        assert!(txt.contains("re-run: cargo run --release -p otp-analysis --bin otp-lint"));
        assert!(txt.contains("crates/core/src/cluster.rs:7: unordered-iter: m"));
    }
}

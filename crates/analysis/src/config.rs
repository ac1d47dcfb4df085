//! The scope tables: which files each rule family covers, and the
//! audited per-file allowances that are too coarse for an inline
//! comment (e.g. "this whole file is the live runtime; its clock reads
//! are the point"). This file — not scattered attributes — is the one
//! place a reviewer looks to see exactly where static determinism
//! enforcement is relaxed and why.

use crate::report::RuleId;

/// A per-file scope-table allowance: `rule` never fires in `path`
/// (workspace-relative, forward slashes), with a mandatory audit
/// reason. Suppressed hits still appear in the report's `allowances`.
#[derive(Debug, Clone)]
pub struct ScopeAllow {
    /// Workspace-relative file path the allowance covers.
    pub path: String,
    /// The rule being allowed.
    pub rule: RuleId,
    /// Why this file is exempt — shows up verbatim in `--json`.
    pub reason: String,
}

/// Full linter configuration. `Config::workspace()` is the real table;
/// tests build synthetic configs so fixtures can exercise every rule
/// regardless of where they live on disk.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes whose files are deterministic-scope (determinism
    /// rules: `unordered-iter`, `ambient-rng`; `wall-clock` is global —
    /// see [`Config::wall_clock_scope`]).
    pub determinism_prefixes: Vec<String>,
    /// Files excluded from deterministic scope even though a prefix
    /// matches (the threaded-runtime files living inside sim crates).
    pub determinism_excludes: Vec<String>,
    /// Files in concurrency scope (`lock-order`, `send-under-lock`).
    pub concurrency_files: Vec<String>,
    /// Files in float-accumulation scope (`float-accum`).
    pub float_files: Vec<String>,
    /// `(file, function)` pairs that hand wires to a peer's bounded
    /// queue: inside those functions any blocking `send` is a
    /// `blocking-net-send` finding.
    pub net_thread_fns: Vec<(String, String)>,
    /// The audited scope-table allowances.
    pub scope_allows: Vec<ScopeAllow>,
}

impl Config {
    /// The real workspace scope table (DESIGN.md §13).
    ///
    /// Determinism scope is every sim-path crate: anything that executes
    /// under `SimClock`/`SimRng` and feeds the byte-compared artifacts
    /// (BENCH.json, trace dumps, the chaos verdicts). The threaded
    /// runtime (`runtime.rs`, `lab/live.rs`, `lab/watchdog.rs`,
    /// `bench/soak.rs`) is *concurrency* scope instead: wall clocks are
    /// its job, lock discipline is its hazard.
    pub fn workspace() -> Config {
        let det_prefixes = [
            "crates/simnet/src/",
            "crates/broadcast/src/",
            "crates/consensus/src/",
            "crates/core/src/",
            "crates/txn/src/",
            "crates/storage/src/",
            "crates/view/src/",
            "crates/workload/src/",
            "crates/telemetry/src/",
            "crates/bench/src/",
            "crates/lab/src/",
            // The linter lints itself: its report must be byte-stable.
            "crates/analysis/src/",
            "src/",
        ];
        let det_excludes = [
            // The threaded real-clock runtime and its harnesses: live
            // scope, covered by the concurrency rules instead.
            "crates/core/src/runtime.rs",
            "crates/lab/src/live.rs",
            "crates/lab/src/watchdog.rs",
            "crates/bench/src/soak.rs",
            "crates/bench/src/bin/soak.rs",
        ];
        let concurrency = [
            "crates/core/src/runtime.rs",
            "crates/lab/src/live.rs",
            "crates/lab/src/watchdog.rs",
            "crates/bench/src/soak.rs",
            "crates/bench/src/bin/soak.rs",
        ];
        // Float accumulation is policed where gated or published metrics
        // are computed: the perf matrix, its JSON writer, and the
        // figure-table paths in the bench crate root.
        let float = [
            "crates/bench/src/perf.rs",
            "crates/bench/src/json.rs",
            "crates/bench/src/lib.rs",
            "crates/simnet/src/metrics.rs",
        ];
        // A site thread is the network: it hands each wire to the peer's
        // queue itself, and must never block doing so (DESIGN.md §9).
        let net_fns = [
            ("crates/core/src/runtime.rs", "hand_off"),
            ("crates/core/src/runtime.rs", "multicast"),
            ("crates/core/src/runtime.rs", "send"),
        ];
        let allows: &[(&str, RuleId, &str)] = &[
            (
                "crates/core/src/runtime.rs",
                RuleId::WallClock,
                "the threaded real-clock runtime: wall time *is* its time base (DESIGN.md §9)",
            ),
            (
                "crates/lab/src/live.rs",
                RuleId::WallClock,
                "live-nemesis fault plans map sim offsets onto wall time by design (DESIGN.md §10)",
            ),
            (
                "crates/lab/src/watchdog.rs",
                RuleId::WallClock,
                "the watchdog exists to bound wall-clock time; Instant is the point",
            ),
            (
                "crates/bench/src/soak.rs",
                RuleId::WallClock,
                "soak measures wall-clock throughput of the threaded runtime; timings are \
                 non-gating (DESIGN.md §9)",
            ),
            (
                "crates/bench/src/bin/soak.rs",
                RuleId::WallClock,
                "soak CLI: wall-clock wrapper around the live runtime",
            ),
        ];
        Config {
            determinism_prefixes: det_prefixes.iter().map(|s| s.to_string()).collect(),
            determinism_excludes: det_excludes.iter().map(|s| s.to_string()).collect(),
            concurrency_files: concurrency.iter().map(|s| s.to_string()).collect(),
            float_files: float.iter().map(|s| s.to_string()).collect(),
            net_thread_fns: net_fns.iter().map(|(f, n)| (f.to_string(), n.to_string())).collect(),
            scope_allows: allows
                .iter()
                .map(|(p, r, why)| ScopeAllow {
                    path: p.to_string(),
                    rule: *r,
                    reason: why.to_string(),
                })
                .collect(),
        }
    }

    /// Is `path` in deterministic scope (for `unordered-iter` /
    /// `ambient-rng`)?
    pub fn determinism_scope(&self, path: &str) -> bool {
        self.determinism_prefixes.iter().any(|p| path.starts_with(p.as_str()))
            && !self.determinism_excludes.iter().any(|e| e == path)
    }

    /// Is `path` in wall-clock scope? The `wall-clock` rule is global —
    /// every linted file — with the live-runtime files carved out via
    /// the scope table (so their exemptions are audited, not silent).
    pub fn wall_clock_scope(&self, _path: &str) -> bool {
        true
    }

    /// Is `path` in concurrency scope (for `lock-order` /
    /// `send-under-lock`)?
    pub fn concurrency_scope(&self, path: &str) -> bool {
        self.concurrency_files.iter().any(|f| f == path)
    }

    /// Is `path` in float-accumulation scope (for `float-accum`)?
    pub fn float_scope(&self, path: &str) -> bool {
        self.float_files.iter().any(|f| f == path)
    }

    /// Wire-sending function names for `path` (for `blocking-net-send`).
    pub fn net_fns_for(&self, path: &str) -> Vec<&str> {
        self.net_thread_fns.iter().filter(|(f, _)| f == path).map(|(_, n)| n.as_str()).collect()
    }

    /// Scope-table allowance lookup for a would-be finding.
    pub fn scope_allow_for(&self, path: &str, rule: RuleId) -> Option<&ScopeAllow> {
        self.scope_allows.iter().find(|a| a.path == path && a.rule == rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_is_concurrency_not_determinism_scope() {
        let c = Config::workspace();
        assert!(!c.determinism_scope("crates/core/src/runtime.rs"));
        assert!(c.concurrency_scope("crates/core/src/runtime.rs"));
        assert!(c.determinism_scope("crates/core/src/cluster.rs"));
        assert!(!c.concurrency_scope("crates/core/src/cluster.rs"));
        // The site layer both drivers share is simulator code too: the
        // live time source reaches it only through `SiteEffects::now`.
        assert!(c.determinism_scope("crates/core/src/site.rs"));
        assert!(!c.concurrency_scope("crates/core/src/site.rs"));
        assert!(c.scope_allow_for("crates/core/src/site.rs", RuleId::WallClock).is_none());
    }

    #[test]
    fn live_clock_sites_are_scope_allowed() {
        let c = Config::workspace();
        for f in ["crates/core/src/runtime.rs", "crates/lab/src/watchdog.rs"] {
            assert!(c.scope_allow_for(f, RuleId::WallClock).is_some(), "{f}");
        }
        assert!(c.scope_allow_for("crates/core/src/cluster.rs", RuleId::WallClock).is_none());
    }
}

//! The concurrency rule family for the threaded runtime: `lock-order`
//! (cyclic Mutex acquisition across the program), `send-under-lock`
//! (blocking channel send while a guard is live), `blocking-net-send`
//! (wire paths to a peer must only `try_send`).
//!
//! Guard tracking is lexical: a `.lock()` bound by `let` (or held by an
//! `if let`/`while let` scrutinee — Rust extends those temporaries to
//! the end of the statement's block) is live until its enclosing block
//! closes or the guard variable is `drop`ped; an unbound `.lock()` in
//! an expression statement is live to the end of that statement. Locks
//! are keyed by the *field or binding name* of the Mutex (`self.next_seq
//! .lock()` → `next_seq`), which is how humans state lock-order
//! protocols anyway. Acquiring key B while key A's guard is live adds
//! the edge A→B to a program-wide graph; any cycle — including the
//! self-edge of a re-entrant `.lock()` on one key — is a finding.

use crate::lexer::Tok;
use std::collections::{BTreeMap, BTreeSet};

/// A raw rule hit: line + message.
pub type Hit = (u32, String);

/// One observed nested acquisition: while `from`'s guard was live,
/// `to` was locked at `line` (inside `func`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Key of the already-held lock.
    pub from: String,
    /// Key of the lock acquired under it.
    pub to: String,
    /// Workspace-relative file of the inner acquisition.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Enclosing function, for the diagnostic.
    pub func: String,
}

/// Per-file concurrency scan output.
#[derive(Debug, Default)]
pub struct ConcurrencyScan {
    /// `send-under-lock` hits.
    pub send_under_lock: Vec<Hit>,
    /// `blocking-net-send` hits.
    pub blocking_net_send: Vec<Hit>,
    /// Nested-acquisition edges for the global lock graph.
    pub edges: Vec<LockEdge>,
}

fn is(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i).map(|t| t.text == s).unwrap_or(false)
}

/// A function body: name plus the token range of its `{ … }` block.
struct FnBody {
    name: String,
    start: usize,
    end: usize,
}

fn split_functions(toks: &[Tok]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is(toks, i, "fn") && toks.get(i + 1).is_some() {
            let name = toks[i + 1].text.clone();
            // Body = first `{` at paren depth 0 after the signature.
            let mut paren = 0i32;
            let mut j = i + 2;
            let mut body_start = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    ";" if paren == 0 => break, // trait method decl
                    "{" if paren == 0 => {
                        body_start = Some(j);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(s) = body_start {
                let mut depth = 0i32;
                let mut k = s;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                out.push(FnBody { name, start: s, end: k });
                // Nested fns are rescanned from inside; cheap and rare.
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Walks back from the index of `.` (before `lock`) to key the mutex:
/// the nearest plain field/binding identifier, skipping index groups.
fn lock_key(toks: &[Tok], dot: usize) -> Option<String> {
    let mut i = dot;
    loop {
        if i == 0 {
            return None;
        }
        let t = toks[i - 1].text.as_str();
        if t == "]" {
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                match toks[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            i = j;
        } else if t == ")" || t == "self" {
            // A call result is unnameable; a bare `self` means the whole
            // object is the mutex, which the field-name keying cannot use.
            return None;
        } else if t.chars().next().map(|c| c.is_alphabetic() || c == '_').unwrap_or(false) {
            return Some(t.to_string());
        } else {
            return None;
        }
    }
}

#[derive(Debug)]
struct Guard {
    key: String,
    /// Binding name when `let`-bound (so `drop(name)` releases it).
    var: Option<String>,
    /// Brace depth at acquisition; a scoped guard dies when depth drops
    /// below this.
    depth: i32,
    /// Statement-transient guard: dies at the next `;` at its depth.
    transient: bool,
}

/// Scans one file. `net_fns` are the function names that run on a net
/// thread in this file (from the scope table).
pub fn scan(file: &str, toks: &[Tok], net_fns: &[&str]) -> ConcurrencyScan {
    let mut out = ConcurrencyScan::default();
    for f in split_functions(toks) {
        scan_body(file, toks, &f, net_fns.contains(&f.name.as_str()), &mut out);
    }
    out
}

fn scan_body(file: &str, toks: &[Tok], f: &FnBody, is_net_fn: bool, out: &mut ConcurrencyScan) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // Statement shape, tracked from the last `;`/`{`/`}`: whether it
    // began with `let` (and the bound name) or `if`/`while` + `let`.
    let mut stmt_first: Option<String> = None;
    let mut stmt_let_var: Option<String> = None;
    let mut stmt_has_let = false;
    let mut i = f.start;
    while i <= f.end && i < toks.len() {
        let t = toks[i].text.as_str();
        match t {
            "{" => {
                depth += 1;
                stmt_first = None;
                stmt_has_let = false;
                stmt_let_var = None;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_first = None;
                stmt_has_let = false;
                stmt_let_var = None;
            }
            ";" => {
                guards.retain(|g| !(g.transient && g.depth == depth));
                stmt_first = None;
                stmt_has_let = false;
                stmt_let_var = None;
            }
            _ => {
                if stmt_first.is_none() {
                    stmt_first = Some(t.to_string());
                }
                if t == "let" {
                    stmt_has_let = true;
                    let mut j = i + 1;
                    if is(toks, j, "mut") {
                        j += 1;
                    }
                    stmt_let_var = toks.get(j).map(|x| x.text.clone());
                }
                // `drop(var)` releases a let-bound guard early.
                if t == "drop" && is(toks, i + 1, "(") {
                    if let Some(v) = toks.get(i + 2).map(|x| x.text.clone()) {
                        guards.retain(|g| g.var.as_deref() != Some(v.as_str()));
                    }
                }
                // Lock acquisition: `. lock ( )`.
                if t == "." && is(toks, i + 1, "lock") && is(toks, i + 2, "(") {
                    if let Some(key) = lock_key(toks, i) {
                        let line = toks[i + 1].line;
                        for g in &guards {
                            out.edges.push(LockEdge {
                                from: g.key.clone(),
                                to: key.clone(),
                                file: file.to_string(),
                                line,
                                func: f.name.clone(),
                            });
                        }
                        let first = stmt_first.as_deref().unwrap_or("");
                        let scoped = stmt_has_let || matches!(first, "if" | "while" | "match");
                        guards.push(Guard {
                            key,
                            var: if first == "let" { stmt_let_var.clone() } else { None },
                            depth,
                            transient: !scoped,
                        });
                    }
                }
                // Blocking channel send: `. send (`.
                if t == "." && is(toks, i + 1, "send") && is(toks, i + 2, "(") {
                    let line = toks[i + 1].line;
                    if !guards.is_empty() {
                        let held: Vec<&str> = guards.iter().map(|g| g.key.as_str()).collect();
                        out.send_under_lock.push((
                            line,
                            format!(
                                "blocking `send` in `{}` while holding lock(s) [{}] — drop the \
                                 guard first or use try_send",
                                f.name,
                                held.join(", ")
                            ),
                        ));
                    }
                    if is_net_fn {
                        out.blocking_net_send.push((
                            line,
                            format!(
                                "blocking `send` on wire path `{}` — a site thread must only \
                                 try_send to a peer (its heap retries Full)",
                                f.name
                            ),
                        ));
                    }
                }
            }
        }
        i += 1;
    }
}

/// Finds cycles in the program-wide lock graph. Returns one hit per
/// distinct cycle, attributed to the smallest-line edge that closes it,
/// in deterministic order.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<(String, u32, String)> {
    // Adjacency with the witness edge per (from, to) pair (keep the
    // first by file/line order for determinism).
    let mut sorted: Vec<&LockEdge> = edges.iter().collect();
    sorted.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.from.as_str(), a.to.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.from.as_str(),
            b.to.as_str(),
        ))
    });
    let mut adj: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    for e in sorted {
        adj.entry(e.from.as_str()).or_default().entry(e.to.as_str()).or_insert(e);
    }
    // DFS from every node; report each cycle once, keyed by its
    // normalized (lexicographically rotated) node sequence.
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut hits = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack: Vec<&str> = vec![start];
        let mut path_set: BTreeSet<&str> = [start].into();
        dfs(start, &adj, &mut stack, &mut path_set, &mut seen_cycles, &mut hits);
    }
    hits.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
    hits.dedup();
    hits
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, &'a LockEdge>>,
    stack: &mut Vec<&'a str>,
    path_set: &mut BTreeSet<&'a str>,
    seen: &mut BTreeSet<Vec<String>>,
    hits: &mut Vec<(String, u32, String)>,
) {
    let Some(next) = adj.get(node) else { return };
    for (&to, &edge) in next {
        if path_set.contains(to) {
            // Cycle: the suffix of the stack from `to` onward, closed by
            // this edge. Normalize by rotating the smallest key first.
            let pos = stack.iter().position(|&n| n == to).unwrap();
            let mut cyc: Vec<String> = stack[pos..].iter().map(|s| s.to_string()).collect();
            let min_idx =
                cyc.iter().enumerate().min_by(|a, b| a.1.cmp(b.1)).map(|(i, _)| i).unwrap_or(0);
            cyc.rotate_left(min_idx);
            if seen.insert(cyc.clone()) {
                let shape = if cyc.len() == 1 {
                    format!("re-entrant lock on `{}`", cyc[0])
                } else {
                    format!("lock-order cycle [{}]", cyc.join(" -> "))
                };
                hits.push((
                    edge.file.clone(),
                    edge.line,
                    format!(
                        "{shape}: `{}` acquired while `{}` held in `{}` closes the cycle — \
                         impose one global acquisition order",
                        edge.to, edge.from, edge.func
                    ),
                ));
            }
            continue;
        }
        stack.push(to);
        path_set.insert(to);
        dfs(to, adj, stack, path_set, seen, hits);
        stack.pop();
        path_set.remove(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str, net: &[&str]) -> ConcurrencyScan {
        scan("f.rs", &lex(src).toks, net)
    }

    #[test]
    fn nested_locks_build_edges() {
        let src = "fn f(&self) { let a = self.next_seq.lock(); \
                   self.submit_times[i].lock().insert(k, v); use_it(a); }";
        let s = scan_src(src, &[]);
        assert_eq!(s.edges.len(), 1);
        assert_eq!(s.edges[0].from, "next_seq");
        assert_eq!(s.edges[0].to, "submit_times");
    }

    #[test]
    fn transient_guard_dies_at_statement_end() {
        let src = "fn f(&self) { self.a.lock().push(1); self.b.lock().push(2); }";
        let s = scan_src(src, &[]);
        assert!(s.edges.is_empty());
    }

    #[test]
    fn drop_releases_guard() {
        let src = "fn f(&self) { let g = self.a.lock(); drop(g); self.b.lock().push(2); }";
        let s = scan_src(src, &[]);
        assert!(s.edges.is_empty());
    }

    #[test]
    fn send_under_lock_fires() {
        let src = "fn f(&self) { let g = self.a.lock(); self.tx.send(msg).unwrap(); use_it(g); }";
        let s = scan_src(src, &[]);
        assert_eq!(s.send_under_lock.len(), 1);
        let ok = "fn f(&self) { let g = self.a.lock(); drop(g); self.tx.send(msg).unwrap(); }";
        assert!(scan_src(ok, &[]).send_under_lock.is_empty());
    }

    #[test]
    fn try_send_is_not_flagged() {
        let src = "fn f(&self) { let g = self.a.lock(); self.tx.try_send(msg).ok(); use_it(g); }";
        assert!(scan_src(src, &[]).send_under_lock.is_empty());
    }

    #[test]
    fn net_fn_blocking_send_fires() {
        let src = "fn net_main(tx: Sender<W>) { tx.send(w).ok(); }";
        let s = scan_src(src, &["net_main"]);
        assert_eq!(s.blocking_net_send.len(), 1);
        let ok = "fn net_main(tx: Sender<W>) { tx.try_send(w).ok(); }";
        assert!(scan_src(ok, &["net_main"]).blocking_net_send.is_empty());
    }

    #[test]
    fn cycle_detected_across_functions() {
        let a = "fn f(&self) { let g = self.a.lock(); self.b.lock().push(1); use_it(g); }";
        let b = "fn g(&self) { let g = self.b.lock(); self.a.lock().push(1); use_it(g); }";
        let mut edges = scan_src(a, &[]).edges;
        edges.extend(scan_src(b, &[]).edges);
        let cycles = lock_cycles(&edges);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].2.contains("lock-order cycle"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = "fn f(&self) { let g = self.a.lock(); self.b.lock().push(1); use_it(g); }";
        let b = "fn g(&self) { let g = self.a.lock(); self.b.lock().push(2); use_it(g); }";
        let mut edges = scan_src(a, &[]).edges;
        edges.extend(scan_src(b, &[]).edges);
        assert!(lock_cycles(&edges).is_empty());
    }

    #[test]
    fn reentrant_lock_is_a_cycle() {
        let src = "fn f(&self) { let g = self.a.lock(); self.a.lock().push(1); use_it(g); }";
        let cycles = lock_cycles(&scan_src(src, &[]).edges);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].2.contains("re-entrant"));
    }
}

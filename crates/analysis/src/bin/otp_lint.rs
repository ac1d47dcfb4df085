//! The `otp-lint` CLI: the workspace determinism & concurrency linter.
//!
//! ```text
//! otp-lint [--root DIR] [--path FILE]... [--json] [--out FILE] [--list-rules] [--loc]
//! ```
//!
//! Default mode lints the whole workspace (every `crates/*/src` tree
//! plus the facade `src/`) under the scope table in
//! `crates/analysis/src/config.rs` and exits nonzero with one
//! `file:line: rule-id: message` diagnostic per finding and a one-line
//! re-run reproducer per offending file — the swarm/perf house style.
//!
//! `--path FILE` (repeatable) lints just those files — the reproducer
//! mode the diagnostics print. `--json` renders the byte-stable report
//! (two runs over the same tree are byte-identical; CI uploads it as an
//! artifact), `--out FILE` writes it to a file instead of stdout.
//!
//! `--loc` lints nothing: it prints each file's code lines
//! ([`otp_analysis::code_lines`]: comments stripped, `#[cfg(test)]`
//! items masked) as `<lines>\t<path>`, then `<total>\ttotal`.
//! `scripts/net_lines.sh` diffs two such listings.

use otp_analysis::config::Config;
use otp_analysis::report::{Report, ALL_RULES};
use otp_analysis::{analyze_file, code_lines, finish, workspace_files};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    paths: Vec<String>,
    json: bool,
    out: Option<String>,
    list_rules: bool,
    loc: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        paths: Vec::new(),
        json: false,
        out: None,
        list_rules: false,
        loc: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--path" => args.paths.push(value("--path")?),
            "--json" => args.json = true,
            "--out" => args.out = Some(value("--out")?),
            "--list-rules" => args.list_rules = true,
            "--loc" => args.loc = true,
            "--help" | "-h" => {
                println!(
                    "otp-lint [--root DIR] [--path FILE]... [--json] [--out FILE] [--list-rules] \
                     [--loc]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Walks up from `start` to the workspace root (the directory holding
/// a `crates/` dir next to a `Cargo.toml`), so the binary works from
/// any cwd inside the repo.
fn find_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

fn run() -> Result<(Report, Args), String> {
    let args = parse_args()?;
    if args.list_rules {
        for r in ALL_RULES {
            println!("{:<18} {}", r.as_str(), r.describe());
        }
        std::process::exit(0);
    }
    let root = if args.root.as_os_str() == "." {
        find_root(&std::env::current_dir().map_err(|e| e.to_string())?)
    } else {
        args.root.clone()
    };
    if args.loc {
        print_loc(&root, &args.paths)?;
        std::process::exit(0);
    }
    let cfg = Config::workspace();
    let report = if args.paths.is_empty() {
        otp_analysis::analyze_workspace(&root, &cfg)
            .map_err(|e| format!("walking {}: {e}", root.display()))?
    } else {
        let mut per_file = Vec::new();
        for rel in &args.paths {
            let abs = root.join(rel);
            let source =
                std::fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
            per_file.push(analyze_file(rel, &source, &cfg));
        }
        finish(per_file, args.paths.len())
    };
    Ok((report, args))
}

/// `--loc`: code lines of `paths` (workspace-relative), or of every
/// workspace file when `paths` is empty, then their total.
fn print_loc(root: &Path, paths: &[String]) -> Result<(), String> {
    let rels: Vec<String> = if paths.is_empty() {
        let files =
            workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
        files
            .iter()
            .map(|abs| {
                let rel = abs.strip_prefix(root).unwrap_or(abs).to_string_lossy();
                rel.replace(std::path::MAIN_SEPARATOR, "/")
            })
            .collect()
    } else {
        paths.to_vec()
    };
    let mut total = 0;
    for rel in rels {
        let abs = root.join(&rel);
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        let lines = code_lines(&source);
        total += lines;
        println!("{lines}\t{rel}");
    }
    println!("{total}\ttotal");
    Ok(())
}

fn main() -> ExitCode {
    let (report, args) = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("otp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let json = args.json || args.out.is_some();
    let rendered = if json { report.render_json() } else { report.render_text() };
    match args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("otp-lint: could not write {path}: {e}");
                return ExitCode::from(2);
            }
            // Keep the human summary on stdout even when the JSON went
            // to a file — CI logs stay readable.
            print!("{}", report.render_text());
        }
        None => print!("{rendered}"),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

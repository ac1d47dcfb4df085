//! The repo's benchmark: 6 end-to-end metrics × 7 workloads on both
//! drivers, with a per-layer cost ledger measured from outside the program.
//! See `benchmark/README.md`.
//!
//! ```text
//! otp-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! otp-benchmark compare A.json B.json
//! ```
//!
//! `run` executes every repetition of every workload in a fresh child
//! process (`otp-benchmark child …`), so peak RSS and allocator state are
//! per run.

pub mod adapter;
pub mod json;
pub mod ledger;
pub mod measure;
pub mod outcome;
pub mod report;
pub mod workloads;

use json::Json;

/// Parsed command line of `run` and `child`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// The size knob, under the name the benchmark contract passes: every
    /// workload's operation count is proportional to it.
    pub seconds: f64,
    pub trace: bool,
    pub out: String,
    /// Overrides the simulated deadline (the tests' doctored run).
    pub sim_deadline_s: Option<f64>,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        out: std::env::var("OTP_BENCHMARK_OUT").unwrap_or_else(|_| "benchmark/out".into()),
        sim_deadline_s: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v:?}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => a.seconds = num(value()?)?,
            "--sim-deadline-s" => a.sim_deadline_s = Some(num(value()?)?),
            "--out" => a.out = value()?,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(w) = &a.workload {
        if workloads::by_name(w).is_none() {
            let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w:?} (one of {})", names.join(", ")));
        }
    }
    Ok(a)
}

/// Runs the command line `argv` (without the program name). `Ok(true)` is
/// a clean run; `Ok(false)` a run whose outputs were wrong or that failed
/// operations; `Err` a usage or I/O error.
pub fn run_cli(argv: &[String]) -> Result<bool, String> {
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(cmd @ ("run" | "child" | "compare")) => (cmd, &argv[1..]),
        _ => ("run", argv),
    };
    match cmd {
        "compare" => report::compare(rest),
        "child" => report::child(&parse_args(rest)?),
        _ => report::run(&parse_args(rest)?),
    }
}

/// One-line JSON of the contract's result shape.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

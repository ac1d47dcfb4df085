//! Orchestration and printing: the child that runs one workload once, the
//! parent that repeats it in fresh processes and reports medians, and
//! `compare`.

use crate::json::Json;
use crate::ledger::{END_TO_END, PER_LAYER};
use crate::outcome::{Outcome, Spans};
use crate::workloads::{self, Spec, Workload};
use crate::{adapter, measure, result_line, Args};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--seconds` at which the sizes in `workloads.rs` run unscaled. The
/// declared `--seconds 10` runs them × 1.25: the smallest timed phase
/// (`sim-seq-crash`) is then above 3 s and the smallest latency sample
/// (`sim-opt-sparse`) is 100 000, so 1 000 samples lie beyond every p99.
const REFERENCE_SECONDS: f64 = 8.0;
/// Fresh child processes per workload in the untraced pass.
const REPETITIONS: usize = 3;
/// Set-ups per untraced child (the last one is the one that runs).
const SETUPS_PER_CHILD: usize = 3;
/// Wall budget of one `run` invocation's children; the contract allows 180 s.
const INVOCATION_BUDGET: Duration = Duration::from_secs(160);

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn map_json(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), num(*v))).collect())
}

fn json_map(j: Option<&Json>) -> BTreeMap<String, f64> {
    j.map(|j| j.as_obj().iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
        .unwrap_or_default()
}

// ----------------------------------------------------------------------
// Child: one workload, once, in this process.
// ----------------------------------------------------------------------

fn end_to_end(o: &Outcome) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("setup_s".to_string(), o.setup_s),
        ("tps".to_string(), o.tps()),
        ("commit_p50_ms".to_string(), o.commit_p50_ms),
        ("commit_p99_ms".to_string(), o.commit_p99_ms),
        ("cpu_us_per_txn".to_string(), o.cpu_us_per_txn()),
        ("peak_rss_mb".to_string(), measure::peak_rss_kb() as f64 / 1024.0),
    ])
}

pub fn child(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("child needs --workload")?;
    let workload = workloads::by_name(name).ok_or("unknown workload")?;
    let scale = args.seconds / REFERENCE_SECONDS;
    let mut spec = workload.spec.scaled(scale);
    if let (Spec::Sim(s), Some(d)) = (&mut spec, args.sim_deadline_s) {
        s.deadline_s = d;
    }
    let mut spans = Spans::default();
    // Set-up is short, so each untraced child sets up several times and
    // reports the median; the traced child's set-up is not reported.
    let setups = if args.trace { 1 } else { SETUPS_PER_CHILD };
    let (mut outcome, _) = spans.scope(name, "bench", |spans| match &spec {
        Spec::Sim(s) => adapter::run_sim(s, args.seed, args.trace, setups, spans),
        Spec::Live(l) => adapter::run_live(l, args.seed, args.trace, setups, spans),
    });
    // Read before the replays allocate: the peak belongs to the run.
    let e2e = end_to_end(&outcome);
    if args.trace {
        let ((), _) = spans.scope("replays", "bench", |spans| {
            adapter::replay_layers(&spec, args.seed, scale, &mut outcome, spans);
        });
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
        let path = format!("{}/trace-{name}.json", args.out);
        std::fs::write(&path, spans.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    let doc = Json::obj([
        ("attempted", num(outcome.attempted as f64)),
        ("completed", num(outcome.completed as f64)),
        ("failed", num(outcome.failed() as f64)),
        ("correct", Json::Bool(outcome.correct())),
        (
            "checks",
            Json::Obj(
                outcome.checks.iter().map(|(k, ok)| (k.to_string(), Json::Bool(*ok))).collect(),
            ),
        ),
        ("e2e", map_json(&e2e)),
        ("layers", map_json(&outcome.layers)),
        (
            "info",
            Json::obj([
                ("latency_samples", num(outcome.latency_samples as f64)),
                ("wall_s", num(outcome.wall_s)),
                ("cpu_s", num(outcome.cpu.total_s())),
                ("generator_blocked_share", num(outcome.generator_blocked_share)),
            ]),
        ),
    ]);
    println!("{}", doc.render());
    Ok(outcome.correct() && outcome.failed() == 0)
}

// ----------------------------------------------------------------------
// Parent: fresh child processes, medians, the contract's result line.
// ----------------------------------------------------------------------

/// What the parent keeps of one child.
struct Rep {
    attempted: u64,
    failed: u64,
    correct: bool,
    failed_checks: Vec<String>,
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    info: BTreeMap<String, f64>,
}

/// Spawns one child and waits for it under `budget`; a child that outlives
/// the budget is killed and reported as an error, never waited on forever.
fn spawn_child(args: &Args, name: &str, trace: bool, budget: Duration) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--out", &args.out])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(d) = args.sim_deadline_s {
        cmd.args(["--sim-deadline-s", &d.to_string()]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning child: {e}"))?;
    let started = Instant::now();
    // The child prints a single line at exit, far below the pipe's
    // capacity, so polling for exit before reading cannot deadlock.
    loop {
        match child.try_wait().map_err(|e| format!("waiting for child: {e}"))? {
            Some(_) => break,
            None if started.elapsed() > budget => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{name}: child exceeded {budget:?} and was killed"));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut text).map_err(|e| format!("reading child: {e}"))?;
    }
    let line = text.lines().last().ok_or_else(|| format!("{name}: child printed nothing"))?;
    let doc = Json::parse(line).map_err(|e| format!("{name}: child output: {e}"))?;
    let int = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Rep {
        attempted: int("attempted"),
        failed: int("failed"),
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        failed_checks: doc
            .get("checks")
            .map(|c| c.as_obj().iter().filter(|(_, ok)| ok.as_bool() != Some(true)))
            .into_iter()
            .flatten()
            .map(|(k, _)| k.clone())
            .collect(),
        e2e: json_map(doc.get("e2e")),
        layers: json_map(doc.get("layers")),
        info: json_map(doc.get("info")),
    })
}

/// A reported metric: the median over repetitions with its extremes.
struct Reported {
    name: String,
    unit: &'static str,
    value: f64,
    min: f64,
    max: f64,
    n: usize,
}

fn summarise(name: &str, unit: &'static str, samples: &[f64]) -> Reported {
    let mut sorted = samples.to_vec();
    let value = measure::median(&mut sorted);
    Reported {
        name: name.to_string(),
        unit,
        value,
        min: sorted.first().copied().unwrap_or(0.0),
        max: sorted.last().copied().unwrap_or(0.0),
        n: samples.len(),
    }
}

struct WorkloadReport {
    name: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
    notes: Vec<String>,
}

impl WorkloadReport {
    fn metrics_json(&self, with_spread: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", num(m.value)), ("unit", Json::Str(m.unit.to_string()))];
                    if with_spread {
                        fields.extend([
                            ("min", num(m.min)),
                            ("max", num(m.max)),
                            ("n", num(m.n as f64)),
                        ]);
                    }
                    (m.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }

    fn print(&self, header: &str) {
        println!("== {} ({header}) ==", self.name);
        println!(
            "{:<40} {:>8} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "min", "max", "n"
        );
        for m in &self.metrics {
            println!(
                "{:<40} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name, m.unit, m.value, m.min, m.max, m.n
            );
        }
        println!(
            "operations: attempted {} failed {}; outputs {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for note in &self.notes {
            println!("note: {note}");
        }
    }
}

/// Untraced pass of one workload: fresh processes, same seed.
fn run_untraced(args: &Args, w: &Workload, deadline: Instant) -> Result<WorkloadReport, String> {
    let mut reps = Vec::new();
    for _ in 0..REPETITIONS {
        let budget = deadline.saturating_duration_since(Instant::now());
        reps.push(spawn_child(args, w.name, false, budget)?);
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let samples: Vec<f64> =
                reps.iter().map(|r| r.e2e.get(m.name).copied().unwrap_or(0.0)).collect();
            summarise(m.name, m.unit, &samples)
        })
        .collect();
    let mut notes = Vec::new();
    for r in &reps {
        for c in &r.failed_checks {
            notes.push(format!("check failed: {c}"));
        }
    }
    if let Some(r) = reps.first() {
        let info = |k: &str| r.info.get(k).copied().unwrap_or(0.0);
        notes.push(format!(
            "per repetition: {} latency samples, timed phase {:.2} s wall / {:.2} s CPU, \
             generator blocked {:.1}% of it",
            info("latency_samples"),
            info("wall_s"),
            info("cpu_s"),
            info("generator_blocked_share") * 100.0
        ));
    }
    Ok(WorkloadReport {
        name: w.name,
        correct: reps.iter().all(|r| r.correct),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        notes,
    })
}

/// Traced pass of one workload: one untraced child for the baseline CPU
/// cost, one traced child for the ledger. End-to-end numbers of the traced
/// child are reported under `traced.*` only.
fn run_traced(args: &Args, w: &Workload, deadline: Instant) -> Result<WorkloadReport, String> {
    let left = || deadline.saturating_duration_since(Instant::now());
    let base = spawn_child(args, w.name, false, left())?;
    let traced = spawn_child(args, w.name, true, left())?;
    let cpu = |r: &Rep| r.e2e.get("cpu_us_per_txn").copied().unwrap_or(0.0);
    let mut layers = traced.layers.clone();
    layers
        .insert("telemetry.trace_overhead_share".into(), cpu(&traced) / cpu(&base).max(1e-9) - 1.0);
    // Σ(layer count × replayed ns) against the untraced run's CPU.
    let base_cpu_ns = base.info.get("cpu_s").copied().unwrap_or(0.0) * 1e9;
    let attributed = layers.get("count.attributed_ns").copied().unwrap_or(0.0);
    layers.insert("cluster.residual_share".into(), 1.0 - attributed / base_cpu_ns.max(1.0));
    for k in ["tps", "commit_p50_ms", "cpu_us_per_txn"] {
        layers.insert(format!("traced.{k}"), traced.e2e.get(k).copied().unwrap_or(0.0));
    }
    if w.spec.is_sim() {
        layers.retain(|k, _| !k.starts_with("runtime."));
    } else {
        for (stage, source) in [
            ("runtime.stage.submit_to_opt_p50_ms", "broadcast.submit_to_opt_p50_ms"),
            ("runtime.stage.opt_to_to_p50_ms", "broadcast.opt_to_gap_p50_ms"),
        ] {
            layers.insert(stage.into(), layers.get(source).copied().unwrap_or(0.0));
        }
    }
    // Every catalogue metric is printed; 0 = this workload does not
    // exercise the layer.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| summarise(name, unit, &[layers.get(*name).copied().unwrap_or(0.0)]))
        .collect();
    let mut notes: Vec<String> = [&base, &traced]
        .iter()
        .flat_map(|r| r.failed_checks.iter().map(|c| format!("check failed: {c}")))
        .collect();
    notes.push(format!("span file: {}/trace-{}.json", args.out, w.name));
    Ok(WorkloadReport {
        name: w.name,
        correct: base.correct && traced.correct,
        attempted: base.attempted + traced.attempted,
        failed: base.failed + traced.failed,
        metrics,
        notes,
    })
}

pub fn run(args: &Args) -> Result<bool, String> {
    let selected: Vec<Workload> = match &args.workload {
        Some(name) => workloads::by_name(name).into_iter().collect(),
        None => workloads::all(),
    };
    let header = format!(
        "seed {}, --seconds {}, {}",
        args.seed,
        args.seconds,
        if args.trace { "traced pass".to_string() } else { format!("{REPETITIONS} repetitions") }
    );
    let mut reports = Vec::new();
    for w in &selected {
        // Each workload gets the full invocation budget: the driver runs
        // one workload per invocation.
        let deadline = Instant::now() + INVOCATION_BUDGET;
        let report = if args.trace {
            run_traced(args, w, deadline)?
        } else {
            run_untraced(args, w, deadline)?
        };
        report.print(&header);
        reports.push(report);
    }

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let path = format!("{}/results{}.json", args.out, if args.trace { "-traced" } else { "" });
    let doc = Json::obj([
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64)),
        (
            "workloads",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.to_string())),
                            ("correct", Json::Bool(r.correct)),
                            ("attempted", num(r.attempted as f64)),
                            ("failed", num(r.failed as f64)),
                            ("metrics", r.metrics_json(true)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&path, doc.render()).map_err(|e| format!("{path}: {e}"))?;

    // The contract's result line is the last line of standard output. With
    // several workloads, one line each, tagged with the workload's name.
    for r in &reports {
        let line = result_line(r.correct, r.attempted, r.failed, r.metrics_json(false));
        if reports.len() == 1 {
            println!("{line}");
        } else {
            println!("{} {line}", r.name);
        }
    }
    Ok(reports.iter().all(|r| r.correct && r.failed == 0))
}

// ----------------------------------------------------------------------
// The catalogue, in the shape of BENCHMARK.json's lists (for the tests).
// ----------------------------------------------------------------------

pub fn catalogue() -> Json {
    Json::obj([
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                            ("bound", num(m.bound())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("unit", Json::Str((*unit).into())),
                            ("better", Json::Str((*better).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ----------------------------------------------------------------------
// `compare A.json B.json`.
// ----------------------------------------------------------------------

/// Prints every workload × metric of two result files in its own row, with
/// ratio and base. A metric beyond its bound is flagged; where either
/// side's own spread exceeds the bound the row reads `unresolved`.
pub fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else { return Err("usage: compare A.json B.json".into()) };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let workloads_of = |doc: &Json| -> Vec<Json> {
        doc.get("workloads").map(|w| w.as_arr().to_vec()).unwrap_or_default()
    };
    let mut regressed = false;
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for wa in workloads_of(&a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
        let Some(wb) = workloads_of(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name.as_str()))
        else {
            println!("{name:<20} missing from the second file");
            continue;
        };
        let empty = Json::Obj(Vec::new());
        let (ma, mb) = (wa.get("metrics").unwrap_or(&empty), wb.get("metrics").unwrap_or(&empty));
        for (metric, va) in ma.as_obj() {
            let Some(vb) = mb.get(metric) else { continue };
            let f = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let (base, new) = (f(va, "value"), f(vb, "value"));
            let ratio = new / base;
            let spread = |v: &Json| (f(v, "max") - f(v, "min")) / f(v, "value").abs().max(1e-12);
            let bound =
                END_TO_END.iter().find(|m| m.name == metric).map(|m| (m, m.bound_for(&name)));
            let verdict = match bound {
                None => "",
                Some((m, bound)) => {
                    let worse = if m.better == "lower" { ratio - 1.0 } else { 1.0 - ratio };
                    if spread(va).max(spread(vb)) > bound {
                        "unresolved"
                    } else if worse > bound {
                        regressed = true;
                        "REGRESSED"
                    } else {
                        "ok"
                    }
                }
            };
            let bound = bound.map(|(_, b)| format!("{:.0}%", b * 100.0)).unwrap_or_default();
            println!(
                "{name:<20} {metric:<34} {base:>14.6} {new:>14.6} {ratio:>8.4} {bound:>7}  {verdict}"
            );
        }
        let ops = |w: &Json, k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        if ops(&wb, "failed") > ops(&wa, "failed") {
            regressed = true;
            println!(
                "{name:<20} failed operations rose from {} to {}  REGRESSED",
                ops(&wa, "failed"),
                ops(&wb, "failed")
            );
        }
    }
    Ok(!regressed)
}

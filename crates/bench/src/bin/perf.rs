//! The perf harness CLI — the repo's machine-readable performance gate.
//!
//! Default mode runs the canonical engine × mode × workload matrix in
//! simulated time, writes the byte-stable `BENCH.json` (plus the wall-clock
//! side file `BENCH_WALL.json`, recorded but never gated) and prints a
//! summary table.
//!
//! `--check BASELINE [--tolerance PCT]` additionally diffs the fresh run
//! against the committed baseline and exits nonzero on any regression,
//! printing a one-line reproducer per finding, chaos-swarm style.
//!
//! `--stage-breakdown` traces every run and adds per-stage submit→stage
//! latency columns to the table plus a non-gated `stages` key to
//! `BENCH.json` (tracing is pure observation, so every gated metric value
//! is identical to the untraced run's).
//!
//! ```text
//! perf [--out BENCH.json] [--wall-out BENCH_WALL.json]
//!      [--check BASELINE] [--tolerance 0.25]
//!      [--cell ID] [--txns N] [--seed N] [--stage-breakdown] [--list-cells]
//! ```

use otp_bench::perf::{
    check_against_baseline, run_matrix, run_matrix_with_stages, run_perf_cell,
    run_perf_cell_traced, PerfCell, PERF_SCHEMA, PERF_SEED, PERF_TXNS,
};
use otp_simnet::metrics::Table;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    out: String,
    wall_out: String,
    check: Option<String>,
    tolerance: f64,
    cell: Option<PerfCell>,
    txns: u64,
    seed: u64,
    stage_breakdown: bool,
    list_cells: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH.json".into(),
        wall_out: "BENCH_WALL.json".into(),
        check: None,
        tolerance: 0.25,
        cell: None,
        txns: PERF_TXNS,
        seed: PERF_SEED,
        stage_breakdown: false,
        list_cells: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = value("--out")?,
            "--wall-out" => args.wall_out = value("--wall-out")?,
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                let v = value("--tolerance")?;
                args.tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && (0.0..1.0).contains(t))
                    .ok_or_else(|| format!("--tolerance must be a fraction in [0, 1): {v:?}"))?;
            }
            "--cell" => args.cell = Some(value("--cell")?.parse()?),
            "--txns" => {
                let v = value("--txns")?;
                args.txns = v
                    .parse::<u64>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("--txns must be a positive integer: {v:?}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed: not a number: {v:?}"))?;
            }
            "--stage-breakdown" => args.stage_breakdown = true,
            "--list-cells" => args.list_cells = true,
            "--help" | "-h" => {
                println!(
                    "usage: perf [--out BENCH.json] [--wall-out BENCH_WALL.json] \
                     [--check BASELINE] [--tolerance 0.25] [--cell ID] [--txns N] \
                     [--seed N] [--stage-breakdown] [--list-cells]\n\
                     All gated metrics run in simulated time: the emitted BENCH.json is \
                     byte-identical across runs. Wall clock goes to stdout and --wall-out only.\n\
                     --stage-breakdown traces every run and adds per-stage submit→stage \
                     latency columns (and a non-gated \"stages\" key to BENCH.json)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list_cells {
        for cell in PerfCell::all() {
            println!("{cell}");
        }
        return ExitCode::SUCCESS;
    }

    // Single-cell mode: measure, print, no files — the reproducer path.
    if let Some(cell) = args.cell {
        let (m, stages) = if args.stage_breakdown {
            run_perf_cell_traced(&cell, args.txns, args.seed)
        } else {
            (run_perf_cell(&cell, args.txns, args.seed), Vec::new())
        };
        println!("cell {cell} (txns {}, seed {})", args.txns, args.seed);
        println!("  completed          {}", m.completed);
        println!("  throughput_per_sec {:.3}", m.throughput_per_sec);
        println!("  p50_commit_ns      {}", m.p50_commit_ns);
        println!("  p99_commit_ns      {}", m.p99_commit_ns);
        println!("  abort_rate         {:.6}", m.abort_rate);
        println!("  msgs_per_commit    {:.4}", m.msgs_per_commit);
        println!("  sim_duration_ns    {}", m.sim_duration_ns);
        println!("  one_step_rate      {:.3} (not in BENCH.json)", m.one_step_rate);
        for s in &stages {
            println!(
                "  stage {:<14} n {:<6} p50_ns {:<12} p99_ns {}",
                s.stage, s.n, s.p50_ns, s.p99_ns
            );
        }
        return ExitCode::SUCCESS;
    }

    let started = Instant::now();
    let report = if args.stage_breakdown {
        run_matrix_with_stages(&PerfCell::all(), args.txns, args.seed)
    } else {
        run_matrix(&PerfCell::all(), args.txns, args.seed)
    };
    let wall_ms = started.elapsed().as_millis();

    let mut table = Table::new(vec![
        "cell",
        "throughput/s",
        "p50_ms",
        "p99_ms",
        "abort_rate",
        "msgs/commit",
        "one-step",
    ]);
    for (cell, m) in &report.cells {
        table.row(vec![
            cell.id(),
            format!("{:.0}", m.throughput_per_sec),
            format!("{:.2}", m.p50_commit_ns as f64 / 1e6),
            format!("{:.2}", m.p99_commit_ns as f64 / 1e6),
            format!("{:.4}", m.abort_rate),
            format!("{:.2}", m.msgs_per_commit),
            format!("{:.2}", m.one_step_rate),
        ]);
    }
    println!("{}", table.to_markdown());
    if args.stage_breakdown {
        let mut stage_table = Table::new(vec!["cell", "stage", "n", "p50_ms", "p99_ms"]);
        for ((cell, _), stages) in report.cells.iter().zip(&report.stages) {
            for s in stages {
                stage_table.row(vec![
                    cell.id(),
                    s.stage.to_string(),
                    s.n.to_string(),
                    format!("{:.2}", s.p50_ns as f64 / 1e6),
                    format!("{:.2}", s.p99_ns as f64 / 1e6),
                ]);
            }
        }
        println!("{}", stage_table.to_markdown());
    }
    println!("wall_ms={wall_ms} (recorded, not gated — simulated metrics only in {})", args.out);

    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("perf: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    let wall_doc = format!("{{\n  \"schema\": {PERF_SCHEMA},\n  \"wall_ms\": {wall_ms}\n}}\n");
    if let Err(e) = std::fs::write(&args.wall_out, wall_doc) {
        eprintln!("perf: cannot write {}: {e}", args.wall_out);
        return ExitCode::FAILURE;
    }

    let Some(baseline_path) = args.check else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perf: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_against_baseline(&report, &baseline, args.tolerance) {
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "perf check ok: {} cells within {:.0}% of {baseline_path}",
                report.cells.len(),
                args.tolerance * 100.0
            );
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            println!("{} perf regression(s) vs {baseline_path}:", regressions.len());
            for r in &regressions {
                println!("{r}");
            }
            println!(
                "(legitimate shift? refresh the baseline: make perf && \
                 cp BENCH.json BENCH_BASELINE.json)"
            );
            ExitCode::FAILURE
        }
    }
}

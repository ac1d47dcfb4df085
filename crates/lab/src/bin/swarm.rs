//! The chaos swarm CLI.
//!
//! Sweep mode (default): run `CHAOS_SEEDS` seeds (or `--seeds N`) across
//! the engine × mode × intensity grid and fail loudly — with a one-line
//! reproducer per violation — if any invariant breaks.
//!
//! Reproducer mode: `--seed N --grid-cell CELL` re-runs exactly one cell
//! and prints its invariant report and stats digest.
//!
//! Conformance mode: `--seed N --live-fault FAULT` runs one cross-driver
//! conformance check (same fault plan through the simulator and the
//! threaded runtime, identical invariant bundle on both) and prints both
//! verdicts — the reproducer line the live-chaos suite emits.
//!
//! ```text
//! swarm [--seeds N] [--start-seed N] [--seed N] [--grid-cell CELL]
//!       [--live-fault crash|partition|stall|pressure]
//!       [--txns N] [--sabotage KIND] [--repro-out FILE]
//!       [--trace-out FILE] [--list-cells]
//! ```
//!
//! `--repro-out FILE` writes one reproducer line per violated run (sweep
//! mode) so CI can upload the lines as an artifact on failure; each
//! violated run's flight-recorder dump (the last trace events per site)
//! lands next to it in `FILE.flight.jsonl`. In single-run modes
//! (`--seed`, `--live-fault`) `--trace-out FILE` writes the violated
//! run's flight dump to `FILE`.

use otp_lab::grid::Intensity;
use otp_lab::live::{run_conformance, ConformanceSpec, LiveFault};
use otp_lab::runner::DEFAULT_TXNS;
use otp_lab::swarm::parse_seed_budget;
use otp_lab::{run_cell, run_swarm, CellSpec, GridCell, Sabotage, SwarmConfig};
use otp_simnet::metrics::Table;
use std::process::ExitCode;

struct Args {
    seeds: Option<u64>,
    start_seed: u64,
    seed: Option<u64>,
    grid_cell: Option<GridCell>,
    live_fault: Option<LiveFault>,
    intensity: Option<Intensity>,
    txns: Option<u64>,
    groups: Option<usize>,
    sabotage: Option<Sabotage>,
    repro_out: Option<String>,
    trace_out: Option<String>,
    list_cells: bool,
}

/// Writes a violated run's flight-recorder dump, reporting (not failing)
/// on IO errors — the dump is evidence, not the verdict.
fn write_flight(path: &str, dump: &str) {
    if let Err(e) = std::fs::write(path, dump) {
        eprintln!("swarm: could not write {path}: {e}");
    } else {
        println!("flight recorder dump written to {path}");
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: None,
        start_seed: 1,
        seed: None,
        grid_cell: None,
        live_fault: None,
        intensity: None,
        txns: None,
        groups: None,
        sabotage: None,
        repro_out: None,
        trace_out: None,
        list_cells: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = Some(parse_seed_budget(&value("--seeds")?)?),
            "--start-seed" => args.start_seed = parse_num(&value("--start-seed")?)?,
            "--seed" => args.seed = Some(parse_num(&value("--seed")?)?),
            "--grid-cell" => args.grid_cell = Some(value("--grid-cell")?.parse()?),
            "--live-fault" => args.live_fault = Some(LiveFault::parse(&value("--live-fault")?)?),
            "--intensity" => args.intensity = Some(Intensity::parse(&value("--intensity")?)?),
            "--txns" => args.txns = Some(parse_num(&value("--txns")?)?),
            "--groups" => args.groups = Some(parse_num(&value("--groups")?)? as usize),
            "--sabotage" => args.sabotage = Some(Sabotage::parse(&value("--sabotage")?)?),
            "--repro-out" => args.repro_out = Some(value("--repro-out")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--list-cells" => args.list_cells = true,
            "--help" | "-h" => {
                println!(
                    "usage: swarm [--seeds N] [--start-seed N] [--seed N] \
                     [--grid-cell CELL] [--live-fault crash|partition|stall|pressure] \
                     [--intensity calm|rough|hostile|viewchange|fastpath] [--txns N] [--groups N] \
                     [--sabotage KIND] [--repro-out FILE] [--trace-out FILE] [--list-cells]\n\
                     CHAOS_SEEDS bounds the sweep when --seeds is absent; --intensity \
                     restricts the sweep to one nemesis intensity (the CI chaos matrix); \
                     --live-fault with --seed runs one cross-driver conformance check."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swarm: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list_cells {
        for cell in GridCell::all() {
            println!("{cell}");
        }
        return ExitCode::SUCCESS;
    }

    // Conformance reproducer mode: one cross-driver run, both verdicts.
    if let Some(fault) = args.live_fault {
        let Some(seed) = args.seed else {
            eprintln!("swarm: --live-fault requires --seed");
            return ExitCode::FAILURE;
        };
        let mut spec = ConformanceSpec::new(seed, fault);
        if let Some(txns) = args.txns {
            spec = spec.with_txns(txns);
        }
        let outcome = run_conformance(&spec);
        println!(
            "seed {} fault {} — sim completed {}, live commits {} (quiesced: {}, held: {})",
            seed,
            fault.id(),
            outcome.sim.completed,
            outcome.live_commits,
            outcome.live_quiesced,
            outcome.live_undelivered,
        );
        println!("sim leg:  {}", outcome.sim.report);
        println!("live leg: {}", outcome.live);
        return if outcome.passed() {
            println!("conformance: both drivers agree");
            ExitCode::SUCCESS
        } else {
            print!("{}", outcome.describe_failure());
            println!("repro: {}", outcome.reproducer);
            if let (Some(path), Some(dump)) = (&args.trace_out, &outcome.live_flight) {
                write_flight(path, dump);
            }
            ExitCode::FAILURE
        };
    }

    // Reproducer mode: exactly one (seed, cell) run, full detail.
    if let Some(seed) = args.seed {
        let Some(cell) = args.grid_cell else {
            eprintln!("swarm: --seed requires --grid-cell (see --list-cells)");
            return ExitCode::FAILURE;
        };
        let mut spec = CellSpec::new(seed, cell).with_txns(args.txns.unwrap_or(DEFAULT_TXNS));
        if let Some(g) = args.groups {
            spec = spec.with_groups(g);
        }
        if let Some(s) = args.sabotage {
            spec = spec.with_sabotage(s);
        }
        let outcome = run_cell(&spec);
        println!(
            "seed {} cell {} — completed {} aborts {} events {} commit_hash {:016x}",
            seed, cell, outcome.completed, outcome.aborts, outcome.events, outcome.commit_hash
        );
        print!("{}", outcome.stats_digest);
        println!("{}", outcome.report);
        return if outcome.passed() {
            ExitCode::SUCCESS
        } else {
            println!("repro: {}", outcome.reproducer);
            if let (Some(path), Some(dump)) = (&args.trace_out, &outcome.flight_dump) {
                write_flight(path, dump);
            }
            ExitCode::FAILURE
        };
    }

    // Sweep mode.
    if args.groups.is_some() {
        eprintln!("swarm: --groups only applies to reproducer mode (--seed --grid-cell); sweep cells derive their group count from the engine column");
        return ExitCode::FAILURE;
    }
    let mut config = match args.seeds {
        Some(n) => SwarmConfig::new(n),
        None => SwarmConfig::from_env(),
    };
    config.start_seed = args.start_seed;
    config.txns = args.txns.unwrap_or(DEFAULT_TXNS);
    config.sabotage = args.sabotage;
    if let Some(cell) = args.grid_cell {
        config.cells = vec![cell];
    }
    if let Some(intensity) = args.intensity {
        config.cells.retain(|c| c.intensity == intensity);
        if config.cells.is_empty() {
            eprintln!("swarm: --intensity filtered out every cell");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "chaos swarm: {} seeds from {} across {} cells, {} txns each",
        config.seeds,
        config.start_seed,
        config.cells.len(),
        config.txns
    );
    let report = run_swarm(&config);

    let mut table = Table::new(vec![
        "seed",
        "cell",
        "completed",
        "aborts",
        "events",
        "commit_hash",
        "invariants",
    ]);
    for o in &report.outcomes {
        table.row(vec![
            o.spec.seed.to_string(),
            o.spec.cell.id(),
            o.completed.to_string(),
            o.aborts.to_string(),
            o.events.to_string(),
            format!("{:016x}", o.commit_hash),
            if o.passed() { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    println!("{}", table.to_markdown());

    let failures = report.failures();
    if failures.is_empty() {
        println!("all {} runs passed the invariant bundle", report.runs());
        ExitCode::SUCCESS
    } else {
        println!("{} of {} runs violated invariants:", failures.len(), report.runs());
        for f in &failures {
            println!("--- seed {} cell {}", f.spec.seed, f.spec.cell);
            print!("{}", f.report);
            println!("repro: {}", f.reproducer);
        }
        // One reproducer line per violated run, for the CI failure
        // artifact; the violated runs' flight-recorder dumps ride along
        // in one JSONL file next to it, each prefixed by a header line
        // naming its reproducer.
        if let Some(path) = &args.repro_out {
            let lines: String = failures.iter().map(|f| format!("{}\n", f.reproducer)).collect();
            if let Err(e) = std::fs::write(path, lines) {
                eprintln!("swarm: could not write {path}: {e}");
            } else {
                println!("reproducers written to {path}");
            }
            let dumps: String = failures
                .iter()
                .filter_map(|f| {
                    f.flight_dump.as_ref().map(|d| {
                        format!("{{\"repro\":\"{}\"}}\n{d}", f.reproducer.replace('"', "\\\""))
                    })
                })
                .collect();
            if !dumps.is_empty() {
                write_flight(&format!("{path}.flight.jsonl"), &dumps);
            }
        }
        ExitCode::FAILURE
    }
}

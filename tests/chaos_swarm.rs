//! Tier-1-bounded chaos swarm: a small, fixed seed budget swept across the
//! full engine × mode × intensity grid, plus the determinism and
//! reproducer-pipeline guarantees the lab depends on.
//!
//! The full-size sweep runs in CI via `make chaos` (the `swarm` binary,
//! bounded by `CHAOS_SEEDS`); this suite keeps a deterministic slice of it
//! inside `cargo test -q` so a chaos regression fails tier-1 first.

use otp_lab::{run_cell, run_swarm, CellSpec, GridCell, Sabotage, SwarmConfig};

/// Fixed tier-1 budget: one pass over the 60-cell grid. Deliberately not
/// env-driven — the tier-1 suite must run the same cases everywhere.
const TIER1_SEEDS: u64 = 60;
const TIER1_TXNS: u64 = 36;

#[test]
fn bounded_swarm_passes_all_invariants() {
    let mut config = SwarmConfig::new(TIER1_SEEDS);
    config.start_seed = 100;
    config.txns = TIER1_TXNS;
    let report = run_swarm(&config);
    assert_eq!(report.runs(), TIER1_SEEDS as usize);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "chaos regression; first reproducer: {}\n{}",
        failures[0].reproducer,
        failures[0].report
    );
    // The sweep visited every cell exactly once.
    let mut cells: Vec<String> = report.outcomes.iter().map(|o| o.spec.cell.id()).collect();
    cells.sort();
    cells.dedup();
    assert_eq!(cells.len(), TIER1_SEEDS as usize);
}

#[test]
fn double_run_produces_byte_identical_stats() {
    // FoundationDB-style determinism: the same spec replays to the exact
    // same RunStats rendering, byte for byte — across engines and
    // intensities, faults included.
    for cell_id in [
        "opt-otp-hostile",
        "optq-otp-hostile",
        "optq-conservative-viewchange",
        "scramble-conservative-rough",
        "seq-otp-hostile",
        "seqbatch-otp-hostile",
        "seqbatch-conservative-rough",
        "seqbatch-otp-viewchange",
        "opt-otp-viewchange",
        "scramble-conservative-viewchange",
        "opt-otp-fastpath",
        "optq-conservative-fastpath",
    ] {
        let cell: GridCell = cell_id.parse().unwrap();
        let spec = CellSpec::new(41, cell).with_txns(TIER1_TXNS);
        let a = run_cell(&spec);
        let b = run_cell(&spec);
        assert_eq!(a.stats_digest, b.stats_digest, "{cell_id}: byte-identical replay");
        assert_eq!(a.fingerprint, b.fingerprint, "{cell_id}");
        assert!(a.passed(), "{cell_id}: {}", a.report);
    }
}

#[test]
fn deliberately_broken_invariant_produces_one_line_reproducer() {
    // The violation-to-reproducer pipeline, end to end: sabotage the
    // checker with a probe that was never submitted and the liveness
    // invariant must fail, carrying a single-line reproducer command.
    let cell: GridCell = "opt-otp-rough".parse().unwrap();
    let spec = CellSpec::new(7, cell).with_txns(TIER1_TXNS).with_sabotage(Sabotage::PhantomProbe);
    let outcome = run_cell(&spec);
    assert!(!outcome.passed(), "sabotage must trip the liveness invariant");
    assert!(
        outcome.report.violations.iter().any(|v| format!("{v}").contains("liveness lost")),
        "{}",
        outcome.report
    );
    assert_eq!(
        outcome.reproducer,
        "cargo run -p otp-lab --bin swarm -- --seed 7 --grid-cell opt-otp-rough \
         --txns 36 --sabotage phantom-probe"
    );
    assert!(!outcome.reproducer.contains('\n'), "one line");
}

#[test]
fn reproducer_command_replays_the_same_run() {
    // A failure's reproducer re-runs the identical cell: same seed + cell
    // (+ workload knobs) → same fingerprint, with or without the sweep.
    let mut config = SwarmConfig::new(3);
    config.start_seed = 55;
    config.txns = TIER1_TXNS;
    let report = run_swarm(&config);
    for outcome in &report.outcomes {
        let replay = run_cell(&outcome.spec);
        assert_eq!(replay.fingerprint, outcome.fingerprint, "{}", outcome.reproducer);
    }
}

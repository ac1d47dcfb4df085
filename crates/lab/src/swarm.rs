//! The swarm driver: a seed budget swept across the chaos grid.
//!
//! Each seed is assigned one grid cell round-robin (seed `i` → cell
//! `i mod cells`), so a budget of `N` seeds costs `N` runs while still
//! visiting every cell once the budget reaches the grid size. The budget
//! comes from [`SwarmConfig::from_env`]'s `CHAOS_SEEDS` knob so CI and the
//! tier-1 suite can bound wall time without touching code.

use crate::grid::GridCell;
use crate::runner::{run_cell, CellOutcome, CellSpec, Sabotage, DEFAULT_TXNS};

/// Environment variable bounding the sweep's seed budget.
pub const CHAOS_SEEDS_ENV: &str = "CHAOS_SEEDS";
/// Seed budget used when [`CHAOS_SEEDS_ENV`] is unset.
pub const DEFAULT_SEEDS: u64 = 16;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Number of runs (one seed each).
    pub seeds: u64,
    /// First seed of the contiguous range.
    pub start_seed: u64,
    /// Cells visited round-robin. Must be non-empty.
    pub cells: Vec<GridCell>,
    /// Main-workload size per run.
    pub txns: u64,
    /// Checker sabotage applied to every run (testing the pipeline).
    pub sabotage: Option<Sabotage>,
}

impl SwarmConfig {
    /// The full grid with `seeds` runs starting at seed 1.
    pub fn new(seeds: u64) -> Self {
        SwarmConfig {
            seeds,
            start_seed: 1,
            cells: GridCell::all(),
            txns: DEFAULT_TXNS,
            sabotage: None,
        }
    }

    /// Reads the seed budget from [`CHAOS_SEEDS_ENV`] (default
    /// [`DEFAULT_SEEDS`] when unset).
    ///
    /// # Panics
    ///
    /// Panics if the variable is set but unparsable or zero — a silent
    /// fallback would let a typo turn the chaos gate into a vacuous
    /// zero-run pass.
    pub fn from_env() -> Self {
        let seeds = match std::env::var(CHAOS_SEEDS_ENV) {
            Err(_) => DEFAULT_SEEDS,
            Ok(v) => parse_seed_budget(&v).unwrap_or_else(|e| panic!("{CHAOS_SEEDS_ENV}: {e}")),
        };
        SwarmConfig::new(seeds)
    }
}

/// Parses a seed budget: a positive integer.
///
/// # Errors
///
/// Returns a description when the value is not a number or is zero (a
/// zero-run sweep proves nothing and must not pass silently).
pub fn parse_seed_budget(v: &str) -> Result<u64, String> {
    match v.trim().parse::<u64>() {
        Err(_) => Err(format!("not a number: {v:?}")),
        Ok(0) => Err("seed budget must be at least 1".into()),
        Ok(n) => Ok(n),
    }
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// One outcome per run, in seed order.
    pub outcomes: Vec<CellOutcome>,
}

impl SwarmReport {
    /// Outcomes that violated at least one invariant.
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.outcomes.iter().filter(|o| !o.passed()).collect()
    }

    /// True when every run passed every invariant.
    pub fn is_ok(&self) -> bool {
        self.outcomes.iter().all(CellOutcome::passed)
    }

    /// Number of runs executed.
    pub fn runs(&self) -> usize {
        self.outcomes.len()
    }
}

/// Runs the sweep. Purely sequential and deterministic: outcome `i` only
/// depends on `(start_seed + i, cells[i % cells.len()], txns, sabotage)`.
///
/// # Panics
///
/// Panics if `config.cells` is empty or the seed budget is zero (a
/// zero-run sweep would report vacuous success).
pub fn run_swarm(config: &SwarmConfig) -> SwarmReport {
    assert!(!config.cells.is_empty(), "swarm needs at least one grid cell");
    assert!(config.seeds > 0, "swarm needs a seed budget of at least 1");
    let mut outcomes = Vec::with_capacity(config.seeds as usize);
    for i in 0..config.seeds {
        let cell = config.cells[(i % config.cells.len() as u64) as usize];
        let mut spec = CellSpec::new(config.start_seed + i, cell).with_txns(config.txns);
        if let Some(s) = config.sabotage {
            spec = spec.with_sabotage(s);
        }
        outcomes.push(run_cell(&spec));
    }
    SwarmReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_visits_cells_round_robin() {
        let mut config = SwarmConfig::new(4);
        config.cells.truncate(3);
        config.txns = 12;
        let report = run_swarm(&config);
        assert_eq!(report.runs(), 4);
        assert_eq!(report.outcomes[0].spec.cell, config.cells[0]);
        assert_eq!(report.outcomes[3].spec.cell, config.cells[0], "wraps around");
        assert!(report.is_ok(), "{:?}", report.failures().first().map(|f| &f.reproducer));
    }

    #[test]
    fn sabotaged_sweep_reports_every_failure() {
        let mut config = SwarmConfig::new(2);
        config.cells.truncate(1);
        config.txns = 12;
        config.sabotage = Some(Sabotage::PhantomProbe);
        let report = run_swarm(&config);
        assert!(!report.is_ok());
        assert_eq!(report.failures().len(), 2);
        for f in report.failures() {
            assert!(f.reproducer.contains("--sabotage phantom-probe"));
        }
    }

    #[test]
    fn seed_budget_parsing_is_loud_about_garbage() {
        assert_eq!(parse_seed_budget("16"), Ok(16));
        assert_eq!(parse_seed_budget(" 720 "), Ok(720), "whitespace tolerated");
        assert!(parse_seed_budget("0").unwrap_err().contains("at least 1"));
        assert!(parse_seed_budget("sixteen").unwrap_err().contains("not a number"));
        assert!(parse_seed_budget("").unwrap_err().contains("not a number"));
    }

    #[test]
    #[should_panic(expected = "seed budget of at least 1")]
    fn zero_seed_sweep_is_rejected() {
        let mut config = SwarmConfig::new(0);
        config.txns = 12;
        run_swarm(&config);
    }

    #[test]
    fn config_from_env_defaults() {
        // The env var may or may not be set in the harness; only check the
        // shape invariants that hold either way.
        let config = SwarmConfig::from_env();
        assert_eq!(config.cells.len(), 60);
        assert_eq!(config.start_seed, 1);
    }
}

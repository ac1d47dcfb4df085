//! The chaos grid: engine × mode × nemesis intensity.
//!
//! Every cell has a stable kebab-case id (`opt-otp-hostile`) used both in
//! swarm output and in the `--grid-cell` reproducer flag, so a cell can be
//! round-tripped through a command line.

use crate::runner::{WORKLOAD_SPACING, WORKLOAD_START};
use otp_core::{EngineKind, Mode};
use otp_simnet::nemesis::{NemesisKnobs, NemesisSchedule};
use otp_simnet::{SimDuration, SimTime};
use std::fmt;
use std::str::FromStr;

/// Which broadcast engine a cell runs (fixed, swarm-friendly parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Consensus-based optimistic atomic broadcast.
    Opt,
    /// The optimistic engine with a positive delivery quantum: every
    /// site's receive path coalesces arrivals in 250 µs windows
    /// ([`otp_core::ClusterConfig::delivery_quantum`]). In the grid to
    /// hammer the window-fencing paths: crashes, recoveries and
    /// partitions landing inside open windows across the whole nemesis
    /// vocabulary.
    OptQuantum,
    /// Fixed-sequencer total order (site 0 sequences).
    Seq,
    /// Fixed-sequencer with order-batching: assignments accumulate for a
    /// short window and travel as one `SeqOrderBatch` frame. In the chaos
    /// grid mainly to hammer the crash-during-window recovery path (the
    /// sequencer must renumber an unflushed window after restore).
    SeqBatch,
    /// Oracle engine with tentative-order scrambling (forces mismatches).
    Scramble,
    /// Partitioned sequencing groups: the conflict-class space is split
    /// across two independent sequencer groups plus the relay stream for
    /// cross-group transactions ([`otp_core::ClusterConfig::with_groups`]).
    /// In the grid to hammer the relay gate and the per-group view-change
    /// paths under the full nemesis vocabulary; the runner injects one
    /// cross-group transaction every 8th submission.
    Sharded,
}

impl EngineChoice {
    /// The concrete engine configuration this choice denotes.
    pub fn engine_kind(&self) -> EngineKind {
        match self {
            EngineChoice::Opt | EngineChoice::OptQuantum => {
                EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) }
            }
            EngineChoice::Seq | EngineChoice::Sharded => {
                EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }
            }
            EngineChoice::SeqBatch => {
                EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(250) }
            }
            EngineChoice::Scramble => EngineKind::Scrambled {
                agreement_delay: SimDuration::from_millis(3),
                swap_probability: 0.25,
            },
        }
    }

    /// The delivery quantum this choice configures on the cluster (zero
    /// for every engine except the quantum-enabled column).
    pub fn delivery_quantum(&self) -> SimDuration {
        match self {
            EngineChoice::OptQuantum => SimDuration::from_micros(250),
            _ => SimDuration::ZERO,
        }
    }

    /// Number of sequencing groups this choice shards the cluster into
    /// (1 for every column except the sharded one).
    pub fn groups(&self) -> usize {
        match self {
            EngineChoice::Sharded => 2,
            _ => 1,
        }
    }

    fn id(&self) -> &'static str {
        match self {
            EngineChoice::Opt => "opt",
            EngineChoice::OptQuantum => "optq",
            EngineChoice::Seq => "seq",
            EngineChoice::SeqBatch => "seqbatch",
            EngineChoice::Scramble => "scramble",
            EngineChoice::Sharded => "sharded",
        }
    }

    /// All engine choices, in grid order.
    pub fn all() -> [EngineChoice; 6] {
        [
            EngineChoice::Opt,
            EngineChoice::OptQuantum,
            EngineChoice::Seq,
            EngineChoice::SeqBatch,
            EngineChoice::Scramble,
            EngineChoice::Sharded,
        ]
    }
}

/// How hard the nemesis hits a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intensity {
    /// No faults (control).
    Calm,
    /// One partition, one crash, one loss burst.
    Rough,
    /// Two partitions, two crashes, two loss bursts, one jitter spike.
    Hostile,
    /// View-change targeted composition: the sequencer dies inside a
    /// partition that cuts off its recovery donor (the transfer can only
    /// complete at the heal), followed by two back-to-back crash/recover
    /// pairs and a second sequencer recovery whose round is hit from the
    /// inside (a member crash and a partition between its two phases) —
    /// five views installed per run. See
    /// [`NemesisSchedule::view_change_targeted`].
    ViewChange,
    /// One-step targeted composition: cuts, crashes with quick recoveries
    /// (one of them inside a cut) and a loss burst that all begin inside
    /// the exchange following a broadcast of the runner's workload and end
    /// within one consensus patience. See
    /// [`NemesisSchedule::fast_path_targeted`].
    FastPath,
}

impl Intensity {
    /// The fault plan this intensity injects for `(seed, sites, horizon)`.
    pub fn schedule(&self, seed: u64, sites: usize, horizon: SimTime) -> NemesisSchedule {
        match self {
            Intensity::Calm => {
                NemesisSchedule::generate(seed, sites, horizon, &NemesisKnobs::calm())
            }
            Intensity::Rough => {
                NemesisSchedule::generate(seed, sites, horizon, &NemesisKnobs::rough())
            }
            Intensity::Hostile => {
                NemesisSchedule::generate(seed, sites, horizon, &NemesisKnobs::hostile())
            }
            Intensity::ViewChange => NemesisSchedule::view_change_targeted(seed, sites, horizon),
            Intensity::FastPath => NemesisSchedule::fast_path_targeted(
                seed,
                sites,
                horizon,
                WORKLOAD_START,
                WORKLOAD_SPACING,
            ),
        }
    }

    fn id(&self) -> &'static str {
        match self {
            Intensity::Calm => "calm",
            Intensity::Rough => "rough",
            Intensity::Hostile => "hostile",
            Intensity::ViewChange => "viewchange",
            Intensity::FastPath => "fastpath",
        }
    }

    /// Parses an intensity id (the `--intensity` flag of the swarm CLI).
    ///
    /// # Errors
    ///
    /// Returns a description naming the valid ids on unknown input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "calm" => Ok(Intensity::Calm),
            "rough" => Ok(Intensity::Rough),
            "hostile" => Ok(Intensity::Hostile),
            "viewchange" => Ok(Intensity::ViewChange),
            "fastpath" => Ok(Intensity::FastPath),
            other => {
                Err(format!("unknown intensity {other:?} (calm|rough|hostile|viewchange|fastpath)"))
            }
        }
    }

    /// All intensities, in grid order.
    pub fn all() -> [Intensity; 5] {
        [
            Intensity::Calm,
            Intensity::Rough,
            Intensity::Hostile,
            Intensity::ViewChange,
            Intensity::FastPath,
        ]
    }
}

/// One cell of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// Broadcast engine under test.
    pub engine: EngineChoice,
    /// Processing mode under test.
    pub mode: Mode,
    /// Nemesis intensity applied to the run.
    pub intensity: Intensity,
}

impl GridCell {
    /// The full grid, in deterministic order (engine-major).
    pub fn all() -> Vec<GridCell> {
        let mut cells = Vec::new();
        for engine in EngineChoice::all() {
            for mode in [Mode::Otp, Mode::Conservative] {
                for intensity in Intensity::all() {
                    cells.push(GridCell { engine, mode, intensity });
                }
            }
        }
        cells
    }

    /// Stable id, e.g. `scramble-conservative-rough`.
    pub fn id(&self) -> String {
        let mode = match self.mode {
            Mode::Otp => "otp",
            Mode::Conservative => "conservative",
        };
        format!("{}-{}-{}", self.engine.id(), mode, self.intensity.id())
    }
}

impl fmt::Display for GridCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

impl FromStr for GridCell {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('-').collect();
        let [engine, mode, intensity] = parts.as_slice() else {
            return Err(format!("grid cell must be engine-mode-intensity, got {s:?}"));
        };
        let engine = match *engine {
            "opt" => EngineChoice::Opt,
            "optq" => EngineChoice::OptQuantum,
            "seq" => EngineChoice::Seq,
            "seqbatch" => EngineChoice::SeqBatch,
            "scramble" => EngineChoice::Scramble,
            "sharded" => EngineChoice::Sharded,
            other => {
                return Err(format!(
                    "unknown engine {other:?} (opt|optq|seq|seqbatch|scramble|sharded)"
                ));
            }
        };
        let mode = match *mode {
            "otp" => Mode::Otp,
            "conservative" => Mode::Conservative,
            other => return Err(format!("unknown mode {other:?} (otp|conservative)")),
        };
        let intensity = Intensity::parse(intensity)?;
        Ok(GridCell { engine, mode, intensity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_sixty_cells_with_unique_ids() {
        let cells = GridCell::all();
        assert_eq!(cells.len(), 60);
        let mut ids: Vec<String> = cells.iter().map(GridCell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 60, "ids are unique");
        assert!(ids.iter().any(|id| id == "opt-otp-fastpath"), "fast-path column present");
        assert!(ids.iter().any(|id| id == "optq-otp-hostile"), "quantum column present");
        assert!(ids.iter().any(|id| id == "sharded-otp-hostile"), "sharded column present");
    }

    #[test]
    fn sharded_column_configures_two_sequencer_groups() {
        assert_eq!(EngineChoice::Sharded.groups(), 2);
        assert!(matches!(
            EngineChoice::Sharded.engine_kind(),
            EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }
        ));
        for other in EngineChoice::all() {
            if other != EngineChoice::Sharded {
                assert_eq!(other.groups(), 1, "{other:?}");
            }
        }
    }

    #[test]
    fn ids_round_trip_through_parsing() {
        for cell in GridCell::all() {
            let parsed: GridCell = cell.id().parse().unwrap();
            assert_eq!(parsed, cell, "{}", cell.id());
        }
    }

    #[test]
    fn bad_ids_are_rejected_with_context() {
        assert!("opt-otp".parse::<GridCell>().unwrap_err().contains("engine-mode-intensity"));
        assert!("paxos-otp-calm".parse::<GridCell>().unwrap_err().contains("unknown engine"));
        assert!("opt-lazy-calm".parse::<GridCell>().unwrap_err().contains("unknown mode"));
        assert!("opt-otp-apocalyptic".parse::<GridCell>().unwrap_err().contains("intensity"));
    }

    #[test]
    fn intensities_map_to_schedules() {
        let horizon = SimTime::from_millis(400);
        assert!(Intensity::Calm.schedule(1, 4, horizon).is_empty());
        let rough = Intensity::Rough.schedule(1, 4, horizon).len();
        let hostile = Intensity::Hostile.schedule(1, 4, horizon).len();
        assert!(rough < hostile);
        let vc = Intensity::ViewChange.schedule(1, 4, horizon);
        assert_eq!(vc.len(), 14, "five crash/recover pairs + two partition windows");
        let fp = Intensity::FastPath.schedule(1, 4, horizon);
        assert_eq!(fp.len(), 14, "three cuts + three crash/recover pairs + one loss burst");
    }
}

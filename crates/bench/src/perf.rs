//! The perf harness: a canonical scenario matrix measured in simulated
//! time, emitted as a byte-stable, machine-readable `BENCH.json`.
//!
//! Every metric here is *virtual*: throughput is commits per **simulated**
//! second, latencies are simulated nanoseconds, messages-per-commit counts
//! frames on the simulated medium. Two runs of the same binary therefore
//! produce byte-identical reports — zero noise — which is what lets CI gate
//! on them with a plain file comparison plus a relative-tolerance diff
//! against the committed `BENCH_BASELINE.json` (see
//! [`check_against_baseline`]). Nothing here reads the wall clock: what
//! the code costs on a CPU is the repo's benchmark's measurement
//! (`benchmark/`).
//!
//! The matrix is engine × mode × workload:
//!
//! * **engine** — `opt` (consensus-based optimistic broadcast), `seq`
//!   (fixed sequencer with order batching, the throughput-tuned
//!   conservative transport), `scramble` (oracle engine with a fixed
//!   agreement delay and a small mismatch rate);
//! * **mode** — `otp` (execute on Opt-delivery) vs `conservative`
//!   (execute after TO-delivery);
//! * **workload** — `uniform` (even class selection), `hotspot` (80 % of
//!   transactions on a quarter of the classes), `tpcb` (the TPC-B-like
//!   banking profile).
//!
//! On top of the engine × mode × workload block sit the net variants:
//! `-lanfast` / `-lanfast16` (1 Gbit/s, 4 and 16 sites) and the sharding
//! scale pair `-lan16` / `-sharded` — the same saturated uniform workload
//! on one 16-site sequencing group vs 4 groups × 4 sites, each group on
//! its own wire segment (see `ClusterConfig::with_groups`).
//!
//! A regression found by `--check` prints a one-line reproducer
//! (`… --bin perf -- --cell CELL`) exactly like the chaos swarm does for
//! invariant violations.

use crate::json::Json;
use otp_core::{ClusterBuilder, ClusterConfig, DurationDist, EngineKind, Mode};
use otp_simnet::metrics::Histogram;
use otp_simnet::{SimDuration, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, Value};
use otp_telemetry::{MemSink, Stage, TraceSink};
use otp_workload::{Arrival, ClassSelection, StandardProcs, TpcB, WorkloadSpec};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Schema version of `BENCH.json`; bump on any layout change.
pub const PERF_SCHEMA: u64 = 1;
/// Master seed of the canonical matrix.
pub const PERF_SEED: u64 = 42;
/// Update transactions per cell in the canonical matrix.
pub const PERF_TXNS: u64 = 240;
/// Sites in the default perf cluster (the `lanfast16` variant runs 16).
pub const PERF_SITES: usize = 4;
/// Conflict classes (= TPC-B branches) in every perf cluster.
pub const PERF_CLASSES: usize = 4;
/// Delivery quantum of the canonical matrix — the receive path's
/// interrupt-coalescing window (see `ClusterConfig::delivery_quantum`).
/// Applied to every cell: it is a property of the modeled receive stack,
/// not of an engine. Zero reproduces the pre-quantum schedule
/// byte-for-byte; the committed value trades a bounded latency cost for
/// measurably fewer agreement frames per commit (bigger consensus
/// batches) — see EXPERIMENTS.md for the calibration.
pub const PERF_QUANTUM: SimDuration = SimDuration::from_micros(100);
/// Sites of the 16-site sharding scale pair (`-lan16` / `-sharded`).
pub const PERF_SCALE_SITES: usize = 16;
/// Conflict classes of the scale pair — wide enough that per-class
/// execution chains (1 ms × txns / classes) do not floor the sharded
/// cell, so the pair measures ordering capacity, not execution.
pub const PERF_SCALE_CLASSES: usize = 32;
/// Sequencing groups of the `-sharded` cell: 4 groups × 4 sites.
pub const PERF_SCALE_GROUPS: usize = 4;
/// Aggregate arrival spacing of the scale pair's uniform workload: 25 µs
/// between submissions (40 k txns/s offered) — past the wire capacity of
/// a single 10 Mbit/s segment, so the single-group cell saturates its
/// shared bus while the sharded cell spreads the same load over four
/// per-group segments.
pub const PERF_SCALE_SPACING: SimDuration = SimDuration::from_micros(25);

/// Which broadcast engine a perf cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfEngine {
    /// Consensus-based optimistic atomic broadcast.
    Opt,
    /// Fixed sequencer with a 250 µs order-batching window.
    Seq,
    /// Oracle engine: 2 ms agreement delay, 5 % tentative-order swaps.
    Scramble,
}

impl PerfEngine {
    /// The concrete engine configuration this choice denotes.
    pub fn engine_kind(&self) -> EngineKind {
        match self {
            PerfEngine::Opt => EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) },
            PerfEngine::Seq => {
                EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(250) }
            }
            PerfEngine::Scramble => EngineKind::Scrambled {
                agreement_delay: SimDuration::from_millis(2),
                swap_probability: 0.05,
            },
        }
    }

    fn id(&self) -> &'static str {
        match self {
            PerfEngine::Opt => "opt",
            PerfEngine::Seq => "seq",
            PerfEngine::Scramble => "scramble",
        }
    }

    /// All engines, in matrix order.
    pub fn all() -> [PerfEngine; 3] {
        [PerfEngine::Opt, PerfEngine::Seq, PerfEngine::Scramble]
    }
}

/// Which client workload a perf cell offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfWorkload {
    /// Uniform class selection, fixed 2 ms per-site arrivals.
    Uniform,
    /// Hot-spot skew: 80 % of transactions hit 25 % of the classes.
    Hotspot,
    /// The TPC-B-like banking profile (one branch per class).
    Tpcb,
}

impl PerfWorkload {
    fn id(&self) -> &'static str {
        match self {
            PerfWorkload::Uniform => "uniform",
            PerfWorkload::Hotspot => "hotspot",
            PerfWorkload::Tpcb => "tpcb",
        }
    }

    /// All workloads, in matrix order.
    pub fn all() -> [PerfWorkload; 3] {
        [PerfWorkload::Uniform, PerfWorkload::Hotspot, PerfWorkload::Tpcb]
    }
}

/// Which network model (and cluster size) a perf cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfNet {
    /// The paper's 10 Mbit/s shared Ethernet, 4 sites (the default; its
    /// cells keep the legacy three-token ids).
    Lan10,
    /// A modern switched 1 Gbit/s LAN, 4 sites (`-lanfast` id suffix).
    LanFast,
    /// The 1 Gbit/s LAN at 16 sites (`-lanfast16` id suffix) — the scale
    /// cell: consensus quorums of 9 and a 16-way multicast fan-out.
    LanFast16,
    /// The 10 Mbit/s Ethernet at 16 sites, one sequencing group
    /// (`-lan16` id suffix): the saturated single-bus half of the
    /// sharding scale pair. Runs the group-routed uniform workload at
    /// [`PERF_SCALE_SPACING`] over [`PERF_SCALE_CLASSES`] classes.
    Lan16,
    /// The 10 Mbit/s Ethernet at 16 sites sharded into
    /// [`PERF_SCALE_GROUPS`] sequencing groups of 4 (`-sharded` id
    /// suffix): each group orders on its own wire segment, the relay
    /// rides the backbone. Same workload as [`PerfNet::Lan16`], so the
    /// pair isolates what partitioning the total order buys.
    Sharded,
}

impl PerfNet {
    /// Number of sites this variant runs.
    pub fn sites(&self) -> usize {
        match self {
            PerfNet::Lan10 | PerfNet::LanFast => PERF_SITES,
            PerfNet::LanFast16 => 16,
            PerfNet::Lan16 | PerfNet::Sharded => PERF_SCALE_SITES,
        }
    }

    /// Number of conflict classes this variant's cluster hosts.
    pub fn classes(&self) -> usize {
        match self {
            PerfNet::Lan16 | PerfNet::Sharded => PERF_SCALE_CLASSES,
            _ => PERF_CLASSES,
        }
    }

    /// Number of sequencing groups this variant shards the order into.
    pub fn groups(&self) -> usize {
        match self {
            PerfNet::Sharded => PERF_SCALE_GROUPS,
            _ => 1,
        }
    }

    /// The concrete network model.
    pub fn net_config(&self) -> otp_simnet::NetConfig {
        match self {
            PerfNet::Lan10 | PerfNet::Lan16 | PerfNet::Sharded => {
                otp_simnet::NetConfig::lan_10mbps(self.sites())
            }
            PerfNet::LanFast | PerfNet::LanFast16 => otp_simnet::NetConfig::lan_fast(self.sites()),
        }
    }

    fn id_suffix(&self) -> &'static str {
        match self {
            PerfNet::Lan10 => "",
            PerfNet::LanFast => "-lanfast",
            PerfNet::LanFast16 => "-lanfast16",
            PerfNet::Lan16 => "-lan16",
            PerfNet::Sharded => "-sharded",
        }
    }
}

/// One cell of the perf matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfCell {
    /// Broadcast engine under measurement.
    pub engine: PerfEngine,
    /// Processing mode under measurement.
    pub mode: Mode,
    /// Offered workload.
    pub workload: PerfWorkload,
    /// Network model / cluster size variant.
    pub net: PerfNet,
}

impl PerfCell {
    /// The full matrix, in deterministic (engine-major) order: the legacy
    /// 18-cell `lan10` block, then the `lanfast` axis (every engine × mode
    /// on the tpcb workload), then the two 16-site scale cells.
    pub fn all() -> Vec<PerfCell> {
        let mut cells = Vec::new();
        for engine in PerfEngine::all() {
            for mode in [Mode::Otp, Mode::Conservative] {
                for workload in PerfWorkload::all() {
                    cells.push(PerfCell { engine, mode, workload, net: PerfNet::Lan10 });
                }
            }
        }
        for engine in PerfEngine::all() {
            for mode in [Mode::Otp, Mode::Conservative] {
                cells.push(PerfCell {
                    engine,
                    mode,
                    workload: PerfWorkload::Tpcb,
                    net: PerfNet::LanFast,
                });
            }
        }
        for engine in [PerfEngine::Opt, PerfEngine::Seq] {
            cells.push(PerfCell {
                engine,
                mode: Mode::Otp,
                workload: PerfWorkload::Tpcb,
                net: PerfNet::LanFast16,
            });
        }
        // The sharding scale pair: the same saturated uniform workload on
        // one 16-site sequencing group vs 4 groups × 4 sites.
        for net in [PerfNet::Lan16, PerfNet::Sharded] {
            cells.push(PerfCell {
                engine: PerfEngine::Seq,
                mode: Mode::Otp,
                workload: PerfWorkload::Uniform,
                net,
            });
        }
        cells
    }

    /// Stable id, e.g. `seq-conservative-tpcb` or `opt-otp-tpcb-lanfast16`.
    pub fn id(&self) -> String {
        let mode = match self.mode {
            Mode::Otp => "otp",
            Mode::Conservative => "conservative",
        };
        format!("{}-{}-{}{}", self.engine.id(), mode, self.workload.id(), self.net.id_suffix())
    }
}

impl fmt::Display for PerfCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

impl FromStr for PerfCell {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('-').collect();
        let (base, net) = match parts.as_slice() {
            [e, m, w] => ([*e, *m, *w], PerfNet::Lan10),
            [e, m, w, "lanfast"] => ([*e, *m, *w], PerfNet::LanFast),
            [e, m, w, "lanfast16"] => ([*e, *m, *w], PerfNet::LanFast16),
            [e, m, w, "lan16"] => ([*e, *m, *w], PerfNet::Lan16),
            [e, m, w, "sharded"] => ([*e, *m, *w], PerfNet::Sharded),
            [_, _, _, other] => {
                return Err(format!(
                    "unknown net variant {other:?} (lanfast|lanfast16|lan16|sharded)"
                ));
            }
            _ => {
                return Err(format!("perf cell must be engine-mode-workload[-net], got {s:?}"));
            }
        };
        let [engine, mode, workload] = &base;
        let engine = match *engine {
            "opt" => PerfEngine::Opt,
            "seq" => PerfEngine::Seq,
            "scramble" => PerfEngine::Scramble,
            other => return Err(format!("unknown engine {other:?} (opt|seq|scramble)")),
        };
        let mode = match *mode {
            "otp" => Mode::Otp,
            "conservative" => Mode::Conservative,
            other => return Err(format!("unknown mode {other:?} (otp|conservative)")),
        };
        let workload = match *workload {
            "uniform" => PerfWorkload::Uniform,
            "hotspot" => PerfWorkload::Hotspot,
            "tpcb" => PerfWorkload::Tpcb,
            other => return Err(format!("unknown workload {other:?} (uniform|hotspot|tpcb)")),
        };
        Ok(PerfCell { engine, mode, workload, net })
    }
}

/// Simulated-time metrics of one cell run. All values are deterministic
/// functions of `(cell, txns, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Transactions committed at their origin site.
    pub completed: u64,
    /// Origin commits per simulated second.
    pub throughput_per_sec: f64,
    /// Median commit latency (submission → origin commit), simulated ns.
    pub p50_commit_ns: u64,
    /// 99th-percentile commit latency, simulated ns.
    pub p99_commit_ns: u64,
    /// Aborts / (commits + aborts), cluster-wide.
    pub abort_rate: f64,
    /// Frames on the simulated medium per origin commit — the metric the
    /// delivery-path batching work moves.
    pub msgs_per_commit: f64,
    /// Virtual time at which the run went quiescent.
    pub sim_duration_ns: u64,
    /// Share of consensus instances decided in one step, over all sites:
    /// `fast_decide / (fast_decide + slow_decide)` — Figure 1's quantity
    /// where the optimistic engine cashes it in; 0 for engines that run no
    /// instances. Printed by the `perf` binary, not part of `BENCH.json`
    /// (it is a property of the schedule, not a cost to gate).
    pub one_step_rate: f64,
}

/// Per-stage latency summary of one traced cell run.
///
/// For each lifecycle stage, over every transaction that reached the
/// stage at its **origin** site: the offset of the stage's first
/// observation from that transaction's submission, in simulated
/// nanoseconds. The submit row therefore reads all-zero and carries the
/// sample count; `execute` precedes `to_deliver` in OTP mode (execution
/// starts at Opt-delivery) and follows it in conservative mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLatency {
    /// Stable stage id (see [`Stage::id`]).
    pub stage: &'static str,
    /// Transactions that reached this stage at their origin site.
    pub n: u64,
    /// Median submit→stage offset, simulated ns.
    pub p50_ns: u64,
    /// 99th-percentile submit→stage offset, simulated ns.
    pub p99_ns: u64,
}

/// Reduces a lifecycle trace to per-stage latency summaries.
///
/// Only events observed at a transaction's origin site count (the
/// breakdown decomposes the origin-commit latency the matrix gates on),
/// only the first observation per stage counts (optimistic re-executions
/// do not shift the `execute` column), and only stages with at least one
/// sample appear — `relay_wait` is absent on unsharded cells, `abort` on
/// abort-free ones. Rows come out in canonical stage order.
pub fn stage_breakdown(sink: &MemSink) -> Vec<StageLatency> {
    let stages = Stage::all();
    let mut first: BTreeMap<(u16, u64), [Option<u64>; 9]> = BTreeMap::new();
    for ev in sink.events() {
        if ev.site != ev.origin {
            continue;
        }
        let slot =
            &mut first.entry((ev.origin.raw(), ev.seq)).or_insert([None; 9])[ev.stage.rank()];
        if slot.is_none() {
            *slot = Some(ev.at.as_nanos());
        }
    }
    let mut hists: Vec<Histogram> = stages.iter().map(|_| Histogram::new()).collect();
    for times in first.values() {
        let Some(submit) = times[Stage::Submit.rank()] else { continue };
        for (i, t) in times.iter().enumerate() {
            if let Some(t) = t {
                hists[i].record(SimDuration::from_nanos(t.saturating_sub(submit)));
            }
        }
    }
    stages
        .iter()
        .zip(hists.iter_mut())
        .filter(|(_, h)| !h.is_empty())
        .map(|(stage, h)| StageLatency {
            stage: stage.id(),
            n: h.len() as u64,
            p50_ns: h.quantile(0.5).as_nanos(),
            p99_ns: h.quantile(0.99).as_nanos(),
        })
        .collect()
}

/// Runs one perf cell deterministically.
///
/// A run that loses transactions (a bug — these scenarios are
/// fault-free) is *reported*, not panicked over: `completed` lands in
/// the metrics, the lost transactions go to stderr, and the baseline
/// checker's zero-tolerance `completed` gate turns it into a regression
/// with a reproducer line while the rest of the matrix still completes
/// and `BENCH.json` is still written.
pub fn run_perf_cell(cell: &PerfCell, txns: u64, seed: u64) -> CellMetrics {
    run_perf_cell_with_quantum(cell, txns, seed, PERF_QUANTUM)
}

/// [`run_perf_cell`] with a lifecycle trace attached, reduced to the
/// per-stage breakdown (`--stage-breakdown`). Tracing is pure
/// observation — the metrics are identical to the untraced run's.
pub fn run_perf_cell_traced(
    cell: &PerfCell,
    txns: u64,
    seed: u64,
) -> (CellMetrics, Vec<StageLatency>) {
    let sink = Arc::new(MemSink::new());
    let metrics = run_cell_inner(cell, txns, seed, PERF_QUANTUM, Some(&sink));
    let stages = stage_breakdown(&sink);
    (metrics, stages)
}

/// [`run_perf_cell`] with an explicit delivery quantum. `SimDuration::ZERO`
/// reproduces the pre-quantum driver schedule byte-for-byte (the zero
/// pin in `tests/quantum.rs` holds the harness to that).
pub fn run_perf_cell_with_quantum(
    cell: &PerfCell,
    txns: u64,
    seed: u64,
    quantum: SimDuration,
) -> CellMetrics {
    run_cell_inner(cell, txns, seed, quantum, None)
}

fn run_cell_inner(
    cell: &PerfCell,
    txns: u64,
    seed: u64,
    quantum: SimDuration,
    sink: Option<&Arc<MemSink>>,
) -> CellMetrics {
    let attach = |b: ClusterBuilder| match sink {
        Some(s) => b.trace_sink(Arc::clone(s) as Arc<dyn TraceSink>),
        None => b,
    };
    let sites = cell.net.sites();
    let classes = cell.net.classes();
    let config = ClusterConfig::new(sites, classes)
        .with_net(cell.net.net_config())
        .with_engine(cell.engine.engine_kind())
        .with_mode(cell.mode)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
        .with_delivery_quantum(quantum)
        .with_groups(cell.net.groups())
        .with_seed(seed);

    let scale_pair = matches!(cell.net, PerfNet::Lan16 | PerfNet::Sharded)
        && cell.workload == PerfWorkload::Uniform;
    let mut cluster = if scale_pair {
        // The sharding scale pair routes every submission to a site of
        // its class's own group (identical rotation for both halves, so
        // the single-group cell runs the exact same class/site sequence)
        // at a saturating fixed aggregate arrival rate.
        let (registry, procs) = StandardProcs::registry();
        let data = (0..classes).map(|c| (ObjectId::new(c as u32, 0), Value::Int(0))).collect();
        let mut cluster =
            attach(ClusterBuilder::from_config(config).registry(registry).initial_data(data))
                .build();
        let groups = cell.net.groups();
        let per = sites / groups;
        let mut t = SimTime::from_millis(1);
        for i in 0..txns {
            let class = (i % classes as u64) as u32;
            let g = class as usize % groups;
            let site = (g * per + (i as usize / classes) % per) as u16;
            cluster.schedule_update(
                t,
                SiteId::new(site),
                ClassId::new(class),
                procs.add,
                vec![Value::Int(0), Value::Int(1)],
            );
            t += PERF_SCALE_SPACING;
        }
        cluster
    } else {
        match cell.workload {
            PerfWorkload::Uniform | PerfWorkload::Hotspot => {
                let mut spec = WorkloadSpec::new(sites, classes, txns)
                    .with_arrival(Arrival::Fixed(SimDuration::from_millis(2)))
                    .with_seed(seed);
                if cell.workload == PerfWorkload::Hotspot {
                    spec = spec.with_selection(ClassSelection::HotSpot {
                        hot_fraction: 0.25,
                        hot_probability: 0.8,
                    });
                }
                let (registry, procs) = StandardProcs::registry();
                let schedule = spec.generate(&procs);
                let mut cluster = attach(
                    ClusterBuilder::from_config(config)
                        .registry(registry)
                        .initial_data(spec.initial_data()),
                )
                .build();
                schedule.apply(&mut cluster);
                cluster
            }
            PerfWorkload::Tpcb => {
                let tpcb = TpcB::new(classes as u32, sites, txns)
                    .with_arrival(Arrival::Fixed(SimDuration::from_millis(2)))
                    .with_seed(seed);
                let (registry, proc) = tpcb.registry();
                let schedule = tpcb.schedule(proc);
                let mut cluster = attach(
                    ClusterBuilder::from_config(config)
                        .registry(registry)
                        .initial_data(tpcb.initial_data()),
                )
                .build();
                schedule.apply(&mut cluster);
                cluster
            }
        }
    };

    cluster.run_until(SimTime::from_secs(600));
    let mut stats = cluster.stats();
    if stats.completed != txns {
        eprintln!(
            "perf: cell {} lost transactions ({} of {txns} committed) — \
             the completed gate will flag this against any baseline",
            cell.id(),
            stats.completed
        );
    }
    let (fast, slow) = (stats.counters.get("fast_decide"), stats.counters.get("slow_decide"));
    CellMetrics {
        completed: stats.completed,
        throughput_per_sec: stats.throughput_per_sec(),
        p50_commit_ns: stats.commit_latency.quantile(0.5).as_nanos(),
        p99_commit_ns: stats.commit_latency.quantile(0.99).as_nanos(),
        abort_rate: stats.abort_rate(),
        msgs_per_commit: stats.network_frames as f64 / stats.completed.max(1) as f64,
        sim_duration_ns: stats.now.as_nanos(),
        one_step_rate: fast as f64 / (fast + slow).max(1) as f64,
    }
}

/// A full matrix run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Transactions per cell.
    pub txns: u64,
    /// Master seed.
    pub seed: u64,
    /// `(cell, metrics)` in matrix order.
    pub cells: Vec<(PerfCell, CellMetrics)>,
    /// Per-cell stage breakdowns, parallel to `cells` when the matrix ran
    /// traced (`--stage-breakdown`); empty otherwise. Serialized as the
    /// non-gated `stages` key — [`check_against_baseline`] ignores keys it
    /// does not know, so a traced `BENCH.json` still checks cleanly
    /// against an untraced baseline.
    pub stages: Vec<Vec<StageLatency>>,
}

/// Runs the given cells (usually [`PerfCell::all`]) into a report.
pub fn run_matrix(cells: &[PerfCell], txns: u64, seed: u64) -> PerfReport {
    let cells = cells.iter().map(|c| (*c, run_perf_cell(c, txns, seed))).collect();
    PerfReport { txns, seed, cells, stages: Vec::new() }
}

/// [`run_matrix`] with a lifecycle trace per cell, reduced to the
/// per-stage breakdowns (`--stage-breakdown`).
pub fn run_matrix_with_stages(cells: &[PerfCell], txns: u64, seed: u64) -> PerfReport {
    let mut out = Vec::with_capacity(cells.len());
    let mut stages = Vec::with_capacity(cells.len());
    for c in cells {
        let (m, s) = run_perf_cell_traced(c, txns, seed);
        out.push((*c, m));
        stages.push(s);
    }
    PerfReport { txns, seed, cells: out, stages }
}

impl PerfReport {
    /// Serializes the report as the byte-stable `BENCH.json` document.
    pub fn to_json(&self) -> String {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, (cell, m))| {
                let mut fields = vec![
                    ("id".into(), Json::Str(cell.id())),
                    ("completed".into(), Json::int(m.completed)),
                    ("throughput_per_sec".into(), Json::fixed(m.throughput_per_sec, 3)),
                    ("p50_commit_ns".into(), Json::int(m.p50_commit_ns)),
                    ("p99_commit_ns".into(), Json::int(m.p99_commit_ns)),
                    ("abort_rate".into(), Json::fixed(m.abort_rate, 6)),
                    ("msgs_per_commit".into(), Json::fixed(m.msgs_per_commit, 4)),
                    ("sim_duration_ns".into(), Json::int(m.sim_duration_ns)),
                ];
                if let Some(stages) = self.stages.get(i) {
                    let rows = stages
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("stage".into(), Json::Str(s.stage.into())),
                                ("n".into(), Json::int(s.n)),
                                ("p50_ns".into(), Json::int(s.p50_ns)),
                                ("p99_ns".into(), Json::int(s.p99_ns)),
                            ])
                        })
                        .collect();
                    fields.push(("stages".into(), Json::Arr(rows)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::int(PERF_SCHEMA)),
            ("tool".into(), Json::Str("otp-bench perf".into())),
            (
                "config".into(),
                Json::Obj(vec![
                    ("sites".into(), Json::int(PERF_SITES as u64)),
                    ("classes".into(), Json::int(PERF_CLASSES as u64)),
                    ("txns".into(), Json::int(self.txns)),
                    ("seed".into(), Json::int(self.seed)),
                ]),
            ),
            ("cells".into(), Json::Arr(cells)),
        ])
        .to_pretty()
    }
}

/// One perf regression found by [`check_against_baseline`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Cell id.
    pub cell: String,
    /// Metric name as it appears in `BENCH.json`.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// One-line command reproducing the cell measurement.
    pub reproducer: String,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} regressed {:.4} -> {:.4}\nrepro: {}",
            self.cell, self.metric, self.baseline, self.current, self.reproducer
        )
    }
}

/// The one-line command re-measuring a single cell.
pub fn reproducer(cell_id: &str) -> String {
    format!("cargo run --release -p otp-bench --bin perf -- --cell {cell_id}")
}

/// Diffs a current report against a committed baseline document.
///
/// Gated metrics and their regression directions: `throughput_per_sec`
/// (down), `p50_commit_ns`/`p99_commit_ns` (up), `msgs_per_commit` (up) —
/// each with relative `tolerance` — plus `abort_rate` (up, with the same
/// relative tolerance and a 0.01 absolute floor so zero-abort baselines do
/// not trip on the first abort) and `completed` (any loss, no tolerance).
/// A cell present in the baseline but missing from the current run is a
/// regression; a new cell only present in the current run is allowed (the
/// matrix may grow before the baseline is refreshed).
///
/// # Errors
///
/// Returns a description if the baseline does not parse or has an
/// unexpected schema version.
pub fn check_against_baseline(
    current: &PerfReport,
    baseline_text: &str,
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let schema = baseline.get("schema").and_then(Json::as_f64);
    if schema != Some(PERF_SCHEMA as f64) {
        return Err(format!(
            "baseline schema {:?} does not match supported schema {PERF_SCHEMA}",
            schema
        ));
    }
    let base_cells = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "baseline: missing \"cells\" array".to_string())?;

    let mut regressions = Vec::new();
    for base in base_cells {
        let id = base
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| "baseline: cell without \"id\"".to_string())?;
        let Some((_, cur)) = current.cells.iter().find(|(c, _)| c.id() == id) else {
            regressions.push(Regression {
                cell: id.to_string(),
                metric: "missing",
                baseline: 1.0,
                current: 0.0,
                reproducer: reproducer(id),
            });
            continue;
        };
        let metric = |name: &str| -> Result<f64, String> {
            base.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("baseline: cell {id} missing {name:?}"))
        };
        let mut push = |metric: &'static str, baseline: f64, current: f64| {
            regressions.push(Regression {
                cell: id.to_string(),
                metric,
                baseline,
                current,
                reproducer: reproducer(id),
            });
        };

        let base_tput = metric("throughput_per_sec")?;
        if cur.throughput_per_sec < base_tput * (1.0 - tolerance) {
            push("throughput_per_sec", base_tput, cur.throughput_per_sec);
        }
        let base_p50 = metric("p50_commit_ns")?;
        if cur.p50_commit_ns as f64 > base_p50 * (1.0 + tolerance) {
            push("p50_commit_ns", base_p50, cur.p50_commit_ns as f64);
        }
        let base_p99 = metric("p99_commit_ns")?;
        if cur.p99_commit_ns as f64 > base_p99 * (1.0 + tolerance) {
            push("p99_commit_ns", base_p99, cur.p99_commit_ns as f64);
        }
        let base_mpc = metric("msgs_per_commit")?;
        if cur.msgs_per_commit > base_mpc * (1.0 + tolerance) {
            push("msgs_per_commit", base_mpc, cur.msgs_per_commit);
        }
        let base_abort = metric("abort_rate")?;
        if cur.abort_rate > base_abort * (1.0 + tolerance) + 0.01 {
            push("abort_rate", base_abort, cur.abort_rate);
        }
        let base_completed = metric("completed")?;
        if (cur.completed as f64) < base_completed {
            push("completed", base_completed, cur.completed as f64);
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_twenty_eight_cells_with_unique_round_tripping_ids() {
        let cells = PerfCell::all();
        assert_eq!(cells.len(), 28, "18 legacy + 6 lanfast + 2 lanfast16 + 2 scale pair");
        let mut ids: Vec<String> = cells.iter().map(PerfCell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 28);
        for cell in PerfCell::all() {
            let parsed: PerfCell = cell.id().parse().unwrap();
            assert_eq!(parsed, cell, "{}", cell.id());
        }
        // The new axes are present and the 16-site variant really is 16.
        assert!(ids.iter().any(|id| id == "seq-conservative-tpcb-lanfast"));
        let scale: PerfCell = "opt-otp-tpcb-lanfast16".parse().unwrap();
        assert_eq!(scale.net.sites(), 16);
        assert!(ids.contains(&scale.id()));
        let sharded: PerfCell = "seq-otp-uniform-sharded".parse().unwrap();
        assert_eq!(sharded.net.sites(), 16);
        assert_eq!(sharded.net.groups(), 4, "4 groups × 4 sites");
        assert!(ids.contains(&sharded.id()));
        let single: PerfCell = "seq-otp-uniform-lan16".parse().unwrap();
        assert_eq!((single.net.sites(), single.net.groups()), (16, 1));
        assert!(ids.contains(&single.id()));
        assert!("seq-otp".parse::<PerfCell>().is_err());
        assert!("paxos-otp-uniform".parse::<PerfCell>().is_err());
        assert!("seq-lazy-uniform".parse::<PerfCell>().is_err());
        assert!("seq-otp-ycsb".parse::<PerfCell>().is_err());
        assert!("seq-otp-tpcb-wan".parse::<PerfCell>().is_err());
        assert!("seq-otp-tpcb-lanfast-extra".parse::<PerfCell>().is_err());
    }

    #[test]
    fn sharding_multiplies_aggregate_throughput_on_the_scale_pair() {
        // The PR's acceptance gate: on the saturated uniform workload,
        // 4 groups × 4 sites commit at ≥ 2.5× the aggregate rate of the
        // 16-site single-group cell, with no transaction lost by either.
        let single = run_perf_cell(&"seq-otp-uniform-lan16".parse().unwrap(), PERF_TXNS, PERF_SEED);
        let sharded =
            run_perf_cell(&"seq-otp-uniform-sharded".parse().unwrap(), PERF_TXNS, PERF_SEED);
        assert_eq!(single.completed, PERF_TXNS);
        assert_eq!(sharded.completed, PERF_TXNS);
        let speedup = sharded.throughput_per_sec / single.throughput_per_sec;
        assert!(
            speedup >= 2.5,
            "sharded {:.0}/s vs single-group {:.0}/s — {speedup:.2}× < 2.5×",
            sharded.throughput_per_sec,
            single.throughput_per_sec
        );
    }

    /// The paper's premise, measured where the optimistic engine cashes
    /// it in: with arrivals sparse relative to the wire, all sites propose
    /// the same batch and the definitive order is decided in one step.
    #[test]
    fn sparse_arrivals_mostly_decide_in_one_step() {
        let cell: PerfCell = "opt-otp-tpcb-lanfast".parse().unwrap();
        let m = run_perf_cell(&cell, 120, PERF_SEED);
        assert_eq!(m.completed, 120);
        assert!(m.one_step_rate > 0.7, "{}", m.one_step_rate);
    }

    #[test]
    fn one_cell_runs_and_reports_sane_metrics() {
        let cell: PerfCell = "seq-conservative-uniform".parse().unwrap();
        let m = run_perf_cell(&cell, 24, PERF_SEED);
        assert_eq!(m.completed, 24);
        assert!(m.throughput_per_sec > 0.0);
        assert!(m.p50_commit_ns > 0 && m.p50_commit_ns <= m.p99_commit_ns);
        assert_eq!(m.abort_rate, 0.0, "conservative never aborts");
        assert!(m.msgs_per_commit > 0.0);
        assert_eq!(m.one_step_rate, 0.0, "a sequencer runs no consensus instances");
        assert!(m.sim_duration_ns > 0);
    }

    #[test]
    fn traced_run_is_pure_observation_and_breaks_down_stages() {
        let cell: PerfCell = "opt-otp-uniform".parse().unwrap();
        let plain = run_perf_cell(&cell, 24, PERF_SEED);
        let (traced, stages) = run_perf_cell_traced(&cell, 24, PERF_SEED);
        assert_eq!(plain, traced, "tracing must not perturb the run");
        let get = |id: &str| stages.iter().find(|s| s.stage == id);
        let submit = get("submit").expect("submit row");
        assert_eq!((submit.n, submit.p50_ns, submit.p99_ns), (24, 0, 0));
        let opt = get("opt_deliver").expect("opt_deliver row");
        let to = get("to_deliver").expect("to_deliver row");
        let exec = get("execute").expect("execute row");
        let commit = get("commit").expect("commit row");
        assert_eq!(commit.n, 24, "every txn commits at its origin");
        // OTP: execution starts at Opt-delivery, before the order is final.
        assert!(opt.p50_ns <= to.p50_ns, "opt {} > to {}", opt.p50_ns, to.p50_ns);
        assert!(exec.p50_ns >= opt.p50_ns && exec.p50_ns <= commit.p50_ns);
        assert!(to.p50_ns <= commit.p50_ns);
        // Unsharded cell: no relay stage; rows are in canonical order.
        assert!(get("relay_wait").is_none());
        let ranks: Vec<&str> = stages.iter().map(|s| s.stage).collect();
        let mut sorted = ranks.clone();
        sorted.sort_by_key(|id| Stage::all().iter().position(|s| s.id() == *id));
        assert_eq!(ranks, sorted);
    }

    #[test]
    fn stage_breakdown_json_is_byte_stable_and_non_gated() {
        let cells: Vec<PerfCell> =
            vec!["opt-otp-uniform".parse().unwrap(), "seq-otp-uniform-sharded".parse().unwrap()];
        let a = run_matrix_with_stages(&cells, 16, PERF_SEED);
        let b = run_matrix_with_stages(&cells, 16, PERF_SEED);
        assert_eq!(a.to_json(), b.to_json(), "same inputs, same bytes");
        let doc = Json::parse(&a.to_json()).unwrap();
        let cells_json = doc.get("cells").and_then(Json::as_arr).unwrap();
        for c in cells_json {
            assert!(c.get("stages").and_then(Json::as_arr).is_some_and(|s| !s.is_empty()));
        }
        // The sharded scale cell routes every submission into its class's
        // own group, so even with 4 ordering groups nothing crosses one —
        // the relay stage must not appear in its breakdown.
        assert!(a.stages[1].iter().all(|s| s.stage != "relay_wait"), "{:?}", a.stages[1]);
        let commit = a.stages[1].iter().find(|s| s.stage == "commit").expect("commit row");
        assert_eq!(commit.n, 16, "every sharded txn commits at its origin");
        // The stages key is ignored by the baseline checker: a traced
        // report checks cleanly against its own untraced baseline.
        let untraced = run_matrix(&cells, 16, PERF_SEED);
        assert_eq!(check_against_baseline(&a, &untraced.to_json(), 0.01).unwrap(), vec![]);
        assert_eq!(check_against_baseline(&untraced, &a.to_json(), 0.01).unwrap(), vec![]);
    }

    #[test]
    fn report_json_is_byte_stable_and_parses() {
        let cells: Vec<PerfCell> =
            vec!["opt-otp-uniform".parse().unwrap(), "seq-otp-tpcb".parse().unwrap()];
        let a = run_matrix(&cells, 16, PERF_SEED);
        let b = run_matrix(&cells, 16, PERF_SEED);
        assert_eq!(a.to_json(), b.to_json(), "same inputs, same bytes");
        let doc = Json::parse(&a.to_json()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    }

    #[test]
    fn self_check_passes_and_doctored_baseline_fails_with_reproducer() {
        let cells: Vec<PerfCell> = vec!["scramble-otp-hotspot".parse().unwrap()];
        let report = run_matrix(&cells, 16, PERF_SEED);
        let baseline = report.to_json();
        assert_eq!(check_against_baseline(&report, &baseline, 0.1).unwrap(), vec![]);
        // Doctor the baseline: pretend throughput used to be 100x higher.
        let doctored = baseline
            .replace("\"throughput_per_sec\": ", "\"throughput_per_sec\": 9999999.0, \"was\": ");
        let regs = check_against_baseline(&report, &doctored, 0.25).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "throughput_per_sec");
        assert!(regs[0].reproducer.contains("--cell scramble-otp-hotspot"));
        assert!(!format!("{}", regs[0]).is_empty());
    }

    #[test]
    fn missing_cell_and_bad_baseline_are_loud() {
        let cells: Vec<PerfCell> = vec!["opt-otp-uniform".parse().unwrap()];
        let report = run_matrix(&cells, 16, PERF_SEED);
        // Baseline knows a cell the current run does not have.
        let two = run_matrix(
            &["opt-otp-uniform".parse().unwrap(), "opt-otp-tpcb".parse().unwrap()],
            16,
            PERF_SEED,
        );
        let regs = check_against_baseline(&report, &two.to_json(), 0.25).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "missing");
        // Garbage baseline: an error, not a vacuous pass.
        assert!(check_against_baseline(&report, "{not json", 0.25).is_err());
        assert!(check_against_baseline(&report, "{\"schema\": 99}", 0.25)
            .unwrap_err()
            .contains("schema"));
    }
}

//! The seven workloads, as plain data. Nothing here names a program item:
//! `adapter.rs` turns a [`Spec`] into clusters, schedules and runs.
//!
//! Sizes are those of `--seconds 8`; [`Spec::scaled`] shrinks or grows
//! every workload by one common factor, and the declared `--seconds 10`
//! runs them × 1.25 (three repetitions of 3.4–6.5 s each on the reference
//! 2-core machine).

/// Which ordering engine the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// Optimistic atomic broadcast; consensus-based definitive order.
    Opt { consensus_timeout_ms: u64 },
    /// Fixed sequencer that batches order assignments for `order_delay_us`.
    SeqBatched { order_delay_us: u64 },
}

/// Which replica executes transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Execute on Opt-delivery, commit on TO-delivery (the paper's OTP).
    Otp,
    /// Execute after TO-delivery (the classic baseline).
    Conservative,
}

/// The simulated wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lan {
    /// 1 Gbit/s switched LAN preset.
    Fast1G,
    /// The paper's 10 Mbit/s Ethernet preset.
    Slow10M,
}

/// Data set and transaction shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// TPC-B profile transactions; one branch per conflict class.
    TpcB { branches: u32 },
    /// `add(key, delta)` uniformly over `classes × objects`.
    Uniform { classes: usize, objects: u64 },
}

impl Data {
    pub fn classes(&self) -> usize {
        match self {
            Data::TpcB { branches } => *branches as usize,
            Data::Uniform { classes, .. } => *classes,
        }
    }
}

/// A sequencer crash in the middle of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// The crash fires when this share of the schedule has been submitted.
    pub at_share: f64,
    /// `schedule_recover` fires this long after the crash.
    pub recover_after_ms: u64,
}

/// A workload on the deterministic simulator: open-loop Poisson arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    pub sites: usize,
    pub groups: usize,
    pub engine: Engine,
    pub mode: Mode,
    pub lan: Lan,
    pub data: Data,
    pub exec_us: u64,
    /// Offered load over all sites, operations per simulated second.
    pub rate_per_s: f64,
    pub updates: u64,
    /// Snapshot queries per update (0.5 = one query per two updates).
    pub query_ratio: f64,
    /// Share of updates turned into two-group cross updates.
    pub cross_share: f64,
    pub crash: Option<Crash>,
    pub quantum_us: u64,
    /// Simulated-time deadline: a run that has not drained by then reports
    /// the remaining operations as failed.
    pub deadline_s: f64,
}

/// A workload on the threaded runtime: one closed-loop generator thread.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSpec {
    pub sites: usize,
    pub classes: usize,
    pub objects: u64,
    pub engine: Engine,
    pub exec_us: u64,
    pub net_delay_us: u64,
    pub net_jitter_us: u64,
    /// Admission window: the closed loop's client count.
    pub max_in_flight: usize,
    pub txns: u64,
    /// Wall-clock watchdog over submission and drain.
    pub deadline_s: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    Sim(SimSpec),
    Live(LiveSpec),
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub spec: Spec,
}

impl Spec {
    /// The same workload with its operation count multiplied by `factor`
    /// (rates, cluster shape and fault timing as a share stay put).
    pub fn scaled(&self, factor: f64) -> Spec {
        let scale = |n: u64| ((n as f64 * factor).round() as u64).max(100);
        match self {
            Spec::Sim(s) => Spec::Sim(SimSpec { updates: scale(s.updates), ..s.clone() }),
            Spec::Live(l) => Spec::Live(LiveSpec { txns: scale(l.txns), ..l.clone() }),
        }
    }

    pub fn is_sim(&self) -> bool {
        matches!(self, Spec::Sim(_))
    }
}

const OPT_SIM: Engine = Engine::Opt { consensus_timeout_ms: 50 };
const OPT_LIVE: Engine = Engine::Opt { consensus_timeout_ms: 100 };
const SEQ_BATCHED: Engine = Engine::SeqBatched { order_delay_us: 250 };

fn opt_tpcb(rate_per_s: f64, updates: u64) -> Spec {
    Spec::Sim(SimSpec {
        sites: 4,
        groups: 1,
        engine: OPT_SIM,
        mode: Mode::Otp,
        lan: Lan::Fast1G,
        data: Data::TpcB { branches: 8 },
        exec_us: 100,
        rate_per_s,
        updates,
        query_ratio: 0.0,
        cross_share: 0.0,
        crash: None,
        quantum_us: 100,
        deadline_s: 600.0,
    })
}

fn live_opt(max_in_flight: usize, txns: u64) -> Spec {
    Spec::Live(LiveSpec {
        sites: 3,
        classes: 8,
        objects: 8,
        engine: OPT_LIVE,
        exec_us: 100,
        net_delay_us: 50,
        net_jitter_us: 100,
        max_in_flight,
        txns,
        deadline_s: 60.0,
    })
}

/// Every workload, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "sim-opt-sparse",
            why: "Opt engine, arrivals sparse relative to the wire: consensus instances do not \
                  batch, so consensus, broadcast::opt and the simnet event queue do the work",
            spec: opt_tpcb(2_000.0, 80_000),
        },
        Workload {
            name: "sim-opt-dense",
            why: "same cluster at 60% of its execution knee: batching is already good, so a \
                  change that batches harder must help sparse and not move dense",
            spec: opt_tpcb(50_000.0, 150_000),
        },
        Workload {
            name: "sim-seq-cons-query",
            why: "batched sequencer + conservative replica + snapshot queries: bypasses the opt \
                  engine and the optimistic replica; class queues, storage and MVCC reads dominate",
            spec: Spec::Sim(SimSpec {
                sites: 4,
                groups: 1,
                engine: SEQ_BATCHED,
                mode: Mode::Conservative,
                lan: Lan::Fast1G,
                data: Data::Uniform { classes: 8, objects: 16 },
                exec_us: 200,
                rate_per_s: 16_000.0,
                updates: 200_000,
                query_ratio: 0.5,
                cross_share: 0.0,
                crash: None,
                quantum_us: 100,
                deadline_s: 600.0,
            }),
        },
        Workload {
            name: "sim-sharded-cross",
            why: "16 sites in 4 sequencing groups with 10% two-group transactions: the only user \
                  of OrderDomain routing, CrossGate and the relay stream, and the only large cluster",
            spec: Spec::Sim(SimSpec {
                sites: 16,
                groups: 4,
                engine: SEQ_BATCHED,
                mode: Mode::Otp,
                lan: Lan::Slow10M,
                data: Data::Uniform { classes: 32, objects: 16 },
                exec_us: 200,
                rate_per_s: 10_000.0,
                updates: 100_000,
                query_ratio: 0.0,
                cross_share: 0.10,
                crash: None,
                quantum_us: 100,
                deadline_s: 600.0,
            }),
        },
        Workload {
            name: "sim-seq-crash",
            why: "the sequencer crashes at 80% of the schedule while requests keep arriving: p50 \
                  is the steady state, p99 is the outage; view change and state transfer do the work",
            spec: Spec::Sim(SimSpec {
                sites: 5,
                groups: 1,
                engine: SEQ_BATCHED,
                mode: Mode::Otp,
                lan: Lan::Slow10M,
                data: Data::TpcB { branches: 8 },
                exec_us: 200,
                rate_per_s: 2_000.0,
                updates: 100_000,
                query_ratio: 0.0,
                cross_share: 0.0,
                crash: Some(Crash { at_share: 0.8, recover_after_ms: 500 }),
                quantum_us: 100,
                deadline_s: 6_000.0,
            }),
        },
        Workload {
            name: "live-opt-c256",
            why: "threaded runtime, closed loop of 256: CPU-saturated on 2 cores, so every \
                  layer's CPU cost, the channels and the net thread show as throughput",
            spec: live_opt(256, 200_000),
        },
        Workload {
            name: "live-opt-c32",
            why: "same cluster, closed loop of 32: little queueing, so latency is hops x (net \
                  delay + wake-up); a CPU saving should not move it, a timer change should",
            spec: live_opt(32, 100_000),
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own generator for inputs it makes itself
/// (the live workloads' arguments), so they depend on `--seed` alone and
/// not on the program's random-number code.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

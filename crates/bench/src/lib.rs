//! # otp-bench — the experiment harness
//!
//! One public function per figure/table of the reproduction (see
//! DESIGN.md §5 and EXPERIMENTS.md). Each returns an
//! [`otp_simnet::metrics::Table`] so the `src/bin/*` entry points can print
//! markdown/CSV and the test suite can assert result *shapes* cheaply.
//!
//! | function | artifact |
//! |----------|----------|
//! | [`fig1_spontaneous_order`] | Figure 1 — spontaneous total order vs send interval |
//! | [`e2_overlap_latency`] | E2 — OTP hides agreement latency behind execution |
//! | [`e3_mismatch_aborts`] | E3 — aborts vs mismatch rate × #classes |
//! | [`e4_async_comparison`] | E4 — OTP vs conservative vs lazy replication |
//! | [`e5_scalability`] | E5 — latency vs number of sites |
//! | [`e6_queries`] | E6 — snapshot queries do not disturb updates |
//! | [`e7_recovery`] | E7 — crash/recovery convergence |

pub mod json;
pub mod perf;
pub mod soak;

use otp_broadcast::order::{pairwise_agreement_pct, spontaneous_order_pct};
use otp_broadcast::MsgId;
use otp_core::{
    AsyncCluster, AsyncConfig, Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind,
    Mode,
};
use otp_simnet::metrics::Table;
use otp_simnet::{MulticastNet, NetConfig, SimDuration, SimRng, SimTime, SiteId};
use otp_txn::history::check_one_copy_serializable;
use otp_workload::{Schedule, StandardProcs, WorkloadSpec};

/// Result of one Figure 1 measurement point.
#[derive(Debug, Clone, Copy)]
pub struct SpontaneousOrderPoint {
    /// Inter-send interval per site.
    pub interval: SimDuration,
    /// Prefix-merge spontaneous-order percentage (the Figure 1 metric).
    pub ordered_pct: f64,
    /// Pairwise agreement percentage (cross-check metric).
    pub pairwise_pct: f64,
}

/// Measures spontaneous total order for one send interval: `sites` sites
/// each multicast `msgs_per_site` messages of `payload_bytes`, spaced
/// `interval` apart, all starting at time zero (the paper's "all sites
/// simultaneously send messages using IP multicast").
pub fn spontaneous_order_point(
    net_config: NetConfig,
    msgs_per_site: usize,
    payload_bytes: u32,
    interval: SimDuration,
    seed: u64,
) -> SpontaneousOrderPoint {
    let sites = net_config.sites;
    let mut net = MulticastNet::new(net_config);
    let mut rng = SimRng::seed_from(seed);
    // Each site sends every `interval`, but the senders' loops are not
    // phase-locked (real processes cannot synchronize to the microsecond):
    // give each site a random phase within the interval.
    let phases: Vec<SimDuration> = (0..sites)
        .map(|_| {
            if interval.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.uniform_range(0, interval.as_nanos()))
            }
        })
        .collect();
    // Collect all sends, time-ordered, then put them on the wire. Each
    // sender's phase performs a small random walk (user-space send loops
    // drift under scheduling noise), so two sites whose loops happened to
    // align drift apart again instead of colliding on every tick.
    let mut walk: Vec<f64> = phases.iter().map(|p| p.as_secs_f64()).collect();
    let mut sends: Vec<(SimTime, SiteId, MsgId)> = Vec::new();
    for k in 0..msgs_per_site {
        for s in SiteId::all(sites) {
            let drift = rng.normal(0.0, 60e-6);
            walk[s.index()] = (walk[s.index()] + drift).max(0.0);
            let send_at = SimTime::ZERO
                + interval.mul_u64(k as u64)
                + SimDuration::from_secs_f64(walk[s.index()]);
            sends.push((send_at, s, MsgId::new(s, k as u64)));
        }
    }
    sends.sort();
    // (arrival, receiver) → message id, collected per receiver.
    let mut arrivals: Vec<Vec<(SimTime, MsgId)>> = vec![Vec::new(); sites];
    for (send_at, s, id) in sends {
        for d in net.multicast(s, payload_bytes, send_at, &mut rng) {
            arrivals[d.to.index()].push((d.arrival, id));
        }
    }
    let sequences: Vec<Vec<MsgId>> = arrivals
        .into_iter()
        .map(|mut v| {
            v.sort();
            v.into_iter().map(|(_, id)| id).collect()
        })
        .collect();
    SpontaneousOrderPoint {
        interval,
        ordered_pct: spontaneous_order_pct(&sequences),
        pairwise_pct: pairwise_agreement_pct(&sequences, 200_000),
    }
}

/// Figure 1: spontaneous total order vs inter-send interval on the
/// calibrated 4-site 10 Mbit/s testbed. `intervals_us` is the sweep of
/// per-site send intervals in microseconds (the paper sweeps 0–5 ms).
pub fn fig1_spontaneous_order(
    sites: usize,
    msgs_per_site: usize,
    intervals_us: &[u64],
    seed: u64,
) -> Table {
    let mut table =
        Table::new(vec!["interval_ms", "ordered_pct", "pairwise_pct", "paper_expectation"]);
    for &us in intervals_us {
        // Average a few independent runs per point: the paper's plot is a
        // long-run average; single seeds carry phase-alignment variance.
        const RUNS: u64 = 3;
        let mut ordered = 0.0;
        let mut pairwise = 0.0;
        for r in 0..RUNS {
            let p = spontaneous_order_point(
                NetConfig::fig1_testbed(sites),
                msgs_per_site,
                64,
                SimDuration::from_micros(us),
                seed.wrapping_add(r * 7919),
            );
            // otp-lint: allow(float-accum): summed in fixed 0..RUNS order, so the
            // rounding sequence is deterministic; feeds the fig1 table, not BENCH.
            ordered += p.ordered_pct;
            // otp-lint: allow(float-accum): same fixed-order accumulation as above.
            pairwise += p.pairwise_pct;
        }
        let p = SpontaneousOrderPoint {
            interval: SimDuration::from_micros(us),
            ordered_pct: ordered / RUNS as f64,
            pairwise_pct: pairwise / RUNS as f64,
        };
        let expect = match us {
            0..=499 => "~82-86%",
            500..=1999 => "rising",
            2000..=3499 => ">97%",
            _ => "~99%",
        };
        table.row(vec![
            format!("{:.2}", us as f64 / 1000.0),
            format!("{:.1}", p.ordered_pct),
            format!("{:.1}", p.pairwise_pct),
            expect.to_string(),
        ]);
    }
    table
}

fn run_schedule(config: ClusterConfig, spec: &WorkloadSpec, schedule: &Schedule) -> Cluster {
    let (registry, _) = StandardProcs::registry();
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(spec.initial_data())
        .build();
    schedule.apply(&mut cluster);
    cluster.run_until(SimTime::from_secs(600));
    cluster
}

/// E2: sweep the agreement delay while execution time stays fixed; compare
/// OTP and conservative mean commit latencies. The oracle engine pins the
/// agreement delay exactly (swap probability 0), isolating the overlap
/// effect the paper's Section 1 promises.
pub fn e2_overlap_latency(
    exec_ms: u64,
    agreement_delays_ms: &[u64],
    updates: u64,
    seed: u64,
) -> Table {
    let mut table = Table::new(vec![
        "agreement_ms",
        "exec_ms",
        "otp_mean_ms",
        "conservative_mean_ms",
        "otp_hides_pct",
    ]);
    for &d in agreement_delays_ms {
        let spec = WorkloadSpec::new(4, 8, updates)
            .with_arrival(otp_workload::Arrival::Fixed(SimDuration::from_millis(
                exec_ms * 8 / 4 + 4,
            )))
            .with_seed(seed);
        let (_, procs) = StandardProcs::registry();
        let schedule = spec.generate(&procs);
        let engine = EngineKind::Scrambled {
            agreement_delay: SimDuration::from_millis(d),
            swap_probability: 0.0,
        };
        let base = ClusterConfig::new(4, 8)
            .with_engine(engine)
            .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(exec_ms)))
            .with_seed(seed);
        let otp = run_schedule(base.clone().with_mode(Mode::Otp), &spec, &schedule);
        let cons = run_schedule(base.with_mode(Mode::Conservative), &spec, &schedule);
        let lo = otp.stats().commit_latency.mean().as_millis_f64();
        let lc = cons.stats().commit_latency.mean().as_millis_f64();
        let hidden = if lc > 0.0 { 100.0 * (lc - lo) / lc } else { 0.0 };
        table.row(vec![
            d.to_string(),
            exec_ms.to_string(),
            format!("{lo:.2}"),
            format!("{lc:.2}"),
            format!("{hidden:.0}"),
        ]);
    }
    table
}

/// E3: abort and reorder rates vs tentative-order mismatch probability,
/// for several conflict-class counts. The paper's §3.2 observation: a
/// mismatch only costs when the transactions *conflict*, so more classes →
/// fewer aborts at the same mismatch rate.
pub fn e3_mismatch_aborts(
    swap_probs: &[f64],
    class_counts: &[usize],
    updates: u64,
    seed: u64,
) -> Table {
    let mut table =
        Table::new(vec!["swap_prob", "classes", "abort_rate_pct", "reorders", "mean_latency_ms"]);
    for &classes in class_counts {
        for &p in swap_probs {
            // Regime where mismatches can matter at all: messages arrive
            // faster than agreement completes (2 ms aggregate inter-arrival
            // vs 4 ms agreement — the paper's premise that ordering is the
            // bottleneck), while even a single class stays below
            // saturation (2 ms aggregate > 1 ms execution).
            let spec = WorkloadSpec::new(4, classes, updates)
                .with_arrival(otp_workload::Arrival::Fixed(SimDuration::from_millis(8)))
                .with_seed(seed);
            let (_, procs) = StandardProcs::registry();
            let schedule = spec.generate(&procs);
            let config = ClusterConfig::new(4, classes)
                .with_engine(EngineKind::Scrambled {
                    agreement_delay: SimDuration::from_millis(4),
                    swap_probability: p,
                })
                .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
                .with_seed(seed);
            let cluster = run_schedule(config, &spec, &schedule);
            let stats = cluster.stats();
            table.row(vec![
                format!("{p:.2}"),
                classes.to_string(),
                format!("{:.2}", 100.0 * stats.abort_rate()),
                stats.counters.get("reorder").to_string(),
                format!("{:.2}", stats.commit_latency.mean().as_millis_f64()),
            ]);
        }
    }
    table
}

/// E4: the same workload on OTP, the conservative baseline and lazy
/// primary-copy replication. Reports client latency, throughput and —
/// the paper's consistency argument — whether the observed histories were
/// 1-copy-serializable.
pub fn e4_async_comparison(updates: u64, classes: usize, seed: u64) -> Table {
    let sites = 4;
    let spec = WorkloadSpec::new(sites, classes, updates)
        .with_arrival(otp_workload::Arrival::Poisson { mean: SimDuration::from_millis(6) })
        .with_queries(0.3, 2)
        .with_seed(seed);
    let (_, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);

    let mut table = Table::new(vec![
        "system",
        "mean_ms",
        "p95_ms",
        "throughput_tps",
        "staleness_ms",
        "serializable",
    ]);

    for (name, mode) in [("otp", Mode::Otp), ("conservative", Mode::Conservative)] {
        let config = ClusterConfig::new(sites, classes)
            .with_mode(mode)
            .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(2)))
            .with_seed(seed);
        let cluster = run_schedule(config, &spec, &schedule);
        let mut stats = cluster.stats();
        let ok = check_one_copy_serializable(&cluster.histories()).is_ok();
        let mean = stats.commit_latency.mean().as_millis_f64();
        let p95 = stats.commit_latency.quantile(0.95).as_millis_f64();
        table.row(vec![
            name.to_string(),
            format!("{mean:.2}"),
            format!("{p95:.2}"),
            format!("{:.0}", stats.throughput_per_sec()),
            "0".to_string(),
            ok.to_string(),
        ]);
    }

    // Lazy replication.
    let (registry, _) = StandardProcs::registry();
    let mut lazy =
        AsyncCluster::new(AsyncConfig::new(sites, classes), registry, spec.initial_data());
    schedule.apply_async(&mut lazy);
    lazy.run_until(SimTime::from_secs(600));
    let ok = check_one_copy_serializable(&lazy.histories()).is_ok();
    let mut lat = lazy.commit_latency.clone();
    let tput = if lazy.now().as_secs_f64() > 0.0 {
        updates as f64 / lazy.now().as_secs_f64()
    } else {
        0.0
    };
    table.row(vec![
        "lazy-async".to_string(),
        format!("{:.2}", lat.mean().as_millis_f64()),
        format!("{:.2}", lat.quantile(0.95).as_millis_f64()),
        format!("{tput:.0}"),
        format!("{:.2}", lazy.staleness.mean().as_millis_f64()),
        ok.to_string(),
    ]);
    table
}

/// E5: scalability — mean commit latency and abort rate as the cluster
/// grows, with fixed per-site load, over the *real* optimistic atomic
/// broadcast (consensus-based agreement).
pub fn e5_scalability(site_counts: &[usize], updates_per_site: u64, seed: u64) -> Table {
    let mut table = Table::new(vec![
        "sites",
        "otp_mean_ms",
        "conservative_mean_ms",
        "otp_abort_pct",
        "frames_per_txn",
    ]);
    for &sites in site_counts {
        let classes = sites * 2;
        let updates = updates_per_site * sites as u64;
        let spec = WorkloadSpec::new(sites, classes, updates)
            .with_arrival(otp_workload::Arrival::Fixed(SimDuration::from_millis(6)))
            .with_seed(seed);
        let (_, procs) = StandardProcs::registry();
        let schedule = spec.generate(&procs);
        let mk = |mode| {
            let config = ClusterConfig::new(sites, classes)
                .with_mode(mode)
                .with_net(NetConfig::lan_10mbps(sites))
                .with_engine(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(80) })
                .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(2)))
                .with_seed(seed);
            run_schedule(config, &spec, &schedule)
        };
        let otp = mk(Mode::Otp);
        let cons = mk(Mode::Conservative);
        let so = otp.stats();
        let sc = cons.stats();
        table.row(vec![
            sites.to_string(),
            format!("{:.2}", so.commit_latency.mean().as_millis_f64()),
            format!("{:.2}", sc.commit_latency.mean().as_millis_f64()),
            format!("{:.2}", 100.0 * so.abort_rate()),
            format!("{:.1}", so.network_frames as f64 / updates.max(1) as f64),
        ]);
    }
    table
}

/// E6: sweep the query share of the workload; snapshot queries must not
/// inflate update latency and the combined histories must stay
/// 1-copy-serializable (Section 5).
pub fn e6_queries(query_ratios: &[f64], updates: u64, seed: u64) -> Table {
    let mut table = Table::new(vec![
        "query_ratio",
        "update_mean_ms",
        "query_mean_ms",
        "queries_run",
        "serializable",
    ]);
    for &ratio in query_ratios {
        let spec = WorkloadSpec::new(4, 8, updates)
            .with_arrival(otp_workload::Arrival::Fixed(SimDuration::from_millis(5)))
            .with_queries(ratio, 3)
            .with_seed(seed);
        let (_, procs) = StandardProcs::registry();
        let schedule = spec.generate(&procs);
        let config = ClusterConfig::new(4, 8)
            .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(2)))
            .with_query_time(DurationDist::Fixed(SimDuration::from_millis(5)))
            .with_seed(seed);
        let cluster = run_schedule(config, &spec, &schedule);
        let stats = cluster.stats();
        let ok = check_one_copy_serializable(&cluster.histories()).is_ok();
        table.row(vec![
            format!("{ratio:.1}"),
            format!("{:.2}", stats.commit_latency.mean().as_millis_f64()),
            format!("{:.2}", stats.query_latency.mean().as_millis_f64()),
            stats.query_latency.len().to_string(),
            ok.to_string(),
        ]);
    }
    table
}

/// E7: crash one of four sites mid-run, recover it with state transfer,
/// keep loading the cluster, and verify convergence plus continued
/// serializability.
pub fn e7_recovery(updates: u64, seed: u64) -> Table {
    let sites = 4;
    let classes = 4;
    let spec = WorkloadSpec::new(3, classes, updates) // submit at sites 0-2
        .with_arrival(otp_workload::Arrival::Fixed(SimDuration::from_millis(3)))
        .with_seed(seed);
    let (registry, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);
    let config = ClusterConfig::new(sites, classes)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(2)))
        .with_seed(seed);
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(spec.initial_data())
        .build();
    schedule.apply(&mut cluster);
    let crash_at = SimTime::from_millis(20);
    let recover_at =
        SimTime::from_millis((schedule.end_time().as_millis() / 2).max(crash_at.as_millis() + 50));
    cluster.schedule_crash(crash_at, SiteId::new(3));
    cluster.schedule_recover(recover_at, SiteId::new(3), SiteId::new(0));
    cluster.run_until(SimTime::from_secs(600));

    let stats = cluster.stats();
    let recovered_commits = cluster.replicas[3].commit_log().len();
    let reference_commits = cluster.replicas[0].commit_log().len();
    let ok = check_one_copy_serializable(&cluster.histories()).is_ok();
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["updates_submitted".into(), updates.to_string()]);
    table.row(vec!["committed_at_origin".into(), stats.completed.to_string()]);
    table.row(vec!["commits_at_reference_site".into(), reference_commits.to_string()]);
    table.row(vec!["commits_at_recovered_site".into(), recovered_commits.to_string()]);
    table.row(vec!["crash_at_ms".into(), crash_at.as_millis().to_string()]);
    table.row(vec!["recover_at_ms".into(), recover_at.as_millis().to_string()]);
    table.row(vec!["converged".into(), cluster.converged().to_string()]);
    table.row(vec!["serializable".into(), ok.to_string()]);
    table
}

/// E9 (ablation): the batching tradeoff in the optimistic broadcast.
///
/// The paper (§2.1) notes the verification phase "introduces some
/// additional messages \[so\] there is a tradeoff between optimistic and
/// conservative decisions". Batching consensus instances is the standard
/// mitigation: accumulate messages before agreeing on the next chunk of
/// the definitive order. This sweep measures both sides of the trade —
/// agreement traffic (frames per transaction) against commit latency —
/// under the full OTP stack. Opt-deliveries (and hence execution start)
/// are unaffected; only the *confirmation* waits.
pub fn e9_batching(batch_delays_ms: &[u64], updates: u64, seed: u64) -> Table {
    let mut table =
        Table::new(vec!["batch_delay_ms", "otp_mean_ms", "otp_p95_ms", "frames_per_txn", "aborts"]);
    for &d in batch_delays_ms {
        let spec = WorkloadSpec::new(4, 8, updates)
            .with_arrival(otp_workload::Arrival::Fixed(SimDuration::from_millis(4)))
            .with_seed(seed);
        let (_, procs) = StandardProcs::registry();
        let schedule = spec.generate(&procs);
        let engine = if d == 0 {
            EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) }
        } else {
            EngineKind::OptBatched {
                consensus_timeout: SimDuration::from_millis(60),
                batch_delay: SimDuration::from_millis(d),
            }
        };
        let config = ClusterConfig::new(4, 8)
            .with_engine(engine)
            .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(2)))
            .with_seed(seed);
        let cluster = run_schedule(config, &spec, &schedule);
        let mut stats = cluster.stats();
        assert_eq!(stats.completed, updates, "batching must not lose transactions");
        table.row(vec![
            d.to_string(),
            format!("{:.2}", stats.commit_latency.mean().as_millis_f64()),
            format!("{:.2}", stats.commit_latency.quantile(0.95).as_millis_f64()),
            format!("{:.1}", stats.network_frames as f64 / updates.max(1) as f64),
            stats.counters.get("abort").to_string(),
        ]);
    }
    table
}

/// E8 (extension): concurrency gained by multi-class granularity.
///
/// The paper's conclusion concedes the one-class-per-transaction model is
/// restrictive: a transaction touching two partitions forces those
/// partitions into one *coarse* class, serializing everything. Under the
/// multi-class extension (their \[13\] direction, DESIGN.md §17) a
/// transaction instead declares exactly the classes touched, and the one
/// `Replica` queues it in each of them. This experiment runs the
/// same two-partition transfer load under both models on one replica and
/// reports latency and makespan.
pub fn e8_multiclass_granularity(partitions: &[usize], txns: u64, seed: u64) -> Table {
    use otp_core::{Replica, ReplicaInput};
    use otp_simnet::sched::{Links, Sched};
    use otp_simnet::DurationDist;
    use otp_storage::{ClassId, Database, ObjectId, ProcRegistry, Value};
    use otp_txn::txn::{TxnId, TxnRequest};
    use std::sync::Arc;

    let mut table = Table::new(vec!["partitions", "model", "mean_latency_ms", "makespan_ms"]);

    for &k in partitions {
        // mode = false → coarse single class; true → one class/partition.
        for fine in [false, true] {
            let classes = if fine { k } else { 1 };
            let mut reg = ProcRegistry::new();
            let mv = reg.register_fn("move", |ctx, args| {
                let g = |i: usize| args[i].as_int().expect("int");
                let from = ObjectId::new(g(0) as u32, 0);
                let to = ObjectId::new(g(1) as u32, 0);
                let a = ctx.read_object(from)?.as_int().unwrap_or(0);
                let b = ctx.read_object(to)?.as_int().unwrap_or(0);
                ctx.write_object(from, Value::Int(a - 1))?;
                ctx.write_object(to, Value::Int(b + 1))?;
                Ok(())
            });
            let mut db = Database::new(classes);
            for c in 0..classes as u32 {
                db.load(ObjectId::new(c, 0), Value::Int(1000));
            }
            let mut replica = Replica::new(SiteId::new(0), db, Arc::new(reg));
            let mut rng = SimRng::seed_from(seed);
            let exec = DurationDist::Fixed(SimDuration::from_millis(2));
            let mut sched =
                Sched::new(Links::uniform(1, SimDuration::ZERO), SimRng::seed_from(seed))
                    .with_work_time(exec);
            let agreement = SimDuration::from_millis(3);
            let spacing = SimDuration::from_micros(500);

            let mut submit_time = std::collections::HashMap::new();
            let mut t = SimTime::from_millis(1);
            for i in 0..txns {
                let (pa, pb) = if fine {
                    let a = rng.index(k) as u32;
                    let mut b = rng.index(k) as u32;
                    if a == b {
                        b = (b + 1) % k as u32;
                    }
                    (a, b)
                } else {
                    // Coarse model: everything lives in class 0; the two
                    // "partitions" are just different keys — but we keep
                    // the same procedure shape by using key 0 of class 0
                    // twice (the point is the queueing, not the data).
                    (0, 0)
                };
                let id = TxnId::new(SiteId::new(0), i);
                let classes_decl: Vec<ClassId> = if fine && pa != pb {
                    vec![ClassId::new(pa), ClassId::new(pb)]
                } else {
                    vec![ClassId::new(0)]
                };
                let req = TxnRequest::over_classes(
                    id,
                    classes_decl,
                    mv,
                    vec![Value::Int(pa as i64), Value::Int(pb as i64)],
                );
                submit_time.insert(id, t);
                let site = SiteId::new(0);
                let home = req.class;
                sched.schedule_submit(t, site, ReplicaInput::Opt(req));
                sched.schedule_submit(t + agreement, site, ReplicaInput::To(id, home));
                t += spacing;
            }

            let mut lat = otp_simnet::metrics::Histogram::new();
            let mut done_at = SimTime::ZERO;
            sched.run_until(SimTime::MAX, &mut replica, |_, now, txn| {
                lat.record(now - submit_time[&txn]);
                done_at = now;
            });
            assert_eq!(lat.len() as u64, txns, "all committed");
            table.row(vec![
                k.to_string(),
                if fine { "multi-class" } else { "coarse" }.to_string(),
                format!("{:.2}", lat.mean().as_millis_f64()),
                format!("{:.1}", done_at.as_secs_f64() * 1000.0),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_point_is_sane() {
        let p = spontaneous_order_point(
            NetConfig::fig1_testbed(4),
            200,
            64,
            SimDuration::from_millis(4),
            1,
        );
        assert!(p.ordered_pct > 90.0, "{p:?}");
        assert!(p.pairwise_pct > 90.0, "{p:?}");
    }

    #[test]
    fn fig1_curve_rises_with_interval() {
        let lo = spontaneous_order_point(NetConfig::fig1_testbed(4), 400, 64, SimDuration::ZERO, 2);
        let hi = spontaneous_order_point(
            NetConfig::fig1_testbed(4),
            400,
            64,
            SimDuration::from_millis(4),
            2,
        );
        assert!(
            hi.ordered_pct > lo.ordered_pct + 5.0,
            "lo={:.1} hi={:.1}",
            lo.ordered_pct,
            hi.ordered_pct
        );
        // The paper's end points, with generous tolerance.
        assert!(lo.ordered_pct > 70.0 && lo.ordered_pct < 95.0, "{:.1}", lo.ordered_pct);
        assert!(hi.ordered_pct > 95.0, "{:.1}", hi.ordered_pct);
    }

    #[test]
    fn fig1_table_has_all_points() {
        let t = fig1_spontaneous_order(4, 100, &[0, 2000, 4000], 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn e2_shows_overlap() {
        let t = e2_overlap_latency(2, &[0, 2], 24, 4);
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.contains("otp_mean_ms"));
    }

    #[test]
    fn e3_more_classes_fewer_aborts() {
        let t = e3_mismatch_aborts(&[0.3], &[1, 16], 120, 5);
        assert_eq!(t.len(), 2);
        // The mismatch penalty (aborts + reorders) must be heavier with a
        // single class: swaps between different classes cost nothing.
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let penalty = |row: &str| -> f64 {
            let abort: f64 = row.split(',').nth(2).unwrap().parse().unwrap();
            let reorders: f64 = row.split(',').nth(3).unwrap().parse().unwrap();
            abort + reorders
        };
        assert!(
            penalty(rows[0]) > penalty(rows[1]),
            "1 class should pay more for mismatches than 16: {csv}"
        );
    }

    #[test]
    fn e4_three_systems() {
        let t = e4_async_comparison(40, 4, 6);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        // OTP and conservative rows must be serializable.
        for line in csv.lines().skip(1).take(2) {
            assert!(line.ends_with("true"), "{line}");
        }
    }

    #[test]
    fn e6_queries_serializable() {
        let t = e6_queries(&[0.5], 40, 7);
        let csv = t.to_csv();
        assert!(csv.lines().nth(1).unwrap().ends_with("true"), "{csv}");
    }

    #[test]
    fn e7_recovery_converges() {
        let t = e7_recovery(60, 8);
        let csv = t.to_csv();
        assert!(csv.contains("converged,true"), "{csv}");
        assert!(csv.contains("serializable,true"), "{csv}");
    }

    #[test]
    fn e9_batching_cuts_frames() {
        let t = e9_batching(&[0, 5], 40, 10);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let frames = |row: &str| -> f64 { row.split(',').nth(3).unwrap().parse().unwrap() };
        assert!(frames(rows[1]) < frames(rows[0]), "batching should reduce frames: {csv}");
    }

    /// E8's table at a fixed seed, pinned byte for byte: the replica's
    /// class-set rules (DESIGN.md §17) decide when every transfer starts
    /// and commits, so any change to them shows here.
    #[test]
    fn e8_output_is_pinned() {
        let t = e8_multiclass_granularity(&[4, 8], 60, 9);
        assert_eq!(
            t.to_csv(),
            "partitions,model,mean_latency_ms,makespan_ms\n\
             4,coarse,47.25,122.0\n\
             4,multi-class,36.51,102.5\n\
             8,coarse,47.25,122.0\n\
             8,multi-class,22.82,74.5\n"
        );
    }

    #[test]
    fn e8_fine_granularity_wins() {
        let t = e8_multiclass_granularity(&[8], 60, 9);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let mean = |row: &str| -> f64 { row.split(',').nth(2).unwrap().parse().unwrap() };
        // Row 0 = coarse, row 1 = multi-class; fine granularity must be
        // substantially faster under a parallelizable load.
        assert!(mean(rows[0]) > mean(rows[1]) * 2.0, "coarse should be much slower: {csv}");
    }
}

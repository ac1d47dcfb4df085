//! The only file of the benchmark that names program items. Everything
//! else talks to the program through the functions here, in plain data
//! (`workloads::Spec` in, `outcome::Outcome` and `f64`s out), so a refactor
//! of the program shows up as compile errors in this one file.
//!
//! Surface touched (the README lists it too): `ClusterBuilder`/`Cluster`,
//! `LiveCluster`/`LiveConfig`, `AtomicBroadcast` + `harness::LanCluster`,
//! `consensus::Instance`, `ClassQueue`, `Database`/`ProcRegistry`,
//! `Replica`/`ConservativeReplica`, `EventQueue`, `MulticastNet`,
//! `Histogram`/`Counters`, `TraceSink`/`MetricsRegistry`, `EngineSnapshot`,
//! and the `otp-workload` generators.

use crate::ledger;
use crate::measure::{self, process_cpu, thread_cpu, time_ns};
use crate::outcome::{stage, Obs, Outcome, Spans};
use crate::workloads::{Data, Engine, Lan, LiveSpec, Mode, SimSpec, Spec, SplitMix64};
use otp_broadcast::harness::LanCluster;
use otp_broadcast::{
    AtomicBroadcast, EngineCtx, OptAbcast, OptAbcastConfig, OrderDomain, SeqAbcast,
};
use otp_consensus::{Action, ConsensusMsg, Instance, InstanceConfig};
use otp_core::runtime::{LiveCluster, LiveConfig};
use otp_core::{
    Cluster, ClusterBuilder, ClusterConfig, ConservativeReplica, DurationDist, EngineKind,
    ExecToken, Replica, ReplicaAction,
};
use otp_simnet::metrics::{Counters, Histogram};
use otp_simnet::{EventQueue, MulticastNet, NetConfig, SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{
    ClassId, Database, ObjectId, ProcId, ProcRegistry, SnapshotIndex, TxnCtx, TxnIndex, Value,
};
use otp_telemetry::{MetricsRegistry, Scope, Stage, TraceEvent, TraceSink};
use otp_txn::queue::ClassQueue;
use otp_txn::txn::{TxnId, TxnRequest};
use otp_workload::{Arrival, Op, StandardProcs, TpcB, WorkloadSpec};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ----------------------------------------------------------------------
// Seams (A): the benchmark's own trace sink and stored-procedure wrapper.
// ----------------------------------------------------------------------

/// The benchmark's `TraceSink`: one buffer per observing site, so the live
/// runtime's site threads never contend on a lock.
struct Observer {
    per_site: Vec<Mutex<Vec<Obs>>>,
}

impl Observer {
    fn new(sites: usize) -> Self {
        Observer { per_site: (0..sites).map(|_| Mutex::new(Vec::new())).collect() }
    }

    fn take(&self) -> Vec<Vec<Obs>> {
        self.per_site
            .iter()
            .map(|m| std::mem::take(&mut *m.lock().expect("observer lock poisoned")))
            .collect()
    }
}

/// The program's lifecycle stage in the benchmark's numbering. Exhaustive,
/// so a new or renamed variant is a compile error here and never a silently
/// misattributed ledger stage.
fn stage_of(stage: Stage) -> u8 {
    match stage {
        Stage::AdmissionWait => stage::ADMISSION_WAIT,
        Stage::Submit => stage::SUBMIT,
        Stage::Broadcast => stage::BROADCAST,
        Stage::RelayWait => stage::RELAY_WAIT,
        Stage::OptDeliver => stage::OPT_DELIVER,
        Stage::ToDeliver => stage::TO_DELIVER,
        Stage::Execute => stage::EXECUTE,
        Stage::Commit => stage::COMMIT,
        Stage::Abort => stage::ABORT,
    }
}

impl TraceSink for Observer {
    fn record(&self, ev: TraceEvent) {
        self.per_site[ev.site.index()].lock().expect("observer lock poisoned").push(Obs {
            at_ns: ev.at.as_nanos(),
            site: ev.site.raw(),
            origin: ev.origin.raw(),
            seq: ev.seq,
            stage: stage_of(ev.stage),
        });
    }
}

/// Counts and times stored-procedure executions.
#[derive(Default)]
struct ProcProbe {
    execs: AtomicU64,
    busy_ns: AtomicU64,
}

impl ProcProbe {
    /// `(executions, nanoseconds inside them)` so far.
    fn totals(&self) -> (u64, u64) {
        (self.execs.load(Ordering::Relaxed), self.busy_ns.load(Ordering::Relaxed))
    }
}

/// The same procedures under the same ids, each behind a timing wrapper.
fn probed_registry(inner: &ProcRegistry, probe: &Arc<ProcProbe>) -> Arc<ProcRegistry> {
    let mut reg = ProcRegistry::new();
    for id in 0..inner.len() as u32 {
        let proc = Arc::clone(inner.get(ProcId::new(id)).expect("ids are dense"));
        let probe = Arc::clone(probe);
        let name = proc.name().to_string();
        reg.register_fn(&name, move |ctx, args| {
            let t0 = Instant::now();
            let result = proc.execute(ctx, args);
            probe.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            probe.execs.fetch_add(1, Ordering::Relaxed);
            result
        });
    }
    Arc::new(reg)
}

// ----------------------------------------------------------------------
// Spec → program configuration.
// ----------------------------------------------------------------------

fn engine_kind(engine: Engine) -> EngineKind {
    match engine {
        Engine::Opt { consensus_timeout_ms } => {
            EngineKind::Opt { consensus_timeout: SimDuration::from_millis(consensus_timeout_ms) }
        }
        Engine::SeqBatched { order_delay_us } => {
            EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(order_delay_us) }
        }
    }
}

fn net_config(lan: Lan, sites: usize) -> NetConfig {
    match lan {
        Lan::Fast1G => NetConfig::lan_fast(sites),
        Lan::Slow10M => NetConfig::lan_10mbps(sites),
    }
}

fn core_mode(mode: Mode) -> otp_core::Mode {
    match mode {
        Mode::Otp => otp_core::Mode::Otp,
        Mode::Conservative => otp_core::Mode::Conservative,
    }
}

fn sim_time(secs: f64) -> SimTime {
    SimTime::from_nanos((secs * 1e9) as u64)
}

/// Sequencing group of `site`: sites split into contiguous equal blocks.
fn group_of_site(spec: &SimSpec, site: usize) -> usize {
    site / (spec.sites / spec.groups)
}

// ----------------------------------------------------------------------
// The simulated driver.
// ----------------------------------------------------------------------

/// What the generator still has to do once the cluster is built.
struct Plan {
    first_due: SimTime,
    /// Ids of every update scheduled during set-up.
    ids: Vec<TxnId>,
    queries: u64,
    /// Operations the generator submits itself while stepping the cluster
    /// (the crash workload); empty when the schedule was applied up front.
    stepped: Vec<Op>,
    /// `(crash, recover)` instants of site 0.
    crash: Option<(SimTime, SimTime)>,
}

/// What the stepping loop saw besides the program's own statistics.
#[derive(Default)]
struct Driven {
    events: u64,
    done_at: Option<SimTime>,
    failovers: u64,
    frames_at_recover: Option<u64>,
    /// Instant and frame count of the recovered site's first commit.
    recovered: Option<(SimTime, u64)>,
}

/// Turns every `1/share`-th update into a two-group cross update and
/// applies the schedule; returns the scheduled ids.
fn apply_with_cross(cluster: &mut Cluster, ops: &[Op], share: f64, classes: usize) -> Vec<TxnId> {
    let every = (1.0 / share).round() as usize;
    let mut ids = Vec::with_capacity(ops.len() + ops.len() / every);
    for (i, op) in ops.iter().enumerate() {
        let Op::Update { at, site, class, proc, args } = op else { continue };
        if i % every == every - 1 {
            // Class c belongs to group c mod G, so c + 1 is another group.
            let other = ClassId::new((class.raw() + 1) % classes as u32);
            let parts = vec![(*class, *proc, args.clone()), (other, *proc, args.clone())];
            ids.extend(cluster.schedule_cross_update(*at, *site, parts));
        } else {
            ids.push(cluster.schedule_update(*at, *site, *class, *proc, args.clone()));
        }
    }
    ids
}

/// A built cluster with its schedule applied, and what building it cost.
struct SimSetup {
    cluster: Cluster,
    plan: Plan,
    generate_ns: u64,
    build_ns: u64,
    apply_ns: u64,
    /// Objects loaded, over all sites.
    objects: u64,
}

/// The workload's TPC-B configuration, when it runs TPC-B.
fn tpcb_of(spec: &SimSpec, seed: u64) -> Option<TpcB> {
    match spec.data {
        Data::TpcB { branches } => Some(
            TpcB::new(branches, spec.sites, spec.updates)
                .with_arrival(poisson(spec))
                .with_seed(seed),
        ),
        Data::Uniform { .. } => None,
    }
}

/// Poisson arrivals per site: the per-site mean is sites / total rate.
fn poisson(spec: &SimSpec) -> Arrival {
    Arrival::Poisson { mean: SimDuration::from_secs_f64(spec.sites as f64 / spec.rate_per_s) }
}

/// Set-up of a simulated workload: registry, initial data and schedule from
/// the seed, the cluster, and the schedule applied (or, for the crash
/// workload, kept for the stepping generator).
fn setup_sim(
    spec: &SimSpec,
    seed: u64,
    observer: Option<&Arc<Observer>>,
    probe: &Arc<ProcProbe>,
    spans: &mut Spans,
) -> SimSetup {
    let classes = spec.data.classes();
    let ((registry, data, ops), generate_ns) =
        spans.scope("workload.generate", "workload", |_| match (tpcb_of(spec, seed), spec.data) {
            (Some(t), _) => {
                let (registry, proc) = t.registry();
                (registry, t.initial_data(), t.schedule(proc).ops)
            }
            (None, Data::Uniform { classes, objects }) => {
                let (registry, procs) = StandardProcs::registry();
                let mut w = WorkloadSpec::new(spec.sites, classes, spec.updates)
                    .with_arrival(poisson(spec))
                    .with_queries(spec.query_ratio, 2)
                    .with_seed(seed);
                w.objects_per_class = objects;
                (registry, w.initial_data(), w.generate(&procs).ops)
            }
            (None, Data::TpcB { .. }) => unreachable!("tpcb_of is Some for TpcB data"),
        });
    let objects = (data.len() * spec.sites) as u64;
    let registry = if observer.is_some() { probed_registry(&registry, probe) } else { registry };
    let (mut cluster, build_ns) = spans.scope("cluster.build", "cluster", |s| {
        s.count(objects);
        let config = ClusterConfig::new(spec.sites, classes)
            .with_engine(engine_kind(spec.engine))
            .with_mode(core_mode(spec.mode))
            .with_net(net_config(spec.lan, spec.sites))
            .with_exec_time(DurationDist::Fixed(SimDuration::from_micros(spec.exec_us)))
            .with_delivery_quantum(SimDuration::from_micros(spec.quantum_us))
            .with_groups(spec.groups)
            .with_seed(seed);
        let mut builder = ClusterBuilder::from_config(config).registry(registry).initial_data(data);
        if let Some(obs) = observer {
            builder = builder.trace_sink(Arc::clone(obs) as Arc<dyn TraceSink>);
        }
        builder.build()
    });
    let first_due = ops.first().map(Op::at).unwrap_or(SimTime::ZERO);
    let queries = ops.iter().filter(|o| matches!(o, Op::Query { .. })).count() as u64;
    let mut plan = Plan { first_due, ids: Vec::new(), queries, stepped: Vec::new(), crash: None };
    let mut apply_ns = 0;
    if let Some(crash) = spec.crash {
        // The generator submits while stepping the cluster, so a client
        // refused at the dead site can fail over.
        let at = ops[((ops.len() as f64 * crash.at_share) as usize).min(ops.len() - 1)].at();
        let recover = at + SimDuration::from_millis(crash.recover_after_ms);
        cluster.schedule_crash(at, SiteId::new(0));
        cluster.schedule_recover(recover, SiteId::new(0), SiteId::new(1));
        plan.crash = Some((at, recover));
        plan.stepped = ops;
    } else {
        ((), apply_ns) = spans.scope("workload.apply", "workload", |s| {
            s.count(ops.len() as u64);
            if spec.cross_share > 0.0 {
                plan.ids = apply_with_cross(&mut cluster, &ops, spec.cross_share, classes);
                return;
            }
            for op in &ops {
                match op {
                    Op::Update { at, site, class, proc, args } => plan
                        .ids
                        .push(cluster.schedule_update(*at, *site, *class, *proc, args.clone())),
                    Op::Query { at, site, reads } => {
                        cluster.schedule_query(*at, *site, reads.clone());
                    }
                }
            }
        });
    }
    SimSetup { cluster, plan, generate_ns, build_ns, apply_ns, objects }
}

/// Runs `setup` `times` times inside `setup` spans, handing every result
/// but the last to `discard`, and returns the last with the median set-up
/// time in seconds: set-up is short, so one sample of it is mostly noise.
fn repeated_setup<T>(
    times: usize,
    spans: &mut Spans,
    mut setup: impl FnMut(&mut Spans) -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        if let Some(unused) = last.take() {
            discard(unused);
        }
        let (built, ns) = spans.scope("setup", "bench", &mut setup);
        seconds.push(ns as f64 / 1e9);
        last = Some(built);
    }
    (last.expect("at least one set-up ran"), measure::median(&mut seconds))
}

/// Runs one simulated workload once, after setting it up `setups` times.
/// `traced` attaches the benchmark's trace sink, wraps the stored
/// procedures and counts allocations.
pub fn run_sim(
    spec: &SimSpec,
    seed: u64,
    traced: bool,
    setups: usize,
    spans: &mut Spans,
) -> Outcome {
    let observer = traced.then(|| Arc::new(Observer::new(spec.sites)));
    let probe = Arc::new(ProcProbe::default());
    let mut out = Outcome::default();
    let total_ops = spec.updates + (spec.updates as f64 * spec.query_ratio).round() as u64;
    let tpcb = tpcb_of(spec, seed);

    let (setup, setup_s) = repeated_setup(
        setups,
        spans,
        |spans| setup_sim(spec, seed, observer.as_ref(), &probe, spans),
        drop,
    );
    out.setup_s = setup_s;
    let SimSetup { mut cluster, mut plan, generate_ns, build_ns, apply_ns, objects } = setup;

    // ---- timed phase: run to drain under the simulated deadline.
    let deadline = sim_time(spec.deadline_s);
    let expected_updates =
        if plan.stepped.is_empty() { plan.ids.len() as u64 } else { plan.stepped.len() as u64 };
    out.attempted = expected_updates + plan.queries;
    let rss0 = measure::rss_kb();
    let allocs0 = measure::allocations();
    measure::count_allocations(traced);
    let cpu0 = process_cpu();
    let mut ids = std::mem::take(&mut plan.ids);
    let (driven, timed_ns) = spans.scope("cluster.run_until", "cluster", |s| {
        let driven = drive(&mut cluster, &plan, &mut ids, out.attempted, deadline);
        s.count(driven.events);
        if traced {
            // The procedures ran inside this span; the wrapper summed them.
            let (execs, busy) = probe.totals();
            s.aggregate("storage.proc", "storage", execs, busy);
        }
        driven
    });
    out.cpu = process_cpu().since(&cpu0);
    measure::count_allocations(false);
    let allocs1 = measure::allocations();
    let rss1 = measure::rss_kb();
    out.wall_s = timed_ns as f64 / 1e9;

    // ---- outputs: the program's statistics, then the checks.
    let ((), _) = spans.scope("verify", "bench", |_| {
        let mut stats = cluster.stats();
        let answered = stats.query_latency.len() as u64;
        out.completed = stats.completed + answered;
        let failed_updates = ids.iter().filter(|id| !cluster.txn_outputs.contains_key(id)).count();
        let end = driven.done_at.unwrap_or(deadline.min(stats.now.max(plan.first_due)));
        out.clock_span_s = end.saturating_since(plan.first_due).as_secs_f64();
        let fail_ns = deadline.saturating_since(plan.first_due).as_nanos();
        let lat = |h: &mut Histogram, q| quantile_with_failures(h, failed_updates, fail_ns, q);
        out.commit_p50_ms = lat(&mut stats.commit_latency, 0.50);
        out.commit_p99_ms = lat(&mut stats.commit_latency, 0.99);
        out.latency_samples = (stats.commit_latency.len() + failed_updates) as u64;

        out.checks.push(("converged", cluster.converged()));
        out.checks.push(("commit_logs_agree", commit_logs_agree(&cluster, spec)));
        // The program's completion count agrees with its outputs map.
        out.checks.push(("accounted", stats.completed + failed_updates as u64 == ids.len() as u64));
        if let Some(t) = &tpcb {
            let consistent = cluster.replicas.iter().all(|r| t.check_consistency(r.db()).is_ok());
            out.checks.push(("tpcb_consistent", consistent));
        }

        if traced {
            let ops = out.completed.max(1) as f64;
            let commits = stats.completed.max(1) as f64;
            let c = |name: &str| stats.counters.get(name) as f64;
            out.layer("simnet.events_per_txn", driven.events as f64 / ops);
            out.layer("broadcast.frames_per_commit", stats.network_frames as f64 / commits);
            out.layer(
                "broadcast.cross_frames_per_commit",
                stats.cross_group_frames as f64 / commits,
            );
            out.layer("broadcast.stale_epoch_rejects", c("stale_epoch_reject"));
            out.layer("replica.abort_rate", stats.abort_rate());
            out.layer("replica.reorder_rate", c("reorder") / c("to_deliver").max(1.0));
            out.layer("storage.execs_per_commit", c("submit") / c("commit").max(1.0));
            out.layer("view.installs", c("view_install"));
            out.layer("view.failover_submits", driven.failovers as f64);
            if let (Some((_, recover)), Some((at, frames))) = (plan.crash, driven.recovered) {
                out.layer("view.recover_ms", at.saturating_since(recover).as_secs_f64() * 1e3);
                let before = driven.frames_at_recover.unwrap_or(frames);
                out.layer("view.frames_during_recovery", (frames - before) as f64);
            }
            out.layer("cluster.allocs_per_txn", (allocs1.0 - allocs0.0) as f64 / ops);
            out.layer("cluster.alloc_bytes_per_txn", (allocs1.1 - allocs0.1) as f64 / ops);
            out.layer("cluster.rss_kb_per_ktxn", rss1.saturating_sub(rss0) as f64 / (ops / 1e3));
            out.layer("workload.gen_ns_per_op", generate_ns as f64 / total_ops.max(1) as f64);
            out.layer("workload.apply_ns_per_op", apply_ns as f64 / total_ops.max(1) as f64);
            out.layer("workload.load_ns_per_object", build_ns as f64 / objects.max(1) as f64);
            // Raw counts the replays are sized by.
            out.layer("count.events", driven.events as f64);
            out.layer("count.site_commits", c("commit"));
            out.layer("count.queries", answered as f64);
            let samples = stats.commit_latency.len() + stats.global_commit_latency.len();
            out.layer("count.latency_samples", samples as f64 + answered as f64);
        }
    });
    if let Some(obs) = &observer {
        let (execs, busy) = probe.totals();
        out.layer("storage.proc_ns_per_exec", busy as f64 / execs.max(1) as f64);
        let per_site = obs.take();
        let events: usize = per_site.iter().map(Vec::len).sum();
        out.layer("telemetry.events_per_txn", events as f64 / out.completed.max(1) as f64);
        for (name, value) in ledger::analyse_trace(&per_site) {
            out.layer(name, value);
        }
    }
    out
}

/// Steps the cluster: submits the generator's own operations at their due
/// times (failing over from a down site), then advances in 100 µs slices
/// until every operation completed or the deadline passed, then drains.
fn drive(
    cluster: &mut Cluster,
    plan: &Plan,
    ids: &mut Vec<TxnId>,
    attempted: u64,
    deadline: SimTime,
) -> Driven {
    let slice = SimDuration::from_micros(100);
    let sites = cluster.config().sites;
    let mut d = Driven::default();
    let mut next = 0;
    let mut t = plan.first_due;
    let mut was_down = false;
    loop {
        let due = plan.stepped.get(next).map(Op::at);
        t = due.unwrap_or(t + slice).min(deadline);
        d.events += cluster.run_until(t);
        if let (Some(due), Some(op)) = (due, plan.stepped.get(next)) {
            if due <= deadline {
                let Op::Update { site, class, proc, args, .. } = op else {
                    unreachable!("the stepped workload has no queries")
                };
                // `Cluster::submit` is `is_live` + `schedule_update(now())`,
                // and `now()` is the last *processed* event, which is
                // earlier than `due`. Its two halves are used directly so
                // latency is timed from when the operation was due.
                let mut target = *site;
                if !cluster.is_live(target) {
                    d.failovers += 1;
                    target = SiteId::all(sites)
                        .map(|s| SiteId::new(((site.index() + s.index()) % sites) as u16))
                        .find(|s| cluster.is_live(*s))
                        .expect("a majority of sites stays up");
                }
                ids.push(cluster.schedule_update(due, target, *class, *proc, args.clone()));
                next += 1;
            }
        }
        if let Some((_, recover)) = plan.crash {
            let site = SiteId::new(0);
            if t >= recover && d.frames_at_recover.is_none() {
                d.frames_at_recover = Some(cluster.stats().network_frames);
            }
            was_down |= !cluster.is_live(site);
            // The restored replica starts with an empty commit log.
            if t >= recover
                && was_down
                && d.recovered.is_none()
                && cluster.is_live(site)
                && !cluster.replicas[site.index()].commit_log().is_empty()
            {
                d.recovered = Some((t, cluster.stats().network_frames));
            }
        }
        let completed = (cluster.txn_outputs.len() + cluster.query_results.len()) as u64;
        if next >= plan.stepped.len() && completed >= attempted {
            d.done_at = Some(t);
            break;
        }
        if t >= deadline {
            break;
        }
    }
    d.events += cluster.run_until(deadline);
    d
}

/// Quantile `q` of the commit latencies in `hist` plus `failed` samples of
/// `fail_ns` each (a failed update enters the distribution at the run's
/// deadline, above every success), in milliseconds.
fn quantile_with_failures(hist: &mut Histogram, failed: usize, fail_ns: u64, q: f64) -> f64 {
    let ok = hist.len();
    let total = ok + failed;
    if total == 0 {
        return 0.0;
    }
    let rank = ((total - 1) as f64 * q).round() as usize;
    let ns = if rank < ok {
        // `Histogram::quantile` is nearest-rank over its own samples.
        hist.quantile(rank as f64 / (ok - 1).max(1) as f64).as_nanos()
    } else {
        fail_ns
    };
    ns as f64 / 1e6
}

/// Every site of a group committed the same transaction at the same
/// definitive index. A recovered site restarts its log from the state it
/// was handed, so its entries must be a subset of the group's longest log.
fn commit_logs_agree(cluster: &Cluster, spec: &SimSpec) -> bool {
    let logs: Vec<Vec<(u64, TxnId)>> = cluster
        .replicas
        .iter()
        .map(|r| {
            let mut log: Vec<(u64, TxnId)> =
                r.commit_log().iter().map(|(id, idx)| (idx.raw(), *id)).collect();
            log.sort_unstable_by_key(|(idx, _)| *idx);
            log
        })
        .collect();
    (0..spec.groups).all(|g| {
        let members: Vec<&Vec<(u64, TxnId)>> = logs
            .iter()
            .enumerate()
            .filter(|(s, _)| group_of_site(spec, *s) == g)
            .map(|(_, l)| l)
            .collect();
        let reference = members.iter().max_by_key(|l| l.len()).expect("groups are non-empty");
        members.iter().all(|log| {
            // Both are sorted by index and the reference is dense, so a
            // subset that ends where the reference ends is a suffix.
            log.len() <= reference.len() && reference[reference.len() - log.len()..] == log[..]
        })
    })
}

// ----------------------------------------------------------------------
// The threaded driver.
// ----------------------------------------------------------------------

/// A started live cluster with the generator's inputs.
struct LiveSetup {
    cluster: LiveCluster,
    add: ProcId,
    /// `(class, key, delta)` of every transaction, from the seed.
    args: Vec<(u32, i64, i64)>,
    generate_ns: u64,
    start_ns: u64,
}

/// Set-up of a live workload: registry, the generator's inputs from the
/// seed, initial data and the running cluster.
fn setup_live(
    spec: &LiveSpec,
    seed: u64,
    observer: Option<&Arc<Observer>>,
    probe: &Arc<ProcProbe>,
    spans: &mut Spans,
) -> LiveSetup {
    let (registry, procs) = StandardProcs::registry();
    let registry = if observer.is_some() { probed_registry(&registry, probe) } else { registry };
    let (args, generate_ns) = spans.scope("workload.generate", "workload", |s| {
        s.count(spec.txns);
        let mut rng = SplitMix64(seed);
        (0..spec.txns)
            .map(|_| {
                let class = rng.below(spec.classes as u64) as u32;
                let key = rng.below(spec.objects) as i64;
                (class, key, 1 + rng.below(10) as i64)
            })
            .collect::<Vec<(u32, i64, i64)>>()
    });
    let (cluster, start_ns) = spans.scope("cluster.start", "runtime", |s| {
        s.count(spec.classes as u64 * spec.objects * spec.sites as u64);
        let mut initial = Vec::new();
        for c in 0..spec.classes as u32 {
            for k in 0..spec.objects {
                initial.push((ObjectId::new(c, k), Value::Int(1000)));
            }
        }
        let mut cfg = LiveConfig::new(spec.sites, spec.classes)
            .with_engine(engine_kind(spec.engine))
            .with_exec_time(Duration::from_micros(spec.exec_us))
            .with_seed(seed);
        cfg.net_delay = Duration::from_micros(spec.net_delay_us);
        cfg.net_jitter = Duration::from_micros(spec.net_jitter_us);
        cfg.max_in_flight = spec.max_in_flight;
        cfg.site_queue = 2048;
        let sink = observer.map(|o| Arc::clone(o) as Arc<dyn TraceSink>);
        LiveCluster::start_traced(cfg, registry, initial, sink)
    });
    LiveSetup { cluster, add: procs.add, args, generate_ns, start_ns }
}

/// Runs one closed-loop workload on the threaded runtime once, after
/// setting it up `setups` times.
pub fn run_live(
    spec: &LiveSpec,
    seed: u64,
    traced: bool,
    setups: usize,
    spans: &mut Spans,
) -> Outcome {
    let observer = traced.then(|| Arc::new(Observer::new(spec.sites)));
    let probe = Arc::new(ProcProbe::default());
    let mut out = Outcome { attempted: spec.txns, ..Outcome::default() };

    let (setup, setup_s) = repeated_setup(
        setups,
        spans,
        |spans| setup_live(spec, seed, observer.as_ref(), &probe, spans),
        // A started cluster owns threads: stop them before the next set-up.
        |unused| drop(unused.cluster.shutdown(Duration::ZERO)),
    );
    out.setup_s = setup_s;
    let LiveSetup { cluster, add, args, generate_ns, start_ns } = setup;

    // ---- timed phase: one generator thread; this thread is the watchdog.
    let deadline = Duration::from_secs_f64(spec.deadline_s);
    let metrics = cluster.metrics();
    let rss0 = measure::rss_kb();
    let allocs0 = measure::allocations();
    measure::count_allocations(traced);
    let cpu0 = process_cpu();
    let ctx0 = measure::context_switches();
    let t0 = Instant::now();
    let mut gen_cpu = measure::Cpu::default();
    let mut blocked_ns = 0u64;
    let mut submit_ns: Vec<u64> = Vec::new();
    let ((last_commit_s, ctx_switches), _) = spans.scope("runtime.submit_loop", "runtime", |s| {
        s.count(spec.txns);
        let waited = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let cpu = thread_cpu();
                let mut blocked = 0u64;
                let mut samples = Vec::with_capacity(if traced { args.len() } else { 0 });
                for (i, (class, key, delta)) in args.iter().enumerate() {
                    let site = SiteId::new((i % spec.sites) as u16);
                    let call = vec![Value::Int(*key), Value::Int(*delta)];
                    let (admitted, ns) =
                        time_ns(|| cluster.submit(site, ClassId::new(*class), add, call));
                    blocked += ns;
                    if traced {
                        samples.push(ns);
                    }
                    if admitted.is_err() {
                        break; // the watchdog halted admissions
                    }
                }
                (thread_cpu().since(&cpu), blocked, samples)
            });
            while !generator.is_finished() {
                std::thread::sleep(Duration::from_millis(5));
                if t0.elapsed() > deadline {
                    cluster.halt_admissions();
                }
            }
            (gen_cpu, blocked_ns, submit_ns) = generator.join().expect("generator panicked");
            // Site threads are still alive here, so their switches count.
            let ctx = measure::context_switches().saturating_sub(ctx0);
            // The last origin commit, at 100 µs resolution.
            let accepted = cluster.accepted();
            while metrics.counter_total("origin_committed") < accepted && t0.elapsed() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            (t0.elapsed().as_secs_f64(), ctx)
        });
        if traced {
            // The site threads ran the procedures while this span was open.
            let (execs, busy) = probe.totals();
            s.aggregate("storage.proc", "storage", execs, busy);
        }
        waited
    });
    let backpressure = cluster.backpressure_events();
    let (mut report, shutdown_ns) = spans.scope("runtime.shutdown", "runtime", |_| {
        cluster.shutdown(deadline.saturating_sub(t0.elapsed()))
    });
    out.cpu = process_cpu().since(&cpu0);
    measure::count_allocations(false);
    let allocs1 = measure::allocations();
    let rss1 = measure::rss_kb();
    out.wall_s = t0.elapsed().as_secs_f64();
    out.generator_blocked_share = blocked_ns as f64 / 1e9 / last_commit_s.max(f64::MIN_POSITIVE);

    out.completed = metrics.counter_total("origin_committed");
    out.clock_span_s = last_commit_s;
    let failed = (out.attempted - out.completed.min(out.attempted)) as usize;
    let fail_ns = deadline.as_nanos() as u64;
    out.commit_p50_ms = quantile_with_failures(&mut report.commit_latency, failed, fail_ns, 0.50);
    out.commit_p99_ms = quantile_with_failures(&mut report.commit_latency, failed, fail_ns, 0.99);
    out.latency_samples = (report.commit_latency.len() + failed) as u64;
    out.checks.push(("converged", report.converged));
    out.checks.push(("quiesced", report.quiesced && report.undelivered_at_stop == 0));
    out.checks.push((
        "accounted",
        report.accepted == out.completed
            && report.committed_total == report.accepted * spec.sites as u64,
    ));

    if let Some(obs) = &observer {
        let ops = out.completed.max(1) as f64;
        let c = |name: &str| report.counters.get(name) as f64;
        out.layer("broadcast.stale_epoch_rejects", c("stale_epoch_reject"));
        out.layer("replica.abort_rate", c("abort") / (c("abort") + c("commit")).max(1.0));
        out.layer("replica.reorder_rate", c("reorder") / c("to_deliver").max(1.0));
        out.layer("storage.execs_per_commit", c("submit") / c("commit").max(1.0));
        out.layer("cluster.allocs_per_txn", (allocs1.0 - allocs0.0) as f64 / ops);
        out.layer("cluster.alloc_bytes_per_txn", (allocs1.1 - allocs0.1) as f64 / ops);
        out.layer("cluster.rss_kb_per_ktxn", rss1.saturating_sub(rss0) as f64 / (ops / 1e3));
        out.layer("runtime.backpressure_per_ktxn", backpressure as f64 / (ops / 1e3));
        out.layer("runtime.ctx_switches_per_txn", ctx_switches as f64 / ops);
        out.layer("runtime.sys_cpu_share", out.cpu.sys_s / out.cpu.total_s().max(1e-9));
        out.layer(
            "runtime.cluster_cpu_us_per_txn",
            (out.cpu.total_s() - gen_cpu.total_s()) * 1e6 / ops,
        );
        submit_ns.sort_unstable();
        out.layer("runtime.submit_ns_p50", measure::quantile_sorted(&submit_ns, 0.5) as f64);
        out.layer("runtime.shutdown_ms", shutdown_ns as f64 / 1e6);
        out.layer("workload.gen_ns_per_op", generate_ns as f64 / spec.txns.max(1) as f64);
        let objects = spec.classes as u64 * spec.objects * spec.sites as u64;
        out.layer("workload.load_ns_per_object", start_ns as f64 / objects.max(1) as f64);
        out.layer("count.site_commits", c("commit"));
        out.layer("count.latency_samples", report.commit_latency.len() as f64);
        let (execs, busy) = probe.totals();
        out.layer("storage.proc_ns_per_exec", busy as f64 / execs.max(1) as f64);
        let per_site = obs.take();
        let events: usize = per_site.iter().map(Vec::len).sum();
        out.layer("telemetry.events_per_txn", events as f64 / ops);
        for (name, value) in ledger::analyse_trace(&per_site) {
            out.layer(name, value);
        }
    }
    out
}

// ----------------------------------------------------------------------
// Layer replays (B): one layer's public functions, driven alone with the
// shapes and counts the traced run recorded, timed from outside.
// ----------------------------------------------------------------------

/// Sizes of the replays at scale 1; `Sizes::at` scales them with the
/// workload, so a 1/50-scale test run replays in a fraction of a second.
#[derive(Clone, Copy)]
struct Sizes {
    /// Wall budget of one replay, milliseconds.
    budget_ms: u64,
    /// Messages broadcast on the harness.
    messages: u64,
    /// Sample requests for the queue, storage and replica replays.
    requests: u64,
}

impl Sizes {
    fn at(scale: f64) -> Sizes {
        let scaled = |n: f64, floor: u64| ((n * scale.min(1.0)) as u64).max(floor);
        Sizes {
            budget_ms: scaled(60.0, 2),
            messages: scaled(10_000.0, 200),
            requests: scaled(4_000.0, 200),
        }
    }
}

/// The parts of a workload the replays are shaped by.
struct Shape {
    /// Members of one ordering domain.
    sites: usize,
    net: NetConfig,
    engine: Engine,
    mode: Mode,
    data: Data,
    rate_per_s: f64,
    sim: bool,
    crash: bool,
}

impl Shape {
    fn of(spec: &Spec) -> Shape {
        match spec {
            Spec::Sim(s) => Shape {
                sites: s.sites / s.groups,
                net: net_config(s.lan, s.sites / s.groups),
                engine: s.engine,
                mode: s.mode,
                data: s.data,
                rate_per_s: s.rate_per_s / s.groups as f64,
                sim: true,
                crash: s.crash.is_some(),
            },
            Spec::Live(l) => Shape {
                sites: l.sites,
                // The live net thread delays by 50 µs + U(0, 100 µs).
                net: NetConfig::lan_fast(l.sites)
                    .with_propagation(SimDuration::from_micros(l.net_delay_us))
                    .with_jitter(
                        SimDuration::from_micros(l.net_jitter_us / 2),
                        SimDuration::from_micros(l.net_jitter_us / 4),
                    ),
                engine: l.engine,
                mode: Mode::Otp,
                data: Data::Uniform { classes: l.classes, objects: l.objects },
                // A closed loop has no offered rate; its throughput is of
                // this order on the reference machine.
                rate_per_s: 30_000.0,
                sim: false,
                crash: false,
            },
        }
    }
}

/// `n` update requests of the workload's own shape, with the registry and
/// the initial data they run against.
fn sample_requests(
    data: Data,
    n: u64,
    seed: u64,
) -> (Arc<ProcRegistry>, Database, Vec<TxnRequest>) {
    let (registry, initial, ops) = match data {
        Data::TpcB { branches } => {
            let t = TpcB::new(branches, 1, n).with_seed(seed);
            let (registry, proc) = t.registry();
            (registry, t.initial_data(), t.schedule(proc).ops)
        }
        Data::Uniform { classes, objects } => {
            let (registry, procs) = StandardProcs::registry();
            let mut w = WorkloadSpec::new(1, classes, n).with_seed(seed);
            w.objects_per_class = objects;
            (registry, w.initial_data(), w.generate(&procs).ops)
        }
    };
    let mut db = Database::new(data.classes());
    for (oid, v) in initial {
        db.load(oid, v);
    }
    let requests = ops
        .into_iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            Op::Update { class, proc, args, .. } => {
                Some(TxnRequest::new(TxnId::new(SiteId::new(0), i as u64), class, proc, args))
            }
            Op::Query { .. } => None,
        })
        .collect();
    (registry, db, requests)
}

/// `EventQueue::schedule` + `pop` with `depth` events waiting.
fn replay_event_queue(depth: usize, budget_ms: u64) -> f64 {
    let mut rng = SplitMix64(depth as u64);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        queue.schedule(SimTime::from_nanos(rng.below(1_000_000_000)), i as u64);
    }
    const OPS: u64 = 20_000;
    measure::ns_per_op(OPS, budget_ms, || {
        for _ in 0..OPS {
            let (at, ev) = queue.pop().expect("the queue never drains");
            queue.schedule(at + SimDuration::from_nanos(1 + rng.below(1_000_000_000)), ev);
        }
    })
}

/// `MulticastNet::multicast` of a 200-byte frame to every member.
fn replay_net(shape: &Shape, budget_ms: u64) -> f64 {
    let mut net = MulticastNet::new(shape.net.clone());
    let mut rng = SimRng::seed_from(7);
    let step = shape.net.transmission_time(200);
    let mut now = SimTime::ZERO;
    const OPS: u64 = 20_000;
    measure::ns_per_op(OPS, budget_ms, || {
        for i in 0..OPS {
            let from = SiteId::new((i % shape.sites as u64) as u16);
            std::hint::black_box(net.multicast(from, 200, now, &mut rng));
            now += step;
        }
    })
}

/// `Histogram::record` of `samples` latencies plus the two quantile reads
/// a report makes, per sample.
fn replay_histogram(samples: u64, budget_ms: u64) -> f64 {
    let samples = samples.clamp(1_000, 2_000_000);
    let mut rng = SplitMix64(samples);
    measure::ns_per_op(samples, budget_ms, || {
        let mut h = Histogram::new();
        for _ in 0..samples {
            h.record(SimDuration::from_nanos(rng.below(5_000_000)));
        }
        std::hint::black_box((h.quantile(0.5), h.quantile(0.99)));
    })
}

/// `Counters::incr` over the keys a replica bumps per transaction, in the
/// order it first touches them.
fn replay_counters(budget_ms: u64) -> f64 {
    let mut counters = Counters::new();
    const KEYS: [&str; 4] = ["opt_deliver", "submit", "to_deliver", "commit"];
    const OPS: u64 = 40_000;
    measure::ns_per_op(OPS, budget_ms, || {
        for i in 0..OPS {
            counters.incr(std::hint::black_box(KEYS[(i % 4) as usize]));
        }
    })
}

/// Lock-step consensus among `sites` instances proposing a batch of ids:
/// `(ns per decision, messages per decision)`.
fn replay_consensus(sites: usize, budget_ms: u64) -> (f64, f64) {
    let cfg = InstanceConfig::new(sites, SimDuration::from_millis(50));
    let mut messages = 0u64;
    let mut decisions = 0u64;
    const ROUNDS: u64 = 200;
    let ns = measure::ns_per_op(ROUNDS, budget_ms, || {
        for round in 0..ROUNDS {
            let mut instances = Vec::with_capacity(sites);
            let mut inbox: VecDeque<(SiteId, SiteId, ConsensusMsg<Vec<u64>>)> = VecDeque::new();
            let post = |from: SiteId, actions, inbox: &mut VecDeque<_>| {
                for a in actions {
                    match a {
                        Action::Send(to, m) => inbox.push_back((from, to, m)),
                        Action::Broadcast(m) => {
                            for to in SiteId::all(sites) {
                                inbox.push_back((from, to, m.clone()));
                            }
                        }
                        Action::SetTimer { .. } | Action::Decided(_) => {}
                    }
                }
            };
            for me in SiteId::all(sites) {
                let (inst, actions) = Instance::new(me, cfg, vec![round, round + 1, round + 2]);
                instances.push(inst);
                post(me, actions, &mut inbox);
            }
            while let Some((from, to, m)) = inbox.pop_front() {
                messages += 1;
                let actions = instances[to.index()].on_message(from, m);
                post(to, actions, &mut inbox);
            }
            assert!(instances.iter().all(|i| i.decided().is_some()), "lock-step run decides");
            decisions += 1;
        }
    });
    (ns, messages as f64 / decisions.max(1) as f64)
}

/// The workload's engine alone on `harness::LanCluster`: same net model,
/// Poisson arrivals at the same rate, `u32` payloads. Returns
/// `(ns per message, harness events per message)`.
fn replay_broadcast(shape: &Shape, seed: u64, messages: u64) -> (f64, f64) {
    fn run<E: AtomicBroadcast<u32>>(
        shape: &Shape,
        seed: u64,
        msgs: u64,
        factory: Box<dyn Fn(SiteId) -> E>,
    ) -> (f64, f64) {
        let mut rng = SimRng::seed_from(seed);
        let mut cluster: LanCluster<u32, E> = LanCluster::new(shape.net.clone(), seed, factory);
        let mut at = SimTime::from_millis(1);
        for k in 0..msgs {
            at += SimDuration::from_secs_f64(rng.exponential(1.0 / shape.rate_per_s));
            cluster.schedule_broadcast(
                at,
                SiteId::new((k % shape.sites as u64) as u16),
                k as u32,
                4,
            );
        }
        let (events, ns) = time_ns(|| cluster.run_until(at + SimDuration::from_secs(10)));
        assert_eq!(
            cluster.to_logs[0].len() as u64,
            msgs,
            "the replayed engine delivers everything"
        );
        (ns as f64 / msgs as f64, events as f64 / msgs as f64)
    }
    let sites = shape.sites;
    match shape.engine {
        Engine::Opt { consensus_timeout_ms } => {
            let cfg = OptAbcastConfig::new(sites, SimDuration::from_millis(consensus_timeout_ms));
            run(shape, seed, messages, Box::new(move |_| OptAbcast::<u32>::new(cfg)))
        }
        Engine::SeqBatched { order_delay_us } => run(
            shape,
            seed,
            messages,
            Box::new(move |_| {
                SeqAbcast::<u32>::new(SiteId::new(0))
                    .with_order_batching(SimDuration::from_micros(order_delay_us))
            }),
        ),
    }
}

/// `ClassQueue` on the in-order path: `append → head_for_execution →
/// mark_executed → mark_committable → commit_head`, per transaction.
fn replay_class_queue(requests: &[TxnRequest], budget_ms: u64) -> f64 {
    let mut queue = ClassQueue::new(ClassId::new(0));
    measure::ns_per_op(requests.len() as u64, budget_ms, || {
        for r in requests {
            queue.append(r.clone());
            let (id, _) = queue.head_for_execution().expect("just appended");
            queue.mark_executed(id).expect("head");
            queue.mark_committable(id).expect("queued");
            std::hint::black_box(queue.commit_head(id).expect("head"));
        }
    })
}

/// `ClassQueue` on the mismatch path with `depth` pending entries ahead:
/// the tail is TO-delivered first, so it is marked committable, rescheduled
/// before the first pending entry, the executing head is aborted, and the
/// rescheduled entry commits. One tail append keeps the depth constant.
fn replay_queue_reorder(requests: &[TxnRequest], depth: usize, budget_ms: u64) -> f64 {
    let mut queue = ClassQueue::new(ClassId::new(0));
    let mut feed = requests.iter().cycle();
    let mut seq = 1_000_000u64;
    let mut fresh = move || {
        let mut r = feed.next().expect("cycle never ends").clone();
        seq += 1;
        r.id = TxnId::new(SiteId::new(0), seq);
        r
    };
    for _ in 0..depth {
        queue.append(fresh());
    }
    const OPS: u64 = 2_000;
    measure::ns_per_op(OPS, budget_ms, || {
        for _ in 0..OPS {
            let r = fresh();
            let id = r.id;
            queue.append(r);
            queue.mark_committable(id).expect("queued");
            queue.reschedule_before_first_pending(id).expect("queued");
            queue.abort_head().expect("non-empty");
            std::hint::black_box(queue.commit_head(id).expect("rescheduled to the head"));
        }
    })
}

/// Execute + promote on `Database`, the way a replica commits.
fn replay_storage_commit(
    registry: &ProcRegistry,
    db: &mut Database,
    requests: &[TxnRequest],
    budget_ms: u64,
) -> f64 {
    let mut index = 0u64;
    measure::ns_per_op(requests.len() as u64, budget_ms, || {
        for r in requests {
            let proc = registry.get(r.proc).expect("registered");
            let mut ctx = TxnCtx::new(db, r.class);
            let _ = proc.execute(&mut ctx, &r.args);
            let effects = ctx.finish();
            index += 1;
            db.partition_mut(r.class)
                .expect("class exists")
                .promote(effects.undo.written_keys(), TxnIndex::new(index));
        }
    })
}

/// A snapshot read of an object with `depth` committed versions.
fn replay_read_at(depth: u64, budget_ms: u64) -> f64 {
    let oid = ObjectId::new(0, 0);
    let mut db = Database::new(1);
    db.load(oid, Value::Int(0));
    for v in 1..=depth {
        let part = db.partition_mut(oid.class).expect("class exists");
        part.write_current(oid.key, Value::Int(v as i64));
        part.promote(std::iter::once(oid.key), TxnIndex::new(v));
    }
    let snap = SnapshotIndex::after(TxnIndex::new(depth / 2));
    const OPS: u64 = 50_000;
    measure::ns_per_op(OPS, budget_ms, || {
        for _ in 0..OPS {
            std::hint::black_box(db.read_at(std::hint::black_box(oid), snap));
        }
    })
}

/// The three replica entry points, for either replica.
trait ReplicaEvents {
    fn opt(&mut self, request: TxnRequest) -> Vec<ReplicaAction>;
    fn to(&mut self, txn: TxnId, class: ClassId) -> Vec<ReplicaAction>;
    fn done(&mut self, token: ExecToken) -> Vec<ReplicaAction>;
}

impl ReplicaEvents for Replica {
    fn opt(&mut self, request: TxnRequest) -> Vec<ReplicaAction> {
        self.on_opt_deliver(request)
    }
    fn to(&mut self, txn: TxnId, class: ClassId) -> Vec<ReplicaAction> {
        self.on_to_deliver(txn, class)
    }
    fn done(&mut self, token: ExecToken) -> Vec<ReplicaAction> {
        self.on_exec_done(token)
    }
}

impl ReplicaEvents for ConservativeReplica {
    fn opt(&mut self, request: TxnRequest) -> Vec<ReplicaAction> {
        self.on_opt_deliver(request)
    }
    fn to(&mut self, txn: TxnId, class: ClassId) -> Vec<ReplicaAction> {
        self.on_to_deliver(txn, class)
    }
    fn done(&mut self, token: ExecToken) -> Vec<ReplicaAction> {
        self.on_exec_done(token)
    }
}

/// Drives a fresh replica (from `make`) through `requests` in rounds of
/// eight: Opt-deliver the round, let every started execution finish, then
/// TO-deliver the round — in the same order, or with `swap_share` of
/// adjacent pairs swapped. Returns nanoseconds per transaction.
fn replay_replica<R: ReplicaEvents>(
    make: impl Fn() -> R,
    requests: &[TxnRequest],
    swap_share: f64,
    budget_ms: u64,
) -> f64 {
    let mut rng = SplitMix64(requests.len() as u64);
    measure::ns_per_op(requests.len() as u64, budget_ms, || {
        let mut replica = make();
        let mut committed = 0usize;
        let mut running: VecDeque<ExecToken> = VecDeque::new();
        let mut pump = |actions: Vec<ReplicaAction>, running: &mut VecDeque<ExecToken>| {
            for a in actions {
                match a {
                    ReplicaAction::StartExecution { token } => running.push_back(token),
                    ReplicaAction::Committed { .. } => committed += 1,
                }
            }
        };
        for round in requests.chunks(8) {
            for r in round {
                pump(replica.opt(r.clone()), &mut running);
            }
            while let Some(token) = running.pop_front() {
                pump(replica.done(token), &mut running);
            }
            let mut order: Vec<(TxnId, ClassId)> = round.iter().map(|r| (r.id, r.class)).collect();
            for i in 1..order.len() {
                if (rng.below(1_000) as f64) < swap_share * 1_000.0 {
                    order.swap(i - 1, i);
                }
            }
            for (txn, class) in order {
                pump(replica.to(txn, class), &mut running);
                while let Some(token) = running.pop_front() {
                    pump(replica.done(token), &mut running);
                }
            }
        }
        assert_eq!(committed, requests.len(), "the replayed replica commits everything");
    })
}

/// Engine state transfer at definitive-log length `log_len`: `(entries in
/// the snapshot, snapshot ns, merge ns, restore ns)`.
fn replay_view(shape: &Shape, order_delay_us: u64, log_len: u64) -> (f64, f64, f64, f64) {
    let factory = move |_| {
        SeqAbcast::<u32>::new(SiteId::new(0))
            .with_order_batching(SimDuration::from_micros(order_delay_us))
    };
    let mut cluster: LanCluster<u32, SeqAbcast<u32>> =
        LanCluster::new(NetConfig::lan_fast(shape.sites), 1, Box::new(factory));
    for k in 0..log_len {
        let at = SimTime::from_micros(100 * (k + 1));
        cluster.schedule_broadcast(at, SiteId::new((k % shape.sites as u64) as u16), k as u32, 4);
    }
    cluster.run_until(SimTime::from_micros(100 * log_len) + SimDuration::from_secs(5));
    let survivor = cluster.engine(SiteId::new(1));
    assert_eq!(survivor.definitive_log().len() as u64, log_len, "the log is built");
    let (snapshot, snapshot_ns) = time_ns(|| survivor.snapshot());
    let entries =
        snapshot.received.len() + snapshot.order_tags.len() + snapshot.definitive_log.len();
    let digest = cluster.engine(SiteId::new(2)).snapshot();
    let (merged, merge_ns) = time_ns(move || {
        let mut base = snapshot;
        base.merge(digest);
        base
    });
    let domain = OrderDomain::global(shape.sites);
    let ctx = EngineCtx::at_epoch(SiteId::new(0), &domain, 1);
    let mut fresh = factory(SiteId::new(0));
    let (actions, restore_ns) = time_ns(|| fresh.restore(&ctx, merged));
    std::hint::black_box(actions);
    (entries as f64, snapshot_ns as f64, merge_ns as f64, restore_ns as f64)
}

/// `(TraceSink::record ns per event, MetricsRegistry counter ns per incr)`.
fn replay_telemetry(sites: usize, budget_ms: u64) -> (f64, f64) {
    const OPS: u64 = 50_000;
    let sink_ns = measure::ns_per_op(OPS, budget_ms, || {
        let observer = Observer::new(sites);
        for i in 0..OPS {
            let site = SiteId::new((i % sites as u64) as u16);
            observer.record(TraceEvent {
                at: SimTime::from_nanos(i),
                site,
                origin: site,
                seq: i,
                group: 0,
                stage: Stage::Commit,
            });
        }
    });
    let registry = MetricsRegistry::new();
    let counter = registry.counter("origin_committed", Scope::global());
    let counter_ns = measure::ns_per_op(OPS, budget_ms, || {
        for _ in 0..OPS {
            counter.incr();
        }
        std::hint::black_box(counter.get());
    });
    (sink_ns, counter_ns)
}

/// Runs one replay inside a `replay.<metric>` span and files its result.
fn timed(
    spans: &mut Spans,
    layers: &mut BTreeMap<String, f64>,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> f64,
) -> f64 {
    let (value, _) = spans.scope(&format!("replay.{name}"), layer, |_| f());
    layers.insert(name.to_string(), value);
    value
}

/// Runs every replay the workload's layers call for, records each as a
/// span, and adds the per-layer metrics — plus `count.attributed_ns`, the
/// Σ(layer count × replayed ns) the residual is computed from — to `out`.
pub fn replay_layers(spec: &Spec, seed: u64, scale: f64, out: &mut Outcome, spans: &mut Spans) {
    let shape = Shape::of(spec);
    let Sizes { budget_ms: ms, messages, requests } = Sizes::at(scale);
    let count = |out: &Outcome, k: &str| out.layers.get(k).copied().unwrap_or(0.0);
    let updates = out.completed as f64 - count(out, "count.queries");
    // simnet
    let mut queue_ns = 0.0;
    if shape.sim {
        // Pre-applied schedules wait in the event queue, so the live depth
        // averages half the operations; a stepped generator keeps it short.
        let depth = if shape.crash { 64 } else { (out.attempted / 2) as usize };
        queue_ns = timed(spans, &mut out.layers, "simnet.queue_ns_per_event", "simnet", || {
            replay_event_queue(depth, ms)
        });
        timed(spans, &mut out.layers, "simnet.net_ns_per_frame", "simnet", || {
            replay_net(&shape, ms)
        });
    }
    let samples = count(out, "count.latency_samples");
    let hist_ns = timed(spans, &mut out.layers, "simnet.hist_ns_per_sample", "simnet", || {
        replay_histogram(samples as u64, ms)
    });
    timed(spans, &mut out.layers, "simnet.counters_ns_per_incr", "simnet", || replay_counters(ms));

    // consensus + broadcast
    if matches!(shape.engine, Engine::Opt { .. }) {
        let mut msgs = 0.0;
        timed(spans, &mut out.layers, "consensus.ns_per_decision", "consensus", || {
            let (ns, m) = replay_consensus(shape.sites, ms);
            msgs = m;
            ns
        });
        out.layers.insert("consensus.msgs_per_decision".into(), msgs);
    }
    let mut lan_events = 0.0;
    let broadcast_ns = timed(spans, &mut out.layers, "broadcast.ns_per_msg", "broadcast", || {
        let (ns, events) = replay_broadcast(&shape, seed, messages);
        lan_events = events;
        ns
    });

    // txn + storage + replica
    let (registry, mut db, requests) = sample_requests(shape.data, requests, seed);
    if shape.mode == Mode::Otp {
        timed(spans, &mut out.layers, "txn.queue_ns_per_txn", "txn", || {
            replay_class_queue(&requests, ms)
        });
        for (name, depth) in [
            ("txn.queue_reorder_ns_d1", 1),
            ("txn.queue_reorder_ns_d16", 16),
            ("txn.queue_reorder_ns_d256", 256),
        ] {
            timed(spans, &mut out.layers, name, "txn", || {
                replay_queue_reorder(&requests, depth, ms)
            });
        }
    }
    let pristine = db.clone();
    timed(spans, &mut out.layers, "storage.commit_ns_per_txn", "storage", || {
        replay_storage_commit(&registry, &mut db, &requests, ms)
    });
    let mut read_ns = 0.0;
    if count(out, "count.queries") > 0.0 {
        read_ns = timed(spans, &mut out.layers, "storage.read_at_ns_d1", "storage", || {
            replay_read_at(1, ms)
        });
        timed(spans, &mut out.layers, "storage.read_at_ns_d64", "storage", || {
            replay_read_at(64, ms)
        });
    }
    let site = SiteId::new(0);
    let replica_ns = match shape.mode {
        Mode::Otp => {
            let make = || Replica::new(site, pristine.clone(), Arc::clone(&registry));
            let inorder =
                timed(spans, &mut out.layers, "replica.ns_per_txn_inorder", "replica", || {
                    replay_replica(make, &requests, 0.0, ms)
                });
            timed(spans, &mut out.layers, "replica.ns_per_txn_mismatch", "replica", || {
                replay_replica(make, &requests, 0.10, ms)
            });
            inorder
        }
        Mode::Conservative => {
            let make = || ConservativeReplica::new(site, pristine.clone(), Arc::clone(&registry));
            timed(spans, &mut out.layers, "replica.conservative_ns_per_txn", "replica", || {
                replay_replica(make, &requests, 0.0, ms)
            })
        }
    };

    // view: state transfer at a short log and at the log the crash sees.
    if let (true, Engine::SeqBatched { order_delay_us }, Spec::Sim(s)) =
        (shape.crash, shape.engine, spec)
    {
        let at_crash = (s.updates as f64 * s.crash.map_or(0.8, |c| c.at_share)) as u64;
        for (tag, len) in [("1k", 1_000), ("full", at_crash.max(1_000))] {
            let mut parts = (0.0, 0.0, 0.0, 0.0);
            timed(spans, &mut out.layers, &format!("view.snapshot_ns_{tag}"), "view", || {
                parts = replay_view(&shape, order_delay_us, len);
                parts.1
            });
            out.layers.insert(format!("view.snapshot_entries_{tag}"), parts.0);
            out.layers.insert(format!("view.merge_ns_{tag}"), parts.2);
            out.layers.insert(format!("view.restore_ns_{tag}"), parts.3);
        }
    }

    // telemetry
    let mut counter_ns = 0.0;
    timed(spans, &mut out.layers, "telemetry.sink_ns_per_event", "telemetry", || {
        let (sink, counter) = replay_telemetry(shape.sites, ms);
        counter_ns = counter;
        sink
    });
    out.layers.insert("telemetry.counter_ns_per_incr".into(), counter_ns);

    // The ledger: three top-level replays that do not overlap (ordering on
    // the harness, the replica with its queue/storage/procs, the event
    // queue traffic the harness does not generate) plus the histogram and
    // the query reads. What they leave is the driver's own bookkeeping.
    let extra_events = (count(out, "count.events") - lan_events * updates).max(0.0);
    let attributed = broadcast_ns * updates
        + replica_ns * count(out, "count.site_commits")
        + queue_ns * extra_events
        + hist_ns * samples
        + read_ns * 2.0 * count(out, "count.queries");
    out.layers.insert("count.attributed_ns".into(), attributed);
}

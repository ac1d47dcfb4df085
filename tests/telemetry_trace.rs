//! Telemetry integration suite: the tentpole guarantees of the
//! transaction-lifecycle tracing layer, checked through both drivers.
//!
//! * Sim traces are byte-stable artifacts: the same (config, seed,
//!   schedule) triple dumps the identical JSONL twice, and a different
//!   seed diverges at a `trace-diff`-reportable line.
//! * Chaos invariant violations carry a flight-recorder dump next to
//!   the one-line reproducer; clean runs carry none.
//! * Live traces respect per-transaction time order on the delivery
//!   chain (submit ≤ broadcast ≤ opt-deliver ≤ TO-deliver ≤ commit),
//!   with execution bracketed by opt-delivery and commit — the OTP-mode
//!   invariant (execution *precedes* the definitive order becoming
//!   known; that is the paper's entire point).

use otp_core::runtime::{LiveCluster, LiveConfig};
use otp_core::{Cluster, ClusterBuilder, ClusterConfig, EngineKind, Mode, RunStats};
use otp_lab::watchdog::with_watchdog;
use otp_lab::{run_cell, CellSpec, GridCell, Sabotage};
use otp_simnet::{SimDuration, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, ObjectKey, ProcError, ProcId, ProcRegistry, Value};
use otp_telemetry::{diff_traces, MemSink, Stage, TraceSink};
use otp_workload::{Arrival, ClassSelection, StandardProcs, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const WATCHDOG_CAP: Duration = Duration::from_secs(240);

/// One traced sim run reduced to its canonical JSONL dump.
fn sim_trace(seed: u64) -> String {
    let spec = WorkloadSpec::new(3, 2, 40).with_seed(seed);
    let (registry, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);
    let sink = Arc::new(MemSink::new());
    let mut cluster = ClusterBuilder::from_config(ClusterConfig::new(3, 2).with_seed(seed))
        .registry(registry)
        .initial_data(spec.initial_data())
        .trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .build();
    schedule.apply(&mut cluster);
    cluster.run_until(SimTime::from_secs(60));
    sink.dump_jsonl()
}

#[test]
fn sim_trace_is_byte_identical_across_double_runs() {
    let a = sim_trace(7);
    let b = sim_trace(7);
    assert!(!a.is_empty(), "a traced run must record events");
    assert_eq!(a, b, "same (config, seed, schedule) must dump identical bytes");
    assert_eq!(diff_traces(&a, &b), None);
    // Every lifecycle milestone of the commit path shows up.
    for stage in ["submit", "broadcast", "opt_deliver", "to_deliver", "execute", "commit"] {
        assert!(a.contains(&format!("\"stage\":\"{stage}\"")), "missing {stage} events");
    }
    // A different seed forks the history — and trace-diff localizes it.
    let c = sim_trace(8);
    let divergence = diff_traces(&a, &c).expect("different seeds must diverge");
    assert!(divergence.line >= 1);
    assert!(divergence.left.is_some() || divergence.right.is_some());
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs `config` traced, with `workload` scheduling the load, and
/// returns `(event count, FNV-1a of the JSONL dump, dump, run stats)`.
fn pinned_trace(
    config: ClusterConfig,
    workload: impl FnOnce(&mut Cluster),
) -> (usize, u64, String, RunStats) {
    let (registry, _) = StandardProcs::registry();
    let data = (0..config.classes as u32)
        .flat_map(|c| (0..16).map(move |k| (ObjectId::new(c, k), Value::Int(1000))))
        .collect();
    let sink = Arc::new(MemSink::new());
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(data)
        .trace_sink(sink.clone() as Arc<dyn TraceSink>)
        .build();
    workload(&mut cluster);
    cluster.run_until(SimTime::from_secs(60));
    let dump = sink.dump_jsonl();
    (sink.len(), fnv1a(dump.as_bytes()), dump, cluster.stats())
}

/// The simulator's trace bytes are pinned: the dumps of five cluster
/// shapes must equal the ones recorded before the per-site delivery and
/// tracing code moved into `site.rs` (the first three), before the
/// conservative policy became a mode of the one replica (the fourth) and
/// before each site's engines, message map and cross-group gate became
/// one record (the fifth).
/// Any change to what is traced, in what order, at which instant or with
/// which group label turns this red — e.g. tracing `Execute` before
/// `Abort` on a retry.
#[test]
fn sim_trace_bytes_are_pinned_for_five_cluster_shapes() {
    let (_, procs) = StandardProcs::registry();
    let spec_load = |spec: WorkloadSpec| {
        let schedule = spec.generate(&procs);
        move |c: &mut Cluster| {
            schedule.apply(c);
        }
    };

    // Dense arrivals on a hotspot: tentative and definitive order differ.
    let hot = |seed| {
        WorkloadSpec::new(4, 8, 160)
            .with_selection(ClassSelection::HotSpot { hot_fraction: 0.125, hot_probability: 0.9 })
            .with_arrival(Arrival::Fixed(SimDuration::from_micros(400)))
            .with_seed(seed)
    };

    // Unsharded OTP on the consensus engine on the hotspot:
    // tentative-order mismatches force aborted-and-retried executions.
    let otp = pinned_trace(ClusterConfig::new(4, 8).with_seed(3), spec_load(hot(3)));
    assert!(otp.2.contains("\"stage\":\"abort\""), "the hotspot shape must trace a retry");

    // Conservative replicas on the batched sequencer, with snapshot queries.
    let queries = WorkloadSpec::new(3, 4, 90).with_queries(0.5, 2).with_seed(5);
    let cons = pinned_trace(
        ClusterConfig::new(3, 4)
            .with_engine(EngineKind::SequencerBatched {
                order_delay: SimDuration::from_micros(200),
            })
            .with_mode(Mode::Conservative)
            .with_seed(5),
        spec_load(queries),
    );

    // Two sequencing groups with cross-group updates on the relay stream.
    let sharded =
        || ClusterConfig::new(4, 2).with_engine(EngineKind::Sequencer).with_groups(2).with_seed(9);
    let cross_load = |c: &mut Cluster| {
        let add = |d: i64| vec![Value::Int(0), Value::Int(d)];
        let mut t = SimTime::from_millis(1);
        for i in 0..24u64 {
            let class = (i % 2) as u32;
            let site = SiteId::new((2 * class + (i / 2 % 2) as u32) as u16);
            c.schedule_update(t, site, ClassId::new(class), procs.add, add(1));
            t += SimDuration::from_micros(600);
        }
        let mut t = SimTime::from_micros(1500);
        for k in 0..8u64 {
            let parts = (0..2).map(|cl| (ClassId::new(cl), procs.add, add(100))).collect();
            c.schedule_cross_update(t, SiteId::new((k % 4) as u16), parts);
            t += SimDuration::from_micros(900);
        }
    };
    let cross = pinned_trace(sharded(), cross_load);
    assert!(cross.2.contains("\"stage\":\"relay_wait\""), "cross updates pass the relay");

    // The same load with group 1's second member crashing inside the
    // cross-update window and recovering: its relay domain runs a view
    // change of its own, it adopts the group primary's gate with the seen
    // sets rebuilt from the merged log, and it folds in the relay tail it
    // skipped while recovering.
    let (crash_at, recover_at) = (SimTime::from_millis(3), SimTime::from_millis(5));
    let bounced = pinned_trace(sharded(), |c: &mut Cluster| {
        cross_load(c);
        c.schedule_crash(crash_at, SiteId::new(3));
        c.schedule_recover(recover_at, SiteId::new(3), SiteId::new(2));
    });
    assert!(bounced.3.counters.get("relay_view_install") > 0, "the relay domain recovered");
    let relay_wait_after = bounced.2.lines().any(|line| {
        let at: u64 = line[5..line.find(',').expect("t field")].parse().expect("t is a number");
        line.contains("\"site\":3,")
            && line.contains("\"stage\":\"relay_wait\"")
            && at > recover_at.as_nanos()
    });
    assert!(relay_wait_after, "the recovered site still passes cross updates through the relay");

    // Conservative replicas on the consensus engine on the hotspot, so
    // CC10 moves TO-delivered transactions ahead of pending ones, and
    // site 2 crashing mid-run and recovering: the restored replica
    // replays the donor's TO-delivered tail before serving new deliveries.
    let load = spec_load(hot(13));
    let recovered = pinned_trace(
        ClusterConfig::new(4, 8).with_mode(Mode::Conservative).with_seed(13),
        |c: &mut Cluster| {
            load(c);
            c.schedule_crash(SimTime::from_millis(20), SiteId::new(2));
            c.schedule_recover(SimTime::from_millis(40), SiteId::new(2), SiteId::new(0));
        },
    );
    assert!(!recovered.2.contains("\"stage\":\"abort\""), "conservative never retries");

    let pins = [
        (otp.0, otp.1),
        (cons.0, cons.1),
        (cross.0, cross.1),
        (recovered.0, recovered.1),
        (bounced.0, bounced.1),
    ];
    let recorded = [
        (2884, 13_284_260_801_166_220_815),
        (1260, 7_671_287_276_880_295_094),
        (416, 13_295_177_785_212_375_855),
        (2660, 4_972_698_955_476_274_653),
        (369, 197_094_944_027_681_310),
    ];
    assert_eq!(pins, recorded, "trace bytes moved");
}

#[test]
fn sabotaged_chaos_run_dumps_flight_recorder_next_to_reproducer() {
    let cell: GridCell = "opt-otp-rough".parse().unwrap();
    let spec = CellSpec::new(7, cell).with_txns(36).with_sabotage(Sabotage::PhantomProbe);
    let outcome = run_cell(&spec);
    assert!(!outcome.passed(), "phantom probe must trip the liveness invariant");
    assert!(!outcome.reproducer.is_empty());
    let dump = outcome.flight_dump.as_deref().expect("violation must carry a flight dump");
    // Per-site ring headers in site order, then the retained events.
    assert!(dump.starts_with("{\"ring\":0,"), "dump must open with site 0's ring header");
    assert!(dump.contains("\"kept\":"), "headers report retained vs recorded history");
    assert!(dump.contains("\"stage\":\"commit\""), "rings hold real lifecycle events");
    // The same cell without sabotage passes and keeps no dump — the ring
    // is bounded memory, not a per-run artifact.
    let clean = run_cell(&CellSpec::new(7, cell).with_txns(36));
    assert!(clean.passed(), "{}", clean.report);
    assert!(clean.flight_dump.is_none());
}

fn live_registry() -> Arc<ProcRegistry> {
    let mut reg = ProcRegistry::new();
    reg.register_fn("add", |ctx, args| {
        let (k, d) = match (args.first(), args.get(1)) {
            (Some(Value::Int(k)), Some(Value::Int(d))) => (ObjectKey::new(*k as u64), *d),
            _ => return Err(ProcError::BadArgs("add(key, delta)".into())),
        };
        let v = ctx.read(k)?.as_int().unwrap_or(0);
        ctx.write(k, Value::Int(v + d))?;
        Ok(())
    });
    Arc::new(reg)
}

#[test]
fn live_trace_spans_are_time_monotone_per_txn() {
    with_watchdog("live_trace_spans_are_time_monotone_per_txn", WATCHDOG_CAP, |_| {
        const SITES: u64 = 3;
        const TXNS: u64 = 60;
        let sink = Arc::new(MemSink::new());
        let cfg = LiveConfig::new(SITES as usize, 2).with_exec_time(Duration::from_micros(200));
        let initial: Vec<(ObjectId, Value)> =
            (0..2).map(|c| (ObjectId::new(c, 0), Value::Int(0))).collect();
        let cluster = LiveCluster::start_traced(
            cfg,
            live_registry(),
            initial,
            Some(sink.clone() as Arc<dyn TraceSink>),
        );
        for i in 0..TXNS {
            cluster
                .submit(
                    SiteId::new((i % SITES) as u16),
                    ClassId::new((i % 2) as u32),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted");
        }
        let report = cluster.shutdown(Duration::from_secs(60));
        assert!(report.converged && report.quiesced);

        // First observation of each stage, per (observing site, txn).
        let mut first: HashMap<(u16, u16, u64), [Option<u64>; 9]> = HashMap::new();
        for ev in sink.events() {
            let slot = &mut first
                .entry((ev.site.raw(), ev.origin.raw(), ev.seq))
                .or_insert([None; 9])[ev.stage.rank()];
            if slot.is_none() {
                *slot = Some(ev.at.as_nanos());
            }
        }
        let commits = first.values().filter(|t| t[Stage::Commit.rank()].is_some()).count() as u64;
        assert_eq!(commits, TXNS * SITES, "every txn commits (and is traced) at every site");

        for ((site, origin, seq), t) in &first {
            let span = |s: Stage| t[s.rank()];
            let ctx = format!("site {site}, txn N{origin}:{seq}");
            // The delivery chain is time-monotone in both modes; stages
            // a site never observes (submit/broadcast live at the origin
            // only) simply drop out of the chain.
            let chain = [
                Stage::Submit,
                Stage::Broadcast,
                Stage::OptDeliver,
                Stage::ToDeliver,
                Stage::Commit,
            ];
            let mut prev: Option<(Stage, u64)> = None;
            for s in chain {
                if let Some(ts) = span(s) {
                    if let Some((p, pt)) = prev {
                        assert!(pt <= ts, "{ctx}: {p} at {pt} after {s} at {ts}");
                    }
                    prev = Some((s, ts));
                }
            }
            // OTP: execution starts at opt-delivery, before the order is
            // final — bracketed by opt-deliver and commit, not by
            // TO-deliver.
            if let Some(e) = span(Stage::Execute) {
                if let Some(o) = span(Stage::OptDeliver) {
                    assert!(e >= o, "{ctx}: executed before opt-delivery");
                }
                if let Some(c) = span(Stage::Commit) {
                    assert!(c >= e, "{ctx}: committed before execution started");
                }
            }
            // The admission-wait span opens at wait start, before the
            // accepted submit is stamped.
            if let (Some(w), Some(s)) = (span(Stage::AdmissionWait), span(Stage::Submit)) {
                assert!(w <= s, "{ctx}: admission wait opened after submit");
            }
        }
    });
}

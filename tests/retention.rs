//! Retention: a site keeps per transaction only what a later step reads.
//!
//! After a drained run the driver's per-transaction map is empty — a
//! completion entry is released when the last member of the
//! transaction's group commits (a message body lives only in the engine's
//! payload store, which TO-delivery reads) — every version chain is down
//! to one version (commits trim below the committed watermark), the
//! engines' dedup and ordering index is the same handful of entries
//! however long the run (delivered ids are per-origin runs, delivered
//! order assignments are dropped; the oracle engine, which keeps every
//! oracle position, is the exception), and the records that legitimately
//! grow — the history log, the engines' payload stores and definitive
//! logs — grow exactly linearly. A crash-and-recover run still counts
//! each completion and each latency sample exactly once although the
//! entries that guard against double counting are released. The sizes are
//! read from the cluster's retention gauges, the way an operator reads
//! them off a running cluster. See DESIGN.md, "What a site keeps per
//! transaction".

use otp_telemetry::Scope;
use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind, Mode};
use otpdb::simnet::{SimDuration, SimTime, SiteId};
use otpdb::storage::{ClassId, ObjectId, Value};
use otpdb::txn::history::HistoryLog;
use otpdb::txn::txn::TxnId;
use otpdb::workload::StandardProcs;

const SITES: usize = 8;
const CLASSES: usize = 8;
const KEYS: u64 = 4;
const SEQ_BATCHED: EngineKind =
    EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(250) };

/// `(engine, mode, groups)` of every drained-run scenario.
fn shapes() -> Vec<(EngineKind, Mode, usize)> {
    let opt = EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) };
    let scrambled = EngineKind::Scrambled {
        agreement_delay: SimDuration::from_millis(1),
        swap_probability: 0.1,
    };
    let mut out = Vec::new();
    for mode in [Mode::Otp, Mode::Conservative] {
        for (engine, groups) in [(opt, 1), (SEQ_BATCHED, 1), (SEQ_BATCHED, 4), (scrambled, 1)] {
            out.push((engine, mode, groups));
        }
    }
    out
}

/// Runs `n` increments to drain: class `i % CLASSES`, submitted at a
/// member of the class's group; when sharded, every eighth is a
/// cross-group update over that class and the next one. Returns the
/// cluster and the number of transactions it must have completed.
fn drained_run(engine: EngineKind, mode: Mode, groups: usize, n: u64) -> (Cluster, u64) {
    let (registry, procs) = StandardProcs::registry();
    let config = ClusterConfig::new(SITES, CLASSES)
        .with_engine(engine)
        .with_mode(mode)
        .with_groups(groups)
        .with_seed(7);
    let data = (0..CLASSES as u32)
        .flat_map(|c| (0..KEYS).map(move |k| (ObjectId::new(c, k), Value::Int(0))))
        .collect();
    let mut cluster =
        ClusterBuilder::from_config(config).registry(registry).initial_data(data).build();
    let per_group = (SITES / groups) as u64;
    let args = |key: u64| vec![Value::Int(key as i64), Value::Int(1)];
    let mut expected = 0;
    for i in 0..n {
        let at = SimTime::from_millis(1) + SimDuration::from_micros(300 * i);
        let class = i % CLASSES as u64;
        let key = i / CLASSES as u64 % KEYS;
        let site = SiteId::new(((class % groups as u64) * per_group + i % per_group) as u16);
        if groups > 1 && i % 8 == 7 {
            let next = (class + 1) % CLASSES as u64;
            let parts = vec![
                (ClassId::new(class as u32), procs.add, args(key)),
                (ClassId::new(next as u32), procs.add, args(key)),
            ];
            expected += cluster.schedule_cross_update(at, site, parts).len() as u64;
        } else {
            cluster.schedule_update(at, site, ClassId::new(class as u32), procs.add, args(key));
            expected += 1;
        }
    }
    cluster.run_until(SimTime::from_secs(120));
    (cluster, expected)
}

/// One site's value of retention gauge `name`, freshly sampled.
fn gauge(cluster: &Cluster, name: &str, site: usize) -> i64 {
    let snapshot = cluster.metrics().snapshot();
    snapshot.get(name, Scope::site(SiteId::new(site as u16))).expect("gauge registered")
}

#[test]
fn drained_runs_hold_no_per_txn_driver_state_and_one_version_per_object() {
    for (engine, mode, groups) in shapes() {
        let label = format!("{engine:?} {mode:?} groups={groups}");
        // The oracle engine keeps every delivered oracle position: its
        // index grows with the run, so only its stores are checked.
        let flat_index = !matches!(engine, EngineKind::Scrambled { .. });
        let mut history = Vec::new();
        let mut stores = Vec::new();
        for n in [32, 128] {
            let (cluster, expected) = drained_run(engine, mode, groups, n);
            assert_eq!(cluster.stats().completed, expected, "{label} n={n}");
            let report = cluster.check_invariants(&[]);
            assert!(report.is_ok(), "{label} n={n}: {report}");
            let objects = (CLASSES as u64 * KEYS) as i64;
            for s in 0..SITES {
                assert_eq!(gauge(&cluster, "pending_completions", s), 0, "{label} n={n} site {s}");
                assert_eq!(
                    gauge(&cluster, "retained_versions", s),
                    objects,
                    "{label} n={n} site {s}: every chain holds one version"
                );
                let entries = gauge(&cluster, "history_entries", s);
                let commits = cluster.replicas[s].commit_log().len() as i64;
                assert!(commits > 0, "{label} n={n} site {s}");
                assert_eq!(entries, commits, "{label} n={n} site {s}: one entry per commit");
            }
            history.push((0..SITES).map(|s| gauge(&cluster, "history_entries", s)).collect());
            let per_site = |name: &str| (0..SITES).map(|s| gauge(&cluster, name, s)).collect();
            let kept: [Vec<i64>; 3] =
                ["engine_payloads", "engine_log_entries", "engine_index_entries"].map(per_site);
            assert!(kept[..2].iter().flatten().all(|n| *n > 0), "{label} {kept:?}");
            if flat_index {
                let bounded = kept[2].iter().all(|i| (1..=2 * SITES as i64).contains(i));
                assert!(bounded, "{label} {kept:?}");
            }
            stores.push(kept);
        }
        let scaled = |small: &Vec<i64>| small.iter().map(|h| 4 * h).collect::<Vec<i64>>();
        assert_eq!(history[1], scaled(&history[0]), "{label}: history grows exactly linearly");
        let [payloads, log, index] = &stores[0];
        assert_eq!(stores[1][0], scaled(payloads), "{label}: payloads grow exactly linearly");
        assert_eq!(stores[1][1], scaled(log), "{label}: logs grow exactly linearly");
        if flat_index {
            assert_eq!(&stores[1][2], index, "{label}: the engines' index does not grow");
        }
    }
}

/// The sequencer crashes while requests keep arriving and comes back
/// through a view change — the `sim-seq-crash` shape at 1/500 scale,
/// scanned over crash instants around one of the sequencer's own
/// submissions. Completion entries are released all through the run;
/// still, each completion and each latency sample is counted once, and
/// every submitted transaction's entry is either released with its one
/// group-wide sample or still held. (A replay that re-commits after the
/// release is pinned by `replayed_commit_counts_nothing_twice` in the
/// cluster's unit tests: this shape does not produce one.)
#[test]
fn crash_and_replay_count_each_completion_and_latency_sample_once() {
    for offset_us in (0..500).step_by(25) {
        crash_run(SimDuration::from_micros(offset_us));
    }
}

fn crash_run(offset: SimDuration) {
    let (registry, procs) = StandardProcs::registry();
    let sites = 5;
    let config = ClusterConfig::new(sites, 8)
        .with_engine(SEQ_BATCHED)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_micros(200)))
        .with_delivery_quantum(SimDuration::from_micros(100))
        .with_seed(42);
    let data = (0..8u32).map(|c| (ObjectId::new(c, 0), Value::Int(0))).collect();
    let mut cluster =
        ClusterBuilder::from_config(config).registry(registry).initial_data(data).build();
    let n = 200u64;
    let due = |i: u64| SimTime::from_millis(1) + SimDuration::from_micros(500 * i);
    // Transaction 160 of 200 is the sequencer's own (origin `i % 5`).
    let crash_at = due(160) + offset;
    let mut ids: Vec<TxnId> = Vec::new();
    for i in 0..n {
        // Requests addressed to the crashed sequencer fail over to a
        // live site, as the benchmark's client does.
        let site = if due(i) >= crash_at { 1 + i % 4 } else { i % 5 };
        let class = ClassId::new((i % 8) as u32);
        let args = vec![Value::Int(0), Value::Int(1)];
        ids.push(cluster.schedule_update(due(i), SiteId::new(site as u16), class, procs.add, args));
    }
    cluster.schedule_crash(crash_at, SiteId::new(0));
    cluster.schedule_recover(
        crash_at + SimDuration::from_millis(50),
        SiteId::new(0),
        SiteId::new(1),
    );
    cluster.run_until(SimTime::from_secs(120));

    let label = format!("crash at +{} us", offset.as_micros());
    let stats = cluster.stats();
    assert!(cluster.is_live(SiteId::new(0)), "{label}: the sequencer is back");
    let report = cluster.check_invariants(&[]);
    assert!(report.is_ok(), "{label}: {report}");
    // Completion counts at the home site. (A home that gets its own
    // transaction only by state transfer never commits it, so never
    // counts it: one crash instant below loses one completion that way,
    // before and after entries were released alike.)
    assert!(stats.completed + 1 >= n, "{label}: {} completed", stats.completed);
    assert_eq!(stats.completed, cluster.txn_outputs.len() as u64, "{label}: counted once");
    assert!(cluster.txn_outputs.keys().all(|id| ids.contains(id)), "{label}");
    assert_eq!(stats.commit_latency.len() as u64, stats.completed, "{label}: one sample each");
    // A completion entry is either released — with its one group-wide
    // sample — or still held because a member never commits it (what the
    // restored site received by state transfer): never both, never twice.
    let held: i64 = (0..sites).map(|s| gauge(&cluster, "pending_completions", s)).sum();
    assert_eq!(stats.global_commit_latency.len() as i64 + held, n as i64, "{label}");
}

#[test]
fn history_log_round_trips_the_pushed_records() {
    let id = |seq| TxnId::new(SiteId::new(3), seq);
    let o = ObjectId::new;
    // (id, position, reads, writes): updates, a query, empty sets.
    let records = vec![
        (id(0), 2, vec![o(0, 1)], vec![o(0, 1)]),
        (id(1), 5, vec![o(0, 1), o(1, 2), o(2, 3)], vec![]),
        (id(2), 4, vec![], vec![o(1, 7), o(1, 8)]),
        (id(3), 6, vec![], vec![]),
        (id(4), 8, vec![o(4, 4)], vec![o(4, 4), o(4, 5)]),
    ];
    let mut log = HistoryLog::new();
    assert!(log.is_empty());
    for (id, position, reads, writes) in &records {
        log.push(*id, *position, reads.iter().copied(), writes.iter().copied());
    }
    assert_eq!(log.len(), records.len());
    let rebuilt: Vec<_> =
        log.to_vec().into_iter().map(|t| (t.id, t.position, t.reads, t.writes)).collect();
    assert_eq!(rebuilt, records);
}

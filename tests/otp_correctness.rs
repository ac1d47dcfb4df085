//! End-to-end correctness of the full stack (network → broadcast →
//! consensus → OTP replica → storage), checking the paper's three
//! correctness results on whole-cluster runs:
//!
//! * Theorem 4.1 (starvation freedom): every TO-delivered transaction
//!   eventually commits — here: every submitted transaction commits at
//!   every site;
//! * Lemma 4.1: conflicting (same-class) transactions commit in the
//!   definitive order at every site;
//! * Theorem 4.2: the union of the local histories is
//!   1-copy-serializable.

use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind};
use otpdb::simnet::{SimDuration, SimTime};
use otpdb::storage::TxnIndex;
use otpdb::txn::history::{check_one_copy_serializable, check_same_committed_set};
use otpdb::txn::txn::TxnId;
use otpdb::workload::{Arrival, ClassSelection, StandardProcs, WorkloadSpec};
use std::collections::HashMap;

fn run_cluster(
    sites: usize,
    classes: usize,
    updates: u64,
    engine: EngineKind,
    seed: u64,
) -> (Cluster, usize) {
    let spec = WorkloadSpec::new(sites, classes, updates)
        .with_arrival(Arrival::Poisson { mean: SimDuration::from_millis(3) })
        .with_seed(seed);
    let (registry, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);
    let config = ClusterConfig::new(sites, classes)
        .with_engine(engine)
        .with_exec_time(DurationDist::Exponential { mean: SimDuration::from_millis(2) })
        .with_seed(seed);
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(spec.initial_data())
        .build();
    let ids = schedule.apply(&mut cluster);
    cluster.run_until(SimTime::from_secs(300));
    (cluster, ids.len())
}

/// Same-class commits must appear in the same relative order at every
/// site, and that order must be the definitive-index order.
fn assert_lemma_4_1(cluster: &Cluster) {
    // Index assignment must agree across sites.
    let mut index_of: HashMap<TxnId, TxnIndex> = HashMap::new();
    for r in &cluster.replicas {
        for (txn, idx) in r.commit_log() {
            if let Some(prev) = index_of.insert(*txn, *idx) {
                assert_eq!(prev, *idx, "{txn} got different definitive indices");
            }
        }
    }
    // Per-site, per-class commit order must be ascending in index.
    for r in &cluster.replicas {
        let mut last_by_class: HashMap<u32, TxnIndex> = HashMap::new();
        for h in r.history() {
            if h.writes.is_empty() {
                continue; // query record
            }
            let class = h.writes[0].class.raw();
            let idx = TxnIndex::new(h.position / 2);
            if let Some(prev) = last_by_class.insert(class, idx) {
                assert!(prev < idx, "class {class}: {prev} committed after {idx}");
            }
        }
    }
}

#[test]
fn otp_full_stack_uniform_load() {
    let engine = EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) };
    let (cluster, submitted) = run_cluster(4, 8, 80, engine, 101);
    let stats = cluster.stats();
    assert_eq!(stats.completed as usize, submitted, "Theorem 4.1: all commit");
    assert!(check_same_committed_set(&cluster.committed_ids()).is_ok());
    assert_lemma_4_1(&cluster);
    check_one_copy_serializable(&cluster.histories()).unwrap();
    assert!(cluster.converged());
}

#[test]
fn otp_full_stack_sequencer_engine() {
    let (cluster, submitted) =
        run_cluster(3, 4, 60, EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }, 103);
    assert_eq!(cluster.stats().completed as usize, submitted);
    assert_lemma_4_1(&cluster);
    check_one_copy_serializable(&cluster.histories()).unwrap();
    assert!(cluster.converged());
}

#[test]
fn otp_full_stack_high_mismatch() {
    let engine = EngineKind::Scrambled {
        agreement_delay: SimDuration::from_millis(5),
        swap_probability: 0.5,
    };
    let (cluster, submitted) = run_cluster(4, 2, 100, engine, 107);
    let stats = cluster.stats();
    assert_eq!(stats.completed as usize, submitted, "even 50% mismatch commits all");
    assert!(stats.counters.get("abort") + stats.counters.get("reorder") > 0);
    assert_lemma_4_1(&cluster);
    check_one_copy_serializable(&cluster.histories()).unwrap();
    assert!(cluster.converged());
}

#[test]
fn single_class_fully_serial() {
    // One conflict class: the system degrades to a fully serial database;
    // everything still commits, in identical order everywhere.
    let engine = EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) };
    let (cluster, submitted) = run_cluster(3, 1, 40, engine, 109);
    assert_eq!(cluster.stats().completed as usize, submitted);
    let logs = cluster.committed_ids();
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    assert!(cluster.converged());
}

#[test]
fn zipf_skewed_load_survives() {
    let spec = WorkloadSpec::new(4, 16, 120)
        .with_selection(ClassSelection::Zipf { exponent: 1.1 })
        .with_arrival(Arrival::Poisson { mean: SimDuration::from_millis(2) })
        .with_seed(113);
    let (registry, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);
    let config = ClusterConfig::new(4, 16)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
        .with_seed(113);
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(spec.initial_data())
        .build();
    let ids = schedule.apply(&mut cluster);
    cluster.run_until(SimTime::from_secs(300));
    assert_eq!(cluster.stats().completed as usize, ids.len());
    check_one_copy_serializable(&cluster.histories()).unwrap();
    assert!(cluster.converged());
}

#[test]
fn deterministic_replay() {
    // Two identical runs must produce byte-identical commit logs.
    let engine = EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) };
    let (a, _) = run_cluster(4, 4, 50, engine, 127);
    let (b, _) = run_cluster(4, 4, 50, engine, 127);
    assert_eq!(a.committed_ids(), b.committed_ids());
    assert_eq!(
        a.stats().commit_latency.clone().quantile(0.5),
        b.stats().commit_latency.clone().quantile(0.5)
    );
}

#[test]
fn outputs_returned_to_origin() {
    // Procedure outputs reach the origin site's client.
    let spec = WorkloadSpec::new(2, 2, 10).with_seed(131);
    let (registry, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);
    let mut cluster = ClusterBuilder::from_config(ClusterConfig::new(2, 2).with_seed(131))
        .registry(registry)
        .initial_data(spec.initial_data())
        .build();
    let ids = schedule.apply(&mut cluster);
    cluster.run_until(SimTime::from_secs(60));
    for id in ids {
        let out = cluster.txn_outputs.get(&id).expect("output recorded");
        assert!(!out.is_empty(), "add emits its result");
    }
    let _ = procs;
}

//! Delivery-quantum coverage: the zero-quantum path must reproduce the
//! pre-quantum driver schedule byte-for-byte, a positive quantum must
//! actually coalesce (fewer agreement frames per commit), and fault events
//! landing inside an open window must fence it — deliveries that
//! physically arrived before the fault are handed over before the fault
//! takes effect.
//!
//! See DESIGN.md §8 for the quantum model and the fencing rules.

use otp_bench::perf::{run_perf_cell_with_quantum, PerfCell, PERF_SEED, PERF_TXNS};
use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig};
use otpdb::simnet::nemesis::{NemesisEvent, NemesisSchedule};
use otpdb::simnet::{SimDuration, SimTime, SiteId};
use otpdb::storage::{ClassId, ObjectId, Value};
use otpdb::txn::history::check_one_copy_serializable;
use otpdb::workload::StandardProcs;

/// The zero-quantum pin: with `delivery_quantum = 0` the driver must
/// reproduce the schedule the pre-quantum driver produced, byte for byte.
/// The `seq-otp-tpcb` values are the PR-4-era `BENCH_BASELINE.json` entries
/// for that cell, frozen here as literals — if they move, the zero-quantum
/// path (or one of the flamegraph refactors that are supposed to be
/// schedule-neutral) changed simulated behavior. The `opt-otp-uniform`
/// values were re-recorded once, deliberately, when the optimistic engine
/// learnt to decide an instance in one step (PR 16: proposals go to every
/// member and double as votes, decisions are no longer relayed — the
/// engine's schedule changed, the driver's did not, which the untouched
/// `seq` half shows). Deliberate schedule changes must update both this
/// pin and the baseline, and say so.
#[test]
fn zero_quantum_reproduces_the_pre_quantum_schedule() {
    let cell: PerfCell = "opt-otp-uniform".parse().unwrap();
    let m = run_perf_cell_with_quantum(&cell, PERF_TXNS, PERF_SEED, SimDuration::ZERO);
    assert_eq!(m.completed, 240);
    assert_eq!(m.p50_commit_ns, 2_870_591);
    assert_eq!(m.p99_commit_ns, 4_814_291);
    assert_eq!(m.sim_duration_ns, 173_053_437);
    assert!((m.msgs_per_commit - 4.525).abs() < 5e-5, "{}", m.msgs_per_commit);

    let cell: PerfCell = "seq-otp-tpcb".parse().unwrap();
    let m = run_perf_cell_with_quantum(&cell, PERF_TXNS, PERF_SEED, SimDuration::ZERO);
    assert_eq!(m.completed, 240);
    assert_eq!(m.p50_commit_ns, 1_471_068);
    assert_eq!(m.p99_commit_ns, 2_921_074);
    assert_eq!(m.sim_duration_ns, 124_119_407);
    assert!((m.msgs_per_commit - 1.8125).abs() < 5e-5, "{}", m.msgs_per_commit);
}

/// A positive quantum coalesces arrivals into bigger engine batches: the
/// optimistic engine proposes bigger consensus batches, so the agreement
/// traffic per commit drops. Both runs must still commit everything.
#[test]
fn quantum_coalescing_cuts_agreement_frames_per_commit() {
    let cell: PerfCell = "opt-otp-uniform".parse().unwrap();
    let zero = run_perf_cell_with_quantum(&cell, 60, PERF_SEED, SimDuration::ZERO);
    let coalesced = run_perf_cell_with_quantum(&cell, 60, PERF_SEED, SimDuration::from_micros(250));
    assert_eq!(zero.completed, 60);
    assert_eq!(coalesced.completed, 60, "the quantum must not lose transactions");
    assert!(
        coalesced.msgs_per_commit < zero.msgs_per_commit,
        "coalescing must cut frames/commit: {} !< {}",
        coalesced.msgs_per_commit,
        zero.msgs_per_commit
    );
}

fn quantum_cluster(quantum: SimDuration, seed: u64) -> Cluster {
    let (registry, _) = StandardProcs::registry();
    let config = ClusterConfig::new(4, 2).with_delivery_quantum(quantum).with_seed(seed);
    ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(vec![(ObjectId::new(0, 0), Value::Int(0))])
        .build()
}

fn one_update(cluster: &mut Cluster, at: SimTime, site: SiteId) -> otpdb::txn::txn::TxnId {
    let (_, procs) = StandardProcs::registry();
    cluster.schedule_update(
        at,
        site,
        ClassId::new(0),
        procs.add,
        vec![Value::Int(0), Value::Int(1)],
    )
}

/// A crash landing inside an open quantum fences it: the wires that
/// arrived before the crash are delivered *at the crash instant*, at every
/// site — observable as Opt-deliveries that happen although each site's
/// 5 ms window would otherwise stay open well past the crash.
#[test]
fn crash_mid_quantum_fences_open_windows_first() {
    let mut cluster = quantum_cluster(SimDuration::from_millis(5), 7);
    // Data multicast at 1 ms arrives everywhere around 1.3 ms; each site's
    // window would flush only around 6.3 ms.
    one_update(&mut cluster, SimTime::from_millis(1), SiteId::new(0));
    cluster.schedule_crash(SimTime::from_millis(3), SiteId::new(3));
    cluster.run_until(SimTime::from_millis(3));
    for site in 0..4usize {
        assert_eq!(
            cluster.replicas[site].counters().get("opt_deliver"),
            1,
            "site {site}: the fence must hand the arrival over before the crash applies"
        );
    }
    // The run still completes and converges after recovery.
    cluster.schedule_recover(SimTime::from_millis(40), SiteId::new(3), SiteId::new(0));
    cluster.run_until(SimTime::from_secs(120));
    assert_eq!(cluster.stats().completed, 1);
    assert!(cluster.converged());
    check_one_copy_serializable(&cluster.histories()).unwrap();
}

/// A partition landing inside an open quantum fences it the same way: the
/// already-arrived wires are delivered before the cut exists, instead of
/// being mistaken for cross-partition traffic at flush time and held until
/// the heal.
#[test]
fn partition_mid_quantum_fences_open_windows_first() {
    let mut cluster = quantum_cluster(SimDuration::from_millis(5), 11);
    one_update(&mut cluster, SimTime::from_millis(1), SiteId::new(0));
    let schedule = NemesisSchedule::from_events(vec![
        (SimTime::from_millis(3), NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(0)] }),
        (SimTime::from_millis(60), NemesisEvent::Heal),
    ]);
    cluster.schedule_nemesis(&schedule);
    cluster.run_until(SimTime::from_millis(3));
    for site in 0..4usize {
        assert_eq!(
            cluster.replicas[site].counters().get("opt_deliver"),
            1,
            "site {site}: arrivals from before the cut must not be held at it"
        );
    }
    cluster.run_until(SimTime::from_secs(120));
    assert_eq!(cluster.stats().completed, 1, "heal releases the rest");
    assert!(cluster.converged());
    check_one_copy_serializable(&cluster.histories()).unwrap();
}

/// End-to-end quantum run under load: everything commits, all sites
/// converge, the history stays one-copy serializable, and a re-run is
/// deterministic.
#[test]
fn quantum_cluster_is_correct_and_deterministic_under_load() {
    let run = || {
        let mut cluster = quantum_cluster(SimDuration::from_micros(400), 23);
        let mut t = SimTime::from_millis(1);
        for i in 0..40u64 {
            one_update(&mut cluster, t, SiteId::new((i % 4) as u16));
            t += SimDuration::from_micros(700);
        }
        cluster.run_until(SimTime::from_secs(60));
        assert_eq!(cluster.stats().completed, 40);
        assert!(cluster.converged());
        check_one_copy_serializable(&cluster.histories()).unwrap();
        cluster.committed_ids()
    };
    assert_eq!(run(), run(), "same seed, same definitive schedule");
}

//! Fault-tolerance integration tests: crashes, recoveries, lossy links.
//!
//! The model (Section 2): sites fail by crashing and always recover;
//! channels are reliable. These tests crash replicas mid-load, recover
//! them with state transfer, and verify the cluster converges to a single
//! serializable history.

use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind};
use otpdb::simnet::nemesis::{NemesisEvent, NemesisSchedule};
use otpdb::simnet::{NetConfig, SimDuration, SimTime, SiteId};
use otpdb::storage::{ClassId, ProcId, Value};
use otpdb::txn::history::check_one_copy_serializable;
use otpdb::workload::StandardProcs;

fn loaded_cluster(sites: usize, classes: usize, seed: u64) -> Cluster {
    let (registry, _) = StandardProcs::registry();
    let mut initial = Vec::new();
    for c in 0..classes as u32 {
        initial.push((otpdb::storage::ObjectId::new(c, 0), Value::Int(0)));
    }
    let config = ClusterConfig::new(sites, classes)
        .with_engine(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) })
        .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
        .with_seed(seed);
    ClusterBuilder::from_config(config).registry(registry).initial_data(initial).build()
}

/// Submits `n` increments from the first `submit_sites` sites.
fn submit_load(cluster: &mut Cluster, n: u64, submit_sites: usize, classes: usize, from: SimTime) {
    let mut t = from;
    for i in 0..n {
        cluster.schedule_update(
            t,
            SiteId::new((i % submit_sites as u64) as u16),
            ClassId::new((i % classes as u64) as u32),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(1)],
        );
        t += SimDuration::from_millis(2);
    }
}

#[test]
fn each_site_can_crash_and_recover() {
    for victim in 1..4u16 {
        let mut cluster = loaded_cluster(4, 2, 200 + victim as u64);
        submit_load(&mut cluster, 30, 1, 2, SimTime::from_millis(1)); // site 0 submits
        cluster.schedule_crash(SimTime::from_millis(10), SiteId::new(victim));
        cluster.schedule_recover(SimTime::from_millis(150), SiteId::new(victim), SiteId::new(0));
        submit_load(&mut cluster, 10, 1, 2, SimTime::from_millis(200));
        cluster.run_until(SimTime::from_secs(300));
        assert_eq!(cluster.stats().completed, 40, "victim {victim}");
        assert!(cluster.converged(), "victim {victim} converges");
        check_one_copy_serializable(&cluster.histories()).unwrap();
    }
}

#[test]
fn repeated_crash_recover_cycles() {
    let mut cluster = loaded_cluster(4, 2, 211);
    submit_load(&mut cluster, 60, 2, 2, SimTime::from_millis(1));
    // Site 3 bounces twice.
    cluster.schedule_crash(SimTime::from_millis(10), SiteId::new(3));
    cluster.schedule_recover(SimTime::from_millis(60), SiteId::new(3), SiteId::new(0));
    cluster.schedule_crash(SimTime::from_millis(90), SiteId::new(3));
    cluster.schedule_recover(SimTime::from_millis(140), SiteId::new(3), SiteId::new(1));
    cluster.run_until(SimTime::from_secs(300));
    assert_eq!(cluster.stats().completed, 60);
    assert!(cluster.converged());
    check_one_copy_serializable(&cluster.histories()).unwrap();
}

#[test]
fn two_sites_down_simultaneously_in_five() {
    // 5 sites tolerate 2 crashed (majority alive): progress continues.
    let mut cluster = loaded_cluster(5, 2, 223);
    submit_load(&mut cluster, 40, 2, 2, SimTime::from_millis(1));
    cluster.schedule_crash(SimTime::from_millis(5), SiteId::new(3));
    cluster.schedule_crash(SimTime::from_millis(7), SiteId::new(4));
    cluster.schedule_recover(SimTime::from_millis(200), SiteId::new(3), SiteId::new(0));
    cluster.schedule_recover(SimTime::from_millis(260), SiteId::new(4), SiteId::new(1));
    cluster.run_until(SimTime::from_secs(300));
    assert_eq!(cluster.stats().completed, 40);
    assert!(cluster.converged());
}

#[test]
fn lossy_network_delivers_everything() {
    let (registry, _) = StandardProcs::registry();
    let config = ClusterConfig::new(3, 2)
        .with_net(NetConfig::lan_10mbps(3).with_loss(0.08))
        .with_engine(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(80) })
        .with_seed(227);
    let mut cluster = ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(vec![
            (otpdb::storage::ObjectId::new(0, 0), Value::Int(0)),
            (otpdb::storage::ObjectId::new(1, 0), Value::Int(0)),
        ])
        .build();
    submit_load(&mut cluster, 40, 3, 2, SimTime::from_millis(1));
    cluster.run_until(SimTime::from_secs(300));
    assert_eq!(cluster.stats().completed, 40, "retransmissions mask loss");
    assert!(cluster.converged());
    check_one_copy_serializable(&cluster.histories()).unwrap();
}

#[test]
fn crash_before_any_traffic() {
    // A site that crashes before the first message and recovers later
    // must still end up with the full state.
    let mut cluster = loaded_cluster(4, 2, 229);
    cluster.schedule_crash(SimTime::from_micros(100), SiteId::new(2));
    submit_load(&mut cluster, 20, 2, 2, SimTime::from_millis(1));
    cluster.schedule_recover(SimTime::from_millis(300), SiteId::new(2), SiteId::new(0));
    cluster.run_until(SimTime::from_secs(300));
    assert_eq!(cluster.stats().completed, 20);
    assert!(cluster.converged());
}

#[test]
fn partition_during_recovery_heals() {
    // Regression for the nemesis-driven recovery path: site 3 crashes, and
    // while it is being recovered its state-transfer donor (site 0) is cut
    // off from the majority — the donor pair {0, 3} sits in a minority
    // partition for the whole transfer and its catch-up replay. After the
    // heal, the cluster must converge to one serializable history and keep
    // committing.
    let mut cluster = loaded_cluster(4, 2, 239);
    submit_load(&mut cluster, 30, 2, 2, SimTime::from_millis(1)); // sites 0, 1
    let schedule = NemesisSchedule::from_events(vec![
        (SimTime::from_millis(5), NemesisEvent::Crash { site: SiteId::new(3) }),
        // The cut starts before the recovery and outlives it: the donor is
        // partitioned mid-transfer.
        (
            SimTime::from_millis(40),
            NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(0), SiteId::new(3)] },
        ),
        // Nemesis recovery picks the first live site as donor — site 0.
        (SimTime::from_millis(45), NemesisEvent::Recover { site: SiteId::new(3) }),
        (SimTime::from_millis(160), NemesisEvent::Heal),
    ]);
    cluster.schedule_nemesis(&schedule);
    // Liveness probes after the heal, one per site.
    let mut probes = Vec::new();
    for s in 0..4u16 {
        probes.push(cluster.schedule_update(
            SimTime::from_millis(400),
            SiteId::new(s),
            ClassId::new((s % 2) as u32),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(1)],
        ));
    }
    cluster.run_until(SimTime::from_secs(300));
    assert_eq!(cluster.stats().completed, 34, "load + probes all commit");
    assert!(cluster.converged(), "recovered site matches after the heal");
    check_one_copy_serializable(&cluster.histories()).unwrap();
    let report = cluster.check_invariants(&probes);
    assert!(report.is_ok(), "{report}");
}

/// Two recovery rounds racing for the **same** site. Before the
/// supersession rule the driver serialized them (the second was silently
/// dropped while the first was still collecting digests); now the newer
/// epoch wins: the older round aborts explicitly (`view_supersede`), its
/// late digests land as `stale_view_digest`s, and the cluster converges on
/// the newest view.
#[test]
fn racing_recovery_rounds_for_one_site_supersede() {
    for engine in [
        EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) },
        EngineKind::SequencerBatched { order_delay: SimDuration::ZERO },
    ] {
        let (registry, _) = StandardProcs::registry();
        let mut initial = Vec::new();
        for c in 0..2u32 {
            initial.push((otpdb::storage::ObjectId::new(c, 0), Value::Int(0)));
        }
        let config = ClusterConfig::new(4, 2)
            .with_engine(engine)
            .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
            .with_seed(311);
        let mut cluster =
            ClusterBuilder::from_config(config).registry(registry).initial_data(initial).build();
        submit_load(&mut cluster, 20, 3, 2, SimTime::from_millis(1));
        cluster.schedule_crash(SimTime::from_millis(10), SiteId::new(3));
        // Round 1 starts at 150 ms; round 2 races it 100 µs later, while
        // round 1's digests are still on the wire.
        cluster.schedule_recover(SimTime::from_millis(150), SiteId::new(3), SiteId::new(0));
        cluster.schedule_recover(
            SimTime::from_millis(150) + SimDuration::from_micros(100),
            SiteId::new(3),
            SiteId::new(1),
        );
        // Load after the dust settles proves the re-admitted site serves.
        submit_load(&mut cluster, 8, 3, 2, SimTime::from_millis(400));
        cluster.run_until(SimTime::from_secs(300));
        let stats = cluster.stats();
        assert_eq!(
            stats.counters.get("view_supersede"),
            1,
            "{engine:?}: the older round must abort explicitly"
        );
        assert!(
            stats.counters.get("stale_view_digest") >= 1,
            "{engine:?}: round 1's digests answer a dead round"
        );
        assert_eq!(cluster.current_view().id.0, 2, "{engine:?}: the superseding epoch installs");
        assert_eq!(cluster.current_view().len(), 4, "{engine:?}: everyone live again");
        assert!(cluster.is_live(SiteId::new(3)), "{engine:?}");
        assert_eq!(stats.completed, 28, "{engine:?}: all load commits");
        assert!(cluster.converged(), "{engine:?}");
        check_one_copy_serializable(&cluster.histories()).unwrap();
        let report = cluster.check_invariants(&[]);
        assert!(report.is_ok(), "{engine:?}: {report}");
    }
}

#[test]
fn recovered_site_serves_consistent_queries() {
    let mut cluster = loaded_cluster(4, 2, 233);
    submit_load(&mut cluster, 30, 2, 2, SimTime::from_millis(1));
    cluster.schedule_crash(SimTime::from_millis(10), SiteId::new(3));
    cluster.schedule_recover(SimTime::from_millis(150), SiteId::new(3), SiteId::new(0));
    // Queries at the recovered site after recovery.
    for q in 0..5u64 {
        cluster.schedule_query(
            SimTime::from_millis(200 + q * 10),
            SiteId::new(3),
            vec![otpdb::storage::ObjectId::new(0, 0), otpdb::storage::ObjectId::new(1, 0)],
        );
    }
    cluster.run_until(SimTime::from_secs(300));
    assert!(cluster.converged());
    check_one_copy_serializable(&cluster.histories()).unwrap();
    assert_eq!(cluster.query_results.len(), 5);
}

//! View-change recovery integration tests: the subsystem closes the
//! single-donor divergence window at the cluster level.
//!
//! The window (ROADMAP, pre-fix): the batched sequencer multicasts an
//! order-assignment window and crashes while the frames are still in
//! flight — some live sites already applied them, the donor did not, and
//! no hold buffer has them. Restoring from the donor alone renumbers,
//! binding one sequence number to two different messages across sites
//! (14 of the 120 scan points below diverged under that path before it
//! was deleted; `crates/view/tests/union_recovery.rs` still drives the
//! engines through it). The scan drives a grid of (seed × crash instant)
//! through the view-change round, which must survive *every* point.

use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind};
use otpdb::simnet::{SimDuration, SimTime, SiteId};
use otpdb::storage::{ClassId, ObjectId, ProcId, Value};
use otpdb::txn::txn::TxnId;
use otpdb::view::ViewId;
use otpdb::workload::StandardProcs;

const ORDER_WINDOW: SimDuration = SimDuration::from_micros(250);

/// A 4-site, 2-class cluster over `engine` with 1 ms executions.
fn cluster_over(engine: EngineKind, seed: u64) -> Cluster {
    let (registry, _) = StandardProcs::registry();
    let config = ClusterConfig::new(4, 2)
        .with_engine(engine)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
        .with_seed(seed);
    ClusterBuilder::from_config(config)
        .registry(registry)
        .initial_data(vec![
            (ObjectId::new(0, 0), Value::Int(0)),
            (ObjectId::new(1, 0), Value::Int(0)),
        ])
        .build()
}

/// Schedules `n` increments `spacing` apart from 1 ms on, round-robin over
/// the first `submitters` non-sequencer sites (a crash of site 0 loses no
/// client) and over both classes.
fn schedule_load(cluster: &mut Cluster, n: u64, submitters: u64, spacing: SimDuration) {
    let mut t = SimTime::from_millis(1);
    for i in 0..n {
        cluster.schedule_update(
            t,
            SiteId::new((1 + i % submitters) as u16),
            ClassId::new((i % 2) as u32),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(1)],
        );
        t += spacing;
    }
}

/// A batched-sequencer cluster with a burst of updates from the
/// non-sequencer sites — the workload that keeps assignment windows and
/// order frames in flight around the crash instants the scan probes.
fn seqbatch_cluster(seed: u64) -> Cluster {
    let mut cluster =
        cluster_over(EngineKind::SequencerBatched { order_delay: ORDER_WINDOW }, seed);
    schedule_load(&mut cluster, 8, 3, SimDuration::from_micros(300));
    cluster
}

/// A plain-sequencer cluster under steady load from sites 1 and 2.
fn sequencer_cluster(seed: u64) -> Cluster {
    let mut cluster =
        cluster_over(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }, seed);
    schedule_load(&mut cluster, 40, 2, SimDuration::from_millis(2));
    cluster
}

/// Liveness probes at `at`, one per site.
fn schedule_probes_at(cluster: &mut Cluster, at: SimTime) -> Vec<TxnId> {
    (0..4u16)
        .map(|s| {
            cluster.schedule_update(
                at,
                SiteId::new(s),
                ClassId::new((s % 2) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            )
        })
        .collect()
}

/// Post-recovery liveness probes, one per site.
fn schedule_probes(cluster: &mut Cluster) -> Vec<TxnId> {
    schedule_probes_at(cluster, SimTime::from_millis(120))
}

/// Runs one scan point: crash the sequencer at `crash_us`, recover it
/// through the view-change round 10 µs later, and report whether every
/// invariant held.
fn scan_point(seed: u64, crash_us: u64) -> bool {
    let mut c = seqbatch_cluster(seed);
    let crash_at = SimTime::from_micros(crash_us);
    c.schedule_crash(crash_at, SiteId::new(0));
    c.schedule_recover(crash_at + SimDuration::from_micros(10), SiteId::new(0), SiteId::new(1));
    let probes = schedule_probes(&mut c);
    c.run_until(SimTime::from_secs(120));
    c.check_invariants(&probes).is_ok() && c.converged()
}

/// The scan grid: crash instants straddling the order-frame flight times
/// of the first few assignment windows.
const CRASH_GRID_US: [u64; 5] = [1350, 1500, 1650, 1850, 2100];

#[test]
fn view_change_survives_the_single_donor_divergence_scan() {
    for seed in 0..24 {
        for crash_us in CRASH_GRID_US {
            assert!(scan_point(seed, crash_us), "seed {seed} crash {crash_us}us");
        }
    }
}

/// Two rounds overlap across a partition (found in review): round A
/// (epoch 1) stalls waiting for the partitioned site 1's digest while
/// round B (epoch 2) starts — its announcement is invisible to the
/// still-recovering initiator of A. Both complete at the heal; whatever
/// order they complete in, the cluster view must end monotonic at v2 and
/// no live site may be left on a superseded epoch.
#[test]
fn overlapping_rounds_resolve_to_the_newest_view() {
    use otpdb::simnet::nemesis::{NemesisEvent, NemesisSchedule};
    for engine in [
        EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) },
        EngineKind::SequencerBatched { order_delay: ORDER_WINDOW },
    ] {
        let mut c = cluster_over(engine, 53);
        let schedule = NemesisSchedule::from_events(vec![
            (
                SimTime::from_millis(5),
                NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(1)] },
            ),
            (SimTime::from_millis(8), NemesisEvent::Crash { site: SiteId::new(0) }),
            // Round A (epoch 1): donor hint is chosen at event time among
            // live sites; its expected set includes partitioned site 1, so
            // the round can only complete at the heal.
            (SimTime::from_millis(10), NemesisEvent::Recover { site: SiteId::new(0) }),
            (SimTime::from_millis(12), NemesisEvent::Crash { site: SiteId::new(3) }),
            // Round B (epoch 2) starts while A is still collecting.
            (SimTime::from_millis(14), NemesisEvent::Recover { site: SiteId::new(3) }),
            (SimTime::from_millis(30), NemesisEvent::Heal),
        ]);
        c.schedule_nemesis(&schedule);
        let probes = schedule_probes(&mut c);
        c.run_until(SimTime::from_secs(120));
        assert_eq!(c.current_view().id, ViewId(2), "{engine:?}: newest view wins");
        assert_eq!(c.current_view().len(), 4, "{engine:?}");
        let report = c.check_invariants(&probes);
        assert!(report.is_ok(), "{engine:?}: {report}");
        assert!(c.converged(), "{engine:?}");
    }
}

/// The round itself is observable: recovery installs a fresh view at every
/// site and the recovered site serves probes under it.
#[test]
fn recovery_installs_a_fresh_view_and_serves() {
    for engine in [
        EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) },
        EngineKind::SequencerBatched { order_delay: SimDuration::ZERO },
        EngineKind::SequencerBatched { order_delay: ORDER_WINDOW },
        EngineKind::Scrambled {
            agreement_delay: SimDuration::from_millis(3),
            swap_probability: 0.0,
        },
    ] {
        let mut c = cluster_over(engine, 31);
        schedule_load(&mut c, 12, 3, SimDuration::from_millis(1));
        c.schedule_crash(SimTime::from_millis(5), SiteId::new(0));
        c.schedule_recover(SimTime::from_millis(40), SiteId::new(0), SiteId::new(1));
        let probes = schedule_probes(&mut c);
        c.run_until(SimTime::from_secs(120));
        assert_eq!(c.current_view().id, ViewId(1), "{engine:?}: one view installed");
        assert_eq!(c.current_view().len(), 4, "{engine:?}: everyone is a member again");
        let report = c.check_invariants(&probes);
        assert!(report.is_ok(), "{engine:?}: {report}");
        assert!(c.converged(), "{engine:?}");
    }
}

/// A floor message that outlives its round: a partition cuts site 1 off
/// between the two phases of the sequencer's recovery round, the
/// sequencer dies again and re-proposes under the next epoch, and the
/// heal releases the dead round's floor (or site 1's summary for it,
/// depending on where the cut lands). Nobody waits for that reply any
/// more: it is counted as `stale_view_digest`, never answered with state,
/// and the newer round installs.
#[test]
fn floor_of_a_dead_round_is_counted_stale_not_answered() {
    use otpdb::simnet::nemesis::{NemesisEvent, NemesisSchedule};
    for cut_after_us in (100..=1500).step_by(100) {
        let mut c = sequencer_cluster(71);
        let seq = SiteId::new(0);
        let recover_at = SimTime::from_millis(40);
        let schedule = NemesisSchedule::from_events(vec![
            (SimTime::from_millis(20), NemesisEvent::Crash { site: seq }),
            (recover_at, NemesisEvent::Recover { site: seq }),
            (
                recover_at + SimDuration::from_micros(cut_after_us),
                NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(1)] },
            ),
            (SimTime::from_millis(45), NemesisEvent::Crash { site: seq }),
            (SimTime::from_millis(50), NemesisEvent::Recover { site: seq }),
            (SimTime::from_millis(70), NemesisEvent::Heal),
        ]);
        c.schedule_nemesis(&schedule);
        let probes = schedule_probes(&mut c);
        c.run_until(SimTime::from_secs(120));
        let stats = c.stats();
        assert!(
            stats.counters.get("stale_view_digest") >= 1,
            "cut {cut_after_us}us: the dead round's held message is counted"
        );
        assert_eq!(c.current_view().len(), 4, "cut {cut_after_us}us");
        let report = c.check_invariants(&probes);
        assert!(report.is_ok(), "cut {cut_after_us}us: {report}");
        assert!(c.converged(), "cut {cut_after_us}us");
    }
}

/// The digests of a round are cut above its floor, so the base they are
/// merged into must have delivered at least that much. Every member that
/// summarised has — unless all of them die before the install: site 3
/// recovers after a long outage, and sites 0–2 crash in a burst inside its
/// round. When the burst lands after the floor went out, the only base
/// left is site 3's own pre-crash state, shorter than the floor: the round
/// must start over (`view_supersede`) instead of installing digests it
/// cannot complete. Whatever the burst's timing, the cluster recovers.
#[test]
fn round_whose_summarisers_all_died_starts_over() {
    use otpdb::simnet::nemesis::{NemesisEvent, NemesisSchedule};
    let mut restarted = 0;
    for burst_after_us in (400..=2000).step_by(200) {
        let mut c = sequencer_cluster(72);
        let at = |us: u64| SimTime::from_millis(100) + SimDuration::from_micros(us);
        let schedule = NemesisSchedule::from_events(vec![
            (SimTime::from_millis(10), NemesisEvent::Crash { site: SiteId::new(3) }),
            (at(0), NemesisEvent::Recover { site: SiteId::new(3) }),
            (at(burst_after_us), NemesisEvent::Crash { site: SiteId::new(0) }),
            (at(burst_after_us + 10), NemesisEvent::Crash { site: SiteId::new(1) }),
            (at(burst_after_us + 20), NemesisEvent::Crash { site: SiteId::new(2) }),
            (SimTime::from_millis(150), NemesisEvent::Recover { site: SiteId::new(0) }),
            (SimTime::from_millis(160), NemesisEvent::Recover { site: SiteId::new(1) }),
            (SimTime::from_millis(170), NemesisEvent::Recover { site: SiteId::new(2) }),
        ]);
        c.schedule_nemesis(&schedule);
        let probes = schedule_probes_at(&mut c, SimTime::from_millis(400));
        c.run_until(SimTime::from_secs(120));
        restarted += c.stats().counters.get("view_supersede");
        assert_eq!(c.current_view().len(), 4, "burst {burst_after_us}us");
        let report = c.check_invariants(&probes);
        assert!(report.is_ok(), "burst {burst_after_us}us: {report}");
        assert!(c.converged(), "burst {burst_after_us}us");
    }
    assert!(restarted >= 1, "some burst must land between the floor and the last digest");
}

//! Sharded sequencing groups, end to end: a disjoint workload never
//! crosses a group boundary, cross-group transactions serialize
//! identically at every site across a seed sweep, and a group-sequencer
//! crash (plus its view-change recovery) stays contained in its own
//! group.
//!
//! See DESIGN.md §11 for the OrderDomain model and the relay-stream
//! protocol these tests pin down.

use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, EngineKind};
use otpdb::simnet::{SimDuration, SimTime, SiteId};
use otpdb::storage::{ClassId, ObjectId, ProcId, Value};
use otpdb::txn::txn::TxnId;
use otpdb::workload::StandardProcs;

/// A sharded sequencer cluster: `sites` sites split evenly into
/// `groups` ordering groups, classes round-robined across groups, one
/// zeroed object per class.
fn sharded_cluster(sites: usize, classes: usize, groups: usize, seed: u64) -> (Cluster, ProcId) {
    let (registry, procs) = StandardProcs::registry();
    let config = ClusterConfig::new(sites, classes)
        .with_engine(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO })
        .with_groups(groups)
        .with_seed(seed);
    let data = (0..classes).map(|c| (ObjectId::new(c as u32, 0), Value::Int(0))).collect();
    let cluster = ClusterBuilder::from_config(config).registry(registry).initial_data(data).build();
    (cluster, procs.add)
}

/// With every update addressed to a site of its class's own group, the
/// sharded cluster exchanges no cross-group frames at all: each group
/// runs its stream in complete isolation.
#[test]
fn disjoint_workload_crosses_no_group_boundary() {
    // 8 sites, 4 groups of 2; classes 0..4 round-robin onto the groups.
    let (mut cluster, add) = sharded_cluster(8, 4, 4, 11);
    let mut t = SimTime::from_millis(1);
    for i in 0..40u64 {
        let group = (i % 4) as usize;
        let site = SiteId::new((group * 2 + (i as usize / 4 % 2)) as u16);
        cluster.schedule_update(
            t,
            site,
            ClassId::new(group as u32),
            add,
            vec![Value::Int(0), Value::Int(1)],
        );
        t += SimDuration::from_micros(700);
    }
    cluster.run_until(SimTime::from_secs(60));
    let stats = cluster.stats();
    assert_eq!(stats.completed, 40);
    assert_eq!(
        cluster.cross_group_frames(),
        0,
        "a group-local workload must never touch the relay or a gateway"
    );
    assert!(cluster.converged());
    let report = cluster.check_invariants(&[]);
    assert!(report.is_ok(), "{report}");
    // 10 adds of +1 per class, visible at that group's sites.
    for group in 0..4usize {
        let member = SiteId::new((group * 2) as u16);
        assert_eq!(
            cluster.replicas[member.index()].db().read_committed(ObjectId::new(group as u32, 0)),
            Some(&Value::Int(10)),
            "group {group}"
        );
    }
}

/// The relay stream gives cross-group transactions one definitive
/// serialization: across a 24-seed sweep, every site commits the cross
/// transactions it participates in — in both groups — in the same
/// relative order, interleaved with single-group traffic.
#[test]
fn cross_group_serialization_is_identical_at_every_site_across_seeds() {
    for seed in 0..24u64 {
        let (mut cluster, add) = sharded_cluster(4, 2, 2, 1000 + seed);
        // Single-group background traffic in both groups.
        let mut t = SimTime::from_millis(1);
        for i in 0..12u64 {
            let (site, class) = if i % 2 == 0 {
                (SiteId::new((i / 2 % 2) as u16), ClassId::new(0))
            } else {
                (SiteId::new((2 + i / 2 % 2) as u16), ClassId::new(1))
            };
            cluster.schedule_update(t, site, class, add, vec![Value::Int(0), Value::Int(1)]);
            t += SimDuration::from_micros(900);
        }
        // Six cross-group updates racing from alternating origins.
        let mut sub_cross: Vec<(TxnId, usize)> = Vec::new();
        let mut ct = SimTime::from_micros(1500);
        for k in 0..6usize {
            let ids = cluster.schedule_cross_update(
                ct,
                SiteId::new((k % 4) as u16),
                vec![
                    (ClassId::new(0), add, vec![Value::Int(0), Value::Int(100)]),
                    (ClassId::new(1), add, vec![Value::Int(0), Value::Int(100)]),
                ],
            );
            sub_cross.extend(ids.into_iter().map(|id| (id, k)));
            ct += SimDuration::from_micros(1100);
        }
        cluster.run_until(SimTime::from_secs(120));
        let stats = cluster.stats();
        assert_eq!(stats.completed, 12 + 12, "seed {seed}: 12 singles + 6 cross × 2 subs");
        assert!(cluster.converged(), "seed {seed}");
        let report = cluster.check_invariants(&[]);
        assert!(report.is_ok(), "seed {seed}: {report}");
        // Every site sees the six cross transactions in one order —
        // whichever group's sub-transaction it committed.
        let orders: Vec<Vec<usize>> = cluster
            .committed_ids()
            .into_iter()
            .map(|site_log| {
                site_log
                    .into_iter()
                    .filter_map(|id| sub_cross.iter().find(|(sub, _)| *sub == id).map(|(_, k)| *k))
                    .collect()
            })
            .collect();
        for (s, order) in orders.iter().enumerate() {
            assert_eq!(order.len(), 6, "seed {seed}: site {s} commits every cross txn once");
            assert_eq!(
                order, &orders[0],
                "seed {seed}: site {s} serialized the cross txns differently"
            );
        }
    }
}

/// A group-sequencer crash stalls only its own group: the other group
/// keeps committing while the sequencer is down, and the view change
/// that re-admits it runs among the crashed group's members alone.
#[test]
fn group_sequencer_crash_and_recovery_stay_inside_the_group() {
    // 8 sites, 2 groups of 4: sites 0–3 order class 0 (sequencer 0),
    // sites 4–7 order class 1 (sequencer 4).
    let (mut cluster, add) = sharded_cluster(8, 2, 2, 31);
    let submit_pair = |cluster: &mut Cluster, t: SimTime, i: u64| {
        cluster.schedule_update(
            t,
            SiteId::new((1 + i % 3) as u16), // group 0, never the sequencer
            ClassId::new(0),
            add,
            vec![Value::Int(0), Value::Int(1)],
        );
        cluster.schedule_update(
            t,
            SiteId::new((4 + i % 4) as u16), // group 1
            ClassId::new(1),
            add,
            vec![Value::Int(0), Value::Int(1)],
        );
    };
    // Phase 1: both groups healthy.
    for i in 0..5u64 {
        submit_pair(&mut cluster, SimTime::from_millis(1 + i), i);
    }
    // Phase 2: group 0's sequencer is down; submissions keep flowing.
    cluster.schedule_crash(SimTime::from_millis(40), SiteId::new(0));
    for i in 0..5u64 {
        submit_pair(&mut cluster, SimTime::from_millis(60 + i), i);
    }
    cluster.run_until(SimTime::from_millis(200));
    let mid = cluster.stats();
    assert_eq!(
        mid.counters.get("view_install"),
        0,
        "no view change ran yet — the crash alone must not disturb any group"
    );
    // Group 1 committed all 10 of its updates; group 0 is stalled on its
    // dead sequencer with only the pre-crash 5 through.
    let g1 = cluster.replicas[4].db().read_committed(ObjectId::new(1, 0));
    assert_eq!(g1, Some(&Value::Int(10)), "group 1 never notices group 0's crash");
    let g0 = cluster.replicas[1].db().read_committed(ObjectId::new(0, 0));
    assert_eq!(g0, Some(&Value::Int(5)), "group 0 is stalled behind its dead sequencer");

    // Phase 3: the sequencer recovers; its view change re-admits it and
    // releases the stalled orders.
    cluster.schedule_recover(SimTime::from_millis(250), SiteId::new(0), SiteId::new(1));
    cluster.run_until(SimTime::from_secs(60));
    let stats = cluster.stats();
    assert_eq!(stats.completed, 20);
    assert!(cluster.converged());
    let report = cluster.check_invariants(&[]);
    assert!(report.is_ok(), "{report}");
    assert_eq!(
        stats.counters.get("view_install"),
        4,
        "one view, installed by the four members of group 0 — group 1 installs nothing"
    );
}

/// A member of one group crashes and recovers while cross-group
/// transactions keep arriving — before the crash, while it is down, while
/// its view-change rounds run and after it serves again. Its recovery
/// installs the relay domain from the base's engine snapshot alone and
/// folds the relay tail it skipped by reading the descriptors from the
/// restored relay engine: every cross transaction still commits in both
/// groups, at every member, once.
#[test]
fn cross_group_transactions_commit_across_a_member_crash_and_recovery() {
    // 6 sites, 2 groups of 3: sites 0–2 order class 0, sites 3–5 class 1;
    // every site is a relay member. Site 1 crashes and recovers.
    let (mut cluster, add) = sharded_cluster(6, 2, 2, 47);
    let crashed = SiteId::new(1);
    let (crash_at, recover_at) = (SimTime::from_millis(30), SimTime::from_millis(90));
    cluster.schedule_crash(crash_at, crashed);
    cluster.schedule_recover(recover_at, crashed, SiteId::new(0));
    let mut subs: Vec<Vec<TxnId>> = Vec::new();
    let mut singles = 0u64;
    let starts = [1, 40, 90, 150].map(SimTime::from_millis);
    for (phase, start) in starts.into_iter().enumerate() {
        for k in 0..6u64 {
            let at = start + SimDuration::from_micros(700 * k);
            // Live origins only: site 1 is down from the crash on.
            let origin = SiteId::new([0, 2, 3, 4, 5][(k as usize + phase) % 5]);
            let parts = [0, 1].map(|c| (ClassId::new(c), add, vec![Value::Int(0), Value::Int(1)]));
            subs.push(cluster.schedule_cross_update(at, origin, parts.into()));
            let class = ClassId::new((k % 2) as u32);
            let home = SiteId::new(if k % 2 == 0 { 2 } else { 4 });
            cluster.schedule_update(at, home, class, add, vec![Value::Int(0), Value::Int(1)]);
            singles += 1;
        }
    }
    cluster.run_until(SimTime::from_secs(60));
    assert!(cluster.is_live(crashed), "the member serves again");
    let stats = cluster.stats();
    assert_eq!(stats.completed, singles + 2 * subs.len() as u64, "every sub and single commits");
    assert!(stats.counters.get("relay_view_install") > 0, "the relay domain was installed");
    assert!(cluster.converged());
    let report = cluster.check_invariants(&[]);
    assert!(report.is_ok(), "{report}");
    // A member commits its group's sub once and never the other group's;
    // the restored member's log starts at its recovery (what it missed
    // arrived by state transfer, checked through the database below).
    let logs = cluster.committed_ids();
    for (k, pair) in subs.iter().enumerate() {
        assert_eq!(pair.len(), 2, "cross {k} has a sub in each group");
        for (s, log) in logs.iter().enumerate() {
            let count = |sub: TxnId| log.iter().filter(|id| **id == sub).count();
            let (mine, theirs) = (count(pair[s / 3]), count(pair[1 - s / 3]));
            let expected = if s == crashed.index() { mine.min(1) } else { 1 };
            assert_eq!((mine, theirs), (expected, 0), "cross {k} at site {s}");
        }
    }
    // Each group's object took one +1 per single and per cross sub.
    let per_group = singles / 2 + subs.len() as u64;
    for s in 0..6 {
        let class = (s / 3) as u32;
        let v = cluster.replicas[s].db().read_committed(ObjectId::new(class, 0));
        assert_eq!(v, Some(&Value::Int(per_group as i64)), "site {s}");
    }
}

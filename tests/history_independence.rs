//! View-change cost must not depend on uptime (ROADMAP item 3, the
//! state-transfer half): the same sequencer crash after ~200 commits and
//! after ~20 000 commits puts about the same number of digest bytes on the
//! wire and takes about as long to bring the recovered site back to
//! committing. With full-state digests both grew linearly with history —
//! roughly 100× apart on this pair.

use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind};
use otpdb::simnet::{SimDuration, SimTime, SiteId};
use otpdb::storage::{ClassId, ObjectId, Value};
use otpdb::workload::StandardProcs;

const SITES: usize = 5;
const CLASSES: usize = 8;
/// One update every 500 µs (2 000/s), round-robin over the four sites that
/// stay up and over the classes.
const SPACING: SimDuration = SimDuration::from_micros(500);
const DOWNTIME: SimDuration = SimDuration::from_millis(20);
/// Load keeps arriving this long after the recovery starts.
const TAIL: SimDuration = SimDuration::from_millis(200);
const OPT: EngineKind = EngineKind::Opt { consensus_timeout: SimDuration::from_millis(50) };

struct Recovery {
    digest_bytes: u64,
    summary_bytes: u64,
    /// Sequencer crash → first commit at the recovered sequencer site.
    back_after: SimDuration,
}

/// Runs steady load on a 5-site 10 Mbit/s cluster, crashes site 0 (the
/// sequencer, for the sequencer engines) once `commits_before` updates
/// were submitted, recovers it `downtime` later and measures the round;
/// load keeps arriving until `tail` after the recovery started. Every
/// update must commit and the sites must converge.
fn crash_after(
    engine: EngineKind,
    commits_before: u64,
    downtime: SimDuration,
    tail: SimDuration,
) -> Recovery {
    let (registry, procs) = StandardProcs::registry();
    let config = ClusterConfig::new(SITES, CLASSES)
        .with_engine(engine)
        .with_exec_time(DurationDist::Fixed(SimDuration::from_micros(200)))
        .with_seed(7);
    let initial = (0..CLASSES as u32).map(|c| (ObjectId::new(c, 0), Value::Int(0))).collect();
    let mut cluster: Cluster =
        ClusterBuilder::from_config(config).registry(registry).initial_data(initial).build();

    let crash_at =
        SimTime::from_millis(1) + SimDuration::from_nanos(SPACING.as_nanos() * commits_before);
    let recover_at = crash_at + downtime;
    let total = commits_before + (downtime + tail).as_nanos() / SPACING.as_nanos();
    let mut t = SimTime::from_millis(1);
    for i in 0..total {
        cluster.schedule_update(
            t,
            SiteId::new((1 + i % (SITES as u64 - 1)) as u16),
            ClassId::new((i % CLASSES as u64) as u32),
            procs.add,
            vec![Value::Int(0), Value::Int(1)],
        );
        t += SPACING;
    }
    let victim = SiteId::new(0);
    cluster.schedule_crash(crash_at, victim);
    cluster.schedule_recover(recover_at, victim, SiteId::new(1));

    // The restored replica starts with an empty commit log: its first
    // entry is the first transaction the recovered site committed itself.
    cluster.run_until(recover_at);
    let mut now = recover_at;
    let deadline = recover_at + SimDuration::from_secs(60);
    while cluster.replicas[victim.index()].commit_log().is_empty() || !cluster.is_live(victim) {
        assert!(now < deadline, "{engine:?}/{commits_before}: site 0 never came back");
        now += SimDuration::from_micros(100);
        cluster.run_until(now);
    }
    let back_after = now.saturating_since(crash_at);
    cluster.run_until(now + SimDuration::from_secs(30));
    assert!(cluster.converged(), "{engine:?}/{commits_before}");
    let stats = cluster.stats();
    assert_eq!(stats.completed, total, "{engine:?}/{commits_before}: every update commits");
    Recovery {
        digest_bytes: stats.counters.get("view_digest_bytes"),
        summary_bytes: stats.counters.get("view_summary_bytes"),
        back_after,
    }
}

fn assert_history_independent(engine: EngineKind) {
    let early = crash_after(engine, 200, DOWNTIME, TAIL);
    let late = crash_after(engine, 20_000, DOWNTIME, TAIL);
    for (what, a, b) in [
        ("view_digest_bytes", early.digest_bytes, late.digest_bytes),
        ("crash→first commit (ns)", early.back_after.as_nanos(), late.back_after.as_nanos()),
    ] {
        assert!(a > 0 && b > 0, "{engine:?}: {what} must be measured ({a} / {b})");
        assert!(
            a.max(b) <= 2 * a.min(b),
            "{engine:?}: {what} depends on history: {a} after 200 commits, {b} after 20 000"
        );
    }
    // One 40-byte summary per surviving member, whatever the history.
    assert_eq!(early.summary_bytes, 40 * (SITES as u64 - 1), "{engine:?}");
    assert_eq!(late.summary_bytes, early.summary_bytes, "{engine:?}");
}

#[test]
fn batched_sequencer_view_change_cost_is_independent_of_history() {
    assert_history_independent(EngineKind::SequencerBatched {
        order_delay: SimDuration::from_micros(250),
    });
}

#[test]
fn opt_view_change_cost_is_independent_of_history() {
    assert_history_independent(OPT);
}

/// benchmark/README.md recorded, while sizing `sim-seq-crash`, that its
/// shape under the `Opt` engine — 24 000 updates at 2 000/s, site 0 down
/// for 500 ms from 80 % of the schedule — "does not drain". It drains:
/// every update commits (`crash_after` checks that and convergence), and
/// site 0 is back within a second of the crash.
#[test]
fn late_crash_under_opt_drains() {
    let downtime = SimDuration::from_millis(500);
    let late = crash_after(OPT, 19_200, downtime, SimDuration::from_millis(1_900));
    assert!(
        late.back_after < downtime + SimDuration::from_millis(500),
        "site 0 back {:?} after the crash",
        late.back_after
    );
}

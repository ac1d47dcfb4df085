//! The metric catalogue (names, units, directions, bounds) and the trace
//! analysis that turns lifecycle observations into per-layer numbers.

use crate::measure::{p50_ms, quantile_sorted};
use crate::outcome::{stage, Obs};
use std::collections::HashMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen on a
    /// `sim-*` workload, whose clock metrics repeat exactly.
    pub bound_sim: f64,
    /// The same on a `live-*` workload, which runs on real threads.
    pub bound_live: f64,
}

impl EndToEnd {
    /// The bound `compare` applies to `workload`.
    pub fn bound_for(&self, workload: &str) -> f64 {
        if workload.starts_with("live-") {
            self.bound_live
        } else {
            self.bound_sim
        }
    }

    /// The one bound `BENCHMARK.json` carries: the contract has no
    /// per-workload bound, so it is the widest any workload needs.
    pub fn bound(&self) -> f64 {
        self.bound_sim.max(self.bound_live)
    }
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound_sim: f64,
    bound_live: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound_sim, bound_live }
}

/// The six end-to-end metrics, reported on every workload. Each bound is
/// max(the issue's floor, 2 × the largest relative deviation from the
/// median over the calibration passes recorded in the README), capped at
/// the 25 % the benchmark contract allows. The floors hold for the sim
/// clock metrics (they repeat exactly) and for `peak_rss_mb`; everything
/// that is wall or CPU time on the shared 2-core reference machine
/// deviated by 11–18 % and sits at the cap.
pub const END_TO_END: [EndToEnd; 6] = [
    metric("setup_s", "s", "lower", 0.25, 0.25),
    metric("tps", "1/s", "higher", 0.02, 0.25),
    metric("commit_p50_ms", "ms", "lower", 0.02, 0.25),
    metric("commit_p99_ms", "ms", "lower", 0.02, 0.25),
    metric("cpu_us_per_txn", "us", "lower", 0.25, 0.25),
    metric("peak_rss_mb", "MB", "lower", 0.05, 0.10),
];

/// A per-layer metric: `(name, unit, better)`. The prefix is the module.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("simnet.events_per_txn", "count", "lower"),
    ("simnet.queue_ns_per_event", "ns", "lower"),
    ("simnet.net_ns_per_frame", "ns", "lower"),
    ("simnet.hist_ns_per_sample", "ns", "lower"),
    ("simnet.counters_ns_per_incr", "ns", "lower"),
    ("consensus.ns_per_decision", "ns", "lower"),
    ("consensus.msgs_per_decision", "count", "lower"),
    ("broadcast.frames_per_commit", "count", "lower"),
    ("broadcast.cross_frames_per_commit", "count", "lower"),
    ("broadcast.ns_per_msg", "ns", "lower"),
    ("broadcast.submit_to_opt_p50_ms", "ms", "lower"),
    ("broadcast.opt_to_gap_p50_ms", "ms", "lower"),
    ("broadcast.spontaneous_order_rate", "ratio", "higher"),
    ("broadcast.stale_epoch_rejects", "count", "lower"),
    ("txn.queue_ns_per_txn", "ns", "lower"),
    ("txn.queue_reorder_ns_d1", "ns", "lower"),
    ("txn.queue_reorder_ns_d16", "ns", "lower"),
    ("txn.queue_reorder_ns_d256", "ns", "lower"),
    ("storage.proc_ns_per_exec", "ns", "lower"),
    ("storage.execs_per_commit", "ratio", "lower"),
    ("storage.commit_ns_per_txn", "ns", "lower"),
    ("storage.read_at_ns_d1", "ns", "lower"),
    ("storage.read_at_ns_d64", "ns", "lower"),
    ("replica.ns_per_txn_inorder", "ns", "lower"),
    ("replica.ns_per_txn_mismatch", "ns", "lower"),
    ("replica.conservative_ns_per_txn", "ns", "lower"),
    ("replica.abort_rate", "ratio", "lower"),
    ("replica.reorder_rate", "ratio", "lower"),
    ("replica.exec_to_commit_p50_ms", "ms", "lower"),
    ("cluster.allocs_per_txn", "count", "lower"),
    ("cluster.alloc_bytes_per_txn", "B", "lower"),
    ("cluster.rss_kb_per_ktxn", "kB", "lower"),
    ("cluster.residual_share", "ratio", "lower"),
    ("runtime.submit_ns_p50", "ns", "lower"),
    ("runtime.backpressure_per_ktxn", "count", "lower"),
    ("runtime.ctx_switches_per_txn", "count", "lower"),
    ("runtime.sys_cpu_share", "ratio", "lower"),
    ("runtime.cluster_cpu_us_per_txn", "us", "lower"),
    ("runtime.stage.admission_wait_p50_ms", "ms", "lower"),
    ("runtime.stage.submit_to_opt_p50_ms", "ms", "lower"),
    ("runtime.stage.opt_to_to_p50_ms", "ms", "lower"),
    ("runtime.stage.to_to_commit_p50_ms", "ms", "lower"),
    ("runtime.shutdown_ms", "ms", "lower"),
    ("view.outage_ms", "ms", "lower"),
    ("view.recover_ms", "ms", "lower"),
    ("view.frames_during_recovery", "count", "lower"),
    ("view.failover_submits", "count", "lower"),
    ("view.installs", "count", "lower"),
    ("view.snapshot_entries_1k", "count", "lower"),
    ("view.snapshot_entries_full", "count", "lower"),
    ("view.snapshot_ns_1k", "ns", "lower"),
    ("view.snapshot_ns_full", "ns", "lower"),
    ("view.merge_ns_1k", "ns", "lower"),
    ("view.merge_ns_full", "ns", "lower"),
    ("view.restore_ns_1k", "ns", "lower"),
    ("view.restore_ns_full", "ns", "lower"),
    ("telemetry.trace_overhead_share", "ratio", "lower"),
    ("telemetry.events_per_txn", "count", "lower"),
    ("telemetry.sink_ns_per_event", "ns", "lower"),
    ("telemetry.counter_ns_per_incr", "ns", "lower"),
    ("workload.gen_ns_per_op", "ns", "lower"),
    ("workload.apply_ns_per_op", "ns", "lower"),
    ("workload.load_ns_per_object", "ns", "lower"),
    ("traced.tps", "1/s", "higher"),
    ("traced.commit_p50_ms", "ms", "lower"),
    ("traced.cpu_us_per_txn", "us", "lower"),
];

/// Stage instants of one transaction at its reference site: where it was
/// broadcast, or — for a cross-group sub, which has no single broadcaster
/// — where it first committed.
#[derive(Default, Clone, Copy)]
struct Life {
    admission_wait: Option<u64>,
    submit: Option<u64>,
    opt: Option<u64>,
    to: Option<u64>,
    /// Start of the last execution attempt.
    execute: Option<u64>,
    commit: Option<u64>,
}

/// Turns the per-site observation buffers of one run into per-layer
/// metrics. Every metric it can compute is returned; the caller reports
/// the others as 0 (layer not exercised by the workload).
pub fn analyse_trace(per_site: &[Vec<Obs>]) -> Vec<(&'static str, f64)> {
    type Key = (u16, u64);
    // Pass 1: the reference site of every transaction.
    let mut home: HashMap<Key, u16> = HashMap::new();
    let mut first_commit: HashMap<Key, (u64, u16)> = HashMap::new();
    for o in per_site.iter().flatten() {
        let key = (o.origin, o.seq);
        match o.stage {
            stage::BROADCAST => {
                home.entry(key).or_insert(o.site);
            }
            stage::COMMIT => {
                let e = first_commit.entry(key).or_insert((o.at_ns, o.site));
                if o.at_ns < e.0 {
                    *e = (o.at_ns, o.site);
                }
            }
            _ => {}
        }
    }
    for (key, (_, site)) in &first_commit {
        home.entry(*key).or_insert(*site);
    }

    // Pass 2: stage instants at the reference site (the submit and the
    // admission wait are observed at the origin, wherever that is), and
    // each site's tentative and definitive delivery sequences.
    let mut lives: HashMap<Key, Life> = HashMap::with_capacity(home.len());
    let mut ordered = 0u64;
    let mut delivered = 0u64;
    for obs in per_site {
        let mut opt_pos: HashMap<Key, u32> = HashMap::new();
        let mut to_count = 0u32;
        for o in obs {
            let key = (o.origin, o.seq);
            if o.stage == stage::OPT_DELIVER {
                let next = opt_pos.len() as u32;
                opt_pos.entry(key).or_insert(next);
            } else if o.stage == stage::TO_DELIVER {
                // Figure 1: the message sits at the same position in the
                // tentative and the definitive sequence of this site.
                if opt_pos.get(&key) == Some(&to_count) {
                    ordered += 1;
                }
                to_count += 1;
                delivered += 1;
            }
            let at_home = home.get(&key) == Some(&o.site);
            let life = lives.entry(key).or_default();
            match o.stage {
                stage::ADMISSION_WAIT => life.admission_wait = Some(o.at_ns),
                stage::SUBMIT => life.submit = life.submit.or(Some(o.at_ns)),
                stage::OPT_DELIVER if at_home => life.opt = life.opt.or(Some(o.at_ns)),
                stage::TO_DELIVER if at_home => life.to = life.to.or(Some(o.at_ns)),
                stage::EXECUTE if at_home => life.execute = Some(o.at_ns),
                stage::COMMIT if at_home => life.commit = life.commit.or(Some(o.at_ns)),
                _ => {}
            }
        }
    }

    let gap = |from: Option<u64>, to: Option<u64>| Some(to?.saturating_sub(from?));
    let mut admission = Vec::new();
    let mut submit_to_opt = Vec::new();
    let mut opt_to_to = Vec::new();
    let mut to_to_commit = Vec::new();
    let mut exec_to_commit = Vec::new();
    let mut commits = Vec::with_capacity(lives.len());
    for life in lives.values() {
        admission.extend(gap(life.admission_wait, life.submit));
        submit_to_opt.extend(gap(life.submit, life.opt));
        opt_to_to.extend(gap(life.opt, life.to));
        to_to_commit.extend(gap(life.to, life.commit));
        exec_to_commit.extend(gap(life.execute, life.commit));
        commits.extend(life.commit);
    }
    commits.sort_unstable();
    let outage_ns = commits.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);

    let mut out = vec![
        ("broadcast.submit_to_opt_p50_ms", p50_ms(&mut submit_to_opt)),
        ("broadcast.opt_to_gap_p50_ms", p50_ms(&mut opt_to_to)),
        ("broadcast.spontaneous_order_rate", ordered as f64 / delivered.max(1) as f64),
        ("replica.exec_to_commit_p50_ms", p50_ms(&mut exec_to_commit)),
        ("view.outage_ms", outage_ns as f64 / 1e6),
        ("runtime.stage.to_to_commit_p50_ms", p50_ms(&mut to_to_commit)),
    ];
    if !admission.is_empty() {
        admission.sort_unstable();
        out.push((
            "runtime.stage.admission_wait_p50_ms",
            quantile_sorted(&admission, 0.5) as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(at_ns: u64, site: u16, seq: u64, stage: u8) -> Obs {
        Obs { at_ns, site, origin: 0, seq, stage }
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.0)).collect();
        for n in &names {
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(n.len() <= 64);
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    #[test]
    fn stage_gaps_and_spontaneous_order() {
        // Two transactions; site 0 is home. Site 1 opt-delivers them in the
        // opposite order of the definitive one.
        let site0 = vec![
            obs(0, 0, 1, stage::SUBMIT),
            obs(0, 0, 1, stage::BROADCAST),
            obs(10, 0, 2, stage::SUBMIT),
            obs(10, 0, 2, stage::BROADCAST),
            obs(1_000_000, 0, 1, stage::OPT_DELIVER),
            obs(1_000_000, 0, 1, stage::EXECUTE),
            obs(1_100_000, 0, 2, stage::OPT_DELIVER),
            obs(3_000_000, 0, 1, stage::TO_DELIVER),
            obs(3_000_000, 0, 1, stage::COMMIT),
            obs(3_000_000, 0, 2, stage::TO_DELIVER),
            obs(3_000_000, 0, 2, stage::EXECUTE),
            obs(4_000_000, 0, 2, stage::COMMIT),
        ];
        let site1 = vec![
            obs(1_000_000, 1, 2, stage::OPT_DELIVER),
            obs(1_100_000, 1, 1, stage::OPT_DELIVER),
            obs(3_000_000, 1, 1, stage::TO_DELIVER),
            obs(3_000_000, 1, 2, stage::TO_DELIVER),
        ];
        let m: HashMap<_, _> = analyse_trace(&[site0, site1]).into_iter().collect();
        assert_eq!(m["broadcast.spontaneous_order_rate"], 0.5);
        assert_eq!(m["view.outage_ms"], 1.0);
        assert!((m["broadcast.submit_to_opt_p50_ms"] - 1.0).abs() < 0.2);
        // Gaps of 2 ms and 1 ms; nearest rank rounds the middle up.
        assert_eq!(m["replica.exec_to_commit_p50_ms"], 2.0);
    }
}

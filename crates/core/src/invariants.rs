//! The post-run invariant bundle checked after a (possibly chaotic) run.
//!
//! A cluster that survived a nemesis schedule must still satisfy the
//! paper's guarantees. The checker is **driver-agnostic**: the free
//! [`check_invariants`] entry takes a [`RunHistories`] — the collected
//! histories, commit logs, databases and view epochs of one finished run —
//! so the simulated [`Cluster`] and the threaded
//! [`crate::runtime::LiveCluster`] are judged by the *identical* code
//! path. [`Cluster::check_invariants`] and
//! [`crate::runtime::LiveReport::check_invariants`] are thin collectors
//! over it. The bundle verifies in one pass and reports *every* violation
//! found (not just the first):
//!
//! 1. **1-copy-serializability** (Section 2.2) — the union of all sites'
//!    committed histories, via
//!    [`otp_txn::history::check_one_copy_serializable`];
//! 2. **uniform commit order** — every transaction committed at two live
//!    sites carries the same definitive index at both (the total order is
//!    one logical history);
//! 3. **state convergence** — all live sites hold the same committed
//!    database;
//! 4. **liveness after heal** — every *probe* transaction (submitted by the
//!    harness after the last fault ended) committed at every live site.
//!
//! Crashed sites are excluded from checks 2–4 (they are behind by design),
//! but their histories still participate in check 1: everything a crashed
//! site committed before going down must fit the single serial order.

use crate::cluster::Cluster;
use otp_simnet::SiteId;
use otp_storage::{Database, TxnIndex};
use otp_txn::history::{check_one_copy_serializable, CommittedTxn, Violation};
use otp_txn::txn::TxnId;
use std::collections::HashMap;
use std::fmt;

/// One way a run can violate the paper's guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The union history is not 1-copy-serializable.
    NotSerializable(Violation),
    /// Two live sites committed the same transaction at different
    /// definitive indexes.
    CommitOrderMismatch {
        /// The transaction committed at diverging positions.
        txn: TxnId,
        /// First site and the index it used.
        site: SiteId,
        /// Index at `site`.
        index: TxnIndex,
        /// Second site and the index it used.
        other: SiteId,
        /// Index at `other`.
        other_index: TxnIndex,
    },
    /// Two live sites observed a different relative order of the
    /// cross-group transactions they have in common: the relay's
    /// serialization of cross-group work was not respected everywhere.
    CrossOrderMismatch {
        /// First site.
        site: SiteId,
        /// The cross-id sequence it committed (restricted to common ids).
        seq: Vec<u64>,
        /// Second site.
        other: SiteId,
        /// The cross-id sequence it committed (restricted to common ids).
        other_seq: Vec<u64>,
    },
    /// A live site's committed database differs from the reference live
    /// site's.
    Diverged {
        /// The diverging site.
        site: SiteId,
        /// The live site used as reference.
        reference: SiteId,
    },
    /// A probe transaction never committed at a live site: the cluster
    /// lost liveness after the last fault healed.
    ProbeLost {
        /// The missing probe transaction.
        probe: TxnId,
        /// The live site that never committed it.
        site: SiteId,
    },
    /// A site installed a view epoch at or below one it had already
    /// installed: view epochs must be strictly increasing per site.
    EpochRegressed {
        /// The site whose history regressed.
        site: SiteId,
        /// The earlier installed epoch.
        prev: u64,
        /// The later — not greater — installed epoch.
        next: u64,
    },
    /// A live site ended the run on an older view than another live site:
    /// every installed view must reach every live member.
    EpochDiverged {
        /// The lagging site.
        site: SiteId,
        /// The epoch it has installed.
        installed: u64,
        /// The newest epoch installed by any live site.
        expected: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::NotSerializable(v) => write!(f, "not 1-copy-serializable: {v}"),
            InvariantViolation::CommitOrderMismatch { txn, site, index, other, other_index } => {
                write!(
                    f,
                    "commit order mismatch: {txn} has index {index} at {site} \
                     but {other_index} at {other}"
                )
            }
            InvariantViolation::CrossOrderMismatch { site, seq, other, other_seq } => {
                write!(
                    f,
                    "cross-group order mismatch: {site} committed cross ids {seq:?} \
                     but {other} committed {other_seq:?}"
                )
            }
            InvariantViolation::Diverged { site, reference } => {
                write!(f, "state divergence: {site} differs from {reference}")
            }
            InvariantViolation::ProbeLost { probe, site } => {
                write!(f, "liveness lost: probe {probe} never committed at {site}")
            }
            InvariantViolation::EpochRegressed { site, prev, next } => {
                write!(f, "epoch regression: {site} installed v{next} after v{prev}")
            }
            InvariantViolation::EpochDiverged { site, installed, expected } => {
                write!(
                    f,
                    "epoch divergence: live {site} sits at v{installed}, newest is v{expected}"
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Every violation found in one run, plus what was checked.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// All violations, in check order (serializability, commit order,
    /// convergence, liveness).
    pub violations: Vec<InvariantViolation>,
    /// Live sites the convergence/order/liveness checks covered.
    pub live_sites: usize,
    /// Probe transactions the liveness check covered.
    pub checked_probes: usize,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(
                f,
                "all invariants hold ({} live sites, {} probes)",
                self.live_sites, self.checked_probes
            )
        } else {
            writeln!(f, "{} invariant violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Everything the invariant bundle needs from one finished run, collected
/// by value so either driver — the virtual-time [`Cluster`] or the
/// threaded [`crate::runtime::LiveCluster`] — can hand its state over
/// (database copies are cheap: partitions are copy-on-write behind `Arc`).
///
/// The per-site vectors (`histories`, `commit_logs`, `dbs`,
/// `epoch_history`) are indexed by site and must all have the same length;
/// `live` names the sites covered by the order/convergence/liveness
/// checks. Crashed sites still participate in the serializability and
/// epoch-monotonicity checks — history is history.
#[derive(Debug, Clone)]
pub struct RunHistories {
    /// Per-site committed histories (updates + queries) with read/write
    /// sets and serialization positions.
    pub histories: Vec<Vec<CommittedTxn>>,
    /// Per-site commit logs: `(txn, definitive index)` in commit order.
    pub commit_logs: Vec<Vec<(TxnId, TxnIndex)>>,
    /// Per-site final databases.
    pub dbs: Vec<Database>,
    /// Sites that finished the run live (checks 2–4 cover only these).
    pub live: Vec<SiteId>,
    /// Per-site installed view epochs, in installation order. Drivers
    /// without view changes pass empty vectors (the checks pass
    /// trivially).
    pub epoch_history: Vec<Vec<u64>>,
    /// Ordering group of each site (all zeros for an unsharded run).
    /// Order, convergence and divergence checks compare only same-group
    /// sites: different groups legitimately hold different data.
    pub site_group: Vec<u16>,
    /// Home ordering group of each transaction the driver routed. Probes
    /// missing from this map are checked at every live site.
    pub txn_group: HashMap<TxnId, u16>,
    /// Cross-group id of every sub-transaction spawned by a cross-group
    /// update, keyed by sub id. Feeds the cross-order check; empty for
    /// unsharded runs.
    pub cross_of: HashMap<TxnId, u64>,
}

impl RunHistories {
    /// Number of sites in the run.
    pub fn sites(&self) -> usize {
        self.histories.len()
    }
}

/// Runs the invariant bundle over collected run state (see the
/// [module docs](self)). Driver-agnostic: both the simulated and the
/// threaded cluster reduce to a [`RunHistories`] and call this.
///
/// `probes` are transaction ids submitted after the fault plan's
/// quiescent point; pass `&[]` to skip the liveness check.
pub fn check_invariants(run: &RunHistories, probes: &[TxnId]) -> InvariantReport {
    let mut violations = Vec::new();

    // 1. 1-copy-serializability over every site's history.
    if let Err(v) = check_one_copy_serializable(&run.histories) {
        violations.push(InvariantViolation::NotSerializable(v));
    }

    let live = &run.live;

    // 2. Uniform commit order among live sites: identical definitive
    // index for every commonly committed transaction. Pairwise — a
    // reference-only comparison would miss two non-reference sites
    // disagreeing on a transaction the reference never committed
    // (recovered sites restart their logs, so missing keys are
    // common).
    let index_maps: Vec<(SiteId, HashMap<TxnId, TxnIndex>)> = live
        .iter()
        .map(|s| (*s, run.commit_logs[s.index()].iter().copied().collect::<HashMap<_, _>>()))
        .collect();
    let group_of = |s: &SiteId| run.site_group.get(s.index()).copied().unwrap_or(0);
    for (i, (site, map)) in index_maps.iter().enumerate() {
        for (other, other_map) in &index_maps[i + 1..] {
            // Definitive indexes are per-group sequence positions; sites
            // in different groups share no index space.
            if group_of(site) != group_of(other) {
                continue;
            }
            for (txn, index) in map {
                if let Some(other_index) = other_map.get(txn) {
                    if other_index != index {
                        violations.push(InvariantViolation::CommitOrderMismatch {
                            txn: *txn,
                            site: *site,
                            index: *index,
                            other: *other,
                            other_index: *other_index,
                        });
                    }
                }
            }
        }
    }

    // 2b. Cross-group serialization: every live site commits its subs of
    // cross-group transactions in relay order, so any two sites must
    // agree on the relative order of the cross ids they share — even
    // (especially) across group boundaries.
    if !run.cross_of.is_empty() {
        let cross_seqs: Vec<(SiteId, Vec<u64>)> = live
            .iter()
            .map(|s| {
                let seq: Vec<u64> = run.commit_logs[s.index()]
                    .iter()
                    .filter_map(|(txn, _)| run.cross_of.get(txn).copied())
                    .collect();
                (*s, seq)
            })
            .collect();
        for (i, (site, seq)) in cross_seqs.iter().enumerate() {
            for (other, other_seq) in &cross_seqs[i + 1..] {
                let common: std::collections::HashSet<u64> =
                    seq.iter().filter(|c| other_seq.contains(c)).copied().collect();
                let a: Vec<u64> = seq.iter().filter(|c| common.contains(c)).copied().collect();
                let b: Vec<u64> =
                    other_seq.iter().filter(|c| common.contains(c)).copied().collect();
                if a != b {
                    violations.push(InvariantViolation::CrossOrderMismatch {
                        site: *site,
                        seq: a,
                        other: *other,
                        other_seq: b,
                    });
                }
            }
        }
    }

    // 3. Convergence: identical committed state at every live site of
    // each group (different groups hold different conflict classes).
    let mut group_reference: HashMap<u16, SiteId> = HashMap::new();
    for site in live {
        let reference = *group_reference.entry(group_of(site)).or_insert(*site);
        if reference == *site {
            continue;
        }
        if !run.dbs[site.index()].committed_state_eq(&run.dbs[reference.index()]) {
            violations.push(InvariantViolation::Diverged { site: *site, reference });
        }
    }

    // 4. Liveness after heal: every probe committed at every live site of
    // its home group (a probe the router never saw is expected at every
    // live site, so a phantom is loud everywhere).
    for probe in probes {
        let home = run.txn_group.get(probe);
        for (site, map) in &index_maps {
            if let Some(g) = home {
                if group_of(site) != *g {
                    continue;
                }
            }
            if !map.contains_key(probe) {
                violations.push(InvariantViolation::ProbeLost { probe: *probe, site: *site });
            }
        }
    }

    // 5. Epoch monotonicity: per-site installed views strictly
    // increase (every site, crashed included — history is history),
    // and every live site ends on the newest installed view (a view
    // change that skipped a live member would leave it accepting a
    // dead sequencer incarnation's assignments).
    let installed = |site: &SiteId| run.epoch_history[site.index()].last().copied().unwrap_or(0);
    for site in SiteId::all(run.sites()) {
        let history = &run.epoch_history[site.index()];
        for pair in history.windows(2) {
            if pair[1] <= pair[0] {
                violations.push(InvariantViolation::EpochRegressed {
                    site,
                    prev: pair[0],
                    next: pair[1],
                });
            }
        }
    }
    // View epochs are per-group-domain: a live site must match the newest
    // epoch installed within *its* group, not cluster-wide.
    let mut group_newest: HashMap<u16, u64> = HashMap::new();
    for site in live {
        let e = group_newest.entry(group_of(site)).or_insert(0);
        *e = (*e).max(installed(site));
    }
    for site in live {
        let newest = group_newest.get(&group_of(site)).copied().unwrap_or(0);
        if installed(site) < newest {
            violations.push(InvariantViolation::EpochDiverged {
                site: *site,
                installed: installed(site),
                expected: newest,
            });
        }
    }

    InvariantReport { violations, live_sites: live.len(), checked_probes: probes.len() }
}

impl Cluster {
    /// Reduces this cluster's end-of-run state to the driver-agnostic
    /// [`RunHistories`] the invariant bundle consumes.
    pub fn run_histories(&self) -> RunHistories {
        RunHistories {
            histories: self.histories(),
            commit_logs: self.replicas.iter().map(|r| r.commit_log().to_vec()).collect(),
            dbs: self.replicas.iter().map(|r| r.db().clone()).collect(),
            live: self.live_sites(),
            epoch_history: SiteId::all(self.config().sites)
                .map(|s| self.group_epochs(s).to_vec())
                .collect(),
            site_group: self.topology.site_group.clone(),
            txn_group: self.txn_group.clone(),
            cross_of: self.cross_of.clone(),
        }
    }

    /// Runs the invariant bundle (see the [module docs](self)) over this
    /// cluster's state.
    ///
    /// `probes` are transaction ids submitted after the fault plan's
    /// quiescent point; pass `&[]` to skip the liveness check.
    pub fn check_invariants(&self, probes: &[TxnId]) -> InvariantReport {
        check_invariants(&self.run_histories(), probes)
    }
}

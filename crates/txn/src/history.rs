//! Execution histories and serializability checking.
//!
//! The paper's correctness criterion (Section 2.2) is
//! **1-copy-serializability**: the union of all sites' local histories must
//! be conflict-equivalent to some serial history over one logical copy.
//! This module lets tests *check* that, instead of trusting the proof:
//!
//! * every site records its committed transactions (and queries) with
//!   read/write sets and a local position in a flat [`HistoryLog`], which
//!   rebuilds them as [`CommittedTxn`]s for the checker;
//! * [`conflict_edges`] extracts the ordered conflict relation of one site;
//! * [`check_one_copy_serializable`] unions the relations of all sites and
//!   reports either an *order conflict* (two sites serialize a conflicting
//!   pair differently — the "1-copy" part fails) or a *cycle* (no
//!   equivalent serial history exists — the "serializable" part fails).
//!
//! Positions use a doubled scale so queries fit between updates: an update
//! with definitive index `i` sits at `2i`, a query with snapshot `i.5` sits
//! at `2i + 1`. See [`CommittedTxn::update_position`] /
//! [`CommittedTxn::query_position`].

use crate::txn::TxnId;
use otp_storage::{ObjectId, SnapshotIndex, TxnIndex};
// Ordered containers wherever the checker *iterates*: which violation
// gets reported first must be a function of the histories, not of hash
// iteration order (otp-lint: unordered-iter). HashSet survives only for
// pure membership tests.
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// A committed transaction (or query) as one site's history records it.
#[derive(Debug, Clone)]
pub struct CommittedTxn {
    /// Transaction/query identifier.
    pub id: TxnId,
    /// Objects read.
    pub reads: Vec<ObjectId>,
    /// Objects written (empty for queries).
    pub writes: Vec<ObjectId>,
    /// Serialization position at this site (doubled scale, see module
    /// docs).
    pub position: u64,
}

impl CommittedTxn {
    /// Position of an update transaction with definitive index `i`.
    pub fn update_position(index: TxnIndex) -> u64 {
        index.raw() * 2
    }

    /// Position of a query with snapshot index `i.5`.
    pub fn query_position(snap: SnapshotIndex) -> u64 {
        snap.watermark().raw() * 2 + 1
    }
}

/// One site's history in flat form: a fixed-size entry per committed
/// transaction or query, with every read and write set packed into one
/// shared object arena. Recording allocates nothing once the two vectors
/// have grown; [`HistoryLog::to_vec`] rebuilds the [`CommittedTxn`]s the
/// checker takes, only when someone asks for them.
///
/// ```
/// use otp_simnet::SiteId;
/// use otp_storage::ObjectId;
/// use otp_txn::history::HistoryLog;
/// use otp_txn::txn::TxnId;
///
/// let mut log = HistoryLog::new();
/// log.push(TxnId::new(SiteId::new(0), 1), 2, [ObjectId::new(0, 7)], [ObjectId::new(0, 7)]);
/// let txns = log.to_vec();
/// assert_eq!(txns[0].writes, vec![ObjectId::new(0, 7)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryLog {
    entries: Vec<LogEntry>,
    /// Each entry's reads, then its writes, entry after entry.
    objects: Vec<ObjectId>,
}

/// A [`HistoryLog`] record. Its objects run from the previous entry's
/// `writes_end` (0 for the first) to `reads_end` (reads), then on to
/// `writes_end` (writes).
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    id: TxnId,
    position: u64,
    reads_end: u32,
    writes_end: u32,
}

impl HistoryLog {
    /// An empty log.
    pub fn new() -> Self {
        HistoryLog::default()
    }

    /// Number of recorded transactions and queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a transaction (or a query: no writes) at `position` (doubled
    /// scale, see [`CommittedTxn::update_position`]).
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` objects.
    pub fn push(
        &mut self,
        id: TxnId,
        position: u64,
        reads: impl IntoIterator<Item = ObjectId>,
        writes: impl IntoIterator<Item = ObjectId>,
    ) {
        let end = |objects: &Vec<ObjectId>| {
            u32::try_from(objects.len()).expect("history arena exceeds u32::MAX objects")
        };
        self.objects.extend(reads);
        let reads_end = end(&self.objects);
        self.objects.extend(writes);
        let writes_end = end(&self.objects);
        self.entries.push(LogEntry { id, position, reads_end, writes_end });
    }

    /// The history as the checker takes it, in recording order.
    pub fn to_vec(&self) -> Vec<CommittedTxn> {
        let mut start = 0;
        self.entries
            .iter()
            .map(|e| {
                let (reads_end, writes_end) = (e.reads_end as usize, e.writes_end as usize);
                let txn = CommittedTxn {
                    id: e.id,
                    reads: self.objects[start..reads_end].to_vec(),
                    writes: self.objects[reads_end..writes_end].to_vec(),
                    position: e.position,
                };
                start = writes_end;
                txn
            })
            .collect()
    }
}

/// Why a history set is not 1-copy-serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two sites order the same conflicting pair differently.
    OrderConflict {
        /// First transaction.
        a: TxnId,
        /// Second transaction.
        b: TxnId,
    },
    /// The union conflict graph has a cycle through this transaction.
    Cycle {
        /// A transaction on the cycle.
        on: TxnId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OrderConflict { a, b } => {
                write!(f, "sites disagree on the order of conflicting {a} and {b}")
            }
            Violation::Cycle { on } => write!(f, "conflict cycle through {on}"),
        }
    }
}

impl std::error::Error for Violation {}

/// Ordered conflict pairs `(earlier, later)` of one site's history.
///
/// Two transactions conflict when they touch a common object and at least
/// one writes it (r-w, w-r, w-w). The returned edges point from the
/// transaction with the smaller position to the larger.
pub fn conflict_edges(history: &[CommittedTxn]) -> BTreeSet<(TxnId, TxnId)> {
    let mut edges = BTreeSet::new();
    for (i, a) in history.iter().enumerate() {
        let a_writes: HashSet<ObjectId> = a.writes.iter().copied().collect();
        let a_reads: HashSet<ObjectId> = a.reads.iter().copied().collect();
        for b in history.iter().skip(i + 1) {
            let conflict = b.writes.iter().any(|o| a_writes.contains(o) || a_reads.contains(o))
                || b.reads.iter().any(|o| a_writes.contains(o));
            if !conflict || a.id == b.id {
                continue;
            }
            // Identical positions for conflicting transactions would be a
            // recorder bug; order deterministically by id to surface it as
            // an order conflict rather than panicking.
            if a.position <= b.position {
                edges.insert((a.id, b.id));
            } else {
                edges.insert((b.id, a.id));
            }
        }
    }
    edges
}

/// Checks 1-copy-serializability of a set of per-site histories.
///
/// # Errors
///
/// Returns the first [`Violation`] found: an order conflict between sites,
/// or a cycle in the union conflict graph.
pub fn check_one_copy_serializable(sites: &[Vec<CommittedTxn>]) -> Result<(), Violation> {
    let mut union: BTreeSet<(TxnId, TxnId)> = BTreeSet::new();
    for site in sites {
        for (a, b) in conflict_edges(site) {
            if union.contains(&(b, a)) {
                return Err(Violation::OrderConflict { a, b });
            }
            union.insert((a, b));
        }
    }
    // Cycle detection (iterative DFS, 3-color).
    let mut adj: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
    let mut nodes: BTreeSet<TxnId> = BTreeSet::new();
    for (a, b) in &union {
        adj.entry(*a).or_default().push(*b);
        nodes.insert(*a);
        nodes.insert(*b);
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<TxnId, Color> = nodes.iter().map(|n| (*n, Color::White)).collect();
    for &start in &nodes {
        if color[&start] != Color::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack: Vec<(TxnId, usize)> = vec![(start, 0)];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match color[&child] {
                    Color::Gray => return Err(Violation::Cycle { on: child }),
                    Color::White => {
                        color.insert(child, Color::Gray);
                        stack.push((child, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Convenience: checks that every site committed exactly the same update
/// transactions (Global Agreement at the transaction level). Returns the
/// offending site index on mismatch.
pub fn check_same_committed_set(sites: &[Vec<TxnId>]) -> Result<(), usize> {
    let Some(first) = sites.first() else {
        return Ok(());
    };
    let reference: HashSet<TxnId> = first.iter().copied().collect();
    for (i, site) in sites.iter().enumerate().skip(1) {
        let set: HashSet<TxnId> = site.iter().copied().collect();
        if set != reference {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_simnet::SiteId;

    fn tid(seq: u64) -> TxnId {
        TxnId::new(SiteId::new(0), seq)
    }

    fn obj(class: u32, key: u64) -> ObjectId {
        ObjectId::new(class, key)
    }

    fn upd(seq: u64, pos: u64, reads: Vec<ObjectId>, writes: Vec<ObjectId>) -> CommittedTxn {
        CommittedTxn { id: tid(seq), reads, writes, position: pos }
    }

    #[test]
    fn no_conflicts_no_edges() {
        let h = vec![
            upd(1, 2, vec![obj(0, 0)], vec![obj(0, 0)]),
            upd(2, 4, vec![obj(1, 0)], vec![obj(1, 0)]),
        ];
        assert!(conflict_edges(&h).is_empty());
    }

    #[test]
    fn ww_conflict_ordered_by_position() {
        let h = vec![upd(1, 4, vec![], vec![obj(0, 0)]), upd(2, 2, vec![], vec![obj(0, 0)])];
        let e = conflict_edges(&h);
        assert!(e.contains(&(tid(2), tid(1))));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn rw_and_wr_conflicts_detected() {
        let h = vec![
            upd(1, 2, vec![obj(0, 0)], vec![]),
            upd(2, 4, vec![], vec![obj(0, 0)]),
            upd(3, 6, vec![obj(0, 0)], vec![]),
        ];
        let e = conflict_edges(&h);
        assert!(e.contains(&(tid(1), tid(2)))); // r-w
        assert!(e.contains(&(tid(2), tid(3)))); // w-r
        assert!(!e.contains(&(tid(1), tid(3)))); // r-r is no conflict
    }

    #[test]
    fn consistent_sites_pass() {
        let site = vec![
            upd(1, 2, vec![obj(0, 0)], vec![obj(0, 0)]),
            upd(2, 4, vec![obj(0, 0)], vec![obj(0, 0)]),
        ];
        assert!(check_one_copy_serializable(&[site.clone(), site]).is_ok());
    }

    #[test]
    fn sites_disagreeing_on_order_fail() {
        let a = vec![upd(1, 2, vec![], vec![obj(0, 0)]), upd(2, 4, vec![], vec![obj(0, 0)])];
        let b = vec![upd(1, 4, vec![], vec![obj(0, 0)]), upd(2, 2, vec![], vec![obj(0, 0)])];
        let err = check_one_copy_serializable(&[a, b]).unwrap_err();
        assert!(matches!(err, Violation::OrderConflict { .. }));
    }

    /// The paper's Section 5 counter-example: queries indirectly ordering
    /// update transactions of different classes in opposite directions.
    /// Site N:  T2 → Q → T5 ; site N′: T5 → Q′ → T2.
    #[test]
    fn paper_query_anomaly_is_caught() {
        let x = obj(0, 0); // class Cx object
        let y = obj(1, 0); // class Cy object

        // Updates: T2 writes x (index 2), T5 writes y (index 5) — same at
        // both sites. Queries read both objects but at different local
        // points.
        let t2 = |pos| upd(2, pos, vec![], vec![x]);
        let t5 = |pos| upd(5, pos, vec![], vec![y]);
        // Site N: Q after T2 (sees x-new) but before T5 (sees y-old).
        let q = CommittedTxn { id: tid(100), reads: vec![x, y], writes: vec![], position: 5 };
        // Site N': Q' after T5 but before T2 — positions flipped.
        let q2 = CommittedTxn { id: tid(101), reads: vec![x, y], writes: vec![], position: 5 };
        let site_n = vec![t2(4), t5(10), q];
        let site_n2 = vec![t2(10), t5(4), q2];
        let err = check_one_copy_serializable(&[site_n, site_n2]).unwrap_err();
        // T2/T5 do not conflict directly, but the union graph has
        // T2→(via Q)→T5 at N and T5→(via Q′)→T2 at N′: a cycle. Depending
        // on traversal order this may also surface as an order conflict —
        // either way it must be rejected.
        assert!(matches!(err, Violation::Cycle { .. } | Violation::OrderConflict { .. }), "{err}");
    }

    #[test]
    fn snapshot_queries_at_consistent_positions_pass() {
        let x = obj(0, 0);
        let y = obj(1, 0);
        let t2 = |pos| upd(2, pos, vec![], vec![x]);
        let t5 = |pos| upd(5, pos, vec![], vec![y]);
        // Both sites place their queries consistently with the definitive
        // order (between index 2 and 5 → position 5 on the doubled scale).
        let q = CommittedTxn { id: tid(100), reads: vec![x, y], writes: vec![], position: 5 };
        let q2 = CommittedTxn { id: tid(101), reads: vec![x, y], writes: vec![], position: 7 };
        let site_n = vec![t2(4), t5(10), q];
        let site_n2 = vec![t2(4), t5(10), q2];
        assert!(check_one_copy_serializable(&[site_n, site_n2]).is_ok());
    }

    /// Fabricated order conflict: two sites serialize the same conflicting
    /// write-write pair in opposite directions. The checker must identify
    /// exactly that pair and report it readably.
    #[test]
    fn fabricated_order_conflict_reports_the_pair() {
        let shared = obj(0, 7);
        // Site A: T1 before T2; site B: T2 before T1. A third transaction
        // on another object is noise the checker must not implicate.
        let noise = upd(9, 0, vec![], vec![obj(1, 1)]);
        let site_a =
            vec![noise.clone(), upd(1, 2, vec![], vec![shared]), upd(2, 4, vec![], vec![shared])];
        let site_b = vec![noise, upd(1, 4, vec![], vec![shared]), upd(2, 2, vec![], vec![shared])];
        let err = check_one_copy_serializable(&[site_a, site_b]).unwrap_err();
        let Violation::OrderConflict { a, b } = err else {
            panic!("expected an order conflict, got {err:?}");
        };
        let mut pair = [a, b];
        pair.sort();
        assert_eq!(pair, [tid(1), tid(2)], "the conflicting pair is named");
        let msg = format!("{}", Violation::OrderConflict { a, b });
        assert!(msg.contains("disagree"), "{msg}");
        assert!(msg.contains("T[N0:1]") && msg.contains("T[N0:2]"), "{msg}");
    }

    /// Fabricated cycle with *no* pairwise order conflict: every edge of
    /// T1 → T2 → T3 → T1 comes from a different site over a different
    /// object, so only the union graph's cycle detection can reject it.
    #[test]
    fn fabricated_cycle_without_order_conflict_is_reported() {
        let x = obj(0, 0);
        let y = obj(0, 1);
        let z = obj(0, 2);
        // Site A orders T1 → T2 (via x) and T2 → T3 (via y); site B orders
        // T3 → T1 (via z). No object is shared by more than two of them,
        // so no single conflicting pair is ordered both ways.
        let site_a = vec![
            upd(1, 2, vec![], vec![x]),
            upd(2, 4, vec![], vec![x, y]),
            upd(3, 6, vec![], vec![y]),
        ];
        let site_b = vec![upd(3, 2, vec![], vec![z]), upd(1, 4, vec![], vec![z])];
        let err = check_one_copy_serializable(&[site_a, site_b]).unwrap_err();
        let Violation::Cycle { on } = err else {
            panic!("expected a cycle, got {err:?}");
        };
        assert!(
            [tid(1), tid(2), tid(3)].contains(&on),
            "the reported node lies on the fabricated cycle: {on}"
        );
        assert!(format!("{err}").contains("cycle"), "{err}");
    }

    #[test]
    fn position_helpers() {
        assert_eq!(CommittedTxn::update_position(TxnIndex::new(3)), 6);
        assert_eq!(CommittedTxn::query_position(SnapshotIndex::after(TxnIndex::new(3))), 7);
        // A query at 3.5 sits strictly between updates 3 and 4.
        assert!(
            CommittedTxn::query_position(SnapshotIndex::after(TxnIndex::new(3)))
                > CommittedTxn::update_position(TxnIndex::new(3))
        );
        assert!(
            CommittedTxn::query_position(SnapshotIndex::after(TxnIndex::new(3)))
                < CommittedTxn::update_position(TxnIndex::new(4))
        );
    }

    #[test]
    fn same_committed_set_checker() {
        let a = vec![tid(1), tid(2)];
        let b = vec![tid(2), tid(1)]; // order irrelevant
        assert!(check_same_committed_set(&[a.clone(), b]).is_ok());
        let c = vec![tid(1)];
        assert_eq!(check_same_committed_set(&[a, c]), Err(1));
        assert!(check_same_committed_set(&[]).is_ok());
    }

    #[test]
    fn violation_display() {
        let v = Violation::OrderConflict { a: tid(1), b: tid(2) };
        assert!(format!("{v}").contains("disagree"));
        let c = Violation::Cycle { on: tid(1) };
        assert!(format!("{c}").contains("cycle"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Histories generated from a single serial order are always
        /// 1-copy-serializable, no matter how reads/writes overlap.
        #[test]
        fn prop_serial_histories_pass(
            n_txns in 1usize..12,
            seed in 0u64..500,
        ) {
            use otp_simnet::SimRng;
            let mut rng = SimRng::seed_from(seed);
            let mut make_site = |positions: &[u64]| -> Vec<CommittedTxn> {
                positions
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let o = obj(0, rng.uniform_range(0, 3));
                        let o2 = obj(0, rng.uniform_range(0, 3));
                        CommittedTxn {
                            id: tid(i as u64),
                            reads: vec![o],
                            writes: vec![o2],
                            position: p,
                        }
                    })
                    .collect()
            };
            // All sites use the same positions (the definitive order).
            let positions: Vec<u64> = (0..n_txns as u64).map(|i| i * 2).collect();
            let site = make_site(&positions);
            // Sites share the same logical history (same ids ⇒ same
            // read/write sets in a real system); clone it.
            let sites = vec![site.clone(), site];
            proptest::prop_assert!(check_one_copy_serializable(&sites).is_ok());
        }
    }
}

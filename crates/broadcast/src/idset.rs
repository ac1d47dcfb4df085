//! Sets and maps keyed by dense counters, stored as runs.
//!
//! Every origin numbers its messages `0, 1, 2, …` (plus one
//! [`crate::RECOVERY_SEQ_GAP`] jump per incarnation), and an engine's
//! delivered or numbered ids fill that space almost gap-free. So
//! [`IdSet`] keeps, per origin, the sorted maximal runs `[start, end)` it
//! holds. Its size follows the number of holes — the out-of-order window
//! plus one run per incarnation jump — and not the number of messages.
//! [`SeqMap`] keeps values the same way, one slot per number, for the
//! payloads of one origin and for consensus instances, which count from 0.

use crate::msg::MsgId;

/// A set of [`MsgId`]s held as sorted, disjoint, non-adjacent runs
/// `[start, end)` per origin site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdSet {
    /// Indexed by origin site; grown on the first insert from an origin.
    runs: Vec<Vec<(u64, u64)>>,
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Adds `id`; false if it was already present.
    pub fn insert(&mut self, id: MsgId) -> bool {
        let origin = id.origin.index();
        if self.runs.len() <= origin {
            self.runs.resize_with(origin + 1, Vec::new);
        }
        let runs = &mut self.runs[origin];
        let s = id.seq;
        // First run starting above `s`; the run before it is the only one
        // that can hold `s` or end right at it.
        let i = runs.partition_point(|r| r.0 <= s);
        if i > 0 && s < runs[i - 1].1 {
            return false;
        }
        let extends_left = i > 0 && runs[i - 1].1 == s;
        let extends_right = i < runs.len() && runs[i].0 == s + 1;
        match (extends_left, extends_right) {
            (true, true) => {
                runs[i - 1].1 = runs[i].1;
                runs.remove(i);
            }
            (true, false) => runs[i - 1].1 = s + 1,
            (false, true) => runs[i].0 = s,
            (false, false) => runs.insert(i, (s, s + 1)),
        }
        true
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: MsgId) -> bool {
        let Some(runs) = self.runs.get(id.origin.index()) else {
            return false;
        };
        let i = runs.partition_point(|r| r.0 <= id.seq);
        i > 0 && id.seq < runs[i - 1].1
    }

    /// Runs held across all origins — the set's memory in entries.
    pub fn runs(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }
}

impl FromIterator<MsgId> for IdSet {
    fn from_iter<I: IntoIterator<Item = MsgId>>(iter: I) -> Self {
        let mut set = IdSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

/// The most empty slots an insert puts between a run's end and its key
/// (DESIGN.md §18). A key further out starts a run of its own — one per
/// incarnation jump. A slot costs one `Option<V>` (8 bytes for an `Arc`
/// batch, 24 for the cluster's payload): the bound caps what one hole can
/// waste, while an out-of-order window or an instance decided ahead of
/// its predecessor still fills one run.
pub(crate) const MAX_HOLE: u64 = 64;

/// A map `u64 → V` for keys that count up almost gap-free, held as sorted,
/// disjoint runs of consecutive keys `(start, slots)`: the value of key
/// `start + i` is in `slots[i]`. Lookups search the runs, not the keys,
/// and iteration is in key order.
#[derive(Debug)]
pub(crate) struct SeqMap<V> {
    runs: Vec<(u64, Vec<Option<V>>)>,
    /// Occupied slots.
    len: usize,
}

impl<V> SeqMap<V> {
    /// An empty map.
    pub(crate) fn new() -> Self {
        SeqMap { runs: Vec::new(), len: 0 }
    }

    /// Stores `value` at `key` unless the key holds a value already (which
    /// stays); true if it was vacant.
    pub(crate) fn insert(&mut self, key: u64, value: V) -> bool {
        // First run starting above `key`; the run before it is the only
        // one that can hold `key` or reach it within `MAX_HOLE`.
        let i = self.runs.partition_point(|r| r.0 <= key);
        let extends = i > 0 && {
            let (start, slots) = &self.runs[i - 1];
            key - start <= slots.len() as u64 + MAX_HOLE
        };
        if !extends {
            self.runs.insert(i, (key, vec![Some(value)]));
            self.len += 1;
            return true;
        }
        let (start, slots) = &mut self.runs[i - 1];
        let at = usize::try_from(key - *start).expect("a run spans less than usize::MAX keys");
        if at >= slots.len() {
            slots.resize_with(at + 1, || None);
        } else if slots[at].is_some() {
            return false;
        }
        slots[at] = Some(value);
        self.len += 1;
        true
    }

    /// The value at `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let i = self.runs.partition_point(|r| r.0 <= key);
        let (start, slots) = self.runs.get(i.checked_sub(1)?)?;
        slots.get(usize::try_from(key - start).ok()?)?.as_ref()
    }

    /// Number of keys holding a value.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Keys and values in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.runs.iter().flat_map(|(start, slots)| {
            (*start..).zip(slots).filter_map(|(key, slot)| Some((key, slot.as_ref()?)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RECOVERY_SEQ_GAP;
    use otp_simnet::SiteId;
    use std::collections::{BTreeMap, HashSet};

    fn id(origin: u16, seq: u64) -> MsgId {
        MsgId::new(SiteId::new(origin), seq)
    }

    fn set_of(seqs: &[u64]) -> IdSet {
        seqs.iter().map(|s| id(0, *s)).collect()
    }

    #[test]
    fn insert_merges_left_right_and_bridges() {
        let mut s = set_of(&[3, 7]);
        assert_eq!(s.runs(), 2);
        assert!(s.insert(id(0, 4)), "merge left");
        assert_eq!(s.runs, vec![vec![(3, 5), (7, 8)]]);
        assert!(s.insert(id(0, 6)), "merge right");
        assert_eq!(s.runs, vec![vec![(3, 5), (6, 8)]]);
        assert!(s.insert(id(0, 5)), "bridge");
        assert_eq!(s.runs, vec![vec![(3, 8)]]);
        assert!(s.insert(id(0, 0)));
        assert_eq!(s.runs, vec![vec![(0, 1), (3, 8)]]);
        for seq in [0, 3, 5, 7] {
            assert!(s.contains(id(0, seq)), "{seq}");
        }
        for seq in [1, 2, 8, 100] {
            assert!(!s.contains(id(0, seq)), "{seq}");
        }
    }

    #[test]
    fn duplicate_insert_is_refused_and_changes_nothing() {
        let mut s = set_of(&[0, 1, 2, 9]);
        let before = s.clone();
        for seq in [0, 1, 2, 9] {
            assert!(!s.insert(id(0, seq)), "{seq}");
        }
        assert_eq!(s, before);
    }

    #[test]
    fn incarnation_jump_costs_one_run() {
        let mut s = IdSet::new();
        for seq in (0..100).chain(RECOVERY_SEQ_GAP + 100..RECOVERY_SEQ_GAP + 200) {
            assert!(s.insert(id(2, seq)));
        }
        assert_eq!(s.runs(), 2);
        assert!(s.contains(id(2, 99)) && s.contains(id(2, RECOVERY_SEQ_GAP + 100)));
        assert!(!s.contains(id(2, 100)) && !s.contains(id(2, RECOVERY_SEQ_GAP + 99)));
        assert!(!s.contains(id(0, 5)) && !s.contains(id(9, 5)), "other origins are empty");
    }

    #[test]
    fn in_order_inserts_leave_one_run_per_origin() {
        let mut s = IdSet::new();
        for seq in 0..1_000 {
            for origin in 0..4 {
                s.insert(id(origin, seq));
            }
        }
        assert_eq!(s.runs(), 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random out-of-order inserts from several origins: `insert` and
        /// `contains` agree with a `HashSet` at every step, and the runs
        /// stay sorted, disjoint and non-adjacent.
        #[test]
        fn prop_agrees_with_a_hash_set(
            inserts in proptest::collection::vec((0u16..4, 0u64..48), 1..200),
        ) {
            let mut set = IdSet::new();
            let mut model: HashSet<MsgId> = HashSet::new();
            for (origin, seq) in inserts {
                let m = id(origin, seq);
                proptest::prop_assert_eq!(set.insert(m), model.insert(m));
                for origin in 0..5 {
                    for seq in 0..50 {
                        let probe = id(origin, seq);
                        proptest::prop_assert_eq!(set.contains(probe), model.contains(&probe));
                    }
                }
            }
            for runs in &set.runs {
                for r in runs {
                    proptest::prop_assert!(r.0 < r.1);
                }
                for w in runs.windows(2) {
                    proptest::prop_assert!(w[0].1 < w[1].0, "{:?}", runs);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random inserts against a `BTreeMap` that keeps the first value
        /// per key: in order, out of order within a window of 8, repeats,
        /// keys one below, at and one past the hole limit, and incarnation
        /// jumps. After every step `insert`, `get`, `len` and `iter` agree
        /// with the reference, the runs stay sorted and disjoint, and a key
        /// past the last run extends it exactly when it is at most
        /// `MAX_HOLE` past its end.
        #[test]
        fn prop_seq_map_agrees_with_a_btree_map(
            ops in proptest::collection::vec((0u8..5, 0u64..1_000), 1..200),
        ) {
            let mut map = SeqMap::new();
            let mut model: BTreeMap<u64, usize> = BTreeMap::new();
            let mut cursor = 0u64;
            for (step, (kind, x)) in ops.into_iter().enumerate() {
                let end = model.keys().next_back().map_or(0, |k| k + 1);
                let key = match kind {
                    0 => cursor,
                    1 => cursor.saturating_sub(8) + x % 16,
                    2 => model.keys().nth(x as usize % model.len().max(1)).copied().unwrap_or(0),
                    3 => end + MAX_HOLE - 1 + x % 3,
                    _ => cursor + RECOVERY_SEQ_GAP,
                };
                cursor = cursor.max(key + 1);
                let runs_before = map.runs.len();
                let vacant = !model.contains_key(&key);
                proptest::prop_assert_eq!(map.insert(key, step), vacant, "key {}", key);
                model.entry(key).or_insert(step);
                if kind == 3 && end > 0 {
                    let new_run = key - end > MAX_HOLE;
                    proptest::prop_assert_eq!(map.runs.len(), runs_before + usize::from(new_run));
                }
                proptest::prop_assert_eq!(map.len(), model.len());
                let listed: Vec<(u64, usize)> = map.iter().map(|(k, v)| (k, *v)).collect();
                let expected: Vec<(u64, usize)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                proptest::prop_assert_eq!(listed, expected);
                for k in model.keys().flat_map(|k| [k.saturating_sub(1), *k, k + 1]) {
                    proptest::prop_assert_eq!(map.get(k), model.get(&k));
                }
                for w in map.runs.windows(2) {
                    proptest::prop_assert!(w[0].0 + w[0].1.len() as u64 <= w[1].0);
                }
            }
        }
    }
}

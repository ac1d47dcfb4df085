//! A set of message ids stored as per-origin runs of sequence numbers.
//!
//! Every origin numbers its messages `0, 1, 2, …` (plus one
//! [`crate::RECOVERY_SEQ_GAP`] jump per incarnation), and an engine's
//! delivered or numbered ids fill that space almost gap-free. So the set
//! keeps, per origin, the sorted maximal runs `[start, end)` it holds. Its
//! size follows the number of holes — the out-of-order window plus one run
//! per incarnation jump — and not the number of messages.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RECOVERY_SEQ_GAP;
    use otp_simnet::SiteId;
    use std::collections::HashSet;

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
}

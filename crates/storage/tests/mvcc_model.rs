//! Model-based property tests for the storage layer: the multi-version
//! store must behave exactly like a naive "replay the committed prefix"
//! model, for arbitrary operation sequences — including snapshot reads at
//! arbitrary indices and garbage collection at arbitrary watermarks.

use otp_storage::{ClassId, Database, ObjectId, ObjectKey, SnapshotIndex, TxnCtx, TxnIndex, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// One committed write batch in the model: `(index, writes)`.
type ModelCommit = (u64, Vec<(u64, i64)>);

/// Naive model: the visible value of `key` at snapshot `s` is the value of
/// the last commit with `index ≤ s` that wrote the key (or the initial
/// load).
fn model_read(
    initial: &HashMap<u64, i64>,
    commits: &[ModelCommit],
    key: u64,
    snap: u64,
) -> Option<i64> {
    let mut value = initial.get(&key).copied();
    for (index, writes) in commits {
        if *index > snap {
            break;
        }
        for (k, v) in writes {
            if *k == key {
                value = Some(*v);
            }
        }
    }
    value
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Arbitrary commit sequences: every snapshot read agrees with the
    /// naive model, before and after GC at any watermark.
    #[test]
    fn prop_snapshot_reads_match_model(
        initial_keys in proptest::collection::vec((0u64..8, -100i64..100), 0..8),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..8, -100i64..100), 1..4),
            1..20,
        ),
        gc_watermark in 0u64..25,
        probe_snaps in proptest::collection::vec(0u64..25, 1..8),
    ) {
        let mut db = Database::new(1);
        // Deduplicate: `load` installs the initial version exactly once
        // per key.
        let initial: HashMap<u64, i64> = initial_keys.iter().copied().collect();
        for (k, v) in &initial {
            db.load(ObjectId::new(0, *k), Value::Int(*v));
        }

        // Commit the batches at indices 1, 2, 3, …
        let mut commits: Vec<ModelCommit> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let index = (i + 1) as u64;
            let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
            for (k, v) in batch {
                ctx.write(ObjectKey::new(*k), Value::Int(*v)).unwrap();
            }
            let eff = ctx.finish();
            db.partition_mut(ClassId::new(0))
                .unwrap()
                .promote(eff.undo.written_keys(), TxnIndex::new(index));
            // Deduplicate model writes per batch (last write wins).
            let mut latest: HashMap<u64, i64> = HashMap::new();
            for (k, v) in batch {
                latest.insert(*k, *v);
            }
            commits.push((index, latest.into_iter().collect()));
        }

        let check_all = |db: &Database, min_snap: u64| {
            for &snap in &probe_snaps {
                if snap < min_snap {
                    continue;
                }
                for key in 0u64..8 {
                    let got = db
                        .read_at(ObjectId::new(0, key), SnapshotIndex::after(TxnIndex::new(snap)))
                        .and_then(Value::as_int);
                    let want = model_read(&initial, &commits, key, snap);
                    prop_assert_eq!(got, want, "key {} snap {}", key, snap);
                }
            }
            Ok(())
        };

        check_all(&db, 0)?;
        // GC below the watermark: snapshots at or above it must be
        // unaffected.
        db.partition_mut(ClassId::new(0))
            .unwrap()
            .trim((0u64..8).map(ObjectKey::new), TxnIndex::new(gc_watermark));
        check_all(&db, gc_watermark)?;
    }

    /// Abort via undo leaves the working state exactly as before, for
    /// arbitrary interleavings of reads and writes.
    #[test]
    fn prop_abort_is_identity(
        initial_keys in proptest::collection::vec((0u64..6, -50i64..50), 1..6),
        ops in proptest::collection::vec((any::<bool>(), 0u64..6, -50i64..50), 1..20),
    ) {
        let mut db = Database::new(1);
        let initial: HashMap<u64, i64> = initial_keys.iter().copied().collect();
        for (k, v) in &initial {
            db.load(ObjectId::new(0, *k), Value::Int(*v));
        }
        let before: Vec<Option<Value>> = (0..6)
            .map(|k| db.partition(ClassId::new(0)).unwrap().read_current(ObjectKey::new(k)).cloned())
            .collect();

        let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
        for (is_write, k, v) in &ops {
            if *is_write {
                ctx.write(ObjectKey::new(*k), Value::Int(*v)).unwrap();
            } else {
                let _ = ctx.read(ObjectKey::new(*k)).unwrap();
            }
        }
        let eff = ctx.finish();
        db.partition_mut(ClassId::new(0)).unwrap().apply_undo(&eff.undo);

        let after: Vec<Option<Value>> = (0..6)
            .map(|k| db.partition(ClassId::new(0)).unwrap().read_current(ObjectKey::new(k)).cloned())
            .collect();
        prop_assert_eq!(before, after);
    }

    /// committed_copy equals the original on committed state, and contains
    /// no trace of in-flight writes.
    #[test]
    fn prop_committed_copy_is_clean(
        committed in proptest::collection::vec((0u64..5, -50i64..50), 1..10),
        dirty in proptest::collection::vec((0u64..5, -50i64..50), 1..6),
    ) {
        let mut db = Database::new(1);
        for (i, (k, v)) in committed.iter().enumerate() {
            let p = db.partition_mut(ClassId::new(0)).unwrap();
            p.write_current(ObjectKey::new(*k), Value::Int(*v));
            p.promote([ObjectKey::new(*k)].into_iter(), TxnIndex::new((i + 1) as u64));
        }
        // In-flight writes that must not survive the copy.
        let p = db.partition_mut(ClassId::new(0)).unwrap();
        for (k, v) in &dirty {
            p.write_current(ObjectKey::new(*k), Value::Int(v.wrapping_mul(7)));
        }
        let copy = db.committed_copy();
        prop_assert!(copy.committed_state_eq(&db));
        for k in 0u64..5 {
            let committed_v = db.read_committed(ObjectId::new(0, k)).cloned();
            let current_v = copy
                .partition(ClassId::new(0))
                .unwrap()
                .read_current(ObjectKey::new(k))
                .cloned();
            prop_assert_eq!(committed_v, current_v, "key {}", k);
        }
    }
}

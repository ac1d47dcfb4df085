//! Tests of [`crate::TxnCtx`] over a class set: the module keeps the name
//! of the multi-class context these tests were first written for.

#[cfg(test)]
mod tests {
    use crate::{AccessError, ClassId, Database, ObjectId, ObjectKey, TxnCtx, TxnIndex, Value};

    fn db() -> Database {
        let mut d = Database::new(3);
        d.load(ObjectId::new(0, 0), Value::Int(10));
        d.load(ObjectId::new(1, 0), Value::Int(20));
        d.load(ObjectId::new(2, 0), Value::Int(30));
        d
    }

    #[test]
    fn reads_and_writes_across_declared_classes() {
        let mut d = db();
        let others = [ClassId::new(1)];
        let mut ctx = TxnCtx::over_classes(&mut d, ClassId::new(0), &others);
        assert_eq!(ctx.read_object(ObjectId::new(0, 0)).unwrap(), Value::Int(10));
        ctx.write_object(ObjectId::new(1, 0), Value::Int(99)).unwrap();
        assert_eq!(ctx.read_object(ObjectId::new(1, 0)).unwrap(), Value::Int(99));
        let eff = ctx.finish();
        assert_eq!(eff.objects_written().collect::<Vec<_>>(), vec![ObjectId::new(1, 0)]);
        assert_eq!(eff.objects_read().count(), 2);
        assert_eq!(eff.undo_logs().count(), 2, "one undo log per class");
    }

    #[test]
    fn undeclared_class_rejected() {
        let mut d = db();
        let mut ctx = TxnCtx::new(&mut d, ClassId::new(0));
        let err = ctx.read_object(ObjectId::new(2, 0)).unwrap_err();
        assert!(matches!(err, AccessError::WrongClass { .. }), "{err:?}");
        assert!(ctx.write_object(ObjectId::new(2, 0), Value::Int(1)).is_err());
        let eff = ctx.finish();
        assert!(eff.other_undo.is_empty() && eff.other_reads.is_empty(), "nothing recorded");
    }

    #[test]
    fn multi_undo_restores_all_classes() {
        let mut d = db();
        let others = [ClassId::new(2)];
        let mut ctx = TxnCtx::over_classes(&mut d, ClassId::new(0), &others);
        ctx.write_object(ObjectId::new(0, 0), Value::Int(-1)).unwrap();
        ctx.write_object(ObjectId::new(2, 0), Value::Int(-1)).unwrap();
        ctx.write_object(ObjectId::new(2, 7), Value::Int(5)).unwrap(); // new key
        let eff = ctx.finish();
        for (class, undo) in eff.undo_logs() {
            d.partition_mut(class).unwrap().apply_undo(undo);
        }
        let p0 = d.partition(ClassId::new(0)).unwrap();
        let p2 = d.partition(ClassId::new(2)).unwrap();
        assert_eq!(p0.read_current(ObjectKey::new(0)), Some(&Value::Int(10)));
        assert_eq!(p2.read_current(ObjectKey::new(0)), Some(&Value::Int(30)));
        assert_eq!(p2.read_current(ObjectKey::new(7)), None);
    }

    #[test]
    fn promote_per_class() {
        let mut d = db();
        let others = [ClassId::new(1)];
        let mut ctx = TxnCtx::over_classes(&mut d, ClassId::new(0), &others);
        ctx.write_object(ObjectId::new(0, 0), Value::Int(11)).unwrap();
        ctx.write_object(ObjectId::new(1, 0), Value::Int(21)).unwrap();
        let eff = ctx.finish();
        for (class, undo) in eff.undo_logs() {
            d.partition_mut(class).unwrap().promote(undo.written_keys(), TxnIndex::new(1));
        }
        assert_eq!(d.read_committed(ObjectId::new(0, 0)), Some(&Value::Int(11)));
        assert_eq!(d.read_committed(ObjectId::new(1, 0)), Some(&Value::Int(21)));
    }

    #[test]
    fn emit_and_output() {
        let mut d = db();
        let mut ctx = TxnCtx::new(&mut d, ClassId::new(0));
        ctx.emit(Value::Bool(true));
        assert_eq!(ctx.finish().output, vec![Value::Bool(true)]);
    }
}

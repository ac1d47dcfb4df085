//! Cross-class transfers with the multi-class OTP extension.
//!
//! Run with: `cargo run --example cross_class_transfers`
//!
//! The base model of the paper pins each transaction to one conflict
//! class, so a transfer between two partitions would force both into one
//! coarse class. The multi-class extension (DESIGN.md §17, following the
//! authors' finer-granularity direction) lets a transaction declare
//! exactly the classes it touches: the replica queues it in *all* of them,
//! executes when it heads *all* of them, and the correctness check
//! reconciles every queue on TO-delivery. This example moves money
//! between departments (classes) and shows the conservation invariant
//! and definitive ordering holding under an adversarial tentative order.

use otpdb::core::{Replica, ReplicaInput};
use otpdb::simnet::sched::{Links, Sched};
use otpdb::simnet::{DurationDist, SimDuration, SimRng, SimTime, SiteId};
use otpdb::storage::{ClassId, Database, ObjectId, ProcRegistry, Value};
use otpdb::txn::txn::{TxnId, TxnRequest};
use std::sync::Arc;

const DEPARTMENTS: u32 = 6;
const OPENING: i64 = 500;

fn main() {
    let mut reg = ProcRegistry::new();
    let mv = reg.register_fn("move_funds", |ctx, args| {
        let g = |i: usize| args[i].as_int().expect("int arg");
        let from = ObjectId::new(g(0) as u32, 0);
        let to = ObjectId::new(g(1) as u32, 0);
        let amount = g(2);
        let a = ctx.read_object(from)?.as_int().unwrap_or(0);
        let b = ctx.read_object(to)?.as_int().unwrap_or(0);
        ctx.write_object(from, Value::Int(a - amount))?;
        ctx.write_object(to, Value::Int(b + amount))?;
        Ok(())
    });

    let mut db = Database::new(DEPARTMENTS as usize);
    for d in 0..DEPARTMENTS {
        db.load(ObjectId::new(d, 0), Value::Int(OPENING));
    }
    let mut replica = Replica::new(SiteId::new(0), db, Arc::new(reg));

    // 24 transfers between random-ish department pairs; TO-deliveries
    // arrive in REVERSE submission order — a maximally wrong tentative
    // order, so the correctness check has real work to do.
    // The replica runs on the simulator's scheduler; an execution takes
    // 1 ms.
    let exec = DurationDist::Fixed(SimDuration::from_millis(1));
    let mut sched =
        Sched::new(Links::uniform(1, SimDuration::ZERO), SimRng::seed_from(0)).with_work_time(exec);
    let site = SiteId::new(0);
    let n = 24u64;
    let mut homes = Vec::new();
    let mut t = SimTime::from_millis(1);
    for i in 0..n {
        let from = (i % DEPARTMENTS as u64) as u32;
        let to = ((i * 5 + 1) % DEPARTMENTS as u64) as u32;
        let (from, to) = if from == to { (from, (to + 1) % DEPARTMENTS) } else { (from, to) };
        let req = TxnRequest::over_classes(
            TxnId::new(SiteId::new(0), i),
            [ClassId::new(from), ClassId::new(to)],
            mv,
            vec![Value::Int(from as i64), Value::Int(to as i64), Value::Int(10)],
        );
        homes.push(req.class);
        sched.schedule_submit(t, site, ReplicaInput::Opt(req));
        t += SimDuration::from_micros(400);
    }
    // Definitive order = reverse tentative order, arriving later.
    for i in 0..n {
        let at = SimTime::from_millis(30) + SimDuration::from_micros(100 * i);
        let seq = n - 1 - i;
        sched.schedule_submit(
            at,
            site,
            ReplicaInput::To(TxnId::new(site, seq), homes[seq as usize]),
        );
    }

    let mut commits = 0u64;
    sched.run_until(SimTime::MAX, &mut replica, |_, _, _| commits += 1);

    println!("== otpdb cross-class transfers (multi-class extension) ==");
    println!("transfers committed : {commits}/{n}");
    println!("aborts              : {}", replica.counters.get("abort"));
    println!("reorders            : {}", replica.counters.get("reorder"));
    let log: Vec<u64> = replica.commit_log().iter().map(|(t, _)| t.seq).collect();
    println!("commit order        : {log:?}");
    let total: i64 = (0..DEPARTMENTS)
        .map(|d| {
            replica.db().read_committed(ObjectId::new(d, 0)).and_then(Value::as_int).unwrap_or(0)
        })
        .sum();
    println!("total funds         : {total} (invariant: {})", DEPARTMENTS as i64 * OPENING);
    assert_eq!(commits, n);
    assert_eq!(total, DEPARTMENTS as i64 * OPENING);
    // Commits followed the definitive (reversed) order where they conflict;
    // the invariant check above plus queue invariants guarantee it.
    replica.check_invariants().expect("queues consistent");
    println!("done — definitive order enforced across overlapping class sets.");
}

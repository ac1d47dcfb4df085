//! Live cluster: the same OTP state machines on real OS threads.
//!
//! Run with: `cargo run --example live_cluster`
//!
//! Three site threads send each other messages directly, each stamped
//! with a real (wall-clock) delay and jitter that its receiver waits out
//! before delivering it — so spontaneous order, optimistic execution and
//! definitive commit all happen in real time, no simulator involved. This is the deployment shape of the
//! library; the simulator exists for reproducible experiments.

use otpdb::core::runtime::{LiveCluster, LiveConfig};
use otpdb::simnet::SiteId;
use otpdb::storage::{ClassId, ObjectId, Value};
use otpdb::workload::StandardProcs;
use std::time::Duration;

fn main() {
    let (registry, procs) = StandardProcs::registry();

    // Two conflict classes, one object each.
    let initial = vec![(ObjectId::new(0, 0), Value::Int(0)), (ObjectId::new(1, 0), Value::Int(0))];
    let cluster = LiveCluster::start(LiveConfig::new(3, 2), registry, initial);

    println!("== otpdb live cluster (3 threads) ==");
    let n = 30u64;
    for i in 0..n {
        cluster
            .submit(
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 2) as u32),
                procs.add,
                vec![Value::Int(0), Value::Int(1)],
            )
            .expect("admitted");
    }
    println!("submitted {n} increments across 3 sites / 2 classes …");

    let report = cluster.shutdown(Duration::from_secs(30));

    for (i, log) in report.committed.iter().enumerate() {
        println!("site {i}: {} commits", log.len());
        assert_eq!(log.len() as u64, n);
    }
    println!("replicas converged: {}", report.converged);
    assert!(report.converged);

    let v0 = report.dbs[0].read_committed(ObjectId::new(0, 0)).cloned();
    let v1 = report.dbs[0].read_committed(ObjectId::new(1, 0)).cloned();
    println!("class 0 counter: {:?} (expected 15)", v0);
    println!("class 1 counter: {:?} (expected 15)", v1);
    assert_eq!(v0, Some(Value::Int(15)));
    assert_eq!(v1, Some(Value::Int(15)));
    println!("done — same algorithm, real threads, real time.");
}

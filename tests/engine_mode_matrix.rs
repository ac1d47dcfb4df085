//! The full engine × mode matrix on one deterministic workload: every
//! combination must commit everything, converge, and stay
//! 1-copy-serializable — and all OTP/conservative combinations must agree
//! on the exact same final database state (the definitive order is the
//! same logical history everywhere).

use otpdb::core::{Cluster, ClusterBuilder, ClusterConfig, DurationDist, EngineKind, Mode};
use otpdb::simnet::{SimDuration, SimTime};
use otpdb::txn::history::check_one_copy_serializable;
use otpdb::workload::{Arrival, StandardProcs, WorkloadSpec};

fn engines() -> Vec<(&'static str, EngineKind)> {
    vec![
        ("opt", EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) }),
        (
            "opt-batched",
            EngineKind::OptBatched {
                consensus_timeout: SimDuration::from_millis(60),
                batch_delay: SimDuration::from_millis(2),
            },
        ),
        ("sequencer", EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }),
        (
            "scrambled",
            EngineKind::Scrambled {
                agreement_delay: SimDuration::from_millis(3),
                swap_probability: 0.25,
            },
        ),
    ]
}

#[test]
fn every_engine_times_every_mode_is_correct_and_equivalent() {
    let spec = WorkloadSpec::new(4, 6, 90)
        .with_arrival(Arrival::Poisson { mean: SimDuration::from_millis(3) })
        .with_seed(401);
    let (_, procs) = StandardProcs::registry();
    let schedule = spec.generate(&procs);

    let mut final_states: Vec<(String, Cluster)> = Vec::new();
    for (ename, engine) in engines() {
        for mode in [Mode::Otp, Mode::Conservative] {
            let (registry, _) = StandardProcs::registry();
            let config = ClusterConfig::new(4, 6)
                .with_engine(engine)
                .with_mode(mode)
                .with_exec_time(DurationDist::Fixed(SimDuration::from_millis(1)))
                .with_seed(401);
            let mut cluster = ClusterBuilder::from_config(config)
                .registry(registry)
                .initial_data(spec.initial_data())
                .build();
            schedule.apply(&mut cluster);
            cluster.run_until(SimTime::from_secs(600));

            let label = format!("{ename}/{mode:?}");
            let stats = cluster.stats();
            assert_eq!(stats.completed, 90, "{label}: everything commits");
            assert!(cluster.converged(), "{label}: replicas converge");
            check_one_copy_serializable(&cluster.histories())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            final_states.push((label, cluster));
        }
    }

    // Cross-system equivalence. The per-class serial order may legally
    // differ between engines (each defines its own definitive order), but
    // since every class's updates here are commutative increments on the
    // same keys, the final committed VALUES must be identical; and within
    // one engine the OTP and conservative modes follow the *same*
    // definitive order, so their states must match exactly.
    for pair in final_states.chunks(2) {
        let (la, ca) = &pair[0];
        let (lb, cb) = &pair[1];
        assert!(
            ca.replicas[0].db().committed_state_eq(cb.replicas[0].db()),
            "{la} and {lb} must produce the same state"
        );
    }
}

//! Property-based end-to-end tests: random cluster shapes, workloads and
//! broadcast engines must always satisfy the paper's correctness results.

use otpdb::core::{ClusterBuilder, ClusterConfig, DurationDist, EngineKind};
use otpdb::simnet::{SimDuration, SimTime};
use otpdb::txn::history::{check_one_copy_serializable, check_same_committed_set};
use otpdb::workload::{Arrival, ClassSelection, StandardProcs, WorkloadSpec};
use proptest::prelude::*;

fn engine_strategy() -> impl Strategy<Value = EngineKind> {
    prop_oneof![
        Just(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(60) }),
        Just(EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }),
        (1u64..8, 0.0..0.6f64).prop_map(|(d, p)| EngineKind::Scrambled {
            agreement_delay: SimDuration::from_millis(d),
            swap_probability: p,
        }),
    ]
}

fn selection_strategy() -> impl Strategy<Value = ClassSelection> {
    prop_oneof![
        Just(ClassSelection::Uniform),
        (0.5..1.5f64).prop_map(|e| ClassSelection::Zipf { exponent: e }),
        Just(ClassSelection::HotSpot { hot_fraction: 0.2, hot_probability: 0.8 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// For arbitrary engines, skews and shapes: everything commits,
    /// committed sets agree, histories are 1-copy-serializable, replicas
    /// converge.
    #[test]
    fn prop_otp_correct_under_randomness(
        sites in 2usize..6,
        classes in 1usize..10,
        updates in 20u64..80,
        engine in engine_strategy(),
        selection in selection_strategy(),
        seed in 0u64..10_000,
    ) {
        let spec = WorkloadSpec::new(sites, classes, updates)
            .with_selection(selection)
            .with_arrival(Arrival::Poisson { mean: SimDuration::from_millis(4) })
            .with_queries(0.2, classes.min(3))
            .with_seed(seed);
        let (registry, procs) = StandardProcs::registry();
        let schedule = spec.generate(&procs);
        let config = ClusterConfig::new(sites, classes)
            .with_engine(engine)
            .with_exec_time(DurationDist::Exponential { mean: SimDuration::from_millis(2) })
            .with_seed(seed);
        let mut cluster = ClusterBuilder::from_config(config).registry(registry).initial_data(spec.initial_data()).build();
        let ids = schedule.apply(&mut cluster);
        cluster.run_until(SimTime::from_secs(600));

        let stats = cluster.stats();
        prop_assert_eq!(stats.completed as usize, ids.len(), "all requests commit");
        prop_assert!(check_same_committed_set(&cluster.committed_ids()).is_ok());
        prop_assert!(check_one_copy_serializable(&cluster.histories()).is_ok());
        prop_assert!(cluster.converged());
    }
}

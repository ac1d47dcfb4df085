//! Threaded-runtime integration suite: the engine × mode matrix under
//! real threads, plus regression tests for the shutdown/liveness bugs the
//! production pass fixed (in-flight wire loss at stop, deadline behavior
//! under conflict aborts, the unwired admission gate), a tier-1 mini-soak
//! exercising backpressure, the live-nemesis satellites (stall
//! tolerance, pressure-spike backpressure, bounded shutdown under a
//! never-healed partition, a crashed site parking its inbound traffic),
//! and deadlock freedom at one-message site queues.
//!
//! Every test body runs under a hard wall-clock watchdog
//! ([`otp_lab::watchdog::with_watchdog`]) — a deadlock fails fast with an
//! in-flight-accounting snapshot instead of hanging the whole job.

use otp_core::runtime::{LiveCluster, LiveConfig, SubmitError};
use otp_core::{EngineKind, Mode};
use otp_lab::watchdog::with_watchdog;
use otp_simnet::nemesis::NemesisEvent;
use otp_simnet::{SimDuration, SiteId};
use otp_storage::{ClassId, ObjectId, ObjectKey, ProcError, ProcId, ProcRegistry, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock cap for one test body — far above any healthy run, far
/// below the CI job timeout.
const WATCHDOG_CAP: Duration = Duration::from_secs(240);

fn registry() -> Arc<ProcRegistry> {
    let mut reg = ProcRegistry::new();
    reg.register_fn("add", |ctx, args| {
        let (k, d) = match (args.first(), args.get(1)) {
            (Some(Value::Int(k)), Some(Value::Int(d))) => (ObjectKey::new(*k as u64), *d),
            _ => return Err(ProcError::BadArgs("add(key, delta)".into())),
        };
        let v = ctx.read(k)?.as_int().unwrap_or(0);
        ctx.write(k, Value::Int(v + d))?;
        Ok(())
    });
    Arc::new(reg)
}

fn initial(classes: u32) -> Vec<(ObjectId, Value)> {
    (0..classes).map(|c| (ObjectId::new(c, 0), Value::Int(0))).collect()
}

/// Every broadcast engine × both processing modes converges under real
/// threads (the pre-production runtime hardwired `OptAbcast`, leaving the
/// other engines with zero real-clock coverage).
#[test]
fn threaded_engine_mode_matrix() {
    with_watchdog("threaded_engine_mode_matrix", WATCHDOG_CAP, |_| {
        let engines: Vec<(&str, EngineKind)> = vec![
            ("opt", EngineKind::Opt { consensus_timeout: SimDuration::from_millis(100) }),
            (
                "optbatch",
                EngineKind::OptBatched {
                    consensus_timeout: SimDuration::from_millis(100),
                    batch_delay: SimDuration::from_micros(500),
                },
            ),
            ("seq", EngineKind::SequencerBatched { order_delay: SimDuration::ZERO }),
            (
                "seqbatch",
                EngineKind::SequencerBatched { order_delay: SimDuration::from_micros(500) },
            ),
            (
                "scramble",
                EngineKind::Scrambled {
                    agreement_delay: SimDuration::from_millis(2),
                    swap_probability: 0.2,
                },
            ),
        ];
        for (name, engine) in engines {
            for mode in [Mode::Otp, Mode::Conservative] {
                let cfg = LiveConfig::new(3, 2)
                    .with_engine(engine)
                    .with_mode(mode)
                    .with_exec_time(Duration::from_micros(200));
                let cluster = LiveCluster::start(cfg, registry(), initial(2));
                for i in 0..30u64 {
                    cluster
                        .submit(
                            SiteId::new((i % 3) as u16),
                            ClassId::new((i % 2) as u32),
                            ProcId::new(0),
                            vec![Value::Int(0), Value::Int(1)],
                        )
                        .expect("admitted");
                }
                let report = cluster.shutdown(Duration::from_secs(30));
                assert!(report.converged, "{name}/{mode:?}: replicas diverged");
                assert!(report.quiesced, "{name}/{mode:?}: did not quiesce");
                for (s, log) in report.committed.iter().enumerate() {
                    assert_eq!(log.len(), 30, "{name}/{mode:?}: site {s} missing commits");
                }
                assert_eq!(report.committed_total, 90, "{name}/{mode:?}");
                // The registry's decision counters, summed over the sites:
                // each of the three decides every instance once.
                let decided =
                    report.counters.get("fast_decide") + report.counters.get("slow_decide");
                assert_eq!(decided > 0, name.starts_with("opt"), "{name}/{mode:?}: {decided}");
                assert_eq!(decided % 3, 0, "{name}/{mode:?}: {decided}");
            }
        }
    });
}

/// Regression (wire loss at stop): the old runtime's site threads broke
/// out of their loop on the first recv timeout after `Stop`, while the
/// network's delay heap and the site channels could still hold due wires —
/// so a deadline shorter than the workload silently dropped in-flight
/// work and flipped `converged` false. The two-phase shutdown quiesces
/// (bounded by the grace budget) before any thread exits: even a ZERO
/// deadline must lose nothing that was admitted.
#[test]
fn zero_deadline_shutdown_loses_no_admitted_work() {
    with_watchdog("zero_deadline_shutdown_loses_no_admitted_work", WATCHDOG_CAP, |_| {
        let mut cfg = LiveConfig::new(4, 1).with_exec_time(Duration::from_millis(2));
        cfg.quiesce_grace = Duration::from_secs(60);
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        for i in 0..200u64 {
            cluster
                .submit(
                    SiteId::new((i % 4) as u16),
                    ClassId::new(0),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted");
        }
        // Shut down immediately: everything submitted is still in flight.
        let report = cluster.shutdown(Duration::ZERO);
        assert!(report.quiesced, "grace budget must drain admitted work");
        assert!(report.converged);
        assert_eq!(report.accepted, 200);
        assert_eq!(report.committed_total, 800, "every admitted txn commits at every site");
        for log in &report.committed {
            assert_eq!(log.len(), 200);
        }
        assert_eq!(report.dbs[0].read_committed(ObjectId::new(0, 0)), Some(&Value::Int(200)));
    });
}

/// Regression (shutdown under conflict aborts): the old shutdown waited
/// on `committed == submitted × sites` — a commit-only count that ignores
/// the abort path entirely. The production shutdown is driven by exact
/// in-flight accounting: it returns as soon as the system is provably
/// idle, aborts included, without burning the deadline. A same-class
/// cross-site workload forces spontaneous-order violations (real aborts);
/// the run must still converge, quiesce, and return long before a
/// deliberately huge deadline.
///
/// The first violation is constructed, not hoped for (jitter alone left
/// `abort == 0` in a third of the runs when the binary's tests shared two
/// cores): site 7 is cut off and Opt-delivers its own X — the only message
/// that can reach it — and starts executing it; the other seven order Y
/// without ever seeing X; at the heal site 7 TO-delivers Y with X at the
/// head of the class queue, and has to abort it.
#[test]
fn conflict_aborts_converge_without_burning_deadline() {
    with_watchdog("conflict_aborts_converge_without_burning_deadline", WATCHDOG_CAP, |_| {
        let mut cfg = LiveConfig::new(8, 1).with_exec_time(Duration::from_micros(1500));
        // Jitter an order of magnitude above the base delay: per-receiver
        // arrival spread makes tentative orders disagree across sites, so
        // the bulk of the workload keeps hitting the abort path too.
        cfg.net_delay = Duration::from_micros(100);
        cfg.net_jitter = Duration::from_millis(2);
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        let submit = |site: u16| {
            cluster
                .submit(
                    SiteId::new(site),
                    ClassId::new(0),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted");
        };
        let loner = SiteId::new(7);
        cluster.apply_fault(&NemesisEvent::PartitionHalves { group_a: vec![loner] });
        submit(7); // X: tentative at site 7, invisible to everyone else
        submit(0); // Y: definitive first, by a majority that never saw X
        while cluster.committed_total() < 7 {
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.apply_fault(&NemesisEvent::Heal);
        for i in 2..300u64 {
            submit((i % 8) as u16);
        }
        let t0 = Instant::now();
        let report = cluster.shutdown(Duration::from_secs(120));
        let elapsed = t0.elapsed();
        assert!(report.converged);
        assert!(report.quiesced);
        assert_eq!(report.committed_total, 300 * 8);
        assert!(
            report.counters.get("abort") > 0,
            "workload must actually exercise the abort path (got none)"
        );
        assert!(elapsed < Duration::from_secs(60), "shutdown burned the deadline: {elapsed:?}");
    });
}

/// Regression (dead admission gate): `running` was stored at shutdown but
/// never read, so nothing ever refused work. Now `halt_admissions` fences
/// submissions — racing submitters each see a clean cut, and everything
/// admitted before the fence still commits everywhere.
#[test]
fn halted_admissions_reject_racing_submitters() {
    with_watchdog("halted_admissions_reject_racing_submitters", WATCHDOG_CAP, |_| {
        let cfg = LiveConfig::new(2, 2).with_exec_time(Duration::from_micros(200));
        let cluster = LiveCluster::start(cfg, registry(), initial(2));
        let admitted: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let cluster = &cluster;
                    s.spawn(move || {
                        let mut ok = 0u64;
                        for i in 0..500u64 {
                            match cluster.submit(
                                SiteId::new(((t + i) % 2) as u16),
                                ClassId::new((i % 2) as u32),
                                ProcId::new(0),
                                vec![Value::Int(0), Value::Int(1)],
                            ) {
                                Ok(_) => ok += 1,
                                Err(SubmitError::ShuttingDown) => break,
                                Err(e) => unreachable!("submit blocks on backpressure: {e}"),
                            }
                        }
                        ok
                    })
                })
                .collect();
            // Let the submitters make progress, then slam the gate.
            std::thread::sleep(Duration::from_millis(5));
            cluster.halt_admissions();
            handles.into_iter().map(|h| h.join().expect("submitter")).sum()
        });
        assert_eq!(
            cluster.try_submit(
                SiteId::new(0),
                ClassId::new(0),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)]
            ),
            Err(SubmitError::ShuttingDown),
            "gate must refuse new work once halted"
        );
        assert_eq!(cluster.accepted(), admitted, "accepted must equal successful submits");
        let report = cluster.shutdown(Duration::from_secs(60));
        assert!(report.converged);
        assert!(report.quiesced);
        assert_eq!(report.accepted, admitted);
        assert_eq!(report.committed_total, admitted * 2, "admitted work commits everywhere");
    });
}

/// Tier-1 mini-soak: submit much faster than `exec_time` drains through
/// deliberately tiny queues and a tiny admission window. Backpressure
/// must engage (not deadlock, not drop), memory stays bounded by
/// construction, and the run completes fully.
#[test]
fn mini_soak_backpressure_bounds_inflight() {
    with_watchdog("mini_soak_backpressure_bounds_inflight", WATCHDOG_CAP, |_| {
        let mut cfg = LiveConfig::new(3, 1).with_exec_time(Duration::from_millis(1));
        cfg.max_in_flight = 16;
        cfg.site_queue = 8;
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let cluster = &cluster;
                s.spawn(move || {
                    for i in 0..150u64 {
                        cluster
                            .submit(
                                SiteId::new(((t + i) % 3) as u16),
                                ClassId::new(0),
                                ProcId::new(0),
                                vec![Value::Int(0), Value::Int(1)],
                            )
                            .expect("admitted");
                    }
                });
            }
        });
        assert!(
            cluster.backpressure_events() > 0,
            "window of 16 against 300 fast submissions must push back"
        );
        let report = cluster.shutdown(Duration::from_secs(120));
        assert!(report.converged);
        assert!(report.quiesced);
        assert_eq!(report.accepted, 300);
        assert_eq!(report.committed_total, 900);
        assert_eq!(report.dbs[0].read_committed(ObjectId::new(0, 0)), Some(&Value::Int(300)));
        assert_eq!(report.commit_latency.len(), 300, "one latency sample per origin commit");
    });
}

/// Satellite (stall tolerance): one site's worker thread stalls 200 ms
/// mid-run while the rest of the cluster keeps committing. The stalled
/// thread processes nothing during the stall — its inbound queue and the
/// in-flight units simply wait — so once it wakes the cluster must
/// converge with the stalled site's commit order identical (hence
/// prefix-consistent at every instant) to everyone else's.
#[test]
fn stalled_site_catches_up_with_prefix_consistent_order() {
    with_watchdog("stalled_site_catches_up_with_prefix_consistent_order", WATCHDOG_CAP, |dog| {
        let cfg = LiveConfig::new(4, 2).with_exec_time(Duration::from_micros(200));
        let cluster = LiveCluster::start(cfg, registry(), initial(2));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());
        let submit = |i: u64| {
            cluster
                .submit(
                    SiteId::new((i % 4) as u16),
                    ClassId::new((i % 2) as u32),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted")
        };
        for i in 0..40u64 {
            submit(i);
        }
        // Mid-run: stall site 2 while traffic keeps flowing around it.
        cluster.apply_fault(&NemesisEvent::ThreadStall {
            site: SiteId::new(2),
            duration: SimDuration::from_millis(200),
        });
        for i in 40..80u64 {
            submit(i);
        }
        let report = cluster.shutdown(Duration::from_secs(60));
        assert!(report.quiesced, "stall only delays work, it must all drain");
        assert!(report.converged, "stalled site failed to catch up");
        assert_eq!(report.undelivered_at_stop, 0);
        assert_eq!(report.accepted, 80);
        assert_eq!(report.committed_total, 80 * 4);
        // Local commit sequences may legally interleave the two
        // *non-conflicting* classes differently per site (the paper's
        // whole point is that only conflicting transactions need the
        // definitive order). The definitive order itself — each log
        // sorted by its TxnIndex — must match the others exactly, so the
        // stalled site's order is a permutation-free prefix of no one:
        // it is the *same* total order.
        let definitive = |log: &[(otp_txn::txn::TxnId, otp_storage::TxnIndex)]| {
            let mut v = log.to_vec();
            v.sort_by_key(|(_, idx)| *idx);
            v
        };
        let reference = definitive(&report.commit_logs[0]);
        for (s, log) in report.commit_logs.iter().enumerate() {
            assert_eq!(log.len(), 80, "site {s}");
            assert_eq!(
                definitive(log),
                reference,
                "site {s}: definitive commit order diverged from site 0"
            );
        }
        let inv = report.check_invariants(&[]);
        assert!(inv.is_ok(), "{inv}");
    });
}

/// Satellite (pressure spike → backpressure): throttling one site's drain
/// budget to 1 must saturate its bounded inbound queue and make
/// `try_submit` *return* `SubmitError::Backpressure` — never block, never
/// drop. Once the spike expires, everything accepted (before, during and
/// after) commits exactly once at every site.
#[test]
fn pressure_spike_backpressures_then_commits_exactly_once() {
    with_watchdog("pressure_spike_backpressures_then_commits_exactly_once", WATCHDOG_CAP, |dog| {
        let mut cfg = LiveConfig::new(3, 1).with_exec_time(Duration::from_millis(1));
        cfg.max_in_flight = 8;
        cfg.site_queue = 8;
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());

        cluster.apply_fault(&NemesisEvent::PressureSpike {
            site: SiteId::new(0),
            drain_limit: 1,
            duration: SimDuration::from_millis(400),
        });
        // Give the control message one idle tick to land before hammering.
        std::thread::sleep(Duration::from_millis(30));

        let mut accepted = Vec::new();
        let mut rejections = 0u64;
        for _ in 0..5_000u64 {
            match cluster.try_submit(
                SiteId::new(0),
                ClassId::new(0),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            ) {
                Ok(id) => accepted.push(id),
                Err(SubmitError::Backpressure) => {
                    rejections += 1;
                    if rejections > 50 {
                        break;
                    }
                }
                Err(e) => unreachable!("nobody halted admissions or crashed sites: {e}"),
            }
        }
        assert!(
            rejections > 0,
            "a drain budget of 1 against a tight submit loop must backpressure"
        );

        // Wait the spike out, then prove the lane is fully healthy again.
        std::thread::sleep(Duration::from_millis(500));
        for i in 0..20u64 {
            accepted.push(
                cluster
                    .submit(
                        SiteId::new((i % 3) as u16),
                        ClassId::new(0),
                        ProcId::new(0),
                        vec![Value::Int(0), Value::Int(1)],
                    )
                    .expect("admitted after the spike healed"),
            );
        }

        let report = cluster.shutdown(Duration::from_secs(60));
        assert!(report.quiesced);
        assert!(report.converged);
        assert_eq!(report.accepted, accepted.len() as u64);
        assert_eq!(report.committed_total, accepted.len() as u64 * 3);
        for (s, log) in report.committed.iter().enumerate() {
            assert_eq!(log.len(), accepted.len(), "site {s}");
            let unique: std::collections::HashSet<_> = log.iter().collect();
            assert_eq!(unique.len(), log.len(), "site {s}: a txn committed twice");
            for id in &accepted {
                assert!(unique.contains(id), "site {s}: accepted {id} never committed");
            }
        }
    });
}

/// Satellite (bounded shutdown under a never-healed cut): wires parked
/// behind a partition nobody will ever heal are forever undeliverable —
/// they must not hold phase-1 quiescence hostage. With a deliberately
/// huge grace budget, shutdown must still return promptly (quiescent
/// *modulo* the held wires), reporting them via `undelivered_at_stop`.
#[test]
fn shutdown_is_bounded_under_never_healed_partition() {
    with_watchdog("shutdown_is_bounded_under_never_healed_partition", WATCHDOG_CAP, |dog| {
        let mut cfg = LiveConfig::new(4, 1).with_exec_time(Duration::from_micros(200));
        // The regression would burn this entire budget; the fix must not.
        cfg.quiesce_grace = Duration::from_secs(600);
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());

        // Phase A: a batch that commits everywhere while the net is whole.
        for i in 0..40u64 {
            cluster
                .submit(
                    SiteId::new((i % 4) as u16),
                    ClassId::new(0),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted");
        }
        let settled = Instant::now();
        while cluster.committed_total() < 40 * 4 {
            assert!(settled.elapsed() < Duration::from_secs(60), "phase A never settled");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Phase B: cut site 3 off forever; the 3-site majority quorum
        // keeps deciding, its wires to site 3 park at site 3.
        cluster.apply_fault(&NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(3)] });
        for i in 0..20u64 {
            cluster
                .submit(
                    SiteId::new((i % 3) as u16),
                    ClassId::new(0),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted");
        }

        let t0 = Instant::now();
        let report = cluster.shutdown(Duration::ZERO);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(120),
            "shutdown burned the grace budget against held wires: {elapsed:?}"
        );
        assert!(report.quiesced, "deliverable work drained; held wires must not count");
        assert!(report.undelivered_at_stop > 0, "the cut was never healed");
        assert!(!report.converged, "site 3 cannot have phase B");
        assert_eq!(report.accepted, 60);
        // Majority sites carry both phases; the minority only phase A.
        for s in 0..3 {
            assert_eq!(report.committed[s].len(), 60, "majority site {s}");
        }
        assert_eq!(report.committed[3].len(), 40, "cut-off site has phase A only");
    });
}

/// The `held=` field of a diagnostics snapshot.
fn held(snapshot: &str) -> i64 {
    let field = snapshot.split_whitespace().find_map(|f| f.strip_prefix("held="));
    field.and_then(|v| v.parse().ok()).expect("snapshot has a held= field")
}

/// Satellite (a crashed site parks its inbound traffic): one of four
/// sites is frozen and isolated for 300 ms while traffic keeps arriving
/// for it through a queue of 8. Its inbound wires must be parked
/// (`held > 0`) rather than bounced between full queues for the whole
/// outage, and after the thaw every admitted transaction — including the
/// ones submitted at the frozen site — commits exactly once everywhere.
#[test]
fn crashed_site_parks_inbound_traffic_then_commits_exactly_once() {
    with_watchdog(
        "crashed_site_parks_inbound_traffic_then_commits_exactly_once",
        WATCHDOG_CAP,
        |dog| {
            let mut cfg = LiveConfig::new(4, 2).with_exec_time(Duration::from_micros(200));
            cfg.site_queue = 8;
            let cluster = LiveCluster::start(cfg, registry(), initial(2));
            let diag = cluster.diag_handle();
            let dog_diag = diag.clone();
            dog.set_diag("live-cluster", move || dog_diag.snapshot());
            let submit = |site: u64, i: u64| {
                cluster
                    .submit(
                        SiteId::new(site as u16),
                        ClassId::new((i % 2) as u32),
                        ProcId::new(0),
                        vec![Value::Int(0), Value::Int(1)],
                    )
                    .expect("admitted")
            };
            for i in 0..40u64 {
                submit(i % 4, i);
            }
            let frozen = SiteId::new(3);
            cluster.apply_fault(&NemesisEvent::Crash { site: frozen });
            let mut max_held = 0;
            let mut admitted = 40u64;
            std::thread::scope(|s| {
                // Submissions at the frozen site itself: they wait (in its
                // queue or its backlog) until the thaw.
                let at_frozen = s.spawn(|| {
                    for i in 0..10u64 {
                        submit(3, i);
                    }
                });
                let t0 = Instant::now();
                let mut i = 0u64;
                while t0.elapsed() < Duration::from_millis(300) {
                    submit(i % 3, i);
                    admitted += 1;
                    i += 1;
                    max_held = max_held.max(held(&diag.snapshot()));
                    std::thread::sleep(Duration::from_millis(2));
                }
                cluster.apply_fault(&NemesisEvent::Recover { site: frozen });
                at_frozen.join().expect("submitter at the frozen site");
            });
            admitted += 10;
            assert!(max_held > 0, "wires to the frozen site were never parked");
            let report = cluster.shutdown(Duration::from_secs(60));
            assert!(report.quiesced, "a freeze only delays work, it must all drain");
            assert!(report.converged);
            assert_eq!(report.undelivered_at_stop, 0);
            assert_eq!(report.accepted, admitted);
            assert_eq!(report.committed_total, admitted * 4);
            for (s, log) in report.committed.iter().enumerate() {
                let unique: std::collections::HashSet<_> = log.iter().collect();
                assert_eq!(log.len(), admitted as usize, "site {s}");
                assert_eq!(unique.len(), log.len(), "site {s}: a txn committed twice");
            }
        },
    );
}

/// Loss and jitter on the wall clock, under the simulator's rules
/// (`Faults`): during a loss burst a wire is charged retransmission
/// delays, never dropped, and a jitter spike stretches each wire's spread.
/// Traffic keeps flowing through both and after them, and every admitted
/// transaction must commit exactly once at every site, in one definitive
/// order.
#[test]
fn loss_burst_and_jitter_spike_delay_but_lose_nothing() {
    with_watchdog("loss_burst_and_jitter_spike_delay_but_lose_nothing", WATCHDOG_CAP, |dog| {
        let cfg = LiveConfig::new(4, 2).with_exec_time(Duration::from_micros(200));
        let cluster = LiveCluster::start(cfg, registry(), initial(2));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());
        let submit = |i: u64| {
            cluster
                .submit(
                    SiteId::new((i % 4) as u16),
                    ClassId::new((i % 2) as u32),
                    ProcId::new(0),
                    vec![Value::Int(0), Value::Int(1)],
                )
                .expect("admitted")
        };
        for i in 0..40u64 {
            submit(i);
        }
        cluster.apply_fault(&NemesisEvent::LossBurst { probability: 0.3 });
        cluster.apply_fault(&NemesisEvent::JitterSpike { scale: 4.0 });
        let t0 = Instant::now();
        let mut admitted = 40u64;
        while t0.elapsed() < Duration::from_millis(200) {
            submit(admitted);
            admitted += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        cluster.apply_fault(&NemesisEvent::LossEnd);
        cluster.apply_fault(&NemesisEvent::JitterEnd);
        for _ in 0..40 {
            submit(admitted);
            admitted += 1;
        }
        let report = cluster.shutdown(Duration::from_secs(60));
        assert!(report.quiesced, "loss and jitter only delay work, it must all drain");
        assert_eq!(report.undelivered_at_stop, 0);
        assert_eq!(report.accepted, admitted);
        assert_eq!(report.committed_total, admitted * 4);
        assert!(report.converged);
        let inv = report.check_invariants(&[]);
        assert!(inv.is_ok(), "{inv}");
    });
}

/// Satellite (deadlock freedom at the smallest queue): with every site
/// queue one message deep, each wire a site sends finds its peer's queue
/// full most of the time. No site may block on a peer — a site blocked
/// sending to a peer that is blocked sending back would stall both for
/// good, and the watchdog would fire — so the run must converge and
/// quiesce with every admitted transaction committed at every site.
#[test]
fn smallest_queues_cannot_deadlock() {
    with_watchdog("smallest_queues_cannot_deadlock", Duration::from_secs(120), |dog| {
        let mut cfg = LiveConfig::new(4, 2)
            .with_engine(EngineKind::Opt { consensus_timeout: SimDuration::from_millis(100) })
            .with_exec_time(Duration::from_micros(200));
        cfg.site_queue = 1;
        let cluster = LiveCluster::start(cfg, registry(), initial(2));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let cluster = &cluster;
                s.spawn(move || {
                    for i in 0..200u64 {
                        cluster
                            .submit(
                                SiteId::new(((t + i) % 4) as u16),
                                ClassId::new((i % 2) as u32),
                                ProcId::new(0),
                                vec![Value::Int(0), Value::Int(1)],
                            )
                            .expect("admitted");
                    }
                });
            }
        });
        let report = cluster.shutdown(Duration::from_secs(60));
        assert!(report.quiesced);
        assert!(report.converged);
        assert_eq!(report.accepted, 400);
        assert_eq!(report.committed_total, report.accepted * 4);
    });
}

/// A live crash is a freeze: the crashed site's timers and executions
/// that come due while it is down wait for it instead of being dropped.
/// Site 2 takes a submission with a 50 ms execution and crashes 5 ms
/// later, before its completion and batch timer come due; 50 ms later it
/// recovers, and every transaction commits exactly once everywhere with
/// nothing left behind.
#[test]
fn crashed_site_keeps_its_pending_timers_and_work() {
    with_watchdog("crashed_site_keeps_its_pending_timers_and_work", WATCHDOG_CAP, |dog| {
        let cfg = LiveConfig::new(3, 1).with_exec_time(Duration::from_millis(50));
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());
        let site = SiteId::new(2);
        cluster
            .submit(site, ClassId::new(0), ProcId::new(0), vec![Value::Int(0), Value::Int(1)])
            .expect("admitted");
        // Past the wire delay (its execution has started), well before
        // the execution time.
        std::thread::sleep(Duration::from_millis(5));
        cluster.apply_fault(&NemesisEvent::Crash { site });
        std::thread::sleep(Duration::from_millis(50));
        cluster.apply_fault(&NemesisEvent::Recover { site });
        let report = cluster.shutdown(Duration::from_secs(30));
        assert!(report.quiesced, "the freeze only delayed the site's work");
        assert_eq!(report.undelivered_at_stop, 0);
        assert!(report.converged);
        assert_eq!(report.committed_total, 3);
        for (s, log) in report.committed.iter().enumerate() {
            assert_eq!(log.len(), 1, "site {s} commits the transaction exactly once");
        }
    });
}

/// A live crash does not claw back what the site sent: the wires a full
/// peer queue gave back still leave while it is down. With one-message
/// site queues, site 3 crashes for good in the middle of a burst, with
/// wires to its peers likely still waiting to be handed over again.
/// Each of the other three then commits every transaction submitted at
/// it afterwards; one of them could not if a transaction of site 3 it
/// never got were ordered before its own.
#[test]
fn crashed_site_still_hands_off_what_it_sent() {
    with_watchdog("crashed_site_still_hands_off_what_it_sent", WATCHDOG_CAP, |dog| {
        let mut cfg = LiveConfig::new(4, 1).with_exec_time(Duration::from_micros(200));
        cfg.site_queue = 1;
        cfg.quiesce_grace = Duration::from_millis(200);
        let cluster = LiveCluster::start(cfg, registry(), initial(1));
        let diag = cluster.diag_handle();
        dog.set_diag("live-cluster", move || diag.snapshot());
        let submit = |site: u16| {
            let args = vec![Value::Int(0), Value::Int(1)];
            cluster.submit(SiteId::new(site), ClassId::new(0), ProcId::new(0), args)
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..20 {
                        submit(3).expect("admitted");
                    }
                });
            }
            while cluster.accepted() < 24 {
                std::thread::sleep(Duration::from_micros(100));
            }
            cluster.apply_fault(&NemesisEvent::Crash { site: SiteId::new(3) });
        });
        // Long enough for site 3's thread to see the crash: it commits
        // nothing of its own from then on.
        std::thread::sleep(Duration::from_millis(100));
        let origin = || cluster.metrics().counter_total("origin_committed");
        let before = origin();
        for i in 0..30u16 {
            submit(i % 3).expect("admitted");
        }
        let start = Instant::now();
        while origin() < before + 30 && start.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(origin() - before, 30, "every live site commits its own transactions");
        let report = cluster.shutdown(Duration::ZERO);
        assert_eq!(report.accepted, 70);
    });
}

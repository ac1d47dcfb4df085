//! Asynchronous (lazy, primary-copy) replication — the commercial baseline.
//!
//! The paper's second claim (Section 1) is that OTP "compares favorably
//! with existing commercial solutions for database replication in terms of
//! performance and consistency. While most systems achieve performance by
//! using asynchronous replication mechanisms (update coordination is done
//! after transaction commit), our solution offers comparable performance
//! and at the same time maintains global consistency."
//!
//! This module implements that baseline so the claim can be measured:
//!
//! * each conflict class has a **primary site** (`class mod sites`);
//! * an update is forwarded to its class's primary, executed and
//!   **committed locally** — the client's response time never waits for
//!   remote coordination;
//! * after commit, the write set is multicast and **applied lazily** at the
//!   other sites, in per-class commit order;
//! * queries read the local latest committed state — fast, but possibly
//!   **stale** and, across classes, **mutually inconsistent**: two sites
//!   can observe two non-conflicting updates in opposite orders, which is
//!   exactly the 1-copy-serializability violation OTP rules out.
//!
//! [`AsyncCluster`] mirrors the [`crate::Cluster`] driver shape and records
//! the same histories, so the violation is *demonstrable* with the same
//! checker that passes for OTP (see the `lazy_anomaly` test).

use otp_broadcast::PayloadSize;
use otp_simnet::metrics::{Counters, Histogram};
use otp_simnet::{EventQueue, MulticastNet, NetConfig, SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{
    ClassId, Database, ObjectId, ObjectKey, ProcId, ProcRegistry, TxnCtx, TxnIndex, Value,
};
use otp_txn::history::{CommittedTxn, HistoryLog};
use otp_txn::txn::{TxnId, TxnRequest};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crate::cluster::DurationDist;

/// A committed write set propagated lazily from a class's primary.
#[derive(Debug, Clone)]
pub struct WriteSet {
    /// The transaction that committed at the primary.
    pub txn: TxnId,
    /// Its conflict class.
    pub class: ClassId,
    /// Per-class commit sequence number at the primary (apply order).
    pub seq: u64,
    /// The written values.
    pub writes: Vec<(ObjectKey, Value)>,
    /// Objects read by the transaction (for history records).
    pub reads: Vec<ObjectKey>,
    /// When the primary committed (for staleness accounting).
    pub committed_at: SimTime,
}

impl PayloadSize for WriteSet {
    fn size_bytes(&self) -> u32 {
        32 + self.writes.iter().map(|(_, v)| 8 + v.size_bytes()).sum::<u32>()
    }
}

/// Configuration of the lazy-replication cluster.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Number of sites.
    pub sites: usize,
    /// Number of conflict classes (each pinned to primary
    /// `class mod sites`).
    pub classes: usize,
    /// LAN model.
    pub net: NetConfig,
    /// Execution time distribution.
    pub exec_time: DurationDist,
    /// Master seed.
    pub seed: u64,
}

impl AsyncConfig {
    /// Default configuration mirroring [`crate::ClusterConfig::new`].
    pub fn new(sites: usize, classes: usize) -> Self {
        AsyncConfig {
            sites,
            classes,
            net: NetConfig::lan_10mbps(sites),
            exec_time: DurationDist::Fixed(SimDuration::from_millis(2)),
            seed: 42,
        }
    }
}

enum Ev {
    Submit {
        site: SiteId,
        request: TxnRequest,
    },
    /// Request arriving at the class primary (possibly forwarded).
    AtPrimary {
        request: TxnRequest,
        origin: SiteId,
    },
    ExecDone {
        class: ClassId,
        txn: TxnId,
    },
    /// Commit acknowledgment travelling back to the origin site.
    Response {
        origin: SiteId,
        txn: TxnId,
    },
    /// Lazy write-set propagation arriving at a site.
    Apply {
        site: SiteId,
        ws: WriteSet,
    },
    Query {
        site: SiteId,
        qid: TxnId,
        reads: Vec<ObjectId>,
    },
}

/// The lazy primary-copy cluster. See the [module docs](self).
pub struct AsyncCluster {
    config: AsyncConfig,
    registry: Arc<ProcRegistry>,
    net: MulticastNet,
    queue: EventQueue<Ev>,
    rng: SimRng,
    dbs: Vec<Database>,
    /// Per-class queue at the class's primary.
    class_queues: Vec<VecDeque<(TxnRequest, SiteId)>>,
    executing: Vec<bool>,
    /// Per-class commit counter at the primary.
    commit_seq: Vec<u64>,
    /// `next seq to apply` per site per class.
    applied: Vec<Vec<u64>>,
    /// Out-of-order write sets buffered per site per class.
    buffered: Vec<Vec<BTreeMap<u64, WriteSet>>>,
    /// Pending origin info per transaction (at the primary).
    origins: HashMap<TxnId, SiteId>,
    submit_time: HashMap<TxnId, SimTime>,
    /// Per-site logical position counters for history records.
    position: Vec<u64>,
    histories: Vec<HistoryLog>,
    /// Results of completed queries.
    pub query_results: HashMap<TxnId, Vec<Value>>,
    next_query_seq: u64,
    /// Client-observed commit latency (submit → response at origin).
    pub commit_latency: Histogram,
    /// Staleness of lazily applied write sets (primary commit → apply).
    pub staleness: Histogram,
    /// Counters: commits, applies, forwards.
    pub counters: Counters,
}

impl AsyncCluster {
    /// Builds the cluster with `initial_data` loaded everywhere.
    pub fn new(
        config: AsyncConfig,
        registry: Arc<ProcRegistry>,
        initial_data: Vec<(ObjectId, Value)>,
    ) -> Self {
        let mut base_db = Database::new(config.classes);
        for (oid, v) in &initial_data {
            base_db.load(*oid, v.clone());
        }
        AsyncCluster {
            net: MulticastNet::new(config.net.clone()),
            queue: EventQueue::new(),
            rng: SimRng::seed_from(config.seed),
            dbs: (0..config.sites).map(|_| base_db.clone()).collect(),
            class_queues: (0..config.classes).map(|_| VecDeque::new()).collect(),
            executing: vec![false; config.classes],
            commit_seq: vec![0; config.classes],
            applied: vec![vec![0; config.classes]; config.sites],
            buffered: (0..config.sites)
                .map(|_| (0..config.classes).map(|_| BTreeMap::new()).collect())
                .collect(),
            origins: HashMap::new(),
            submit_time: HashMap::new(),
            position: vec![0; config.sites],
            histories: vec![HistoryLog::new(); config.sites],
            query_results: HashMap::new(),
            next_query_seq: 0,
            commit_latency: Histogram::new(),
            staleness: Histogram::new(),
            counters: Counters::new(),
            config,
            registry,
        }
    }

    /// Primary site of a class.
    pub fn primary(&self, class: ClassId) -> SiteId {
        SiteId::new((class.raw() as usize % self.config.sites) as u16)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The database copy at a site.
    pub fn db(&self, site: SiteId) -> &Database {
        &self.dbs[site.index()]
    }

    /// Per-site histories for serializability checking.
    pub fn histories(&self) -> Vec<Vec<CommittedTxn>> {
        self.histories.iter().map(HistoryLog::to_vec).collect()
    }

    /// Whether all sites converged to the same committed state.
    pub fn converged(&self) -> bool {
        self.dbs.iter().all(|d| d.committed_state_eq(&self.dbs[0]))
    }

    /// Schedules a client update.
    pub fn schedule_update(
        &mut self,
        at: SimTime,
        site: SiteId,
        class: ClassId,
        proc: ProcId,
        args: Vec<Value>,
    ) -> TxnId {
        let id = TxnId::new(site, self.submit_time.len() as u64);
        let request = TxnRequest::new(id, class, proc, args);
        self.queue.schedule(at, Ev::Submit { site, request });
        id
    }

    /// Schedules a local read-committed query.
    pub fn schedule_query(&mut self, at: SimTime, site: SiteId, reads: Vec<ObjectId>) -> TxnId {
        let qid = TxnId::new(site, (1 << 63) | self.next_query_seq);
        self.next_query_seq += 1;
        self.queue.schedule(at, Ev::Query { site, qid, reads });
        qid
    }

    /// Runs until quiescence or `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (_, ev) = self.queue.pop().expect("peeked");
            self.handle(ev);
            n += 1;
        }
        n
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Submit { site, request } => {
                self.submit_time.insert(request.id, self.queue.now());
                let primary = self.primary(request.class);
                if primary == site {
                    self.queue.schedule(self.queue.now(), Ev::AtPrimary { request, origin: site });
                } else {
                    // Forward to the primary over the LAN.
                    self.counters.incr("forward");
                    let d = self.net.unicast(
                        site,
                        primary,
                        request.size_bytes(),
                        self.queue.now(),
                        &mut self.rng,
                    );
                    self.queue.schedule(d.arrival, Ev::AtPrimary { request, origin: site });
                }
            }
            Ev::AtPrimary { request, origin } => {
                let class = request.class;
                self.origins.insert(request.id, origin);
                self.class_queues[class.index()].push_back((request, origin));
                if !self.executing[class.index()] {
                    self.start_next(class);
                }
            }
            Ev::ExecDone { class, txn } => {
                self.commit_at_primary(class, txn);
            }
            Ev::Response { origin, txn } => {
                if let Some(t0) = self.submit_time.get(&txn) {
                    self.commit_latency.record(self.queue.now().saturating_since(*t0));
                }
                let _ = origin;
            }
            Ev::Apply { site, ws } => {
                let class = ws.class;
                self.buffered[site.index()][class.index()].insert(ws.seq, ws);
                // Apply any contiguous run.
                loop {
                    let next = self.applied[site.index()][class.index()];
                    let Some(ws) = self.buffered[site.index()][class.index()].remove(&next) else {
                        break;
                    };
                    self.apply_write_set(site, ws);
                    self.applied[site.index()][class.index()] = next + 1;
                }
            }
            Ev::Query { site, qid, reads } => {
                // Read-committed on the local copy: fast, maybe stale.
                let values: Vec<Value> = reads
                    .iter()
                    .map(|oid| {
                        self.dbs[site.index()].read_committed(*oid).cloned().unwrap_or(Value::Null)
                    })
                    .collect();
                self.position[site.index()] += 2;
                let pos = self.position[site.index()] - 1; // between updates
                self.histories[site.index()].push(qid, pos, reads, []);
                self.query_results.insert(qid, values);
                self.counters.incr("query");
            }
        }
    }

    fn start_next(&mut self, class: ClassId) {
        let Some((request, _origin)) = self.class_queues[class.index()].front().cloned() else {
            return;
        };
        self.executing[class.index()] = true;
        let d = self.config.exec_time.sample(&mut self.rng);
        self.queue.schedule(self.queue.now() + d, Ev::ExecDone { class, txn: request.id });
    }

    fn commit_at_primary(&mut self, class: ClassId, txn: TxnId) {
        let primary = self.primary(class);
        let (request, origin) =
            self.class_queues[class.index()].pop_front().expect("head was executing");
        debug_assert_eq!(request.id, txn);
        self.executing[class.index()] = false;

        // Execute the procedure against the primary's copy now (the delay
        // already elapsed) and commit immediately — lazy replication does
        // not wait for anyone.
        let proc = self
            .registry
            .get(request.proc)
            .unwrap_or_else(|| panic!("unknown stored procedure {}", request.proc))
            .clone();
        let db = &mut self.dbs[primary.index()];
        let mut ctx = TxnCtx::new(db, class);
        if proc.execute(&mut ctx, &request.args).is_err() {
            self.counters.incr("proc_error");
        }
        let effects = ctx.finish();
        let seq = self.commit_seq[class.index()];
        self.commit_seq[class.index()] = seq + 1;
        // Version label: per-class sequence (monotonic per object because
        // only this primary ever writes this class).
        let index = TxnIndex::new(seq + 1);
        let writes: Vec<(ObjectKey, Value)> = effects
            .undo
            .written_keys()
            .map(|k| {
                let v = db
                    .partition(class)
                    .expect("class exists")
                    .read_current(k)
                    .cloned()
                    .unwrap_or(Value::Null);
                (k, v)
            })
            .collect();
        db.partition_mut(class).expect("class exists").promote(effects.undo.written_keys(), index);
        self.counters.incr("commit");

        // Record in the primary's history.
        self.position[primary.index()] += 2;
        let pos = self.position[primary.index()];
        self.histories[primary.index()].push(
            txn,
            pos,
            effects.reads.iter().map(|&key| ObjectId { class, key }),
            writes.iter().map(|&(key, _)| ObjectId { class, key }),
        );

        // Respond to the client.
        let now = self.queue.now();
        if origin == primary {
            self.queue.schedule(now, Ev::Response { origin, txn });
        } else {
            let d = self.net.unicast(primary, origin, 32, now, &mut self.rng);
            self.queue.schedule(d.arrival, Ev::Response { origin, txn });
        }

        // Lazy propagation to everyone else.
        let ws =
            WriteSet { txn, class, seq, writes, reads: effects.reads.clone(), committed_at: now };
        let size = ws.size_bytes();
        for d in self.net.multicast(primary, size, now, &mut self.rng) {
            if d.to != primary {
                self.queue.schedule(d.arrival, Ev::Apply { site: d.to, ws: ws.clone() });
            }
        }

        // Next transaction of this class.
        self.start_next(class);
    }

    fn apply_write_set(&mut self, site: SiteId, ws: WriteSet) {
        let db = &mut self.dbs[site.index()];
        let p = db.partition_mut(ws.class).expect("class exists");
        for (k, v) in &ws.writes {
            p.write_current(*k, v.clone());
        }
        p.promote(ws.writes.iter().map(|(k, _)| *k), TxnIndex::new(ws.seq + 1));
        self.staleness.record(self.queue.now().saturating_since(ws.committed_at));
        self.counters.incr("apply");
        self.position[site.index()] += 2;
        let pos = self.position[site.index()];
        let class = ws.class;
        self.histories[site.index()].push(
            ws.txn,
            pos,
            ws.reads.iter().map(|&key| ObjectId { class, key }),
            ws.writes.iter().map(|&(key, _)| ObjectId { class, key }),
        );
    }
}

impl std::fmt::Debug for AsyncCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncCluster")
            .field("sites", &self.config.sites)
            .field("classes", &self.config.classes)
            .field("now", &self.queue.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_storage::ProcError;
    use otp_txn::history::check_one_copy_serializable;

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

    fn data(classes: u32) -> Vec<(ObjectId, Value)> {
        (0..classes).map(|c| (ObjectId::new(c, 0), Value::Int(0))).collect()
    }

    #[test]
    fn updates_commit_and_propagate() {
        let mut c = AsyncCluster::new(AsyncConfig::new(3, 3), registry(), data(3));
        let mut t = SimTime::from_millis(1);
        for i in 0..12u64 {
            c.schedule_update(
                t,
                SiteId::new((i % 3) as u16),
                ClassId::new((i % 3) as u32),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
            t += SimDuration::from_millis(1);
        }
        c.run_until(SimTime::from_secs(30));
        assert_eq!(c.counters.get("commit"), 12);
        assert!(c.converged(), "lazy replication converges at quiescence");
        // Each class key0 = 4.
        for cl in 0..3u32 {
            assert_eq!(
                c.db(SiteId::new(0)).read_committed(ObjectId::new(cl, 0)),
                Some(&Value::Int(4))
            );
        }
        assert!(!c.staleness.is_empty(), "remote applies happened");
        assert!(c.commit_latency.len() == 12);
    }

    #[test]
    fn commit_latency_independent_of_remote_sites() {
        // Local submissions at the primary commit in ~exec time, no
        // broadcast round-trips on the critical path.
        let cfg = AsyncConfig::new(4, 1);
        let mut c = AsyncCluster::new(cfg, registry(), data(1));
        for i in 0..10u64 {
            // class 0's primary is site 0; submit there.
            c.schedule_update(
                SimTime::from_millis(1 + i * 10),
                SiteId::new(0),
                ClassId::new(0),
                ProcId::new(0),
                vec![Value::Int(0), Value::Int(1)],
            );
        }
        c.run_until(SimTime::from_secs(30));
        let mean = c.commit_latency.mean();
        // Exec time is fixed 2ms; latency should be within 2x of it.
        assert!(mean < SimDuration::from_millis(4), "mean {mean}");
    }

    #[test]
    fn forwarding_adds_latency_for_remote_clients() {
        let cfg = AsyncConfig::new(4, 1);
        let mut c = AsyncCluster::new(cfg, registry(), data(1));
        // Submit at a non-primary site.
        c.schedule_update(
            SimTime::from_millis(1),
            SiteId::new(2),
            ClassId::new(0),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(1)],
        );
        c.run_until(SimTime::from_secs(30));
        assert_eq!(c.counters.get("forward"), 1);
        assert!(c.commit_latency.mean() > SimDuration::from_millis(2));
    }

    /// The paper's consistency argument: lazy replication lets two sites
    /// observe two non-conflicting updates in opposite orders. We build the
    /// anomaly deterministically and show the 1SR checker rejects it —
    /// the same checker that passes on every OTP run.
    #[test]
    fn lazy_anomaly_breaks_one_copy_serializability() {
        // Classes 0 and 1 with primaries at sites 0 and 1.
        let mut c = AsyncCluster::new(AsyncConfig::new(2, 2), registry(), data(2));
        // Both primaries commit an update at ~the same time.
        c.schedule_update(
            SimTime::from_millis(1),
            SiteId::new(0),
            ClassId::new(0),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(5)],
        );
        c.schedule_update(
            SimTime::from_millis(1),
            SiteId::new(1),
            ClassId::new(1),
            ProcId::new(0),
            vec![Value::Int(0), Value::Int(7)],
        );
        // Immediately after local commit (1ms submit + 2ms exec = 3ms),
        // but before any remote apply can land (transmission + propagation
        // ≥ 120µs after commit), each site queries both objects: it sees
        // its own update but not the other's.
        c.schedule_query(
            SimTime::from_micros(3050),
            SiteId::new(0),
            vec![ObjectId::new(0, 0), ObjectId::new(1, 0)],
        );
        c.schedule_query(
            SimTime::from_micros(3050),
            SiteId::new(1),
            vec![ObjectId::new(0, 0), ObjectId::new(1, 0)],
        );
        c.run_until(SimTime::from_secs(10));
        assert!(c.converged(), "states converge eventually");
        // … but the observed histories are not 1-copy-serializable.
        let err = check_one_copy_serializable(&c.histories()).unwrap_err();
        let _ = err; // any violation kind is acceptable
    }

    #[test]
    fn primary_assignment_rotates() {
        let c = AsyncCluster::new(AsyncConfig::new(3, 6), registry(), data(6));
        assert_eq!(c.primary(ClassId::new(0)), SiteId::new(0));
        assert_eq!(c.primary(ClassId::new(4)), SiteId::new(1));
        assert_eq!(c.primary(ClassId::new(5)), SiteId::new(2));
    }
}

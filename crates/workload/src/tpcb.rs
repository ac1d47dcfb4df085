//! A TPC-B-like banking workload, the canonical benchmark shape for
//! 1990s replicated-database papers.
//!
//! Structure per *branch* (one branch = one conflict class, exactly the
//! paper's partitioning assumption):
//!
//! * key `0` — the branch balance;
//! * keys `1..=tellers` — teller balances;
//! * keys `tellers+1 ..` — account balances.
//!
//! The `tpcb_profile` stored procedure mirrors TPC-B's profile
//! transaction: it applies a delta to one account, its teller and the
//! branch balance — three writes in one class. The derived invariant
//! (checked by tests and examples): for every branch,
//! `branch_balance == Σ teller_deltas == Σ account_deltas`.

use crate::gen::{Arrival, Op};
use otp_simnet::{SimDuration, SimRng, SimTime, SiteId};
use otp_storage::{ClassId, ObjectId, ObjectKey, ProcError, ProcId, ProcRegistry, Value};

/// TPC-B-like workload configuration.
#[derive(Debug, Clone)]
pub struct TpcB {
    /// Number of branches (= conflict classes).
    pub branches: u32,
    /// Tellers per branch.
    pub tellers: u64,
    /// Accounts per branch.
    pub accounts: u64,
    /// Number of sites submitting.
    pub sites: usize,
    /// Total profile transactions.
    pub transactions: u64,
    /// Arrival process per site.
    pub arrival: Arrival,
    /// Generator seed.
    pub seed: u64,
}

impl TpcB {
    /// A small default configuration.
    pub fn new(branches: u32, sites: usize, transactions: u64) -> Self {
        TpcB {
            branches,
            tellers: 10,
            accounts: 100,
            sites,
            transactions,
            arrival: Arrival::Fixed(SimDuration::from_millis(2)),
            seed: 7,
        }
    }

    /// Sets the arrival process (builder style, like
    /// [`crate::WorkloadSpec::with_arrival`]).
    pub fn with_arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Key of the branch balance.
    pub fn branch_key() -> ObjectKey {
        ObjectKey::new(0)
    }

    /// Key of teller `t` (0-based).
    pub fn teller_key(&self, t: u64) -> ObjectKey {
        ObjectKey::new(1 + (t % self.tellers))
    }

    /// Key of account `a` (0-based).
    pub fn account_key(&self, a: u64) -> ObjectKey {
        ObjectKey::new(1 + self.tellers + (a % self.accounts))
    }

    /// Builds the registry with the `tpcb_profile` procedure; returns its
    /// id alongside.
    pub fn registry(&self) -> (std::sync::Arc<ProcRegistry>, ProcId) {
        let mut reg = ProcRegistry::new();
        let id = reg.register_fn("tpcb_profile", |ctx, args| {
            let (account, teller, delta) = match (args.first(), args.get(1), args.get(2)) {
                (Some(Value::Int(a)), Some(Value::Int(t)), Some(Value::Int(d))) => {
                    (ObjectKey::new(*a as u64), ObjectKey::new(*t as u64), *d)
                }
                _ => return Err(ProcError::BadArgs("tpcb_profile(account, teller, delta)".into())),
            };
            let branch = ObjectKey::new(0);
            for key in [account, teller, branch] {
                let v = ctx.read(key)?.as_int().unwrap_or(0);
                ctx.write(key, Value::Int(v + delta))?;
            }
            // TPC-B returns the account balance.
            let balance = ctx.read(account)?;
            ctx.emit(balance);
            Ok(())
        });
        (std::sync::Arc::new(reg), id)
    }

    /// Initial data: all balances zero (deltas are what the invariant
    /// tracks).
    pub fn initial_data(&self) -> Vec<(ObjectId, Value)> {
        let mut data = Vec::new();
        for b in 0..self.branches {
            let class = ClassId::new(b);
            data.push((ObjectId { class, key: Self::branch_key() }, Value::Int(0)));
            for t in 0..self.tellers {
                data.push((ObjectId { class, key: self.teller_key(t) }, Value::Int(0)));
            }
            for a in 0..self.accounts {
                data.push((ObjectId { class, key: self.account_key(a) }, Value::Int(0)));
            }
        }
        data
    }

    /// Generates the deterministic schedule of profile transactions.
    pub fn schedule(&self, proc: ProcId) -> crate::gen::Schedule {
        let mut rng = SimRng::seed_from(self.seed);
        let base_step = match self.arrival {
            Arrival::Fixed(d) => d,
            Arrival::Poisson { mean } => mean,
        };
        let mut clocks: Vec<SimTime> = (0..self.sites)
            .map(|i| {
                SimTime::from_millis(1) + base_step.mul_u64(i as u64).div_u64(self.sites as u64)
            })
            .collect();
        let mut ops = Vec::new();
        for i in 0..self.transactions {
            let site = SiteId::new((i % self.sites as u64) as u16);
            let step = match self.arrival {
                Arrival::Fixed(d) => d,
                Arrival::Poisson { mean } => {
                    SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
                }
            };
            clocks[site.index()] += step;
            let branch = rng.index(self.branches as usize) as u32;
            let account = self.account_key(rng.uniform_range(0, self.accounts));
            let teller = self.teller_key(rng.uniform_range(0, self.tellers));
            let delta = rng.uniform_range(1, 1000) as i64 - 500; // ±
            let delta = if delta == 0 { 1 } else { delta };
            ops.push(Op::Update {
                at: clocks[site.index()],
                site,
                class: ClassId::new(branch),
                proc,
                args: vec![
                    Value::Int(account.raw() as i64),
                    Value::Int(teller.raw() as i64),
                    Value::Int(delta),
                ],
            });
        }
        ops.sort_by_key(|o| o.at());
        crate::gen::Schedule { ops }
    }

    /// Checks the TPC-B consistency conditions against a database copy:
    /// per branch, `branch == Σ tellers == Σ accounts`. Returns the first
    /// violated branch.
    ///
    /// # Errors
    ///
    /// The branch id whose sums disagree.
    pub fn check_consistency(&self, db: &otp_storage::Database) -> Result<(), u32> {
        for b in 0..self.branches {
            let class = ClassId::new(b);
            let read = |key: ObjectKey| -> i64 {
                db.read_committed(ObjectId { class, key }).and_then(Value::as_int).unwrap_or(0)
            };
            let branch = read(Self::branch_key());
            let tellers: i64 = (0..self.tellers).map(|t| read(self.teller_key(t))).sum();
            let accounts: i64 = (0..self.accounts).map(|a| read(self.account_key(a))).sum();
            if branch != tellers || branch != accounts {
                return Err(b);
            }
        }
        Ok(())
    }

    /// Object ids for a "branch audit" query (branch balance + all its
    /// tellers) — a realistic multi-object snapshot query.
    pub fn audit_reads(&self, branch: u32) -> Vec<ObjectId> {
        let class = ClassId::new(branch);
        let mut reads = vec![ObjectId { class, key: Self::branch_key() }];
        for t in 0..self.tellers {
            reads.push(ObjectId { class, key: self.teller_key(t) });
        }
        reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otp_storage::{Database, TxnCtx};

    #[test]
    fn keys_do_not_collide() {
        let t = TpcB::new(2, 2, 10);
        assert_ne!(TpcB::branch_key(), t.teller_key(0));
        assert_ne!(t.teller_key(t.tellers - 1), t.account_key(0));
        assert_eq!(t.teller_key(0), ObjectKey::new(1));
        assert_eq!(t.account_key(0), ObjectKey::new(11));
    }

    #[test]
    fn profile_updates_three_balances() {
        let t = TpcB::new(1, 1, 1);
        let (reg, proc) = t.registry();
        let mut db = Database::new(1);
        for (oid, v) in t.initial_data() {
            db.load(oid, v);
        }
        let mut ctx = TxnCtx::new(&mut db, ClassId::new(0));
        reg.get(proc)
            .unwrap()
            .execute(
                &mut ctx,
                &[
                    Value::Int(t.account_key(3).raw() as i64),
                    Value::Int(t.teller_key(1).raw() as i64),
                    Value::Int(42),
                ],
            )
            .unwrap();
        let eff = ctx.finish();
        assert_eq!(eff.undo.len(), 3, "account + teller + branch");
        assert_eq!(eff.output, vec![Value::Int(42)]);
        db.partition_mut(ClassId::new(0))
            .unwrap()
            .promote(eff.undo.written_keys(), otp_storage::TxnIndex::new(1));
        assert!(t.check_consistency(&db).is_ok());
    }

    #[test]
    fn schedule_is_deterministic_and_branch_valid() {
        let t = TpcB::new(4, 3, 200);
        let (_, proc) = t.registry();
        let a = t.schedule(proc);
        let b = t.schedule(proc);
        assert_eq!(a.len(), 200);
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.at(), y.at());
        }
        for op in &a.ops {
            if let Op::Update { class, .. } = op {
                assert!(class.raw() < 4);
            }
        }
    }

    #[test]
    fn consistency_check_catches_imbalance() {
        let t = TpcB::new(1, 1, 1);
        let mut db = Database::new(1);
        for (oid, v) in t.initial_data() {
            db.load(oid, v);
        }
        // Corrupt: bump only the branch balance.
        let p = db.partition_mut(ClassId::new(0)).unwrap();
        p.write_current(TpcB::branch_key(), Value::Int(5));
        p.promote([TpcB::branch_key()].into_iter(), otp_storage::TxnIndex::new(1));
        assert_eq!(t.check_consistency(&db), Err(0));
    }

    #[test]
    fn audit_reads_cover_branch_and_tellers() {
        let t = TpcB::new(2, 1, 1);
        let reads = t.audit_reads(1);
        assert_eq!(reads.len(), 1 + t.tellers as usize);
        assert!(reads.iter().all(|o| o.class == ClassId::new(1)));
    }
}

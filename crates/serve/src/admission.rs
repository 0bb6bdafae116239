//! Admission control: bounded fair queues per tenant, per-tenant memory
//! budgets carved from a global budget (DESIGN.md §15).
//!
//! Every tenant gets a FIFO of bounded depth; runners drain tenants
//! round-robin, so one tenant flooding its queue delays only itself —
//! a queue-full submission is rejected *synchronously* with a typed
//! `queue_full` error rather than absorbed (bufferbloat would just move
//! the latency into the server).
//!
//! Memory admission is two-level: a job must reserve its footprint
//! estimate against its tenant's [`MemBudget`] *and* against the global
//! budget. Either refusing does **not** reject the job — execution
//! degrades to the spilling hybrid hash join (`Algorithm::Shhj`) under
//! whatever grant is still available (see `engine.rs`). Running out of
//! memory is a performance cliff here, never an error.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use mmjoin_core::prelude::{CancelToken, MemBudget};

use crate::protocol::{JoinSpec, ProtoError};

/// A join admitted to a tenant queue, waiting for a runner.
#[derive(Debug)]
pub struct Job {
    /// Connection the response must be routed back to.
    pub conn: u64,
    /// Per-connection sequence, for in-flight cancel bookkeeping.
    pub seq: u64,
    pub id: Option<f64>,
    pub tenant: String,
    pub spec: JoinSpec,
    /// Frame receipt time — queue wait is part of the deadline.
    pub received: Instant,
    /// Absolute expiry derived from `spec.deadline_ms` at receipt.
    pub expires: Option<Instant>,
    pub cancel: CancelToken,
    /// Tenant queue length when this job was enqueued (set by
    /// [`Admission::submit`]; telemetry's queue-depth-at-entry).
    pub queue_depth: usize,
}

struct TenantQ {
    queue: VecDeque<Job>,
    budget: Arc<MemBudget>,
    /// Admission's own decisions; how a job was answered is counted by
    /// telemetry.
    admitted: u64,
    rejected: u64,
}

struct Inner {
    tenants: HashMap<String, TenantQ>,
    /// Round-robin order (first-seen); `cursor` indexes into it.
    order: Vec<String>,
    cursor: usize,
    queued: usize,
    stopped: bool,
}

/// A job handed to a runner, with the budget handles it executes under.
pub struct Admitted {
    pub job: Job,
    pub budget: Arc<MemBudget>,
    pub global: Arc<MemBudget>,
}

/// Tenant view for `op:"stat"`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct TenantSnapshot {
    pub name: String,
    pub queued: usize,
    pub budget_used: usize,
    pub budget_limit: usize,
    pub admitted: u64,
    /// Submissions refused (`queue_full`, `shutting_down`).
    pub rejected: u64,
}

/// The admission controller shared by the front-end and the runners.
pub struct Admission {
    inner: Mutex<Inner>,
    cv: Condvar,
    global: Arc<MemBudget>,
    default_tenant_bytes: usize,
    /// Budgets fixed at configuration time (`ServeConfig::with_tenant_budget`).
    pinned: HashMap<String, usize>,
    queue_depth: usize,
}

impl Admission {
    pub fn new(
        global_bytes: usize,
        default_tenant_bytes: usize,
        pinned: HashMap<String, usize>,
        queue_depth: usize,
    ) -> Admission {
        Admission {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                queued: 0,
                stopped: false,
            }),
            cv: Condvar::new(),
            global: Arc::new(MemBudget::limited(global_bytes)),
            default_tenant_bytes,
            pinned,
            queue_depth: queue_depth.max(1),
        }
    }

    /// The global budget every job also reserves against.
    pub fn global_budget(&self) -> &Arc<MemBudget> {
        &self.global
    }

    /// The tenant's own budget handle (creating the tenant if new) —
    /// used by `stat` and by tests; runners get it via [`Admitted`].
    pub fn tenant_budget(&self, tenant: &str) -> Arc<MemBudget> {
        let mut g = self.inner.lock().unwrap();
        self.ensure_tenant(&mut g, tenant);
        Arc::clone(&g.tenants[tenant].budget)
    }

    fn ensure_tenant(&self, g: &mut Inner, tenant: &str) {
        if !g.tenants.contains_key(tenant) {
            // Carve: a pinned size if configured, else the default
            // slice, never more than the whole global budget.
            let bytes = self
                .pinned
                .get(tenant)
                .copied()
                .unwrap_or(self.default_tenant_bytes)
                .min(self.global.limit());
            g.tenants.insert(
                tenant.to_string(),
                TenantQ {
                    queue: VecDeque::new(),
                    budget: Arc::new(MemBudget::limited(bytes)),
                    admitted: 0,
                    rejected: 0,
                },
            );
            g.order.push(tenant.to_string());
        }
    }

    /// Enqueue a job on its tenant's queue. Bounded: a full queue
    /// rejects synchronously with `queue_full` (a stopped controller
    /// with `shutting_down`), handing the job back, its `queue_depth`
    /// stamped, for the caller to answer.
    pub fn submit(&self, mut job: Job) -> Result<(), (ProtoError, Box<Job>)> {
        let mut g = self.inner.lock().unwrap();
        self.ensure_tenant(&mut g, &job.tenant);
        let (stopped, depth) = (g.stopped, self.queue_depth);
        let t = g.tenants.get_mut(&job.tenant).expect("just ensured");
        job.queue_depth = t.queue.len();
        if stopped || job.queue_depth >= depth {
            t.rejected += 1;
            let e = if stopped {
                ProtoError::new("shutting_down", "server is shutting down")
            } else {
                ProtoError::new(
                    "queue_full",
                    format!("tenant '{}' already has {depth} queued joins", job.tenant),
                )
            };
            return Err((e, Box::new(job)));
        }
        t.admitted += 1;
        t.queue.push_back(job);
        g.queued += 1;
        drop(g);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until a job is available (round-robin across tenants) or
    /// the controller is stopped (`None`).
    pub fn next(&self) -> Option<Admitted> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.queued > 0 {
                let n = g.order.len();
                for step in 0..n {
                    let idx = (g.cursor + step) % n;
                    let name = g.order[idx].clone();
                    let t = g.tenants.get_mut(&name).expect("order entry has a queue");
                    if let Some(job) = t.queue.pop_front() {
                        let budget = Arc::clone(&t.budget);
                        g.queued -= 1;
                        g.cursor = (idx + 1) % n;
                        return Some(Admitted {
                            job,
                            budget,
                            global: Arc::clone(&self.global),
                        });
                    }
                }
                unreachable!("queued > 0 but no tenant had a job");
            }
            if g.stopped {
                return None;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Stop the controller: wakes every runner; queued jobs are dropped
    /// (their connections are being torn down with the server).
    pub fn stop(&self) {
        let mut g = self.inner.lock().unwrap();
        g.stopped = true;
        g.queued = 0;
        for t in g.tenants.values_mut() {
            t.queue.clear();
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Per-tenant view for `op:"stat"`, first-seen order.
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let g = self.inner.lock().unwrap();
        g.order
            .iter()
            .map(|name| {
                let t = &g.tenants[name];
                TenantSnapshot {
                    name: name.clone(),
                    queued: t.queue.len(),
                    budget_used: t.budget.used(),
                    budget_limit: t.budget.limit(),
                    admitted: t.admitted,
                    rejected: t.rejected,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_core::prelude::Algorithm;

    fn job(tenant: &str, n: u64) -> Job {
        Job {
            conn: 1,
            seq: n,
            id: Some(n as f64),
            tenant: tenant.to_string(),
            spec: JoinSpec {
                algorithm: Algorithm::Pro,
                build: "r".into(),
                probe: "s".into(),
                deadline_ms: None,
                radix_bits: None,
                cache: true,
            },
            received: Instant::now(),
            expires: None,
            cancel: CancelToken::new(),
            queue_depth: 0,
        }
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let adm = Admission::new(1 << 30, 1 << 20, HashMap::new(), 16);
        // Tenant a floods; tenant b submits one.
        for i in 0..4 {
            adm.submit(job("a", i)).unwrap();
        }
        adm.submit(job("b", 100)).unwrap();
        let order: Vec<String> = (0..5).map(|_| adm.next().unwrap().job.tenant).collect();
        // b must be served second, not fifth.
        assert_eq!(order[1], "b");
        assert_eq!(order.iter().filter(|t| *t == "a").count(), 4);
    }

    #[test]
    fn bounded_queue_rejects_synchronously() {
        let adm = Admission::new(1 << 30, 1 << 20, HashMap::new(), 2);
        adm.submit(job("a", 0)).unwrap();
        adm.submit(job("a", 1)).unwrap();
        let (err, refused) = adm.submit(job("a", 2)).unwrap_err();
        assert_eq!(err.code, "queue_full");
        assert_eq!((refused.seq, refused.queue_depth), (2, 2));
        let snap = adm.snapshot();
        assert_eq!(snap[0].rejected, 1);
        assert_eq!(snap[0].admitted, 2);
    }

    #[test]
    fn submit_stamps_queue_depth_at_entry() {
        let adm = Admission::new(1 << 30, 1 << 20, HashMap::new(), 16);
        for i in 0..3 {
            adm.submit(job("a", i)).unwrap();
        }
        let depths: Vec<usize> = (0..3)
            .map(|_| adm.next().unwrap().job.queue_depth)
            .collect();
        // Each job saw exactly the jobs ahead of it.
        assert_eq!(depths, vec![0, 1, 2]);
    }

    #[test]
    fn pinned_budgets_and_default_carve() {
        let mut pinned = HashMap::new();
        pinned.insert("vip".to_string(), 1 << 26);
        let adm = Admission::new(1 << 27, 1 << 20, pinned, 4);
        assert_eq!(adm.tenant_budget("vip").limit(), 1 << 26);
        assert_eq!(adm.tenant_budget("anon").limit(), 1 << 20);
        // Pinned above global clamps to global.
        let mut pinned = HashMap::new();
        pinned.insert("huge".to_string(), usize::MAX);
        let adm = Admission::new(1 << 20, 1 << 18, pinned, 4);
        assert_eq!(adm.tenant_budget("huge").limit(), 1 << 20);
    }

    #[test]
    fn stop_wakes_and_drains() {
        let adm = Arc::new(Admission::new(1 << 30, 1 << 20, HashMap::new(), 4));
        let a2 = Arc::clone(&adm);
        let h = std::thread::spawn(move || a2.next().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        adm.stop();
        assert!(h.join().unwrap());
        assert!(adm.submit(job("a", 0)).is_err());
    }
}

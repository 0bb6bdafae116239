//! Persistent NUMA-aware morsel executor.
//!
//! Every thread-parallel phase of every join used to spawn its own scoped
//! threads — cheap on a laptop, but it charges thread creation to every
//! phase and makes NUMA-aware scheduling an ad-hoc property of task
//! ordering. This module replaces that with long-lived worker pools:
//!
//! * **A pool belongs to the thread that submits joins to it** (see
//!   [`Executor::shared`]): a thread gets one pool per thread count,
//!   spawned on its first join and parked on a condvar between phases;
//!   every later join on that thread reuses it, and its workers are
//!   joined when the thread exits. A thread racing all thirteen
//!   algorithms spawns `threads` workers once. Two threads submitting
//!   joins run their phases side by side, each on its own workers — a
//!   running `mmjoin-serve` server has `runners × join_threads` of them
//!   — instead of taking turns at each other's phase barriers.
//! * **One task queue per simulated NUMA node** ([`QueuePolicy`]): a
//!   morsel phase assigns each task to the queue of the node that owns
//!   its data; workers drain their home node's queue first and *steal*
//!   from remote nodes only when it runs dry. The NUMA-round-robin
//!   scheduling of the *iS join variants is thereby a queue-assignment
//!   policy of the executor, not a property of task insertion order.
//! * **Per-phase counters** ([`ExecCounters`]): tasks executed, steals,
//!   and per-worker idle time at the phase barrier — handed, with what
//!   the workers allocated meanwhile and the per-worker spans of a
//!   profiled run, to the [`ExecSink`] the phase was submitted with.
//!   The pool itself remembers nothing between phases, so joins sharing
//!   it cannot see each other's numbers.
//! * **The submitter's switches**: every worker runs a phase under the
//!   [`Scope`] (kernel mode, alloc policy, injected faults) of the
//!   thread that submitted it, whatever another thread has set.
//! * **Panic containment**: the pool outlives the join — every later
//!   join of its thread runs on it — so a panicking morsel task must not
//!   take it down. Every phase closure runs under `catch_unwind`; a
//!   panic is recorded, the phase barrier still completes, and the
//!   submitting thread re-raises the collected messages as a
//!   [`crate::fault::WorkerPanic`] (which `plan::dispatch` converts to
//!   `JoinError::WorkerPanicked`). A worker thread ends only at
//!   shutdown: everything it does for a phase — the task, the
//!   measurements around it, the drop of a caught panic payload — runs
//!   under `catch_unwind`, and a panic during an unwind aborts the
//!   process rather than ending one thread. The pool never respawns.
//!
//! # The phase barrier
//!
//! The lock-free tables (`ConcurrentLinearTable`, CHT bulkload) publish
//! their writes through the *phase barrier*: probes use relaxed loads and
//! are correct only because every build write happens-before every probe.
//! With scoped threads that edge came from `std::thread::scope`'s join.
//! Here it comes from the control mutex: a worker finishes its closure,
//! locks the mutex, and decrements `remaining` (releasing its writes when
//! the mutex unlocks); [`Executor::broadcast`] returns only after
//! re-acquiring that mutex and observing `remaining == 0`, which makes
//! every worker's writes visible to the caller — the same happens-before
//! edge, without the thread spawn/join. A panicking worker still
//! decrements `remaining` (after `catch_unwind`), so the barrier — and
//! the happens-before edge for the workers that *did* finish — survives
//! any task failure.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use mmjoin_partition::task::node_of_partition;
use mmjoin_util::mem;
use mmjoin_util::perf::{CounterDelta, CounterGroup};
use mmjoin_util::pool::{lock_recover, ExecCounters, WorkerPhaseStat, WorkerPool};
use mmjoin_util::scope::Scope;

use crate::fault::{panic_message, WorkerPanic};
use crate::stats::AllocCounters;

/// How a morsel phase distributes its tasks over queues.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueuePolicy {
    /// One queue shared by all workers, drained in submission order —
    /// the original PR*/CPR* sequential scheduling.
    Shared,
    /// One queue per simulated NUMA node. Each task goes to the queue of
    /// the node owning its partition (block allocation, see
    /// [`node_of_partition`]); workers drain their home node first and
    /// steal from remote nodes only when home is dry. This is the
    /// improved scheduling of PROiS/PRLiS/PRAiS.
    NumaLocal {
        /// Simulated NUMA nodes (queues).
        nodes: usize,
    },
}

/// How a worker of [`Executor::run_workers_into`] asks for its next
/// task: `None` once every queue is dry.
pub type Pull<'a> = dyn FnMut() -> Option<usize> + 'a;

/// Assign `order` (a filtered, ordered list of partition indices out of
/// `parts` total) to queues according to `policy`.
pub fn build_queues(order: &[usize], parts: usize, policy: QueuePolicy) -> Vec<Vec<usize>> {
    match policy {
        QueuePolicy::Shared => vec![order.to_vec()],
        QueuePolicy::NumaLocal { nodes } => {
            let nodes = nodes.max(1);
            let mut queues: Vec<Vec<usize>> = vec![Vec::new(); nodes];
            for &p in order {
                queues[node_of_partition(p, parts, nodes)].push(p);
            }
            queues
        }
    }
}

thread_local! {
    /// Set inside executor worker threads; a broadcast issued from one
    /// (which would deadlock on the single-phase control) runs inline
    /// instead.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Each worker thread's native PMU counter group, opened lazily on
    /// the first profiled phase it runs (perf fds count the opening
    /// thread, so the group must be per-thread). `None` when the host
    /// exposes no counters — spans then carry `CounterDelta::none()`.
    static TL_COUNTERS: OnceCell<Option<CounterGroup>> = const { OnceCell::new() };

    /// This thread's pools, one per thread count (see
    /// [`Executor::shared`]); dropped — their workers joined — when the
    /// thread exits.
    static POOLS: RefCell<HashMap<usize, Arc<Executor>>> = RefCell::new(HashMap::new());

    /// Worker threads this thread's pools have spawned — lets tests
    /// assert that repeated joins reuse their pool without counting
    /// other tests' threads.
    static SPAWNED_HERE: Cell<usize> = const { Cell::new(0) };
}

/// Lifetime-erased pointer to the phase closure. Safe because
/// `broadcast` does not return until every worker has finished with it
/// and the control slot is cleared.
struct Job(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is Sync, and the pointer only crosses threads
// while `broadcast` keeps the original reference alive.
unsafe impl Send for Job {}

struct Control {
    job: Option<Job>,
    /// Bumped once per phase; workers run the job when they observe a
    /// newer epoch than the last one they executed.
    epoch: u64,
    /// Workers still running the current phase.
    remaining: usize,
    /// Phase start, for per-worker finish offsets (idle accounting).
    start: Instant,
    /// Whether workers should take PMU snapshots for the current epoch.
    profile: bool,
    /// The submitter's switches (kernel mode, alloc policy, injected
    /// faults), which every worker runs the current phase under.
    scope: Scope,
    /// Panic messages captured from workers during the current phase.
    panics: Vec<String>,
    /// What the workers' threads allocated while running the current
    /// phase (each adds its own `mem::thread_stats` delta as it
    /// finishes).
    alloc: AllocCounters,
    shutdown: bool,
}

struct Shared {
    ctl: Mutex<Control>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// The submitting thread waits here for `remaining == 0`.
    done_cv: Condvar,
    /// Per-worker phase finish time, ns since phase start.
    finish_ns: Vec<AtomicU64>,
    /// Per-worker PMU deltas for the current profiled phase.
    deltas: Vec<Mutex<CounterDelta>>,
}

/// What the executor measured about the phases submitted with one
/// [`ExecSink`] since it was last emptied.
#[derive(Debug, Default)]
pub struct Measured {
    /// Tasks run, steals, idle time at the barriers.
    pub exec: ExecCounters,
    /// Arena traffic of the worker threads while they ran these phases.
    pub alloc: AllocCounters,
    /// One span per worker per barrier broadcast of a profiled sink
    /// (timestamps relative to the sink's creation, plus native PMU
    /// deltas where the host exposes counters); empty otherwise.
    pub spans: Vec<WorkerPhaseStat>,
}

/// Where the executor puts what it measured about a phase (see
/// [`Measured`]).
///
/// A sink belongs to whoever submits the phases — one per join run — so
/// joins running concurrently on one pool each see exactly their own
/// work. [`ExecSink::take`] empties it at the run's phase boundaries.
#[derive(Debug)]
pub struct ExecSink {
    /// Time base of span timestamps; `None` when the run is not
    /// profiled (phases then take no PMU snapshots and record no spans).
    profile_epoch: Option<Instant>,
    acc: Mutex<Measured>,
}

impl ExecSink {
    pub fn new(profile: bool) -> Self {
        ExecSink {
            profile_epoch: profile.then(Instant::now),
            acc: Mutex::new(Measured::default()),
        }
    }

    /// Take what was recorded since the last take.
    pub fn take(&self) -> Measured {
        std::mem::take(&mut *lock_recover(&self.acc))
    }

    fn record(
        &self,
        exec: ExecCounters,
        alloc: AllocCounters,
        spans: impl IntoIterator<Item = WorkerPhaseStat>,
    ) {
        let mut acc = lock_recover(&self.acc);
        acc.exec.merge(exec);
        acc.alloc.merge(alloc);
        acc.spans.extend(spans);
    }
}

/// Morsels one worker ran (and stole) in one `run_morsels` phase; owned
/// by the call, so a nested inline phase cannot clobber its parent's.
#[derive(Default)]
struct Tally {
    tasks: AtomicU64,
    steals: AtomicU64,
}

/// A persistent pool of `workers` threads executing one phase at a time.
///
/// Prefer [`Executor::shared`] (the calling thread's pool per thread
/// count); [`Executor::new`] spawns a private pool whose threads are
/// joined on drop.
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    /// A pool without threads (made on a worker thread by
    /// [`Executor::shared`]): every phase runs inline on the submitter.
    inline: bool,
    /// Serializes phases from different submitting threads — of which
    /// only an [`Executor::new`] deliberately shared across threads has
    /// more than one.
    submit: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

fn spawn_worker(shared: &Arc<Shared>, w: usize) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    SPAWNED_HERE.with(|n| n.set(n.get() + 1));
    std::thread::Builder::new()
        .name(format!("mmjoin-exec-{w}"))
        .spawn(move || worker_loop(&shared, w))
        .expect("spawn executor worker")
}

impl Executor {
    /// Spawn a private pool with `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Executor::with_threads(workers, true)
    }

    fn with_threads(workers: usize, spawn: bool) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            ctl: Mutex::new(Control {
                job: None,
                epoch: 0,
                remaining: 0,
                start: Instant::now(),
                profile: false,
                scope: Scope::default(),
                panics: Vec::new(),
                alloc: AllocCounters::default(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            finish_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            deltas: (0..workers)
                .map(|_| Mutex::new(CounterDelta::none()))
                .collect(),
        });
        let handles = if spawn {
            (0..workers).map(|w| spawn_worker(&shared, w)).collect()
        } else {
            Vec::new()
        };
        Executor {
            shared,
            workers,
            inline: !spawn,
            submit: Mutex::new(()),
            handles,
        }
    }

    /// The calling thread's pool for `workers` threads: created on the
    /// thread's first call, returned by every later one, dropped — its
    /// workers joined — when the thread exits. Repeated joins on one
    /// thread never respawn workers, and joins submitted from different
    /// threads never wait for each other's phases. On an executor worker
    /// thread (a join nested inside a phase) the pool spawns no threads:
    /// its phases run inline, as any phase submitted there does.
    pub fn shared(workers: usize) -> Arc<Executor> {
        let workers = workers.max(1);
        POOLS.with(|pools| {
            let mut pools = pools.borrow_mut();
            let pool = pools.entry(workers).or_insert_with(|| {
                Arc::new(Executor::with_threads(workers, !IN_WORKER.with(Cell::get)))
            });
            Arc::clone(pool)
        })
    }

    /// Number of worker threads this pool spawned (`workers()`, or 0 for
    /// the inline pool of a worker thread).
    pub fn spawned_workers(&self) -> usize {
        self.handles.len()
    }

    /// Worker threads the calling thread's pools have spawned so far.
    pub fn threads_spawned_here() -> usize {
        SPAWNED_HERE.with(Cell::get)
    }

    /// Run a morsel phase: workers drain `queues` (one per NUMA node;
    /// a single queue means shared scheduling), invoking `f(worker,
    /// task)` for every task exactly once. Worker `w`'s home node is
    /// `w * nodes / workers`; it pops home tasks first and steals from
    /// the other nodes in ring order once home is dry. Nothing is
    /// recorded; see [`Executor::run_morsels_into`].
    ///
    /// # Panics
    ///
    /// If any task panics, the phase still runs to completion on the
    /// other workers and the collected messages are re-raised here
    /// as a [`WorkerPanic`] (converted to `JoinError::WorkerPanicked` at
    /// the dispatch boundary).
    pub fn run_morsels(&self, queues: &[Vec<usize>], f: &(dyn Fn(usize, usize) + Sync)) {
        self.run_morsels_into(None, queues, f);
    }

    /// [`WorkerPool::broadcast`] with the phase's counters (one task per
    /// worker) and, if it is profiled, spans handed to `sink`.
    pub fn broadcast_into(&self, sink: Option<&ExecSink>, f: &(dyn Fn(usize) + Sync)) {
        raise(self.phase(f, None, sink));
    }

    /// [`Executor::run_morsels`], with the phase's task, steal and idle
    /// counts and, if it is profiled, per-worker spans handed to `sink`.
    pub fn run_morsels_into(
        &self,
        sink: Option<&ExecSink>,
        queues: &[Vec<usize>],
        f: &(dyn Fn(usize, usize) + Sync),
    ) {
        self.run_workers_into(sink, queues, 1, &|w, pull| {
            while let Some(task) = pull() {
                f(w, task);
            }
        });
    }

    /// The morsel phase underneath [`Executor::run_morsels_into`], for
    /// workers that keep something across their tasks (a join worker its
    /// table and its checksum): every worker runs `worker(w, pull)` once,
    /// and `pull()` hands it its next task — home queue first, then the
    /// other nodes' in ring order — or `None` when all are dry. A worker
    /// takes `run` consecutive entries off a queue at a time, so the
    /// queue's shared cursor is touched once per run, not once per task.
    /// Tasks and steals are counted as they are pulled.
    pub fn run_workers_into(
        &self,
        sink: Option<&ExecSink>,
        queues: &[Vec<usize>],
        run: usize,
        worker: &(dyn Fn(usize, &mut Pull) + Sync),
    ) {
        let nodes = queues.len().max(1);
        let workers = self.workers;
        let run = run.max(1);
        let cursors: Vec<AtomicUsize> = (0..nodes).map(|_| AtomicUsize::new(0)).collect();
        let tally: Vec<Tally> = (0..workers).map(|_| Tally::default()).collect();
        let outcome = self.phase(
            &|w| {
                let home = (w * nodes / workers).min(nodes - 1);
                let mut my_tasks = 0u64;
                let mut my_steals = 0u64;
                // The queue being drained (`visited` steps round the
                // ring from home) and the entries of it this worker holds.
                let mut visited = 0;
                let mut held = 0..0;
                let mut pull = || {
                    while visited < nodes {
                        let node = (home + visited) % nodes;
                        let queue = queues.get(node).map_or(&[][..], |q| q);
                        if let Some(idx) = held.next() {
                            my_tasks += 1;
                            my_steals += u64::from(node != home);
                            return Some(queue[idx]);
                        }
                        let from = cursors[node].fetch_add(run, Ordering::Relaxed);
                        if from < queue.len() {
                            held = from..queue.len().min(from + run);
                        } else {
                            visited += 1;
                        }
                    }
                    None
                };
                worker(w, &mut pull);
                // One store per worker per phase; the phase barrier
                // publishes them to the submitting thread.
                tally[w].tasks.store(my_tasks, Ordering::Relaxed);
                tally[w].steals.store(my_steals, Ordering::Relaxed);
            },
            Some(&tally),
            sink,
        );
        raise(outcome);
    }

    /// Run one phase; `Err` carries the panic messages of every worker
    /// task that panicked (the phase barrier completed regardless).
    /// `tally` is `Some` for a morsel phase (per-worker task counts) and
    /// `None` for a plain broadcast (one task per worker). What the
    /// phase measured reaches `sink` before the `submit` lock is
    /// released, so it can never be attributed to another submitter.
    fn phase(
        &self,
        f: &(dyn Fn(usize) + Sync),
        tally: Option<&[Tally]>,
        sink: Option<&ExecSink>,
    ) -> Result<(), Vec<String>> {
        let worker_counts = |w: usize| match tally {
            Some(t) => (
                t[w].tasks.load(Ordering::Relaxed),
                t[w].steals.load(Ordering::Relaxed),
            ),
            None => (1, 0),
        };
        let totals = |idle_ns: u64| {
            let mut c = ExecCounters {
                idle_ns,
                ..ExecCounters::new()
            };
            for w in 0..self.workers {
                let (tasks, steals) = worker_counts(w);
                c.tasks += tasks;
                c.steals += steals;
            }
            c
        };

        // A broadcast from inside a worker thread (nested phase) cannot
        // wait on the pool it is part of, and an inline pool has nobody
        // to wait for; run the phase inline. Semantics are preserved
        // (every index invoked once, writes visible to the
        // continuation), only parallelism is lost. An inline panic
        // unwinds into the enclosing worker task's own catch_unwind.
        // An inline nested phase emits no spans of its own — its time,
        // PMU counters and allocations fold into the enclosing worker's
        // — but its tasks still reach the sink's aggregate counters.
        if self.inline || IN_WORKER.with(Cell::get) {
            for w in 0..self.workers {
                f(w);
            }
            if let Some(sink) = sink {
                sink.record(totals(0), AllocCounters::default(), None);
            }
            return Ok(());
        }

        let _phase = lock_recover(&self.submit);
        let profile_epoch = sink.and_then(|s| s.profile_epoch);
        for slot in &self.shared.finish_ns {
            slot.store(0, Ordering::Relaxed);
        }
        if profile_epoch.is_some() {
            for delta in &self.shared.deltas {
                *lock_recover(delta) = CounterDelta::none();
            }
        }
        // SAFETY: only the lifetime is erased; the job slot is cleared
        // below before `f` can go out of scope.
        let erased: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), _>(
                f as *const (dyn Fn(usize) + Sync),
            )
        };
        let phase_start = {
            let mut ctl = lock_recover(&self.shared.ctl);
            ctl.job = Some(Job(erased));
            ctl.epoch += 1;
            ctl.remaining = self.workers;
            ctl.start = Instant::now();
            ctl.profile = profile_epoch.is_some();
            ctl.scope = Scope::current();
            ctl.panics.clear();
            ctl.alloc = AllocCounters::default();
            self.shared.work_cv.notify_all();
            ctl.start
        };
        let (panics, alloc) = {
            // Phase barrier: re-acquiring `ctl` after the last worker's
            // decrement makes all workers' writes visible here. Every
            // worker decrements, task panic or not (see `worker_loop`).
            let mut ctl = lock_recover(&self.shared.ctl);
            while ctl.remaining > 0 {
                ctl = self
                    .shared
                    .done_cv
                    .wait(ctl)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            ctl.job = None;
            (std::mem::take(&mut ctl.panics), ctl.alloc)
        };
        if let Some(sink) = sink {
            let finishes: Vec<u64> = self
                .shared
                .finish_ns
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            let slowest = finishes.iter().copied().max().unwrap_or(0);
            let idle = finishes.iter().map(|&t| slowest - t).sum();
            // One span per worker per broadcast, carrying the same
            // per-worker counts the totals are summed from — so the
            // spans of a phase always sum to its ExecCounters.
            let spans = profile_epoch.map(|run_start| {
                let start_ns = phase_start
                    .checked_duration_since(run_start)
                    .map_or(0, |d| d.as_nanos() as u64);
                finishes.iter().enumerate().map(move |(w, &dur_ns)| {
                    let (tasks, steals) = worker_counts(w);
                    WorkerPhaseStat {
                        worker: w,
                        start_ns,
                        dur_ns,
                        tasks,
                        steals,
                        counters: std::mem::take(&mut *lock_recover(&self.shared.deltas[w])),
                    }
                })
            });
            sink.record(totals(idle), alloc, spans.into_iter().flatten());
        }
        if panics.is_empty() {
            Ok(())
        } else {
            Err(panics)
        }
    }
}

/// Re-raise a failed phase's worker panics on the submitting thread.
fn raise(outcome: Result<(), Vec<String>>) {
    if let Err(panics) = outcome {
        std::panic::panic_any(WorkerPanic(panics));
    }
}

impl WorkerPool for Executor {
    fn workers(&self) -> usize {
        self.workers
    }

    fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        self.broadcast_into(None, f);
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock_recover(&self.shared.ctl).shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    IN_WORKER.with(|c| c.set(true));
    let mut seen_epoch = 0;
    loop {
        let (job, start, profile, scope) = {
            let mut ctl = lock_recover(&shared.ctl);
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.epoch > seen_epoch {
                    seen_epoch = ctl.epoch;
                    let job = ctl.job.as_ref().expect("phase epoch without job").0;
                    break (job, ctl.start, ctl.profile, ctl.scope.clone());
                }
                ctl = shared
                    .work_cv
                    .wait(ctl)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `Executor::phase` keeps the closure alive until every
        // worker has decremented `remaining` for this epoch.
        let f: &(dyn Fn(usize) + Sync) = unsafe { &*job };
        // The phase barrier must complete even when a task fails, or
        // every later join on this pool would deadlock: nothing between
        // taking the job and the decrement below may unwind. The task
        // runs under its own `catch_unwind` inside `run_task` so that
        // the measurements still happen; this one catches what is left —
        // a panic payload whose `Drop` panics, a failing measurement.
        // Its own payload is leaked, not dropped: dropping it could
        // panic again, outside any guard. The unwind cannot leave `f`'s
        // data in a state the caller misreads — the submitting thread
        // re-raises the panic before looking at any phase output.
        let (failed, alloc) = catch_unwind(AssertUnwindSafe(|| {
            let _in = scope.enter();
            run_task(shared, w, f, start, profile)
        }))
        .unwrap_or_else(|payload| {
            let msg = panic_message(payload.as_ref());
            std::mem::forget(payload);
            (Some(msg), AllocCounters::default())
        });
        let mut ctl = lock_recover(&shared.ctl);
        ctl.panics.extend(failed);
        ctl.alloc.merge(alloc);
        ctl.remaining = ctl.remaining.saturating_sub(1);
        if ctl.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Worker `w`'s part of one phase: `f(w)` with its finish time, its
/// allocations and, when the phase is profiled, its PMU delta. Returns
/// the task's panic message, if it panicked, and the allocation delta.
fn run_task(
    shared: &Shared,
    w: usize,
    f: &(dyn Fn(usize) + Sync),
    start: Instant,
    profile: bool,
) -> (Option<String>, AllocCounters) {
    // Native counter snapshot around the task, only when profiling —
    // the disabled path never touches the perf module. The group is
    // opened lazily once per worker thread; on hosts without PMU
    // access it stays `None` and the span carries empty deltas.
    let snap = if profile {
        TL_COUNTERS.with(|c| {
            c.get_or_init(CounterGroup::open)
                .as_ref()
                .map(|g| g.snapshot())
        })
    } else {
        None
    };
    let alloc_before = mem::thread_stats();
    // The payload is dropped at the end of this statement, under the
    // caller's `catch_unwind`.
    let failed = catch_unwind(AssertUnwindSafe(|| f(w)))
        .err()
        .map(|payload| panic_message(payload.as_ref()));
    shared.finish_ns[w].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let alloc = AllocCounters::from_delta(mem::thread_stats().delta(&alloc_before));
    if profile {
        let delta = TL_COUNTERS.with(|c| {
            match (c.get_or_init(CounterGroup::open).as_ref(), snap.as_ref()) {
                (Some(g), Some(s)) => g.delta_since(s),
                _ => CounterDelta::none(),
            }
        });
        *lock_recover(&shared.deltas[w]) = delta;
    }
    (failed, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::pool::broadcast_map;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    #[test]
    fn broadcast_hits_every_worker_exactly_once() {
        let exec = Executor::new(6);
        let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            exec.broadcast(&|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 10);
        }
    }

    #[test]
    fn barrier_publishes_writes() {
        // Relaxed writes inside the phase must be visible after broadcast
        // returns — the edge every lock-free table relies on.
        let exec = Executor::new(8);
        let cells: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        for round in 1..50u64 {
            exec.broadcast(&|w| {
                cells[w].store(round, Ordering::Relaxed);
            });
            for c in &cells {
                assert_eq!(c.load(Ordering::Relaxed), round);
            }
        }
    }

    #[test]
    fn pool_reuse_does_not_respawn() {
        // Same thread count → same pool instance (other tests spawn pools
        // concurrently, so assert identity rather than the global count).
        let exec = Executor::shared(3);
        for _ in 0..5 {
            let again = Executor::shared(3);
            assert!(Arc::ptr_eq(&exec, &again));
            again.broadcast(&|_| {});
        }
        assert_eq!(exec.spawned_workers(), 3);
    }

    #[test]
    fn morsels_cover_all_tasks_and_count_steals() {
        let exec = Executor::new(4);
        let sink = ExecSink::new(false);
        // Heavily skewed queues: all tasks on node 0 of 2 — workers homed
        // on node 1 must steal everything they run.
        let queues = vec![(0..64).collect::<Vec<_>>(), Vec::new()];
        let done: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        exec.run_morsels_into(Some(&sink), &queues, &|_, t| {
            done[t].fetch_add(1, Ordering::Relaxed);
        });
        for d in &done {
            assert_eq!(d.load(Ordering::Relaxed), 1);
        }
        let c = sink.take().exec;
        assert_eq!(c.tasks, 64);
        // Node-1 workers can only have run stolen tasks.
        assert!(c.steals <= 64);
    }

    #[test]
    fn queue_policy_buckets_by_node() {
        let qs = build_queues(
            &[0, 1, 2, 3, 4, 5, 6, 7],
            8,
            QueuePolicy::NumaLocal { nodes: 4 },
        );
        assert_eq!(qs, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        let qs = build_queues(&[3, 1, 2], 8, QueuePolicy::Shared);
        assert_eq!(qs, vec![vec![3, 1, 2]]);
    }

    #[test]
    fn counters_accumulate_in_the_sink_and_drain() {
        let exec = Executor::new(2);
        let sink = ExecSink::new(false);
        exec.broadcast_into(Some(&sink), &|_| {});
        exec.broadcast_into(Some(&sink), &|_| {});
        // A phase submitted without a sink is nobody's business.
        exec.broadcast(&|_| {});
        assert_eq!(sink.take().exec.tasks, 4);
        assert_eq!(sink.take().exec, ExecCounters::new());
    }

    #[test]
    fn works_as_worker_pool_for_broadcast_map() {
        let exec = Executor::new(5);
        let out = broadcast_map(&exec, 5, |w| w * w);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn nested_broadcast_runs_inline() {
        let exec = Executor::new(2);
        let sink = ExecSink::new(true);
        let inner_hits = AtomicUsize::new(0);
        exec.broadcast_into(Some(&sink), &|w| {
            if w == 0 {
                // A phase nested inside a worker must not deadlock.
                exec.broadcast_into(Some(&sink), &|_| {
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 2);
        // The inline phase's tasks reach the sink it was submitted with
        // (2 outer + 2 inline); only the outer broadcast has spans.
        let Measured { exec: c, spans, .. } = sink.take();
        assert_eq!(c.tasks, 4);
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn worker_panic_completes_barrier_and_pool_survives() {
        let exec = Executor::new(4);
        let spawned = Executor::threads_spawned_here();
        let survivors = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.broadcast(&|w| {
                if w == 2 {
                    panic!("injected failure on worker {w}");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("the panic must surface on the submitting thread");
        let wp = caught
            .downcast_ref::<WorkerPanic>()
            .expect("payload is WorkerPanic");
        assert_eq!(wp.0.len(), 1);
        assert!(wp.0[0].contains("injected failure on worker 2"));
        // The barrier completed: the other three workers ran to the end.
        assert_eq!(survivors.load(Ordering::Relaxed), 3);
        // The same pool keeps working — no dead workers, no poison.
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        exec.broadcast(&|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        assert_eq!(Executor::threads_spawned_here(), spawned);
        assert_eq!(exec.spawned_workers(), 4);
    }

    /// A panic payload whose `Drop` panics too: dropping it happens on
    /// the worker thread after the task's unwind was caught, so the
    /// worker must contain that second panic as well. No worker thread
    /// ends and none is spawned, phase after phase. A watchdog turns a
    /// wedged barrier into a failure instead of a hung test.
    #[test]
    fn a_payload_that_panics_on_drop_kills_no_worker() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("bomb payload dropped");
            }
        }

        let (done, wait) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let exec = Executor::new(4);
            let spawned = Executor::threads_spawned_here();
            for _ in 0..3 {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    exec.broadcast(&|_| std::panic::panic_any(Bomb));
                }))
                .expect_err("the phase must re-raise");
                let wp = caught
                    .downcast_ref::<WorkerPanic>()
                    .expect("payload is WorkerPanic");
                assert_eq!(wp.0.len(), 4, "{:?}", wp.0);
                let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
                exec.broadcast(&|w| {
                    hits[w].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
            assert_eq!(Executor::threads_spawned_here(), spawned);
            assert_eq!(exec.spawned_workers(), 4);
            done.send(()).unwrap();
        });
        if let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(Duration::from_secs(30)) {
            panic!("a phase never completed its barrier");
        }
        watched.join().expect("pool assertions");
    }

    #[test]
    fn all_workers_panicking_collects_every_message() {
        let exec = Executor::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.broadcast(&|w| panic!("w{w} down"));
        }))
        .expect_err("panic expected");
        let wp = caught
            .downcast_ref::<WorkerPanic>()
            .expect("payload is WorkerPanic");
        assert_eq!(wp.0.len(), 3);
        let mut msgs = wp.0.clone();
        msgs.sort();
        assert_eq!(msgs, vec!["w0 down", "w1 down", "w2 down"]);
        exec.broadcast(&|_| {});
    }

    #[test]
    fn run_morsels_contains_task_panics() {
        let exec = Executor::new(4);
        let queues = vec![(0..32).collect::<Vec<_>>()];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.run_morsels(&queues, &|_, t| {
                if t == 17 {
                    panic!("morsel 17 exploded");
                }
            });
        }))
        .expect_err("panic expected");
        assert!(caught.downcast_ref::<WorkerPanic>().is_some());
        // Pool is reusable and morsel scheduling still covers everything.
        let done: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        exec.run_morsels(&queues, &|_, t| {
            done[t].fetch_add(1, Ordering::Relaxed);
        });
        for d in &done {
            assert_eq!(d.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn spans_empty_when_profiling_off() {
        let exec = Executor::new(3);
        let sink = ExecSink::new(false);
        exec.broadcast_into(Some(&sink), &|_| {});
        exec.run_morsels_into(Some(&sink), &[(0..8).collect()], &|_, _| {});
        let Measured { exec: c, spans, .. } = sink.take();
        assert_eq!(c.tasks, 3 + 8);
        assert!(spans.is_empty());
    }

    #[test]
    fn profiled_spans_sum_to_counters() {
        let exec = Executor::new(4);
        let sink = ExecSink::new(true);
        exec.broadcast_into(Some(&sink), &|_| {});
        let queues = vec![(0..32).collect::<Vec<_>>(), Vec::new()];
        exec.run_morsels_into(Some(&sink), &queues, &|_, _| {
            std::hint::black_box((0..500).sum::<u64>());
        });
        let Measured { exec: c, spans, .. } = sink.take();
        // One span per worker per broadcast: one plain + one morsel phase.
        assert_eq!(spans.len(), 2 * 4);
        let span_tasks: u64 = spans.iter().map(|s| s.tasks).sum();
        let span_steals: u64 = spans.iter().map(|s| s.steals).sum();
        assert_eq!(c.tasks, 4 + 32);
        assert_eq!(
            span_tasks, c.tasks,
            "span tasks must sum to the phase total"
        );
        assert_eq!(span_steals, c.steals);
        assert!(span_steals <= span_tasks);
        for s in &spans {
            assert!(s.worker < 4);
        }
        // Timestamps are relative to the sink's creation and ordered:
        // the second broadcast starts no earlier than the first.
        let first_start = spans[0].start_ns;
        let second_start = spans[spans.len() - 1].start_ns;
        assert!(second_start >= first_start);
    }

    /// Two submitters, one pool, one profiled and one not: each sink
    /// ends up with exactly its own phases — the property the pool-
    /// resident counters could not give.
    #[test]
    fn concurrent_submitters_see_only_their_own_work() {
        let exec = Executor::new(3);
        let rounds = 200;
        std::thread::scope(|scope| {
            for profile in [true, false] {
                let exec = &exec;
                scope.spawn(move || {
                    let sink = ExecSink::new(profile);
                    let queues = vec![(0..7).collect::<Vec<_>>()];
                    for _ in 0..rounds {
                        exec.broadcast_into(Some(&sink), &|_| {});
                        exec.run_morsels_into(Some(&sink), &queues, &|_, _| {});
                        let Measured { exec: c, spans, .. } = sink.take();
                        assert_eq!(c.tasks, 3 + 7);
                        assert_eq!(spans.len(), if profile { 2 * 3 } else { 0 });
                        assert_eq!(spans.iter().map(|s| s.tasks).sum::<u64>() > 0, profile);
                    }
                });
            }
        });
    }

    /// Two threads joining with the same thread count each get a pool of
    /// their own, so their phases are in flight at once: each closure
    /// waits for the other thread's to start. Behind one shared pool's
    /// `submit` lock the first phase would wait out the deadline.
    #[test]
    fn submitters_on_two_threads_run_phases_at_once() {
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let deadline = Duration::from_secs(10);
        std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..2)
                .map(|me| {
                    let started = &started;
                    scope.spawn(move || {
                        let pool = crate::config::JoinConfig::new(2).executor();
                        let met = AtomicBool::new(true);
                        pool.broadcast(&|_| {
                            started[me].store(true, Ordering::Release);
                            let t0 = Instant::now();
                            while !started[1 - me].load(Ordering::Acquire) {
                                if t0.elapsed() > deadline {
                                    met.store(false, Ordering::Relaxed);
                                    return;
                                }
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        });
                        met.into_inner()
                    })
                })
                .collect();
            for (me, s) in submitters.into_iter().enumerate() {
                assert!(
                    s.join().unwrap(),
                    "submitter {me} never saw the other's phase"
                );
            }
        });
    }

    /// A join started inside a worker (a phase nested in a phase) runs
    /// inline on that worker: the pool it is handed spawns no thread.
    #[test]
    fn a_join_on_a_worker_thread_runs_inline_without_a_pool() {
        use crate::{Algorithm, Join, JoinConfig};
        use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
        use mmjoin_util::Placement;

        let r = gen_build_dense(1_000, 61, Placement::Interleaved);
        let s = gen_probe_fk(4_000, 1_000, 62, Placement::Interleaved);
        let exec = Executor::new(2);
        let out: Vec<_> = broadcast_map(&exec, 2, |_| {
            let before = Executor::threads_spawned_here();
            let mut cfg = JoinConfig::new(3);
            cfg.simulate = false;
            let pool = cfg.executor();
            let res = Join::new(Algorithm::Pro).with_config(cfg).run(&r, &s);
            (
                pool.spawned_workers(),
                Executor::threads_spawned_here() - before,
                res,
            )
        });
        for (spawned, spawned_here, res) in out {
            assert_eq!((spawned, spawned_here), (0, 0));
            let res = res.expect("nested join");
            assert_eq!(res.matches, 4_000);
            assert!(res.phases.iter().all(|p| p.exec.tasks > 0), "{res:?}");
        }
    }
}

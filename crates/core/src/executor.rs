//! Persistent NUMA-aware morsel executor.
//!
//! Every thread-parallel phase of every join used to spawn its own scoped
//! threads — cheap on a laptop, but it charges thread creation to every
//! phase and makes NUMA-aware scheduling an ad-hoc property of task
//! ordering. This module replaces that with one long-lived worker pool:
//!
//! * **Workers are spawned once** per thread count (see
//!   [`Executor::shared`]) and parked on a condvar between phases. A run
//!   over all thirteen algorithms creates at most `threads` worker
//!   threads total.
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
//! * **Panic containment**: the pool is a process-lifetime resource
//!   shared by every join, so a panicking morsel task must not take it
//!   down. Every phase closure runs under `catch_unwind`; a panic is
//!   recorded, the phase barrier still completes, and the submitting
//!   thread re-raises the collected messages as a
//!   [`crate::fault::WorkerPanic`] (which `plan::dispatch` converts to
//!   `JoinError::WorkerPanicked`). Workers never die from a task panic;
//!   should a thread die anyway, the barrier detects it (bounded waits +
//!   per-worker completion epochs) and [`Executor::heal`] respawns it
//!   before the next phase.
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

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mmjoin_partition::task::node_of_partition;
use mmjoin_util::mem;
use mmjoin_util::perf::{CounterDelta, CounterGroup};
use mmjoin_util::pool::{lock_recover, ExecCounters, WorkerPhaseStat, WorkerPool};

use crate::fault::{panic_message, WorkerPanic};
use crate::stats::AllocCounters;

/// How long the barrier waits between checks for dead worker threads. A
/// live pool signals `done_cv` long before this; the timeout only bounds
/// how long a crashed worker (a thread that died outside a task panic —
/// task panics are caught) can stall the barrier.
const BARRIER_POLL: Duration = Duration::from_millis(50);

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

/// Worker threads ever spawned by any [`Executor`] in this process —
/// lets tests assert that repeated joins reuse pools instead of
/// respawning.
static TOTAL_SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside executor worker threads; a broadcast issued from one
    /// (which would deadlock on the single-phase control) runs inline
    /// instead.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Each worker thread's native PMU counter group, opened lazily on
    /// the first profiled phase it runs (perf fds count the opening
    /// thread, so the group must be per-thread). `None` when the host
    /// exposes no counters — spans then carry `CounterDelta::none()`.
    static TL_COUNTERS: std::cell::OnceCell<Option<CounterGroup>> =
        const { std::cell::OnceCell::new() };
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
    /// Last epoch each worker completed (written in the same `ctl`
    /// critical section as the `remaining` decrement). The barrier's
    /// dead-worker check uses it to account a crashed thread exactly
    /// once: a dead worker whose `done_epoch` already equals the current
    /// epoch was either accounted by a previous poll or finished the
    /// phase before dying.
    done_epoch: Vec<AtomicU64>,
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
/// Prefer [`Executor::shared`] (one pool per thread count per process);
/// [`Executor::new`] spawns a private pool whose threads are joined on
/// drop.
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    /// Serializes phases from different submitting threads.
    submit: Mutex<()>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn spawn_worker(shared: &Arc<Shared>, w: usize, start_epoch: u64) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    TOTAL_SPAWNED.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("mmjoin-exec-{w}"))
        .spawn(move || worker_loop(&shared, w, start_epoch))
        .expect("spawn executor worker")
}

impl Executor {
    /// Spawn a private pool with `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            ctl: Mutex::new(Control {
                job: None,
                epoch: 0,
                remaining: 0,
                start: Instant::now(),
                profile: false,
                panics: Vec::new(),
                alloc: AllocCounters::default(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            finish_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            done_epoch: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            deltas: (0..workers)
                .map(|_| Mutex::new(CounterDelta::none()))
                .collect(),
        });
        let handles = (0..workers).map(|w| spawn_worker(&shared, w, 0)).collect();
        Executor {
            shared,
            workers,
            submit: Mutex::new(()),
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide pool for `workers` threads. Pools are created
    /// lazily, cached forever, and shared by every join using the same
    /// thread count — repeated joins never respawn workers.
    pub fn shared(workers: usize) -> Arc<Executor> {
        static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<Executor>>>> = OnceLock::new();
        let workers = workers.max(1);
        let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        Arc::clone(
            lock_recover(reg)
                .entry(workers)
                .or_insert_with(|| Arc::new(Executor::new(workers))),
        )
    }

    /// Number of worker threads this pool spawned (== `workers()`).
    pub fn spawned_workers(&self) -> usize {
        self.workers
    }

    /// Worker threads ever spawned by all executors in this process.
    pub fn total_threads_spawned() -> usize {
        TOTAL_SPAWNED.load(Ordering::Relaxed)
    }

    /// Respawn any worker thread that has died. Task panics are caught
    /// in `worker_loop` and never kill a worker, so this is a backstop
    /// for threads lost to causes the pool cannot intercept; it is
    /// called after any phase that reported failures. Holding the submit
    /// lock keeps a phase from starting mid-respawn, so a replacement
    /// worker's starting epoch is always current.
    pub fn heal(&self) {
        let _phase = lock_recover(&self.submit);
        let epoch = lock_recover(&self.shared.ctl).epoch;
        let mut handles = lock_recover(&self.handles);
        for (w, h) in handles.iter_mut().enumerate() {
            if h.is_finished() {
                let fresh = spawn_worker(&self.shared, w, epoch);
                let dead = std::mem::replace(h, fresh);
                let _ = dead.join();
            }
        }
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
    /// surviving workers and the collected messages are re-raised here
    /// as a [`WorkerPanic`] (converted to `JoinError::WorkerPanicked` at
    /// the dispatch boundary).
    pub fn run_morsels(&self, queues: &[Vec<usize>], f: &(dyn Fn(usize, usize) + Sync)) {
        self.run_morsels_into(None, queues, f);
    }

    /// [`WorkerPool::broadcast`] with the phase's counters (one task per
    /// worker) and, if it is profiled, spans handed to `sink`.
    pub fn broadcast_into(&self, sink: Option<&ExecSink>, f: &(dyn Fn(usize) + Sync)) {
        self.raise(self.phase(f, None, sink));
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
        self.raise(outcome);
    }

    /// Re-raise a failed phase's worker panics on the submitting thread.
    fn raise(&self, outcome: Result<(), Vec<String>>) {
        if let Err(panics) = outcome {
            self.heal();
            std::panic::panic_any(WorkerPanic(panics));
        }
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
        // wait on the pool it is part of; run the phase inline. Semantics
        // are preserved (every index invoked once, writes visible to the
        // continuation), only parallelism is lost. An inline panic
        // unwinds into the enclosing worker task's own catch_unwind.
        // An inline nested phase emits no spans of its own — its time,
        // PMU counters and allocations fold into the enclosing worker's
        // — but its tasks still reach the sink's aggregate counters.
        if IN_WORKER.with(|c| c.get()) {
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
        let (epoch, phase_start) = {
            let mut ctl = lock_recover(&self.shared.ctl);
            ctl.job = Some(Job(erased));
            ctl.epoch += 1;
            ctl.remaining = self.workers;
            ctl.start = Instant::now();
            ctl.profile = profile_epoch.is_some();
            ctl.panics.clear();
            ctl.alloc = AllocCounters::default();
            self.shared.work_cv.notify_all();
            (ctl.epoch, ctl.start)
        };
        let (panics, alloc) = {
            // Phase barrier: re-acquiring `ctl` after the last worker's
            // decrement makes all workers' writes visible here. The wait
            // is bounded so a crashed worker thread cannot wedge the
            // barrier: on each timeout, workers that are dead and never
            // completed this epoch are accounted as finished (with a
            // synthetic panic message) exactly once.
            let mut ctl = lock_recover(&self.shared.ctl);
            while ctl.remaining > 0 {
                let (guard, timeout) = self
                    .shared
                    .done_cv
                    .wait_timeout(ctl, BARRIER_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
                ctl = guard;
                if !timeout.timed_out() || ctl.remaining == 0 {
                    continue;
                }
                // `is_finished` needs the handles lock; never hold it
                // together with `ctl`.
                drop(ctl);
                let dead: Vec<usize> = {
                    let handles = lock_recover(&self.handles);
                    handles
                        .iter()
                        .enumerate()
                        .filter(|(_, h)| h.is_finished())
                        .map(|(w, _)| w)
                        .collect()
                };
                ctl = lock_recover(&self.shared.ctl);
                for w in dead {
                    // A worker that finished this epoch before dying (or
                    // was accounted by an earlier poll) has done_epoch ==
                    // epoch; only count the ones that never completed.
                    if self.shared.done_epoch[w].load(Ordering::Relaxed) < epoch {
                        self.shared.done_epoch[w].store(epoch, Ordering::Relaxed);
                        ctl.remaining = ctl.remaining.saturating_sub(1);
                        ctl.panics.push(format!("worker {w} thread died mid-phase"));
                    }
                }
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
        {
            let mut ctl = lock_recover(&self.shared.ctl);
            ctl.shutdown = true;
            // Wake parked workers *and* any stranded barrier waiter (a
            // foreign thread blocked in broadcast while a worker died
            // would otherwise stall shutdown until its poll timeout).
            self.shared.work_cv.notify_all();
            self.shared.done_cv.notify_all();
        }
        for h in lock_recover(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize, start_epoch: u64) {
    IN_WORKER.with(|c| c.set(true));
    let mut seen_epoch = start_epoch;
    loop {
        let (job, start, profile) = {
            let mut ctl = lock_recover(&shared.ctl);
            loop {
                if ctl.shutdown {
                    return;
                }
                if ctl.epoch > seen_epoch {
                    seen_epoch = ctl.epoch;
                    let job = ctl.job.as_ref().expect("phase epoch without job").0;
                    break (job, ctl.start, ctl.profile);
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
        // Contain task panics: the phase barrier must complete even when
        // a task fails, or every later join on this shared pool would
        // deadlock. The unwind cannot leave `f`'s data in a state the
        // caller misreads — the submitting thread re-raises the panic
        // before looking at any phase output.
        let alloc_before = mem::thread_stats();
        let caught = catch_unwind(AssertUnwindSafe(|| f(w))).err();
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
        let mut ctl = lock_recover(&shared.ctl);
        if let Some(payload) = caught {
            ctl.panics.push(panic_message(payload.as_ref()));
        }
        shared.done_epoch[w].store(seen_epoch, Ordering::Relaxed);
        ctl.alloc.merge(alloc);
        ctl.remaining = ctl.remaining.saturating_sub(1);
        if ctl.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::pool::broadcast_map;

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

    #[test]
    fn heal_is_a_noop_on_a_healthy_pool() {
        let exec = Executor::new(4);
        let before = Executor::total_threads_spawned();
        exec.heal();
        assert_eq!(Executor::total_threads_spawned(), before);
        exec.broadcast(&|_| {});
    }
}

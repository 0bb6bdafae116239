//! The run-scoped execution context: one [`JoinRun`] per join.
//!
//! A driver differs from the next only in what happens *inside* a
//! phase; everything around it — label the phase, arm its failpoint,
//! time it, describe it to the cost model, collect what the executor
//! measured, record the [`PhaseStat`], check for cancellation — is
//! [`JoinRun::phase`], written once. The run owns everything that
//! belongs to one join and nothing else does:
//!
//! * the fault state (cancellation, deadline, [`MemBudget`],
//!   failpoints; see [`crate::fault`]),
//! * the [`ExecSink`] the executor hands this join's counters, arena
//!   traffic and worker spans to — the pool keeps none, so joins
//!   running concurrently on one pool cannot contaminate each other's
//!   `PhaseStat`s,
//! * the `Arc<Executor>` its phases run on, and
//! * the [`JoinResult`] under construction.
//!
//! Workers see the [`RunCtx`] half through the closures they run: it is
//! the [`WorkerPool`] every parallel loop is handed (core's own and the
//! ones below `mmjoin-core`), so a phase cannot reach the pool without
//! its sink and its failpoint. With no knob set, every check is one or
//! two relaxed atomic loads.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::mem::{self, AllocSnapshot};
use mmjoin_util::pool::{lock_recover, WorkerPool};

use crate::config::JoinConfig;
use crate::executor::{ExecSink, Executor, Pull};
use crate::fault::{panic_message, BudgetExceeded, CancelToken, MemBudget, MemCharge};
use crate::plan::JoinError;
use crate::spec::{self, PhaseModel};
use crate::stats::{AllocCounters, JoinResult, PhaseStat, SpillCounters};
use crate::Algorithm;

#[cfg(feature = "failpoints")]
use crate::fault::failpoints;
#[cfg(feature = "failpoints")]
use std::sync::atomic::{AtomicU64, AtomicU8};
#[cfg(feature = "failpoints")]
use std::time::Duration;

thread_local! {
    /// The phase the join submitted from this thread is currently in —
    /// read by [`contain_panics`] to label `WorkerPanicked` errors.
    static CURRENT_PHASE: Cell<&'static str> = const { Cell::new("plan") };
}

/// Run a join entry point under the outer fault boundary: a panic that
/// escapes it — a [`crate::fault::WorkerPanic`] re-raised by the
/// executor, or a panic on the submitting thread itself — becomes
/// [`JoinError::WorkerPanicked`] instead of unwinding into the caller.
/// The executor has already completed the phase barrier, with every
/// worker alive, by the time the payload reaches this frame.
pub(crate) fn contain_panics<T>(f: impl FnOnce() -> Result<T, JoinError>) -> Result<T, JoinError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(res) => res,
        Err(payload) => Err(JoinError::WorkerPanicked {
            phase: CURRENT_PHASE.with(|c| c.get()),
            payload: panic_message(payload.as_ref()),
        }),
    }
}

fn budget_exceeded(phase: &'static str, requested: usize, be: BudgetExceeded) -> JoinError {
    JoinError::MemoryBudgetExceeded {
        phase,
        requested,
        limit: be.limit,
        available: be.available,
    }
}

/// The half of a [`JoinRun`] that worker tasks see: fault checks, the
/// memory budget, and — as a [`WorkerPool`] — the executor bound to this
/// run's sink and failpoint.
pub struct RunCtx {
    /// Prefix of the run's failpoint names (`"<ALG>.<phase>"`).
    #[cfg(feature = "failpoints")]
    alg: Algorithm,
    exec: Arc<Executor>,
    sink: ExecSink,
    cancel: CancelToken,
    deadline_at: Option<Instant>,
    started: Instant,
    budget: MemBudget,
    /// Current phase label (written at phase entry, read on error paths
    /// only).
    phase: Mutex<&'static str>,
    /// First worker-side failure (budget trip, spill I/O), surfaced at
    /// the end of the phase.
    tripped: Mutex<Option<JoinError>>,
    /// Sticky fast flag: some stop condition has been observed.
    stopped: AtomicBool,
    /// Disk-spill activity reported during the current phase.
    spill: Mutex<SpillCounters>,
    /// Active failpoint for the current phase: 0 none, 1 panic, 2 sleep.
    #[cfg(feature = "failpoints")]
    fp_mode: AtomicU8,
    #[cfg(feature = "failpoints")]
    fp_sleep_ms: AtomicU64,
}

impl RunCtx {
    /// The label of the phase the join is currently in.
    pub fn phase_name(&self) -> &'static str {
        *lock_recover(&self.phase)
    }

    /// Enter a named phase: updates the error label and arms the phase's
    /// failpoint (`"<ALG>.<phase>"`), if any.
    fn enter(&self, name: &'static str) {
        *lock_recover(&self.phase) = name;
        CURRENT_PHASE.with(|c| c.set(name));
        #[cfg(feature = "failpoints")]
        {
            let key = format!("{}.{name}", self.alg.name());
            let (mode, ms) = match failpoints::active(&key) {
                Some(failpoints::FailAction::Panic) => (1, 0),
                Some(failpoints::FailAction::Sleep(ms)) => (2, ms),
                None => (0, 0),
            };
            self.fp_sleep_ms.store(ms, Ordering::Relaxed);
            self.fp_mode.store(mode, Ordering::Relaxed);
        }
    }

    /// Should in-flight work bail out? Checked at morsel granularity;
    /// sticky once true. With no cancel token fired and no deadline this
    /// is one relaxed load (+ one for the token).
    pub fn should_stop(&self) -> bool {
        if self.stopped.load(Ordering::Relaxed) {
            return true;
        }
        if self.cancel.is_cancelled() || self.deadline_at.is_some_and(|d| Instant::now() >= d) {
            self.stopped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Worker-side per-morsel hook: fires the phase's failpoint (if the
    /// `failpoints` feature armed one) and reports whether the task
    /// should bail out.
    pub fn tick(&self) -> bool {
        self.on_worker();
        self.should_stop()
    }

    /// Failpoint evaluation only (run on every worker of a broadcast, for
    /// phases whose inner loops live in other crates).
    #[inline]
    fn on_worker(&self) {
        #[cfg(feature = "failpoints")]
        match self.fp_mode.load(Ordering::Relaxed) {
            1 => panic!("failpoint {}.{} fired", self.alg.name(), self.phase_name()),
            2 => std::thread::sleep(Duration::from_millis(
                self.fp_sleep_ms.load(Ordering::Relaxed),
            )),
            _ => {}
        }
    }

    /// The join's byte budget, for drivers (the spilling join's
    /// eviction planner) that need raw reserve/release control.
    pub(crate) fn budget(&self) -> &MemBudget {
        &self.budget
    }

    /// Build the typed budget error for a refused reservation in the
    /// current phase.
    pub(crate) fn budget_error(&self, bytes: usize, be: BudgetExceeded) -> JoinError {
        budget_exceeded(self.phase_name(), bytes, be)
    }

    /// Worker-side reservation, given back when the guard drops (a
    /// morsel's table): on failure the error is recorded (to surface at
    /// the end of the phase) and `None` is returned so the morsel can
    /// bail out.
    pub fn try_charge(&self, bytes: usize) -> Option<MemCharge<'_>> {
        match self.budget.try_reserve(bytes) {
            Ok(()) => Some(MemCharge::new(&self.budget, bytes)),
            Err(be) => {
                self.trip(self.budget_error(bytes, be));
                None
            }
        }
    }

    /// A reservation of nothing, for [`RunCtx::try_grow`] to raise.
    pub fn empty_charge(&self) -> MemCharge<'_> {
        MemCharge::new(&self.budget, 0)
    }

    /// Worker-side growth of a reservation it holds (its table, reset
    /// for a larger partition): `false`, with the error recorded like
    /// [`RunCtx::try_charge`]'s, if the budget refuses the difference.
    pub fn try_grow(&self, charge: &mut MemCharge<'_>, bytes: usize) -> bool {
        match charge.grow_to(bytes) {
            Ok(()) => true,
            Err((more, be)) => {
                self.trip(self.budget_error(more, be));
                false
            }
        }
    }

    /// Record a worker-side failure; first one wins. `pub(crate)` so
    /// drivers with worker-side I/O (the spilling join) can surface a
    /// typed error at the end of the phase.
    pub(crate) fn trip(&self, e: JoinError) {
        let mut t = lock_recover(&self.tripped);
        if t.is_none() {
            *t = Some(e);
        }
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// Report disk-spill activity of the current phase (merged into its
    /// `PhaseStat`).
    pub(crate) fn add_spill(&self, counters: SpillCounters) {
        lock_recover(&self.spill).merge(counters);
    }

    /// Run a morsel phase on the run's executor (see
    /// [`Executor::run_morsels`]), counted towards the current phase.
    pub fn run_morsels(&self, queues: &[Vec<usize>], f: &(dyn Fn(usize, usize) + Sync)) {
        self.exec.run_morsels_into(Some(&self.sink), queues, f);
    }

    /// A morsel phase whose workers keep state across their tasks (see
    /// [`Executor::run_workers_into`]), counted towards the current
    /// phase.
    pub fn run_workers(
        &self,
        queues: &[Vec<usize>],
        run: usize,
        worker: &(dyn Fn(usize, &mut Pull) + Sync),
    ) {
        self.exec
            .run_workers_into(Some(&self.sink), queues, run, worker);
    }

    /// Phase-boundary check: surfaces a worker-side trip, cancellation,
    /// or an expired deadline as the matching [`JoinError`], carrying
    /// the `PhaseStat`s completed so far.
    fn checkpoint(&self, done: &[PhaseStat]) -> Result<(), JoinError> {
        if let Some(e) = lock_recover(&self.tripped).take() {
            return Err(e);
        }
        if self.cancel.is_cancelled() {
            return Err(JoinError::Cancelled {
                phase: self.phase_name(),
                partial: done.to_vec(),
            });
        }
        if self.deadline_at.is_some_and(|d| Instant::now() >= d) {
            return Err(JoinError::Timedout {
                phase: self.phase_name(),
                elapsed: self.started.elapsed(),
                partial: done.to_vec(),
            });
        }
        Ok(())
    }
}

/// Every broadcast of the run evaluates the phase's failpoint on each
/// worker before the phase closure and reports to the run's sink — the
/// injection and accounting path for phases whose parallel loops live
/// below `mmjoin-core` (partitioning, CHT bulkload). It never skips the
/// closure: the pool contract (every index invoked once) is what the
/// result-slot helpers rely on.
impl WorkerPool for RunCtx {
    fn workers(&self) -> usize {
        self.exec.workers()
    }

    fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        self.exec.broadcast_into(Some(&self.sink), &|w| {
            self.on_worker();
            f(w);
        });
    }
}

/// One join execution: created once per join by its driver, fed one
/// [`JoinRun::phase`] call per barrier-delimited phase, and turned into
/// the [`JoinResult`] by [`JoinRun::finish`].
pub struct JoinRun<'c> {
    cfg: &'c JoinConfig,
    ctx: RunCtx,
    result: JoinResult,
    /// The submitting thread's `mem::thread_stats()` at the previous
    /// phase boundary: what it allocates itself (reservations made real
    /// between phases, output buffers) is billed to the next phase.
    alloc_mark: AllocSnapshot,
}

impl<'c> JoinRun<'c> {
    /// Start a run of `alg` under `cfg`'s knobs. Must be called on the
    /// submitting thread (failpoints armed with
    /// `crate::fault::failpoints::arm_local` are resolved against it).
    pub fn begin(alg: Algorithm, cfg: &'c JoinConfig) -> Self {
        CURRENT_PHASE.with(|c| c.set("plan"));
        let started = Instant::now();
        JoinRun {
            cfg,
            ctx: RunCtx {
                #[cfg(feature = "failpoints")]
                alg,
                exec: cfg.executor(),
                sink: ExecSink::new(cfg.profile),
                cancel: cfg.cancel.clone(),
                deadline_at: cfg.deadline.map(|d| started + d),
                started,
                budget: match cfg.mem_limit {
                    Some(bytes) => MemBudget::limited(bytes),
                    None => MemBudget::unlimited(),
                },
                phase: Mutex::new("plan"),
                tripped: Mutex::new(None),
                stopped: AtomicBool::new(false),
                spill: Mutex::new(SpillCounters::default()),
                #[cfg(feature = "failpoints")]
                fp_mode: AtomicU8::new(0),
                #[cfg(feature = "failpoints")]
                fp_sleep_ms: AtomicU64::new(0),
            },
            result: JoinResult::new(alg),
            alloc_mark: mem::thread_stats(),
        }
    }

    /// The configuration the run was started under.
    pub fn cfg(&self) -> &'c JoinConfig {
        self.cfg
    }

    /// Start the result from phases that already ran elsewhere (a
    /// pipeline's prepared build sides).
    pub fn extend_phases(&mut self, phases: impl IntoIterator<Item = PhaseStat>) {
        self.result.phases.extend(phases);
    }

    /// Reserve `bytes` of the run's memory budget, for the rest of the
    /// run, for a structure `phase` is about to allocate — or fail the
    /// join before the allocation happens. Made ahead of the phase so
    /// that allocating stays outside its wall time; the budget lives and
    /// dies with the run, so there is nothing to give back.
    pub fn reserve(&self, phase: &'static str, bytes: usize) -> Result<(), JoinError> {
        self.ctx
            .budget
            .try_reserve(bytes)
            .map_err(|be| budget_exceeded(phase, bytes, be))
    }

    /// Run one barrier-delimited phase — the only way a driver executes
    /// and records one. `work` does the phase's job on the [`RunCtx`]
    /// (and only it is timed as the phase's `wall`); `model` then
    /// describes what was done to the cost model — called only when
    /// `cfg.simulate` is on, and timed with the simulation as the
    /// phase's `model_wall`. In order: enter the phase (error label,
    /// failpoint), time `work`, simulate the model (keeping timelines
    /// if asked), take what the executor measured for this run since
    /// the last phase, add the submitting thread's own arena traffic,
    /// push the [`PhaseStat`], and check for worker-side
    /// failures, cancellation and the deadline. An `Err` from `work`
    /// fails the join without recording the phase.
    pub fn phase<T>(
        &mut self,
        name: &'static str,
        work: impl FnOnce(&RunCtx) -> Result<T, JoinError>,
        model: impl FnOnce(&T) -> PhaseModel,
    ) -> Result<T, JoinError> {
        let ctx = &self.ctx;
        ctx.enter(name);
        let start = Instant::now();
        let out = work(ctx)?;
        let wall = start.elapsed();
        let mut sim_seconds = 0.0;
        if self.cfg.simulate {
            for (specs, order) in model(&out).0 {
                let (seconds, sim) = spec::run_phase(self.cfg, &specs, &order);
                sim_seconds += seconds;
                if self.cfg.keep_timelines {
                    self.result.timelines.push((name, sim));
                }
            }
        }
        let model_wall = start.elapsed() - wall;
        let mut measured = ctx.sink.take();
        let now = mem::thread_stats();
        let own = AllocCounters::from_delta(now.delta(&self.alloc_mark));
        measured.alloc.merge(own);
        self.alloc_mark = now;
        self.result.phases.push(PhaseStat {
            name,
            wall,
            model_wall,
            sim_seconds,
            exec: measured.exec,
            spill: std::mem::take(&mut *lock_recover(&ctx.spill)),
            alloc: measured.alloc,
            workers: measured.spans,
        });
        ctx.checkpoint(&self.result.phases)?;
        Ok(out)
    }

    /// Close the run: the result of all recorded phases with the join's
    /// checksum and (for partitioned joins) the radix bits used.
    pub fn finish(mut self, checksum: JoinChecksum, radix_bits: Option<u32>) -> JoinResult {
        self.result.set_checksum(checksum);
        self.result.radix_bits = radix_bits;
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn idle<T>(_: &T) -> PhaseModel {
        PhaseModel::none()
    }

    #[test]
    fn morsel_charge_releases_on_drop_and_reservations_stay() {
        let mut cfg = JoinConfig::new(1);
        cfg.mem_limit = Some(64);
        let mut run = JoinRun::begin(Algorithm::Nop, &cfg);
        run.phase(
            "build",
            |p| {
                {
                    let _c = p.try_charge(64).expect("fits");
                    assert!(p.budget().try_reserve(1).is_err());
                }
                assert!(p.try_charge(64).is_some(), "guard drop released the bytes");
                Ok(())
            },
            idle,
        )
        .unwrap();
        run.reserve("probe", 40).expect("fits");
        assert_eq!(
            run.reserve("probe", 40),
            Err(JoinError::MemoryBudgetExceeded {
                phase: "probe",
                requested: 40,
                limit: 64,
                available: 24,
            })
        );
    }

    #[test]
    fn the_model_is_not_built_when_simulation_is_off() {
        let mut cfg = JoinConfig::new(1);
        cfg.simulate = false;
        let mut run = JoinRun::begin(Algorithm::Prb, &cfg);
        run.phase(
            "join",
            |_| Ok(()),
            |_| -> PhaseModel { panic!("described a phase nobody simulates") },
        )
        .unwrap();
        let res = run.finish(JoinChecksum::new(), None);
        assert_eq!(res.phases[0].sim_seconds, 0.0);
        assert_eq!(res.total_model_wall(), res.phases[0].model_wall);
    }

    #[test]
    fn worker_trip_surfaces_at_the_end_of_the_phase() {
        let mut cfg = JoinConfig::new(1);
        cfg.mem_limit = Some(10);
        let mut run = JoinRun::begin(Algorithm::Cprl, &cfg);
        let err = run.phase(
            "join",
            |p| {
                assert!(p.try_charge(100).is_none());
                assert!(p.should_stop());
                Ok(())
            },
            idle,
        );
        assert_eq!(
            err,
            Err(JoinError::MemoryBudgetExceeded {
                phase: "join",
                requested: 100,
                limit: 10,
                // Nothing was reserved yet.
                available: 10,
            })
        );
    }

    #[test]
    fn deadline_zero_stops_immediately() {
        let mut cfg = JoinConfig::new(1);
        cfg.deadline = Some(Duration::ZERO);
        let mut run = JoinRun::begin(Algorithm::Pro, &cfg);
        let err = run.phase(
            "partition",
            |p| {
                assert!(p.should_stop());
                Ok(())
            },
            idle,
        );
        assert!(matches!(
            err,
            Err(JoinError::Timedout {
                phase: "partition",
                ..
            })
        ));
    }

    #[test]
    fn cancellation_reports_partial_phases() {
        let mut cfg = JoinConfig::new(1);
        let token = CancelToken::new();
        cfg.cancel = token.clone();
        let mut run = JoinRun::begin(Algorithm::Mway, &cfg);
        run.phase("partition", |_| Ok(()), idle).unwrap();
        match run.phase(
            "sort",
            |_| {
                token.cancel();
                Ok(())
            },
            idle,
        ) {
            Err(JoinError::Cancelled { phase, partial }) => {
                assert_eq!(phase, "sort");
                // The phase that was running when the token fired is
                // recorded too: its work completed.
                let names: Vec<_> = partial.iter().map(|p| p.name).collect();
                assert_eq!(names, ["partition", "sort"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_phase_records_exactly_the_work_submitted_through_its_ctx() {
        let mut cfg = JoinConfig::new(3);
        cfg.profile = true;
        let mut run = JoinRun::begin(Algorithm::Nop, &cfg);
        run.phase(
            "build",
            |p| {
                p.broadcast(&|_| {});
                p.run_morsels(&[(0..10).collect()], &|_, _| {});
                Ok(())
            },
            idle,
        )
        .unwrap();
        run.phase("probe", |_| Ok(()), idle).unwrap();
        let res = run.finish(JoinChecksum::new(), None);
        assert_eq!(res.phases[0].exec.tasks, 3 + 10);
        assert_eq!(res.phases[0].workers.len(), 2 * 3);
        assert_eq!(res.phases[1].exec.tasks, 0);
        assert!(res.phases[1].workers.is_empty());
    }

    #[test]
    fn escaped_panics_become_typed_errors_labelled_with_the_phase() {
        let cfg = JoinConfig::new(2);
        let err = contain_panics(|| {
            let mut run = JoinRun::begin(Algorithm::Chtj, &cfg);
            run.phase(
                "probe",
                |p| -> Result<(), JoinError> {
                    p.broadcast(&|w| {
                        if w == 1 {
                            panic!("boom");
                        }
                    });
                    Ok(())
                },
                idle,
            )
        });
        assert_eq!(
            err,
            Err(JoinError::WorkerPanicked {
                phase: "probe",
                payload: "boom".to_string(),
            })
        );
    }
}

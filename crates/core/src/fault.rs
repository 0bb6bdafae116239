//! Fault containment for join execution: cancellation, deadlines,
//! memory budgeting, and deterministic failpoints.
//!
//! The persistent executor ([`crate::executor`]) made worker threads a
//! process-lifetime resource shared by every join — so a join can no
//! longer be allowed to take the pool down with it. This module holds
//! the building blocks of the per-join fault state that a
//! [`crate::run::JoinRun`] threads through every phase of a driver:
//!
//! * [`CancelToken`] — cooperative cancellation, checked at morsel
//!   granularity inside the join/build/probe loops and at every phase
//!   boundary. Cancelling mid-join yields
//!   [`JoinError::Cancelled`] with the `PhaseStat`s of the phases that
//!   completed.
//! * Deadlines — `JoinConfig::deadline` bounds a join's wall time; an
//!   expired deadline surfaces as [`JoinError::Timedout`], again with
//!   partial phase stats.
//! * [`MemBudget`] — a `try_reserve`-style byte budget
//!   (`JoinConfig::mem_limit`). The drivers charge their large
//!   allocations (partition buffers, hash tables, SWWCB pools,
//!   materialization vectors) against it *before* allocating; exceeding
//!   the limit yields [`JoinError::MemoryBudgetExceeded`] instead of an
//!   abort.
//! * Failpoints (`--features failpoints`) — deterministic fault
//!   injection into every phase of every algorithm, armed for the joins
//!   one thread submits (`failpoints::arm_local`).

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(doc)]
use crate::plan::JoinError;

/// Carrier for worker panic messages re-raised by the executor on the
/// submitting thread; `panic_message` unwraps it into the payload shown
/// in [`JoinError::WorkerPanicked`].
pub struct WorkerPanic(pub Vec<String>);

/// Best-effort string form of a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(wp) = payload.downcast_ref::<WorkerPanic>() {
        wp.0.join("; ")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cooperative cancellation handle for a running join.
///
/// Clone the token, hand one clone to `JoinConfig::cancel` (or
/// `Join::cancel_token`), keep the other; calling [`CancelToken::cancel`]
/// from any thread makes the join return [`JoinError::Cancelled`] at the
/// next morsel or phase boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a [`MemBudget`] reservation was refused: the configured limit
/// and how many bytes were still unreserved at the time. Carried into
/// [`JoinError::MemoryBudgetExceeded`] so abort messages (and the
/// spilling join's eviction trigger) are diagnosable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    pub limit: usize,
    pub available: usize,
}

/// A byte budget for a join's large allocations.
///
/// `try_reserve` either admits the request or reports the limit and the
/// bytes still available — exceeding the budget is a *policy* decision
/// surfaced before the allocation happens, not an allocator failure
/// after.
#[derive(Debug)]
pub struct MemBudget {
    /// `usize::MAX` means unlimited (the fast path: one branch).
    limit: usize,
    used: AtomicUsize,
}

impl MemBudget {
    pub fn unlimited() -> Self {
        MemBudget {
            limit: usize::MAX,
            used: AtomicUsize::new(0),
        }
    }

    pub fn limited(bytes: usize) -> Self {
        MemBudget {
            limit: bytes,
            used: AtomicUsize::new(0),
        }
    }

    /// Reserve `bytes` against the budget, or report the limit and the
    /// bytes that were still free.
    pub fn try_reserve(&self, bytes: usize) -> Result<(), BudgetExceeded> {
        if self.limit == usize::MAX {
            return Ok(());
        }
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.limit {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            Err(BudgetExceeded {
                limit: self.limit,
                available: self.limit.saturating_sub(prev),
            })
        } else {
            Ok(())
        }
    }

    /// Return a reservation to the budget.
    pub fn release(&self, bytes: usize) {
        if self.limit != usize::MAX {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The configured ceiling; `usize::MAX` means unlimited. Planners
    /// (the spilling join's fanout choice) size buffers against this.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// A scoped reservation against a [`MemBudget`]; released on drop, so
/// phase-scoped allocations (a join worker's table) give their bytes
/// back when the worker is done with them.
pub struct MemCharge<'a> {
    budget: &'a MemBudget,
    bytes: usize,
}

impl<'a> MemCharge<'a> {
    /// Wrap `bytes` already reserved against `budget`.
    pub(crate) fn new(budget: &'a MemBudget, bytes: usize) -> Self {
        MemCharge { budget, bytes }
    }

    /// Raise the reservation to `bytes` if it is below that — a buffer
    /// that is kept and only ever replaced by a larger one is charged at
    /// the largest it has been. `Err` leaves the reservation as it was
    /// and carries the bytes that were asked for on top of it.
    pub(crate) fn grow_to(&mut self, bytes: usize) -> Result<(), (usize, BudgetExceeded)> {
        let more = bytes.saturating_sub(self.bytes);
        self.budget.try_reserve(more).map_err(|be| (more, be))?;
        self.bytes += more;
        Ok(())
    }
}

impl Drop for MemCharge<'_> {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Deterministic fault injection, compiled in only with the
/// `failpoints` feature.
///
/// A failpoint is named `"<ALG>.<phase>"` (e.g. `"PRO.partition"`,
/// `"NOP.build"`, `"MWAY.sort"`) and carries a [`failpoints::FailAction`]:
/// `Panic` makes every worker of that phase panic, `Sleep(ms)` delays
/// each morsel (for exercising deadlines deterministically).
///
/// Arming is local to the submitting thread
/// ([`failpoints::arm_local`]), so concurrently running tests cannot
/// see each other's faults.
#[cfg(feature = "failpoints")]
pub mod failpoints {
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// What an armed failpoint does when a worker reaches it.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum FailAction {
        /// Panic on every worker of the phase.
        Panic,
        /// Sleep this many milliseconds per morsel/worker.
        Sleep(u64),
    }

    thread_local! {
        static LOCAL: RefCell<HashMap<String, FailAction>> =
            RefCell::new(HashMap::new());
    }

    /// Arm a failpoint for joins submitted from *this thread* only;
    /// disarmed when the returned guard drops.
    #[must_use = "the failpoint disarms when the guard drops"]
    pub fn arm_local(name: &str, action: FailAction) -> LocalGuard {
        LOCAL.with(|l| l.borrow_mut().insert(name.to_string(), action));
        LocalGuard {
            name: name.to_string(),
        }
    }

    /// Disarms its thread-local failpoint on drop.
    pub struct LocalGuard {
        name: String,
    }

    impl Drop for LocalGuard {
        fn drop(&mut self) {
            LOCAL.with(|l| l.borrow_mut().remove(&self.name));
        }
    }

    /// The action this thread armed for `name`.
    pub(crate) fn active(name: &str) -> Option<FailAction> {
        LOCAL.with(|l| l.borrow().get(name).copied())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn local_arming_is_scoped() {
            {
                let _g = arm_local("T.phase", FailAction::Panic);
                assert_eq!(active("T.phase"), Some(FailAction::Panic));
            }
            assert_eq!(active("T.phase"), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn budget_admits_and_rejects() {
        let b = MemBudget::limited(100);
        assert!(b.try_reserve(60).is_ok());
        assert_eq!(
            b.try_reserve(60),
            Err(BudgetExceeded {
                limit: 100,
                available: 40,
            })
        );
        assert_eq!(b.used(), 60);
        b.release(60);
        assert!(b.try_reserve(100).is_ok());
    }

    #[test]
    fn unlimited_budget_never_rejects() {
        let b = MemBudget::unlimited();
        assert!(b.try_reserve(usize::MAX / 2).is_ok());
        assert!(b.try_reserve(usize::MAX / 2).is_ok());
        assert_eq!(b.used(), 0, "unlimited budget does no accounting");
    }

    #[test]
    fn panic_message_forms() {
        let boxed: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(boxed.as_ref()), "boom");
        let boxed: Box<dyn Any + Send> = Box::new(String::from("heap boom"));
        assert_eq!(panic_message(boxed.as_ref()), "heap boom");
        let boxed: Box<dyn Any + Send> = Box::new(WorkerPanic(vec!["a".into(), "b".into()]));
        assert_eq!(panic_message(boxed.as_ref()), "a; b");
        let boxed: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}

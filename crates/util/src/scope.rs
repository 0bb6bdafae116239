//! The switches tests and A/B harnesses flip, held per thread: the
//! kernel mode ([`crate::kernels::with_mode`]), an alloc-policy override
//! ([`crate::mem::with_policy`]), the arena force-fail mask
//! ([`crate::mem::set_force_fail`]) and an armed spill I/O fault
//! ([`crate::spill::iofail::arm`]). Each acts on the calling thread
//! only, so two threads flipping them at once never see each other's.
//!
//! A worker pool carries its submitter's [`Scope`] into its workers for
//! a phase — `mmjoin-core`'s executor, and [`crate::pool::ScopedPool`]
//! into each thread it spawns — so a join runs under the switches of
//! the thread that submitted it. A thread spawned by hand starts from
//! the process defaults; [`Scope::current`] on the parent and
//! [`Scope::enter`] on the child carry them over.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::mem::AllocPolicy;
use crate::spill::iofail::Fault;

pub(crate) const KERNELS_PORTABLE: u8 = 1;
pub(crate) const KERNELS_SIMD: u8 = 2;

thread_local! {
    /// This thread's kernel mode; 0 until its first read resolves the
    /// process default. One load on the probe and scatter paths.
    pub(crate) static KERNELS: Cell<u8> = const { Cell::new(0) };
    pub(crate) static POLICY_OVERRIDE: Cell<Option<AllocPolicy>> = const { Cell::new(None) };
    /// The `mem::FAIL_*` bits this thread's arena requests fail with.
    pub(crate) static FAIL_MASK: Cell<u32> = const { Cell::new(0) };
    pub(crate) static IO_FAULT: RefCell<Option<Arc<Fault>>> = const { RefCell::new(None) };
}

/// The four switches of one thread, as a value to carry to another.
#[derive(Clone, Debug, Default)]
pub struct Scope {
    pub(crate) kernels: u8,
    pub(crate) policy: Option<AllocPolicy>,
    pub(crate) fail_mask: u32,
    pub(crate) io_fault: Option<Arc<Fault>>,
}

impl Scope {
    /// The calling thread's switches.
    pub fn current() -> Scope {
        Scope {
            kernels: KERNELS.with(Cell::get),
            policy: POLICY_OVERRIDE.with(Cell::get),
            fail_mask: FAIL_MASK.with(Cell::get),
            io_fault: IO_FAULT.with(|c| c.borrow().clone()),
        }
    }

    /// Make these the calling thread's switches until the returned
    /// guard drops, which puts back the ones they replaced.
    pub fn enter(self) -> Entered {
        Entered {
            prev: self.install(),
            _thread: PhantomData,
        }
    }

    fn install(self) -> Scope {
        Scope {
            kernels: KERNELS.with(|c| c.replace(self.kernels)),
            policy: POLICY_OVERRIDE.with(|c| c.replace(self.policy)),
            fail_mask: FAIL_MASK.with(|c| c.replace(self.fail_mask)),
            io_fault: IO_FAULT.with(|c| c.replace(self.io_fault)),
        }
    }
}

/// Restores a thread's previous switches on drop (see [`Scope::enter`]);
/// bound to the thread that entered the scope.
#[must_use = "the scope ends when the guard drops"]
pub struct Entered {
    prev: Scope,
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        std::mem::take(&mut self.prev).install();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{effective_mode, simd_active, with_mode, KernelMode};
    use crate::mem::{policy, with_policy};

    /// Two threads flip the kernel mode the opposite way 20,000 times
    /// each, at once: every read sees its own thread's mode, and each
    /// thread is back on the process default afterwards.
    #[test]
    fn opposite_mode_scopes_on_two_threads_never_cross() {
        const SCOPES: usize = 20_000;
        let default = effective_mode();
        let start = std::sync::Barrier::new(2);
        let crossed: usize = std::thread::scope(|s| {
            let threads: Vec<_> = [KernelMode::Portable, KernelMode::Simd]
                .into_iter()
                .map(|mode| {
                    let start = &start;
                    s.spawn(move || {
                        // `Simd` is `Portable` on a CPU without the kernels.
                        let want = with_mode(mode, effective_mode);
                        start.wait();
                        let crossed = (0..SCOPES)
                            .filter(|_| with_mode(mode, effective_mode) != want)
                            .count();
                        assert_eq!(effective_mode(), default, "{mode:?} leaked");
                        crossed
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(crossed, 0, "reads that saw the other thread's mode");
        assert_eq!(effective_mode(), default);
        assert_eq!(simd_active(), default == KernelMode::Simd);
    }

    #[test]
    fn a_scope_carries_every_switch_and_its_guard_restores_them() {
        let before = Scope::current();
        let carried = with_mode(KernelMode::Portable, || {
            with_policy(AllocPolicy::Thp, || {
                let _armed = crate::spill::iofail::arm("no-such-path", 0);
                Scope::current()
            })
        });
        assert!(carried.io_fault.is_some());
        let seen = std::thread::spawn(move || {
            let _in = carried.enter();
            (
                effective_mode(),
                policy(),
                Scope::current().io_fault.is_some(),
            )
        })
        .join()
        .unwrap();
        assert_eq!(seen, (KernelMode::Portable, AllocPolicy::Thp, true));
        let after = Scope::current();
        assert_eq!(after.policy, before.policy);
        assert!(after.io_fault.is_none());
    }
}

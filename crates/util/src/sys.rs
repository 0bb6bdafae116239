//! The workspace's one raw-syscall shim (Linux x86-64 / aarch64): the
//! `syscall` / `svc 0` instruction behind [`syscall6`] and the syscall
//! numbers its callers use — the perf counters ([`crate::perf`]) and
//! the mmap arenas ([`crate::mem`]).
//! The workspace links no libc crate; everything that needs the kernel
//! directly goes through here.

/// Syscall numbers, per architecture.
#[cfg(target_arch = "x86_64")]
pub mod nr {
    pub const READ: usize = 0;
    pub const CLOSE: usize = 3;
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const MADVISE: usize = 28;
    pub const PERF_EVENT_OPEN: usize = 298;
}

/// Syscall numbers, per architecture.
#[cfg(target_arch = "aarch64")]
pub mod nr {
    pub const CLOSE: usize = 57;
    pub const READ: usize = 63;
    pub const MUNMAP: usize = 215;
    pub const MMAP: usize = 222;
    pub const MADVISE: usize = 233;
    pub const PERF_EVENT_OPEN: usize = 241;
}

/// Issue syscall `n` with six arguments (pass 0 for the unused ones);
/// a negative return is `-errno`.
///
/// # Safety
///
/// The caller must uphold the contract of syscall `n` for these
/// arguments: every pointer argument is valid for the access the kernel
/// performs through it for the duration of the call, and the call's
/// effect (mapping or unmapping memory, closing a descriptor) does not
/// invalidate anything safe code still holds.
#[cfg(target_arch = "x86_64")]
pub unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the x86-64 Linux syscall ABI — number in rax, arguments
    // in rdi/rsi/rdx/r10/r8/r9, result in rax; the instruction clobbers
    // only rcx and r11 (declared) and does not touch the stack. What
    // the kernel does with the arguments is the caller's contract.
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// Issue syscall `n` with six arguments (pass 0 for the unused ones);
/// a negative return is `-errno`.
///
/// # Safety
///
/// The caller must uphold the contract of syscall `n` for these
/// arguments: every pointer argument is valid for the access the kernel
/// performs through it for the duration of the call, and the call's
/// effect (mapping or unmapping memory, closing a descriptor) does not
/// invalidate anything safe code still holds.
#[cfg(target_arch = "aarch64")]
pub unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the aarch64 Linux syscall ABI — number in x8, arguments
    // in x0..x5, result in x0; `svc 0` preserves every other register
    // and does not touch the stack. What the kernel does with the
    // arguments is the caller's contract.
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a1 as isize => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        in("x5") a6,
        options(nostack),
    );
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_of_a_bad_descriptor_returns_minus_ebadf() {
        // SAFETY: close(-1) touches no memory and no live descriptor.
        let ret = unsafe { syscall6(nr::CLOSE, usize::MAX, 0, 0, 0, 0, 0) };
        assert_eq!(ret, -9, "EBADF");
    }
}

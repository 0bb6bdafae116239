//! Native hardware performance counters via Linux `perf_event_open`.
//!
//! The paper's Table 4 and Figure 8 are built on PMU counters — cycles,
//! instructions, LLC misses, dTLB misses — measured per phase. This
//! module gives the executor the same numbers for the *host* run, so the
//! memsim predictions can be cross-checked against reality.
//!
//! Design constraints:
//!
//! * **No dependencies.** The workspace has no `libc`, so the three
//!   syscalls involved (`perf_event_open`, `read`, `close`) are issued
//!   with inline assembly, gated to Linux on x86-64/aarch64.
//! * **Graceful fallback, never an error.** On non-Linux hosts, under a
//!   restrictive `perf_event_paranoid`, inside containers without PMU
//!   access, or with `MMJOIN_PERF=off`, every counter simply reads as
//!   `None`. Profiling still records timing spans; only the hardware
//!   columns go missing.
//! * **Per-thread counter groups.** A [`CounterGroup`] is opened with
//!   `pid = 0, cpu = -1` — it counts the *opening thread* wherever it is
//!   scheduled — and is `!Send` so it cannot leave that thread. The
//!   hardware events share one perf group (one `read` syscall returns a
//!   consistent snapshot of all of them); the task clock is a standalone
//!   software event. Multiplexed counters are scaled by
//!   `time_enabled / time_running`, the standard perf estimate.
//!
//! The zero-cost disabled path is upstream of this module: when
//! profiling is off the executor never calls into it at all.

use std::sync::OnceLock;

/// Difference between two [`CounterSnapshot`]s: what one thread spent on
/// one span. A counter that could not be opened or read is `None`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterDelta {
    /// CPU cycles (`PERF_COUNT_HW_CPU_CYCLES`).
    pub cycles: Option<u64>,
    /// Retired instructions (`PERF_COUNT_HW_INSTRUCTIONS`).
    pub instructions: Option<u64>,
    /// Last-level cache misses (`PERF_COUNT_HW_CACHE_MISSES`).
    pub llc_misses: Option<u64>,
    /// dTLB read misses (`PERF_COUNT_HW_CACHE` dTLB/read/miss).
    pub dtlb_misses: Option<u64>,
    /// Task clock in nanoseconds (`PERF_COUNT_SW_TASK_CLOCK`).
    pub task_clock_ns: Option<u64>,
}

impl CounterDelta {
    /// All counters absent — the fallback value.
    pub const fn none() -> CounterDelta {
        CounterDelta {
            cycles: None,
            instructions: None,
            llc_misses: None,
            dtlb_misses: None,
            task_clock_ns: None,
        }
    }

    /// True when at least one counter produced a value.
    pub fn any(&self) -> bool {
        self.cycles.is_some()
            || self.instructions.is_some()
            || self.llc_misses.is_some()
            || self.dtlb_misses.is_some()
            || self.task_clock_ns.is_some()
    }

    /// Accumulate `other` counter-wise. A value present on either side
    /// survives (`None` merges as zero), so aggregating workers where
    /// only some could open counters still reports partial totals.
    pub fn merge(&mut self, other: &CounterDelta) {
        fn add(a: &mut Option<u64>, b: Option<u64>) {
            if let Some(v) = b {
                *a = Some(a.unwrap_or(0).saturating_add(v));
            }
        }
        add(&mut self.cycles, other.cycles);
        add(&mut self.instructions, other.instructions);
        add(&mut self.llc_misses, other.llc_misses);
        add(&mut self.dtlb_misses, other.dtlb_misses);
        add(&mut self.task_clock_ns, other.task_clock_ns);
    }
}

/// Absolute counter values for the owning thread at one instant.
/// Meaningful only as the input to [`CounterGroup::delta_since`].
#[derive(Copy, Clone, Debug, Default)]
pub struct CounterSnapshot {
    /// cycles, instructions, llc, dtlb, task-clock — in that order.
    vals: [Option<u64>; 5],
}

impl CounterSnapshot {
    fn delta(&self, earlier: &CounterSnapshot) -> CounterDelta {
        fn sub(now: Option<u64>, then: Option<u64>) -> Option<u64> {
            match (now, then) {
                (Some(n), Some(t)) => Some(n.saturating_sub(t)),
                _ => None,
            }
        }
        CounterDelta {
            cycles: sub(self.vals[0], earlier.vals[0]),
            instructions: sub(self.vals[1], earlier.vals[1]),
            llc_misses: sub(self.vals[2], earlier.vals[2]),
            dtlb_misses: sub(self.vals[3], earlier.vals[3]),
            task_clock_ns: sub(self.vals[4], earlier.vals[4]),
        }
    }
}

/// A per-thread group of PMU counters, counting from the moment it is
/// opened. `!Send`: the underlying perf fds count the opening thread.
pub struct CounterGroup {
    inner: imp::Group,
    /// The perf fds are bound to the opening thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl CounterGroup {
    /// Open the counters for the calling thread. Returns `None` when no
    /// counter at all could be opened (non-Linux, `perf_event_paranoid`,
    /// missing PMU, `MMJOIN_PERF=off`) — callers fall back to
    /// [`CounterDelta::none`] values, never an error.
    pub fn open() -> Option<CounterGroup> {
        if env_disabled() {
            return None;
        }
        imp::Group::open().map(|inner| CounterGroup {
            inner,
            _not_send: std::marker::PhantomData,
        })
    }

    /// Current absolute values (multiplex-scaled).
    pub fn snapshot(&self) -> CounterSnapshot {
        self.inner.read()
    }

    /// Read now and subtract `earlier`.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterDelta {
        self.snapshot().delta(earlier)
    }
}

fn disabled_value(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "off" | "0" | "false" | "no" | "disabled"
    )
}

/// `MMJOIN_PERF=off` force-disables native counters (the CI fallback
/// path); cached for the process lifetime.
fn env_disabled() -> bool {
    static OFF: OnceLock<bool> = OnceLock::new();
    *OFF.get_or_init(|| {
        std::env::var("MMJOIN_PERF")
            .map(|v| disabled_value(&v))
            .unwrap_or(false)
    })
}

/// Cached capability probe: can this process read at least one native
/// counter? Opens (and drops) a probe group once; used for bench
/// metadata and operator-facing "counters unavailable" notes.
pub fn available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| match CounterGroup::open() {
        Some(g) => g.snapshot().vals.iter().any(|v| v.is_some()),
        None => false,
    })
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::CounterSnapshot;
    use crate::sys::{nr, syscall6};

    const PERF_TYPE_HARDWARE: u32 = 0;
    const PERF_TYPE_SOFTWARE: u32 = 1;
    const PERF_TYPE_HW_CACHE: u32 = 3;
    const HW_CPU_CYCLES: u64 = 0;
    const HW_INSTRUCTIONS: u64 = 1;
    /// Documented by the kernel as last-level cache misses.
    const HW_CACHE_MISSES: u64 = 3;
    const SW_TASK_CLOCK: u64 = 1;
    /// `dTLB | (op_read << 8) | (result_miss << 16)`.
    const HW_CACHE_DTLB_READ_MISS: u64 = 3 | (1 << 16);

    const FORMAT_TOTAL_TIME_ENABLED: u64 = 1 << 0;
    const FORMAT_TOTAL_TIME_RUNNING: u64 = 1 << 1;
    const FORMAT_GROUP: u64 = 1 << 3;

    /// `exclude_kernel | exclude_hv` — user-space counts only, which is
    /// also what lower `perf_event_paranoid` levels permit.
    const ATTR_FLAGS: u64 = (1 << 5) | (1 << 6);

    const PERF_FLAG_FD_CLOEXEC: usize = 8;

    /// First 64 bytes of `struct perf_event_attr`
    /// (`PERF_ATTR_SIZE_VER0`) — all this module needs.
    #[repr(C)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup: u32,
        bp_type: u32,
        config1: u64,
    }

    fn attr(type_: u32, config: u64, read_format: u64) -> PerfEventAttr {
        PerfEventAttr {
            type_,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config,
            sample: 0,
            sample_type: 0,
            read_format,
            flags: ATTR_FLAGS,
            wakeup: 0,
            bp_type: 0,
            config1: 0,
        }
    }

    /// `perf_event_open(&attr, pid=0 /* this thread */, cpu=-1, group_fd,
    /// FD_CLOEXEC)`; negative return is `-errno`.
    fn sys_perf_event_open(a: &PerfEventAttr, group_fd: i32) -> i32 {
        // SAFETY: `a` is a live, fully initialised attr whose `size`
        // field tells the kernel how many bytes to read.
        let ret = unsafe {
            syscall6(
                nr::PERF_EVENT_OPEN,
                a as *const PerfEventAttr as usize,
                0,
                -1isize as usize,
                group_fd as isize as usize,
                PERF_FLAG_FD_CLOEXEC,
                0,
            )
        };
        ret as i32
    }

    fn sys_read(fd: i32, buf: &mut [u64]) -> isize {
        // SAFETY: the kernel writes at most `size_of_val(buf)` bytes
        // into `buf`, which is exclusively borrowed for the call.
        unsafe {
            syscall6(
                nr::READ,
                fd as usize,
                buf.as_mut_ptr() as usize,
                std::mem::size_of_val(buf),
                0,
                0,
                0,
            )
        }
    }

    fn sys_close(fd: i32) {
        // SAFETY: `fd` is a perf descriptor this module opened and owns.
        unsafe {
            syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0);
        }
    }

    /// Multiplex scaling: the kernel rotates over-committed PMU events;
    /// `value * enabled / running` is the standard extrapolation.
    fn scale(value: u64, enabled: u64, running: u64) -> u64 {
        if running == 0 || running >= enabled {
            value
        } else {
            ((value as u128) * (enabled as u128) / (running as u128)) as u64
        }
    }

    pub(super) struct Group {
        /// Group leader fd, or -1 when no hardware event opened.
        leader: i32,
        /// `(snapshot slot, fd)` of each opened hardware event, in the
        /// order they joined the group — the order group reads return
        /// their values in.
        members: Vec<(usize, i32)>,
        /// Standalone software task clock, or -1.
        task_clock: i32,
    }

    impl Group {
        pub(super) fn open() -> Option<Group> {
            // (event type, config, snapshot slot); first to open leads
            // the group, later failures just leave that slot `None`.
            const HW: [(u32, u64, usize); 4] = [
                (PERF_TYPE_HARDWARE, HW_CPU_CYCLES, 0),
                (PERF_TYPE_HARDWARE, HW_INSTRUCTIONS, 1),
                (PERF_TYPE_HARDWARE, HW_CACHE_MISSES, 2),
                (PERF_TYPE_HW_CACHE, HW_CACHE_DTLB_READ_MISS, 3),
            ];
            let group_format = FORMAT_GROUP | FORMAT_TOTAL_TIME_ENABLED | FORMAT_TOTAL_TIME_RUNNING;
            let mut leader = -1;
            let mut members = Vec::new();
            for (type_, config, slot) in HW {
                let fd = sys_perf_event_open(&attr(type_, config, group_format), leader);
                if fd >= 0 {
                    if leader < 0 {
                        leader = fd;
                    }
                    members.push((slot, fd));
                }
            }
            let task_clock = sys_perf_event_open(
                &attr(
                    PERF_TYPE_SOFTWARE,
                    SW_TASK_CLOCK,
                    FORMAT_TOTAL_TIME_ENABLED | FORMAT_TOTAL_TIME_RUNNING,
                ),
                -1,
            );
            if leader < 0 && task_clock < 0 {
                return None;
            }
            Some(Group {
                leader,
                members,
                task_clock,
            })
        }

        pub(super) fn read(&self) -> CounterSnapshot {
            let mut vals = [None; 5];
            if self.leader >= 0 {
                // Layout: nr, time_enabled, time_running, value[nr].
                let mut buf = [0u64; 3 + 4];
                let want = 3 + self.members.len();
                if sys_read(self.leader, &mut buf[..want]) == (want * 8) as isize {
                    let nr = (buf[0] as usize).min(self.members.len());
                    let (enabled, running) = (buf[1], buf[2]);
                    for (i, &(slot, _)) in self.members.iter().enumerate().take(nr) {
                        vals[slot] = Some(scale(buf[3 + i], enabled, running));
                    }
                }
            }
            if self.task_clock >= 0 {
                let mut buf = [0u64; 3];
                if sys_read(self.task_clock, &mut buf) == 24 {
                    vals[4] = Some(scale(buf[0], buf[1], buf[2]));
                }
            }
            CounterSnapshot { vals }
        }
    }

    impl Drop for Group {
        fn drop(&mut self) {
            for &(_, fd) in &self.members {
                sys_close(fd);
            }
            if self.task_clock >= 0 {
                sys_close(self.task_clock);
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::CounterSnapshot;

    /// Stub on platforms without a raw-syscall backend: opening always
    /// fails, so every counter reports `None`.
    pub(super) struct Group;

    impl Group {
        pub(super) fn open() -> Option<Group> {
            None
        }

        pub(super) fn read(&self) -> CounterSnapshot {
            CounterSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_delta_has_no_values() {
        let d = CounterDelta::none();
        assert!(!d.any());
        assert_eq!(d, CounterDelta::default());
    }

    #[test]
    fn merge_treats_none_as_zero() {
        let mut a = CounterDelta {
            cycles: Some(10),
            instructions: None,
            llc_misses: Some(1),
            dtlb_misses: None,
            task_clock_ns: None,
        };
        a.merge(&CounterDelta {
            cycles: Some(5),
            instructions: Some(7),
            llc_misses: None,
            dtlb_misses: None,
            task_clock_ns: Some(100),
        });
        assert_eq!(a.cycles, Some(15));
        assert_eq!(a.instructions, Some(7));
        assert_eq!(a.llc_misses, Some(1));
        assert_eq!(a.dtlb_misses, None);
        assert_eq!(a.task_clock_ns, Some(100));
        assert!(a.any());
    }

    #[test]
    fn snapshot_delta_mismatched_availability_is_none() {
        let now = CounterSnapshot {
            vals: [Some(100), None, Some(50), None, Some(9)],
        };
        let then = CounterSnapshot {
            vals: [Some(40), Some(1), None, None, Some(4)],
        };
        let d = now.delta(&then);
        assert_eq!(d.cycles, Some(60));
        assert_eq!(d.instructions, None);
        assert_eq!(d.llc_misses, None);
        assert_eq!(d.dtlb_misses, None);
        assert_eq!(d.task_clock_ns, Some(5));
    }

    #[test]
    fn env_off_values() {
        for v in ["off", "0", "false", "no", "disabled", " OFF "] {
            assert!(disabled_value(v), "{v:?}");
        }
        for v in ["on", "1", "", "yes"] {
            assert!(!disabled_value(v), "{v:?}");
        }
    }

    /// Opening must either succeed or cleanly return `None`; when it
    /// succeeds a busy loop must show forward progress on whichever
    /// counters are live. Never panics, regardless of host capability.
    #[test]
    fn open_and_read_smoke() {
        let Some(g) = CounterGroup::open() else {
            assert!(!available() || std::env::var("MMJOIN_PERF").is_ok());
            return;
        };
        let before = g.snapshot();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let d = g.delta_since(&before);
        assert!(d.any(), "an open group must read at least one counter");
        if let Some(c) = d.cycles {
            assert!(c > 0, "cycles should advance over a busy loop");
        }
    }

    /// `available()` is consistent with what `open()` reports.
    #[test]
    fn availability_probe_is_cached_and_consistent() {
        let a = available();
        let b = available();
        assert_eq!(a, b);
        if a {
            assert!(CounterGroup::open().is_some());
        }
    }
}

//! Join results: verification data + per-phase measured and simulated
//! times.

use std::time::Duration;

use mmjoin_numamodel::PhaseSim;
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::mem::AllocSnapshot;
use mmjoin_util::perf::CounterDelta;
use mmjoin_util::pool::{ExecCounters, WorkerPhaseStat};

use crate::Algorithm;

/// Disk-spill activity of one phase (the spilling hybrid hash join;
/// all-zero for the in-memory drivers). Aggregated into the metrics and
/// chrome-trace exporters (see `observe`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpillCounters {
    /// Bytes written to spill runs during this phase.
    pub bytes_spilled: u64,
    /// Partitions evicted to (or re-spilled onto) disk in this phase.
    pub partitions_spilled: u64,
    /// Deepest recursive-repartitioning level reached (0 = none).
    pub recursion_depth: u32,
}

impl SpillCounters {
    pub fn merge(&mut self, other: SpillCounters) {
        self.bytes_spilled += other.bytes_spilled;
        self.partitions_spilled += other.partitions_spilled;
        self.recursion_depth = self.recursion_depth.max(other.recursion_depth);
    }
}

/// Memory-subsystem activity of one phase: what the threads working for
/// this join — the pool's workers while they ran its tasks, the
/// submitting thread between phase boundaries — added to the
/// `mmjoin_util::mem` counters (`mem::thread_stats` deltas, so joins
/// running concurrently never see each other's traffic). All-zero under
/// the portable policy (no mapped arenas).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// mmap-backed arena blocks created during this phase.
    pub mapped_blocks: u64,
    /// Bytes freshly mapped from the kernel.
    pub mapped_bytes: u64,
    /// Arena requests served by the pool (no syscall, pages pre-faulted).
    pub pool_hits: u64,
    /// Bytes served from the pool.
    pub pool_hit_bytes: u64,
    /// Page downgrades (`madvise(MADV_HUGEPAGE)` refused → small pages).
    pub degraded_page: u64,
    /// Mapped requests that fell all the way back to the heap.
    pub heap_fallback: u64,
}

impl AllocCounters {
    pub(crate) fn from_delta(d: AllocSnapshot) -> AllocCounters {
        AllocCounters {
            mapped_blocks: d.mapped_blocks,
            mapped_bytes: d.mapped_bytes,
            pool_hits: d.pool_hits,
            pool_hit_bytes: d.pool_hit_bytes,
            degraded_page: d.degraded_page,
            heap_fallback: d.heap_fallback,
        }
    }

    pub fn merge(&mut self, other: AllocCounters) {
        self.mapped_blocks += other.mapped_blocks;
        self.mapped_bytes += other.mapped_bytes;
        self.pool_hits += other.pool_hits;
        self.pool_hit_bytes += other.pool_hit_bytes;
        self.degraded_page += other.degraded_page;
        self.heap_fallback += other.heap_fallback;
    }

    /// Whether any backend degraded during this phase (fallback ladder
    /// took a downgrade step; see DESIGN.md §14).
    pub fn degraded(&self) -> bool {
        self.degraded_page > 0 || self.heap_fallback > 0
    }
}

/// One barrier-delimited phase of a join.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    pub name: &'static str,
    /// Wall-clock time on this host.
    pub wall: Duration,
    /// Host time the cost model took to describe and simulate the phase,
    /// after `wall` and outside it (zero if simulation off): the part of
    /// a join's time that no phase's `wall` shows.
    pub model_wall: Duration,
    /// Simulated time on the configured topology (0 if simulation off).
    pub sim_seconds: f64,
    /// Executor scheduling counters for this phase (tasks run, steals,
    /// worker idle time at the barrier).
    pub exec: ExecCounters,
    /// Disk-spill activity (zero for in-memory drivers).
    pub spill: SpillCounters,
    /// Memory-subsystem activity (zero under the portable policy).
    pub alloc: AllocCounters,
    /// Per-worker spans (one per worker per barrier broadcast) with
    /// native PMU deltas, recorded only when `JoinConfig::profile` is
    /// enabled; empty otherwise.
    pub workers: Vec<WorkerPhaseStat>,
}

impl PhaseStat {
    /// Native counter totals over this phase's worker spans. All `None`
    /// when profiling was off or the host exposes no counters.
    pub fn counter_totals(&self) -> CounterDelta {
        let mut total = CounterDelta::none();
        for w in &self.workers {
            total.merge(&w.counters);
        }
        total
    }
}

/// Result of one join execution: a monolithic driver's
/// ([`crate::Join::run`]) or a fused operator pipeline's
/// ([`crate::Pipeline::run`]).
#[derive(Clone, Debug)]
pub struct JoinResult {
    /// The driver that ran (a pipeline's first stage).
    pub algorithm: Algorithm,
    /// Number of output matches.
    pub matches: u64,
    /// Order-independent digest over all matches.
    pub checksum: u64,
    pub phases: Vec<PhaseStat>,
    /// Radix bits actually used (partitioned joins; a pipeline's first
    /// stage).
    pub radix_bits: Option<u32>,
    /// Per-phase simulator outputs, kept only when
    /// `JoinConfig::keep_timelines` is set (Figure 6).
    pub timelines: Vec<(&'static str, PhaseSim)>,
    /// Matches that crossed a stage boundary of a fused pipeline
    /// *without* being materialized — what a two-step plan would have
    /// written out and re-read as an intermediate relation. Zero for a
    /// monolithic driver and a one-stage pipeline.
    pub intermediate_matches: u64,
}

impl JoinResult {
    pub fn new(algorithm: Algorithm) -> Self {
        JoinResult {
            algorithm,
            matches: 0,
            checksum: 0,
            phases: Vec::new(),
            radix_bits: None,
            timelines: Vec::new(),
            intermediate_matches: 0,
        }
    }

    /// Bytes of intermediate relation a fused pipeline never wrote:
    /// `intermediate_matches` × one materialized
    /// [`JoinMatch`](crate::materialize::JoinMatch).
    pub fn bytes_avoided(&self) -> u64 {
        self.intermediate_matches * std::mem::size_of::<crate::materialize::JoinMatch>() as u64
    }

    pub fn set_checksum(&mut self, c: JoinChecksum) {
        self.matches = c.count;
        self.checksum = c.digest;
    }

    /// Append a hand-built phase (tests, synthetic results). Real runs
    /// record their phases through [`crate::run::JoinRun::phase`].
    pub fn push_phase(&mut self, name: &'static str, wall: Duration, sim_seconds: f64) {
        self.phases.push(PhaseStat {
            name,
            wall,
            model_wall: Duration::ZERO,
            sim_seconds,
            exec: ExecCounters::new(),
            spill: SpillCounters::default(),
            alloc: AllocCounters::default(),
            workers: Vec::new(),
        });
    }

    /// Native counter totals over all phases (see
    /// [`PhaseStat::counter_totals`]).
    pub fn counter_totals(&self) -> CounterDelta {
        let mut total = CounterDelta::none();
        for p in &self.phases {
            total.merge(&p.counter_totals());
        }
        total
    }

    /// Spill totals over all phases (all-zero for in-memory drivers).
    pub fn spill_totals(&self) -> SpillCounters {
        let mut total = SpillCounters::default();
        for p in &self.phases {
            total.merge(p.spill);
        }
        total
    }

    /// Memory-subsystem totals over all phases (all-zero under the
    /// portable policy).
    pub fn alloc_totals(&self) -> AllocCounters {
        let mut total = AllocCounters::default();
        for p in &self.phases {
            total.merge(p.alloc);
        }
        total
    }

    /// Sum of executor counters over all phases.
    pub fn total_exec(&self) -> ExecCounters {
        let mut total = ExecCounters::new();
        for p in &self.phases {
            total.merge(p.exec);
        }
        total
    }

    /// Total measured wall time.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Total host time spent in the cost model, outside the phases'
    /// `wall` (see [`PhaseStat::model_wall`]).
    pub fn total_model_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.model_wall).sum()
    }

    /// Total simulated time on the modeled machine.
    pub fn total_sim(&self) -> f64 {
        self.phases.iter().map(|p| p.sim_seconds).sum()
    }

    /// Sum of phases whose name contains `needle` (e.g. "partition").
    pub fn sim_of(&self, needle: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name.contains(needle))
            .map(|p| p.sim_seconds)
            .sum()
    }

    pub fn wall_of(&self, needle: &str) -> Duration {
        self.phases
            .iter()
            .filter(|p| p.name.contains(needle))
            .map(|p| p.wall)
            .sum()
    }

    /// Paper throughput metric `(|R|+|S|) / time` in Mtuples/s over the
    /// *simulated* time.
    pub fn sim_throughput_mtps(&self, r_len: usize, s_len: usize) -> f64 {
        let t = self.total_sim();
        if t <= 0.0 {
            return f64::INFINITY;
        }
        (r_len + s_len) as f64 / t / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_filters() {
        let mut r = JoinResult::new(Algorithm::Pro);
        r.push_phase("partition", Duration::from_millis(10), 0.5);
        r.push_phase("join", Duration::from_millis(20), 1.0);
        assert_eq!(r.total_wall(), Duration::from_millis(30));
        assert!((r.total_sim() - 1.5).abs() < 1e-12);
        assert!((r.sim_of("join") - 1.0).abs() < 1e-12);
        assert_eq!(r.wall_of("partition"), Duration::from_millis(10));
    }

    #[test]
    fn checksum_transfer() {
        let mut c = JoinChecksum::new();
        c.add(1, 2, 3);
        let mut r = JoinResult::new(Algorithm::Nop);
        r.set_checksum(c);
        assert_eq!(r.matches, 1);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn throughput_uses_sim_time() {
        let mut r = JoinResult::new(Algorithm::Cprl);
        r.push_phase("join", Duration::ZERO, 2.0);
        let mt = r.sim_throughput_mtps(1_000_000, 1_000_000);
        assert!((mt - 1.0).abs() < 1e-9);
    }
}

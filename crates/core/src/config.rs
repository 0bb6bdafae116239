//! Join execution configuration: [`JoinConfig`] is the one surface a
//! join is configured through — set its public fields — and
//! [`JoinConfig::validate`] the one check of them, made first thing by
//! every public way into a driver.

use std::sync::Arc;
use std::time::Duration;

use mmjoin_numamodel::Topology;
use mmjoin_partition::{predict_radix_bits, BitsInput};

use crate::executor::Executor;
use crate::fault::CancelToken;
use crate::plan::{JoinError, MAX_RADIX_BITS, MAX_THREADS};

/// Per-partition hash-table choice — the "Choice of Hash Method"
/// dimension of Section 5.2.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// Bucket-chained (Balkesen et al.) — PRB/PRO/PROiS.
    Chained,
    /// Linear probing — PRL/CPRL and friends.
    Linear,
    /// Plain payload array over the (dense) key domain — PRA/CPRA.
    Array,
}

/// Configuration shared by all join algorithms.
#[derive(Clone, Debug)]
pub struct JoinConfig {
    /// Worker threads actually spawned on this host.
    pub threads: usize,
    /// Thread count presented to the NUMA cost model (defaults to
    /// `threads`). Lets a 4-thread host run emulate the paper's
    /// 32-thread configuration.
    pub sim_threads: Option<usize>,
    /// The simulated machine (defaults to the paper's 4-socket box).
    pub topology: Topology,
    /// Compute simulated phase times and bandwidth timelines.
    pub simulate: bool,
    /// Override the number of radix bits (otherwise Equation (1)).
    pub radix_bits: Option<u32>,
    /// Upper bound of the build key domain (`max key`). The canonical
    /// dense workload has `domain == |R|`; the Appendix C sparse
    /// workloads have `domain == k·|R|`. Array joins size their arrays
    /// from this. `0` means "derive from |R|" (dense assumption).
    pub key_domain: usize,
    /// Keep per-phase bandwidth timelines in the result (Figure 6);
    /// costs memory for very high fanouts, so off by default.
    pub keep_timelines: bool,
    /// Zipf skew of the probe keys, used by the cost model to account
    /// for cache-effective hot keys (Appendix A). 0 = uniform.
    pub probe_theta: f64,
    /// Cooperative processing of oversized co-partitions (see
    /// `mmjoin_core::skew`). Off by default: the paper's algorithms rely
    /// on task-queue balancing only.
    pub skew_handling: bool,
    /// Wall-clock bound on the whole join; checked at morsel granularity
    /// and at every phase boundary. Exceeding it makes the join return
    /// `JoinError::Timedout` with the `PhaseStat`s completed so far.
    pub deadline: Option<Duration>,
    /// Byte budget for the join's large allocations (partition buffers,
    /// hash tables, SWWCB pools, materialization vectors). Exceeding it
    /// yields `JoinError::MemoryBudgetExceeded` instead of an abort.
    pub mem_limit: Option<usize>,
    /// Cooperative cancellation handle; cancel any clone of the token to
    /// make in-flight joins on this config return `JoinError::Cancelled`.
    pub cancel: CancelToken,
    /// Observability (see `mmjoin_core::observe` and DESIGN.md §10).
    /// Off by default, the executor's zero-cost path; when on, every
    /// phase of a join records a [`mmjoin_util::pool::WorkerPhaseStat`]
    /// span per worker per barrier broadcast — start/stop timestamps,
    /// morsels run, steals, and native PMU counter deltas where the host
    /// exposes them (all `None` otherwise, never an error).
    pub profile: bool,
    /// Tuples per batch flowing between pipeline operators (see
    /// `mmjoin_core::pipeline` and DESIGN.md §12). 1024 tuples × 8 B
    /// keeps a batch and its per-stage output inside L1 alongside the
    /// probe pipeline's prefetch groups. A partitioned side takes more
    /// at a time: a routing batch sized from its fan-out.
    pub pipeline_batch: usize,
    /// Parent directory for the spilling join's temp directory
    /// (`Algorithm::Shhj`; see DESIGN.md §13). `None` uses the system
    /// temp dir. Each join creates (and removes on completion) its own
    /// uniquely named subdirectory.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Whether the spilling join may evict partitions to disk when the
    /// memory budget refuses a reservation (default true). With
    /// `false`, SHHJ degrades to classic behavior: budget pressure
    /// fails the join with `JoinError::MemoryBudgetExceeded`.
    pub spill: bool,
}

impl JoinConfig {
    /// Default configuration with `threads` workers.
    pub fn new(threads: usize) -> Self {
        JoinConfig {
            threads: threads.max(1),
            sim_threads: None,
            topology: Topology::paper_machine(),
            simulate: true,
            radix_bits: None,
            key_domain: 0,
            keep_timelines: false,
            probe_theta: 0.0,
            skew_handling: false,
            deadline: None,
            mem_limit: None,
            cancel: CancelToken::new(),
            profile: false,
            pipeline_batch: 1024,
            spill_dir: None,
            spill: true,
        }
    }

    /// Check every range-bound field, as every public way into a driver
    /// ([`crate::Join::run`], [`crate::BuildSide::prepare`],
    /// [`crate::Pipeline::run`], [`crate::materialize::join_index`],
    /// [`crate::materialize::chain_two_step`],
    /// [`crate::pro::join_pro_two_pass`]) does before it spawns a worker,
    /// sizes a histogram or records a phase.
    pub fn validate(&self) -> Result<(), JoinError> {
        let invalid = |field, value, reason| {
            Err(JoinError::InvalidConfig {
                field,
                value,
                reason,
            })
        };
        if self.threads == 0 {
            return invalid("threads", 0, "must be >= 1");
        }
        if self.threads > MAX_THREADS {
            let reason = "exceeds MAX_THREADS (1024): oversubscribed host";
            return invalid("threads", self.threads, reason);
        }
        if self.sim_threads == Some(0) {
            return invalid("sim_threads", 0, "must be >= 1 when set");
        }
        if let Some(bits) = self.radix_bits {
            if bits == 0 || bits > MAX_RADIX_BITS {
                let reason = "must be in 1..=MAX_RADIX_BITS (24)";
                return invalid("radix_bits", bits as usize, reason);
            }
        }
        if self.pipeline_batch == 0 {
            return invalid("pipeline_batch", 0, "must be >= 1");
        }
        Ok(())
    }

    /// The persistent executor this configuration's joins run on: the
    /// calling thread's pool for `threads` workers ([`Executor::shared`]),
    /// created on the thread's first join and reused by its later ones,
    /// whatever config they come with. A config cloned to another thread
    /// finds that thread's pool there.
    pub fn executor(&self) -> Arc<Executor> {
        Executor::shared(self.threads)
    }

    /// Threads used by the cost model.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads.unwrap_or(self.threads).max(1)
    }

    /// The key domain for array joins given the build cardinality.
    pub fn domain(&self, r_len: usize) -> usize {
        if self.key_domain == 0 {
            r_len
        } else {
            self.key_domain
        }
    }

    /// Radix bits for a hash-table-backed partitioned join (Equation 1).
    pub fn bits_for_hash_tables(&self, r_len: usize) -> u32 {
        if let Some(b) = self.radix_bits {
            return b;
        }
        let mut input =
            BitsInput::paper_defaults(r_len, self.topology.llc_per_thread(self.sim_threads()));
        input.l2_bytes = self.topology.l2_bytes();
        // SWWCB state bytes are physical constants; in a capacity-scaled
        // run they must scale with the caches or Equation (1)'s budget
        // condition flips to the LLC branch far too early.
        input.buffer_bytes = (input.buffer_bytes / self.topology.capacity_scale).max(1);
        predict_radix_bits(&input)
    }

    /// Radix bits for an array-table partitioned join: the partition's
    /// payload array (4 B per domain slot) plays the role of the table.
    pub fn bits_for_array_tables(&self, r_len: usize) -> u32 {
        if let Some(b) = self.radix_bits {
            return b;
        }
        let mut input =
            BitsInput::paper_defaults(r_len, self.topology.llc_per_thread(self.sim_threads()));
        input.l2_bytes = self.topology.l2_bytes();
        input.buffer_bytes = (input.buffer_bytes / self.topology.capacity_scale).max(1);
        mmjoin_partition::bits::predict_radix_bits_for_domain(self.domain(r_len), &input)
    }
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_defaults_to_build_size() {
        let cfg = JoinConfig::new(4);
        assert_eq!(cfg.domain(1000), 1000);
        let mut sparse = JoinConfig::new(4);
        sparse.key_domain = 5000;
        assert_eq!(sparse.domain(1000), 5000);
    }

    #[test]
    fn bits_override_wins() {
        let mut cfg = JoinConfig::new(4);
        cfg.radix_bits = Some(9);
        assert_eq!(cfg.bits_for_hash_tables(1 << 24), 9);
        assert_eq!(cfg.bits_for_array_tables(1 << 24), 9);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(JoinConfig::new(0).threads, 1);
    }

    #[test]
    fn array_bits_grow_with_sparse_domain() {
        let mut dense = JoinConfig::new(32);
        dense.key_domain = 0;
        let mut sparse = JoinConfig::new(32);
        sparse.key_domain = 16 * (16 << 20);
        let n = 16 << 20;
        assert!(sparse.bits_for_array_tables(n) > dense.bits_for_array_tables(n));
    }
}

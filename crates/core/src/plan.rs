//! The typed join-plan API: algorithm descriptors, validated
//! configuration building, and the fluent [`Join`] entry point.
//!
//! ```
//! use mmjoin_core::{Algorithm, Join};
//! use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
//! use mmjoin_util::Placement;
//!
//! let r = gen_build_dense(10_000, 42, Placement::Chunked { parts: 4 });
//! let s = gen_probe_fk(100_000, 10_000, 43, Placement::Chunked { parts: 4 });
//! let result = Join::new(Algorithm::Cprl)
//!     .with_threads(4)
//!     .run(&r, &s)
//!     .unwrap();
//! assert_eq!(result.matches, 100_000);
//! ```
//!
//! Misconfigurations that previously panicked deep inside a join phase
//! (a sparse build key fed to an array join, a zero thread count, an
//! absurd radix fanout) surface here as [`JoinError`] values before any
//! partitioning work starts.

use std::time::Duration;

use mmjoin_util::Relation;

use crate::config::{JoinConfig, ProfileConfig, TableKind};
use crate::fault::CancelToken;
use crate::run::contain_panics;
use crate::stats::{JoinResult, PhaseStat};
use crate::Algorithm;

/// Largest accepted radix-bits override: 2^24 partitions is already far
/// beyond any cache-resident co-partition size the study explores.
pub const MAX_RADIX_BITS: u32 = 24;

/// Largest accepted host thread count: past this the "workers" are pure
/// oversubscription noise on any machine the study models.
pub const MAX_THREADS: usize = 1024;

/// A failure raised while building a [`JoinConfig`], launching a
/// [`Join`], or — for the runtime variants (`WorkerPanicked`,
/// `Timedout`, `Cancelled`, `MemoryBudgetExceeded`) — during execution.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum JoinError {
    /// A configuration field failed builder-time validation — a zero
    /// thread count, an out-of-range radix fanout, an oversubscribed
    /// host. Surfaces at [`JoinConfigBuilder::build`], before any
    /// partitioning work starts.
    InvalidConfig {
        field: &'static str,
        value: usize,
        reason: &'static str,
    },
    /// The algorithm has no operator-pipeline port yet (see
    /// [`crate::pipeline::PORTED`]); run it through its monolithic
    /// driver instead.
    PipelineUnsupported { algorithm: Algorithm },
    /// A dense-domain algorithm (NOPA/PRA/CPRA/PRAiS) was given build
    /// keys beyond the configured key domain; the payload array cannot
    /// be sized. Raise `key_domain` or pick a hash-table variant.
    DomainExceeded {
        algorithm: Algorithm,
        max_key: u32,
        domain: usize,
    },
    /// An algorithm name that is not one of the thirteen.
    UnknownAlgorithm(String),
    /// A morsel task panicked. The phase barrier completed, the pool
    /// healed (any dead worker respawned), and later joins on the same
    /// persistent pool are unaffected; `payload` carries the panic
    /// message(s), `phase` the phase that was running.
    WorkerPanicked {
        phase: &'static str,
        payload: String,
    },
    /// `JoinConfig::deadline` expired. `partial` holds the `PhaseStat`s
    /// of the phases that completed before the deadline hit.
    Timedout {
        phase: &'static str,
        elapsed: Duration,
        partial: Vec<PhaseStat>,
    },
    /// The join's [`CancelToken`] was cancelled. `partial` holds the
    /// `PhaseStat`s of the phases that completed before cancellation.
    Cancelled {
        phase: &'static str,
        partial: Vec<PhaseStat>,
    },
    /// A large allocation would have pushed the join past
    /// `JoinConfig::mem_limit`; the allocation was never made.
    /// `available` is how many bytes were still unreserved when the
    /// request was refused.
    MemoryBudgetExceeded {
        phase: &'static str,
        requested: usize,
        limit: usize,
        available: usize,
    },
    /// A spill or ledger file operation failed. `source` is the
    /// rendered `std::io::Error` (this enum is `Clone + PartialEq`, the
    /// raw error is neither).
    Io { phase: &'static str, source: String },
    /// A spilled partition could not be shrunk below the memory budget
    /// within the bounded recursion depth — extreme skew (e.g. one key
    /// larger than the whole budget). Raise `mem_limit` or treat the
    /// partition as unjoinable in memory.
    SpillRecursionLimit {
        partition: usize,
        depth: u32,
        limit: u32,
    },
}

impl JoinError {
    /// Stable machine-readable error code.
    ///
    /// These strings are a **compatibility contract** (DESIGN.md §15):
    /// they are what `mmjoin-serve` puts on the wire in error frames and
    /// what `observe::error_json` serializes, so clients match on them.
    /// Codes are only ever *added* (the enum is `#[non_exhaustive]`);
    /// renaming or removing one is a breaking protocol change.
    pub fn code(&self) -> &'static str {
        match self {
            JoinError::InvalidConfig { .. } => "invalid_config",
            JoinError::PipelineUnsupported { .. } => "pipeline_unsupported",
            JoinError::DomainExceeded { .. } => "domain_exceeded",
            JoinError::UnknownAlgorithm(_) => "unknown_algorithm",
            JoinError::WorkerPanicked { .. } => "worker_panicked",
            JoinError::Timedout { .. } => "timedout",
            JoinError::Cancelled { .. } => "cancelled",
            JoinError::MemoryBudgetExceeded { .. } => "memory_budget_exceeded",
            JoinError::Io { .. } => "io",
            JoinError::SpillRecursionLimit { .. } => "spill_recursion_limit",
        }
    }

    /// The phase a runtime failure hit, when the variant carries one
    /// (`None` for plan-time errors like `InvalidConfig`).
    pub fn phase(&self) -> Option<&'static str> {
        match self {
            JoinError::WorkerPanicked { phase, .. }
            | JoinError::Timedout { phase, .. }
            | JoinError::Cancelled { phase, .. }
            | JoinError::MemoryBudgetExceeded { phase, .. }
            | JoinError::Io { phase, .. } => Some(phase),
            _ => None,
        }
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::InvalidConfig {
                field,
                value,
                reason,
            } => write!(f, "invalid {field} = {value}: {reason}"),
            JoinError::PipelineUnsupported { algorithm } => {
                write!(f, "{algorithm} has no operator-pipeline port (ported: ")?;
                for (i, a) in crate::pipeline::PORTED.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            JoinError::DomainExceeded {
                algorithm,
                max_key,
                domain,
            } => write!(
                f,
                "{algorithm} needs a dense key domain: build key {max_key} exceeds \
                 key_domain {domain}"
            ),
            JoinError::UnknownAlgorithm(name) => {
                write!(f, "unknown algorithm {name:?} (expected one of ")?;
                for (i, a) in Algorithm::WITH_EXTENSIONS.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            JoinError::WorkerPanicked { phase, payload } => {
                write!(f, "worker panicked during {phase} phase: {payload}")
            }
            JoinError::Timedout {
                phase,
                elapsed,
                partial,
            } => write!(
                f,
                "join deadline exceeded after {:.1} ms in {phase} phase \
                 ({} phase(s) completed)",
                elapsed.as_secs_f64() * 1e3,
                partial.len()
            ),
            JoinError::Cancelled { phase, partial } => write!(
                f,
                "join cancelled in {phase} phase ({} phase(s) completed)",
                partial.len()
            ),
            JoinError::MemoryBudgetExceeded {
                phase,
                requested,
                limit,
                available,
            } => write!(
                f,
                "memory budget exceeded in {phase} phase: \
                 {requested} bytes requested against a {limit}-byte limit \
                 ({available} bytes available)"
            ),
            JoinError::Io { phase, source } => {
                write!(f, "I/O error in {phase} phase: {source}")
            }
            JoinError::SpillRecursionLimit {
                partition,
                depth,
                limit,
            } => write!(
                f,
                "spilled partition {partition} still exceeds the memory budget \
                 after {depth} recursive repartitioning passes (limit {limit}); \
                 the workload is too skewed for this mem_limit"
            ),
        }
    }
}

impl std::error::Error for JoinError {}

/// Join family — the paper's top-level classification (Section 3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// No-partitioning hash joins: one shared table, chunk-parallel.
    NoPartitioning,
    /// Partition-based hash joins (PR*/CPR*).
    Partitioned,
    /// Sort-merge (MWAY).
    SortMerge,
}

/// Per-partition (or global) table each algorithm builds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TableFlavor {
    /// Shared lock-free linear-probing table (NOP).
    LockFreeLinear,
    /// Shared payload array over the dense key domain (NOPA).
    LockFreeArray,
    /// Concise hash table: bitmap + dense array (CHTJ).
    Concise,
    /// Per-partition bucket-chained table.
    Chained,
    /// Per-partition linear-probing table.
    Linear,
    /// Per-partition payload array.
    Array,
    /// No table: sorted runs are merge-joined (MWAY).
    SortedRuns,
}

/// How join tasks reach the workers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scheduling {
    /// Static chunking of the probe input (no task queue).
    ChunkParallel,
    /// Task queue filled in sequential partition order.
    Sequential,
    /// Task queue(s) filled NUMA round-robin — on the host executor this
    /// is the NUMA-local queue policy with work stealing.
    NumaRoundRobin,
}

/// Partitioning strategy of the materialization phase.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Partitioning {
    /// No partitioning pass at all.
    None,
    /// Hash-prefix split of the build side only (CHTJ bulkload regions).
    BuildRegions,
    /// One global pass with software write-combine buffers.
    SinglePassSwwcb,
    /// Two global passes, direct scatter (PRB).
    TwoPassDirect,
    /// Chunk-local partitioning, no global histogram (CPR*).
    Chunked,
}

/// Structural description of an algorithm — the four dimensions of the
/// paper's Table 2, derivable from [`Algorithm`] without running it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmDescriptor {
    pub family: Family,
    pub table: TableFlavor,
    pub scheduling: Scheduling,
    pub partitioning: Partitioning,
}

impl Algorithm {
    /// The algorithm's structural descriptor (Table 2).
    pub fn descriptor(self) -> AlgorithmDescriptor {
        use Algorithm as A;
        let family = match self {
            A::Nop | A::Nopa | A::Chtj => Family::NoPartitioning,
            A::Mway => Family::SortMerge,
            _ => Family::Partitioned,
        };
        let table = match self {
            A::Nop => TableFlavor::LockFreeLinear,
            A::Nopa => TableFlavor::LockFreeArray,
            A::Chtj => TableFlavor::Concise,
            A::Mway => TableFlavor::SortedRuns,
            A::Prb | A::Pro | A::ProIs => TableFlavor::Chained,
            A::Prl | A::PrlIs | A::Cprl | A::Shhj => TableFlavor::Linear,
            A::Pra | A::PraIs | A::Cpra => TableFlavor::Array,
        };
        let scheduling = match self {
            A::Nop | A::Nopa | A::Chtj => Scheduling::ChunkParallel,
            A::ProIs | A::PrlIs | A::PraIs => Scheduling::NumaRoundRobin,
            _ => Scheduling::Sequential,
        };
        let partitioning = match self {
            A::Nop | A::Nopa => Partitioning::None,
            A::Chtj => Partitioning::BuildRegions,
            A::Prb => Partitioning::TwoPassDirect,
            A::Cprl | A::Cpra => Partitioning::Chunked,
            A::Mway | A::Pro | A::Prl | A::Pra | A::ProIs | A::PrlIs | A::PraIs | A::Shhj => {
                Partitioning::SinglePassSwwcb
            }
        };
        AlgorithmDescriptor {
            family,
            table,
            scheduling,
            partitioning,
        }
    }

    /// Parse a paper abbreviation, with a typed error for the CLI.
    pub fn parse(name: &str) -> Result<Algorithm, JoinError> {
        Algorithm::from_name(name).ok_or_else(|| JoinError::UnknownAlgorithm(name.to_string()))
    }
}

/// Validating builder for [`JoinConfig`] — the panic-free alternative to
/// mutating a `JoinConfig::new` value directly.
#[must_use = "a JoinConfigBuilder does nothing until built"]
#[derive(Clone, Debug, Default)]
pub struct JoinConfigBuilder {
    threads: Option<usize>,
    sim_threads: Option<usize>,
    radix_bits: Option<u32>,
    key_domain: Option<usize>,
    probe_theta: Option<f64>,
    skew_handling: Option<bool>,
    simulate: Option<bool>,
    unique_build_keys: Option<bool>,
    deadline: Option<Duration>,
    mem_limit: Option<usize>,
    cancel: Option<CancelToken>,
    profile: Option<ProfileConfig>,
    pipeline_batch: Option<usize>,
    spill_dir: Option<std::path::PathBuf>,
    spill: Option<bool>,
}

impl JoinConfigBuilder {
    /// Host worker threads (must be >= 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Thread count presented to the NUMA cost model (must be >= 1).
    pub fn with_sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = Some(sim_threads);
        self
    }

    /// Override Equation (1)'s radix bits (must be in `1..=24`).
    pub fn with_radix_bits(mut self, bits: u32) -> Self {
        self.radix_bits = Some(bits);
        self
    }

    /// Upper bound of the build key domain (0 = dense, derive from |R|).
    pub fn with_key_domain(mut self, domain: usize) -> Self {
        self.key_domain = Some(domain);
        self
    }

    /// Zipf skew of the probe keys fed to the cost model.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.probe_theta = Some(theta);
        self
    }

    /// Cooperative processing of oversized co-partitions.
    pub fn with_skew_handling(mut self, on: bool) -> Self {
        self.skew_handling = Some(on);
        self
    }

    /// Compute simulated NUMA phase times alongside wall time.
    pub fn with_simulate(mut self, on: bool) -> Self {
        self.simulate = Some(on);
        self
    }

    /// Whether build keys are unique (the study's PK assumption).
    pub fn with_unique_build_keys(mut self, unique: bool) -> Self {
        self.unique_build_keys = Some(unique);
        self
    }

    /// Wall-clock bound on the whole join (`JoinError::Timedout`).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Byte budget for large allocations
    /// (`JoinError::MemoryBudgetExceeded`).
    pub fn with_mem_limit(mut self, bytes: usize) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Cancellation handle; keep a clone and call
    /// [`CancelToken::cancel`] to abort in-flight joins.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Per-worker span + native PMU counter recording
    /// (`ProfileConfig::on()` / `off()`; off by default).
    pub fn with_profile(mut self, profile: ProfileConfig) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Tuples per batch flowing between pipeline operators (must be
    /// >= 1; see `mmjoin_core::pipeline`).
    pub fn with_pipeline_batch(mut self, tuples: usize) -> Self {
        self.pipeline_batch = Some(tuples);
        self
    }

    /// Directory the spilling join ([`Algorithm::Shhj`]) creates its
    /// temp directory under; defaults to the system temp dir.
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Allow the spilling join to evict partitions to disk (default
    /// true). With `false`, SHHJ behaves like the classic drivers and
    /// fails with [`JoinError::MemoryBudgetExceeded`] under pressure.
    pub fn with_spill(mut self, on: bool) -> Self {
        self.spill = Some(on);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<JoinConfig, JoinError> {
        let threads = self.threads.unwrap_or(4);
        if threads == 0 {
            return Err(JoinError::InvalidConfig {
                field: "threads",
                value: 0,
                reason: "must be >= 1",
            });
        }
        if threads > MAX_THREADS {
            return Err(JoinError::InvalidConfig {
                field: "threads",
                value: threads,
                reason: "exceeds MAX_THREADS (1024): oversubscribed host",
            });
        }
        if self.sim_threads == Some(0) {
            return Err(JoinError::InvalidConfig {
                field: "sim_threads",
                value: 0,
                reason: "must be >= 1 when set",
            });
        }
        check_radix_bits(self.radix_bits)?;
        if self.pipeline_batch == Some(0) {
            return Err(JoinError::InvalidConfig {
                field: "pipeline_batch",
                value: 0,
                reason: "must be >= 1",
            });
        }
        let mut cfg = JoinConfig::new(threads);
        cfg.sim_threads = self.sim_threads;
        cfg.radix_bits = self.radix_bits;
        if let Some(domain) = self.key_domain {
            cfg.key_domain = domain;
        }
        if let Some(theta) = self.probe_theta {
            cfg.probe_theta = theta;
        }
        if let Some(on) = self.skew_handling {
            cfg.skew_handling = on;
        }
        if let Some(on) = self.simulate {
            cfg.simulate = on;
        }
        if let Some(unique) = self.unique_build_keys {
            cfg.unique_build_keys = unique;
        }
        cfg.deadline = self.deadline;
        cfg.mem_limit = self.mem_limit;
        if let Some(token) = self.cancel {
            cfg.cancel = token;
        }
        if let Some(profile) = self.profile {
            cfg.profile = profile;
        }
        if let Some(batch) = self.pipeline_batch {
            cfg.pipeline_batch = batch;
        }
        cfg.spill_dir = self.spill_dir;
        if let Some(on) = self.spill {
            cfg.spill = on;
        }
        Ok(cfg)
    }
}

impl JoinConfig {
    /// Start a validating configuration builder.
    pub fn builder() -> JoinConfigBuilder {
        JoinConfigBuilder::default()
    }
}

/// A fluent, validated join plan: pick an [`Algorithm`], set the
/// `with_*` knobs, and [`run`](Join::run) it. The sole entry point —
/// configuration mistakes come back as [`JoinError`] before any
/// partitioning work starts, instead of panicking mid-phase.
#[must_use = "a Join does nothing until run"]
#[derive(Clone, Debug)]
pub struct Join {
    algorithm: Algorithm,
    builder: JoinConfigBuilder,
    config: Option<JoinConfig>,
    pipeline: bool,
}

impl Join {
    /// Plan a join with `algorithm` and default configuration.
    pub fn new(algorithm: Algorithm) -> Self {
        Join {
            algorithm,
            builder: JoinConfigBuilder::default(),
            config: None,
            pipeline: false,
        }
    }

    /// The planned algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Its structural descriptor.
    pub fn descriptor(&self) -> AlgorithmDescriptor {
        self.algorithm.descriptor()
    }

    /// Host worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.builder = self.builder.with_threads(threads);
        self
    }

    /// Cost-model thread count.
    pub fn with_sim_threads(mut self, sim_threads: usize) -> Self {
        self.builder = self.builder.with_sim_threads(sim_threads);
        self
    }

    /// Radix-bits override.
    pub fn with_radix_bits(mut self, bits: u32) -> Self {
        self.builder = self.builder.with_radix_bits(bits);
        self
    }

    /// Build key domain bound.
    pub fn with_key_domain(mut self, domain: usize) -> Self {
        self.builder = self.builder.with_key_domain(domain);
        self
    }

    /// Probe-side Zipf skew for the cost model.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.builder = self.builder.with_zipf(theta);
        self
    }

    /// Cooperative skew handling.
    pub fn with_skew_handling(mut self, on: bool) -> Self {
        self.builder = self.builder.with_skew_handling(on);
        self
    }

    /// Simulated NUMA timing on/off.
    pub fn with_simulate(mut self, on: bool) -> Self {
        self.builder = self.builder.with_simulate(on);
        self
    }

    /// Unique-build-keys (PK) assumption.
    pub fn with_unique_build_keys(mut self, unique: bool) -> Self {
        self.builder = self.builder.with_unique_build_keys(unique);
        self
    }

    /// Wall-clock bound on the whole join.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.builder = self.builder.with_deadline(deadline);
        self
    }

    /// Byte budget for the join's large allocations.
    pub fn with_mem_limit(mut self, bytes: usize) -> Self {
        self.builder = self.builder.with_mem_limit(bytes);
        self
    }

    /// Cancellation handle for this plan's runs.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.builder = self.builder.with_cancel_token(token);
        self
    }

    /// Per-worker span + native-counter recording (see
    /// [`JoinConfigBuilder::with_profile`] and `mmjoin_core::observe`).
    pub fn with_profile(mut self, profile: ProfileConfig) -> Self {
        self.builder = self.builder.with_profile(profile);
        self
    }

    /// Tuples per batch flowing between pipeline operators (see
    /// [`JoinConfigBuilder::with_pipeline_batch`]).
    pub fn with_pipeline_batch(mut self, tuples: usize) -> Self {
        self.builder = self.builder.with_pipeline_batch(tuples);
        self
    }

    /// Spill-file parent directory (see
    /// [`JoinConfigBuilder::with_spill_dir`]).
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.builder = self.builder.with_spill_dir(dir);
        self
    }

    /// Allow/forbid disk spilling under memory pressure (see
    /// [`JoinConfigBuilder::with_spill`]).
    pub fn with_spill(mut self, on: bool) -> Self {
        self.builder = self.builder.with_spill(on);
        self
    }

    /// Execute through the composable operator pipeline
    /// (`mmjoin_core::pipeline`) instead of the monolithic driver:
    /// [`crate::pipeline::BuildSide::prepare`] then a one-stage fused
    /// probe. Identical matches and checksum; only the ported
    /// algorithms ([`crate::pipeline::PORTED`]) accept it — the rest
    /// return [`JoinError::PipelineUnsupported`].
    pub fn with_pipeline(mut self, fused: bool) -> Self {
        self.pipeline = fused;
        self
    }

    /// Use a fully-formed configuration, bypassing the builder knobs
    /// (they are ignored when this is set).
    pub fn with_config(mut self, cfg: JoinConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Validate the plan against the actual relations and execute it.
    pub fn run(&self, r: &Relation, s: &Relation) -> Result<JoinResult, JoinError> {
        let cfg = match &self.config {
            Some(cfg) => cfg.clone(),
            None => self.builder.clone().build()?,
        };
        check_radix_bits(cfg.radix_bits)?;
        check_dense_domain(self.algorithm, r, &cfg)?;
        if self.pipeline {
            let side = crate::pipeline::BuildSide::prepare(self.algorithm, r, &cfg)?;
            let radix_bits = side.radix_bits();
            let pres = crate::pipeline::Pipeline::new()
                .with_stage(side)
                .with_config(cfg)
                .run(s)?;
            let mut result = JoinResult::new(self.algorithm);
            result.radix_bits = radix_bits;
            result.matches = pres.matches;
            result.checksum = pres.checksum;
            result.phases = pres.phases;
            return Ok(result);
        }
        dispatch(self.algorithm, r, s, &cfg)
    }
}

/// Front-door validation shared by [`JoinConfigBuilder::build`],
/// [`Join::run`] and [`crate::pipeline::BuildSide::prepare`] — a
/// `JoinConfig` field set directly never saw the builder: a fan-out
/// override past [`MAX_RADIX_BITS`] would size histograms and tables by
/// it before any budget could refuse.
pub(crate) fn check_radix_bits(bits: Option<u32>) -> Result<(), JoinError> {
    match bits {
        Some(bits) if bits == 0 || bits > MAX_RADIX_BITS => Err(JoinError::InvalidConfig {
            field: "radix_bits",
            value: bits as usize,
            reason: "must be in 1..=MAX_RADIX_BITS (24)",
        }),
        _ => Ok(()),
    }
}

/// Front-door validation shared by [`Join::run`] and
/// [`crate::pipeline::BuildSide::prepare`]: array joins index a payload
/// array by key, so a build key beyond the domain would be an
/// out-of-bounds write deep in the build loop.
pub(crate) fn check_dense_domain(
    algorithm: Algorithm,
    r: &Relation,
    cfg: &JoinConfig,
) -> Result<(), JoinError> {
    if !algorithm.needs_dense_domain() {
        return Ok(());
    }
    let domain = cfg.domain(r.len());
    match r.tuples().iter().map(|t| t.key).max() {
        Some(max_key) if max_key as usize > domain => Err(JoinError::DomainExceeded {
            algorithm,
            max_key,
            domain,
        }),
        _ => Ok(()),
    }
}

/// Dispatch underneath [`Join::run`], under the outer fault boundary
/// (see [`contain_panics`]).
pub(crate) fn dispatch(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    contain_panics(|| match algorithm {
        Algorithm::Nop => crate::nop::join_nop(r, s, cfg),
        Algorithm::Nopa => crate::nop::join_nopa(r, s, cfg),
        Algorithm::Chtj => crate::chtj::join_chtj(r, s, cfg),
        Algorithm::Mway => crate::mway::join_mway(r, s, cfg),
        Algorithm::Prb => crate::prb::join_prb(r, s, cfg),
        Algorithm::Pro => crate::pro::join_pro(r, s, cfg, TableKind::Chained, false),
        Algorithm::Prl => crate::pro::join_pro(r, s, cfg, TableKind::Linear, false),
        Algorithm::Pra => crate::pro::join_pro(r, s, cfg, TableKind::Array, false),
        Algorithm::ProIs => crate::pro::join_pro(r, s, cfg, TableKind::Chained, true),
        Algorithm::PrlIs => crate::pro::join_pro(r, s, cfg, TableKind::Linear, true),
        Algorithm::PraIs => crate::pro::join_pro(r, s, cfg, TableKind::Array, true),
        Algorithm::Cprl => crate::pro::join_cpr(r, s, cfg, TableKind::Linear),
        Algorithm::Cpra => crate::pro::join_cpr(r, s, cfg, TableKind::Array),
        Algorithm::Shhj => crate::shhj::join_shhj(r, s, cfg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::{Placement, Relation, Tuple};

    #[test]
    fn builder_validates_threads() {
        assert_eq!(
            JoinConfig::builder().with_threads(0).build().unwrap_err(),
            JoinError::InvalidConfig {
                field: "threads",
                value: 0,
                reason: "must be >= 1",
            }
        );
        assert_eq!(
            JoinConfig::builder()
                .with_sim_threads(0)
                .build()
                .unwrap_err(),
            JoinError::InvalidConfig {
                field: "sim_threads",
                value: 0,
                reason: "must be >= 1 when set",
            }
        );
        let cfg = JoinConfig::builder()
            .with_threads(3)
            .with_sim_threads(32)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.sim_threads(), 32);
    }

    /// Regression: an oversubscribed thread count surfaces at build
    /// time as a typed `InvalidConfig`, not as an executor blow-up.
    #[test]
    fn builder_rejects_oversubscribed_threads() {
        let err = JoinConfig::builder()
            .with_threads(MAX_THREADS + 1)
            .build()
            .unwrap_err();
        match err {
            JoinError::InvalidConfig { field, value, .. } => {
                assert_eq!(field, "threads");
                assert_eq!(value, MAX_THREADS + 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("oversubscribed"));
        // The boundary itself is accepted.
        assert!(JoinConfig::builder()
            .with_threads(MAX_THREADS)
            .build()
            .is_ok());
    }

    /// Regression: 0-bit fanout is a builder-time error, as are absurd
    /// fanouts past `MAX_RADIX_BITS` — and the same error where a config
    /// whose field was set directly enters a join or a build side.
    #[test]
    fn builder_validates_radix_bits() {
        let r = gen_build_dense(100, 1, Placement::Interleaved);
        let s = gen_probe_fk(100, 100, 2, Placement::Interleaved);
        for bits in [0, MAX_RADIX_BITS + 1, 64, 99] {
            let invalid = JoinError::InvalidConfig {
                field: "radix_bits",
                value: bits as usize,
                reason: "must be in 1..=MAX_RADIX_BITS (24)",
            };
            let built = JoinConfig::builder().with_radix_bits(bits).build();
            assert_eq!(built.unwrap_err(), invalid);
            let mut cfg = JoinConfig::new(2);
            cfg.radix_bits = Some(bits);
            let joined = Join::new(Algorithm::Pro).with_config(cfg.clone());
            assert_eq!(joined.run(&r, &s).unwrap_err(), invalid);
            let side = crate::pipeline::BuildSide::prepare(Algorithm::Prl, &r, &cfg);
            assert_eq!(side.unwrap_err(), invalid);
        }
        let cfg = JoinConfig::builder().with_radix_bits(10).build().unwrap();
        assert_eq!(cfg.radix_bits, Some(10));
    }

    #[test]
    fn builder_validates_pipeline_batch() {
        assert_eq!(
            JoinConfig::builder()
                .with_pipeline_batch(0)
                .build()
                .unwrap_err(),
            JoinError::InvalidConfig {
                field: "pipeline_batch",
                value: 0,
                reason: "must be >= 1",
            }
        );
        let cfg = JoinConfig::builder()
            .with_pipeline_batch(256)
            .build()
            .unwrap();
        assert_eq!(cfg.pipeline_batch, 256);
    }

    #[test]
    fn builder_knobs_land_in_config() {
        let cfg = JoinConfig::builder()
            .with_zipf(0.75)
            .with_key_domain(123_456)
            .with_skew_handling(true)
            .with_simulate(false)
            .with_unique_build_keys(false)
            .build()
            .unwrap();
        assert_eq!(cfg.probe_theta, 0.75);
        assert_eq!(cfg.key_domain, 123_456);
        assert!(cfg.skew_handling);
        assert!(!cfg.simulate);
        assert!(!cfg.unique_build_keys);
    }

    #[test]
    fn sparse_keys_rejected_for_dense_algorithms() {
        let r = Relation::from_tuples(
            &[Tuple::new(5, 1), Tuple::new(1_000_000, 2)],
            Placement::Interleaved,
        );
        let s = Relation::from_tuples(&[Tuple::new(5, 9)], Placement::Interleaved);
        let err = Join::new(Algorithm::Pra)
            .with_threads(2)
            .with_simulate(false)
            .run(&r, &s)
            .unwrap_err();
        match err {
            JoinError::DomainExceeded {
                algorithm,
                max_key,
                domain,
            } => {
                assert_eq!(algorithm, Algorithm::Pra);
                assert_eq!(max_key, 1_000_000);
                assert_eq!(domain, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Widening the declared domain makes the same plan valid.
        let ok = Join::new(Algorithm::Pra)
            .with_threads(2)
            .with_simulate(false)
            .with_key_domain(1_000_000)
            .run(&r, &s)
            .unwrap();
        assert_eq!(ok.matches, 1);
    }

    #[test]
    fn join_builder_runs() {
        let r = gen_build_dense(2_000, 51, Placement::Interleaved);
        let s = gen_probe_fk(8_000, 2_000, 52, Placement::Interleaved);
        let res = Join::new(Algorithm::Prl)
            .with_threads(4)
            .with_radix_bits(5)
            .with_simulate(false)
            .run(&r, &s)
            .unwrap();
        assert_eq!(res.matches, 8_000);
    }

    /// `with_pipeline(true)` must agree with the monolithic driver for
    /// every ported algorithm and reject the rest with a typed error.
    #[test]
    fn pipeline_flag_matches_classic_driver() {
        let r = gen_build_dense(2_000, 53, Placement::Interleaved);
        let s = gen_probe_fk(6_000, 2_000, 54, Placement::Interleaved);
        for alg in crate::pipeline::PORTED {
            let classic = Join::new(alg)
                .with_threads(4)
                .with_simulate(false)
                .run(&r, &s)
                .unwrap();
            let fused = Join::new(alg)
                .with_threads(4)
                .with_simulate(false)
                .with_pipeline(true)
                .run(&r, &s)
                .unwrap();
            assert_eq!(fused.matches, classic.matches, "{alg}");
            assert_eq!(fused.checksum, classic.checksum, "{alg}");
            assert!(!fused.phases.is_empty(), "{alg}");
        }
        let err = Join::new(Algorithm::Mway)
            .with_threads(2)
            .with_simulate(false)
            .with_pipeline(true)
            .run(&r, &s)
            .unwrap_err();
        assert_eq!(
            err,
            JoinError::PipelineUnsupported {
                algorithm: Algorithm::Mway
            }
        );
    }

    #[test]
    fn config_override_wins() {
        let r = gen_build_dense(500, 61, Placement::Interleaved);
        let s = gen_probe_fk(1_000, 500, 62, Placement::Interleaved);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        // Builder knobs are ignored once an explicit config is supplied.
        let res = Join::new(Algorithm::Nop)
            .with_threads(999)
            .with_config(cfg)
            .run(&r, &s)
            .unwrap();
        assert_eq!(res.matches, 1_000);
    }

    #[test]
    fn descriptors_span_table_two() {
        use Algorithm as A;
        assert_eq!(
            A::Nop.descriptor(),
            AlgorithmDescriptor {
                family: Family::NoPartitioning,
                table: TableFlavor::LockFreeLinear,
                scheduling: Scheduling::ChunkParallel,
                partitioning: Partitioning::None,
            }
        );
        assert_eq!(A::Mway.descriptor().family, Family::SortMerge);
        assert_eq!(
            A::Prb.descriptor().partitioning,
            Partitioning::TwoPassDirect
        );
        assert_eq!(A::Cpra.descriptor().partitioning, Partitioning::Chunked);
        assert_eq!(A::PrlIs.descriptor().scheduling, Scheduling::NumaRoundRobin);
        for a in A::ALL {
            let d = a.descriptor();
            assert_eq!(a.is_partitioned(), d.family == Family::Partitioned, "{a}");
            assert_eq!(
                a.needs_dense_domain(),
                matches!(d.table, TableFlavor::Array | TableFlavor::LockFreeArray),
                "{a}"
            );
        }
    }

    #[test]
    fn parse_reports_unknown_names() {
        assert_eq!(Algorithm::parse("cprl"), Ok(Algorithm::Cprl));
        let err = Algorithm::parse("frobnicate").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        assert!(err.to_string().contains("CPRL"));
    }

    /// Regression: an empty build relation must flow through every
    /// algorithm without hanging or panicking (the linear tables used to
    /// construct zero-slot tables whose probe loops had no empty-slot
    /// terminator).
    #[test]
    fn empty_build_relation_all_algorithms() {
        let r = Relation::from_tuples(&[], Placement::Interleaved);
        let s = gen_probe_fk(2_000, 500, 71, Placement::Interleaved);
        for alg in Algorithm::ALL {
            let res = Join::new(alg)
                .with_threads(2)
                .with_simulate(false)
                .run(&r, &s)
                .unwrap();
            assert_eq!(res.matches, 0, "{alg}");
        }
    }

    /// All thirteen algorithms must produce the reference checksum with
    /// the hardware kernels force-enabled, and the forced-portable run
    /// must agree bit-for-bit. (No other test in this crate forces a
    /// mode, so the scoped override is not overwritten mid-run.)
    #[test]
    fn all_algorithms_match_reference_under_both_kernel_modes() {
        use mmjoin_util::kernels::{with_mode, KernelMode};
        let n = 3_000;
        let r = gen_build_dense(n, 81, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(4 * n, n, 82, Placement::Chunked { parts: 4 });
        let expect = crate::reference::reference_join(&r, &s);
        for alg in Algorithm::ALL {
            let run = |mode| {
                with_mode(mode, || {
                    Join::new(alg)
                        .with_threads(4)
                        .with_simulate(false)
                        .run(&r, &s)
                        .unwrap()
                })
            };
            let simd = run(KernelMode::Simd);
            let portable = run(KernelMode::Portable);
            assert_eq!(simd.matches, expect.count, "{alg} simd");
            assert_eq!(simd.checksum, expect.digest, "{alg} simd");
            assert_eq!(portable.matches, expect.count, "{alg} portable");
            assert_eq!(portable.checksum, expect.digest, "{alg} portable");
        }
    }
}

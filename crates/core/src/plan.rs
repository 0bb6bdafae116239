//! The typed join-plan API: the [`Join`] entry point and the
//! [`JoinError`] every driver fails with.
//!
//! ```
//! use mmjoin_core::{Algorithm, Join, JoinConfig};
//! use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
//! use mmjoin_util::Placement;
//!
//! let r = gen_build_dense(10_000, 42, Placement::Chunked { parts: 4 });
//! let s = gen_probe_fk(100_000, 10_000, 43, Placement::Chunked { parts: 4 });
//! let mut cfg = JoinConfig::new(4);
//! cfg.simulate = false;
//! let result = Join::new(Algorithm::Cprl)
//!     .with_config(cfg)
//!     .run(&r, &s)
//!     .unwrap();
//! assert_eq!(result.matches, 100_000);
//! ```
//!
//! Misconfigurations that would panic deep inside a join phase (a sparse
//! build key fed to an array join, a zero thread count, an absurd radix
//! fanout) surface here as [`JoinError`] values before any partitioning
//! work starts.

use std::time::Duration;

use mmjoin_util::Relation;

use crate::config::{JoinConfig, TableKind};
use crate::run::contain_panics;
use crate::stats::{JoinResult, PhaseStat};
use crate::Algorithm;

/// Largest accepted radix-bits override: 2^24 partitions is already far
/// beyond any cache-resident co-partition size the study explores.
pub const MAX_RADIX_BITS: u32 = 24;

/// Largest accepted host thread count: past this the "workers" are pure
/// oversubscription noise on any machine the study models.
pub const MAX_THREADS: usize = 1024;

/// A failure raised while validating a [`JoinConfig`], launching a
/// [`Join`], or — for the runtime variants (`WorkerPanicked`,
/// `Timedout`, `Cancelled`, `MemoryBudgetExceeded`) — during execution.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum JoinError {
    /// A configuration field failed [`JoinConfig::validate`] — a zero
    /// thread count, an out-of-range radix fanout, an oversubscribed
    /// host. Surfaces at every entry point ([`Join::run`],
    /// `BuildSide::prepare`, `Pipeline::run`, ...), before a worker is
    /// spawned or any partitioning work starts.
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
    /// A morsel task panicked. The phase barrier completed, every
    /// worker thread survived, and later joins on the same persistent
    /// pool are unaffected; `payload` carries the panic
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
    /// The join's [`crate::CancelToken`] was cancelled. `partial` holds the
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
    /// A spill file operation failed. `source` is the
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

impl Algorithm {
    /// Parse a paper abbreviation, with a typed error for the CLI.
    pub fn parse(name: &str) -> Result<Algorithm, JoinError> {
        Algorithm::from_name(name).ok_or_else(|| JoinError::UnknownAlgorithm(name.to_string()))
    }
}

/// One join, planned: an [`Algorithm`] and the [`JoinConfig`] it runs
/// under. [`run`](Join::run) is the front door of the fourteen monolithic
/// drivers — configuration mistakes come back as [`JoinError`] before any
/// partitioning work starts, instead of panicking mid-phase.
#[must_use = "a Join does nothing until run"]
#[derive(Clone, Debug)]
pub struct Join {
    algorithm: Algorithm,
    config: JoinConfig,
}

impl Join {
    /// Plan a join with `algorithm` under [`JoinConfig::default`].
    pub fn new(algorithm: Algorithm) -> Self {
        Join {
            algorithm,
            config: JoinConfig::default(),
        }
    }

    /// The planned algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Run under `cfg` instead of the default configuration.
    pub fn with_config(mut self, cfg: JoinConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Validate the plan against the actual relations and execute it.
    pub fn run(&self, r: &Relation, s: &Relation) -> Result<JoinResult, JoinError> {
        self.config.validate()?;
        check_dense_domain(self.algorithm, r, &self.config)?;
        dispatch(self.algorithm, r, s, &self.config)
    }
}

/// Front-door validation shared by [`Join::run`],
/// [`crate::pipeline::BuildSide::prepare`],
/// [`crate::materialize::chain_two_step`] and
/// [`crate::pro::join_pro_two_pass`]: array joins index a payload array
/// by key, one payload per key, so they refuse a build side whose keys
/// repeat ([`Relation::unique_keys`]); a build key beyond the domain
/// would be an out-of-bounds write deep in the build loop.
pub(crate) fn check_dense_domain(
    algorithm: Algorithm,
    r: &Relation,
    cfg: &JoinConfig,
) -> Result<(), JoinError> {
    if !algorithm.needs_dense_domain() {
        return Ok(());
    }
    if !r.unique_keys() {
        return Err(JoinError::InvalidConfig {
            field: "unique_keys",
            value: 0,
            reason: "a build key repeats, and an array join holds one payload per key",
        });
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
    use crate::executor::Executor;
    use crate::materialize::{chain_two_step, join_index};
    use crate::pipeline::{BuildSide, Pipeline};
    use crate::reference::reference_join;
    use crate::CancelToken;
    use mmjoin_datagen::{gen_build_dense, gen_build_linked, gen_probe_fk};
    use mmjoin_util::checksum::JoinChecksum;
    use mmjoin_util::{Placement, Relation, Tuple};
    use std::sync::Arc;

    fn cfg(threads: usize) -> JoinConfig {
        let mut cfg = JoinConfig::new(threads);
        cfg.simulate = false;
        cfg
    }

    /// What the front doors are driven with: `r ⋈ s`, and for the chain
    /// `(linked ⋈ s) ⋈ r`; `side` is `r` prepared under a valid config.
    struct Inputs {
        r: Relation,
        linked: Relation,
        s: Relation,
        side: Arc<BuildSide>,
    }

    /// One public way into a driver, run to its `(matches, checksum)`.
    type Door = fn(&Inputs, &JoinConfig) -> Result<(u64, u64), JoinError>;

    /// Sets the one field a case is about.
    type Set = fn(&mut JoinConfig);

    const DOORS: [(&str, Door); 6] = [
        ("Join::run", |i, cfg| {
            let res = Join::new(Algorithm::Prl)
                .with_config(cfg.clone())
                .run(&i.r, &i.s)?;
            Ok((res.matches, res.checksum))
        }),
        ("BuildSide::prepare", |i, cfg| {
            let side = BuildSide::prepare(Algorithm::Prl, &i.r, cfg)?;
            let probe = Pipeline::new().with_stage(side).with_config(cfg.clone());
            let res = probe.run(&i.s)?;
            Ok((res.matches, res.checksum))
        }),
        ("Pipeline::run", |i, cfg| {
            let probe = Pipeline::new()
                .with_stage(Arc::clone(&i.side))
                .with_config(cfg.clone());
            let res = probe.run(&i.s)?;
            Ok((res.matches, res.checksum))
        }),
        ("chain_two_step", |i, cfg| {
            let res = chain_two_step(&i.linked, &i.r, &i.s, Algorithm::Nop, cfg)?;
            Ok((res.matches, res.checksum))
        }),
        ("join_index", |i, cfg| {
            let mut c = JoinChecksum::new();
            for m in join_index(&i.r, &i.s, cfg)? {
                c.add(m.key, m.build_payload, m.probe_payload);
            }
            Ok((c.count, c.digest))
        }),
        ("join_pro_two_pass", |i, cfg| {
            let res = crate::pro::join_pro_two_pass(&i.r, &i.s, cfg, TableKind::Linear)?;
            Ok((res.matches, res.checksum))
        }),
    ];

    /// Every public way into a driver checks the configuration before it
    /// does anything else: each out-of-range value of each range-bound
    /// field comes back as `InvalidConfig` naming the field from all six
    /// doors — with a cancel token already fired, so a door that ran a
    /// phase first would have reported `Cancelled`, and without spawning
    /// a worker for any of them — and each
    /// boundary value that is in range runs to the reference checksum.
    #[test]
    fn every_front_door_validates_before_it_works() {
        let n = 2_000;
        let r = gen_build_dense(n, 51, Placement::Interleaved);
        let linked = gen_build_linked(n, n, 52, Placement::Interleaved);
        let s = gen_probe_fk(3 * n, n, 53, Placement::Interleaved);
        let side = BuildSide::prepare(Algorithm::Nop, &r, &cfg(2)).unwrap();
        let expect = reference_join(&r, &s);
        // The chain's reference: `linked`'s payload is a key of `r`.
        let link: std::collections::HashMap<u32, u32> =
            linked.tuples().iter().map(|t| (t.key, t.payload)).collect();
        let mid: Vec<Tuple> = s
            .tuples()
            .iter()
            .map(|t| Tuple::new(link[&t.key], t.payload))
            .collect();
        let chain = reference_join(&r, &Relation::from_tuples(&mid, Placement::Interleaved));
        let inputs = Inputs { r, linked, s, side };

        let refused: [(&str, usize, Set); 7] = [
            ("threads", 0, |c| c.threads = 0),
            ("threads", MAX_THREADS + 1, |c| c.threads = MAX_THREADS + 1),
            ("threads", 5000, |c| c.threads = 5000),
            ("sim_threads", 0, |c| c.sim_threads = Some(0)),
            ("radix_bits", 0, |c| c.radix_bits = Some(0)),
            ("radix_bits", 25, |c| c.radix_bits = Some(25)),
            ("pipeline_batch", 0, |c| c.pipeline_batch = 0),
        ];
        for (field, value, set) in refused {
            let mut cfg = cfg(2);
            cfg.cancel = CancelToken::new();
            cfg.cancel.cancel();
            set(&mut cfg);
            assert_eq!(cfg.validate().unwrap_err().code(), "invalid_config");
            for (door, enter) in DOORS {
                let spawned = Executor::threads_spawned_here();
                match enter(&inputs, &cfg) {
                    Err(JoinError::InvalidConfig {
                        field: f, value: v, ..
                    }) => assert_eq!((f, v), (field, value), "{door}"),
                    other => panic!("{door} with {field} = {value}: {other:?}"),
                }
                // A refused configuration spawns nothing on this thread
                // (other tests' pools are their own threads').
                assert_eq!(Executor::threads_spawned_here(), spawned, "{door}");
            }
        }
        let oversubscribed = cfg(MAX_THREADS + 1).validate().unwrap_err();
        assert!(oversubscribed.to_string().contains("oversubscribed"));

        let accepted: [(&str, Set); 4] = [
            ("threads = 1", |c| c.threads = 1),
            ("sim_threads = 1", |c| c.sim_threads = Some(1)),
            ("radix_bits = 1", |c| c.radix_bits = Some(1)),
            ("pipeline_batch = 1", |c| c.pipeline_batch = 1),
        ];
        for (what, set) in accepted {
            let mut cfg = cfg(2);
            set(&mut cfg);
            for (door, enter) in DOORS {
                let want = if door == "chain_two_step" {
                    chain
                } else {
                    expect
                };
                let got = enter(&inputs, &cfg);
                assert_eq!(got, Ok((want.count, want.digest)), "{door}, {what}");
            }
        }
        // The upper boundaries cost 2^24 partitions and 1024 threads to
        // run; `validate` alone accepts them.
        let mut cfg = cfg(MAX_THREADS);
        cfg.radix_bits = Some(MAX_RADIX_BITS);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn sparse_keys_rejected_for_dense_algorithms() {
        let r = Relation::from_tuples(
            &[Tuple::new(5, 1), Tuple::new(1_000_000, 2)],
            Placement::Interleaved,
        );
        let s = Relation::from_tuples(&[Tuple::new(5, 9)], Placement::Interleaved);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        let err = Join::new(Algorithm::Pra)
            .with_config(cfg.clone())
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
        cfg.key_domain = 1_000_000;
        let ok = Join::new(Algorithm::Pra)
            .with_config(cfg)
            .run(&r, &s)
            .unwrap();
        assert_eq!(ok.matches, 1);
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
            let res = Join::new(alg).with_config(cfg(2)).run(&r, &s).unwrap();
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
                    Join::new(alg).with_config(cfg(4)).run(&r, &s).unwrap()
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

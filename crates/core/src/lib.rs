//! The thirteen relational equi-joins of Schuh, Chen & Dittrich,
//! "An Experimental Comparison of Thirteen Relational Equi-Joins in Main
//! Memory" (SIGMOD 2016) — reimplemented in Rust.
//!
//! # The algorithms (Table 2 of the paper)
//!
//! | Variant | Family | Partitioning | Table | Scheduling |
//! |---------|--------|--------------|-------|------------|
//! | [`Algorithm::Prb`]   | partitioned | 2-pass, no SWWCB | chained | sequential |
//! | [`Algorithm::Nop`]   | no-partition | — | lock-free linear | — |
//! | [`Algorithm::Chtj`]  | no-partition | (build bulkload only) | concise HT | — |
//! | [`Algorithm::Mway`]  | sort-merge | 1-pass + SWWCB | sort networks | per-partition |
//! | [`Algorithm::Nopa`]  | no-partition | — | array | — |
//! | [`Algorithm::Pro`]   | partitioned | 1-pass + SWWCB | chained | sequential |
//! | [`Algorithm::Prl`]   | partitioned | 1-pass + SWWCB | linear | sequential |
//! | [`Algorithm::Pra`]   | partitioned | 1-pass + SWWCB | array | sequential |
//! | [`Algorithm::Cprl`]  | partitioned | chunked + SWWCB | linear | sequential |
//! | [`Algorithm::Cpra`]  | partitioned | chunked + SWWCB | array | sequential |
//! | [`Algorithm::ProIs`] | partitioned | 1-pass + SWWCB | chained | NUMA round-robin |
//! | [`Algorithm::PrlIs`] | partitioned | 1-pass + SWWCB | linear | NUMA round-robin |
//! | [`Algorithm::PraIs`] | partitioned | 1-pass + SWWCB | array | NUMA round-robin |
//!
//! # Quickstart
//!
//! Configure a join by setting [`JoinConfig`]'s public fields — the one
//! configuration surface — and run it with [`Join`]; misconfigurations
//! come back as typed [`JoinError`]s instead of panicking mid-phase:
//!
//! ```
//! use mmjoin_core::{Algorithm, Join, JoinConfig};
//! use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
//! use mmjoin_util::Placement;
//!
//! let r = gen_build_dense(10_000, 42, Placement::Chunked { parts: 4 });
//! let s = gen_probe_fk(100_000, 10_000, 43, Placement::Chunked { parts: 4 });
//! let mut cfg = JoinConfig::new(4); // 4 worker threads
//! cfg.probe_theta = 0.0; // ... and any other field
//! let result = Join::new(Algorithm::Cprl)
//!     .with_config(cfg)
//!     .run(&r, &s)
//!     .expect("valid plan");
//! assert_eq!(result.matches, 100_000); // every FK finds its PK
//! ```
//!
//! One `JoinConfig` is reusable across plans (`Join::with_config`,
//! `BuildSide::prepare`, `Pipeline::with_config`); every one of those
//! entry points checks it with [`JoinConfig::validate`] before it starts
//! a thread or sizes a buffer. The table above is each variant's Table-2
//! classification; [`Join::run`]'s dispatch is its executable form.
//!
//! Every algorithm is genuinely multi-threaded: all phases run as morsels
//! on one persistent NUMA-aware worker pool (see [`executor`]), created
//! lazily per thread count and reused across joins. In addition, each
//! phase is described to the NUMA cost model (`mmjoin-numamodel`), so a
//! [`JoinResult`] carries measured wall time, simulated time on the
//! paper's 4-socket machine, and per-phase executor counters (tasks,
//! steals, idle time) — see DESIGN.md for the substitution rationale.

pub mod chtj;
pub mod config;
pub mod exec;
pub mod executor;
pub mod fault;
pub mod instrumented;
pub mod materialize;
pub mod mway;
pub mod nop;
pub mod observe;
pub mod pipeline;
pub mod plan;
pub mod prb;
pub mod pro;
pub mod reference;
pub mod run;
pub mod shhj;
pub mod skew;
pub mod spec;
pub mod stats;

pub use config::{JoinConfig, TableKind};
pub use executor::{Executor, QueuePolicy};
pub use fault::{CancelToken, MemBudget};
pub use mmjoin_util::perf::CounterDelta;
pub use mmjoin_util::pool::WorkerPhaseStat;
pub use pipeline::{BuildSide, Pipeline};
pub use plan::{Join, JoinError};
pub use stats::{JoinResult, PhaseStat, SpillCounters};

/// The public join API in one import: everything an embedder — the
/// `mmjoin-serve` front-end, an experiment harness, an application —
/// needs to plan, configure, run, cache, and observe joins.
///
/// The service layer consumes *only* this module; an item it needs that
/// isn't here is a missing-public-API bug to fix in this prelude, never
/// a `pub(crate)` workaround (DESIGN.md §15).
pub mod prelude {
    pub use crate::config::JoinConfig;
    pub use crate::fault::{CancelToken, MemBudget};
    pub use crate::observe;
    pub use crate::pipeline::{is_ported, BuildSide, Pipeline, PORTED};
    pub use crate::plan::{Join, JoinError, MAX_RADIX_BITS};
    pub use crate::stats::{JoinResult, PhaseStat, SpillCounters};
    pub use crate::Algorithm;
    pub use mmjoin_util::tuple::{Key, Payload, Placement, Relation, Tuple};
}

/// The thirteen join algorithms of the study.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Basic two-pass parallel radix join, no SWWCB (Balkesen et al.).
    Prb,
    /// No-partitioning hash join, lock-free linear table (Lang et al.).
    Nop,
    /// Concise-hash-table join (Barber et al.).
    Chtj,
    /// Multi-way sort-merge join (Balkesen et al.).
    Mway,
    /// NOP with an array table (this paper).
    Nopa,
    /// One-pass optimized parallel radix join, chained table.
    Pro,
    /// PRO with linear probing.
    Prl,
    /// PRO with array tables.
    Pra,
    /// Chunked parallel radix join, linear probing (this paper).
    Cprl,
    /// Chunked parallel radix join, array tables (this paper).
    Cpra,
    /// PRO with NUMA-round-robin task scheduling.
    ProIs,
    /// PRL with improved scheduling.
    PrlIs,
    /// PRA with improved scheduling.
    PraIs,
    /// Spilling hybrid hash join (this repo's extension, DESIGN.md §13):
    /// degrades gracefully under a memory budget by evicting build
    /// partitions to disk and recursively repartitioning, instead of
    /// aborting with `MemoryBudgetExceeded`.
    Shhj,
}

impl Algorithm {
    /// All thirteen, in the paper's Figure 8 order.
    pub const ALL: [Algorithm; 13] = [
        Algorithm::Mway,
        Algorithm::Chtj,
        Algorithm::Prb,
        Algorithm::Nop,
        Algorithm::Nopa,
        Algorithm::Pro,
        Algorithm::Prl,
        Algorithm::Pra,
        Algorithm::Cprl,
        Algorithm::Cpra,
        Algorithm::ProIs,
        Algorithm::PrlIs,
        Algorithm::PraIs,
    ];

    /// The paper's thirteen plus this repo's extensions (currently the
    /// spilling hybrid hash join). CLI parsing and fault-matrix tests
    /// iterate this; paper-figure experiments stay on [`Algorithm::ALL`].
    pub const WITH_EXTENSIONS: [Algorithm; 14] = [
        Algorithm::Mway,
        Algorithm::Chtj,
        Algorithm::Prb,
        Algorithm::Nop,
        Algorithm::Nopa,
        Algorithm::Pro,
        Algorithm::Prl,
        Algorithm::Pra,
        Algorithm::Cprl,
        Algorithm::Cpra,
        Algorithm::ProIs,
        Algorithm::PrlIs,
        Algorithm::PraIs,
        Algorithm::Shhj,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Prb => "PRB",
            Algorithm::Nop => "NOP",
            Algorithm::Chtj => "CHTJ",
            Algorithm::Mway => "MWAY",
            Algorithm::Nopa => "NOPA",
            Algorithm::Pro => "PRO",
            Algorithm::Prl => "PRL",
            Algorithm::Pra => "PRA",
            Algorithm::Cprl => "CPRL",
            Algorithm::Cpra => "CPRA",
            Algorithm::ProIs => "PROiS",
            Algorithm::PrlIs => "PRLiS",
            Algorithm::PraIs => "PRAiS",
            Algorithm::Shhj => "SHHJ",
        }
    }

    /// Partition-based (PR*/CPR*) vs no-partitioning/sort families.
    pub fn is_partitioned(self) -> bool {
        !matches!(
            self,
            Algorithm::Nop | Algorithm::Nopa | Algorithm::Chtj | Algorithm::Mway
        )
    }

    /// Requires a dense (or at least bounded) key domain.
    pub fn needs_dense_domain(self) -> bool {
        matches!(
            self,
            Algorithm::Nopa | Algorithm::Pra | Algorithm::Cpra | Algorithm::PraIs
        )
    }

    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::WITH_EXTENSIONS
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// The barrier-delimited phases this algorithm executes, in order —
    /// the labels that appear in `PhaseStat::name`, in `JoinError`'s
    /// runtime variants, and in failpoint names (`"<ALG>.<phase>"`).
    pub fn phases(self) -> &'static [&'static str] {
        match self {
            Algorithm::Nop | Algorithm::Nopa | Algorithm::Chtj => &["build", "probe"],
            Algorithm::Mway => &["partition", "sort", "join"],
            Algorithm::Shhj => &["partition", "probe", "spill"],
            _ => &["partition", "join"],
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_algorithms() {
        assert_eq!(Algorithm::ALL.len(), 13);
        let names: std::collections::HashSet<&str> =
            Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 13);
        // Extensions extend the paper's list, never replace entries.
        assert_eq!(Algorithm::WITH_EXTENSIONS.len(), 14);
        assert_eq!(&Algorithm::WITH_EXTENSIONS[..13], &Algorithm::ALL[..]);
        assert!(!Algorithm::ALL.contains(&Algorithm::Shhj));
    }

    #[test]
    fn name_round_trip() {
        for a in Algorithm::WITH_EXTENSIONS {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
            assert_eq!(Algorithm::from_name(&a.name().to_lowercase()), Some(a));
        }
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn family_classification() {
        assert!(!Algorithm::Nop.is_partitioned());
        assert!(!Algorithm::Mway.is_partitioned());
        assert!(Algorithm::Prb.is_partitioned());
        assert!(Algorithm::Cprl.is_partitioned());
        assert!(Algorithm::Nopa.needs_dense_domain());
        assert!(!Algorithm::Prl.needs_dense_domain());
    }
}

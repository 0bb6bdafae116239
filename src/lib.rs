//! `mmjoin` — a Rust reproduction of Schuh, Chen & Dittrich,
//! *"An Experimental Comparison of Thirteen Relational Equi-Joins in Main
//! Memory"* (SIGMOD 2016).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the thirteen join algorithms, the [`core::Join`] plan
//!   builder, and the persistent morsel executor they run on.
//! * [`datagen`] — workload generators (dense PK/FK, Zipf, sparse).
//! * [`hashtable`] — chained / linear / concise / array tables.
//! * [`partition`] — radix partitioning, SWWCB, task scheduling, Eq. (1).
//! * [`sort`] — sorting networks and multiway merging (MWAY substrate).
//! * [`numamodel`] — the simulated NUMA machine and cost model.
//! * [`memsim`] — the trace-driven cache/TLB simulator (Table 4).
//! * [`tpch`] — the column-store TPC-H Q19 substrate.
//! * [`util`] — tuples, aligned buffers, RNG, checksums.
//! * [`serve`] — the async multi-tenant join service (`mmjoin serve`).
//!
//! Embedders that just want to run joins should import [`prelude`] —
//! the consolidated public API (also available as
//! `mmjoin_core::prelude` for crates that don't want the whole
//! workspace).
//!
//! # Quickstart
//!
//! ```
//! use mmjoin::core::{Algorithm, Join, JoinConfig};
//! use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
//! use mmjoin::util::Placement;
//!
//! let placement = Placement::Chunked { parts: 4 };
//! let r = gen_build_dense(100_000, 42, placement);
//! let s = gen_probe_fk(1_000_000, 100_000, 43, placement);
//!
//! let result = Join::new(Algorithm::Cpra)
//!     .with_config(JoinConfig::new(4)) // 4 worker threads
//!     .run(&r, &s)
//!     .expect("valid plan");
//! assert_eq!(result.matches, 1_000_000);
//! println!(
//!     "CPRA: {:.0} Mtps on the simulated 4-socket machine",
//!     result.sim_throughput_mtps(r.len(), s.len())
//! );
//! ```

pub use mmjoin_core as core;
pub use mmjoin_core::prelude;
pub use mmjoin_datagen as datagen;
pub use mmjoin_hashtable as hashtable;
pub use mmjoin_memsim as memsim;
pub use mmjoin_numamodel as numamodel;
pub use mmjoin_partition as partition;
pub use mmjoin_serve as serve;
pub use mmjoin_sort as sort;
pub use mmjoin_tpch as tpch;
pub use mmjoin_util as util;

//! Simulated NUMA machine: topology, placement-aware traffic accounting,
//! and a bandwidth-contention simulator.
//!
//! # Why this crate exists
//!
//! The paper runs on a 4-socket Intel Xeon E7-4870 v2 (60 physical cores,
//! 120 hardware contexts, 4 NUMA nodes). This reproduction runs wherever
//! `cargo test` runs — possibly a single-core laptop. All algorithms in
//! `mmjoin-core` are *really* multi-threaded (their correctness under
//! concurrency is tested for real), but their *performance characteristics
//! under NUMA* — which is what Figures 5–7, 15, 16 and Table 3 study — are
//! properties of where data lives and who moves it, not of the host they
//! happen to execute on.
//!
//! Each algorithm therefore additionally describes every barrier-delimited
//! phase as a set of [`TaskSpec`]s: "this task moves this many bytes
//! from/to this node, performs this many random accesses, and burns this
//! much CPU". The [`sim`] module schedules those tasks on a configurable
//! [`Topology`] under a [`CostModel`] with per-node bandwidth contention,
//! yielding:
//!
//! * simulated phase/total runtimes (thread-scaling curves, Fig 16/Table 3),
//! * per-node bandwidth-utilization timelines (Fig 6),
//! * node-to-node traffic matrices (Fig 4's write patterns, quantified).
//!
//! The model is deliberately first-order: sequential traffic is
//! bandwidth-bound (node bandwidth split evenly among concurrent users),
//! random traffic is latency-bound with a memory-level-parallelism factor,
//! and remote accesses pay an interconnect premium. That is exactly the
//! level of fidelity the paper's arguments rely on (remote writes are
//! expensive; one hot memory controller serializes the join phase; SMT
//! shares private caches).

pub mod cost;
pub mod sim;
pub mod task;
pub mod topology;
pub mod traffic;

pub use cost::CostModel;
pub use sim::{simulate_phase, PhaseSim};
pub use task::TaskSpec;
pub use topology::Topology;
pub use traffic::TrafficMatrix;

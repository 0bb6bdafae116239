//! The experiment harness: one runnable reproduction per table and
//! figure of the paper.
//!
//! ```text
//! cargo run -p mmjoin-bench --release --bin repro -- fig1
//! cargo run -p mmjoin-bench --release --bin repro -- all --scale 256
//! ```
//!
//! Every experiment accepts `--scale N` (divide the paper's tuple counts
//! by `N`; the simulated machine's caches and pages are divided by the
//! same factor so capacity-relative crossovers are preserved — see
//! DESIGN.md), `--threads N` (host worker threads) and `--sim-threads N`
//! (thread count presented to the NUMA cost model; default 32, the
//! paper's main configuration).

pub mod experiments;
pub mod harness;

pub use harness::{HarnessOpts, Table};

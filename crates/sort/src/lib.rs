//! Sorting substrate for the multi-way sort-merge join (MWAY).
//!
//! Balkesen et al.'s m-way join sorts with AVX bitonic sort/merge
//! networks and combines runs with a bandwidth-saving multiway merge.
//! This crate reproduces that structure portably:
//!
//! * [`network`] — the 8-wide sorting network over packed `u64` tuples
//!   (key in the high 32 bits, so integer comparison orders by key)
//!   that forms the initial runs.
//! * [`mergesort`] — [`sort_packed`], the whole sort of one array: run
//!   formation, branch-free merge passes over cache-sized blocks, one
//!   multiway merge.
//! * [`multiway`] — a loser-tree k-way merge that replaces `log k` binary
//!   merge passes over DRAM with a single pass.
//!
//! Tuples are packed with [`mmjoin_util::Tuple::pack`].

pub mod mergesort;
pub mod multiway;
pub mod network;

pub use mergesort::sort_packed;

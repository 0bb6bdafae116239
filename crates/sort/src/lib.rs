//! Sorting substrate for the multi-way sort-merge join (MWAY).
//!
//! Balkesen et al.'s m-way join sorts with AVX bitonic sort/merge
//! networks and combines runs with a bandwidth-saving multiway merge.
//! This crate reproduces that structure; run formation and the
//! multiway merge come in two versions, chosen at run time by
//! [`mmjoin_util::kernels::avx512_active`]:
//!
//! * [`network`] — the 8-wide sorting network over packed `u64` tuples
//!   (key in the high 32 bits, so integer comparison orders by key)
//!   that forms the initial runs of the scalar path.
//! * [`mergesort`] — [`sort_packed`], the whole sort of one array: run
//!   formation, merge passes over cache-sized blocks, one multiway
//!   merge.
//! * [`multiway`] — a k-way merge that replaces `log k` binary merge
//!   passes over DRAM with a single pass: two loser trees on the scalar
//!   path.
//! * `avx512` (x86-64) — the vector versions: 64-word runs sorted in
//!   registers, merge passes of bitonic 8+8 kernels, and a binary tree
//!   of the same kernels for the multiway pass.
//!   `MMJOIN_KERNELS=portable` (or a CPU without AVX-512F, or Miri)
//!   keeps the scalar path.
//!
//! Tuples are packed with [`mmjoin_util::Tuple::pack`].

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod mergesort;
pub mod multiway;
pub mod network;

pub use mergesort::sort_packed;

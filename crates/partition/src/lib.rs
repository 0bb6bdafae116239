//! Radix partitioning — the substrate of every PR*/CPR* join.
//!
//! The crate provides the two partitioning families the paper studies:
//!
//! * [`contiguous`] — the classic parallel radix partitioning of Kim et
//!   al. / Balkesen et al.: local histograms → global histogram → every
//!   thread scatters into *one contiguous output buffer* (Figure 4(a)).
//!   Optional software write-combine buffers + streaming flushes
//!   ([`swwcb`], Algorithm 1 of the paper), one- or two-pass. Its
//!   serial step — histogram, prefix, scatter of an input one thread
//!   owns — is also [`route_into`], the operator pipeline's per-batch
//!   router.
//! * [`chunked`] — this paper's CPR* partitioning (Figure 4(c)): no
//!   global histogram; every thread radix-partitions its chunk *locally*,
//!   eliminating remote writes at the price of non-contiguous partitions
//!   ([`generic`]: the same over records wider than a tuple). A chunk is
//!   one more input a thread owns: it goes through the same serial step.
//!
//! Every partitioner takes the [`mmjoin_util::pool::WorkerPool`] it runs
//! on (`*_on`): the joins and TPC-H Q19 pass the persistent executor,
//! this crate's tests and the criterion benches a `ScopedPool`. There is
//! no entry point that spawns threads of its own.
//!
//! Plus the surrounding machinery:
//!
//! * [`radix::RadixFn`] — the partitioning function (low key bits).
//! * [`histogram`] — per-chunk histograms and exclusive prefix sums.
//! * [`task`] — co-partition task queues with the sequential order used
//!   by the original code and the NUMA-round-robin order of the *iS
//!   variants (Section 6.2).
//! * [`bits`] — Equation (1): the radix-bit predictor.

pub mod bits;
pub mod chunked;
pub mod contiguous;
pub mod generic;
pub mod histogram;
pub mod radix;
pub mod swwcb;
pub mod task;

pub use bits::{predict_radix_bits, BitsInput};
pub use chunked::{chunked_partition_on, ChunkedPartitions};
pub use contiguous::{
    packed_layout, partition_parallel_emit_on, partition_parallel_on, route_into, second_pass_on,
    two_pass_partition_on, PartitionedRelation, ScatterMode,
};
pub use generic::chunked_partition_by_on;
pub use radix::RadixFn;
pub use task::{task_order, ConcurrentTaskQueue, ScheduleOrder};

//! Machine topology: sockets, cores, SMT, caches, TLB, page size.
//!
//! The default is the paper's testbed (Section 7.1): four Intel Xeon
//! E7-4870 v2 sockets, 15 physical cores per socket, 2-way SMT, 32 KB L1d,
//! 256 KB L2, 30 MB shared L3 per socket, 256 TLB entries with 4 KB pages
//! but only 32 with 2 MB pages.

/// Virtual-memory page size used for all allocations (Section 7.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PageSize {
    /// 4 KB small pages, 256 data-TLB entries on the paper's CPU.
    Small4K,
    /// 2 MB transparent huge pages, only 32 TLB entries.
    Huge2M,
}

impl PageSize {
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            PageSize::Small4K => 4 * 1024,
            PageSize::Huge2M => 2 * 1024 * 1024,
        }
    }

    /// Number of data-TLB entries available at this page size on the
    /// paper's Ivy Bridge EX (Section 7.1).
    #[inline]
    pub fn tlb_entries(self) -> usize {
        match self {
            PageSize::Small4K => 256,
            PageSize::Huge2M => 32,
        }
    }
}

/// Most NUMA nodes a [`Topology`] may have: task specs keep their
/// per-node demands inline (see [`crate::task::PerNode`]).
pub const MAX_NODES: usize = 8;

/// A (simulated) shared-memory machine.
#[derive(Clone, Debug)]
pub struct Topology {
    /// NUMA nodes (= sockets), at most [`MAX_NODES`].
    pub nodes: usize,
    /// Physical cores per socket.
    pub cores_per_node: usize,
    /// Hardware threads per core (SMT ways).
    pub smt: usize,
    /// Private L1 data cache per core, bytes.
    pub l1d: usize,
    /// Private L2 cache per core, bytes.
    pub l2: usize,
    /// Shared last-level cache per socket, bytes.
    pub llc: usize,
    /// Page size for all allocations.
    pub page_size: PageSize,
    /// Capacity scale divisor: caches and page bytes are reported divided
    /// by this. Used to emulate the paper's machine against inputs scaled
    /// down by the same factor — every capacity-relative crossover (table
    /// vs LLC, TLB coverage vs table) then falls at the same *relative*
    /// input size as on the real machine. 1 = unscaled.
    pub capacity_scale: usize,
}

impl Topology {
    /// The paper's machine: 4 × (15 cores × 2 SMT), 30 MB LLC/socket.
    pub fn paper_machine() -> Self {
        Topology {
            nodes: 4,
            cores_per_node: 15,
            smt: 2,
            l1d: 32 * 1024,
            l2: 256 * 1024,
            llc: 30 * 1024 * 1024,
            page_size: PageSize::Huge2M,
            capacity_scale: 1,
        }
    }

    /// The paper's machine with caches/pages shrunk by `scale`, for runs
    /// whose input data is scaled down by the same factor (see DESIGN.md).
    pub fn paper_machine_scaled(scale: usize) -> Self {
        let mut t = Topology::paper_machine();
        t.capacity_scale = scale.max(1);
        t
    }

    /// Effective L2 per core after scaling.
    #[inline]
    pub fn l2_bytes(&self) -> usize {
        (self.l2 / self.capacity_scale).max(1024)
    }

    /// Effective LLC per socket after scaling.
    #[inline]
    pub fn llc_bytes(&self) -> usize {
        (self.llc / self.capacity_scale).max(4096)
    }

    /// Effective page bytes after scaling.
    #[inline]
    pub fn page_bytes(&self) -> usize {
        (self.page_size.bytes() / self.capacity_scale).max(64)
    }

    /// Data-TLB entries (page-size dependent, not scaled).
    #[inline]
    pub fn tlb_entries(&self) -> usize {
        self.page_size.tlb_entries()
    }

    /// Total physical cores.
    #[inline]
    pub fn physical_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// NUMA node a given logical thread runs on.
    ///
    /// Threads are distributed round-robin over nodes — exactly the thread
    /// placement of Appendix B ("From that starting point we increase the
    /// number of threads distributing threads evenly across NUMA regions").
    #[inline]
    pub fn node_of_thread(&self, thread: usize) -> usize {
        thread % self.nodes
    }

    /// Whether running `threads` threads requires SMT (more threads than
    /// physical cores) — SMT threads share private L1/L2 (Appendix B).
    #[inline]
    pub fn uses_smt(&self, threads: usize) -> bool {
        threads > self.physical_cores()
    }

    /// Share of the socket-level LLC available to one of `threads` running
    /// threads (footnote 5 of the paper: "As the LLC is shared between
    /// cores, the available share per thread is dependent on the number of
    /// concurrently running threads").
    #[inline]
    pub fn llc_per_thread(&self, threads: usize) -> usize {
        let threads_per_node = threads.div_ceil(self.nodes).max(1);
        self.llc_bytes() / threads_per_node
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_dimensions() {
        let t = Topology::paper_machine();
        assert_eq!(t.physical_cores(), 60);
        assert_eq!(t.nodes, 4);
    }

    #[test]
    fn round_robin_thread_placement() {
        let t = Topology::paper_machine();
        assert_eq!(t.node_of_thread(0), 0);
        assert_eq!(t.node_of_thread(1), 1);
        assert_eq!(t.node_of_thread(4), 0);
        assert_eq!(t.node_of_thread(7), 3);
    }

    #[test]
    fn smt_threshold() {
        let t = Topology::paper_machine();
        assert!(!t.uses_smt(60));
        assert!(t.uses_smt(61));
        assert!(t.uses_smt(120));
    }

    #[test]
    fn tlb_entries_shrink_with_huge_pages() {
        assert_eq!(PageSize::Small4K.tlb_entries(), 256);
        assert_eq!(PageSize::Huge2M.tlb_entries(), 32);
        assert!(PageSize::Huge2M.bytes() > PageSize::Small4K.bytes());
    }

    #[test]
    fn llc_share_shrinks_with_threads() {
        let t = Topology::paper_machine();
        assert!(t.llc_per_thread(60) < t.llc_per_thread(4));
        // 32 threads over 4 nodes = 8 per node => 30MB/8.
        assert_eq!(t.llc_per_thread(32), 30 * 1024 * 1024 / 8);
    }
}

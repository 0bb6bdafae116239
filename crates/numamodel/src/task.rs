//! Task descriptions consumed by the phase simulator.
//!
//! A [`TaskSpec`] is the cost-model summary of one schedulable unit of
//! work: either a thread's chunk of a scan/partition/probe phase, or one
//! co-partition join task pulled from the task queue. It records how many
//! bytes the task streams from/to each NUMA node, how many random (cache-
//! missing) accesses it performs against each node, and its pure CPU
//! component.

use crate::topology::{Topology, MAX_NODES};

/// One `f64` per node of the machine, stored inline: a slice of the
/// machine's node count, without the heap allocation of a `Vec`.
#[derive(Clone, Copy, Debug)]
pub struct PerNode {
    vals: [f64; MAX_NODES],
    nodes: usize,
}

impl PerNode {
    fn zeroed(nodes: usize) -> Self {
        assert!(
            nodes <= MAX_NODES,
            "a topology has at most {MAX_NODES} nodes, not {nodes}"
        );
        PerNode {
            vals: [0.0; MAX_NODES],
            nodes,
        }
    }
}

impl std::ops::Deref for PerNode {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.vals[..self.nodes]
    }
}

impl std::ops::DerefMut for PerNode {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.vals[..self.nodes]
    }
}

/// One schedulable unit of work for the simulator.
///
/// The per-node demands are inline ([`PerNode`]), not `Vec`s: a 2 × 7-bit
/// PRB join phase describes 16 384 tasks, and two heap allocations per
/// spec cost more than simulating them.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Sequentially streamed bytes (reads + writes) against each node.
    pub stream_bytes: PerNode,
    /// Random (DRAM-latency) accesses against each node.
    pub random_accesses: PerNode,
    /// Per-tuple-style CPU operations (hashing, comparisons, copies).
    pub cpu_ops: f64,
    /// TLB misses attributed to this task (page-size dependent).
    pub tlb_misses: f64,
    /// Node preference of the executing thread; the simulator uses it to
    /// decide local vs remote costs. `None` = assigned at schedule time.
    pub home_node: Option<usize>,
}

impl TaskSpec {
    /// An empty task on a machine of `nodes` nodes (at most [`MAX_NODES`]).
    pub fn new(nodes: usize) -> Self {
        TaskSpec {
            stream_bytes: PerNode::zeroed(nodes),
            random_accesses: PerNode::zeroed(nodes),
            cpu_ops: 0.0,
            tlb_misses: 0.0,
            home_node: None,
        }
    }

    /// Add `bytes` of streamed traffic against `node`.
    pub fn stream(&mut self, node: usize, bytes: f64) -> &mut Self {
        self.stream_bytes[node] += bytes;
        self
    }

    /// Spread `bytes` of streamed traffic evenly over all nodes
    /// (interleaved buffers).
    pub fn stream_interleaved(&mut self, bytes: f64) -> &mut Self {
        let n = self.stream_bytes.len() as f64;
        for b in self.stream_bytes.iter_mut() {
            *b += bytes / n;
        }
        self
    }

    /// Add `n` random accesses against `node`.
    pub fn random(&mut self, node: usize, n: f64) -> &mut Self {
        self.random_accesses[node] += n;
        self
    }

    /// Spread `n` random accesses evenly over all nodes (e.g. probes of an
    /// interleaved global hash table).
    pub fn random_interleaved(&mut self, n: f64) -> &mut Self {
        let k = self.random_accesses.len() as f64;
        for r in self.random_accesses.iter_mut() {
            *r += n / k;
        }
        self
    }

    pub fn cpu(&mut self, ops: f64) -> &mut Self {
        self.cpu_ops += ops;
        self
    }

    pub fn tlb(&mut self, misses: f64) -> &mut Self {
        self.tlb_misses += misses;
        self
    }

    pub fn on_node(&mut self, node: usize) -> &mut Self {
        self.home_node = Some(node);
        self
    }

    /// Total bytes streamed, for sanity assertions.
    pub fn total_stream_bytes(&self) -> f64 {
        self.stream_bytes.iter().sum()
    }
}

/// Helper: build one `TaskSpec` per thread for a simple chunked scan phase
/// where each thread streams its chunk of a buffer with the given placement.
pub fn chunked_scan_tasks(
    topo: &Topology,
    threads: usize,
    total_bytes: f64,
    placement: mmjoin_util::Placement,
) -> Vec<TaskSpec> {
    let mut tasks = Vec::with_capacity(threads);
    let per_thread = total_bytes / threads as f64;
    for t in 0..threads {
        let mut spec = TaskSpec::new(topo.nodes);
        spec.on_node(topo.node_of_thread(t));
        match placement {
            mmjoin_util::Placement::Node(n) => {
                spec.stream(n % topo.nodes, per_thread);
            }
            mmjoin_util::Placement::Interleaved => {
                spec.stream_interleaved(per_thread);
            }
            mmjoin_util::Placement::Chunked { .. } => {
                // Thread t's chunk lives on node_of_thread(t) when chunk
                // count equals thread count; otherwise approximately the
                // proportional node.
                spec.stream(topo.node_of_thread(t), per_thread);
            }
        }
        tasks.push(spec);
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::Placement;

    #[test]
    fn builder_accumulates() {
        let mut t = TaskSpec::new(4);
        t.stream(0, 100.0).stream(0, 50.0).random(2, 7.0).cpu(3.0);
        assert_eq!(t.stream_bytes[0], 150.0);
        assert_eq!(t.random_accesses[2], 7.0);
        assert_eq!(t.cpu_ops, 3.0);
        assert_eq!(t.total_stream_bytes(), 150.0);
    }

    #[test]
    fn interleaved_splits_evenly() {
        let mut t = TaskSpec::new(4);
        t.stream_interleaved(400.0);
        assert!(t.stream_bytes.iter().all(|&b| (b - 100.0).abs() < 1e-9));
    }

    #[test]
    fn chunked_scan_conserves_bytes() {
        let topo = Topology::paper_machine();
        for placement in [
            Placement::Interleaved,
            Placement::Node(2),
            Placement::Chunked { parts: 8 },
        ] {
            let tasks = chunked_scan_tasks(&topo, 8, 8000.0, placement);
            let total: f64 = tasks.iter().map(TaskSpec::total_stream_bytes).sum();
            assert!((total - 8000.0).abs() < 1e-6, "{placement:?}");
        }
    }
}

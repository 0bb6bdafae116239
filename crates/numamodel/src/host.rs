//! The *real* host's memory topology, detected from `/sys`.
//!
//! Everything else in this crate describes a *simulated* machine; the
//! detection here answers the complementary question "what is the box
//! this process actually runs on capable of?" — how many NUMA nodes the
//! OS exposes, whether transparent huge pages are enabled, and whether
//! any explicit 2 MiB hugepages are reserved. The bench harness stamps
//! the answer into run metadata (runs from hosts with different
//! topologies are not comparable), and `host_machine` turns it into a
//! first-order [`Topology`] for simulating "this host" instead of the
//! paper's machine.
//!
//! The parsing itself lives in `mmjoin_util::mem` next to the syscall
//! layer that consumes it; this module re-exports it as the public
//! topology-facing API.

pub use mmjoin_util::mem::{detect_topology_from, host_topology, HostTopology};

use crate::topology::{PageSize, Topology, MAX_NODES};

/// A [`Topology`] describing the detected host, for simulating on "this
/// machine" rather than the paper's.
///
/// First-order by construction: node count comes from `/sys` (capped at
/// [`MAX_NODES`]), cores are split evenly across nodes from `threads`,
/// caches keep the paper's per-core/per-socket sizes (the model's
/// sensitivity is to *placement*, not exact cache geometry), and the page
/// size reflects whether the host can actually back allocations with
/// 2 MiB pages (THP enabled or hugepages reserved).
pub fn host_machine(threads: usize) -> Topology {
    let host = host_topology();
    let nodes = host.nodes.clamp(1, MAX_NODES);
    let threads = threads.max(1);
    let mut t = Topology::paper_machine();
    t.nodes = nodes;
    t.cores_per_node = threads.div_ceil(nodes).max(1);
    t.smt = 1;
    t.page_size = if host.thp_enabled || host.free_hugepages_2m > 0 {
        PageSize::Huge2M
    } else {
        PageSize::Small4K
    };
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_machine_is_well_formed() {
        for threads in [0, 1, 3, 64] {
            let t = host_machine(threads);
            assert!(t.nodes >= 1);
            assert!(t.cores_per_node >= 1);
            assert!(t.physical_cores() >= threads.max(1) / 2);
        }
    }

    #[test]
    fn reexports_detect() {
        // The re-exported detection API is callable and total.
        let h = host_topology();
        assert!(h.nodes >= 1);
        let absent = detect_topology_from(std::path::Path::new("/nonexistent-mmjoin"));
        assert_eq!(absent.nodes, 1);
        assert!(!absent.detected);
    }
}

//! The *real* host's memory topology, detected from `/sys`.
//!
//! Everything else in this crate describes a *simulated* machine; the
//! detection here answers the complementary question "what is the box
//! this process actually runs on capable of?" — how many NUMA nodes the
//! OS exposes, whether transparent huge pages are enabled, and whether
//! any explicit 2 MiB hugepages are reserved. The bench harness stamps
//! the answer into run metadata (runs from hosts with different
//! topologies are not comparable).
//!
//! The parsing itself lives in `mmjoin_util::mem` next to the syscall
//! layer that consumes it; this module re-exports it as the public
//! topology-facing API.

pub use mmjoin_util::mem::{detect_topology_from, host_topology, HostTopology};

#[cfg(test)]
mod tests {
    use super::*;

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

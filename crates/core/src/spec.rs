//! Cost-model descriptions of the joins' phases.
//!
//! Every barrier-delimited phase of every algorithm is summarized as
//! [`TaskSpec`]s for the NUMA simulator (see `mmjoin-numamodel`). The
//! builders here encode the paper's own analysis of each algorithm:
//!
//! * NOP builds/probes are *random* accesses into an interleaved global
//!   table; they hit DRAM once the table outgrows the aggregate LLC
//!   (Section 7.3's explanation of Figure 10).
//! * PRO's scatter writes go to *all* nodes (3/4 remote on 4 sockets);
//!   CPRL's scatter is node-local, its join-phase reads are spread over
//!   all nodes (Section 6.1, Figure 4).
//! * Without SWWCB, scattering to more partitions than there are TLB
//!   entries misses the TLB per tuple; SWWCB divides that by the tuples
//!   per cache line (Section 5.1) — and huge pages shrink the TLB to 32
//!   entries, which is exactly why PRB degrades with huge pages (Fig. 8).

use mmjoin_numamodel::{simulate_phase, CostModel, PhaseSim, TaskSpec};
use mmjoin_partition::task::node_of_partition;
use mmjoin_util::{Placement, Relation, TUPLES_PER_CACHELINE};

use crate::config::JoinConfig;

/// CPU operation counts per tuple, per kernel. These are coarse but only
/// their *ratios* matter for the qualitative results.
pub mod ops {
    /// Scan + histogram update.
    pub const HISTOGRAM: f64 = 2.0;
    /// Hash + buffer bookkeeping + write per scattered tuple.
    pub const SCATTER: f64 = 4.0;
    /// Hash-table insert.
    pub const BUILD: f64 = 5.0;
    /// Hash-table probe (including the compare).
    pub const PROBE: f64 = 5.0;
    /// Array-table insert/probe (no key compare, no collision path).
    pub const ARRAY: f64 = 2.0;
    /// Per-element, per-merge-level cost of merge sorting. Calibrated so
    /// MWAY lands at the bottom of the Figure 1 field like the paper's
    /// AVX implementation does relative to the hash joins (sorting's
    /// n·log n term has no hash-join counterpart).
    pub const SORT_CMP: f64 = 12.0;
    /// Merge-join advance.
    pub const MERGE_JOIN: f64 = 3.0;
    /// CHT probe does a bitmap test + popcount + array compare.
    pub const CHT_PROBE: f64 = 8.0;
}

/// Fraction of sequential-scan TLB walk cost that is *not* hidden by the
/// hardware page walkers / prefetchers. Calibrated against Figure 8's
/// observed huge-page gains for the streaming-bound algorithms (~5-15%).
const SEQ_TLB_EXPOSURE: f64 = 1.0;

const TUPLE_BYTES: f64 = 8.0;

/// Probability that a random access into a structure of `bytes` misses a
/// cache of `cache_bytes` (fraction of the structure that cannot be
/// resident, floored at a small residual conflict rate).
pub fn miss_probability(bytes: f64, cache_bytes: f64) -> f64 {
    miss_probability_zipf(bytes, cache_bytes, 0.0)
}

/// Miss probability under a Zipf(θ)-skewed access distribution: the
/// cache-resident fraction `f` of the structure captures roughly
/// `f^(1-θ)` of the probability mass (the top-`m`-of-`n` mass of a Zipf
/// distribution) — at high skew the caches become effective even for
/// giant tables, which is why the NOP family catches up beyond θ ≈ 0.9
/// (Appendix A).
pub fn miss_probability_zipf(bytes: f64, cache_bytes: f64, theta: f64) -> f64 {
    if bytes <= 0.0 {
        return 0.0;
    }
    let resident = (cache_bytes / bytes).clamp(0.0, 1.0);
    let hit_mass = resident.powf((1.0 - theta).clamp(0.01, 1.0));
    (1.0 - hit_mass).clamp(0.02, 1.0)
}

/// Probability that a random access into `bytes` misses the TLB.
pub fn tlb_miss_probability(bytes: f64, cfg: &JoinConfig) -> f64 {
    let coverage = (cfg.topology.tlb_entries() * cfg.topology.page_bytes()) as f64;
    if bytes <= 0.0 {
        return 0.0;
    }
    (1.0 - coverage / bytes).clamp(0.0, 1.0)
}

/// TLB misses charged to a sequential stream of `bytes`.
///
/// Uses the *unscaled* page size: sequential-miss counts are
/// pages-touched counts, which stay constant when data and page size are
/// scaled down together — charging them against scaled pages would
/// inflate the TLB share of scaled runs by the scale factor. (Random
/// accesses don't have this issue: their count scales with the data and
/// their miss probability is coverage-relative.)
pub fn seq_tlb_misses(bytes: f64, cfg: &JoinConfig) -> f64 {
    bytes / cfg.topology.page_size.bytes() as f64 * SEQ_TLB_EXPOSURE
}

/// Relative page-walk cost: 4 KB pages need a deeper walk (4 levels,
/// worse paging-structure-cache locality) than 2 MB pages (3 levels).
/// Multiplies every TLB-miss count fed to the cost model.
pub fn tlb_walk_scale(cfg: &JoinConfig) -> f64 {
    match cfg.topology.page_size {
        mmjoin_numamodel::topology::PageSize::Small4K => 1.3,
        mmjoin_numamodel::topology::PageSize::Huge2M => 0.7,
    }
}

/// Aggregate LLC over all sockets — the capacity bound for the global
/// tables of the NOP family.
pub fn total_llc(cfg: &JoinConfig) -> f64 {
    (cfg.topology.llc_bytes() * cfg.topology.nodes) as f64
}

/// Run one phase through the simulator. Returns `(seconds, sim)`;
/// `(0, empty)` when simulation is disabled. The sim carries its
/// utilization timeline only under `cfg.keep_timelines`.
pub fn run_phase(cfg: &JoinConfig, tasks: &[TaskSpec], order: &[usize]) -> (f64, PhaseSim) {
    if !cfg.simulate || tasks.is_empty() {
        return (0.0, PhaseSim::empty(cfg.topology.nodes));
    }
    let (topo, threads, cost) = (&cfg.topology, cfg.sim_threads(), CostModel::paper_machine());
    let sim = simulate_phase(topo, &cost, threads, tasks, order, cfg.keep_timelines);
    (sim.duration, sim)
}

/// What a driver phase tells the cost model: the simulator passes the
/// phase is made of (a partition phase over R then S is two), each a set
/// of task specs and the order they are queued in. Their simulated
/// times add up to the phase's `sim_seconds`.
#[derive(Default)]
pub struct PhaseModel(pub(crate) Vec<(Vec<TaskSpec>, Vec<usize>)>);

impl PhaseModel {
    /// A phase the cost model does not describe (simulated time 0).
    pub fn none() -> Self {
        PhaseModel::default()
    }

    /// One pass whose tasks are queued in spec order.
    pub fn pass(specs: Vec<TaskSpec>) -> Self {
        PhaseModel::none().and_pass(specs)
    }

    /// One pass whose tasks are queued in `order`.
    pub fn ordered(specs: Vec<TaskSpec>, order: Vec<usize>) -> Self {
        PhaseModel(vec![(specs, order)])
    }

    /// Append a pass queued in spec order.
    pub fn and_pass(mut self, specs: Vec<TaskSpec>) -> Self {
        let order = (0..specs.len()).collect();
        self.0.push((specs, order));
        self
    }
}

/// Stream `bytes` of a buffer with `placement` into/out of a task homed on
/// `home`, attributing traffic to the right nodes.
fn add_stream(spec: &mut TaskSpec, cfg: &JoinConfig, placement: Placement, bytes: f64) {
    match placement {
        Placement::Interleaved => {
            spec.stream_interleaved(bytes);
        }
        Placement::Node(n) => {
            spec.stream(n % cfg.topology.nodes, bytes);
        }
        Placement::Chunked { .. } => {
            // Chunk i of `parts` lives on node i % nodes; a thread reading
            // *its own* chunk reads locally. We model the common case in
            // the study: per-thread chunks aligned with thread homes.
            let home = spec.home_node.unwrap_or(0);
            spec.stream(home, bytes);
        }
    }
}

/// One spec per thread for a scan-shaped phase over `tuples` tuples.
fn scan_specs(cfg: &JoinConfig, tuples: usize, placement: Placement) -> Vec<TaskSpec> {
    let threads = cfg.sim_threads();
    let per_thread = tuples as f64 / threads as f64;
    (0..threads)
        .map(|t| {
            let mut spec = TaskSpec::new(cfg.topology.nodes);
            spec.on_node(cfg.topology.node_of_thread(t));
            add_stream(&mut spec, cfg, placement, per_thread * TUPLE_BYTES);
            spec.tlb(seq_tlb_misses(per_thread * TUPLE_BYTES, cfg) * tlb_walk_scale(cfg));
            spec
        })
        .collect()
}

// --------------------------------------------------------------------
// NOP family (global-table joins)
// --------------------------------------------------------------------

/// Build phase of NOP/NOPA/CHTJ: scan the build chunk, random-write into
/// the interleaved global table.
pub fn global_build_specs(
    cfg: &JoinConfig,
    r_len: usize,
    r_placement: Placement,
    table_bytes: f64,
    cpu_per_tuple: f64,
) -> Vec<TaskSpec> {
    let mut specs = scan_specs(cfg, r_len, r_placement);
    let per_thread = r_len as f64 / cfg.sim_threads() as f64;
    let p_miss = miss_probability(table_bytes, total_llc(cfg));
    let p_tlb = tlb_miss_probability(table_bytes, cfg);
    for spec in &mut specs {
        spec.random_interleaved(per_thread * p_miss);
        spec.tlb(per_thread * p_tlb * tlb_walk_scale(cfg));
        spec.cpu(per_thread * cpu_per_tuple);
    }
    specs
}

/// Probe phase of NOP/NOPA/CHTJ: scan the probe chunk, random-read the
/// global table `accesses_per_probe` times per tuple.
pub fn global_probe_specs(
    cfg: &JoinConfig,
    s_len: usize,
    s_placement: Placement,
    table_bytes: f64,
    accesses_per_probe: f64,
    cpu_per_tuple: f64,
) -> Vec<TaskSpec> {
    let mut specs = scan_specs(cfg, s_len, s_placement);
    let per_thread = s_len as f64 / cfg.sim_threads() as f64;
    let p_miss = miss_probability_zipf(table_bytes, total_llc(cfg), cfg.probe_theta);
    let p_tlb = tlb_miss_probability(table_bytes, cfg) * (1.0 - cfg.probe_theta).max(0.1);
    for spec in &mut specs {
        spec.random_interleaved(per_thread * accesses_per_probe * p_miss);
        spec.tlb(per_thread * accesses_per_probe * p_tlb * tlb_walk_scale(cfg));
        spec.cpu(per_thread * cpu_per_tuple);
    }
    specs
}

/// Cost-model view of one probe stage of a fused pipeline (see
/// `mmjoin_core::pipeline`): the tuples that actually reached it and the
/// resident structure they probed.
#[derive(Copy, Clone, Debug)]
pub struct FusedStageModel {
    /// Tuples entering this stage (stage 0 sees `|S|`; later stages see
    /// the previous stage's match count).
    pub tuples_in: usize,
    /// Footprint of the stage's build-side structure.
    pub table_bytes: f64,
    /// Random accesses per probe into that structure.
    pub accesses_per_probe: f64,
    /// CPU cost per probing tuple.
    pub cpu_per_tuple: f64,
}

/// Probe phase of a fused operator pipeline: one scan of the probe
/// relation, then per stage `tuples_in` random probes against that
/// stage's structure. The inter-stage batches themselves are charged
/// nothing — they are cache-resident by construction, which is exactly
/// the traffic a materialized two-step plan pays and a fused one avoids.
pub fn fused_probe_specs(
    cfg: &JoinConfig,
    s_len: usize,
    s_placement: Placement,
    stages: &[FusedStageModel],
) -> Vec<TaskSpec> {
    let mut specs = scan_specs(cfg, s_len, s_placement);
    let threads = cfg.sim_threads() as f64;
    for st in stages {
        let per_thread = st.tuples_in as f64 / threads;
        let p_miss = miss_probability_zipf(st.table_bytes, total_llc(cfg), cfg.probe_theta);
        let p_tlb = tlb_miss_probability(st.table_bytes, cfg) * (1.0 - cfg.probe_theta).max(0.1);
        for spec in &mut specs {
            spec.random_interleaved(per_thread * st.accesses_per_probe * p_miss);
            spec.tlb(per_thread * st.accesses_per_probe * p_tlb * tlb_walk_scale(cfg));
            spec.cpu(per_thread * st.cpu_per_tuple);
        }
    }
    specs
}

// --------------------------------------------------------------------
// Radix partitioning phases
// --------------------------------------------------------------------

/// How a partitioning pass writes its output.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PartitionWrites {
    /// Contiguous global output, interleaved over nodes (PRB/PRO/MWAY).
    GlobalInterleaved,
    /// Thread-local output (CPR*).
    Local,
}

/// The model of a partition phase: every relation of `inputs` goes
/// through one pass per entry of `fanouts`, in that order.
pub fn partition_model(
    cfg: &JoinConfig,
    inputs: &[&Relation],
    fanouts: &[usize],
    swwcb: bool,
    writes: PartitionWrites,
) -> PhaseModel {
    let mut model = PhaseModel::none();
    for rel in inputs {
        for &fanout in fanouts {
            model = model.and_pass(partition_pass_specs(
                cfg,
                rel.len(),
                rel.placement(),
                fanout,
                swwcb,
                writes,
            ));
        }
    }
    model
}

/// One partitioning pass over `tuples` tuples with fanout `fanout`.
pub fn partition_pass_specs(
    cfg: &JoinConfig,
    tuples: usize,
    input_placement: Placement,
    fanout: usize,
    swwcb: bool,
    writes: PartitionWrites,
) -> Vec<TaskSpec> {
    let threads = cfg.sim_threads();
    let per_thread = tuples as f64 / threads as f64;
    let bytes = per_thread * TUPLE_BYTES;
    let tlb_entries = cfg.topology.tlb_entries() as f64;

    // Scatter TLB pressure. When partition regions are smaller than a
    // page, several cursors share one page and each TLB entry covers
    // that many partitions; the LRU reuse distance between touches of
    // the same partition's page is `fanout` writes for a direct scatter
    // and 8·fanout for SWWCB (one flush per TUPLES_PER_CACHELINE
    // buffered tuples). Misses saturate once the reuse distance exceeds
    // the effective TLB reach — at which point the page size stops
    // mattering, which is why SWWCB algorithms are page-size-neutral in
    // the scatter while PRB (128-way direct) inverts (Figure 8).
    let region_bytes = (tuples as f64 * TUPLE_BYTES / fanout as f64).max(1.0);
    let partitions_per_page = (cfg.topology.page_bytes() as f64 / region_bytes).max(1.0);
    let effective_entries = tlb_entries * partitions_per_page;
    let scatter_tlb = if swwcb {
        let reuse = fanout as f64 * TUPLES_PER_CACHELINE as f64;
        let p = (1.0 - effective_entries / reuse).max(0.0);
        per_thread * p / TUPLES_PER_CACHELINE as f64
    } else {
        let p = (1.0 - effective_entries / fanout as f64).max(0.0);
        per_thread * p
    };

    // SWWCB banks: every thread holds one cache line of buffer state per
    // partition. Once all threads' banks no longer fit their shared LLC
    // slice, buffered writes themselves start missing — the
    // deterioration beyond 2^15 partitions in Figure 11 and the reason
    // Equation (1) caps the fanout (Section 7.3). Bank bytes scale with
    // the capacity scale like Equation (1)'s budget term.
    let bank_bytes_per_part = ((64.0 + 16.0) / cfg.topology.capacity_scale as f64).max(1.0);
    let threads_per_node = (threads as f64 / cfg.topology.nodes as f64).max(1.0);
    let total_bank_bytes = fanout as f64 * bank_bytes_per_part * threads_per_node;
    let p_bank_spill = if swwcb {
        (miss_probability(total_bank_bytes, cfg.topology.llc_bytes() as f64) - 0.02).max(0.0)
    } else {
        0.0
    };

    (0..threads)
        .map(|t| {
            let mut spec = TaskSpec::new(cfg.topology.nodes);
            spec.on_node(cfg.topology.node_of_thread(t));
            // Histogram pass: read input once.
            add_stream(&mut spec, cfg, input_placement, bytes);
            spec.cpu(per_thread * ops::HISTOGRAM);
            // Scatter pass: read input again, write output.
            add_stream(&mut spec, cfg, input_placement, bytes);
            // Output writes: every flushed cache line targets a different
            // partition region (a different page at realistic fanouts) —
            // Figure 4(b)'s "random remote writes". We charge each flush
            // as a random access (latency via MLP + bandwidth). SWWCB
            // emits one flush per TUPLES_PER_CACHELINE tuples; the
            // unbuffered scatter combines writes in cache only while one
            // open line per partition fits the L2, paying a cache-missing
            // store per tuple beyond that. Spilled bank lines add an
            // extra DRAM round trip per buffered write.
            let open_lines_bytes = fanout as f64 * 64.0;
            let flushes = if swwcb {
                per_thread / TUPLES_PER_CACHELINE as f64
            } else {
                let p_linemiss = miss_probability(open_lines_bytes, cfg.topology.l2_bytes() as f64);
                per_thread / TUPLES_PER_CACHELINE as f64 + per_thread * p_linemiss
            };
            let spill_accesses = per_thread * p_bank_spill;
            match writes {
                PartitionWrites::GlobalInterleaved => {
                    spec.random_interleaved(flushes + spill_accesses);
                }
                PartitionWrites::Local => {
                    let home = spec.home_node.unwrap();
                    spec.random(home, flushes + spill_accesses);
                }
            }
            spec.cpu(per_thread * ops::SCATTER);
            spec.tlb((scatter_tlb + 2.0 * seq_tlb_misses(bytes, cfg)) * tlb_walk_scale(cfg));
            spec
        })
        .collect()
}

/// Mirror of the cooperative skew handling (`crate::skew`) on the cost-
/// model plane: oversized co-partitions are split into `threads`
/// sub-tasks (appended at the end of the queue, where the cooperative
/// phase runs), so the simulator sees the same parallelism the real
/// execution gets.
pub fn split_skewed_sizes(
    r_sizes: &[usize],
    s_sizes: &[usize],
    order: &[usize],
    threads: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let (_, skewed) = crate::skew::classify_partitions(s_sizes, threads);
    if skewed.is_empty() {
        return (r_sizes.to_vec(), s_sizes.to_vec(), order.to_vec());
    }
    let mut r2 = r_sizes.to_vec();
    let mut s2 = s_sizes.to_vec();
    let mut order2: Vec<usize> = order
        .iter()
        .copied()
        .filter(|p| !skewed.contains(p))
        .collect();
    for &p in &skewed {
        let k = threads.max(1);
        let r_share = r_sizes[p] / k;
        let s_share = s_sizes[p] / k;
        // Reuse slot p for the first share, append the rest.
        r2[p] = r_sizes[p] - r_share * (k - 1);
        s2[p] = s_sizes[p] - s_share * (k - 1);
        order2.push(p);
        for _ in 1..k {
            r2.push(r_share);
            s2.push(s_share);
            order2.push(r2.len() - 1);
        }
    }
    (r2, s2, order2)
}

// --------------------------------------------------------------------
// Co-partition join phases
// --------------------------------------------------------------------

/// Where a co-partition's data lives for the join phase.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PartitionLayout {
    /// Contiguous partitions in an interleaved buffer: partition `p`
    /// resides wholly on `node_of_partition(p)` (PR* family).
    Contiguous,
    /// Chunked partitions: every partition is spread over all nodes
    /// (CPR* family).
    Spread,
}

/// One spec per co-partition join task.
///
/// `r_sizes[p]` / `s_sizes[p]` are tuple counts per partition;
/// `cpu_build` / `cpu_probe` depend on the table kind.
#[allow(clippy::too_many_arguments)]
pub fn join_task_specs(
    cfg: &JoinConfig,
    r_sizes: &[usize],
    s_sizes: &[usize],
    layout: PartitionLayout,
    cpu_build: f64,
    cpu_probe: f64,
    table_bytes_per_tuple: f64,
) -> Vec<TaskSpec> {
    let parts = r_sizes.len();
    let nodes = cfg.topology.nodes;
    // SMT halves the private L2 available to each hyperthread — the
    // reason partitioned joins degrade beyond 60 threads (Appendix B).
    let smt_share = if cfg.topology.uses_smt(cfg.sim_threads()) {
        2.0
    } else {
        1.0
    };
    let l2 = cfg.topology.l2_bytes() as f64 / smt_share;
    (0..parts)
        .map(|p| {
            let r = r_sizes[p] as f64;
            let s = s_sizes[p] as f64;
            let mut spec = TaskSpec::new(nodes);
            let bytes = (r + s) * TUPLE_BYTES;
            match layout {
                PartitionLayout::Contiguous => {
                    spec.stream(node_of_partition(p, parts, nodes), bytes);
                }
                PartitionLayout::Spread => {
                    spec.stream_interleaved(bytes);
                }
            }
            // Build-table accesses: random within the per-partition table;
            // cache-free if the table fits the (SMT-shared) L2 — the
            // whole point of radix partitioning. Spills land in the LLC
            // (partition tables are far smaller than the LLC share), so
            // they cost L3 latency as extra stall cycles, not DRAM trips.
            let table_bytes = r * table_bytes_per_tuple;
            if table_bytes > l2 {
                let p_miss = miss_probability(table_bytes, l2);
                const L3_HIT_OPS: f64 = 40.0; // ~15 ns L3 latency in op units
                spec.cpu((r + s) * p_miss * L3_HIT_OPS);
            }
            spec.cpu(r * cpu_build + s * cpu_probe);
            spec.tlb(
                (seq_tlb_misses(bytes, cfg) + (r + s) * tlb_miss_probability(table_bytes, cfg))
                    * tlb_walk_scale(cfg),
            );
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JoinConfig;

    fn cfg() -> JoinConfig {
        let mut c = JoinConfig::new(32);
        c.simulate = true;
        c
    }

    #[test]
    fn miss_probability_bounds() {
        assert!(miss_probability(1e3, 1e9) <= 0.02 + 1e-12);
        assert!((miss_probability(1e12, 1e6) - 1.0).abs() < 1e-3);
        assert_eq!(miss_probability(0.0, 1e6), 0.0);
    }

    #[test]
    fn nop_probe_slower_for_big_tables() {
        let cfg = cfg();
        let small = global_probe_specs(
            &cfg,
            1 << 20,
            Placement::Chunked { parts: 32 },
            1e6,
            1.0,
            5.0,
        );
        let big = global_probe_specs(
            &cfg,
            1 << 20,
            Placement::Chunked { parts: 32 },
            40e9,
            1.0,
            5.0,
        );
        let order: Vec<usize> = (0..small.len()).collect();
        let (t_small, _) = run_phase(&cfg, &small, &order);
        let (t_big, _) = run_phase(&cfg, &big, &order);
        assert!(t_big > 3.0 * t_small, "{t_big} vs {t_small}");
    }

    #[test]
    fn swwcb_reduces_partition_time_at_high_fanout() {
        let cfg = cfg();
        let n = 16 << 20;
        let with = partition_pass_specs(
            &cfg,
            n,
            Placement::Chunked { parts: 32 },
            16384,
            true,
            PartitionWrites::GlobalInterleaved,
        );
        let without = partition_pass_specs(
            &cfg,
            n,
            Placement::Chunked { parts: 32 },
            16384,
            false,
            PartitionWrites::GlobalInterleaved,
        );
        let order: Vec<usize> = (0..with.len()).collect();
        let (t_with, _) = run_phase(&cfg, &with, &order);
        let (t_without, _) = run_phase(&cfg, &without, &order);
        assert!(t_with < t_without, "{t_with} vs {t_without}");
    }

    #[test]
    fn local_writes_beat_global_writes() {
        // The CPRL argument: local scatter beats 3/4-remote scatter.
        let cfg = cfg();
        let n = 64 << 20;
        let global = partition_pass_specs(
            &cfg,
            n,
            Placement::Chunked { parts: 32 },
            4096,
            true,
            PartitionWrites::GlobalInterleaved,
        );
        let local = partition_pass_specs(
            &cfg,
            n,
            Placement::Chunked { parts: 32 },
            4096,
            true,
            PartitionWrites::Local,
        );
        let order: Vec<usize> = (0..global.len()).collect();
        let (t_global, _) = run_phase(&cfg, &global, &order);
        let (t_local, _) = run_phase(&cfg, &local, &order);
        assert!(t_local < t_global, "{t_local} vs {t_global}");
    }

    #[test]
    fn round_robin_order_speeds_up_contiguous_join_phase() {
        // The PROiS argument, end to end through the spec builders.
        let cfg = cfg();
        let parts = 512;
        // Per-partition tables sized to fit L2 (the Equation (1) regime),
        // so tasks are bandwidth-bound and scheduling order matters.
        let r_sizes = vec![8 << 10; parts];
        let s_sizes = vec![80 << 10; parts];
        let tasks = join_task_specs(
            &cfg,
            &r_sizes,
            &s_sizes,
            PartitionLayout::Contiguous,
            ops::BUILD,
            ops::PROBE,
            16.0,
        );
        let seq: Vec<usize> = (0..parts).collect();
        let rr = mmjoin_partition::task_order(
            parts,
            mmjoin_partition::ScheduleOrder::NumaRoundRobin {
                nodes: cfg.topology.nodes,
            },
        );
        let (t_seq, _) = run_phase(&cfg, &tasks, &seq);
        let (t_rr, _) = run_phase(&cfg, &tasks, &rr);
        assert!(t_rr < t_seq * 0.75, "rr {t_rr} vs seq {t_seq}");
    }

    #[test]
    fn spread_layout_is_order_insensitive() {
        // The CPRL argument: every task reads all nodes, so scheduling
        // order barely matters (Figure 6, bottom).
        let cfg = cfg();
        let parts = 512;
        let sizes = vec![64 << 10; parts];
        let tasks = join_task_specs(
            &cfg,
            &sizes,
            &sizes,
            PartitionLayout::Spread,
            ops::BUILD,
            ops::PROBE,
            16.0,
        );
        let seq: Vec<usize> = (0..parts).collect();
        let rr = mmjoin_partition::task_order(
            parts,
            mmjoin_partition::ScheduleOrder::NumaRoundRobin {
                nodes: cfg.topology.nodes,
            },
        );
        let (t_seq, _) = run_phase(&cfg, &tasks, &seq);
        let (t_rr, _) = run_phase(&cfg, &tasks, &rr);
        let rel = (t_seq - t_rr).abs() / t_seq;
        assert!(rel < 0.05, "order changed spread join by {rel}");
    }

    #[test]
    fn simulation_disabled_returns_zero() {
        let mut cfg = cfg();
        cfg.simulate = false;
        let tasks = scan_specs(&cfg, 1000, Placement::Interleaved);
        let (t, _) = run_phase(&cfg, &tasks, &[0]);
        assert_eq!(t, 0.0);
    }
}

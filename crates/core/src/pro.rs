//! The PR* and CPR* families.
//!
//! * `join_pro` — PRO/PRL/PRA and their improved-scheduling variants
//!   PROiS/PRLiS/PRAiS: one-pass parallel radix partitioning with SWWCB +
//!   streaming into a contiguous (interleaved) buffer, then independent
//!   co-partition joins pulled from a task queue. The only differences
//!   inside the family are the per-partition table and the queue order
//!   (Sections 5.1, 5.2, 6.2).
//! * `join_cpr` — CPRL/CPRA (Section 6.1): chunked partitioning with no
//!   global histogram; the join phase gathers every partition's chunk
//!   slices (large sequential, possibly remote reads) instead of having
//!   partitioned them with random remote writes.

use std::sync::Mutex;

use mmjoin_hashtable::{
    ArrayTable, IdentityHash, JoinTable, Packable, PackedTables, StChainedTable, StLinearTable,
    TableSpec,
};
use mmjoin_partition::swwcb;
use mmjoin_partition::{
    chunked_partition_on, partition_parallel_on, second_pass_on, task_order, ChunkedPartitions,
    PartitionedRelation, RadixFn, ScatterMode, ScheduleOrder,
};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::pool::{lock_recover, WorkerPool};
use mmjoin_util::trace::{MemTracer, NoTracer};
use mmjoin_util::tuple::{Key, Payload, Tuple};
use mmjoin_util::Relation;

use crate::config::{JoinConfig, TableKind};
use crate::exec::{join_morsels, morsel_map};
use crate::executor::QueuePolicy;
use crate::fault::MemCharge;
use crate::plan::JoinError;
use crate::run::{contain_panics, JoinRun, RunCtx};
use crate::spec::{self, ops, PartitionLayout, PartitionWrites, PhaseModel};
use crate::stats::JoinResult;
use crate::Algorithm;

/// The per-partition table of a partitioned join: its kind, and the
/// radix bits and key domain that size it.
#[derive(Copy, Clone, Debug)]
pub struct PartTable {
    pub kind: TableKind,
    pub bits: u32,
    pub domain: usize,
}

impl PartTable {
    /// Equation (1) bits for `kind` over `r_len` build tuples, unless
    /// the configuration overrides them.
    pub fn for_join(cfg: &JoinConfig, kind: TableKind, r_len: usize) -> Self {
        let bits = match kind {
            TableKind::Array => cfg.bits_for_array_tables(r_len),
            _ => cfg.bits_for_hash_tables(r_len),
        };
        PartTable {
            kind,
            bits,
            domain: cfg.domain(r_len),
        }
    }

    /// Table spec for a partition holding `part_r_len` build tuples.
    pub fn spec(&self, part_r_len: usize) -> TableSpec {
        match self.kind {
            TableKind::Array => TableSpec::array(self.bits, self.domain),
            // Hash on the bits above the partition digits, or identity
            // hashing would send every key of the partition to one bucket.
            _ => TableSpec::hashed_partition(part_r_len.max(1), self.bits),
        }
    }

    /// A table of this kind with nothing in it and next to no memory,
    /// for [`PartTable::build`] to fill. This and
    /// `PartTable::build_packed` are the only places in the workspace
    /// that construct a per-partition table from a [`TableKind`].
    pub fn unbuilt(&self) -> BuiltTable {
        let spec = TableSpec::hashed_partition(0, self.bits);
        match self.kind {
            TableKind::Chained => BuiltTable::Chained(JoinTable::with_spec(&spec)),
            TableKind::Linear => BuiltTable::Linear(JoinTable::with_spec(&spec)),
            TableKind::Array => BuiltTable::Array(JoinTable::with_spec(&spec)),
        }
    }

    /// The build half of a co-partition join, into `built` (from
    /// [`PartTable::unbuilt`]): what it held is gone, its buffer kept
    /// unless this partition's table needs a larger one — a join worker
    /// builds into one table task after task. The partition holds
    /// `part_r_len` build tuples, given as `r_slices` (one slice, or one
    /// per chunk). `tr` sees every tuple read and every table access.
    pub fn build<'a, Tr: MemTracer>(
        &self,
        built: &mut BuiltTable,
        part_r_len: usize,
        r_slices: impl IntoIterator<Item = &'a [Tuple]>,
        tr: &mut Tr,
    ) {
        fn refill<'a, T: JoinTable, Tr: MemTracer>(
            table: &mut T,
            spec: &TableSpec,
            r_slices: impl IntoIterator<Item = &'a [Tuple]>,
            tr: &mut Tr,
        ) {
            table.reset(spec);
            for slice in r_slices {
                table.insert_batch_with(slice, tr);
            }
        }
        let spec = self.spec(part_r_len);
        match (self.kind, built) {
            (TableKind::Chained, BuiltTable::Chained(t)) => refill(t, &spec, r_slices, tr),
            (TableKind::Linear, BuiltTable::Linear(t)) => refill(t, &spec, r_slices, tr),
            (TableKind::Array, BuiltTable::Array(t)) => refill(t, &spec, r_slices, tr),
            (kind, _) => panic!("a {kind:?} table is built into its own `unbuilt()` storage"),
        }
    }

    /// One table of this kind per partition of `sizes` build tuples,
    /// packed in one block and built off `ctx`'s morsel queue from each
    /// partition's `slices` ([`build_packed`]): a cached PR* build side.
    pub(crate) fn build_packed<'a, I: IntoIterator<Item = &'a [Tuple]>>(
        &self,
        ctx: &RunCtx,
        sizes: &[usize],
        slices: impl Fn(usize) -> I + Sync,
    ) -> PackedPartTables {
        let spec = |n| self.spec(n);
        match self.kind {
            TableKind::Chained => PackedPartTables::Chained(build_packed(ctx, sizes, spec, slices)),
            TableKind::Linear => PackedPartTables::Linear(build_packed(ctx, sizes, spec, slices)),
            TableKind::Array => PackedPartTables::Array(build_packed(ctx, sizes, spec, slices)),
        }
    }

    /// Per-tuple CPU cost of (build, probe).
    pub(crate) fn cpu(&self) -> (f64, f64) {
        match self.kind {
            TableKind::Chained | TableKind::Linear => (ops::BUILD, ops::PROBE),
            TableKind::Array => (ops::ARRAY, ops::ARRAY),
        }
    }

    /// Approximate per-build-tuple table footprint for the cost model.
    pub(crate) fn bytes_per_tuple(&self, r_len: usize) -> f64 {
        match self.kind {
            // next_pow2(n) 4-byte heads + 12 bytes (tuple + link) per
            // tuple: 16 at a power-of-two partition, 20 just above one.
            TableKind::Chained => 16.0,
            // next_pow2(2n) 8-byte slots.
            TableKind::Linear => 16.0,
            TableKind::Array => {
                let slots = (self.domain >> self.bits).max(1) as f64 + 2.0;
                let avg_part = (r_len as f64 / (1u64 << self.bits) as f64).max(1.0);
                slots * 4.0 / avg_part
            }
        }
    }
}

/// The built table of one co-partition ([`PartTable::build`]), read-only
/// from here on: the probe half of the join, shareable across threads.
pub enum BuiltTable {
    Chained(StChainedTable<IdentityHash>),
    Linear(StLinearTable<IdentityHash>),
    Array(ArrayTable),
}

impl BuiltTable {
    /// Probe a batch, `f(probe_tuple, build_payload)` per match in probe
    /// order; `unique` selects first-match probes (the study's PK
    /// assumption). `tr` sees every tuple read and every table access.
    #[inline]
    pub fn probe_batch<Tr: MemTracer, F: FnMut(&Tuple, Payload)>(
        &self,
        probes: &[Tuple],
        unique: bool,
        tr: &mut Tr,
        f: F,
    ) {
        match self {
            BuiltTable::Chained(t) => t.probe_batch_with(probes, unique, tr, f),
            BuiltTable::Linear(t) => t.probe_batch_with(probes, unique, tr, f),
            BuiltTable::Array(t) => t.probe_batch_with(probes, unique, tr, f),
        }
    }

    /// Probe one key of a unique build side: `f` sees the first match.
    #[inline]
    pub fn probe_first<F: FnMut(Payload)>(&self, key: Key, f: F) {
        match self {
            BuiltTable::Chained(t) => t.probe_unique(key, f),
            BuiltTable::Linear(t) => t.probe_unique(key, f),
            BuiltTable::Array(t) => t.probe_unique(key, f),
        }
    }

    /// Bytes of memory the table holds.
    pub fn memory_bytes(&self) -> usize {
        match self {
            BuiltTable::Chained(t) => t.memory_bytes(),
            BuiltTable::Linear(t) => t.memory_bytes(),
            BuiltTable::Array(t) => t.memory_bytes(),
        }
    }
}

/// A cached partitioned build side's tables ([`PartTable::build_packed`]),
/// one per partition with build tuples, packed in one block of its kind.
pub(crate) enum PackedPartTables {
    Chained(PackedTables<StChainedTable<IdentityHash>>),
    Linear(PackedTables<StLinearTable<IdentityHash>>),
    Array(PackedTables<ArrayTable>),
}

impl PackedPartTables {
    /// Probe each partition's window `routed[bounds[p]..bounds[p + 1]]`
    /// against its table.
    pub(crate) fn probe_routed<F: FnMut(&Tuple, Payload)>(
        &self,
        bounds: &[usize],
        routed: &[Tuple],
        unique: bool,
        f: F,
    ) {
        fn each<K: Packable>(
            tables: &PackedTables<K>,
            bounds: &[usize],
            routed: &[Tuple],
            unique: bool,
            mut f: impl FnMut(&Tuple, Payload),
        ) {
            for (p, w) in bounds.windows(2).enumerate() {
                if w[0] < w[1] {
                    tables.probe_batch(p, &routed[w[0]..w[1]], unique, &mut f);
                }
            }
        }
        match self {
            PackedPartTables::Chained(t) => each(t, bounds, routed, unique, f),
            PackedPartTables::Linear(t) => each(t, bounds, routed, unique, f),
            PackedPartTables::Array(t) => each(t, bounds, routed, unique, f),
        }
    }

    /// Bytes of the block.
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            PackedPartTables::Chained(t) => t.memory_bytes(),
            PackedPartTables::Linear(t) => t.memory_bytes(),
            PackedPartTables::Array(t) => t.memory_bytes(),
        }
    }
}

/// One table of kind `K` per partition of `capacities` build tuples (none
/// for 0), of `spec(capacity)`, packed in one block and built off the
/// morsel queue: each task clears its own range, then — unless the run
/// was stopped, which leaves the table empty — inserts its partition's
/// `slices`. What the cached PR* build sides and SHHJ's resident
/// partitions keep their tables in.
pub(crate) fn build_packed<'a, K: Packable, I: IntoIterator<Item = &'a [Tuple]>>(
    ctx: &RunCtx,
    capacities: &[usize],
    spec: impl Fn(usize) -> TableSpec,
    slices: impl Fn(usize) -> I + Sync,
) -> PackedTables<K> {
    let mut tables = PackedTables::new(capacities, spec);
    let ranges: Vec<_> = tables.split_mut().into_iter().map(Mutex::new).collect();
    let order: Vec<usize> = (0..capacities.len())
        .filter(|&p| capacities[p] > 0)
        .collect();
    morsel_map(
        ctx,
        &order,
        capacities.len(),
        QueuePolicy::Shared,
        || (),
        |_, p| {
            let range = lock_recover(&ranges[p]).take();
            let mut table = range.expect("one morsel per table").clear();
            if !ctx.tick() {
                slices(p).into_iter().for_each(|s| table.insert_batch(s));
            }
        },
    );
    drop(ranges);
    tables
}

/// A partitioned relation as the join phase reads it: partition `p` is
/// one slice (contiguous partitioning) or one slice per chunk (chunked).
pub(crate) trait CoPartitions: Sync {
    fn parts(&self) -> usize;
    fn part_len(&self, p: usize) -> usize;
    fn slices(&self, p: usize) -> impl Iterator<Item = &[Tuple]>;

    fn sizes(&self) -> Vec<usize> {
        (0..self.parts()).map(|p| self.part_len(p)).collect()
    }
}

impl CoPartitions for PartitionedRelation {
    fn parts(&self) -> usize {
        PartitionedRelation::parts(self)
    }
    fn part_len(&self, p: usize) -> usize {
        PartitionedRelation::part_len(self, p)
    }
    fn slices(&self, p: usize) -> impl Iterator<Item = &[Tuple]> {
        std::iter::once(self.partition(p))
    }
}

impl CoPartitions for ChunkedPartitions {
    fn parts(&self) -> usize {
        ChunkedPartitions::parts(self)
    }
    fn part_len(&self, p: usize) -> usize {
        ChunkedPartitions::part_len(self, p)
    }
    fn slices(&self, p: usize) -> impl Iterator<Item = &[Tuple]> {
        ChunkedPartitions::slices(self, p)
    }
}

/// The co-partition join, the one body every partitioned driver, the
/// skew path's serial twin, `join_index`, Q19 and Table 4's replay run:
/// build `table` into `built` over the `r_slices` of a partition of
/// `part_r_len` build tuples, then probe it with the `s_slices` (pulled
/// only once the build is done), `on_match(probe_tuple, build_payload)`
/// per match. `built` is the caller's to keep from one co-partition to
/// the next ([`PartTable::unbuilt`] before the first). `unique` selects
/// first-match probes; the joins pass [`NoTracer`], the replay
/// (`instrumented.rs`) its cache simulator.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn join_co_partition<'a, Tr: MemTracer>(
    table: PartTable,
    unique: bool,
    built: &mut BuiltTable,
    part_r_len: usize,
    r_slices: impl IntoIterator<Item = &'a [Tuple]>,
    s_slices: impl IntoIterator<Item = &'a [Tuple]>,
    tr: &mut Tr,
    mut on_match: impl FnMut(&Tuple, Payload),
) {
    table.build(built, part_r_len, r_slices, tr);
    for slice in s_slices {
        built.probe_batch(slice, unique, tr, &mut on_match);
    }
}

/// The host work of a join phase: co-partition tasks pulled off the
/// morsel queue(s) in `order` — a worker builds every table it needs
/// into one buffer, charged to the budget at the largest it has been,
/// and merges one checksum — then, with skew handling, the oversized
/// partitions one at a time, all threads probing (extension: the paper
/// leaves this unexploited, Appendix A). `unique` is whether the build
/// keys are: it selects first-match probes.
#[allow(clippy::too_many_arguments)]
fn join_co_partitions<P: CoPartitions>(
    p: &RunCtx,
    cfg: &JoinConfig,
    unique: bool,
    table: PartTable,
    policy: QueuePolicy,
    r: &P,
    s: &P,
    order: &[usize],
) -> JoinChecksum {
    let (queue_order, skewed) = if cfg.skew_handling {
        let (_, skewed) = crate::skew::classify_partitions(&s.sizes(), cfg.threads);
        let filtered: Vec<usize> = order
            .iter()
            .copied()
            .filter(|part| !skewed.contains(part))
            .collect();
        (filtered, skewed)
    } else {
        (order.to_vec(), Vec::new())
    };
    let tuples = queue_order
        .iter()
        .map(|&part| r.part_len(part) + s.part_len(part))
        .sum();
    let parts = r.parts();
    let mut total = join_morsels(p, &queue_order, parts, tuples, policy, |pull| {
        let mut c = JoinChecksum::new();
        let (mut built, mut table_charge) = (table.unbuilt(), p.empty_charge());
        while let Some(part) = pull() {
            let part_r_len = r.part_len(part);
            let table_bytes = table.spec(part_r_len).table_bytes();
            if p.tick() || !p.try_grow(&mut table_charge, table_bytes) {
                break;
            }
            join_co_partition(
                table,
                unique,
                &mut built,
                part_r_len,
                r.slices(part),
                s.slices(part),
                &mut NoTracer,
                |t, bp| c.add(t.key, bp, t.payload),
            );
        }
        c
    });
    for part in skewed {
        if p.should_stop() {
            break;
        }
        let part_r_len = r.part_len(part);
        let Some(_table_charge) = p.try_charge(table.spec(part_r_len).table_bytes()) else {
            break;
        };
        let r_slices: Vec<&[Tuple]> = r.slices(part).collect();
        let s_slices: Vec<&[Tuple]> = s.slices(part).collect();
        total.merge(crate::skew::join_skewed_partition(
            p, unique, table, &r_slices, &s_slices,
        ));
    }
    total
}

/// The cost model's view of a join phase over co-partitions `r`/`s`
/// queued in `order`; `split_skewed` mirrors cooperative skew handling.
fn join_model<P: CoPartitions>(
    cfg: &JoinConfig,
    table: PartTable,
    layout: PartitionLayout,
    r: &P,
    s: &P,
    order: Vec<usize>,
    split_skewed: bool,
) -> PhaseModel {
    let (r_sizes, s_sizes) = (r.sizes(), s.sizes());
    let r_len = r_sizes.iter().sum();
    let (r_sizes, s_sizes, order) = if split_skewed {
        spec::split_skewed_sizes(&r_sizes, &s_sizes, &order, cfg.sim_threads())
    } else {
        (r_sizes, s_sizes, order)
    };
    let (cpu_build, cpu_probe) = table.cpu();
    let tasks = spec::join_task_specs(
        cfg,
        &r_sizes,
        &s_sizes,
        layout,
        cpu_build,
        cpu_probe,
        table.bytes_per_tuple(r_len),
    );
    PhaseModel::ordered(tasks, order)
}

/// Budget bytes of a one-pass SWWCB partition phase: partitioned copies
/// of both inputs (8 B/tuple) plus one SWWCB bank per worker.
pub(crate) fn swwcb_partition_bytes(
    cfg: &JoinConfig,
    r: &Relation,
    s: &Relation,
    parts: usize,
) -> usize {
    (r.len() + s.len()) * 8 + cfg.threads * swwcb::bank_bytes(parts)
}

/// The partition phase every partitioned driver starts with: reserve
/// `bytes` of budget, then run R and S (in that order, like the original
/// drivers) through `partition`; `model` describes the passes to the
/// cost model.
pub(crate) fn partition_phase<P>(
    run: &mut JoinRun,
    r: &Relation,
    s: &Relation,
    bytes: usize,
    model: PhaseModel,
    partition: impl Fn(&[Tuple], &RunCtx) -> P,
) -> Result<(P, P), JoinError> {
    run.reserve("partition", bytes)?;
    run.phase(
        "partition",
        |p| Ok((partition(r.tuples(), p), partition(s.tuples(), p))),
        |_| model,
    )
}

/// PRO family: contiguous partitioning + task-queue co-partition joins.
pub(crate) fn join_pro(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    kind: TableKind,
    improved_sched: bool,
) -> Result<JoinResult, JoinError> {
    let alg = match (kind, improved_sched) {
        (TableKind::Chained, false) => Algorithm::Pro,
        (TableKind::Linear, false) => Algorithm::Prl,
        (TableKind::Array, false) => Algorithm::Pra,
        (TableKind::Chained, true) => Algorithm::ProIs,
        (TableKind::Linear, true) => Algorithm::PrlIs,
        (TableKind::Array, true) => Algorithm::PraIs,
    };
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(alg, cfg);
    let table = PartTable::for_join(cfg, kind, r.len());
    let f = RadixFn::new(table.bits);
    let parts = f.fanout();

    let writes = PartitionWrites::GlobalInterleaved;
    let (pr, ps) = partition_phase(
        &mut run,
        r,
        s,
        swwcb_partition_bytes(cfg, r, s, parts),
        spec::partition_model(cfg, &[r, s], &[parts], true, writes),
        |tuples, p| partition_parallel_on(tuples, f, p, ScatterMode::Swwcb),
    )?;

    // Join phase. The simulator still sees the queue *insertion order*
    // (sequential vs NUMA round-robin); on the host, improved scheduling
    // is the executor's NUMA-local queue policy with work stealing.
    let nodes = cfg.topology.nodes;
    let (order_kind, policy) = if improved_sched {
        (
            ScheduleOrder::NumaRoundRobin { nodes },
            QueuePolicy::NumaLocal { nodes },
        )
    } else {
        (ScheduleOrder::Sequential, QueuePolicy::Shared)
    };
    let order = task_order(parts, order_kind);
    let checksum = run.phase(
        "join",
        |p| {
            Ok(join_co_partitions(
                p, cfg, unique, table, policy, &pr, &ps, &order,
            ))
        },
        |_| {
            let layout = PartitionLayout::Contiguous;
            let split = cfg.skew_handling;
            join_model(cfg, table, layout, &pr, &ps, order.clone(), split)
        },
    )?;
    Ok(run.finish(checksum, Some(table.bits)))
}

/// PRO with *two-pass* partitioning (total bits split evenly across the
/// passes) — the configuration Figure 2 compares against single-pass
/// partitioning, and the one driver variant [`crate::Join`] does not
/// reach: validated and fault-contained like `Join::run`, and with the
/// array table refused a build side as PRA is.
pub fn join_pro_two_pass(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    kind: TableKind,
) -> Result<JoinResult, JoinError> {
    cfg.validate()?;
    if kind == TableKind::Array {
        crate::plan::check_dense_domain(Algorithm::Pra, r, cfg)?;
    }
    let mut table = PartTable::for_join(cfg, kind, r.len());
    table.bits = table.bits.max(2);
    contain_panics(|| two_pass_join(Algorithm::Pro, r, s, cfg, table, ScatterMode::Swwcb))
}

/// Two radix passes over both inputs (total bits split evenly), then
/// the co-partition joins in sequential task order — PRB, and PRO's
/// two-pass configuration.
pub(crate) fn two_pass_join(
    alg: Algorithm,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    table: PartTable,
    mode: ScatterMode,
) -> Result<JoinResult, JoinError> {
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(alg, cfg);
    let bits1 = table.bits / 2;
    let bits2 = table.bits - bits1;

    let fanouts = [1usize << bits1, 1usize << bits2];
    let swwcb = mode == ScatterMode::Swwcb;
    let writes = PartitionWrites::GlobalInterleaved;
    // Pass 2 writes back over pass 1's output, so the phase holds one
    // partitioned copy of both inputs (8 B/tuple), reserved ahead; and,
    // while a relation's pass 2 runs, each worker's bounce buffer, as long
    // as its longest pass-1 partition: charged once pass 1 has counted it.
    run.reserve("partition", (r.len() + s.len()) * 8)?;
    let (pr, ps) = run.phase(
        "partition",
        |p| {
            let two_pass = |tuples: &[Tuple]| -> Result<PartitionedRelation, JoinError> {
                let pass1 = partition_parallel_on(tuples, RadixFn::new(bits1), p, mode);
                let bytes = p.workers() * pass1.longest() * 8;
                let budget = p.budget();
                budget
                    .try_reserve(bytes)
                    .map_err(|be| p.budget_error(bytes, be))?;
                let _bounce = MemCharge::new(budget, bytes);
                Ok(second_pass_on(pass1, bits2, p))
            };
            Ok((two_pass(r.tuples())?, two_pass(s.tuples())?))
        },
        |_| spec::partition_model(cfg, &[r, s], &fanouts, swwcb, writes),
    )?;

    let order = task_order(1usize << table.bits, ScheduleOrder::Sequential);
    let policy = QueuePolicy::Shared;
    let checksum = run.phase(
        "join",
        |p| {
            Ok(join_co_partitions(
                p, cfg, unique, table, policy, &pr, &ps, &order,
            ))
        },
        |_| {
            let layout = PartitionLayout::Contiguous;
            join_model(cfg, table, layout, &pr, &ps, order.clone(), false)
        },
    )?;
    Ok(run.finish(checksum, Some(table.bits)))
}

/// CPR family: chunked partitioning + gather-style co-partition joins.
pub(crate) fn join_cpr(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    kind: TableKind,
) -> Result<JoinResult, JoinError> {
    let alg = match kind {
        TableKind::Linear => Algorithm::Cprl,
        TableKind::Array => Algorithm::Cpra,
        TableKind::Chained => Algorithm::Cprl, // not a paper variant; linear is canonical
    };
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(alg, cfg);
    let table = PartTable::for_join(cfg, kind, r.len());
    let f = RadixFn::new(table.bits);
    let parts = f.fanout();

    // Chunk-local partition phase.
    let (cr, cs) = partition_phase(
        &mut run,
        r,
        s,
        swwcb_partition_bytes(cfg, r, s, parts),
        spec::partition_model(cfg, &[r, s], &[parts], true, PartitionWrites::Local),
        |tuples, p| chunked_partition_on(tuples, f, p, ScatterMode::Swwcb),
    )?;

    // Join phase: gather chunk slices per partition.
    let order = task_order(parts, ScheduleOrder::Sequential);
    let policy = QueuePolicy::Shared;
    let checksum = run.phase(
        "join",
        |p| {
            Ok(join_co_partitions(
                p, cfg, unique, table, policy, &cr, &cs, &order,
            ))
        },
        |_| {
            let layout = PartitionLayout::Spread;
            let split = cfg.skew_handling;
            join_model(cfg, table, layout, &cr, &cs, order.clone(), split)
        },
    )?;
    Ok(run.finish(checksum, Some(table.bits)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;

    fn workload(n: usize) -> (Relation, Relation) {
        let r = gen_build_dense(n, 5, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(n * 3, n, 6, Placement::Chunked { parts: 4 });
        (r, s)
    }

    fn cfg_with(threads: usize, bits: Option<u32>) -> JoinConfig {
        let mut cfg = JoinConfig::new(threads);
        cfg.simulate = false;
        cfg.radix_bits = bits;
        cfg
    }

    #[test]
    fn pro_family_matches_reference() {
        let (r, s) = workload(4_000);
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Chained, TableKind::Linear, TableKind::Array] {
            for improved in [false, true] {
                let res = join_pro(&r, &s, &cfg_with(4, Some(5)), kind, improved).unwrap();
                assert_eq!(res.matches, expect.count, "{kind:?} improved={improved}");
                assert_eq!(res.checksum, expect.digest, "{kind:?}");
            }
        }
    }

    #[test]
    fn cpr_family_matches_reference() {
        let (r, s) = workload(4_000);
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Linear, TableKind::Array] {
            for threads in [1, 3, 8] {
                let res = join_cpr(&r, &s, &cfg_with(threads, Some(6)), kind).unwrap();
                assert_eq!(res.matches, expect.count, "{kind:?} threads={threads}");
                assert_eq!(res.checksum, expect.digest);
            }
        }
    }

    #[test]
    fn two_pass_pro_matches_reference() {
        let (r, s) = workload(4_000);
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Chained, TableKind::Linear, TableKind::Array] {
            let res = join_pro_two_pass(&r, &s, &cfg_with(4, Some(6)), kind).unwrap();
            assert_eq!(res.matches, expect.count, "{kind:?}");
            assert_eq!(res.checksum, expect.digest, "{kind:?}");
        }
    }

    /// A tracer sees of the co-partition join — `PartTable::build`, then
    /// `BuiltTable::probe_batch` — what the tables report for the same
    /// build and probes: the counts `hashtable/tests/table_differential.rs`
    /// pins per table (build + probe here), which `repro tab4` sums.
    #[test]
    fn traced_co_partition_join_reports_the_tables_counts() {
        use mmjoin_util::trace::CountingTracer;
        // Keys 1 and 9 share a bucket of four and a home slot of eight;
        // 17 shares them too and is absent.
        let build = [Tuple::new(1, 10), Tuple::new(9, 90), Tuple::new(2, 20)];
        let probes: Vec<Tuple> = [1, 9, 17, 2].map(|k| Tuple::new(k, k)).to_vec();
        let counts = |kind, unique| {
            let table = PartTable {
                kind,
                bits: 0,
                domain: 9,
            };
            let (mut tr, mut hits) = (CountingTracer::default(), 0);
            let (r, s) = (std::iter::once(&build[..]), std::iter::once(&probes[..]));
            let (built, n) = (&mut table.unbuilt(), build.len());
            join_co_partition(table, unique, built, n, r, s, &mut tr, |_, _| hits += 1);
            assert_eq!(hits, 3, "{kind:?} unique={unique}");
            (tr.reads, tr.read_bytes, tr.writes, tr.write_bytes, tr.ops)
        };
        let linear = |unique| counts(TableKind::Linear, unique);
        assert_eq!(linear(false), (8 + 19, 8 * 8 + 19 * 8, 3, 3 * 8, 17 + 34));
        assert_eq!(linear(true), (8 + 13, 8 * 8 + 13 * 8, 3, 3 * 8, 17 + 28));
        let chained = |unique| counts(TableKind::Chained, unique);
        assert_eq!(chained(false), (6 + 22, 36 + 132, 9, 3 * 16, 21 + 33));
        assert_eq!(chained(true), (6 + 20, 36 + 120, 9, 3 * 16, 21 + 30));
        for unique in [false, true] {
            let array = counts(TableKind::Array, unique);
            assert_eq!(array, (3 + 7, 3 * 8 + 4 * 8 + 3 * 4, 3, 3 * 4, 6 + 8));
        }
    }

    #[test]
    fn skewed_probe_is_correct() {
        let n = 2_000;
        let r = gen_build_dense(n, 7, Placement::Chunked { parts: 4 });
        let s = gen_probe_zipf(10_000, n, 0.99, 8, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        let res = join_pro(&r, &s, &cfg_with(4, Some(4)), TableKind::Linear, true).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
        let res = join_cpr(&r, &s, &cfg_with(4, Some(4)), TableKind::Linear).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }

    #[test]
    fn skew_handling_preserves_results() {
        let n = 2_000;
        let r = gen_build_dense(n, 41, Placement::Chunked { parts: 4 });
        let s = gen_probe_zipf(30_000, n, 0.99, 42, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for kind in [TableKind::Linear, TableKind::Array] {
            let mut cfg = cfg_with(4, Some(5));
            cfg.skew_handling = true;
            let a = join_pro(&r, &s, &cfg, kind, true).unwrap();
            let b = join_cpr(&r, &s, &cfg, kind).unwrap();
            for res in [&a, &b] {
                assert_eq!(res.matches, expect.count, "{kind:?}");
                assert_eq!(res.checksum, expect.digest, "{kind:?}");
            }
        }
    }

    #[test]
    fn equation_one_bits_applied_when_unset() {
        let (r, s) = workload(2_000);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        let res = join_pro(&r, &s, &cfg, TableKind::Linear, false).unwrap();
        assert!(res.radix_bits.is_some());
        assert!(res.radix_bits.unwrap() >= 1);
    }

    #[test]
    fn empty_relations() {
        let empty = Relation::from_tuples(&[], Placement::Interleaved);
        let (r, _) = workload(100);
        let cfg = cfg_with(2, Some(3));
        assert_eq!(
            join_pro(&empty, &r, &cfg, TableKind::Linear, false)
                .unwrap()
                .matches,
            0
        );
        assert_eq!(
            join_pro(&r, &empty, &cfg, TableKind::Chained, false)
                .unwrap()
                .matches,
            0
        );
        assert_eq!(
            join_cpr(&empty, &empty, &cfg, TableKind::Linear)
                .unwrap()
                .matches,
            0
        );
    }

    #[test]
    fn simulated_time_present_when_enabled() {
        let (r, s) = workload(2_000);
        let mut cfg = JoinConfig::new(4);
        cfg.radix_bits = Some(4);
        let res = join_pro(&r, &s, &cfg, TableKind::Linear, false).unwrap();
        assert!(res.total_sim() > 0.0);
        assert!(res.sim_of("partition") > 0.0);
        assert!(res.sim_of("join") > 0.0);
    }
}

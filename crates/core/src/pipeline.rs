//! The composable operator pipeline — fused multi-join execution with
//! late materialization (DESIGN.md §12).
//!
//! The thirteen classic drivers each own their morsel loops end-to-end,
//! so a query chaining two joins pays a full materialization of the
//! intermediate result between them. This module decomposes the ported
//! drivers into the four operator roles of a push-based pipeline:
//!
//! * **Partition** — radix-route a batch to a partitioned build side's
//!   per-partition tables (PR* stages only; fused into the probe here:
//!   one in-cache histogram → prefix → scatter per routing batch, never
//!   a materialized partitioned copy of the probe input).
//! * **Build** — construct a stage's immutable build side. Runs once,
//!   at [`BuildSide::prepare`] time; the result is `Arc`-held and
//!   reusable across pipelines (the hook for a hot-relation cache).
//! * **Probe** — probe one build side with a cache-resident batch of
//!   `(key, rid)` pairs, emitting `(build_payload, rid)` pairs.
//! * **Materialize** — the sink: gather the probe-side payload by `rid`
//!   and fold matches into the order-independent [`JoinChecksum`].
//!
//! Between stages only fixed-size batches of 8-byte `(key, rid)` tuples
//! flow — payload columns are gathered *once*, at the sink (late
//! materialization), so an `n`-join chain avoids `n-1` materialized
//! intermediate relations entirely.
//!
//! Fault plumbing and per-phase spans flow through unchanged: the build
//! and the fused probe are each a [`JoinRun`] whose phases go through
//! [`JoinRun::phase`] like any classic driver's — deadline and
//! cancellation checks at morsel granularity, memory reserved before
//! large allocations, counters and spans from the run's own sink.

use std::sync::{Arc, Mutex};

use mmjoin_hashtable::{
    ConciseHashTable, ConcurrentArrayTable, ConcurrentLinearTable, IdentityHash, MultiplicativeHash,
};
use mmjoin_partition::swwcb;
use mmjoin_partition::{partition_parallel_on, route_into, RadixFn, ScatterMode};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::pool::{into_inner_recover, lock_recover, WorkerPool};
use mmjoin_util::tuple::{Payload, Tuple};
use mmjoin_util::Relation;

use crate::config::{JoinConfig, TableKind};
use crate::exec::MORSEL;
use crate::plan::JoinError;
use crate::pro::{CoPartitions, PackedPartTables, PartTable};
use crate::run::{contain_panics, JoinRun};
use crate::spec::{self, ops, FusedStageModel, PartitionLayout, PartitionWrites, PhaseModel};
use crate::stats::{JoinResult, PhaseStat};
use crate::Algorithm;

/// Drivers ported onto the operator pipeline; the rest still run only
/// through their monolithic drivers (see the matrix in README.md).
pub const PORTED: [Algorithm; 6] = [
    Algorithm::Nop,
    Algorithm::Nopa,
    Algorithm::Chtj,
    Algorithm::Pro,
    Algorithm::Prl,
    Algorithm::Pra,
];

/// Whether `algorithm` has an operator-pipeline port.
pub fn is_ported(algorithm: Algorithm) -> bool {
    PORTED.contains(&algorithm)
}

/// One stage's immutable build side: the algorithm-specific table(s)
/// plus the phase stats of their construction. `Arc`-held and reusable
/// across pipelines — build once, probe from many plans.
pub struct BuildSide {
    algorithm: Algorithm,
    inner: BuildInner,
    phases: Vec<PhaseStat>,
    radix_bits: Option<u32>,
    memory_bytes: usize,
    /// Whether the build relation's keys are unique: probes stop at
    /// their first match.
    unique: bool,
    /// Cost-model shape of one probe into this side.
    accesses_per_probe: f64,
    cpu_per_probe: f64,
}

enum BuildInner {
    /// NOP: one global lock-free linear-probing table.
    Linear(ConcurrentLinearTable<IdentityHash>),
    /// NOPA: one global payload array over the dense key domain.
    Array(ConcurrentArrayTable),
    /// CHTJ: the bulkloaded, read-only concise hash table.
    Concise(ConciseHashTable<MultiplicativeHash>),
    /// PRO/PRL/PRA: per-partition tables; probes are radix-routed.
    Partitioned {
        radix: RadixFn,
        tables: PackedPartTables,
    },
}

impl std::fmt::Debug for BuildSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildSide")
            .field("algorithm", &self.algorithm)
            .field("memory_bytes", &self.memory_bytes)
            .field("radix_bits", &self.radix_bits)
            .finish_non_exhaustive()
    }
}

impl BuildSide {
    /// Run `algorithm`'s build-side phases over `r` and freeze the
    /// result for probing. Exactly the monolithic driver's partition +
    /// build work — same memory charges, same failpoints, same phase
    /// spans — minus everything probe-related.
    ///
    /// The memory budget is charged for the construction-time peak and
    /// released when this returns; how long the `Arc` lives afterwards
    /// is the caller's concern.
    pub fn prepare(
        algorithm: Algorithm,
        r: &Relation,
        cfg: &JoinConfig,
    ) -> Result<Arc<BuildSide>, JoinError> {
        cfg.validate()?;
        contain_panics(|| prepare_inner(algorithm, r, cfg))
    }

    /// The driver this side was built for.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Bytes the frozen table(s) hold: of a partitioned side, the one
    /// block its per-partition tables are packed in. Under huge-page
    /// arenas that is what is resident, give or take the block's last
    /// page, so a cache bounding these bytes bounds its memory.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Radix bits of a partitioned side (`None` for global tables).
    pub fn radix_bits(&self) -> Option<u32> {
        self.radix_bits
    }

    /// Phase stats of the build-side construction.
    pub fn build_phases(&self) -> &[PhaseStat] {
        &self.phases
    }

    /// Tuples this side takes per probe call: a partitioned side a
    /// routing batch — [`ROUTE_RUN`] probes per partition, [`ROUTE_MAX`]
    /// at most — whatever `batch` flows between the stages; a global
    /// side `batch`.
    fn take(&self, batch: usize) -> usize {
        match &self.inner {
            BuildInner::Partitioned { radix, .. } => {
                (ROUTE_RUN * radix.fanout()).min(ROUTE_MAX).max(batch)
            }
            _ => batch,
        }
    }

    /// Probe one batch, invoking `f(probe_tuple, build_payload)` per
    /// match. `first_rid` marks `input` as source tuples, to be probed
    /// as `(key, first_rid + i)` (late materialization: only the row id
    /// flows). Partitioned sides route the batch by radix digit first —
    /// the fused Partition operator, whose scatter also stamps the row
    /// id; a global side stages the stamped copy.
    fn probe_batch<F: FnMut(&Tuple, Payload)>(
        &self,
        input: &[Tuple],
        first_rid: Option<u32>,
        scratch: &mut StageScratch,
        mut f: F,
    ) {
        let unique = self.unique;
        let StageScratch { bounds, staged, .. } = scratch;
        let stamp = |i: usize, t: Tuple| match first_rid {
            Some(first) => Tuple::new(t.key, first + i as u32),
            None => t,
        };
        let probes = match &self.inner {
            BuildInner::Partitioned { radix, tables } => {
                let routed = &mut staged[..input.len()];
                route_into(input, *radix, bounds, routed, stamp);
                return tables.probe_routed(bounds, routed, unique, f);
            }
            _ if first_rid.is_some() => {
                staged.clear();
                staged.extend(input.iter().enumerate().map(|(i, &t)| stamp(i, t)));
                &staged[..]
            }
            _ => input,
        };
        match &self.inner {
            BuildInner::Linear(t) => t.probe_batch(probes, unique, &mut f),
            // A slot holds one payload: nothing to stop early at.
            BuildInner::Array(t) => t.probe_batch(probes, &mut f),
            BuildInner::Concise(t) => t.probe_op(probes, unique, &mut f),
            BuildInner::Partitioned { .. } => unreachable!("routed above"),
        }
    }
}

/// Probes per partition a routing batch (here and in SHHJ's scans) aims
/// for: a run long enough to amortise the table call, a batch long
/// enough that the router's `O(fan-out)` part disappears in its
/// `O(batch)` part.
pub(crate) const ROUTE_RUN: usize = 256;

/// Longest routing batch: the source slice it reads and the routed copy
/// it writes are 2 MiB together, one core's L2 on the Xeon it was swept
/// on (`lscpu`: 4 MiB in 2 instances; the size of
/// `mmjoin_sort::mergesort::RUN_LEN`'s block; sweep in DESIGN.md §12).
pub(crate) const ROUTE_MAX: usize = (1 << 20) / std::mem::size_of::<Tuple>();

/// One worker's buffers for one stage: `take` tuples go into a probe
/// call; `bounds` and `staged` are the routed batch of a partitioned
/// side (`staged` also the row-id-stamped source tuples of a global
/// first stage); `out` collects `(build_payload, rid)` until the next
/// stage has a batch of them.
struct StageScratch {
    take: usize,
    bounds: Vec<usize>,
    staged: Vec<Tuple>,
    out: Vec<Tuple>,
}

impl StageScratch {
    fn new([take, bounds, staged, out]: [usize; 4]) -> Self {
        StageScratch {
            take,
            bounds: vec![0; bounds],
            staged: vec![Tuple::default(); staged],
            out: Vec::with_capacity(out),
        }
    }
}

/// `[take, bounds, staged, out]` entries of stage `depth`'s scratch: what
/// a worker allocates, once per run, and the probe phase reserves.
fn scratch_shape(stages: &[Arc<BuildSide>], depth: usize, batch: usize) -> [usize; 4] {
    let take = stages[depth].take(batch);
    let bounds = match &stages[depth].inner {
        BuildInner::Partitioned { radix, .. } => radix.fanout() + 1,
        _ => 0,
    };
    let staged = if bounds > 0 || depth == 0 { take } else { 0 };
    // Matches wait for a full batch of the next stage.
    let out = stages
        .get(depth + 1)
        .map_or(0, |next| take + next.take(batch));
    [take, bounds, staged, out]
}

fn prepare_inner(
    algorithm: Algorithm,
    r: &Relation,
    cfg: &JoinConfig,
) -> Result<Arc<BuildSide>, JoinError> {
    if !is_ported(algorithm) {
        return Err(JoinError::PipelineUnsupported { algorithm });
    }
    crate::plan::check_dense_domain(algorithm, r, cfg)?;
    let unique = r.unique_keys();

    let mut run = JoinRun::begin(algorithm, cfg);
    let mut radix_bits = None;
    // The classic drivers' own build phases, minus everything probe-side.
    let (inner, accesses, cpu) = match algorithm {
        Algorithm::Nop => {
            let table = crate::nop::build_nop(&mut run, r)?;
            (BuildInner::Linear(table), 1.0, ops::PROBE)
        }
        Algorithm::Nopa => {
            let table = crate::nop::build_nopa(&mut run, r)?;
            (BuildInner::Array(table), 1.0, ops::ARRAY)
        }
        Algorithm::Chtj => {
            let cht = crate::chtj::build_chtj(&mut run, r)?;
            (BuildInner::Concise(cht), 2.0, ops::CHT_PROBE)
        }
        Algorithm::Pro | Algorithm::Prl | Algorithm::Pra => {
            let kind = match algorithm {
                Algorithm::Pro => TableKind::Chained,
                Algorithm::Prl => TableKind::Linear,
                _ => TableKind::Array,
            };
            let table = PartTable::for_join(cfg, kind, r.len());
            radix_bits = Some(table.bits);
            let f = RadixFn::new(table.bits);
            let parts = f.fanout();

            // Partition phase — build side only: the probe input is
            // routed batch-by-batch at probe time, never copied.
            run.reserve(
                "partition",
                r.len() * 8 + cfg.threads * swwcb::bank_bytes(parts),
            )?;
            let pr = run.phase(
                "partition",
                |p| Ok(partition_parallel_on(r.tuples(), f, p, ScatterMode::Swwcb)),
                |_| {
                    let writes = PartitionWrites::GlobalInterleaved;
                    spec::partition_model(cfg, &[r], &[parts], true, writes)
                },
            )?;

            // Build phase: one table per partition off the morsel queue,
            // all of them packed in one block.
            run.reserve(
                "build",
                (0..parts)
                    .map(|p| table.spec(pr.part_len(p)).table_bytes())
                    .sum(),
            )?;
            let tables = run.phase(
                "build",
                |p| {
                    let slices = |part| std::iter::once(pr.partition(part));
                    Ok(table.build_packed(p, &pr.sizes(), slices))
                },
                |_| {
                    let (cpu_build, cpu_probe) = table.cpu();
                    PhaseModel::pass(spec::join_task_specs(
                        cfg,
                        &pr.sizes(),
                        &vec![0usize; parts],
                        PartitionLayout::Contiguous,
                        cpu_build,
                        cpu_probe,
                        table.bytes_per_tuple(r.len()),
                    ))
                },
            )?;
            (
                BuildInner::Partitioned { radix: f, tables },
                1.0,
                table.cpu().1,
            )
        }
        // `is_ported` gated everything else above.
        _ => unreachable!("unported algorithm passed the is_ported gate"),
    };

    let memory_bytes = match &inner {
        BuildInner::Linear(t) => t.memory_bytes(),
        BuildInner::Array(t) => t.memory_bytes(),
        BuildInner::Concise(t) => t.memory_bytes(),
        BuildInner::Partitioned { tables, .. } => tables.memory_bytes(),
    };
    Ok(Arc::new(BuildSide {
        algorithm,
        inner,
        phases: run.finish(JoinChecksum::new(), radix_bits).phases,
        radix_bits,
        memory_bytes,
        unique,
        accesses_per_probe: accesses,
        cpu_per_probe: cpu,
    }))
}

/// A fused multi-join pipeline: probe tuples flow through every staged
/// build side as cache-resident `(key, rid)` batches, and payloads are
/// gathered only at the sink.
///
/// ```
/// use mmjoin_core::{Algorithm, JoinConfig, Pipeline, pipeline::BuildSide};
/// use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
/// use mmjoin_util::Placement;
///
/// let mut cfg = JoinConfig::new(2);
/// cfg.simulate = false;
/// let r = gen_build_dense(1_000, 7, Placement::Interleaved);
/// let s = gen_probe_fk(4_000, 1_000, 8, Placement::Interleaved);
/// let side = BuildSide::prepare(Algorithm::Nop, &r, &cfg).unwrap();
/// let res = Pipeline::new()
///     .with_stage(side)
///     .with_config(cfg)
///     .run(&s)
///     .unwrap();
/// assert_eq!(res.matches, 4_000);
/// ```
#[must_use = "a Pipeline does nothing until run"]
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    stages: Vec<Arc<BuildSide>>,
    config: JoinConfig,
}

impl Pipeline {
    /// An empty pipeline; add stages with [`Pipeline::with_stage`].
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Append a probe stage: tuples surviving the previous stage probe
    /// `side` next, keyed by that stage's build payload. The `Arc` may
    /// be shared with other pipelines.
    pub fn with_stage(mut self, side: Arc<BuildSide>) -> Self {
        self.stages.push(side);
        self
    }

    /// The configuration of the probe run (threads, batch size, deadline,
    /// budget, profiling, ...; default: [`JoinConfig::default`]).
    /// Should match the configuration the stages were prepared with.
    pub fn with_config(mut self, cfg: JoinConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Number of staged build sides.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Run the fused probe over `s`. The result is the first stage's
    /// `algorithm` and `radix_bits`, the sink's `matches` and `checksum`
    /// — comparable to the equivalent materialized plan's — every
    /// stage's build phases (in stage order) followed by the one fused
    /// probe phase, and the matches that crossed a stage boundary
    /// unmaterialized (`intermediate_matches`).
    pub fn run(&self, s: &Relation) -> Result<JoinResult, JoinError> {
        self.config.validate()?;
        if self.stages.is_empty() {
            return Err(JoinError::InvalidConfig {
                field: "stages",
                value: 0,
                reason: "a pipeline needs at least one build side",
            });
        }
        contain_panics(|| self.run_fused(s))
    }

    fn run_fused(&self, s: &Relation) -> Result<JoinResult, JoinError> {
        let (stages, cfg) = (&self.stages[..], &self.config);
        let mut run = JoinRun::begin(stages[0].algorithm, cfg);
        run.extend_phases(stages.iter().flat_map(|side| side.phases.iter().cloned()));

        let batch = cfg.pipeline_batch;
        let shapes: Vec<[usize; 4]> = (0..stages.len())
            .map(|d| scratch_shape(stages, d, batch))
            .collect();
        // Eight bytes an entry: `usize` bounds, `Tuple`s.
        let per_worker: usize = shapes.iter().map(|[_, b, s, o]| (b + s + o) * 8).sum();
        run.reserve("probe", cfg.threads * per_worker)?;
        let s_tuples = s.tuples();
        let (checksum, inter) = run.phase(
            "probe",
            |p| {
                // Morsels of what the first stage takes — four a worker
                // or more, so the barrier waits for a quarter of a
                // worker's share at most — but no shorter than 4 * MORSEL.
                let take = shapes[0][0];
                let fair = s_tuples.len().div_ceil(4 * p.workers());
                let morsel = take.min(fair).max(4 * MORSEL);
                let order: Vec<usize> = (0..s_tuples.len().div_ceil(morsel)).collect();
                // A worker's state is made on its first morsel and parked
                // here between morsels.
                let parked: Mutex<Vec<Worker>> = Mutex::new(Vec::new());
                p.run_morsels(&[order], &|_, m| {
                    if p.tick() {
                        return;
                    }
                    let mut worker = lock_recover(&parked).pop().unwrap_or_else(|| Worker {
                        stages,
                        s_tuples,
                        scratch: shapes.iter().map(|&s| StageScratch::new(s)).collect(),
                        checksum: JoinChecksum::new(),
                        inter: vec![0; stages.len() - 1],
                    });
                    let mut rid = m * morsel;
                    for sub in s_tuples[rid..s_tuples.len().min(rid + morsel)].chunks(take) {
                        worker.push(0, sub, Some(rid as u32));
                        rid += sub.len();
                    }
                    (0..stages.len() - 1).for_each(|depth| worker.hand_on(depth));
                    lock_recover(&parked).push(worker);
                });
                let mut checksum = JoinChecksum::new();
                let mut inter = vec![0u64; stages.len() - 1];
                for worker in into_inner_recover(parked) {
                    checksum.merge(worker.checksum);
                    for (total, part) in inter.iter_mut().zip(worker.inter) {
                        *total += part;
                    }
                }
                Ok((checksum, inter))
            },
            // Cost-model view: per stage, the tuples that actually reached
            // it probing that stage's resident structure.
            |(_, inter)| {
                let mut models = Vec::with_capacity(stages.len());
                let mut tuples_in = s_tuples.len();
                for (k, side) in stages.iter().enumerate() {
                    models.push(FusedStageModel {
                        tuples_in,
                        table_bytes: side.memory_bytes as f64,
                        accesses_per_probe: side.accesses_per_probe,
                        cpu_per_tuple: side.cpu_per_probe,
                    });
                    if k < inter.len() {
                        tuples_in = inter[k] as usize;
                    }
                }
                PhaseModel::pass(spec::fused_probe_specs(
                    cfg,
                    s.len(),
                    s.placement(),
                    &models,
                ))
            },
        )?;

        let mut result = run.finish(checksum, stages[0].radix_bits);
        result.intermediate_matches = inter.iter().sum();
        Ok(result)
    }
}

/// One probe worker's state: its scratch per stage, allocated once per
/// run, and what it has folded so far.
struct Worker<'a> {
    stages: &'a [Arc<BuildSide>],
    s_tuples: &'a [Tuple],
    scratch: Vec<StageScratch>,
    checksum: JoinChecksum,
    /// Matches that left each non-sink stage.
    inter: Vec<u64>,
}

impl Worker<'_> {
    /// Push one batch through the stages from `depth` on. Non-sink
    /// stages emit `(build_payload, rid)` into their `out` buffer (the
    /// rid rides along untouched — that is the whole late-materialization
    /// contract), which is handed on once it holds what the next stage
    /// takes; the sink gathers `s_tuples[rid].payload` and folds into
    /// the checksum.
    fn push(&mut self, depth: usize, input: &[Tuple], first_rid: Option<u32>) {
        let (side, s_tuples) = (&self.stages[depth], self.s_tuples);
        let scratch = &mut self.scratch[depth];
        if depth + 1 == self.stages.len() {
            let c = &mut self.checksum;
            return side.probe_batch(input, first_rid, scratch, |t, bp| {
                c.add(t.key, bp, s_tuples[t.payload as usize].payload)
            });
        }
        let mut out = std::mem::take(&mut scratch.out);
        side.probe_batch(input, first_rid, scratch, |t, bp| {
            out.push(Tuple::new(bp, t.payload))
        });
        let full = out.len() >= self.scratch[depth + 1].take;
        self.scratch[depth].out = out;
        if full {
            self.hand_on(depth);
        }
    }

    /// Hand stage `depth`'s pending matches to the next stage. Called
    /// for every depth in order, it drains the worker.
    fn hand_on(&mut self, depth: usize) {
        let mut out = std::mem::take(&mut self.scratch[depth].out);
        self.inter[depth] += out.len() as u64;
        for chunk in out.chunks(self.scratch[depth + 1].take) {
            self.push(depth + 1, chunk, None);
        }
        out.clear();
        self.scratch[depth].out = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    fn cfg(threads: usize) -> JoinConfig {
        let mut cfg = JoinConfig::new(threads);
        cfg.simulate = false;
        cfg
    }

    #[test]
    fn single_stage_matches_reference_for_every_ported_driver() {
        let n = 4_000;
        let r = gen_build_dense(n, 11, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(3 * n, n, 12, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for alg in PORTED {
            let cfg = cfg(4);
            let side = BuildSide::prepare(alg, &r, &cfg).unwrap();
            assert_eq!(side.algorithm(), alg);
            assert!(side.memory_bytes() > 0, "{alg}");
            assert!(!side.build_phases().is_empty(), "{alg}");
            let res = Pipeline::new()
                .with_stage(side)
                .with_config(cfg)
                .run(&s)
                .unwrap();
            assert_eq!(res.matches, expect.count, "{alg}");
            assert_eq!(res.checksum, expect.digest, "{alg}");
            assert_eq!(res.intermediate_matches, 0, "{alg}: single stage");
            assert_eq!(res.bytes_avoided(), 0, "{alg}");
        }
    }

    #[test]
    fn shared_build_side_probes_from_two_pipelines() {
        let n = 2_000;
        let r = gen_build_dense(n, 13, Placement::Interleaved);
        let s1 = gen_probe_fk(n, n, 14, Placement::Interleaved);
        let s2 = gen_probe_fk(2 * n, n, 15, Placement::Interleaved);
        let cfg = cfg(2);
        let side = BuildSide::prepare(Algorithm::Prl, &r, &cfg).unwrap();
        let a = Pipeline::new()
            .with_stage(Arc::clone(&side))
            .with_config(cfg.clone())
            .run(&s1)
            .unwrap();
        let b = Pipeline::new()
            .with_stage(side)
            .with_config(cfg)
            .run(&s2)
            .unwrap();
        assert_eq!(a.matches, reference_join(&r, &s1).count);
        assert_eq!(b.matches, reference_join(&r, &s2).count);
    }

    #[test]
    fn empty_pipeline_is_invalid() {
        let s = gen_probe_fk(100, 100, 16, Placement::Interleaved);
        let err = Pipeline::new().run(&s).unwrap_err();
        assert!(
            matches!(
                err,
                JoinError::InvalidConfig {
                    field: "stages",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn unported_algorithm_rejected() {
        let r = gen_build_dense(100, 17, Placement::Interleaved);
        let err = BuildSide::prepare(Algorithm::Mway, &r, &cfg(2)).unwrap_err();
        assert_eq!(
            err,
            JoinError::PipelineUnsupported {
                algorithm: Algorithm::Mway
            }
        );
    }

    #[test]
    fn stages_are_counted() {
        let r = gen_build_dense(500, 18, Placement::Interleaved);
        let cfg = cfg(2);
        let global = BuildSide::prepare(Algorithm::Nop, &r, &cfg).unwrap();
        let parted = BuildSide::prepare(Algorithm::Pro, &r, &cfg).unwrap();
        let p = Pipeline::new().with_stage(global).with_stage(parted);
        assert_eq!(p.stage_count(), 2);
    }

    #[test]
    fn tiny_batches_and_empty_probe() {
        let n = 1_000;
        let r = gen_build_dense(n, 19, Placement::Interleaved);
        let s = gen_probe_fk(2 * n, n, 20, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let side = BuildSide::prepare(Algorithm::Chtj, &r, &cfg(2)).unwrap();
        for batch in [1, 7, 1024] {
            let mut cfg = cfg(2);
            cfg.pipeline_batch = batch;
            let res = Pipeline::new()
                .with_stage(Arc::clone(&side))
                .with_config(cfg)
                .run(&s)
                .unwrap();
            assert_eq!(res.matches, expect.count, "batch={batch}");
            assert_eq!(res.checksum, expect.digest, "batch={batch}");
        }
        let empty = Relation::from_tuples(&[], Placement::Interleaved);
        let res = Pipeline::new()
            .with_stage(side)
            .with_config(cfg(2))
            .run(&empty)
            .unwrap();
        assert_eq!(res.matches, 0);
    }
}

//! SHHJ — spilling hybrid hash join (this repo's 14th driver, not one
//! of the paper's thirteen; DESIGN.md §13).
//!
//! The paper's joins assume both relations fit in memory: under a
//! `JoinConfig::mem_limit`, a build side larger than the budget trips
//! [`JoinError::MemoryBudgetExceeded`] and the query fails. SHHJ turns
//! that cliff into a gradient, in the lineage of Grace/hybrid hash
//! joins:
//!
//! 1. **partition** — histogram R on a budget-aware radix fanout and
//!    plan residency: charge every partition's tuples + hash table and,
//!    while the budget refuses, evict the costliest resident partition
//!    to a disk run instead of failing the join. Then scatter R and
//!    build the resident partitions' tables.
//! 2. **probe** — stream S once: resident partitions probe their
//!    table, evicted ones are appended to S-side runs.
//! 3. **spill** — join the evicted partition pairs from disk, as a
//!    task queue on the run's workers. A pair builds its table from R's
//!    run when the build keys are unique and that run fits the budget
//!    (first-match probes), else from the smaller run (role reversal);
//!    "fits" is judged against the budget's limit, as if the pair ran
//!    alone. Each loading pair reserves its own bytes; one the others'
//!    reservations crowd out waits for the budget gate and runs alone.
//!    A pair whose smaller side exceeds the budget also runs alone and
//!    is recursively repartitioned on the next-higher key bits
//!    (skew-safe) up to [`SPILL_RECURSION_LIMIT`], past which the typed
//!    [`JoinError::SpillRecursionLimit`] is returned. Which pairs load
//!    and which recurse, and so the spill counters, do not depend on
//!    the thread count or on timing.
//!
//! Both scans route a block of a worker's chunk by radix digit and act
//! once per partition window. All spill files live in one [`SpillDir`]
//! whose `Drop` removes them — cancel/deadline/error paths cannot leak
//! temp files. Cancellation and deadlines are checked per routed block
//! and per spill I/O page; I/O failures surface as [`JoinError::Io`].

use std::io;
use std::sync::{Mutex, PoisonError, RwLock};

use mmjoin_hashtable::{
    IdentityHash, JoinTable, PackedTables, StLinearTable, TableSpec, PROBE_GROUP,
};
use mmjoin_partition::histogram::histogram;
use mmjoin_partition::{route_into, RadixFn};
use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::pool::{into_inner_recover, lock_recover, WorkerPool};
use mmjoin_util::spill::{SpillDir, SpillRun, SpillWriter, READER_BYTES, WRITER_BYTES};
use mmjoin_util::tuple::Tuple;
use mmjoin_util::Relation;

use crate::config::JoinConfig;
use crate::exec::{merge_checksums, morsel_map, parallel_chunks, MORSEL};
use crate::executor::QueuePolicy;
use crate::fault::MemCharge;
use crate::pipeline::{ROUTE_MAX, ROUTE_RUN};
use crate::plan::JoinError;
use crate::pro::build_packed;
use crate::run::{JoinRun, RunCtx};
use crate::spec::PhaseModel;
use crate::stats::{JoinResult, SpillCounters};
use crate::Algorithm;

/// Maximum recursive repartitioning passes over one spilled partition
/// before giving up with [`JoinError::SpillRecursionLimit`]. With
/// `SPILL_SUB_BITS` fresh bits per pass this separates any key set
/// that is separable at all within 32-bit keys.
pub const SPILL_RECURSION_LIMIT: u32 = 6;

/// Radix bits consumed per recursive repartitioning pass (16-way).
const SPILL_SUB_BITS: u32 = 4;

/// Worker-local staging tuples per evicted partition before taking the
/// shared writer lock (one flush per 8 cache lines of tuples).
const STAGE_TUPLES: usize = 64;

/// Budget-aware fanout: classic hybrid-hash sizing. Small enough that
/// the per-spilled-partition writer buffers stay a fraction of the
/// budget, large enough that an average partition (tuples + table) has
/// a chance to fit; recursion handles what doesn't.
fn shhj_bits(cfg: &JoinConfig, r_len: usize) -> u32 {
    if let Some(b) = cfg.radix_bits {
        return b;
    }
    let default = cfg.bits_for_hash_tables(r_len);
    let Some(budget) = cfg.mem_limit else {
        return default;
    };
    let build_bytes = r_len * 8;
    // Partition cost ≈ tuples + linear table ≈ 5x slice bytes; want one
    // partition within ~half the budget.
    let want_fanout = (10 * build_bytes) / budget.max(1);
    // Two run writers per evicted partition; cap their buffers at ~1/4
    // of the budget.
    let max_fanout = budget / (8 * WRITER_BYTES);
    let fanout = want_fanout.clamp(2, max_fanout.max(2)).next_power_of_two();
    fanout
        .trailing_zeros()
        .clamp(1, crate::plan::MAX_RADIX_BITS)
}

fn io_error(ctx: &RunCtx, e: &io::Error) -> JoinError {
    JoinError::Io {
        phase: ctx.phase_name(),
        source: e.to_string(),
    }
}

/// What the partition phase leaves behind for the probe and spill
/// phases.
struct Partitioned {
    /// Whether each partition stayed in memory.
    resident: Vec<bool>,
    spilled_parts: Vec<usize>,
    /// Budget bytes held for the resident partitions / the spill
    /// writers and staging buffers.
    resident_bytes: usize,
    overhead_bytes: usize,
    spilldir: Option<SpillDir>,
    r_writers: Vec<Option<Mutex<SpillWriter>>>,
    s_writers: Vec<Option<Mutex<SpillWriter>>>,
    /// Each worker's resident R tuples (evicted ones were flushed to
    /// their run). Their bytes stay charged with the tables' until the
    /// spill phase drops both.
    r_resident: Vec<ResidentR>,
    /// The resident partitions' tables, packed in one block.
    tables: PackedTables<StLinearTable<IdentityHash>>,
}

/// One worker's resident R tuples, partition by partition: partition
/// `p`'s are `tuples[bounds[p]..bounds[p + 1]]`.
struct ResidentR {
    tuples: AlignedBuf<Tuple>,
    bounds: Vec<usize>,
}

/// Bytes appended so far to the runs of `spilled_parts`.
fn spilled_bytes(writers: &[Option<Mutex<SpillWriter>>], spilled_parts: &[usize]) -> u64 {
    spilled_parts
        .iter()
        .map(|&p| {
            writers[p]
                .as_ref()
                .map_or(0, |w| lock_recover(w).tuples() * 8)
        })
        .sum()
}

/// Spilling hybrid hash join driver.
pub(crate) fn join_shhj(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(Algorithm::Shhj, cfg);
    let bits = shhj_bits(cfg, r.len());
    let f = RadixFn::new(bits);
    let parts = f.fanout();

    // ---- partition phase: histogram, residency plan, scatter, build --
    let part = run.phase(
        "partition",
        |ctx| {
            let locals: Vec<Vec<usize>> =
                parallel_chunks(ctx, r.tuples(), |_, chunk| histogram(chunk, f));
            let mut hist = vec![0usize; parts];
            for l in &locals {
                for (p, n) in l.iter().enumerate() {
                    hist[p] += n;
                }
            }

            // Residency plan: charge tuples + table for every resident
            // partition, plus fixed spill overhead (two run writers and
            // the workers' staging buffers) per evicted one. Each refused
            // reservation evicts the costliest resident partition and
            // retries.
            let part_cost: Vec<usize> = hist.iter().map(|&n| partition_cost(n, bits)).collect();
            let overhead_per_spilled = 2 * WRITER_BYTES + cfg.threads * STAGE_TUPLES * 8;
            let mut resident = vec![true; parts];
            let (resident_bytes, overhead_bytes) = loop {
                let resident_bytes: usize = (0..parts)
                    .filter(|&p| resident[p])
                    .map(|p| part_cost[p])
                    .sum();
                let spilled = (0..parts).filter(|&p| !resident[p]).count();
                let overhead_bytes = spilled * overhead_per_spilled;
                match ctx.budget().try_reserve(resident_bytes + overhead_bytes) {
                    Ok(()) => break (resident_bytes, overhead_bytes),
                    Err(be) => {
                        let victim = if cfg.spill {
                            (0..parts)
                                .filter(|&p| resident[p] && hist[p] > 0)
                                .max_by_key(|&p| part_cost[p])
                        } else {
                            None
                        };
                        match victim {
                            Some(v) => resident[v] = false,
                            // Spilling disabled, or even the all-spilled
                            // overhead exceeds the budget: classic abort.
                            None => {
                                return Err(ctx.budget_error(resident_bytes + overhead_bytes, be))
                            }
                        }
                    }
                }
            };
            let spilled_parts: Vec<usize> = (0..parts).filter(|&p| !resident[p]).collect();

            let spilldir = if spilled_parts.is_empty() {
                None
            } else {
                Some(SpillDir::create(cfg.spill_dir.as_deref()).map_err(|e| {
                    ctx.budget().release(resident_bytes + overhead_bytes);
                    io_error(ctx, &e)
                })?)
            };
            let mut r_writers: Vec<Option<Mutex<SpillWriter>>> = (0..parts).map(|_| None).collect();
            let mut s_writers: Vec<Option<Mutex<SpillWriter>>> = (0..parts).map(|_| None).collect();
            if let Some(dir) = &spilldir {
                for &p in &spilled_parts {
                    let rw = dir
                        .writer(&format!("r-{p}"))
                        .map_err(|e| io_error(ctx, &e))?;
                    let sw = dir
                        .writer(&format!("s-{p}"))
                        .map_err(|e| io_error(ctx, &e))?;
                    r_writers[p] = Some(Mutex::new(rw));
                    s_writers[p] = Some(Mutex::new(sw));
                }
            }

            // Scatter R: resident windows into the worker's buffer at
            // its partition's cursor (read as slices at build time, like
            // CPR), evicted ones to the partition's run.
            let (block, _scratch) = routing_scratch(ctx, r.len(), parts)?;
            let r_resident: Vec<ResidentR> = parallel_chunks(ctx, r.tuples(), |w, chunk| {
                let mut bounds = vec![0; parts + 1];
                for p in 0..parts {
                    bounds[p + 1] = bounds[p] + if resident[p] { locals[w][p] } else { 0 };
                }
                // SAFETY: the scan writes each resident window at its
                // partition's cursor, and the histogram's counts make the
                // cursors tile the buffer. A scan cut short stops the run
                // (`tick` and `trip` are sticky), and the build then reads
                // no tuple.
                let mut tuples = unsafe { AlignedBuf::<Tuple>::unfilled(bounds[parts]) };
                let mut cursor = bounds[..parts].to_vec();
                route_scan(ctx, chunk, f, block, &resident, &r_writers, |p, ts| {
                    tuples[cursor[p]..cursor[p] + ts.len()].copy_from_slice(ts);
                    cursor[p] += ts.len();
                });
                debug_assert!(
                    ctx.should_stop() || cursor == bounds[1..],
                    "cursors off the histogram"
                );
                ResidentR { tuples, bounds }
            });

            // Build the resident partitions' tables (task-queue parallel),
            // each clearing its own range of the one block first.
            let caps: Vec<usize> = (0..parts)
                .map(|p| if resident[p] { hist[p] } else { 0 })
                .collect();
            let tables = build_packed(
                ctx,
                &caps,
                |n| TableSpec::hashed_partition(n, bits),
                |p| {
                    let windows = r_resident.iter();
                    windows.map(move |out| &out.tuples[out.bounds[p]..out.bounds[p + 1]])
                },
            );
            ctx.add_spill(SpillCounters {
                bytes_spilled: spilled_bytes(&r_writers, &spilled_parts),
                partitions_spilled: spilled_parts.len() as u64,
                recursion_depth: 0,
            });
            Ok(Partitioned {
                resident,
                spilled_parts,
                resident_bytes,
                overhead_bytes,
                spilldir,
                r_writers,
                s_writers,
                r_resident,
                tables,
            })
        },
        |_| PhaseModel::none(),
    )?;

    // ---- probe phase: one pass over S ---------------------------------
    let mut checksum = run.phase(
        "probe",
        |ctx| {
            let (block, _scratch) = routing_scratch(ctx, s.len(), parts)?;
            let probe_outs: Vec<JoinChecksum> = parallel_chunks(ctx, s.tuples(), |_, chunk| {
                let mut c = JoinChecksum::new();
                route_scan(
                    ctx,
                    chunk,
                    f,
                    block,
                    &part.resident,
                    &part.s_writers,
                    |p, ts| {
                        part.tables
                            .probe_batch(p, ts, unique, |t, bp| c.add(t.key, bp, t.payload))
                    },
                );
                c
            });
            ctx.add_spill(SpillCounters {
                bytes_spilled: spilled_bytes(&part.s_writers, &part.spilled_parts),
                partitions_spilled: 0,
                recursion_depth: 0,
            });
            Ok(merge_checksums(probe_outs))
        },
        |_| PhaseModel::none(),
    )?;

    // ---- spill phase: join the evicted pairs on the run's workers ----
    let spilled = run.phase(
        "spill",
        |ctx| {
            let mut part = part;
            // The resident tables and slices are done; hand their bytes
            // back so the pairs below can use the whole budget.
            drop(part.tables);
            drop(part.r_resident);
            ctx.budget().release(part.resident_bytes);
            let Some(dir) = &part.spilldir else {
                ctx.budget().release(part.overhead_bytes);
                return Ok(JoinChecksum::new());
            };
            let mut pairs = Vec::with_capacity(part.spilled_parts.len());
            for &p in &part.spilled_parts {
                let finish = |w: &mut Option<Mutex<SpillWriter>>| {
                    let w = w.take().expect("writer for spilled partition");
                    into_inner_recover(w)
                        .finish()
                        .map_err(|e| io_error(ctx, &e))
                };
                // The initial eviction bytes were counted in the
                // partition and probe phases; this phase counts only
                // recursion writes.
                let r_run = finish(&mut part.r_writers[p])?;
                let s_run = finish(&mut part.s_writers[p])?;
                pairs.push((p, r_run, s_run));
            }
            // Writers are finished; their buffers are gone.
            ctx.budget().release(part.overhead_bytes);
            // Largest pairs first, so the last ones a worker starts are
            // short.
            pairs.sort_by_key(|(_, r, s)| std::cmp::Reverse(r.tuples() + s.tuples()));
            let order: Vec<usize> = (0..pairs.len()).collect();
            let pairs: Vec<Mutex<Option<_>>> =
                pairs.into_iter().map(|x| Mutex::new(Some(x))).collect();
            let spill = Spill {
                ctx,
                dir,
                unique,
                failpoints: SpillFailpoints::armed(),
                gate: RwLock::new(()),
            };
            let joined = morsel_map(
                ctx,
                &order,
                pairs.len(),
                QueuePolicy::Shared,
                || (),
                |_, i| {
                    let (p, r_run, s_run) = lock_recover(&pairs[i])
                        .take()
                        .expect("each pair is joined once");
                    spill.join_pair(p, r_run, s_run, bits).unwrap_or_else(|e| {
                        ctx.trip(e);
                        Default::default()
                    })
                },
            );
            let mut checksum = JoinChecksum::new();
            let mut spill_counters = SpillCounters::default();
            for (c, counters) in joined {
                checksum.merge(c);
                spill_counters.merge(counters);
            }
            ctx.add_spill(spill_counters);
            debug_assert_eq!(ctx.budget().used(), 0, "SHHJ holds budget past its phases");
            Ok(checksum)
        },
        |_| PhaseModel::none(),
    )?;
    checksum.merge(spilled);
    Ok(run.finish(checksum, Some(bits)))
}

/// Budget bytes of a resident partition of `n` tuples: the tuples and
/// their table.
fn partition_cost(n: usize, bits: u32) -> usize {
    if n == 0 {
        0
    } else {
        n * 8 + TableSpec::hashed_partition(n, bits).table_bytes()
    }
}

/// Reserve each worker's routing scratch (a block of its chunk of `len`
/// tuples, `fanout + 1` bounds), halving the block down to [`PROBE_GROUP`]
/// while the budget refuses; the block length and the phase's charge.
fn routing_scratch(
    ctx: &RunCtx,
    len: usize,
    fanout: usize,
) -> Result<(usize, MemCharge<'_>), JoinError> {
    let workers = ctx.workers().clamp(1, len.max(1));
    let mut block = (ROUTE_RUN * fanout).clamp(MORSEL, ROUTE_MAX);
    block = block.min(len.div_ceil(workers)).max(1);
    let floor = block.min(PROBE_GROUP);
    loop {
        let bytes = workers * (block + fanout + 1) * 8;
        match ctx.budget().try_reserve(bytes) {
            Ok(()) => return Ok((block, MemCharge::new(ctx.budget(), bytes))),
            Err(be) if block == floor => return Err(ctx.budget_error(bytes, be)),
            Err(_) => block = (block / 2).max(floor),
        }
    }
}

/// One worker's scan of `chunk`: route it a `block` at a time by `f`'s
/// digit (one `tick` per block), hand each resident partition's window
/// to `resident_window(p, window)` and stage each evicted one for its
/// writer. A spill I/O error trips the run and ends the scan.
fn route_scan(
    ctx: &RunCtx,
    chunk: &[Tuple],
    f: RadixFn,
    block: usize,
    resident: &[bool],
    writers: &[Option<Mutex<SpillWriter>>],
    mut resident_window: impl FnMut(usize, &[Tuple]),
) {
    let mut routed = vec![Tuple::default(); block.min(chunk.len())];
    let mut bounds = vec![0; f.fanout() + 1];
    let mut stages: Vec<Vec<Tuple>> = resident
        .iter()
        .map(|&r| Vec::with_capacity(if r { 0 } else { STAGE_TUPLES }))
        .collect();
    for input in chunk.chunks(block) {
        if ctx.tick() {
            return;
        }
        route_into(input, f, &mut bounds, &mut routed, |_, t| t);
        for (p, w) in bounds.windows(2).enumerate().filter(|(_, w)| w[0] < w[1]) {
            let (window, stage) = (&routed[w[0]..w[1]], &mut stages[p]);
            if resident[p] {
                resident_window(p, window);
            } else if stage.len() + window.len() <= STAGE_TUPLES {
                stage.extend_from_slice(window);
            } else if !flush_stage(ctx, &writers[p], stage, window) {
                return;
            }
            debug_assert!(stage.len() <= STAGE_TUPLES, "stage past its charge");
        }
    }
    for (p, stage) in stages.iter_mut().enumerate() {
        if !flush_stage(ctx, &writers[p], stage, &[]) {
            return;
        }
    }
}

/// Append a worker's staged tuples, then `window`, to the partition's
/// run under one take of its writer lock and empty the stage; `false`,
/// with the run tripped, on an I/O error.
fn flush_stage(
    ctx: &RunCtx,
    writer: &Option<Mutex<SpillWriter>>,
    stage: &mut Vec<Tuple>,
    window: &[Tuple],
) -> bool {
    let Some(w) = writer.as_ref().filter(|_| stage.len() + window.len() > 0) else {
        return true;
    };
    let mut w = lock_recover(w);
    let res = w.push_slice(stage).and_then(|()| w.push_slice(window));
    stage.clear();
    res.map_err(|e| ctx.trip(io_error(ctx, &e))).is_ok()
}

/// Which run of a spilled pair to build the table from, and what
/// loading it reserves: the build run's tuples, its table, and one
/// reader each for the build and the probe run.
#[derive(Debug)]
struct Load {
    /// Build from S's run, probe with R's.
    reverse: bool,
    spec: TableSpec,
    need: usize,
}

/// How to load a pair whose runs hold `r_len` and `s_len` tuples, if it
/// fits a budget of `limit` bytes on its own: from R's run when the
/// build keys are unique and it fits (its probes stop at the first
/// match, where a table of S's duplicate keys has every probe scan
/// its whole cluster), else from the smaller run (role reversal).
/// `None` when even the smaller run does not fit: the pair is
/// repartitioned. Whether a pair loads or recurses therefore depends on
/// its sizes and the limit alone, never on what other pairs hold.
fn plan_load(
    r_len: u64,
    s_len: u64,
    consumed_bits: u32,
    unique: bool,
    limit: usize,
) -> Option<Load> {
    let load = |reverse: bool| {
        let n = if reverse { s_len } else { r_len } as usize;
        let spec = TableSpec::hashed_partition(n, consumed_bits.min(31));
        // `n * 8` is a copy of the build run that `Spill::load` no longer
        // makes (it streams the run into the table); still charged, so
        // that plans and spill counters stay what they were.
        let need = n * 8 + spec.table_bytes() + 2 * READER_BYTES;
        (need <= limit).then_some(Load {
            reverse,
            spec,
            need,
        })
    };
    if unique {
        if let Some(l) = load(false) {
            return Some(l);
        }
    }
    load(s_len < r_len)
}

/// The fine-grained spill failpoints.
#[derive(Clone, Copy)]
enum SpillPoint {
    Read,
    Recurse,
    Write,
}

#[cfg(feature = "failpoints")]
const SPILL_POINTS: [&str; 3] = ["read", "recurse", "write"];

/// `SHHJ.spill.read` / `.recurse` / `.write`, resolved once on the
/// submitting thread — where `arm_local` arms them — and fired by the
/// workers that join the pairs. The spill phase's own key
/// (`SHHJ.spill`) fires through [`RunCtx::tick`] like every other
/// phase's.
#[derive(Clone, Copy)]
struct SpillFailpoints {
    #[cfg(feature = "failpoints")]
    armed: [Option<crate::fault::failpoints::FailAction>; 3],
}

impl SpillFailpoints {
    #[cfg(feature = "failpoints")]
    fn armed() -> Self {
        let key = |p| crate::fault::failpoints::active(&format!("SHHJ.spill.{p}"));
        SpillFailpoints {
            armed: SPILL_POINTS.map(key),
        }
    }

    #[cfg(not(feature = "failpoints"))]
    fn armed() -> Self {
        SpillFailpoints {}
    }

    #[cfg(feature = "failpoints")]
    fn fire(&self, point: SpillPoint) {
        use crate::fault::failpoints::FailAction;
        let name = SPILL_POINTS[point as usize];
        match self.armed[point as usize] {
            Some(FailAction::Panic) => panic!("failpoint SHHJ.spill.{name} fired"),
            Some(FailAction::Sleep(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            None => {}
        }
    }

    #[cfg(not(feature = "failpoints"))]
    fn fire(&self, _: SpillPoint) {}
}

/// The spill phase's shared state: what every worker joining pairs
/// needs.
struct Spill<'a> {
    ctx: &'a RunCtx,
    dir: &'a SpillDir,
    unique: bool,
    failpoints: SpillFailpoints,
    /// Held shared by a pair that loads under its own reservation
    /// beside others, exclusively by one that runs alone: a pair whose
    /// reservation the others' refused, or one that recurses. Alone, a
    /// pair has the whole budget, as every pair had when they ran one
    /// after another, so it loads or recurses exactly as it did then.
    gate: RwLock<()>,
}

impl Spill<'_> {
    /// Join top-level pair `p` on a worker: load it beside the pairs
    /// other workers hold if the budget admits it now, else wait to run
    /// alone and join it as [`Spill::join_spilled`] does.
    fn join_pair(
        &self,
        p: usize,
        r_run: SpillRun,
        s_run: SpillRun,
        bits: u32,
    ) -> Result<(JoinChecksum, SpillCounters), JoinError> {
        let ctx = self.ctx;
        let mut counters = SpillCounters::default();
        if ctx.tick() || r_run.is_empty() || s_run.is_empty() {
            return Ok((JoinChecksum::new(), counters));
        }
        {
            let _shared = self.gate.read().unwrap_or_else(PoisonError::into_inner);
            let (r_len, s_len, limit) = (r_run.tuples(), s_run.tuples(), ctx.budget().limit());
            if let Some(load) = plan_load(r_len, s_len, bits, self.unique, limit) {
                if ctx.budget().try_reserve(load.need).is_ok() {
                    let _charge = MemCharge::new(ctx.budget(), load.need);
                    return Ok((self.load(&load, &r_run, &s_run)?, counters));
                }
            }
        }
        let _alone = self.gate.write().unwrap_or_else(PoisonError::into_inner);
        let c = self.join_spilled(r_run, s_run, bits, 0, p, &mut counters)?;
        Ok((c, counters))
    }

    /// Join one spilled pair that has the budget to itself: load it per
    /// [`plan_load`], else recursively repartition both runs on the
    /// next [`SPILL_SUB_BITS`] key bits and join the sub-pairs in turn.
    fn join_spilled(
        &self,
        r_run: SpillRun,
        s_run: SpillRun,
        consumed_bits: u32,
        depth: u32,
        partition: usize,
        counters: &mut SpillCounters,
    ) -> Result<JoinChecksum, JoinError> {
        let ctx = self.ctx;
        counters.recursion_depth = counters.recursion_depth.max(depth);
        let mut c = JoinChecksum::new();
        if r_run.is_empty() || s_run.is_empty() || ctx.should_stop() {
            return Ok(c);
        }
        let (r_len, s_len, limit) = (r_run.tuples(), s_run.tuples(), ctx.budget().limit());
        if let Some(load) = plan_load(r_len, s_len, consumed_bits, self.unique, limit) {
            let _charge = reserve(ctx, load.need)?;
            return self.load(&load, &r_run, &s_run);
        }

        // Too big to load: recursively repartition on fresh key bits.
        if depth >= SPILL_RECURSION_LIMIT || consumed_bits >= 32 {
            return Err(JoinError::SpillRecursionLimit {
                partition,
                depth,
                limit: SPILL_RECURSION_LIMIT,
            });
        }
        self.failpoints.fire(SpillPoint::Recurse);
        // Sub-fanout the budget can afford: 2 run writers per sub-partition
        // plus the parent reader must fit. Floor of 2 (below that the
        // charge fails loudly); ceiling of SPILL_SUB_BITS.
        let affordable = limit
            .saturating_sub(READER_BYTES)
            .checked_div(2 * WRITER_BYTES)
            .unwrap_or(0)
            .max(2);
        let afford_bits = usize::BITS - 1 - affordable.leading_zeros();
        let sub_bits = SPILL_SUB_BITS
            .min(afford_bits)
            .max(1)
            .min(32 - consumed_bits);
        let f = RadixFn::pass(sub_bits, consumed_bits);
        // Held until both runs are split.
        let overhead = reserve(ctx, 2 * f.fanout() * WRITER_BYTES + READER_BYTES)?;
        counters.partitions_spilled += 1;
        let tag = format!("p{partition}-d{depth}");
        let sub_r = self.repartition(&r_run, f, &format!("{tag}-r"), counters)?;
        let sub_s = self.repartition(&s_run, f, &format!("{tag}-s"), counters)?;
        // Parent runs delete their files now; sub-runs replace them, so the
        // disk high-water mark stays ~2x the spilled data per level.
        drop(r_run);
        drop(s_run);
        drop(overhead);
        for (rr, ss) in sub_r.into_iter().zip(sub_s) {
            if ctx.should_stop() {
                break;
            }
            let sub = self.join_spilled(
                rr,
                ss,
                consumed_bits + sub_bits,
                depth + 1,
                partition,
                counters,
            )?;
            c.merge(sub);
        }
        Ok(c)
    }

    /// Build `load`'s table from its build run and stream the other run
    /// through it; the caller holds `load.need`.
    fn load(
        &self,
        load: &Load,
        r_run: &SpillRun,
        s_run: &SpillRun,
    ) -> Result<JoinChecksum, JoinError> {
        let ctx = self.ctx;
        let io = |e: io::Error| io_error(ctx, &e);
        let (build_run, probe_run) = if load.reverse {
            (s_run, r_run)
        } else {
            (r_run, s_run)
        };
        self.failpoints.fire(SpillPoint::Read);
        // Built a page at a time through the reader the probe loop uses.
        let mut table = StLinearTable::<IdentityHash>::with_spec(&load.spec);
        let mut reader = build_run.reader().map_err(io)?;
        while let Some(page) = reader.next_page().map_err(io)? {
            if ctx.tick() {
                break;
            }
            table.insert_batch(page);
        }
        // The checksum is (key, R payload, S payload) in either
        // orientation. A reversed build side (S) can hold duplicate keys
        // even where R's are unique, so reversed probes scan every
        // match.
        let mut c = JoinChecksum::new();
        let mut reader = probe_run.reader().map_err(io)?;
        while let Some(page) = reader.next_page().map_err(io)? {
            if ctx.tick() {
                break;
            }
            if load.reverse {
                table.probe_batch(page, false, |t, bp| c.add(t.key, t.payload, bp));
            } else {
                table.probe_batch(page, self.unique, |t, bp| c.add(t.key, bp, t.payload));
            }
        }
        Ok(c)
    }

    /// Split one run into `f.fanout()` sub-runs on the pass's key bits.
    fn repartition(
        &self,
        run: &SpillRun,
        f: RadixFn,
        tag: &str,
        counters: &mut SpillCounters,
    ) -> Result<Vec<SpillRun>, JoinError> {
        let ctx = self.ctx;
        let io = |e: io::Error| io_error(ctx, &e);
        let mut writers: Vec<SpillWriter> = (0..f.fanout())
            .map(|i| self.dir.writer(&format!("{tag}-{i}")))
            .collect::<Result<_, _>>()
            .map_err(io)?;
        let mut reader = run.reader().map_err(io)?;
        while let Some(page) = reader.next_page().map_err(io)? {
            if ctx.tick() {
                break;
            }
            self.failpoints.fire(SpillPoint::Write);
            for t in page {
                writers[f.part(t.key)].push(*t).map_err(io)?;
            }
        }
        let mut runs = Vec::with_capacity(writers.len());
        for w in writers {
            let r = w.finish().map_err(io)?;
            counters.bytes_spilled += r.bytes();
            runs.push(r);
        }
        Ok(runs)
    }
}

/// Reserve `bytes` for a pair that runs alone; refused, it is the typed
/// budget error.
fn reserve(ctx: &RunCtx, bytes: usize) -> Result<MemCharge<'_>, JoinError> {
    ctx.budget()
        .try_reserve(bytes)
        .map_err(|be| ctx.budget_error(bytes, be))?;
    Ok(MemCharge::new(ctx.budget(), bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    fn cfg(threads: usize, bits: u32, mem_limit: usize) -> JoinConfig {
        let mut cfg = JoinConfig::new(threads);
        cfg.simulate = false;
        cfg.radix_bits = Some(bits);
        cfg.mem_limit = Some(mem_limit);
        cfg
    }

    fn assert_matches_reference(label: &str, r: &Relation, s: &Relation, res: &JoinResult) {
        let expect = reference_join(r, s);
        assert_eq!(res.matches, expect.count, "{label}: matches");
        assert_eq!(res.checksum, expect.digest, "{label}: checksum");
    }

    /// The residency plan is charged first; the routing scratch then
    /// halves its block down to `PROBE_GROUP` tuples before it fails.
    #[test]
    fn routing_scratch_halves_to_the_probe_group_floor_then_fails_typed() {
        let (threads, bits) = (2, 4);
        let r = gen_build_dense(20_000, 1, Placement::Chunked { parts: threads });
        let s = gen_probe_fk(60_000, 20_000, 2, Placement::Chunked { parts: threads });
        let f = RadixFn::new(bits);
        let plan: usize = histogram(r.tuples(), f)
            .iter()
            .map(|&n| partition_cost(n, bits))
            .sum();
        let floor = threads * (PROBE_GROUP + f.fanout() + 1) * 8;

        let res = join_shhj(&r, &s, &cfg(threads, bits, plan + floor)).expect("floor block fits");
        assert_matches_reference("plan + floor", &r, &s, &res);
        assert_eq!(res.spill_totals().partitions_spilled, 0, "all resident");

        match join_shhj(&r, &s, &cfg(threads, bits, plan + floor - 1)) {
            Err(JoinError::MemoryBudgetExceeded {
                phase, requested, ..
            }) => assert_eq!((phase, requested), ("partition", floor)),
            other => panic!("one byte below the floor: {other:?}"),
        }
    }

    /// The residency plan charges each resident partition its tuples and
    /// its packed table and nothing else: at the plan plus the routing
    /// scratch of a full block every partition stays resident; one byte
    /// short of the plan the costliest one is evicted. (Between the plan
    /// and the plan plus the scratch the block halves instead, down to
    /// the floor pinned above.)
    #[test]
    fn the_plan_admits_every_partition_exactly_at_its_charge() {
        let (threads, bits) = (2, 4);
        let r = gen_build_dense(20_000, 3, Placement::Chunked { parts: threads });
        let s = gen_probe_fk(60_000, 20_000, 4, Placement::Chunked { parts: threads });
        let f = RadixFn::new(bits);
        let plan: usize = histogram(r.tuples(), f)
            .iter()
            .map(|&n| partition_cost(n, bits))
            .sum();
        let block = (ROUTE_RUN * f.fanout())
            .clamp(MORSEL, ROUTE_MAX)
            .min(r.len().div_ceil(threads));
        let scratch = threads * (block + f.fanout() + 1) * 8;

        let res = join_shhj(&r, &s, &cfg(threads, bits, plan + scratch)).expect("plan fits");
        assert_matches_reference("plan + scratch", &r, &s, &res);
        assert_eq!(res.spill_totals().partitions_spilled, 0, "all resident");

        let res = join_shhj(&r, &s, &cfg(threads, bits, plan - 1)).expect("one evicted");
        assert_matches_reference("plan - 1", &r, &s, &res);
        assert!(res.spill_totals().partitions_spilled >= 1, "one byte short");
    }

    /// A pair is built from R's run whenever the build keys are unique
    /// and it fits the budget on its own, even where S's run is the
    /// smaller (as in `probe_heavy`'s service pair); otherwise from the
    /// smaller run if that fits; otherwise it is repartitioned.
    #[test]
    fn pairs_build_on_the_unique_side_when_it_fits() {
        let need = |n: u64| {
            let n = n as usize;
            n * 8 + TableSpec::hashed_partition(n, 4).table_bytes() + 2 * READER_BYTES
        };
        let (r, s) = (64 << 10, 40 << 10);
        let plan = |unique, limit| plan_load(r, s, 4, unique, limit).map(|l| (l.reverse, l.need));
        assert_eq!(plan(true, need(r)), Some((false, need(r))), "R fits");
        assert_eq!(
            plan(false, need(r)),
            Some((true, need(s))),
            "duplicate keys"
        );
        assert_eq!(plan(true, need(r) - 1), Some((true, need(s))), "R short");
        assert_eq!(plan(true, need(s) - 1), None, "neither fits");
        // R's run the smaller: built from R with or without the PK
        // assumption.
        for unique in [true, false] {
            let l = plan_load(s, r, 4, unique, need(s)).expect("fits");
            assert!(!l.reverse, "unique {unique}");
        }
    }

    /// `n` distinct keys of partition `p` under radix bits 3, each
    /// `dup` times.
    fn keys_in(p: usize, n: usize, dup: usize, payload0: u32) -> Vec<Tuple> {
        (0..n * dup)
            .map(|i| Tuple::new((8 * (i % n + 1) + p) as u32, payload0 + i as u32))
            .collect()
    }

    /// Every routed block of S holds windows of resident partitions
    /// (0, 3), evicted ones (1 — windows past `STAGE_TUPLES`, written
    /// straight from the routed buffer — and 2, a few tuples a block,
    /// staged) and partitions R left empty (6, 7). Duplicate build keys;
    /// the driver's own assertion checks that the budget is back to
    /// zero after the spill phase.
    #[test]
    fn a_routed_block_of_resident_evicted_and_empty_windows_matches_reference() {
        let mut build = keys_in(0, 200, 2, 0);
        build.extend(keys_in(1, 2_000, 2, 10_000));
        build.extend(keys_in(2, 1_500, 2, 20_000));
        build.extend(keys_in(3, 300, 2, 30_000));
        // 12 000 probes: per 100, 40 to partition 1, 1 to partition 2,
        // 15 each to 0 and 3, 14 each to 6 and 7.
        let probe: Vec<Tuple> = (0..12_000)
            .map(|i| {
                let (p, n) = match i % 100 {
                    0..40 => (1, 2_000),
                    40 => (2, 1_500),
                    41..56 => (0, 200),
                    56..71 => (3, 300),
                    71..85 => (6, 50),
                    _ => (7, 50),
                };
                Tuple::new((8 * (i / 100 % n + 1) + p) as u32, i as u32)
            })
            .collect();
        for threads in [1, 3] {
            let placement = Placement::Chunked { parts: threads };
            let r = Relation::from_tuples(&build, placement);
            let s = Relation::from_tuples(&probe, placement);
            let hist = histogram(r.tuples(), RadixFn::new(3));
            let cost = |p: usize| partition_cost(hist[p], 3);
            let per_spilled = 2 * WRITER_BYTES + threads * STAGE_TUPLES * 8;
            // Room for partitions 0 and 3, two evictions and some
            // routing scratch, but not for partition 2 besides.
            let slack = 40_000;
            assert!(slack + per_spilled < cost(2) && cost(2) < cost(1));
            let mut c = cfg(threads, 3, cost(0) + cost(3) + 2 * per_spilled + slack);
            let dir = std::env::temp_dir().join(format!(
                "mmjoin-shhj-routed-{threads}-{}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).expect("spill parent");
            c.spill_dir = Some(dir.clone());

            let label = format!("threads {threads}");
            let res = join_shhj(&r, &s, &c).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_matches_reference(&label, &r, &s, &res);
            let evicted = res.phases.iter().find(|p| p.name == "partition");
            assert_eq!(
                evicted.map(|p| p.spill.partitions_spilled),
                Some(2),
                "{label}"
            );
            let left = std::fs::read_dir(&dir).expect("spill parent").count();
            std::fs::remove_dir_all(&dir).expect("spill parent");
            assert_eq!(left, 0, "{label}: spill files left behind");
        }
    }
}

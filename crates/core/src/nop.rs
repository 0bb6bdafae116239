//! NOP and NOPA — the no-partitioning joins.
//!
//! NOP (Lang et al.): all threads concurrently insert their chunk of the
//! build relation into one global lock-free linear-probing table
//! (interleaved over all NUMA nodes), then probe their chunk of the probe
//! relation. Simultaneous multi-threading and out-of-order execution are
//! left to hide the cache misses — no hardware knowledge needed.
//!
//! NOPA (this paper): same skeleton, but the "table" is a plain payload
//! array indexed by the (dense) key.

use mmjoin_hashtable::{ConcurrentArrayTable, ConcurrentLinearTable, IdentityHash};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::tuple::Tuple;
use mmjoin_util::Relation;

use crate::config::JoinConfig;
use crate::exec::{merge_checksums, parallel_chunks, MORSEL};
use crate::plan::JoinError;
use crate::run::JoinRun;
use crate::spec::{self, ops, PhaseModel};
use crate::stats::JoinResult;
use crate::Algorithm;

/// The "build" phase over one global table: every worker inserts its
/// chunk of `r`, a morsel at a time, through `insert`.
fn build_global(
    run: &mut JoinRun,
    r: &Relation,
    table_bytes: f64,
    cpu_per_tuple: f64,
    insert: impl Fn(&[Tuple]) + Sync,
) -> Result<(), JoinError> {
    let cfg = run.cfg();
    run.phase(
        "build",
        |p| {
            parallel_chunks(p, r.tuples(), |_, chunk| {
                for block in chunk.chunks(MORSEL) {
                    if p.should_stop() {
                        return;
                    }
                    insert(block);
                }
            });
            Ok(())
        },
        |_| {
            PhaseModel::pass(spec::global_build_specs(
                cfg,
                r.len(),
                r.placement(),
                table_bytes,
                cpu_per_tuple,
            ))
        },
    )
}

/// The "probe" phase against one global (by now read-only) table — NOP,
/// NOPA and CHTJ alike: every worker probes its chunk of `s`, a morsel
/// at a time, through `probe`. `accesses_per_probe` and `cpu_per_tuple`
/// are the table's cost-model shape.
pub(crate) fn probe_global(
    run: &mut JoinRun,
    s: &Relation,
    table_bytes: f64,
    accesses_per_probe: f64,
    cpu_per_tuple: f64,
    probe: impl Fn(&[Tuple], &mut JoinChecksum) + Sync,
) -> Result<JoinChecksum, JoinError> {
    let cfg = run.cfg();
    run.phase(
        "probe",
        |p| {
            Ok(merge_checksums(parallel_chunks(
                p,
                s.tuples(),
                |_, chunk| {
                    let mut c = JoinChecksum::new();
                    for block in chunk.chunks(MORSEL) {
                        if p.should_stop() {
                            return c;
                        }
                        probe(block, &mut c);
                    }
                    c
                },
            )))
        },
        |_| {
            PhaseModel::pass(spec::global_probe_specs(
                cfg,
                s.len(),
                s.placement(),
                table_bytes,
                accesses_per_probe,
                cpu_per_tuple,
            ))
        },
    )
}

/// NOP's build phase: the global lock-free linear-probing table over `r`.
pub(crate) fn build_nop(
    run: &mut JoinRun,
    r: &Relation,
) -> Result<ConcurrentLinearTable<IdentityHash>, JoinError> {
    // The global table: capacity rounds |R| up to the next power of two
    // at 2x load headroom, 8 B per slot.
    run.reserve("build", (2 * r.len().max(1)).next_power_of_two() * 8)?;
    let table = ConcurrentLinearTable::<IdentityHash>::with_capacity(r.len());
    build_global(run, r, table.memory_bytes() as f64, ops::BUILD, |block| {
        table.insert_batch(block)
    })?;
    Ok(table)
}

/// NOPA's build phase: the global payload array over the key domain.
pub(crate) fn build_nopa(
    run: &mut JoinRun,
    r: &Relation,
) -> Result<ConcurrentArrayTable, JoinError> {
    let domain = run.cfg().domain(r.len());
    // The payload array: one 8 B slot per domain value.
    run.reserve("build", (domain + 1) * 8)?;
    let table = ConcurrentArrayTable::new(domain + 1, 1);
    build_global(run, r, table.memory_bytes() as f64, ops::ARRAY, |block| {
        table.insert_batch(block)
    })?;
    Ok(table)
}

/// NOP: lock-free linear-probing global table.
pub(crate) fn join_nop(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(Algorithm::Nop, cfg);
    let table = build_nop(&mut run, r)?;
    let table_bytes = table.memory_bytes() as f64;
    let checksum = probe_global(&mut run, s, table_bytes, 1.0, ops::PROBE, |block, c| {
        table.probe_batch(block, unique, |t, bp| c.add(t.key, bp, t.payload))
    })?;
    Ok(run.finish(checksum, None))
}

/// NOPA: global payload array over the key domain.
pub(crate) fn join_nopa(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    let mut run = JoinRun::begin(Algorithm::Nopa, cfg);
    let table = build_nopa(&mut run, r)?;
    let table_bytes = table.memory_bytes() as f64;
    let checksum = probe_global(&mut run, s, table_bytes, 1.0, ops::ARRAY, |block, c| {
        table.probe_batch(block, |t, bp| c.add(t.key, bp, t.payload))
    })?;
    Ok(run.finish(checksum, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    fn workload(n: usize) -> (Relation, Relation) {
        let r = gen_build_dense(n, 1, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(n * 4, n, 2, Placement::Chunked { parts: 4 });
        (r, s)
    }

    #[test]
    fn nop_matches_reference() {
        let (r, s) = workload(5_000);
        let expect = reference_join(&r, &s);
        for threads in [1, 2, 8] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let got = join_nop(&r, &s, &cfg).unwrap();
            assert_eq!(got.matches, expect.count, "threads={threads}");
            assert_eq!(got.checksum, expect.digest);
        }
    }

    #[test]
    fn nopa_matches_reference() {
        let (r, s) = workload(5_000);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(4);
        cfg.simulate = false;
        let got = join_nopa(&r, &s, &cfg).unwrap();
        assert_eq!(got.matches, expect.count);
        assert_eq!(got.checksum, expect.digest);
    }

    #[test]
    fn phases_recorded() {
        let (r, s) = workload(1_000);
        let cfg = JoinConfig::new(2);
        let res = join_nop(&r, &s, &cfg).unwrap();
        assert_eq!(res.phases.len(), 2);
        assert!(res.total_sim() > 0.0, "simulation produced time");
    }

    #[test]
    fn empty_probe() {
        let r = gen_build_dense(100, 1, Placement::Interleaved);
        let s = Relation::from_tuples(&[], Placement::Interleaved);
        let cfg = JoinConfig::new(2);
        assert_eq!(join_nop(&r, &s, &cfg).unwrap().matches, 0);
        assert_eq!(join_nopa(&r, &s, &cfg).unwrap().matches, 0);
    }
}

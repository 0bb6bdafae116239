//! CHTJ — the concise-hash-table join (Barber et al.).
//!
//! Classified as a no-partitioning join (Section 3.2): the build side is
//! partitioned by hash prefix only so threads can bulkload disjoint CHT
//! regions without synchronization; the probe phase is chunk-parallel
//! against the one global (read-only) CHT, exactly like NOP.

use mmjoin_hashtable::{ConciseHashTable, MultiplicativeHash};
use mmjoin_util::Relation;

use crate::config::JoinConfig;
use crate::nop::probe_global;
use crate::plan::JoinError;
use crate::run::JoinRun;
use crate::spec::{self, ops, PhaseModel};
use crate::stats::JoinResult;
use crate::Algorithm;

/// CHTJ's build phase (region-parallel bulkload inside).
pub(crate) fn build_chtj(
    run: &mut JoinRun,
    r: &Relation,
) -> Result<ConciseHashTable<MultiplicativeHash>, JoinError> {
    let cfg = run.cfg();
    // The bulkload's peak: the table (bitmap groups + dense array,
    // ~10 B a tuple) and its per-worker scratch.
    let peak = ConciseHashTable::<MultiplicativeHash>::build_bytes(r.len(), cfg.threads);
    run.reserve("build", peak)?;
    run.phase(
        "build",
        |p| Ok(ConciseHashTable::build_on(r.tuples(), p)),
        // Build = scan + radix scatter by hash prefix + bulkload writes.
        |cht| {
            PhaseModel::pass(spec::global_build_specs(
                cfg,
                r.len(),
                r.placement(),
                cht.memory_bytes() as f64,
                ops::BUILD + 2.0,
            ))
        },
    )
}

/// CHTJ: bulkloaded concise hash table + chunk-parallel probe.
pub(crate) fn join_chtj(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(Algorithm::Chtj, cfg);
    let cht = build_chtj(&mut run, r)?;
    // Probe: every lookup touches the bitmap word *and* the dense array —
    // the "at least two random accesses for every operation" that makes
    // CHTJ the most data-size-sensitive NOP*-algorithm (Section 7.3,
    // Table 4).
    let table_bytes = cht.memory_bytes() as f64;
    let checksum = probe_global(&mut run, s, table_bytes, 2.0, ops::CHT_PROBE, |block, c| {
        cht.probe_op(block, unique, |t, bp| c.add(t.key, bp, t.payload))
    })?;
    Ok(run.finish(checksum, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::Placement;

    #[test]
    fn chtj_matches_reference() {
        let n = 5_000;
        let r = gen_build_dense(n, 21, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(20_000, n, 22, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 4, 8] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let res = join_chtj(&r, &s, &cfg).unwrap();
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest);
        }
    }

    #[test]
    fn chtj_skewed_probe() {
        let n = 2_000;
        let r = gen_build_dense(n, 23, Placement::Interleaved);
        let s = gen_probe_zipf(10_000, n, 0.9, 24, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(4);
        cfg.simulate = false;
        let res = join_chtj(&r, &s, &cfg).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }
}

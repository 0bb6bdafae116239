//! Materializing join output.
//!
//! The thirteen study algorithms report verification checksums (the
//! micro-benchmark methodology shared by all the compared papers, which
//! deliberately excludes output materialization from the measured
//! runtime). Downstream users usually want the *join index* — the
//! `(key, build_payload, probe_payload)` triples — e.g. to drive late
//! materialization like TPC-H Q19's executor.
//!
//! `join_index` produces exactly that with CPRL's own phases — chunk-local
//! partitioning, then `pro::join_co_partition` per co-partition with a
//! match consumer that pushes triples where the driver's adds to a
//! checksum — so it returns what `Join::run(Cprl)` counts under the same
//! configuration: every match, whether or not the build keys repeat.
//! Every algorithm in this crate yields the same match multiset
//! (enforced by the integration tests), so materialization does not need
//! to be offered per algorithm.

use mmjoin_partition::{chunked_partition_on, RadixFn, ScatterMode};
use mmjoin_util::alloc::AlignedVec;
use mmjoin_util::trace::NoTracer;
use mmjoin_util::{Placement, Relation, Tuple};

use crate::config::{JoinConfig, TableKind};
use crate::exec::morsel_map;
use crate::executor::QueuePolicy;
use crate::plan::JoinError;
use crate::pro::{join_co_partition, partition_phase, swwcb_partition_bytes, PartTable};
use crate::run::JoinRun;
use crate::spec::PhaseModel;
use crate::Algorithm;

/// One materialized match.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinMatch {
    pub key: u32,
    pub build_payload: u32,
    pub probe_payload: u32,
}

/// Materialize `r ⋈ s` as a join index.
///
/// The output order is deterministic for a fixed configuration
/// (partition-id order, then chunk order within a partition) but is not
/// a semantic guarantee; sort or hash downstream as needed.
///
/// Runs CPRL's phases and honours what the thirteen drivers honour:
/// first-match probes only where the build keys are unique
/// ([`Relation::unique_keys`]), `cfg.deadline`, `cfg.cancel`, and
/// `cfg.mem_limit` (which here also covers the materialized output —
/// the one allocation the checksum-only drivers never make).
pub fn join_index(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<Vec<JoinMatch>, JoinError> {
    cfg.validate()?;
    let unique = r.unique_keys();
    let mut run = JoinRun::begin(Algorithm::Cprl, cfg);
    let table = PartTable::for_join(cfg, TableKind::Linear, r.len());
    let f = RadixFn::new(table.bits);
    let parts = f.fanout();

    let (cr, cs) = partition_phase(
        &mut run,
        r,
        s,
        swwcb_partition_bytes(cfg, r, s, parts),
        PhaseModel::none(),
        |tuples, p| chunked_partition_on(tuples, f, p, ScatterMode::Swwcb),
    )?;

    let order: Vec<usize> = (0..parts).collect();
    let mut tasks: Vec<(usize, AlignedVec<JoinMatch>)> = run.phase(
        "join",
        |ctx| {
            let policy = QueuePolicy::Shared;
            // A worker's table, charged at the largest it has been.
            let unbuilt = || (table.unbuilt(), ctx.empty_charge());
            let tasks = morsel_map(ctx, &order, parts, policy, unbuilt, |worker, p| {
                let (built, table_charge) = worker;
                let part_r_len = cr.part_len(p);
                let table_bytes = table.spec(part_r_len).table_bytes();
                if ctx.tick() || !ctx.try_grow(table_charge, table_bytes) {
                    return (p, AlignedVec::new());
                }
                // Output buffer: at least one JoinMatch per probe tuple of
                // the partition under the FK workloads; charge that bound.
                let out_bytes = cs.part_len(p) * std::mem::size_of::<JoinMatch>();
                let Some(_out_charge) = ctx.try_charge(out_bytes) else {
                    return (p, AlignedVec::new());
                };
                // Policy-aware output buffer: the per-partition gather is
                // the write-heavy allocation of materialization.
                let mut out = AlignedVec::with_capacity(cs.part_len(p));
                join_co_partition(
                    table,
                    unique,
                    built,
                    part_r_len,
                    cr.slices(p),
                    cs.slices(p),
                    &mut NoTracer,
                    |t, bp| {
                        out.push(JoinMatch {
                            key: t.key,
                            build_payload: bp,
                            probe_payload: t.payload,
                        })
                    },
                );
                (p, out)
            });
            Ok(tasks.into_iter().filter(|(_, v)| !v.is_empty()).collect())
        },
        |_| PhaseModel::none(),
    )?;

    // Deterministic order: by partition id.
    tasks.sort_by_key(|(p, _)| *p);
    let total: usize = tasks.iter().map(|(_, v)| v.len()).sum();
    run.reserve("join", total * std::mem::size_of::<JoinMatch>())?;
    let mut out = Vec::new();
    if out.try_reserve_exact(total).is_err() {
        return Err(JoinError::MemoryBudgetExceeded {
            phase: "join",
            requested: total * std::mem::size_of::<JoinMatch>(),
            limit: cfg.mem_limit.unwrap_or(usize::MAX),
            available: 0,
        });
    }
    for (_, v) in tasks {
        out.extend_from_slice(&v);
    }
    Ok(out)
}

/// The materialized two-step baseline for a two-join chain
/// `(first ⋈ s) ⋈ second` on `first.payload == second.key`.
///
/// Step one materializes `first ⋈ s` as a full join index; step two
/// re-runs `final_alg` with the intermediate `(first.payload, s.payload)`
/// relation as its probe side. The fused pipeline
/// (`crate::pipeline::Pipeline` with two stages) computes the same
/// checksum without ever allocating the intermediate — the differential
/// tests pin the two paths against each other, and the `pipeline` bench
/// experiment reports the bytes this baseline writes that the fused plan
/// avoids.
pub fn chain_two_step(
    first: &Relation,
    second: &Relation,
    s: &Relation,
    final_alg: Algorithm,
    cfg: &JoinConfig,
) -> Result<crate::stats::JoinResult, JoinError> {
    cfg.validate()?;
    crate::plan::check_dense_domain(final_alg, second, cfg)?;
    let idx = join_index(first, s, cfg)?;
    let mid: Vec<Tuple> = idx
        .iter()
        .map(|m| Tuple::new(m.build_payload, m.probe_payload))
        .collect();
    let mid_rel = Relation::from_tuples(&mid, Placement::Interleaved);
    crate::plan::dispatch(final_alg, second, &mid_rel, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
    use mmjoin_util::checksum::JoinChecksum;
    use mmjoin_util::Placement;

    fn checksum_of(matches: &[JoinMatch]) -> JoinChecksum {
        let mut c = JoinChecksum::new();
        for m in matches {
            c.add(m.key, m.build_payload, m.probe_payload);
        }
        c
    }

    #[test]
    fn index_matches_reference() {
        let r = gen_build_dense(3_000, 1, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(15_000, 3_000, 2, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 4] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            let idx = join_index(&r, &s, &cfg).unwrap();
            assert_eq!(idx.len() as u64, expect.count);
            assert_eq!(checksum_of(&idx), expect);
        }
    }

    /// `join_index` is CPRL with another match consumer: what `Join::run`
    /// counts is what it returns, and that is the reference join,
    /// whatever the build side's shape (and so its probe mode) and the
    /// fan-out — 2^12 partitions are more bits than a partition's table
    /// has slot bits, where a table hashed on the low bits would hold
    /// every key at one home slot.
    #[test]
    fn index_agrees_with_the_cprl_driver() {
        let n = 3_000u32;
        let dense: Vec<Tuple> = (1..=n).map(|k| Tuple::new(k, k ^ 0x55)).collect();
        let holes: Vec<Tuple> = (0..n).map(|k| Tuple::new(k * 7 + 3, k)).collect();
        let mut duplicated = dense.clone();
        duplicated.extend((1..=n / 3).map(|k| Tuple::new(k * 3, k)));
        let builds = [
            ("dense", dense),
            ("duplicated", duplicated),
            ("holes", holes),
        ];
        for (shape, build) in &builds {
            let r = Relation::from_tuples(build, Placement::Chunked { parts: 4 });
            let probe: Vec<Tuple> = (0..4 * n)
                .map(|i| Tuple::new(build[(i as usize * 31) % build.len()].key, i))
                .collect();
            let s = Relation::from_tuples(&probe, Placement::Chunked { parts: 4 });
            for bits in [None, Some(2), Some(12)] {
                let mut cfg = JoinConfig::new(3);
                cfg.simulate = false;
                cfg.radix_bits = bits;
                let idx = join_index(&r, &s, &cfg).unwrap();
                let join = crate::Join::new(Algorithm::Cprl).with_config(cfg);
                let res = join.run(&r, &s).unwrap();
                let at = format!("{shape} bits={bits:?}");
                assert_eq!(idx.len() as u64, res.matches, "{at}");
                assert_eq!(checksum_of(&idx).digest, res.checksum, "{at}");
                assert_eq!(checksum_of(&idx), reference_join(&r, &s), "{at}");
            }
        }
    }

    #[test]
    fn index_is_deterministic() {
        let r = gen_build_dense(1_000, 3, Placement::Interleaved);
        let s = gen_probe_zipf(5_000, 1_000, 0.9, 4, Placement::Interleaved);
        let mut cfg = JoinConfig::new(4);
        cfg.simulate = false;
        let a = join_index(&r, &s, &cfg).unwrap();
        let b = join_index(&r, &s, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cross_products_materialize_fully() {
        use mmjoin_util::{Relation, Tuple};
        let r = Relation::from_tuples(
            &[Tuple::new(7, 1), Tuple::new(7, 2)],
            Placement::Interleaved,
        );
        let s = Relation::from_tuples(
            &[Tuple::new(7, 10), Tuple::new(7, 11), Tuple::new(7, 12)],
            Placement::Interleaved,
        );
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        cfg.radix_bits = Some(2);
        let mut idx = join_index(&r, &s, &cfg).unwrap();
        idx.sort();
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|m| m.key == 7));
        // An array join refuses the repeated keys as the chain's second
        // build side, as it does at every other front door.
        match chain_two_step(&s, &r, &s, Algorithm::Nopa, &cfg) {
            Err(JoinError::InvalidConfig {
                field: "unique_keys",
                ..
            }) => {}
            other => panic!("expected the repeated-key refusal, got {other:?}"),
        }
    }

    #[test]
    fn empty_inputs() {
        let empty = mmjoin_util::Relation::from_tuples(&[], Placement::Interleaved);
        let r = gen_build_dense(10, 5, Placement::Interleaved);
        let cfg = JoinConfig::new(2);
        assert!(join_index(&empty, &r, &cfg).unwrap().is_empty());
        assert!(join_index(&r, &empty, &cfg).unwrap().is_empty());
    }
}

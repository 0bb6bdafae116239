//! Extension experiment: the fused operator pipeline (DESIGN.md §12) vs
//! the materialized two-step baseline on a two-join chain
//! `(R1 ⋈ S) ⋈ R2 ON R1.payload = R2.key`, per ported driver.
//!
//! The fused plan streams `(key, rid)` batches through both build sides
//! and gathers payloads only at the sink; the baseline materializes the
//! full intermediate join index and re-runs the driver over it. Both
//! must produce the same checksum — the difference is end-to-end time
//! and the intermediate bytes the fused plan never writes.

use std::time::Instant;

use mmjoin_core::materialize::chain_two_step;
use mmjoin_core::pipeline::{BuildSide, Pipeline, PORTED};
use mmjoin_core::{Algorithm, JoinConfig};
use mmjoin_util::Relation;

use crate::harness::{HarnessOpts, Table};

/// One fused-vs-two-step comparison of a two-join chain.
struct ChainRun {
    /// End-to-end fused wall seconds (both prepares + fused probe).
    fused_secs: f64,
    /// End-to-end two-step wall seconds (join index + final driver).
    two_step_secs: f64,
    /// Stage-boundary matches the fused plan never materialized.
    intermediate_matches: u64,
    /// `intermediate_matches` × bytes of one intermediate tuple.
    bytes_avoided: u64,
    /// Fused checksum equals the two-step baseline's.
    checksum_ok: bool,
}

/// The chain workload: `R1` with payloads linking into `R2`'s dense key
/// domain, and a uniform FK probe over `R1`.
fn chain_workload(
    opts: &HarnessOpts,
    r1_m: usize,
    r2_m: usize,
    s_m: usize,
    seed: u64,
) -> (Relation, Relation, Relation) {
    let n1 = opts.tuples(r1_m);
    let n2 = opts.tuples(r2_m);
    let r1 = mmjoin_datagen::gen_build_linked(n1, n2, seed, opts.placement());
    let r2 = mmjoin_datagen::gen_build_dense(n2, seed ^ 0xD00D, opts.placement());
    let s = mmjoin_datagen::gen_probe_fk(opts.tuples(s_m), n1, seed ^ 0xBEEF, opts.placement());
    (r1, r2, s)
}

/// Run the chain both ways under `threads` host workers and compare.
fn run_chain(
    alg: Algorithm,
    r1: &Relation,
    r2: &Relation,
    s: &Relation,
    threads: usize,
) -> ChainRun {
    let mut cfg = JoinConfig::new(threads);
    cfg.simulate = false;

    let start = Instant::now();
    let stage1 = BuildSide::prepare(alg, r1, &cfg).expect("stage-1 build side");
    let stage2 = BuildSide::prepare(alg, r2, &cfg).expect("stage-2 build side");
    let fused = Pipeline::new()
        .with_stage(stage1)
        .with_stage(stage2)
        .with_config(cfg.clone())
        .run(s)
        .expect("fused pipeline");
    let fused_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let base = chain_two_step(r1, r2, s, alg, &cfg).expect("two-step baseline");
    let two_step_secs = start.elapsed().as_secs_f64();

    ChainRun {
        fused_secs,
        two_step_secs,
        intermediate_matches: fused.intermediate_matches,
        bytes_avoided: fused.bytes_avoided(),
        checksum_ok: fused.checksum == base.checksum && fused.matches == base.matches,
    }
}

pub fn run(opts: &HarnessOpts) -> Vec<Table> {
    let mut table = Table::new(
        "Extension — fused operator pipeline vs materialized two-step chain (host wall ms)",
        &[
            "driver",
            "fused",
            "two-step",
            "two-step/fused",
            "interm tuples",
            "MiB avoided",
            "checksum",
        ],
    );
    let (r1, r2, s) = chain_workload(opts, 16, 4, 64, 0xF0A);
    for alg in PORTED {
        let run = run_chain(alg, &r1, &r2, &s, opts.threads);
        table.row(vec![
            alg.name().to_string(),
            format!("{:.1}", run.fused_secs * 1e3),
            format!("{:.1}", run.two_step_secs * 1e3),
            format!("{:.2}", run.two_step_secs / run.fused_secs.max(1e-12)),
            format!("{}", run.intermediate_matches),
            format!("{:.2}", run.bytes_avoided as f64 / (1024.0 * 1024.0)),
            if run.checksum_ok { "ok" } else { "MISMATCH" }.to_string(),
        ]);
        assert!(run.checksum_ok, "{alg}: fused/two-step checksum mismatch");
    }
    table.note("fused end-to-end includes both build sides; two-step includes the join-index");
    table.note("materialization the fused plan skips — 'MiB avoided' is that intermediate's size");
    vec![table]
}

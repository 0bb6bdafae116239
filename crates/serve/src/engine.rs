//! Join execution on behalf of an admitted job (DESIGN.md §15).
//!
//! A runner thread picks an [`Admitted`] job and:
//!
//! 1. checks the deadline (queue wait counts — an expired job returns a
//!    typed `timedout` without touching the relations);
//! 2. resolves the catalog relations;
//! 3. reserves a footprint estimate against the tenant *and* global
//!    budgets; if either refuses, the plan **degrades** to the spilling
//!    hybrid hash join under whatever grant is still available instead
//!    of rejecting;
//! 4. runs — through the shared build-side cache + fused pipeline for
//!    `PORTED` algorithms, the classic driver otherwise; a classic run
//!    that still overruns its reservation mid-flight
//!    (`MemoryBudgetExceeded`) is retried once, degraded;
//! 5. releases the reservation and renders the response frame.
//!
//! The engine consumes only `mmjoin_core::prelude` — anything it needs
//! beyond that is a public-API bug (see `prelude`'s docs).

use std::time::Instant;

use mmjoin_core::prelude::{
    is_ported, Algorithm, BuildSide, Join, JoinConfig, JoinError, JoinResult, Pipeline, Tuple,
};

use crate::admission::Admitted;
use crate::cache::CacheKey;
use crate::catalog::CatalogEntry;
use crate::protocol::{self, JoinOutcome, JoinSpec};
use crate::telemetry::QueryRecord;
use crate::Shared;

/// Below this grant SHHJ can't even hold its partition buffers; the
/// degraded path never reserves less.
const SPILL_FLOOR: usize = 4 << 20;

/// Admission-time footprint estimate for one join: inputs are already
/// resident (catalog-owned), so this covers the *working set* — the
/// partitioned copies of both sides for radix joins, the table for
/// no-partitioning joins, sort runs for MWAY — with headroom. A rough
/// upper bound on purpose: overestimation degrades to spilling early,
/// underestimation is caught mid-run by `mem_limit` and retried
/// degraded, so precision only tunes which path gets taken.
pub fn estimate_bytes(algorithm: Algorithm, r_rows: usize, s_rows: usize) -> usize {
    let t = std::mem::size_of::<Tuple>();
    let r = r_rows * t;
    let s = s_rows * t;
    match algorithm {
        // Both sides copied into partitions, then per-partition tables.
        a if a.is_partitioned() => (r + s) * 2 + r,
        // Sort-merge: both sides into sorted runs plus merge space.
        Algorithm::Mway => (r + s) * 2 + (r + s) / 2,
        // Build table only (chained/linear/array over the domain).
        _ => r * 3 + SPILL_FLOOR / 4,
    }
}

struct Lease<'a> {
    adm: &'a Admitted,
    bytes: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.adm.budget.release(self.bytes);
        self.adm.global.release(self.bytes);
    }
}

/// Reserve `bytes` on both levels, or nothing.
fn reserve(adm: &Admitted, bytes: usize) -> Option<Lease<'_>> {
    adm.budget.try_reserve(bytes).ok()?;
    if adm.global.try_reserve(bytes).is_err() {
        adm.budget.release(bytes);
        return None;
    }
    Some(Lease { adm, bytes })
}

/// Largest reservation obtainable right now for the degraded path:
/// start from what both levels report free, floor at [`SPILL_FLOOR`],
/// and halve on contention races until something sticks.
fn reserve_degraded(adm: &Admitted, want: usize) -> Option<Lease<'_>> {
    let free_tenant = adm.budget.limit().saturating_sub(adm.budget.used());
    let free_global = adm.global.limit().saturating_sub(adm.global.used());
    let mut grant = want.min(free_tenant).min(free_global).max(SPILL_FLOOR);
    loop {
        if let Some(l) = reserve(adm, grant) {
            return Some(l);
        }
        if grant <= SPILL_FLOOR {
            // Budgets are transiently full of other jobs' leases; the
            // floor reservation itself failed. Run at the floor without
            // a lease rather than deadlock — SHHJ keeps itself honest
            // via its own `mem_limit`.
            return None;
        }
        grant = (grant / 2).max(SPILL_FLOOR);
    }
}

fn base_config(
    shared: &Shared,
    spec: &JoinSpec,
    job_deadline: Option<std::time::Duration>,
    cancel: mmjoin_core::prelude::CancelToken,
    build: &CatalogEntry,
    probe: &CatalogEntry,
) -> JoinConfig {
    let mut cfg = JoinConfig::new(shared.cfg.join_threads);
    cfg.simulate = false;
    cfg.key_domain = build.domain;
    cfg.probe_theta = probe.theta;
    cfg.radix_bits = spec.radix_bits;
    cfg.cancel = cancel;
    cfg.deadline = job_deadline;
    cfg
}

/// Run the requested plan in memory; the flag is whether the build side
/// came out of the cache.
fn run_resident(
    shared: &Shared,
    spec: &JoinSpec,
    cfg: &JoinConfig,
    build: &CatalogEntry,
    probe: &CatalogEntry,
) -> Result<(JoinResult, bool), JoinError> {
    if spec.cache && is_ported(spec.algorithm) {
        let key = CacheKey {
            relation: build.name.clone(),
            version: build.version,
            algorithm: spec.algorithm,
            radix_bits: spec.radix_bits,
        };
        let (side, cached) = match shared.cache.get(&key) {
            Some(side) => (side, true),
            None => {
                let side = BuildSide::prepare(spec.algorithm, &build.rel, cfg)?;
                shared.cache.insert(key, std::sync::Arc::clone(&side));
                (side, false)
            }
        };
        let out = Pipeline::new()
            .with_stage(side)
            .with_config(cfg.clone())
            .run(&probe.rel)?;
        return Ok((out, cached));
    }
    let out = Join::new(spec.algorithm)
        .with_config(cfg.clone())
        .run(&build.rel, &probe.rel)?;
    Ok((out, false))
}

/// Execute one admitted job end to end; returns the response payload.
pub(crate) fn execute(shared: &Shared, adm: &Admitted) -> String {
    let job = &adm.job;
    let started = Instant::now();
    let queue_ms = started.duration_since(job.received).as_secs_f64() * 1e3;

    let record_err = |code: &'static str| {
        shared
            .telemetry
            .record_join(QueryRecord::new(job, queue_ms, Err(code)));
    };

    // Deadline already blown in the queue → typed timeout, nothing run.
    let remaining = match job.expires {
        Some(exp) => match exp.checked_duration_since(started) {
            Some(rem) => Some(rem),
            None => {
                let err = JoinError::Timedout {
                    phase: "queue",
                    elapsed: started.duration_since(job.received),
                    partial: Vec::new(),
                };
                record_err(err.code());
                return protocol::join_error_response(job.id, &err);
            }
        },
        None => None,
    };

    let (build, probe) = match (
        shared.catalog.get(&job.spec.build),
        shared.catalog.get(&job.spec.probe),
    ) {
        (Ok(b), Ok(p)) => (b, p),
        (Err(e), _) | (_, Err(e)) => {
            record_err(e.code);
            return protocol::error_response(job.id, &e);
        }
    };

    let want = estimate_bytes(job.spec.algorithm, build.rel.len(), probe.rel.len());
    let mut degraded = false;
    let mut lease = match reserve(adm, want) {
        Some(l) => Some(l),
        None => {
            degraded = true;
            reserve_degraded(adm, want)
        }
    };
    let grant = lease.as_ref().map(|l| l.bytes).unwrap_or(SPILL_FLOOR);

    let mut cfg = base_config(
        shared,
        &job.spec,
        remaining,
        job.cancel.clone(),
        &build,
        &probe,
    );
    cfg.mem_limit = Some(grant);

    let result = if degraded {
        run_degraded(shared, &cfg, grant, &build, &probe)
    } else {
        match run_resident(shared, &job.spec, &cfg, &build, &probe) {
            // A classic plan that outgrew its reservation mid-run:
            // retry once, degraded, rather than surfacing the budget
            // error to a client that never asked for a budget. The
            // failed lease goes back first; the retry reserves as the
            // up-front degraded path does, never below the floor.
            Err(JoinError::MemoryBudgetExceeded { .. }) => {
                degraded = true;
                drop(lease.take());
                lease = reserve_degraded(adm, want);
                let grant = lease.as_ref().map(|l| l.bytes).unwrap_or(SPILL_FLOOR);
                run_degraded(shared, &cfg, grant, &build, &probe)
            }
            other => other,
        }
    };

    drop(lease);

    match result {
        Ok((out, cached)) => {
            let outcome = JoinOutcome {
                algorithm: if degraded {
                    Algorithm::Shhj
                } else {
                    job.spec.algorithm
                },
                matches: out.matches,
                checksum: out.checksum,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                queue_ms,
                cached,
                degraded,
                spill_bytes: out.spill_totals().bytes_spilled,
            };
            shared.telemetry.record_join(QueryRecord::new(
                job,
                queue_ms,
                Ok((&outcome, out.phases)),
            ));
            protocol::join_response(job.id, &outcome)
        }
        Err(err) => {
            record_err(err.code());
            protocol::join_error_response(job.id, &err)
        }
    }
}

/// The degraded path: spilling hybrid hash join under `grant` bytes,
/// spilling to the configured directory.
fn run_degraded(
    shared: &Shared,
    cfg: &JoinConfig,
    grant: usize,
    build: &CatalogEntry,
    probe: &CatalogEntry,
) -> Result<(JoinResult, bool), JoinError> {
    let mut cfg = cfg.clone();
    cfg.mem_limit = Some(grant);
    cfg.spill = true;
    if let Some(dir) = &shared.cfg.spill_dir {
        cfg.spill_dir = Some(dir.clone());
    }
    let out = Join::new(Algorithm::Shhj)
        .with_config(cfg)
        .run(&build.rel, &probe.rel)?;
    Ok((out, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_scale_with_inputs_and_respect_family() {
        let part = estimate_bytes(Algorithm::Pro, 1 << 20, 1 << 23);
        let nop = estimate_bytes(Algorithm::Nop, 1 << 20, 1 << 23);
        // Partitioned joins copy the probe side too; NOP never does.
        assert!(part > nop);
        assert!(estimate_bytes(Algorithm::Pro, 2 << 20, 2 << 23) > part);
    }
}

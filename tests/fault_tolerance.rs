//! Failpoint-driven fault-tolerance tests (`--features failpoints`).
//!
//! The contract under test: a panic injected into ANY phase of ANY of
//! the thirteen algorithms surfaces as `JoinError::WorkerPanicked` with
//! the right phase label — no deadlock, no abort — and the very next
//! join submitted to the same persistent worker pool completes with the
//! correct checksum (the pool survived, every worker thread alive).
//!
//! Failpoints are armed thread-locally (`arm_local`), so these tests
//! can run concurrently with every other test of the binary without
//! leaking faults into them.
#![cfg(feature = "failpoints")]

use std::time::Duration;

use mmjoin::core::fault::failpoints::{arm_local, FailAction};
use mmjoin::core::reference::reference_join;
use mmjoin::core::{Algorithm, Join, JoinConfig, JoinError};
use mmjoin::util::{Placement, Relation};

const THREADS: usize = 4;

fn workload() -> (Relation, Relation) {
    let n = 3_000;
    let r = mmjoin::datagen::gen_build_dense(n, 77, Placement::Chunked { parts: 4 });
    let s = mmjoin::datagen::gen_probe_fk(n * 4, n, 78, Placement::Chunked { parts: 4 });
    (r, s)
}

fn cfg() -> JoinConfig {
    let mut c = JoinConfig::new(THREADS);
    c.simulate = false;
    c.radix_bits = Some(5);
    c
}

fn run(alg: Algorithm, r: &Relation, s: &Relation) -> Result<mmjoin::core::JoinResult, JoinError> {
    Join::new(alg).with_config(cfg()).run(r, s)
}

/// Panic in `phase` of `alg` must yield `WorkerPanicked` naming that
/// phase, and the immediately following join on the same pool must
/// produce the reference checksum.
fn assert_panic_contained(alg: Algorithm, phase: &'static str, r: &Relation, s: &Relation) {
    let expect = reference_join(r, s);
    let name = format!("{}.{phase}", alg.name());
    {
        let _g = arm_local(&name, FailAction::Panic);
        match run(alg, r, s) {
            Err(JoinError::WorkerPanicked {
                phase: got,
                payload,
            }) => {
                assert_eq!(got, phase, "{name}: wrong phase label");
                assert!(
                    payload.contains("failpoint"),
                    "{name}: payload {payload:?} does not mention the failpoint"
                );
            }
            other => panic!("{name}: expected WorkerPanicked, got {other:?}"),
        }
    }
    // Pool survived: the same algorithm immediately succeeds.
    let res = run(alg, r, s).unwrap_or_else(|e| panic!("{name}: join after panic failed: {e}"));
    assert_eq!(res.matches, expect.count, "{name}: wrong count after heal");
    assert_eq!(
        res.checksum, expect.digest,
        "{name}: wrong checksum after heal"
    );
}

/// The acceptance matrix: {partition, build, probe} × {NOP, PRO, CPRL,
/// MWAY} — every named phase of the named algorithms.
#[test]
fn panic_isolated_in_every_phase_of_headline_algorithms() {
    let (r, s) = workload();
    for alg in [
        Algorithm::Nop,
        Algorithm::Pro,
        Algorithm::Cprl,
        Algorithm::Mway,
    ] {
        for &phase in alg.phases() {
            assert_panic_contained(alg, phase, &r, &s);
        }
    }
}

/// Every phase of every one of the thirteen drivers contains an
/// injected panic and its pool survives.
#[test]
fn panic_isolated_in_every_phase_of_all_thirteen() {
    let (r, s) = workload();
    for alg in Algorithm::ALL {
        for &phase in alg.phases() {
            assert_panic_contained(alg, phase, &r, &s);
        }
    }
}

/// A sleep failpoint plus a short deadline makes the deadline fire
/// deterministically mid-phase (not just at `Duration::ZERO`).
#[test]
fn sleep_failpoint_trips_a_real_deadline() {
    let (r, s) = workload();
    let _g = arm_local("PRO.join", FailAction::Sleep(30));
    let mut c = cfg();
    c.deadline = Some(Duration::from_millis(10));
    match Join::new(Algorithm::Pro).with_config(c).run(&r, &s) {
        Err(JoinError::Timedout {
            phase,
            elapsed,
            partial,
        }) => {
            assert_eq!(phase, "join");
            assert!(elapsed >= Duration::from_millis(10));
            assert!(
                partial.iter().any(|p| p.name == "partition"),
                "partition completed before the deadline"
            );
        }
        other => panic!("expected Timedout, got {other:?}"),
    }
}

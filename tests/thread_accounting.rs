//! Threads accounted for (ROADMAP aim 1): a worker pool belongs to the
//! thread that submits joins to it and is joined when that thread exits,
//! so a plain thread that ran a join, and a server after `shutdown`,
//! leave the process with the threads it had before them.
//!
//! Alone in its binary, as one test: it counts the process's live
//! threads (`/proc/self/task`), which any other test's pools would move.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use mmjoin::core::{Algorithm, Join, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::serve::{Client, ServeConfig, Server};
use mmjoin::util::jsonv::Value;
use mmjoin::util::Placement;

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// A joined thread can still be listed for a moment after its join
/// returns (the kernel clears the tid before it unlists the task), so
/// wait — boundedly — for the count to come back before comparing.
fn assert_back_to(baseline: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while live_threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(live_threads(), baseline, "{what}: threads left behind");
}

#[test]
fn joins_leave_no_threads_behind() {
    // A plain thread: its first join spawns its pool, its exit joins it.
    let r = gen_build_dense(4_096, 7, Placement::Interleaved);
    let s = gen_probe_fk(16_384, 4_096, 8, Placement::Interleaved);
    let baseline = live_threads();
    let matches = std::thread::spawn(move || {
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        let res = Join::new(Algorithm::Pro).with_config(cfg).run(&r, &s);
        res.expect("join").matches
    })
    .join()
    .unwrap();
    assert_eq!(matches, 16_384);
    assert_back_to(baseline, "a thread that ran one join");

    // A server: every runner's pool goes with its runner at shutdown.
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(2)
            .with_join_threads(2)
            .with_tenant_budget("tiny", 256 << 10),
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(120))).unwrap();
    for req in [
        r#"{"op":"load","name":"r","rows":4096,"kind":"build","seed":7}"#,
        r#"{"op":"load","name":"s","rows":16384,"kind":"probe_fk","domain":4096,"seed":8}"#,
    ] {
        let v = c.request(req).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{v:?}");
    }
    // One request per way a runner runs a join: a cached build side
    // probed by the pipeline (no-partitioning and partitioned), the
    // classic driver, and the degraded SHHJ of a starved tenant.
    for (algo, tenant, degraded) in [
        ("NOP", "default", false),
        ("PRO", "default", false),
        ("MWAY", "default", false),
        ("PRO", "tiny", true),
    ] {
        let v = c
            .request(&format!(
                r#"{{"op":"join","algo":"{algo}","build":"r","probe":"s","tenant":"{tenant}"}}"#
            ))
            .unwrap();
        assert_eq!(
            v.get("matches").and_then(Value::as_num),
            Some(16_384.0),
            "{v:?}"
        );
        assert_eq!(
            v.get("degraded").and_then(Value::as_bool),
            Some(degraded),
            "{v:?}"
        );
    }
    assert!(live_threads() > baseline, "a running server has threads");
    drop(c);
    server.shutdown();
    assert_back_to(baseline, "a server after shutdown");
}

//! Integration suite for the `mmjoin-serve` protocol (ISSUE 9 /
//! DESIGN.md §15): multi-tenant admission behavior, deadline expiry,
//! framing robustness, and build-side cache consistency — all through
//! the public TCP surface, exactly as an external client would see it.

use std::time::Duration;

use mmjoin::serve::{Client, ServeConfig, Server};
use mmjoin::util::jsonv::Value;

fn client(server: &Server) -> Client {
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(120))).unwrap();
    c
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(|b| b.as_bool()) == Some(true)
}

fn err_code(v: &Value) -> &str {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .unwrap_or("<no error code>")
}

fn checksum(v: &Value) -> &str {
    v.get("checksum").and_then(|c| c.as_str()).unwrap_or("")
}

/// Structural validation of a parsed `stat` body: every section the
/// server promises, with the right JSON types. The payload already
/// round-tripped through `jsonv::parse` to get here (the client parses
/// every response frame), so passing this means the whole rendered
/// document is well-formed JSON of the documented shape.
fn validate_stat(stat: &Value) {
    let n = |v: &Value, k: &str| {
        v.get(k)
            .and_then(|x| x.as_num())
            .unwrap_or_else(|| panic!("stat missing number {k:?}: {v:?}"))
    };
    n(stat, "uptime_ms");
    n(stat, "frames");
    n(stat, "bad_frames");
    n(stat, "bytes_out");
    let conns = stat.get("connections").expect("connections");
    n(conns, "accepted");
    n(conns, "open");
    let joins = stat.get("joins").expect("joins");
    n(joins, "ok");
    n(joins, "err");
    n(joins, "degraded");
    let cache = stat.get("cache").expect("cache");
    for k in [
        "entries",
        "bytes",
        "capacity",
        "hits",
        "misses",
        "evictions",
    ] {
        n(cache, k);
    }
    let gb = stat.get("global_budget").expect("global_budget");
    n(gb, "used");
    n(gb, "limit");
    for t in stat
        .get("tenants")
        .and_then(|t| t.as_arr())
        .expect("tenants")
    {
        assert!(t.get("name").and_then(|s| s.as_str()).is_some());
        for k in [
            "queued",
            "admitted",
            "rejected",
            "completed",
            "errored",
            "degraded",
        ] {
            n(t, k);
        }
    }
    for e in stat
        .get("catalog")
        .and_then(|c| c.as_arr())
        .expect("catalog")
    {
        assert!(e.get("name").and_then(|s| s.as_str()).is_some());
        n(e, "rows");
        n(e, "bytes");
        n(e, "version");
    }
    // The telemetry section (DESIGN.md §16).
    let tel = stat.get("telemetry").expect("telemetry");
    n(tel, "window_secs");
    let flight = tel.get("flight").expect("flight");
    n(flight, "len");
    n(flight, "capacity");
    n(flight, "dropped");
    for t in tel
        .get("tenants")
        .and_then(|t| t.as_arr())
        .expect("slo tenants")
    {
        assert!(t.get("name").and_then(|s| s.as_str()).is_some());
        n(t, "requests");
        n(t, "error_rate");
        n(t, "degraded_rate");
        for view in ["rolling", "total"] {
            let r = t.get(view).unwrap_or_else(|| panic!("missing {view}"));
            n(r, "count");
            n(r, "p50_ms");
            n(r, "p99_ms");
            n(r, "p999_ms");
        }
    }
    let overall = tel.get("overall").expect("overall");
    n(overall, "count");
    n(overall, "p99_ms");
    assert_outcomes_reconcile(stat);
}

/// Every view of the answered joins in a `stat` body reads one count
/// (DESIGN.md §15): `joins`, the admission rows and the SLO view agree
/// exactly once no join is in flight.
fn assert_outcomes_reconcile(stat: &Value) {
    let n = |v: &Value, k: &str| v.get(k).and_then(|x| x.as_num()).unwrap();
    let rows = |v: &Value| v.get("tenants").and_then(|t| t.as_arr()).unwrap().to_vec();
    let sum = |rows: &[Value], f: &dyn Fn(&Value) -> f64| rows.iter().map(f).sum::<f64>();
    let joins = stat.get("joins").unwrap();
    let tenants = rows(stat);
    let tel = stat.get("telemetry").unwrap();
    let slo = rows(tel);
    let requests = sum(&slo, &|t| n(t, "requests"));
    assert_eq!(
        n(joins, "ok"),
        sum(&tenants, &|t| n(t, "completed")),
        "{stat:?}"
    );
    assert_eq!(
        n(joins, "ok"),
        sum(&slo, &|t| n(t, "requests") - n(t, "errors")),
        "{stat:?}"
    );
    assert_eq!(
        n(joins, "err"),
        sum(&tenants, &|t| n(t, "errored")),
        "{stat:?}"
    );
    assert_eq!(
        n(joins, "degraded"),
        sum(&tenants, &|t| n(t, "degraded")),
        "{stat:?}"
    );
    assert_eq!(
        n(joins, "degraded"),
        sum(&slo, &|t| n(t, "degraded")),
        "{stat:?}"
    );
    // Each answer is exactly one of completed, errored or rejected.
    assert_eq!(
        requests,
        sum(&tenants, &|t| n(t, "completed")
            + n(t, "errored")
            + n(t, "rejected")),
        "{stat:?}"
    );
    assert_eq!(
        requests,
        n(tel.get("overall").unwrap(), "count"),
        "{stat:?}"
    );
}

fn load_pair(c: &mut Client, build_rows: usize, probe_rows: usize) {
    let v = c
        .request(&format!(
            r#"{{"op":"load","name":"r","rows":{build_rows},"kind":"build","seed":42}}"#
        ))
        .unwrap();
    assert!(ok(&v), "load r failed: {v:?}");
    let v = c
        .request(&format!(
            r#"{{"op":"load","name":"s","rows":{probe_rows},"kind":"probe_fk","domain":{build_rows},"seed":43}}"#
        ))
        .unwrap();
    assert!(ok(&v), "load s failed: {v:?}");
}

#[test]
fn load_join_stat_round_trip() {
    let server = Server::spawn(ServeConfig::default().with_runners(2)).unwrap();
    let mut c = client(&server);

    load_pair(&mut c, 50_000, 200_000);
    let v = c
        .request(r#"{"op":"join","id":1,"algo":"PRO","build":"r","probe":"s"}"#)
        .unwrap();
    assert!(ok(&v), "join failed: {v:?}");
    assert_eq!(v.get("id").and_then(|i| i.as_num()), Some(1.0));
    assert_eq!(v.get("matches").and_then(|m| m.as_num()), Some(200_000.0));
    assert!(!checksum(&v).is_empty());

    let v = c.request(r#"{"op":"stat"}"#).unwrap();
    assert!(ok(&v));
    let stat = v.get("stat").expect("stat body");
    validate_stat(stat);
    // The embedder-facing export is the same document.
    let direct = mmjoin::util::jsonv::parse(&server.stat_json()).expect("stat_json parses");
    validate_stat(&direct);
    let catalog = stat.get("catalog").and_then(|c| c.as_arr()).unwrap();
    assert_eq!(catalog.len(), 2);
    let joins_ok = stat
        .get("joins")
        .and_then(|j| j.get("ok"))
        .and_then(|n| n.as_num())
        .unwrap();
    assert!(joins_ok >= 1.0);

    // Unknown relations and algorithms come back typed, not as hangups.
    let v = c
        .request(r#"{"op":"join","algo":"PRO","build":"nope","probe":"s"}"#)
        .unwrap();
    assert_eq!(err_code(&v), "unknown_relation");
    let v = c
        .request(r#"{"op":"join","algo":"zzz","build":"r","probe":"s"}"#)
        .unwrap();
    assert_eq!(err_code(&v), "unknown_algorithm");

    server.shutdown();
}

/// Two tenants, conflicting budgets: the starved one degrades to the
/// spilling join (never an error), the funded one runs resident, and
/// both compute the same result.
#[test]
fn conflicting_tenant_budgets_one_spills_one_resident() {
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(2)
            .with_tenant_budget("small", 6 << 20)
            .with_tenant_budget("big", 512 << 20),
    )
    .unwrap();
    let mut c = client(&server);
    // Working-set estimate for PRO over (200k, 1M) tuples is ~21 MB:
    // far above "small"'s 6 MiB carve, far below "big"'s 512 MiB.
    load_pair(&mut c, 200_000, 1_000_000);

    let small = c
        .request(r#"{"op":"join","id":10,"tenant":"small","algo":"PRO","build":"r","probe":"s"}"#)
        .unwrap();
    let big = c
        .request(r#"{"op":"join","id":11,"tenant":"big","algo":"PRO","build":"r","probe":"s"}"#)
        .unwrap();

    assert!(
        ok(&small),
        "starved tenant must degrade, not fail: {small:?}"
    );
    assert_eq!(small.get("degraded").and_then(|d| d.as_bool()), Some(true));
    assert_eq!(small.get("algo").and_then(|a| a.as_str()), Some("SHHJ"));

    assert!(ok(&big), "funded tenant failed: {big:?}");
    assert_eq!(big.get("degraded").and_then(|d| d.as_bool()), Some(false));
    assert_eq!(big.get("algo").and_then(|a| a.as_str()), Some("PRO"));

    assert_eq!(small.get("matches").and_then(|m| m.as_num()), Some(1e6));
    assert_eq!(big.get("matches").and_then(|m| m.as_num()), Some(1e6));
    assert_eq!(checksum(&small), checksum(&big), "degraded result diverged");

    // stat records the degradation against the right tenant.
    let v = c.request(r#"{"op":"stat"}"#).unwrap();
    validate_stat(v.get("stat").expect("stat body"));
    let tenants = v
        .get("stat")
        .and_then(|s| s.get("tenants"))
        .and_then(|t| t.as_arr())
        .unwrap();
    let find = |name: &str| {
        tenants
            .iter()
            .find(|t| t.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("tenant {name} missing from stat"))
    };
    assert_eq!(
        find("small").get("degraded").and_then(|d| d.as_num()),
        Some(1.0)
    );
    assert_eq!(
        find("big").get("degraded").and_then(|d| d.as_num()),
        Some(0.0)
    );

    server.shutdown();
}

/// A deadline that expires while the join is running comes back as the
/// typed `timedout` error — and the connection keeps working.
#[test]
fn deadline_expiry_is_typed_and_connection_survives() {
    let server = Server::spawn(ServeConfig::default().with_runners(2)).unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 1_000_000, 4_000_000);

    let v = c
        .request(
            r#"{"op":"join","id":20,"algo":"PRO","build":"r","probe":"s","deadline_ms":5,"cache":false}"#,
        )
        .unwrap();
    assert!(!ok(&v), "a 5 ms deadline cannot fit this join: {v:?}");
    assert_eq!(err_code(&v), "timedout");
    assert_eq!(v.get("id").and_then(|i| i.as_num()), Some(20.0));

    // Same socket, next request: alive and correct.
    let v = c.request(r#"{"op":"stat"}"#).unwrap();
    assert!(ok(&v));
    validate_stat(v.get("stat").expect("stat body"));
    let v = c
        .request(r#"{"op":"join","id":21,"algo":"NOP","build":"r","probe":"s"}"#)
        .unwrap();
    assert!(ok(&v), "join after timeout failed: {v:?}");
    assert_eq!(v.get("matches").and_then(|m| m.as_num()), Some(4e6));

    server.shutdown();
}

/// Garbage payloads inside well-formed frames produce protocol errors;
/// the server neither panics nor drops the connection.
#[test]
fn malformed_frames_get_protocol_errors_not_panics() {
    let server = Server::spawn(ServeConfig::default().with_runners(1)).unwrap();
    let mut c = client(&server);

    // Not JSON at all.
    let v = c.request(r#"{"op": <-- nope"#).unwrap();
    assert_eq!(err_code(&v), "bad_frame");
    // Valid JSON, wrong shape.
    let v = c.request(r#"[1,2,3]"#).unwrap();
    assert_eq!(err_code(&v), "bad_request");
    // Valid object, unknown op.
    let v = c.request(r#"{"op":"warp"}"#).unwrap();
    assert_eq!(err_code(&v), "bad_request");
    // Not UTF-8.
    let mut frame = 4u32.to_be_bytes().to_vec();
    frame.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
    c.send_raw(&frame).unwrap();
    let v = c.recv().unwrap();
    assert_eq!(err_code(&v), "bad_frame");

    // The same connection still serves real requests afterwards.
    let v = c.request(r#"{"op":"stat"}"#).unwrap();
    assert!(ok(&v), "connection should survive garbage: {v:?}");
    validate_stat(v.get("stat").expect("stat body"));

    // An oversized frame advertisement is answered (and the declared
    // bytes are discarded to keep the stream framed); a fresh
    // connection confirms the server itself is unharmed.
    c.send_raw(&(u32::MAX).to_be_bytes()).unwrap();
    let v = c.recv().unwrap();
    assert_eq!(err_code(&v), "bad_frame");
    drop(c);
    let mut c2 = client(&server);
    let v = c2.request(r#"{"op":"stat"}"#).unwrap();
    assert!(ok(&v));

    server.shutdown();
}

/// `load` parameters the generators would assert on (a Zipf θ outside
/// [0, 1), an empty probe domain) are refused with a typed error; they
/// once panicked on the thread that owned every socket and took the
/// listener with it, so the proof is a good `stat` on a *second*
/// connection afterwards.
#[test]
fn out_of_range_load_parameters_are_typed_errors_not_front_end_panics() {
    let server = Server::spawn(ServeConfig::default().with_runners(1)).unwrap();
    for bad_load in [
        r#"{"op":"load","name":"z","kind":"probe_zipf","rows":100,"domain":50,"theta":1.5}"#,
        r#"{"op":"load","name":"z","kind":"probe_zipf","rows":100,"domain":50,"theta":-0.1}"#,
        r#"{"op":"load","name":"z","kind":"probe_zipf","rows":100,"domain":0,"theta":0.5}"#,
        r#"{"op":"load","name":"f","kind":"probe_fk","rows":100,"domain":0}"#,
    ] {
        let mut c = client(&server);
        let v = c.request(bad_load).unwrap();
        assert_eq!(err_code(&v), "bad_request", "{bad_load}: {v:?}");
        drop(c);
        let mut c2 = client(&server);
        let v = c2.request(r#"{"op":"stat"}"#).unwrap();
        assert!(ok(&v), "server must survive {bad_load}: {v:?}");
    }
    // The boundary that is allowed still loads.
    let mut c = client(&server);
    let v = c
        .request(
            r#"{"op":"load","name":"z","kind":"probe_zipf","rows":100,"domain":50,"theta":0.99}"#,
        )
        .unwrap();
    assert!(ok(&v), "{v:?}");
    server.shutdown();
}

/// A wire `bits` outside `1..=24` is refused where it is parsed: it used
/// to reach `JoinConfig::radix_bits` unchecked (28 came back as a 34 GB
/// budget refusal, 64 wrapped to 0 and ran).
#[test]
fn out_of_range_radix_bits_are_a_typed_bad_request() {
    let server = Server::spawn(ServeConfig::default().with_runners(1)).unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 10_000, 20_000);
    for bits in ["0", "25", "28", "64", "4294967296", "-1", "2.5"] {
        for algo in ["PRO", "CPRL"] {
            let v = c
                .request(&format!(
                    r#"{{"op":"join","algo":"{algo}","build":"r","probe":"s","bits":{bits}}}"#
                ))
                .unwrap();
            assert_eq!(err_code(&v), "bad_request", "bits {bits}, {algo}: {v:?}");
        }
    }
    // In range it runs, on the cached and the classic path (the upper
    // end, 24, is a parser unit test: 16 Mi partitions are not a smoke run).
    for bits in [1, 12] {
        let v = c
            .request(&format!(
                r#"{{"op":"join","algo":"PRL","build":"r","probe":"s","bits":{bits},"cache":{}}}"#,
                bits == 1
            ))
            .unwrap();
        assert!(ok(&v), "bits {bits}: {v:?}");
        assert_eq!(v.get("matches").and_then(|m| m.as_num()), Some(20_000.0));
    }
    server.shutdown();
}

/// A cache hit must return byte-identical results to the cold run that
/// populated it — and to the classic (uncached) driver.
#[test]
fn cached_build_side_matches_cold_run_checksums() {
    let server = Server::spawn(ServeConfig::default().with_runners(2)).unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 100_000, 400_000);

    let v = c.request(r#"{"op":"flush"}"#).unwrap();
    assert!(ok(&v));

    let cold = c
        .request(r#"{"op":"join","algo":"PRL","build":"r","probe":"s"}"#)
        .unwrap();
    assert!(ok(&cold), "cold join failed: {cold:?}");
    assert_eq!(cold.get("cached").and_then(|b| b.as_bool()), Some(false));

    let hot = c
        .request(r#"{"op":"join","algo":"PRL","build":"r","probe":"s"}"#)
        .unwrap();
    assert!(ok(&hot), "hot join failed: {hot:?}");
    assert_eq!(hot.get("cached").and_then(|b| b.as_bool()), Some(true));

    let classic = c
        .request(r#"{"op":"join","algo":"PRL","build":"r","probe":"s","cache":false}"#)
        .unwrap();
    assert!(ok(&classic));
    assert_eq!(classic.get("cached").and_then(|b| b.as_bool()), Some(false));

    assert_eq!(checksum(&cold), checksum(&hot));
    assert_eq!(checksum(&cold), checksum(&classic));
    assert_eq!(
        cold.get("matches").and_then(|m| m.as_num()),
        hot.get("matches").and_then(|m| m.as_num())
    );

    // Reloading the relation bumps its version: the stale cached side
    // must not serve the new data.
    let v = c
        .request(r#"{"op":"load","name":"r","rows":100000,"kind":"build","seed":99}"#)
        .unwrap();
    assert!(ok(&v));
    let reloaded = c
        .request(r#"{"op":"join","algo":"PRL","build":"r","probe":"s"}"#)
        .unwrap();
    assert!(ok(&reloaded));
    assert_eq!(
        reloaded.get("cached").and_then(|b| b.as_bool()),
        Some(false)
    );

    let v = c.request(r#"{"op":"stat"}"#).unwrap();
    validate_stat(v.get("stat").expect("stat body"));
    let cache = v.get("stat").and_then(|s| s.get("cache")).unwrap();
    assert!(cache.get("hits").and_then(|h| h.as_num()).unwrap() >= 1.0);
    assert!(cache.get("misses").and_then(|m| m.as_num()).unwrap() >= 2.0);

    server.shutdown();
}

/// A join may name any catalog relation as its build side, and a probe
/// distribution repeats its keys. Over such a side every hash and sort
/// join, cached or not, answers the reference join; the array joins,
/// which hold one payload per key, refuse it as `invalid_config`.
#[test]
fn duplicate_key_build_sides_match_the_reference_or_are_refused() {
    use mmjoin::core::reference::reference_join;
    use mmjoin::core::Algorithm;
    use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin::util::{Placement, Relation, Tuple};

    let server = Server::spawn(ServeConfig::default().with_runners(2)).unwrap();
    let mut c = client(&server);
    for load in [
        r#"{"op":"load","name":"fk","rows":20000,"kind":"probe_fk","domain":5000,"seed":11}"#,
        r#"{"op":"load","name":"pk","rows":5000,"kind":"build","seed":12}"#,
        r#"{"op":"load","name":"dup","tuples":[[5,1],[5,2],[7,3]]}"#,
        r#"{"op":"load","name":"few","tuples":[[5,9],[7,8]]}"#,
    ] {
        let v = c.request(load).unwrap();
        assert!(ok(&v), "{load}: {v:?}");
    }
    let p = Placement::Interleaved;
    let tuples = |t: &[(u32, u32)]| {
        let t: Vec<Tuple> = t.iter().map(|&(k, v)| Tuple::new(k, v)).collect();
        Relation::from_tuples(&t, p)
    };
    let fk = gen_probe_fk(20_000, 5_000, 11, p);
    let pk = gen_build_dense(5_000, 12, p);
    let dup = tuples(&[(5, 1), (5, 2), (7, 3)]);
    let few = tuples(&[(5, 9), (7, 8)]);
    for (build, probe, r, s, count) in [
        ("fk", "pk", &fk, &pk, 20_000),
        ("dup", "few", &dup, &few, 3),
    ] {
        let expect = reference_join(r, s);
        assert_eq!(expect.count, count);
        for alg in Algorithm::WITH_EXTENSIONS {
            for cache in [true, false] {
                let v = c
                    .request(&format!(
                        r#"{{"op":"join","algo":"{}","build":"{build}","probe":"{probe}","cache":{cache}}}"#,
                        alg.name()
                    ))
                    .unwrap();
                let what = format!("{} {build}x{probe} cache {cache}: {v:?}", alg.name());
                if alg.needs_dense_domain() {
                    assert_eq!(err_code(&v), "invalid_config", "{what}");
                    continue;
                }
                assert!(ok(&v), "{what}");
                assert_eq!(
                    v.get("matches").and_then(|m| m.as_num()),
                    Some(expect.count as f64),
                    "{what}"
                );
                assert_eq!(
                    u64::from_str_radix(checksum(&v), 16).ok(),
                    Some(expect.digest),
                    "{what}"
                );
            }
        }
    }
    server.shutdown();
}

/// A join that outgrows its lease mid-run is retried degraded under a
/// lease of at least the spill floor, as the up-front degraded path
/// takes: a 3-row build against a 2-row probe leases ~100 bytes for
/// PRO or MWAY, too little for SHHJ as well.
#[test]
fn a_tiny_join_over_its_lease_retries_degraded_above_the_floor() {
    let server = Server::spawn(ServeConfig::default().with_runners(1)).unwrap();
    let mut c = client(&server);
    for load in [
        r#"{"op":"load","name":"r3","tuples":[[1,10],[2,20],[3,30]]}"#,
        r#"{"op":"load","name":"s2","tuples":[[1,5],[3,6]]}"#,
    ] {
        let v = c.request(load).unwrap();
        assert!(ok(&v), "{load}: {v:?}");
    }
    for algo in ["PRO", "MWAY"] {
        for cache in [true, false] {
            let v = c
                .request(&format!(
                    r#"{{"op":"join","algo":"{algo}","build":"r3","probe":"s2","cache":{cache}}}"#
                ))
                .unwrap();
            assert!(ok(&v), "{algo} cache {cache}: {v:?}");
            assert_eq!(
                v.get("matches").and_then(|m| m.as_num()),
                Some(2.0),
                "{v:?}"
            );
            assert_eq!(
                v.get("degraded").and_then(|d| d.as_bool()),
                Some(true),
                "{v:?}"
            );
        }
    }
    server.shutdown();
}

/// Queue overflow rejects synchronously with a typed error instead of
/// buffering unbounded work.
#[test]
fn queue_overflow_is_a_typed_rejection() {
    let server = Server::spawn(ServeConfig::default().with_runners(1).with_queue_depth(1)).unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 500_000, 2_000_000);

    // Fire-and-forget several joins; with one runner and depth 1, some
    // must be rejected with queue_full while the rest complete.
    for i in 0..6 {
        c.send(&format!(
            r#"{{"op":"join","id":{i},"algo":"PRO","build":"r","probe":"s"}}"#
        ))
        .unwrap();
    }
    let mut ok_count = 0;
    let mut rejected = 0;
    for _ in 0..6 {
        let v = c.recv().unwrap();
        if ok(&v) {
            ok_count += 1;
        } else {
            assert_eq!(err_code(&v), "queue_full");
            rejected += 1;
        }
    }
    assert!(ok_count >= 1, "at least one join must be admitted");
    assert!(rejected >= 1, "depth-1 queue must reject a burst of 6");

    server.shutdown();
}

/// One server answers joins five ways — ok, degraded, unknown relation,
/// expired in the queue, refused `queue_full` — and every view counts
/// each answer once: `stat.joins`, the admission rows, the SLO view
/// (all checked by `validate_stat`) and the Prometheus counters.
#[test]
fn every_view_counts_each_outcome_once() {
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(1)
            .with_queue_depth(1)
            .with_tenant_budget("tight", 256 << 10),
    )
    .unwrap();
    let mut c = client(&server);
    let mut admin = client(&server);
    // PRL over (8Ki, 32Ki) estimates ~0.7 MiB, above "tight"'s carve.
    load_pair(&mut c, 8_192, 32_768);
    for load in [
        r#"{"op":"load","name":"big_r","rows":500000,"kind":"build","seed":5}"#,
        r#"{"op":"load","name":"big_s","rows":2000000,"kind":"probe_fk","domain":500000,"seed":6}"#,
    ] {
        assert!(ok(&c.request(load).unwrap()), "{load}");
    }

    for _ in 0..3 {
        let v = c
            .request(r#"{"op":"join","tenant":"a","algo":"PRO","build":"r","probe":"s"}"#)
            .unwrap();
        assert!(ok(&v), "{v:?}");
    }
    for _ in 0..2 {
        let v = c
            .request(r#"{"op":"join","tenant":"tight","algo":"PRL","build":"r","probe":"s"}"#)
            .unwrap();
        assert_eq!(
            v.get("degraded").and_then(|d| d.as_bool()),
            Some(true),
            "{v:?}"
        );
    }
    let v = c
        .request(r#"{"op":"join","tenant":"a","algo":"PRO","build":"nope","probe":"s"}"#)
        .unwrap();
    assert_eq!(err_code(&v), "unknown_relation");

    // Tenant b: a long join takes the only runner; once it has left the
    // queue, a join with no time to wait fills b's one slot and two
    // more are refused.
    c.send(r#"{"op":"join","id":0,"tenant":"b","algo":"PRO","build":"big_r","probe":"big_s","cache":false}"#)
        .unwrap();
    let running = |stat: &Value| {
        let tenants = stat.get("tenants").and_then(|t| t.as_arr()).unwrap();
        tenants.iter().any(|t| {
            t.get("name").and_then(|n| n.as_str()) == Some("b")
                && t.get("admitted").and_then(|n| n.as_num()) == Some(1.0)
                && t.get("queued").and_then(|n| n.as_num()) == Some(0.0)
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !running(
        admin
            .request(r#"{"op":"stat"}"#)
            .unwrap()
            .get("stat")
            .unwrap(),
    ) {
        assert!(
            std::time::Instant::now() < deadline,
            "the long join never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for id in 1..4 {
        c.send(&format!(
            r#"{{"op":"join","id":{id},"tenant":"b","algo":"PRO","build":"r","probe":"s","deadline_ms":0}}"#
        ))
        .unwrap();
    }
    let mut answers = vec![String::new(); 4];
    for _ in 0..4 {
        let v = c.recv().unwrap();
        let id = v.get("id").and_then(|i| i.as_num()).unwrap() as usize;
        answers[id] = if ok(&v) {
            "ok".into()
        } else {
            err_code(&v).into()
        };
    }
    assert_eq!(answers, ["ok", "timedout", "queue_full", "queue_full"]);

    let v = admin.request(r#"{"op":"stat"}"#).unwrap();
    let stat = v.get("stat").expect("stat body");
    validate_stat(stat);
    let joins = stat.get("joins").unwrap();
    let count = |k: &str| joins.get(k).and_then(|n| n.as_num()).unwrap();
    assert_eq!(
        (count("ok"), count("err"), count("degraded")),
        (6.0, 2.0, 2.0)
    );

    // The exposition's join counters are the same count.
    let text = admin.metrics_text().expect("metrics op");
    let total = |family: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(&format!("{family}{{")) && l.contains("op=\"join\""))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<f64>().unwrap())
            .sum()
    };
    assert_eq!(total("mmjoin_requests_total"), 10.0);
    assert_eq!(total("mmjoin_errors_total"), 4.0);
    assert_eq!(total("mmjoin_degraded_total"), 2.0);

    server.shutdown();
}

/// A server with no runner would queue every join forever: refused at
/// spawn, whichever way the config was written.
#[test]
fn zero_runners_are_refused_at_spawn() {
    for cfg in [
        ServeConfig {
            runners: 0,
            ..ServeConfig::default()
        },
        ServeConfig::default().with_runners(0),
    ] {
        let err = Server::spawn(cfg).err().expect("runners 0 must not spawn");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

/// An SLO window no `Duration` holds would panic the sampler thread
/// (and stop window rotation silently): refused at spawn. Zero still
/// means "rotate only on `telemetry_tick`".
#[test]
fn unrepresentable_slo_windows_are_refused_at_spawn() {
    for secs in [f64::INFINITY, 1e20, f64::NAN, -1.0] {
        let cfg = ServeConfig::default()
            .with_runners(1)
            .with_slo_window_secs(secs);
        let err = Server::spawn(cfg).err().expect("window must be refused");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{secs}: {err}"
        );
    }
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(1)
            .with_slo_window_secs(0.0),
    )
    .expect("a zero window disables the sampler");
    server.shutdown();
}

/// The service under its normal state — many connections at once: 256
/// closed-loop clients over 8 tenants (one starved to a 256 KiB carve)
/// each send a few joins. Every response must carry the checksum a
/// direct `Join` computes for the same datagen inputs, nothing may
/// error or hang up, the starved tenant must degrade to the spilling
/// join rather than fail, telemetry must have counted exactly the joins
/// sent — and measured what the clients measured: its p99 agrees with
/// the client-side p99 — and no spill run may outlive the server.
#[test]
fn fleet_of_256_connections_matches_direct_join_and_leaves_no_residue() {
    use mmjoin::core::{Algorithm, Join, JoinConfig};
    use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin::util::Placement;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::time::Instant;

    const CLIENTS: usize = 256;
    const TENANTS: usize = 8;
    const JOINS_EACH: usize = 3;
    // (build rows, probe rows, seed): PRL's admission estimate for the
    // smaller pair is ~0.7 MiB, already over the starved tenant's carve.
    const PAIRS: [(usize, usize, u64); 2] = [(8_192, 32_768, 0xF1EE7), (12_288, 24_576, 0xF1EE9)];

    let spill_dir = std::env::temp_dir().join(format!("mmjoin-serve-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");
    let mut cfg = ServeConfig::default()
        .with_runners(2)
        .with_queue_depth(CLIENTS)
        .with_spill_dir(&spill_dir)
        .with_tenant_budget("t0", 256 << 10);
    for t in 1..TENANTS {
        cfg = cfg.with_tenant_budget(format!("t{t}"), 512 << 20);
    }
    let server = Server::spawn(cfg).unwrap();

    let mut admin = client(&server);
    let placement = Placement::Chunked { parts: 2 };
    let truth: Vec<(u64, u64)> = PAIRS
        .iter()
        .enumerate()
        .map(|(i, &(build_rows, probe_rows, seed))| {
            for load in [
                format!(
                    r#"{{"op":"load","name":"r{i}","rows":{build_rows},"kind":"build","seed":{seed}}}"#
                ),
                format!(
                    r#"{{"op":"load","name":"s{i}","rows":{probe_rows},"kind":"probe_fk","domain":{build_rows},"seed":{}}}"#,
                    seed + 1
                ),
            ] {
                let v = admin.request(&load).unwrap();
                assert!(ok(&v), "{load}: {v:?}");
            }
            let r = gen_build_dense(build_rows, seed, placement);
            let s = gen_probe_fk(probe_rows, build_rows, seed + 1, placement);
            let direct = Join::new(Algorithm::Nop)
                .with_config(JoinConfig::new(2))
                .run(&r, &s)
                .expect("direct join");
            (direct.matches, direct.checksum)
        })
        .collect();

    let degraded = AtomicU64::new(0);
    let latencies_ms = Mutex::new(Vec::with_capacity(CLIENTS * JOINS_EACH));
    // Every client connects, *then* waits for all the others: the first
    // request leaves with 256 connections open.
    let all_connected = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, truth, degraded, latencies_ms, all_connected) =
                (&server, &truth, &degraded, &latencies_ms, &all_connected);
            scope.spawn(move || {
                let mut conn = client(server);
                all_connected.wait();
                for i in 0..JOINS_EACH {
                    let pair = (c + i) % PAIRS.len();
                    let sent_at = Instant::now();
                    let v = conn
                        .request(&format!(
                            r#"{{"op":"join","algo":"PRL","build":"r{pair}","probe":"s{pair}","tenant":"t{}"}}"#,
                            c % TENANTS
                        ))
                        .unwrap_or_else(|e| panic!("client {c}: connection died: {e}"));
                    let ms = sent_at.elapsed().as_secs_f64() * 1e3;
                    latencies_ms.lock().unwrap().push(ms);
                    assert!(ok(&v), "client {c}: join errored: {v:?}");
                    let (matches, digest) = truth[pair];
                    assert_eq!(
                        v.get("matches").and_then(|m| m.as_num()),
                        Some(matches as f64),
                        "client {c}: {v:?}"
                    );
                    assert_eq!(
                        u64::from_str_radix(checksum(&v), 16).ok(),
                        Some(digest),
                        "client {c}: {v:?}"
                    );
                    if v.get("degraded").and_then(|d| d.as_bool()) == Some(true) {
                        assert_eq!(c % TENANTS, 0, "only the starved tenant degrades");
                        degraded.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let v = admin.request(r#"{"op":"stat"}"#).unwrap();
    let stat = v.get("stat").expect("stat body");
    validate_stat(stat);
    let num = |path: [&str; 2]| {
        stat.get(path[0])
            .and_then(|s| s.get(path[1]))
            .and_then(|n| n.as_num())
            .unwrap_or_else(|| panic!("stat.{}.{} missing", path[0], path[1]))
    };
    let sent = (CLIENTS * JOINS_EACH) as f64;
    assert_eq!(num(["joins", "err"]), 0.0);
    assert_eq!(num(["joins", "ok"]), sent);
    assert!(num(["connections", "accepted"]) >= (CLIENTS + 1) as f64);
    assert!(degraded.load(Ordering::Relaxed) >= 1, "t0 never degraded");
    assert_eq!(
        num(["joins", "degraded"]),
        degraded.load(Ordering::Relaxed) as f64
    );
    let telemetry_count = stat
        .get("telemetry")
        .and_then(|t| t.get("overall"))
        .and_then(|o| o.get("count"))
        .and_then(|n| n.as_num());
    assert_eq!(telemetry_count, Some(sent), "telemetry join count");
    // Histogram resolution plus transport skew: half the value + 10 ms.
    let client_p99 = mmjoin::util::stats::percentile(&latencies_ms.into_inner().unwrap(), 0.99);
    let server_p99 = stat
        .get("telemetry")
        .and_then(|t| t.get("overall"))
        .and_then(|o| o.get("p99_ms"))
        .and_then(|n| n.as_num())
        .expect("telemetry p99");
    assert!(
        (server_p99 - client_p99).abs() <= 0.5 * client_p99 + 10.0,
        "telemetry p99 {server_p99:.1} ms far from the clients' p99 {client_p99:.1} ms"
    );

    drop(admin);
    server.shutdown();
    let orphans: Vec<_> = std::fs::read_dir(&spill_dir)
        .expect("spill dir")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(orphans.is_empty(), "orphaned spill runs: {orphans:?}");
    std::fs::remove_dir_all(&spill_dir).ok();
}

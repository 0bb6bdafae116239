//! Integration suite for the live service telemetry (DESIGN.md §16):
//! per-tenant rolling SLO percentiles in `stat` and how closed windows
//! age out of them, the query flight recorder drained as
//! chrome://tracing events via the `trace` op, and Prometheus
//! exposition over both the `metrics` wire op and the optional HTTP
//! endpoint.

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

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(|n| n.as_num())
        .unwrap_or_else(|| panic!("missing number {key:?} in {v:?}"))
}

fn load_pair(c: &mut Client, build_rows: usize, probe_rows: usize) {
    let v = c
        .request(&format!(
            r#"{{"op":"load","name":"r","rows":{build_rows},"kind":"build","seed":7}}"#
        ))
        .unwrap();
    assert!(ok(&v), "load r failed: {v:?}");
    let v = c
        .request(&format!(
            r#"{{"op":"load","name":"s","rows":{probe_rows},"kind":"probe_fk","domain":{build_rows},"seed":8}}"#
        ))
        .unwrap();
    assert!(ok(&v), "load s failed: {v:?}");
}

/// Fetch the `telemetry` object out of a `stat` round trip.
fn telemetry(c: &mut Client) -> Value {
    let v = c.request(r#"{"op":"stat"}"#).unwrap();
    assert!(ok(&v), "stat failed: {v:?}");
    v.get("stat")
        .and_then(|s| s.get("telemetry"))
        .expect("stat has a telemetry section")
        .clone()
}

#[test]
fn stat_reports_rolling_slo_percentiles_per_tenant() {
    // slo_window_secs 0: windows rotate only via telemetry_tick, so
    // the test controls them deterministically.
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(2)
            .with_slo_window_secs(0.0),
    )
    .unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 20_000, 80_000);

    for _ in 0..10 {
        let v = c
            .request(r#"{"op":"join","tenant":"alpha","algo":"PRO","build":"r","probe":"s"}"#)
            .unwrap();
        assert!(ok(&v), "join failed: {v:?}");
    }
    // One failed join: unknown relation, still billed to the tenant.
    let v = c
        .request(r#"{"op":"join","tenant":"alpha","algo":"PRO","build":"nope","probe":"s"}"#)
        .unwrap();
    assert!(!ok(&v));

    let tel = telemetry(&mut c);
    let tenants = tel.get("tenants").and_then(|t| t.as_arr()).unwrap();
    let alpha = tenants
        .iter()
        .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("alpha"))
        .expect("tenant alpha tracked");
    assert_eq!(num(alpha, "requests"), 11.0);
    assert_eq!(num(alpha, "errors"), 1.0);
    assert!((num(alpha, "error_rate") - 1.0 / 11.0).abs() < 1e-6);
    let rolling = alpha.get("rolling").expect("rolling SLO view");
    assert_eq!(num(rolling, "count"), 11.0);
    assert!(num(rolling, "p50_ms") > 0.0, "live-window p50 from joins");
    assert!(num(rolling, "p99_ms") >= num(rolling, "p50_ms"));
    assert!(num(rolling, "p999_ms") >= num(rolling, "p99_ms"));
    let total = alpha.get("total").expect("cumulative view");
    assert_eq!(num(total, "count"), 11.0);

    // Rotating moves the live window into history; the rolling view
    // still covers it, the cumulative view is untouched.
    server.telemetry_tick();
    let tel = telemetry(&mut c);
    let tenants = tel.get("tenants").and_then(|t| t.as_arr()).unwrap();
    let alpha = tenants
        .iter()
        .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("alpha"))
        .unwrap();
    assert_eq!(num(alpha.get("rolling").unwrap(), "count"), 11.0);
    assert_eq!(num(alpha.get("rolling").unwrap(), "windows"), 1.0);
    assert_eq!(num(alpha.get("total").unwrap(), "count"), 11.0);
    let overall = tel.get("overall").expect("overall rollup");
    assert_eq!(num(overall, "count"), 11.0);

    server.shutdown();
}

/// Six closed windows of 1..=6 joins and a live one of 7: the rolling
/// view merges the newest four closed windows and the live one, the
/// cumulative view all of them.
#[test]
fn rolling_view_keeps_the_last_four_windows() {
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(1)
            .with_slo_window_secs(0.0),
    )
    .unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 2_000, 8_000);
    let join = r#"{"op":"join","tenant":"ageing","algo":"NOP","build":"r","probe":"s"}"#;
    for window in 1..=7 {
        for _ in 0..window {
            assert!(ok(&c.request(join).unwrap()));
        }
        if window < 7 {
            server.telemetry_tick();
        }
    }

    let tel = telemetry(&mut c);
    let tenants = tel.get("tenants").and_then(|t| t.as_arr()).unwrap();
    let ageing = tenants
        .iter()
        .find(|t| t.get("name").and_then(|n| n.as_str()) == Some("ageing"))
        .expect("tenant ageing tracked");
    let rolling = ageing.get("rolling").unwrap();
    assert_eq!(num(rolling, "windows"), 4.0, "{ageing:?}");
    assert_eq!(
        num(rolling, "count"),
        (3 + 4 + 5 + 6 + 7) as f64,
        "{ageing:?}"
    );
    assert_eq!(num(ageing.get("total").unwrap(), "count"), 28.0);

    server.shutdown();
}

#[test]
fn trace_op_drains_chrome_trace_events() {
    let server = Server::spawn(ServeConfig::default().with_runners(2)).unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 20_000, 80_000);
    for _ in 0..3 {
        let v = c
            .request(r#"{"op":"join","tenant":"tracer","algo":"PRO","build":"r","probe":"s"}"#)
            .unwrap();
        assert!(ok(&v));
    }

    let v = c.request(r#"{"op":"trace","max":100}"#).unwrap();
    assert!(ok(&v), "trace failed: {v:?}");
    assert_eq!(num(&v, "count"), 3.0);
    let events = v.get("events").and_then(|e| e.as_arr()).unwrap();
    // The chrome://tracing loader requires: each event an object with
    // "ph", "pid", "tid", "name"; "X" events also "ts" and "dur".
    let mut complete = 0;
    let mut phase_spans = 0;
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(e.get("name").and_then(|n| n.as_str()).is_some());
        assert!(e.get("pid").and_then(|p| p.as_num()).is_some());
        assert!(e.get("tid").and_then(|t| t.as_num()).is_some());
        match ph {
            "M" => {}
            "X" => {
                assert!(num(e, "ts") >= 0.0);
                assert!(num(e, "dur") >= 0.0);
                match e.get("cat").and_then(|c| c.as_str()) {
                    Some("join") => {
                        complete += 1;
                        let args = e.get("args").expect("join event args");
                        assert_eq!(args.get("tenant").and_then(|t| t.as_str()), Some("tracer"));
                        assert!(args.get("queue_ms").and_then(|q| q.as_num()).is_some());
                        assert!(args.get("queue_depth").and_then(|q| q.as_num()).is_some());
                    }
                    Some("phase") => phase_spans += 1,
                    other => panic!("unexpected X category {other:?}"),
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(complete, 3, "one complete event per query");
    assert!(phase_spans > 0, "per-phase child spans present");

    // The default drains the ring: a second trace sees nothing.
    let v = c.request(r#"{"op":"trace"}"#).unwrap();
    assert!(ok(&v));
    assert_eq!(num(&v, "count"), 0.0);

    server.shutdown();
}

/// Loose Prometheus text-format check: every line is a comment or
/// `name{labels} value` with a float value.
fn assert_prometheus_parses(text: &str) {
    assert!(text.contains("# TYPE"), "exposition has TYPE lines");
    assert!(
        text.contains("mmjoin_requests_total"),
        "request counter exported"
    );
    assert!(
        text.contains("mmjoin_request_latency_seconds"),
        "latency summary exported in seconds"
    );
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value in {line:?}"
        );
        let bare = name_part.split('{').next().unwrap();
        assert!(
            !bare.is_empty()
                && bare
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':'),
            "bad metric name in {line:?}"
        );
    }
}

#[test]
fn metrics_exposition_over_wire_and_http() {
    let server = Server::spawn(
        ServeConfig::default()
            .with_runners(2)
            .with_metrics_addr("127.0.0.1:0"),
    )
    .unwrap();
    let mut c = client(&server);
    load_pair(&mut c, 20_000, 80_000);
    for _ in 0..5 {
        let v = c
            .request(r#"{"op":"join","tenant":"m","algo":"PRO","build":"r","probe":"s"}"#)
            .unwrap();
        assert!(ok(&v));
    }

    // Wire op.
    let text = c.metrics_text().expect("metrics op");
    assert_prometheus_parses(&text);

    // HTTP scrape endpoint.
    use std::io::{Read, Write};
    let addr = server.metrics_addr().expect("metrics endpoint bound");
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    sock.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.0 200"), "bad status: {resp:?}");
    let body = resp.split("\r\n\r\n").nth(1).expect("HTTP body");
    assert_prometheus_parses(body);

    server.shutdown();
}

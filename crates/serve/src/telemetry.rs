//! Live service telemetry (DESIGN.md §16): streaming per-tenant
//! latency histograms, a bounded query flight recorder, and
//! rolling-window SLO tracking.
//!
//! `Telemetry::record_join` is the one place an answered join is
//! counted: into the labeled registry (`tenant × op × algo`), which
//! `stat`'s `joins` and per-tenant rows, its SLO view's cumulative
//! numbers and the Prometheus exposition all read, and into the
//! tenant's live SLO window and the flight recorder.
//!
//! Everything on the per-query hot path is wait-free or nearly so:
//! latency lands in [`LogHistogram`]s (atomic buckets), counters are
//! relaxed atomics, and the only locks taken per query are a short
//! registry/tenant-map lookup and the bounded flight-recorder push —
//! a tenant's SLO window takes none. No sample is kept and nothing is
//! sorted: percentiles are estimated from the histograms at read time
//! (`stat`, Prometheus exposition), within the bounded relative error
//! documented in `mmjoin_util::telemetry`.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mmjoin_core::prelude::{observe, PhaseStat};
use mmjoin_util::jsonv;
use mmjoin_util::telemetry::{HistSnapshot, LogHistogram, Registry};

use crate::admission::Job;
use crate::protocol::JoinOutcome;

/// Telemetry knobs (operator decisions, like the rest of
/// [`ServeConfig`](crate::ServeConfig)).
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// SLO window length; each elapsed window is closed ("rotated") by
    /// the background sampler. `0` disables the sampler (rotation only
    /// via explicit ticks).
    pub slo_window_secs: f64,
    /// Queries at or above this total latency are written to the
    /// slow-query log. `None` disables the log.
    pub slow_query_ms: Option<f64>,
    /// Slow-query log destination; `None` = stderr.
    pub slow_query_log: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            slo_window_secs: 5.0,
            slow_query_ms: None,
            slow_query_log: None,
        }
    }
}

/// Closed windows kept per tenant, all merged into the rolling
/// `p50/p99/p999`.
const SLO_WINDOWS: usize = 4;

/// Records the flight recorder keeps; older ones are dropped.
pub const FLIGHT_CAPACITY: usize = 1024;

/// One answered join: what the flight recorder keeps and what
/// `Telemetry::record_join` counts.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    pub seq: u64,
    pub tenant: String,
    /// Executed algorithm (post-degrade), or the requested one on error.
    pub algo: &'static str,
    pub ok: bool,
    pub error_code: Option<&'static str>,
    /// Frame receipt (the chrome `ts`, relative to server start).
    pub received: Instant,
    /// Frame receipt → answer (queue wait included).
    pub total_ms: f64,
    pub queue_ms: f64,
    /// Tenant queue length when the job was enqueued.
    pub queue_depth: usize,
    pub cached: bool,
    pub degraded: bool,
    pub spill_bytes: u64,
    pub matches: u64,
    /// The run's phases, rendered with `observe::phase_rollup_json`
    /// only when `trace` asks (service joins are never profiled, so
    /// their `workers` are empty).
    pub phases: Vec<PhaseStat>,
}

impl QueryRecord {
    /// The record of `job`'s answer: the outcome and phases of a run,
    /// or the error code it was refused or failed with.
    pub(crate) fn new(
        job: &Job,
        queue_ms: f64,
        answer: Result<(&JoinOutcome, Vec<PhaseStat>), &'static str>,
    ) -> QueryRecord {
        let mut r = QueryRecord {
            seq: job.seq,
            tenant: job.tenant.clone(),
            algo: job.spec.algorithm.name(),
            ok: false,
            error_code: None,
            received: job.received,
            total_ms: job.received.elapsed().as_secs_f64() * 1e3,
            queue_ms,
            queue_depth: job.queue_depth,
            cached: false,
            degraded: false,
            spill_bytes: 0,
            matches: 0,
            phases: Vec::new(),
        };
        match answer {
            Ok((out, phases)) => {
                r.algo = out.algorithm.name();
                r.ok = true;
                r.cached = out.cached;
                r.degraded = out.degraded;
                r.spill_bytes = out.spill_bytes;
                r.matches = out.matches;
                r.phases = phases;
            }
            Err(code) => r.error_code = Some(code),
        }
        r
    }
}

/// A closed SLO window: its histogram snapshot and counts.
struct WindowSummary {
    hist: HistSnapshot,
    errors: u64,
    degraded: u64,
}

/// The live (atomic) accumulation slot; two alternate per tenant.
struct Epoch {
    hist: LogHistogram,
    errors: AtomicU64,
    degraded: AtomicU64,
}

impl Epoch {
    fn new() -> Epoch {
        Epoch {
            hist: LogHistogram::new(),
            errors: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.hist.reset();
        self.errors.store(0, Ordering::Relaxed);
        self.degraded.store(0, Ordering::Relaxed);
    }
}

/// A tenant's rolling SLO windows; its cumulative counts are the
/// registry's.
struct TenantTelemetry {
    /// Stable chrome-trace tid (1-based; 0 is the phases/meta row).
    tid: u64,
    epochs: [Epoch; 2],
    cur: AtomicUsize,
    history: Mutex<VecDeque<WindowSummary>>,
}

impl TenantTelemetry {
    fn new(tid: u64) -> TenantTelemetry {
        TenantTelemetry {
            tid,
            epochs: [Epoch::new(), Epoch::new()],
            cur: AtomicUsize::new(0),
            history: Mutex::new(VecDeque::new()),
        }
    }

    fn record(&self, ns: u64, ok: bool, degraded: bool) {
        let e = &self.epochs[self.cur.load(Ordering::Acquire) & 1];
        e.hist.record(ns);
        if !ok {
            e.errors.fetch_add(1, Ordering::Relaxed);
        }
        if degraded {
            e.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Close the live epoch into a [`WindowSummary`] and swap slots.
    fn rotate(&self) {
        let old = self.cur.load(Ordering::Acquire) & 1;
        // The other slot was reset when it was last closed; switch
        // recorders over, then drain the old slot. Records racing the
        // swap may land in either window — monitoring tolerance.
        self.cur.store(old ^ 1, Ordering::Release);
        let e = &self.epochs[old];
        let summary = WindowSummary {
            hist: e.hist.snapshot(),
            errors: e.errors.load(Ordering::Relaxed),
            degraded: e.degraded.load(Ordering::Relaxed),
        };
        e.reset();
        let mut h = self.history.lock().unwrap();
        if h.len() == SLO_WINDOWS {
            h.pop_front();
        }
        h.push_back(summary);
    }

    /// Merged view of the closed windows kept (at most `SLO_WINDOWS`)
    /// plus the live epoch — the rolling SLO percentiles and
    /// error/degraded counts.
    fn rolling(&self) -> (HistSnapshot, usize, u64, u64) {
        let live = &self.epochs[self.cur.load(Ordering::Acquire) & 1];
        let mut out = live.hist.snapshot();
        let mut errors = live.errors.load(Ordering::Relaxed);
        let mut degraded = live.degraded.load(Ordering::Relaxed);
        let h = self.history.lock().unwrap();
        for w in h.iter() {
            out.merge(&w.hist);
            errors += w.errors;
            degraded += w.degraded;
        }
        (out, h.len(), errors, degraded)
    }
}

/// A tenant's answered joins as the registry counted them: the latency
/// histogram merged over algorithms (its count is the tenant's join
/// requests), errors, and degraded runs.
pub(crate) struct TenantJoins {
    pub name: String,
    pub latency: HistSnapshot,
    pub errors: u64,
    pub degraded: u64,
}

/// The server's telemetry hub; one per [`Server`](crate::Server).
pub struct Telemetry {
    cfg: TelemetryConfig,
    registry: Arc<Registry>,
    started: Instant,
    tenants: RwLock<HashMap<String, Arc<TenantTelemetry>>>,
    tenant_order: Mutex<Vec<String>>,
    flight: Mutex<VecDeque<QueryRecord>>,
    flight_dropped: AtomicU64,
    slow_log: Option<Mutex<std::fs::File>>,
}

impl Telemetry {
    pub(crate) fn new(cfg: TelemetryConfig, started: Instant) -> Telemetry {
        let slow_log = cfg.slow_query_log.as_ref().and_then(|p| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| eprintln!("mmjoin-serve: cannot open slow-query log {p:?}: {e}"))
                .ok()
                .map(Mutex::new)
        });
        Telemetry {
            cfg,
            registry: Arc::new(Registry::new()),
            started,
            tenants: RwLock::new(HashMap::new()),
            tenant_order: Mutex::new(Vec::new()),
            flight: Mutex::new(VecDeque::new()),
            flight_dropped: AtomicU64::new(0),
            slow_log,
        }
    }

    /// The server's metric registry (counters and histograms, labeled
    /// tenant × op × algorithm).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn tenant(&self, name: &str) -> Arc<TenantTelemetry> {
        if let Some(t) = self.tenants.read().unwrap().get(name) {
            return Arc::clone(t);
        }
        let mut w = self.tenants.write().unwrap();
        if let Some(t) = w.get(name) {
            return Arc::clone(t);
        }
        let mut order = self.tenant_order.lock().unwrap();
        let tid = order.len() as u64 + 1;
        order.push(name.to_string());
        let t = Arc::new(TenantTelemetry::new(tid));
        w.insert(name.to_string(), Arc::clone(&t));
        t
    }

    /// Record one answered join (any outcome) — the only code that
    /// counts one: registry counters + latency histogram, SLO window,
    /// flight record, slow-query log.
    pub(crate) fn record_join(&self, record: QueryRecord) {
        let ns = (record.total_ms.max(0.0) * 1e6) as u64;
        let labels: &[(&str, &str)] = &[
            ("tenant", &record.tenant),
            ("op", "join"),
            ("algo", record.algo),
        ];
        self.registry.counter("mmjoin_requests_total", labels).inc();
        if !record.ok {
            self.registry.counter("mmjoin_errors_total", labels).inc();
        }
        if record.degraded {
            self.registry.counter("mmjoin_degraded_total", labels).inc();
        }
        self.registry
            .histogram("mmjoin_request_latency_ns", labels)
            .record(ns);
        if record.spill_bytes > 0 {
            self.registry
                .histogram("mmjoin_spill_bytes", labels)
                .record(record.spill_bytes);
        }
        let tenant = self.tenant(&record.tenant);
        tenant.record(ns, record.ok, record.degraded);

        if let Some(thresh) = self.cfg.slow_query_ms {
            if record.total_ms >= thresh {
                self.log_slow(&record);
            }
        }

        let mut f = self.flight.lock().unwrap();
        if f.len() >= FLIGHT_CAPACITY {
            f.pop_front();
            self.flight_dropped.fetch_add(1, Ordering::Relaxed);
        }
        f.push_back(record);
    }

    /// Record a non-join protocol op (inline: load/stat/flush/trace/
    /// metrics) into the labeled registry.
    pub(crate) fn record_op(&self, tenant: &str, op: &str, dur_ns: u64, ok: bool) {
        let labels: &[(&str, &str)] = &[("tenant", tenant), ("op", op), ("algo", "-")];
        self.registry.counter("mmjoin_requests_total", labels).inc();
        if !ok {
            self.registry.counter("mmjoin_errors_total", labels).inc();
        }
        self.registry
            .histogram("mmjoin_request_latency_ns", labels)
            .record(dur_ns);
    }

    /// Every tenant's answered joins, first-seen order. `stat` reads
    /// them once and renders every view of its join outcomes from that
    /// one read.
    pub(crate) fn joins(&self) -> Vec<TenantJoins> {
        let order = self.tenant_order.lock().unwrap().clone();
        let r = &self.registry;
        order
            .into_iter()
            .map(|name| {
                let filter: &[(&str, &str)] = &[("tenant", &name), ("op", "join")];
                TenantJoins {
                    latency: r.histogram_sum("mmjoin_request_latency_ns", filter),
                    errors: r.counter_sum("mmjoin_errors_total", filter),
                    degraded: r.counter_sum("mmjoin_degraded_total", filter),
                    name,
                }
            })
            .collect()
    }

    fn log_slow(&self, f: &QueryRecord) {
        let line = format!(
            "[mmjoin-serve] slow-query uptime_ms={:.0} tenant={} algo={} total_ms={:.3} \
             queue_ms={:.3} depth={} cached={} degraded={} spill_bytes={} err={}\n",
            self.started.elapsed().as_secs_f64() * 1e3,
            f.tenant,
            f.algo,
            f.total_ms,
            f.queue_ms,
            f.queue_depth,
            f.cached,
            f.degraded,
            f.spill_bytes,
            f.error_code.unwrap_or("-"),
        );
        match &self.slow_log {
            Some(file) => {
                let _ = file.lock().unwrap().write_all(line.as_bytes());
            }
            None => eprint!("{line}"),
        }
    }

    /// Close every tenant's live window. Called by the background
    /// sampler each `slo_window_secs`, and by `Server::telemetry_tick`.
    pub(crate) fn rotate(&self) {
        for t in self.tenants.read().unwrap().values() {
            t.rotate();
        }
    }

    /// Flight-recorder drain for the `trace` wire op: the last `max`
    /// records rendered as chrome://tracing trace events. Returns
    /// `(events_json_array, record_count, dropped, capacity)`.
    pub(crate) fn render_trace(&self, max: Option<usize>, drain: bool) -> (String, usize, u64) {
        let records: Vec<QueryRecord> = {
            let mut f = self.flight.lock().unwrap();
            let take = max.unwrap_or(usize::MAX).min(f.len());
            let skip = f.len() - take;
            if drain {
                // Drain empties the recorder: the newest `take` records
                // are returned, the older `skip` count as dropped
                // (never exported).
                let tail: Vec<QueryRecord> = f.split_off(skip).into();
                if skip > 0 {
                    self.flight_dropped
                        .fetch_add(skip as u64, Ordering::Relaxed);
                    f.clear();
                }
                tail
            } else {
                f.iter().skip(skip).cloned().collect()
            }
        };
        let mut events = Vec::with_capacity(records.len() * 3 + 4);
        events.push(observe::trace_name_event(
            "process_name",
            1,
            0,
            "mmjoin-serve",
        ));
        let mut named: Vec<u64> = Vec::new();
        for r in &records {
            let tid = self.tenant(&r.tenant).tid;
            if !named.contains(&tid) {
                named.push(tid);
                events.push(observe::trace_name_event(
                    "thread_name",
                    1,
                    tid,
                    &format!("tenant {}", r.tenant),
                ));
            }
            let phases: Vec<String> = r.phases.iter().map(observe::phase_rollup_json).collect();
            let ts_us = r.received.duration_since(self.started).as_secs_f64() * 1e6;
            let args = format!(
                "{{\"tenant\": \"{}\", \"seq\": {}, \"ok\": {}, \"error\": {}, \
                 \"queue_ms\": {:.3}, \"queue_depth\": {}, \"cached\": {}, \"degraded\": {}, \
                 \"spill_bytes\": {}, \"matches\": {}, \"phases\": [{}]}}",
                jsonv::escape(&r.tenant),
                r.seq,
                r.ok,
                match r.error_code {
                    Some(c) => format!("\"{c}\""),
                    None => "null".to_string(),
                },
                r.queue_ms,
                r.queue_depth,
                r.cached,
                r.degraded,
                r.spill_bytes,
                r.matches,
                phases.join(", ")
            );
            events.push(observe::trace_complete_event(
                r.algo,
                "join",
                1,
                tid,
                ts_us,
                r.total_ms * 1e3,
                &args,
            ));
            // Phase child spans, laid out sequentially after the queue
            // wait (a phase keeps its wall time, not its start).
            let mut cursor = ts_us + r.queue_ms * 1e3;
            for (p, args) in r.phases.iter().zip(&phases) {
                let wall_us = p.wall.as_secs_f64() * 1e6;
                events.push(observe::trace_complete_event(
                    p.name, "phase", 1, tid, cursor, wall_us, args,
                ));
                cursor += wall_us;
            }
        }
        let json = format!("[{}]", events.join(", "));
        (
            json,
            records.len(),
            self.flight_dropped.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn flight_len(&self) -> usize {
        self.flight.lock().unwrap().len()
    }

    /// The `"telemetry"` object of the `stat` document; its cumulative
    /// numbers are `joins`, the caller's one read of [`Telemetry::joins`].
    pub(crate) fn stat_fragment(&self, joins: &[TenantJoins]) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(
            "\"window_secs\":{},\"flight\":{{\"len\":{},\"capacity\":{},\"dropped\":{}}}",
            fmt_ms(self.cfg.slo_window_secs),
            self.flight_len(),
            FLIGHT_CAPACITY,
            self.flight_dropped.load(Ordering::Relaxed)
        ));
        // Per-tenant SLO view, first-seen order.
        let tenants = self.tenants.read().unwrap();
        let mut overall = HistSnapshot::empty();
        let mut overall_errors = 0u64;
        let mut overall_degraded = 0u64;
        out.push_str(",\"tenants\":[");
        for (i, j) in joins.iter().enumerate() {
            // `joins` lists tenants from `tenant_order`, which `tenant`
            // extends under the map's write lock, inserting into the map
            // before it lets go.
            let t = &tenants[&j.name];
            if i > 0 {
                out.push(',');
            }
            let (total, errors, degraded) = (&j.latency, j.errors, j.degraded);
            overall.merge(total);
            overall_errors += errors;
            overall_degraded += degraded;
            let (rolling, windows, roll_err, roll_deg) = t.rolling();
            let rate = |n: u64| {
                if total.count == 0 {
                    0.0
                } else {
                    n as f64 / total.count as f64
                }
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"requests\":{},\"errors\":{},\"degraded\":{},\
                 \"error_rate\":{:.6},\"degraded_rate\":{:.6},\
                 \"rolling\":{{\"windows\":{windows},\"count\":{},\"errors\":{roll_err},\
                 \"degraded\":{roll_deg},{}}},\
                 \"total\":{{\"count\":{},{}}}}}",
                jsonv::escape(&j.name),
                total.count,
                errors,
                degraded,
                rate(errors),
                rate(degraded),
                rolling.count,
                quantiles_ms(&rolling),
                total.count,
                quantiles_ms(total),
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"overall\":{{\"count\":{},\"errors\":{overall_errors},\
             \"degraded\":{overall_degraded},{}}}",
            overall.count,
            quantiles_ms(&overall)
        ));
        out.push('}');
        out
    }
}

fn fmt_ms(v: f64) -> String {
    if v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `"p50_ms":..,"p99_ms":..,"p999_ms":..` from a snapshot (ns → ms).
fn quantiles_ms(s: &HistSnapshot) -> String {
    format!(
        "\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"p999_ms\":{:.3}",
        s.quantile(0.5) as f64 / 1e6,
        s.quantile(0.99) as f64 / 1e6,
        s.quantile(0.999) as f64 / 1e6
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(tenant: &str, ms: f64) -> QueryRecord {
        QueryRecord {
            seq: 1,
            tenant: tenant.to_string(),
            algo: "PRO",
            ok: true,
            error_code: None,
            received: Instant::now(),
            total_ms: ms,
            queue_ms: 0.1,
            queue_depth: 3,
            cached: false,
            degraded: false,
            spill_bytes: 0,
            matches: 10,
            phases: Vec::new(),
        }
    }

    #[test]
    fn flight_recorder_bounded_and_drained() {
        let tel = Telemetry::new(TelemetryConfig::default(), Instant::now());
        for i in 0..FLIGHT_CAPACITY as u64 + 6 {
            let mut f = facts("t0", 1.0 + i as f64);
            f.seq = i;
            tel.record_join(f);
        }
        assert_eq!(tel.flight_len(), FLIGHT_CAPACITY);
        let (events, count, dropped) = tel.render_trace(Some(2), true);
        assert_eq!(count, 2);
        // 6 evicted by the bounded ring + the rest discarded by the
        // capped drain.
        assert_eq!(dropped, 6 + FLIGHT_CAPACITY as u64 - 2);
        assert_eq!(tel.flight_len(), 0);
        // Valid JSON array with X and M events.
        let v = mmjoin_util::jsonv::parse(&events).expect("trace events parse");
        let arr = v.as_arr().expect("array");
        assert!(arr.len() >= 3, "meta + 2 query events at least");
        assert!(arr
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
    }

    /// A record keeps its run's phases; `trace` renders them into the
    /// bytes `observe::phase_rollup_json` gave when the join was
    /// recorded, in the join event's `phases` and as each phase span's
    /// `args`.
    #[test]
    fn trace_renders_kept_phases_as_their_record_time_rollups() {
        use mmjoin_core::prelude::{Algorithm, Join, JoinConfig, Placement};
        use mmjoin_datagen::{gen_build_dense, gen_probe_fk};

        let placement = Placement::Chunked { parts: 1 };
        let out = Join::new(Algorithm::Pro)
            .with_config(JoinConfig::new(1))
            .run(
                &gen_build_dense(4096, 1, placement),
                &gen_probe_fk(16384, 4096, 2, placement),
            )
            .expect("join");
        assert!(out.phases.len() >= 2);
        let at_record: Vec<String> = out.phases.iter().map(observe::phase_rollup_json).collect();

        let tel = Telemetry::new(TelemetryConfig::default(), Instant::now());
        let mut record = facts("t0", 1.0);
        record.phases = out.phases;
        tel.record_join(record);
        let (events, count, _) = tel.render_trace(None, true);
        assert_eq!(count, 1);
        assert!(events.contains(&format!("\"phases\": [{}]", at_record.join(", "))));
        assert_eq!(
            events.matches("\"cat\": \"phase\"").count(),
            at_record.len()
        );
        for args in &at_record {
            assert!(events.contains(&format!("\"args\": {args}}}")), "{args}");
        }
    }

    #[test]
    fn stat_fragment_is_valid_json_with_rolling_quantiles() {
        let tel = Telemetry::new(TelemetryConfig::default(), Instant::now());
        for _ in 0..100 {
            tel.record_join(facts("a\"b", 5.0));
        }
        let frag = tel.stat_fragment(&tel.joins());
        let v = mmjoin_util::jsonv::parse(&frag).expect("fragment parses");
        let tenants = v.get("tenants").and_then(|t| t.as_arr()).unwrap();
        assert_eq!(tenants.len(), 1);
        let t0 = &tenants[0];
        assert_eq!(t0.get("name").and_then(|n| n.as_str()), Some("a\"b"));
        assert_eq!(t0.get("requests").and_then(|n| n.as_num()), Some(100.0));
        let p50 = t0
            .get("rolling")
            .and_then(|r| r.get("p50_ms"))
            .and_then(|n| n.as_num())
            .unwrap();
        assert!((p50 - 5.0).abs() < 0.5, "rolling p50 {p50} ≈ 5ms");
    }
}

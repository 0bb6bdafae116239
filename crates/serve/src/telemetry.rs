//! Live service telemetry (DESIGN.md §16): streaming per-tenant
//! latency histograms, a bounded query flight recorder, rolling-window
//! SLO tracking, and an online regression watch.
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
//! registry/tenant-map lookup and the bounded reservoir/ring pushes —
//! no full-sample vectors, no sorts. Percentiles are estimated from
//! the histograms at read time (`stat`, Prometheus exposition), within
//! the bounded relative error documented in `mmjoin_util::telemetry`.
//!
//! The **regression watch** keeps each closed window's raw latency
//! samples (seconds) and runs `mmjoin_util::stats::judge_shift`
//! in-process: the latest closed window is compared against the pooled
//! preceding windows, and a tenant is flagged only when the median rose
//! past `watch_factor` *and* the shift is statistically significant
//! (U-test p ≤ `WATCH_ALPHA`, or disjoint bootstrap median CIs). Flags
//! surface in `stat` output.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mmjoin_core::prelude::{observe, PhaseStat};
use mmjoin_util::telemetry::{HistSnapshot, LogHistogram, Registry};
use mmjoin_util::{jsonv, stats};

use crate::admission::Job;
use crate::protocol::JoinOutcome;

/// Telemetry knobs (operator decisions, like the rest of
/// [`ServeConfig`](crate::ServeConfig)).
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// SLO window length; each elapsed window is closed ("rotated") by
    /// the background sampler and fed to the regression watch. `0`
    /// disables the sampler (rotation only via explicit ticks).
    pub slo_window_secs: f64,
    /// Flight-recorder capacity (older records are dropped).
    pub flight_capacity: usize,
    /// Queries at or above this total latency are written to the
    /// slow-query log. `None` disables the log.
    pub slow_query_ms: Option<f64>,
    /// Slow-query log destination; `None` = stderr.
    pub slow_query_log: Option<PathBuf>,
    /// Minimum median shift (current/baseline) before a flag.
    pub watch_factor: f64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            slo_window_secs: 5.0,
            flight_capacity: 1024,
            slow_query_ms: None,
            slow_query_log: None,
            watch_factor: 1.5,
        }
    }
}

/// Per-window cap on the raw latency samples the watch keeps.
const RESERVOIR_CAP: usize = 512;
/// Closed window summaries retained per tenant.
const HISTORY_CAP: usize = 8;
/// Baseline windows pooled by the watch (most recent before current).
const BASELINE_WINDOWS: usize = 4;
/// Closed windows merged into the rolling `p50/p99/p999`.
const SLO_WINDOWS: usize = 4;
/// The watch's Mann-Whitney significance threshold.
const WATCH_ALPHA: f64 = 0.01;
/// Minimum samples on each side before the watch judges a tenant.
const WATCH_MIN_SAMPLES: usize = 8;

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

/// A closed SLO window: histogram snapshot for percentiles plus the
/// raw latency samples (the reservoir the watch tests).
struct WindowSummary {
    hist: HistSnapshot,
    errors: u64,
    degraded: u64,
    samples: Vec<f64>,
}

/// The live (atomic) accumulation slot; two alternate per tenant.
struct Epoch {
    hist: LogHistogram,
    errors: AtomicU64,
    degraded: AtomicU64,
    samples: Mutex<Vec<f64>>,
    sample_seq: AtomicUsize,
}

impl Epoch {
    fn new() -> Epoch {
        Epoch {
            hist: LogHistogram::new(),
            errors: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
            sample_seq: AtomicUsize::new(0),
        }
    }

    fn reset(&self) {
        self.hist.reset();
        self.errors.store(0, Ordering::Relaxed);
        self.degraded.store(0, Ordering::Relaxed);
        self.samples.lock().unwrap().clear();
        self.sample_seq.store(0, Ordering::Relaxed);
    }
}

/// A tenant's rolling SLO windows; its cumulative counts are the
/// registry's.
struct TenantTelemetry {
    name: String,
    /// Stable chrome-trace tid (1-based; 0 is the phases/meta row).
    tid: u64,
    epochs: [Epoch; 2],
    cur: AtomicUsize,
    history: Mutex<VecDeque<WindowSummary>>,
}

impl TenantTelemetry {
    fn new(name: &str, tid: u64) -> TenantTelemetry {
        TenantTelemetry {
            name: name.to_string(),
            tid,
            epochs: [Epoch::new(), Epoch::new()],
            cur: AtomicUsize::new(0),
            history: Mutex::new(VecDeque::new()),
        }
    }

    fn record(&self, ns: u64, secs: f64, ok: bool, degraded: bool) {
        let e = &self.epochs[self.cur.load(Ordering::Acquire) & 1];
        e.hist.record(ns);
        if !ok {
            e.errors.fetch_add(1, Ordering::Relaxed);
        }
        if degraded {
            e.degraded.fetch_add(1, Ordering::Relaxed);
        }
        // Bounded reservoir: keep the first CAP samples, then overwrite
        // round-robin so late samples stay represented.
        let idx = e.sample_seq.fetch_add(1, Ordering::Relaxed);
        let mut s = e.samples.lock().unwrap();
        if s.len() < RESERVOIR_CAP {
            s.push(secs);
        } else {
            s[idx % RESERVOIR_CAP] = secs;
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
            samples: e.samples.lock().unwrap().clone(),
        };
        e.reset();
        let mut h = self.history.lock().unwrap();
        if h.len() == HISTORY_CAP {
            h.pop_front();
        }
        h.push_back(summary);
    }

    /// Merged view of the last `windows` closed windows plus the live
    /// epoch — the rolling SLO percentiles and error/degraded counts.
    fn rolling(&self, windows: usize) -> (HistSnapshot, usize, u64, u64) {
        let live = &self.epochs[self.cur.load(Ordering::Acquire) & 1];
        let mut out = live.hist.snapshot();
        let mut errors = live.errors.load(Ordering::Relaxed);
        let mut degraded = live.degraded.load(Ordering::Relaxed);
        let h = self.history.lock().unwrap();
        let n = h.len().min(windows);
        for w in h.iter().rev().take(n) {
            out.merge(&w.hist);
            errors += w.errors;
            degraded += w.degraded;
        }
        (out, n, errors, degraded)
    }
}

/// One regression-watch verdict, rendered into `stat`.
#[derive(Clone, Debug)]
pub struct WatchFlag {
    pub tenant: String,
    pub baseline_p50_ms: f64,
    pub current_p50_ms: f64,
    pub ratio: f64,
    pub p_value: f64,
    pub ci_disjoint: bool,
    pub baseline_n: usize,
    pub current_n: usize,
}

#[derive(Default)]
struct WatchState {
    rotations: u64,
    flags_total: u64,
    flags: Vec<WatchFlag>,
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
    watch: Mutex<WatchState>,
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
            watch: Mutex::new(WatchState::default()),
            slow_log,
        }
    }

    pub(crate) fn config(&self) -> &TelemetryConfig {
        &self.cfg
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
        let t = Arc::new(TenantTelemetry::new(name, tid));
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
        tenant.record(ns, record.total_ms / 1e3, record.ok, record.degraded);

        if let Some(thresh) = self.cfg.slow_query_ms {
            if record.total_ms >= thresh {
                self.log_slow(&record);
            }
        }

        let mut f = self.flight.lock().unwrap();
        if f.len() >= self.cfg.flight_capacity.max(1) {
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

    /// A tenant's answered joins as the registry counted them: the
    /// latency histogram merged over algorithms (its count is the
    /// tenant's join requests), errors, and degraded runs.
    pub(crate) fn joins(&self, tenant: &str) -> (HistSnapshot, u64, u64) {
        let filter: &[(&str, &str)] = &[("tenant", tenant), ("op", "join")];
        let r = &self.registry;
        (
            r.histogram_sum("mmjoin_request_latency_ns", filter),
            r.counter_sum("mmjoin_errors_total", filter),
            r.counter_sum("mmjoin_degraded_total", filter),
        )
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

    /// Close every tenant's live window and run the regression watch
    /// over the closed windows. Called by the background sampler each
    /// `slo_window_secs`, and by `Server::telemetry_tick` in tests.
    pub(crate) fn rotate_and_watch(&self) {
        let tenants: Vec<Arc<TenantTelemetry>> =
            self.tenants.read().unwrap().values().cloned().collect();
        let mut flags = Vec::new();
        for t in &tenants {
            t.rotate();
            if let Some(flag) = self.judge(t) {
                flags.push(flag);
            }
        }
        let mut w = self.watch.lock().unwrap();
        w.rotations += 1;
        w.flags_total += flags.len() as u64;
        w.flags = flags;
    }

    /// The `judge_shift` verdict for one tenant: latest closed window versus
    /// the pooled preceding windows.
    fn judge(&self, t: &TenantTelemetry) -> Option<WatchFlag> {
        let h = t.history.lock().unwrap();
        if h.len() < 2 {
            return None;
        }
        let current = &h[h.len() - 1];
        let start = h.len().saturating_sub(1 + BASELINE_WINDOWS);
        let baseline: Vec<f64> = h
            .iter()
            .skip(start)
            .take(h.len() - 1 - start)
            .flat_map(|w| w.samples.iter().copied())
            .collect();
        let cur = &current.samples;
        // 500 resamples at 99 %: the watch runs every window inside the
        // serving process, so it keeps resampling cheap and asks for a
        // stricter level in exchange.
        let shift = stats::judge_shift(
            &baseline,
            cur,
            &stats::ShiftTest {
                threshold: self.cfg.watch_factor - 1.0,
                alpha: WATCH_ALPHA,
                min_samples: WATCH_MIN_SAMPLES,
                boot_iters: 500,
                confidence: 0.99,
                boot_seed: 0x5EED,
            },
        );
        if shift.verdict != stats::ShiftVerdict::Higher {
            return None;
        }
        Some(WatchFlag {
            tenant: t.name.clone(),
            baseline_p50_ms: shift.median_a * 1e3,
            current_p50_ms: shift.median_b * 1e3,
            ratio: shift.delta + 1.0,
            p_value: shift.p_value.unwrap_or(1.0),
            ci_disjoint: shift.ci_b.0 > shift.ci_a.1,
            baseline_n: baseline.len(),
            current_n: cur.len(),
        })
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

    /// The `"telemetry"` object of the `stat` document.
    pub(crate) fn stat_fragment(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(
            "\"window_secs\":{},\"flight\":{{\"len\":{},\"capacity\":{},\"dropped\":{}}}",
            fmt_ms(self.cfg.slo_window_secs),
            self.flight_len(),
            self.cfg.flight_capacity,
            self.flight_dropped.load(Ordering::Relaxed)
        ));
        // Per-tenant SLO view, first-seen order.
        let order = self.tenant_order.lock().unwrap().clone();
        let tenants = self.tenants.read().unwrap();
        let mut overall = HistSnapshot::empty();
        let mut overall_errors = 0u64;
        let mut overall_degraded = 0u64;
        out.push_str(",\"tenants\":[");
        for (i, name) in order.iter().enumerate() {
            let Some(t) = tenants.get(name) else { continue };
            if i > 0 {
                out.push(',');
            }
            let (total, errors, degraded) = self.joins(name);
            overall.merge(&total);
            overall_errors += errors;
            overall_degraded += degraded;
            let (rolling, windows, roll_err, roll_deg) = t.rolling(SLO_WINDOWS);
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
                jsonv::escape(name),
                total.count,
                errors,
                degraded,
                rate(errors),
                rate(degraded),
                rolling.count,
                quantiles_ms(&rolling),
                total.count,
                quantiles_ms(&total),
            ));
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"overall\":{{\"count\":{},\"errors\":{overall_errors},\
             \"degraded\":{overall_degraded},{}}}",
            overall.count,
            quantiles_ms(&overall)
        ));
        // Watch verdicts.
        let w = self.watch.lock().unwrap();
        out.push_str(&format!(
            ",\"watch\":{{\"status\":\"{}\",\"rotations\":{},\"flags_total\":{},\"flags\":[",
            if w.flags.is_empty() {
                "clean"
            } else {
                "regressed"
            },
            w.rotations,
            w.flags_total
        ));
        for (i, f) in w.flags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":\"{}\",\"baseline_p50_ms\":{:.3},\"current_p50_ms\":{:.3},\
                 \"ratio\":{:.3},\"p\":{:.6},\"ci_disjoint\":{},\"baseline_n\":{},\"current_n\":{}}}",
                jsonv::escape(&f.tenant),
                f.baseline_p50_ms,
                f.current_p50_ms,
                f.ratio,
                f.p_value,
                f.ci_disjoint,
                f.baseline_n,
                f.current_n
            ));
        }
        out.push_str("]}}");
        out
    }

    /// Whether the latest watch pass flagged anything.
    pub fn watch_flag_count(&self) -> (u64, u64) {
        let w = self.watch.lock().unwrap();
        (w.flags.len() as u64, w.flags_total)
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
    fn watch_flags_a_4x_shift_and_stays_clean_without_one() {
        let tel = Telemetry::new(TelemetryConfig::default(), Instant::now());
        // Two clean baseline windows.
        for _ in 0..2 {
            for _ in 0..40 {
                tel.record_join(facts("t0", 10.0));
            }
            tel.rotate_and_watch();
        }
        assert_eq!(tel.watch_flag_count(), (0, 0), "clean run must not flag");
        // A 4x-slowed window.
        for _ in 0..40 {
            tel.record_join(facts("t0", 40.0));
        }
        tel.rotate_and_watch();
        let (now, total) = tel.watch_flag_count();
        assert_eq!(now, 1, "4x shift must flag within one window");
        assert_eq!(total, 1);
        let frag = tel.stat_fragment();
        assert!(frag.contains("\"status\":\"regressed\""));
        assert!(frag.contains("\"tenant\":\"t0\""));
    }

    /// Flags standing after one window of `baseline` latencies (ms)
    /// and one of `current`, at the shipped factor 1.5 and `WATCH_ALPHA`.
    fn flags_after(baseline: &[f64], current: &[f64]) -> u64 {
        let tel = Telemetry::new(TelemetryConfig::default(), Instant::now());
        for window in [baseline, current] {
            for &ms in window {
                tel.record_join(facts("t0", ms));
            }
            tel.rotate_and_watch();
        }
        tel.watch_flag_count().0
    }

    #[test]
    fn watch_decision_rule_on_fixed_samples() {
        let steady = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 10.0, 9.9];
        let scaled = |by: f64| steady.iter().map(|ms| ms * by).collect::<Vec<f64>>();
        // Median ratio below the factor: no flag, however cleanly the
        // two windows separate.
        assert_eq!(flags_after(&steady, &scaled(1.4)), 0);
        // Ratio above the factor (5.5 -> 10), but two modes that mostly
        // overlap: the U-test's p is far above alpha and the medians'
        // confidence intervals both span 1..10.
        let low = [1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let high = [1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        assert_eq!(flags_after(&low, &high), 0);
        // Above the factor and separated: flagged.
        assert_eq!(flags_after(&steady, &scaled(2.0)), 1);
    }

    #[test]
    fn flight_recorder_bounded_and_drained() {
        let cfg = TelemetryConfig {
            flight_capacity: 4,
            ..TelemetryConfig::default()
        };
        let tel = Telemetry::new(cfg, Instant::now());
        for i in 0..10 {
            let mut f = facts("t0", 1.0 + i as f64);
            f.seq = i;
            tel.record_join(f);
        }
        assert_eq!(tel.flight_len(), 4);
        let (events, count, dropped) = tel.render_trace(Some(2), true);
        assert_eq!(count, 2);
        // 6 evicted by the bounded ring + 2 discarded by the capped drain.
        assert_eq!(dropped, 8);
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
        let frag = tel.stat_fragment();
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
        assert_eq!(
            v.get("watch")
                .and_then(|w| w.get("status"))
                .and_then(|s| s.as_str()),
            Some("clean")
        );
    }
}

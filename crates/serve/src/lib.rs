//! `mmjoin-serve`: an async multi-tenant join service over the
//! `mmjoin_core::prelude` API (DESIGN.md §15).
//!
//! The front-end is a single-threaded epoll reactor over raw syscalls
//! (the repo's no-libc idiom; see `reactor`) speaking a length-prefixed
//! JSON protocol (see [`protocol`]). Joins are scheduled through an
//! admission controller — bounded fair queues per tenant, per-tenant
//! memory budgets carved from a global budget, degradation to the
//! spilling hybrid hash join instead of rejection (see [`admission`] and
//! [`engine`]) — and hot build sides are shared across tenants through a
//! byte-bounded LRU over [`BuildSide::prepare`] outputs (see [`cache`]).
//!
//! ```no_run
//! use mmjoin_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::spawn(ServeConfig::default()).unwrap();
//! let mut c = Client::connect(server.addr()).unwrap();
//! c.request(r#"{"op":"load","name":"r","rows":100000,"kind":"build"}"#).unwrap();
//! c.request(r#"{"op":"load","name":"s","rows":1000000,"kind":"probe_fk","domain":100000}"#)
//!     .unwrap();
//! let v = c.request(r#"{"op":"join","algo":"PRO","build":"r","probe":"s"}"#).unwrap();
//! assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
//! server.shutdown();
//! ```
//!
//! [`BuildSide::prepare`]: mmjoin_core::prelude::BuildSide::prepare

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod client;
mod conn;
pub mod engine;
pub mod protocol;
pub mod telemetry;

#[cfg(any(not(target_os = "linux"), test))]
mod blocking;
#[cfg(target_os = "linux")]
mod reactor;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mmjoin_util::jsonv;

pub use client::Client;

/// Server configuration. Knobs the protocol deliberately does **not**
/// expose (budgets, thread counts, spill placement) live here — they
/// are operator decisions, not per-request ones.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Runner threads executing admitted joins. Each runner owns a pool
    /// of `join_threads` workers, so a running server has `runners ×
    /// join_threads` of them and its runners' joins run side by side.
    pub runners: usize,
    /// Worker threads *inside* each join — the size of each runner's
    /// own pool (`runners × join_threads` workers in all). Small by
    /// design: service throughput comes from concurrent runners, not
    /// per-join fan-out.
    pub join_threads: usize,
    /// Global memory budget all tenants' reservations carve from.
    pub global_budget_bytes: usize,
    /// Budget carved for a tenant not listed in `tenant_budgets`.
    pub default_tenant_budget_bytes: usize,
    /// Pinned per-tenant budgets (clamped to the global budget).
    pub tenant_budgets: Vec<(String, usize)>,
    /// Bounded per-tenant queue depth; overflow rejects `queue_full`.
    pub queue_depth: usize,
    /// Build-side cache capacity (a server-owned carve, not tenant-billed).
    pub cache_bytes: usize,
    /// Parent directory for degraded joins' spill runs (`None` = system tmp).
    pub spill_dir: Option<PathBuf>,
    /// Telemetry knobs: SLO windows, flight recorder, slow-query log,
    /// regression watch (see [`telemetry::TelemetryConfig`]).
    pub telemetry: telemetry::TelemetryConfig,
    /// Serve a Prometheus text exposition over plain HTTP at this
    /// address (`None` disables; the `metrics` wire op always works).
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            runners: (cores / 2).clamp(2, 8),
            join_threads: 2,
            global_budget_bytes: 1 << 30,
            default_tenant_budget_bytes: 256 << 20,
            tenant_budgets: Vec::new(),
            queue_depth: 64,
            cache_bytes: 256 << 20,
            spill_dir: None,
            telemetry: telemetry::TelemetryConfig::default(),
            metrics_addr: None,
        }
    }
}

impl ServeConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    pub fn with_runners(mut self, n: usize) -> Self {
        self.runners = n.max(1);
        self
    }

    pub fn with_join_threads(mut self, n: usize) -> Self {
        self.join_threads = n.max(1);
        self
    }

    pub fn with_global_budget(mut self, bytes: usize) -> Self {
        self.global_budget_bytes = bytes;
        self
    }

    pub fn with_default_tenant_budget(mut self, bytes: usize) -> Self {
        self.default_tenant_budget_bytes = bytes;
        self
    }

    /// Pin `tenant`'s budget carve (clamped to the global budget).
    pub fn with_tenant_budget(mut self, tenant: impl Into<String>, bytes: usize) -> Self {
        self.tenant_budgets.push((tenant.into(), bytes));
        self
    }

    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Replace the whole telemetry configuration.
    pub fn with_telemetry(mut self, t: telemetry::TelemetryConfig) -> Self {
        self.telemetry = t;
        self
    }

    /// SLO window length in seconds (`0` disables the background
    /// sampler; windows then rotate only via [`Server::telemetry_tick`]).
    pub fn with_slo_window_secs(mut self, secs: f64) -> Self {
        self.telemetry.slo_window_secs = secs.max(0.0);
        self
    }

    /// Log queries at or above this latency to the slow-query log.
    pub fn with_slow_query_ms(mut self, ms: f64) -> Self {
        self.telemetry.slow_query_ms = Some(ms.max(0.0));
        self
    }

    /// Slow-query log destination (default is stderr).
    pub fn with_slow_query_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry.slow_query_log = Some(path.into());
        self
    }

    /// Flight-recorder capacity (older query records are dropped).
    pub fn with_flight_capacity(mut self, n: usize) -> Self {
        self.telemetry.flight_capacity = n.max(1);
        self
    }

    /// Expose Prometheus metrics over HTTP at `addr` (port 0 works).
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }
}

/// Whole-server monotonic counters (rendered by `op:"stat"`).
#[derive(Default)]
pub(crate) struct ServerStats {
    pub accepted: AtomicU64,
    pub open: AtomicU64,
    pub frames: AtomicU64,
    pub bad_frames: AtomicU64,
    pub bytes_out: AtomicU64,
    pub joins_ok: AtomicU64,
    pub joins_err: AtomicU64,
    pub joins_degraded: AtomicU64,
}

/// Everything the front-end, runners, and `stat` share.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub catalog: catalog::Catalog,
    pub cache: cache::BuildCache,
    pub admission: admission::Admission,
    pub stats: ServerStats,
    pub telemetry: telemetry::Telemetry,
    pub stop: AtomicBool,
    pub started: Instant,
    pub next_seq: AtomicU64,
    /// Finished joins waiting for the reactor: `(conn, seq, payload)`.
    #[cfg(target_os = "linux")]
    pub completions: Mutex<Vec<(u64, u64, String)>>,
    /// Write end of the reactor's self-wake pipe.
    #[cfg(target_os = "linux")]
    pub waker: Mutex<Option<std::os::unix::net::UnixStream>>,
    /// Fallback front-end: per-connection completion channels.
    #[cfg(any(not(target_os = "linux"), test))]
    pub routes: Mutex<HashMap<u64, std::sync::mpsc::Sender<(u64, String)>>>,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Shared {
        let pinned: HashMap<String, usize> = cfg.tenant_budgets.iter().cloned().collect();
        let admission = admission::Admission::new(
            cfg.global_budget_bytes,
            cfg.default_tenant_budget_bytes,
            pinned,
            cfg.queue_depth,
        );
        // Telemetry timestamps (chrome-trace `ts`) are relative to the
        // same instant `uptime_ms` counts from.
        let started = Instant::now();
        Shared {
            catalog: catalog::Catalog::new(),
            cache: cache::BuildCache::new(cfg.cache_bytes),
            admission,
            stats: ServerStats::default(),
            telemetry: telemetry::Telemetry::new(cfg.telemetry.clone(), started),
            stop: AtomicBool::new(false),
            started,
            next_seq: AtomicU64::new(1),
            #[cfg(target_os = "linux")]
            completions: Mutex::new(Vec::new()),
            #[cfg(target_os = "linux")]
            waker: Mutex::new(None),
            #[cfg(any(not(target_os = "linux"), test))]
            routes: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// Route a finished join's response back to its connection: through
    /// the fallback front-end's channel when it owns the connection, to
    /// the reactor otherwise.
    pub(crate) fn complete(&self, conn: u64, seq: u64, payload: String) {
        #[cfg(any(not(target_os = "linux"), test))]
        if let Some(tx) = self.routes.lock().unwrap().get(&conn) {
            let _ = tx.send((seq, payload));
            return;
        }
        #[cfg(target_os = "linux")]
        {
            self.completions.lock().unwrap().push((conn, seq, payload));
            self.wake();
        }
    }

    fn wake(&self) {
        #[cfg(target_os = "linux")]
        if let Some(w) = self.waker.lock().unwrap().as_ref() {
            use std::io::Write;
            let _ = (&mut &*w).write(&[1u8]);
        }
    }

    /// The `op:"stat"` document body.
    pub(crate) fn stat_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(
            "\"uptime_ms\":{},\"connections\":{{\"accepted\":{},\"open\":{}}},\
             \"frames\":{},\"bad_frames\":{},\"bytes_out\":{},\
             \"joins\":{{\"ok\":{},\"err\":{},\"degraded\":{}}}",
            self.started.elapsed().as_millis(),
            self.stats.accepted.load(Ordering::Relaxed),
            self.stats.open.load(Ordering::Relaxed),
            self.stats.frames.load(Ordering::Relaxed),
            self.stats.bad_frames.load(Ordering::Relaxed),
            self.stats.bytes_out.load(Ordering::Relaxed),
            self.stats.joins_ok.load(Ordering::Relaxed),
            self.stats.joins_err.load(Ordering::Relaxed),
            self.stats.joins_degraded.load(Ordering::Relaxed),
        ));
        let c = self.cache.snapshot();
        out.push_str(&format!(
            ",\"cache\":{{\"entries\":{},\"bytes\":{},\"capacity\":{},\"hits\":{},\"misses\":{},\"evictions\":{}}}",
            c.entries, c.bytes, c.capacity, c.hits, c.misses, c.evictions
        ));
        out.push_str(&format!(
            ",\"global_budget\":{{\"used\":{},\"limit\":{}}}",
            self.admission.global_budget().used(),
            self.admission.global_budget().limit()
        ));
        out.push_str(",\"tenants\":[");
        for (i, t) in self.admission.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"queued\":{},\"budget\":{{\"used\":{},\"limit\":{}}},\
                 \"admitted\":{},\"rejected\":{},\"completed\":{},\"errored\":{},\"degraded\":{}}}",
                jsonv::escape(&t.name),
                t.queued,
                t.budget_used,
                t.budget_limit,
                t.admitted,
                t.rejected,
                t.completed,
                t.errored,
                t.degraded
            ));
        }
        out.push_str("],\"catalog\":[");
        for (i, e) in self.catalog.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"rows\":{},\"bytes\":{},\"version\":{},\"kind\":\"{}\"}}",
                jsonv::escape(&e.name),
                e.rel.len(),
                e.bytes(),
                e.version,
                e.kind
            ));
        }
        out.push_str("],\"telemetry\":");
        out.push_str(&self.telemetry.stat_fragment());
        out.push('}');
        out
    }

    /// The Prometheus text exposition (also served over HTTP when
    /// `metrics_addr` is configured).
    pub(crate) fn metrics_text(&self) -> String {
        self.telemetry.registry().expose_prometheus()
    }
}

/// A running join service; dropping it without [`Server::shutdown`]
/// detaches the threads (they stop when the process exits).
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the front-end and the runner pool, return immediately.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let runners = cfg.runners;
        let shared = Arc::new(Shared::new(cfg));
        let mut threads = Vec::with_capacity(runners + 3);
        for i in 0..runners {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mmjoin-serve-run{i}"))
                    .spawn(move || runner_loop(sh))
                    .expect("spawn runner"),
            );
        }
        #[cfg(target_os = "linux")]
        {
            let r = reactor::Reactor::new(listener, Arc::clone(&shared))?;
            threads.push(
                std::thread::Builder::new()
                    .name("mmjoin-serve-epoll".to_string())
                    .spawn(move || r.run())
                    .expect("spawn reactor"),
            );
        }
        #[cfg(not(target_os = "linux"))]
        {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmjoin-serve-accept".to_string())
                    .spawn(move || blocking::run(listener, sh))
                    .expect("spawn acceptor"),
            );
        }
        if shared.cfg.telemetry.slo_window_secs > 0.0 {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmjoin-serve-slo".to_string())
                    .spawn(move || sampler_loop(sh))
                    .expect("spawn sampler"),
            );
        }
        if let Some(l) = metrics_listener {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmjoin-serve-metrics".to_string())
                    .spawn(move || metrics_loop(l, sh))
                    .expect("spawn metrics"),
            );
        }
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Prometheus HTTP endpoint's bound address, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The Prometheus text exposition (what the HTTP endpoint and the
    /// `metrics` wire op serve).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Close every tenant's live SLO window and run the regression
    /// watch — what the background sampler does each `slo_window_secs`.
    /// Public so tests (and embedders with their own clocks) can drive
    /// window rotation deterministically.
    pub fn telemetry_tick(&self) {
        self.shared.telemetry.rotate_and_watch();
    }

    /// The same JSON body a `stat` request returns, for embedders and
    /// the CLI's periodic status line.
    pub fn stat_json(&self) -> String {
        self.shared.stat_json()
    }

    /// Stop accepting, cancel queued work, join every thread.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.admission.stop();
        self.shared.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A runner's joins all run on its thread's own worker pool
/// (`JoinConfig::executor`), whose workers are joined when the runner
/// thread exits.
fn runner_loop(shared: Arc<Shared>) {
    while let Some(adm) = shared.admission.next() {
        let payload = engine::execute(&shared, &adm);
        shared.complete(adm.job.conn, adm.job.seq, payload);
    }
}

/// Background SLO sampler: rotate windows + run the regression watch
/// every `slo_window_secs`, polling the stop flag at 50ms granularity.
fn sampler_loop(shared: Arc<Shared>) {
    let window = std::time::Duration::from_secs_f64(shared.cfg.telemetry.slo_window_secs);
    let tick = std::time::Duration::from_millis(50);
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(tick.min(window));
        if last.elapsed() >= window {
            shared.telemetry.rotate_and_watch();
            last = Instant::now();
        }
    }
}

/// Minimal Prometheus scrape endpoint: every connection gets the text
/// exposition as an `HTTP/1.0 200`, whatever it asked (the path is not
/// inspected — this serves exactly one document).
fn metrics_loop(listener: TcpListener, shared: Arc<Shared>) {
    use std::io::{Read, Write};
    listener
        .set_nonblocking(true)
        .expect("metrics listener nonblocking");
    let tick = std::time::Duration::from_millis(50);
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut sock, _)) => {
                let _ = sock.set_read_timeout(Some(std::time::Duration::from_millis(500)));
                // Drain the request line + headers (best effort).
                let mut buf = [0u8; 4096];
                let _ = sock.read(&mut buf);
                let body = shared.metrics_text();
                let resp = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = sock.write_all(resp.as_bytes());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(tick),
            Err(_) => std::thread::sleep(tick),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::jsonv::Value;

    /// What a client sees for load → join → stat → malformed frames →
    /// stat again on one connection: `(ok, matches, checksum or error
    /// code)` per response.
    fn drive(addr: SocketAddr) -> Vec<(bool, Option<f64>, String)> {
        let mut c = Client::connect(addr).expect("connect");
        c.set_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        let seen = |v: Value| {
            let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
            let matches = v.get("matches").and_then(Value::as_num);
            let detail = match v.get("error").and_then(|e| e.get("code")) {
                Some(code) => code.as_str().unwrap_or("").to_string(),
                None => v
                    .get("checksum")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            };
            (ok, matches, detail)
        };
        let mut out = Vec::new();
        for req in [
            r#"{"op":"load","name":"r","rows":4096,"kind":"build","seed":7}"#,
            r#"{"op":"load","name":"s","rows":16384,"kind":"probe_fk","domain":4096,"seed":8}"#,
            r#"{"op":"join","id":1,"algo":"PRO","build":"r","probe":"s"}"#,
            r#"{"op":"join","id":2,"algo":"NOP","build":"r","probe":"s"}"#,
            r#"{"op":"stat"}"#,
            r#"{"op": <-- nope"#,
        ] {
            out.push(seen(c.request(req).expect("response frame")));
        }
        // A well-framed payload that is not UTF-8 is answered too, and
        // the connection stays usable.
        let mut frame = 4u32.to_be_bytes().to_vec();
        frame.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
        c.send_raw(&frame).unwrap();
        out.push(seen(c.recv().expect("bad-frame response")));
        out.push(seen(
            c.request(r#"{"op":"stat"}"#).expect("stat after garbage"),
        ));
        out
    }

    /// The portable fallback front-end speaks the protocol exactly as
    /// the epoll reactor does: the same script gets the same answers.
    #[test]
    fn front_ends_agree() {
        let cfg = || ServeConfig::default().with_runners(1);

        let reactor = Server::spawn(cfg()).unwrap();
        let via_reactor = drive(reactor.addr());
        reactor.shutdown();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Arc::new(Shared::new(cfg()));
        let threads = [
            std::thread::spawn({
                let sh = Arc::clone(&shared);
                move || runner_loop(sh)
            }),
            std::thread::spawn({
                let sh = Arc::clone(&shared);
                move || blocking::run(listener, sh)
            }),
        ];
        let via_blocking = drive(addr);
        shared.stop.store(true, Ordering::Release);
        shared.admission.stop();
        for t in threads {
            t.join().expect("front-end thread");
        }
        assert_eq!(shared.stats.open.load(Ordering::Relaxed), 0);

        assert_eq!(via_blocking, via_reactor);
        let codes: Vec<&str> = via_blocking.iter().map(|s| s.2.as_str()).collect();
        assert!(via_blocking[..5].iter().all(|s| s.0), "{via_blocking:?}");
        assert_eq!(via_blocking[2].1, Some(16384.0));
        assert_eq!(codes[2], codes[3], "PRO and NOP checksums");
        assert_eq!(codes[5..7], ["bad_frame", "bad_frame"]);
        assert!(via_blocking[7].0, "connection survives garbage");
    }
}

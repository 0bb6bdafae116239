//! `mmjoin-serve`: an async multi-tenant join service over the
//! `mmjoin_core::prelude` API (DESIGN.md §15).
//!
//! The front end serves each connection on its own blocking threads
//! (see `front`), speaking a length-prefixed JSON protocol (see
//! [`protocol`]). Joins are scheduled through an
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

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod client;
mod conn;
pub mod engine;
mod front;
pub mod protocol;
pub mod telemetry;

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmjoin_util::jsonv;

pub use client::Client;

/// Server configuration. Knobs the protocol deliberately does **not**
/// expose (budgets, thread counts, spill placement) live here — they
/// are operator decisions, not per-request ones.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Runner threads executing admitted joins (at least 1, or
    /// [`Server::spawn`] refuses the config). Each runner owns a pool
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
    /// Telemetry knobs: SLO windows, flight recorder, slow-query log
    /// (see [`telemetry::TelemetryConfig`]).
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
        self.runners = n;
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

    /// SLO window length in seconds (`0` disables the background
    /// sampler; windows then rotate only via [`Server::telemetry_tick`]).
    /// [`Server::spawn`] refuses one no `Duration` can hold.
    pub fn with_slo_window_secs(mut self, secs: f64) -> Self {
        self.telemetry.slo_window_secs = secs;
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
}

/// A live connection in [`Shared::conns`].
struct Live {
    /// Its socket, for [`Server::shutdown`] to close.
    stream: Arc<TcpStream>,
    /// Where its finished joins' `(seq, response)` go (none for a
    /// metrics scrape).
    done: Option<Sender<(u64, String)>>,
}

/// Everything the front end, runners, and `stat` share.
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
    /// Every live connection of both ports, by id. `stop` is set under
    /// this lock, so a connection registers before shutdown closes the
    /// lot or sees the flag and does not register.
    conns: Mutex<HashMap<u64, Live>>,
    next_conn: AtomicU64,
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
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            cfg,
        }
    }

    /// Send a finished join's response to its connection's writer. A
    /// connection gone before its join finished drops it (its cancel
    /// token has already fired).
    pub(crate) fn complete(&self, conn: u64, seq: u64, payload: String) {
        if let Some(Live { done: Some(tx), .. }) = self
            .conns
            .lock()
            .expect("connection registry poisoned")
            .get(&conn)
        {
            let _ = tx.send((seq, payload));
        }
    }

    /// Register an accepted connection and return its id, or `None` once
    /// the server is stopping.
    pub(crate) fn register(
        &self,
        stream: &Arc<TcpStream>,
        done: Option<Sender<(u64, String)>>,
    ) -> Option<u64> {
        let mut conns = self.conns.lock().expect("connection registry poisoned");
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::clone(stream);
        conns.insert(id, Live { stream, done });
        Some(id)
    }

    /// The connection is closing: it gets no more answers.
    pub(crate) fn unregister(&self, id: u64) {
        self.conns
            .lock()
            .expect("connection registry poisoned")
            .remove(&id);
    }

    /// Set `stop` and close every live connection, which ends each
    /// blocked read and write on it.
    fn stop_and_close_all(&self) {
        let conns = self.conns.lock().expect("connection registry poisoned");
        self.stop.store(true, Ordering::Release);
        for c in conns.values() {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
    }

    /// The `op:"stat"` document body. Its join outcomes are what
    /// `Telemetry::record_join` counted: a tenant's `completed`,
    /// `errored` and `degraded` are read from the registry, `joins` is
    /// their sum over tenants, and the telemetry section renders the
    /// same read.
    ///
    /// The registry is read once, before the admission snapshot. A job
    /// leaves its queue and drops its lease before its answer is
    /// recorded, so a join counted as finished here is out of the
    /// snapshot's `queued` and `budget.used` too (the admission and
    /// registry locks order the reads); one that ends between the two
    /// reads counts as unfinished. A refusal is counted in `rejected`
    /// before its error is recorded, so one that lands between the reads
    /// can make `errored` read one short, never one over.
    pub(crate) fn stat_json(&self) -> String {
        self.render_stat(&self.telemetry.joins())
    }

    /// [`Shared::stat_json`] over `joins`, a telemetry read made before
    /// this takes the admission snapshot.
    fn render_stat(&self, joins: &[telemetry::TenantJoins]) -> String {
        let mut tenants = String::new();
        let (mut ok, mut err, mut degraded) = (0, 0, 0);
        for (i, t) in self.admission.snapshot().iter().enumerate() {
            // A tenant whose first answer is not yet recorded has none.
            let (answered, errors, t_degraded) = joins
                .iter()
                .find(|j| j.name == t.name)
                .map_or((0, 0, 0), |j| (j.latency.count, j.errors, j.degraded));
            let completed = answered.saturating_sub(errors);
            // Every refusal is answered, and counted, as an error too.
            let errored = errors.saturating_sub(t.rejected);
            ok += completed;
            err += errored;
            degraded += t_degraded;
            if i > 0 {
                tenants.push(',');
            }
            tenants.push_str(&format!(
                "{{\"name\":\"{}\",\"queued\":{},\"budget\":{{\"used\":{},\"limit\":{}}},\
                 \"admitted\":{},\"rejected\":{},\"completed\":{completed},\"errored\":{errored},\
                 \"degraded\":{t_degraded}}}",
                jsonv::escape(&t.name),
                t.queued,
                t.budget_used,
                t.budget_limit,
                t.admitted,
                t.rejected,
            ));
        }
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(
            "\"uptime_ms\":{},\"connections\":{{\"accepted\":{},\"open\":{}}},\
             \"frames\":{},\"bad_frames\":{},\"bytes_out\":{},\
             \"joins\":{{\"ok\":{ok},\"err\":{err},\"degraded\":{degraded}}}",
            self.started.elapsed().as_millis(),
            self.stats.accepted.load(Ordering::Relaxed),
            self.stats.open.load(Ordering::Relaxed),
            self.stats.frames.load(Ordering::Relaxed),
            self.stats.bad_frames.load(Ordering::Relaxed),
            self.stats.bytes_out.load(Ordering::Relaxed),
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
        out.push_str(&tenants);
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
        out.push_str(&self.telemetry.stat_fragment(joins));
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
    /// Bind, spawn the front end and the runner pool, return immediately.
    /// A config no server can run — no runners, or an SLO window no
    /// `Duration` holds — is refused with `InvalidInput`.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if cfg.runners == 0 {
            return Err(invalid("runners must be at least 1".to_string()));
        }
        let secs = cfg.telemetry.slo_window_secs;
        let window = Duration::try_from_secs_f64(secs)
            .map_err(|e| invalid(format!("slo_window_secs {secs}: {e}")))?;
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
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("mmjoin-serve-accept".to_string())
                .spawn(move || front::accept_loop(listener, sh, front::conn_loop))
                .expect("spawn acceptor"),
        );
        if !window.is_zero() {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmjoin-serve-slo".to_string())
                    .spawn(move || sampler_loop(sh, window))
                    .expect("spawn sampler"),
            );
        }
        if let Some(l) = metrics_listener {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("mmjoin-serve-metrics".to_string())
                    .spawn(move || front::accept_loop(l, sh, front::scrape))
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

    /// Close every tenant's live SLO window — what the background
    /// sampler does each `slo_window_secs`. Public so tests (and
    /// embedders with their own clocks) can drive window rotation
    /// deterministically.
    pub fn telemetry_tick(&self) {
        self.shared.telemetry.rotate();
    }

    /// The same JSON body a `stat` request returns, for embedders and
    /// the CLI's periodic status line.
    pub fn stat_json(&self) -> String {
        self.shared.stat_json()
    }

    /// Stop accepting, close every connection, cancel queued work, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.shared.stop_and_close_all();
        self.shared.admission.stop();
        for addr in std::iter::once(self.addr).chain(self.metrics_addr) {
            wake_accept(addr);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Connect once to a listener of this server, so that its accept loop
/// returns and sees the stop flag. A wildcard address is reached through
/// the loopback interface.
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
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

/// Background SLO sampler: rotate windows every `window`, polling the
/// stop flag at 50ms granularity.
fn sampler_loop(shared: Arc<Shared>, window: Duration) {
    let tick = Duration::from_millis(50);
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(tick.min(window));
        if last.elapsed() >= window {
            shared.telemetry.rotate();
            last = Instant::now();
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
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
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

    /// The front end answers a scripted connection: loads and joins
    /// succeed, PRO and NOP agree, garbage is a typed `bad_frame` and
    /// the connection survives it; after shutdown no connection is open.
    #[test]
    fn front_end_answers_the_script() {
        let server = Server::spawn(ServeConfig::default().with_runners(1)).unwrap();
        let shared = Arc::clone(&server.shared);
        let seen = drive(server.addr());
        server.shutdown();
        assert_eq!(shared.stats.open.load(Ordering::Relaxed), 0);

        let codes: Vec<&str> = seen.iter().map(|s| s.2.as_str()).collect();
        assert!(seen[..5].iter().all(|s| s.0), "{seen:?}");
        assert_eq!(seen[2].1, Some(16384.0));
        assert_eq!(codes[2], codes[3], "PRO and NOP checksums");
        assert_eq!(codes[5..7], ["bad_frame", "bad_frame"]);
        assert!(seen[7].0, "connection survives garbage");
    }

    /// Wherever a join's end lands against `stat`'s two reads (the
    /// telemetry, then the admission snapshot), a tenant whose admitted
    /// joins all read as finished has none queued and no lease left.
    #[test]
    fn stat_counts_a_join_finished_only_once_its_lease_is_back() {
        use mmjoin_core::prelude::{Algorithm, CancelToken};

        let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).unwrap();
        for ends in ["before both reads", "between the reads", "after both reads"] {
            let shared = Shared::new(ServeConfig::default());
            let job = admission::Job {
                conn: 1,
                seq: 1,
                id: None,
                tenant: "t".to_string(),
                spec: protocol::JoinSpec {
                    algorithm: Algorithm::Pro,
                    build: "r".into(),
                    probe: "s".into(),
                    deadline_ms: None,
                    radix_bits: None,
                    cache: true,
                },
                received: Instant::now(),
                expires: None,
                cancel: CancelToken::new(),
                queue_depth: 0,
            };
            shared.admission.submit(job).unwrap();
            let adm = shared.admission.next().expect("admitted");
            let lease = 1 << 20;
            adm.budget.try_reserve(lease).unwrap();
            adm.global.try_reserve(lease).unwrap();
            // `engine::execute`'s order: the lease goes, then the answer
            // is recorded.
            let end = || {
                adm.budget.release(lease);
                adm.global.release(lease);
                let answer = telemetry::QueryRecord::new(&adm.job, 0.0, Err("cancelled"));
                shared.telemetry.record_join(answer);
            };
            if ends == "before both reads" {
                end();
            }
            let joins = shared.telemetry.joins();
            if ends == "between the reads" {
                end();
            }
            let body = shared.render_stat(&joins);
            if ends == "after both reads" {
                end();
            }

            let stat = jsonv::parse(&body).expect("stat parses");
            let t = &stat.get("tenants").and_then(Value::as_arr).unwrap()[0];
            let finished = n(t, "completed") + n(t, "errored");
            assert_eq!(n(t, "admitted"), 1.0, "{ends}");
            if finished == n(t, "admitted") {
                assert_eq!(n(t, "queued"), 0.0, "{ends}: {body}");
                assert_eq!(n(t.get("budget").unwrap(), "used"), 0.0, "{ends}: {body}");
                let global = stat.get("global_budget").unwrap();
                assert_eq!(n(global, "used"), 0.0, "{ends}: {body}");
            }
            // Only a join that ended before the registry read counts.
            let counted = ends == "before both reads";
            assert_eq!(finished, counted as u8 as f64, "{ends}: {body}");
        }
    }
}

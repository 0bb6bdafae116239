//! Wire protocol of the join service (DESIGN.md §15).
//!
//! Frames are `4-byte big-endian length ‖ UTF-8 JSON`. The length covers
//! the JSON payload only and must not exceed [`MAX_FRAME`]. Keeping the
//! length outside the JSON means a malformed payload never desynchronizes
//! the stream: the server answers with a `bad_frame` error and keeps the
//! connection — framing integrity survives payload garbage.
//!
//! Requests are JSON objects with an `"op"` discriminator plus an
//! optional client-chosen `"id"` (echoed verbatim in the response) and an
//! optional `"tenant"` (admission-control identity, default
//! `"default"`). Responses carry `"ok": true|false`; failures embed an
//! `"error"` object whose `"code"` strings are a compatibility contract
//! (see `JoinError::code` and DESIGN.md §15). Join responses may arrive
//! out of submission order — correlate by `"id"`, not position.

use mmjoin_core::prelude::observe;
use mmjoin_core::prelude::{Algorithm, JoinError, Tuple, MAX_RADIX_BITS};
use mmjoin_util::jsonv::{self, Value};

/// Hard cap on a frame payload. Larger advertisements are answered with
/// `bad_frame` and the payload is discarded byte-for-byte so the stream
/// stays framed.
pub const MAX_FRAME: usize = 8 << 20;

/// A protocol-level failure: everything that can go wrong before (or
/// instead of) running a join. Join-execution failures are carried as
/// [`JoinError`] and serialized via [`observe::error_json`] so the two
/// surfaces share one code namespace.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoError {
    /// Stable machine-readable code (compatibility contract).
    pub code: &'static str,
    /// Human-oriented detail; no stability promise.
    pub message: String,
}

impl ProtoError {
    pub fn new(code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    /// `{"code": .., "message": ..}` — same shape as
    /// [`observe::error_json`] produces for [`JoinError`]s.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"message\":\"{}\"}}",
            self.code,
            jsonv::escape(&self.message)
        )
    }
}

/// Everything a client can ask for.
#[derive(Clone, Debug)]
pub enum Request {
    Load(LoadSpec),
    Join(JoinSpec),
    Stat,
    /// Drop every cached build side (used to force cold runs).
    Flush,
    /// Drain (or peek at) the query flight recorder as chrome-trace
    /// events (DESIGN.md §16; added post-§15 as an append-only op).
    Trace(TraceSpec),
    /// Prometheus text exposition of the metric registry (append-only
    /// op, same contract as `trace`).
    Metrics,
}

/// `op:"trace"` options.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Return at most this many of the newest records (default: all).
    pub max: Option<usize>,
    /// Remove returned records from the recorder (default true).
    pub drain: bool,
}

/// How `op:"load"` materializes a relation server-side. Relations are
/// generated from the same `mmjoin-datagen` distributions the harness
/// uses, so a client can reproduce any catalog relation locally from
/// `(kind, rows, domain, theta, seed)` alone — that is how the smoke
/// gate cross-checks server checksums against direct execution.
#[derive(Clone, Debug)]
pub enum LoadKind {
    /// Dense build side: keys are a permutation of `1..=rows`.
    Build,
    /// Foreign-key probe side: uniform keys over `1..=domain`.
    ProbeFk,
    /// Skewed probe side: Zipf(theta) keys over `1..=domain`.
    ProbeZipf,
    /// Explicit tuples shipped inline (tests; small relations only).
    Inline(Vec<Tuple>),
}

#[derive(Clone, Debug)]
pub struct LoadSpec {
    pub name: String,
    pub kind: LoadKind,
    pub rows: usize,
    /// Key domain (`probe_*` kinds: the build cardinality they target).
    pub domain: usize,
    pub theta: f64,
    pub seed: u64,
}

#[derive(Clone, Debug)]
pub struct JoinSpec {
    pub algorithm: Algorithm,
    /// Catalog name of the build relation.
    pub build: String,
    /// Catalog name of the probe relation.
    pub probe: String,
    /// Wall-clock budget measured from frame receipt; queue wait counts.
    pub deadline_ms: Option<u64>,
    pub radix_bits: Option<u32>,
    /// Share/reuse the build side through the server cache (default
    /// true; only effective for `PORTED` pipeline algorithms).
    pub cache: bool,
}

/// A parsed request envelope: `(id, tenant, request)`.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Echoed back verbatim (as a JSON number) when present.
    pub id: Option<f64>,
    pub tenant: String,
    pub request: Request,
}

fn bad(msg: impl Into<String>) -> ProtoError {
    ProtoError::new("bad_request", msg)
}

fn opt_num(v: &Value, key: &str) -> Result<Option<f64>, ProtoError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_num()
            .map(Some)
            .ok_or_else(|| bad(format!("field '{key}' must be a number"))),
    }
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, ProtoError> {
    match opt_num(v, key)? {
        None => Ok(None),
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as usize)),
        Some(_) => Err(bad(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, ProtoError> {
    v.get(key)
        .and_then(|x| x.as_str())
        .ok_or_else(|| bad(format!("missing string field '{key}'")))
}

/// Parse one frame payload into an [`Envelope`].
pub fn parse_request(payload: &[u8]) -> Result<Envelope, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtoError::new("bad_frame", "frame payload is not UTF-8"))?;
    let v = jsonv::parse(text).map_err(|e| ProtoError::new("bad_frame", e))?;
    // A non-object (or missing "op") is a request-shape error, not a
    // frame error: the JSON itself was fine, so the stream is healthy.
    if !matches!(v, Value::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let op = req_str(&v, "op")?;
    let id = opt_num(&v, "id")?;
    let tenant = match v.get("tenant") {
        None => "default".to_string(),
        Some(t) => t
            .as_str()
            .ok_or_else(|| bad("field 'tenant' must be a string"))?
            .to_string(),
    };
    let request = match op {
        "load" => Request::Load(parse_load(&v)?),
        "join" => Request::Join(parse_join(&v)?),
        "stat" => Request::Stat,
        "flush" => Request::Flush,
        "trace" => {
            let drain = match v.get("drain") {
                None => true,
                Some(d) => d
                    .as_bool()
                    .ok_or_else(|| bad("field 'drain' must be a boolean"))?,
            };
            Request::Trace(TraceSpec {
                max: opt_usize(&v, "max")?,
                drain,
            })
        }
        "metrics" => Request::Metrics,
        other => return Err(bad(format!("unknown op '{other}'"))),
    };
    Ok(Envelope {
        id,
        tenant,
        request,
    })
}

fn parse_load(v: &Value) -> Result<LoadSpec, ProtoError> {
    let name = req_str(v, "name")?.to_string();
    if name.is_empty() || name.len() > 256 {
        return Err(bad("relation name must be 1..=256 bytes"));
    }
    let theta = opt_num(v, "theta")?.unwrap_or(0.0);
    let seed = opt_num(v, "seed")?.unwrap_or(42.0) as u64;
    if let Some(tuples) = v.get("tuples") {
        let arr = tuples
            .as_arr()
            .ok_or_else(|| bad("field 'tuples' must be an array of [key, payload] pairs"))?;
        let mut out = Vec::with_capacity(arr.len());
        let mut domain = 0usize;
        for pair in arr {
            let p = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("each tuple must be a [key, payload] pair"))?;
            let key = p[0]
                .as_num()
                .filter(|k| *k >= 0.0 && *k <= u32::MAX as f64)
                .ok_or_else(|| bad("tuple key out of u32 range"))? as u32;
            let payload =
                p[1].as_num()
                    .filter(|k| *k >= 0.0 && *k <= u32::MAX as f64)
                    .ok_or_else(|| bad("tuple payload out of u32 range"))? as u32;
            domain = domain.max(key as usize);
            out.push(Tuple { key, payload });
        }
        let rows = out.len();
        return Ok(LoadSpec {
            name,
            kind: LoadKind::Inline(out),
            rows,
            domain,
            theta,
            seed,
        });
    }
    let rows = opt_usize(v, "rows")?.ok_or_else(|| bad("missing field 'rows'"))?;
    if rows == 0 {
        return Err(bad("'rows' must be positive"));
    }
    let kind_name = v.get("kind").and_then(|k| k.as_str()).unwrap_or("build");
    let domain = opt_usize(v, "domain")?.unwrap_or(rows);
    let kind = match kind_name {
        "build" => LoadKind::Build,
        "probe_fk" => LoadKind::ProbeFk,
        "probe_zipf" => LoadKind::ProbeZipf,
        other => return Err(bad(format!("unknown load kind '{other}'"))),
    };
    // The generators assert these; an assert on a connection's reader
    // thread would end it and leave the client without an answer, so
    // refuse the frame instead.
    if !matches!(kind, LoadKind::Build) && domain == 0 {
        return Err(bad("'domain' must be positive for a probe relation"));
    }
    if matches!(kind, LoadKind::ProbeZipf) && !(0.0..1.0).contains(&theta) {
        return Err(bad("'theta' must be in [0, 1) for kind 'probe_zipf'"));
    }
    Ok(LoadSpec {
        name,
        kind,
        rows,
        domain,
        theta,
        seed,
    })
}

fn parse_join(v: &Value) -> Result<JoinSpec, ProtoError> {
    let algo_name = v.get("algo").and_then(|a| a.as_str()).unwrap_or("PRO");
    let algorithm = Algorithm::from_name(algo_name)
        .ok_or_else(|| ProtoError::new("unknown_algorithm", format!("'{algo_name}'")))?;
    let build = req_str(v, "build")?.to_string();
    let probe = req_str(v, "probe")?.to_string();
    let deadline_ms = opt_num(v, "deadline_ms")?.map(|n| n.max(0.0) as u64);
    // Checked here, where the number enters: past this line it is a
    // `u32` that sizes histograms and tables.
    let radix_bits = match opt_usize(v, "bits")? {
        None => None,
        Some(b) if (1..=MAX_RADIX_BITS as usize).contains(&b) => Some(b as u32),
        Some(b) => {
            return Err(bad(format!(
                "field 'bits' must be in 1..={MAX_RADIX_BITS}, got {b}"
            )))
        }
    };
    let cache = match v.get("cache") {
        None => true,
        Some(c) => c
            .as_bool()
            .ok_or_else(|| bad("field 'cache' must be a boolean"))?,
    };
    Ok(JoinSpec {
        algorithm,
        build,
        probe,
        deadline_ms,
        radix_bits,
        cache,
    })
}

// ---------------------------------------------------------------------
// Response rendering (hand-rolled JSON, matching the repo-wide idiom).
// ---------------------------------------------------------------------

/// The echoed request id: `f64`'s `Display` writes a whole number
/// exactly and without a fraction, and `jsonv` admits only finite ones.
fn id_field(id: Option<f64>) -> String {
    id.map_or_else(String::new, |n| format!("\"id\":{n},"))
}

/// `{"id":..,"ok":false,"error":{..}}` from a protocol error.
pub fn error_response(id: Option<f64>, err: &ProtoError) -> String {
    format!(
        "{{{}\"ok\":false,\"error\":{}}}",
        id_field(id),
        err.to_json()
    )
}

/// `{"id":..,"ok":false,"error":{..}}` from a typed join error,
/// serialized through the shared [`observe::error_json`] form.
pub fn join_error_response(id: Option<f64>, err: &JoinError) -> String {
    format!(
        "{{{}\"ok\":false,\"error\":{}}}",
        id_field(id),
        observe::error_json(err)
    )
}

/// Successful `load`.
pub fn load_response(
    id: Option<f64>,
    name: &str,
    rows: usize,
    bytes: usize,
    version: u64,
) -> String {
    format!(
        "{{{}\"ok\":true,\"op\":\"load\",\"name\":\"{}\",\"rows\":{rows},\"bytes\":{bytes},\"version\":{version}}}",
        id_field(id),
        jsonv::escape(name)
    )
}

/// Outcome facts of a successful join, rendered into the response frame.
#[derive(Clone, Debug)]
pub struct JoinOutcome {
    pub algorithm: Algorithm,
    pub matches: u64,
    /// Order-independent digest; hex so 64-bit values survive JSON.
    pub checksum: u64,
    pub wall_ms: f64,
    pub queue_ms: f64,
    /// Served from (or inserted into) the build-side cache.
    pub cached: bool,
    /// Admission degraded the plan to the spilling join.
    pub degraded: bool,
    pub spill_bytes: u64,
}

/// Successful `join`.
pub fn join_response(id: Option<f64>, o: &JoinOutcome) -> String {
    format!(
        "{{{}\"ok\":true,\"op\":\"join\",\"algo\":\"{}\",\"matches\":{},\"checksum\":\"{:016x}\",\
         \"wall_ms\":{:.3},\"queue_ms\":{:.3},\"cached\":{},\"degraded\":{},\"spill_bytes\":{}}}",
        id_field(id),
        o.algorithm.name(),
        o.matches,
        o.checksum,
        o.wall_ms,
        o.queue_ms,
        o.cached,
        o.degraded,
        o.spill_bytes
    )
}

/// Successful `flush`.
pub fn flush_response(id: Option<f64>, dropped: usize) -> String {
    format!(
        "{{{}\"ok\":true,\"op\":\"flush\",\"dropped\":{dropped}}}",
        id_field(id)
    )
}

/// Successful `stat` — `body` is the pre-rendered stats document.
pub fn stat_response(id: Option<f64>, body: &str) -> String {
    format!(
        "{{{}\"ok\":true,\"op\":\"stat\",\"stat\":{body}}}",
        id_field(id)
    )
}

/// Successful `trace` — `events` is a pre-rendered chrome-trace event
/// array (saving it verbatim yields a file chrome://tracing loads).
pub fn trace_response(
    id: Option<f64>,
    count: usize,
    dropped: u64,
    capacity: usize,
    events: &str,
) -> String {
    format!(
        "{{{}\"ok\":true,\"op\":\"trace\",\"count\":{count},\"dropped\":{dropped},\
         \"capacity\":{capacity},\"events\":{events}}}",
        id_field(id)
    )
}

/// Successful `metrics` — the Prometheus exposition as a JSON string.
pub fn metrics_response(id: Option<f64>, text: &str) -> String {
    format!(
        "{{{}\"ok\":true,\"op\":\"metrics\",\"text\":\"{}\"}}",
        id_field(id),
        jsonv::escape(text)
    )
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Prefix `payload` with its 4-byte big-endian length.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let b = payload.as_bytes();
    let mut out = Vec::with_capacity(4 + b.len());
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
    out
}

/// One decoded item from the byte stream.
#[derive(Debug, PartialEq)]
pub enum Frame {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer advertised a length above [`MAX_FRAME`]; the reader is
    /// discarding that many bytes to stay in sync. Answer with
    /// `bad_frame` and keep the connection.
    Oversized(usize),
}

/// Incremental frame reassembly over arbitrary read chunk boundaries.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes still to swallow from an oversized frame.
    discard: usize,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Feed freshly read bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        let mut chunk = chunk;
        if self.discard > 0 {
            let eat = self.discard.min(chunk.len());
            self.discard -= eat;
            chunk = &chunk[eat..];
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pop the next complete frame, if any.
    pub fn next_frame(&mut self) -> Option<Frame> {
        if self.discard > 0 || self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            // Swallow whatever of the body already arrived; remember the rest.
            let have = self.buf.len() - 4;
            let eaten = have.min(len);
            self.buf.drain(..4 + eaten);
            self.discard = len - eaten;
            return Some(Frame::Oversized(len));
        }
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(Frame::Payload(payload))
    }

    /// Bytes buffered but not yet consumed (backpressure accounting).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_across_chunk_boundaries() {
        let f = encode_frame("{\"op\":\"stat\"}");
        let mut r = FrameReader::new();
        for b in &f {
            r.push(std::slice::from_ref(b));
        }
        match r.next_frame() {
            Some(Frame::Payload(p)) => assert_eq!(p, b"{\"op\":\"stat\"}"),
            other => panic!("expected payload, got {other:?}"),
        }
        assert_eq!(r.next_frame(), None);
    }

    #[test]
    fn oversized_frame_is_discarded_and_stream_resyncs() {
        let mut r = FrameReader::new();
        let huge = (MAX_FRAME + 1) as u32;
        r.push(&huge.to_be_bytes());
        r.push(&vec![0u8; 1000]);
        match r.next_frame() {
            Some(Frame::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected oversized, got {other:?}"),
        }
        // Feed the rest of the junk body, then a real frame.
        r.push(&vec![0u8; MAX_FRAME + 1 - 1000]);
        r.push(&encode_frame("{\"op\":\"flush\"}"));
        match r.next_frame() {
            Some(Frame::Payload(p)) => assert_eq!(p, b"{\"op\":\"flush\"}"),
            other => panic!("expected payload, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage_as_bad_frame_and_shape_as_bad_request() {
        let e = parse_request(b"{not json").unwrap_err();
        assert_eq!(e.code, "bad_frame");
        let e = parse_request(b"[1,2,3]").unwrap_err();
        assert_eq!(e.code, "bad_request");
        let e = parse_request(b"{\"op\":\"warp\"}").unwrap_err();
        assert_eq!(e.code, "bad_request");
        let e = parse_request(b"\xff\xfe").unwrap_err();
        assert_eq!(e.code, "bad_frame");
    }

    #[test]
    fn the_request_id_comes_back_unchanged() {
        for id in ["7", "-3", "1.5", "1e20"] {
            let env =
                parse_request(format!("{{\"op\":\"flush\",\"id\":{id}}}").as_bytes()).unwrap();
            let echoed = jsonv::parse(&flush_response(env.id, 0)).unwrap();
            let want: f64 = id.parse().unwrap();
            assert_eq!(echoed.get("id").and_then(Value::as_num), Some(want), "{id}");
        }
        let e = parse_request(b"{\"op\":\"flush\",\"id\":1e400}").unwrap_err();
        assert_eq!(e.code, "bad_frame");
    }

    #[test]
    fn parse_join_spec() {
        let env = parse_request(
            br#"{"op":"join","id":7,"tenant":"t1","algo":"cprl","build":"r","probe":"s","deadline_ms":250,"bits":10,"cache":false}"#,
        )
        .unwrap();
        assert_eq!(env.id, Some(7.0));
        assert_eq!(env.tenant, "t1");
        match env.request {
            Request::Join(j) => {
                assert_eq!(j.algorithm, Algorithm::Cprl);
                assert_eq!(j.build, "r");
                assert_eq!(j.probe, "s");
                assert_eq!(j.deadline_ms, Some(250));
                assert_eq!(j.radix_bits, Some(10));
                assert!(!j.cache);
            }
            other => panic!("expected join, got {other:?}"),
        }
        // `bits` is bounded where it is parsed: both ends of the range
        // pass, one past either end is a typed `bad_request`.
        let with_bits = |bits: u64| {
            let frame = format!(r#"{{"op":"join","build":"r","probe":"s","bits":{bits}}}"#);
            parse_request(frame.as_bytes())
        };
        for bits in [1, MAX_RADIX_BITS as u64] {
            match with_bits(bits).unwrap().request {
                Request::Join(j) => assert_eq!(j.radix_bits, Some(bits as u32)),
                other => panic!("expected join, got {other:?}"),
            }
        }
        for bits in [0, MAX_RADIX_BITS as u64 + 1, 64, 1 << 32] {
            assert_eq!(with_bits(bits).unwrap_err().code, "bad_request", "{bits}");
        }
    }

    #[test]
    fn parse_load_inline_tuples() {
        let env =
            parse_request(br#"{"op":"load","name":"tiny","tuples":[[1,10],[2,20]]}"#).unwrap();
        match env.request {
            Request::Load(l) => {
                assert_eq!(l.rows, 2);
                assert_eq!(l.domain, 2);
                match l.kind {
                    LoadKind::Inline(t) => assert_eq!(t[1].key, 2),
                    other => panic!("expected inline, got {other:?}"),
                }
            }
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn parse_trace_and_metrics_ops() {
        let env = parse_request(br#"{"op":"trace","max":16,"drain":false}"#).unwrap();
        match env.request {
            Request::Trace(t) => {
                assert_eq!(t.max, Some(16));
                assert!(!t.drain);
            }
            other => panic!("expected trace, got {other:?}"),
        }
        // Defaults: unbounded, draining.
        match parse_request(br#"{"op":"trace"}"#).unwrap().request {
            Request::Trace(t) => {
                assert_eq!(t.max, None);
                assert!(t.drain);
            }
            other => panic!("expected trace, got {other:?}"),
        }
        assert!(matches!(
            parse_request(br#"{"op":"metrics","id":3}"#)
                .unwrap()
                .request,
            Request::Metrics
        ));
        let e = parse_request(br#"{"op":"trace","drain":7}"#).unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn unknown_algorithm_has_its_own_code() {
        let e =
            parse_request(br#"{"op":"join","algo":"zzz","build":"r","probe":"s"}"#).unwrap_err();
        assert_eq!(e.code, "unknown_algorithm");
    }
}

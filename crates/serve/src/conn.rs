//! Per-connection protocol state behind the front end's reader and
//! writer threads (see `front`): frame reassembly in, response bytes
//! out, and the in-flight cancel bookkeeping between them.
//!
//! `load`/`stat`/`flush` are answered inline (they are catalog/metadata
//! work, microseconds); `join` is submitted to admission control and
//! answered asynchronously through [`Shared::complete`], so one slow
//! join never head-of-line-blocks the other requests multiplexed on the
//! same connection.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmjoin_core::prelude::CancelToken;

use crate::admission::Job;
use crate::protocol::{self, Frame, FrameReader, ProtoError, Request, MAX_FRAME};
use crate::telemetry::{QueryRecord, FLIGHT_CAPACITY};
use crate::Shared;

pub(crate) struct ConnState {
    id: u64,
    reader: FrameReader,
    /// Framed responses not yet written.
    out: Vec<u8>,
    /// Joins submitted but not yet completed: `(seq, cancel)`.
    inflight: Vec<(u64, CancelToken)>,
}

impl ConnState {
    pub(crate) fn new(id: u64) -> ConnState {
        ConnState {
            id,
            reader: FrameReader::new(),
            out: Vec::new(),
            inflight: Vec::new(),
        }
    }

    /// Feed freshly read bytes; parses and dispatches every complete
    /// frame they finish. False when the unparsed rest passes its bound:
    /// close the connection.
    pub(crate) fn ingest(&mut self, chunk: &[u8], shared: &Arc<Shared>) -> bool {
        self.reader.push(chunk);
        while let Some(frame) = self.reader.next_frame() {
            shared.stats.frames.fetch_add(1, Ordering::Relaxed);
            match frame {
                Frame::Oversized(n) => {
                    shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                    self.enqueue_response(&protocol::error_response(
                        None,
                        &ProtoError::new(
                            "bad_frame",
                            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
                        ),
                    ));
                }
                Frame::Payload(p) => self.handle_payload(&p, shared),
            }
        }
        self.reader.buffered() <= 2 * MAX_FRAME
    }

    fn handle_payload(&mut self, payload: &[u8], shared: &Arc<Shared>) {
        let env = match protocol::parse_request(payload) {
            Ok(env) => env,
            Err(e) => {
                // A request that failed to parse has no recoverable id;
                // the error is correlated by order on the client side.
                if e.code == "bad_frame" {
                    shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                }
                self.enqueue_response(&protocol::error_response(None, &e));
                return;
            }
        };
        let inline_started = Instant::now();
        match env.request {
            Request::Load(spec) => {
                let result = shared.catalog.load(&spec, shared.cfg.join_threads);
                let ok = result.is_ok();
                let resp = match result {
                    Ok(entry) => protocol::load_response(
                        env.id,
                        &entry.name,
                        entry.rel.len(),
                        entry.bytes(),
                        entry.version,
                    ),
                    Err(e) => protocol::error_response(env.id, &e),
                };
                self.record_op(shared, &env.tenant, "load", inline_started, ok);
                self.enqueue_response(&resp);
            }
            Request::Stat => {
                let body = shared.stat_json();
                self.record_op(shared, &env.tenant, "stat", inline_started, true);
                self.enqueue_response(&protocol::stat_response(env.id, &body));
            }
            Request::Flush => {
                let dropped = shared.cache.flush();
                self.record_op(shared, &env.tenant, "flush", inline_started, true);
                self.enqueue_response(&protocol::flush_response(env.id, dropped));
            }
            Request::Trace(spec) => {
                let (events, count, dropped) = shared.telemetry.render_trace(spec.max, spec.drain);
                let capacity = FLIGHT_CAPACITY;
                self.record_op(shared, &env.tenant, "trace", inline_started, true);
                self.enqueue_response(&protocol::trace_response(
                    env.id, count, dropped, capacity, &events,
                ));
            }
            Request::Metrics => {
                let text = shared.metrics_text();
                self.record_op(shared, &env.tenant, "metrics", inline_started, true);
                self.enqueue_response(&protocol::metrics_response(env.id, &text));
            }
            Request::Join(spec) => {
                let now = Instant::now();
                let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
                let cancel = CancelToken::new();
                let expires = spec.deadline_ms.map(|ms| now + Duration::from_millis(ms));
                let job = Job {
                    conn: self.id,
                    seq,
                    id: env.id,
                    tenant: env.tenant,
                    spec,
                    received: now,
                    expires,
                    cancel: cancel.clone(),
                    queue_depth: 0,
                };
                match shared.admission.submit(job) {
                    Ok(()) => self.inflight.push((seq, cancel)),
                    Err((e, job)) => {
                        // Synchronous rejection still counts as a join
                        // request in telemetry (the self-consistency
                        // contract: every join answer is recorded).
                        shared
                            .telemetry
                            .record_join(QueryRecord::new(&job, 0.0, Err(e.code)));
                        self.enqueue_response(&protocol::error_response(env.id, &e));
                    }
                }
            }
        }
    }

    fn record_op(&self, shared: &Arc<Shared>, tenant: &str, op: &str, started: Instant, ok: bool) {
        shared
            .telemetry
            .record_op(tenant, op, started.elapsed().as_nanos() as u64, ok);
    }

    /// Frame a rendered JSON payload onto the write queue.
    fn enqueue_response(&mut self, payload: &str) {
        self.out.extend_from_slice(&protocol::encode_frame(payload));
    }

    /// A join finished: release its cancel slot and queue the response.
    pub(crate) fn complete(&mut self, seq: u64, payload: &str) {
        self.inflight.retain(|(s, _)| *s != seq);
        self.enqueue_response(payload);
    }

    /// Write every queued response byte, blocking until the socket
    /// takes them all: the write is the backpressure.
    pub(crate) fn flush(&mut self, mut stream: &TcpStream, shared: &Shared) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        stream.write_all(&self.out)?;
        shared
            .stats
            .bytes_out
            .fetch_add(self.out.len() as u64, Ordering::Relaxed);
        self.out.clear();
        Ok(())
    }

    /// The connection is gone: stop every join still probing for it.
    pub(crate) fn cancel_inflight(&mut self) {
        for (_, cancel) in self.inflight.drain(..) {
            cancel.cancel();
        }
    }
}

//! The service window: an in-process `mmjoin-serve` server with the
//! shipped defaults written out, loaded over the wire, and driven by
//! closed-loop clients (callers that wait for each reply).

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mmjoin_core::pipeline::PORTED;
use mmjoin_core::Algorithm;
use mmjoin_serve::engine::estimate_bytes;
use mmjoin_serve::{Client, ServeConfig, Server};
use mmjoin_util::jsonv::Value;

use crate::spec::{CLIENTS, JOIN_THREADS, RUNNERS};
use crate::trace::{Span, Tracer};
use crate::workload::{Class, Expected, Inputs, Req, Schedule, TIGHT_TENANT};

/// One answered (or failed) request, as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    pub ms: f64,
    /// What a well-formed `ok:true` reply to this request carried;
    /// `None` for an error frame, a wrong id or a transport failure.
    pub answer: Option<Expected>,
    pub degraded: bool,
    pub spill_bytes: u64,
}

struct Conn {
    client: Client,
    schedule: Schedule,
    tracer: Tracer,
    sent: u64,
}

pub struct Service {
    /// `Some` until the server is shut down, in `Drop`.
    server: Option<Server>,
    conns: Vec<Conn>,
    pub samples: Vec<Sample>,
    /// Seconds the segments were open (denominator of `serve_rps`).
    pub open_s: f64,
}

/// The `tight` tenant's budget: a quarter of what admission estimates a
/// PRO join of these relations needs, so every request it sends misses
/// its reservation and degrades to the spilling join.
fn tight_budget(inputs: &Inputs) -> usize {
    estimate_bytes(Algorithm::Pro, inputs.r_svc.len(), inputs.s_svc.len()) / 4
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_num).map(|n| n as u64)
}

/// The result a join response carries, if it is a success frame for
/// request `id`. `degraded:true` is a success like any other.
fn answer(v: &Value, id: u64) -> Option<Expected> {
    if v.get("ok").and_then(Value::as_bool) != Some(true) || field_u64(v, "id") != Some(id) {
        return None;
    }
    let checksum = v.get("checksum").and_then(Value::as_str)?;
    Some(Expected {
        matches: field_u64(v, "matches")?,
        checksum: u64::from_str_radix(checksum, 16).ok()?,
    })
}

impl Conn {
    /// Send one request and wait for its reply.
    fn round_trip(&mut self, req: Req, trace: bool) -> Sample {
        self.sent += 1;
        let id = self.sent;
        let payload = req.payload(id);
        self.tracer.set_on(trace);
        let started = Instant::now();
        let reply = self.tracer.span("serve.request", 0, |t, root| {
            let client = &mut self.client;
            t.span("serve.client.send", root, |_, _| client.send(&payload))?;
            t.span("serve.client.recv", root, |_, _| client.recv())
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let mut sample = Sample {
            class: req.class,
            ms,
            answer: None,
            degraded: false,
            spill_bytes: 0,
        };
        match reply {
            Ok(v) => {
                sample.answer = answer(&v, id);
                sample.degraded = v.get("degraded").and_then(Value::as_bool) == Some(true);
                sample.spill_bytes = field_u64(&v, "spill_bytes").unwrap_or(0);
                if sample.answer.is_none() {
                    eprintln!("FAILED request {payload}: {v:?}");
                }
            }
            Err(e) => eprintln!("FAILED request {payload}: {e}"),
        }
        sample
    }
}

impl Service {
    /// Spawn the server, connect the clients, load the catalog over the
    /// wire and answer one request per cacheable algorithm, so the
    /// build-side cache is in the state the window measures.
    pub fn start(
        inputs: &Inputs,
        spill_dir: &Path,
        seed: u64,
        epoch: Instant,
    ) -> io::Result<Service> {
        let cfg = ServeConfig::default()
            .with_runners(RUNNERS)
            .with_join_threads(JOIN_THREADS)
            .with_tenant_budget(TIGHT_TENANT, tight_budget(inputs))
            .with_spill_dir(spill_dir);
        let server = Server::spawn(cfg)?;
        let mut conns = Vec::with_capacity(CLIENTS);
        for i in 0..CLIENTS {
            let mut client = Client::connect(server.addr())?;
            // A wedged server must fail the run, not hang it.
            client.set_timeout(Some(Duration::from_secs(60)))?;
            conns.push(Conn {
                client,
                schedule: Schedule::new(seed, i),
                tracer: Tracer::new(epoch, i as u32 + 1, false),
                sent: 0,
            });
        }
        let mut svc = Service {
            server: Some(server),
            conns,
            samples: Vec::new(),
            open_s: 0.0,
        };
        let loads = [
            format!(
                "{{\"op\":\"load\",\"name\":\"r\",\"kind\":\"build\",\"rows\":{},\"seed\":{}}}",
                inputs.r_svc.len(),
                inputs.r_seed
            ),
            format!(
                "{{\"op\":\"load\",\"name\":\"s\",\"kind\":\"probe_fk\",\"rows\":{},\"domain\":{},\"seed\":{}}}",
                inputs.s_svc.len(),
                inputs.r_svc.len(),
                inputs.s_seed
            ),
        ];
        for load in &loads {
            let v = svc.conns[0].client.request(load)?;
            if v.get("ok").and_then(Value::as_bool) != Some(true) {
                return Err(io::Error::other(format!("load refused: {v:?}")));
            }
        }
        for algo in PORTED {
            let req = Req {
                class: Class::Hot,
                algo,
            };
            let sample = svc.conns[0].round_trip(req, false);
            svc.samples.push(sample);
        }
        Ok(svc)
    }

    /// Samples taken so far, handed over (set-up's priming requests are
    /// checked but kept out of the window's latencies).
    pub fn take_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }

    /// Keep every client sending for `dur`; each finishes the request it
    /// has in flight. In a traced run every other request is recorded.
    pub fn segment(&mut self, dur: Duration, traced_run: bool) {
        let started = Instant::now();
        let deadline = started + dur;
        let batches: Vec<Vec<Sample>> = std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    sc.spawn(move || {
                        let mut out = Vec::new();
                        while Instant::now() < deadline {
                            let req = conn.schedule.next().expect("endless schedule");
                            let trace = traced_run && conn.sent & 1 == 0;
                            out.push(conn.round_trip(req, trace));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        self.open_s += started.elapsed().as_secs_f64();
        self.samples.extend(batches.into_iter().flatten());
    }

    /// The server's `stat` document over the wire, and how long the
    /// round trip took.
    pub fn stat(&mut self) -> io::Result<(Value, f64)> {
        let started = Instant::now();
        let v = self.conns[0].client.request("{\"op\":\"stat\"}")?;
        Ok((v, started.elapsed().as_secs_f64() * 1e3))
    }

    /// The same document, rendered in-process.
    pub fn stat_json(&self) -> String {
        self.server.as_ref().expect("running").stat_json()
    }

    /// Hand back the clients' spans; dropping the service stops the server.
    pub fn shutdown(mut self) -> Vec<Span> {
        self.conns
            .drain(..)
            .flat_map(|c| c.tracer.into_spans())
            .collect()
    }
}

/// Stop the server and join its threads, on error paths too.
impl Drop for Service {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_util::jsonv;

    #[test]
    fn answer_wants_a_success_frame_for_this_request() {
        let good = r#"{"id":3,"ok":true,"op":"join","algo":"SHHJ","matches":12,"checksum":"000000000000abcd","degraded":true}"#;
        assert_eq!(
            answer(&jsonv::parse(good).unwrap(), 3),
            Some(Expected {
                matches: 12,
                checksum: 0xABCD
            })
        );
        for bad in [
            r#"{"id":3,"ok":false,"error":{"code":"queue_full","message":""}}"#,
            r#"{"id":4,"ok":true,"matches":12,"checksum":"000000000000abcd"}"#,
            r#"{"id":3,"ok":true,"checksum":"000000000000abcd"}"#,
            r#"{"id":3,"ok":true,"matches":12,"checksum":"xyz"}"#,
        ] {
            assert_eq!(answer(&jsonv::parse(bad).unwrap(), 3), None, "{bad}");
        }
    }
}

//! Exporters for the observability layer (DESIGN.md §10).
//!
//! Two formats, both hand-rolled JSON (the workspace takes no serde
//! dependency):
//!
//! * [`chrome_trace`] — chrome://tracing / Perfetto trace-event JSON.
//!   Each [`JoinResult`] becomes one "process"; tid 0 carries the phase
//!   bars, tid `w + 1` worker `w`'s spans, so the timeline shows the
//!   barrier structure and per-worker imbalance directly.
//! * [`metrics`] — a flat metrics document (one object per run, one per
//!   phase, one per worker span) for scripted consumption, with an
//!   optional caller-supplied `"meta"` block (host CPU model, kernel
//!   mode, counter availability — see the bench harness).
//!
//! Native counters that were unavailable are emitted as JSON `null`,
//! keeping the schema identical on hosts with and without PMU access.

use mmjoin_util::jsonv::escape;
use mmjoin_util::perf::CounterDelta;
use mmjoin_util::pool::WorkerPhaseStat;

use crate::plan::JoinError;
use crate::stats::{JoinResult, PhaseStat};

/// Wire-serializable form of a [`JoinError`]: an object carrying the
/// stable [`JoinError::code`] (the compatibility contract, DESIGN.md
/// §15), the human-readable rendering, and the failing phase when the
/// variant has one. `mmjoin-serve` embeds this verbatim in its error
/// frames, so clients can match on `code` instead of parsing prose.
pub fn error_json(e: &JoinError) -> String {
    let mut out = format!(
        "{{\"code\": \"{}\", \"message\": \"{}\"",
        e.code(),
        escape(&e.to_string())
    );
    if let Some(phase) = e.phase() {
        out.push_str(&format!(", \"phase\": \"{}\"", escape(phase)));
    }
    match e {
        JoinError::MemoryBudgetExceeded {
            requested,
            limit,
            available,
            ..
        } => out.push_str(&format!(
            ", \"requested\": {requested}, \"limit\": {limit}, \"available\": {available}"
        )),
        JoinError::Timedout { elapsed, .. } => out.push_str(&format!(
            ", \"elapsed_ms\": {:.3}",
            elapsed.as_secs_f64() * 1e3
        )),
        JoinError::InvalidConfig { field, value, .. } => {
            out.push_str(&format!(
                ", \"field\": \"{}\", \"value\": {value}",
                escape(field)
            ));
        }
        JoinError::PipelineUnsupported { algorithm }
        | JoinError::DomainExceeded { algorithm, .. } => {
            out.push_str(&format!(", \"algorithm\": \"{algorithm}\""));
        }
        _ => {}
    }
    out.push('}');
    out
}

/// `Some(v)` → `v`, `None` → `null`.
fn opt(v: Option<u64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  ");
    out.push_str(body);
}

/// `[ts, end)` of a phase bar in ns since recording start: span extents
/// when profiling recorded any, else synthesized sequentially from
/// `cursor_ns` (profiling off still yields a readable trace).
fn phase_extent(p: &PhaseStat, cursor_ns: u64) -> (u64, u64) {
    let starts = p.workers.iter().map(|w| w.start_ns).min();
    match starts {
        Some(ts) => {
            let end = p
                .workers
                .iter()
                .map(|w| w.start_ns + w.dur_ns)
                .max()
                .unwrap_or(ts);
            (ts, end.max(ts))
        }
        None => (cursor_ns, cursor_ns + p.wall.as_nanos() as u64),
    }
}

/// The five native counters of a span or of a phase's total (`null`
/// where unavailable).
fn counters_json(t: &CounterDelta) -> String {
    format!(
        "\"cycles\": {}, \"instructions\": {}, \"llc_misses\": {}, \
         \"dtlb_misses\": {}, \"task_clock_ns\": {}",
        opt(t.cycles),
        opt(t.instructions),
        opt(t.llc_misses),
        opt(t.dtlb_misses),
        opt(t.task_clock_ns)
    )
}

/// What a worker span counted — the fields its trace event's `args` and
/// its metrics object share.
fn span_fields(w: &WorkerPhaseStat) -> String {
    format!(
        "\"tasks\": {}, \"steals\": {}, {}",
        w.tasks,
        w.steals,
        counters_json(&w.counters)
    )
}

/// What a phase measured — wall (and, with `sim`, simulated) time,
/// executor, spill and alloc counters, worker-summed native counters:
/// the fields of a trace phase bar's `args`, a metrics phase object and
/// a per-query rollup.
fn phase_fields(p: &PhaseStat, sim: bool) -> String {
    let sim_ms = if sim {
        format!("\"sim_ms\": {:.3}, ", p.sim_seconds * 1e3)
    } else {
        String::new()
    };
    let a = &p.alloc;
    format!(
        "\"wall_ms\": {:.3}, {sim_ms}\"tasks\": {}, \"steals\": {}, \"idle_ms\": {:.3}, \
         \"bytes_spilled\": {}, \"partitions_spilled\": {}, \"spill_recursion_depth\": {}, \
         \"alloc\": {{\"mapped_blocks\": {}, \"mapped_bytes\": {}, \"pool_hits\": {}, \
         \"pool_hit_bytes\": {}, \"degraded_page\": {}, \"heap_fallback\": {}}}, \
         {}",
        p.wall.as_secs_f64() * 1e3,
        p.exec.tasks,
        p.exec.steals,
        p.exec.idle_ns as f64 / 1e6,
        p.spill.bytes_spilled,
        p.spill.partitions_spilled,
        p.spill.recursion_depth,
        a.mapped_blocks,
        a.mapped_bytes,
        a.pool_hits,
        a.pool_hit_bytes,
        a.degraded_page,
        a.heap_fallback,
        counters_json(&p.counter_totals())
    )
}

/// Render `results` as chrome://tracing trace-event JSON (the "JSON
/// array format"; load via chrome://tracing "Load" or ui.perfetto.dev).
/// Timestamps are microseconds since each run's recording start.
pub fn chrome_trace(results: &[JoinResult]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (i, r) in results.iter().enumerate() {
        let pid = i + 1;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(r.algorithm.name())
            ),
        );
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"name\": \"phases\"}}}}"
            ),
        );
        let workers = r
            .phases
            .iter()
            .flat_map(|p| p.workers.iter())
            .map(|w| w.worker + 1)
            .max()
            .unwrap_or(0);
        for w in 0..workers {
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                     \"tid\": {}, \"args\": {{\"name\": \"worker {w}\"}}}}",
                    w + 1
                ),
            );
        }
        let mut cursor_ns = 0u64;
        for p in &r.phases {
            let (ts, end) = phase_extent(p, cursor_ns);
            cursor_ns = end;
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"pid\": {pid}, \"tid\": 0, \"args\": {{{}}}}}",
                    escape(p.name),
                    ts as f64 / 1e3,
                    (end - ts) as f64 / 1e3,
                    phase_fields(p, true)
                ),
            );
            for w in &p.workers {
                push_event(
                    &mut out,
                    &mut first,
                    &format!(
                        "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                         \"pid\": {pid}, \"tid\": {}, \"args\": {{{}}}}}",
                        escape(p.name),
                        w.start_ns as f64 / 1e3,
                        w.dur_ns as f64 / 1e3,
                        w.worker + 1,
                        span_fields(w)
                    ),
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// One chrome-trace metadata event (`"ph": "M"`): `kind` is
/// `"process_name"` or `"thread_name"`. The service's flight recorder
/// composes its `trace` op output from these plus
/// [`trace_complete_event`], so live traces and offline
/// [`chrome_trace`] dumps load in the same viewer.
pub fn trace_name_event(kind: &str, pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"name\": \"{}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
         \"args\": {{\"name\": \"{}\"}}}}",
        escape(kind),
        escape(name)
    )
}

/// One chrome-trace complete event (`"ph": "X"`). `ts_us`/`dur_us` are
/// microseconds; `args_json` must be a well-formed JSON object.
pub fn trace_complete_event(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    args_json: &str,
) -> String {
    format!(
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {ts_us:.3}, \
         \"dur\": {dur_us:.3}, \"pid\": {pid}, \"tid\": {tid}, \"args\": {args_json}}}",
        escape(name),
        escape(cat)
    )
}

/// Compact rollup of one [`PhaseStat`] for per-query records: wall
/// time, executor counters, spill/alloc counters, and the worker-summed
/// perf counter deltas (`null` where unavailable) — everything except
/// the per-worker span vector, which is too heavy to retain per query.
pub fn phase_rollup_json(p: &PhaseStat) -> String {
    format!(
        "{{\"name\": \"{}\", {}}}",
        escape(p.name),
        phase_fields(p, false)
    )
}

fn phase_json(p: &PhaseStat) -> String {
    let workers: Vec<String> = p
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"worker\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}, {}}}",
                w.worker,
                w.start_ns as f64 / 1e3,
                w.dur_ns as f64 / 1e3,
                span_fields(w)
            )
        })
        .collect();
    format!(
        "{{\"name\": \"{}\", {}, \"workers\": [{}]}}",
        escape(p.name),
        phase_fields(p, true),
        workers.join(", ")
    )
}

fn run_json(r: &JoinResult) -> String {
    let radix = match r.radix_bits {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    let phases: Vec<String> = r.phases.iter().map(phase_json).collect();
    format!(
        "{{\"algorithm\": \"{}\", \"matches\": {}, \"checksum\": \"{:#018x}\", \
         \"radix_bits\": {radix}, \"total_wall_ms\": {:.3}, \"phases\": [{}]}}",
        escape(r.algorithm.name()),
        r.matches,
        r.checksum,
        r.total_wall().as_secs_f64() * 1e3,
        phases.join(", ")
    )
}

/// Render `results` as a flat metrics document:
/// `{"meta": ..., "runs": [...]}`. `meta_json`, when given, must be a
/// well-formed JSON value (the bench harness's host-metadata block); it
/// is `null` otherwise. The checksum is a hex *string* — as a JSON
/// number it would exceed the 2^53 integer precision most parsers keep.
pub fn metrics(results: &[JoinResult], meta_json: Option<&str>) -> String {
    let runs: Vec<String> = results.iter().map(run_json).collect();
    format!(
        "{{\n  \"meta\": {},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        meta_json.unwrap_or("null"),
        runs.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use mmjoin_util::pool::ExecCounters;
    use std::time::Duration;

    fn sample() -> JoinResult {
        let mut r = JoinResult::new(Algorithm::Pro);
        r.matches = 42;
        r.checksum = u64::MAX;
        r.radix_bits = Some(11);
        r.phases.push(PhaseStat {
            name: "partition",
            wall: Duration::from_millis(3),
            model_wall: Duration::ZERO,
            sim_seconds: 0.001,
            exec: ExecCounters {
                tasks: 2,
                steals: 1,
                idle_ns: 500,
            },
            spill: crate::stats::SpillCounters {
                bytes_spilled: 4096,
                partitions_spilled: 1,
                recursion_depth: 0,
            },
            alloc: crate::stats::AllocCounters {
                mapped_blocks: 2,
                mapped_bytes: 1 << 21,
                ..Default::default()
            },
            workers: vec![
                WorkerPhaseStat {
                    worker: 0,
                    start_ns: 1_000,
                    dur_ns: 2_000,
                    tasks: 1,
                    steals: 0,
                    counters: CounterDelta {
                        cycles: Some(123),
                        ..CounterDelta::none()
                    },
                },
                WorkerPhaseStat {
                    worker: 1,
                    start_ns: 1_000,
                    dur_ns: 1_500,
                    tasks: 1,
                    steals: 1,
                    counters: CounterDelta::none(),
                },
            ],
        });
        r.push_phase("join", Duration::from_millis(5), 0.002);
        r
    }

    /// The three documents, byte for byte as the exporters wrote them
    /// before each record had one writer (`tests/golden/observe_*`,
    /// recorded at bf1f85d from this `sample()`): the service's `trace`
    /// and `stat` consumers parse these.
    #[test]
    fn documents_match_their_golden_bytes() {
        let r = sample();
        assert_eq!(
            chrome_trace(std::slice::from_ref(&r)),
            include_str!("../tests/golden/observe_chrome_trace.json")
        );
        assert_eq!(
            metrics(std::slice::from_ref(&r), Some("{\"cpu_model\": \"test\"}")),
            include_str!("../tests/golden/observe_metrics.json")
        );
        let rollups: Vec<String> = r.phases.iter().map(phase_rollup_json).collect();
        assert_eq!(
            rollups.join("\n"),
            include_str!("../tests/golden/observe_phase_rollups.jsonl")
        );
    }

    #[test]
    fn chrome_trace_structure() {
        let t = chrome_trace(&[sample()]);
        assert!(t.starts_with("[\n"));
        assert!(t.trim_end().ends_with(']'));
        assert!(t.contains("\"process_name\""));
        assert!(t.contains("\"name\": \"PRO\""));
        assert!(t.contains("\"worker 1\""));
        // Phase bar + two worker spans for "partition".
        assert_eq!(t.matches("\"name\": \"partition\"").count(), 3);
        // Unprofiled phase still gets a bar, synthesized sequentially.
        assert_eq!(t.matches("\"name\": \"join\"").count(), 1);
        // Unavailable counters are null, not absent.
        assert!(t.contains("\"cycles\": null"));
        assert!(t.contains("\"cycles\": 123"));
        // Braces and brackets balance (cheap well-formedness check; the
        // profile bin's validator does the real parse).
        assert_eq!(t.matches('{').count(), t.matches('}').count());
        assert_eq!(t.matches('[').count(), t.matches(']').count());
    }

    #[test]
    fn metrics_structure() {
        let m = metrics(&[sample()], Some("{\"cpu_model\": \"test\"}"));
        assert!(m.contains("\"meta\": {\"cpu_model\": \"test\"}"));
        assert!(m.contains("\"algorithm\": \"PRO\""));
        assert!(m.contains("\"checksum\": \"0xffffffffffffffff\""));
        assert!(m.contains("\"radix_bits\": 11"));
        assert!(m.contains("\"bytes_spilled\": 4096"));
        assert!(m.contains("\"partitions_spilled\": 1"));
        assert!(m.contains("\"spill_recursion_depth\": 0"));
        assert!(m.contains("\"alloc\": {\"mapped_blocks\": 2, \"mapped_bytes\": 2097152"));
        assert!(m.contains("\"workers\": []"));
        assert_eq!(m.matches('{').count(), m.matches('}').count());
        let no_meta = metrics(&[], None);
        assert!(no_meta.contains("\"meta\": null"));
        assert!(no_meta.contains("\"runs\": ["));
    }

    #[test]
    fn phase_extent_synthesis() {
        let r = sample();
        // Profiled phase: extent from spans.
        let (ts, end) = phase_extent(&r.phases[0], 0);
        assert_eq!(ts, 1_000);
        assert_eq!(end, 3_000);
        // Unprofiled phase: sequential from the cursor.
        let (ts, end) = phase_extent(&r.phases[1], 3_000);
        assert_eq!(ts, 3_000);
        assert_eq!(end, 3_000 + 5_000_000);
    }

    #[test]
    fn event_builders_match_chrome_trace_shapes() {
        let m = trace_name_event("thread_name", 1, 3, "tenant \"a\"");
        assert!(m.contains("\"ph\": \"M\""));
        assert!(m.contains("\"tid\": 3"));
        assert!(m.contains("tenant \\\"a\\\""));
        let x = trace_complete_event("PRO", "join", 1, 2, 10.5, 2000.0, "{\"cached\": true}");
        assert!(x.contains("\"ph\": \"X\""));
        assert!(x.contains("\"ts\": 10.500"));
        assert!(x.contains("\"args\": {\"cached\": true}"));
        let r = sample();
        let j = phase_rollup_json(&r.phases[0]);
        assert!(j.contains("\"name\": \"partition\""));
        assert!(j.contains("\"bytes_spilled\": 4096"));
        assert!(j.contains("\"cycles\": 123"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

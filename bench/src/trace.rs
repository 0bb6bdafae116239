//! In-memory spans recorded by the benchmark around its own calls into
//! the crates. Nothing here reaches inside `crates/`: a span covers a
//! call from the outside, one root per rep or request, and is written
//! out only when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 = root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. Ids are unique across threads because
/// each recorder numbers from its own `lane << 24`.
pub struct Tracer {
    epoch: Instant,
    lane: u32,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32, on: bool) -> Tracer {
        Tracer {
            epoch,
            lane,
            on,
            spans: Vec::new(),
        }
    }

    /// Switch recording; the traced run alternates it per rep so that
    /// traced and untraced reps share one window (`trace.overhead_pct`).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span. `f` gets the span's id to parent children
    /// on (0 when recording is off).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> R {
        if !self.on {
            return f(self, 0);
        }
        let idx = self.spans.len();
        let id = (self.lane << 24) + idx as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let r = f(self, id);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: `(count, total ns, self ns)`, where self time is the
/// span's duration minus the part of it its children cover. Children
/// that overlap each other (two client threads under one segment) are
/// merged first, so the covered part is never counted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered;
    }
    out
}

/// The spans as a chrome://tracing document (complete events; `tid` is
/// the recording lane; span id and parent travel in `args`).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 120);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.id >> 24,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let spans = [
            sp(1, 0, "root", 0, 100),
            // Two overlapping children cover [10, 60), a third [70, 80).
            sp(2, 1, "kid", 10, 50),
            sp(3, 1, "kid", 30, 60),
            sp(4, 1, "kid", 70, 80),
            // A grandchild only reduces its own parent.
            sp(5, 2, "leaf", 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100, 40));
        assert_eq!(t["kid"], (3, 40 + 30 + 10, 30 + 30 + 10));
        assert_eq!(t["leaf"], (1, 10, 10));
    }

    #[test]
    fn child_reaching_past_its_parent_is_clipped() {
        let spans = [sp(1, 0, "root", 10, 20), sp(2, 1, "kid", 5, 30)];
        assert_eq!(self_times(&spans)["root"], (1, 10, 0));
    }

    #[test]
    fn tracer_nests_and_can_be_switched_off() {
        let mut t = Tracer::new(Instant::now(), 2, true);
        t.span("outer", 0, |t, outer| {
            t.span("inner", outer, |_, _| ());
        });
        t.set_on(false);
        t.span("dropped", 0, |_, id| assert_eq!(id, 0));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, (2 << 24) + 1);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = chrome_json(&spans);
        assert!(mmjoin_util::jsonv::parse(&doc).is_ok());
    }
}

//! Streaming telemetry primitives for the live service (DESIGN.md §16).
//!
//! The offline harness measures latency by collecting every sample and
//! sorting a copy per percentile ([`crate::stats::percentile`]). A
//! service that runs for days cannot: memory is unbounded and the sort
//! is a stop-the-world pass. This module provides the fixed-memory
//! alternative:
//!
//! * [`LogHistogram`] — an HDR-style log-bucketed histogram over `u64`
//!   values with **atomic** buckets: `record` is lock-free and
//!   wait-free (two relaxed fetch-adds plus a min/max update), merge is
//!   bucket-wise addition, and quantile estimates carry a bounded
//!   relative error of at most `2^-SUB_BITS` = 1/32 ≈ 3.1%.
//! * [`HistSnapshot`] — a plain (non-atomic) copy for window rollups:
//!   mergeable, quantile-queryable, serializable by hand like every
//!   other JSON artifact in the workspace.
//! * [`Counter`] — a monotonic atomic.
//! * [`Registry`] — a labeled metric registry (name × label set →
//!   counter/histogram) with a Prometheus text exposition and
//!   label-filtered totals. Each server embeds its own, so tests
//!   hosting several servers in one process stay isolated.
//!
//! Values are unit-agnostic `u64`s; the service records latencies in
//! nanoseconds and byte volumes in bytes, and converts at exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket precision: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile
/// error by `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 5;
const BASE: usize = 1 << SUB_BITS; // 32
/// Bucket count covering the full `u64` range: values below `BASE` get
/// exact unit buckets, every octave above contributes `BASE` buckets.
pub const N_BUCKETS: usize = (64 - SUB_BITS as usize) * BASE;

/// Bucket index of `v` (exact for `v < BASE`, log-linear above).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < BASE as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
    let shift = msb - SUB_BITS as usize;
    ((shift + 1) << SUB_BITS) | ((v >> shift) as usize & (BASE - 1))
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lo(i: usize) -> u64 {
    if i < BASE {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let sub = (i & (BASE - 1)) as u64;
    (BASE as u64 | sub) << shift
}

/// Representative value of bucket `i`: its midpoint, which halves the
/// worst-case quantile error versus either bound.
#[inline]
fn bucket_mid(i: usize) -> u64 {
    if i < BASE {
        return i as u64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let lo = bucket_lo(i);
    lo + ((1u64 << shift) >> 1)
}

/// Fixed-memory log-bucketed histogram with atomic buckets. `record`
/// never blocks; concurrent recorders and a concurrent snapshotter are
/// all safe (a snapshot taken mid-record may miss in-flight samples,
/// which is the usual monitoring contract).
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LogHistogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free: two fetch-adds, one bucket
    /// increment, and min/max updates, all relaxed.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Bucket-wise accumulate `other` into `self` (associative and
    /// commutative, so per-thread histograms fold in any order).
    pub fn merge(&self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = o.load(Ordering::Relaxed);
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Estimate the `q`-quantile (0.0..=1.0). Exact at the extremes
    /// (tracked min/max); elsewhere the bucket midpoint, within
    /// `2^-SUB_BITS` relative error. Zero observations yield 0.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Plain copy of the current state for window rollups.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = vec![0u64; N_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            counts[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and counter (used when an epoch slot is
    /// recycled; concurrent records during the reset may land on
    /// either side of it).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A plain (non-atomic) histogram state: what window rollups store and
/// merge without touching the live atomics.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Same estimator as [`LogHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Rank of the target observation, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.counts.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            seen += n;
            if seen >= target {
                // Clamp to the tracked extremes: the lowest/highest
                // buckets' midpoints can under/overshoot them.
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Monotonic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric's identity: family name plus its sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<LogHistogram>),
}

/// Labeled metric registry. Lookup takes a short mutex (creation is
/// rare, the handle is meant to be cached by the caller); recording
/// through the returned `Arc` handles is lock-free.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter `name{labels}`, created on first use. Panics if the
    /// same name+labels was registered as a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut g = self.metrics.lock().unwrap();
        match g
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LogHistogram> {
        let mut g = self.metrics.lock().unwrap();
        match g
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(LogHistogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Sum of `name`'s counters over every label set that carries all
    /// of `filter`'s pairs (an empty filter matches every set).
    pub fn counter_sum(&self, name: &str, filter: &[(&str, &str)]) -> u64 {
        let mut n = 0;
        self.each(name, filter, |m| {
            if let Metric::Counter(c) = m {
                n += c.get();
            }
        });
        n
    }

    /// Merged snapshot of `name`'s histograms over every label set that
    /// carries all of `filter`'s pairs.
    pub fn histogram_sum(&self, name: &str, filter: &[(&str, &str)]) -> HistSnapshot {
        let mut out = HistSnapshot::empty();
        self.each(name, filter, |m| {
            if let Metric::Histogram(h) = m {
                out.merge(&h.snapshot());
            }
        });
        out
    }

    /// Call `f` on every `name` metric whose labels carry all of `filter`'s pairs.
    fn each(&self, name: &str, filter: &[(&str, &str)], mut f: impl FnMut(&Metric)) {
        let g = self.metrics.lock().unwrap();
        for ((n, labels), m) in g.iter() {
            if n == name
                && filter
                    .iter()
                    .all(|&(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
            {
                f(m);
            }
        }
    }

    /// Prometheus text exposition (version 0.0.4). Histograms are
    /// rendered as summaries (`{quantile="0.5"|"0.99"|"0.999"}` plus
    /// `_sum`/`_count`); `*_ns`-suffixed families are scaled to
    /// seconds and exposed as `*_seconds`, matching the convention.
    pub fn expose_prometheus(&self) -> String {
        let g = self.metrics.lock().unwrap();
        let mut out = String::with_capacity(4096);
        let mut last_family = String::new();
        for ((name, labels), m) in g.iter() {
            let (family, kind, scale) = match m {
                Metric::Counter(_) => (name.clone(), "counter", 1.0),
                Metric::Histogram(_) => match name.strip_suffix("_ns") {
                    Some(stem) => (format!("{stem}_seconds"), "summary", 1e-9),
                    None => (name.clone(), "summary", 1.0),
                },
            };
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.clone();
            }
            let label_str = render_labels(labels, None);
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!("{family}{label_str} {}\n", c.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    for (q, qs) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                        let ql = render_labels(labels, Some(qs));
                        out.push_str(&format!(
                            "{family}{ql} {}\n",
                            fmt_float(s.quantile(q) as f64 * scale)
                        ));
                    }
                    out.push_str(&format!(
                        "{family}_sum{label_str} {}\n",
                        fmt_float(s.sum as f64 * scale)
                    ));
                    out.push_str(&format!("{family}_count{label_str} {}\n", s.count));
                }
            }
        }
        out
    }
}

fn fmt_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `{a="x",b="y"}` with Prometheus label escaping; `quantile`, when
/// given, is appended as the last label.
fn render_labels(labels: &[(String, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn bucket_round_trip_bounds() {
        for v in [0u64, 1, 31, 32, 33, 100, 1023, 1 << 20, u64::MAX / 2] {
            let i = bucket_of(v);
            let lo = bucket_lo(i);
            assert!(lo <= v, "lo {lo} > v {v}");
            assert!(bucket_mid(i) >= lo);
            if i + 1 < N_BUCKETS {
                assert!(bucket_lo(i + 1) > v, "v {v} beyond bucket {i}");
            }
        }
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_relative_error() {
        // Log-uniform samples spanning six decades: the shape that
        // breaks linear-bucket histograms.
        let mut rng = crate::rng::Xoshiro256::new(7);
        let samples: Vec<u64> = (0..20_000)
            .map(|_| {
                let e = rng.below(6) as u32;
                10u64.pow(e) + rng.below(9 * 10u64.pow(e))
            })
            .collect();
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let exact: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let est = h.quantile(q) as f64;
            let truth = stats::percentile(&exact, q);
            let rel = (est - truth).abs() / truth.max(1.0);
            // Bucket half-width is 2^-SUB_BITS/2 ≈ 1.6%; allow double
            // for the rank-vs-interpolation definitional gap.
            assert!(
                rel <= 2.0 * 0.5f64.powi(SUB_BITS as i32 - 1),
                "q={q}: est {est} vs exact {truth} (rel {rel:.4})"
            );
        }
        // Extremes are exact, not bucketed.
        assert_eq!(h.quantile(0.0), *samples.iter().min().unwrap());
        assert_eq!(h.quantile(1.0), *samples.iter().max().unwrap());
    }

    #[test]
    fn merge_is_associative_and_matches_pooled() {
        let mk = |vals: &[u64]| {
            let h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (
            mk(&[1, 10, 100, 50_000]),
            mk(&[3, 7, 9_999_999]),
            mk(&[2, 2, 2, 1 << 40]),
        );
        // (a+b)+c
        let left = LogHistogram::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        // a+(b+c)
        let bc = LogHistogram::new();
        bc.merge(&b);
        bc.merge(&c);
        let right = LogHistogram::new();
        right.merge(&a);
        right.merge(&bc);
        // Pooled directly.
        let pooled = mk(&[1, 10, 100, 50_000, 3, 7, 9_999_999, 2, 2, 2, 1 << 40]);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(left.quantile(q), right.quantile(q), "q={q}");
            assert_eq!(left.quantile(q), pooled.quantile(q), "q={q}");
        }
        assert_eq!(left.count(), 11);
        assert_eq!(left.sum(), pooled.sum());
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let h = Arc::new(LogHistogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record(t as u64 * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), threads as u64 * per);
        let s = h.snapshot();
        assert_eq!(s.counts.iter().sum::<u64>(), threads as u64 * per);
    }

    #[test]
    fn zero_count_edge_cases() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        let s = h.snapshot();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        // Merging empty into empty stays empty.
        let other = LogHistogram::new();
        h.merge(&other);
        assert_eq!(h.quantile(0.99), 0);
        // A single zero-valued sample is representable.
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot().min(), Some(0));
    }

    #[test]
    fn reset_clears_everything() {
        let h = LogHistogram::new();
        h.record(123);
        h.record(1 << 30);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn registry_handles_and_exposition() {
        let r = Registry::new();
        let c = r.counter("mmjoin_requests_total", &[("tenant", "t0"), ("op", "join")]);
        c.add(3);
        // Same key → same handle.
        r.counter("mmjoin_requests_total", &[("op", "join"), ("tenant", "t0")])
            .inc();
        assert_eq!(c.get(), 4);
        let h = r.histogram("mmjoin_join_latency_ns", &[("tenant", "t0")]);
        h.record(1_000_000);
        h.record(2_000_000);
        let text = r.expose_prometheus();
        assert!(text.contains("# TYPE mmjoin_requests_total counter"));
        assert!(text.contains("mmjoin_requests_total{op=\"join\",tenant=\"t0\"} 4"));
        // _ns histograms expose as _seconds summaries.
        assert!(text.contains("# TYPE mmjoin_join_latency_seconds summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("mmjoin_join_latency_seconds_count{tenant=\"t0\"} 2"));
        // Every line is `# ...` or `name{...} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, val) = line.rsplit_once(' ').expect("metric line has a value");
            val.parse::<f64>().expect("value parses as a float");
        }
    }

    /// The per-tenant view of a server reads its registry's label sets
    /// merged: it must equal the one histogram those samples would have
    /// filled, digit for digit, and leave out the sets the filter
    /// excludes.
    #[test]
    fn filtered_sums_equal_one_histogram_of_the_same_samples() {
        let mut rng = crate::rng::Xoshiro256::new(11);
        let samples: Vec<u64> = (0..3_000).map(|_| 1_000 + rng.below(50_000_000)).collect();
        let one = LogHistogram::new();
        let r = Registry::new();
        for (i, &v) in samples.iter().enumerate() {
            one.record(v);
            let algo = ["PRO", "NOP", "SHHJ"][i % 3];
            let labels = [("tenant", "t0"), ("op", "join"), ("algo", algo)];
            r.histogram("mmjoin_request_latency_ns", &labels).record(v);
            r.counter("mmjoin_requests_total", &labels).inc();
        }
        // Same tenant, another op; another tenant, same op: both excluded.
        let stat = [("tenant", "t0"), ("op", "stat"), ("algo", "-")];
        let other = [("tenant", "t1"), ("op", "join"), ("algo", "PRO")];
        for labels in [stat, other] {
            r.histogram("mmjoin_request_latency_ns", &labels).record(7);
            r.counter("mmjoin_requests_total", &labels).inc();
        }

        let filter = [("tenant", "t0"), ("op", "join")];
        let merged = r.histogram_sum("mmjoin_request_latency_ns", &filter);
        let one = one.snapshot();
        assert_eq!(merged.count, one.count);
        assert_eq!(merged.sum, one.sum);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), one.quantile(q), "q={q}");
        }
        assert_eq!(r.counter_sum("mmjoin_requests_total", &filter), 3_000);
        assert_eq!(
            r.counter_sum("mmjoin_requests_total", &[("op", "join")]),
            3_001
        );
        assert_eq!(r.counter_sum("mmjoin_requests_total", &[]), 3_002);
        assert_eq!(r.counter_sum("mmjoin_errors_total", &filter), 0);
        assert_eq!(
            r.histogram_sum("mmjoin_request_latency_ns", &[]).count,
            3_002
        );
    }

    #[test]
    fn label_escaping() {
        let r = Registry::new();
        r.counter("c", &[("tenant", "we\"ird\\t\nenant")]).inc();
        let text = r.expose_prometheus();
        assert!(text.contains("c{tenant=\"we\\\"ird\\\\t\\nenant\"} 1"));
    }
}

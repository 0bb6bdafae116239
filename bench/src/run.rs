//! One benchmark run: set-up, reference, warm-up, the interleaved join
//! and service windows, the traced layer phase, and the metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mmjoin_core::{Algorithm, Join, JoinConfig, JoinResult};
use mmjoin_util::mem::{self, AllocPolicy};
use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::stats::{median, percentile};

use crate::layers;
use crate::service::{Sample, Service};
use crate::spec::{
    self, Workload, HEADLINE, JOIN_THREADS, REST, ROUND_JOIN_S, SERVICE_SHARE, SETUP_REPS,
};
use crate::stats::{fast_mean, field, geomean, kendall_tau, rel, rep_ratio, tail_percentile};
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, Class, Expected, Inputs};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What the last stdout line reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Checked operations and how many of them came back wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {}", what());
        }
    }
}

/// Where traces and spill runs go: `bench/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Pin what the process would otherwise inherit or drift into (README,
/// rules 4 and 5). Must run before the first allocation through
/// `mmjoin_util::mem`, which reads the pool cap once.
pub fn pin_process() {
    std::env::set_var("MMJOIN_ARENA_POOL_MB", spec::POOL_CAP_MB.to_string());
    mem::set_policy(AllocPolicy::parse(spec::ALLOC_POLICY).expect("pinned policy parses"));
}

/// Rep times and phase splits of one algorithm over the join window.
pub struct AlgStats {
    pub alg: Algorithm,
    join: Join,
    /// Seconds per rep, one per cycle, in cycle order.
    pub times: Vec<f64>,
    prep_s: f64,
    match_s: f64,
    sim_s: f64,
}

impl AlgStats {
    fn new(alg: Algorithm) -> AlgStats {
        AlgStats {
            alg,
            // The default configuration, except the thread count.
            join: Join::new(alg).with_config(JoinConfig::new(JOIN_THREADS)),
            times: Vec::new(),
            prep_s: 0.0,
            match_s: 0.0,
            sim_s: 0.0,
        }
    }

    fn note_phases(&mut self, res: &JoinResult) {
        // Probe/join (and SHHJ's spill pass) match tuples; everything
        // before them partitions, sorts or builds.
        for p in &res.phases {
            let s = p.wall.as_secs_f64();
            if matches!(p.name, "probe" | "join" | "spill") {
                self.match_s += s;
            } else {
                self.prep_s += s;
            }
        }
        self.sim_s = res.total_sim();
    }
}

pub struct JoinWindow {
    pub algs: Vec<AlgStats>,
    tuples: f64,
    expected: Expected,
    /// Shuffles each cycle's order; seeded, so a seed repeats its run.
    rng: Xoshiro256,
    /// `mem` counters and minor faults accumulated over timed reps.
    pool_hits: u64,
    mapped_blocks: u64,
    minor_faults: u64,
}

impl JoinWindow {
    fn new(inputs: &Inputs, expected: Expected, seed: u64) -> JoinWindow {
        JoinWindow {
            algs: HEADLINE
                .iter()
                .chain(&REST)
                .map(|&a| AlgStats::new(a))
                .collect(),
            tuples: (inputs.r.len() + inputs.s.len()) as f64,
            expected,
            rng: Xoshiro256::new(seed ^ 0xC7C1E),
            pool_hits: 0,
            mapped_blocks: 0,
            minor_faults: 0,
        }
    }

    /// One checked rep of `algs[i]`; timed from outside, around the one
    /// call into `mmjoin_core`.
    fn rep(&mut self, i: usize, inputs: &Inputs, tracer: &mut Tracer, tally: &mut Tally) -> f64 {
        let a = &mut self.algs[i];
        let name = a.alg.name();
        let started = Instant::now();
        let res = tracer.span("join.rep", 0, |t, root| {
            // The child span carries the algorithm's name, so the
            // self-time table has one row per driver.
            t.span(name, root, |_, _| a.join.run(&inputs.r, &inputs.s))
        });
        let secs = started.elapsed().as_secs_f64();
        let expected = self.expected;
        match res {
            Ok(res) => {
                tally.check(
                    res.matches == expected.matches && res.checksum == expected.checksum,
                    || {
                        format!(
                            "{name}: {} matches, checksum {:x}",
                            res.matches, res.checksum
                        )
                    },
                );
                a.note_phases(&res);
            }
            Err(e) => tally.check(false, || format!("{name}: {e}")),
        }
        secs
    }

    /// One cycle: one rep of each of the fourteen, back to back, so that
    /// whatever state the host is in, it is in it for all of them. The
    /// order is shuffled per cycle: in a fixed order the arena pool hands
    /// every join the same blocks every time, and what those happen to
    /// be is then a property of the run, not of the join (README, rule
    /// 3). A traced run records every other cycle.
    fn cycle(&mut self, traced_run: bool, inputs: &Inputs, tracer: &mut Tracer, tally: &mut Tally) {
        let before = (mem::stats(), mem::minor_faults().unwrap_or(0));
        tracer.set_on(traced_run && self.cycles() & 1 == 0);
        let mut order: Vec<usize> = (0..self.algs.len()).collect();
        self.rng.shuffle(&mut order);
        for i in order {
            let secs = self.rep(i, inputs, tracer, tally);
            self.algs[i].times.push(secs);
        }
        let delta = mem::stats().delta(&before.0);
        self.pool_hits += delta.pool_hits;
        self.mapped_blocks += delta.mapped_blocks;
        self.minor_faults += mem::minor_faults().unwrap_or(0) - before.1;
    }

    fn cycles(&self) -> usize {
        self.algs[0].times.len()
    }

    /// The field's rep time in each cycle.
    fn field_s(&self) -> Vec<f64> {
        field(&self.algs.iter().map(|a| &a.times[..]).collect::<Vec<_>>())
    }

    /// `alg`'s throughput as a multiple of the field's, cycle by cycle.
    fn rel(&self, alg: Algorithm, field_s: &[f64]) -> Vec<f64> {
        let a = self.algs.iter().find(|a| a.alg == alg).expect("all 14");
        rel(field_s, &a.times)
    }

    fn mtps(&self, alg: Algorithm) -> f64 {
        let a = self.algs.iter().find(|a| a.alg == alg).expect("all 14");
        self.tuples / fast_mean(&a.times) / 1e6
    }
}

fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Metric values by name, as they are measured.
pub type Metrics = BTreeMap<String, f64>;

fn class_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.ms)
        .collect()
}

/// Set up `SETUP_REPS` times over and keep the last: generate the inputs,
/// spawn the server, load its catalog, prime its cache. `setup_s` is the
/// median, so the first set-up, which pays the process's first-touch
/// costs, does not set it. The reference results are computed once, on
/// the inputs that are kept.
fn set_up(
    args: &RunArgs,
    spill_dir: &Path,
    epoch: Instant,
    tally: &mut Tally,
) -> Result<(Inputs, Service, Expected, Expected, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut primed = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // The previous server is gone before the next one is timed.
        drop(kept.take());
        let started = Instant::now();
        let inputs = workload::generate(args.workload, args.seed);
        let mut svc = Service::start(&inputs, spill_dir, args.seed, epoch)
            .map_err(|e| format!("service set-up: {e}"))?;
        setup_s.push(started.elapsed().as_secs_f64());
        primed.extend(svc.take_samples());
        kept = Some((inputs, svc));
    }
    let (inputs, svc) = kept.expect("SETUP_REPS is at least one");
    let (expected, expected_svc) = workload::reference(&inputs);
    for s in &primed {
        tally.check(s.answer == Some(expected_svc), || {
            "set-up priming request".to_string()
        });
    }
    Ok((inputs, svc, expected, expected_svc, setup_s))
}

/// The end-to-end metrics of a plain run (all but `peak_rss_mb`, which
/// is read when the run is over). Every timing is a ratio to the field
/// of the same cycles: the host's speed drifts by a quarter within
/// minutes, and it drifts for all fourteen alike (README, rule 3).
fn plain_metrics(m: &mut Metrics, window: &JoinWindow, samples: &[Sample], open_s: f64) {
    let field_s = window.field_s();
    for a in HEADLINE {
        m.insert(
            format!("rel.{}", a.name()),
            median(&window.rel(a, &field_s)),
        );
    }
    let rest: Vec<Vec<f64>> = REST.iter().map(|&a| window.rel(a, &field_s)).collect();
    let rest: Vec<f64> = (0..field_s.len())
        .map(|c| geomean(&rest.iter().map(|r| r[c]).collect::<Vec<_>>()))
        .collect();
    m.insert("rel.rest".into(), median(&rest));
    // The service in units of the field's rep time: requests answered
    // per rep time, and request latency as a multiple of it.
    let field_ms = median(&field_s) * 1e3;
    let all_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    m.insert(
        "serve_x.rps".into(),
        all_ms.len() as f64 / open_s * field_ms / 1e3,
    );
    m.insert("serve_x.p50".into(), percentile(&all_ms, 0.5) / field_ms);
    m.insert("serve_x.p95".into(), serve_p95_ms(&all_ms) / field_ms);
}

/// p95 of the request latencies, lowered if fewer than ten lie beyond it.
fn serve_p95_ms(all_ms: &[f64]) -> f64 {
    let (p95, used) = tail_percentile(all_ms, 0.95);
    if used < 0.95 {
        eprintln!(
            "note: {} requests leave fewer than ten beyond p95; it is p{:.1}",
            all_ms.len(),
            used * 100.0
        );
    }
    p95
}

/// The per-layer metrics a traced run takes from its two windows (the
/// layer phase adds the rest).
fn window_metrics(m: &mut Metrics, window: &JoinWindow, samples: &[Sample], open_s: f64) {
    for a in &window.algs {
        let n = a.alg.name();
        m.insert(format!("core.mtps.{n}"), window.mtps(a.alg));
        m.insert(format!("core.rep_ratio_p50.{n}"), rep_ratio(&a.times));
        // One warm-up rep plus the timed ones fed the phase sums.
        let runs = (a.times.len() + 1) as f64;
        m.insert(format!("core.prep_ms.{n}"), a.prep_s / runs * 1e3);
        m.insert(format!("core.match_ms.{n}"), a.match_s / runs * 1e3);
    }
    m.insert(
        "util.pool_hit_ratio".into(),
        window.pool_hits as f64 / (window.pool_hits + window.mapped_blocks).max(1) as f64,
    );
    m.insert(
        "util.minor_faults_per_rep".into(),
        window.minor_faults as f64 / (window.cycles() * window.algs.len()) as f64,
    );
    // Simulated against wall-clock ordering of the paper's thirteen.
    let thirteen: Vec<&AlgStats> = window
        .algs
        .iter()
        .filter(|a| a.alg != Algorithm::Shhj)
        .collect();
    let sim: Vec<f64> = thirteen.iter().map(|a| a.sim_s).collect();
    let wall: Vec<f64> = thirteen.iter().map(|a| fast_mean(&a.times)).collect();
    m.insert("numamodel.rank_tau".into(), kendall_tau(&sim, &wall));
    // Tracing cost: traced (even) against untraced (odd) cycles of the
    // same window, as fast-rep sums over the fourteen.
    let (mut on, mut off) = (0.0, 0.0);
    if window.cycles() >= 2 {
        for a in &window.algs {
            let half = |k: usize| {
                a.times
                    .iter()
                    .skip(k)
                    .step_by(2)
                    .copied()
                    .collect::<Vec<_>>()
            };
            on += fast_mean(&half(0));
            off += fast_mean(&half(1));
        }
    }
    let overhead = if off > 0.0 { on / off - 1.0 } else { 0.0 };
    m.insert("trace.overhead_pct".into(), overhead * 100.0);

    for class in Class::ALL {
        m.insert(
            format!("serve.p50_ms.{}", class.name()),
            percentile(&class_ms(samples, class), 0.5),
        );
    }
    // The absolute numbers the end-to-end ratios are made of.
    m.insert("core.field_ms".into(), median(&window.field_s()) * 1e3);
    let all_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    m.insert("serve.rps".into(), all_ms.len() as f64 / open_s);
    m.insert("serve.p50_ms".into(), percentile(&all_ms, 0.5));
    m.insert("serve.p95_ms".into(), serve_p95_ms(&all_ms));
    m.insert("serve.p99_ms".into(), tail_percentile(&all_ms, 0.99).0);
    let degraded: Vec<&Sample> = samples.iter().filter(|s| s.degraded).collect();
    let spilled: u64 = degraded.iter().map(|s| s.spill_bytes).sum();
    m.insert(
        "serve.spill_mb_per_degraded".into(),
        spilled as f64 / (1 << 20) as f64 / degraded.len().max(1) as f64,
    );
}

/// Write the chrome://tracing file and print self time per span name.
fn write_trace(spans: &[Span], args: &RunArgs, epoch: Instant) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{}-{}.json", args.workload.name, args.seed));
    std::fs::write(&path, trace::chrome_json(spans)).map_err(|e| format!("write {path:?}: {e}"))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());
    let wall_ns = epoch.elapsed().as_nanos() as f64;
    eprintln!(
        "{:<22} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "of run"
    );
    for (name, (count, total, own)) in trace::self_times(spans) {
        eprintln!(
            "{name:<22} {count:>7} {:>12.3} {:>12.3} {:>6.1}%",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / wall_ns * 100.0
        );
    }
    Ok(())
}

/// Removes the run's spill directory, whatever is in it, however the
/// run ends.
struct SpillDirGuard(PathBuf);

impl Drop for SpillDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let steal_before = steal_ticks();
    eprintln!(
        "workload={} seed={} seconds={} trace={} | {}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        spec::settings_line()
    );
    let mut tally = Tally::default();
    // Declared before the service, so on every path out of here the
    // server is stopped first and the directory removed after.
    let spill_dir = SpillDirGuard(out_dir().join(format!("spill-{}", std::process::id())));
    std::fs::create_dir_all(&spill_dir.0).map_err(|e| format!("create {:?}: {e}", spill_dir.0))?;
    let (inputs, mut svc, expected, expected_svc, setup_s) =
        set_up(args, &spill_dir.0, epoch, &mut tally)?;

    // Warm-up: one untimed, checked rep of every algorithm fills the
    // arena pool; the first timed rep then runs on pooled pages.
    let mut tracer = Tracer::new(epoch, 0, false);
    let mut window = JoinWindow::new(&inputs, expected, args.seed);
    let warm_started = Instant::now();
    for i in 0..window.algs.len() {
        window.rep(i, &inputs, &mut tracer, &mut tally);
    }
    let warmup_s = warm_started.elapsed().as_secs_f64();
    eprintln!("set-ups: {setup_s:.2?} s, warm-up: {warmup_s:.2} s");

    // The windows, interleaved round by round until `--seconds` are
    // spent: cycles for `ROUND_JOIN_S` (at least one), then a service
    // segment that keeps the service's share of the round. A traced run
    // gives two fifths of its time to the layer phase instead.
    let window_s = args.seconds * if args.trace { 0.6 } else { 1.0 };
    let windows_started = Instant::now();
    let (mut rounds, mut round_s) = (0, 0.0);
    // Stop before a round that would overrun the window.
    while rounds == 0 || windows_started.elapsed().as_secs_f64() + round_s <= window_s {
        let started = Instant::now();
        loop {
            window.cycle(args.trace, &inputs, &mut tracer, &mut tally);
            if started.elapsed().as_secs_f64() >= ROUND_JOIN_S {
                break;
            }
        }
        let serve_share = started
            .elapsed()
            .mul_f64(SERVICE_SHARE / (1.0 - SERVICE_SHARE));
        svc.segment(serve_share, args.trace);
        rounds += 1;
        round_s = started.elapsed().as_secs_f64();
    }
    for a in &window.algs {
        let t = &a.times;
        eprintln!(
            "{:<6} reps={:<4} fast={:>8.2} ms  p50={:>8.2} ms  max={:>8.2} ms",
            a.alg.name(),
            t.len(),
            fast_mean(t) * 1e3,
            percentile(t, 0.5) * 1e3,
            percentile(t, 1.0) * 1e3
        );
    }
    let mut samples = svc.take_samples();
    eprintln!(
        "windows: {rounds} rounds, {} cycles, {} requests, done at {:.2} s",
        window.cycles(),
        samples.len(),
        epoch.elapsed().as_secs_f64()
    );
    for s in &samples {
        tally.check(s.answer == Some(expected_svc), || {
            format!("{} request", s.class.name())
        });
    }
    samples.retain(|s| s.answer == Some(expected_svc));
    if samples.is_empty() {
        return Err("no request was answered correctly".into());
    }

    let mut m = Metrics::new();
    if args.trace {
        let ctx = layers::Ctx {
            inputs: &inputs,
            seed: args.seed,
            budget: Duration::from_secs_f64(args.seconds * 0.4),
            spill_dir: &spill_dir.0,
        };
        layers::run(&ctx, &mut svc, &mut tracer, &mut tally, &mut m)?;
        window_metrics(&mut m, &window, &samples, svc.open_s);
        m.insert("core.warmup_s".into(), warmup_s);
        let overhead = m["serve.p50_ms.hot"] - m["serve.direct_p50_ms.hot"];
        m.insert("serve.overhead_ms.hot".into(), overhead);
    } else {
        m.insert("setup_s".into(), median(&setup_s));
        plain_metrics(&mut m, &window, &samples, svc.open_s);
    }

    let mut spans = svc.shutdown();
    spans.extend(tracer.into_spans());
    drop(inputs);
    // Every spill run removes itself; what is left now is a leak.
    if let Err(e) = std::fs::remove_dir(&spill_dir.0) {
        tally.check(false, || {
            format!("spill dir {:?} not empty: {e}", spill_dir.0)
        });
    }
    if args.trace {
        m.insert(
            "host.steal_ticks".into(),
            steal_ticks().saturating_sub(steal_before) as f64,
        );
        m.insert("trace.spans".into(), spans.len() as f64);
        write_trace(&spans, args, epoch)?;
    } else {
        // Last, so it covers the whole run.
        m.insert("peak_rss_mb".into(), vm_hwm_mib());
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

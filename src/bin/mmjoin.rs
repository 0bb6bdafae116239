//! `mmjoin` — command-line front end to the join library.
//!
//! ```text
//! mmjoin join  --algo CPRL --build 1000000 --probe 10000000 [--threads N]
//!              [--zipf THETA] [--bits B] [--skew-handling]
//! mmjoin race  --build 1000000 --probe 10000000     # all 13, leaderboard
//! mmjoin tpch  --sf 0.2 [--threads N]               # Q19 with 4 joins
//! mmjoin serve --addr 127.0.0.1:7788                # multi-tenant service
//! ```

use mmjoin::core::{observe, Algorithm, Join, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};
use mmjoin::util::Placement;

struct Args {
    map: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut map = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    map.push((name.to_string(), argv[i + 1].clone()));
                    i += 2;
                } else {
                    flags.push(name.to_string());
                    i += 1;
                }
            } else {
                flags.push(a.clone());
                i += 1;
            }
        }
        Args { map, flags }
    }

    /// Reject anything outside the command's accepted options.
    fn check_known(&self, options: &[&str], flags: &[&str]) {
        for (k, _) in &self.map {
            if !options.contains(&k.as_str()) && !flags.contains(&k.as_str()) {
                eprintln!("unknown option --{k}");
                usage();
            }
        }
        for f in &self.flags {
            if flags.contains(&f.as_str()) {
                continue;
            }
            if options.contains(&f.as_str()) {
                // `--bits` at the end of the line, with no value.
                eprintln!("option --{f} needs a value");
            } else {
                eprintln!("unexpected argument {f:?}");
            }
            usage();
        }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get_str(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value {v:?} for --{name}");
                usage();
            }),
        }
    }

    fn get_str(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

fn usage() -> ! {
    eprintln!("usage: mmjoin <join|race|tpch|serve> [options]");
    eprintln!("  join --algo NAME --build N --probe N [--threads N] [--zipf T] [--bits B] [--skew-handling]");
    eprintln!("       [--deadline-ms MS] [--mem-limit-mb MB] [--spill-dir DIR] [--no-spill]");
    eprintln!(
        "       [--alloc POLICY] [--profile] [--trace-out FILE.json] [--metrics-out FILE.json]"
    );
    eprintln!("  race --build N --probe N [--threads N] [--zipf T] [--bits B] [--skew-handling]");
    eprintln!("       [--deadline-ms MS] [--mem-limit-mb MB] [--spill-dir DIR] [--no-spill]");
    eprintln!("       [--alloc POLICY]");
    eprintln!("  tpch --sf F [--threads N]");
    eprintln!("  serve [--addr HOST:PORT] [--runners N] [--join-threads N]");
    eprintln!("        [--global-budget-mb MB] [--tenant-budget-mb MB] [--tenant NAME:MB ...]");
    eprintln!("        [--queue-depth N] [--cache-mb MB] [--spill-dir DIR] [--stat-secs S]");
    eprintln!("        [--metrics-addr HOST:PORT] [--slo-window-secs S]");
    eprintln!("        [--slow-query-ms MS] [--slow-query-log FILE]");
    eprintln!("alloc policies: portable | thp (also via MMJOIN_ALLOC)");
    eprintln!(
        "algorithms: {}",
        Algorithm::WITH_EXTENSIONS.map(|a| a.name()).join(" ")
    );
    std::process::exit(2);
}

/// R and S for `join` and `race`, generated for the configuration
/// `config` has validated: `--threads` places them, `--zipf` skews S.
fn workload(args: &Args, cfg: &JoinConfig) -> (mmjoin::util::Relation, mmjoin::util::Relation) {
    let build: usize = args.get("build", 1_000_000);
    let probe: usize = args.get("probe", build * 10);
    let placement = Placement::Chunked { parts: cfg.threads };
    let r = gen_build_dense(build, 42, placement);
    let s = if cfg.probe_theta > 0.0 {
        gen_probe_zipf(probe, build, cfg.probe_theta, 43, placement)
    } else {
        gen_probe_fk(probe, build, 43, placement)
    };
    (r, s)
}

/// The allocation policy is a process setting, not a join's: install
/// `--alloc` once, before the command allocates its inputs.
fn install_alloc(args: &Args) {
    if let Some(policy) = args.get_str("alloc") {
        match mmjoin::util::mem::AllocPolicy::parse(policy) {
            Ok(p) => mmjoin::util::mem::set_policy(p),
            Err(e) => {
                eprintln!("invalid value for --alloc: {e}");
                usage();
            }
        }
    }
}

fn config(args: &Args) -> JoinConfig {
    let theta: f64 = args.get("zipf", 0.0);
    if !(0.0..1.0).contains(&theta) {
        eprintln!("invalid value {theta} for --zipf: must be in [0, 1)");
        std::process::exit(2);
    }
    let mut cfg = JoinConfig::new(4);
    // Set directly: `new` would clamp the 0 that `validate` refuses.
    cfg.threads = args.get("threads", 4);
    cfg.probe_theta = theta;
    cfg.skew_handling = args.has("skew-handling");
    if args.get_str("bits").is_some() {
        cfg.radix_bits = Some(args.get("bits", 0));
    }
    if args.get_str("deadline-ms").is_some() {
        let ms: u64 = args.get("deadline-ms", 0);
        cfg.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if args.get_str("mem-limit-mb").is_some() {
        let mb: usize = args.get("mem-limit-mb", 0);
        cfg.mem_limit = Some(mb.saturating_mul(1024 * 1024));
    }
    cfg.spill_dir = args.get_str("spill-dir").map(Into::into);
    cfg.spill = !args.has("no-spill");
    // --trace-out / --metrics-out are pointless without spans, so either
    // one implies --profile.
    if args.has("profile")
        || args.get_str("trace-out").is_some()
        || args.get_str("metrics-out").is_some()
    {
        cfg.profile = true;
    }
    // Every command's joins would refuse it too; say so before the
    // workload is generated.
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    cfg
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let cmd = argv[0].as_str();
    let args = Args::parse(&argv[1..]);
    match cmd {
        "join" => {
            args.check_known(
                &[
                    "algo",
                    "build",
                    "probe",
                    "threads",
                    "zipf",
                    "bits",
                    "deadline-ms",
                    "mem-limit-mb",
                    "spill-dir",
                    "alloc",
                    "trace-out",
                    "metrics-out",
                ],
                &["skew-handling", "profile", "no-spill"],
            );
            let Some(name) = args.get_str("algo") else {
                eprintln!("missing required option --algo");
                usage()
            };
            let alg = Algorithm::parse(name).unwrap_or_else(|e| {
                eprintln!("{e}");
                usage()
            });
            install_alloc(&args);
            let cfg = config(&args);
            let (r, s) = workload(&args, &cfg);
            let started = std::time::Instant::now();
            let res = Join::new(alg)
                .with_config(cfg.clone())
                .run(&r, &s)
                .unwrap_or_else(|e| {
                    eprintln!("join failed: {e}");
                    std::process::exit(1);
                });
            let run_wall = started.elapsed();
            println!(
                "{}: |R|={} |S|={} threads={}",
                alg.name(),
                r.len(),
                s.len(),
                cfg.threads
            );
            for p in &res.phases {
                println!(
                    "  {:<10} wall {:>9.2} ms   model {:>7.2} ms   sim({} thr) {:>9.2} ms",
                    p.name,
                    p.wall.as_secs_f64() * 1e3,
                    p.model_wall.as_secs_f64() * 1e3,
                    cfg.sim_threads(),
                    p.sim_seconds * 1e3
                );
                if cfg.profile {
                    let t = p.counter_totals();
                    let fmt = |v: Option<u64>| match v {
                        Some(x) => format!("{x}"),
                        None => "n/a".to_string(),
                    };
                    println!(
                        "             tasks {}  steals {}  cycles {}  instr {}  LLC-miss {}  dTLB-miss {}",
                        p.exec.tasks,
                        p.exec.steals,
                        fmt(t.cycles),
                        fmt(t.instructions),
                        fmt(t.llc_misses),
                        fmt(t.dtlb_misses)
                    );
                }
            }
            println!(
                "  total      wall {:>9.2} ms   matches {}   wall throughput {:.0} Mtps",
                res.total_wall().as_secs_f64() * 1e3,
                res.matches,
                (r.len() + s.len()) as f64 / res.total_wall().as_secs_f64() / 1e6
            );
            // What `Join::run` took beyond its phases' wall time: the cost
            // model (the `model` column), set-up, and freeing the buffers.
            println!(
                "  outside    wall {:>9.2} ms   of {:.2} ms run ({:.2} ms in the cost model)",
                (run_wall.saturating_sub(res.total_wall())).as_secs_f64() * 1e3,
                run_wall.as_secs_f64() * 1e3,
                res.total_model_wall().as_secs_f64() * 1e3
            );
            if let Some(bits) = res.radix_bits {
                println!("  radix bits: {bits}");
            }
            let alloc = res.alloc_totals();
            if alloc.mapped_blocks > 0 || alloc.pool_hits > 0 || alloc.degraded() {
                println!(
                    "  alloc [{}]: {} blocks mapped ({:.1} MiB), {} pool hits, \
                     degraded page/heap {}/{}",
                    mmjoin::util::mem::policy_name(),
                    alloc.mapped_blocks,
                    alloc.mapped_bytes as f64 / (1024.0 * 1024.0),
                    alloc.pool_hits,
                    alloc.degraded_page,
                    alloc.heap_fallback
                );
            }
            let results = [res];
            if let Some(path) = args.get_str("trace-out") {
                let trace = observe::chrome_trace(&results);
                std::fs::write(path, trace).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("  trace written to {path} (open in chrome://tracing)");
            }
            if let Some(path) = args.get_str("metrics-out") {
                let metrics = observe::metrics(&results, None);
                std::fs::write(path, metrics).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("  metrics written to {path}");
            }
        }
        "race" => {
            args.check_known(
                &[
                    "build",
                    "probe",
                    "threads",
                    "zipf",
                    "bits",
                    "deadline-ms",
                    "mem-limit-mb",
                    "spill-dir",
                    "alloc",
                ],
                &["skew-handling", "no-spill"],
            );
            install_alloc(&args);
            let cfg = config(&args);
            let (r, s) = workload(&args, &cfg);
            // A race is a sweep: one algorithm blowing its deadline or
            // budget (or panicking) drops out of the leaderboard instead
            // of killing the race.
            let mut rows: Vec<(&str, f64, u64)> = Algorithm::WITH_EXTENSIONS
                .iter()
                .filter_map(
                    |&alg| match Join::new(alg).with_config(cfg.clone()).run(&r, &s) {
                        Ok(res) => Some((
                            alg.name(),
                            res.total_wall().as_secs_f64() * 1e3,
                            res.matches,
                        )),
                        Err(e) => {
                            eprintln!("{}: {e}", alg.name());
                            None
                        }
                    },
                )
                .collect();
            rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            println!(
                "|R|={} |S|={} threads={} (host wall time)",
                r.len(),
                s.len(),
                cfg.threads
            );
            for (i, (name, ms, matches)) in rows.iter().enumerate() {
                println!("{:>2}. {name:<7} {ms:>9.2} ms  ({matches} matches)", i + 1);
            }
        }
        "tpch" => {
            args.check_known(&["sf", "threads"], &[]);
            let sf: f64 = args.get("sf", 0.1);
            let threads: usize = args.get("threads", 4);
            let (p, l) = mmjoin::tpch::generate_tables(&mmjoin::tpch::GenParams {
                scale_factor: sf,
                pre_selectivity: 0.0357,
                seed: 0x9119,
            });
            println!(
                "TPC-H Q19 @ SF {sf}: Part {} rows, Lineitem {} rows",
                p.len(),
                l.len()
            );
            for join in mmjoin::tpch::q19::Q19Join::ALL {
                let res = mmjoin::tpch::run_q19(join, &p, &l, threads);
                println!(
                    "  {:<5} total {:>8.1} ms (build/part {:>7.1}, probe/join {:>7.1})  revenue {:.2}",
                    join.name(),
                    res.total_wall().as_secs_f64() * 1e3,
                    res.build_wall.as_secs_f64() * 1e3,
                    res.probe_wall.as_secs_f64() * 1e3,
                    res.revenue
                );
            }
        }
        "serve" => {
            args.check_known(
                &[
                    "addr",
                    "runners",
                    "join-threads",
                    "global-budget-mb",
                    "tenant-budget-mb",
                    "tenant",
                    "queue-depth",
                    "cache-mb",
                    "spill-dir",
                    "stat-secs",
                    "metrics-addr",
                    "slo-window-secs",
                    "slow-query-ms",
                    "slow-query-log",
                ],
                &[],
            );
            let mib = 1024 * 1024;
            let mut cfg = mmjoin::serve::ServeConfig::default();
            if let Some(addr) = args.get_str("addr") {
                cfg = cfg.with_addr(addr);
            }
            if args.get_str("runners").is_some() {
                cfg = cfg.with_runners(args.get("runners", 0));
            }
            if args.get_str("join-threads").is_some() {
                cfg = cfg.with_join_threads(args.get("join-threads", 0));
            }
            if args.get_str("global-budget-mb").is_some() {
                let mb: usize = args.get("global-budget-mb", 0);
                cfg = cfg.with_global_budget(mb.saturating_mul(mib));
            }
            if args.get_str("tenant-budget-mb").is_some() {
                let mb: usize = args.get("tenant-budget-mb", 0);
                cfg = cfg.with_default_tenant_budget(mb.saturating_mul(mib));
            }
            if args.get_str("queue-depth").is_some() {
                cfg = cfg.with_queue_depth(args.get("queue-depth", 0));
            }
            if args.get_str("cache-mb").is_some() {
                let mb: usize = args.get("cache-mb", 0);
                cfg = cfg.with_cache_bytes(mb.saturating_mul(mib));
            }
            if let Some(dir) = args.get_str("spill-dir") {
                cfg = cfg.with_spill_dir(dir);
            }
            if let Some(addr) = args.get_str("metrics-addr") {
                cfg = cfg.with_metrics_addr(addr);
            }
            if args.get_str("slo-window-secs").is_some() {
                cfg = cfg.with_slo_window_secs(args.get("slo-window-secs", 0.0));
            }
            if args.get_str("slow-query-ms").is_some() {
                cfg = cfg.with_slow_query_ms(args.get("slow-query-ms", 0.0));
            }
            if let Some(path) = args.get_str("slow-query-log") {
                cfg = cfg.with_slow_query_log(path);
            }
            // --tenant NAME:MB pins a per-tenant budget; repeatable.
            for (k, v) in &args.map {
                if k != "tenant" {
                    continue;
                }
                let Some((name, mb)) = v.split_once(':') else {
                    eprintln!("invalid value {v:?} for --tenant: expected NAME:MB");
                    usage();
                };
                let Ok(mb) = mb.parse::<usize>() else {
                    eprintln!("invalid value {v:?} for --tenant: expected NAME:MB");
                    usage();
                };
                cfg = cfg.with_tenant_budget(name, mb.saturating_mul(mib));
            }
            let server = mmjoin::serve::Server::spawn(cfg).unwrap_or_else(|e| {
                eprintln!("cannot start server: {e}");
                std::process::exit(1);
            });
            println!("mmjoin-serve listening on {}", server.addr());
            if let Some(m) = server.metrics_addr() {
                println!("mmjoin-serve metrics on http://{m}/metrics");
            }
            // No portable signal handling without libc: the server runs
            // until the process is killed. Optionally print a stat line
            // on an interval so operators can watch it breathe.
            let stat_secs: u64 = args.get("stat-secs", 0);
            loop {
                std::thread::sleep(std::time::Duration::from_secs(if stat_secs > 0 {
                    stat_secs
                } else {
                    3600
                }));
                if stat_secs > 0 {
                    println!("{}", server.stat_json());
                }
            }
        }
        _ => usage(),
    }
}

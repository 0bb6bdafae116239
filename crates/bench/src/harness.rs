//! Experiment plumbing: options, workload sizing and result tables.

use mmjoin_core::JoinConfig;
use mmjoin_numamodel::Topology;
use mmjoin_util::jsonv::quote;
use mmjoin_util::{Placement, Relation};

/// Options shared by every experiment.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Divisor applied to the paper's tuple counts AND to the simulated
    /// machine's cache/page capacities.
    pub scale: usize,
    /// Host worker threads.
    pub threads: usize,
    /// Threads presented to the cost model (the paper's default is 32).
    pub sim_threads: usize,
    /// Emit machine-readable JSON alongside the text tables.
    pub json: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        HarnessOpts {
            scale: 128,
            threads: host.min(8),
            sim_threads: 32,
            json: false,
        }
    }
}

impl HarnessOpts {
    /// Parse `--scale N --threads N --sim-threads N --json` style flags.
    pub fn parse(args: &[String]) -> Result<(HarnessOpts, Vec<String>), String> {
        let mut opts = HarnessOpts::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> Result<usize, String> {
                it.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .parse::<usize>()
                    .map_err(|e| format!("{name}: {e}"))
            };
            match a.as_str() {
                "--scale" => opts.scale = take("--scale")?.max(1),
                "--threads" => opts.threads = take("--threads")?.max(1),
                "--sim-threads" => opts.sim_threads = take("--sim-threads")?.max(1),
                "--json" => opts.json = true,
                other => rest.push(other.to_string()),
            }
        }
        Ok((opts, rest))
    }

    /// Convert a paper size given in million tuples to this run's tuples.
    pub fn tuples(&self, paper_millions: usize) -> usize {
        (paper_millions * 1_000_000 / self.scale).max(1024)
    }

    /// The join configuration emulating the paper's machine at this
    /// scale.
    pub fn cfg(&self) -> JoinConfig {
        let mut cfg = JoinConfig::new(self.threads);
        cfg.topology = Topology::paper_machine_scaled(self.scale);
        cfg.sim_threads = Some(self.sim_threads);
        cfg
    }

    /// Canonical placements: both input relations chunked over nodes
    /// (Section 7.1's allocation).
    pub fn placement(&self) -> Placement {
        Placement::Chunked {
            parts: self.threads.max(1),
        }
    }

    /// The study's canonical workload: dense build of `r_m` paper-million
    /// tuples, uniform FK probe of `s_m`.
    pub fn workload(&self, r_m: usize, s_m: usize, seed: u64) -> (Relation, Relation) {
        let r_n = self.tuples(r_m);
        let s_n = self.tuples(s_m);
        let r = mmjoin_datagen::gen_build_dense(r_n, seed, self.placement());
        let s = mmjoin_datagen::gen_probe_fk(s_n, r_n, seed ^ 0xBEEF, self.placement());
        (r, s)
    }
}

/// A printable result table (one per figure panel).
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper-expectation reminders).
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// JSON object for `--json` output (hand-rolled; no serde offline).
    pub fn to_json(&self) -> String {
        let str_arr = |items: &[String]| {
            let cells: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("[{}]", cells.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| str_arr(r)).collect();
        format!(
            "{{\"title\": {}, \"headers\": {}, \"rows\": [{}], \"notes\": {}}}",
            quote(&self.title),
            str_arr(&self.headers),
            rows.join(", "),
            str_arr(&self.notes)
        )
    }
}

/// JSON array over many tables (the `repro --json` payload).
pub fn tables_to_json(tables: &[Table]) -> String {
    let items: Vec<String> = tables.iter().map(Table::to_json).collect();
    format!("[{}]", items.join(",\n "))
}

/// Host CPU model, from `/proc/cpuinfo`'s first `model name` line;
/// `"unknown"` on hosts without one (non-Linux, some ARM kernels).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-metadata block stamped into every machine-readable artifact
/// (`repro --json`, profile metrics): the CPU model, the resolved
/// hardware-kernel mode, and whether native perf counters are usable by
/// this process. Numbers from two hosts are only comparable when these
/// match.
pub fn meta_json() -> String {
    let topo = mmjoin_util::mem::host_topology();
    format!(
        "{{\"cpu_model\": {}, \"kernel_mode\": {}, \"perf_counters\": {}, \
         \"alloc_policy\": {}, \"numa_nodes\": {}, \"thp_enabled\": {}, \
         \"free_hugepages_2m\": {}}}",
        quote(&cpu_model()),
        quote(kernel_mode_name()),
        mmjoin_util::perf::available(),
        quote(&mmjoin_util::mem::policy_name()),
        topo.nodes,
        topo.thp_enabled,
        topo.free_hugepages_2m
    )
}

/// The process-level kernel mode, as `meta_json` reports it.
fn kernel_mode_name() -> &'static str {
    match mmjoin_util::kernels::effective_mode() {
        mmjoin_util::kernels::KernelMode::Simd => "simd",
        mmjoin_util::kernels::KernelMode::Portable => "portable",
        mmjoin_util::kernels::KernelMode::Auto => "auto",
    }
}

/// Format seconds as milliseconds with 2 decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Format a throughput in Mtuples/s.
pub fn mtps(v: f64) -> String {
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let args: Vec<String> = ["fig1", "--scale", "64", "--json", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, rest) = HarnessOpts::parse(&args).unwrap();
        assert_eq!(opts.scale, 64);
        assert_eq!(opts.threads, 2);
        assert!(opts.json);
        assert_eq!(rest, vec!["fig1".to_string()]);
    }

    #[test]
    fn parse_rejects_bad_value() {
        let args: Vec<String> = ["--scale", "abc"].iter().map(|s| s.to_string()).collect();
        assert!(HarnessOpts::parse(&args).is_err());
    }

    #[test]
    fn tuples_scaling() {
        let o = HarnessOpts {
            scale: 128,
            ..Default::default()
        };
        assert_eq!(o.tuples(128), 1_000_000);
        assert_eq!(o.tuples(1280), 10_000_000);
        assert_eq!(o.tuples(0), 1024, "floor applies");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["algo", "x"]);
        t.row(vec!["NOP".into(), "1".into()]);
        t.row(vec!["CPRL".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("CPRL"));
    }

    #[test]
    fn meta_json_shape() {
        let m = meta_json();
        assert!(m.contains("\"cpu_model\": \""));
        assert!(m.contains("\"kernel_mode\": \""));
        assert!(m.contains("\"perf_counters\": true") || m.contains("\"perf_counters\": false"));
        assert!(m.contains("\"alloc_policy\": \""));
        assert!(m.contains("\"numa_nodes\": "));
        assert!(m.contains("\"thp_enabled\": "));
        assert!(!cpu_model().is_empty());
        assert_eq!(m.matches('{').count(), m.matches('}').count());
    }

    #[test]
    fn workload_shapes() {
        let o = HarnessOpts {
            scale: 1000,
            ..Default::default()
        };
        let (r, s) = o.workload(128, 1280, 1);
        assert_eq!(r.len(), 128_000);
        assert_eq!(s.len(), 1_280_000);
    }
}

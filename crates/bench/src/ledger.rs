//! The benchmark run ledger: an append-only JSONL store
//! (`.mmjoin/ledger.jsonl` by default, `--ledger PATH` to override)
//! where every `repro --ledger`, `mmjoin join --ledger` and `sentinel
//! record` invocation appends one provenance-stamped entry. Each entry
//! carries the git sha + dirty flag, a host fingerprint, the kernel
//! mode and thread count, the sweep's retry/failure counts, and the
//! **raw repeat vectors** of every measured cell — so later comparisons (the
//! `sentinel` bin) can be distribution-aware instead of diffing two
//! medians. See DESIGN.md §11 for the schema and comparison semantics.

use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use mmjoin_util::jsonv::{self, quote, Value};

use crate::harness;

/// Bumped when an incompatible field change lands; readers refuse newer
/// schemas instead of guessing.
pub const SCHEMA_VERSION: u64 = 1;

/// Default on-disk location, relative to the working directory.
pub const DEFAULT_PATH: &str = ".mmjoin/ledger.jsonl";

/// Raw repeat samples for one measured cell. The sentinel joins cells
/// across entries on the full `(algorithm, workload, kernel_mode)` key
/// (plus the entry-level thread count and host fingerprint).
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSet {
    /// What was measured: an algorithm ("PRO") or a repro trial label
    /// ("fig2 PRO 1-pass bits=4").
    pub algorithm: String,
    /// Workload discriminator ("quick"/"full"/"repro"/...): cells from
    /// different workloads are never comparable.
    pub workload: String,
    /// Kernel mode the samples ran under ("portable"/"simd"/"auto").
    pub kernel_mode: String,
    /// Wall seconds of every repeat, in run order, no aggregation.
    pub secs: Vec<f64>,
}

impl SampleSet {
    /// The join key used by ledger comparisons, rendered for messages.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.algorithm, self.workload, self.kernel_mode)
    }
}

/// Identity of the machine an entry was recorded on.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `/proc/cpuinfo` model name (or "unknown").
    pub cpu_model: String,
    /// `available_parallelism` at record time.
    pub threads_avail: usize,
    /// Target architecture the binary ran on.
    pub arch: String,
    /// Short stable digest of the above — the cross-host comparison
    /// guard. Two entries are host-compatible iff fingerprints match.
    pub fingerprint: String,
}

impl Host {
    /// Detect the current host and stamp its fingerprint.
    pub fn detect() -> Host {
        let cpu_model = harness::cpu_model();
        let threads_avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let arch = std::env::consts::ARCH.to_string();
        let fingerprint = fingerprint_of(&cpu_model, threads_avail, &arch);
        Host {
            cpu_model,
            threads_avail,
            arch,
            fingerprint,
        }
    }
}

/// FNV-1a over the identity fields, rendered as 16 hex chars. Stable
/// across runs and across library versions (the constants are fixed by
/// the FNV spec, not by the Rust stdlib).
pub fn fingerprint_of(cpu_model: &str, threads_avail: usize, arch: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cpu_model
        .bytes()
        .chain([0u8])
        .chain(threads_avail.to_le_bytes())
        .chain([0u8])
        .chain(arch.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One ledger line: a provenance-stamped bundle of raw samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub schema: u64,
    /// Producer: "repro", "sentinel", or "cli".
    pub kind: String,
    /// Free-form annotation ("" when unused; `sentinel perturb` marks
    /// its synthetic entries here).
    pub label: String,
    /// Unix seconds at record time.
    pub timestamp: u64,
    /// `git rev-parse HEAD` of the working tree, or "unknown".
    pub git_sha: String,
    /// Whether the tree had uncommitted changes (unknown counts as
    /// dirty: numbers that can't be tied to a commit shouldn't gate).
    pub git_dirty: bool,
    pub host: Host,
    /// Worker threads the benchmark ran with (a join-key field: numbers
    /// from different thread counts are not comparable).
    pub threads: usize,
    /// Process-level kernel mode resolved at record time.
    pub kernel_mode: String,
    /// Process-level allocation policy resolved at record time
    /// ("portable", "thp", "hugetlb+bind:0", ...; see
    /// `mmjoin_util::mem::AllocPolicy`). Pre-alloc ledger lines lack the
    /// key and read as "portable" — the only path that existed then.
    pub alloc_policy: String,
    /// Trials in this sweep whose first attempt failed.
    pub retried_trials: u64,
    /// Trials in this sweep that failed both attempts (all causes).
    pub failed_trials: u64,
    /// Subset of `failed_trials` that ended in `MemoryBudgetExceeded`
    /// (absent in pre-spill ledger lines; reads as 0).
    pub failed_resource_trials: u64,
    /// Subset of `failed_trials` that ended in `JoinError::Io` (absent
    /// in pre-spill ledger lines; reads as 0).
    pub failed_io_trials: u64,
    pub samples: Vec<SampleSet>,
}

impl Entry {
    /// A fully provenance-stamped entry for the current process: git
    /// sha/dirty, host fingerprint, kernel mode, and wall-clock now.
    pub fn stamped(kind: &str, threads: usize, samples: Vec<SampleSet>) -> Entry {
        let (git_sha, git_dirty) = git_provenance();
        Entry {
            schema: SCHEMA_VERSION,
            kind: kind.to_string(),
            label: String::new(),
            timestamp: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_sha,
            git_dirty,
            host: Host::detect(),
            threads,
            kernel_mode: kernel_mode_name(),
            alloc_policy: mmjoin_util::mem::policy_name(),
            retried_trials: 0,
            failed_trials: 0,
            failed_resource_trials: 0,
            failed_io_trials: 0,
            samples,
        }
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                let secs: Vec<String> = s.secs.iter().map(|v| json_num(*v)).collect();
                format!(
                    "{{\"algorithm\": {}, \"workload\": {}, \"kernel_mode\": {}, \"secs\": [{}]}}",
                    quote(&s.algorithm),
                    quote(&s.workload),
                    quote(&s.kernel_mode),
                    secs.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"schema\": {}, \"kind\": {}, \"label\": {}, \"timestamp\": {}, \
             \"git_sha\": {}, \"git_dirty\": {}, \
             \"host\": {{\"cpu_model\": {}, \"threads_avail\": {}, \"arch\": {}, \"fingerprint\": {}}}, \
             \"threads\": {}, \"kernel_mode\": {}, \"alloc_policy\": {}, \
             \"retried_trials\": {}, \"failed_trials\": {}, \
             \"failed_resource_trials\": {}, \"failed_io_trials\": {}, \"samples\": [{}]}}",
            self.schema,
            quote(&self.kind),
            quote(&self.label),
            self.timestamp,
            quote(&self.git_sha),
            self.git_dirty,
            quote(&self.host.cpu_model),
            self.host.threads_avail,
            quote(&self.host.arch),
            quote(&self.host.fingerprint),
            self.threads,
            quote(&self.kernel_mode),
            quote(&self.alloc_policy),
            self.retried_trials,
            self.failed_trials,
            self.failed_resource_trials,
            self.failed_io_trials,
            samples.join(", ")
        )
    }

    /// Parse one ledger line previously produced by [`Entry::to_json`]
    /// (or by external tooling following DESIGN.md §11).
    pub fn from_value(v: &Value) -> Result<Entry, String> {
        let schema = num_field(v, "schema")? as u64;
        if schema > SCHEMA_VERSION {
            return Err(format!(
                "ledger entry has schema {schema}, this build understands <= {SCHEMA_VERSION}"
            ));
        }
        let host_v = v.get("host").ok_or("entry missing \"host\"")?;
        let host = Host {
            cpu_model: str_field(host_v, "cpu_model")?,
            threads_avail: num_field(host_v, "threads_avail")? as usize,
            arch: str_field(host_v, "arch")?,
            fingerprint: str_field(host_v, "fingerprint")?,
        };
        let mut samples = Vec::new();
        for (i, sv) in v
            .get("samples")
            .and_then(Value::as_arr)
            .ok_or("entry missing \"samples\" array")?
            .iter()
            .enumerate()
        {
            let secs_v = sv
                .get("secs")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("sample {i} missing \"secs\" array"))?;
            let mut secs = Vec::with_capacity(secs_v.len());
            for x in secs_v {
                secs.push(
                    x.as_num()
                        .ok_or_else(|| format!("sample {i} has a non-numeric second"))?,
                );
            }
            samples.push(SampleSet {
                algorithm: str_field(sv, "algorithm")?,
                workload: str_field(sv, "workload")?,
                kernel_mode: str_field(sv, "kernel_mode")?,
                secs,
            });
        }
        Ok(Entry {
            schema,
            kind: str_field(v, "kind")?,
            label: str_field(v, "label")?,
            timestamp: num_field(v, "timestamp")? as u64,
            git_sha: str_field(v, "git_sha")?,
            git_dirty: bool_field(v, "git_dirty")?,
            host,
            threads: num_field(v, "threads")? as usize,
            kernel_mode: str_field(v, "kernel_mode")?,
            // Added after schema 1 shipped; the heap allocator was the
            // only path before, so absent reads as "portable".
            alloc_policy: opt_str_field(v, "alloc_policy", "portable"),
            retried_trials: num_field(v, "retried_trials")? as u64,
            failed_trials: num_field(v, "failed_trials")? as u64,
            // Added after schema 1 shipped; old lines simply lack them.
            failed_resource_trials: opt_num_field(v, "failed_resource_trials") as u64,
            failed_io_trials: opt_num_field(v, "failed_io_trials") as u64,
            samples,
        })
    }

    /// Short human identity for tables and messages.
    pub fn describe(&self) -> String {
        let sha = self.git_sha.get(..12).unwrap_or(&self.git_sha);
        format!(
            "{}{} [{}{}] t={}",
            sha,
            if self.git_dirty { "+dirty" } else { "" },
            self.kind,
            if self.label.is_empty() {
                String::new()
            } else {
                format!(":{}", self.label)
            },
            self.timestamp
        )
    }
}

/// Append `entry` as one line, creating the file (and parent directory)
/// on first use. Appends are atomic at the line level on POSIX because
/// the file is opened in append mode and the line is written in one
/// call.
pub fn append(path: &Path, entry: &Entry) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = entry.to_json();
    line.push('\n');
    f.write_all(line.as_bytes())
}

/// Read every entry in the ledger, oldest first. Blank lines are
/// skipped; a malformed line is an error (the ledger is append-only and
/// machine-written, so corruption should be loud, not silent).
pub fn read_all(path: &Path) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read ledger {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            jsonv::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        entries.push(
            Entry::from_value(&v).map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?,
        );
    }
    Ok(entries)
}

/// `(sha, dirty)` of the enclosing git work tree; `("unknown", true)`
/// when git is unavailable — unknown provenance is treated as dirty so
/// it never silently becomes a baseline.
fn git_provenance() -> (String, bool) {
    let sha = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    match sha {
        Some(sha) => {
            let dirty = Command::new("git")
                .args(["status", "--porcelain", "--untracked-files=no"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| !o.stdout.is_empty())
                .unwrap_or(true);
            (sha, dirty)
        }
        None => ("unknown".to_string(), true),
    }
}

/// The process-level kernel mode as a ledger string.
pub fn kernel_mode_name() -> String {
    match mmjoin_util::kernels::effective_mode() {
        mmjoin_util::kernels::KernelMode::Simd => "simd",
        mmjoin_util::kernels::KernelMode::Portable => "portable",
        mmjoin_util::kernels::KernelMode::Auto => "auto",
    }
    .to_string()
}

/// Group a drained harness sample log into `SampleSet`s: repeats of the
/// same trial label become one raw vector, insertion-ordered.
pub fn sample_sets_from_log(log: Vec<(String, f64)>, workload: &str) -> Vec<SampleSet> {
    let mode = kernel_mode_name();
    let mut sets: Vec<SampleSet> = Vec::new();
    for (label, secs) in log {
        match sets.iter_mut().find(|s| s.algorithm == label) {
            Some(s) => s.secs.push(secs),
            None => sets.push(SampleSet {
                algorithm: label,
                workload: workload.to_string(),
                kernel_mode: mode.clone(),
                secs: vec![secs],
            }),
        }
    }
    sets
}

/// A finite f64 as a JSON number; non-finite values (which a wall-clock
/// sample never is, but a division downstream could be) become null.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// A numeric field that older ledger lines legitimately lack.
fn opt_num_field(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_num).unwrap_or(0.0)
}

/// A string field that older ledger lines legitimately lack.
fn opt_str_field(v: &Value, key: &str, default: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or(default)
        .to_string()
}

fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing boolean field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> Entry {
        Entry {
            schema: SCHEMA_VERSION,
            kind: "kernels".to_string(),
            label: String::new(),
            timestamp: 1_754_000_000,
            git_sha: "0123456789abcdef0123456789abcdef01234567".to_string(),
            git_dirty: false,
            host: Host {
                cpu_model: "Intel(R) Xeon(R) 😀 test".to_string(),
                threads_avail: 8,
                arch: "x86_64".to_string(),
                fingerprint: fingerprint_of("Intel(R) Xeon(R) 😀 test", 8, "x86_64"),
            },
            threads: 4,
            kernel_mode: "simd".to_string(),
            alloc_policy: "portable".to_string(),
            retried_trials: 1,
            failed_trials: 0,
            failed_resource_trials: 0,
            failed_io_trials: 0,
            samples: vec![
                SampleSet {
                    algorithm: "PRO".to_string(),
                    workload: "quick".to_string(),
                    kernel_mode: "portable".to_string(),
                    secs: vec![0.5, 0.25, 0.125],
                },
                SampleSet {
                    algorithm: "partition".to_string(),
                    workload: "quick".to_string(),
                    kernel_mode: "simd".to_string(),
                    secs: vec![0.75],
                },
            ],
        }
    }

    #[test]
    fn entry_round_trips_through_jsonv() {
        let e = sample_entry();
        let line = e.to_json();
        let v = jsonv::parse(&line).expect("entry serializes as valid JSON");
        let back = Entry::from_value(&v).expect("entry deserializes");
        assert_eq!(e, back);
    }

    #[test]
    fn append_and_read_all() {
        let path = std::env::temp_dir().join(format!(
            "mmjoin-ledger-test-{}-{:p}.jsonl",
            std::process::id(),
            &DEFAULT_PATH
        ));
        let _ = std::fs::remove_file(&path);
        let mut a = sample_entry();
        let mut b = sample_entry();
        b.timestamp += 10;
        b.kind = "repro".to_string();
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let read = read_all(&path).unwrap();
        assert_eq!(read.len(), 2);
        a.schema = SCHEMA_VERSION;
        assert_eq!(read[0], a);
        assert_eq!(read[1], b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_spill_lines_read_with_zero_cause_counts() {
        // A line written before the failure-cause split has no
        // failed_resource_trials / failed_io_trials keys.
        let e = sample_entry();
        let line = e.to_json().replace(
            "\"failed_resource_trials\": 0, \"failed_io_trials\": 0, ",
            "",
        );
        assert!(!line.contains("failed_resource_trials"));
        let v = jsonv::parse(&line).unwrap();
        let back = Entry::from_value(&v).unwrap();
        assert_eq!(back.failed_resource_trials, 0);
        assert_eq!(back.failed_io_trials, 0);
        assert_eq!(back, e);
    }

    #[test]
    fn pre_alloc_lines_read_as_portable() {
        let e = sample_entry();
        let line = e.to_json().replace("\"alloc_policy\": \"portable\", ", "");
        assert!(!line.contains("alloc_policy"));
        let v = jsonv::parse(&line).unwrap();
        let back = Entry::from_value(&v).unwrap();
        assert_eq!(back.alloc_policy, "portable");
        assert_eq!(back, e);
    }

    #[test]
    fn rejects_future_schema() {
        let mut e = sample_entry();
        e.schema = SCHEMA_VERSION + 1;
        let v = jsonv::parse(&e.to_json()).unwrap();
        assert!(Entry::from_value(&v).is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let f = fingerprint_of("cpu", 8, "x86_64");
        assert_eq!(f, fingerprint_of("cpu", 8, "x86_64"));
        assert_eq!(f.len(), 16);
        assert_ne!(f, fingerprint_of("cpu", 16, "x86_64"));
        assert_ne!(f, fingerprint_of("other", 8, "x86_64"));
    }

    #[test]
    fn sample_sets_group_by_label() {
        let log = vec![
            ("PRO".to_string(), 0.5),
            ("NOP".to_string(), 0.75),
            ("PRO".to_string(), 0.25),
        ];
        let sets = sample_sets_from_log(log, "repro");
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].algorithm, "PRO");
        assert_eq!(sets[0].secs, vec![0.5, 0.25]);
        assert_eq!(sets[1].algorithm, "NOP");
        assert_eq!(sets[0].workload, "repro");
    }

    #[test]
    fn git_provenance_never_panics() {
        let (sha, _dirty) = git_provenance();
        assert!(!sha.is_empty());
    }
}

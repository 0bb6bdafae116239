//! The relation catalog: named, versioned, immutable relations shared
//! across tenants and join jobs.
//!
//! `op:"load"` materializes a relation server-side from the same
//! `mmjoin-datagen` distributions the harness uses (or from inline
//! tuples, for tests) and registers it under a name. Entries are
//! immutable once published — a re-`load` of the same name swaps in a
//! *new* entry with a bumped version and leaves old `Arc`s (in-flight
//! joins, cached build sides) untouched. Build-side cache keys embed the
//! version, so stale cached sides become unreachable on reload and age
//! out through LRU (DESIGN.md §15).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mmjoin_core::prelude::{Placement, Relation, Tuple};
use mmjoin_datagen::{gen_build_dense, gen_probe_fk, gen_probe_zipf};

use crate::protocol::{LoadKind, LoadSpec, ProtoError};

/// Largest relation `op:"load"` will materialize (tuples). Keeps a
/// malicious or fat-fingered load from swallowing the host; the joins
/// themselves are budgeted separately by admission control.
pub const MAX_LOAD_ROWS: usize = 1 << 28;

/// An immutable published relation.
pub struct CatalogEntry {
    pub name: String,
    pub rel: Relation,
    /// Monotonic across the whole catalog; bumped on re-load.
    pub version: u64,
    /// Upper bound of the key domain (array joins size from this).
    pub domain: usize,
    /// Zipf skew the probe keys were drawn with (0 = uniform).
    pub theta: f64,
    /// `"build" | "probe_fk" | "probe_zipf" | "inline"` — for `stat`.
    pub kind: &'static str,
}

impl std::fmt::Debug for CatalogEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogEntry")
            .field("name", &self.name)
            .field("rows", &self.rel.len())
            .field("version", &self.version)
            .field("domain", &self.domain)
            .field("theta", &self.theta)
            .field("kind", &self.kind)
            .finish()
    }
}

impl CatalogEntry {
    pub fn bytes(&self) -> usize {
        self.rel.len() * std::mem::size_of::<Tuple>()
    }
}

/// Name → entry map behind a read-mostly lock.
#[derive(Default)]
pub struct Catalog {
    map: RwLock<HashMap<String, Arc<CatalogEntry>>>,
    next_version: AtomicU64,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Generate and publish the relation described by `spec`. Returns
    /// the published entry (rows/bytes/version feed the response).
    pub fn load(
        &self,
        spec: &LoadSpec,
        placement_parts: usize,
    ) -> Result<Arc<CatalogEntry>, ProtoError> {
        if spec.rows > MAX_LOAD_ROWS {
            return Err(ProtoError::new(
                "bad_request",
                format!("'rows' exceeds the load cap of {MAX_LOAD_ROWS} tuples"),
            ));
        }
        let placement = Placement::Chunked {
            parts: placement_parts.max(1),
        };
        // Whether the keys are unique is the relation's own fact: the
        // `build` generator records it, and any other relation finds it
        // with one pass on its first use as a build side, never here.
        let (rel, domain, kind) = match &spec.kind {
            LoadKind::Build => (
                gen_build_dense(spec.rows, spec.seed, placement),
                spec.rows,
                "build",
            ),
            LoadKind::ProbeFk => (
                gen_probe_fk(spec.rows, spec.domain, spec.seed, placement),
                spec.domain,
                "probe_fk",
            ),
            LoadKind::ProbeZipf => (
                gen_probe_zipf(spec.rows, spec.domain, spec.theta, spec.seed, placement),
                spec.domain,
                "probe_zipf",
            ),
            LoadKind::Inline(tuples) => (
                Relation::from_tuples(tuples, placement),
                spec.domain,
                "inline",
            ),
        };
        let version = self.next_version.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(CatalogEntry {
            name: spec.name.clone(),
            rel,
            version,
            domain,
            theta: spec.theta,
            kind,
        });
        self.map
            .write()
            .unwrap()
            .insert(spec.name.clone(), Arc::clone(&entry));
        Ok(entry)
    }

    pub fn get(&self, name: &str) -> Result<Arc<CatalogEntry>, ProtoError> {
        self.map.read().unwrap().get(name).cloned().ok_or_else(|| {
            ProtoError::new("unknown_relation", format!("no relation named '{name}'"))
        })
    }

    /// Snapshot for `op:"stat"`, name-sorted for stable output.
    pub fn snapshot(&self) -> Vec<Arc<CatalogEntry>> {
        let mut v: Vec<_> = self.map.read().unwrap().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, kind: LoadKind, rows: usize, domain: usize) -> LoadSpec {
        LoadSpec {
            name: name.into(),
            kind,
            rows,
            domain,
            theta: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn reload_bumps_version_and_keeps_old_arcs_alive() {
        let c = Catalog::new();
        let first = c.load(&spec("r", LoadKind::Build, 100, 100), 2).unwrap();
        let second = c.load(&spec("r", LoadKind::Build, 200, 200), 2).unwrap();
        assert!(second.version > first.version);
        assert_eq!(first.rel.len(), 100); // old Arc untouched
        assert_eq!(c.get("r").unwrap().rel.len(), 200);
    }

    #[test]
    fn unknown_relation_is_typed() {
        let c = Catalog::new();
        assert_eq!(c.get("nope").unwrap_err().code, "unknown_relation");
    }
}

//! Shared build-side cache: hot build sides prepared once via
//! [`BuildSide::prepare`] and probed by every tenant (DESIGN.md §15).
//!
//! Keyed on `(relation name, relation version, algorithm, radix bits)` —
//! exactly the inputs that determine the frozen partition + build
//! output. Byte-bounded LRU over [`BuildSide::memory_bytes`], which is
//! what a side keeps resident (a partitioned side's tables are one
//! packed block, not a huge page per partition), so the bound bounds
//! resident bytes; resident cache bytes are a server-owned carve,
//! deliberately *not* charged to any tenant's budget (a shared side has
//! no single owner — see the invariants in DESIGN.md §15).
//!
//! Concurrent misses on the same key may both prepare; the second insert
//! wins and the loser's side is dropped when its probe finishes. That
//! duplicated work is benign (both sides are equal by construction), and
//! cheaper than holding a lock across a multi-millisecond build.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mmjoin_core::prelude::{Algorithm, BuildSide};

/// Cache identity of a frozen build side.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub relation: String,
    pub version: u64,
    pub algorithm: Algorithm,
    /// `None` = Equation-(1) default bits for the relation size.
    pub radix_bits: Option<u32>,
}

struct Slot {
    side: Arc<BuildSide>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Slot>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time counters for `op:"stat"`.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct CacheSnapshot {
    pub entries: usize,
    pub bytes: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Byte-bounded LRU of `Arc<BuildSide>`.
pub struct BuildCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl BuildCache {
    pub fn new(capacity_bytes: usize) -> BuildCache {
        BuildCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity_bytes,
        }
    }

    /// Look up a frozen side; counts a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<BuildSide>> {
        let mut g = self.inner.lock().unwrap();
        g.tick += 1;
        let tick = g.tick;
        match g.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                let side = Arc::clone(&slot.side);
                g.hits += 1;
                Some(side)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly prepared side, evicting least-recently-used
    /// entries until it fits. A side larger than the whole cache is not
    /// cached at all (the caller still probes its own `Arc`).
    pub fn insert(&self, key: CacheKey, side: Arc<BuildSide>) {
        let bytes = side.memory_bytes();
        if bytes > self.capacity {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        g.tick += 1;
        let tick = g.tick;
        if let Some(old) = g.map.insert(
            key,
            Slot {
                side,
                bytes,
                last_used: tick,
            },
        ) {
            g.bytes -= old.bytes;
        }
        g.bytes += bytes;
        while g.bytes > self.capacity {
            let victim = g
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let s = g.map.remove(&k).expect("victim key just observed");
                    g.bytes -= s.bytes;
                    g.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Drop everything (the `op:"flush"` path); returns entries dropped.
    pub fn flush(&self) -> usize {
        let mut g = self.inner.lock().unwrap();
        let n = g.map.len();
        g.map.clear();
        g.bytes = 0;
        n
    }

    pub fn snapshot(&self) -> CacheSnapshot {
        let g = self.inner.lock().unwrap();
        CacheSnapshot {
            entries: g.map.len(),
            bytes: g.bytes,
            capacity: self.capacity,
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_core::prelude::JoinConfig;
    use mmjoin_datagen::gen_build_dense;
    use mmjoin_util::Placement;

    fn prepared(rows: usize) -> Arc<BuildSide> {
        let r = gen_build_dense(rows, 1, Placement::Chunked { parts: 2 });
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        cfg.key_domain = rows;
        BuildSide::prepare(Algorithm::Nopa, &r, &cfg).unwrap()
    }

    fn key(name: &str, version: u64) -> CacheKey {
        CacheKey {
            relation: name.into(),
            version,
            algorithm: Algorithm::Nopa,
            radix_bits: None,
        }
    }

    #[test]
    fn lru_evicts_oldest_when_over_capacity() {
        let a = prepared(2000);
        let per = a.memory_bytes();
        // Room for two sides, not three.
        let cache = BuildCache::new(per * 2 + per / 2);
        cache.insert(key("a", 1), a);
        cache.insert(key("b", 1), prepared(2000));
        assert!(cache.get(&key("a", 1)).is_some()); // refresh a
        cache.insert(key("c", 1), prepared(2000)); // evicts b
        assert!(cache.get(&key("b", 1)).is_none());
        assert!(cache.get(&key("a", 1)).is_some());
        assert!(cache.get(&key("c", 1)).is_some());
        let s = cache.snapshot();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.capacity);
    }

    #[test]
    fn version_bump_misses_and_flush_empties() {
        let cache = BuildCache::new(usize::MAX / 2);
        cache.insert(key("r", 1), prepared(1000));
        assert!(cache.get(&key("r", 1)).is_some());
        assert!(cache.get(&key("r", 2)).is_none()); // reloaded relation
        assert_eq!(cache.flush(), 1);
        assert_eq!(cache.snapshot().entries, 0);
    }

    #[test]
    fn side_larger_than_cache_is_not_cached() {
        let side = prepared(1000);
        let cache = BuildCache::new(side.memory_bytes() - 1);
        cache.insert(key("big", 1), side);
        assert_eq!(cache.snapshot().entries, 0);
    }
}

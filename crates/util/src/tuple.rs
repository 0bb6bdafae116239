//! The relational vocabulary of the study: 8-byte `<key, payload>` tuples
//! and placement-tagged relations.
//!
//! All join papers compared in the study (Balkesen, Lang, Blanas, Barber)
//! use the same narrow-tuple configuration: a 4-byte integer join key and a
//! 4-byte integer payload (usually the row id, enabling late
//! materialization). We keep exactly that layout so cache/TLB arithmetic
//! (8 tuples per cache line) matches the paper.

use std::sync::OnceLock;

/// Join key type. The paper's build relations hold *dense, unique* keys
/// `1..=|R|`; key `0` is reserved as the EMPTY sentinel of the lock-free
/// linear-probing table (like the original NOP implementation).
pub type Key = u32;

/// Payload type; in the micro-benchmarks this is the row id.
pub type Payload = u32;

/// An 8-byte relational tuple, the unit of all join processing.
#[repr(C)]
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    pub key: Key,
    pub payload: Payload,
}

impl Tuple {
    #[inline]
    pub const fn new(key: Key, payload: Payload) -> Self {
        Tuple { key, payload }
    }

    /// Pack into a `u64` with the key in the high bits, so that `u64`
    /// comparison orders by key first. Used by the sort-merge substrate.
    #[inline]
    pub const fn pack(self) -> u64 {
        ((self.key as u64) << 32) | self.payload as u64
    }

    /// Inverse of [`Tuple::pack`].
    #[inline]
    pub const fn unpack(v: u64) -> Self {
        Tuple {
            key: (v >> 32) as u32,
            payload: v as u32,
        }
    }
}

/// Where a buffer lives in the (simulated) NUMA machine.
///
/// The real allocations on this host are ordinary heap memory; the
/// placement tag is interpreted by `mmjoin-numamodel` to attribute memory
/// traffic to NUMA nodes exactly the way the studied algorithms place their
/// buffers on the paper's 4-socket machine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Pages are interleaved round-robin over all nodes (the
    /// `-basic-numa` option of the original radix-join code; also how NOP
    /// interleaves its global hash table).
    Interleaved,
    /// The whole buffer lives on one node.
    Node(usize),
    /// The buffer is divided into `parts` equal contiguous chunks,
    /// chunk `i` living on node `i % nodes` (how the input relations are
    /// distributed in Lang et al. and in this study).
    Chunked { parts: usize },
}

impl Placement {
    /// Node that byte offset `off` of a buffer of `len` bytes maps to, on a
    /// machine with `nodes` NUMA nodes and pages of `page_size` bytes.
    #[inline]
    pub fn node_of(self, off: usize, len: usize, nodes: usize, page_size: usize) -> usize {
        match self {
            Placement::Node(n) => n % nodes,
            Placement::Interleaved => (off / page_size) % nodes,
            Placement::Chunked { parts } => {
                let chunk = (off * parts / len.max(1)).min(parts - 1);
                chunk % nodes
            }
        }
    }
}

/// A relation: a flat tuple buffer, its NUMA placement tag, and whether
/// its keys are unique.
///
/// The buffer is cache-line aligned (required for the SWWCB flush path,
/// which copies whole cache lines).
pub struct Relation {
    data: crate::alloc::AlignedBuf<Tuple>,
    placement: Placement,
    /// Whether no key occurs twice: recorded at construction by the
    /// generators that guarantee it, else filled by the first
    /// [`Relation::unique_keys`] call.
    unique: OnceLock<bool>,
}

impl Relation {
    fn of(data: crate::alloc::AlignedBuf<Tuple>, placement: Placement) -> Self {
        Relation {
            data,
            placement,
            unique: OnceLock::new(),
        }
    }

    /// Build a relation from an existing tuple vector. Whether its keys
    /// are unique is left for [`Relation::unique_keys`] to find out.
    pub fn from_tuples(tuples: &[Tuple], placement: Placement) -> Self {
        // SAFETY: the copy writes every slot before anything reads one.
        let mut buf = unsafe { crate::alloc::AlignedBuf::unfilled(tuples.len()) };
        buf.as_mut_slice().copy_from_slice(tuples);
        Relation::of(buf, placement)
    }

    /// Build a relation of `n` tuples in its own buffer: slot `i` is
    /// `f(i)`, called for `i = 0, 1, ..` in order, so a generator that
    /// draws from a random stream draws in row order.
    pub fn from_fn(n: usize, placement: Placement, mut f: impl FnMut(usize) -> Tuple) -> Self {
        // SAFETY: the loop writes every slot before anything reads one;
        // a panicking `f` drops the buffer unread.
        let mut buf = unsafe { crate::alloc::AlignedBuf::unfilled(n) };
        for (i, slot) in buf.as_mut_slice().iter_mut().enumerate() {
            *slot = f(i);
        }
        Relation::of(buf, placement)
    }

    /// Record that no key repeats (a generated primary key), so no
    /// [`Relation::unique_keys`] call scans it. Debug builds verify the
    /// claim and panic on a repeated key.
    pub fn with_unique_keys(mut self) -> Self {
        debug_assert!(
            keys_unique(self.tuples()),
            "a key of a unique relation repeats"
        );
        self.unique = OnceLock::from(true);
        self
    }

    /// The tuples, to rearrange in place (a generator's shuffle).
    /// Whatever was known of the keys' uniqueness is forgotten.
    pub fn tuples_mut(&mut self) -> &mut [Tuple] {
        self.unique = OnceLock::new();
        self.data.as_mut_slice()
    }

    /// Whether no key occurs twice. A hash join's probe stops at its
    /// first match only then, and an array join, which holds one payload
    /// per key, refuses a build side without it. Unless the relation was
    /// built unique, the first call answers with one exact pass over the
    /// keys and every later call with its result.
    pub fn unique_keys(&self) -> bool {
        *self.unique.get_or_init(|| keys_unique(self.tuples()))
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        self.data.as_slice()
    }

    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }
}

/// Whether no key of `tuples` occurs twice, with at most 4 B of scratch
/// a tuple: a bitmap over `0..=max key` when it is no larger (it stops
/// at the first repeat), else a sorted copy of the keys.
fn keys_unique(tuples: &[Tuple]) -> bool {
    let Some(max) = tuples.iter().map(|t| t.key as usize).max() else {
        return true;
    };
    let words = max / 64 + 1;
    if words * 8 <= tuples.len() * 4 {
        let mut seen = vec![0u64; words];
        return tuples.iter().all(|t| {
            let (word, bit) = (&mut seen[t.key as usize / 64], 1u64 << (t.key % 64));
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        });
    }
    let mut keys: Vec<Key> = tuples.iter().map(|t| t.key).collect();
    keys.sort_unstable();
    keys.windows(2).all(|w| w[0] != w[1])
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relation")
            .field("len", &self.len())
            .field("placement", &self.placement)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        let t = Tuple::new(0xDEAD_BEEF, 0x1234_5678);
        assert_eq!(Tuple::unpack(t.pack()), t);
    }

    #[test]
    fn pack_orders_by_key() {
        let a = Tuple::new(1, u32::MAX);
        let b = Tuple::new(2, 0);
        assert!(a.pack() < b.pack());
    }

    #[test]
    fn placement_node_of_interleaved() {
        let p = Placement::Interleaved;
        let page = 4096;
        assert_eq!(p.node_of(0, 1 << 20, 4, page), 0);
        assert_eq!(p.node_of(page, 1 << 20, 4, page), 1);
        assert_eq!(p.node_of(4 * page, 1 << 20, 4, page), 0);
    }

    #[test]
    fn placement_node_of_chunked() {
        let p = Placement::Chunked { parts: 4 };
        let len = 4000;
        assert_eq!(p.node_of(0, len, 4, 4096), 0);
        assert_eq!(p.node_of(1000, len, 4, 4096), 1);
        assert_eq!(p.node_of(3999, len, 4, 4096), 3);
    }

    #[test]
    fn relation_roundtrip() {
        let ts: Vec<Tuple> = (0..100).map(|i| Tuple::new(i, i * 2)).collect();
        let r = Relation::from_tuples(&ts, Placement::Interleaved);
        assert_eq!(r.len(), 100);
        assert_eq!(r.tuples(), &ts[..]);
    }

    fn relation_of(keys: &[Key]) -> Relation {
        let ts: Vec<Tuple> = (0..).zip(keys).map(|(i, &k)| Tuple::new(k, i)).collect();
        Relation::from_tuples(&ts, Placement::Interleaved)
    }

    #[test]
    fn unique_keys_is_exact() {
        assert!(relation_of(&[]).unique_keys());
        assert!(relation_of(&[7]).unique_keys());
        assert!(relation_of(&[u32::MAX]).unique_keys());
        assert!(!relation_of(&[0, 0]).unique_keys());
        assert!(!relation_of(&[3, 1, 3]).unique_keys());
        // Dense keys take the bitmap, keys spread over `u32` the sorted
        // copy; one repeat anywhere is found either way.
        let dense: Vec<Key> = (1..=1000).rev().collect();
        let wide: Vec<Key> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect();
        for keys in [dense, wide] {
            assert!(relation_of(&keys).unique_keys());
            for at in [0, 500, 999] {
                let mut dup = keys.clone();
                dup.insert(at, keys[999 - at]);
                assert!(!relation_of(&dup).unique_keys(), "repeat at {at}");
            }
        }
    }

    /// The pass runs once: the first call fills the cell, and a filled
    /// cell is what every later call returns without reading a key.
    #[test]
    fn unique_keys_scans_once() {
        let r = relation_of(&[4, 4]);
        assert_eq!(r.unique.get(), None);
        assert!(!r.unique_keys());
        assert_eq!(r.unique.get(), Some(&false));
        let cached = Relation {
            unique: OnceLock::from(true),
            ..r
        };
        assert!(cached.unique_keys(), "a second call rescanned");
        let known =
            Relation::from_tuples(&[Tuple::new(1, 0)], Placement::Interleaved).with_unique_keys();
        assert_eq!(known.unique.get(), Some(&true));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a key of a unique relation repeats")]
    fn a_false_uniqueness_claim_panics_in_debug_builds() {
        let ts = [Tuple::new(9, 0), Tuple::new(9, 1)];
        Relation::from_tuples(&ts, Placement::Interleaved).with_unique_keys();
    }
}

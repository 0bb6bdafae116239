//! The relational vocabulary of the study: 8-byte `<key, payload>` tuples
//! and placement-tagged relations.
//!
//! All join papers compared in the study (Balkesen, Lang, Blanas, Barber)
//! use the same narrow-tuple configuration: a 4-byte integer join key and a
//! 4-byte integer payload (usually the row id, enabling late
//! materialization). We keep exactly that layout so cache/TLB arithmetic
//! (8 tuples per cache line) matches the paper.

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

/// A relation: a flat tuple buffer plus its NUMA placement tag.
///
/// The buffer is cache-line aligned (required for the SWWCB flush path,
/// which copies whole cache lines).
pub struct Relation {
    data: crate::alloc::AlignedBuf<Tuple>,
    placement: Placement,
}

impl Relation {
    /// Allocate an uninitialized-then-zeroed relation of `n` tuples.
    pub fn zeroed(n: usize, placement: Placement) -> Self {
        Relation {
            data: crate::alloc::AlignedBuf::zeroed(n),
            placement,
        }
    }

    /// Build a relation from an existing tuple vector.
    pub fn from_tuples(tuples: &[Tuple], placement: Placement) -> Self {
        let mut buf = crate::alloc::AlignedBuf::zeroed(tuples.len());
        buf.as_mut_slice().copy_from_slice(tuples);
        Relation {
            data: buf,
            placement,
        }
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
}

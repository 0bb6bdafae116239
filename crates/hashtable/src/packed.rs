//! Per-partition tables packed end to end in one block.
//!
//! A partitioned join builds one cache-sized table per radix partition.
//! Under huge-page arenas a buffer of its own costs a whole 2 MiB page
//! however small the table, so a side that keeps its tables — a cached
//! PRO/PRL/PRA build side, SHHJ's resident partitions — keeps them in
//! one [`PackedTables`] block instead: table `p` is a range of the
//! block, as long as its kind needs for its spec ([`Packable::words`],
//! never more than [`TableSpec::table_bytes`]), and the block costs at
//! most one page beyond its tables.
//!
//! The block is allocated unfilled. [`PackedTables::split_mut`] hands
//! each range to the task that builds its table, and
//! [`PackedRange::clear`] makes it the empty table there: the clear runs
//! in the build's parallel tasks, not in one pass before them. A range
//! is read only once it was cleared ([`PackedTables::probe_batch`]).

use mmjoin_util::alloc::AlignedBuf;
use mmjoin_util::tuple::{Payload, Tuple};
use mmjoin_util::CACHE_LINE;

use crate::TableSpec;

/// A per-partition table kind a [`PackedTables`] block can hold,
/// implemented by the table that owns its storage
/// ([`StChainedTable`](crate::StChainedTable),
/// [`StLinearTable`](crate::StLinearTable),
/// [`ArrayTable`](crate::ArrayTable)): its packed twin is the same
/// table over a range of the block, built and probed by the same code.
///
/// # Safety
/// A block is allocated unfilled: after [`Packable::clear`], the
/// table's inserts and probes must read no word of the range that
/// neither the clear nor an earlier insert wrote.
pub unsafe trait Packable {
    /// An element of the block: a linear table's slot, a chained
    /// table's word, an array table's payload.
    type Word: Copy + Send + Sync;

    /// Words the table of `spec` takes.
    fn words(spec: &TableSpec) -> usize;

    /// Make `range` (`words(spec)` long, unfilled) the empty table of
    /// `spec`.
    fn clear(range: &mut [Self::Word], spec: &TableSpec);

    /// Insert `tuples` into the table of `spec` in `range`, which holds
    /// `len` tuples: [`JoinTable::insert_batch`](crate::JoinTable::insert_batch).
    fn insert_batch(range: &mut [Self::Word], spec: &TableSpec, len: usize, tuples: &[Tuple]);

    /// Probe the built table of `spec` in `range`:
    /// [`JoinTable::probe_batch`](crate::JoinTable::probe_batch).
    fn probe_batch<F: FnMut(&Tuple, Payload)>(
        range: &[Self::Word],
        spec: &TableSpec,
        probes: &[Tuple],
        unique: bool,
        f: F,
    );
}

/// Tables of kind `K` packed end to end in one block, one per partition
/// of a radix fan-out.
pub struct PackedTables<K: Packable> {
    /// Unfilled: a range is read only once its table was cleared.
    block: AlignedBuf<K::Word>,
    /// Per table, `None` for a capacity of 0.
    tables: Vec<Option<Packed>>,
}

/// Where one packed table lies, and whether its range was cleared.
struct Packed {
    start: usize,
    end: usize,
    spec: TableSpec,
    cleared: bool,
}

impl<K: Packable> PackedTables<K> {
    /// One table per capacity, of `spec(capacity)`; a capacity of 0 has
    /// no table. Each range starts on a cache line, so no two build
    /// tasks write one line.
    pub fn new(capacities: &[usize], spec: impl Fn(usize) -> TableSpec) -> Self {
        let line = (CACHE_LINE / std::mem::size_of::<K::Word>()).max(1);
        let mut end = 0usize;
        let tables = capacities
            .iter()
            .map(|&n| {
                (n > 0).then(|| {
                    let spec = spec(n);
                    let start = end.next_multiple_of(line);
                    end = start + K::words(&spec);
                    Packed {
                        start,
                        end,
                        spec,
                        cleared: false,
                    }
                })
            })
            .collect();
        PackedTables {
            // SAFETY: nothing reads a range before `PackedRange::clear`
            // has made it a table (`probe_batch` reads only cleared
            // ones), and `Packable`'s contract bounds what a table reads
            // then.
            block: unsafe { AlignedBuf::unfilled(end) },
            tables,
        }
    }

    /// Every table's range, for the task that builds it, in the order of
    /// the capacities: `None` where the capacity was 0.
    pub fn split_mut(&mut self) -> Vec<Option<PackedRange<'_, K>>> {
        let mut rest = self.block.as_mut_slice();
        let mut at = 0;
        self.tables
            .iter_mut()
            .map(|t| {
                let t = t.as_mut()?;
                let tail = std::mem::take(&mut rest).split_at_mut(t.start - at).1;
                let (range, tail) = tail.split_at_mut(t.end - t.start);
                (rest, at) = (tail, t.end);
                Some(PackedRange {
                    range,
                    spec: t.spec,
                    cleared: &mut t.cleared,
                })
            })
            .collect()
    }

    /// Probe table `p` with a batch, `f(probe_tuple, build_payload)` per
    /// match in probe order; `unique` selects first-match probes. No
    /// table — a capacity of 0, or a range never cleared because its
    /// build was cut short — matches nothing and reads nothing.
    #[inline]
    pub fn probe_batch<F: FnMut(&Tuple, Payload)>(
        &self,
        p: usize,
        probes: &[Tuple],
        unique: bool,
        f: F,
    ) {
        if let Some(t) = self.tables[p].as_ref().filter(|t| t.cleared) {
            K::probe_batch(&self.block[t.start..t.end], &t.spec, probes, unique, f)
        }
    }

    /// Bytes of the block: its tables and the padding that starts each
    /// on a cache line.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.block)
    }
}

/// One table's range of a [`PackedTables`] block, not yet cleared.
pub struct PackedRange<'a, K: Packable> {
    range: &'a mut [K::Word],
    spec: TableSpec,
    cleared: &'a mut bool,
}

impl<'a, K: Packable> PackedRange<'a, K> {
    /// Clear the range: the empty table, to build.
    pub fn clear(self) -> PackedBuild<'a, K> {
        K::clear(self.range, &self.spec);
        *self.cleared = true;
        PackedBuild {
            range: self.range,
            spec: self.spec,
            len: 0,
        }
    }
}

/// A packed table being built.
pub struct PackedBuild<'a, K: Packable> {
    range: &'a mut [K::Word],
    spec: TableSpec,
    len: usize,
}

impl<K: Packable> PackedBuild<'_, K> {
    /// Insert a batch of build tuples; all of them together must fit
    /// the capacity the table was packed for.
    pub fn insert_batch(&mut self, tuples: &[Tuple]) {
        K::insert_batch(self.range, &self.spec, self.len, tuples);
        self.len += tuples.len();
    }
}

//! Memory-access tracing hooks.
//!
//! Table 4 and Figure 8 of the paper rely on hardware performance counters
//! (cache and TLB misses). This reproduction obtains the same metrics from
//! a trace-driven simulator (`mmjoin-memsim`). The kernels of a table
//! join phase are generic over a [`MemTracer`]: the walks, insert bodies
//! and batch bodies of `mmjoin-hashtable`'s chained, linear and array
//! tables, and `mmjoin-core`'s `pro::join_co_partition`, which the
//! partitioned joins and Table 4's replay both call. The joins pass [`NoTracer`],
//! whose hooks the optimizer deletes, so the fast path pays nothing. (The
//! replay's scatter, sort and CHT arms are models beside the real code.)
//!
//! Addresses are the real virtual addresses of the touched memory, which
//! keeps spatial locality (cache lines, pages) faithful.

/// Observer of the memory accesses and retired operations of a kernel.
pub trait MemTracer {
    /// `len` bytes read starting at `addr`.
    fn read(&mut self, addr: usize, len: usize);
    /// `len` bytes written starting at `addr`.
    fn write(&mut self, addr: usize, len: usize);
    /// `n` arithmetic/logic operations retired (the "instruction" proxy).
    fn ops(&mut self, n: u64);

    /// `*value` read where it lies.
    #[inline(always)]
    fn read_of<T>(&mut self, value: &T) {
        self.read(value as *const T as usize, std::mem::size_of::<T>())
    }
    /// `*value` written where it lies.
    #[inline(always)]
    fn write_of<T>(&mut self, value: &T) {
        self.write(value as *const T as usize, std::mem::size_of::<T>())
    }
}

/// The zero-cost tracer every join passes.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoTracer;

impl MemTracer for NoTracer {
    #[inline(always)]
    fn read(&mut self, _addr: usize, _len: usize) {}
    #[inline(always)]
    fn write(&mut self, _addr: usize, _len: usize) {}
    #[inline(always)]
    fn ops(&mut self, _n: u64) {}
}

/// A tracer that simply counts accesses — handy in tests to assert that a
/// kernel touches what we think it touches.
#[derive(Clone, Debug, Default)]
pub struct CountingTracer {
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub ops: u64,
}

impl MemTracer for CountingTracer {
    #[inline]
    fn read(&mut self, _addr: usize, len: usize) {
        self.reads += 1;
        self.read_bytes += len as u64;
    }
    #[inline]
    fn write(&mut self, _addr: usize, len: usize) {
        self.writes += 1;
        self.write_bytes += len as u64;
    }
    #[inline]
    fn ops(&mut self, n: u64) {
        self.ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracer_counts() {
        let mut t = CountingTracer::default();
        t.read(0x1000, 8);
        t.read(0x2000, 64);
        t.write(0x3000, 8);
        t.ops(5);
        assert_eq!(t.reads, 2);
        assert_eq!(t.read_bytes, 72);
        assert_eq!(t.writes, 1);
        assert_eq!(t.ops, 5);
    }
}

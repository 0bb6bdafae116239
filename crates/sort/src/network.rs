//! The sorting network that forms the initial runs.
//!
//! A sorting network executes a fixed, data-independent sequence of
//! compare-exchange operations. The original MWAY runs AVX bitonic
//! networks; this is the scalar path's: on x86-64 each comparator
//! compiles to one `cmp` and two `cmov`s with all eight values held in
//! registers — no branch, hence nothing to mispredict on random keys,
//! and no SIMD (baseline x86-64 has no 64-bit vector min/max for LLVM
//! to use). Where the CPU has AVX-512F the sort runs the same 19
//! comparators on eight registers at once instead, as `vpminuq` /
//! `vpmaxuq` pairs over eight columns (`crate::avx512`).
//!
//! The 0-1 principle guarantees correctness: a comparator network that
//! sorts all 0-1 sequences sorts all sequences; the test verifies all
//! 2^8 of them.

/// Branch-free compare-exchange: after the call `data[i] <= data[j]`.
#[inline(always)]
fn cmpx(data: &mut [u64], i: usize, j: usize) {
    let a = data[i];
    let b = data[j];
    let lo = a.min(b);
    let hi = a.max(b);
    data[i] = lo;
    data[j] = hi;
}

/// Hand-unrolled optimal 8-element network (19 comparators).
#[inline(always)]
pub fn sort8(d: &mut [u64]) {
    debug_assert_eq!(d.len(), 8);
    cmpx(d, 0, 1);
    cmpx(d, 2, 3);
    cmpx(d, 4, 5);
    cmpx(d, 6, 7);
    cmpx(d, 0, 2);
    cmpx(d, 1, 3);
    cmpx(d, 4, 6);
    cmpx(d, 5, 7);
    cmpx(d, 1, 2);
    cmpx(d, 5, 6);
    cmpx(d, 0, 4);
    cmpx(d, 3, 7);
    cmpx(d, 1, 5);
    cmpx(d, 2, 6);
    cmpx(d, 1, 4);
    cmpx(d, 3, 6);
    cmpx(d, 2, 4);
    cmpx(d, 3, 5);
    cmpx(d, 3, 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1 principle: exhaustively verify all binary inputs.
    #[test]
    fn sort8_zero_one_principle() {
        for bits in 0u32..(1 << 8) {
            let mut d: Vec<u64> = (0..8).map(|i| ((bits >> i) & 1) as u64).collect();
            sort8(&mut d);
            assert!(d.windows(2).all(|w| w[0] <= w[1]), "bits={bits:b} -> {d:?}");
        }
    }

    #[test]
    fn equal_keys_order_by_payload() {
        // Packed tuples with equal keys but different payloads still sort
        // deterministically (payload is in the low bits of the u64).
        let key = |k: u64, p: u64| (k << 32) | p;
        let mut d = vec![
            key(5, 3),
            key(5, 1),
            key(2, 9),
            key(5, 2),
            key(9, 0),
            key(2, 1),
            key(5, 0),
            key(1, 7),
        ];
        let mut expect = d.clone();
        expect.sort_unstable();
        sort8(&mut d);
        assert_eq!(d, expect);
    }
}

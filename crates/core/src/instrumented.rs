//! Instrumented single-threaded join kernels for the performance-counter
//! study (Table 4, and the mechanism behind Figure 8).
//!
//! Each algorithm's two reported phases ("sort or build or partition" and
//! "probe or join") are replayed single-threadedly with every memory
//! access fed into the `mmjoin-memsim` cache/TLB simulator. Inputs are
//! scaled down together with the simulated cache capacities, so the
//! capacity-relative behaviour (the source of every qualitative claim in
//! Table 4) is preserved.
//!
//! Fidelity note: every table-based join phase (NOP, NOPA, PR*, CPR*) is
//! `pro::join_co_partition` — the function the joins' own tasks call, on the
//! spec `PartTable::spec` gives them — run with the simulator as its
//! tracer, so the table, its shift and the first-match probe are the
//! join's by construction (NOP and NOPA as one partition of zero radix
//! bits, built and probed through the function's two halves so that the
//! counters can be read between them: the single-threaded twins of their
//! concurrent tables). The scatter, the sort and the CHT are *models*:
//! address patterns written here beside the real kernels (CHTJ's match
//! count comes from the real table). What is simplified throughout is
//! concurrency (one thread).

use std::iter::once;

use mmjoin_hashtable::{ConciseHashTable, MultiplicativeHash};
use mmjoin_memsim::{Counters, MemSim};
use mmjoin_partition::{histogram::histogram, RadixFn};
use mmjoin_util::trace::MemTracer;
use mmjoin_util::tuple::Tuple;
use mmjoin_util::{Relation, CACHE_LINE, TUPLES_PER_CACHELINE};

use crate::config::TableKind;
use crate::pro::{join_co_partition, PartTable};
use crate::Algorithm;

/// First-match probes: the replays take the study's dense, unique build
/// keys (Table 4's inputs come from `gen_build_dense`), as the drivers
/// do wherever `Relation::unique_keys` holds.
const UNIQUE: bool = true;

/// Counters of the two phases Table 4 reports.
#[derive(Clone, Debug)]
pub struct InstrumentedRun {
    pub algorithm: Algorithm,
    /// "Sort or Build or Partition Phase".
    pub first: Counters,
    /// "Probe or Join Phase".
    pub second: Counters,
    /// Number of produced matches (correctness cross-check).
    pub matches: u64,
}

/// Page configuration for an instrumented run.
#[derive(Copy, Clone, Debug)]
pub struct PageConfig {
    pub page_bytes: usize,
    pub tlb_entries: usize,
}

impl PageConfig {
    /// 4 KB pages / 256 entries, scaled.
    pub fn small(scale: usize) -> Self {
        PageConfig {
            page_bytes: (4096 / scale.max(1)).max(4 * CACHE_LINE),
            tlb_entries: 256,
        }
    }

    /// 2 MB pages / 32 entries, scaled.
    pub fn huge(scale: usize) -> Self {
        PageConfig {
            page_bytes: (2 * 1024 * 1024 / scale.max(1)).max(16 * CACHE_LINE),
            tlb_entries: 32,
        }
    }
}

fn sim(scale: usize, page: PageConfig) -> MemSim {
    MemSim::scaled_paper_machine(scale, page.page_bytes, page.tlb_entries)
}

/// Traced single-threaded radix scatter of `input` into a fresh buffer
/// (with or without SWWCB), returning the partitioned output.
fn traced_scatter(
    input: &[Tuple],
    f: RadixFn,
    swwcb: bool,
    tr: &mut impl MemTracer,
) -> (Vec<Tuple>, Vec<usize>) {
    // Histogram pass.
    for t in input {
        tr.read(t as *const Tuple as usize, 8);
        tr.ops(2);
    }
    let hist = histogram(input, f);
    let mut offsets = vec![0usize; f.fanout() + 1];
    for p in 0..f.fanout() {
        offsets[p + 1] = offsets[p] + hist[p];
    }
    // Scatter pass.
    let mut out = vec![Tuple::new(0, 0); input.len()];
    let mut cursor: Vec<usize> = offsets[..f.fanout()].to_vec();
    if swwcb {
        // Buffered: tuple writes land in the (cache-resident) buffer
        // bank; every TUPLES_PER_CACHELINE-th write flushes a line.
        let bank = vec![0u8; f.fanout() * CACHE_LINE];
        let mut fill = vec![0u8; f.fanout()];
        for t in input {
            tr.read(t as *const Tuple as usize, 8);
            let p = f.part(t.key);
            tr.write(
                bank.as_ptr() as usize + p * CACHE_LINE + fill[p] as usize * 8,
                8,
            );
            tr.ops(4);
            fill[p] += 1;
            if fill[p] as usize == TUPLES_PER_CACHELINE {
                fill[p] = 0;
                tr.write(out.as_ptr() as usize + cursor[p] * 8, CACHE_LINE);
            }
            out[cursor[p]] = *t;
            cursor[p] += 1;
        }
    } else {
        for t in input {
            tr.read(t as *const Tuple as usize, 8);
            let p = f.part(t.key);
            tr.write(out.as_ptr() as usize + cursor[p] * 8, 8);
            tr.ops(4);
            out[cursor[p]] = *t;
            cursor[p] += 1;
        }
    }
    (out, offsets)
}

/// The join phase over a partitioned pair: build and probe one
/// co-partition after another, as a join task does.
fn traced_partition_join(
    table: PartTable,
    pr: &(Vec<Tuple>, Vec<usize>),
    ps: &(Vec<Tuple>, Vec<usize>),
    tr: &mut impl MemTracer,
) -> u64 {
    let mut matches = 0u64;
    let built = &mut table.unbuilt();
    for p in 0..pr.1.len() - 1 {
        let r = &pr.0[pr.1[p]..pr.1[p + 1]];
        let s = &ps.0[ps.1[p]..ps.1[p + 1]];
        join_co_partition(
            table,
            UNIQUE,
            built,
            r.len(),
            once(r),
            once(s),
            tr,
            |_, _| matches += 1,
        );
    }
    matches
}

/// Run one algorithm instrumented. `scale` shrinks caches/pages (inputs
/// should be the paper's divided by the same factor); `bits` is the radix
/// fanout for partitioned algorithms.
pub fn instrument(
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    scale: usize,
    page: PageConfig,
    bits: u32,
) -> InstrumentedRun {
    let mut ms = sim(scale, page);
    let domain = r.len().max(1);
    let mut matches = 0u64;

    let (first, second) = match algorithm {
        Algorithm::Nop | Algorithm::Nopa => {
            // The global table: one partition of zero radix bits.
            let kind = match algorithm {
                Algorithm::Nop => TableKind::Linear,
                _ => TableKind::Array,
            };
            let table = PartTable {
                kind,
                bits: 0,
                domain,
            };
            let mut built = table.unbuilt();
            table.build(&mut built, r.len(), once(r.tuples()), &mut ms);
            let first = ms.reset_counters();
            built.probe_batch(s.tuples(), UNIQUE, &mut ms, |_, _| matches += 1);
            (first, ms.reset_counters())
        }
        Algorithm::Chtj => {
            // CHTJ: bitmap (8n positions) + interleaved prefix + dense
            // array. The bulkload is replayed as its address pattern;
            // probes touch the bitmap group then the dense array slot —
            // the "two random accesses per operation" of the paper.
            let n = r.len().max(1);
            let positions = (n * 8).next_power_of_two();
            let groups = vec![0u64; positions / 64 * 2];
            let array = vec![Tuple::new(0, 0); n];
            let hash = |k: u32| {
                let x = k.wrapping_mul(2_654_435_761);
                ((x ^ (x >> 16)) as usize) & (positions - 1)
            };
            for (cursor, t) in r.tuples().iter().enumerate() {
                ms.read(t as *const Tuple as usize, 8);
                let pos = hash(t.key);
                ms.write(groups.as_ptr() as usize + pos / 64 * 16, 8);
                ms.write(array.as_ptr() as usize + cursor * 8, 8);
                ms.ops(7);
            }
            let first = ms.reset_counters();
            // The real (untraced) table answers the probes so `matches`
            // is exact; the traced addresses are the model's.
            let table = ConciseHashTable::<MultiplicativeHash>::build(r.tuples(), 1);
            for t in s.tuples() {
                ms.read(t as *const Tuple as usize, 8);
                let pos = hash(t.key);
                ms.read(groups.as_ptr() as usize + pos / 64 * 16, 8);
                let approx_rank = (pos as u64 * n as u64 / positions as u64) as usize;
                ms.read(array.as_ptr() as usize + approx_rank.min(n - 1) * 8, 8);
                ms.ops(8);
                table.probe(t.key, |_| matches += 1);
            }
            (first, ms.reset_counters())
        }
        Algorithm::Mway => {
            let f = RadixFn::new(bits.min(6));
            let pr = traced_scatter(r.tuples(), f, true, &mut ms);
            let ps = traced_scatter(s.tuples(), f, true, &mut ms);
            let mut sorted_r: Vec<Vec<u64>> = Vec::new();
            let mut sorted_s: Vec<Vec<u64>> = Vec::new();
            for p in 0..f.fanout() {
                sorted_r.push(traced_sort(&pr.0[pr.1[p]..pr.1[p + 1]], &mut ms));
                sorted_s.push(traced_sort(&ps.0[ps.1[p]..ps.1[p + 1]], &mut ms));
            }
            let first = ms.reset_counters();
            for p in 0..f.fanout() {
                matches += traced_merge_join(&sorted_r[p], &sorted_s[p], &mut ms);
            }
            (first, ms.reset_counters())
        }
        Algorithm::Prb => {
            // Two unbuffered passes (the second re-reads pass-1 output).
            let b1 = bits / 2;
            let p1r = traced_scatter(r.tuples(), RadixFn::new(b1), false, &mut ms);
            let pr = traced_scatter(&p1r.0, RadixFn::new(bits), false, &mut ms);
            let p1s = traced_scatter(s.tuples(), RadixFn::new(b1), false, &mut ms);
            let ps = traced_scatter(&p1s.0, RadixFn::new(bits), false, &mut ms);
            let first = ms.reset_counters();
            let table = PartTable {
                kind: TableKind::Chained,
                bits,
                domain,
            };
            matches = traced_partition_join(table, &pr, &ps, &mut ms);
            (first, ms.reset_counters())
        }
        _ => {
            // PRO family and CPR family: one buffered pass (the chunked
            // variant's per-chunk scatter has the same single-thread
            // trace), then per-partition joins.
            let kind = match algorithm {
                Algorithm::Pro | Algorithm::ProIs => TableKind::Chained,
                Algorithm::Prl | Algorithm::PrlIs | Algorithm::Cprl => TableKind::Linear,
                _ => TableKind::Array,
            };
            let f = RadixFn::new(bits);
            let pr = traced_scatter(r.tuples(), f, true, &mut ms);
            let ps = traced_scatter(s.tuples(), f, true, &mut ms);
            let first = ms.reset_counters();
            let table = PartTable { kind, bits, domain };
            matches = traced_partition_join(table, &pr, &ps, &mut ms);
            (first, ms.reset_counters())
        }
    };

    InstrumentedRun {
        algorithm,
        first,
        second,
        matches,
    }
}

/// Traced bottom-up mergesort (each pass streams the data once).
fn traced_sort(tuples: &[Tuple], ms: &mut MemSim) -> Vec<u64> {
    let mut packed: Vec<u64> = tuples.iter().map(|t| t.pack()).collect();
    let n = packed.len();
    if n > 1 {
        let passes = (n as f64).log2().ceil() as u64;
        for _ in 0..passes {
            for i in 0..n {
                ms.read(packed.as_ptr() as usize + i * 8, 8);
                ms.write(packed.as_ptr() as usize + i * 8, 8);
                ms.ops(3);
            }
        }
    }
    packed.sort_unstable();
    packed
}

fn traced_merge_join(rs: &[u64], ss: &[u64], ms: &mut MemSim) -> u64 {
    let (mut i, mut j, mut m) = (0usize, 0usize, 0u64);
    while i < rs.len() && j < ss.len() {
        ms.read(rs.as_ptr() as usize + i * 8, 8);
        ms.read(ss.as_ptr() as usize + j * 8, 8);
        ms.ops(3);
        let rk = rs[i] >> 32;
        let sk = ss[j] >> 32;
        if rk < sk {
            i += 1;
        } else if sk < rk {
            j += 1;
        } else {
            // Dense unique build keys: one match per probe tuple.
            m += 1;
            j += 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    /// Scale factor for caches/pages. The workload below is the paper's
    /// |R|=128M / |S|=1280M divided by ~1280; using a cache scale of 512
    /// keeps every structure-vs-cache ratio within ~2.5x of the real
    /// machine's, preserving the miss-rate relationships Table 4 reports.
    const SCALE: usize = 512;
    /// Radix bits such that a per-partition table fits the scaled L2
    /// (40k tuples x 16 B / 2^11 = 312 B <= 512 B).
    const BITS: u32 = 11;

    fn workload() -> (Relation, Relation) {
        let r = gen_build_dense(40_000, 1, Placement::Interleaved);
        let s = gen_probe_fk(400_000, 40_000, 2, Placement::Interleaved);
        (r, s)
    }

    #[test]
    fn partitioned_join_phase_beats_nop_on_locality() {
        let (r, s) = workload();
        let pro = instrument(Algorithm::Pro, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        let nop = instrument(Algorithm::Nop, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        assert_eq!(pro.matches, 400_000);
        assert_eq!(nop.matches, 400_000);
        // Table 4's central claim: the partitioned join phase is far more
        // cache-local than NOP's probe into a giant global table.
        assert!(
            pro.second.l2_hit_rate() > nop.second.l2_hit_rate(),
            "PRO {} vs NOP {}",
            pro.second.l2_hit_rate(),
            nop.second.l2_hit_rate()
        );
        assert!(
            nop.second.l3_misses > 2 * pro.second.l3_misses,
            "NOP {} vs PRO {}",
            nop.second.l3_misses,
            pro.second.l3_misses
        );
        // ...and pays for it with more total instructions (partitioning).
        assert!(pro.first.ops > nop.first.ops);
    }

    #[test]
    fn chtj_touches_more_than_nop_per_probe() {
        let (r, s) = workload();
        let chtj = instrument(
            Algorithm::Chtj,
            &r,
            &s,
            SCALE,
            PageConfig::huge(SCALE),
            BITS,
        );
        let nop = instrument(Algorithm::Nop, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        assert_eq!(chtj.matches, 400_000);
        // Two random structures per probe => more probe-phase misses.
        assert!(
            chtj.second.l3_misses > nop.second.l3_misses,
            "CHTJ {} vs NOP {}",
            chtj.second.l3_misses,
            nop.second.l3_misses
        );
    }

    /// CHTJ's matches are counted by the table CHTJ runs. The stand-in
    /// this replaced — a linear table under identity hashing, one
    /// collision run over dense keys — walked |R|/2 slots a probe: more
    /// than a minute of an optimized build at this size, where the
    /// replay takes a second or two of an unoptimized one.
    #[test]
    fn chtj_arm_is_linear_in_its_input() {
        let r = gen_build_dense(128 << 10, 3, Placement::Interleaved);
        let s = gen_probe_fk(10 * r.len(), r.len(), 4, Placement::Interleaved);
        let probes = s.len() as u64;
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let page = PageConfig::huge(SCALE);
            let run = instrument(Algorithm::Chtj, &r, &s, SCALE, page, BITS);
            tx.send(run.matches).expect("the test waits for it");
        });
        let matches = rx
            .recv_timeout(std::time::Duration::from_secs(7))
            .expect("instrument(Chtj) within the limit");
        watched.join().expect("sent, so it did not panic");
        assert_eq!(matches, probes);
    }

    #[test]
    fn prb_tlb_inversion_with_huge_pages() {
        // The Figure 8 mechanism: PRB (128 partitions/pass, unbuffered)
        // fits a 256-entry small-page TLB but thrashes 32 huge-page
        // entries in the partition phase.
        let (r, s) = workload();
        let small = instrument(Algorithm::Prb, &r, &s, SCALE, PageConfig::small(SCALE), 14);
        let huge = instrument(Algorithm::Prb, &r, &s, SCALE, PageConfig::huge(SCALE), 14);
        assert_eq!(small.matches, huge.matches);
        assert!(
            huge.first.tlb_misses > small.first.tlb_misses,
            "huge {} vs small {}",
            huge.first.tlb_misses,
            small.first.tlb_misses
        );
    }

    #[test]
    fn swwcb_cuts_scatter_tlb_misses() {
        // PRO (buffered) vs PRB (unbuffered) partitioning under huge
        // pages: write combining divides TLB pressure by the tuples per
        // cache line.
        let (r, s) = workload();
        let pro = instrument(Algorithm::Pro, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        let prb = instrument(Algorithm::Prb, &r, &s, SCALE, PageConfig::huge(SCALE), 14);
        assert!(
            prb.first.tlb_misses > pro.first.tlb_misses,
            "PRB {} vs PRO {}",
            prb.first.tlb_misses,
            pro.first.tlb_misses
        );
    }

    #[test]
    fn array_join_fewer_ops_than_hash_join() {
        let (r, s) = workload();
        let pra = instrument(Algorithm::Pra, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        let pro = instrument(Algorithm::Pro, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        assert_eq!(pra.matches, pro.matches);
        assert!(pra.second.ops < pro.second.ops);
    }

    #[test]
    fn prl_join_phase_probes_a_constant_number_of_slots() {
        // Dense keys under identity hashing: hashed above the partition
        // digits, a probe finds its key at (or right next to) its home
        // slot. One read of the probe tuple plus the slots it visits.
        let (r, s) = workload();
        let prl = instrument(Algorithm::Prl, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        assert_eq!(prl.matches, 400_000);
        let build_reads = 2 * r.len() as u64; // tuple + home slot, at least
        let per_probe = (prl.second.accesses - build_reads) as f64 / s.len() as f64;
        assert!(per_probe < 4.0, "{per_probe} accesses a probe");
        // Level with the chained table's join phase, not a scan of the
        // partition per probe.
        let pro = instrument(Algorithm::Pro, &r, &s, SCALE, PageConfig::huge(SCALE), BITS);
        assert!(prl.second.ops < 2 * pro.second.ops);
    }

    #[test]
    fn mway_join_phase_is_streaming() {
        let (r, s) = workload();
        let mway = instrument(Algorithm::Mway, &r, &s, SCALE, PageConfig::huge(SCALE), 6);
        assert_eq!(mway.matches, 400_000);
        // Merge-join misses are tiny relative to accesses (sequential).
        let rate = mway.second.l3_misses as f64 / mway.second.accesses.max(1) as f64;
        assert!(rate < 0.2, "merge-join L3 miss rate {rate}");
    }
}

//! Workload generators for the join study.
//!
//! All previous join papers (and this study, Section 7.1) share one
//! workload convention, which we reproduce exactly:
//!
//! * The **build relation R** has *dense, unique* keys `1..=|R|` in random
//!   order (an auto-increment primary key), payload = row id.
//! * The **probe relation S** has keys drawn from R's key domain (a foreign
//!   key), uniformly by default.
//! * Skewed probes draw keys from a Zipf distribution generated with the
//!   algorithm of Gray et al. (SIGMOD'94), with the 10 hottest keys
//!   remapped to random positions in the domain (Appendix A).
//! * "Holes" workloads (Appendix C) draw |R| distinct keys from a domain
//!   `k·|R|` to study array joins on non-dense domains.
//!
//! The build generators record that their keys are unique, so
//! `Relation::unique_keys` answers for them without a pass; the probe
//! generators record nothing.
//!
//! Everything is deterministic in the seed.

pub mod fk;
pub mod sparse;
pub mod zipf;

pub use fk::{gen_probe_fk, gen_probe_of_keys};
pub use sparse::gen_build_sparse;
pub use zipf::{gen_probe_zipf, Zipf};

use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::{Placement, Relation, Tuple};

/// Generate the canonical build relation: keys `1..=n` shuffled, payload =
/// 0-based row id of the tuple *before* shuffling (i.e. `key - 1`), which
/// is what late-materialization joins use to fetch other attributes.
pub fn gen_build_dense(n: usize, seed: u64, placement: Placement) -> Relation {
    let mut r = Relation::from_fn(n, placement, |i| Tuple::new(i as u32 + 1, i as u32));
    Xoshiro256::new(seed).shuffle(r.tuples_mut());
    r.with_unique_keys()
}

/// Generate a build relation whose payloads are themselves foreign keys
/// into a second build relation's domain: keys `1..=n` shuffled, payload
/// uniform in `1..=link_domain`. This is the middle table of a two-join
/// chain `(R1 ⋈ S) ⋈ R2 ON R1.payload = R2.key` — the shape the fused
/// pipeline (`mmjoin_core::pipeline`) executes without materializing the
/// intermediate. Payloads start at 1 (never 0, the hash tables' EMPTY
/// sentinel) so every stage-one match produces a probeable stage-two key.
pub fn gen_build_linked(n: usize, link_domain: usize, seed: u64, placement: Placement) -> Relation {
    let domain = link_domain.max(1) as u64;
    let mut rng = Xoshiro256::new(seed);
    let mut r = Relation::from_fn(n, placement, |i| {
        Tuple::new(i as u32 + 1, rng.below(domain) as u32 + 1)
    });
    rng.shuffle(r.tuples_mut());
    r.with_unique_keys()
}

/// Generate a build relation *in key order* (not shuffled): models
/// TPC-H's `Part` table, which is generated sorted by its primary key
/// (Section 8 notes this gives NOPA an ideal sequential build pattern).
pub fn gen_build_sorted(n: usize, placement: Placement) -> Relation {
    Relation::from_fn(n, placement, |i| Tuple::new(i as u32 + 1, i as u32)).with_unique_keys()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_build_has_all_keys_once() {
        let r = gen_build_dense(1000, 42, Placement::Interleaved);
        let mut seen = vec![false; 1001];
        for t in r.tuples() {
            assert!(t.key >= 1 && t.key <= 1000);
            assert!(!seen[t.key as usize], "duplicate key {}", t.key);
            seen[t.key as usize] = true;
            assert_eq!(t.payload, t.key - 1);
        }
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn dense_build_is_shuffled() {
        let r = gen_build_dense(1000, 42, Placement::Interleaved);
        let in_order = r.tuples().windows(2).all(|w| w[0].key < w[1].key);
        assert!(!in_order);
    }

    #[test]
    fn dense_build_deterministic() {
        let a = gen_build_dense(100, 7, Placement::Interleaved);
        let b = gen_build_dense(100, 7, Placement::Interleaved);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn sorted_build_is_sorted() {
        let r = gen_build_sorted(100, Placement::Interleaved);
        assert!(r.tuples().windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn linked_build_payloads_stay_in_domain() {
        let r = gen_build_linked(1000, 250, 9, Placement::Interleaved);
        let mut seen = vec![false; 1001];
        for t in r.tuples() {
            assert!(t.key >= 1 && t.key <= 1000);
            assert!(!seen[t.key as usize], "duplicate key {}", t.key);
            seen[t.key as usize] = true;
            assert!(t.payload >= 1 && t.payload <= 250, "payload {}", t.payload);
        }
        let a = gen_build_linked(100, 50, 3, Placement::Interleaved);
        let b = gen_build_linked(100, 50, 3, Placement::Interleaved);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn build_relations_are_recorded_unique() {
        let p = Placement::Interleaved;
        assert!(gen_build_dense(1000, 1, p).unique_keys());
        assert!(gen_build_sorted(1000, p).unique_keys());
        assert!(gen_build_linked(1000, 10, 2, p).unique_keys());
        assert!(gen_build_sparse(1000, 8000, 3, p).0.unique_keys());
        assert!(!gen_probe_fk(1000, 100, 4, p).unique_keys());
    }

    /// Every generator writes its relation in place. These digests were
    /// taken from the construction that built a `Vec` and copied it
    /// into the relation: the random draws keep their order, so every
    /// seed gives the same tuples.
    #[test]
    fn in_place_generation_gives_every_seed_its_old_tuples() {
        fn digest(r: &Relation) -> u64 {
            r.tuples().iter().fold(0, |h: u64, t| {
                (h.rotate_left(29) ^ t.pack()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            })
        }
        let p = Placement::Chunked { parts: 3 };
        let pins: [(u64, [u64; 6]); 3] = [
            (
                1,
                [
                    0x757373f1881e5b82,
                    0xa2ec444c65b78099,
                    0xc9b5c6f6b034de74,
                    0x08bf5abc6582cec6,
                    0x2cfba12314d80be9,
                    0x51231e6a3714bd18,
                ],
            ),
            (
                7,
                [
                    0x506be647a0c22acc,
                    0xe8c24ba9e4e54052,
                    0xb1fba0f89de5c28b,
                    0xa1829cf4ffaab8e4,
                    0xdb7bd782e149ec2c,
                    0x3621dc22cf114ad4,
                ],
            ),
            (
                42,
                [
                    0xf023bc60ef812e25,
                    0xcfe37a75b99104d3,
                    0x0a2ad7ebb7722dec,
                    0xbebb4b628a1288b3,
                    0x0acadc7da6c03cbc,
                    0xca3c39748211e006,
                ],
            ),
        ];
        for (seed, want) in pins {
            let got = [
                digest(&gen_build_dense(10_000, seed, p)),
                digest(&gen_build_linked(10_000, 700, seed, p)),
                digest(&gen_build_sparse(5_000, 40_000, seed, p).0),
                digest(&gen_probe_fk(20_000, 10_000, seed, p)),
                digest(&gen_probe_of_keys(20_000, &[3, 9, 27, 81, 243], seed, p)),
                digest(&gen_probe_zipf(20_000, 10_000, 0.9, seed, p)),
            ];
            assert_eq!(
                got, want,
                "seed {seed}: dense, linked, sparse, fk, of_keys, zipf"
            );
        }
        assert_eq!(digest(&gen_build_sorted(10_000, p)), 0x6585ed38fda546e5);
    }

    #[test]
    fn empty_relations() {
        assert_eq!(gen_build_dense(0, 1, Placement::Interleaved).len(), 0);
        assert_eq!(gen_build_sorted(0, Placement::Interleaved).len(), 0);
    }
}

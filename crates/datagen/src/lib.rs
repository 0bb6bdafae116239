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
    let mut tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(i as u32 + 1, i as u32)).collect();
    let mut rng = Xoshiro256::new(seed);
    rng.shuffle(&mut tuples);
    Relation::from_unique_tuples(&tuples, placement)
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
    let mut tuples: Vec<Tuple> = (0..n)
        .map(|i| Tuple::new(i as u32 + 1, rng.below(domain) as u32 + 1))
        .collect();
    rng.shuffle(&mut tuples);
    Relation::from_unique_tuples(&tuples, placement)
}

/// Generate a build relation *in key order* (not shuffled): models
/// TPC-H's `Part` table, which is generated sorted by its primary key
/// (Section 8 notes this gives NOPA an ideal sequential build pattern).
pub fn gen_build_sorted(n: usize, placement: Placement) -> Relation {
    let tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(i as u32 + 1, i as u32)).collect();
    Relation::from_unique_tuples(&tuples, placement)
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

    #[test]
    fn empty_relations() {
        assert_eq!(gen_build_dense(0, 1, Placement::Interleaved).len(), 0);
        assert_eq!(gen_build_sorted(0, Placement::Interleaved).len(), 0);
    }
}

//! Column-store TPC-H tables (the columns Q19 touches), Listing 2.
//!
//! `Part` is generated *in primary-key order* (TPC-H dbgen emits it
//! sorted by `p_partkey`) — the detail that hands NOPA its ideal
//! sequential build pattern in Section 8. `Lineitem.l_partkey` is a
//! uniform foreign key into `Part`.
//!
//! The pre-join predicate columns (`l_shipmode`, `l_shipinstruct`) are
//! generated so the pushed-down selection has exactly the requested
//! selectivity (the paper's Q19 plan filters Lineitem down to 3.57%);
//! Appendix E sweeps this knob to 100%.

use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::tuple::Tuple;

use crate::dict;

/// `<key, rowid>` pairs for the key columns, so the join implementations
/// run unmodified (Section 8: "All foreign and primary key columns are
/// represented as <Key, Payload> pairs with the row ID as the payload").
pub type KeyCol = Vec<Tuple>;

/// The Q19 columns of Lineitem (struct of arrays).
pub struct LineitemTable {
    pub l_extendedprice: Vec<f32>,
    pub l_discount: Vec<f32>,
    pub l_partkey: KeyCol,
    pub l_quantity: Vec<u32>,
    pub l_shipmode: Vec<u8>,
    pub l_shipinstruct: Vec<u8>,
}

impl LineitemTable {
    pub fn len(&self) -> usize {
        self.l_partkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.l_partkey.is_empty()
    }

    /// What a qualifying row adds to Q19's aggregate:
    /// `l_extendedprice · (1 − l_discount)`.
    #[inline]
    pub fn revenue(&self, row: usize) -> f64 {
        self.l_extendedprice[row] as f64 * (1.0 - self.l_discount[row] as f64)
    }

    /// The pushed-down Q19 selection (Listing 3, `preJoin`).
    #[inline]
    pub fn pre_join(&self, row: usize) -> bool {
        self.l_shipinstruct[row] == dict::DELIVER_IN_PERSON
            && (self.l_shipmode[row] == dict::AIR || self.l_shipmode[row] == dict::AIR_REG)
    }
}

/// The Q19 columns of Part.
pub struct PartTable {
    pub p_partkey: KeyCol,
    pub p_brand: Vec<u8>,
    pub p_container: Vec<u8>,
    pub p_size: Vec<u32>,
}

impl PartTable {
    pub fn len(&self) -> usize {
        self.p_partkey.len()
    }

    pub fn is_empty(&self) -> bool {
        self.p_partkey.is_empty()
    }
}

/// The post-join Q19 predicate (Listing 3, `postJoin`): three
/// brand/container/quantity/size disjuncts.
#[inline]
pub fn post_join(l: &LineitemTable, p: &PartTable, l_row: usize, p_row: usize) -> bool {
    post_join_parts_only(p, p_row, l.l_quantity[l_row])
}

/// The same predicate with Lineitem's only contribution (`l_quantity`)
/// passed by value — the form used by the early-materialization executor
/// (`crate::strategies`), which carries the quantity inside the
/// partitioned probe record instead of reconstructing it by row id.
#[inline]
pub fn post_join_parts_only(p: &PartTable, p_row: usize, quantity: u32) -> bool {
    let brand = p.p_brand[p_row];
    let container = p.p_container[p_row];
    let size = p.p_size[p_row];
    // Dictionary codes of the container literals (branch on compressed
    // codes, not strings — Listing 3). SM/MED/LG are size rows 0/1/2 of
    // the container matrix; CASE/BOX/BAG/PKG/PACK are shape columns
    // 0/1/2/4/5.
    let sm = |c: u8| matches!(c, 0 | 1 | 4 | 5); // SM CASE/BOX/PKG/PACK
    let med = |c: u8| matches!(c, 9 | 10 | 12 | 13); // MED BOX/BAG/PKG/PACK
    let lg = |c: u8| matches!(c, 16 | 17 | 20 | 21); // LG CASE/BOX/PKG/PACK
    (brand == dict::BRAND12
        && sm(container)
        && (1..=11).contains(&quantity)
        && (1..=5).contains(&size))
        || (brand == dict::BRAND23
            && med(container)
            && (10..=20).contains(&quantity)
            && (1..=10).contains(&size))
        || (brand == dict::BRAND34
            && lg(container)
            && (20..=30).contains(&quantity)
            && (1..=15).contains(&size))
}

/// Generation parameters.
#[derive(Copy, Clone, Debug)]
pub struct GenParams {
    /// TPC-H scale factor: Part = 200k·SF rows, Lineitem = 6M·SF rows.
    pub scale_factor: f64,
    /// Selectivity of the pushed-down Lineitem selection. The paper's
    /// plan yields 3.57%.
    pub pre_selectivity: f64,
    pub seed: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            scale_factor: 1.0,
            pre_selectivity: 0.0357,
            seed: 0x71C9,
        }
    }
}

/// Generate the two tables.
///
/// To make the pre-join selectivity exactly sweepable to 100%
/// (Appendix E), both predicate columns are biased by `sqrt(selectivity)`
/// (their product is the selection's selectivity); the non-qualifying
/// probability mass keeps TPC-H's uniform shape over the remaining codes.
pub fn generate_tables(params: &GenParams) -> (PartTable, LineitemTable) {
    let n_parts = (200_000.0 * params.scale_factor).round().max(1.0) as usize;
    let n_lines = (6_000_000.0 * params.scale_factor).round().max(1.0) as usize;
    let mut rng = Xoshiro256::new(params.seed);

    let part = PartTable {
        p_partkey: (0..n_parts)
            .map(|i| Tuple::new(i as u32 + 1, i as u32))
            .collect(),
        p_brand: (0..n_parts)
            .map(|_| (rng.below(dict::NUM_BRANDS as u64)) as u8)
            .collect(),
        p_container: (0..n_parts)
            .map(|_| (rng.below(dict::NUM_CONTAINERS as u64)) as u8)
            .collect(),
        p_size: (0..n_parts).map(|_| rng.below(50) as u32 + 1).collect(),
    };

    let p_factor = params.pre_selectivity.clamp(0.0, 1.0).sqrt();
    let lineitem = LineitemTable {
        l_extendedprice: (0..n_lines)
            .map(|_| 900.0 + rng.next_f64() as f32 * 99_100.0)
            .collect(),
        l_discount: (0..n_lines)
            .map(|_| (rng.below(11) as f32) / 100.0)
            .collect(),
        l_partkey: (0..n_lines)
            .map(|i| Tuple::new(rng.below(n_parts as u64) as u32 + 1, i as u32))
            .collect(),
        l_quantity: (0..n_lines).map(|_| rng.below(50) as u32 + 1).collect(),
        l_shipmode: (0..n_lines)
            .map(|_| {
                if rng.next_f64() < p_factor {
                    // Qualifying modes, split between the two.
                    if rng.next_f64() < 0.5 {
                        dict::AIR
                    } else {
                        dict::AIR_REG
                    }
                } else {
                    // Non-qualifying modes (codes 2..7).
                    (2 + rng.below(5)) as u8
                }
            })
            .collect(),
        l_shipinstruct: (0..n_lines)
            .map(|_| {
                if rng.next_f64() < p_factor {
                    dict::DELIVER_IN_PERSON
                } else {
                    (1 + rng.below(3)) as u8
                }
            })
            .collect(),
    };
    (part, lineitem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> GenParams {
        GenParams {
            scale_factor: 0.01, // 2k parts, 60k lineitems
            ..GenParams::default()
        }
    }

    #[test]
    fn sizes_scale() {
        let (p, l) = generate_tables(&small_params());
        assert_eq!(p.len(), 2_000);
        assert_eq!(l.len(), 60_000);
    }

    #[test]
    fn part_keys_dense_and_sorted() {
        let (p, _) = generate_tables(&small_params());
        for (i, t) in p.p_partkey.iter().enumerate() {
            assert_eq!(t.key, i as u32 + 1);
            assert_eq!(t.payload, i as u32);
        }
    }

    #[test]
    fn foreign_keys_in_domain() {
        let (p, l) = generate_tables(&small_params());
        assert!(l
            .l_partkey
            .iter()
            .all(|t| t.key >= 1 && t.key as usize <= p.len()));
    }

    #[test]
    fn pre_selectivity_close_to_requested() {
        let (_, l) = generate_tables(&GenParams {
            scale_factor: 0.05,
            pre_selectivity: 0.0357,
            seed: 3,
        });
        let selected = (0..l.len()).filter(|&i| l.pre_join(i)).count();
        let sel = selected as f64 / l.len() as f64;
        assert!(
            (sel - 0.0357).abs() < 0.005,
            "selectivity {sel} vs requested 0.0357"
        );
    }

    #[test]
    fn full_selectivity_selects_everything() {
        let (_, l) = generate_tables(&GenParams {
            scale_factor: 0.005,
            pre_selectivity: 1.0,
            seed: 4,
        });
        assert!((0..l.len()).all(|i| l.pre_join(i)));
    }

    #[test]
    fn post_join_fires_occasionally() {
        let (p, l) = generate_tables(&small_params());
        let mut hits = 0;
        for row in 0..l.len() {
            let p_row = (l.l_partkey[row].key - 1) as usize;
            if post_join(&l, &p, row, p_row) {
                hits += 1;
            }
        }
        // Three disjuncts, each roughly (1/25)·(4/40)·(11/50)·(size range
        // /50): small but non-zero on 60k rows.
        assert!(hits > 0, "post-join predicate never fired");
        assert!(hits < l.len() / 50, "post-join predicate fires too often");
    }

    #[test]
    fn deterministic_generation() {
        let (p1, l1) = generate_tables(&small_params());
        let (p2, l2) = generate_tables(&small_params());
        assert_eq!(p1.p_brand, p2.p_brand);
        assert_eq!(l1.l_quantity, l2.l_quantity);
        assert_eq!(l1.l_partkey, l2.l_partkey);
    }
}

//! PRB — the basic two-pass parallel radix join (Balkesen et al., as
//! shipped: no software write-combine buffers, no streaming stores).
//!
//! Two passes of 7 bits each keep the per-pass fanout (128) under the
//! 4 KB-page TLB capacity (256 entries) — which is also why PRB is the
//! one algorithm that gets *slower* with 2 MB pages and their 32 TLB
//! entries (Figure 8).

use mmjoin_partition::ScatterMode;
use mmjoin_util::Relation;

use crate::config::{JoinConfig, TableKind};
use crate::plan::JoinError;
use crate::pro::{two_pass_join, PartTable};
use crate::stats::JoinResult;
use crate::Algorithm;

/// Default PRB configuration: 2 × 7 bits.
const PRB_DEFAULT_BITS: u32 = 14;

/// PRB: two-pass radix partitioning (direct scatter), chained tables,
/// sequential task order.
pub(crate) fn join_prb(
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinResult, JoinError> {
    let table = PartTable {
        kind: TableKind::Chained,
        bits: cfg.radix_bits.unwrap_or(PRB_DEFAULT_BITS).max(2),
        domain: cfg.domain(r.len()),
    };
    two_pass_join(Algorithm::Prb, r, s, cfg, table, ScatterMode::Direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_join;
    use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
    use mmjoin_util::Placement;

    #[test]
    fn prb_matches_reference() {
        let n = 5_000;
        let r = gen_build_dense(n, 11, Placement::Chunked { parts: 4 });
        let s = gen_probe_fk(n * 4, n, 12, Placement::Chunked { parts: 4 });
        let expect = reference_join(&r, &s);
        for threads in [1, 4] {
            let mut cfg = JoinConfig::new(threads);
            cfg.simulate = false;
            cfg.radix_bits = Some(8);
            let res = join_prb(&r, &s, &cfg).unwrap();
            assert_eq!(res.matches, expect.count, "threads={threads}");
            assert_eq!(res.checksum, expect.digest);
        }
    }

    #[test]
    fn default_bits_is_fourteen() {
        let r = gen_build_dense(500, 1, Placement::Interleaved);
        let s = gen_probe_fk(500, 500, 2, Placement::Interleaved);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        let res = join_prb(&r, &s, &cfg).unwrap();
        assert_eq!(res.radix_bits, Some(14));
    }

    #[test]
    fn odd_total_bits_split() {
        let r = gen_build_dense(1_000, 3, Placement::Interleaved);
        let s = gen_probe_fk(2_000, 1_000, 4, Placement::Interleaved);
        let expect = reference_join(&r, &s);
        let mut cfg = JoinConfig::new(2);
        cfg.simulate = false;
        cfg.radix_bits = Some(7); // 3 + 4
        let res = join_prb(&r, &s, &cfg).unwrap();
        assert_eq!(res.matches, expect.count);
        assert_eq!(res.checksum, expect.digest);
    }
}

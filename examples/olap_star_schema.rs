//! Domain scenario 1: a star-schema OLAP fact-to-dimension join — the
//! workload that motivates the paper's 1:10 size ratio ("in a star
//! schema, often used in OLAP applications, the dimension tables are
//! typically much smaller than the fact table").
//!
//! We model a `sales` fact table joining a `customer` dimension, compare
//! a no-partitioning and a partition-based join, and use the NUMA cost
//! model to pick the better one for the (simulated) machine — i.e. a
//! miniature cost-based join-picker, the practitioner guidance of
//! Section 9 turned into code.
//!
//! ```text
//! cargo run --release --example olap_star_schema
//! ```

use mmjoin::core::{Algorithm, Join, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_probe_zipf};
use mmjoin::util::Placement;

fn main() {
    let customers = 400_000; // dimension (dense surrogate keys)
    let sales = 4_000_000; // fact table rows
    let threads = 4;
    let placement = Placement::Chunked { parts: threads };

    println!("star schema: customer({customers}) ⋈ sales({sales})");
    println!("sales.customer_id is Zipf-skewed (loyal customers buy more)\n");

    // Moderate real-world skew on the foreign key.
    let dim = gen_build_dense(customers, 7, placement);
    let fact = gen_probe_zipf(sales, customers, 0.5, 8, placement);

    let mut cfg = JoinConfig::new(threads);
    cfg.sim_threads = Some(32);
    cfg.probe_theta = 0.5;

    println!(
        "{:<22} {:>14} {:>16} {:>10}",
        "plan", "sim time [ms]", "throughput[Mtps]", "matches"
    );
    let mut best: Option<(Algorithm, f64)> = None;
    for alg in [
        Algorithm::Nopa,
        Algorithm::Nop,
        Algorithm::Cpra,
        Algorithm::PraIs,
    ] {
        let res = Join::new(alg)
            .with_config(cfg.clone())
            .run(&dim, &fact)
            .expect("valid plan");
        let t = res.total_sim();
        println!(
            "{:<22} {:>14.2} {:>16.0} {:>10}",
            alg.name(),
            t * 1e3,
            res.sim_throughput_mtps(dim.len(), fact.len()),
            res.matches
        );
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((alg, t));
        }
    }
    let (winner, _) = best.unwrap();
    println!(
        "\ncost-model pick for this machine & workload: {}",
        winner.name()
    );
    println!("(lesson 7: with dense surrogate keys, array joins are hard to beat)");
}

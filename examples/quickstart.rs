//! Quickstart: run every one of the thirteen join algorithms on the
//! study's canonical workload and print a leaderboard.
//!
//! ```text
//! cargo run --release --example quickstart [r_tuples] [s_tuples] [threads]
//! ```

use mmjoin::core::{Algorithm, Join, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::Placement;

fn main() {
    let mut args = std::env::args().skip(1);
    let r_n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500_000);
    let s_n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(r_n * 10);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("mmjoin quickstart: |R| = {r_n}, |S| = {s_n}, {threads} threads");
    println!("(dense primary keys 1..=|R|, uniform foreign-key probe — Section 7.1)\n");

    let placement = Placement::Chunked { parts: threads };
    let r = gen_build_dense(r_n, 42, placement);
    let s = gen_probe_fk(s_n, r_n, 43, placement);

    let mut cfg = JoinConfig::new(threads);
    cfg.sim_threads = Some(32); // evaluate on the paper's 32-thread setup

    let mut rows: Vec<(String, f64, f64, u64)> = Vec::new();
    for alg in Algorithm::ALL {
        let res = Join::new(alg)
            .with_config(cfg.clone())
            .run(&r, &s)
            .expect("valid plan");
        rows.push((
            alg.name().to_string(),
            res.sim_throughput_mtps(r.len(), s.len()),
            res.total_wall().as_secs_f64() * 1e3,
            res.matches,
        ));
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!(
        "{:<7} {:>22} {:>14} {:>12}",
        "algo", "sim throughput [Mtps]", "wall [ms]", "matches"
    );
    for (name, tput, wall, matches) in &rows {
        println!("{name:<7} {tput:>22.0} {wall:>14.1} {matches:>12}");
    }
    println!("\nAll algorithms must report the same match count — they do: ");
    assert!(rows.iter().all(|r| r.3 == rows[0].3));
    println!("✓ {} matches each", rows[0].3);
}

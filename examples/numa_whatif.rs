//! Domain scenario 3: "what-if" capacity planning with the NUMA cost
//! model — how would my join behave on a machine I don't have?
//!
//! The simulator answers the questions the paper's appendices study:
//! how does throughput scale with threads (Fig. 16), what does SMT do,
//! and what does suboptimal task scheduling cost (Fig. 6/7) — all
//! without owning a 4-socket box.
//!
//! ```text
//! cargo run --release --example numa_whatif
//! ```

use mmjoin::core::{Algorithm, Join, JoinConfig};
use mmjoin::datagen::{gen_build_dense, gen_probe_fk};
use mmjoin::util::Placement;

fn main() {
    let r_n = 1 << 20;
    let s_n = r_n * 10;
    let host_threads = 4;
    let placement = Placement::Chunked {
        parts: host_threads,
    };
    let r = gen_build_dense(r_n, 1, placement);
    let s = gen_probe_fk(s_n, r_n, 2, placement);

    println!("what-if: CPRL vs NOP on the paper's 4-socket machine, varying threads\n");
    println!(
        "{:>8} {:>16} {:>16} {:>12}",
        "threads", "CPRL [Mtps]", "NOP [Mtps]", "CPRL/NOP"
    );
    // A join on `host_threads` workers, costed for `sim_threads` of the
    // paper's machine.
    let plan = |alg, sim_threads| {
        let mut cfg = JoinConfig::new(host_threads);
        cfg.sim_threads = Some(sim_threads);
        Join::new(alg)
            .with_config(cfg)
            .run(&r, &s)
            .expect("valid plan")
    };
    for sim_threads in [4usize, 8, 16, 32, 60, 120] {
        let cprl = plan(Algorithm::Cprl, sim_threads);
        let nop = plan(Algorithm::Nop, sim_threads);
        let a = cprl.sim_throughput_mtps(r.len(), s.len());
        let b = nop.sim_throughput_mtps(r.len(), s.len());
        let smt = if sim_threads > 60 { " (SMT)" } else { "" };
        println!("{sim_threads:>8} {a:>16.0} {b:>16.0} {:>11.2}x{smt}", a / b);
    }

    println!("\nwhat-if: what does bad task scheduling cost PRO? (Fig. 6/7)");
    let pro = plan(Algorithm::Pro, 60);
    let prois = plan(Algorithm::ProIs, 60);
    println!(
        "  PRO   join phase: {:>8.2} ms (sequential task order, one hot node)",
        pro.sim_of("join") * 1e3
    );
    println!(
        "  PROiS join phase: {:>8.2} ms (NUMA round-robin, all controllers busy)",
        prois.sim_of("join") * 1e3
    );
    println!(
        "  speedup from scheduling alone: {:.2}x",
        pro.sim_of("join") / prois.sim_of("join")
    );
}

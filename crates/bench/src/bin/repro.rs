//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment>... [--scale N] [--threads N] [--sim-threads N] [--json]
//! repro all
//! repro list
//! ```

use mmjoin_bench::experiments::registry;
use mmjoin_bench::HarnessOpts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, rest) = match HarnessOpts::parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let reg = registry();

    if rest.is_empty()
        || rest
            .iter()
            .any(|a| a == "list" || a == "--help" || a == "-h")
    {
        eprintln!(
            "usage: repro <experiment>... [--scale N] [--threads N] [--sim-threads N] [--json]"
        );
        eprintln!("experiments:");
        for (name, desc, _) in &reg {
            eprintln!("  {name:<8} {desc}");
        }
        eprintln!("  all      run everything");
        std::process::exit(if rest.is_empty() { 2 } else { 0 });
    }

    let wanted: Vec<&str> = if rest.iter().any(|a| a == "all") {
        reg.iter().map(|(n, _, _)| *n).collect()
    } else {
        rest.iter().map(String::as_str).collect()
    };

    eprintln!(
        "# mmjoin repro — scale 1/{}, {} host threads, {} simulated threads",
        opts.scale, opts.threads, opts.sim_threads
    );
    let mut all_tables = Vec::new();
    for name in wanted {
        let Some((_, desc, f)) = reg.iter().find(|(n, _, _)| *n == name) else {
            eprintln!("unknown experiment: {name} (try `repro list`)");
            std::process::exit(2);
        };
        eprintln!("\n=== {name}: {desc} ===");
        let start = std::time::Instant::now();
        let tables = f(&opts);
        for t in &tables {
            t.print();
        }
        eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
        all_tables.extend(tables);
    }
    if opts.json {
        println!(
            "{{\"meta\": {}, \"tables\": {}}}",
            mmjoin_bench::harness::meta_json(),
            mmjoin_bench::harness::tables_to_json(&all_tables)
        );
    }
}

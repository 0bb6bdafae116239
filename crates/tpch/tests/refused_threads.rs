//! A thread count `JoinConfig::validate` refuses stops every Q19 entry
//! point before it has a pool. The counts are the test thread's own
//! (`Executor::threads_spawned_here`), so no other test's pool moves them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mmjoin_core::Executor;
use mmjoin_tpch::morph::run_morph;
use mmjoin_tpch::strategies::run_q19_cprl_early;
use mmjoin_tpch::{generate_tables, run_q19, GenParams, Q19Join};

#[test]
fn refused_thread_count_panics_naming_threads_and_spawns_nothing() {
    let (p, l) = generate_tables(&GenParams {
        scale_factor: 0.001,
        ..GenParams::default()
    });
    let spawned = Executor::threads_spawned_here();
    let refused = |what: &str, run: &dyn Fn()| {
        let panic = catch_unwind(AssertUnwindSafe(run)).expect_err(what);
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("threads"), "{what}: {message}");
        assert_eq!(Executor::threads_spawned_here(), spawned, "{what}");
    };
    for join in Q19Join::ALL {
        refused(join.name(), &|| {
            run_q19(join, &p, &l, 5000);
        });
    }
    refused("early", &|| {
        run_q19_cprl_early(&p, &l, 5000);
    });
    refused("morph", &|| {
        run_morph(&p, &l, 5000);
    });
    // An accepted count runs on this thread's pool of that many workers,
    // spawned once.
    run_q19(Q19Join::Cprl, &p, &l, 3);
    assert_eq!(Executor::threads_spawned_here(), spawned + 3);
    run_q19(Q19Join::Nop, &p, &l, 3);
    assert_eq!(Executor::threads_spawned_here(), spawned + 3);
}

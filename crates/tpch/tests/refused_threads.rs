//! A thread count `JoinConfig::validate` refuses stops every Q19 entry
//! point before it has a pool: alone in its binary, so that no other
//! test's executor moves the process-wide spawn count.

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
    let spawned = Executor::total_threads_spawned();
    let refused = |what: &str, run: &dyn Fn()| {
        let panic = catch_unwind(AssertUnwindSafe(run)).expect_err(what);
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("threads"), "{what}: {message}");
        assert_eq!(Executor::total_threads_spawned(), spawned, "{what}");
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
    // An accepted count runs on the shared pool of that many workers.
    run_q19(Q19Join::Cprl, &p, &l, 3);
    assert_eq!(Executor::total_threads_spawned(), spawned + 3);
}

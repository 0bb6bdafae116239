//! Property-based tests on the NUMA phase simulator: physical sanity
//! invariants that must hold for any task mix.

use proptest::prelude::*;

use mmjoin::numamodel::{simulate_phase, CostModel, TaskSpec, Topology};

fn task_strategy(nodes: usize) -> impl Strategy<Value = TaskSpec> {
    (
        prop::collection::vec(0.0f64..1e8, nodes),
        prop::collection::vec(0.0f64..1e5, nodes),
        0.0f64..1e6,
        0usize..nodes,
    )
        .prop_map(move |(streams, randoms, cpu, home)| {
            let mut t = TaskSpec::new(nodes);
            for (n, &b) in streams.iter().enumerate() {
                t.stream(n, b);
            }
            for (n, &r) in randoms.iter().enumerate() {
                t.random(n, r);
            }
            t.cpu(cpu);
            t.on_node(home);
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn makespan_bounds(
        tasks in prop::collection::vec(task_strategy(4), 1..24),
        threads in 1usize..64,
    ) {
        let topo = Topology::paper_machine();
        let model = CostModel::paper_machine();
        let order: Vec<usize> = (0..tasks.len()).collect();
        let sim = simulate_phase(&topo, &model, threads, &tasks, &order, false);

        // Lower bound: total bytes over aggregate peak bandwidth
        // (random accesses cost 2 cache lines of DRAM bandwidth each).
        let total_bytes: f64 = tasks
            .iter()
            .map(|t| {
                t.total_stream_bytes()
                    + t.random_accesses.iter().sum::<f64>() * 128.0
            })
            .sum();
        let agg_bw = model.node_bandwidth * topo.nodes as f64;
        prop_assert!(
            sim.duration + 1e-12 >= total_bytes / agg_bw,
            "makespan {} below bandwidth bound {}",
            sim.duration,
            total_bytes / agg_bw
        );

        // Upper bound: strictly serial execution on the slowest path.
        let serial: f64 = tasks
            .iter()
            .map(|t| {
                let bytes = t.total_stream_bytes()
                    + t.random_accesses.iter().sum::<f64>() * 128.0;
                let stall = t.cpu_ops * model.cpu_op * model.smt_penalty
                    + t.random_accesses.iter().sum::<f64>() * model.remote_latency / model.mlp
                    + t.tlb_misses * model.tlb_miss;
                bytes / model.link_bandwidth.min(model.node_bandwidth) + stall
            })
            .sum();
        prop_assert!(
            sim.duration <= serial * (1.0 + 1e-9) + 1e-12,
            "makespan {} above serial bound {}",
            sim.duration,
            serial
        );

        // Node busy time integrates to exactly the bytes served.
        for n in 0..topo.nodes {
            let node_bytes: f64 = tasks
                .iter()
                .map(|t| t.stream_bytes[n] + t.random_accesses[n] * 128.0)
                .sum();
            let served = sim.node_busy[n] * model.node_bandwidth;
            prop_assert!(
                (served - node_bytes).abs() <= node_bytes.max(1.0) * 1e-6,
                "node {n}: served {served} vs demanded {node_bytes}"
            );
        }
    }

    #[test]
    fn more_threads_never_hurt_without_smt(
        tasks in prop::collection::vec(task_strategy(4), 1..16),
    ) {
        let topo = Topology::paper_machine();
        let model = CostModel::paper_machine();
        let order: Vec<usize> = (0..tasks.len()).collect();
        let t2 = simulate_phase(&topo, &model, 2, &tasks, &order, false).duration;
        let t8 = simulate_phase(&topo, &model, 8, &tasks, &order, false).duration;
        // Greedy list scheduling with bandwidth coupling admits small
        // anomalies; what must not happen is more threads making the
        // phase materially slower.
        prop_assert!(t8 <= t2 * 1.15 + 1e-12, "{t8} > {t2}");
    }

    #[test]
    fn all_tasks_finish(
        tasks in prop::collection::vec(task_strategy(3), 1..12),
        threads in 1usize..8,
    ) {
        let mut topo = Topology::paper_machine();
        topo.nodes = 3;
        let model = CostModel::paper_machine();
        let order: Vec<usize> = (0..tasks.len()).collect();
        let sim = simulate_phase(&topo, &model, threads, &tasks, &order, false);
        prop_assert_eq!(sim.task_finish.len(), tasks.len());
        for (i, &f) in sim.task_finish.iter().enumerate() {
            prop_assert!(f <= sim.duration + 1e-12, "task {i} finishes after the phase");
        }
    }
}

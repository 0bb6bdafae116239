//! Event-driven phase simulator with per-node bandwidth contention.
//!
//! Given the [`TaskSpec`]s of one barrier-delimited phase and a task order,
//! the simulator executes them on `threads` simulated workers:
//!
//! * Each worker runs one task at a time and pulls the next task from the
//!   queue in the given order when it finishes (exactly the LIFO/FIFO task
//!   queues of the PR*/CPR* join phases).
//! * A task streams its per-node byte demands concurrently from/to all
//!   nodes. At any instant, a node's bandwidth is split evenly among the
//!   active tasks using it; remote streams are additionally capped by the
//!   interconnect link bandwidth (shared by tasks on the same (home, node)
//!   link).
//! * Random accesses contribute both latency (overlapped by the MLP
//!   factor, drained as "stall time" concurrently with the streams) and
//!   cache-line-sized bandwidth demand.
//! * Running more threads than physical cores applies the SMT penalty to
//!   the compute/stall component (shared execution resources), which is
//!   what flattens the curves beyond 60 threads in Figure 16.
//!
//! The output contains the phase makespan, per-node busy fractions and,
//! when asked for, a utilization timeline — Figure 6's bandwidth profiles
//! fall directly out of the timeline.

use crate::cost::CostModel;
use crate::task::TaskSpec;
use crate::topology::{Topology, MAX_NODES};

const EPS: f64 = 1e-12;

/// One timeline interval with per-node bandwidth utilization in `[0,1]`.
#[derive(Clone, Debug)]
pub struct TimelineInterval {
    pub start: f64,
    pub len: f64,
    pub node_util: Vec<f64>,
}

/// Result of simulating one phase.
#[derive(Clone, Debug)]
pub struct PhaseSim {
    /// Phase makespan in seconds (barrier-to-barrier).
    pub duration: f64,
    /// Per-node busy time in seconds (integral of utilization).
    pub node_busy: Vec<f64>,
    /// Utilization timeline (one entry per simulator event interval);
    /// empty unless the caller asked `simulate_phase` to keep it.
    pub timeline: Vec<TimelineInterval>,
    /// Completion time of every task, indexed like the input.
    pub task_finish: Vec<f64>,
}

impl PhaseSim {
    /// An empty phase.
    pub fn empty(nodes: usize) -> Self {
        PhaseSim {
            duration: 0.0,
            node_busy: vec![0.0; nodes],
            timeline: Vec::new(),
            task_finish: Vec::new(),
        }
    }

    /// Downsample the timeline into `buckets` equal time buckets of mean
    /// per-node utilization (for printing Figure 6-style profiles).
    pub fn bucketed_utilization(&self, buckets: usize) -> Vec<Vec<f64>> {
        let nodes = self.node_busy.len();
        let mut out = vec![vec![0.0; nodes]; buckets];
        if self.duration <= 0.0 || buckets == 0 {
            return out;
        }
        let bucket_len = self.duration / buckets as f64;
        for iv in &self.timeline {
            let mut t = iv.start;
            let end = iv.start + iv.len;
            while t < end - EPS {
                let b = ((t / bucket_len) as usize).min(buckets - 1);
                let bucket_end = (b as f64 + 1.0) * bucket_len;
                let seg = (end.min(bucket_end) - t).max(0.0);
                for (o, u) in out[b].iter_mut().zip(&iv.node_util) {
                    *o += u * seg / bucket_len;
                }
                t += seg.max(EPS);
            }
        }
        out
    }
}

/// A running task, all inline: starting one allocates nothing.
struct ActiveTask {
    idx: usize,
    remaining_stall: f64,
    home: usize,
    /// Bytes still to move against each node.
    remaining_bytes: [f64; MAX_NODES],
    /// Its streams: the nodes whose bytes are above `EPS`, ascending, in
    /// `live[..streams]`, and the rate each moves at in this event.
    live: [u8; MAX_NODES],
    rate: [f64; MAX_NODES],
    streams: usize,
}

/// Who moves bytes right now: per-node memory-controller users, plus
/// per-socket interconnect egress users. Every remote stream of a task
/// homed on socket `h` shares socket `h`'s interconnect capacity — this
/// is what makes remote-heavy access patterns (PRO's scatter, spread-out
/// reads) slower than node-local ones even at equal per-node byte
/// totals.
struct Users {
    node: [u32; MAX_NODES],
    egress: [u32; MAX_NODES],
}

impl ActiveTask {
    /// Keep of `live[..streams]` the nodes that still have bytes to
    /// move, and count them among the `users`.
    #[inline]
    fn recount(&mut self, users: &mut Users) {
        let mut kept = 0;
        for i in 0..self.streams {
            let n = self.live[i] as usize;
            if self.remaining_bytes[n] > EPS {
                self.live[kept] = n as u8;
                kept += 1;
                users.node[n] += 1;
                if n != self.home {
                    users.egress[self.home] += 1;
                }
            }
        }
        self.streams = kept;
    }
}

/// Simulate one phase. `order` indexes into `tasks` and defines queue
/// order; workers pull from the front. If `order` is shorter than `tasks`,
/// remaining tasks are ignored (useful for ablation). The utilization
/// timeline is recorded only if `keep_timeline` (Figure 6); every other
/// output is the same either way.
///
/// The event loop allocates nothing per event or per task, and an event
/// visits the streams that are live, not every node of every task: a
/// join phase of 2^14 co-partition tasks is ~2^15 events, and it runs
/// inside every join that has the cost model on.
pub fn simulate_phase(
    topo: &Topology,
    model: &CostModel,
    threads: usize,
    tasks: &[TaskSpec],
    order: &[usize],
    keep_timeline: bool,
) -> PhaseSim {
    let nodes = topo.nodes;
    let threads = threads.max(1);
    let smt_factor = if topo.uses_smt(threads) {
        model.smt_penalty
    } else {
        1.0
    };

    let mut sim = PhaseSim::empty(nodes);
    sim.task_finish = vec![0.0; tasks.len()];
    let mut queue = order.iter().copied();
    let slots = threads.min(order.len());
    let mut active: Vec<ActiveTask> = Vec::with_capacity(slots);
    let mut users = Users {
        node: [0; MAX_NODES],
        egress: [0; MAX_NODES],
    };
    let mut util = vec![0.0_f64; nodes];
    let mut now = 0.0_f64;
    // A node's bandwidth split `k` ways, a socket's link split `k` ways:
    // looked up, the divisions stay off the event-to-event latency chain.
    let node_share: Vec<f64> = (0..=slots)
        .map(|k| model.node_bandwidth / k as f64)
        .collect();
    let link_share: Vec<f64> = (0..=slots * nodes)
        .map(|k| model.link_bandwidth / k as f64)
        .collect();

    // Start task `idx` on worker `slot`, in place; its streams join the
    // `users`.
    let activate = |a: &mut ActiveTask, idx: usize, slot: usize, users: &mut Users| {
        let t = &tasks[idx];
        a.idx = idx;
        a.home = t.home_node.unwrap_or_else(|| topo.node_of_thread(slot));
        // A spec describes the machine it is simulated on: `nodes` demands.
        a.remaining_bytes[..nodes].copy_from_slice(&t.stream_bytes);
        a.remaining_stall = t.cpu_ops * model.cpu_op;
        for (n, &cnt) in t.random_accesses.iter().enumerate() {
            if cnt > 0.0 {
                // Random cache-line reads cost ~2x their bytes in DRAM
                // bandwidth (row activation, no open-row streaming) — the
                // effect that bandwidth-saturates NOP's probe phase at
                // high thread counts (Table 3's sublinear NOP scaling).
                a.remaining_bytes[n] += cnt * mmjoin_util::CACHE_LINE as f64 * 2.0;
                a.remaining_stall += model.random_access_time(cnt, n != a.home);
            }
        }
        a.remaining_stall += t.tlb_misses * model.tlb_miss;
        a.remaining_stall *= smt_factor;
        a.live = std::array::from_fn(|n| n as u8);
        a.streams = nodes;
        a.recount(users);
    };

    // Fill initial workers.
    for slot in 0..slots {
        let idx = queue.next().expect("one slot per queued task at most");
        active.push(ActiveTask {
            idx,
            remaining_stall: 0.0,
            home: 0,
            remaining_bytes: [0.0; MAX_NODES],
            live: [0; MAX_NODES],
            rate: [0.0; MAX_NODES],
            streams: 0,
        });
        activate(&mut active[slot], idx, slot, &mut users);
    }

    let mut guard = 0usize;
    let guard_max = (tasks.len() + threads) * 64 + 1024;
    while !active.is_empty() {
        guard += 1;
        assert!(guard < guard_max, "simulator failed to converge");

        // This event's rates — a node's bandwidth split among its users,
        // a remote stream capped by its share of the link — and the next
        // event: soonest completion of any byte stream or stall.
        let mut dt = f64::INFINITY;
        for a in &mut active {
            if a.remaining_stall > EPS {
                dt = dt.min(a.remaining_stall);
            }
            for i in 0..a.streams {
                let n = a.live[i] as usize;
                let share = node_share[users.node[n] as usize];
                let rate = if n == a.home {
                    share
                } else {
                    share.min(link_share[users.egress[a.home] as usize])
                };
                a.rate[i] = rate;
                if rate > 0.0 {
                    dt = dt.min(a.remaining_bytes[n] / rate);
                }
            }
        }
        if !dt.is_finite() {
            // All active tasks are already complete (zero-work tasks).
            dt = 0.0;
        }

        // Advance by `dt`: utilization over the interval, what is left
        // of every stream and stall, and who still streams after it.
        util.fill(0.0);
        users.node = [0; MAX_NODES];
        users.egress = [0; MAX_NODES];
        for a in &mut active {
            if a.remaining_stall > EPS {
                a.remaining_stall = (a.remaining_stall - dt).max(0.0);
            }
            for i in 0..a.streams {
                let (n, rate) = (a.live[i] as usize, a.rate[i]);
                if rate > 0.0 {
                    util[n] += rate / model.node_bandwidth;
                    a.remaining_bytes[n] = (a.remaining_bytes[n] - rate * dt).max(0.0);
                }
            }
            a.recount(&mut users);
        }
        if dt > 0.0 {
            for (busy, u) in sim.node_busy.iter_mut().zip(&util) {
                *busy += u * dt;
            }
            if keep_timeline {
                sim.timeline.push(TimelineInterval {
                    start: now,
                    len: dt,
                    node_util: util.clone(),
                });
            }
        }
        now += dt;

        // Retire finished tasks, pull replacements.
        let mut slot = 0;
        while slot < active.len() {
            if active[slot].remaining_stall > EPS || active[slot].streams > 0 {
                slot += 1;
                continue;
            }
            sim.task_finish[active[slot].idx] = now;
            if let Some(next) = queue.next() {
                activate(&mut active[slot], next, slot, &mut users);
                slot += 1;
            } else {
                active.swap_remove(slot);
            }
        }
    }

    sim.duration = now;
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Topology, CostModel) {
        (Topology::paper_machine(), CostModel::paper_machine())
    }

    fn stream_task(topo: &Topology, node: usize, bytes: f64, home: usize) -> TaskSpec {
        let mut t = TaskSpec::new(topo.nodes);
        t.stream(node, bytes).on_node(home);
        t
    }

    #[test]
    fn single_local_stream_time() {
        let (topo, model) = setup();
        let bytes = 1e9;
        let task = stream_task(&topo, 0, bytes, 0);
        let sim = simulate_phase(&topo, &model, 1, &[task], &[0], false);
        let expected = bytes / model.node_bandwidth;
        assert!((sim.duration - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn remote_stream_is_link_capped() {
        let (topo, model) = setup();
        let bytes = 1e9;
        let task = stream_task(&topo, 1, bytes, 0);
        let sim = simulate_phase(&topo, &model, 1, &[task], &[0], false);
        let expected = bytes / model.link_bandwidth;
        assert!((sim.duration - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn contention_halves_bandwidth() {
        let (topo, model) = setup();
        let bytes = 1e9;
        // Two tasks on the same node at the same time.
        let tasks = vec![
            stream_task(&topo, 0, bytes, 0),
            stream_task(&topo, 0, bytes, 0),
        ];
        let sim = simulate_phase(&topo, &model, 2, &tasks, &[0, 1], false);
        let expected = 2.0 * bytes / model.node_bandwidth;
        assert!((sim.duration - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn separate_nodes_run_in_parallel() {
        let (topo, model) = setup();
        let bytes = 1e9;
        let tasks = vec![
            stream_task(&topo, 0, bytes, 0),
            stream_task(&topo, 1, bytes, 1),
        ];
        let sim = simulate_phase(&topo, &model, 2, &tasks, &[0, 1], false);
        let expected = bytes / model.node_bandwidth;
        assert!((sim.duration - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn queue_order_matters_for_node_hotspots() {
        // 8 tasks, 2 on each node-resident partition; 4 threads.
        // Sequential order processes same-node tasks together (hotspot),
        // round-robin order spreads them. Round-robin must be faster —
        // this is exactly the PRO vs PROiS scheduling effect.
        let (topo, model) = setup();
        let bytes = 1e8;
        let mut tasks = Vec::new();
        for node in 0..4 {
            for _ in 0..2 {
                // home == data node would be free of contention; pin all
                // homes distinct from data to stress memory controllers.
                tasks.push(stream_task(&topo, node, bytes, node));
            }
        }
        let sequential: Vec<usize> = (0..8).collect(); // 0,0,1,1,2,2,3,3 node order
        let round_robin: Vec<usize> = vec![0, 2, 4, 6, 1, 3, 5, 7];
        let s = simulate_phase(&topo, &model, 4, &tasks, &sequential, false);
        let r = simulate_phase(&topo, &model, 4, &tasks, &round_robin, false);
        assert!(
            r.duration < s.duration * 0.75,
            "round robin {} vs sequential {}",
            r.duration,
            s.duration
        );
    }

    #[test]
    fn stall_only_task() {
        let (topo, model) = setup();
        let mut t = TaskSpec::new(topo.nodes);
        t.cpu(1e6).on_node(0);
        let sim = simulate_phase(&topo, &model, 1, &[t], &[0], false);
        let expected = 1e6 * model.cpu_op;
        assert!((sim.duration - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn smt_penalty_applies_beyond_physical_cores() {
        let (topo, model) = setup();
        let mk = || {
            let mut t = TaskSpec::new(topo.nodes);
            t.cpu(1e6);
            t
        };
        let tasks60: Vec<TaskSpec> = (0..60).map(|_| mk()).collect();
        let tasks120: Vec<TaskSpec> = (0..120).map(|_| mk()).collect();
        let o60: Vec<usize> = (0..60).collect();
        let o120: Vec<usize> = (0..120).collect();
        let s60 = simulate_phase(&topo, &model, 60, &tasks60, &o60, false);
        let s120 = simulate_phase(&topo, &model, 120, &tasks120, &o120, false);
        // 120 threads do 2x the CPU work but with the SMT penalty, so the
        // makespan must be worse than the 60-thread run of half the work.
        assert!(s120.duration > s60.duration);
    }

    #[test]
    fn zero_work_tasks_terminate() {
        let (topo, model) = setup();
        let tasks = vec![TaskSpec::new(topo.nodes), TaskSpec::new(topo.nodes)];
        let sim = simulate_phase(&topo, &model, 2, &tasks, &[0, 1], false);
        assert_eq!(sim.duration, 0.0);
    }

    #[test]
    fn timeline_integrates_to_busy_time() {
        let (topo, model) = setup();
        let tasks = vec![stream_task(&topo, 0, 1e9, 0), stream_task(&topo, 1, 5e8, 1)];
        let sim = simulate_phase(&topo, &model, 2, &tasks, &[0, 1], true);
        let mut integral = vec![0.0; topo.nodes];
        for iv in &sim.timeline {
            for (acc, u) in integral.iter_mut().zip(&iv.node_util) {
                *acc += u * iv.len;
            }
        }
        for (acc, busy) in integral.iter().zip(&sim.node_busy) {
            assert!((acc - busy).abs() < 1e-9);
        }
        // Node 0 moved 1e9 bytes at full bw => busy 1e9/bw seconds.
        let expect0 = 1e9 / model.node_bandwidth;
        assert!((sim.node_busy[0] - expect0).abs() / expect0 < 1e-9);
    }

    #[test]
    fn bucketed_utilization_shapes() {
        let (topo, model) = setup();
        // One long task on node 0, then one on node 1 (single worker).
        let tasks = vec![stream_task(&topo, 0, 1e9, 0), stream_task(&topo, 1, 1e9, 1)];
        let sim = simulate_phase(&topo, &model, 1, &tasks, &[0, 1], true);
        let b = sim.bucketed_utilization(10);
        // First half: node 0 busy; second half: node 1 busy.
        assert!(b[0][0] > 0.9 && b[0][1] < 0.1);
        assert!(b[9][1] > 0.9 && b[9][0] < 0.1);
    }

    #[test]
    fn more_threads_is_not_slower_for_parallel_work() {
        let (topo, model) = setup();
        let mk = |node: usize| stream_task(&topo, node, 1e8, node);
        let tasks: Vec<TaskSpec> = (0..16).map(|i| mk(i % 4)).collect();
        let order: Vec<usize> = (0..16).collect();
        let t1 = simulate_phase(&topo, &model, 1, &tasks, &order, false).duration;
        let t4 = simulate_phase(&topo, &model, 4, &tasks, &order, false).duration;
        let t16 = simulate_phase(&topo, &model, 16, &tasks, &order, false).duration;
        assert!(t4 < t1);
        assert!(t16 <= t4 + 1e-12);
    }
}

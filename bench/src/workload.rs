//! A workload's inputs and request schedule, made from `--seed` alone.
//! The program under test sees only the generated relations and the
//! request frames.

use mmjoin_core::pipeline::PORTED;
use mmjoin_core::reference::reference_join;
use mmjoin_core::Algorithm;
use mmjoin_datagen::{gen_build_dense, gen_probe_fk};
use mmjoin_util::checksum::JoinChecksum;
use mmjoin_util::rng::Xoshiro256;
use mmjoin_util::{Placement, Relation};

use crate::spec::{Workload, JOIN_THREADS};

/// The service joins interactive-sized relations: a probe side of
/// `|S| / 16` rows against a build side of `|R|` rows, capped.
pub const SERVICE_PROBE_DIVISOR: usize = 16;

/// Cap on the service's build side. At 5 Mi rows the shipped server
/// defaults leave the regime the window is meant to measure: NOP's
/// 128 MiB table exceeds admission's 121 MiB estimate, so every NOP
/// request degrades to the spilling join, and the six cached build
/// sides (about 600 MB) cycle through the 256 MiB LRU. That yields some
/// 75 requests per window, whose percentiles pick between modes
/// (README, "Program findings"). 2 Mi rows is the largest power of two
/// whose six build sides fit the cache.
pub const SERVICE_BUILD_CAP: usize = 2 << 20;

pub struct Inputs {
    pub r: Relation,
    pub s: Relation,
    /// What the server holds as relations `r` and `s`; it regenerates
    /// them from these row counts and the seeds below, over the wire.
    pub r_svc: Relation,
    pub s_svc: Relation,
    pub r_seed: u64,
    pub s_seed: u64,
}

fn placement() -> Placement {
    Placement::Chunked {
        parts: JOIN_THREADS,
    }
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    // Seeds cross the wire as JSON numbers: keep them exact in an f64.
    let base = seed % (1 << 40);
    let (r_seed, s_seed) = (2 * base + 1, 2 * base + 2);
    let svc_build = w.build_rows.min(SERVICE_BUILD_CAP);
    let svc_probe = w.probe_rows / SERVICE_PROBE_DIVISOR;
    Inputs {
        r: gen_build_dense(w.build_rows, r_seed, placement()),
        s: gen_probe_fk(w.probe_rows, w.build_rows, s_seed, placement()),
        r_svc: gen_build_dense(svc_build, r_seed, placement()),
        s_svc: gen_probe_fk(svc_probe, svc_build, s_seed, placement()),
        r_seed,
        s_seed,
    }
}

/// What every rep and every response is compared against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expected {
    pub matches: u64,
    pub checksum: u64,
}

impl From<JoinChecksum> for Expected {
    fn from(c: JoinChecksum) -> Expected {
        Expected {
            matches: c.count,
            checksum: c.digest,
        }
    }
}

/// Reference results for the join window and the service window, one
/// thread each: `reference_join` is
/// single-threaded and the two share nothing.
pub fn reference(inputs: &Inputs) -> (Expected, Expected) {
    std::thread::scope(|sc| {
        let svc = sc.spawn(|| reference_join(&inputs.r_svc, &inputs.s_svc));
        let full = reference_join(&inputs.r, &inputs.s);
        let svc = svc.join().expect("reference thread");
        (full.into(), svc.into())
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Cached build side, pipeline-ported algorithm.
    Hot,
    /// `cache:false`, monolithic driver: builds per request.
    Cold,
    /// Tenant whose budget forces the degrade-to-SHHJ-and-spill path.
    Tight,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Hot, Class::Cold, Class::Tight];

    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Cold => "cold",
            Class::Tight => "tight",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Req {
    pub class: Class,
    pub algo: Algorithm,
}

impl Req {
    /// The request frame's payload.
    pub fn payload(&self, id: u64) -> String {
        let (tenant, cache) = match self.class {
            Class::Hot => ("default", true),
            Class::Cold => ("default", false),
            Class::Tight => (TIGHT_TENANT, false),
        };
        format!(
            "{{\"op\":\"join\",\"id\":{id},\"tenant\":\"{tenant}\",\"algo\":\"{}\",\
             \"build\":\"r\",\"probe\":\"s\",\"cache\":{cache}}}",
            self.algo.name()
        )
    }
}

pub const TIGHT_TENANT: &str = "tight";

const COLD: [Algorithm; 4] = [
    Algorithm::Cprl,
    Algorithm::Prb,
    Algorithm::Cpra,
    Algorithm::PrlIs,
];

/// The fixed 20-request mix: 14 hot (the six ported algorithms in
/// rotation), 4 cold, 2 tight. 10 % tight puts p95 inside the
/// degrade-and-spill class and p50 inside the hot class by construction.
pub fn multiset() -> Vec<Req> {
    let mut v = Vec::with_capacity(20);
    for i in 0..14 {
        v.push(Req {
            class: Class::Hot,
            algo: PORTED[i % PORTED.len()],
        });
    }
    for algo in COLD {
        v.push(Req {
            class: Class::Cold,
            algo,
        });
    }
    for _ in 0..2 {
        v.push(Req {
            class: Class::Tight,
            algo: Algorithm::Pro,
        });
    }
    v
}

/// An endless walk over seeded shuffles of [`multiset`], one per client.
pub struct Schedule {
    rng: Xoshiro256,
    cycle: Vec<Req>,
    next: usize,
}

impl Schedule {
    pub fn new(seed: u64, client: usize) -> Schedule {
        Schedule {
            rng: Xoshiro256::new(seed ^ (0x5EED_0000 + client as u64)),
            cycle: Vec::new(),
            next: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.next == self.cycle.len() {
            self.cycle = multiset();
            self.rng.shuffle(&mut self.cycle);
            self.next = 0;
        }
        self.next += 1;
        Some(self.cycle[self.next - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_has_the_stated_mix() {
        let m = multiset();
        assert_eq!(m.len(), 20);
        let count = |c| m.iter().filter(|r| r.class == c).count();
        assert_eq!(
            (count(Class::Hot), count(Class::Cold), count(Class::Tight)),
            (14, 4, 2)
        );
        for r in &m {
            assert_eq!(
                r.class == Class::Hot,
                mmjoin_core::pipeline::is_ported(r.algo) && r.class != Class::Tight
            );
        }
    }

    #[test]
    fn every_cycle_of_the_schedule_is_a_permutation_of_the_multiset() {
        let key = |r: &Req| (r.class, r.algo.name());
        let mut want = multiset();
        want.sort_by_key(key);
        let mut sched = Schedule::new(7, 1);
        let mut cycles = Vec::new();
        for _ in 0..3 {
            let cycle: Vec<Req> = sched.by_ref().take(20).collect();
            let mut sorted = cycle.clone();
            sorted.sort_by_key(key);
            assert_eq!(sorted, want);
            cycles.push(cycle);
        }
        // Shuffled, and reshuffled each cycle.
        assert_ne!(cycles[0], multiset());
        assert_ne!(cycles[0], cycles[1]);
        // Same seed and client: same walk. Other client: another walk.
        let again: Vec<Req> = Schedule::new(7, 1).take(20).collect();
        assert_eq!(again, cycles[0]);
        let other: Vec<Req> = Schedule::new(7, 0).take(20).collect();
        assert_ne!(other, cycles[0]);
    }

    #[test]
    fn payload_is_a_request_the_server_parses() {
        let req = Req {
            class: Class::Tight,
            algo: Algorithm::Pro,
        };
        let env = mmjoin_serve::protocol::parse_request(req.payload(9).as_bytes()).unwrap();
        assert_eq!(env.tenant, TIGHT_TENANT);
        assert_eq!(env.id, Some(9.0));
    }

    #[test]
    fn service_relations_are_what_the_server_regenerates() {
        let w = Workload {
            name: "t",
            why: "",
            build_rows: 1000,
            probe_rows: 1600,
        };
        let inputs = generate(&w, 5);
        // What `Catalog::load` does with the load requests' fields.
        let build = gen_build_dense(1000, inputs.r_seed, placement());
        let probe = gen_probe_fk(100, 1000, inputs.s_seed, placement());
        assert_eq!(inputs.r_svc.tuples(), build.tuples());
        assert_eq!(inputs.s_svc.tuples(), probe.tuples());
        // Below the cap the service joins the workload's own R.
        assert_eq!(inputs.r_svc.tuples(), inputs.r.tuples());
        let (full, svc) = reference(&inputs);
        assert_eq!(full.matches, 1600);
        assert_eq!(svc.matches, 100);
    }
}

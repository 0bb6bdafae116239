//! The phase simulator against goldens recorded before its event loop
//! was rewritten to allocate nothing: a seeded grid whose `duration`,
//! `task_finish`, `node_busy` and timeline must equal, to the bit, what
//! the allocating loop computed. Every simulated number in
//! EXPERIMENTS.md rests on this function, so a faster simulator must be
//! the same simulator.
//!
//! `MMJOIN_PRINT_GOLDENS=1 cargo test -p mmjoin-numamodel --test
//! sim_golden -- --nocapture` prints the table in source form.

use mmjoin_numamodel::sim::PhaseSim;
use mmjoin_numamodel::{simulate_phase, CostModel, TaskSpec, Topology};
use mmjoin_util::rng::Xoshiro256;

const THREADS: [usize; 5] = [1, 2, 7, 32, 120];
const NODES: [usize; 2] = [1, 4];

/// FNV-1a over the bit patterns.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(duration bits, task_finish, node_busy, timeline, timeline length)`.
type Golden = (u64, u64, u64, u64, usize);

fn golden(sim: &PhaseSim) -> Golden {
    let timeline = sim.timeline.iter().flat_map(|iv| {
        [iv.start, iv.len]
            .into_iter()
            .chain(iv.node_util.iter().copied())
    });
    (
        sim.duration.to_bits(),
        digest(sim.task_finish.iter().copied()),
        digest(sim.node_busy.iter().copied()),
        digest(timeline),
        sim.timeline.len(),
    )
}

/// The task counts of one thread count: none, one, one fewer and one
/// more than there are workers, and PRB's 2^14.
fn task_counts(threads: usize) -> [usize; 5] {
    [0, 1, threads - 1, threads + 1, 1 << 14]
}

/// Seeded tasks: streams against one node, two nodes or interleaved,
/// random accesses, CPU and TLB work; every seventh task does nothing
/// at all and every fifth only stalls. `pinned` homes every task on a
/// node; otherwise the worker slot decides.
fn tasks(n: usize, nodes: usize, pinned: bool, rng: &mut Xoshiro256) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let mut t = TaskSpec::new(nodes);
            if pinned {
                t.on_node(rng.below(nodes as u64) as usize);
            }
            if i % 7 == 3 {
                return t;
            }
            t.cpu(rng.below(4_000) as f64).tlb(rng.below(50) as f64);
            if i % 5 == 1 {
                return t;
            }
            let bytes = (1 + rng.below(1 << 18)) as f64;
            match rng.below(3) {
                0 => t.stream(rng.below(nodes as u64) as usize, bytes),
                1 => t
                    .stream(rng.below(nodes as u64) as usize, bytes)
                    .stream(rng.below(nodes as u64) as usize, bytes / 3.0),
                _ => t.stream_interleaved(bytes),
            };
            match rng.below(4) {
                0 => t.random(rng.below(nodes as u64) as usize, rng.below(900) as f64),
                1 => t.random_interleaved(rng.below(900) as f64),
                _ => &mut t,
            };
            t
        })
        .collect()
}

/// The grid, case by case in a fixed order: `f(label, sim with timeline,
/// sim without)`.
fn for_each_case(mut f: impl FnMut(String, PhaseSim, PhaseSim)) {
    let model = CostModel::paper_machine();
    for nodes in NODES {
        let mut topo = Topology::paper_machine();
        topo.nodes = nodes;
        for threads in THREADS {
            for n in task_counts(threads) {
                for pinned in [false, true] {
                    let seed =
                        (nodes * 1_000_003 + threads * 1_009 + n * 2 + pinned as usize) as u64;
                    let mut rng = Xoshiro256::new(seed);
                    let tasks = tasks(n, nodes, pinned, &mut rng);
                    // A shuffled queue; every third case leaves the last
                    // eighth of its tasks out of it.
                    let mut order: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut order);
                    if matches!(seed % 3, 0) {
                        order.truncate(n - n / 8);
                    }
                    let label =
                        format!("nodes={nodes} threads={threads} tasks={n} pinned={pinned}");
                    let kept = simulate_phase(&topo, &model, threads, &tasks, &order, true);
                    let plain = simulate_phase(&topo, &model, threads, &tasks, &order, false);
                    f(label, kept, plain);
                }
            }
        }
    }
}

#[test]
fn simulated_numbers_equal_the_recorded_goldens_to_the_bit() {
    if std::env::var_os("MMJOIN_PRINT_GOLDENS").is_some() {
        for_each_case(|label, kept, _| println!("    {:?}, // {label}", golden(&kept)));
        return;
    }
    let mut goldens = GOLDENS.iter();
    for_each_case(|label, kept, plain| {
        let want = goldens.next().expect("one golden per case");
        assert_eq!(golden(&kept), *want, "{label}");
        // Not asked for, the timeline is empty and nothing else moves.
        assert!(plain.timeline.is_empty(), "{label}");
        let (_, _, _, _, events) = *want;
        assert_eq!(
            golden(&plain),
            (want.0, want.1, want.2, digest([]), 0),
            "{label}: without the timeline ({events} events)"
        );
    });
    assert!(goldens.next().is_none(), "a golden without its case");
}

/// Recorded at 421b303 (the allocating event loop), in grid order.
#[rustfmt::skip]
const GOLDENS: [Golden; 100] = [
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=1 tasks=0 pinned=false
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=1 tasks=0 pinned=true
    (4532302745008286998, 7975540309234983128, 4078619258463620481, 10419568088335256714, 2), // nodes=1 threads=1 tasks=1 pinned=false
    (4521638585413869120, 17891165184626747412, 7900265575247078736, 691338538666192985, 2), // nodes=1 threads=1 tasks=1 pinned=true
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=1 tasks=0 pinned=false
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=1 tasks=0 pinned=true
    (4534518125184563220, 16437396928768924433, 17907573240962144477, 4153859565430041278, 3), // nodes=1 threads=1 tasks=2 pinned=false
    (4523819728433144537, 957668404016020832, 4951459900075103628, 7714515384185456670, 3), // nodes=1 threads=1 tasks=2 pinned=true
    (4589424994303405050, 9082640737108988843, 1955326958158072696, 4901200508652552701, 25850), // nodes=1 threads=1 tasks=16384 pinned=false
    (4589479906872713774, 901361989765985194, 9851252995006687380, 14485579828516630518, 25915), // nodes=1 threads=1 tasks=16384 pinned=true
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=2 tasks=0 pinned=false
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=2 tasks=0 pinned=true
    (4528677255118204649, 18442842858940596385, 18442842858940596385, 4300127579627561151, 3), // nodes=1 threads=2 tasks=1 pinned=false
    (4525046921224926993, 12993957632862129681, 12993957632862129681, 2995683562732316839, 2), // nodes=1 threads=2 tasks=1 pinned=true
    (4528677255118204649, 18442842858940596385, 18442842858940596385, 4300127579627561151, 3), // nodes=1 threads=2 tasks=1 pinned=false
    (4525046921224926993, 12993957632862129681, 12993957632862129681, 2995683562732316839, 2), // nodes=1 threads=2 tasks=1 pinned=true
    (4534630576536436554, 6645552442109042859, 13038493386694462370, 15820631234897522149, 6), // nodes=1 threads=2 tasks=3 pinned=false
    (4532468470557045203, 15304268083124330918, 1454060125111881038, 9143064953969627761, 5), // nodes=1 threads=2 tasks=3 pinned=true
    (4586142636905955708, 744918886213320967, 5213279076076488751, 11283750616757547258, 25876), // nodes=1 threads=2 tasks=16384 pinned=false
    (4585418156535761315, 8032601492368791211, 14984104238120817524, 10790457095239764137, 22658), // nodes=1 threads=2 tasks=16384 pinned=true
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=7 tasks=0 pinned=false
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=7 tasks=0 pinned=true
    (4526865211547720250, 14186502436499199484, 14186502436499199484, 13599363110276313952, 2), // nodes=1 threads=7 tasks=1 pinned=false
    (4533190549907066492, 6261244537756315597, 2603040748343913313, 5525929184592085062, 2), // nodes=1 threads=7 tasks=1 pinned=true
    (4534602242337539334, 6709036538860936099, 17444996093439634285, 11467745701822651075, 9), // nodes=1 threads=7 tasks=6 pinned=false
    (4525796060271527678, 6805551328917372846, 2879745242792686659, 11169103895508376554, 9), // nodes=1 threads=7 tasks=6 pinned=true
    (4530802213058355168, 5206995071026558378, 4206843828104173253, 12545862587053956482, 10), // nodes=1 threads=7 tasks=8 pinned=false
    (4537822154286525682, 1346899704243419900, 3319948382652754842, 13680333078226985871, 12), // nodes=1 threads=7 tasks=8 pinned=true
    (4585322571171698220, 5391193061223865700, 7814042499218675195, 6099818892516318768, 25428), // nodes=1 threads=7 tasks=16384 pinned=false
    (4585309466762728594, 15537950151305857661, 2602950297940897179, 11597097864179464421, 25422), // nodes=1 threads=7 tasks=16384 pinned=true
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=32 tasks=0 pinned=false
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=32 tasks=0 pinned=true
    (4526610804786106745, 3224018398883970878, 3224018398883970878, 12364148839404760038, 2), // nodes=1 threads=32 tasks=1 pinned=false
    (4531391800513741443, 9696849625745752997, 1406575147596961121, 5555342881359746700, 2), // nodes=1 threads=32 tasks=1 pinned=true
    (4541895481931400169, 6485476461939116857, 17138176984514929252, 9776450388864227652, 48), // nodes=1 threads=32 tasks=31 pinned=false
    (4544632658463357282, 9175920419258662075, 9940555653116866752, 4948928668379956930, 46), // nodes=1 threads=32 tasks=31 pinned=true
    (4543829833899403297, 17886419231794864872, 2371134894498817620, 17835713195752888364, 46), // nodes=1 threads=32 tasks=33 pinned=false
    (4544546311154921881, 9399490768748831087, 5764013304381000253, 473251215788458390, 50), // nodes=1 threads=32 tasks=33 pinned=true
    (4585296911616184182, 5961586462190184091, 10145662336379366174, 11856564458913753779, 25293), // nodes=1 threads=32 tasks=16384 pinned=false
    (4584685722826093477, 12159371870984299406, 15533216443761578421, 11443368617421974089, 22141), // nodes=1 threads=32 tasks=16384 pinned=true
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=120 tasks=0 pinned=false
    (0, 14695981039346656037, 12161962213042174405, 14695981039346656037, 0), // nodes=1 threads=120 tasks=0 pinned=true
    (4535913699311233059, 2478648665312974988, 9594961374925592325, 6487026246162705785, 2), // nodes=1 threads=120 tasks=1 pinned=false
    (4524210032022953714, 12425510546700487893, 11387975005278515715, 15400225219086381491, 2), // nodes=1 threads=120 tasks=1 pinned=true
    (4552910444487650721, 9445533210269123107, 4957141931331585674, 4706809612336112827, 183), // nodes=1 threads=120 tasks=119 pinned=false
    (4552464791945341400, 12987921362005538957, 12780282285051522535, 14711695323127533199, 164), // nodes=1 threads=120 tasks=119 pinned=true
    (4553068556562036689, 16657942792401884924, 17774300809086558082, 16842993145799823346, 166), // nodes=1 threads=120 tasks=121 pinned=false
    (4553219077088521209, 10446979041533101623, 10965713696627624701, 3362183812766847917, 187), // nodes=1 threads=120 tasks=121 pinned=true
    (4584680186854259331, 9851388021851314222, 17584760709352509497, 780173131184946286, 22105), // nodes=1 threads=120 tasks=16384 pinned=false
    (4585295999539108476, 13087848253482835860, 14004915859689503633, 380523869713218985, 25278), // nodes=1 threads=120 tasks=16384 pinned=true
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=1 tasks=0 pinned=false
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=1 tasks=0 pinned=true
    (4529105385681267409, 17884320929821441189, 1892312848887705425, 5841356951907020897, 4), // nodes=4 threads=1 tasks=1 pinned=false
    (4530920208974447228, 17076614428186683093, 12562609457189324995, 6792263706729934207, 3), // nodes=4 threads=1 tasks=1 pinned=true
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=1 tasks=0 pinned=false
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=1 tasks=0 pinned=true
    (4528532883073192373, 17555460057316689943, 14629724568439660947, 8006659409201572308, 5), // nodes=4 threads=1 tasks=2 pinned=false
    (4533869094941073823, 14883237115037340886, 4376650785708907023, 4774709553351320871, 5), // nodes=4 threads=1 tasks=2 pinned=true
    (4591830530220548051, 9950619638191632161, 14145469588801581382, 13394505919663343842, 38101), // nodes=4 threads=1 tasks=16384 pinned=false
    (4591739662704254780, 10091324984122456786, 7955123163342533142, 16347383357627941065, 37876), // nodes=4 threads=1 tasks=16384 pinned=true
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=2 tasks=0 pinned=false
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=2 tasks=0 pinned=true
    (4532104995911816831, 15669582752464671233, 14725368692718516436, 12258294792463009690, 4), // nodes=4 threads=2 tasks=1 pinned=false
    (4529591578609070712, 2672568256022536714, 9708312123102432627, 13067743193166869696, 4), // nodes=4 threads=2 tasks=1 pinned=true
    (4532104995911816831, 15669582752464671233, 14725368692718516436, 12258294792463009690, 4), // nodes=4 threads=2 tasks=1 pinned=false
    (4529591578609070712, 2672568256022536714, 9708312123102432627, 13067743193166869696, 4), // nodes=4 threads=2 tasks=1 pinned=true
    (4534816667290652136, 13209239035430958713, 4972083449365883715, 2443162964441193581, 8), // nodes=4 threads=2 tasks=3 pinned=false
    (4534873630836351752, 11780314787868310218, 7390900844076815092, 9842400265975501105, 8), // nodes=4 threads=2 tasks=3 pinned=true
    (4587733762785186086, 9378075610827459372, 10572936650000055910, 12749538752306072308, 37545), // nodes=4 threads=2 tasks=16384 pinned=false
    (4587146691945784048, 15264706739230349245, 10466667878384126039, 16250537420421846386, 33060), // nodes=4 threads=2 tasks=16384 pinned=true
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=7 tasks=0 pinned=false
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=7 tasks=0 pinned=true
    (4531150340012514216, 3523068466656828632, 8188337704206615085, 10517208541297682320, 4), // nodes=4 threads=7 tasks=1 pinned=false
    (4531223684266951284, 15469713119062823499, 16715232435039372384, 15537784988127340677, 2), // nodes=4 threads=7 tasks=1 pinned=true
    (4535494462266869185, 13178677245231561440, 10050719979336141957, 14693848158050354005, 12), // nodes=4 threads=7 tasks=6 pinned=false
    (4534916033752062519, 9563321608705055008, 15156066252703997591, 10116604650776785218, 10), // nodes=4 threads=7 tasks=6 pinned=true
    (4537245647696858196, 7815484192126927395, 18393521597995350526, 16152596144921946054, 17), // nodes=4 threads=7 tasks=8 pinned=false
    (4536989926632679051, 14586428325992542768, 3128389887327717190, 13639087742913740330, 15), // nodes=4 threads=7 tasks=8 pinned=true
    (4580878787238537858, 17711360264245945248, 4686998144691930102, 1216935447611863325, 37427), // nodes=4 threads=7 tasks=16384 pinned=false
    (4581989154583068173, 8230081612425624260, 16828285441832549359, 4437607217032680528, 37443), // nodes=4 threads=7 tasks=16384 pinned=true
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=32 tasks=0 pinned=false
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=32 tasks=0 pinned=true
    (4516037661301175294, 11221295380716304989, 11981723993548234557, 15424995347209304056, 2), // nodes=4 threads=32 tasks=1 pinned=false
    (4526905179940407084, 15507253753845011733, 9090340761328756661, 12954643627964756615, 2), // nodes=4 threads=32 tasks=1 pinned=true
    (4541743903478153815, 9305131352504677808, 16631946579299518274, 144306883165503392, 73), // nodes=4 threads=32 tasks=31 pinned=false
    (4540311387308870906, 11377784671205442409, 11215299094258451049, 204778827446176186, 72), // nodes=4 threads=32 tasks=31 pinned=true
    (4538751924724188778, 13000419137031539806, 13519295292227631906, 7289997133267339390, 60), // nodes=4 threads=32 tasks=33 pinned=false
    (4538427651285054834, 807321916710960387, 7706127386934397697, 14220632236236136405, 82), // nodes=4 threads=32 tasks=33 pinned=true
    (4578859441230002519, 3070793250261400627, 1555221080228701062, 9078792382614417318, 37661), // nodes=4 threads=32 tasks=16384 pinned=false
    (4578829550988386705, 2472978850389230338, 7920411913336554336, 4089799973357941783, 34553), // nodes=4 threads=32 tasks=16384 pinned=true
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=120 tasks=0 pinned=false
    (0, 14695981039346656037, 901300984310592933, 14695981039346656037, 0), // nodes=4 threads=120 tasks=0 pinned=true
    (4539940339923833721, 11868764527959925105, 10027428678549382746, 12922566698329447593, 3), // nodes=4 threads=120 tasks=1 pinned=false
    (4527214046281888276, 6892481811566780881, 10420794050648320996, 4371966056139143045, 3), // nodes=4 threads=120 tasks=1 pinned=true
    (4549043415054837750, 1642545365511348650, 12481510403583353777, 11808163901110900778, 262), // nodes=4 threads=120 tasks=119 pinned=false
    (4546371990957905733, 12245411356723520614, 13882280508297941713, 3427363858288467072, 246), // nodes=4 threads=120 tasks=119 pinned=true
    (4547489984431025407, 4036593535452838516, 17250422121936192506, 13985798501145554227, 240), // nodes=4 threads=120 tasks=121 pinned=false
    (4548934644926427601, 16897129160563601112, 17404641646160955544, 15470933134728211142, 288), // nodes=4 threads=120 tasks=121 pinned=true
    (4577707556172882728, 13582351365713096120, 13708629190867498558, 642824830569863536, 32387), // nodes=4 threads=120 tasks=16384 pinned=false
    (4579082599262990133, 9130273536966158614, 8301099604716241787, 5132969730227208426, 39136), // nodes=4 threads=120 tasks=16384 pinned=true
];

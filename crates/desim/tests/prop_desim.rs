//! Property tests for the discrete-event core: determinism, message
//! conservation and time monotonicity under a flooding protocol on random
//! topologies.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sb_desim::{
    BlockCode, Context, Duration, LatencyModel, ModuleId, NetworkModel, SimTime, Simulator,
};

/// Shared world of the flood protocol: adjacency lists plus a receipt log.
#[derive(Default)]
struct FloodWorld {
    neighbors: Vec<Vec<ModuleId>>,
    receipts: Vec<(u64, ModuleId, u32)>, // (time, module, wave value)
}

/// Every node forwards the first copy of each wave value to its
/// neighbours (a classic flooding/echo pattern, structurally close to the
/// activation wave of the paper's election).
struct FloodNode {
    seen: Vec<u32>,
    initiator: bool,
}

impl BlockCode<u32, FloodWorld> for FloodNode {
    fn on_start(&mut self, ctx: &mut Context<'_, u32, FloodWorld>) {
        if self.initiator {
            let me = ctx.self_id();
            let neighbors = ctx.world().neighbors[me.index()].clone();
            for n in neighbors {
                ctx.send(n, 0);
            }
        }
    }

    fn on_message(&mut self, _from: ModuleId, wave: u32, ctx: &mut Context<'_, u32, FloodWorld>) {
        let me = ctx.self_id();
        let now = ctx.now().as_micros();
        ctx.world_mut().receipts.push((now, me, wave));
        if self.seen.contains(&wave) {
            return;
        }
        self.seen.push(wave);
        let neighbors = ctx.world().neighbors[me.index()].clone();
        for n in neighbors {
            ctx.send(n, wave);
        }
    }
}

/// Builds a random connected undirected topology of `n` nodes.
fn random_topology(n: usize, seed: u64) -> Vec<Vec<ModuleId>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut adj = vec![Vec::new(); n];
    // Random spanning tree first (guarantees connectivity)…
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        adj[i].push(ModuleId(parent));
        adj[parent].push(ModuleId(i));
    }
    // …plus a few extra edges.
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !adj[a].contains(&ModuleId(b)) {
            adj[a].push(ModuleId(b));
            adj[b].push(ModuleId(a));
        }
    }
    adj
}

fn run_flood(
    n: usize,
    topo_seed: u64,
    sim_seed: u64,
    jitter: bool,
) -> (Vec<(u64, ModuleId, u32)>, u64, SimTime) {
    let world = FloodWorld {
        neighbors: random_topology(n, topo_seed),
        receipts: Vec::new(),
    };
    let latency = if jitter {
        LatencyModel::Uniform {
            min: Duration::micros(1),
            max: Duration::micros(200),
        }
    } else {
        LatencyModel::Fixed(Duration::micros(10))
    };
    let mut sim = Simulator::new(world)
        .with_seed(sim_seed)
        .with_network(NetworkModel::Uniform(latency));
    for i in 0..n {
        sim.add(FloodNode {
            seen: Vec::new(),
            initiator: i == 0,
        });
    }
    let stats = sim.run_until_idle();
    let now = sim.now();
    (sim.into_world().receipts, stats.messages_sent, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two runs with identical seeds produce byte-identical receipt logs;
    /// event processing is fully deterministic.
    #[test]
    fn identical_seeds_identical_runs(n in 3usize..20, topo in 0u64..50, seed in 0u64..50) {
        let a = run_flood(n, topo, seed, true);
        let b = run_flood(n, topo, seed, true);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Message conservation: when the run drains, every sent message has
    /// been delivered exactly once (receipts == messages sent).
    #[test]
    fn every_sent_message_is_delivered(n in 3usize..20, topo in 0u64..50, seed in 0u64..50, jitter in any::<bool>()) {
        let (receipts, sent, _) = run_flood(n, topo, seed, jitter);
        prop_assert_eq!(receipts.len() as u64, sent);
    }

    /// Receipt timestamps never decrease (time is monotone) and every
    /// module eventually receives the wave (the flood covers the
    /// connected topology).
    #[test]
    fn flood_reaches_every_module_in_order(n in 3usize..20, topo in 0u64..50, seed in 0u64..50) {
        let (receipts, _, _) = run_flood(n, topo, seed, true);
        let mut last = 0u64;
        for &(t, _, _) in &receipts {
            prop_assert!(t >= last);
            last = t;
        }
        let mut reached: Vec<usize> = receipts.iter().map(|&(_, m, _)| m.index()).collect();
        reached.sort_unstable();
        reached.dedup();
        // Every module except possibly the initiator appears; the
        // initiator also gets echoes back from its neighbours.
        prop_assert_eq!(reached.len(), n);
    }
}

//! Per-link network models: heterogeneous delays and fault injection.
//!
//! Assumption 3 of the paper only requires that "all communications
//! between adjacent blocks occur in finite time" — nothing constrains the
//! *shape* of the delay, and nothing is promised when the assumption is
//! violated.  The [`crate::latency::LatencyModel`] alone samples one global
//! distribution for every message; a [`NetworkModel`] generalises it to a
//! **per-link** transport:
//!
//! * a [`NetworkModel::Uniform`] network keeps no per-link state: every
//!   send draws its delay from the simulator's kernel RNG, exactly as the
//!   global [`crate::latency::LatencyModel`] would;
//! * under every other model, each directed link `(from, to)` owns an
//!   independent RNG stream,
//!   seeded by a stable FNV-1a/splitmix64 hash of the network seed and the
//!   link's endpoints (the same semantic-seeding discipline the sweep
//!   engine uses for its cells), so the delay sequence observed on a link
//!   never depends on how sends to *other* links interleave with it;
//! * links can be heterogeneous and asymmetric ([`NetworkModel::HeterogeneousLinks`]),
//!   heavy-tailed ([`NetworkModel::HeavyTail`], log-uniform — several
//!   decades of spread), or bursty ([`NetworkModel::JitterBursts`]);
//! * the explicit assumption-violation probes [`NetworkModel::Lossy`]
//!   (i.i.d. message drop) and [`NetworkModel::Duplicating`] (i.i.d.
//!   duplication) measure how the protocol degrades when the finite-time
//!   guarantee is broken — a dropped `Ack` deadlocks a Dijkstra–Scholten
//!   election, which the simulator surfaces as a drained queue with no
//!   recorded outcome (a *timeout* in the sweep's accounting).

use crate::latency::LatencyModel;
use crate::time::Duration;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// How the transport treats each directed link between two modules.
///
/// `Uniform` reproduces the historical global-latency behaviour (one
/// draw from the kernel RNG per send); every other variant derives
/// per-link state from the simulator seed (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkModel {
    /// Every link samples the same latency model; no faults.
    Uniform(LatencyModel),
    /// Each directed link gets its own *constant* delay, drawn
    /// log-uniformly from `[min, max]` by the link's seed hash.  With
    /// `symmetric: false` the two directions of a link differ (almost
    /// surely) — fully heterogeneous, asymmetric propagation.
    HeterogeneousLinks {
        /// Smallest per-link delay (clamped to ≥ 1 µs).
        min: Duration,
        /// Largest per-link delay.
        max: Duration,
        /// Whether `(a, b)` and `(b, a)` share one delay.
        symmetric: bool,
    },
    /// Heavy-tailed per-message latency: each delivery draws
    /// log-uniformly from `[min, max]`, so delays spread evenly across
    /// *decades* (most messages fast, a fat tail of stragglers) — the
    /// harshest finite-time regime Assumption 3 admits.
    HeavyTail {
        /// Smallest delay (clamped to ≥ 1 µs).
        min: Duration,
        /// Largest delay.
        max: Duration,
    },
    /// Jitter bursts: deliveries normally take `base`, but each link
    /// periodically enters a burst window of `burst_len` consecutive
    /// messages delayed by `spike` instead.  Burst phases are staggered
    /// per link by the link seed, so bursts do not align across the
    /// ensemble.
    JitterBursts {
        /// Delay outside burst windows.
        base: Duration,
        /// Delay inside burst windows.
        spike: Duration,
        /// Window length in messages (burst + quiet), ≥ 1.
        period: u32,
        /// Leading messages of each window that are delayed by `spike`.
        burst_len: u32,
    },
    /// Assumption-violation probe: each message is dropped i.i.d. with
    /// probability `drop_permille / 1000`, otherwise delivered with the
    /// given latency model.
    Lossy {
        /// Latency of the messages that do get through.
        latency: LatencyModel,
        /// Drop probability in permille (0 ..= 1000).
        drop_permille: u16,
    },
    /// Assumption-violation probe: each message is duplicated i.i.d. with
    /// probability `dup_permille / 1000`; the copy gets an independently
    /// sampled delay from the same latency model, so the duplicate can
    /// overtake the original.
    Duplicating {
        /// Latency model sampled independently for original and copy.
        latency: LatencyModel,
        /// Duplication probability in permille (0 ..= 1000).
        dup_permille: u16,
    },
    /// Combined assumption-violation probe: heavy-tailed (log-uniform)
    /// per-message latency, i.i.d. drop, and i.i.d. duplication on one
    /// link — the harshest regime the fault probes sweep.  The drop draw
    /// comes first; survivors may additionally be duplicated, the copy
    /// delayed by an independent log-uniform sample (so it can overtake
    /// the original).
    Faulty {
        /// Smallest delay (clamped to ≥ 1 µs).
        min: Duration,
        /// Largest delay.
        max: Duration,
        /// Drop probability in permille (0 ..= 1000).
        drop_permille: u16,
        /// Duplication probability in permille (0 ..= 1000), applied to
        /// messages that were not dropped.
        dup_permille: u16,
    },
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::Uniform(LatencyModel::default())
    }
}

/// The transport's verdict for one send on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Delivery delay of the message itself; `None` means the message was
    /// dropped.
    pub delivery: Option<Duration>,
    /// Delivery delay of an injected duplicate, if any.
    pub duplicate: Option<Duration>,
}

/// Per-directed-link lazily created state.
struct LinkState {
    /// The link's own RNG stream (independent of every other link).
    rng: SmallRng,
    /// Constant delay of [`NetworkModel::HeterogeneousLinks`].
    fixed: Duration,
    /// Messages routed so far, pre-offset by the link's burst phase.
    routed: u32,
}

/// The kernel-side state of a [`NetworkModel`]: the per-link table and
/// the seed the link streams derive from.
pub(crate) struct NetworkState {
    model: NetworkModel,
    seed: u64,
    /// Per-directed-link state, created on a link's first send: row
    /// `from` lists `(to, state)` in first-send order and is scanned
    /// linearly, with no hashing per send (blocks talk to a handful of
    /// neighbours — at most 4 on the Smart Blocks grid — so rows stay
    /// short).  Row order is never observable: each link's RNG stream is
    /// seeded from its own endpoints, so it cannot reach delays, records,
    /// or wire traffic.  Stays empty on a [`NetworkModel::Uniform`]
    /// network.
    links: Vec<Vec<(usize, LinkState)>>,
}

impl NetworkState {
    pub(crate) fn new(model: NetworkModel, seed: u64) -> Self {
        NetworkState {
            model,
            seed,
            links: Vec::new(),
        }
    }

    /// Replaces the model, discarding link state (builder-time only).
    pub(crate) fn set_model(&mut self, model: NetworkModel) {
        self.model = model;
        self.links.clear();
    }

    /// Re-seeds the network, discarding link state (builder-time only).
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.links.clear();
    }

    pub(crate) fn model(&self) -> NetworkModel {
        self.model
    }

    /// Decides delivery of one message on the directed link `from → to`.
    /// A [`NetworkModel::Uniform`] network draws the delay from `rng` (the
    /// kernel RNG) and touches no link state; every other model draws
    /// from the link's own stream.
    pub(crate) fn route(&mut self, from: usize, to: usize, rng: &mut SmallRng) -> Route {
        let mut route = Route {
            delivery: None,
            duplicate: None,
        };
        match self.model {
            NetworkModel::Uniform(latency) => {
                route.delivery = Some(latency.sample(rng));
            }
            NetworkModel::HeterogeneousLinks { .. } => {
                route.delivery = Some(self.link(from, to).fixed);
            }
            NetworkModel::HeavyTail { min, max } => {
                route.delivery = Some(log_uniform(&mut self.link(from, to).rng, min, max));
            }
            NetworkModel::JitterBursts {
                base,
                spike,
                period,
                burst_len,
            } => {
                let link = self.link(from, to);
                let slot = link.routed % period.max(1);
                link.routed = link.routed.wrapping_add(1);
                route.delivery = Some(if slot < burst_len { spike } else { base });
            }
            NetworkModel::Lossy {
                latency,
                drop_permille,
            } => {
                let link = self.link(from, to);
                if !link.rng.gen_ratio(u32::from(drop_permille.min(1000)), 1000) {
                    route.delivery = Some(latency.sample(&mut link.rng));
                }
            }
            NetworkModel::Duplicating {
                latency,
                dup_permille,
            } => {
                let link = self.link(from, to);
                route.delivery = Some(latency.sample(&mut link.rng));
                if link.rng.gen_ratio(u32::from(dup_permille.min(1000)), 1000) {
                    route.duplicate = Some(latency.sample(&mut link.rng));
                }
            }
            NetworkModel::Faulty {
                min,
                max,
                drop_permille,
                dup_permille,
            } => {
                let link = self.link(from, to);
                if !link.rng.gen_ratio(u32::from(drop_permille.min(1000)), 1000) {
                    route.delivery = Some(log_uniform(&mut link.rng, min, max));
                    if link.rng.gen_ratio(u32::from(dup_permille.min(1000)), 1000) {
                        route.duplicate = Some(log_uniform(&mut link.rng, min, max));
                    }
                }
            }
        }
        route
    }

    /// The state of the directed link `from → to`, created on first use.
    fn link(&mut self, from: usize, to: usize) -> &mut LinkState {
        if from >= self.links.len() {
            self.links.resize_with(from + 1, Vec::new);
        }
        let row = &mut self.links[from];
        let i = match row.iter().position(|&(peer, _)| peer == to) {
            Some(i) => i,
            None => {
                row.push((to, LinkState::new(self.model, self.seed, from, to)));
                row.len() - 1
            }
        };
        &mut row[i].1
    }
}

impl LinkState {
    fn new(model: NetworkModel, seed: u64, from: usize, to: usize) -> Self {
        // The fixed delay of a symmetric heterogeneous link hashes the
        // *unordered* endpoint pair so both directions agree; every other
        // per-link quantity hashes the directed pair.
        let directed = link_seed(seed, from, to);
        let (fixed, phase) = match model {
            NetworkModel::HeterogeneousLinks {
                min,
                max,
                symmetric,
            } => {
                let pair = if symmetric {
                    link_seed(seed, from.min(to), from.max(to))
                } else {
                    directed
                };
                (log_uniform(&mut SmallRng::seed_from_u64(pair), min, max), 0)
            }
            NetworkModel::JitterBursts { period, .. } => {
                let mut rng = SmallRng::seed_from_u64(directed);
                (Duration::ZERO, rng.gen_range(0..period.max(1)))
            }
            _ => (Duration::ZERO, 0),
        };
        LinkState {
            rng: SmallRng::seed_from_u64(directed),
            fixed,
            routed: phase,
        }
    }
}

/// Stable seed of a (directed or canonicalised) link: FNV-1a over the
/// endpoints, finalised with splitmix64 — the same discipline the sweep
/// engine uses for its per-cell seeds, so link streams are reproducible
/// and independent of send interleaving.
fn link_seed(seed: u64, a: usize, b: usize) -> u64 {
    let mut h = fnv1a64(b"link", 0xcbf2_9ce4_8422_2325);
    h = fnv1a64(&(a as u64).to_le_bytes(), h);
    h = fnv1a64(&(b as u64).to_le_bytes(), h);
    splitmix64(h ^ splitmix64(seed))
}

/// FNV-1a over `bytes`, continuing from `hash` — one half of the
/// semantic-seeding discipline this crate shares with the sweep engine
/// (start chains from the FNV offset basis `0xcbf2_9ce4_8422_2325`).
pub fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The splitmix64 mixer/finaliser (Steele, Lea, Flood 2014) — the other
/// half of the shared seeding discipline.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Log-uniform sample in `[min, max]` (inclusive, microseconds): uniform
/// in the exponent, so the mass spreads evenly across decades instead of
/// clustering at the top of the range like a plain uniform draw.
fn log_uniform(rng: &mut SmallRng, min: Duration, max: Duration) -> Duration {
    let lo = min.as_micros().max(1);
    let hi = max.as_micros().max(lo);
    if lo == hi {
        return Duration::micros(lo);
    }
    // 53 random mantissa bits: the standard uniform-in-[0,1) recipe.
    // The f64 math below is deterministic per platform (IEEE 754 mul /
    // round; powf via the platform libm) and its output is immediately
    // quantized to integral microseconds, so records stay byte-identical
    // across runs on one platform — the surface every identity pin uses.
    // sb-allow: float-in-state — log-uniform sampling, quantized to integer µs on the next line
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    // sb-allow: float-in-state — log-uniform sampling as above; quantized to integer µs here
    let micros = (lo as f64 * (hi as f64 / lo as f64).powf(u)).round() as u64;
    Duration::micros(micros.clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes one send on a per-link model, which never draws from the
    /// kernel RNG passed here.
    fn send(net: &mut NetworkState, from: usize, to: usize) -> Route {
        net.route(from, to, &mut SmallRng::seed_from_u64(0))
    }

    fn micros(route: Route) -> u64 {
        route.delivery.expect("delivered").as_micros()
    }

    #[test]
    fn uniform_model_reproduces_the_latency_model() {
        let latency = LatencyModel::Uniform {
            min: Duration::micros(1),
            max: Duration::micros(100),
        };
        let mut net = NetworkState::new(NetworkModel::Uniform(latency), 1);
        let mut kernel = SmallRng::seed_from_u64(9);
        let mut reference = SmallRng::seed_from_u64(9);
        for (from, to) in [(0, 1), (5, 9), (0, 1), (9, 5)] {
            let route = net.route(from, to, &mut kernel);
            assert_eq!(route.delivery, Some(latency.sample(&mut reference)));
            assert_eq!(route.duplicate, None);
        }
        assert!(
            net.links.is_empty(),
            "no per-link state on a uniform network"
        );
    }

    #[test]
    fn heterogeneous_links_are_constant_per_link_and_asymmetric() {
        let model = NetworkModel::HeterogeneousLinks {
            min: Duration::micros(1),
            max: Duration::micros(100_000),
            symmetric: false,
        };
        let mut net = NetworkState::new(model, 42);
        let ab = micros(send(&mut net, 0, 1));
        let ba = micros(send(&mut net, 1, 0));
        let cd = micros(send(&mut net, 2, 3));
        // Constant per link…
        for _ in 0..10 {
            assert_eq!(micros(send(&mut net, 0, 1)), ab);
            assert_eq!(micros(send(&mut net, 1, 0)), ba);
        }
        // …different across links and directions (5 decades of spread make
        // a collision astronomically unlikely for these fixed seeds).
        assert_ne!(ab, ba, "asymmetric: the two directions must differ");
        assert_ne!(ab, cd, "heterogeneous: distinct links must differ");
        assert!((1..=100_000).contains(&ab));
    }

    #[test]
    fn symmetric_heterogeneous_links_agree_across_directions() {
        let model = NetworkModel::HeterogeneousLinks {
            min: Duration::micros(1),
            max: Duration::micros(100_000),
            symmetric: true,
        };
        let mut net = NetworkState::new(model, 42);
        assert_eq!(micros(send(&mut net, 3, 8)), micros(send(&mut net, 8, 3)));
    }

    #[test]
    fn link_streams_are_independent_of_interleaving() {
        let model = NetworkModel::HeavyTail {
            min: Duration::micros(1),
            max: Duration::millis(10),
        };
        // Route only on link (0,1).
        let mut alone = NetworkState::new(model, 7);
        let solo: Vec<u64> = (0..20).map(|_| micros(send(&mut alone, 0, 1))).collect();
        // Interleave traffic on other links: the (0,1) sequence must not
        // move (the historical global-RNG latency model failed this).
        let mut busy = NetworkState::new(model, 7);
        let interleaved: Vec<u64> = (0..20)
            .map(|i| {
                for other in 2..5 {
                    send(&mut busy, other, i % 2);
                }
                micros(send(&mut busy, 0, 1))
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn heavy_tail_spans_decades_and_stays_in_bounds() {
        let model = NetworkModel::HeavyTail {
            min: Duration::micros(1),
            max: Duration::millis(10),
        };
        let mut net = NetworkState::new(model, 3);
        let samples: Vec<u64> = (0..500).map(|_| micros(send(&mut net, 0, 1))).collect();
        assert!(samples.iter().all(|&s| (1..=10_000).contains(&s)));
        // Log-uniform: roughly a quarter of the mass in each decade of
        // [1, 10^4]; just assert both extremes of the spread show up.
        assert!(samples.iter().any(|&s| s < 10), "fast messages exist");
        assert!(samples.iter().any(|&s| s > 1_000), "stragglers exist");
    }

    #[test]
    fn jitter_bursts_follow_the_periodic_pattern() {
        let model = NetworkModel::JitterBursts {
            base: Duration::micros(10),
            spike: Duration::millis(1),
            period: 8,
            burst_len: 2,
        };
        let mut net = NetworkState::new(model, 9);
        let delays: Vec<u64> = (0..32).map(|_| micros(send(&mut net, 0, 1))).collect();
        let spikes = delays.iter().filter(|&&d| d == 1_000).count();
        let bases = delays.iter().filter(|&&d| d == 10).count();
        assert_eq!(spikes, 8, "2 spike messages per 8-message window");
        assert_eq!(bases, 24);
        // The pattern repeats with the window period.
        assert_eq!(delays[..8], delays[8..16]);
        // A different link is phase-staggered or at least independently
        // seeded; its sequence still contains the same mix.
        let other: Vec<u64> = (0..32).map(|_| micros(send(&mut net, 1, 2))).collect();
        assert_eq!(other.iter().filter(|&&d| d == 1_000).count(), 8);
    }

    #[test]
    fn lossy_drop_rates_are_exact_at_the_extremes_and_plausible_between() {
        let latency = LatencyModel::Fixed(Duration::micros(10));
        let mut never = NetworkState::new(
            NetworkModel::Lossy {
                latency,
                drop_permille: 0,
            },
            1,
        );
        assert!((0..200).all(|_| send(&mut never, 0, 1).delivery.is_some()));
        let mut always = NetworkState::new(
            NetworkModel::Lossy {
                latency,
                drop_permille: 1000,
            },
            1,
        );
        assert!((0..200).all(|_| send(&mut always, 0, 1).delivery.is_none()));
        let mut half = NetworkState::new(
            NetworkModel::Lossy {
                latency,
                drop_permille: 500,
            },
            1,
        );
        let dropped = (0..2000)
            .filter(|_| send(&mut half, 0, 1).delivery.is_none())
            .count();
        assert!(
            (800..1200).contains(&dropped),
            "~50% drop, got {dropped}/2000"
        );
    }

    #[test]
    fn duplication_injects_an_independent_copy() {
        let latency = LatencyModel::Uniform {
            min: Duration::micros(1),
            max: Duration::micros(100),
        };
        let mut net = NetworkState::new(
            NetworkModel::Duplicating {
                latency,
                dup_permille: 1000,
            },
            5,
        );
        let mut overtakes = 0;
        for _ in 0..200 {
            let route = send(&mut net, 0, 1);
            let original = route.delivery.expect("never dropped");
            let copy = route.duplicate.expect("always duplicated");
            if copy < original {
                overtakes += 1;
            }
        }
        assert!(overtakes > 0, "an independent copy sometimes overtakes");
    }

    #[test]
    fn faulty_links_drop_duplicate_and_stay_in_latency_bounds() {
        let model = NetworkModel::Faulty {
            min: Duration::micros(1),
            max: Duration::millis(10),
            drop_permille: 300,
            dup_permille: 300,
        };
        let mut net = NetworkState::new(model, 13);
        let mut dropped = 0usize;
        let mut duplicated = 0usize;
        for _ in 0..2000 {
            let route = send(&mut net, 0, 1);
            match route.delivery {
                None => {
                    dropped += 1;
                    assert!(route.duplicate.is_none(), "dropped messages cannot fork");
                }
                Some(delay) => {
                    assert!((1..=10_000).contains(&delay.as_micros()));
                    if let Some(copy) = route.duplicate {
                        duplicated += 1;
                        assert!((1..=10_000).contains(&copy.as_micros()));
                    }
                }
            }
        }
        assert!(
            (450..=750).contains(&dropped),
            "~30% drop, got {dropped}/2000"
        );
        assert!(
            duplicated > 250,
            "survivors duplicate i.i.d., got {duplicated}"
        );
    }

    #[test]
    fn faulty_extremes_are_exact() {
        let mut always_drop = NetworkState::new(
            NetworkModel::Faulty {
                min: Duration::micros(1),
                max: Duration::micros(10),
                drop_permille: 1000,
                dup_permille: 1000,
            },
            1,
        );
        assert!((0..200).all(|_| send(&mut always_drop, 0, 1).delivery.is_none()));
        let mut always_dup = NetworkState::new(
            NetworkModel::Faulty {
                min: Duration::micros(1),
                max: Duration::micros(10),
                drop_permille: 0,
                dup_permille: 1000,
            },
            1,
        );
        assert!((0..200).all(|_| {
            let r = send(&mut always_dup, 0, 1);
            r.delivery.is_some() && r.duplicate.is_some()
        }));
    }

    #[test]
    fn same_seed_reproduces_the_exact_route_sequence() {
        let model = NetworkModel::Lossy {
            latency: LatencyModel::Uniform {
                min: Duration::micros(1),
                max: Duration::micros(50),
            },
            drop_permille: 200,
        };
        let run = |seed| {
            let mut net = NetworkState::new(model, seed);
            (0..100usize)
                .map(|i| send(&mut net, i % 4, (i + 1) % 4))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "the seed reaches the link streams");
    }
}

//! The four workloads and their seeded request streams. Every request is
//! a pure function of the run seed and its position in the stream.

use crate::fleet::Topology;
use asm_instance::generators::GeneratorConfig;
use asm_market::{MarketState, MutationOp, Side};
use asm_runtime::derive_seed;
use asm_service::{BatchBody, InstanceSpec, MarketCreateBody, Op, ResolveBody, SolveBody};

/// ε of every solve and market.
pub const EPS: f64 = 0.5;
/// δ of the randomized solves.
pub const DELTA: f64 = 0.1;

/// Open-loop rate of `small-open`, in requests per second.
pub const SMALL_OPEN_RATE: f64 = 2000.0;
/// Hot instances `small-open` re-sends (they fit the 256-entry cache).
pub const HOT_SET: u64 = 64;
/// Items per `solve_batch` frame in `routed-batch`.
pub const BATCH: u64 = 8;
/// Persistent markets in `market-churn` (four per family), and their size.
pub const MARKETS: u64 = 16;
pub const MARKET_N: usize = 256;

const SMALL_SIZES: [usize; 3] = [16, 32, 64];
const SMALL_FAMILIES: [&str; 4] = ["regular", "complete", "erdos_renyi", "zipf"];
const SMALL_ALGORITHMS: [&str; 3] = ["asm", "rand-asm", "gs"];
const LARGE_N: usize = 1024;
const LARGE_FAMILIES: [&str; 3] = ["regular", "erdos_renyi", "zipf"];
const LARGE_ALGORITHMS: [&str; 2] = ["asm", "rand-asm"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SmallOpen,
    LargeClosed,
    MarketChurn,
    RoutedBatch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "small-open" => Workload::SmallOpen,
            "large-closed" => Workload::LargeClosed,
            "market-churn" => Workload::MarketChurn,
            "routed-batch" => Workload::RoutedBatch,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallOpen => "small-open",
            Workload::LargeClosed => "large-closed",
            Workload::MarketChurn => "market-churn",
            Workload::RoutedBatch => "routed-batch",
        }
    }

    /// The process layout, spending a total worker budget of `nproc`.
    pub fn topology(self, nproc: usize) -> Topology {
        let budget = nproc.max(1);
        match self {
            Workload::RoutedBatch => Topology::Routed {
                backends: 2,
                workers: (budget / 2).max(1),
                forwarders: 2,
            },
            _ => Topology::Single { workers: budget },
        }
    }
}

/// Client connections (and sender threads) of every workload.
pub const CONNECTIONS: usize = 2;

/// The generator recipe of one family at size `n`, as the service's own
/// load generator maps families (degree `n/4`, density 1/2, Zipf 1.1).
pub fn family_config(family: &str, n: usize, seed: u64) -> GeneratorConfig {
    match family {
        "complete" => GeneratorConfig::Complete { n, seed },
        "regular" => GeneratorConfig::Regular {
            n,
            d: (n / 4).max(2),
            seed,
        },
        "erdos_renyi" => GeneratorConfig::ErdosRenyi {
            num_women: n,
            num_men: n,
            p: 0.5,
            seed,
        },
        "zipf" => GeneratorConfig::Zipf {
            n,
            d: (n / 4).max(2),
            s: 1.1,
            seed,
        },
        other => unreachable!("no family `{other}` in any workload"),
    }
}

fn solve_body(instance: GeneratorConfig, algorithm: &str, seed: u64) -> SolveBody {
    SolveBody {
        instance: InstanceSpec::Generator(instance),
        algorithm: algorithm.to_string(),
        eps: EPS,
        delta: DELTA,
        seed,
        backend: "greedy".to_string(),
        deadline_ms: 0,
        cycles: 0,
    }
}

/// Family × size × algorithm combinations of the small-instance mix.
const SMALL_COMBOS: u64 =
    (SMALL_FAMILIES.len() * SMALL_SIZES.len() * SMALL_ALGORITHMS.len()) as u64;

/// A small instance (n ∈ {16, 32, 64}): combination `combo` of the mix,
/// with instance and solver seeds drawn from `key`. Streams walk the
/// combinations in turn, so every seed carries the same mix and only
/// the instances differ.
fn small_body(combo: u64, key: u64) -> SolveBody {
    let combo = (combo % SMALL_COMBOS) as usize;
    let family = SMALL_FAMILIES[combo % SMALL_FAMILIES.len()];
    let n = SMALL_SIZES[combo / SMALL_FAMILIES.len() % SMALL_SIZES.len()];
    let algorithm = SMALL_ALGORITHMS[combo / (SMALL_FAMILIES.len() * SMALL_SIZES.len())];
    solve_body(
        family_config(family, n, derive_seed(key, &[4])),
        algorithm,
        derive_seed(key, &[5]),
    )
}

/// Run phases. The open loop draws each phase's schedule from its own
/// seed space; closed-loop streams run on across phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Setup = 0,
    Warmup = 1,
    Window = 2,
    Teardown = 3,
}

/// `small-open` hot instance `h`.
pub fn hot_body(seed: u64, h: u64) -> SolveBody {
    small_body(h, derive_seed(seed, &[3, h]))
}

/// `small-open` request `i` of a phase: a quarter re-send a hot
/// instance, the rest are fresh.
pub fn small_open_body(seed: u64, phase: Phase, i: u64) -> SolveBody {
    let key = derive_seed(seed, &[phase as u64, i]);
    if derive_seed(key, &[7]).is_multiple_of(4) {
        hot_body(seed, derive_seed(key, &[8]) % HOT_SET)
    } else {
        small_body(i, derive_seed(key, &[9]))
    }
}

/// `large-closed` request `i` on connection `conn`: a fresh n=1024
/// instance; family × algorithm cycle so every run carries the same mix.
pub fn large_body(seed: u64, conn: usize, i: u64) -> SolveBody {
    let key = derive_seed(seed, &[4, conn as u64, i]);
    let combo = (i as usize * 2 + conn) % (LARGE_FAMILIES.len() * LARGE_ALGORITHMS.len());
    let family = LARGE_FAMILIES[combo % LARGE_FAMILIES.len()];
    let algorithm = LARGE_ALGORITHMS[combo / LARGE_FAMILIES.len()];
    solve_body(
        family_config(family, LARGE_N, derive_seed(key, &[1])),
        algorithm,
        derive_seed(key, &[2]),
    )
}

/// `routed-batch` frame `i` on connection `conn`: 8 fresh small items.
pub fn batch_op(seed: u64, conn: usize, i: u64) -> Op {
    let key = derive_seed(seed, &[5, conn as u64, i]);
    Op::SolveBatch(BatchBody {
        items: (0..BATCH)
            .map(|k| small_body(i * BATCH + k, derive_seed(key, &[k])))
            .collect(),
    })
}

pub fn market_id(seed: u64, m: u64) -> String {
    format!("bench-{seed}-{m}")
}

/// Market `m`: four markets per family, n = 256.
pub fn market_config(seed: u64, m: u64) -> GeneratorConfig {
    let family = SMALL_FAMILIES[(m % SMALL_FAMILIES.len() as u64) as usize];
    family_config(family, MARKET_N, derive_seed(seed, &[1, m]))
}

pub fn market_create(seed: u64, m: u64) -> Op {
    Op::MarketCreate(MarketCreateBody {
        market: market_id(seed, m),
        instance: InstanceSpec::Generator(market_config(seed, m)),
        eps: EPS,
    })
}

pub fn market_resolve(seed: u64, m: u64) -> Op {
    Op::Resolve(ResolveBody {
        market: market_id(seed, m),
        mode: "auto".to_string(),
    })
}

/// The client-side mirror of market `m` as created.
pub fn market_mirror(seed: u64, m: u64) -> MarketState {
    MarketState::from_instance(&market_config(seed, m).build(), EPS)
        .expect("every workload family builds a valid market")
}

/// Markets driven by connection `conn`: a contiguous share holding one
/// market of every family. Connections own disjoint shares, so each
/// market's op order is its connection's order.
pub fn markets_of(conn: usize, connections: usize) -> Vec<u64> {
    (0..MARKETS)
        .filter(|&m| m as usize * connections / MARKETS as usize == conn)
        .collect()
}

/// Seed of step `i`'s mutation on connection `conn`.
pub fn op_seed(seed: u64, conn: usize, i: u64) -> u64 {
    derive_seed(seed, &[6, conn as u64, i])
}

/// The client's copy of one market's preference lists (opposite-side
/// indices, best first), kept in step with the server's by applying the
/// same edits.
pub struct MarketLists {
    pub m: u64,
    women: Vec<Vec<u32>>,
    men: Vec<Vec<u32>>,
}

impl MarketLists {
    pub fn new(seed: u64, m: u64) -> MarketLists {
        let inst = market_config(seed, m).build();
        let ids = inst.ids();
        let lists = |women: bool| -> Vec<Vec<u32>> {
            let agents: Vec<_> = if women {
                ids.women().collect()
            } else {
                ids.men().collect()
            };
            agents
                .into_iter()
                .map(|v| {
                    inst.prefs(v)
                        .ranked()
                        .iter()
                        .map(|&u| ids.side_index(u) as u32)
                        .collect()
                })
                .collect()
        };
        MarketLists {
            m,
            women: lists(true),
            men: lists(false),
        }
    }

    /// A seeded swap of two ranks in one agent's list. Swaps keep every
    /// market's size and edge set fixed, so the work a run measures does
    /// not drift with where a seed's random walk takes the market;
    /// arrivals, departures and truncations made mean resolve rounds
    /// differ several-fold between seeds.
    pub fn next_op(&mut self, seed: u64) -> MutationOp {
        for salt in 0.. {
            let r = derive_seed(seed, &[salt]);
            let (side, lists) = if r.is_multiple_of(2) {
                (Side::Women, &mut self.women)
            } else {
                (Side::Men, &mut self.men)
            };
            let index = (derive_seed(r, &[1]) % lists.len() as u64) as usize;
            let list = &mut lists[index];
            if list.len() < 2 {
                continue;
            }
            let a = (derive_seed(r, &[2]) % list.len() as u64) as usize;
            let b = (derive_seed(r, &[3]) % list.len() as u64) as usize;
            list.swap(a, b);
            return MutationOp::SetPrefs {
                side,
                index: index as u32,
                prefs: list.clone(),
            };
        }
        unreachable!("every workload market has an agent with two ranked partners")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        assert_eq!(
            small_open_body(5, Phase::Window, 17),
            small_open_body(5, Phase::Window, 17)
        );
        assert_ne!(
            small_open_body(5, Phase::Window, 17),
            small_open_body(6, Phase::Window, 17)
        );
        assert_eq!(large_body(1, 0, 3), large_body(1, 0, 3));
    }

    #[test]
    fn a_quarter_of_small_open_is_hot() {
        let hot: Vec<SolveBody> = (0..HOT_SET).map(|h| hot_body(9, h)).collect();
        let hits = (0..4000)
            .filter(|&i| hot.contains(&small_open_body(9, Phase::Window, i)))
            .count();
        assert!((800..1200).contains(&hits), "{hits} of 4000 hot");
    }

    #[test]
    fn large_closed_cycles_every_family_and_algorithm() {
        let mut seen = std::collections::HashSet::new();
        for conn in 0..2 {
            for i in 0..3 {
                let body = large_body(1, conn, i);
                seen.insert((
                    format!("{:?}", body.instance)
                        .chars()
                        .take(12)
                        .collect::<String>(),
                    body.algorithm,
                ));
            }
        }
        assert_eq!(seen.len(), 6);
    }
}

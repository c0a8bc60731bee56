//! Sharding invariants, property-tested across shard counts:
//!
//! 1. **Routing is content-determined** — identical instances always
//!    land on the same shard, whatever else is in flight, so a repeat
//!    request finds its cache entry at every shard count.
//! 2. **Cache behavior is shard-transparent** — the number of cache
//!    hits for a workload is the same at 1, 2, 4, and 8 shards.
//! 3. **The books balance** — per-shard counters sum exactly to the
//!    aggregate snapshot (with `queue_peak` aggregating by max).

use asm_instance::generators::GeneratorConfig;
use asm_service::{
    instance_hash, FrameHandler, InstanceSpec, Op, Reply, Request, Service, ServiceConfig,
    SolveBody,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_spec() -> impl Strategy<Value = InstanceSpec> {
    (2usize..12, 1usize..4, any::<u64>()).prop_map(|(n, d, seed)| {
        InstanceSpec::Generator(GeneratorConfig::Regular {
            n,
            d: d.min(n),
            seed,
        })
    })
}

fn solve_line(id: u64, spec: InstanceSpec) -> String {
    serde_json::to_string(&Request {
        id: Some(id),
        op: Op::Solve(SolveBody {
            instance: spec,
            algorithm: "gs".to_string(),
            eps: 0.5,
            delta: 0.1,
            seed: 1,
            backend: "greedy".to_string(),
            deadline_ms: 0,
            cycles: 0,
        }),
    })
    .unwrap()
}

fn service_with_shards(shards: usize) -> Arc<Service> {
    Service::start(ServiceConfig {
        workers: shards,
        queue_capacity: 16,
        cache_capacity: 32,
        worker_delay_ms: 0,
        shards,
    })
}

/// Runs the workload and returns (cache_hits, solved) from the metrics.
fn run_workload(shards: usize, specs: &[InstanceSpec]) -> (u64, u64) {
    let service = service_with_shards(shards);
    for (i, spec) in specs.iter().enumerate() {
        let out = service.handle_line(&solve_line(i as u64, spec.clone()));
        assert!(out.contains("\"reply\":\"solved\""), "{out}");
    }
    let snap = service.snapshot(false);
    service.join();
    (snap.cache_hits, snap.solved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical instances route identically at every shard count, and
    /// the route is a pure function of the content hash.
    #[test]
    fn identical_instances_land_on_the_same_shard(spec in arb_spec()) {
        for shards in [1usize, 2, 4, 8] {
            let service = service_with_shards(shards);
            let first = service.route(&spec);
            prop_assert!(first < shards);
            // A clone (same content) and a rebuilt spec route the same.
            prop_assert_eq!(service.route(&spec.clone()), first);
            prop_assert_eq!(
                (instance_hash(&spec) % shards as u64) as usize,
                first,
                "route must be hash % shards"
            );
            service.join();
        }
    }

    /// A workload with repeats gets the same number of cache hits at
    /// every shard count: routing by content hash keeps every repeat on
    /// the shard that cached it.
    #[test]
    fn cache_hits_are_unaffected_by_shard_count(
        specs in proptest::collection::vec(arb_spec(), 1..8),
        repeats in 1usize..3,
    ) {
        // Workload: each distinct spec `repeats + 1` times, interleaved.
        let mut workload = Vec::new();
        for _ in 0..=repeats {
            workload.extend(specs.iter().cloned());
        }
        let baseline = run_workload(1, &workload);
        prop_assert_eq!(baseline.1, workload.len() as u64);
        for shards in [2usize, 4, 8] {
            let got = run_workload(shards, &workload);
            prop_assert_eq!(got, baseline, "shards={}", shards);
        }
    }

    /// Per-shard books sum exactly to the aggregate snapshot.
    #[test]
    fn shard_counters_sum_to_the_aggregate(
        specs in proptest::collection::vec(arb_spec(), 1..10),
        shard_pick in 0usize..3,
    ) {
        let shards = [2usize, 4, 8][shard_pick];
        let service = service_with_shards(shards);
        // Solve each spec twice so hits and misses both accumulate.
        for (i, spec) in specs.iter().chain(specs.iter()).enumerate() {
            service.handle_line(&solve_line(i as u64, spec.clone()));
        }
        let out = service.handle_line("{\"id\":99,\"op\":\"metrics\"}");
        let resp: asm_service::Response = serde_json::from_str(&out).unwrap();
        let Reply::Metrics(snap) = resp.reply else {
            panic!("expected metrics, got {out}");
        };
        service.join();
        prop_assert_eq!(snap.shards.len(), shards);
        let sum = |f: fn(&asm_service::ShardSnapshot) -> u64| {
            snap.shards.iter().map(f).sum::<u64>()
        };
        prop_assert_eq!(sum(|s| s.solved), snap.solved);
        prop_assert_eq!(sum(|s| s.analyzed), snap.analyzed);
        prop_assert_eq!(sum(|s| s.overloaded), snap.overloaded);
        prop_assert_eq!(sum(|s| s.deadline_exceeded), snap.deadline_exceeded);
        prop_assert_eq!(sum(|s| s.cache_hits), snap.cache_hits);
        prop_assert_eq!(sum(|s| s.cache_misses), snap.cache_misses);
        prop_assert_eq!(sum(|s| s.cache_entries), snap.cache_entries);
        prop_assert_eq!(sum(|s| s.rounds_total), snap.rounds_total);
        prop_assert_eq!(sum(|s| s.messages_total), snap.messages_total);
        prop_assert_eq!(sum(|s| s.blocking_pairs_total), snap.blocking_pairs_total);
        prop_assert_eq!(sum(|s| s.matched_total), snap.matched_total);
        let peak = snap.shards.iter().map(|s| s.queue_peak).max().unwrap_or(0);
        prop_assert_eq!(peak, snap.queue_peak);
    }
}

//! Turns runs into the reported metrics, the human-readable report, and
//! the final JSON line.

use crate::fleet::Topology;
use crate::host::{Fingerprint, ProcSample, TaskCpu};
use crate::mix::Phase;
use crate::replay::{layer_totals, on_solve_path, Replay};
use crate::{Config, Run};
use asm_service::{BatchItemResult, Reply, RouterSnapshot, StageSnapshot};

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 63] = [
    // reported, not gated: the tails follow the host's CPU steal on
    // small-open, and mean rounds differ by seed on market-churn
    ("tail.latency_p90_ms", "ms"),
    ("tail.latency_p99_ms", "ms"),
    ("rounds_per_solve", "rounds"),
    // transport
    ("reactor.cpu_ms_per_req", "ms"),
    ("reactor.sys_share", "fraction"),
    ("reactor.ctx_switches_per_req", "count"),
    ("reactor.idle_cpu_pct", "%"),
    ("stage.decode_us", "us"),
    ("stage.flush_us", "us"),
    // codec
    ("codec.json.decode_us", "us"),
    ("codec.binary.decode_us", "us"),
    ("codec.json.encode_us", "us"),
    ("codec.binary.encode_us", "us"),
    ("codec.json.reply_bytes", "bytes"),
    ("codec.binary.reply_bytes", "bytes"),
    ("stage.encode_us", "us"),
    // admission and queue
    ("stage.queue_us", "us"),
    ("stage.gap_us", "us"),
    ("queue.peak", "count"),
    ("workers.cpu_ms_per_req", "ms"),
    ("workers.ctx_switches_per_req", "count"),
    // cache
    ("cache.hit_ratio", "fraction"),
    ("cache.key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    // instance
    ("instance.build_us", "us"),
    ("instance.build_ns_per_edge", "ns"),
    ("instance.edges", "count"),
    // engine and maximal matching
    ("engine.asm_us", "us"),
    ("engine.rand-asm_us", "us"),
    ("engine.gs_us", "us"),
    ("engine.rounds", "rounds"),
    ("engine.messages", "count"),
    ("engine.pr_executed_ratio", "fraction"),
    ("maximal.calls", "count"),
    ("maximal.rounds", "rounds"),
    ("maximal.nonmaximal_ratio", "fraction"),
    // audit
    ("audit.us", "us"),
    ("audit.ns_per_edge", "ns"),
    ("audit.blocking_fraction", "fraction"),
    // market
    ("market.apply_us", "us"),
    ("market.resolve_warm_us", "us"),
    ("market.resolve_cold_us", "us"),
    ("market.warm_share", "fraction"),
    ("market.fallback_share", "fraction"),
    ("market.warm_rounds", "rounds"),
    ("market.cold_rounds", "rounds"),
    // router
    ("router.cpu_ms_per_req", "ms"),
    ("backends.cpu_ms_per_req", "ms"),
    ("router.retried", "count"),
    ("router.failovers", "count"),
    ("router.sheds", "count"),
    ("router.spread", "fraction"),
    // load generator
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    // replay against the server's solve stage
    ("stage.solve_us", "us"),
    ("replay.solve_us", "us"),
    ("replay.unattributed_us", "us"),
    // tracing overhead: traced minus untraced run
    ("overhead.setup_s", "s"),
    ("overhead.throughput_rps", "req/s"),
    ("overhead.latency_p50_ms", "ms"),
    ("overhead.cpu_ms_per_req", "ms"),
    ("overhead.peak_rss_mb", "MiB"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Linear-interpolated quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Outcome counts of a run's timed window.
struct Window {
    /// Requests (solve items, or market pairs) attempted in the window.
    items: u64,
    /// Requests in failed units, plus one per other failed check.
    failed: u64,
    seconds: f64,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rounds: u64,
    solves: u64,
    blocking_pairs: u64,
    edges: u64,
}

fn window(run: &Run) -> Window {
    let mut w = Window {
        items: 0,
        failed: 0,
        seconds: (run.window_ns.1 - run.window_ns.0) as f64 / 1e9,
        latencies_ms: Vec::new(),
        late_ms: Vec::new(),
        rounds: 0,
        solves: 0,
        blocking_pairs: 0,
        edges: 0,
    };
    for (u, unit) in run.window_units() {
        w.items += unit.items;
        if run.decoded.failed_units[u] {
            w.failed += unit.items;
        }
        w.latencies_ms.push(unit.latency_ns() as f64 / 1e6);
        w.late_ms.push(unit.late_ns as f64 / 1e6);
        for response in run.decoded.replies[u].iter().flatten() {
            let mut tally = |rounds: u64, bp: u64, edges: u64| {
                w.rounds += rounds;
                w.solves += 1;
                w.blocking_pairs += bp;
                w.edges += edges;
            };
            match &response.reply {
                Reply::Solved(r) => tally(r.rounds, r.blocking_pairs, r.num_edges),
                Reply::Resolved(r) => tally(r.rounds, r.blocking_pairs, r.num_edges),
                Reply::SolvedBatch(b) => {
                    for item in &b.items {
                        if let BatchItemResult::Solved(r) = item {
                            tally(r.rounds, r.blocking_pairs, r.num_edges);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Every other failed check counts once: replies outside the window,
    // the books, the oracle sample, and unclean exits.
    let not_replies = run
        .failures
        .len()
        .saturating_sub(run.decoded.failures.len());
    let outside_window = run
        .decoded
        .failed_units
        .iter()
        .zip(&run.units)
        .filter(|(failed, unit)| **failed && unit.phase != Phase::Window)
        .count();
    w.failed += (not_replies + outside_window) as u64;
    w.latencies_ms.sort_by(f64::total_cmp);
    w.late_ms.sort_by(f64::total_cmp);
    w
}

fn cpu_sum<'a>(
    samples: impl Iterator<Item = &'a ProcSample>,
    f: impl Fn(&ProcSample) -> TaskCpu,
) -> TaskCpu {
    let mut sum = TaskCpu::default();
    for s in samples {
        let t = f(s);
        sum.utime_ticks += t.utime_ticks;
        sum.stime_ticks += t.stime_ticks;
        sum.ctx_switches += t.ctx_switches;
        sum.runtime_ns += t.runtime_ns;
    }
    sum
}

fn end_to_end(run: &Run, w: &Window) -> Vec<f64> {
    let items = w.items as f64;
    let cpu_ms = cpu_sum(run.cpu.iter().map(|(_, s)| s), |s| s.process.clone()).cpu_ms();
    vec![
        median(&run.setups_s),
        ratio(items, w.seconds),
        quantile(&w.latencies_ms, 0.50),
        ratio(cpu_ms, items),
        run.peak_rss_mb,
    ]
}

fn stage_mean(before: &StageSnapshot, after: &StageSnapshot) -> f64 {
    ratio(
        after.total_us.saturating_sub(before.total_us) as f64,
        after.count.saturating_sub(before.count) as f64,
    )
}

fn per_layer(plain: &[f64], traced_run: &Run, traced: &[f64], replay: &Replay) -> Vec<f64> {
    let w = window(traced_run);
    let items = w.items as f64;
    let samples = |pids: &[u32]| -> Vec<&ProcSample> {
        traced_run
            .cpu
            .iter()
            .filter(|(pid, _)| pids.contains(pid))
            .map(|(_, s)| s)
            .collect()
    };
    let all_pids: Vec<u32> = traced_run.cpu.iter().map(|(p, _)| *p).collect();
    let reactor = cpu_sum(samples(&all_pids).into_iter(), |s| {
        s.threads_named("asm-reactor")
    });
    let workers = cpu_sum(samples(&traced_run.serve_pids).into_iter(), |s| {
        s.threads_named("asm-worker")
    });
    let backends = cpu_sum(samples(&traced_run.serve_pids).into_iter(), |s| {
        s.process.clone()
    });
    let router_cpu = traced_run
        .router_pid
        .map(|p| cpu_sum(samples(&[p]).into_iter(), |s| s.process.clone()))
        .unwrap_or_default();

    let (b0, b1) = traced_run
        .books
        .as_ref()
        .expect("a traced run samples the books at both ends of its window");
    let default_stages = Default::default();
    let (s0, s1) = (
        b0.stages.as_ref().unwrap_or(&default_stages),
        b1.stages.as_ref().unwrap_or(&default_stages),
    );
    let stage = |f: fn(&asm_service::StagesSnapshot) -> &StageSnapshot| stage_mean(f(s0), f(s1));
    let stage_rows = s1.total.count.saturating_sub(s0.total.count) as f64;
    let parts = stage(|s| &s.decode)
        + stage(|s| &s.queue)
        + stage(|s| &s.solve)
        + stage(|s| &s.encode)
        + stage(|s| &s.flush);
    let hits = b1.cache_hits.saturating_sub(b0.cache_hits) as f64;
    let misses = b1.cache_misses.saturating_sub(b0.cache_misses) as f64;
    let market_default = Default::default();
    let (m0, m1) = (
        b0.market.as_ref().unwrap_or(&market_default),
        b1.market.as_ref().unwrap_or(&market_default),
    );
    let warm = m1.warm_resolves.saturating_sub(m0.warm_resolves) as f64;
    let cold = m1.cold_resolves.saturating_sub(m0.cold_resolves) as f64;
    let router = |f: fn(&RouterSnapshot) -> u64| match (&b0.router, &b1.router) {
        (Some(a), Some(b)) => f(b).saturating_sub(f(a)) as f64,
        (None, Some(b)) => f(b) as f64,
        _ => 0.0,
    };
    let per_backend: Vec<f64> = b1
        .backends
        .iter()
        .map(|b| {
            let before = b0
                .backends
                .iter()
                .find(|x| x.backend == b.backend)
                .map_or(0, |x| x.solved);
            b.solved.saturating_sub(before) as f64
        })
        .collect();
    let spread = match (
        per_backend.iter().cloned().reduce(f64::min),
        per_backend.iter().cloned().reduce(f64::max),
    ) {
        (Some(lo), Some(hi)) => ratio(lo, hi),
        _ => 0.0,
    };

    let totals = layer_totals(&replay.tracer, |_| true);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |&(n, ns)| ratio(ns as f64, n as f64) / 1e3)
    };
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |&(_, ns)| ns as f64);
    // Σ replay time on the solve path, over the window's requests only.
    let in_window: Vec<bool> = traced_run
        .units
        .iter()
        .map(|u| u.phase == Phase::Window)
        .collect();
    let spans = &replay.tracer.spans;
    let solve_path_ns: u64 = spans
        .iter()
        .filter(|s| {
            in_window[s.request]
                && on_solve_path(s.name)
                && s.parent.is_some_and(|p| spans[p].name == "request")
        })
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let replay_solve_us = ratio(solve_path_ns as f64 / 1e3, stage_rows);
    let c = &replay.counts;
    let overhead: Vec<f64> = traced.iter().zip(plain).map(|(t, p)| t - p).collect();

    let mut v = vec![
        quantile(&w.latencies_ms, 0.90),
        quantile(&w.latencies_ms, 0.99),
        ratio(w.rounds as f64, w.solves as f64),
        ratio(reactor.cpu_ms(), items),
        ratio(
            reactor.stime_ticks as f64,
            (reactor.utime_ticks + reactor.stime_ticks) as f64,
        ),
        ratio(reactor.ctx_switches as f64, items),
        traced_run.idle_reactor_pct,
        stage(|s| &s.decode),
        stage(|s| &s.flush),
        mean_us("codec.json.decode"),
        mean_us("codec.binary.decode"),
        mean_us("codec.json.encode"),
        mean_us("codec.binary.encode"),
        ratio(
            replay.reply_bytes[0].0 as f64,
            replay.reply_bytes[0].1 as f64,
        ),
        ratio(
            replay.reply_bytes[1].0 as f64,
            replay.reply_bytes[1].1 as f64,
        ),
        stage(|s| &s.encode),
        stage(|s| &s.queue),
        (stage(|s| &s.total) - parts).max(0.0),
        b1.queue_peak as f64,
        ratio(workers.cpu_ms(), items),
        ratio(workers.ctx_switches as f64, items),
        ratio(hits, hits + misses),
        mean_us("cache.key"),
        mean_us("cache.get"),
        mean_us("cache.put"),
        mean_us("instance.build"),
        ratio(total_ns("instance.build"), c.built_edges as f64),
        ratio(c.built_edges as f64, c.builds as f64),
        mean_us("engine.asm"),
        mean_us("engine.rand-asm"),
        mean_us("engine.gs"),
        ratio(c.rounds as f64, c.solves as f64),
        ratio(c.messages as f64, c.solves as f64),
        ratio(c.pr_executed as f64, c.pr_scheduled as f64),
        ratio(c.mm_calls as f64, c.asm_runs as f64),
        ratio(c.mm_rounds as f64, c.asm_runs as f64),
        ratio(c.mm_nonmaximal as f64, c.mm_calls as f64),
        mean_us("audit"),
        ratio(total_ns("audit"), c.audited_edges as f64),
        ratio(w.blocking_pairs as f64, w.edges as f64),
        mean_us("market.apply"),
        mean_us("market.resolve.warm"),
        mean_us("market.resolve.cold"),
        ratio(warm, warm + cold),
        ratio(
            m1.fallbacks.saturating_sub(m0.fallbacks) as f64,
            warm + cold,
        ),
        ratio(
            m1.warm_rounds_total.saturating_sub(m0.warm_rounds_total) as f64,
            warm,
        ),
        ratio(
            m1.cold_rounds_total.saturating_sub(m0.cold_rounds_total) as f64,
            cold,
        ),
        ratio(router_cpu.cpu_ms(), items),
        ratio(backends.cpu_ms(), items),
        router(|r| r.retried),
        router(|r| r.failovers),
        router(|r| r.sheds),
        spread,
        quantile(&w.late_ms, 0.99),
        w.late_ms.last().copied().unwrap_or(0.0),
        stage(|s| &s.solve),
        replay_solve_us,
        stage(|s| &s.solve) - replay_solve_us,
    ];
    v.extend(overhead);
    v
}

/// What one invocation prints.
pub struct Report {
    lines: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn header(cfg: &Config, fp: &Fingerprint, run: &Run, w: &Window) -> Vec<String> {
    let budget = match cfg.workload.topology(fp.nproc) {
        Topology::Single { workers } => format!("asm serve --workers {workers}"),
        Topology::Routed {
            backends,
            workers,
            forwarders,
        } => format!(
            "asm route --forwarders {forwarders} over {backends} x asm serve --workers {workers}"
        ),
    };
    vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={}{}",
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            if cfg.delay_ms > 0 {
                format!(" worker-delay-ms={}", cfg.delay_ms)
            } else {
                String::new()
            }
        ),
        format!(
            "host: nproc={} cpu=\"{}\" kernel={} budget: {budget}, queue-capacity {}",
            fp.nproc,
            fp.cpu_model,
            fp.kernel,
            crate::fleet::QUEUE_CAPACITY
        ),
        format!(
            "noise: cpu steal {:.2}% of the window; generator late p99 {:.3} ms, max {:.3} ms",
            run.steal_share * 100.0,
            quantile(&w.late_ms, 0.99),
            w.late_ms.last().copied().unwrap_or(0.0),
        ),
        format!(
            "reported, not gated: latency_p90_ms = {:.4} ms, latency_p99_ms = {:.4} ms over {} \
             samples; rounds_per_solve = {:.4} rounds over {} solves",
            quantile(&w.latencies_ms, 0.90),
            quantile(&w.latencies_ms, 0.99),
            w.latencies_ms.len(),
            ratio(w.rounds as f64, w.solves as f64),
            w.solves
        ),
    ]
}

fn check_lines(label: &str, run: &Run, w: &Window) -> Vec<String> {
    let mut lines = vec![format!(
        "checks ({label} run): {} frames decoded and checked (id echo, reply kind, blocking pairs <= eps*|E|), books reconciled; error_rate {} ({} of {} requests)",
        run.decoded.replies.iter().map(Vec::len).sum::<usize>(),
        ratio(w.failed as f64, w.items as f64),
        w.failed,
        w.items
    )];
    for f in run.failures.iter().take(20) {
        lines.push(format!("FAILED: {f}"));
    }
    lines
}

impl Report {
    pub fn untraced(cfg: &Config, fp: &Fingerprint, run: &Run) -> Report {
        let w = window(run);
        let e2e = end_to_end(run, &w);
        assert_eq!(
            e2e.len(),
            END_TO_END.len(),
            "one value per end-to-end metric"
        );
        let mut lines = header(cfg, fp, run, &w);
        lines.extend(check_lines("untraced", run, &w));
        Report {
            lines,
            correct: w.failed == 0 && run.clean_exit,
            attempted: w.items.max(1),
            failed: w.failed,
            metrics: END_TO_END
                .iter()
                .zip(e2e)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect(),
        }
    }

    pub fn traced(
        cfg: &Config,
        fp: &Fingerprint,
        plain: &Run,
        traced: &Run,
        replay: &Replay,
    ) -> Report {
        let (wp, wt) = (window(plain), window(traced));
        let (e2e_plain, e2e_traced) = (end_to_end(plain, &wp), end_to_end(traced, &wt));
        let layers = per_layer(&e2e_plain, traced, &e2e_traced, replay);
        assert_eq!(
            layers.len(),
            PER_LAYER.len(),
            "one value per per-layer metric"
        );
        let mut lines = header(cfg, fp, traced, &wt);
        lines.extend(check_lines("untraced", plain, &wp));
        lines.extend(check_lines("traced", traced, &wt));
        lines.push(format!(
            "replay: {} spans; every reply re-derived in-process and re-checked by the conformance oracles; {} mismatches",
            replay.tracer.spans.len(),
            replay.failures.len()
        ));
        for f in replay.failures.iter().take(20) {
            lines.push(format!("FAILED: {f}"));
        }
        lines.push("end to end: untraced / traced (overhead)".to_string());
        for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
            lines.push(format!(
                "  {name:<18} {:>12.4} / {:>12.4} {unit} ({:+.4})",
                e2e_plain[i],
                e2e_traced[i],
                e2e_traced[i] - e2e_plain[i]
            ));
        }
        let failed = wp.failed + wt.failed + replay.failures.len() as u64;
        Report {
            lines,
            correct: failed == 0 && plain.clean_exit && traced.clean_exit,
            attempted: (wp.items + wt.items).max(1),
            failed,
            metrics: PER_LAYER
                .iter()
                .zip(layers)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect(),
        }
    }

    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<30} {value:>14.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "no metric beyond the code's"
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
    }
}

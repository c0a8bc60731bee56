//! CI perf-regression gate, two independent modes (run one or both):
//!
//! * **Sweep gate** — compares a fresh `BENCH_sweep.json` against the
//!   committed baseline and fails (exit 1) when any experiment's
//!   wall-clock regressed beyond the tolerance.
//! * **Regime gate** — compares a fresh `regime_map` report's shard
//!   crossovers against the committed `results/regime_map.json` and
//!   fails when any (n, codec) column's break-even shard count moved
//!   more than one grid step later (wall-clock-robust: it gates the
//!   *structure* of the map, not absolute throughput).
//!
//! ```text
//! perf_gate --baseline results/bench_baseline.json \
//!           --current BENCH_sweep.json [--tolerance 0.25]
//! perf_gate --regime-baseline results/regime_map.json \
//!           --regime-current regime_quick.json
//! ```
//!
//! The tolerance is a fractional slowdown (0.25 = +25%); the
//! `BENCH_GATE_TOLERANCE` environment variable overrides the default
//! when no `--tolerance` flag is given. Experiments faster than the
//! noise floor (`GATE_FLOOR_MS`) are never flagged, and experiments new
//! in the current run are allowed; experiments *missing* from the
//! current run fail the gate. The regime gate compares only (n, codec)
//! columns present in both reports, so a `--quick` regime run gates its
//! subset of the committed full map.

use asm_bench::regime::{compare_crossovers, RegimeReport};
use asm_runtime::{sweep, SweepReport};
use std::process::ExitCode;

struct GateArgs {
    baseline: Option<String>,
    current: Option<String>,
    regime_baseline: Option<String>,
    regime_current: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<GateArgs, String> {
    let mut baseline = None;
    let mut current = None;
    let mut regime_baseline = None;
    let mut regime_current = None;
    let mut tolerance = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = args.next(),
            "--current" => current = args.next(),
            "--regime-baseline" => regime_baseline = args.next(),
            "--regime-current" => regime_current = args.next(),
            "--tolerance" => {
                let raw = args.next().ok_or("--tolerance needs a value")?;
                tolerance = Some(
                    raw.parse::<f64>()
                        .map_err(|e| format!("--tolerance: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let tolerance = match tolerance {
        Some(t) => t,
        None => match std::env::var("BENCH_GATE_TOLERANCE") {
            Ok(raw) => raw
                .parse::<f64>()
                .map_err(|e| format!("BENCH_GATE_TOLERANCE: {e}"))?,
            Err(_) => 0.25,
        },
    };
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!(
            "tolerance must be a finite fraction >= 0, got {tolerance}"
        ));
    }
    if baseline.is_some() != current.is_some() {
        return Err("--baseline and --current must be given together".to_string());
    }
    if regime_baseline.is_some() != regime_current.is_some() {
        return Err("--regime-baseline and --regime-current must be given together".to_string());
    }
    if baseline.is_none() && regime_baseline.is_none() {
        return Err(
            "nothing to gate: give --baseline/--current and/or --regime-baseline/--regime-current"
                .to_string(),
        );
    }
    Ok(GateArgs {
        baseline,
        current,
        regime_baseline,
        regime_current,
        tolerance,
    })
}

fn load(path: &str) -> Result<SweepReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    SweepReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_regime(path: &str) -> Result<RegimeReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    RegimeReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The wall-clock sweep gate. Returns false on any regression.
fn gate_sweep(baseline_path: &str, current_path: &str, tolerance: f64) -> bool {
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return false;
        }
    };
    println!(
        "perf gate: {} baseline experiments vs {} current, tolerance +{:.0}% (floor {} ms)",
        baseline.per_experiment_ms().len(),
        current.per_experiment_ms().len(),
        tolerance * 100.0,
        sweep::GATE_FLOOR_MS,
    );
    let mut current_by_exp = current.per_experiment_ms();
    for (experiment, base_ms) in baseline.per_experiment_ms() {
        match current_by_exp.remove(&experiment) {
            Some(cur_ms) => println!(
                "  {experiment}: {base_ms:.1} ms -> {cur_ms:.1} ms ({:+.1}%)",
                (cur_ms / base_ms.max(f64::MIN_POSITIVE) - 1.0) * 100.0
            ),
            None => println!("  {experiment}: missing from current run"),
        }
    }
    for (experiment, cur_ms) in current_by_exp {
        println!("  {experiment}: new ({cur_ms:.1} ms, not gated)");
    }
    let regressions = sweep::compare(&baseline, &current, tolerance);
    if regressions.is_empty() {
        println!("perf gate: OK");
        true
    } else {
        for r in &regressions {
            eprintln!("perf gate FAIL: {r}");
        }
        false
    }
}

/// The shard-crossover regime gate. Returns false on any regression.
fn gate_regime(baseline_path: &str, current_path: &str) -> bool {
    let (baseline, current) = match (load_regime(baseline_path), load_regime(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_gate: {err}");
            }
            return false;
        }
    };
    println!(
        "regime gate: {} baseline crossovers vs {} current (one grid step of slack on {:?})",
        baseline.crossovers.len(),
        current.crossovers.len(),
        baseline.shard_grid,
    );
    for base in &baseline.crossovers {
        let cur = current
            .crossovers
            .iter()
            .find(|c| c.n == base.n && c.codec == base.codec);
        let show = |x: &Option<u64>| match x {
            Some(s) => format!("{s}"),
            None => "never".to_string(),
        };
        match cur {
            Some(cur) => println!(
                "  n={} {}: crossover {} -> {}",
                base.n,
                base.codec,
                show(&base.crossover_shards),
                show(&cur.crossover_shards)
            ),
            None => println!(
                "  n={} {}: not in current run (not gated)",
                base.n, base.codec
            ),
        }
    }
    let violations = compare_crossovers(&baseline, &current);
    if violations.is_empty() {
        println!("regime gate: OK");
        true
    } else {
        for v in &violations {
            eprintln!("regime gate FAIL: {v}");
        }
        false
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    if let (Some(baseline), Some(current)) = (&args.baseline, &args.current) {
        ok &= gate_sweep(baseline, current, args.tolerance);
    }
    if let (Some(baseline), Some(current)) = (&args.regime_baseline, &args.regime_current) {
        ok &= gate_regime(baseline, current);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

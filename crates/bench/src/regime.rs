//! Shard regime map: where does sharding start to pay?
//!
//! The `regime_map` binary sweeps instance size × shard count × wire
//! codec at high request volume and, for every cell, uses the server's
//! stage-clock books (`metrics` with `detail: "stages"`) to attribute
//! wall time to the request lifecycle — decode, queue, solve, encode,
//! flush. The interesting derived quantity is the **crossover**: for
//! each (n, codec), the smallest shard count that beats the unsharded
//! server's throughput. Small instances are envelope-bound (sharding
//! buys nothing, the crossover is late or absent); large instances are
//! solve-bound (splitting queues and caches pays immediately).
//!
//! This module holds the report schema and the crossover arithmetic so
//! the CI gate (`perf_gate --regime-baseline …`) parses exactly what the
//! sweep binary writes. Wall-clock throughput is machine-dependent;
//! the *crossover structure* is the stable, gateable claim.

use serde::{Deserialize, Serialize};

/// Schema version of [`RegimeReport`].
pub const REGIME_SCHEMA: u64 = 1;

/// Fractional throughput margin a sharded cell must clear over the
/// unsharded cell to count as breaking even. Without it, a solve-bound
/// column whose throughput is flat across shard counts (the common case
/// on a small machine: a fixed worker budget means sharding only moves
/// queue structure, not parallelism) would flip between `Some(2)` and
/// `None` on run-to-run noise — the margin makes "sharding does not
/// pay" a stable, reproducible verdict.
///
/// 15% is deliberately far above the observed run-to-run noise on a
/// small shared box (measured wiggle on flat columns: up to ~11%). The
/// crossovers that survive it are the structural ones — large-n columns
/// where splitting the queue across shards cuts end-to-end time by
/// 30%+ — and those classify identically run after run, which is what
/// lets `compare_crossovers` hard-fail CI instead of flaking.
pub const BREAKEVEN_MARGIN: f64 = 0.15;

/// Per-stage share of the measured request lifecycle in one cell,
/// derived from the aggregate stage books (`Σ µs` per stage over the
/// whole run, normalized by the end-to-end `Σ µs`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageShare {
    /// Mean µs per traced request spent in this stage.
    pub mean_us: f64,
    /// This stage's fraction of the end-to-end Σ µs (0 when nothing
    /// was traced).
    pub fraction: f64,
}

/// Where one cell's time went, stage by stage. Fractions are of the
/// end-to-end (recv → flushed) books, so they sum to ≤ 1 — the
/// decoded→enqueued dispatch gap is deliberately uncounted.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageAttribution {
    /// recv → decoded.
    pub decode: StageShare,
    /// enqueued → dequeued.
    pub queue: StageShare,
    /// dequeued → solved.
    pub solve: StageShare,
    /// solved → encoded.
    pub encode: StageShare,
    /// encoded → flushed.
    pub flush: StageShare,
    /// Mean end-to-end µs per traced request.
    pub total_mean_us: f64,
}

/// One (n, shards, codec) measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeCell {
    /// Instance size.
    pub n: u64,
    /// Server shard count.
    pub shards: u64,
    /// Wire codec (`json` or `binary`).
    pub codec: String,
    /// Requests replayed.
    pub requests: u64,
    /// `solved` replies.
    pub solved: u64,
    /// Closed-loop throughput, requests per second (machine-dependent).
    pub throughput_rps: f64,
    /// Run wall-clock, ms.
    pub wall_ms: f64,
    /// Where the time went, from the server's stage books.
    pub stages: StageAttribution,
}

/// The break-even point for one (n, codec) column of the map.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Crossover {
    /// Instance size.
    pub n: u64,
    /// Wire codec.
    pub codec: String,
    /// Unsharded throughput (the baseline the others must beat).
    pub base_rps: f64,
    /// Smallest shard count > 1 whose throughput ≥ the unsharded
    /// throughput; `None` when no sharded cell breaks even (the
    /// envelope-bound regime).
    pub crossover_shards: Option<u64>,
    /// The shard count with the best throughput (1 when sharding never
    /// helps).
    pub best_shards: u64,
    /// That best throughput.
    pub best_rps: f64,
}

/// The committed artifact: the full cell grid plus the derived
/// crossover map.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeReport {
    /// [`REGIME_SCHEMA`].
    pub schema: u64,
    /// True when produced by `--quick` (a coarser grid; the gate only
    /// compares (n, codec) columns both reports measured).
    pub quick: bool,
    /// The shard counts every column swept, ascending, starting at 1.
    pub shard_grid: Vec<u64>,
    /// The measured cells, in sweep order.
    pub cells: Vec<RegimeCell>,
    /// One crossover per (n, codec) column.
    pub crossovers: Vec<Crossover>,
    /// Human context for the committed artifact.
    pub notes: Vec<String>,
}

impl RegimeReport {
    /// Parses a report, checking the schema version.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a schema mismatch.
    pub fn from_json(text: &str) -> Result<RegimeReport, String> {
        let report: RegimeReport =
            serde_json::from_str(text).map_err(|e| format!("regime report: {e}"))?;
        if report.schema != REGIME_SCHEMA {
            return Err(format!(
                "regime report schema {} (this binary understands {REGIME_SCHEMA})",
                report.schema
            ));
        }
        Ok(report)
    }

    /// Renders as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("regime report serializes")
    }
}

/// Derives the crossover map from a measured cell grid: for every
/// (n, codec) column with an unsharded cell, the smallest shard count
/// that clears the unsharded throughput by `margin` (see
/// [`BREAKEVEN_MARGIN`]), plus the best cell.
pub fn crossovers(cells: &[RegimeCell], shard_grid: &[u64], margin: f64) -> Vec<Crossover> {
    let mut columns: Vec<(u64, String)> = Vec::new();
    for cell in cells {
        let key = (cell.n, cell.codec.clone());
        if !columns.contains(&key) {
            columns.push(key);
        }
    }
    let mut out = Vec::new();
    for (n, codec) in columns {
        let rps = |shards: u64| {
            cells
                .iter()
                .find(|c| c.n == n && c.codec == codec && c.shards == shards)
                .map(|c| c.throughput_rps)
        };
        let Some(base_rps) = rps(1) else { continue };
        let mut crossover_shards = None;
        let mut best_shards = 1;
        let mut best_rps = base_rps;
        for &shards in shard_grid.iter().filter(|&&s| s > 1) {
            let Some(r) = rps(shards) else { continue };
            if crossover_shards.is_none() && r >= base_rps * (1.0 + margin) {
                crossover_shards = Some(shards);
            }
            if r > best_rps {
                best_shards = shards;
                best_rps = r;
            }
        }
        out.push(Crossover {
            n,
            codec,
            base_rps,
            crossover_shards,
            best_shards,
            best_rps,
        });
    }
    out
}

/// Gates a current crossover map against a baseline with one grid step
/// of slack: for every (n, codec) column both reports measured, the
/// current crossover may sit at most one shard-grid position later than
/// the baseline's. `None` means "never breaks even" and sits one past
/// the end of the grid, so a baseline crossover at the last grid entry
/// tolerates a current `None`, but an early baseline crossover does
/// not. Columns only one report measured are not compared (a `--quick`
/// run gates against the committed full map by intersection).
///
/// Returns the violations (empty ⇔ the gate passes).
pub fn compare_crossovers(baseline: &RegimeReport, current: &RegimeReport) -> Vec<String> {
    let mut violations = Vec::new();
    // Positions index the *baseline's* shard grid — the committed
    // artifact defines the regime structure being defended.
    let position = |grid: &[u64], crossover: &Option<u64>| -> usize {
        match crossover {
            Some(s) => grid.iter().position(|g| g == s).unwrap_or(grid.len()),
            None => grid.len(),
        }
    };
    let mut compared = 0;
    for base in &baseline.crossovers {
        let Some(cur) = current
            .crossovers
            .iter()
            .find(|c| c.n == base.n && c.codec == base.codec)
        else {
            continue;
        };
        compared += 1;
        let base_pos = position(&baseline.shard_grid, &base.crossover_shards);
        let cur_pos = position(&baseline.shard_grid, &cur.crossover_shards);
        if cur_pos > base_pos + 1 {
            violations.push(format!(
                "n={} codec={}: crossover regressed from {} to {} (more than one grid step)",
                base.n,
                base.codec,
                describe(&base.crossover_shards),
                describe(&cur.crossover_shards),
            ));
        }
    }
    if compared == 0 {
        violations.push(
            "no (n, codec) column is present in both reports — nothing was gated".to_string(),
        );
    }
    violations
}

fn describe(crossover: &Option<u64>) -> String {
    match crossover {
        Some(s) => format!("{s} shards"),
        None => "never".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(n: u64, shards: u64, codec: &str, rps: f64) -> RegimeCell {
        RegimeCell {
            n,
            shards,
            codec: codec.to_string(),
            requests: 100,
            solved: 100,
            throughput_rps: rps,
            wall_ms: 1.0,
            stages: StageAttribution::default(),
        }
    }

    fn report(crossovers: Vec<Crossover>) -> RegimeReport {
        RegimeReport {
            schema: REGIME_SCHEMA,
            quick: false,
            shard_grid: vec![1, 2, 4, 8],
            cells: Vec::new(),
            crossovers,
            notes: Vec::new(),
        }
    }

    fn xover(n: u64, codec: &str, at: Option<u64>) -> Crossover {
        Crossover {
            n,
            codec: codec.to_string(),
            base_rps: 100.0,
            crossover_shards: at,
            best_shards: at.unwrap_or(1),
            best_rps: 120.0,
        }
    }

    #[test]
    fn crossover_picks_smallest_breakeven_shard_count() {
        let grid = [1, 2, 4, 8];
        // Envelope-bound: sharding only hurts → no crossover.
        let small = [
            cell(64, 1, "json", 1000.0),
            cell(64, 2, "json", 900.0),
            cell(64, 4, "json", 800.0),
            cell(64, 8, "json", 700.0),
        ];
        // Solve-bound: 2 shards already break even.
        let large = [
            cell(4096, 1, "json", 100.0),
            cell(4096, 2, "json", 150.0),
            cell(4096, 4, "json", 220.0),
            cell(4096, 8, "json", 210.0),
        ];
        let cells: Vec<RegimeCell> = small.iter().chain(&large).cloned().collect();
        let map = crossovers(&cells, &grid, BREAKEVEN_MARGIN);
        assert_eq!(map.len(), 2);
        assert_eq!(map[0].crossover_shards, None);
        assert_eq!(map[0].best_shards, 1);
        assert_eq!(map[1].crossover_shards, Some(2));
        assert_eq!(map[1].best_shards, 4);
        assert!((map[1].best_rps - 220.0).abs() < 1e-9);
    }

    #[test]
    fn crossover_margin_filters_noise_level_wins() {
        let grid = [1, 2, 4];
        // Flat column: a tie (or a within-margin wiggle) is not a win.
        let cells = [
            cell(256, 1, "json", 500.0),
            cell(256, 2, "json", 510.0),
            cell(256, 4, "json", 400.0),
        ];
        let map = crossovers(&cells, &grid, BREAKEVEN_MARGIN);
        assert_eq!(map[0].crossover_shards, None);
        assert_eq!(map[0].best_shards, 2, "best is still tracked unmargined");
        // With no margin the same wiggle counts.
        let map = crossovers(&cells, &grid, 0.0);
        assert_eq!(map[0].crossover_shards, Some(2));
    }

    #[test]
    fn gate_tolerates_one_step_and_flags_two() {
        let baseline = report(vec![
            xover(64, "json", Some(2)),
            xover(256, "json", Some(2)),
        ]);
        // One grid step later: tolerated.
        let drifted = report(vec![
            xover(64, "json", Some(4)),
            xover(256, "json", Some(2)),
        ]);
        assert_eq!(
            compare_crossovers(&baseline, &drifted),
            Vec::<String>::new()
        );
        // Two steps (2 → 8): flagged.
        let regressed = report(vec![
            xover(64, "json", Some(8)),
            xover(256, "json", Some(2)),
        ]);
        let violations = compare_crossovers(&baseline, &regressed);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("n=64"));
    }

    #[test]
    fn gate_treats_none_as_one_past_the_grid() {
        // Baseline crossover at the last grid entry: a current `None` is
        // exactly one step later — tolerated.
        let baseline = report(vec![xover(1024, "json", Some(8))]);
        let none_now = report(vec![xover(1024, "json", None)]);
        assert_eq!(
            compare_crossovers(&baseline, &none_now),
            Vec::<String>::new()
        );
        // Baseline at 4 (position 2), current None (position 4): flagged.
        let early = report(vec![xover(1024, "json", Some(4))]);
        let violations = compare_crossovers(&early, &none_now);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("never"));
        // Both `None`: stable, passes.
        let both_none = report(vec![xover(1024, "json", None)]);
        assert_eq!(
            compare_crossovers(&both_none, &none_now),
            Vec::<String>::new()
        );
    }

    #[test]
    fn gate_requires_a_common_column_and_ignores_extras() {
        let baseline = report(vec![xover(64, "json", Some(2))]);
        let disjoint = report(vec![xover(4096, "binary", Some(2))]);
        let violations = compare_crossovers(&baseline, &disjoint);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("nothing was gated"));
        // A quick run covering a subset of the baseline's columns gates
        // that subset and ignores the rest.
        let subset = report(vec![
            xover(64, "json", Some(2)),
            xover(9999, "json", Some(2)),
        ]);
        assert_eq!(compare_crossovers(&baseline, &subset), Vec::<String>::new());
    }

    #[test]
    fn report_round_trips_and_checks_schema() {
        let report = report(vec![xover(64, "json", None)]);
        let back = RegimeReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        let mut wrong = report.clone();
        wrong.schema = 99;
        assert!(RegimeReport::from_json(&wrong.to_json())
            .unwrap_err()
            .contains("schema 99"));
    }
}

//! Machine-readable sweep output and the perf-regression gate.
//!
//! Every bench run emits a `BENCH_sweep.json`: one [`SweepCell`] per
//! sweep-grid cell with its wall-clock and the deterministic counters
//! (rounds, messages, blocking fraction). CI's `bench-smoke` job feeds
//! the file to [`compare`] against a committed baseline and fails the
//! build on wall-clock regressions beyond a tolerance.
//!
//! Cells are sorted by coordinates before serialization, so the JSON is
//! structurally identical across worker counts (only the wall-clock
//! values vary run to run — the counters must not).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The current `BENCH_sweep.json` schema version.
pub const SWEEP_SCHEMA: u64 = 1;

/// One sweep-grid cell: coordinates plus measurements.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Experiment id (`t1_stability`, `f5_eps_blocking`, ...).
    pub experiment: String,
    /// Instance family (`complete`, `chain`, ...; `-` when the cell
    /// isn't family-specific).
    pub family: String,
    /// Instance size.
    pub n: u64,
    /// Blocking-pair budget ε (0.0 when not applicable).
    pub eps: f64,
    /// The derived cell seed actually used.
    pub seed: u64,
    /// Service shard count the cell was measured against (`0` when the
    /// experiment has no serving-layer dimension). A coordinate, not a
    /// measurement: cells at different shard counts are distinct.
    ///
    /// Omitted from the JSON when `0`, so pre-sharding sweep artifacts
    /// (and the committed perf-gate baseline) parse and regenerate
    /// byte-identically.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub shards: u64,
    /// Wall-clock spent computing the cell, in milliseconds. The only
    /// non-deterministic field.
    pub wall_ms: f64,
    /// Effective rounds the run measured (0 when not applicable).
    pub rounds: u64,
    /// Messages delivered (CONGEST cells; 0 otherwise).
    pub messages: u64,
    /// Blocking-pair fraction of the output matching (0.0 when not
    /// applicable).
    pub blocking_fraction: f64,
}

fn is_zero(shards: &u64) -> bool {
    *shards == 0
}

impl SweepCell {
    /// Creates a cell with all measurements zeroed; callers fill in what
    /// their experiment actually measures.
    pub fn new(experiment: &str, family: &str, n: usize, eps: f64, seed: u64) -> Self {
        SweepCell {
            experiment: experiment.to_string(),
            family: family.to_string(),
            n: n as u64,
            eps,
            seed,
            shards: 0,
            wall_ms: 0.0,
            rounds: 0,
            messages: 0,
            blocking_fraction: 0.0,
        }
    }

    /// The cell's sort/merge key (everything but the measurements).
    fn key(&self) -> (String, String, u64, u64, u64, u64) {
        (
            self.experiment.clone(),
            self.family.clone(),
            self.n,
            self.eps.to_bits(),
            self.seed,
            self.shards,
        )
    }
}

/// A full sweep run: metadata plus its cells.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Schema version ([`SWEEP_SCHEMA`]).
    pub schema: u64,
    /// Worker count the sweep ran with.
    pub par: u64,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Total wall-clock of the whole sweep, in milliseconds.
    pub total_wall_ms: f64,
    /// Per-cell records, sorted by coordinates.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Creates an empty report.
    pub fn new(par: usize, quick: bool) -> Self {
        SweepReport {
            schema: SWEEP_SCHEMA,
            par: par as u64,
            quick,
            total_wall_ms: 0.0,
            cells: Vec::new(),
        }
    }

    /// Appends cells and re-sorts by coordinates (worker scheduling must
    /// not leak into the artifact).
    pub fn extend(&mut self, cells: Vec<SweepCell>) {
        self.cells.extend(cells);
        self.cells.sort_by_key(SweepCell::key);
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep report serializes")
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message on malformed input or
    /// an unknown schema version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: SweepReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if report.schema != SWEEP_SCHEMA {
            return Err(format!(
                "unsupported sweep schema {} (expected {})",
                report.schema, SWEEP_SCHEMA
            ));
        }
        Ok(report)
    }

    /// Total wall-clock per experiment, in milliseconds.
    pub fn per_experiment_ms(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for c in &self.cells {
            *out.entry(c.experiment.clone()).or_insert(0.0) += c.wall_ms;
        }
        out
    }
}

/// One gate finding: an experiment whose wall-clock regressed, or whose
/// cells disappeared relative to the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Experiment id.
    pub experiment: String,
    /// Baseline wall-clock (ms).
    pub baseline_ms: f64,
    /// Current wall-clock (ms); 0.0 for a missing experiment.
    pub current_ms: f64,
    /// `current/baseline - 1`; `f64::INFINITY` for a missing experiment.
    pub ratio: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.current_ms == 0.0 {
            write!(
                f,
                "{}: missing from current run (baseline {:.1} ms)",
                self.experiment, self.baseline_ms
            )
        } else {
            write!(
                f,
                "{}: {:.1} ms -> {:.1} ms (+{:.0}%)",
                self.experiment,
                self.baseline_ms,
                self.current_ms,
                self.ratio * 100.0
            )
        }
    }
}

/// Minimum per-experiment baseline wall-clock (ms) for the gate to judge
/// it: sub-millisecond experiments are all timer noise.
pub const GATE_FLOOR_MS: f64 = 5.0;

/// Compares a run against a baseline: any experiment whose total
/// wall-clock exceeds `baseline * (1 + tolerance)` — or which vanished —
/// is reported. Experiments faster than [`GATE_FLOOR_MS`] in the
/// baseline are skipped, as is any experiment new in `current`.
pub fn compare(baseline: &SweepReport, current: &SweepReport, tolerance: f64) -> Vec<Regression> {
    let base = baseline.per_experiment_ms();
    let cur = current.per_experiment_ms();
    let mut out = Vec::new();
    for (exp, &base_ms) in &base {
        if base_ms < GATE_FLOOR_MS {
            continue;
        }
        match cur.get(exp) {
            None => out.push(Regression {
                experiment: exp.clone(),
                baseline_ms: base_ms,
                current_ms: 0.0,
                ratio: f64::INFINITY,
            }),
            Some(&cur_ms) if cur_ms > base_ms * (1.0 + tolerance) => out.push(Regression {
                experiment: exp.clone(),
                baseline_ms: base_ms,
                current_ms: cur_ms,
                ratio: cur_ms / base_ms - 1.0,
            }),
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(exp: &str, family: &str, n: usize, ms: f64) -> SweepCell {
        let mut c = SweepCell::new(exp, family, n, 1.0, 7);
        c.wall_ms = ms;
        c
    }

    #[test]
    fn json_round_trip() {
        let mut r = SweepReport::new(4, true);
        r.extend(vec![
            cell("t1", "complete", 32, 1.5),
            cell("t1", "chain", 32, 0.5),
        ]);
        r.total_wall_ms = 2.0;
        let back = SweepReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn cells_sort_by_coordinates_not_arrival() {
        let mut a = SweepReport::new(1, true);
        a.extend(vec![cell("t2", "z", 64, 1.0), cell("t1", "a", 32, 1.0)]);
        let mut b = SweepReport::new(8, true);
        b.extend(vec![cell("t1", "a", 32, 9.0), cell("t2", "z", 64, 9.0)]);
        let keys_a: Vec<_> = a.cells.iter().map(|c| c.experiment.clone()).collect();
        let keys_b: Vec<_> = b.cells.iter().map(|c| c.experiment.clone()).collect();
        assert_eq!(keys_a, keys_b);
        assert_eq!(keys_a, vec!["t1", "t2"]);
    }

    #[test]
    fn shards_column_is_omitted_at_zero_and_round_trips_otherwise() {
        let plain = cell("t1", "complete", 32, 1.0);
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains("shards"), "{json}");
        let back: SweepCell = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plain);

        let mut sharded = plain.clone();
        sharded.shards = 4;
        let json = serde_json::to_string(&sharded).unwrap();
        assert!(json.contains("\"shards\":4"), "{json}");
        let back: SweepCell = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sharded);
    }

    #[test]
    fn cells_differing_only_in_shards_sort_deterministically() {
        let mut r = SweepReport::new(1, false);
        let mut s4 = cell("loadgen", "regular", 32, 2.0);
        s4.shards = 4;
        let mut s1 = cell("loadgen", "regular", 32, 1.0);
        s1.shards = 1;
        r.extend(vec![s4, s1]);
        let shards: Vec<u64> = r.cells.iter().map(|c| c.shards).collect();
        assert_eq!(shards, vec![1, 4]);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut r = SweepReport::new(1, false);
        r.schema = 99;
        assert!(SweepReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("schema 99"));
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let mut base = SweepReport::new(1, true);
        base.extend(vec![cell("t1", "-", 32, 100.0)]);
        let mut cur = SweepReport::new(4, true);
        cur.extend(vec![cell("t1", "-", 32, 120.0)]);
        assert!(compare(&base, &cur, 0.25).is_empty());
    }

    #[test]
    fn gate_flags_regression_and_missing() {
        let mut base = SweepReport::new(1, true);
        base.extend(vec![cell("t1", "-", 32, 100.0), cell("t2", "-", 32, 50.0)]);
        let mut cur = SweepReport::new(1, true);
        cur.extend(vec![cell("t1", "-", 32, 140.0)]);
        let regs = compare(&base, &cur, 0.25);
        assert_eq!(regs.len(), 2);
        assert!(regs[0].to_string().contains("+40%"), "{}", regs[0]);
        assert!(regs[1].to_string().contains("missing"), "{}", regs[1]);
    }

    #[test]
    fn gate_ignores_noise_floor_and_new_experiments() {
        let mut base = SweepReport::new(1, true);
        base.extend(vec![cell("tiny", "-", 8, 0.2)]);
        let mut cur = SweepReport::new(1, true);
        cur.extend(vec![cell("tiny", "-", 8, 4.0), cell("new", "-", 8, 900.0)]);
        assert!(compare(&base, &cur, 0.25).is_empty());
    }

    #[test]
    fn per_experiment_totals_aggregate_cells() {
        let mut r = SweepReport::new(1, false);
        r.extend(vec![
            cell("t1", "a", 32, 1.0),
            cell("t1", "b", 32, 2.0),
            cell("t2", "a", 32, 4.0),
        ]);
        let totals = r.per_experiment_ms();
        assert_eq!(totals["t1"], 3.0);
        assert_eq!(totals["t2"], 4.0);
    }
}

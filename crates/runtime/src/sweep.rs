//! Machine-readable sweep output.
//!
//! Every experiment run emits a `BENCH_sweep.json`: one [`SweepCell`]
//! per sweep-grid cell with its wall-clock and the deterministic
//! counters (rounds, messages, blocking fraction). It is a record of one
//! run, not a gate: the served system's speed is gated by perfbench
//! parent/change pairs (`scripts/perf_ab.py`).
//!
//! Cells are sorted by coordinates before serialization, so the JSON is
//! structurally identical across worker counts (only the wall-clock
//! values vary run to run — the counters must not).

use serde::{Deserialize, Serialize};

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
            wall_ms: 0.0,
            rounds: 0,
            messages: 0,
            blocking_fraction: 0.0,
        }
    }

    /// The cell's sort/merge key (everything but the measurements).
    fn key(&self) -> (String, String, u64, u64, u64) {
        (
            self.experiment.clone(),
            self.family.clone(),
            self.n,
            self.eps.to_bits(),
            self.seed,
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
        let back: SweepReport = serde_json::from_str(&r.to_json()).unwrap();
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
}

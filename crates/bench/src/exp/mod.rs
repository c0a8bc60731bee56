//! The experiment suite: one module per table/figure of DESIGN.md §5.
//!
//! Every module exposes `run(ctx: &ExpCtx) -> Vec<Table>`; the matching
//! binary in `src/bin/` prints the tables, and `bin/all_experiments`
//! runs the whole suite (used to produce EXPERIMENTS.md).
//!
//! The suite runs on `asm-runtime`'s deterministic executor: each module
//! fans its sweep grid (family × n × ε × trial) out through
//! [`ExpCtx::exec`], with per-cell seeds derived positionally from
//! [`SWEEP_BASE_SEED`], so tables are byte-identical for any `--par`
//! value.

pub mod f1_ii_decay;
pub mod f2_amm;
pub mod f3_inner_loop;
pub mod f4_good_men;
pub mod f5_eps_blocking;
pub mod f6_truncated_gs;
pub mod f7_correlation;
pub mod t1_stability;
pub mod t2_rounds;
pub mod t3_randasm;
pub mod t4_almost_regular;
pub mod t5_local_work;
pub mod t6_ablations;
pub mod t7_welfare;
pub mod t8_congest_traffic;

use crate::Table;
use asm_instance::{generators, Instance};
use asm_runtime::{derive_seed, label_hash, Executor};
use std::time::Instant;

/// Base seed of the whole sweep; every cell seed derives from it via
/// [`ExpCtx::seed`]. Changing it re-rolls every recorded table.
pub const SWEEP_BASE_SEED: u64 = 0xA57A_B1E5;

/// Shared execution context for one experiment run.
#[derive(Debug)]
pub struct ExpCtx {
    /// Quick (smoke) sweep sizes.
    pub quick: bool,
    /// The deterministic executor modules fan their grids out on.
    pub exec: Executor,
    /// Render wall-clock table cells as `-` so output can be byte-diffed.
    pub stable_output: bool,
}

impl ExpCtx {
    /// Creates a context.
    pub fn new(quick: bool, exec: Executor, stable_output: bool) -> Self {
        ExpCtx {
            quick,
            exec,
            stable_output,
        }
    }

    /// Quick single-threaded context (unit tests).
    pub fn quick_serial() -> Self {
        ExpCtx::new(true, Executor::serial(), false)
    }

    /// Derives the seed for a sweep cell from its coordinates only —
    /// never from scheduling. `nums` carries the numeric coordinates
    /// (n, ε-index, trial, ...).
    pub fn seed(&self, experiment: &str, family: &str, nums: &[u64]) -> u64 {
        let mut path = vec![label_hash(experiment), label_hash(family)];
        path.extend_from_slice(nums);
        derive_seed(SWEEP_BASE_SEED, &path)
    }

    /// Formats a milliseconds value for a table cell, honoring
    /// `stable_output` (timings are the only run-to-run varying cells).
    pub fn fmt_ms(&self, ms: f64) -> String {
        if self.stable_output {
            "-".to_string()
        } else {
            crate::f2(ms)
        }
    }

    /// Runs `f`, returning its result and the elapsed milliseconds.
    pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Names of the instance families of [`family`], in sweep order.
pub const FAMILY_NAMES: [&str; 7] = [
    "complete",
    "erdos-renyi",
    "regular",
    "zipf",
    "almost-reg",
    "chain",
    "master-list",
];

/// Builds the `idx`-th named family at size `n` from `seed`.
///
/// # Panics
///
/// Panics if `idx >= FAMILY_NAMES.len()`.
pub fn family(idx: usize, n: usize, seed: u64) -> (&'static str, Instance) {
    let d = (n / 8).clamp(2, 12);
    let inst = match idx {
        0 => generators::complete(n, seed),
        1 => generators::erdos_renyi(n, n, 0.25, seed),
        2 => generators::regular(n, d, seed),
        3 => generators::zipf(n, d, 1.2, seed),
        4 => generators::almost_regular(n, d.max(2), 2.0, seed),
        5 => generators::adversarial_chain(n),
        6 => generators::master_list(n, seed),
        _ => panic!("family index {idx} out of range"),
    };
    (FAMILY_NAMES[idx], inst)
}

/// The named instance families every sweep draws from.
pub fn families(n: usize, seed: u64) -> Vec<(&'static str, Instance)> {
    (0..FAMILY_NAMES.len())
        .map(|i| family(i, n, seed))
        .collect()
}

/// Standard "quick vs full" size sweep.
pub fn n_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 64]
    } else {
        vec![64, 128, 256, 512, 1024]
    }
}

/// One registered experiment.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Stable id; also the binary name and the first coordinate of its
    /// cell seeds.
    pub id: &'static str,
    /// Entry point.
    pub run: fn(&ExpCtx) -> Vec<Table>,
}

/// Every experiment, in suite order (T1–T8 then F1–F7).
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "t1_stability",
        run: t1_stability::run,
    },
    Experiment {
        id: "t2_rounds",
        run: t2_rounds::run,
    },
    Experiment {
        id: "t3_randasm",
        run: t3_randasm::run,
    },
    Experiment {
        id: "t4_almost_regular",
        run: t4_almost_regular::run,
    },
    Experiment {
        id: "t5_local_work",
        run: t5_local_work::run,
    },
    Experiment {
        id: "t6_ablations",
        run: t6_ablations::run,
    },
    Experiment {
        id: "t7_welfare",
        run: t7_welfare::run,
    },
    Experiment {
        id: "t8_congest_traffic",
        run: t8_congest_traffic::run,
    },
    Experiment {
        id: "f1_ii_decay",
        run: f1_ii_decay::run,
    },
    Experiment {
        id: "f2_amm",
        run: f2_amm::run,
    },
    Experiment {
        id: "f3_inner_loop",
        run: f3_inner_loop::run,
    },
    Experiment {
        id: "f4_good_men",
        run: f4_good_men::run,
    },
    Experiment {
        id: "f5_eps_blocking",
        run: f5_eps_blocking::run,
    },
    Experiment {
        id: "f6_truncated_gs",
        run: f6_truncated_gs::run,
    },
    Experiment {
        id: "f7_correlation",
        run: f7_correlation::run,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs the entire suite in order on `ctx`.
pub fn run_all_ctx(ctx: &ExpCtx) -> Vec<Table> {
    EXPERIMENTS.iter().flat_map(|e| (e.run)(ctx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_cover_the_paper_classes() {
        let fams = families(16, 1);
        assert_eq!(fams.len(), 7);
        let names: Vec<_> = fams.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"complete"));
        assert!(names.contains(&"chain"));
        assert_eq!(names, FAMILY_NAMES.to_vec());
    }

    #[test]
    fn quick_sweep_is_small() {
        assert!(n_sweep(true).len() < n_sweep(false).len());
    }

    #[test]
    fn registry_covers_the_suite_without_duplicates() {
        assert_eq!(EXPERIMENTS.len(), 15);
        let mut ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
        assert!(find("t1_stability").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn cell_seeds_are_coordinate_pure() {
        let ctx = ExpCtx::quick_serial();
        let a = ctx.seed("t1", "complete", &[64, 0]);
        assert_eq!(a, ctx.seed("t1", "complete", &[64, 0]));
        assert_ne!(a, ctx.seed("t1", "complete", &[64, 1]));
        assert_ne!(a, ctx.seed("t1", "chain", &[64, 0]));
    }

    #[test]
    fn stable_output_hides_timings() {
        let mut ctx = ExpCtx::quick_serial();
        assert_eq!(ctx.fmt_ms(1.234), "1.23");
        ctx.stable_output = true;
        assert_eq!(ctx.fmt_ms(1.234), "-");
    }
}

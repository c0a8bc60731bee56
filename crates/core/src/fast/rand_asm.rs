//! The randomized `RandASM` algorithm (Theorem 5).

use super::run_schedule;
use crate::{AsmConfig, AsmReport, ConfigError};
use asm_instance::Instance;
use asm_maximal::{iterations_for_maximal, MatcherBackend};
use serde::{Deserialize, Serialize};

/// Parameters for [`rand_asm`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RandAsmParams {
    /// Stability target ε (at most `ε·|E|` blocking pairs on success).
    pub epsilon: f64,
    /// Failure probability budget δ: all maximal-matching invocations
    /// succeed with probability ≥ `1 − δ` (union-bounded across the run).
    pub failure_delta: f64,
    /// The Israeli–Itai survivor decay constant `c` of Lemma 8 used to
    /// size the truncation (measured ≈ 0.45–0.6 by experiment F1; smaller
    /// is more aggressive, larger more conservative).
    pub decay: f64,
    /// Randomness seed.
    pub seed: u64,
}

impl RandAsmParams {
    /// Paper-faithful parameters for the given ε and δ with a
    /// conservative decay estimate.
    pub fn new(epsilon: f64, failure_delta: f64) -> Self {
        RandAsmParams {
            epsilon,
            failure_delta,
            decay: 0.7,
            seed: 0,
        }
    }

    /// Sets the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Runs `RandASM(P, ε, n, δ)`: identical to `ASM` but with the
/// maximal-matching subroutine replaced by Israeli–Itai truncated to
/// `O(log(n/δε³))` `MatchingRound`s (Theorem 5).
///
/// Each of the `O(ε⁻³ log n)` subroutine invocations is given failure
/// budget `δ / #invocations`, so by the union bound every invocation
/// returns a truly maximal matching with probability ≥ `1 − δ`, in which
/// case the output is `(1 − ε)`-stable exactly as for `ASM`.
/// [`AsmReport::mm_nonmaximal`] reports how many invocations actually fell
/// short.
///
/// # Errors
///
/// Returns [`ConfigError::FailureProbability`] when δ is outside
/// `(0, 1)`, and [`ConfigError`] if ε or the derived parameters are
/// invalid.
///
/// # Examples
///
/// ```
/// use asm_core::{rand_asm, RandAsmParams};
/// use asm_instance::generators;
///
/// let inst = generators::complete(32, 1);
/// let report = rand_asm(&inst, &RandAsmParams::new(0.5, 0.05).with_seed(7))?;
/// assert!(report.stability(&inst).is_one_minus_eps_stable(0.5));
/// # Ok::<(), asm_core::ConfigError>(())
/// ```
pub fn rand_asm(inst: &Instance, params: &RandAsmParams) -> Result<AsmReport, ConfigError> {
    let config = rand_asm_config(inst, params)?;
    let schedule = super::asm_schedule(&config, inst);
    Ok(run_schedule(inst, &config, &schedule, false))
}

/// Derives the [`AsmConfig`] that `RandASM` runs with: paper defaults for
/// ε, plus an Israeli–Itai backend truncated so that by the union bound
/// every maximal-matching invocation succeeds with probability ≥ `1 − δ`.
/// Shared between the fast and CONGEST engines.
pub fn rand_asm_config(inst: &Instance, params: &RandAsmParams) -> Result<AsmConfig, ConfigError> {
    if !(params.failure_delta > 0.0 && params.failure_delta < 1.0) {
        return Err(ConfigError::FailureProbability(params.failure_delta));
    }
    let mut config = AsmConfig::try_new(params.epsilon)?.with_seed(params.seed);

    let ids = inst.ids();
    let n = ids.num_women().max(ids.num_men()).max(2);
    let k = config.quantile_count() as u64;
    let scheduled_prs = config.outer_iterations(n) * config.inner_iterations() * k;
    let per_call_budget = params.failure_delta / scheduled_prs.max(1) as f64;
    let max_iterations =
        iterations_for_maximal(ids.num_players().max(2), per_call_budget, params.decay);
    config.backend = MatcherBackend::IsraeliItai { max_iterations };
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;
    use asm_matching::verify_matching;

    #[test]
    fn stability_holds_across_seeds() {
        let inst = generators::erdos_renyi(16, 16, 0.5, 1);
        for seed in 0..5 {
            let report = rand_asm(&inst, &RandAsmParams::new(1.0, 0.1).with_seed(seed)).unwrap();
            verify_matching(&inst, &report.matching).unwrap();
            assert!(
                report.stability(&inst).is_one_minus_eps_stable(1.0),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn failure_probability_outside_the_unit_interval_is_refused() {
        let inst = generators::complete(4, 1);
        for delta in [0.0, 1.0, -0.5, f64::NAN] {
            let err = rand_asm(&inst, &RandAsmParams::new(1.0, delta)).unwrap_err();
            assert!(matches!(err, ConfigError::FailureProbability(_)), "{err:?}");
            assert!(err.to_string().contains("0 < delta < 1"), "{err}");
        }
        let err = rand_asm(&inst, &RandAsmParams::new(0.0, 0.1)).unwrap_err();
        assert_eq!(err, ConfigError::Epsilon(0.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let inst = generators::complete(12, 2);
        let p = RandAsmParams::new(1.0, 0.1).with_seed(42);
        let a = rand_asm(&inst, &p).unwrap();
        let b = rand_asm(&inst, &p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_can_differ() {
        let inst = generators::complete(12, 2);
        let a = rand_asm(&inst, &RandAsmParams::new(1.0, 0.1).with_seed(1)).unwrap();
        let b = rand_asm(&inst, &RandAsmParams::new(1.0, 0.1).with_seed(2)).unwrap();
        // The matchings may coincide, but the round trajectories rarely do.
        assert!(a.rounds != b.rounds || a.matching != b.matching || a.proposals == b.proposals);
    }

    #[test]
    fn mm_failures_are_rare_with_budgeted_truncation() {
        let inst = generators::complete(16, 3);
        let report = rand_asm(&inst, &RandAsmParams::new(1.0, 0.05).with_seed(3)).unwrap();
        assert_eq!(
            report.mm_nonmaximal, 0,
            "with delta = 0.05 a failure here is a 1-in-20 event; this \
             seed is pinned and passes"
        );
    }

    #[test]
    fn invalid_delta_rejected() {
        let inst = generators::complete(4, 1);
        assert!(rand_asm(&inst, &RandAsmParams::new(1.0, 0.0)).is_err());
        assert!(rand_asm(&inst, &RandAsmParams::new(1.0, 1.0)).is_err());
    }

    #[test]
    fn randomized_rounds_much_smaller_than_hkp_nominal() {
        let inst = generators::complete(32, 5);
        let det = crate::asm(&inst, &crate::AsmConfig::new(1.0)).unwrap();
        let rand = rand_asm(&inst, &RandAsmParams::new(1.0, 0.1)).unwrap();
        assert!(
            rand.nominal_rounds < det.nominal_rounds,
            "II truncation beats the charged log^4 oracle on nominal rounds"
        );
    }
}

//! `AlmostRegularASM` (Section 5.2, Theorem 6).

use super::{run_schedule, SchedulePhase};
use crate::{AsmConfig, AsmReport, ConfigError};
use asm_instance::Instance;
use asm_maximal::{iterations_for_amm, MatcherBackend};
use serde::{Deserialize, Serialize};

/// Parameters for [`almost_regular_asm`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlmostRegularParams {
    /// Stability target ε.
    pub epsilon: f64,
    /// Failure probability budget δ.
    pub failure_delta: f64,
    /// Israeli–Itai decay constant `c` used to size the AMM truncation.
    pub decay: f64,
    /// Randomness seed.
    pub seed: u64,
    /// Override for the men-side regularity α (default: measured from the
    /// instance over men with nonempty lists).
    pub alpha_override: Option<f64>,
}

impl AlmostRegularParams {
    /// Defaults for the given ε and δ.
    pub fn new(epsilon: f64, failure_delta: f64) -> Self {
        AlmostRegularParams {
            epsilon,
            failure_delta,
            decay: 0.7,
            seed: 0,
            alpha_override: None,
        }
    }

    /// Sets the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Measures α over men with nonempty preference lists (isolated men are
/// trivially good and never participate, so they do not constrain α).
fn effective_alpha(inst: &Instance) -> f64 {
    let degrees: Vec<usize> = inst
        .ids()
        .men()
        .map(|m| inst.degree(m))
        .filter(|&d| d > 0)
        .collect();
    match (degrees.iter().min(), degrees.iter().max()) {
        (Some(&lo), Some(&hi)) if lo > 0 => hi as f64 / lo as f64,
        _ => 1.0,
    }
}

/// Runs `AlmostRegularASM(P, ε, δ, α)` (Theorem 6): for α-almost-regular
/// preferences, a `(1 − ε)`-stable matching with probability ≥ `1 − δ` in
/// a number of rounds **independent of n** — `O(α ε⁻³ log(α/δε))`.
///
/// Differences from `ASM`:
///
/// * no outer `log n` loop — `QuantileMatch` is iterated `⌈8αk/ε⌉` times
///   with every man participating (the α-regular accounting of Lemma 6
///   bounds the bad *fraction* directly);
/// * the maximal-matching subroutine is relaxed to `AMM(η, δ′)`
///   (Corollary 2) with `η = ε/(8α)` and `δ′ = δ / #invocations`; players
///   violating maximality in an AMM call are **removed from play**
///   (reported in [`AsmReport::removed_men`]).
///
/// # Errors
///
/// Returns [`ConfigError::FailureProbability`] when δ is outside
/// `(0, 1)`, [`ConfigError::Alpha`] when α is not a finite value ≥ 1
/// (only possible via `alpha_override` misuse — measured α over nonempty
/// lists is always finite and ≥ 1), and [`ConfigError`] for invalid ε.
///
/// # Examples
///
/// ```
/// use asm_core::{almost_regular_asm, AlmostRegularParams};
/// use asm_instance::generators;
///
/// // Complete preferences are 1-almost-regular: O(1) rounds.
/// let inst = generators::complete(32, 3);
/// let report = almost_regular_asm(&inst, &AlmostRegularParams::new(1.0, 0.1))?;
/// assert!(report.stability(&inst).is_one_minus_eps_stable(1.0));
/// # Ok::<(), asm_core::ConfigError>(())
/// ```
pub fn almost_regular_asm(
    inst: &Instance,
    params: &AlmostRegularParams,
) -> Result<AsmReport, ConfigError> {
    let (config, ell) = almost_regular_plan(inst, params)?;
    let schedule = [SchedulePhase {
        gate: 1,
        iterations: ell,
        label: 0,
    }];
    Ok(run_schedule(inst, &config, &schedule, true))
}

/// Derives the configuration and inner-loop length `ℓ` that
/// `AlmostRegularASM` runs with. Shared between the fast and CONGEST
/// engines so both execute the identical plan.
pub(crate) fn almost_regular_plan(
    inst: &Instance,
    params: &AlmostRegularParams,
) -> Result<(AsmConfig, u64), ConfigError> {
    if !(params.failure_delta > 0.0 && params.failure_delta < 1.0) {
        return Err(ConfigError::FailureProbability(params.failure_delta));
    }
    let alpha = params
        .alpha_override
        .unwrap_or_else(|| effective_alpha(inst));
    if !(alpha >= 1.0 && alpha.is_finite()) {
        return Err(ConfigError::Alpha(alpha));
    }
    let mut config = AsmConfig::try_new(params.epsilon)?.with_seed(params.seed);

    let k = config.quantile_count();
    // ℓ = 2 δ_bad⁻¹ k with δ_bad = ε/(4α)  (Theorem 6 proof sketch).
    let ell = (8.0 * alpha * k as f64 / params.epsilon).ceil() as u64;
    let amm_calls = ell.saturating_mul(k as u64).max(1);
    let eta = (params.epsilon / (8.0 * alpha)).min(1.0);
    let delta_per_call = params.failure_delta / amm_calls as f64;
    let max_iterations = iterations_for_amm(eta, delta_per_call, params.decay);
    config.backend = MatcherBackend::IsraeliItai { max_iterations };
    Ok((config, ell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;
    use asm_matching::verify_matching;

    #[test]
    fn stability_on_complete_preferences() {
        let inst = generators::complete(24, 1);
        let report =
            almost_regular_asm(&inst, &AlmostRegularParams::new(1.0, 0.1).with_seed(4)).unwrap();
        verify_matching(&inst, &report.matching).unwrap();
        assert!(report.stability(&inst).is_one_minus_eps_stable(1.0));
    }

    #[test]
    fn stability_on_regular_bounded_preferences() {
        let inst = generators::regular(24, 5, 2);
        let report =
            almost_regular_asm(&inst, &AlmostRegularParams::new(1.0, 0.1).with_seed(1)).unwrap();
        assert!(report.stability(&inst).is_one_minus_eps_stable(1.0));
    }

    #[test]
    fn nominal_rounds_independent_of_n() {
        let p = AlmostRegularParams::new(1.0, 0.1);
        let small = almost_regular_asm(&generators::complete(16, 1), &p).unwrap();
        let large = almost_regular_asm(&generators::complete(128, 1), &p).unwrap();
        assert_eq!(
            small.nominal_rounds, large.nominal_rounds,
            "Theorem 6: the schedule does not depend on n"
        );
    }

    #[test]
    fn alpha_scales_schedule() {
        let p1 = AlmostRegularParams {
            alpha_override: Some(1.0),
            ..AlmostRegularParams::new(1.0, 0.1)
        };
        let p4 = AlmostRegularParams {
            alpha_override: Some(4.0),
            ..AlmostRegularParams::new(1.0, 0.1)
        };
        let inst = generators::complete(16, 1);
        let r1 = almost_regular_asm(&inst, &p1).unwrap();
        let r4 = almost_regular_asm(&inst, &p4).unwrap();
        assert!(r4.scheduled_quantile_matches > r1.scheduled_quantile_matches);
    }

    #[test]
    fn out_of_range_delta_and_alpha_name_their_parameter() {
        let inst = generators::complete(4, 1);
        let err = almost_regular_asm(&inst, &AlmostRegularParams::new(1.0, 1.0)).unwrap_err();
        assert_eq!(err, ConfigError::FailureProbability(1.0));
        assert!(err.to_string().contains("0 < delta < 1"), "{err}");
        for alpha in [0.5, f64::INFINITY] {
            let p = AlmostRegularParams {
                alpha_override: Some(alpha),
                ..AlmostRegularParams::new(1.0, 0.1)
            };
            let err = almost_regular_asm(&inst, &p).unwrap_err();
            assert_eq!(err, ConfigError::Alpha(alpha));
            assert!(err.to_string().contains(">= 1"), "{err}");
        }
        let err = almost_regular_asm(&inst, &AlmostRegularParams::new(-1.0, 0.1)).unwrap_err();
        assert_eq!(err, ConfigError::Epsilon(-1.0));
    }

    #[test]
    fn effective_alpha_ignores_isolated_men() {
        let inst = generators::erdos_renyi(20, 20, 0.15, 3);
        let a = effective_alpha(&inst);
        assert!(a.is_finite() && a >= 1.0);
    }

    #[test]
    fn removed_men_are_tracked_separately() {
        // With an aggressive (tiny) budget, AMM violations may remove men;
        // they must never be double-counted as bad.
        let inst = generators::complete(20, 9);
        let p = AlmostRegularParams {
            decay: 0.9, // conservative sizing => more iterations, fewer removals
            ..AlmostRegularParams::new(0.5, 0.2)
        };
        let report = almost_regular_asm(&inst, &p).unwrap();
        let n_men = inst.ids().num_men();
        let unmatched_removed = report
            .removed_men
            .iter()
            .filter(|m| report.matching.partner(**m).is_none())
            .count();
        assert_eq!(
            report.good_men + report.bad_men.len() + unmatched_removed,
            n_men
        );
    }

    #[test]
    fn invalid_delta_rejected() {
        let inst = generators::complete(4, 1);
        assert!(almost_regular_asm(&inst, &AlmostRegularParams::new(1.0, 0.0)).is_err());
    }
}

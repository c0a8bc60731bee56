//! Algorithm configuration.

use asm_maximal::MatcherBackend;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Configuration for `ASM` and its variants (Algorithm 3).
///
/// The defaults reproduce the paper's parameter choices exactly:
/// `k = ⌈8/ε⌉` quantiles, `δ = ε/8`, and `2δ⁻¹k` inner iterations per
/// outer iteration. The knobs exist for the T6 ablation experiments —
/// production callers only need [`AsmConfig::new`].
///
/// # Examples
///
/// ```
/// use asm_core::AsmConfig;
///
/// let config = AsmConfig::new(0.5);
/// assert_eq!(config.quantile_count(), 16);       // ceil(8 / 0.5)
/// assert_eq!(config.delta(), 0.0625);            // 0.5 / 8
/// assert_eq!(config.inner_iterations(), 512);    // 2 * k / delta
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AsmConfig {
    /// The stability target: the output has at most `ε·|E|` blocking pairs.
    pub epsilon: f64,
    /// Override for the quantile count `k` (default `⌈8/ε⌉`).
    pub quantiles: Option<usize>,
    /// Override for the bad-man budget `δ` (default `ε/8`).
    pub delta_override: Option<f64>,
    /// Multiplier on the inner-loop iteration count `2δ⁻¹k`, for ablations
    /// probing how conservative the paper's constant is (default 1.0).
    pub inner_multiplier: f64,
    /// The maximal-matching subroutine for `ProposalRound` step 3.
    pub backend: MatcherBackend,
    /// Root seed for all randomness (Israeli–Itai backends).
    pub seed: u64,
    /// Skip `QuantileMatch`/`ProposalRound` invocations that provably send
    /// no messages (standard termination detection). Affects measured
    /// rounds only, never the output matching.
    pub early_exit: bool,
}

impl AsmConfig {
    /// Creates the paper-default configuration for stability target `ε`,
    /// using the charged HKP oracle backend (the deterministic `ASM` of
    /// Theorem 1).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not positive and finite;
    /// [`AsmConfig::try_new`] returns the error instead.
    pub fn new(epsilon: f64) -> Self {
        Self::try_new(epsilon).expect("invalid epsilon")
    }

    /// [`AsmConfig::new`] for an `ε` that may be out of range.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Epsilon`] unless `epsilon` is positive and
    /// finite.
    pub fn try_new(epsilon: f64) -> Result<Self, ConfigError> {
        let config = AsmConfig {
            epsilon,
            quantiles: None,
            delta_override: None,
            inner_multiplier: 1.0,
            backend: MatcherBackend::HkpOracle,
            seed: 0,
            early_exit: true,
        };
        config.validate()?;
        Ok(config)
    }

    /// Sets the maximal-matching backend.
    pub fn with_backend(mut self, backend: MatcherBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when ε, δ, the quantile count, or the inner
    /// multiplier is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(ConfigError::Epsilon(self.epsilon));
        }
        if self.quantile_count() == 0 {
            return Err(ConfigError::Quantiles(self.quantile_count()));
        }
        let d = self.delta();
        if !(d > 0.0 && d <= 0.5) {
            return Err(ConfigError::Delta(d));
        }
        if !(self.inner_multiplier > 0.0 && self.inner_multiplier.is_finite()) {
            return Err(ConfigError::InnerMultiplier(self.inner_multiplier));
        }
        Ok(())
    }

    /// The quantile count `k`: the override, or the paper's `⌈8/ε⌉`.
    pub fn quantile_count(&self) -> usize {
        self.quantiles
            .unwrap_or_else(|| (8.0 / self.epsilon).ceil() as usize)
    }

    /// The bad-man budget `δ`: the override, or the paper's `ε/8` clamped
    /// to `1/2` (Lemma 5 requires `δ ≤ 1/2`; the paper implicitly assumes
    /// `ε ≤ 1`, and for looser targets the clamp keeps the precondition).
    pub fn delta(&self) -> f64 {
        self.delta_override.unwrap_or((self.epsilon / 8.0).min(0.5))
    }

    /// Iterations of the inner loop of Algorithm 3:
    /// `⌈inner_multiplier · 2δ⁻¹k⌉`.
    pub fn inner_iterations(&self) -> u64 {
        (self.inner_multiplier * 2.0 * self.quantile_count() as f64 / self.delta()).ceil() as u64
    }

    /// Iterations of the outer loop: `i = 0 ..= ⌊log₂ n⌋` (the paper's
    /// `for i ← 0 to log n`).
    pub fn outer_iterations(&self, n: usize) -> u64 {
        (usize::BITS - n.max(1).leading_zeros()) as u64
    }
}

/// Invalid [`AsmConfig`] parameters.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// ε out of range.
    Epsilon(f64),
    /// Bad-man budget δ out of range (Lemma 5 requires `0 < δ ≤ 1/2`).
    Delta(f64),
    /// Quantile count must be positive.
    Quantiles(usize),
    /// Inner multiplier out of range.
    InnerMultiplier(f64),
    /// Failure probability out of range (`RandASM` and
    /// `AlmostRegularASM` require `0 < δ < 1`).
    FailureProbability(f64),
    /// Men-side regularity α out of range (`AlmostRegularASM` requires a
    /// finite `α ≥ 1`).
    Alpha(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Epsilon(e) => write!(f, "epsilon {e} must be positive and finite"),
            ConfigError::Delta(d) => write!(f, "delta {d} must satisfy 0 < delta <= 1/2"),
            ConfigError::Quantiles(k) => write!(f, "quantile count {k} must be positive"),
            ConfigError::InnerMultiplier(m) => {
                write!(f, "inner multiplier {m} must be positive and finite")
            }
            ConfigError::FailureProbability(d) => {
                write!(
                    f,
                    "failure probability delta {d} must satisfy 0 < delta < 1"
                )
            }
            ConfigError::Alpha(a) => write!(f, "alpha {a} must be finite and >= 1"),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = AsmConfig::new(1.0);
        assert_eq!(c.quantile_count(), 8);
        assert_eq!(c.delta(), 0.125);
        assert_eq!(c.inner_iterations(), 128);
        assert!(c.early_exit);
        assert_eq!(c.backend, MatcherBackend::HkpOracle);
    }

    #[test]
    fn outer_iterations_is_floor_log_plus_one() {
        let c = AsmConfig::new(1.0);
        assert_eq!(c.outer_iterations(1), 1);
        assert_eq!(c.outer_iterations(2), 2);
        assert_eq!(c.outer_iterations(1024), 11); // i = 0..=10
        assert_eq!(c.outer_iterations(0), 1);
    }

    #[test]
    fn overrides_respected() {
        let mut c = AsmConfig::new(1.0);
        c.quantiles = Some(4);
        c.delta_override = Some(0.25);
        c.inner_multiplier = 0.5;
        c.validate().unwrap();
        assert_eq!(c.quantile_count(), 4);
        assert_eq!(c.inner_iterations(), 16);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let mut c = AsmConfig::new(1.0);
        c.epsilon = 0.0;
        assert!(matches!(c.validate(), Err(ConfigError::Epsilon(_))));
        c.epsilon = f64::INFINITY;
        assert!(c.validate().is_err());
    }

    #[test]
    fn delta_above_half_rejected() {
        let mut c = AsmConfig::new(1.0);
        c.delta_override = Some(0.6);
        assert!(matches!(c.validate(), Err(ConfigError::Delta(_))));
    }

    #[test]
    #[should_panic(expected = "invalid epsilon")]
    fn constructor_panics_on_bad_epsilon() {
        AsmConfig::new(-1.0);
    }

    #[test]
    fn builder_methods_chain() {
        let c = AsmConfig::new(2.0)
            .with_seed(9)
            .with_backend(MatcherBackend::DetGreedy);
        assert_eq!(c.seed, 9);
        assert_eq!(c.backend, MatcherBackend::DetGreedy);
    }
}

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
    /// multiplier is out of range, and [`ConfigError::EpsilonFloor`] when
    /// ε is so small that the schedule overflows.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(ConfigError::Epsilon(self.epsilon));
        }
        if let Some(k) = self
            .quantiles
            .filter(|&k| k == 0 || u32::try_from(k).is_err())
        {
            return Err(ConfigError::Quantiles(k));
        }
        let d = self.delta();
        if !(d > 0.0 && d <= 0.5) {
            return Err(ConfigError::Delta(d));
        }
        if !(self.inner_multiplier > 0.0 && self.inner_multiplier.is_finite()) {
            return Err(ConfigError::InnerMultiplier(self.inner_multiplier));
        }
        if !self.schedule_fits() {
            return Err(ConfigError::EpsilonFloor {
                epsilon: self.epsilon,
                floor: self.epsilon_floor(),
            });
        }
        Ok(())
    }

    /// Whether the schedule's counts fit their integers: `k` in a `u32`
    /// (quantiles are numbered in `u32`), and `64·inner·k` in a `u64`, so
    /// no count of `QuantileMatch` or `ProposalRound` calls overflows
    /// (the outer loop runs at most 64 times). Computed in `f64`, before
    /// any cast could saturate.
    fn schedule_fits(&self) -> bool {
        let k = self.quantile_count();
        // `u64::MAX as f64` rounds to 2⁶⁴, and a product at or past 2⁶⁴
        // cannot round below it.
        u32::try_from(k).is_ok() && 64.0 * self.inner_f64() * (k as f64) < u64::MAX as f64
    }

    /// The smallest ε whose schedule fits, the other settings held. The
    /// schedule only grows as ε shrinks, and positive floats order like
    /// their bits, so a bisection on the bits finds it. At the paper's
    /// defaults it is just above 2⁻¹⁶ ≈ 1.53·10⁻⁵; it is infinite when
    /// overrides make every ε overflow.
    pub fn epsilon_floor(&self) -> f64 {
        let mut probe = self.clone();
        let mut fits = |bits| {
            probe.epsilon = f64::from_bits(bits);
            probe.schedule_fits()
        };
        let (mut refused, mut admitted) = (0, f64::MAX.to_bits());
        if !fits(admitted) {
            return f64::INFINITY;
        }
        while admitted - refused > 1 {
            let mid = refused + (admitted - refused) / 2;
            if fits(mid) {
                admitted = mid;
            } else {
                refused = mid;
            }
        }
        f64::from_bits(admitted)
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
        self.inner_f64() as u64
    }

    fn inner_f64(&self) -> f64 {
        (self.inner_multiplier * 2.0 * self.quantile_count() as f64 / self.delta()).ceil()
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
    /// Quantile count out of range (`1 ≤ k ≤ u32::MAX`).
    Quantiles(usize),
    /// Inner multiplier out of range.
    InnerMultiplier(f64),
    /// Failure probability out of range (`RandASM` and
    /// `AlmostRegularASM` require `0 < δ < 1`).
    FailureProbability(f64),
    /// Men-side regularity α out of range (`AlmostRegularASM` requires a
    /// finite `α ≥ 1`).
    Alpha(f64),
    /// ε below the smallest value whose schedule fits its integers (see
    /// [`AsmConfig::epsilon_floor`]).
    EpsilonFloor {
        /// The refused ε.
        epsilon: f64,
        /// The smallest ε admitted at the same settings.
        floor: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Epsilon(e) => write!(f, "epsilon {e} must be positive and finite"),
            ConfigError::Delta(d) => write!(f, "delta {d} must satisfy 0 < delta <= 1/2"),
            ConfigError::Quantiles(k) => {
                write!(f, "quantile count {k} must be in 1..={}", u32::MAX)
            }
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
            ConfigError::EpsilonFloor { epsilon, floor } => write!(
                f,
                "epsilon {epsilon:e} is below {floor:e}, the smallest epsilon whose schedule \
                 fits 64-bit counts"
            ),
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
    fn the_epsilon_floor_is_just_above_two_to_the_minus_16() {
        let two_16 = 2f64.powi(-16);
        let floor = AsmConfig::new(1.0).epsilon_floor();
        assert!(floor > two_16 && floor < two_16 * (1.0 + 1e-9), "{floor}");
        // The floor is admitted and its schedule's counts fit.
        let c = AsmConfig::new(floor);
        let steps = 64 * u128::from(c.inner_iterations()) * c.quantile_count() as u128;
        assert!(steps <= u128::from(u64::MAX), "{steps}");
        // The next float down is refused, naming the floor.
        let below = f64::from_bits(floor.to_bits() - 1);
        assert_eq!(
            AsmConfig::try_new(below),
            Err(ConfigError::EpsilonFloor {
                epsilon: below,
                floor
            })
        );
    }

    #[test]
    fn a_tiny_epsilon_is_refused_naming_the_floor() {
        for eps in [1e-9, 1.5e-5, 2f64.powi(-16), 1e-300, f64::MIN_POSITIVE] {
            let err = AsmConfig::try_new(eps).unwrap_err();
            assert!(matches!(err, ConfigError::EpsilonFloor { .. }), "{eps}");
            assert!(err.to_string().contains("1.52587890625"), "{err}");
        }
        for eps in [1.6e-5, 2e-5, 1e-4] {
            let c = AsmConfig::try_new(eps).unwrap();
            assert!(u32::try_from(c.quantile_count()).is_ok());
            assert!(64u64
                .checked_mul(c.inner_iterations())
                .and_then(|s| s.checked_mul(c.quantile_count() as u64))
                .is_some());
        }
    }

    #[test]
    fn quantile_overrides_outside_u32_are_refused() {
        let mut c = AsmConfig::new(1.0);
        for k in [0, u32::MAX as usize + 1] {
            c.quantiles = Some(k);
            assert_eq!(c.validate(), Err(ConfigError::Quantiles(k)));
        }
        // An override that overflows the schedule at every ε.
        c.quantiles = Some(u32::MAX as usize);
        c.inner_multiplier = 1e12;
        assert_eq!(c.epsilon_floor(), f64::INFINITY);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::EpsilonFloor { .. })
        ));
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

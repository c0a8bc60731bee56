//! Serializable generator configurations.
//!
//! A [`GeneratorConfig`] is the *recipe* for an instance: the family plus
//! all parameters, including the seed. Because generators are pure
//! functions of their parameters, a serialized config reproduces its
//! instance bit-for-bit on any machine — the foundation of the
//! conformance crate's deterministic replay (`asm-conformance`).

use super::{
    adversarial_chain, almost_regular, complete, erdos_renyi, geometric, master_list, noisy_master,
    regular, zipf, MAX_NOISE,
};
use crate::Instance;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A serializable recipe for one generated instance: generator family +
/// parameters + seed.
///
/// # Examples
///
/// ```
/// use asm_instance::generators::GeneratorConfig;
///
/// let config = GeneratorConfig::Regular { n: 16, d: 4, seed: 9 };
/// let a = config.build();
/// let b = config.build();
/// assert_eq!(a, b); // building is pure
///
/// let json = serde_json::to_string(&config).unwrap();
/// let back: GeneratorConfig = serde_json::from_str(&json).unwrap();
/// assert_eq!(back.build(), a);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GeneratorConfig {
    /// [`complete`]: complete bipartite preferences, `n` per side.
    Complete {
        /// Players per side.
        n: usize,
        /// Randomness seed.
        seed: u64,
    },
    /// [`erdos_renyi`]: each woman–man pair is acceptable with probability `p`.
    ErdosRenyi {
        /// Number of women.
        num_women: usize,
        /// Number of men.
        num_men: usize,
        /// Edge probability in `[0, 1]`.
        p: f64,
        /// Randomness seed.
        seed: u64,
    },
    /// [`regular`]: every player has exactly `d` acceptable partners.
    Regular {
        /// Players per side.
        n: usize,
        /// Uniform degree.
        d: usize,
        /// Randomness seed.
        seed: u64,
    },
    /// [`almost_regular`]: men's degrees span `[d_min, α·d_min]`.
    AlmostRegular {
        /// Players per side.
        n: usize,
        /// Minimum man degree.
        d_min: usize,
        /// Regularity ratio α ≥ 1.
        alpha: f64,
        /// Randomness seed.
        seed: u64,
    },
    /// [`zipf`]: popularity-skewed incomplete preferences.
    Zipf {
        /// Players per side.
        n: usize,
        /// Acceptable partners per man.
        d: usize,
        /// Zipf exponent.
        s: f64,
        /// Randomness seed.
        seed: u64,
    },
    /// [`adversarial_chain`]: the displacement chain serializing
    /// distributed Gale–Shapley (deterministic; no seed).
    Chain {
        /// Players per side.
        n: usize,
    },
    /// [`master_list`]: every player ranks the opposite side identically.
    MasterList {
        /// Players per side.
        n: usize,
        /// Randomness seed.
        seed: u64,
    },
    /// [`noisy_master`]: master list perturbed by random adjacent swaps.
    NoisyMaster {
        /// Players per side.
        n: usize,
        /// Adjacent swaps per list, as a multiple of `n`; at most
        /// [`MAX_NOISE`].
        noise: f64,
        /// Randomness seed.
        seed: u64,
    },
    /// [`geometric`]: spatial k-nearest-neighbor preferences.
    Geometric {
        /// Players per side.
        n: usize,
        /// Neighbors per player.
        d: usize,
        /// Randomness seed.
        seed: u64,
    },
}

impl GeneratorConfig {
    /// Builds the instance this config describes. Pure: equal configs
    /// produce equal instances.
    pub fn build(&self) -> Instance {
        match *self {
            GeneratorConfig::Complete { n, seed } => complete(n, seed),
            GeneratorConfig::ErdosRenyi {
                num_women,
                num_men,
                p,
                seed,
            } => erdos_renyi(num_women, num_men, p, seed),
            GeneratorConfig::Regular { n, d, seed } => regular(n, d, seed),
            GeneratorConfig::AlmostRegular {
                n,
                d_min,
                alpha,
                seed,
            } => almost_regular(n, d_min, alpha, seed),
            GeneratorConfig::Zipf { n, d, s, seed } => zipf(n, d, s, seed),
            GeneratorConfig::Chain { n } => adversarial_chain(n),
            GeneratorConfig::MasterList { n, seed } => master_list(n, seed),
            GeneratorConfig::NoisyMaster { n, noise, seed } => noisy_master(n, noise, seed),
            GeneratorConfig::Geometric { n, d, seed } => geometric(n, d, seed),
        }
    }

    /// Checks every parameter [`build`](GeneratorConfig::build) would
    /// otherwise reject by panicking, so untrusted recipes can be refused
    /// up front: `d ≤ n` for the degree-bounded families, Zipf `s ≥ 0`,
    /// almost-regular `α ≥ 1`, `d_min > 0` and `⌈α·d_min⌉ ≤ n`,
    /// Erdős–Rényi `p ∈ [0, 1]`, and noisy-master
    /// `noise ∈ [0, MAX_NOISE]`. Every real parameter must also be finite.
    ///
    /// # Errors
    ///
    /// A message naming the first offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        let degree = |n: usize, d: usize| {
            if d <= n {
                Ok(())
            } else {
                Err(format!("degree d = {d} cannot exceed n = {n}"))
            }
        };
        let real = |name: &str, value: f64, in_range: bool, expected: &str| {
            if value.is_finite() && in_range {
                Ok(())
            } else {
                Err(format!("{name} must be finite and {expected}, got {value}"))
            }
        };
        match *self {
            GeneratorConfig::Regular { n, d, .. } | GeneratorConfig::Geometric { n, d, .. } => {
                degree(n, d)
            }
            GeneratorConfig::Zipf { n, d, s, .. } => {
                degree(n, d)?;
                real("zipf exponent s", s, s >= 0.0, "nonnegative")
            }
            GeneratorConfig::AlmostRegular {
                n, d_min, alpha, ..
            } => {
                real("alpha", alpha, alpha >= 1.0, "at least 1")?;
                if d_min == 0 {
                    return Err("d_min must be positive".to_string());
                }
                let d_max = (alpha * d_min as f64).ceil() as usize;
                if d_max > n {
                    return Err(format!(
                        "max degree {d_max} (= ceil(alpha * d_min)) cannot exceed n = {n}"
                    ));
                }
                Ok(())
            }
            GeneratorConfig::ErdosRenyi { p, .. } => real(
                "edge probability p",
                p,
                (0.0..=1.0).contains(&p),
                "in [0, 1]",
            ),
            GeneratorConfig::NoisyMaster { noise, .. } => {
                real("noise", noise, noise >= 0.0, "nonnegative")?;
                if noise > MAX_NOISE {
                    return Err(format!(
                        "noise {noise:e} exceeds the noisy-master limit MAX_NOISE = {MAX_NOISE}"
                    ));
                }
                Ok(())
            }
            GeneratorConfig::Complete { .. }
            | GeneratorConfig::Chain { .. }
            | GeneratorConfig::MasterList { .. } => Ok(()),
        }
    }

    /// The family name (the serialized enum tag, lowercased for display).
    pub fn family(&self) -> &'static str {
        match self {
            GeneratorConfig::Complete { .. } => "complete",
            GeneratorConfig::ErdosRenyi { .. } => "erdos_renyi",
            GeneratorConfig::Regular { .. } => "regular",
            GeneratorConfig::AlmostRegular { .. } => "almost_regular",
            GeneratorConfig::Zipf { .. } => "zipf",
            GeneratorConfig::Chain { .. } => "chain",
            GeneratorConfig::MasterList { .. } => "master_list",
            GeneratorConfig::NoisyMaster { .. } => "noisy_master",
            GeneratorConfig::Geometric { .. } => "geometric",
        }
    }

    /// One representative config per generator family at size `n`,
    /// deterministically derived from `seed` — the standard sweep used by
    /// conformance differential runs.
    pub fn all_families(n: usize, seed: u64) -> Vec<GeneratorConfig> {
        let d = 4.min(n.max(1));
        vec![
            GeneratorConfig::Complete { n, seed },
            GeneratorConfig::ErdosRenyi {
                num_women: n,
                num_men: n,
                p: 0.4,
                seed,
            },
            GeneratorConfig::Regular { n, d, seed },
            GeneratorConfig::AlmostRegular {
                // The generator requires ceil(alpha * d_min) <= n.
                n,
                d_min: d.max(2).min((n / 2).max(1)),
                alpha: if n >= 2 { 2.0 } else { 1.0 },
                seed,
            },
            GeneratorConfig::Zipf { n, d, s: 1.2, seed },
            GeneratorConfig::Chain { n },
            GeneratorConfig::MasterList { n, seed },
            GeneratorConfig::NoisyMaster {
                n,
                noise: 2.0,
                seed,
            },
            GeneratorConfig::Geometric { n, d, seed },
        ]
    }
}

impl fmt::Display for GeneratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeneratorConfig::Complete { n, seed } => write!(f, "complete(n={n}, seed={seed})"),
            GeneratorConfig::ErdosRenyi {
                num_women,
                num_men,
                p,
                seed,
            } => write!(f, "erdos_renyi({num_women}x{num_men}, p={p}, seed={seed})"),
            GeneratorConfig::Regular { n, d, seed } => {
                write!(f, "regular(n={n}, d={d}, seed={seed})")
            }
            GeneratorConfig::AlmostRegular {
                n,
                d_min,
                alpha,
                seed,
            } => write!(
                f,
                "almost_regular(n={n}, d_min={d_min}, alpha={alpha}, seed={seed})"
            ),
            GeneratorConfig::Zipf { n, d, s, seed } => {
                write!(f, "zipf(n={n}, d={d}, s={s}, seed={seed})")
            }
            GeneratorConfig::Chain { n } => write!(f, "chain(n={n})"),
            GeneratorConfig::MasterList { n, seed } => {
                write!(f, "master_list(n={n}, seed={seed})")
            }
            GeneratorConfig::NoisyMaster { n, noise, seed } => {
                write!(f, "noisy_master(n={n}, noise={noise}, seed={seed})")
            }
            GeneratorConfig::Geometric { n, d, seed } => {
                write!(f, "geometric(n={n}, d={d}, seed={seed})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_direct_generator_calls() {
        assert_eq!(
            GeneratorConfig::Complete { n: 6, seed: 3 }.build(),
            complete(6, 3)
        );
        assert_eq!(
            GeneratorConfig::Zipf {
                n: 8,
                d: 3,
                s: 1.1,
                seed: 5
            }
            .build(),
            zipf(8, 3, 1.1, 5)
        );
        assert_eq!(
            GeneratorConfig::Chain { n: 7 }.build(),
            adversarial_chain(7)
        );
    }

    #[test]
    fn all_families_covers_every_variant_once() {
        let families: Vec<&str> = GeneratorConfig::all_families(8, 1)
            .iter()
            .map(|c| c.family())
            .collect();
        let mut dedup = families.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 9, "9 distinct families: {families:?}");
    }

    #[test]
    fn validate_accepts_every_family_and_refuses_what_build_would_panic_on() {
        for n in [1, 2, 8] {
            for config in GeneratorConfig::all_families(n, 3) {
                assert_eq!(config.validate(), Ok(()), "{config}");
            }
        }
        let panicking = [
            GeneratorConfig::Regular {
                n: 4,
                d: 10,
                seed: 1,
            },
            GeneratorConfig::Geometric {
                n: 4,
                d: 5,
                seed: 1,
            },
            GeneratorConfig::Zipf {
                n: 4,
                d: 5,
                s: 1.0,
                seed: 1,
            },
            GeneratorConfig::Zipf {
                n: 4,
                d: 2,
                s: -1.0,
                seed: 1,
            },
            GeneratorConfig::Zipf {
                n: 4,
                d: 2,
                s: f64::NAN,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 2,
                alpha: 0.5,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 2,
                alpha: f64::NAN,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 0,
                alpha: 2.0,
                seed: 1,
            },
            GeneratorConfig::AlmostRegular {
                n: 8,
                d_min: 3,
                alpha: 3.0,
                seed: 1,
            },
            GeneratorConfig::ErdosRenyi {
                num_women: 3,
                num_men: 3,
                p: 1.5,
                seed: 1,
            },
            GeneratorConfig::ErdosRenyi {
                num_women: 3,
                num_men: 3,
                p: f64::NAN,
                seed: 1,
            },
            GeneratorConfig::NoisyMaster {
                n: 4,
                noise: -0.5,
                seed: 1,
            },
            GeneratorConfig::NoisyMaster {
                n: 4,
                noise: f64::NAN,
                seed: 1,
            },
            GeneratorConfig::NoisyMaster {
                n: 4,
                noise: 1025.0,
                seed: 1,
            },
            // Past MAX_NOISE the swap count saturates: without the bound
            // this recipe would hang its worker instead of panicking.
            GeneratorConfig::NoisyMaster {
                n: 2,
                noise: 1e300,
                seed: 1,
            },
            GeneratorConfig::NoisyMaster {
                n: 4,
                noise: f64::INFINITY,
                seed: 1,
            },
        ];
        for config in panicking {
            assert!(config.validate().is_err(), "{config}");
            let built = std::panic::catch_unwind(|| config.build());
            assert!(
                built.is_err(),
                "{config} builds, so validate must accept it"
            );
        }
        assert_eq!(
            GeneratorConfig::NoisyMaster {
                n: 1,
                noise: 1e300,
                seed: 1
            }
            .validate(),
            Err("noise 1e300 exceeds the noisy-master limit MAX_NOISE = 1024".to_string())
        );
        let ceiling = GeneratorConfig::NoisyMaster {
            n: 3,
            noise: MAX_NOISE,
            seed: 1,
        };
        assert_eq!(ceiling.validate(), Ok(()));
        ceiling.build();
        // The almost-regular band is checked exactly as the generator
        // computes it: ceil(1.5 · 3) = 5 fits n = 5.
        let edge = GeneratorConfig::AlmostRegular {
            n: 5,
            d_min: 3,
            alpha: 1.5,
            seed: 1,
        };
        assert_eq!(edge.validate(), Ok(()));
        edge.build();
    }

    #[test]
    fn display_is_compact() {
        let c = GeneratorConfig::Regular {
            n: 4,
            d: 2,
            seed: 1,
        };
        assert_eq!(c.to_string(), "regular(n=4, d=2, seed=1)");
    }
}

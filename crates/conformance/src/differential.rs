//! The differential runner: one seeded case, both engines, all oracles.
//!
//! A [`DiffCase`] pins everything that determines a run — the instance
//! recipe ([`GeneratorConfig`]), the algorithm, the matcher backend, the
//! approximation parameters, and the seed. [`run_case`] executes the fast
//! vector engine and (where the backend has a message-passing form) the
//! CONGEST engine on that case, diffs their [`RunSummary`]s field by
//! field, and applies the [`crate::oracle`] checkers to the result.
//!
//! Any disagreement or oracle violation comes back as a
//! [`ConformanceFailure`] — which serializes directly into a
//! [`crate::ReplayCase`] for offline reproduction.

use crate::oracle::{
    check_bad_men_budget, check_blocking_budget, check_matching, check_mm_maximality,
    check_partition, check_payload_budget, Violation,
};
use asm_congest::NetStats;
use asm_core::congest::{
    almost_regular_asm_congest, asm_congest, rand_asm_congest, CongestRunError,
};
use asm_core::{
    almost_regular_asm, asm, rand_asm, AlmostRegularParams, AsmConfig, RandAsmParams, RunSummary,
};
use asm_instance::generators::GeneratorConfig;
use asm_instance::Instance;
use asm_maximal::MatcherBackend;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's algorithms a case runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Deterministic `ASM` (Theorems 3–4); honors [`DiffCase::backend`].
    Asm,
    /// `RandASM` (Theorem 5); the backend is the truncated Israeli–Itai
    /// the theorem prescribes, so [`DiffCase::backend`] is ignored.
    RandAsm,
    /// `AlmostRegularASM` (Theorem 6); backend ignored as for `RandAsm`.
    AlmostRegular,
}

/// A fully pinned differential execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiffCase {
    /// Instance recipe (family + parameters + generator seed).
    pub generator: GeneratorConfig,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Matcher backend (`Asm` only; see [`Algorithm`]).
    pub backend: MatcherBackend,
    /// Blocking-pair budget `ε`.
    pub epsilon: f64,
    /// Failure probability `δ` for the randomized variants.
    pub delta: f64,
    /// Algorithm seed (independent of the generator seed).
    pub seed: u64,
}

impl DiffCase {
    /// A deterministic-`ASM` case with the theorem-default `δ`.
    pub fn asm(generator: GeneratorConfig, backend: MatcherBackend, epsilon: f64) -> Self {
        DiffCase {
            generator,
            algorithm: Algorithm::Asm,
            backend,
            epsilon,
            delta: 0.1,
            seed: 0,
        }
    }

    /// Replaces the algorithm seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether every guarantee this case exercises is deterministic, so
    /// the stability oracles may be asserted per-run rather than
    /// aggregated over seeds.
    pub fn is_deterministic(&self) -> bool {
        self.algorithm == Algorithm::Asm && self.backend.is_deterministic()
    }

    /// Builds the instance this case runs on.
    pub fn instance(&self) -> Instance {
        self.generator.build()
    }
}

impl fmt::Display for DiffCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} on {} via {:?}, eps={}, delta={}, seed={}",
            self.algorithm, self.generator, self.backend, self.epsilon, self.delta, self.seed
        )
    }
}

/// Successful differential run: the agreed-on summary plus what only one
/// engine can report.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// The summary both engines agreed on (the fast engine's copy).
    pub summary: RunSummary,
    /// CONGEST network statistics; `None` when the backend has no
    /// message-passing form (`HkpOracle` runs the fast engine only).
    pub congest_stats: Option<NetStats>,
    /// Whether the `ε`/`δ` budgets held — always `true` for cases where
    /// [`DiffCase::is_deterministic`]; informational for randomized
    /// cases, whose guarantees are per-seed-probabilistic.
    pub budgets_met: bool,
}

/// A differential run that failed conformance: engine disagreement,
/// oracle violations, or an engine error.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConformanceFailure {
    /// The case that failed (sufficient to reproduce).
    pub case: DiffCase,
    /// Field-by-field engine disagreements, human-readable.
    pub engine_mismatches: Vec<String>,
    /// Broken paper invariants.
    pub oracle_violations: Vec<Violation>,
}

impl fmt::Display for ConformanceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conformance failure for case: {}", self.case)?;
        for m in &self.engine_mismatches {
            writeln!(f, "  engines disagree: {m}")?;
        }
        for v in &self.oracle_violations {
            writeln!(f, "  oracle violation: {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConformanceFailure {}

/// Diffs two summaries field by field; returns human-readable mismatches.
pub fn diff_summaries(fast: &RunSummary, congest: &RunSummary) -> Vec<String> {
    let mut out = Vec::new();
    if fast.matching != congest.matching {
        out.push(format!(
            "matching: fast has {} pairs, congest {}; first differing pair {:?}",
            fast.matching.len(),
            congest.matching.len(),
            fast.matching
                .pairs()
                .find(|&(m, w)| congest.matching.partner(m) != Some(w))
                .or_else(|| congest
                    .matching
                    .pairs()
                    .find(|&(m, w)| fast.matching.partner(m) != Some(w))),
        ));
    }
    if fast.scheduled_proposal_rounds != congest.scheduled_proposal_rounds {
        out.push(format!(
            "scheduled_proposal_rounds: fast {} vs congest {}",
            fast.scheduled_proposal_rounds, congest.scheduled_proposal_rounds
        ));
    }
    if fast.executed_proposal_rounds != congest.executed_proposal_rounds {
        out.push(format!(
            "executed_proposal_rounds: fast {} vs congest {}",
            fast.executed_proposal_rounds, congest.executed_proposal_rounds
        ));
    }
    if fast.good_men != congest.good_men {
        out.push(format!(
            "good_men: fast {} vs congest {}",
            fast.good_men, congest.good_men
        ));
    }
    if fast.bad_men != congest.bad_men {
        out.push(format!(
            "bad_men: fast {:?} vs congest {:?}",
            fast.bad_men, congest.bad_men
        ));
    }
    if fast.removed_men != congest.removed_men {
        out.push(format!(
            "removed_men: fast {:?} vs congest {:?}",
            fast.removed_men, congest.removed_men
        ));
    }
    out
}

/// Executes `case` on both engines and applies every applicable oracle.
///
/// # Errors
///
/// Returns a [`ConformanceFailure`] when the engines disagree on any
/// [`RunSummary`] field, when any always-applicable oracle (validity,
/// partition, payload budget, deterministic-backend maximality) finds a
/// violation, or — for deterministic cases only — when the `ε`/`δ`
/// budgets are missed. Engine *errors* (invalid configuration and the
/// like) are reported the same way, as a mismatch entry.
// The Err carries the full reproducing case plus diagnostics by design;
// it is a cold path (a failure ends the test), so its size is irrelevant.
#[allow(clippy::result_large_err)]
pub fn run_case(case: &DiffCase) -> Result<DiffReport, ConformanceFailure> {
    let inst = case.instance();
    let mut mismatches: Vec<String> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();

    let fail = |mismatches, violations| ConformanceFailure {
        case: case.clone(),
        engine_mismatches: mismatches,
        oracle_violations: violations,
    };

    // Fast engine.
    let (fast_summary, fast_report) = match case.algorithm {
        Algorithm::Asm => {
            let config = AsmConfig::new(case.epsilon)
                .with_seed(case.seed)
                .with_backend(case.backend);
            match asm(&inst, &config) {
                Ok(r) => (RunSummary::from(&r), Some(r)),
                Err(e) => return Err(fail(vec![format!("fast engine error: {e}")], violations)),
            }
        }
        Algorithm::RandAsm => {
            let params = RandAsmParams::new(case.epsilon, case.delta).with_seed(case.seed);
            match rand_asm(&inst, &params) {
                Ok(r) => (RunSummary::from(&r), Some(r)),
                Err(e) => return Err(fail(vec![format!("fast engine error: {e}")], violations)),
            }
        }
        Algorithm::AlmostRegular => {
            let params = AlmostRegularParams::new(case.epsilon, case.delta).with_seed(case.seed);
            match almost_regular_asm(&inst, &params) {
                Ok(r) => (RunSummary::from(&r), Some(r)),
                Err(e) => return Err(fail(vec![format!("fast engine error: {e}")], violations)),
            }
        }
    };

    // CONGEST engine; `HkpOracle` must be *rejected* there — silently
    // accepting it would itself be a conformance bug.
    let congest_result = match case.algorithm {
        Algorithm::Asm => {
            let config = AsmConfig::new(case.epsilon)
                .with_seed(case.seed)
                .with_backend(case.backend);
            Some(asm_congest(&inst, &config))
        }
        Algorithm::RandAsm => {
            let params = RandAsmParams::new(case.epsilon, case.delta).with_seed(case.seed);
            Some(rand_asm_congest(&inst, &params))
        }
        Algorithm::AlmostRegular => {
            let params = AlmostRegularParams::new(case.epsilon, case.delta).with_seed(case.seed);
            Some(almost_regular_asm_congest(&inst, &params))
        }
    };

    let fast_only = case.algorithm == Algorithm::Asm && case.backend == MatcherBackend::HkpOracle;
    let congest_stats = match congest_result {
        Some(Ok(report)) if fast_only => {
            mismatches.push(format!(
                "CONGEST engine accepted the sequential {:?} backend",
                case.backend
            ));
            Some(report.stats)
        }
        Some(Ok(report)) => {
            mismatches.extend(diff_summaries(&fast_summary, &RunSummary::from(&report)));
            violations.extend(check_payload_budget(
                inst.ids().num_players(),
                &report.stats,
            ));
            Some(report.stats)
        }
        Some(Err(CongestRunError::UnsupportedBackend(_))) if fast_only => None,
        Some(Err(e)) => {
            mismatches.push(format!("CONGEST engine error: {e}"));
            None
        }
        None => None,
    };

    // Oracles on the agreed summary.
    let invalid = check_matching(&inst, &fast_summary);
    let is_valid = invalid.is_none();
    violations.extend(invalid);
    violations.extend(check_partition(&inst, &fast_summary));
    if let Some(report) = &fast_report {
        violations.extend(check_mm_maximality(report, case.backend));
    }
    // Stability analysis requires a valid matching (it walks preference
    // ranks); an invalid one already failed above.
    let budgets_met = is_valid
        && check_blocking_budget(&inst, &fast_summary, case.epsilon).is_none()
        && check_bad_men_budget(&inst, &fast_summary, effective_delta(case)).is_none();
    if case.is_deterministic() && !budgets_met {
        violations.extend(check_blocking_budget(&inst, &fast_summary, case.epsilon));
        violations.extend(check_bad_men_budget(
            &inst,
            &fast_summary,
            effective_delta(case),
        ));
    }

    if mismatches.is_empty() && violations.is_empty() {
        Ok(DiffReport {
            summary: fast_summary,
            congest_stats,
            budgets_met,
        })
    } else {
        Err(fail(mismatches, violations))
    }
}

/// The bad-men budget a case's run actually promises: `ASM` derives `δ`
/// from `ε` (DESIGN.md §3); the randomized variants take it verbatim.
fn effective_delta(case: &DiffCase) -> f64 {
    match case.algorithm {
        Algorithm::Asm => AsmConfig::new(case.epsilon).delta(),
        Algorithm::RandAsm | Algorithm::AlmostRegular => case.delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_greedy_case_conforms_end_to_end() {
        let case = DiffCase::asm(
            GeneratorConfig::Complete { n: 10, seed: 3 },
            MatcherBackend::DetGreedy,
            1.0,
        );
        let report = run_case(&case).unwrap();
        assert!(report.budgets_met);
        assert!(report.congest_stats.is_some());
    }

    #[test]
    fn hkp_case_is_fast_only() {
        let case = DiffCase::asm(
            GeneratorConfig::Regular {
                n: 10,
                d: 3,
                seed: 1,
            },
            MatcherBackend::HkpOracle,
            1.0,
        );
        let report = run_case(&case).unwrap();
        assert!(report.congest_stats.is_none());
    }

    #[test]
    fn rand_asm_case_agrees_across_engines() {
        let case = DiffCase {
            generator: GeneratorConfig::Complete { n: 10, seed: 4 },
            algorithm: Algorithm::RandAsm,
            backend: MatcherBackend::DetGreedy, // ignored
            epsilon: 1.0,
            delta: 0.1,
            seed: 7,
        };
        run_case(&case).unwrap();
    }

    #[test]
    fn diff_summaries_pinpoints_fields() {
        let case = DiffCase::asm(
            GeneratorConfig::Complete { n: 6, seed: 1 },
            MatcherBackend::DetGreedy,
            1.0,
        );
        let report = run_case(&case).unwrap();
        let mut other = report.summary.clone();
        other.good_men += 1;
        other.executed_proposal_rounds += 5;
        let diffs = diff_summaries(&report.summary, &other);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("good_men")));
    }

    #[test]
    fn failure_display_names_the_case() {
        let case = DiffCase::asm(
            GeneratorConfig::Chain { n: 4 },
            MatcherBackend::DetGreedy,
            0.5,
        );
        let failure = ConformanceFailure {
            case,
            engine_mismatches: vec!["matching: differs".into()],
            oracle_violations: vec![],
        };
        let text = failure.to_string();
        assert!(text.contains("chain(n=4)"), "{text}");
        assert!(text.contains("engines disagree"), "{text}");
    }
}

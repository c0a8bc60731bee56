//! The solve pipeline: one `solve` request body in, one audited result
//! out.
//!
//! [`SolveJob::new`] is admission: it refuses everything that can be
//! refused without building the instance (algorithm, backend, ε, δ, a
//! generator recipe that would panic) and keys the job for the result
//! cache and shard routing. [`SolveJob::run`] is the solve itself: cache
//! lookup, instance build, engine, stability audit, cache insert.
//!
//! The service's workers run every `solve` and every `solve_batch` item
//! through this pair, and `asm solve` runs it on a loaded instance with a
//! zero-capacity cache, so the CLI refuses what the wire refuses, with
//! the same messages, and prints the matching the wire would carry.

use crate::cache::{ResultCache, SolveKey};
use crate::protocol::{
    kind, parse_backend, Algorithm, ErrorInfo, InstanceSpec, SolveBody, SolveResult,
};
use asm_core::baselines::{distributed_gs, truncated_gs, GsReport};
use asm_core::{
    almost_regular_asm, asm, rand_asm, AlmostRegularParams, AsmConfig, AsmReport, ConfigError,
    RandAsmParams,
};
use asm_matching::{BlockingScratch, StabilityReport};
use asm_maximal::MatcherBackend;

thread_local! {
    /// Per-thread scratch for blocking-pair audits, so a worker's solves
    /// and analyses allocate none.
    pub(crate) static SCRATCH: std::cell::RefCell<BlockingScratch> =
        std::cell::RefCell::new(BlockingScratch::new());
}

/// An [`kind::INVALID`] error: the request's parameters are unusable.
pub(crate) fn invalid(message: String) -> ErrorInfo {
    ErrorInfo::new(kind::INVALID, message)
}

/// Refuses a generator recipe whose parameters would panic the
/// generator (see [`GeneratorConfig::validate`]); inline instances were
/// validated when they were decoded.
///
/// [`GeneratorConfig::validate`]: asm_instance::generators::GeneratorConfig::validate
pub(crate) fn validate_instance(spec: &InstanceSpec) -> Result<(), ErrorInfo> {
    match spec {
        InstanceSpec::Generator(config) => config
            .validate()
            .map_err(|err| invalid(format!("invalid instance: {err}"))),
        InstanceSpec::Inline(_) => Ok(()),
    }
}

/// One validated solve: the request body plus what admission parsed
/// from it. Single solves and batch items share it.
#[derive(Debug)]
pub struct SolveJob {
    pub(crate) body: SolveBody,
    algorithm: Algorithm,
    backend: MatcherBackend,
    pub(crate) key: SolveKey,
}

impl SolveJob {
    /// Validates `body` and keys it for the cache and shard routing.
    ///
    /// # Errors
    ///
    /// An [`kind::INVALID`] error naming the refused parameter: an
    /// unknown algorithm or backend (checked for every algorithm), an ε
    /// the ASM family cannot run (`gs` and `truncated-gs` ignore ε), a δ
    /// outside (0, 1) for `rand-asm` and `almost-regular`, or a generator
    /// recipe that would panic. The service answers it as an `invalid`
    /// reply before the job takes a queue slot.
    pub fn new(body: SolveBody) -> Result<SolveJob, ErrorInfo> {
        let algorithm = Algorithm::parse(&body.algorithm)
            .ok_or_else(|| invalid(format!("unknown algorithm `{}`", body.algorithm)))?;
        let backend = parse_backend(&body.backend)
            .ok_or_else(|| invalid(format!("unknown backend `{}`", body.backend)))?;
        // The ASM family's ε rule is `AsmConfig`'s, one message for all
        // three algorithms.
        let check_eps = || {
            AsmConfig::try_new(body.eps)
                .map_err(|err| invalid(format!("invalid asm parameters: {err}")))
        };
        match algorithm {
            Algorithm::Asm => {
                check_eps()?;
            }
            Algorithm::RandAsm | Algorithm::AlmostRegular => {
                check_eps()?;
                if !(body.delta > 0.0 && body.delta < 1.0) {
                    return Err(invalid(format!(
                        "delta must be in (0, 1), got {}",
                        body.delta
                    )));
                }
            }
            Algorithm::Gs | Algorithm::TruncatedGs => {}
        }
        validate_instance(&body.instance)?;
        let key = SolveKey::new(
            &body.instance,
            &body.algorithm,
            body.eps,
            body.delta,
            body.seed,
            &body.backend,
            body.cycles,
        );
        Ok(SolveJob {
            body,
            algorithm,
            backend,
            key,
        })
    }

    /// Runs the solve: answers from `cache` on a hit; otherwise builds
    /// the instance, runs the engine, audits the matching for blocking
    /// pairs, and stores the result in `cache`. `truncated-gs` with a
    /// zero cycle budget runs Gale–Shapley to convergence.
    ///
    /// # Errors
    ///
    /// A [`kind::SOLVE`] error when the engine refuses the configuration
    /// it derives from the request.
    pub fn run(self, cache: &ResultCache) -> Result<SolveResult, ErrorInfo> {
        let SolveJob {
            body,
            algorithm,
            backend,
            key,
        } = self;
        if let Some(hit) = cache.get(&key) {
            return Ok(hit);
        }
        // The job owns its body: an inline instance moves, not copies.
        let inst = match body.instance {
            InstanceSpec::Generator(config) => config.build(),
            InstanceSpec::Inline(inst) => inst,
        };
        let from_asm = |run: Result<AsmReport, ConfigError>| match run {
            Ok(report) => {
                let messages = report.proposals + report.acceptances + report.rejections;
                Ok((report.matching, report.rounds, messages))
            }
            Err(err) => Err(ErrorInfo::new(kind::SOLVE, err.to_string())),
        };
        let from_gs = |report: GsReport| (report.matching, report.rounds, report.proposals);
        let (matching, rounds, messages) = match algorithm {
            Algorithm::Asm => from_asm(AsmConfig::try_new(body.eps).and_then(|config| {
                asm(&inst, &config.with_backend(backend).with_seed(body.seed))
            }))?,
            Algorithm::RandAsm => from_asm(rand_asm(
                &inst,
                &RandAsmParams::new(body.eps, body.delta).with_seed(body.seed),
            ))?,
            Algorithm::AlmostRegular => from_asm(almost_regular_asm(
                &inst,
                &AlmostRegularParams::new(body.eps, body.delta).with_seed(body.seed),
            ))?,
            Algorithm::TruncatedGs if body.cycles > 0 => from_gs(truncated_gs(&inst, body.cycles)),
            Algorithm::Gs | Algorithm::TruncatedGs => from_gs(distributed_gs(&inst)),
        };
        let stability = SCRATCH.with(|scratch| {
            StabilityReport::analyze_with(&inst, &matching, &mut scratch.borrow_mut())
        });
        let result = SolveResult {
            matched: stability.matching_size as u64,
            num_edges: stability.num_edges as u64,
            blocking_pairs: stability.blocking_pairs as u64,
            rounds,
            messages,
            matching,
            cached: false,
        };
        cache.put(key, result.clone());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators::GeneratorConfig;

    #[test]
    fn the_asm_family_refuses_a_bad_eps_with_one_message() {
        let floor = "is below 1.5258789062527756e-5, the smallest epsilon whose schedule fits \
                     64-bit counts";
        for (eps, refusal) in [
            (0.0, "epsilon 0 must be positive and finite".to_string()),
            (-1.0, "epsilon -1 must be positive and finite".to_string()),
            (
                f64::NAN,
                "epsilon NaN must be positive and finite".to_string(),
            ),
            (
                f64::INFINITY,
                "epsilon inf must be positive and finite".to_string(),
            ),
            (1e-9, format!("epsilon 1e-9 {floor}")),
        ] {
            for algorithm in ["asm", "rand-asm", "almost-regular"] {
                let body = SolveBody {
                    instance: InstanceSpec::Generator(GeneratorConfig::Complete { n: 4, seed: 1 }),
                    algorithm: algorithm.to_string(),
                    eps,
                    delta: 0.1,
                    seed: 0,
                    backend: "greedy".to_string(),
                    deadline_ms: 0,
                    cycles: 0,
                };
                let err = SolveJob::new(body).unwrap_err();
                assert_eq!(err.kind, kind::INVALID, "{algorithm} at eps {eps}");
                assert_eq!(
                    err.message,
                    format!("invalid asm parameters: {refusal}"),
                    "{algorithm}"
                );
            }
        }
    }

    #[test]
    fn the_asm_family_solves_at_the_smallest_admitted_eps() {
        // Debug builds panic on arithmetic overflow, so a run here shows
        // every count of the schedule fits at the floor.
        let eps = AsmConfig::new(1.0).epsilon_floor();
        for algorithm in ["asm", "rand-asm", "almost-regular"] {
            let body = SolveBody {
                instance: InstanceSpec::Generator(GeneratorConfig::Regular {
                    n: 8,
                    d: 3,
                    seed: 7,
                }),
                algorithm: algorithm.to_string(),
                eps,
                delta: 0.1,
                seed: 0,
                backend: "greedy".to_string(),
                deadline_ms: 0,
                cycles: 0,
            };
            let result = SolveJob::new(body)
                .unwrap()
                .run(&ResultCache::new(0))
                .unwrap();
            // ε·|E| < 1: the matching must be stable.
            assert_eq!(result.blocking_pairs, 0, "{algorithm}");
            assert!(result.matched > 0, "{algorithm}");
        }
    }
}

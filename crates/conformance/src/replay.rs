//! Deterministic replay of conformance failures.
//!
//! Every [`ConformanceFailure`] pins the full recipe of its run — the
//! generator config, algorithm, backend, parameters, and seed — so a
//! failure observed anywhere (CI fuzzing, a laptop, a future session)
//! reproduces bit-for-bit from a small JSON file. The flow:
//!
//! 1. a differential or fuzz test hits a failure and calls
//!    [`emit_failure`], which writes `replay-<slug>.json` under
//!    [`replay_out_dir`] and panics with the path;
//! 2. `ASM_REPLAY=<path> cargo test -p asm-conformance -- --ignored replay`
//!    re-runs exactly that case;
//! 3. once fixed, the case can be promoted into the golden corpus
//!    (`crates/conformance/cases/`), which the regular test suite replays
//!    forever after.

use crate::differential::{run_case, ConformanceFailure, DiffCase, DiffReport};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A serialized conformance case: everything needed to reproduce one
/// differential run, plus a human note on why it is interesting.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayCase {
    /// Why this case exists (what it once broke, or what it pins).
    pub description: String,
    /// The pinned differential run.
    pub case: DiffCase,
}

impl ReplayCase {
    /// Wraps a case with a description.
    pub fn new(description: impl Into<String>, case: DiffCase) -> Self {
        ReplayCase {
            description: description.into(),
            case,
        }
    }

    /// Serializes to pretty JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("replay cases always serialize")
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed JSON or a JSON
    /// shape that is not a `ReplayCase`.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Re-executes the pinned case through the differential runner.
    ///
    /// # Errors
    ///
    /// Propagates the [`ConformanceFailure`] when the case still fails.
    #[allow(clippy::result_large_err)]
    pub fn run(&self) -> Result<DiffReport, ConformanceFailure> {
        run_case(&self.case)
    }
}

/// Where emitted replay files go: `$ASM_CONFORMANCE_REPLAY_DIR`, or
/// `target/conformance-replays` relative to the current directory.
pub fn replay_out_dir() -> PathBuf {
    match std::env::var_os("ASM_CONFORMANCE_REPLAY_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("conformance-replays"),
    }
}

/// Serializes a failure to a JSON replay file under [`replay_out_dir`].
///
/// Returns the path written. The file name encodes the generator family
/// and seed so repeated runs of the same failing case overwrite rather
/// than accumulate.
///
/// # Errors
///
/// Returns the I/O error if the directory or file cannot be written.
pub fn emit_failure(failure: &ConformanceFailure) -> io::Result<PathBuf> {
    let dir = replay_out_dir();
    fs::create_dir_all(&dir)?;
    let case = ReplayCase::new(failure.to_string(), failure.case.clone());
    let name = format!(
        "replay-{}-{:?}-{}-s{}.json",
        failure.case.generator.family(),
        failure.case.algorithm,
        backend_slug(&failure.case),
        failure.case.seed
    )
    .to_lowercase();
    let path = dir.join(name);
    fs::write(&path, case.to_json())?;
    Ok(path)
}

fn backend_slug(case: &DiffCase) -> String {
    format!("{:?}", case.backend)
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect()
}

/// Loads every `*.json` replay case in `dir`, sorted by file name.
///
/// # Errors
///
/// Returns an I/O error for an unreadable directory or file, or an
/// `InvalidData` error naming the file that failed to parse.
pub fn load_cases(dir: &Path) -> io::Result<Vec<(PathBuf, ReplayCase)>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let case = ReplayCase::from_json(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        out.push((path, case));
    }
    Ok(out)
}

/// Runs `case` and, on failure, writes a replay file and panics with the
/// failure details plus the replay path — the assertion the conformance
/// tests are built on.
///
/// # Panics
///
/// Panics with the serialized failure when the case does not conform.
pub fn assert_conforms(case: DiffCase) -> DiffReport {
    match crate::differential::run_case(&case) {
        Ok(report) => report,
        Err(failure) => {
            let where_written = match emit_failure(&failure) {
                Ok(path) => format!("replay case written to {}", path.display()),
                Err(e) => format!("(could not write replay case: {e})"),
            };
            panic!("{failure}{where_written}\nreproduce with: ASM_REPLAY=<path> cargo test -p asm-conformance -- --ignored replay");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::Algorithm;
    use asm_instance::generators::GeneratorConfig;
    use asm_maximal::MatcherBackend;

    fn sample() -> ReplayCase {
        ReplayCase::new(
            "exercises the zipf family",
            DiffCase {
                generator: GeneratorConfig::Zipf {
                    n: 10,
                    d: 3,
                    s: 1.2,
                    seed: 5,
                },
                algorithm: Algorithm::Asm,
                backend: MatcherBackend::IsraeliItai { max_iterations: 48 },
                epsilon: 1.0,
                delta: 0.1,
                seed: 2,
            },
        )
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let case = sample();
        let back = ReplayCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(ReplayCase::from_json("{\"description\": 3}").is_err());
        assert!(ReplayCase::from_json("not json").is_err());
    }

    #[test]
    fn replayed_case_builds_the_same_instance() {
        let case = sample();
        let back = ReplayCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back.case.instance(), case.case.instance());
    }

    #[test]
    fn emit_failure_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join(format!("asm-replay-test-{}", std::process::id()));
        std::env::set_var("ASM_CONFORMANCE_REPLAY_DIR", &dir);
        let failure = ConformanceFailure {
            case: sample().case,
            engine_mismatches: vec!["synthetic".into()],
            oracle_violations: vec![],
        };
        let path = emit_failure(&failure).unwrap();
        std::env::remove_var("ASM_CONFORMANCE_REPLAY_DIR");

        let loaded = load_cases(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, path);
        assert_eq!(loaded[0].1.case, failure.case);
        fs::remove_dir_all(&dir).ok();
    }
}

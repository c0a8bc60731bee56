//! The message-passing CONGEST engine.
//!
//! Runs `ASM`/`RandASM` as real per-player processes on an
//! [`asm_congest::Network`]: every PROPOSE/ACCEPT/REJECT and every
//! maximal-matching message is an `O(log n)`-bit message delivered along
//! an edge of the communication graph, with the network enforcing both
//! constraints.
//!
//! The driver sequences the globally-known phase schedule (in the CONGEST
//! model every player can compute the current phase from the synchronized
//! round number; the driver simulates that shared clock, skipping rounds
//! that are provably silent). Given the same seed, this engine produces a
//! matching **identical** to the fast engine's — the engine-equivalence
//! tests in `tests/` check this across instance families and backends.
//!
//! # Examples
//!
//! ```
//! use asm_core::congest::asm_congest;
//! use asm_core::{asm, AsmConfig};
//! use asm_instance::generators;
//! use asm_maximal::MatcherBackend;
//!
//! let inst = generators::complete(8, 3);
//! let config = AsmConfig::new(1.0).with_backend(MatcherBackend::DetGreedy);
//! let message_passing = asm_congest(&inst, &config)?;
//! let fast = asm(&inst, &config).unwrap();
//! assert_eq!(message_passing.matching, fast.matching);
//! # Ok::<(), asm_core::congest::CongestRunError>(())
//! ```

mod ctl;
mod messages;
mod player;

pub use crate::fast::SchedulePhase;
pub use ctl::{apply_ctl, collect_finals, summarize_players, AsmCtl, AsmSummary, PlayerFinal};
pub use messages::AsmMsg;
pub use player::{CongestBackend, Phase, Player};

use crate::fast::{almost_regular_plan, asm_schedule};
use crate::{rand_asm_config, AlmostRegularParams, AsmConfig, ConfigError, RandAsmParams};
use asm_congest::{CongestError, NetStats, Network, NodeId, RoundDriver, RoundOutcome, SplitRng};
use asm_instance::Instance;
use asm_matching::Matching;
use asm_maximal::MatcherBackend;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Result of a CONGEST-engine run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CongestReport {
    /// The matching produced.
    pub matching: Matching,
    /// Network statistics: measured rounds, messages, and bits.
    pub stats: NetStats,
    /// `ProposalRound`s in the nominal schedule.
    pub scheduled_proposal_rounds: u64,
    /// `ProposalRound`s that actually communicated.
    pub executed_proposal_rounds: u64,
    /// Men that are good (matched or fully rejected) at termination.
    pub good_men: usize,
    /// Men that are bad (unmatched with surviving preferences).
    pub bad_men: Vec<NodeId>,
    /// Men removed from play by `AlmostRegularASM`'s violator rule
    /// (always empty for `ASM`/`RandASM`).
    pub removed_men: Vec<NodeId>,
}

/// Errors from the CONGEST engine.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CongestRunError {
    /// The charged HKP oracle has no message-passing form; use
    /// `DetGreedy` or `IsraeliItai`.
    UnsupportedBackend(MatcherBackend),
    /// Invalid algorithm configuration.
    Config(ConfigError),
    /// Network-level failure (a protocol bug: non-neighbor send, budget
    /// overrun, livelock cap).
    Network(CongestError),
}

impl fmt::Display for CongestRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestRunError::UnsupportedBackend(b) => write!(
                f,
                "backend {b:?} has no message-passing implementation (use DetGreedy or IsraeliItai)"
            ),
            CongestRunError::Config(e) => write!(f, "invalid configuration: {e}"),
            CongestRunError::Network(e) => write!(f, "network error: {e}"),
        }
    }
}

impl Error for CongestRunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CongestRunError::Config(e) => Some(e),
            CongestRunError::Network(e) => Some(e),
            CongestRunError::UnsupportedBackend(_) => None,
        }
    }
}

impl From<ConfigError> for CongestRunError {
    fn from(e: ConfigError) -> Self {
        CongestRunError::Config(e)
    }
}

impl From<CongestError> for CongestRunError {
    fn from(e: CongestError) -> Self {
        CongestRunError::Network(e)
    }
}

/// The per-message payload allowance (in bits) the CONGEST engine
/// enforces for a network of `num_players` nodes: a constant tag budget
/// plus one node-id width — `O(log n)`, as the model requires.
///
/// Exposed so external checkers (the conformance oracle layer) can assert
/// that a run's measured `max_message_bits` stayed within the same budget
/// the engine enforced.
///
/// # Examples
///
/// ```
/// use asm_core::congest::payload_bit_budget;
/// assert_eq!(payload_bit_budget(1024), 24 + 10);
/// assert!(payload_bit_budget(0) >= 25); // tiny networks get the floor
/// ```
pub fn payload_bit_budget(num_players: usize) -> usize {
    24 + asm_congest::NodeId::bits_for(num_players.max(2))
}

/// Runs the deterministic `ASM` (or, with an Israeli–Itai backend, a
/// `RandASM`-shaped run) on the message-passing engine.
///
/// # Errors
///
/// Fails on invalid configuration, on the `HkpOracle` backend (which is a
/// charged sequential oracle, not a protocol), or on network-level
/// protocol violations.
pub fn asm_congest(inst: &Instance, config: &AsmConfig) -> Result<CongestReport, CongestRunError> {
    run_local(inst, &RunPlan::asm(inst, config)?)
}

/// Runs `RandASM` (Theorem 5) on the message-passing engine: the same
/// truncated-Israeli–Itai configuration as [`crate::rand_asm`], executed
/// as real message exchange.
///
/// # Errors
///
/// As for [`asm_congest()`].
pub fn rand_asm_congest(
    inst: &Instance,
    params: &RandAsmParams,
) -> Result<CongestReport, CongestRunError> {
    run_local(inst, &RunPlan::rand_asm(inst, params)?)
}

/// Runs `AlmostRegularASM` (Theorem 6) on the message-passing engine: the
/// same plan as [`crate::almost_regular_asm`], with the
/// maximality-violation detection implemented as two extra protocol
/// rounds per `ProposalRound` (UNMATCHED announcements over `G₀`).
///
/// # Errors
///
/// As for [`asm_congest()`].
pub fn almost_regular_asm_congest(
    inst: &Instance,
    params: &AlmostRegularParams,
) -> Result<CongestReport, CongestRunError> {
    run_local(inst, &RunPlan::almost_regular(inst, params)?)
}

/// A fully resolved execution plan for the CONGEST engine: the validated
/// configuration, the phase schedule, and whether `AlmostRegularASM`'s
/// violator-removal rounds run.
///
/// Serializable so the distributed runtime can ship the same plan the
/// in-process engine executes to node processes; equal plans plus equal
/// instances yield byte-identical runs on any [`RoundDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunPlan {
    /// The validated algorithm configuration.
    pub config: AsmConfig,
    /// The `QuantileMatch` schedule the driver sequences.
    pub schedule: Vec<SchedulePhase>,
    /// Whether the `AlmostRegularASM` violator-removal rounds run.
    pub amm_removal: bool,
}

impl RunPlan {
    /// The plan [`asm_congest()`] executes.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration.
    pub fn asm(inst: &Instance, config: &AsmConfig) -> Result<Self, CongestRunError> {
        config.validate()?;
        Ok(RunPlan {
            config: config.clone(),
            schedule: asm_schedule(config, inst),
            amm_removal: false,
        })
    }

    /// The plan [`rand_asm_congest()`] executes.
    ///
    /// # Errors
    ///
    /// Fails on invalid parameters.
    pub fn rand_asm(inst: &Instance, params: &RandAsmParams) -> Result<Self, CongestRunError> {
        let config = rand_asm_config(inst, params)?;
        let schedule = asm_schedule(&config, inst);
        Ok(RunPlan {
            config,
            schedule,
            amm_removal: false,
        })
    }

    /// The plan [`almost_regular_asm_congest()`] executes.
    ///
    /// # Errors
    ///
    /// Fails on invalid parameters.
    pub fn almost_regular(
        inst: &Instance,
        params: &AlmostRegularParams,
    ) -> Result<Self, CongestRunError> {
        let (config, ell) = almost_regular_plan(inst, params)?;
        Ok(RunPlan {
            config,
            schedule: vec![SchedulePhase {
                gate: 1,
                iterations: ell,
                label: 0,
            }],
            amm_removal: true,
        })
    }
}

/// Resolves the message-passing backend and its per-invocation matcher
/// round cap for `config` on `inst`.
///
/// # Errors
///
/// Fails on invalid configuration or a backend with no message-passing
/// form (the charged HKP oracle).
pub fn congest_backend(
    inst: &Instance,
    config: &AsmConfig,
) -> Result<(CongestBackend, u64), CongestRunError> {
    config.validate()?;
    Ok(match config.backend {
        MatcherBackend::DetGreedy => (
            CongestBackend::DetGreedy,
            2 * inst.ids().num_players() as u64 + 16,
        ),
        MatcherBackend::BipartiteProposal => (
            CongestBackend::BipartiteProposal,
            2 * inst.ids().num_players() as u64 + 16,
        ),
        MatcherBackend::PanconesiRizzi => (
            CongestBackend::PanconesiRizzi,
            // Worst-case fixed schedule: F <= n forests; recomputed
            // per invocation by the driver from the actual G0.
            9 * inst.ids().num_players() as u64 + 64,
        ),
        MatcherBackend::IsraeliItai { max_iterations } => (
            CongestBackend::IsraeliItai { max_iterations },
            4 * max_iterations + 16,
        ),
        other => return Err(CongestRunError::UnsupportedBackend(other)),
    })
}

/// Builds the players whose node ids fall in `range` (raw-id order), with
/// state identical to the corresponding slice of an in-process run.
///
/// The full network is `build_players(inst, config, 0..n)`; a distributed
/// node process hosts a contiguous sub-range.
///
/// # Errors
///
/// As for [`congest_backend`].
pub fn build_players(
    inst: &Instance,
    config: &AsmConfig,
    range: std::ops::Range<u32>,
) -> Result<Vec<Player>, CongestRunError> {
    let (backend, _) = congest_backend(inst, config)?;
    let ids = inst.ids();
    let k = config.quantile_count();
    let rng_base = SplitRng::new(config.seed);
    Ok(ids
        .players()
        .filter(|v| range.contains(&v.raw()))
        .map(|v| {
            Player::new(
                v,
                ids.gender(v),
                inst.prefs(v).ranked(),
                k,
                backend,
                rng_base.clone(),
            )
        })
        .collect())
}

/// Everything a [`RoundDriver`] hands back when a run finishes: the final
/// per-player state (in node-id order) and the network statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArtifacts {
    /// Final per-player state, indexed by node id.
    pub finals: Vec<PlayerFinal>,
    /// The executor's network statistics.
    pub stats: NetStats,
}

/// Errors from driving an ASM run over an arbitrary [`RoundDriver`].
#[derive(Clone, Debug, PartialEq)]
pub enum DriveError<E> {
    /// Setup failure before any round ran (invalid config or backend).
    Setup(CongestRunError),
    /// The embedded matcher exceeded its round cap (livelock guard).
    MmBudgetExhausted {
        /// The exhausted cap.
        budget: u64,
    },
    /// Transport or engine failure from the driver itself.
    Driver(E),
}

impl<E: fmt::Display> fmt::Display for DriveError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Setup(e) => write!(f, "setup failed: {e}"),
            DriveError::MmBudgetExhausted { budget } => {
                write!(f, "matcher exceeded its {budget}-round budget")
            }
            DriveError::Driver(e) => write!(f, "round driver failed: {e}"),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> Error for DriveError<E> {}

/// The in-process [`RoundDriver`]: wraps an [`asm_congest::Network`] of
/// [`Player`]s — the reference executor every other transport is
/// differential-tested against.
#[derive(Debug)]
pub struct LocalDriver {
    net: Network<Player>,
    last_gate: usize,
}

impl LocalDriver {
    /// Builds the full-network executor for `inst` under `config`.
    ///
    /// # Errors
    ///
    /// As for [`congest_backend`], plus network construction failures.
    pub fn new(inst: &Instance, config: &AsmConfig) -> Result<Self, CongestRunError> {
        let n = inst.ids().num_players();
        let players = build_players(inst, config, 0..n as u32)?;
        let mut net = Network::new(inst.topology(), players)?;
        // The CONGEST allowance: most payloads are constant-size tags,
        // but the Panconesi–Rizzi colors legitimately carry O(log n) bits.
        net.set_bit_budget(payload_bit_budget(n));
        Ok(LocalDriver { net, last_gate: 0 })
    }
}

impl RoundDriver for LocalDriver {
    type Ctl = AsmCtl;
    type Summary = AsmSummary;
    type Final = RunArtifacts;
    type Error = CongestError;

    fn control(&mut self, ops: &[AsmCtl]) -> Result<AsmSummary, CongestError> {
        for op in ops {
            if let AsmCtl::BeginQuantileMatch { gate } = *op {
                self.last_gate = gate;
            }
        }
        apply_ctl(self.net.nodes_mut(), ops);
        Ok(summarize_players(self.net.nodes(), self.last_gate))
    }

    fn step(&mut self) -> Result<(RoundOutcome, AsmSummary), CongestError> {
        let outcome = self.net.step()?;
        Ok((outcome, summarize_players(self.net.nodes(), self.last_gate)))
    }

    fn finish(self) -> Result<RunArtifacts, CongestError> {
        Ok(RunArtifacts {
            finals: collect_finals(self.net.nodes()),
            stats: self.net.stats().clone(),
        })
    }
}

/// Runs `plan` against the local in-process executor.
fn run_local(inst: &Instance, plan: &RunPlan) -> Result<CongestReport, CongestRunError> {
    let driver = LocalDriver::new(inst, &plan.config)?;
    run_plan_with_driver(inst, plan, driver).map_err(|e| match e {
        DriveError::Setup(e) => e,
        DriveError::MmBudgetExhausted { budget } => {
            CongestRunError::Network(CongestError::PhaseBudgetExhausted { budget })
        }
        DriveError::Driver(e) => CongestRunError::Network(e),
    })
}

/// Executes `plan` on an arbitrary [`RoundDriver`] and assembles the
/// report.
///
/// This is **the** driver loop: both the in-process engine
/// ([`asm_congest()`] and friends, via [`LocalDriver`]) and the
/// distributed orchestrator run this exact function, so the sequence of
/// control batches and round steps — and therefore the round and message
/// tallies — is identical across transports by construction.
///
/// # Errors
///
/// Setup failures, matcher budget exhaustion, and driver (transport or
/// engine) failures.
pub fn run_plan_with_driver<D>(
    inst: &Instance,
    plan: &RunPlan,
    mut driver: D,
) -> Result<CongestReport, DriveError<D::Error>>
where
    D: RoundDriver<Ctl = AsmCtl, Summary = AsmSummary, Final = RunArtifacts>,
{
    let (backend, mm_cap) = congest_backend(inst, &plan.config).map_err(DriveError::Setup)?;
    let ids = inst.ids();
    let k = plan.config.quantile_count();

    // Executed `ProposalRound`s; doubles as the MM tag source, as in the
    // fast engine.
    let mut executed: u64 = 0;
    let mut scheduled: u64 = 0;

    'outer: for (pi, phase) in plan.schedule.iter().enumerate() {
        for it in 0..phase.iterations {
            scheduled = scheduled.saturating_add(k as u64);
            // Global termination detection: if no man passes this gate,
            // none will pass any later (larger) gate.
            let mut summary = driver
                .control(&[AsmCtl::BeginQuantileMatch { gate: phase.gate }])
                .map_err(DriveError::Driver)?;
            if !summary.would_propose {
                if summary.all_blocked && plan.config.early_exit {
                    // Account the rest of the schedule as scheduled-only:
                    // the remaining iterations of this phase, then every
                    // later phase — matching the fast engine's nominal
                    // bookkeeping exactly (the conformance harness diffs
                    // the two).
                    // Saturating, like the fast engine's count.
                    let mut rest = (phase.iterations - 1 - it).saturating_mul(k as u64);
                    for ph in &plan.schedule[pi + 1..] {
                        rest = rest.saturating_add(ph.iterations.saturating_mul(k as u64));
                    }
                    scheduled = scheduled.saturating_add(rest);
                    break 'outer;
                }
                continue;
            }
            for _ in 0..k {
                if !summary.would_propose {
                    break;
                }
                executed += 1;
                summary = run_proposal_round(
                    &mut driver,
                    backend,
                    executed << 32,
                    mm_cap,
                    plan.amm_removal,
                )?;
            }
        }
    }

    let arts = driver.finish().map_err(DriveError::Driver)?;
    debug_assert_eq!(arts.finals.len(), ids.num_players());

    // Collect the matching from the women's partner fields; assert the
    // men agree.
    let mut matching = Matching::new(ids.num_players());
    for w in ids.women() {
        if let Some(m) = arts.finals[w.index()].partner {
            debug_assert_eq!(
                arts.finals[m.index()].partner,
                Some(w),
                "partner tables agree"
            );
            matching
                .add_pair(m, w)
                .expect("players hold disjoint pairs");
        }
    }
    let mut bad = Vec::new();
    let mut removed = Vec::new();
    let mut good = 0;
    for m in ids.men() {
        let f = &arts.finals[m.index()];
        if f.removed {
            removed.push(m);
            if f.partner.is_some() {
                good += 1; // matched before removal; counted as in the fast engine
            }
            continue;
        }
        if f.good {
            good += 1;
        } else {
            bad.push(m);
        }
    }
    Ok(CongestReport {
        matching,
        stats: arts.stats,
        scheduled_proposal_rounds: scheduled,
        executed_proposal_rounds: executed,
        good_men: good,
        bad_men: bad,
        removed_men: removed,
    })
}

/// Executes one `ProposalRound` worth of synchronous rounds on `driver`,
/// returning the summary after the closing `Idle` flip.
fn run_proposal_round<D>(
    driver: &mut D,
    backend: CongestBackend,
    tag: u64,
    mm_cap: u64,
    amm_removal: bool,
) -> Result<AsmSummary, DriveError<D::Error>>
where
    D: RoundDriver<Ctl = AsmCtl, Summary = AsmSummary, Final = RunArtifacts>,
{
    driver
        .control(&[AsmCtl::BeginProposalRound { tag }]) // phase = Propose
        .map_err(DriveError::Driver)?;
    driver.step().map_err(DriveError::Driver)?; // men send PROPOSE
    driver
        .control(&[AsmCtl::SetPhase(Phase::Respond)])
        .map_err(DriveError::Driver)?;
    // Women receive, send ACCEPT, learn G0.
    let (_, summary) = driver.step().map_err(DriveError::Driver)?;
    if backend == CongestBackend::PanconesiRizzi {
        // Panconesi–Rizzi assumes Δ(G0) is globally known; the driver
        // plays that oracle from the women's merged accept counts.
        let forests = summary.pr_forests();
        driver
            .control(&[
                AsmCtl::SetPrForests { forests },
                AsmCtl::SetPhase(Phase::Mm),
            ])
            .map_err(DriveError::Driver)?;
    } else {
        driver
            .control(&[AsmCtl::SetPhase(Phase::Mm)])
            .map_err(DriveError::Driver)?;
    }
    let mut steps = 0;
    loop {
        let (outcome, summary) = driver.step().map_err(DriveError::Driver)?; // matcher subrounds
        steps += 1;
        if outcome.sent == 0 && !summary.mm_active {
            break;
        }
        if steps > mm_cap {
            return Err(DriveError::MmBudgetExhausted { budget: mm_cap });
        }
    }
    if amm_removal {
        // Theorem 6's violator detection: unmatched G0 members announce,
        // and unmatched men hearing an announcement leave the game.
        driver
            .control(&[AsmCtl::SetPhase(Phase::UnmatchedAnnounce)])
            .map_err(DriveError::Driver)?;
        driver.step().map_err(DriveError::Driver)?;
        driver
            .control(&[AsmCtl::SetPhase(Phase::UnmatchedRecv)])
            .map_err(DriveError::Driver)?;
        driver.step().map_err(DriveError::Driver)?;
    }
    driver
        .control(&[AsmCtl::BeginReject]) // adopt M0, queue rejects; phase = RejectSend
        .map_err(DriveError::Driver)?;
    driver.step().map_err(DriveError::Driver)?; // women send REJECT
    driver
        .control(&[AsmCtl::SetPhase(Phase::RejectRecv)])
        .map_err(DriveError::Driver)?;
    driver.step().map_err(DriveError::Driver)?; // men apply rejections
    driver
        .control(&[AsmCtl::SetPhase(Phase::Idle)])
        .map_err(DriveError::Driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;
    use asm_matching::verify_matching;

    #[test]
    fn det_greedy_congest_matches_fast_engine() {
        for seed in 0..4 {
            let inst = generators::erdos_renyi(10, 10, 0.5, seed);
            let config = AsmConfig::new(1.0).with_backend(MatcherBackend::DetGreedy);
            let congest = asm_congest(&inst, &config).unwrap();
            let fast = crate::asm(&inst, &config).unwrap();
            assert_eq!(congest.matching, fast.matching, "seed {seed}");
            assert_eq!(
                congest.executed_proposal_rounds,
                fast.executed_proposal_rounds
            );
            assert_eq!(congest.bad_men, fast.bad_men);
        }
    }

    #[test]
    fn bipartite_proposal_congest_matches_fast_engine() {
        for seed in 0..4 {
            let inst = generators::zipf(10, 4, 1.0, seed + 30);
            let config = AsmConfig::new(1.0).with_backend(MatcherBackend::BipartiteProposal);
            let congest = asm_congest(&inst, &config).unwrap();
            let fast = crate::asm(&inst, &config).unwrap();
            assert_eq!(congest.matching, fast.matching, "seed {seed}");
            assert_eq!(congest.bad_men, fast.bad_men, "seed {seed}");
        }
    }

    #[test]
    fn panconesi_rizzi_congest_matches_fast_engine() {
        for seed in 0..4 {
            let inst = generators::erdos_renyi(9, 9, 0.5, seed + 90);
            let config = AsmConfig::new(1.0).with_backend(MatcherBackend::PanconesiRizzi);
            let congest = asm_congest(&inst, &config).unwrap();
            let fast = crate::asm(&inst, &config).unwrap();
            assert_eq!(congest.matching, fast.matching, "seed {seed}");
            assert_eq!(congest.bad_men, fast.bad_men, "seed {seed}");
        }
    }

    #[test]
    fn israeli_itai_congest_matches_fast_engine() {
        for seed in 0..4 {
            let inst = generators::erdos_renyi(9, 9, 0.6, seed + 50);
            let config = AsmConfig::new(1.0)
                .with_seed(seed)
                .with_backend(MatcherBackend::IsraeliItai { max_iterations: 40 });
            let congest = asm_congest(&inst, &config).unwrap();
            let fast = crate::asm(&inst, &config).unwrap();
            assert_eq!(congest.matching, fast.matching, "seed {seed}");
        }
    }

    #[test]
    fn rand_asm_congest_is_stable_enough() {
        let inst = generators::complete(12, 8);
        let params = RandAsmParams::new(1.0, 0.1).with_seed(5);
        let report = rand_asm_congest(&inst, &params).unwrap();
        verify_matching(&inst, &report.matching).unwrap();
        let fast = crate::rand_asm(&inst, &params).unwrap();
        assert_eq!(report.matching, fast.matching);
    }

    #[test]
    fn almost_regular_congest_matches_fast_engine() {
        for seed in 0..3 {
            let inst = generators::regular(12, 4, seed + 70);
            let params = AlmostRegularParams::new(1.0, 0.1).with_seed(seed);
            let congest = almost_regular_asm_congest(&inst, &params).unwrap();
            let fast = crate::almost_regular_asm(&inst, &params).unwrap();
            assert_eq!(congest.matching, fast.matching, "seed {seed}");
            assert_eq!(congest.removed_men, fast.removed_men, "seed {seed}");
        }
    }

    #[test]
    fn almost_regular_congest_is_stable_enough() {
        let inst = generators::complete(12, 2);
        let report =
            almost_regular_asm_congest(&inst, &AlmostRegularParams::new(1.0, 0.1)).unwrap();
        verify_matching(&inst, &report.matching).unwrap();
        let st = asm_matching::StabilityReport::analyze(&inst, &report.matching);
        assert!(st.is_one_minus_eps_stable(1.0));
    }

    #[test]
    fn hkp_oracle_backend_is_rejected() {
        let inst = generators::complete(4, 1);
        let err = asm_congest(&inst, &AsmConfig::new(1.0)).unwrap_err();
        assert!(matches!(err, CongestRunError::UnsupportedBackend(_)));
        assert!(err.to_string().contains("DetGreedy"));
    }

    #[test]
    fn stats_measure_real_traffic() {
        let inst = generators::complete(8, 2);
        let config = AsmConfig::new(1.0).with_backend(MatcherBackend::DetGreedy);
        let report = asm_congest(&inst, &config).unwrap();
        assert!(report.stats.messages > 0);
        assert!(report.stats.rounds > 0);
        assert!(report.stats.max_message_bits <= 8);
        assert!(!report.matching.is_empty());
    }

    #[test]
    fn empty_instance() {
        let inst = asm_instance::InstanceBuilder::new(2, 2).build().unwrap();
        let config = AsmConfig::new(1.0).with_backend(MatcherBackend::DetGreedy);
        let report = asm_congest(&inst, &config).unwrap();
        assert!(report.matching.is_empty());
        assert_eq!(report.stats.rounds, 0);
        assert_eq!(report.good_men, 2, "isolated men are vacuously good");
    }
}

//! The vector ("fast") engine: a faithful phase-by-phase simulation of the
//! paper's algorithms operating directly on [`crate::state::AsmState`], with
//! CONGEST round accounting identical to the algorithm's communication
//! schedule (propose + accept + maximal matching + reject per
//! `ProposalRound`).
//!
//! The message-passing engine in [`crate::congest`] executes the same
//! algorithms as real processes exchanging `O(log n)`-bit messages; the
//! two produce identical matchings from identical seeds (see the
//! engine-equivalence integration tests).

mod almost_regular;
mod asm;
mod driver;
mod proposal_round;
mod quantile_match;
mod rand_asm;
#[cfg(test)]
mod state_battery;

pub use almost_regular::{almost_regular_asm, AlmostRegularParams};
pub use asm::asm;
pub use rand_asm::{rand_asm, rand_asm_config, RandAsmParams};

pub use driver::SchedulePhase;

pub(crate) use almost_regular::almost_regular_plan;
pub(crate) use asm::asm_schedule;
pub(crate) use driver::run_schedule;

use crate::{AsmConfig, QmSnapshot};
use asm_congest::{NodeId, SplitRng};
use asm_maximal::MatcherBackend;

/// Mutable bookkeeping threaded through one algorithm run.
#[derive(Debug)]
pub(crate) struct RunCtx {
    pub backend: MatcherBackend,
    pub rng: SplitRng,
    pub n_players: usize,
    /// Executed `ProposalRound`s; doubles as the MM tag source
    /// (`tag = executed_prs << 32` so Israeli–Itai iterations never
    /// collide).
    pub executed_prs: u64,
    pub scheduled_prs: u64,
    pub scheduled_qms: u64,
    pub rounds: u64,
    pub mm_rounds: u64,
    pub mm_invocations: u64,
    pub mm_nonmaximal: u64,
    pub proposals: u64,
    pub acceptances: u64,
    pub rejections: u64,
    pub removed_men: Vec<NodeId>,
    pub remove_amm_violators: bool,
    pub snapshots: Vec<QmSnapshot>,
}

impl RunCtx {
    pub(crate) fn new(config: &AsmConfig, n_players: usize) -> Self {
        RunCtx {
            backend: config.backend,
            rng: SplitRng::new(config.seed),
            n_players,
            executed_prs: 0,
            scheduled_prs: 0,
            scheduled_qms: 0,
            rounds: 0,
            mm_rounds: 0,
            mm_invocations: 0,
            mm_nonmaximal: 0,
            proposals: 0,
            acceptances: 0,
            rejections: 0,
            removed_men: Vec::new(),
            remove_amm_violators: false,
            snapshots: Vec::new(),
        }
    }

    /// Books `qms` scheduled `QuantileMatch` calls of `k` `ProposalRound`s
    /// each. Saturating, like the CONGEST driver's count, so both engines
    /// report identical totals and no schedule overflows them.
    pub(crate) fn schedule_quantile_matches(&mut self, qms: u64, k: usize) {
        self.scheduled_qms = self.scheduled_qms.saturating_add(qms);
        self.scheduled_prs = self
            .scheduled_prs
            .saturating_add(qms.saturating_mul(k as u64));
    }

    /// Worst-case rounds of one maximal-matching invocation under the
    /// nominal (no-termination-detection) schedule.
    pub(crate) fn mm_nominal_rounds(&self) -> u64 {
        match self.backend {
            MatcherBackend::HkpOracle => asm_maximal::hkp_charged_rounds(self.n_players),
            // The greedy matcher matches >= 1 edge per 2-round cycle; at
            // most n/2 edges fit in a matching.
            MatcherBackend::DetGreedy => self.n_players as u64 + 2,
            // Proposal cycles are bounded by the max left degree + 1.
            MatcherBackend::BipartiteProposal => self.n_players as u64 + 2,
            // CV coloring (<= log* slack) + 9 reduction rounds + 9 rounds
            // per forest; forests <= max degree <= n.
            MatcherBackend::PanconesiRizzi => 9 * self.n_players as u64 + 32,
            MatcherBackend::IsraeliItai { max_iterations } => {
                max_iterations.saturating_mul(asm_maximal::ROUNDS_PER_MATCHING_ROUND)
            }
        }
    }

    /// Nominal rounds of one `ProposalRound`: propose + accept + MM +
    /// reject.
    pub(crate) fn pr_nominal_rounds(&self) -> u64 {
        self.mm_nominal_rounds().saturating_add(3)
    }
}

//! One persistent market: mutable symmetric preferences, the cached
//! matching, and per-agent dirty flags.

use crate::engine::{self, CachedPair, ResolveReport, WARM_DIRTY_LIMIT};
use asm_instance::{Instance, InstanceBuilder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Which side of the market an agent index refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// The proposal-receiving side (side index `i` = node id `i`).
    Women,
    /// The proposing side (side index `j` = node id `num_women + j`).
    Men,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Women => write!(f, "women"),
            Side::Men => write!(f, "men"),
        }
    }
}

/// One market mutation. Every op maintains the symmetric-preferences
/// invariant: editing an agent's list also patches the counterpart lists
/// (removed partners delete the agent; added partners append it at worst
/// rank), and every touched endpoint is marked dirty.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MutationOp {
    /// Replace one agent's full preference list (ordered opposite-side
    /// indices, best first).
    SetPrefs {
        /// The agent's side.
        side: Side,
        /// The agent's side index.
        index: u32,
        /// The new ranked list of opposite-side indices.
        prefs: Vec<u32>,
    },
    /// Append a new agent to one side with the given preference list.
    /// Existing counterpart lists gain the newcomer at worst rank.
    AddAgent {
        /// The side the agent joins.
        side: Side,
        /// The newcomer's ranked list of opposite-side indices.
        prefs: Vec<u32>,
    },
    /// Remove an agent from the market. The slot is retained (indices
    /// stay stable; the agent's list becomes empty and it leaves every
    /// counterpart list) — this models a departure without renumbering.
    RemoveAgent {
        /// The agent's side.
        side: Side,
        /// The agent's side index.
        index: u32,
    },
}

/// How a `resolve` should run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveMode {
    /// Warm-start when a cached matching exists and the dirty fraction
    /// is under [`WARM_DIRTY_LIMIT`]; cold otherwise.
    Auto,
    /// Force a warm start (still falls back cold when no cached matching
    /// exists or divergence is detected).
    Warm,
    /// Force a cold solve.
    Cold,
}

impl ResolveMode {
    /// Parses the wire name (`auto`, `warm`, `cold`).
    pub fn parse(name: &str) -> Option<ResolveMode> {
        match name {
            "auto" => Some(ResolveMode::Auto),
            "warm" => Some(ResolveMode::Warm),
            "cold" => Some(ResolveMode::Cold),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            ResolveMode::Auto => "auto",
            ResolveMode::Warm => "warm",
            ResolveMode::Cold => "cold",
        }
    }
}

/// Why a market operation was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum MarketError {
    /// ε must be positive and finite.
    InvalidEps(f64),
    /// An agent index is out of range for its side.
    UnknownAgent {
        /// The side the index was interpreted on.
        side: Side,
        /// The offending index.
        index: u32,
        /// Current number of agents on that side.
        count: u32,
    },
    /// A preference list references an out-of-range partner index.
    UnknownPartner {
        /// The opposite side.
        side: Side,
        /// The offending partner index.
        index: u32,
        /// Current number of agents on the opposite side.
        count: u32,
    },
    /// A preference list lists the same partner twice.
    DuplicatePartner {
        /// The duplicated partner index.
        index: u32,
    },
    /// The market id is not registered.
    UnknownMarket(String),
    /// The market id is already registered.
    MarketExists(String),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::InvalidEps(eps) => {
                write!(f, "eps must be positive and finite, got {eps}")
            }
            MarketError::UnknownAgent { side, index, count } => {
                write!(f, "no agent {index} on the {side} side ({count} agents)")
            }
            MarketError::UnknownPartner { side, index, count } => write!(
                f,
                "preference list names partner {index}, but the {side} side has {count} agents"
            ),
            MarketError::DuplicatePartner { index } => {
                write!(f, "preference list names partner {index} twice")
            }
            MarketError::UnknownMarket(id) => write!(f, "unknown market `{id}`"),
            MarketError::MarketExists(id) => write!(f, "market `{id}` already exists"),
        }
    }
}

impl std::error::Error for MarketError {}

/// One persistent market: symmetric preference lists on both sides
/// (stored as side indices so agent identities survive arrivals), the
/// matching cached by the last resolve, and the dirty flags the next
/// warm start consumes.
#[derive(Clone, Debug)]
pub struct MarketState {
    eps: f64,
    /// `women[i]` = woman `i`'s ranked men side-indices, best first.
    women: Vec<Vec<u32>>,
    /// `men[j]` = man `j`'s ranked women side-indices, best first.
    men: Vec<Vec<u32>>,
    /// Cached matching of the last resolve: `man_partner[j]` is man
    /// `j`'s woman side-index and his slot of her in `men[j]`.
    /// Side-indexed (not node ids) so arrivals on either side never
    /// shift cached pairs.
    man_partner: Vec<Option<CachedPair>>,
    /// Whether `man_partner` reflects a completed resolve.
    has_matching: bool,
    /// `dirty_men[j]`: man `j`'s list changed since the last resolve.
    dirty_men: Vec<bool>,
    /// `dirty_women[i]`: woman `i`'s list changed since the last resolve.
    dirty_women: Vec<bool>,
    /// Bumped once per applied mutation op.
    epoch: u64,
}

impl MarketState {
    /// Creates a market from an instance snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidEps`] unless `0 < eps < ∞`.
    pub fn from_instance(inst: &Instance, eps: f64) -> Result<Self, MarketError> {
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(MarketError::InvalidEps(eps));
        }
        let ids = inst.ids();
        let women = ids
            .women()
            .map(|w| {
                inst.prefs(w)
                    .ranked()
                    .iter()
                    .map(|&m| ids.side_index(m) as u32)
                    .collect()
            })
            .collect();
        let men = ids
            .men()
            .map(|m| {
                inst.prefs(m)
                    .ranked()
                    .iter()
                    .map(|&w| ids.side_index(w) as u32)
                    .collect()
            })
            .collect();
        Ok(MarketState {
            eps,
            women,
            men,
            man_partner: vec![None; ids.num_men()],
            has_matching: false,
            dirty_men: vec![false; ids.num_men()],
            dirty_women: vec![false; ids.num_women()],
            epoch: 0,
        })
    }

    /// The blocking-pair budget ε this market was created with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of women slots (including removed agents' empty slots).
    pub fn num_women(&self) -> usize {
        self.women.len()
    }

    /// Number of men slots (including removed agents' empty slots).
    pub fn num_men(&self) -> usize {
        self.men.len()
    }

    /// Total agent slots.
    pub fn agents(&self) -> usize {
        self.women.len() + self.men.len()
    }

    /// Mutation epoch: the number of ops applied since creation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(dirty men, dirty women)` pending for the next warm start.
    pub fn dirty_counts(&self) -> (usize, usize) {
        let count = |flags: &[bool]| flags.iter().filter(|&&dirty| dirty).count();
        (count(&self.dirty_men), count(&self.dirty_women))
    }

    /// Whether a cached matching exists to warm-start from.
    pub fn has_matching(&self) -> bool {
        self.has_matching
    }

    /// Total acceptable pairs (Σ men degrees).
    pub fn num_edges(&self) -> usize {
        self.men.iter().map(Vec::len).sum()
    }

    /// Applies one mutation, maintaining preference symmetry and dirty
    /// sets, and bumps the epoch.
    ///
    /// # Errors
    ///
    /// Returns the validation failure without mutating anything.
    pub fn apply(&mut self, op: &MutationOp) -> Result<(), MarketError> {
        match op {
            MutationOp::SetPrefs { side, index, prefs } => {
                self.check_agent(*side, *index)?;
                self.check_prefs(side.opposite_count(self), *side, prefs)?;
                self.set_prefs(*side, *index, prefs.clone());
            }
            MutationOp::AddAgent { side, prefs } => {
                self.check_prefs(side.opposite_count(self), *side, prefs)?;
                let index = match side {
                    Side::Women => {
                        self.women.push(Vec::new());
                        self.dirty_women.push(false);
                        (self.women.len() - 1) as u32
                    }
                    Side::Men => {
                        self.men.push(Vec::new());
                        self.man_partner.push(None);
                        self.dirty_men.push(false);
                        (self.men.len() - 1) as u32
                    }
                };
                self.set_prefs(*side, index, prefs.clone());
            }
            MutationOp::RemoveAgent { side, index } => {
                self.check_agent(*side, *index)?;
                self.set_prefs(*side, *index, Vec::new());
            }
        }
        self.epoch += 1;
        Ok(())
    }

    fn check_agent(&self, side: Side, index: u32) -> Result<(), MarketError> {
        let count = match side {
            Side::Women => self.women.len(),
            Side::Men => self.men.len(),
        } as u32;
        if index >= count {
            return Err(MarketError::UnknownAgent { side, index, count });
        }
        Ok(())
    }

    /// Checks `prefs` against the `opposite` side's agents: the first
    /// entry, in list order, that is out of range or repeats an earlier
    /// one is the error.
    fn check_prefs(&self, opposite: usize, side: Side, prefs: &[u32]) -> Result<(), MarketError> {
        let mut seen = vec![false; opposite];
        for &p in prefs {
            let Some(stamp) = seen.get_mut(p as usize) else {
                return Err(MarketError::UnknownPartner {
                    side: match side {
                        Side::Women => Side::Men,
                        Side::Men => Side::Women,
                    },
                    index: p,
                    count: opposite as u32,
                });
            };
            if std::mem::replace(stamp, true) {
                return Err(MarketError::DuplicatePartner { index: p });
            }
        }
        Ok(())
    }

    /// The symmetric-closure write: installs `prefs` for the agent,
    /// deletes it from dropped partners' lists, appends it (worst rank)
    /// to gained partners' lists, and dirties every touched endpoint.
    ///
    /// One stamp per opposite-side agent tells the lists apart: `OLD` for
    /// a partner on the agent's old list, `NEW` for one on `prefs`.
    fn set_prefs(&mut self, side: Side, index: u32, prefs: Vec<u32>) {
        const OLD: u8 = 1;
        const NEW: u8 = 2;
        let (own, other, dirty_own, dirty_other) = match side {
            Side::Women => (
                &mut self.women,
                &mut self.men,
                &mut self.dirty_women,
                &mut self.dirty_men,
            ),
            Side::Men => (
                &mut self.men,
                &mut self.women,
                &mut self.dirty_men,
                &mut self.dirty_women,
            ),
        };
        let old = &own[index as usize];
        let mut stamp = vec![0u8; other.len()];
        for &p in old {
            stamp[p as usize] |= OLD;
        }
        for &p in &prefs {
            stamp[p as usize] |= NEW;
        }
        for &p in old {
            if stamp[p as usize] == OLD {
                other[p as usize].retain(|&x| x != index);
                dirty_other[p as usize] = true;
            }
        }
        for &p in &prefs {
            if stamp[p as usize] == NEW {
                other[p as usize].push(index);
                dirty_other[p as usize] = true;
            }
        }
        own[index as usize] = prefs;
        dirty_own[index as usize] = true;
    }

    /// Derives one deterministic mutation from `seed` and the current
    /// market shape: mostly single-agent preference edits (reorders,
    /// truncations, new edges), with occasional arrivals and departures.
    ///
    /// A pure function of `(current lists, seed)`, so a client that
    /// mirrors the applied op stream derives the identical next op — the
    /// churn workload and the cross-family property test both rely on
    /// this to replay server-side mutations locally.
    pub fn seeded_op(&self, seed: u64) -> MutationOp {
        let mut rng = SplitMix(seed);
        let kind = rng.below(10);
        let side = if rng.below(2) == 0 {
            Side::Women
        } else {
            Side::Men
        };
        let count = match side {
            Side::Women => self.women.len(),
            Side::Men => self.men.len(),
        };
        let opposite = side.opposite_count(self);
        match kind {
            // Arrival: a newcomer ranking a random sample of the
            // opposite side.
            0 => {
                let want = 1 + rng.below(opposite.clamp(1, 6) as u64) as usize;
                let mut prefs: Vec<u32> = (0..opposite as u32).collect();
                rng.shuffle(&mut prefs);
                prefs.truncate(want.min(opposite));
                MutationOp::AddAgent { side, prefs }
            }
            // Departure (arrival instead when the side is empty).
            1 if count > 0 => MutationOp::RemoveAgent {
                side,
                index: rng.below(count as u64) as u32,
            },
            // Preference edit on one existing agent.
            _ => {
                if count == 0 {
                    return MutationOp::AddAgent {
                        side,
                        prefs: Vec::new(),
                    };
                }
                let index = rng.below(count as u64) as u32;
                let mut prefs = match side {
                    Side::Women => self.women[index as usize].clone(),
                    Side::Men => self.men[index as usize].clone(),
                };
                match rng.below(4) {
                    // Reorder the whole list.
                    0 => rng.shuffle(&mut prefs),
                    // Sever the tail (prefix survives in order).
                    1 => prefs.truncate(prefs.len() / 2),
                    // Swap two ranks.
                    2 if prefs.len() >= 2 => {
                        let a = rng.below(prefs.len() as u64) as usize;
                        let b = rng.below(prefs.len() as u64) as usize;
                        prefs.swap(a, b);
                    }
                    // Grow: insert one currently-unranked partner at a
                    // random rank (no-op when the list is complete).
                    _ => {
                        let have: BTreeSet<u32> = prefs.iter().copied().collect();
                        let missing: Vec<u32> =
                            (0..opposite as u32).filter(|p| !have.contains(p)).collect();
                        if !missing.is_empty() {
                            let p = missing[rng.below(missing.len() as u64) as usize];
                            let at = rng.below(prefs.len() as u64 + 1) as usize;
                            prefs.insert(at, p);
                        }
                    }
                }
                MutationOp::SetPrefs { side, index, prefs }
            }
        }
    }

    /// Materializes the current preferences as an [`Instance`] (women
    /// are node ids `0..num_women`, men `num_women..`).
    ///
    /// Every resolve builds one and drops it: the two side-indexed lists
    /// are the market's only preference state, because keeping the
    /// linked instance (or only its mirror ranks) between resolves would
    /// multiply the memory a market holds.
    pub fn instance(&self) -> Instance {
        let mut builder = InstanceBuilder::new(self.women.len(), self.men.len());
        for (i, list) in self.women.iter().enumerate() {
            builder = builder.woman(i, list.iter().map(|&j| j as usize));
        }
        for (j, list) in self.men.iter().enumerate() {
            builder = builder.man(j, list.iter().map(|&i| i as usize));
        }
        builder
            .build()
            .expect("market state maintains the symmetry invariant")
    }

    /// Resolves the market: re-enters the propose-accept loop warm from
    /// the cached matching (dirtied proposers unmatched, freed or edited
    /// receivers cascaded) or runs a cold solve, caches the resulting
    /// matching, and clears the dirty flags.
    ///
    /// Fallback contract ([`ResolveReport::fallback`] is set whenever a
    /// cached matching was eligible to warm from but cold ran instead):
    /// `Warm`/`Auto` run cold when no cached matching exists (the first
    /// resolve — not a fallback, there is nothing to fall back from);
    /// `Auto` goes cold when the dirty fraction exceeds
    /// [`WARM_DIRTY_LIMIT`]; and any warm result whose blocking-pair
    /// count exceeds the market's `ε·|E|` budget (divergence — the
    /// engine's safety net, not an expected path) is discarded for a
    /// cold re-solve.
    pub fn resolve(&mut self, mode: ResolveMode) -> ResolveReport {
        let inst = self.instance();
        let (dirty_men, dirty_women) = self.dirty_counts();
        let dirty = dirty_men + dirty_women;
        let fraction = dirty as f64 / (self.agents() as f64).max(1.0);
        let try_warm = match mode {
            ResolveMode::Cold => false,
            ResolveMode::Warm => self.has_matching,
            ResolveMode::Auto => self.has_matching && fraction <= WARM_DIRTY_LIMIT,
        };
        let (mut report, next) = if try_warm {
            let warm = engine::resolve_warm(
                &inst,
                self.eps,
                &self.man_partner,
                &self.dirty_men,
                &self.dirty_women,
            );
            match warm {
                Some(resolved) => resolved,
                None => {
                    // Divergence detected: the warm result busted the
                    // ε·|E| budget. Discard it and solve cold.
                    let (mut cold, next) = engine::resolve_cold(&inst);
                    cold.fallback = true;
                    (cold, next)
                }
            }
        } else {
            let (mut cold, next) = engine::resolve_cold(&inst);
            // A fallback is "warm was on the table but we ran cold":
            // explicit cold requests don't count.
            cold.fallback = mode != ResolveMode::Cold && self.has_matching;
            (cold, next)
        };
        report.epoch = self.epoch;
        // The loop leaves a matched man's pointer on his partner: that is
        // his slot of her, which the next warm start reads back.
        let ids = inst.ids();
        for (j, cached) in self.man_partner.iter_mut().enumerate() {
            *cached = report
                .matching
                .partner(ids.man(j))
                .map(|w| (ids.side_index(w) as u32, next[j] as u32));
        }
        self.has_matching = true;
        self.dirty_men.fill(false);
        self.dirty_women.fill(false);
        report
    }
}

/// Minimal splitmix64 stream for [`MarketState::seeded_op`] — the crate
/// takes no RNG dependency, and op derivation must be bit-stable across
/// client and server builds.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Fisher–Yates shuffle.
    fn shuffle(&mut self, xs: &mut [u32]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl Side {
    fn opposite_count(&self, state: &MarketState) -> usize {
        match self {
            Side::Women => state.men.len(),
            Side::Men => state.women.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asm_instance::generators;

    fn market(n: usize, seed: u64) -> MarketState {
        MarketState::from_instance(&generators::regular(n, 3.min(n), seed), 0.5).unwrap()
    }

    #[test]
    fn creation_mirrors_the_instance() {
        let inst = generators::complete(6, 1);
        let state = MarketState::from_instance(&inst, 0.5).unwrap();
        assert_eq!(state.num_women(), 6);
        assert_eq!(state.num_men(), 6);
        assert_eq!(state.num_edges(), inst.num_edges());
        assert_eq!(state.instance(), inst);
        assert_eq!(state.epoch(), 0);
        assert!(!state.has_matching());
    }

    #[test]
    fn bad_eps_is_rejected() {
        let inst = generators::complete(2, 1);
        for eps in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(matches!(
                MarketState::from_instance(&inst, eps),
                Err(MarketError::InvalidEps(_))
            ));
        }
    }

    #[test]
    fn set_prefs_keeps_symmetry_and_dirties_both_endpoints() {
        let mut state = market(8, 3);
        let op = MutationOp::SetPrefs {
            side: Side::Men,
            index: 0,
            prefs: vec![0, 1],
        };
        state.apply(&op).unwrap();
        assert_eq!(state.epoch(), 1);
        let inst = state.instance(); // would panic if symmetry broke
        let ids = inst.ids();
        assert_eq!(inst.degree(ids.man(0)), 2);
        let (dm, dw) = state.dirty_counts();
        assert_eq!(dm, 1, "the edited man is dirty");
        assert!(dw >= 1, "every added/removed partner is dirty");
    }

    #[test]
    fn add_agent_appends_at_worst_rank() {
        let mut state = market(4, 1);
        state
            .apply(&MutationOp::AddAgent {
                side: Side::Men,
                prefs: vec![0, 2],
            })
            .unwrap();
        assert_eq!(state.num_men(), 5);
        let inst = state.instance();
        let ids = inst.ids();
        let newcomer = ids.man(4);
        // The newcomer is each named woman's worst-ranked partner.
        for wi in [0usize, 2] {
            let w = ids.woman(wi);
            assert_eq!(
                inst.prefs(w).ranked().last().copied(),
                Some(newcomer),
                "woman {wi} gained the newcomer at worst rank"
            );
        }
    }

    #[test]
    fn remove_agent_empties_the_slot_but_keeps_indices_stable() {
        let mut state = market(6, 2);
        let before_women = state.num_women();
        state
            .apply(&MutationOp::RemoveAgent {
                side: Side::Women,
                index: 2,
            })
            .unwrap();
        assert_eq!(state.num_women(), before_women, "slot retained");
        let inst = state.instance();
        assert_eq!(inst.degree(inst.ids().woman(2)), 0);
        // No man still lists her.
        for m in inst.ids().men() {
            assert!(inst.rank(m, inst.ids().woman(2)).is_none());
        }
    }

    #[test]
    fn validation_failures_do_not_mutate() {
        let mut state = market(4, 1);
        let snapshot = state.instance();
        let epoch = state.epoch();
        assert!(matches!(
            state.apply(&MutationOp::SetPrefs {
                side: Side::Men,
                index: 99,
                prefs: vec![]
            }),
            Err(MarketError::UnknownAgent { .. })
        ));
        assert!(matches!(
            state.apply(&MutationOp::SetPrefs {
                side: Side::Men,
                index: 0,
                prefs: vec![99]
            }),
            Err(MarketError::UnknownPartner { .. })
        ));
        assert!(matches!(
            state.apply(&MutationOp::SetPrefs {
                side: Side::Men,
                index: 0,
                prefs: vec![1, 1]
            }),
            Err(MarketError::DuplicatePartner { .. })
        ));
        assert_eq!(state.instance(), snapshot);
        assert_eq!(state.epoch(), epoch);
    }

    #[test]
    fn mutation_ops_round_trip_through_serde() {
        let ops = vec![
            MutationOp::SetPrefs {
                side: Side::Women,
                index: 3,
                prefs: vec![2, 0, 1],
            },
            MutationOp::AddAgent {
                side: Side::Men,
                prefs: vec![1],
            },
            MutationOp::RemoveAgent {
                side: Side::Men,
                index: 0,
            },
        ];
        let json = serde_json::to_string(&ops).unwrap();
        let back: Vec<MutationOp> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn seeded_ops_are_deterministic_and_valid() {
        let mut a = market(10, 4);
        let mut b = market(10, 4);
        for seed in 0..200u64 {
            let op_a = a.seeded_op(seed);
            let op_b = b.seeded_op(seed);
            assert_eq!(op_a, op_b, "same state + seed derives the same op");
            a.apply(&op_a).expect("derived ops always validate");
            b.apply(&op_b).unwrap();
        }
        assert_eq!(a.instance(), b.instance(), "mirrored streams converge");
    }

    #[test]
    fn resolve_modes_parse() {
        for name in ["auto", "warm", "cold"] {
            assert_eq!(ResolveMode::parse(name).unwrap().name(), name);
        }
        assert!(ResolveMode::parse("tepid").is_none());
    }
}

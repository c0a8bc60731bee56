//! Preference lists and rank lookup.

use asm_congest::NodeId;
use serde::{Deserialize, Serialize};

/// A player's rank of an acceptable partner.
///
/// Ranks are 1-based as in the paper: `rank == 1` is the most favored
/// partner. Smaller is better.
pub type Rank = u32;

/// One player's preference list: a strict ranking of a subset of the
/// opposite sex.
///
/// Position `i` of the list is its *slot* `i`, which holds the partner of
/// rank `i + 1`. Beside the ranked partners the list keeps its slots
/// ordered by partner id (4 bytes per slot), which
/// [`PreferenceList::rank_of`] searches in `O(log deg)`. Code that walks a
/// list goes by slot and never needs that search.
///
/// Serde reads and writes only the ranked partners (`{"ranked": [...]}`)
/// and refuses a list that ranks a partner twice.
///
/// # Examples
///
/// ```
/// use asm_congest::NodeId;
/// use asm_instance::PreferenceList;
///
/// let prefs = PreferenceList::new(vec![NodeId::new(5), NodeId::new(3), NodeId::new(9)]);
/// assert_eq!(prefs.degree(), 3);
/// assert_eq!(prefs.rank_of(NodeId::new(3)), Some(2));
/// assert_eq!(prefs.slot_of(NodeId::new(3)), Some(1));
/// assert_eq!(prefs.rank_of(NodeId::new(4)), None);
/// assert_eq!(prefs.at_rank(1), Some(NodeId::new(5)));
/// assert!(prefs.prefers(NodeId::new(5), NodeId::new(9)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "RankedList", into = "RankedList")]
pub struct PreferenceList {
    /// Partners in preference order, most favored first.
    ranked: Vec<NodeId>,
    /// The slots of `ranked`, ordered by the partner they hold.
    by_partner: Vec<u32>,
}

impl PreferenceList {
    /// Creates a preference list from partners in order, most favored first.
    ///
    /// # Panics
    ///
    /// Panics if `ranked` contains a duplicate (preferences are strict
    /// orders). Use [`crate::InstanceBuilder`] for error-returning
    /// validation of whole instances.
    pub fn new(ranked: Vec<NodeId>) -> Self {
        match Self::checked(ranked) {
            Ok(list) => list,
            Err(u) => panic!("preference list contains a duplicate entry {u}"),
        }
    }

    /// Sorts the slots by partner, or returns a partner ranked twice.
    fn checked(ranked: Vec<NodeId>) -> Result<Self, NodeId> {
        let mut by_partner: Vec<u32> = (0..ranked.len() as u32).collect();
        by_partner.sort_unstable_by_key(|&s| ranked[s as usize]);
        if let Some(w) = by_partner
            .windows(2)
            .find(|w| ranked[w[0] as usize] == ranked[w[1] as usize])
        {
            return Err(ranked[w[0] as usize]);
        }
        Ok(PreferenceList { ranked, by_partner })
    }

    /// A list whose `by_partner` order the instance linker already built.
    pub(crate) fn linked(ranked: Vec<NodeId>, by_partner: Vec<u32>) -> Self {
        debug_assert_eq!(ranked.len(), by_partner.len());
        PreferenceList { ranked, by_partner }
    }

    /// Creates an empty preference list (an isolated player).
    pub fn empty() -> Self {
        PreferenceList::new(Vec::new())
    }

    /// The number of acceptable partners (`deg v` in the paper).
    pub fn degree(&self) -> usize {
        self.ranked.len()
    }

    /// Whether the player finds no one acceptable.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// Partners in preference order, most favored first: slot `i` holds
    /// the partner of rank `i + 1`.
    pub fn ranked(&self) -> &[NodeId] {
        &self.ranked
    }

    /// The slot holding `u` (its rank minus one), or `None` if
    /// unacceptable.
    pub fn slot_of(&self, u: NodeId) -> Option<usize> {
        self.by_partner
            .binary_search_by_key(&u, |&s| self.ranked[s as usize])
            .ok()
            .map(|i| self.by_partner[i] as usize)
    }

    /// The rank of `u` (`P_v(u)` in the paper), or `None` if unacceptable.
    pub fn rank_of(&self, u: NodeId) -> Option<Rank> {
        self.slot_of(u).map(|s| s as Rank + 1)
    }

    /// Whether `u` appears on this list.
    pub fn contains(&self, u: NodeId) -> bool {
        self.slot_of(u).is_some()
    }

    /// The partner at 1-based `rank`, or `None` if out of range.
    pub fn at_rank(&self, rank: Rank) -> Option<NodeId> {
        if rank == 0 {
            return None;
        }
        self.ranked.get(rank as usize - 1).copied()
    }

    /// Whether this player strictly prefers `a` to `b` (`a ≻ b`).
    ///
    /// Partners absent from the list are treated as rank `∞`; two absent
    /// partners compare as not-preferred.
    pub fn prefers(&self, a: NodeId, b: NodeId) -> bool {
        match (self.rank_of(a), self.rank_of(b)) {
            (Some(ra), Some(rb)) => ra < rb,
            (Some(_), None) => true,
            _ => false,
        }
    }
}

impl FromIterator<NodeId> for PreferenceList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        PreferenceList::new(iter.into_iter().collect())
    }
}

/// The serde form of a [`PreferenceList`]: its ranked partners alone.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RankedList {
    ranked: Vec<NodeId>,
}

impl From<PreferenceList> for RankedList {
    fn from(list: PreferenceList) -> Self {
        RankedList {
            ranked: list.ranked,
        }
    }
}

impl TryFrom<RankedList> for PreferenceList {
    type Error = String;

    fn try_from(raw: RankedList) -> Result<Self, Self::Error> {
        PreferenceList::checked(raw.ranked)
            .map_err(|u| format!("preference list ranks {u} more than once"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId::new(x)).collect()
    }

    #[test]
    fn ranks_are_one_based_in_order() {
        let p = PreferenceList::new(ids(&[10, 20, 30]));
        assert_eq!(p.rank_of(NodeId::new(10)), Some(1));
        assert_eq!(p.rank_of(NodeId::new(20)), Some(2));
        assert_eq!(p.rank_of(NodeId::new(30)), Some(3));
        assert_eq!(p.at_rank(0), None);
        assert_eq!(p.at_rank(2), Some(NodeId::new(20)));
        assert_eq!(p.at_rank(4), None);
    }

    #[test]
    fn slots_are_ranks_minus_one_for_unsorted_lists() {
        let p = PreferenceList::new(ids(&[7, 2, 9, 4]));
        for (slot, &u) in p.ranked().iter().enumerate() {
            assert_eq!(p.slot_of(u), Some(slot));
        }
        for absent in [0, 3, 5, 8, 10] {
            assert_eq!(p.slot_of(NodeId::new(absent)), None);
        }
    }

    #[test]
    fn prefers_handles_missing_partners() {
        let p = PreferenceList::new(ids(&[1, 2]));
        assert!(p.prefers(NodeId::new(1), NodeId::new(2)));
        assert!(!p.prefers(NodeId::new(2), NodeId::new(1)));
        assert!(p.prefers(NodeId::new(2), NodeId::new(99)));
        assert!(!p.prefers(NodeId::new(99), NodeId::new(1)));
        assert!(!p.prefers(NodeId::new(98), NodeId::new(99)));
    }

    #[test]
    fn empty_list() {
        let p = PreferenceList::empty();
        assert!(p.is_empty());
        assert_eq!(p.degree(), 0);
        assert_eq!(p.rank_of(NodeId::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_entry_panics() {
        PreferenceList::new(ids(&[1, 2, 1]));
    }

    #[test]
    fn from_iterator() {
        let p: PreferenceList = ids(&[4, 2]).into_iter().collect();
        assert_eq!(p.ranked(), ids(&[4, 2]).as_slice());
    }

    #[test]
    fn contains_matches_rank_of() {
        let p = PreferenceList::new(ids(&[7]));
        assert!(p.contains(NodeId::new(7)));
        assert!(!p.contains(NodeId::new(8)));
    }

    #[test]
    fn deserialize_refuses_duplicates() {
        let err = serde_json::from_str::<PreferenceList>(r#"{"ranked":[5,3,5]}"#).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn serde_round_trip_keeps_rank_lookup() {
        let p = PreferenceList::new(ids(&[5, 3, 9]));
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, r#"{"ranked":[5,3,9]}"#);
        let back: PreferenceList = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.rank_of(NodeId::new(5)), Some(1));
        assert_eq!(back.rank_of(NodeId::new(3)), Some(2));
        assert_eq!(back.rank_of(NodeId::new(9)), Some(3));
        assert!(!back.contains(NodeId::new(4)));
    }
}

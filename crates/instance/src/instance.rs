//! The stable-marriage problem instance.

use crate::link::{link, Linked};
use crate::{IdSpace, InstanceError, PreferenceList, Rank};
use asm_congest::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// A complete problem instance: two sides of players and their symmetric,
/// possibly incomplete preference lists (Section 2.1 of the paper).
///
/// Invariants, enforced at construction and deserialization:
///
/// * every entry of a preference list is a valid node of the opposite
///   gender, listed at most once;
/// * preferences are **symmetric**: `m` appears on `P_w` iff `w` appears on
///   `P_m` (so the preference structure *is* the communication graph `G`).
///
/// # Layout
///
/// Each list entry is a *slot*: slot `i` of `v`'s list holds the partner
/// `u` of rank `i + 1`. A slot costs 12 bytes in three parallel arrays:
///
/// * the ranked partner `u` ([`PreferenceList::ranked`]);
/// * one entry of the list's partner-sorted slot order, which serves
///   [`Instance::rank`] by binary search;
/// * the **mirror rank** `P_u(v)`, the rank `u` gives `v` back
///   ([`Instance::mirror`]).
///
/// The mirror reaches an edge's far end in `O(1)`: the woman's rank of a
/// man walking his list, or the man's slot of a woman rejecting him. One
/// linking pass builds indexes and mirrors in `O(|E|)` while it validates.
///
/// Use [`crate::InstanceBuilder`] or a generator from [`crate::generators`]
/// to construct instances.
///
/// # Examples
///
/// ```
/// use asm_instance::{generators, Instance};
///
/// let inst = generators::complete(4, 42);
/// assert_eq!(inst.ids().num_players(), 8);
/// assert_eq!(inst.num_edges(), 16); // complete bipartite
/// assert!(inst.is_complete());
/// let m0 = inst.ids().man(0);
/// assert_eq!(inst.prefs(m0).degree(), 4);
///
/// // The mirror of m0's slot i is the rank m0 holds on that woman's list.
/// for (i, &w) in inst.prefs(m0).ranked().iter().enumerate() {
///     assert_eq!(Some(inst.mirror(m0)[i]), inst.rank(w, m0));
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawInstance", into = "RawInstance")]
pub struct Instance {
    ids: IdSpace,
    prefs: Vec<PreferenceList>,
    /// `mirror[v][i]`: the rank `P_u(v)` for the partner `u` in `v`'s slot `i`.
    mirror: Vec<Vec<Rank>>,
    num_edges: usize,
}

impl Instance {
    /// Validates and links ranked lists (node-id order, women first) into
    /// an instance; every constructor ends here.
    pub(crate) fn link(ids: IdSpace, lists: Vec<Vec<NodeId>>) -> Result<Self, InstanceError> {
        let Linked { prefs, mirror } = link(ids, lists)?;
        let num_edges = ids.men().map(|m| prefs[m.index()].degree()).sum::<usize>();
        Ok(Instance {
            ids,
            prefs,
            mirror,
            num_edges,
        })
    }

    /// The id space mapping `(gender, index)` pairs to node ids.
    pub fn ids(&self) -> &IdSpace {
        &self.ids
    }

    /// The preference list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn prefs(&self, v: NodeId) -> &PreferenceList {
        &self.prefs[v.index()]
    }

    /// Degree of `v` in the communication graph (= length of its list).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        self.prefs[v.index()].degree()
    }

    /// Rank of `u` on `v`'s list (`P_v(u)`), or `None` if unacceptable.
    pub fn rank(&self, v: NodeId, u: NodeId) -> Option<Rank> {
        self.prefs[v.index()].rank_of(u)
    }

    /// The mirror ranks of `v`'s list: entry `i` is `P_u(v)`, the rank
    /// that the partner `u` in `v`'s slot `i` gives `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn mirror(&self, v: NodeId) -> &[Rank] {
        &self.mirror[v.index()]
    }

    /// Number of edges `|E|` of the communication graph — the denominator
    /// of Definition 1's instability measure.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether every player ranks every member of the opposite sex.
    pub fn is_complete(&self) -> bool {
        self.ids
            .women()
            .all(|w| self.degree(w) == self.ids.num_men())
            && self
                .ids
                .men()
                .all(|m| self.degree(m) == self.ids.num_women())
    }

    /// Builds the CONGEST communication graph `G = (V, E)` of Section 2.1.
    pub fn topology(&self) -> Topology {
        let edges = self.ids.men().flat_map(|m| {
            self.prefs[m.index()]
                .ranked()
                .iter()
                .map(move |&w| (m.raw(), w.raw()))
        });
        Topology::from_edges(self.ids.num_players(), edges)
            .expect("validated instance produces a valid topology")
    }

    /// Minimum and maximum degree over the men, or `None` if there are no
    /// men. Used for the α-almost-regularity measure of Section 5.2.
    pub fn men_degree_bounds(&self) -> Option<(usize, usize)> {
        let mut it = self.ids.men().map(|m| self.degree(m));
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for d in it {
            lo = lo.min(d);
            hi = hi.max(d);
        }
        Some((lo, hi))
    }

    /// The α-almost-regularity of the men's preferences: `max_m deg m /
    /// min_m deg m` (Section 5.2). Returns `f64::INFINITY` if some man has
    /// an empty list and another does not, and 1.0 for an instance with no
    /// men or all-empty lists.
    pub fn alpha(&self) -> f64 {
        match self.men_degree_bounds() {
            None | Some((0, 0)) => 1.0,
            Some((0, _)) => f64::INFINITY,
            Some((lo, hi)) => hi as f64 / lo as f64,
        }
    }

    /// Iterates over all edges as `(man, woman)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ids
            .men()
            .flat_map(move |m| self.prefs[m.index()].ranked().iter().map(move |&w| (m, w)))
    }

    /// Produces the gender-swapped instance: every man becomes a woman and
    /// vice versa, preserving all rankings.
    ///
    /// The node-id convention (women first) means ids are *relabeled*:
    /// the `j`-th man becomes the `j`-th woman of the new instance and the
    /// `i`-th woman becomes its `i`-th man. Use [`Instance::swap_node`] to
    /// translate ids between the two instances. Swapping lets any
    /// man-proposing algorithm run in its woman-proposing form (e.g. the
    /// woman-optimal Gale–Shapley).
    ///
    /// # Examples
    ///
    /// ```
    /// use asm_instance::generators;
    ///
    /// let inst = generators::erdos_renyi(5, 7, 0.5, 1);
    /// let swapped = inst.swap_genders();
    /// assert_eq!(swapped.ids().num_women(), 7);
    /// assert_eq!(swapped.ids().num_men(), 5);
    /// assert_eq!(swapped.num_edges(), inst.num_edges());
    /// assert_eq!(swapped.swap_genders(), inst); // involution
    /// ```
    pub fn swap_genders(&self) -> Instance {
        let ids = self.ids;
        let new_ids = IdSpace::new(ids.num_men(), ids.num_women());
        // New women = old men (in order), then new men = old women.
        let lists = ids
            .men()
            .chain(ids.women())
            .map(|v| {
                self.prefs[v.index()]
                    .ranked()
                    .iter()
                    .map(|&u| self.swap_node(u))
                    .collect()
            })
            .collect();
        Instance::link(new_ids, lists).expect("swapping preserves validity")
    }

    /// Translates a node id of this instance into the corresponding id in
    /// [`Instance::swap_genders`]'s output. (Applying the swapped
    /// instance's `swap_node` undoes the translation.)
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn swap_node(&self, v: NodeId) -> NodeId {
        let ids = self.ids;
        if ids.is_woman(v) {
            // i-th woman -> i-th man of the swapped instance.
            NodeId::new((ids.num_men() + v.index()) as u32)
        } else {
            // j-th man -> j-th woman of the swapped instance.
            NodeId::new(ids.side_index(v) as u32)
        }
    }
}

/// Serde-facing representation (side-indexed raw lists); conversion back to
/// [`Instance`] revalidates all invariants.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RawInstance {
    /// Number of women.
    pub num_women: usize,
    /// Number of men.
    pub num_men: usize,
    /// Per-player ranked partner ids, node-id order (women first).
    pub prefs: Vec<Vec<u32>>,
}

impl From<Instance> for RawInstance {
    fn from(inst: Instance) -> Self {
        RawInstance {
            num_women: inst.ids.num_women(),
            num_men: inst.ids.num_men(),
            prefs: inst
                .prefs
                .iter()
                .map(|p| p.ranked().iter().map(|id| id.raw()).collect())
                .collect(),
        }
    }
}

impl TryFrom<RawInstance> for Instance {
    type Error = InstanceError;

    fn try_from(raw: RawInstance) -> Result<Self, Self::Error> {
        let ids = IdSpace::new(raw.num_women, raw.num_men);
        let lists = raw
            .prefs
            .into_iter()
            .map(|list| list.into_iter().map(NodeId::new).collect())
            .collect();
        Instance::link(ids, lists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceBuilder;

    fn tiny() -> Instance {
        // 2 women, 2 men, complete.
        InstanceBuilder::new(2, 2)
            .woman(0, [0, 1])
            .woman(1, [1, 0])
            .man(0, [0, 1])
            .man(1, [1, 0])
            .build()
            .unwrap()
    }

    #[test]
    fn edge_count_and_degrees() {
        let inst = tiny();
        assert_eq!(inst.num_edges(), 4);
        assert!(inst.is_complete());
        for v in inst.ids().players() {
            assert_eq!(inst.degree(v), 2);
        }
    }

    #[test]
    fn rank_lookup() {
        let inst = tiny();
        let (w0, w1) = (inst.ids().woman(0), inst.ids().woman(1));
        let m0 = inst.ids().man(0);
        assert_eq!(inst.rank(m0, w0), Some(1));
        assert_eq!(inst.rank(m0, w1), Some(2));
        assert_eq!(inst.rank(w1, m0), Some(2));
    }

    #[test]
    fn topology_matches_lists() {
        let inst = tiny();
        let topo = inst.topology();
        assert_eq!(topo.num_edges(), 4);
        assert!(topo.has_edge(inst.ids().man(0), inst.ids().woman(1)));
    }

    #[test]
    fn symmetry_violation_detected() {
        let err = InstanceBuilder::new(1, 1).man(0, [0]).build().unwrap_err();
        assert!(matches!(err, InstanceError::AsymmetricPreference { .. }));
    }

    #[test]
    fn alpha_of_regular_is_one() {
        let inst = tiny();
        assert_eq!(inst.alpha(), 1.0);
        assert_eq!(inst.men_degree_bounds(), Some((2, 2)));
    }

    #[test]
    fn alpha_with_isolated_man_is_infinite() {
        let inst = InstanceBuilder::new(1, 2)
            .woman(0, [0])
            .man(0, [0])
            .build()
            .unwrap();
        assert_eq!(inst.alpha(), f64::INFINITY);
    }

    #[test]
    fn alpha_of_empty_instance_is_one() {
        let inst = InstanceBuilder::new(0, 0).build().unwrap();
        assert_eq!(inst.alpha(), 1.0);
        assert_eq!(inst.men_degree_bounds(), None);
    }

    #[test]
    fn edges_iterates_man_woman_pairs() {
        let inst = tiny();
        let edges: Vec<_> = inst.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges
            .iter()
            .all(|&(m, w)| inst.ids().is_man(m) && inst.ids().is_woman(w)));
    }

    #[test]
    fn swap_genders_round_trips_ranks() {
        let inst = tiny();
        let sw = inst.swap_genders();
        for (m, w) in inst.edges() {
            let (m2, w2) = (inst.swap_node(m), inst.swap_node(w));
            // m became a woman, w became a man; ranks are preserved.
            assert_eq!(inst.rank(m, w), sw.rank(m2, w2));
            assert_eq!(inst.rank(w, m), sw.rank(w2, m2));
        }
        assert_eq!(sw.swap_genders(), inst);
    }

    #[test]
    fn swap_node_maps_sides() {
        let inst = InstanceBuilder::new(2, 3).build().unwrap();
        let ids = inst.ids();
        // woman 1 (id 1) -> man 1 of a (3,2) instance => id 3 + 1 = 4.
        assert_eq!(inst.swap_node(ids.woman(1)).index(), 4);
        // man 2 (id 4) -> woman 2 => id 2.
        assert_eq!(inst.swap_node(ids.man(2)).index(), 2);
    }

    #[test]
    fn serde_round_trip_preserves_instance() {
        let inst = tiny();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
        // Rank index must survive the round trip.
        let m0 = back.ids().man(0);
        assert_eq!(back.rank(m0, back.ids().woman(1)), Some(2));
    }

    #[test]
    fn deserialize_rejects_asymmetric() {
        let raw = RawInstance {
            num_women: 1,
            num_men: 1,
            prefs: vec![vec![], vec![0]],
        };
        assert!(Instance::try_from(raw).is_err());
    }

    #[test]
    fn deserialize_rejects_duplicates_without_panicking() {
        let raw = RawInstance {
            num_women: 1,
            num_men: 1,
            prefs: vec![vec![1, 1], vec![0]],
        };
        assert!(matches!(
            Instance::try_from(raw),
            Err(InstanceError::DuplicatePartner { .. })
        ));
    }
}

//! The matching data structure.

use crate::MatchingError;
use asm_congest::NodeId;
use serde::{Deserialize, Serialize};

/// A matching: a set of disjoint pairs over nodes `0..n`.
///
/// Stored as a partner table so partner lookup is `O(1)`. The structure is
/// graph-agnostic — whether the pairs are edges of a particular instance is
/// checked separately by [`crate::verify_matching`].
///
/// # Examples
///
/// ```
/// use asm_congest::NodeId;
/// use asm_matching::Matching;
///
/// let mut m = Matching::new(4);
/// m.add_pair(NodeId::new(0), NodeId::new(2))?;
/// assert_eq!(m.partner(NodeId::new(2)), Some(NodeId::new(0)));
/// assert_eq!(m.partner(NodeId::new(1)), None);
/// assert_eq!(m.len(), 1);
/// # Ok::<(), asm_matching::MatchingError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Matching {
    partner: Vec<Option<NodeId>>,
}

impl Matching {
    /// Creates an empty matching over `n` nodes.
    pub fn new(n: usize) -> Self {
        Matching {
            partner: vec![None; n],
        }
    }

    /// Number of nodes this matching ranges over.
    pub fn num_nodes(&self) -> usize {
        self.partner.len()
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.partner.iter().flatten().count() / 2
    }

    /// Whether no pair is matched.
    pub fn is_empty(&self) -> bool {
        self.partner.iter().all(Option::is_none)
    }

    /// The partner of `v`, or `None` if unmatched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn partner(&self, v: NodeId) -> Option<NodeId> {
        self.partner[v.index()]
    }

    /// Whether `v` is matched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_matched(&self, v: NodeId) -> bool {
        self.partner(v).is_some()
    }

    /// Whether the pair `{u, v}` is in the matching.
    pub fn contains_pair(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.partner.len() && self.partner[u.index()] == Some(v)
    }

    /// Adds the pair `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error if `u == v`, either node is out of range, or either
    /// node is already matched.
    pub fn add_pair(&mut self, u: NodeId, v: NodeId) -> Result<(), MatchingError> {
        if u == v {
            return Err(MatchingError::SelfPair { node: u });
        }
        for id in [u, v] {
            if id.index() >= self.partner.len() {
                return Err(MatchingError::OutOfRange {
                    node: id,
                    nodes: self.partner.len(),
                });
            }
        }
        for id in [u, v] {
            if self.partner[id.index()].is_some() {
                return Err(MatchingError::AlreadyMatched { node: id });
            }
        }
        self.partner[u.index()] = Some(v);
        self.partner[v.index()] = Some(u);
        Ok(())
    }

    /// Removes the pair containing `v`, returning the former partner.
    ///
    /// Returns `None` (and changes nothing) if `v` was unmatched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn remove(&mut self, v: NodeId) -> Option<NodeId> {
        let p = self.partner[v.index()].take()?;
        self.partner[p.index()] = None;
        Some(p)
    }

    /// Replaces `v`'s pair: removes any pair containing `v` or `u`, then
    /// matches `{u, v}`.
    ///
    /// This is the "woman upgrades her partner" operation of the proposal
    /// algorithms. Returns the displaced partners `(old of v, old of u)`.
    ///
    /// # Errors
    ///
    /// Returns an error on self-pairs or out-of-range ids.
    pub fn rematch(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<(Option<NodeId>, Option<NodeId>), MatchingError> {
        if u == v {
            return Err(MatchingError::SelfPair { node: u });
        }
        for id in [u, v] {
            if id.index() >= self.partner.len() {
                return Err(MatchingError::OutOfRange {
                    node: id,
                    nodes: self.partner.len(),
                });
            }
        }
        let old_v = self.remove(v);
        let old_u = self.remove(u);
        self.add_pair(u, v).expect("both endpoints freed above");
        Ok((old_v, old_u))
    }

    /// Iterates over matched pairs, each once, with the smaller id first.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.partner.iter().enumerate().filter_map(|(i, p)| {
            let u = NodeId::new(i as u32);
            p.filter(|&v| u < v).map(|v| (u, v))
        })
    }
}

impl FromIterator<(NodeId, NodeId)> for Matching {
    /// Collects pairs into a matching sized to the largest id seen.
    ///
    /// # Panics
    ///
    /// Panics if the pairs do not form a matching (duplicate endpoints).
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        let pairs: Vec<(NodeId, NodeId)> = iter.into_iter().collect();
        let n = pairs
            .iter()
            .map(|&(u, v)| u.index().max(v.index()) + 1)
            .max()
            .unwrap_or(0);
        let mut m = Matching::new(n);
        for (u, v) in pairs {
            m.add_pair(u, v).expect("pairs must be disjoint");
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn add_and_remove() {
        let mut m = Matching::new(4);
        m.add_pair(id(0), id(1)).unwrap();
        assert!(m.contains_pair(id(0), id(1)));
        assert!(m.contains_pair(id(1), id(0)));
        assert_eq!(m.remove(id(0)), Some(id(1)));
        assert!(m.is_empty());
        assert_eq!(m.remove(id(0)), None);
    }

    #[test]
    fn double_match_rejected() {
        let mut m = Matching::new(4);
        m.add_pair(id(0), id(1)).unwrap();
        let err = m.add_pair(id(1), id(2)).unwrap_err();
        assert!(matches!(err, MatchingError::AlreadyMatched { node } if node == id(1)));
    }

    #[test]
    fn self_pair_rejected() {
        let mut m = Matching::new(4);
        assert!(matches!(
            m.add_pair(id(2), id(2)),
            Err(MatchingError::SelfPair { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Matching::new(2);
        assert!(matches!(
            m.add_pair(id(0), id(5)),
            Err(MatchingError::OutOfRange { .. })
        ));
    }

    #[test]
    fn rematch_displaces_both_sides() {
        let mut m = Matching::new(6);
        m.add_pair(id(0), id(1)).unwrap();
        m.add_pair(id(2), id(3)).unwrap();
        let (old_v, old_u) = m.rematch(id(0), id(3)).unwrap();
        assert_eq!(old_v, Some(id(2)));
        assert_eq!(old_u, Some(id(1)));
        assert!(m.contains_pair(id(0), id(3)));
        assert!(!m.is_matched(id(1)));
        assert!(!m.is_matched(id(2)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn pairs_reported_once() {
        let mut m = Matching::new(6);
        m.add_pair(id(4), id(1)).unwrap();
        m.add_pair(id(0), id(5)).unwrap();
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(id(0), id(5)), (id(1), id(4))]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn from_iterator_builds_matching() {
        let m: Matching = vec![(id(0), id(3)), (id(1), id(2))].into_iter().collect();
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn from_iterator_panics_on_overlap() {
        let _: Matching = vec![(id(0), id(1)), (id(1), id(2))].into_iter().collect();
    }

    #[test]
    fn serde_round_trip() {
        let mut m = Matching::new(3);
        m.add_pair(id(0), id(2)).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matching = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}

//! Ergonomic construction of instances.

use crate::{IdSpace, Instance, InstanceError};
use asm_congest::NodeId;

/// Builder for [`Instance`]s using side-relative indices.
///
/// Preference lists are given as *side indices* (the `i`-th woman, the
/// `j`-th man), which is how instances are usually written down; the builder
/// translates to node ids and [`InstanceBuilder::build`] validates all
/// invariants (including symmetry).
///
/// # Examples
///
/// ```
/// use asm_instance::InstanceBuilder;
///
/// // The 2x2 instance with a unique stable matching {(m0,w0), (m1,w1)}.
/// let inst = InstanceBuilder::new(2, 2)
///     .woman(0, [0, 1]) // w0 ranks m0 over m1
///     .woman(1, [0, 1])
///     .man(0, [0, 1])   // m0 ranks w0 over w1
///     .man(1, [0, 1])
///     .build()?;
/// assert_eq!(inst.num_edges(), 4);
/// # Ok::<(), asm_instance::InstanceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct InstanceBuilder {
    ids: IdSpace,
    prefs: Vec<Vec<NodeId>>,
}

impl InstanceBuilder {
    /// Starts an instance with the given side sizes and empty lists.
    pub fn new(num_women: usize, num_men: usize) -> Self {
        let ids = IdSpace::new(num_women, num_men);
        InstanceBuilder {
            ids,
            prefs: vec![Vec::new(); ids.num_players()],
        }
    }

    /// Sets the `i`-th woman's preference list as man side-indices, most
    /// favored first.
    ///
    /// # Panics
    ///
    /// Panics if `i` or any man index is out of range (use side sizes from
    /// [`InstanceBuilder::new`]); invalid *structure* (asymmetry,
    /// duplicates) is reported by [`InstanceBuilder::build`] instead.
    pub fn woman<I>(mut self, i: usize, men: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let list = node_ids(men, self.ids.num_women(), self.ids.num_men(), "man");
        self.prefs[self.ids.woman(i).index()] = list;
        self
    }

    /// Sets the `j`-th man's preference list as woman side-indices, most
    /// favored first.
    ///
    /// # Panics
    ///
    /// Panics if `j` or any woman index is out of range.
    pub fn man<I>(mut self, j: usize, women: I) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let list = node_ids(women, 0, self.ids.num_women(), "woman");
        self.prefs[self.ids.man(j).index()] = list;
        self
    }

    /// Sets a player's list directly by node ids.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn player<I>(mut self, v: NodeId, partners: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        assert!(
            v.index() < self.ids.num_players(),
            "player {v} out of range"
        );
        self.prefs[v.index()] = partners.into_iter().collect();
        self
    }

    /// Validates and produces the instance.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`InstanceError`].
    pub fn build(self) -> Result<Instance, InstanceError> {
        Instance::link(self.ids, self.prefs)
    }
}

/// Translates side indices of a side with `count` players whose node ids
/// start at `offset`. One range check covers the whole list, so the copy
/// itself carries no branch.
///
/// # Panics
///
/// Panics if any index is `count` or more.
fn node_ids<I>(indices: I, offset: usize, count: usize, side: &str) -> Vec<NodeId>
where
    I: IntoIterator<Item = usize>,
{
    let mut top = 0;
    let list: Vec<NodeId> = indices
        .into_iter()
        .map(|x| {
            top = top.max(x);
            NodeId::new(offset.wrapping_add(x) as u32)
        })
        .collect();
    assert!(
        list.is_empty() || top < count,
        "{side} index {top} out of range"
    );
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_symmetric_instance() {
        let inst = InstanceBuilder::new(1, 1)
            .woman(0, [0])
            .man(0, [0])
            .build()
            .unwrap();
        assert_eq!(inst.num_edges(), 1);
    }

    #[test]
    fn detects_duplicates_as_error() {
        let err = InstanceBuilder::new(1, 2)
            .woman(0, [0, 1, 0])
            .man(0, [0])
            .man(1, [0])
            .build()
            .unwrap_err();
        assert!(matches!(err, InstanceError::DuplicatePartner { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_side_index_panics() {
        let _ = InstanceBuilder::new(1, 1).woman(0, [5]);
    }

    #[test]
    fn player_method_sets_by_node_id() {
        let ids = IdSpace::new(1, 1);
        let inst = InstanceBuilder::new(1, 1)
            .player(ids.woman(0), [ids.man(0)])
            .player(ids.man(0), [ids.woman(0)])
            .build()
            .unwrap();
        assert_eq!(inst.degree(ids.man(0)), 1);
    }

    #[test]
    fn empty_lists_allowed() {
        let inst = InstanceBuilder::new(2, 2).build().unwrap();
        assert_eq!(inst.num_edges(), 0);
        assert!(!inst.is_complete());
    }
}

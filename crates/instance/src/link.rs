//! The instance linker: validates ranked lists and links every edge to
//! both of its ends in `O(|E|)`.
//!
//! Every [`crate::Instance`] constructor hands its ranked lists to
//! [`link`], which makes three passes and sorts nothing:
//!
//! 1. **Transposition sweep.** Players `v` in id order, each list in rank
//!    order: every hit on `u` (`v` ranking `u`) appends `v` to `index[u]`.
//!    So `index[u]` lists the players ranking `u` in increasing id order.
//! 2. **Stamped per-player pass.** For each `u`, stamping `u`'s partners
//!    with their slots checks duplicates, range and gender. It then
//!    rewrites `index[u]` from players to the slots where `u` ranks them.
//!    That is `u`'s partner-sorted index. A hit from a player `u` does not
//!    rank back becomes [`UNRANKED`].
//! 3. **Mirror sweep.** The same order as sweep 1, so the `k`-th hit on `u`
//!    is `index[u][k]`: when `v` ranks `u` at slot `i`, `mirror[v][i]` is
//!    that slot plus one, `P_u(v)`. The first [`UNRANKED`] the sweep reads
//!    is the first asymmetric entry in `(player, slot)` order.
//!
//! Errors keep one precedence: a duplicate in any list, then a wrong list
//! count, then the first out-of-range or same-gender entry, then the first
//! asymmetric entry, each "first" in `(player, slot)` order. A duplicate
//! reports the smallest id its list repeats.

use crate::{IdSpace, InstanceError, PreferenceList, Rank};
use asm_congest::NodeId;
use std::collections::HashSet;

/// An `index` entry for a player who ranks `u` while `u` does not rank
/// them back.
const UNRANKED: u32 = u32::MAX;

/// The validated lists with their partner-sorted indexes, and the mirror
/// ranks: `mirror[v][i]` is `P_u(v)` for the partner `u` in `v`'s slot `i`.
pub(crate) struct Linked {
    pub(crate) prefs: Vec<PreferenceList>,
    pub(crate) mirror: Vec<Vec<Rank>>,
}

/// Validates `lists` (node-id order, women first) against `ids` and links
/// them.
///
/// # Errors
///
/// The first violated invariant, in the precedence of the module docs.
pub(crate) fn link(ids: IdSpace, lists: Vec<Vec<NodeId>>) -> Result<Linked, InstanceError> {
    let n = ids.num_players();
    let mut stamps = Stamps::new(n);
    if lists.len() != n {
        for (v, list) in lists.iter().enumerate() {
            if let Some(partner) = stamps.stamp(v, list) {
                return Err(InstanceError::DuplicatePartner {
                    player: NodeId::new(v as u32),
                    partner,
                });
            }
        }
        return Err(InstanceError::WrongListCount {
            got: lists.len(),
            expected: n,
        });
    }

    // Sweep 1: index[u] collects the players ranking u, in id order.
    let mut index: Vec<Vec<u32>> = lists.iter().map(|l| Vec::with_capacity(l.len())).collect();
    for (v, list) in lists.iter().enumerate() {
        for &u in list {
            if let Some(hits) = index.get_mut(u.index()) {
                hits.push(v as u32);
            }
        }
    }

    // The stamped per-player pass.
    let mut invalid: Option<InstanceError> = None;
    for (u, list) in lists.iter().enumerate() {
        let player = NodeId::new(u as u32);
        if let Some(partner) = stamps.stamp(u, list) {
            return Err(InstanceError::DuplicatePartner { player, partner });
        }
        if invalid.is_some() {
            continue; // only a later duplicate can outrank it
        }
        invalid = list.iter().find_map(|&partner| {
            if partner.index() >= n {
                Some(InstanceError::PartnerOutOfRange { player, partner })
            } else if ids.gender(partner) == ids.gender(player) {
                Some(InstanceError::SameGenderPartner { player, partner })
            } else {
                None
            }
        });
        for hit in &mut index[u] {
            *hit = stamps.slot(u, *hit as usize).unwrap_or(UNRANKED);
        }
    }
    if let Some(e) = invalid {
        return Err(e);
    }

    // Sweep 2: replays sweep 1, reading the k-th hit on u as index[u][k].
    let mut cursor = vec![0usize; n];
    let mut mirror: Vec<Vec<Rank>> = Vec::with_capacity(n);
    for (v, list) in lists.iter().enumerate() {
        let mut ranks = Vec::with_capacity(list.len());
        for &u in list {
            let k = &mut cursor[u.index()];
            let slot = index[u.index()][*k];
            *k += 1;
            if slot == UNRANKED {
                return Err(InstanceError::AsymmetricPreference {
                    player: NodeId::new(v as u32),
                    partner: u,
                });
            }
            ranks.push(slot + 1);
        }
        mirror.push(ranks);
    }

    let prefs = lists
        .into_iter()
        .zip(index)
        .map(|(ranked, by_partner)| PreferenceList::linked(ranked, by_partner))
        .collect();
    Ok(Linked { prefs, mirror })
}

/// Per-partner stamps: `tag[w] == v + 1` iff `w` is on the list stamped
/// last for `v`, at slot `slot[w]`.
struct Stamps {
    tag: Vec<u32>,
    slot: Vec<u32>,
}

impl Stamps {
    fn new(n: usize) -> Self {
        Stamps {
            tag: vec![0; n],
            slot: vec![0; n],
        }
    }

    /// Stamps `v`'s list and returns the smallest id it ranks twice.
    /// Out-of-range ids have no stamp; an invalid list compares those in
    /// a set.
    fn stamp(&mut self, v: usize, list: &[NodeId]) -> Option<NodeId> {
        let tag = v as u32 + 1;
        let mut repeated: Option<NodeId> = None;
        let mut far: Vec<NodeId> = Vec::new();
        for (i, &w) in list.iter().enumerate() {
            match self.tag.get_mut(w.index()) {
                Some(t) if *t == tag => repeated = Some(repeated.map_or(w, |r| r.min(w))),
                Some(t) => {
                    *t = tag;
                    self.slot[w.index()] = i as u32;
                }
                None => far.push(w),
            }
        }
        if repeated.is_some() || far.is_empty() {
            return repeated; // every in-range id is smaller than a far one
        }
        let mut seen = HashSet::new();
        far.into_iter().filter(|&w| !seen.insert(w)).min()
    }

    /// The slot of `w` on the list stamped last for `v`, if `w` is on it.
    fn slot(&self, v: usize, w: usize) -> Option<u32> {
        (self.tag[w] == v as u32 + 1).then(|| self.slot[w])
    }
}

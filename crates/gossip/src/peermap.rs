//! A dense map keyed by [`Peer`]: slot `p` holds peer `Peer(p)`.
//!
//! Every per-peer table in this crate — a gossiper's endpoint view and a
//! failure detector's monitors — is keyed by cluster node ids, which the
//! simulator hands out densely from zero. Indexing a `Vec` by `Peer.0`
//! turns each lookup into one bounds check instead of an ordered-tree
//! descent, and the syn/ack handlers do O(N) such lookups per message.
//!
//! Iteration walks slots in ascending index order, which is ascending
//! `Peer` order — exactly the order a `BTreeMap<Peer, _>` iterates in.
//! SYN digest order, the gossip-candidate walk behind each RNG pick and
//! conviction order are therefore unchanged by the switch. The
//! differential proptest in `tests/proptests.rs` pins contents and
//! order against a `BTreeMap` oracle.
//!
//! Memory is O(largest id ever present), not O(entries): the map is
//! meant for dense id spaces. Trailing empty slots are trimmed on
//! removal so iteration stays O(largest live id).

use crate::state::Peer;

/// A map from [`Peer`] to `V`, stored densely by peer index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for PeerMap<V> {
    fn default() -> Self {
        PeerMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> PeerMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of peers present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no peer is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `peer`, if present.
    pub fn get(&self, peer: Peer) -> Option<&V> {
        self.slots.get(peer.0 as usize)?.as_ref()
    }

    /// Mutable access to the value for `peer`, if present.
    pub fn get_mut(&mut self, peer: Peer) -> Option<&mut V> {
        self.slots.get_mut(peer.0 as usize)?.as_mut()
    }

    /// Whether `peer` is present.
    pub fn contains_key(&self, peer: Peer) -> bool {
        self.get(peer).is_some()
    }

    /// Inserts `value` for `peer`, returning the value it replaced.
    pub fn insert(&mut self, peer: Peer, value: V) -> Option<V> {
        let old = self.slot(peer).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value for `peer`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, peer: Peer, make: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(peer) {
            self.len += 1;
        }
        self.slot(peer).get_or_insert_with(make)
    }

    /// Removes `peer`, returning its value if it was present.
    pub fn remove(&mut self, peer: Peer) -> Option<V> {
        let old = self.slots.get_mut(peer.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
            while matches!(self.slots.last(), Some(None)) {
                self.slots.pop();
            }
        }
        old
    }

    /// Removes every peer, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// `(peer, value)` pairs in ascending peer order.
    pub fn iter(&self) -> impl Iterator<Item = (Peer, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (Peer(i as u32), v)))
    }

    /// `(peer, value)` pairs in ascending peer order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Peer, &mut V)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (Peer(i as u32), v)))
    }

    /// Present peers in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = Peer> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// The slot for `peer`, growing the table to reach it.
    fn slot(&mut self, peer: Peer) -> &mut Option<V> {
        let i = peer.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_track_len() {
        let mut m = PeerMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(Peer(3), "c"), None);
        assert_eq!(m.insert(Peer(1), "a"), None);
        assert_eq!(m.insert(Peer(3), "C"), Some("c"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(Peer(3)), Some(&"C"));
        assert_eq!(m.get(Peer(2)), None);
        assert_eq!(m.get(Peer(99)), None);
        assert!(m.contains_key(Peer(1)));
        assert_eq!(m.remove(Peer(2)), None);
        assert_eq!(m.remove(Peer(99)), None);
        assert_eq!(m.remove(Peer(3)), Some("C"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.slots.len(), 2, "trailing empty slots are trimmed");
    }

    #[test]
    fn iterates_in_ascending_peer_order() {
        let mut m = PeerMap::new();
        for p in [5, 0, 9, 2] {
            m.insert(Peer(p), p * 10);
        }
        let got: Vec<(Peer, u32)> = m.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(
            got,
            vec![(Peer(0), 0), (Peer(2), 20), (Peer(5), 50), (Peer(9), 90)]
        );
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        assert_eq!(m.keys().collect::<Vec<_>>(), [0, 2, 5, 9].map(Peer));
        assert_eq!(m.get(Peer(9)), Some(&91));
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m = PeerMap::new();
        *m.get_or_insert_with(Peer(4), || 1) += 1;
        *m.get_or_insert_with(Peer(4), || 100) += 1;
        assert_eq!(m.get(Peer(4)), Some(&3));
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(Peer(4)), None);
    }
}

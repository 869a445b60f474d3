//! One simulated cluster node: gossiper + failure detector + local ring
//! view + SEDA-like stages.
//!
//! The engine-agnostic protocol logic lives here (applying gossip
//! outcomes to the ring view, deriving the outstanding change list,
//! message keys for order determinism); the event orchestration lives in
//! [`crate::runner`].

use std::collections::BTreeMap;

use scalecheck_gossip::{Ack, Ack2, ApplyOutcome, FailureDetector, Gossiper, Syn};
use scalecheck_memo::Hasher128;
use scalecheck_ring::{NodeId, NodeStatus, PendingRanges, RingTable, TopologyChange};
use scalecheck_sim::{cpu::MachineId, DetRng, SimDuration, SimTime, Stage, TimerId};

use crate::ringinfo::{peer_of, RingInfo};

/// A gossip message on the wire.
#[derive(Clone, Debug)]
pub enum GossipMessage {
    /// Digest offer.
    Syn(Syn),
    /// Deltas + requests.
    Ack(Ack<RingInfo>),
    /// Requested deltas.
    Ack2(Ack2<RingInfo>),
}

impl GossipMessage {
    /// Message kind tag (for order keys and demand sizing).
    pub fn kind(&self) -> u8 {
        match self {
            GossipMessage::Syn(_) => 0,
            GossipMessage::Ack(_) => 1,
            GossipMessage::Ack2(_) => 2,
        }
    }

    /// Number of endpoint entries carried (sizes the processing cost).
    pub fn entries(&self) -> usize {
        match self {
            GossipMessage::Syn(s) => s.digests.len(),
            GossipMessage::Ack(a) => a.deltas.len() + a.requests.len(),
            GossipMessage::Ack2(a) => a.deltas.len(),
        }
    }
}

/// A routed gossip message with its order-determinism key.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Stable key `(src, dst, kind, per-link seq)` for order recording
    /// and enforcement.
    pub key: u64,
    /// Payload.
    pub msg: GossipMessage,
}

/// Work items on a node's stages.
#[derive(Clone, Debug)]
pub enum Task {
    /// Periodic gossip round: beat + SYN to a random live peer.
    SendRound,
    /// Process an incoming gossip message.
    Receive(Envelope),
    /// Run the pending-range calculation.
    Recalculate,
}

/// What applying a gossip outcome changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewChanges {
    /// The ring view changed in a way that requires recalculation.
    pub topology_changed: bool,
    /// Peers newly observed as departed (observers must stop monitoring).
    pub departed: Vec<NodeId>,
}

/// One simulated node.
pub struct Node {
    /// Node id (shared across ring / gossip / network id spaces).
    pub id: NodeId,
    /// Machine this node's compute runs on.
    pub machine: MachineId,
    /// Per-node deterministic RNG (gossip target selection).
    pub rng: DetRng,
    /// Gossip component.
    pub gossiper: Gossiper<RingInfo>,
    /// Failure detector (flap accounting lives here).
    pub fd: FailureDetector,
    /// Local ring view.
    pub ring: RingTable,
    /// Last computed pending ranges.
    pub pending: PendingRanges,
    /// Serial gossip stage.
    pub gossip_stage: Stage<Task>,
    /// Serial calculation stage (used by the C5456 thread modes).
    pub calc_stage: Stage<Task>,
    /// A topology change arrived while a calculation was queued/running.
    pub calc_dirty: bool,
    /// A `Recalculate` task is queued or running.
    pub calc_queued: bool,
    /// Monotone calculation invocation counter (memo index fallback).
    pub calc_invocations: u64,
    /// Node is participating (started and not crashed).
    pub active: bool,
    /// Node has left the cluster and stopped its timers.
    pub departed: bool,
    /// Task parked on the gossip stage waiting for the ring lock.
    pub parked_gossip: Option<Task>,
    /// When the parked gossip task started waiting (lock-wait spans).
    pub parked_gossip_at: Option<SimTime>,
    /// Task parked on the calc stage waiting for the ring lock.
    pub parked_calc: Option<Task>,
    /// When the parked calc task started waiting (lock-wait spans).
    pub parked_calc_at: Option<SimTime>,
    /// Order-enforcement holding pen (replay only): messages waiting
    /// for their recorded turn, with a forced-release deadline.
    pub held: Vec<(SimTime, Envelope)>,
    /// Bytes currently allocated to rebalance partition services.
    pub rebalance_bytes: u64,
    /// Forward offset of this node's local clock (fault-injected clock
    /// skew); failure detection reads `now + clock_skew`.
    pub clock_skew: SimDuration,
    /// Bumped on fault crash/restart; periodic timer chains carry the
    /// epoch they were scheduled under and die when it moves on.
    pub timer_epoch: u64,
    /// Pending periodic gossip-round timer, cancelled on crash/leave.
    pub gossip_timer: Option<TimerId>,
    /// Pending periodic failure-detector timer, cancelled on crash/leave.
    pub fd_timer: Option<TimerId>,
    link_seq: BTreeMap<(NodeId, u8), u64>,
}

impl Node {
    /// Creates a node. The caller seeds the gossiper and ring afterwards.
    pub fn new(
        id: NodeId,
        machine: MachineId,
        rng: DetRng,
        info: RingInfo,
        rf: usize,
        phi_threshold: f64,
        gossip_interval: SimDuration,
    ) -> Self {
        Node {
            id,
            machine,
            rng,
            gossiper: Gossiper::new(peer_of(id), 1, info),
            fd: FailureDetector::new(phi_threshold, gossip_interval),
            ring: RingTable::new(rf),
            pending: PendingRanges::new(),
            gossip_stage: Stage::new(),
            calc_stage: Stage::new(),
            calc_dirty: false,
            calc_queued: false,
            calc_invocations: 0,
            active: false,
            departed: false,
            parked_gossip: None,
            parked_gossip_at: None,
            parked_calc: None,
            parked_calc_at: None,
            held: Vec::new(),
            rebalance_bytes: 0,
            clock_skew: SimDuration::ZERO,
            timer_epoch: 0,
            gossip_timer: None,
            fd_timer: None,
            link_seq: BTreeMap::new(),
        }
    }

    /// Next order key for a message to `dst` of the given kind.
    pub fn next_key(&mut self, dst: NodeId, kind: u8) -> u64 {
        let seq = self.link_seq.entry((dst, kind)).or_insert(0);
        let s = *seq;
        *seq += 1;
        let mut h = Hasher128::new();
        h.update_u64(self.id.0 as u64)
            .update_u64(dst.0 as u64)
            .update_u64(kind as u64)
            .update_u64(s);
        h.finish().0 as u64
    }

    /// Applies a gossip [`ApplyOutcome`] at time `now`: heartbeat
    /// advances feed the failure detector, application advances update
    /// the local ring view.
    pub fn apply_outcome(&mut self, outcome: &ApplyOutcome, now: SimTime) -> ViewChanges {
        let mut changes = ViewChanges::default();
        for &peer in &outcome.heartbeat_advanced {
            let left = self
                .gossiper
                .endpoint(peer)
                .is_some_and(|st| st.app.status == NodeStatus::Left);
            if !left {
                self.fd.report(peer, now);
            }
        }
        for &peer in &outcome.app_advanced {
            if self.sync_ring_entry(peer, &mut changes) {
                changes.topology_changed = true;
            }
        }
        changes
    }

    /// Synchronizes one peer's ring entry from the gossip view. Returns
    /// whether topology-relevant state changed.
    fn sync_ring_entry(&mut self, peer: scalecheck_gossip::Peer, out: &mut ViewChanges) -> bool {
        let Some(state) = self.gossiper.endpoint(peer) else {
            return false;
        };
        let node = crate::ringinfo::node_of(peer);
        let status = state.app.status;
        match status {
            NodeStatus::Left => {
                let was_present = self.ring.node(node).is_some();
                if was_present {
                    self.ring.remove_node(node).expect("presence checked");
                }
                self.fd.forget(peer);
                out.departed.push(node);
                was_present
            }
            _ => match self.ring.node(node) {
                Some(st) => {
                    if st.status != status {
                        self.ring.set_status(node, status).expect("node present");
                        true
                    } else {
                        false
                    }
                }
                None => {
                    // Tokens are cloned only on this (rare) first-sight
                    // path; status-only updates above never touch them.
                    let tokens = self
                        .gossiper
                        .endpoint(peer)
                        .map(|st| st.app.tokens.clone())
                        .unwrap_or_default();
                    // Ignore token collisions from replayed stale state:
                    // first writer wins, matching Cassandra's ownership
                    // arbitration.
                    self.ring.add_node(node, status, tokens).is_ok()
                }
            },
        }
    }

    /// The outstanding topology changes visible in this node's ring view
    /// (the `M`-element change list of the paper).
    pub fn outstanding_changes(&self) -> Vec<TopologyChange> {
        let mut out = Vec::new();
        for (id, st) in self.ring.iter() {
            match st.status {
                NodeStatus::Joining => out.push(TopologyChange::Join {
                    node: id,
                    tokens: st.tokens.clone(),
                }),
                NodeStatus::Leaving => out.push(TopologyChange::Leave { node: id }),
                _ => {}
            }
        }
        out
    }

    /// Whether any join/leave is pending in this node's view (the
    /// window during which Cassandra recalculates on every applied
    /// gossip). O(1): the ring keeps its Joining/Leaving count.
    pub fn pending_window_open(&self) -> bool {
        self.ring.transitional_count() > 0
    }

    /// Peers this node would gossip to: known, not Left in our view.
    pub fn gossip_candidates(&self) -> Vec<NodeId> {
        self.iter_gossip_candidates().collect()
    }

    /// How many gossip candidates there are. Paired with
    /// [`Self::nth_gossip_candidate`], the per-round random target pick
    /// needs no scratch `Vec` — the count-then-index walk visits
    /// candidates in the same order the collected list had, so the
    /// selected peer (and the RNG draw feeding it) is unchanged.
    pub fn gossip_candidate_count(&self) -> usize {
        self.iter_gossip_candidates().count()
    }

    /// The `idx`-th gossip candidate in view order.
    pub fn nth_gossip_candidate(&self, idx: usize) -> Option<NodeId> {
        self.iter_gossip_candidates().nth(idx)
    }

    fn iter_gossip_candidates(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.gossiper.me();
        self.gossiper
            .endpoints()
            .iter()
            .filter(move |(p, st)| *p != me && st.app.status != NodeStatus::Left)
            .map(|(p, _)| crate::ringinfo::node_of(p))
    }

    /// Updates this node's own gossiped ring state (and its own ring
    /// view), e.g. when it starts leaving.
    pub fn announce(&mut self, info: RingInfo) {
        let status = info.status;
        let tokens = info.tokens.clone();
        self.gossiper.update_app(info);
        match status {
            NodeStatus::Left => {
                if self.ring.node(self.id).is_some() {
                    self.ring.remove_node(self.id).expect("self present");
                }
            }
            _ => {
                if self.ring.node(self.id).is_some() {
                    self.ring.set_status(self.id, status).expect("self present");
                } else {
                    let _ = self.ring.add_node(self.id, status, tokens);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalecheck_gossip::{EndpointState, HeartbeatState, Peer};
    use scalecheck_ring::spread_tokens;

    fn node(id: u32) -> Node {
        let mut n = Node::new(
            NodeId(id),
            MachineId(0),
            DetRng::new(1).fork(id as u64),
            RingInfo::normal(spread_tokens(NodeId(id), 2)),
            3,
            8.0,
            SimDuration::from_secs(1),
        );
        n.announce(RingInfo::normal(spread_tokens(NodeId(id), 2)));
        n
    }

    fn remote_state(id: u32, status: NodeStatus, hb: u64) -> (Peer, EndpointState<RingInfo>) {
        (
            Peer(id),
            EndpointState::new(
                HeartbeatState {
                    generation: 1,
                    version: hb,
                },
                1,
                RingInfo {
                    status,
                    tokens: spread_tokens(NodeId(id), 2),
                },
            ),
        )
    }

    #[test]
    fn apply_outcome_reports_heartbeats_and_updates_ring() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Normal, 5);
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        let ch = n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(ch.topology_changed, "new node entered the ring view");
        assert!(n.ring.node(NodeId(1)).is_some());
        assert!(n.fd.liveness(Peer(1)).is_some());
    }

    #[test]
    fn joining_peer_opens_pending_window() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Joining, 5);
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(n.pending_window_open());
        let changes = n.outstanding_changes();
        assert_eq!(changes.len(), 1);
        assert!(matches!(changes[0], TopologyChange::Join { node, .. } if node == NodeId(1)));
    }

    #[test]
    fn left_peer_is_removed_and_forgotten() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Normal, 5);
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(n.fd.liveness(Peer(1)).is_some());
        // Now the peer leaves.
        let (peer, mut st) = remote_state(1, NodeStatus::Left, 6);
        st.app_version = 7;
        st.heartbeat.version = 7;
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        let ch = n.apply_outcome(&outcome, SimTime::from_secs(2));
        assert!(ch.topology_changed);
        assert_eq!(ch.departed, vec![NodeId(1)]);
        assert!(n.ring.node(NodeId(1)).is_none());
        assert!(n.fd.liveness(Peer(1)).is_none(), "no flap for clean leave");
        // Left nodes are not gossip candidates.
        assert!(!n.gossip_candidates().contains(&NodeId(1)));
    }

    #[test]
    fn heartbeat_of_left_peer_not_reported() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Left, 5);
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(n.fd.liveness(Peer(1)).is_none());
    }

    #[test]
    fn status_change_flags_topology_but_same_status_does_not() {
        let mut n = node(0);
        let (peer, st) = remote_state(1, NodeStatus::Joining, 5);
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        let ch1 = n.apply_outcome(&outcome, SimTime::from_secs(1));
        assert!(ch1.topology_changed);
        // Same status, newer version: no topology change.
        let (peer, mut st) = remote_state(1, NodeStatus::Joining, 9);
        st.app_version = 9;
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        let ch2 = n.apply_outcome(&outcome, SimTime::from_secs(2));
        assert!(!ch2.topology_changed);
        // Joining -> Normal: topology change again.
        let (peer, mut st) = remote_state(1, NodeStatus::Normal, 12);
        st.app_version = 12;
        st.heartbeat.version = 12;
        let outcome = n.gossiper.apply_states(&[(peer, st)]);
        let ch3 = n.apply_outcome(&outcome, SimTime::from_secs(3));
        assert!(ch3.topology_changed);
        assert!(!n.pending_window_open());
    }

    #[test]
    fn announce_updates_self_everywhere() {
        let mut n = node(0);
        let tokens = n.ring.node(NodeId(0)).unwrap().tokens.clone();
        n.announce(RingInfo {
            status: NodeStatus::Leaving,
            tokens: tokens.clone(),
        });
        assert_eq!(n.gossiper.my_app().status, NodeStatus::Leaving);
        assert_eq!(n.ring.node(NodeId(0)).unwrap().status, NodeStatus::Leaving);
        assert!(n.pending_window_open());
        n.announce(RingInfo {
            status: NodeStatus::Left,
            tokens: vec![],
        });
        assert!(n.ring.node(NodeId(0)).is_none());
    }

    #[test]
    fn message_keys_are_unique_per_link_and_kind() {
        let mut n = node(0);
        let k1 = n.next_key(NodeId(1), 0);
        let k2 = n.next_key(NodeId(1), 0);
        let k3 = n.next_key(NodeId(2), 0);
        let k4 = n.next_key(NodeId(1), 1);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        // Deterministic across nodes created the same way.
        let mut m = node(0);
        assert_eq!(m.next_key(NodeId(1), 0), k1);
    }

    #[test]
    fn message_entries_and_kind() {
        let n = node(0);
        let syn = GossipMessage::Syn(n.gossiper.make_syn());
        assert_eq!(syn.kind(), 0);
        assert_eq!(syn.entries(), 1); // knows only itself
    }
}

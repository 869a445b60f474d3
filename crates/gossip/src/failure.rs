//! Per-node failure detection and flap accounting.
//!
//! A **flap** (§2) is one node marking a live peer as down (and usually
//! soon marking it up again). [`FailureDetector`] owns one
//! [`PhiDetector`] per peer plus the node's local up/down verdicts, and
//! counts alive→dead transitions — the y-axis of every panel in
//! Figure 3.

use std::collections::BTreeSet;

use scalecheck_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::peermap::PeerMap;
use crate::phi::PhiDetector;
use crate::state::Peer;

/// A peer's liveness verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Liveness {
    /// Considered up.
    Alive,
    /// Convicted as down.
    Dead,
}

/// One peer's monitoring state: arrival statistics plus the current
/// verdict. Keeping them in one map entry means the per-tick
/// [`FailureDetector::interpret_all`] sweep — O(peers), every
/// fd-interval, on every node — walks a single dense table instead of
/// probing a second verdict map per peer.
#[derive(Clone, Debug)]
struct PeerMonitor {
    det: PhiDetector,
    verdict: Liveness,
}

/// One node's failure-detection state over all its peers.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    threshold: f64,
    gossip_interval: SimDuration,
    monitors: PeerMap<PeerMonitor>,
    flaps: u64,
    recoveries: u64,
    fault_suspects: BTreeSet<Peer>,
    fault_attributed: u64,
}

impl FailureDetector {
    /// Creates a detector with the given conviction threshold (Cassandra
    /// default: 8.0) and expected heartbeat interval.
    pub fn new(threshold: f64, gossip_interval: SimDuration) -> Self {
        FailureDetector {
            threshold,
            gossip_interval,
            monitors: PeerMap::new(),
            flaps: 0,
            recoveries: 0,
            fault_suspects: BTreeSet::new(),
            fault_attributed: 0,
        }
    }

    /// Registers a heartbeat observation for `peer` at `now`. If the peer
    /// was convicted, it is marked alive again (a recovery).
    pub fn report(&mut self, peer: Peer, now: SimTime) {
        let interval = self.gossip_interval;
        let mon = self.monitors.get_or_insert_with(peer, || PeerMonitor {
            det: PhiDetector::cassandra(interval),
            verdict: Liveness::Alive,
        });
        mon.det.heartbeat(now);
        if mon.verdict == Liveness::Dead {
            mon.verdict = Liveness::Alive;
            self.recoveries += 1;
        }
    }

    /// Evaluates every monitored peer at `now`; newly convicted peers are
    /// returned and each conviction counts as one flap.
    pub fn interpret_all(&mut self, now: SimTime) -> Vec<Peer> {
        let mut newly_dead = Vec::new();
        for (peer, mon) in self.monitors.iter_mut() {
            if mon.verdict == Liveness::Alive && mon.det.phi(now) > self.threshold {
                mon.verdict = Liveness::Dead;
                self.flaps += 1;
                if self.fault_suspects.contains(&peer) {
                    self.fault_attributed += 1;
                }
                newly_dead.push(peer);
            }
        }
        newly_dead
    }

    /// Current verdict for `peer` (peers never reported are unknown).
    pub fn liveness(&self, peer: Peer) -> Option<Liveness> {
        self.monitors.get(peer).map(|m| m.verdict)
    }

    /// Peers currently considered dead.
    pub fn dead_peers(&self) -> Vec<Peer> {
        self.monitors
            .iter()
            .filter(|(_, m)| m.verdict == Liveness::Dead)
            .map(|(p, _)| p)
            .collect()
    }

    /// Total alive→dead transitions this node has declared.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Total dead→alive transitions (recoveries).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Marks or clears `peer` as under an injected fault (crashed,
    /// partitioned away, or clock-stepped). While marked, convictions of
    /// `peer` are counted as fault-attributed flaps.
    pub fn set_fault_suspect(&mut self, peer: Peer, suspected: bool) {
        if suspected {
            self.fault_suspects.insert(peer);
        } else {
            self.fault_suspects.remove(&peer);
        }
    }

    /// Marks every currently monitored peer as under an injected fault
    /// (e.g. the local clock stepped: any conviction we issue is the
    /// fault's doing).
    pub fn mark_all_fault_suspects(&mut self) {
        self.fault_suspects.extend(self.monitors.keys());
    }

    /// Flaps whose convicted peer was a fault suspect at conviction
    /// time.
    pub fn fault_attributed_flaps(&self) -> u64 {
        self.fault_attributed
    }

    /// Drops all per-peer monitoring state — a restarted process starts
    /// with no inter-arrival history — while keeping the lifetime flap,
    /// recovery, and attribution counters.
    pub fn reset_monitoring(&mut self) {
        self.monitors.clear();
        self.fault_suspects.clear();
    }

    /// The φ suspicion for `peer`, if monitored.
    pub fn phi(&self, peer: Peer, now: SimTime) -> Option<f64> {
        self.monitors.get(peer).map(|m| m.det.phi(now))
    }

    /// Stops monitoring `peer` (it departed cleanly; silence is expected
    /// and must not count as a flap).
    pub fn forget(&mut self, peer: Peer) {
        self.monitors.remove(peer);
    }

    /// Number of monitored peers.
    pub fn monitored(&self) -> usize {
        self.monitors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> FailureDetector {
        FailureDetector::new(8.0, SimDuration::from_secs(1))
    }

    fn secs(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    fn feed(fd: &mut FailureDetector, peer: Peer, from: u64, to: u64) {
        for s in from..to {
            fd.report(peer, secs(s));
            fd.interpret_all(secs(s));
        }
    }

    #[test]
    fn steady_heartbeats_no_flaps() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 60);
        assert_eq!(f.flaps(), 0);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
    }

    #[test]
    fn long_silence_convicts_once() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        // 30s of silence: well past the ~18.4s conviction point.
        let newly = f.interpret_all(secs(50));
        assert_eq!(newly, vec![Peer(1)]);
        assert_eq!(f.flaps(), 1);
        // Repeated interpretation does not double-count.
        assert!(f.interpret_all(secs(60)).is_empty());
        assert_eq!(f.flaps(), 1);
        assert_eq!(f.dead_peers(), vec![Peer(1)]);
    }

    #[test]
    fn recovery_then_reconviction_counts_two_flaps() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.interpret_all(secs(50));
        assert_eq!(f.flaps(), 1);
        // Peer comes back.
        f.report(Peer(1), secs(50));
        assert_eq!(f.recoveries(), 1);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
        // Goes silent again. The detector's window now contains the huge
        // 30s gap, so the mean is inflated; feed fresh beats to re-tighten.
        feed(&mut f, Peer(1), 51, 70);
        let newly = f.interpret_all(secs(120));
        assert_eq!(newly, vec![Peer(1)]);
        assert_eq!(f.flaps(), 2);
    }

    #[test]
    fn multiple_peers_tracked_independently() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 40);
        feed(&mut f, Peer(2), 0, 20);
        // Peer 2 silent from t=20; peer 1 healthy through t=40.
        f.report(Peer(1), secs(45));
        let newly = f.interpret_all(secs(45));
        assert_eq!(newly, vec![Peer(2)]);
        assert_eq!(f.liveness(Peer(1)), Some(Liveness::Alive));
        assert_eq!(f.monitored(), 2);
    }

    #[test]
    fn forget_prevents_false_flap_on_decommission() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.forget(Peer(1));
        let newly = f.interpret_all(secs(100));
        assert!(newly.is_empty());
        assert_eq!(f.flaps(), 0);
        assert_eq!(f.liveness(Peer(1)), None);
    }

    #[test]
    fn fault_suspects_attribute_their_flaps() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        feed(&mut f, Peer(2), 0, 20);
        f.set_fault_suspect(Peer(1), true);
        // Both go silent; only peer 1's conviction is fault-attributed.
        f.interpret_all(secs(50));
        assert_eq!(f.flaps(), 2);
        assert_eq!(f.fault_attributed_flaps(), 1);
        // Clearing the suspicion stops attribution for later flaps.
        f.report(Peer(1), secs(50));
        f.set_fault_suspect(Peer(1), false);
        feed(&mut f, Peer(1), 51, 70);
        f.interpret_all(secs(120));
        assert_eq!(f.flaps(), 3);
        assert_eq!(f.fault_attributed_flaps(), 1);
    }

    #[test]
    fn mark_all_covers_every_monitored_peer() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        feed(&mut f, Peer(2), 0, 20);
        f.mark_all_fault_suspects();
        f.interpret_all(secs(50));
        assert_eq!(f.fault_attributed_flaps(), 2);
    }

    #[test]
    fn reset_monitoring_keeps_counters_but_drops_history() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 20);
        f.interpret_all(secs(50));
        assert_eq!(f.flaps(), 1);
        f.reset_monitoring();
        assert_eq!(f.monitored(), 0);
        assert_eq!(f.flaps(), 1, "lifetime counters survive a restart");
        assert!(f.liveness(Peer(1)).is_none());
        // No spurious conviction from pre-restart history.
        assert!(f.interpret_all(secs(200)).is_empty());
    }

    #[test]
    fn phi_exposed_per_peer() {
        let mut f = fd();
        feed(&mut f, Peer(1), 0, 10);
        assert!(f.phi(Peer(1), secs(12)).unwrap() > 0.0);
        assert!(f.phi(Peer(9), secs(12)).is_none());
    }
}

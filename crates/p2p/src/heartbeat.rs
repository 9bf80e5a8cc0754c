//! Heartbeat-based failure detection within b-peer groups.

use crate::PeerId;
use std::collections::{BTreeMap, BTreeSet};
use whisper_simnet::{SimDuration, SimTime};

/// Tracks last-heard-from times for a set of peers and declares the ones
/// that have been silent longer than the timeout as *suspected*.
///
/// B-peers broadcast [`P2pMessage::Heartbeat`](crate::P2pMessage::Heartbeat)
/// every period; the detector is purely passive bookkeeping, so it works the
/// same on the simulator and the threaded runtime.
///
/// Silence for the whole timeout is the only evidence a partition, a
/// stalled or a slowed peer leaves. A crashed peer leaves more: its
/// transport link closes, and every transport reports that only when the
/// peer's process let go of its sockets — gray weather (loss, delay, a
/// blocked pair, a stall) closes nothing. [`FailureDetector::link_lost`]
/// therefore suspects the peer at once. Any later sign of life clears the
/// mark, so a peer that restarts and speaks again, or a message that was
/// still in flight behind the signal, brings back the timeout as the only
/// judge.
///
/// # Examples
///
/// ```
/// use whisper_p2p::{FailureDetector, PeerId};
/// use whisper_simnet::{SimDuration, SimTime};
///
/// let mut fd = FailureDetector::new(SimDuration::from_millis(300));
/// let p = PeerId::new(1);
/// fd.record(p, SimTime::from_micros(0));
/// assert!(fd.suspected(SimTime::from_micros(100_000)).is_empty());
/// assert_eq!(fd.suspected(SimTime::from_micros(400_000)), vec![p]);
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    timeout: SimDuration,
    last_seen: BTreeMap<PeerId, SimTime>,
    /// Monitored peers whose link was lost and who have not been heard
    /// from since.
    lost: BTreeSet<PeerId>,
}

impl FailureDetector {
    /// Creates a detector that suspects peers silent for longer than
    /// `timeout`.
    pub fn new(timeout: SimDuration) -> Self {
        FailureDetector {
            timeout,
            last_seen: BTreeMap::new(),
            lost: BTreeSet::new(),
        }
    }

    /// The configured timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Records a sign of life from `peer` at `now` (heartbeat or any other
    /// message — all traffic proves liveness). Returns whether it cleared
    /// a lost link ([`FailureDetector::link_lost`]): the message crossed a
    /// link, so `peer` has one.
    pub fn record(&mut self, peer: PeerId, now: SimTime) -> bool {
        let e = self.last_seen.entry(peer).or_insert(now);
        if *e < now {
            *e = now;
        }
        self.lost.remove(&peer)
    }

    /// Notes that the transport link from a monitored `peer` closed: it is
    /// suspected until it is heard from again. Ignored for a peer that is
    /// not monitored.
    pub fn link_lost(&mut self, peer: PeerId) {
        if self.last_seen.contains_key(&peer) {
            self.lost.insert(peer);
        }
    }

    /// Peers whose link was lost and who have not been heard from since,
    /// in id order — the part of [`FailureDetector::suspected`] that rests
    /// on transport evidence, which (unlike silence) also holds for a peer
    /// whose beacons the host never expected.
    pub fn lost(&self) -> Vec<PeerId> {
        self.lost.iter().copied().collect()
    }

    /// Stops monitoring `peer` (it left the group or was replaced).
    pub fn forget(&mut self, peer: PeerId) {
        self.last_seen.remove(&peer);
        self.lost.remove(&peer);
    }

    fn is_suspected(&self, peer: PeerId, seen: SimTime, now: SimTime) -> bool {
        (seen < now && now.since(seen) > self.timeout) || self.lost.contains(&peer)
    }

    /// Whether `peer` is currently monitored.
    pub fn is_monitored(&self, peer: PeerId) -> bool {
        self.last_seen.contains_key(&peer)
    }

    /// Peers silent for longer than the timeout at `now`, and peers whose
    /// link was lost, in id order. A last-seen timestamp at or
    /// after `now` counts as alive.
    pub fn suspected(&self, now: SimTime) -> Vec<PeerId> {
        self.last_seen
            .iter()
            .filter(|(&p, &seen)| self.is_suspected(p, seen, now))
            .map(|(&p, _)| p)
            .collect()
    }

    /// Peers considered alive at `now`, in id order.
    pub fn alive(&self, now: SimTime) -> Vec<PeerId> {
        self.last_seen
            .iter()
            .filter(|(&p, &seen)| !self.is_suspected(p, seen, now))
            .map(|(&p, _)| p)
            .collect()
    }

    /// Number of monitored peers.
    pub fn monitored_count(&self) -> usize {
        self.last_seen.len()
    }

    /// When `peer` was last heard from, if it is monitored.
    pub fn last_seen(&self, peer: PeerId) -> Option<SimTime> {
        self.last_seen.get(&peer).copied()
    }

    /// `(peer, silence)` for every monitored peer at `now`, in id order:
    /// how long each has gone without a sign of life (zero for a last-seen
    /// timestamp at or after `now`). This is the "heartbeat age" column of
    /// an introspection snapshot.
    pub fn ages(&self, now: SimTime) -> Vec<(PeerId, SimDuration)> {
        self.last_seen
            .iter()
            .map(|(&p, &seen)| {
                let silence = if seen >= now {
                    SimDuration::ZERO
                } else {
                    now.since(seen)
                };
                (p, silence)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    fn fd() -> FailureDetector {
        FailureDetector::new(SimDuration::from_millis(100))
    }

    #[test]
    fn fresh_peer_is_alive_then_suspected() {
        let mut d = fd();
        d.record(PeerId::new(1), t(0));
        assert_eq!(d.alive(t(50)), vec![PeerId::new(1)]);
        assert!(d.suspected(t(50)).is_empty());
        // exactly at the timeout boundary still alive
        assert!(d.suspected(t(100)).is_empty());
        assert_eq!(d.suspected(t(101)), vec![PeerId::new(1)]);
        assert!(d.alive(t(101)).is_empty());
    }

    #[test]
    fn heartbeat_refreshes() {
        let mut d = fd();
        let p = PeerId::new(1);
        d.record(p, t(0));
        d.record(p, t(90));
        assert!(d.suspected(t(150)).is_empty());
        // stale updates never move the clock backwards
        d.record(p, t(10));
        assert!(d.suspected(t(150)).is_empty());
        assert_eq!(d.suspected(t(191)), vec![p]);
    }

    #[test]
    fn forget_and_monitoring() {
        let mut d = fd();
        d.record(PeerId::new(1), t(0));
        d.record(PeerId::new(2), t(0));
        assert_eq!(d.monitored_count(), 2);
        assert!(d.is_monitored(PeerId::new(1)));
        d.forget(PeerId::new(1));
        assert!(!d.is_monitored(PeerId::new(1)));
        assert_eq!(d.suspected(t(500)), vec![PeerId::new(2)]);
    }

    #[test]
    fn multiple_peers_sorted_by_id() {
        let mut d = fd();
        d.record(PeerId::new(3), t(0));
        d.record(PeerId::new(1), t(0));
        d.record(PeerId::new(2), t(200));
        let s = d.suspected(t(150));
        assert_eq!(s, vec![PeerId::new(1), PeerId::new(3)]);
    }

    #[test]
    fn future_timestamps_do_not_panic() {
        let mut d = fd();
        d.record(PeerId::new(1), t(1000));
        // now earlier than last-seen (can happen with clamped clocks)
        assert!(d.suspected(t(0)).is_empty());
        assert_eq!(d.alive(t(0)), vec![PeerId::new(1)]);
        assert_eq!(d.ages(t(0)), vec![(PeerId::new(1), SimDuration::ZERO)]);
    }

    /// The fuse is the transport's own: the link is reported closed only
    /// once the peer's process let go of it, so the mark holds from the
    /// report on, and any sign of life defuses it.
    #[test]
    fn a_lost_link_confirms_after_its_fuse_and_any_sign_of_life_defuses_it() {
        let mut d = fd();
        let (p, q) = (PeerId::new(1), PeerId::new(2));
        d.record(p, t(0));
        d.record(q, t(0));
        d.link_lost(p);
        // suspected in the same instant, long before the timeout
        assert_eq!(d.suspected(t(0)), vec![p]);
        assert_eq!(d.lost(), vec![p]);
        assert_eq!(d.alive(t(0)), vec![q]);

        // A message that was still in flight when the link closed arrives
        // after the signal: the loss is cleared, the timeout is back.
        assert!(d.record(p, t(1)));
        assert!(!d.record(p, t(2)), "nothing left to clear");
        assert!(d.suspected(t(100)).is_empty());
        assert!(d.lost().is_empty());
        assert_eq!(d.suspected(t(103)), vec![p, q]);
    }

    #[test]
    fn link_lost_marks_only_monitored_peers_and_lost_lists_them_in_id_order() {
        let mut d = fd();
        let (p, q, r) = (PeerId::new(1), PeerId::new(2), PeerId::new(3));
        d.record(r, t(0));
        d.record(p, t(0));
        d.record(q, t(0));
        // an unmonitored peer's link is nobody's evidence
        d.link_lost(PeerId::new(9));
        assert!(d.lost().is_empty());
        assert!(d.suspected(t(0)).is_empty());
        // a second report of the same loss changes nothing
        d.link_lost(r);
        d.link_lost(p);
        d.link_lost(r);
        assert_eq!(d.lost(), vec![p, r]);
        assert_eq!(d.suspected(t(0)), vec![p, r]);
        assert_eq!(d.alive(t(0)), vec![q]);
        // a lost peer is suspected whatever its last-seen stamp says
        d.record(q, t(500));
        d.link_lost(q);
        assert_eq!(d.suspected(t(0)), vec![p, q, r]);
    }

    #[test]
    fn record_clears_only_the_speakers_mark_and_forget_drops_it() {
        let mut d = fd();
        let (p, q) = (PeerId::new(1), PeerId::new(2));
        d.record(p, t(0));
        d.record(q, t(0));
        d.link_lost(p);
        d.link_lost(q);
        // a word stamped no later still proves a link: the mark goes, the
        // clock stays
        assert!(d.record(q, t(0)));
        assert_eq!(d.lost(), vec![p]);
        assert_eq!(d.last_seen(q), Some(t(0)));
        // forgetting a peer forgets its lost link; monitored again, it
        // starts clean
        d.forget(p);
        assert!(d.lost().is_empty());
        assert!(!d.record(p, t(50)), "no mark survived the forget");
        assert_eq!(d.suspected(t(120)), vec![q], "silent since 0 ms");
    }

    #[test]
    fn ages_and_last_seen_expose_the_heartbeat_view() {
        let mut d = fd();
        d.record(PeerId::new(2), t(10));
        d.record(PeerId::new(1), t(40));
        assert_eq!(d.last_seen(PeerId::new(2)), Some(t(10)));
        assert_eq!(d.last_seen(PeerId::new(9)), None);
        assert_eq!(
            d.ages(t(50)),
            vec![
                (PeerId::new(1), SimDuration::from_millis(10)),
                (PeerId::new(2), SimDuration::from_millis(40)),
            ]
        );
    }
}

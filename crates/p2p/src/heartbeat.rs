//! Heartbeat-based failure detection within b-peer groups.

use crate::PeerId;
use std::collections::BTreeMap;
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
/// transport link closes. [`FailureDetector::link_lost`] takes that as
/// suspicion with a short fuse — the peer is suspected once nothing has
/// been heard from it until the given instant (the host gives one beacon
/// period) — and any sign of life defuses it, so a peer that restarted at
/// once, or a message that was still in flight, costs nothing but the
/// fallback to the timeout.
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
    /// from since, with the instant from which that silence confirms it.
    lost: BTreeMap<PeerId, SimTime>,
}

impl FailureDetector {
    /// Creates a detector that suspects peers silent for longer than
    /// `timeout`.
    pub fn new(timeout: SimDuration) -> Self {
        FailureDetector {
            timeout,
            last_seen: BTreeMap::new(),
            lost: BTreeMap::new(),
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
        self.lost.remove(&peer).is_some()
    }

    /// Notes that the transport link from a monitored `peer` closed:
    /// unless `peer` is heard from first, it is suspected from
    /// `confirm_at` on. Ignored for a peer that is not monitored.
    pub fn link_lost(&mut self, peer: PeerId, confirm_at: SimTime) {
        if self.last_seen.contains_key(&peer) {
            self.lost.insert(peer, confirm_at);
        }
    }

    /// Peers whose lost link silence has confirmed at `now`, in id order —
    /// the part of [`FailureDetector::suspected`] that rests on transport
    /// evidence, which (unlike silence) also holds for a peer whose beacons
    /// the host never expected.
    pub fn lost_confirmed(&self, now: SimTime) -> Vec<PeerId> {
        self.lost
            .keys()
            .copied()
            .filter(|&p| self.loss_confirmed(p, now))
            .collect()
    }

    fn loss_confirmed(&self, peer: PeerId, now: SimTime) -> bool {
        self.lost.get(&peer).is_some_and(|&at| now >= at)
    }

    /// Stops monitoring `peer` (it left the group or was replaced).
    pub fn forget(&mut self, peer: PeerId) {
        self.last_seen.remove(&peer);
        self.lost.remove(&peer);
    }

    fn is_suspected(&self, peer: PeerId, seen: SimTime, now: SimTime) -> bool {
        (seen < now && now.since(seen) > self.timeout) || self.loss_confirmed(peer, now)
    }

    /// Whether `peer` is currently monitored.
    pub fn is_monitored(&self, peer: PeerId) -> bool {
        self.last_seen.contains_key(&peer)
    }

    /// Peers silent for longer than the timeout at `now`, and peers whose
    /// lost link has confirmed, in id order. A last-seen timestamp at or
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

    #[test]
    fn a_lost_link_confirms_after_its_fuse_and_any_sign_of_life_defuses_it() {
        let mut d = fd();
        let (p, q) = (PeerId::new(1), PeerId::new(2));
        d.record(p, t(0));
        d.record(q, t(0));
        d.link_lost(p, t(60));
        // suspicion, not death: nothing changes before the fuse runs out
        assert!(d.suspected(t(59)).is_empty());
        assert_eq!(d.alive(t(59)), vec![p, q]);
        assert_eq!(d.suspected(t(60)), vec![p]);
        assert_eq!(d.lost_confirmed(t(60)), vec![p]);
        assert_eq!(d.alive(t(60)), vec![q]);

        // A message that was still in flight when the link closed arrives
        // after the signal: the loss is cleared, the timeout is back.
        assert!(d.record(p, t(61)));
        assert!(!d.record(p, t(62)), "nothing left to clear");
        assert!(d.suspected(t(100)).is_empty());
        assert!(d.lost_confirmed(t(100)).is_empty());
        assert_eq!(d.suspected(t(163)), vec![p, q]);

        // an unmonitored peer's link is nobody's evidence; forgetting a
        // peer forgets its lost link
        d.link_lost(PeerId::new(9), t(0));
        assert!(d.lost_confirmed(t(500)).is_empty());
        d.link_lost(q, t(0));
        d.forget(q);
        d.record(q, t(500));
        assert_eq!(d.suspected(t(500)), vec![p], "silent since 62 ms");
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

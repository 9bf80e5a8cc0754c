//! The Bully election algorithm (Garcia-Molina 1982).

use crate::msg::{ElectionEvent, ElectionMsg, Output, TimerRequest};
use crate::ElectionProtocol;
use std::collections::BTreeSet;
use whisper_obs::{Recorder, RequestId, SpanId};
use whisper_p2p::PeerId;
use whisper_simnet::{SimDuration, SimTime};

/// Timeouts of the Bully algorithm.
///
/// `answer_timeout` bounds how long an initiator waits for an `Answer`
/// from a higher peer before declaring victory; `coordinator_timeout`
/// bounds how long a suppressed initiator waits for the eventual
/// `Coordinator` announcement before re-starting the election. These two
/// timeouts are exactly the "considerably high" re-election delay the paper
/// blames for multi-second worst-case RTTs. The answer wait is paid only
/// for higher peers the host's failure detector has not already declared
/// silent (see [`BullyNode::set_suspects`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BullyConfig {
    /// Wait for `Answer` after sending `Election`.
    pub answer_timeout: SimDuration,
    /// Wait for `Coordinator` after receiving an `Answer`.
    pub coordinator_timeout: SimDuration,
    /// Suppress fresh elections for this long after one concluded (and a
    /// coordinator is known). Without it, stray in-flight `Election`
    /// messages re-trigger full elections at every idle node and a
    /// simultaneous boot turns into a message storm; JXTA-era deployments
    /// rate-limited elections the same way. It shields a coordinator from
    /// strays, not from the host's failure detector: once the coordinator
    /// is suspected ([`BullyNode::set_suspects`]) an election starts at
    /// once, however recent the one that crowned it.
    pub cooldown: SimDuration,
}

impl Default for BullyConfig {
    /// JXTA-era defaults: 1 s answer wait, 2 s coordinator wait.
    fn default() -> Self {
        BullyConfig {
            answer_timeout: SimDuration::from_secs(1),
            coordinator_timeout: SimDuration::from_secs(2),
            cooldown: SimDuration::from_millis(500),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    AwaitingAnswers,
    AwaitingCoordinator,
}

const KIND_ANSWER_WAIT: u64 = 0;
const KIND_COORD_WAIT: u64 = 1;

fn encode_token(epoch: u64, kind: u64) -> u64 {
    epoch << 1 | kind
}

fn decode_token(token: u64) -> (u64, u64) {
    (token >> 1, token & 1)
}

/// Per-peer state of the Bully algorithm.
///
/// The peer with the highest [`PeerId`] among live members always wins; any
/// peer that suspects the coordinator starts an election. See the crate
/// docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct BullyNode {
    me: PeerId,
    members: BTreeSet<PeerId>,
    coordinator: Option<PeerId>,
    phase: Phase,
    /// Incremented whenever outstanding timers become stale.
    epoch: u64,
    config: BullyConfig,
    /// Peers the host's failure detector holds silent right now (see
    /// [`BullyNode::set_suspects`]).
    suspects: BTreeSet<PeerId>,
    /// Statistics: how many elections this node started.
    elections_started: u64,
    /// When the last election this node observed concluded.
    last_concluded: Option<SimTime>,
    /// Optional observability recorder; `None` costs nothing.
    obs: Option<Recorder>,
    /// The election run currently traced by this node, if any:
    /// `(pseudo-request, span, start)`. One run may cover several retries.
    obs_run: Option<(RequestId, SpanId, SimTime)>,
}

impl BullyNode {
    /// Creates a node for `me` within `members` (which should include
    /// `me`; it is inserted if missing).
    pub fn new(me: PeerId, members: impl IntoIterator<Item = PeerId>, config: BullyConfig) -> Self {
        let mut members: BTreeSet<PeerId> = members.into_iter().collect();
        members.insert(me);
        BullyNode {
            me,
            members,
            coordinator: None,
            phase: Phase::Idle,
            epoch: 0,
            config,
            suspects: BTreeSet::new(),
            elections_started: 0,
            last_concluded: None,
            obs: None,
            obs_run: None,
        }
    }

    /// Installs an observability recorder. Elections this node initiates
    /// are traced as `election.run` spans under a pseudo-request, and
    /// election counters/durations land in the recorder's registry.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = Some(rec);
    }

    /// Opens (or continues) the traced election run for this node.
    fn obs_begin(&mut self, now: SimTime) {
        if let Some(rec) = &self.obs {
            rec.incr("election.started", 1);
            if self.obs_run.is_none() {
                let req = rec.begin_request(format!("election by {}", self.me), now);
                let span = rec.start_span("election.run", req, now);
                rec.set_attr(span, "initiator", self.me.value());
                rec.set_attr(span, "epoch", self.epoch + 1);
                self.obs_run = Some((req, span, now));
            }
        }
    }

    /// Closes the traced run (if any) with the elected coordinator.
    fn obs_conclude(&mut self, winner: PeerId, now: SimTime) {
        if let Some(rec) = &self.obs {
            rec.incr("election.concluded", 1);
            if let Some((_, span, started)) = self.obs_run.take() {
                rec.set_attr(span, "winner", winner.value());
                rec.end_span(span, now);
                rec.record_duration("election.duration", now.since(started));
            }
        }
    }

    /// Current group membership, in id order.
    pub fn members(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.members.iter().copied()
    }

    /// How many elections this node has initiated.
    pub fn elections_started(&self) -> u64 {
        self.elections_started
    }

    /// Whether this node currently believes it is the coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.coordinator == Some(self.me)
    }

    /// The election term: monotone, incremented on every state transition
    /// (election start, retry, victory, coordinator announcement), so two
    /// snapshots of the same node are ordered by it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The protocol phase as a static label, for introspection snapshots:
    /// `idle`, `awaiting-answers`, or `awaiting-coordinator`.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Idle => "idle",
            Phase::AwaitingAnswers => "awaiting-answers",
            Phase::AwaitingCoordinator => "awaiting-coordinator",
        }
    }

    /// Replaces the set of peers the host's failure detector currently
    /// suspects (the host calls this on every detector sweep; a message
    /// from a peer clears its suspicion in between).
    ///
    /// The answer wait *is* a failure detector — silence for
    /// `answer_timeout` buries a higher peer — so it adds nothing for a
    /// peer the heartbeat detector has already buried: an election neither
    /// probes nor waits for a suspected higher peer, and a wait already
    /// running ends here once every higher peer is suspected. A higher
    /// peer that is not suspected still gets the full `answer_timeout`.
    pub fn set_suspects(
        &mut self,
        suspects: impl IntoIterator<Item = PeerId>,
        now: SimTime,
    ) -> Output {
        self.suspects = suspects.into_iter().collect();
        if self.phase == Phase::AwaitingAnswers && self.unsuspected_higher().is_empty() {
            return self.declare_victory_unanswered(now);
        }
        Output::none()
    }

    /// Higher members an election has to hear out.
    fn unsuspected_higher(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .copied()
            .filter(|p| *p > self.me && !self.suspects.contains(p))
            .collect()
    }

    /// Victory over higher members that are all suspected: concluded
    /// without the answer wait, and marked so for the host.
    fn declare_victory_unanswered(&mut self, now: SimTime) -> Output {
        if let Some(rec) = &self.obs {
            rec.incr("election.skipped_suspect", 1);
        }
        let mut out = self.declare_victory(now);
        out.events.insert(0, ElectionEvent::AnswerWaitSkipped);
        out
    }

    fn other_members(&self) -> Vec<PeerId> {
        self.members
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect()
    }

    fn declare_victory(&mut self, now: SimTime) -> Output {
        self.obs_conclude(self.me, now);
        self.coordinator = Some(self.me);
        self.phase = Phase::Idle;
        self.epoch += 1;
        self.last_concluded = Some(now);
        Output {
            sends: self
                .other_members()
                .into_iter()
                .map(|p| (p, ElectionMsg::Coordinator { from: self.me }))
                .collect(),
            timers: Vec::new(),
            events: vec![ElectionEvent::CoordinatorElected(self.me)],
        }
    }
}

impl ElectionProtocol for BullyNode {
    fn me(&self) -> PeerId {
        self.me
    }

    fn coordinator(&self) -> Option<PeerId> {
        self.coordinator
    }

    fn start_election(&mut self, now: SimTime) -> Output {
        if self.phase != Phase::Idle {
            // an election is already in flight; let it finish
            return Output::none();
        }
        if let (Some(concluded), Some(coord)) = (self.last_concluded, self.coordinator) {
            // an election just settled on a coordinator; don't storm —
            // unless the detector has buried that coordinator since
            if !self.suspects.contains(&coord)
                && concluded <= now
                && now.since(concluded) < self.config.cooldown
            {
                return Output::none();
            }
        }
        self.elections_started += 1;
        self.obs_begin(now);
        let higher = self.unsuspected_higher();
        if higher.is_empty() {
            return if self.members.last() == Some(&self.me) {
                self.declare_victory(now)
            } else {
                self.declare_victory_unanswered(now)
            };
        }
        self.phase = Phase::AwaitingAnswers;
        self.epoch += 1;
        Output {
            sends: higher
                .into_iter()
                .map(|p| (p, ElectionMsg::Election { from: self.me }))
                .collect(),
            timers: vec![TimerRequest {
                token: encode_token(self.epoch, KIND_ANSWER_WAIT),
                delay: self.config.answer_timeout,
            }],
            events: Vec::new(),
        }
    }

    fn on_message(&mut self, from: PeerId, msg: ElectionMsg, now: SimTime) -> Output {
        self.suspects.remove(&from); // a sign of life
        match msg {
            ElectionMsg::Election { from: initiator } => {
                debug_assert_eq!(from, initiator);
                let mut out = Output::none();
                if initiator < self.me {
                    // bully the lower peer, then make sure an election that
                    // includes us is running (rate-limited by the cooldown)
                    out.sends
                        .push((initiator, ElectionMsg::Answer { from: self.me }));
                    if self.coordinator == Some(self.me) {
                        // re-assert instead of re-electing
                        out.sends
                            .push((initiator, ElectionMsg::Coordinator { from: self.me }));
                    } else {
                        out.merge(self.start_election(now));
                    }
                }
                out
            }
            ElectionMsg::Answer { .. } => {
                if self.phase == Phase::AwaitingAnswers {
                    self.phase = Phase::AwaitingCoordinator;
                    self.epoch += 1;
                    Output {
                        sends: Vec::new(),
                        timers: vec![TimerRequest {
                            token: encode_token(self.epoch, KIND_COORD_WAIT),
                            delay: self.config.coordinator_timeout,
                        }],
                        events: Vec::new(),
                    }
                } else {
                    Output::none()
                }
            }
            ElectionMsg::Coordinator { from: coord } => {
                self.obs_conclude(coord, now);
                self.coordinator = Some(coord);
                self.phase = Phase::Idle;
                self.epoch += 1;
                self.last_concluded = Some(now);
                Output {
                    sends: Vec::new(),
                    timers: Vec::new(),
                    events: vec![ElectionEvent::CoordinatorElected(coord)],
                }
            }
            // Ring messages are not ours; ignore gracefully.
            ElectionMsg::RingElection { .. } | ElectionMsg::RingCoordinator { .. } => {
                Output::none()
            }
        }
    }

    fn on_timer(&mut self, token: u64, now: SimTime) -> Output {
        let (epoch, kind) = decode_token(token);
        if epoch != self.epoch {
            return Output::none(); // stale timer
        }
        match (kind, self.phase) {
            (KIND_ANSWER_WAIT, Phase::AwaitingAnswers) => {
                // nobody higher answered: we win
                self.declare_victory(now)
            }
            (KIND_COORD_WAIT, Phase::AwaitingCoordinator) => {
                // the higher peer that answered died before announcing;
                // clear the stale conclusion so the retry is not suppressed
                self.phase = Phase::Idle;
                self.epoch += 1;
                self.last_concluded = None;
                self.start_election(now)
            }
            _ => Output::none(),
        }
    }

    fn set_members(&mut self, members: &[PeerId]) {
        self.members = members.iter().copied().collect();
        self.members.insert(self.me);
    }

    fn remove_member(&mut self, peer: PeerId) {
        if peer != self.me {
            self.members.remove(&peer);
            if self.coordinator == Some(peer) {
                self.coordinator = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn ids(ns: &[u64]) -> Vec<PeerId> {
        ns.iter().map(|&n| PeerId::new(n)).collect()
    }

    fn node(me: u64, members: &[u64]) -> BullyNode {
        BullyNode::new(PeerId::new(me), ids(members), BullyConfig::default())
    }

    #[test]
    fn highest_wins_immediately() {
        let mut n = node(3, &[1, 2, 3]);
        let out = n.start_election(t0());
        assert_eq!(out.sends.len(), 2);
        assert!(out.sends.iter().all(
            |(_, m)| matches!(m, ElectionMsg::Coordinator { from } if *from == PeerId::new(3))
        ));
        assert!(n.is_coordinator());
        assert_eq!(n.elections_started(), 1);
    }

    #[test]
    fn lower_peer_queries_higher_and_wins_on_silence() {
        let mut n = node(1, &[1, 2, 3]);
        let out = n.start_election(t0());
        // elections go to 2 and 3 only
        assert_eq!(out.sends.len(), 2);
        assert!(out
            .sends
            .iter()
            .all(|(to, m)| { *to > PeerId::new(1) && matches!(m, ElectionMsg::Election { .. }) }));
        assert_eq!(out.timers.len(), 1);
        // silence: the answer timer fires
        let out2 = n.on_timer(out.timers[0].token, t0());
        assert!(n.is_coordinator());
        assert_eq!(
            out2.events,
            vec![ElectionEvent::CoordinatorElected(PeerId::new(1))]
        );
        // Coordinator goes to everyone else
        assert_eq!(out2.sends.len(), 2);
    }

    #[test]
    fn answer_suppresses_then_coordinator_arrives() {
        let mut n = node(1, &[1, 2, 3]);
        let out = n.start_election(t0());
        let answer_token = out.timers[0].token;
        let out = n.on_message(
            PeerId::new(3),
            ElectionMsg::Answer {
                from: PeerId::new(3),
            },
            t0(),
        );
        assert_eq!(out.timers.len(), 1);
        let coord_token = out.timers[0].token;
        // stale answer timer is ignored
        assert_eq!(n.on_timer(answer_token, t0()), Output::none());
        // the higher peer announces
        let out = n.on_message(
            PeerId::new(3),
            ElectionMsg::Coordinator {
                from: PeerId::new(3),
            },
            t0(),
        );
        assert_eq!(
            out.events,
            vec![ElectionEvent::CoordinatorElected(PeerId::new(3))]
        );
        assert_eq!(n.coordinator(), Some(PeerId::new(3)));
        // stale coordinator timer is ignored
        assert_eq!(n.on_timer(coord_token, t0()), Output::none());
    }

    #[test]
    fn coordinator_silence_restarts_election() {
        let mut n = node(1, &[1, 2]);
        let _ = n.start_election(t0());
        let out = n.on_message(
            PeerId::new(2),
            ElectionMsg::Answer {
                from: PeerId::new(2),
            },
            t0(),
        );
        let coord_token = out.timers[0].token;
        // peer 2 never announces; the coordinator-wait timer fires
        let out = n.on_timer(coord_token, t0());
        // a fresh election to peer 2 starts
        assert_eq!(out.sends.len(), 1);
        assert!(matches!(out.sends[0].1, ElectionMsg::Election { .. }));
        assert_eq!(n.elections_started(), 2);
    }

    #[test]
    fn election_from_lower_peer_is_bullied() {
        let mut n = node(2, &[1, 2, 3]);
        let out = n.on_message(
            PeerId::new(1),
            ElectionMsg::Election {
                from: PeerId::new(1),
            },
            t0(),
        );
        // answers the lower peer AND forwards the election upward
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == PeerId::new(1) && matches!(m, ElectionMsg::Answer { .. })));
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == PeerId::new(3) && matches!(m, ElectionMsg::Election { .. })));
    }

    #[test]
    fn duplicate_start_while_electing_is_noop() {
        let mut n = node(1, &[1, 2]);
        let first = n.start_election(t0());
        assert!(!first.sends.is_empty());
        assert_eq!(n.start_election(t0()), Output::none());
        assert_eq!(n.elections_started(), 1);
    }

    #[test]
    fn membership_updates_affect_victory() {
        let mut n = node(2, &[1, 2, 3]);
        n.remove_member(PeerId::new(3));
        let out = n.start_election(t0());
        // 2 is now the highest: immediate victory, announcement to 1 only
        assert!(n.is_coordinator());
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, PeerId::new(1));
    }

    #[test]
    fn removing_dead_coordinator_clears_belief() {
        let mut n = node(1, &[1, 2]);
        let _ = n.on_message(
            PeerId::new(2),
            ElectionMsg::Coordinator {
                from: PeerId::new(2),
            },
            t0(),
        );
        assert_eq!(n.coordinator(), Some(PeerId::new(2)));
        n.remove_member(PeerId::new(2));
        assert_eq!(n.coordinator(), None);
    }

    #[test]
    fn set_members_always_includes_self() {
        let mut n = node(5, &[5]);
        n.set_members(&ids(&[1, 2]));
        assert_eq!(n.members().collect::<Vec<_>>(), ids(&[1, 2, 5]));
    }

    #[test]
    fn recorder_traces_election_runs() {
        let rec = Recorder::new();
        let mut n = node(1, &[1, 2]);
        n.set_recorder(rec.clone());
        let out = n.start_election(t0());
        assert_eq!(rec.open_span_count(), 1, "run open while awaiting answers");
        let _ = n.on_timer(out.timers[0].token, SimTime::from_micros(1_000_000));
        assert!(n.is_coordinator());
        assert_eq!(rec.open_span_count(), 0);
        assert_eq!(rec.counter("election.started"), 1);
        assert_eq!(rec.counter("election.concluded"), 1);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "election.run");
        assert_eq!(spans[0].duration(), Some(SimDuration::from_secs(1)));
        // the paper's re-election delay lands in the duration histogram
        let h = rec.duration_histogram("election.duration").unwrap();
        assert_eq!(h.max(), Some(SimDuration::from_secs(1)));
    }

    fn skipped_then_elected(me: u64) -> Vec<ElectionEvent> {
        vec![
            ElectionEvent::AnswerWaitSkipped,
            ElectionEvent::CoordinatorElected(PeerId::new(me)),
        ]
    }

    #[test]
    fn suspected_higher_peer_is_neither_probed_nor_awaited() {
        let mut n = node(2, &[1, 2, 3]);
        assert_eq!(n.set_suspects(ids(&[3]), t0()), Output::none());
        let out = n.start_election(t0());
        assert!(n.is_coordinator(), "won at once");
        assert!(out.timers.is_empty());
        assert_eq!(out.events, skipped_then_elected(2));
        // the announcement still goes to everyone, the suspect included
        assert_eq!(out.sends.len(), 2);
        assert!(out
            .sends
            .iter()
            .all(|(_, m)| matches!(m, ElectionMsg::Coordinator { .. })));
    }

    #[test]
    fn later_suspect_update_cuts_the_answer_wait_short() {
        let mut n = node(2, &[1, 2, 3]);
        // the lower survivor's sweep came first: its Election reaches us
        // before our own detector has swept
        let out = n.on_message(
            PeerId::new(1),
            ElectionMsg::Election {
                from: PeerId::new(1),
            },
            t0(),
        );
        assert_eq!(out.timers.len(), 1, "waiting for peer 3's answer");
        let answer_token = out.timers[0].token;
        assert!(!n.is_coordinator());
        // our sweep, up to one heartbeat later
        let out = n.set_suspects(ids(&[3]), SimTime::from_micros(50_000));
        assert!(n.is_coordinator());
        assert_eq!(out.events, skipped_then_elected(2));
        // the wait's timer is stale now
        assert_eq!(n.on_timer(answer_token, t0()), Output::none());
        // and a sweep outside an election concludes nothing
        assert_eq!(n.set_suspects(ids(&[3]), t0()), Output::none());
    }

    #[test]
    fn unsuspected_higher_peer_still_gets_the_full_answer_wait() {
        let mut n = node(1, &[1, 2, 3]);
        let _ = n.set_suspects(ids(&[3]), t0());
        let out = n.start_election(t0());
        // only the peer believed alive is probed, and waited for
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, PeerId::new(2));
        assert_eq!(out.timers.len(), 1);
        assert_eq!(out.timers[0].delay, BullyConfig::default().answer_timeout);
        // re-stating the same suspicion does not end the wait
        assert_eq!(n.set_suspects(ids(&[3]), t0()), Output::none());
        assert!(!n.is_coordinator());
        // silence for the whole answer_timeout does, the old way
        let out = n.on_timer(out.timers[0].token, t0());
        assert_eq!(
            out.events,
            vec![ElectionEvent::CoordinatorElected(PeerId::new(1))]
        );
    }

    #[test]
    fn cooldown_does_not_shield_a_coordinator_the_detector_has_buried() {
        let mut n = node(2, &[1, 2, 3]);
        let crowned = ElectionMsg::Coordinator {
            from: PeerId::new(3),
        };
        let _ = n.on_message(PeerId::new(3), crowned, t0());
        let soon = SimTime::from_micros(60_000);
        // a stray start inside the cooldown is still swallowed
        assert_eq!(n.start_election(soon), Output::none());
        // the coordinator dies right after it was crowned, and the
        // detector (link evidence: one beacon period) says so
        let _ = n.set_suspects(ids(&[3]), soon);
        let out = n.start_election(soon);
        assert!(n.is_coordinator(), "elected inside the cooldown");
        assert_eq!(out.events, skipped_then_elected(2));
    }

    #[test]
    fn sign_of_life_clears_the_suspicion() {
        let mut n = node(2, &[1, 2, 3]);
        let _ = n.set_suspects(ids(&[3]), t0());
        // peer 3 is heard from after all (anything it sends counts)
        let _ = n.on_message(
            PeerId::new(3),
            ElectionMsg::Answer {
                from: PeerId::new(3),
            },
            t0(),
        );
        let out = n.start_election(SimTime::from_micros(1));
        assert!(!n.is_coordinator(), "peer 3 is probed and awaited again");
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, PeerId::new(3));
        assert_eq!(out.timers.len(), 1);
    }

    #[test]
    fn ring_messages_ignored() {
        let mut n = node(1, &[1, 2]);
        let out = n.on_message(
            PeerId::new(2),
            ElectionMsg::RingCoordinator {
                origin: PeerId::new(2),
                coordinator: PeerId::new(2),
            },
            t0(),
        );
        assert_eq!(out, Output::none());
    }
}

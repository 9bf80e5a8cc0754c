//! The discovery service: publish/query of advertisements.
//!
//! A sans-io state machine: calls return the messages to transmit
//! ([`Send`]) and the events to surface ([`DiscoveryEvent`]); the hosting
//! actor performs the IO. Two remote-query strategies are provided:
//!
//! * [`DiscoveryStrategy::Flood`] — queries go to every known peer, each of
//!   which answers from its local cache (JXTA's basic discovery);
//! * [`DiscoveryStrategy::Rendezvous`] — publications and queries are sent
//!   to a designated rendezvous peer that indexes the network (JXTA's
//!   rendezvous protocol). The discovery-cost ablation (experiment E8)
//!   compares the two.

use crate::advertisement::{AdvFilter, Advertisement, PipeAdv};
use crate::{AdvKind, DiscoveryCache, GroupId, PeerId, PipeId};
use std::collections::BTreeSet;
use whisper_obs::Recorder;
use whisper_simnet::{SimDuration, SimTime};
use whisper_wire::{Decode, Encode, Reader, WireError};

/// Correlates queries with their responses.
pub type QueryId = u64;

/// A protocol message of the P2P substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum P2pMessage {
    /// Ask for advertisements matching a filter.
    Query {
        /// Correlation id, unique per origin.
        id: QueryId,
        /// What is being searched.
        filter: AdvFilter,
        /// The peer that issued the query (responses go back to it).
        origin: PeerId,
    },
    /// Answer to a [`P2pMessage::Query`].
    Response {
        /// Correlation id of the query.
        id: QueryId,
        /// Matching advertisements from the responder's cache.
        advs: Vec<Advertisement>,
    },
    /// Push an advertisement into the receiver's cache.
    Publish {
        /// The advertisement.
        adv: Advertisement,
        /// Requested lifetime.
        lifetime: SimDuration,
    },
    /// Liveness beacon within a b-peer group.
    Heartbeat {
        /// The group this heartbeat belongs to.
        group: GroupId,
        /// The sending peer.
        from: PeerId,
    },
}

impl P2pMessage {
    /// Exact serialized size in bytes: `self.encode().len()`.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    /// Metric label.
    pub fn kind(&self) -> &'static str {
        match self {
            P2pMessage::Query { .. } => "discovery-query",
            P2pMessage::Response { .. } => "discovery-response",
            P2pMessage::Publish { .. } => "publish",
            P2pMessage::Heartbeat { .. } => "heartbeat",
        }
    }
}

impl Encode for P2pMessage {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            P2pMessage::Query { id, filter, origin } => {
                out.push(0);
                id.encode_into(out);
                filter.encode_into(out);
                origin.encode_into(out);
            }
            P2pMessage::Response { id, advs } => {
                out.push(1);
                id.encode_into(out);
                advs.encode_into(out);
            }
            P2pMessage::Publish { adv, lifetime } => {
                out.push(2);
                adv.encode_into(out);
                lifetime.encode_into(out);
            }
            P2pMessage::Heartbeat { group, from } => {
                out.push(3);
                group.encode_into(out);
                from.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            P2pMessage::Query { id, filter, origin } => {
                id.encoded_len() + filter.encoded_len() + origin.encoded_len()
            }
            P2pMessage::Response { id, advs } => id.encoded_len() + advs.encoded_len(),
            P2pMessage::Publish { adv, lifetime } => adv.encoded_len() + lifetime.encoded_len(),
            P2pMessage::Heartbeat { group, from } => group.encoded_len() + from.encoded_len(),
        }
    }
}

impl Decode for P2pMessage {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(P2pMessage::Query {
                id: QueryId::decode_from(r)?,
                filter: AdvFilter::decode_from(r)?,
                origin: PeerId::decode_from(r)?,
            }),
            1 => Ok(P2pMessage::Response {
                id: QueryId::decode_from(r)?,
                advs: Vec::decode_from(r)?,
            }),
            2 => Ok(P2pMessage::Publish {
                adv: Advertisement::decode_from(r)?,
                lifetime: SimDuration::decode_from(r)?,
            }),
            3 => Ok(P2pMessage::Heartbeat {
                group: GroupId::decode_from(r)?,
                from: PeerId::decode_from(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "P2pMessage",
                tag,
            }),
        }
    }
}

/// An outgoing transmission requested by the state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Send {
    /// Destination peer.
    pub to: PeerId,
    /// The message to transmit.
    pub msg: P2pMessage,
}

/// An event surfaced to the hosting actor.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryEvent {
    /// A response to one of our queries arrived.
    Results {
        /// The query being answered.
        query: QueryId,
        /// The advertisements it returned.
        advs: Vec<Advertisement>,
    },
}

/// How remote queries and publications travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryStrategy {
    /// Query every known peer directly.
    Flood,
    /// Publish to and query a rendezvous peer that indexes the network.
    Rendezvous(PeerId),
}

/// Per-peer discovery state: local cache, known peers and query bookkeeping.
///
/// # Examples
///
/// ```
/// use whisper_p2p::{AdvFilter, Advertisement, DiscoveryService, DiscoveryStrategy, PeerAdv, PeerId};
/// use whisper_simnet::{SimDuration, SimTime};
///
/// let me = PeerId::new(0);
/// let other = PeerId::new(1);
/// let mut disco = DiscoveryService::new(me, DiscoveryStrategy::Flood);
/// disco.add_known_peer(other);
///
/// let adv = Advertisement::Peer(PeerAdv { peer: me, name: "me".into(), group: None });
/// let now = SimTime::ZERO;
/// let out = disco.publish(adv, SimDuration::from_secs(60), now);
/// assert!(out.is_empty()); // flood strategy publishes only locally
/// assert_eq!(disco.local_lookup(&AdvFilter::any(), now).len(), 1);
///
/// let (qid, sends) = disco.remote_query(AdvFilter::any(), now);
/// assert_eq!(sends.len(), 1); // one query to `other`
/// # let _ = qid;
/// ```
#[derive(Debug, Clone)]
pub struct DiscoveryService {
    me: PeerId,
    strategy: DiscoveryStrategy,
    cache: DiscoveryCache,
    known: BTreeSet<PeerId>,
    next_query: u64,
    /// Lifetime applied to advertisements learned from responses.
    pub learned_lifetime: SimDuration,
    /// Optional observability recorder; `None` costs nothing.
    obs: Option<Recorder>,
}

impl DiscoveryService {
    /// Creates the discovery state for peer `me`.
    pub fn new(me: PeerId, strategy: DiscoveryStrategy) -> Self {
        DiscoveryService {
            me,
            strategy,
            cache: DiscoveryCache::new(),
            known: BTreeSet::new(),
            next_query: 0,
            learned_lifetime: SimDuration::from_secs(120),
            obs: None,
        }
    }

    /// Installs an observability recorder: discovery activity is counted
    /// as `discovery.queries` / `discovery.answered` /
    /// `discovery.responses` / `discovery.publishes`.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = Some(rec);
    }

    fn obs_incr(&self, name: &'static str) {
        if let Some(rec) = &self.obs {
            rec.incr(name, 1);
        }
    }

    /// This peer's id.
    pub fn peer_id(&self) -> PeerId {
        self.me
    }

    /// The configured strategy.
    pub fn strategy(&self) -> DiscoveryStrategy {
        self.strategy
    }

    /// Registers a peer as a flood target. Self is ignored.
    pub fn add_known_peer(&mut self, peer: PeerId) {
        if peer != self.me {
            self.known.insert(peer);
        }
    }

    /// Forgets a peer (e.g. when the failure detector declares it dead).
    pub fn remove_known_peer(&mut self, peer: PeerId) {
        self.known.remove(&peer);
    }

    /// Currently known peers, in id order.
    pub fn known_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.known.iter().copied()
    }

    /// Read access to the local cache.
    pub fn cache(&self) -> &DiscoveryCache {
        &self.cache
    }

    /// Publishes an advertisement: inserts it into the local cache and, in
    /// rendezvous mode, pushes it to the rendezvous peer. Returns the
    /// messages to transmit.
    pub fn publish(
        &mut self,
        adv: Advertisement,
        lifetime: SimDuration,
        now: SimTime,
    ) -> Vec<Send> {
        self.obs_incr("discovery.publishes");
        self.cache.insert(adv.clone(), now + lifetime);
        match self.strategy {
            DiscoveryStrategy::Rendezvous(r) if r != self.me => {
                vec![Send {
                    to: r,
                    msg: P2pMessage::Publish { adv, lifetime },
                }]
            }
            _ => Vec::new(),
        }
    }

    /// JXTA's `getLocalAdvertisements`: consult only the local cache.
    ///
    /// This is the *owned* (cloning) variant, needed when the results
    /// outlive the cache borrow — e.g. handing them to a response message.
    /// Each call is counted as `discovery.cache_clones` so hot paths can
    /// assert they never pay for it; prefer
    /// [`DiscoveryService::local_lookup_iter`] on the request path.
    pub fn local_lookup(&self, filter: &AdvFilter, now: SimTime) -> Vec<Advertisement> {
        self.obs_incr("discovery.cache_clones");
        self.cache.lookup_owned(filter, now)
    }

    /// Borrowing variant of [`DiscoveryService::local_lookup`]: iterates
    /// live matching advertisements without building a `Vec` or cloning,
    /// yielding each advertisement with its expiry time.
    pub fn local_lookup_iter<'a>(
        &'a self,
        filter: &'a AdvFilter,
        now: SimTime,
    ) -> impl Iterator<Item = (&'a Advertisement, SimTime)> + 'a {
        self.cache.iter_live(filter, now)
    }

    /// The local cache's mutation epoch ([`DiscoveryCache::epoch`]).
    /// Derived results (e.g. the proxy's semantic-match memo) are valid
    /// only while this value is unchanged.
    pub fn cache_epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// JXTA's `getRemoteAdvertisements`: issue a network query per the
    /// strategy. Returns the query id (to correlate the eventual
    /// [`DiscoveryEvent::Results`]) and the messages to transmit.
    pub fn remote_query(&mut self, filter: AdvFilter, _now: SimTime) -> (QueryId, Vec<Send>) {
        self.obs_incr("discovery.queries");
        let id = self.next_query;
        self.next_query += 1;
        let msg = |to: PeerId| Send {
            to,
            msg: P2pMessage::Query {
                id,
                filter: filter.clone(),
                origin: self.me,
            },
        };
        let sends = match self.strategy {
            DiscoveryStrategy::Flood => self.known.iter().map(|&p| msg(p)).collect(),
            DiscoveryStrategy::Rendezvous(r) if r != self.me => vec![msg(r)],
            DiscoveryStrategy::Rendezvous(_) => Vec::new(), // we are the rendezvous
        };
        (id, sends)
    }

    /// Feeds an incoming message into the state machine.
    ///
    /// Returns messages to transmit and events for the hosting actor.
    /// Heartbeats are not discovery traffic and pass through untouched
    /// (feed them to a [`FailureDetector`](crate::FailureDetector)).
    pub fn handle_message(
        &mut self,
        from: PeerId,
        msg: P2pMessage,
        now: SimTime,
    ) -> (Vec<Send>, Vec<DiscoveryEvent>) {
        match msg {
            P2pMessage::Query { id, filter, origin } => {
                self.obs_incr("discovery.answered");
                let advs = self.cache.lookup_owned(&filter, now);
                let reply = Send {
                    to: origin,
                    msg: P2pMessage::Response { id, advs },
                };
                (vec![reply], Vec::new())
            }
            P2pMessage::Response { id, advs } => {
                self.obs_incr("discovery.responses");
                // Cache what we learned, like JXTA's discovery listener.
                for adv in &advs {
                    self.cache.insert(adv.clone(), now + self.learned_lifetime);
                }
                (
                    Vec::new(),
                    vec![DiscoveryEvent::Results { query: id, advs }],
                )
            }
            P2pMessage::Publish { adv, lifetime } => {
                let _ = from;
                self.cache.insert(adv, now + lifetime);
                (Vec::new(), Vec::new())
            }
            P2pMessage::Heartbeat { .. } => (Vec::new(), Vec::new()),
        }
    }

    /// Collects expired cache entries.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.cache.expire(now)
    }

    /// Binds the receiving end of a pipe to this peer and publishes the
    /// corresponding [`PipeAdv`]: JXTA's "create input pipe". Returns the
    /// messages to transmit: the rendezvous push, if configured, and one
    /// [`P2pMessage::Publish`] of the same advertisement to each peer in
    /// `announce_to` — the senders known to hold the pipe's previous
    /// binding, who would otherwise only re-resolve after a timeout.
    pub fn bind_input_pipe(
        &mut self,
        pipe: PipeId,
        name: impl Into<String>,
        lifetime: SimDuration,
        now: SimTime,
        announce_to: &[PeerId],
    ) -> Vec<Send> {
        let adv = Advertisement::Pipe(PipeAdv {
            pipe,
            name: name.into(),
            owner: self.me,
        });
        let mut sends = self.publish(adv.clone(), lifetime, now);
        sends.extend(announce_to.iter().map(|&to| Send {
            to,
            msg: P2pMessage::Publish {
                adv: adv.clone(),
                lifetime,
            },
        }));
        sends
    }

    /// Resolves a pipe by name against the local cache: JXTA's "create
    /// output pipe" fast path. Whisper's proxy-to-coordinator binding is
    /// exactly this resolution; a dead owner means the pipe must be
    /// re-resolved after re-publication (the paper's re-binding cost).
    pub fn resolve_pipe(&self, name: &str, now: SimTime) -> Option<PipeAdv> {
        let mut filter = AdvFilter::of_kind(AdvKind::Pipe);
        filter.name = Some(name.to_string());
        self.cache
            .lookup(&filter, now)
            .into_iter()
            .filter_map(Advertisement::as_pipe)
            .next()
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advertisement::{PeerAdv, SemanticAdv};
    use whisper_xml::QName;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn padv(n: u64) -> Advertisement {
        Advertisement::Peer(PeerAdv {
            peer: PeerId::new(n),
            name: format!("p{n}"),
            group: None,
        })
    }

    fn sem(group: u64, action: &str) -> Advertisement {
        Advertisement::Semantic(SemanticAdv {
            group: GroupId::new(group),
            name: format!("g{group}"),
            action: QName::with_ns("urn:u", action),
            inputs: vec![],
            outputs: vec![],
            qos: None,
        })
    }

    #[test]
    fn flood_query_targets_all_known_peers() {
        let mut d = DiscoveryService::new(PeerId::new(0), DiscoveryStrategy::Flood);
        for n in 1..=4 {
            d.add_known_peer(PeerId::new(n));
        }
        d.add_known_peer(PeerId::new(0)); // self ignored
        let (id, sends) = d.remote_query(AdvFilter::any(), t(0));
        assert_eq!(sends.len(), 4);
        assert!(sends.iter().all(|s| matches!(
            &s.msg,
            P2pMessage::Query { id: qid, origin, .. } if *qid == id && *origin == PeerId::new(0)
        )));
        // ids increment
        let (id2, _) = d.remote_query(AdvFilter::any(), t(0));
        assert_eq!(id2, id + 1);
    }

    #[test]
    fn rendezvous_publish_and_query_route_to_rendezvous() {
        let rdv = PeerId::new(9);
        let mut d = DiscoveryService::new(PeerId::new(1), DiscoveryStrategy::Rendezvous(rdv));
        let out = d.publish(padv(1), SimDuration::from_secs(10), t(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, rdv);
        assert!(matches!(out[0].msg, P2pMessage::Publish { .. }));

        let (_, sends) = d.remote_query(AdvFilter::any(), t(0));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].to, rdv);
    }

    #[test]
    fn rendezvous_itself_publishes_and_queries_locally() {
        let rdv = PeerId::new(9);
        let mut d = DiscoveryService::new(rdv, DiscoveryStrategy::Rendezvous(rdv));
        assert!(d
            .publish(padv(9), SimDuration::from_secs(10), t(0))
            .is_empty());
        let (_, sends) = d.remote_query(AdvFilter::any(), t(0));
        assert!(sends.is_empty());
    }

    #[test]
    fn query_answered_from_cache_and_results_learned() {
        let now = t(0);
        let mut responder = DiscoveryService::new(PeerId::new(2), DiscoveryStrategy::Flood);
        responder.publish(
            sem(1, "StudentInformation"),
            SimDuration::from_secs(60),
            now,
        );
        responder.publish(sem(2, "Other"), SimDuration::from_secs(60), now);

        let mut asker = DiscoveryService::new(PeerId::new(1), DiscoveryStrategy::Flood);
        asker.add_known_peer(PeerId::new(2));
        let filter = AdvFilter::semantic_action(QName::with_ns("urn:u", "StudentInformation"));
        let (qid, sends) = asker.remote_query(filter, now);

        // deliver to responder
        let (replies, evs) = responder.handle_message(PeerId::new(1), sends[0].msg.clone(), now);
        assert!(evs.is_empty());
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].to, PeerId::new(1));

        // deliver response back
        let (out, evs) = asker.handle_message(PeerId::new(2), replies[0].msg.clone(), now);
        assert!(out.is_empty());
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            DiscoveryEvent::Results { query, advs } => {
                assert_eq!(*query, qid);
                assert_eq!(advs.len(), 1);
                assert_eq!(advs[0].name(), "g1");
            }
        }
        // learned adv is now in the asker's local cache
        assert_eq!(asker.local_lookup(&AdvFilter::any(), now).len(), 1);
    }

    #[test]
    fn empty_response_still_correlates() {
        let now = t(0);
        let mut responder = DiscoveryService::new(PeerId::new(2), DiscoveryStrategy::Flood);
        let mut asker = DiscoveryService::new(PeerId::new(1), DiscoveryStrategy::Flood);
        asker.add_known_peer(PeerId::new(2));
        let (qid, sends) = asker.remote_query(AdvFilter::named("nothing"), now);
        let (replies, _) = responder.handle_message(PeerId::new(1), sends[0].msg.clone(), now);
        let (_, evs) = asker.handle_message(PeerId::new(2), replies[0].msg.clone(), now);
        assert_eq!(
            evs,
            vec![DiscoveryEvent::Results {
                query: qid,
                advs: vec![]
            }]
        );
    }

    #[test]
    fn expiry_flows_through() {
        let mut d = DiscoveryService::new(PeerId::new(0), DiscoveryStrategy::Flood);
        d.publish(padv(1), SimDuration::from_micros(10), t(0));
        assert_eq!(d.local_lookup(&AdvFilter::any(), t(5)).len(), 1);
        assert_eq!(d.local_lookup(&AdvFilter::any(), t(20)).len(), 0);
        assert_eq!(d.expire(t(20)), 1);
        assert!(d.cache().is_empty());
    }

    #[test]
    fn heartbeats_pass_through_silently() {
        let mut d = DiscoveryService::new(PeerId::new(0), DiscoveryStrategy::Flood);
        let (out, evs) = d.handle_message(
            PeerId::new(1),
            P2pMessage::Heartbeat {
                group: GroupId::new(1),
                from: PeerId::new(1),
            },
            t(0),
        );
        assert!(out.is_empty() && evs.is_empty());
    }

    #[test]
    fn message_sizes_and_kinds() {
        let q = P2pMessage::Query {
            id: 0,
            filter: AdvFilter::any(),
            origin: PeerId::new(0),
        };
        let r = P2pMessage::Response {
            id: 0,
            advs: vec![sem(1, "A"), sem(2, "B")],
        };
        assert_eq!(q.kind(), "discovery-query");
        assert_eq!(r.kind(), "discovery-response");
        assert!(r.wire_size() > q.wire_size());
        assert_eq!(
            P2pMessage::Heartbeat {
                group: GroupId::new(1),
                from: PeerId::new(0)
            }
            .kind(),
            "heartbeat"
        );
    }

    #[test]
    fn remove_known_peer_shrinks_flood_set() {
        let mut d = DiscoveryService::new(PeerId::new(0), DiscoveryStrategy::Flood);
        d.add_known_peer(PeerId::new(1));
        d.add_known_peer(PeerId::new(2));
        d.remove_known_peer(PeerId::new(1));
        assert_eq!(d.known_peers().collect::<Vec<_>>(), vec![PeerId::new(2)]);
        let (_, sends) = d.remote_query(AdvFilter::any(), t(0));
        assert_eq!(sends.len(), 1);
    }

    #[test]
    fn pipes_bind_and_resolve() {
        let me = PeerId::new(4);
        let mut d = DiscoveryService::new(me, DiscoveryStrategy::Flood);
        assert!(d.resolve_pipe("requests", t(0)).is_none());
        let out = d.bind_input_pipe(
            PipeId::new(9),
            "requests",
            SimDuration::from_secs(30),
            t(0),
            &[],
        );
        assert!(out.is_empty(), "flood publishes locally");
        let adv = d.resolve_pipe("requests", t(0)).expect("bound");
        assert_eq!(adv.owner, me);
        assert_eq!(adv.pipe, PipeId::new(9));
        // expired binding resolves to nothing
        assert!(d.resolve_pipe("requests", t(31_000_000)).is_none());
        // rebinding by another peer replaces the advertisement
        let (_, _) = (0, 0);
        let learned = Advertisement::Pipe(PipeAdv {
            pipe: PipeId::new(9),
            name: "requests".into(),
            owner: PeerId::new(7),
        });
        let (out, _) = d.handle_message(
            PeerId::new(7),
            P2pMessage::Publish {
                adv: learned,
                lifetime: SimDuration::from_secs(30),
            },
            t(31_000_000),
        );
        assert!(out.is_empty());
        assert_eq!(
            d.resolve_pipe("requests", t(31_000_001))
                .expect("rebound")
                .owner,
            PeerId::new(7)
        );
    }

    #[test]
    fn recorder_counts_discovery_activity() {
        let rec = Recorder::new();
        let mut d = DiscoveryService::new(PeerId::new(0), DiscoveryStrategy::Flood);
        d.set_recorder(rec.clone());
        d.add_known_peer(PeerId::new(1));
        d.publish(padv(1), SimDuration::from_secs(10), t(0));
        let (_, sends) = d.remote_query(AdvFilter::any(), t(0));
        let _ = d.handle_message(
            PeerId::new(1),
            P2pMessage::Response {
                id: 0,
                advs: vec![],
            },
            t(0),
        );
        let _ = d.handle_message(PeerId::new(1), sends[0].msg.clone(), t(0));
        assert_eq!(rec.counter("discovery.publishes"), 1);
        assert_eq!(rec.counter("discovery.queries"), 1);
        assert_eq!(rec.counter("discovery.responses"), 1);
        assert_eq!(rec.counter("discovery.answered"), 1);
    }

    #[test]
    fn borrowed_lookup_is_clone_free_and_epoch_moves_on_publish() {
        let rec = Recorder::new();
        let mut d = DiscoveryService::new(PeerId::new(0), DiscoveryStrategy::Flood);
        d.set_recorder(rec.clone());
        let e0 = d.cache_epoch();
        d.publish(sem(1, "A"), SimDuration::from_secs(60), t(0));
        assert!(d.cache_epoch() > e0, "publish bumps the cache epoch");

        let filter = AdvFilter::of_kind(AdvKind::Semantic);
        assert_eq!(d.local_lookup_iter(&filter, t(0)).count(), 1);
        assert_eq!(rec.counter("discovery.cache_clones"), 0);

        assert_eq!(d.local_lookup(&filter, t(0)).len(), 1);
        assert_eq!(rec.counter("discovery.cache_clones"), 1);
    }

    #[test]
    fn pipe_publication_reaches_the_rendezvous() {
        let rdv = PeerId::new(9);
        let mut d = DiscoveryService::new(PeerId::new(1), DiscoveryStrategy::Rendezvous(rdv));
        let out = d.bind_input_pipe(PipeId::new(1), "p", SimDuration::from_secs(5), t(0), &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, rdv);
    }

    #[test]
    fn pipe_binding_is_announced_to_the_named_senders() {
        let me = PeerId::new(2);
        let mut d = DiscoveryService::new(me, DiscoveryStrategy::Flood);
        let senders = [PeerId::new(100), PeerId::new(101)];
        let out = d.bind_input_pipe(
            PipeId::new(1),
            "p",
            SimDuration::from_secs(5),
            t(0),
            &senders,
        );
        assert_eq!(out.iter().map(|s| s.to).collect::<Vec<_>>(), senders);
        for s in &out {
            let P2pMessage::Publish { adv, lifetime } = &s.msg else {
                panic!("not a publish: {:?}", s.msg);
            };
            assert_eq!(adv.as_pipe().expect("pipe adv").owner, me);
            assert_eq!(*lifetime, SimDuration::from_secs(5));
        }
        // the advertisement a receiver caches is the one bound locally
        assert_eq!(d.resolve_pipe("p", t(0)).expect("bound").owner, me);
    }
}

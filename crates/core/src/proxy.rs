//! The SWS-proxy actor: the bridge between a semantic Web service and its
//! b-peer back end.
//!
//! "When a Web service receives a request it forwards it to the Semantic
//! Web Service proxy. Proxies contact the JXTA infrastructure and using the
//! Discovery Service locate a semantic group of peers that can satisfy the
//! client's request" (paper, section 3.2). The proxy here implements the
//! whole pipeline:
//!
//! 1. parse the client's SOAP request and identify the operation;
//! 2. find a semantic b-peer group whose advertisement matches the
//!    operation's WSDL-S semantics (local cache first, then a remote
//!    discovery query);
//! 3. enumerate the group's members (peer advertisements) and bind to the
//!    presumed coordinator;
//! 4. forward the request; follow [`WhisperMsg::PeerRedirect`]s; when a
//!    newly elected coordinator announces the group's pipe, **re-bind** to
//!    it and move what was pending at its predecessor; failing that, on
//!    timeout, re-bind by re-querying the members and trying the next
//!    candidate (the paper's costly failover path);
//! 5. relay the response (or a `<soap:fault>` after exhausting attempts)
//!    back to the client.

use crate::deadline::DeadlineQueue;
use crate::directory::Directory;
use crate::matchmaker;
use crate::msg::WhisperMsg;
use crate::pulse::{self, PulseConfig};
use crate::qos::{PeerHealth, QosMonitor, SelectionPolicy};
use crate::trace;
use rand::RngCore;
use std::collections::HashMap;
use whisper_obs::{
    FlightHandle, NodeRole, NodeSnapshot, OutlierTrace, PulseEmitter, PulseSpan, Recorder,
    RequestId, TailSampler,
};
use whisper_ontology::Ontology;
use whisper_p2p::{
    AdvFilter, AdvKind, Advertisement, DiscoveryService, DiscoveryStrategy, GroupId, P2pMessage,
    PeerId, QueryId, SemanticAdv,
};
use whisper_simnet::{Actor, Context, Histogram, Metrics, NodeId, SimDuration, SimTime, Wire};
use whisper_soap::{BodyKind, Envelope, Fault, FaultCode};
use whisper_wsdl::{OperationSemantics, ServiceDescription};

/// Tuning knobs of an SWS-proxy.
///
/// # Examples
///
/// ```
/// use whisper::{ProxyConfig, SelectionPolicy};
/// use whisper_simnet::SimDuration;
///
/// let cfg = ProxyConfig {
///     policy: SelectionPolicy::Adaptive,
///     request_timeout: SimDuration::from_millis(500),
///     ..ProxyConfig::default()
/// };
/// assert_eq!(cfg.policy, SelectionPolicy::Adaptive);
/// ```
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Discovery strategy (must match the deployment's).
    pub strategy: DiscoveryStrategy,
    /// How candidate groups are chosen among acceptable matches.
    pub policy: SelectionPolicy,
    /// How long to wait for a b-peer response (or a discovery response)
    /// before assuming failure.
    pub request_timeout: SimDuration,
    /// Delay before retrying when a group exists but has no coordinator
    /// yet (election in progress).
    pub retry_backoff: SimDuration,
    /// Attempts (including re-binds and retries) before giving up with a
    /// `<soap:fault>`.
    pub max_attempts: u32,
    /// The longest wait, counted from the first useful response to a group
    /// query, for the queried peers that have not answered yet. Selection
    /// runs as soon as every queried peer has answered, so the window only
    /// bounds a peer that never does (dead, cut off, or its frame lost);
    /// a longer one lets a slow peer's groups compete in QoS-aware
    /// selection. Zero selects on the first response.
    pub gather_window: SimDuration,
    /// End-to-end budget per request, measured from the moment the client
    /// request reached the proxy. Once exceeded, the retry/re-bind ladder
    /// stops and the client gets a fault immediately instead of burning
    /// further attempts a caller has already given up on. `None` (the
    /// default) disables the budget.
    pub deadline: Option<SimDuration>,
    /// Fail-slow threshold: when a peer's smoothed response latency
    /// exceeds this, the proxy demotes it — drops its binding, marks it
    /// suspect for [`fail_slow_cooldown`](Self::fail_slow_cooldown) and
    /// re-binds to the next group member with `delegated` forwards, all
    /// without waiting for a timeout or an election. `None` (the default)
    /// disables gray detection.
    pub fail_slow_after: Option<SimDuration>,
    /// How long a demoted peer stays suspect before it may earn traffic
    /// back. On expiry its latency history is reset, so re-demotion needs
    /// fresh evidence.
    pub fail_slow_cooldown: SimDuration,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            strategy: DiscoveryStrategy::Flood,
            policy: SelectionPolicy::default(),
            request_timeout: SimDuration::from_millis(2000),
            retry_backoff: SimDuration::from_millis(300),
            max_attempts: 10,
            gather_window: SimDuration::from_millis(250),
            deadline: None,
            fail_slow_after: None,
            fail_slow_cooldown: SimDuration::from_secs(5),
        }
    }
}

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Remote discovery queries issued.
    pub discoveries: u64,
    /// Times a group's binding moved: dropped when a request timed out on
    /// the bound peer, or replaced on a coordinator's announcement. Counts
    /// bindings moved, not the requests moved with them.
    pub rebinds: u64,
    /// Redirects followed to reach a coordinator.
    pub redirects_followed: u64,
    /// Responses relayed to clients (faults included).
    pub responses_forwarded: u64,
    /// Requests answered with a proxy-generated fault.
    pub faults_generated: u64,
    /// Client requests recognised as duplicates of one already in flight
    /// or recently answered (the answered ones are re-served from cache).
    pub duplicate_requests: u64,
    /// B-peer responses for requests no longer pending — late replies
    /// crossing a retry, or chaos-duplicated frames. Dropped, never
    /// forwarded: the client sees each request answered exactly once.
    pub duplicate_responses: u64,
    /// Proactive demotions of fail-slow peers (gray re-binds that needed
    /// no timeout and no election).
    pub fail_slow_rebinds: u64,
    /// Requests faulted because their end-to-end deadline budget ran out.
    pub deadline_faults: u64,
}

/// Sizes of the proxy's per-request bookkeeping, for leak checks: all
/// zero once every accepted request was answered and one
/// `request_timeout` has passed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyBacklog {
    /// Requests accepted and not yet answered.
    pub pending: usize,
    /// Discovery queries still mapped to a request.
    pub queries: usize,
    /// Client request ids pinned against duplicate execution.
    pub inflight_clients: usize,
    /// Timeout deadlines not yet swept (finished attempts included).
    pub deadlines: usize,
}

/// The peer a group is currently bound to, plus how to address it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Binding {
    peer: PeerId,
    /// Forwards carry `delegated: true`: the target executes the request
    /// itself instead of redirecting to the coordinator this binding
    /// bypasses.
    delegated: bool,
    /// The presumed coordinator a delegated binding is shadowing; once it
    /// is no longer suspect the binding is dropped so traffic returns.
    shadows: Option<PeerId>,
}

/// Whether `peer` is currently under a fail-slow demotion cooldown.
/// A free function (not a method) so it can run while a pending entry
/// holds a mutable borrow of another field.
fn peer_suspect(suspects: &HashMap<PeerId, SimTime>, peer: PeerId, now: SimTime) -> bool {
    suspects.get(&peer).is_some_and(|&until| now < until)
}

/// Picks the member to bind from a sorted, non-empty member list: the
/// Bully winner (highest id) when healthy, otherwise the highest
/// non-suspect member, addressed with `delegated` forwards that shadow
/// the suspect coordinator. An all-suspect group falls back to the
/// coordinator — a demotion must never strand a request entirely. The
/// untried remainder is handed to `stash` (the pending entry's candidate
/// list for crash re-binds).
fn pick_target(
    members: &mut Vec<PeerId>,
    suspects: &HashMap<PeerId, SimTime>,
    now: SimTime,
    stash: impl FnOnce(Vec<PeerId>),
) -> (PeerId, bool, Option<PeerId>) {
    let presumed = *members.last().expect("non-empty");
    let idx = members
        .iter()
        .rposition(|m| !peer_suspect(suspects, *m, now))
        .unwrap_or(members.len() - 1);
    let target = members.remove(idx);
    stash(std::mem::take(members));
    if target == presumed {
        (target, false, None)
    } else {
        (target, true, Some(presumed))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum PendingState {
    /// Waiting for semantic advertisements (group discovery).
    AwaitGroups(QueryId),
    /// Waiting for peer advertisements of the chosen group.
    AwaitMembers(QueryId, GroupId),
    /// Waiting for the bound peer to answer.
    AwaitResponse(PeerId),
    /// Backing off before retrying (election in progress on the group).
    Backoff(GroupId),
}

#[derive(Debug)]
struct Pending {
    client_node: NodeId,
    client_request_id: u64,
    operation: String,
    envelope: String,
    attempts: u32,
    state: PendingState,
    /// Members of the bound group we have not tried yet this attempt wave.
    candidates: Vec<PeerId>,
    /// Semantic advertisements gathered while the gather window is open.
    gathered: Vec<SemanticAdv>,
    /// Whether the gather timer is armed for the current group query.
    gathering: bool,
    /// Peers the current group query went to that have not answered it
    /// yet; once it is empty the answer set is complete and the gather
    /// closes without waiting out the window.
    unanswered: Vec<PeerId>,
    /// Groups this request already exhausted (every known member dead);
    /// excluded from subsequent selections so a stale cached advertisement
    /// cannot trap the request on a dead group.
    failed_groups: Vec<GroupId>,
    /// Peers that failed to answer this request; never retried for it.
    dead_peers: Vec<PeerId>,
    /// The group this request is currently targeting.
    group: Option<GroupId>,
    /// When the client request reached the proxy (for QoS measurement).
    started_at: SimTime,
    /// When the request was last forwarded to a b-peer. QoS measurements
    /// use this, not `started_at`, so discovery cost (a proxy concern)
    /// does not pollute the *group's* observed latency.
    forwarded_at: Option<SimTime>,
    /// The traced request this pending entry belongs to, when a recorder
    /// is installed.
    obs_req: Option<RequestId>,
}

/// Purpose bits of proxy timer tokens. `PURPOSE_TIMEOUT` is the one
/// sweep timer of the request-timeout queue (request and attempt bits
/// zero: the queue, not the token, says whose deadline came); the other
/// three are armed per use.
const PURPOSE_PULSE: u64 = 0;
const PURPOSE_TIMEOUT: u64 = 1;
const PURPOSE_BACKOFF: u64 = 2;
const PURPOSE_GATHER: u64 = 3;

/// Outlier traces buffered between pulse frames; beyond this, further
/// sampled requests of the interval are dropped (bounded memory).
const MAX_PENDING_OUTLIERS: usize = 16;

/// Recently-answered client requests kept for duplicate re-serving
/// (bounded memory; beyond this the oldest answer is forgotten and a very
/// late duplicate would be processed as a fresh request — the client's
/// own dedup still protects it).
const ANSWERED_CAP: usize = 128;

/// Token layout: 44 bits of request id | 18 bits of attempt | 2 bits of
/// purpose. Fields are masked so an out-of-range value can only alias
/// within its own field, never corrupt a neighbouring one (a request id
/// overflow would otherwise cancel timers of an unrelated request).
const TOKEN_ATTEMPT_MASK: u64 = 0x3_ffff;
const TOKEN_REQUEST_MASK: u64 = (1 << 44) - 1;

fn token(request_id: u64, attempt: u32, purpose: u64) -> u64 {
    debug_assert!(purpose <= 0b11, "purpose {purpose} exceeds its 2-bit field");
    debug_assert!(
        request_id <= TOKEN_REQUEST_MASK,
        "request id {request_id} exceeds its 44-bit token field"
    );
    debug_assert!(
        u64::from(attempt) <= TOKEN_ATTEMPT_MASK,
        "attempt {attempt} exceeds its 18-bit token field"
    );
    ((request_id & TOKEN_REQUEST_MASK) << 20)
        | ((u64::from(attempt) & TOKEN_ATTEMPT_MASK) << 2)
        | (purpose & 0b11)
}

fn untoken(t: u64) -> (u64, u32, u64) {
    (t >> 20, ((t >> 2) & TOKEN_ATTEMPT_MASK) as u32, t & 0b11)
}

/// The semantic Web service endpoint plus its SWS-proxy, deployed on one
/// node.
pub struct SwsProxyActor {
    peer: PeerId,
    directory: Directory,
    disco: DiscoveryService,
    ontology: Ontology,
    semantics: HashMap<String, OperationSemantics>,
    bindings: HashMap<GroupId, Binding>,
    pending: HashMap<u64, Pending>,
    /// `request_timeout` deadlines of every forward and discovery query,
    /// in arm order, keyed by (request id, attempt).
    timeouts: DeadlineQueue,
    queries: HashMap<QueryId, u64>,
    next_request: u64,
    config: ProxyConfig,
    stats: ProxyStats,
    monitor: QosMonitor,
    /// Per-peer latency EWMAs feeding the fail-slow detector.
    peer_health: PeerHealth,
    /// Demoted peers and when their cooldown expires. Entries are checked
    /// against the clock on use, so an expired suspicion is inert even
    /// before it is pruned.
    suspects: HashMap<PeerId, SimTime>,
    /// In-flight client requests by (client node, client request id):
    /// a chaos-duplicated request joins the existing pending entry
    /// instead of spawning a second pipeline (and a second reply).
    inflight_clients: HashMap<(NodeId, u64), u64>,
    /// Recently answered client requests with their response envelopes;
    /// a duplicate arriving after completion is re-served from here.
    answered: std::collections::VecDeque<((NodeId, u64), String)>,
    /// Memoized semantic-match rankings, keyed on the discovery cache
    /// epoch: the warm request path skips ontology matching entirely.
    memo: matchmaker::SemanticMatchCache,
    obs: Option<Recorder>,
    /// Per-kind traffic counters for the introspection snapshot.
    tx: Metrics,
    rx: Metrics,
    /// Telemetry plane: where/how often to push [`WhisperMsg::PulseReport`]s.
    pulse: Option<PulseConfig>,
    pulse_emitter: PulseEmitter,
    /// Tail sampler deciding which requests' span trees ride the next frame.
    sampler: TailSampler,
    /// End-to-end request latency as the proxy sees it (client in → SOAP
    /// response out), including discovery and re-binds.
    local_rtt: Histogram,
    outlier_buf: Vec<OutlierTrace>,
    /// Always-on flight recorder ("whisper-flight"): bind/re-bind
    /// decisions recorded into the same Lamport-stamped ring the
    /// transport writes message events to.
    flight: Option<FlightHandle>,
}

impl SwsProxyActor {
    /// Creates a proxy serving `service`, whose WSDL-S annotations are
    /// resolved against `ontology` once, up front.
    ///
    /// # Panics
    ///
    /// Panics when an annotation does not resolve — a deployment that
    /// publishes dangling semantics is a configuration bug caught at build
    /// time by [`ScenarioWiring::wire`](crate::ScenarioWiring::wire), which
    /// validates first.
    pub fn new(
        peer: PeerId,
        service: &ServiceDescription,
        ontology: Ontology,
        directory: Directory,
        config: ProxyConfig,
    ) -> Self {
        let semantics = service
            .operations()
            .map(|op| {
                let sem = op
                    .resolve(&ontology)
                    .expect("service annotations must resolve against the deployment ontology");
                (op.name.clone(), sem)
            })
            .collect();
        SwsProxyActor {
            peer,
            disco: DiscoveryService::new(peer, config.strategy),
            directory,
            ontology,
            semantics,
            bindings: HashMap::new(),
            pending: HashMap::new(),
            timeouts: DeadlineQueue::new(config.request_timeout, token(0, 0, PURPOSE_TIMEOUT)),
            queries: HashMap::new(),
            next_request: 0,
            config,
            stats: ProxyStats::default(),
            monitor: QosMonitor::default(),
            peer_health: PeerHealth::default(),
            suspects: HashMap::new(),
            inflight_clients: HashMap::new(),
            answered: std::collections::VecDeque::new(),
            memo: matchmaker::SemanticMatchCache::new(),
            obs: None,
            tx: Metrics::new(),
            rx: Metrics::new(),
            pulse: None,
            pulse_emitter: PulseEmitter::new(),
            // Warm after 20 samples per window: pulse windows are short
            // (~100 ms), so a higher floor can leave the threshold unset
            // on a lightly loaded proxy and tails would never be flagged.
            sampler: TailSampler::new(20, 64),
            local_rtt: Histogram::new(),
            outlier_buf: Vec::new(),
            flight: None,
        }
    }

    /// Registers the peers this proxy may flood-query.
    pub fn add_known_peer(&mut self, peer: PeerId) {
        self.disco.add_known_peer(peer);
    }

    /// Installs an observability recorder; the proxy then records
    /// `proxy.request` / `proxy.discover` / `proxy.members` / `proxy.bind`
    /// / `proxy.invoke` spans for every request it serves, and installs
    /// the recorder into its discovery service too.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.disco.set_recorder(rec.clone());
        self.obs = Some(rec);
    }

    /// Joins the pulse telemetry plane: the proxy then pushes a
    /// [`WhisperMsg::PulseReport`] to `cfg.collector` every `cfg.interval`,
    /// carrying its counter/latency deltas plus the span trees of requests
    /// its tail sampler flagged.
    pub fn set_pulse(&mut self, cfg: PulseConfig) {
        self.pulse = Some(cfg);
    }

    /// Installs this node's flight recorder handle. The same handle must
    /// be installed into the substrate (`Spawner::set_flight_hook`) so
    /// protocol transitions and message traffic share one Lamport clock.
    pub fn set_flight(&mut self, flight: FlightHandle) {
        self.flight = Some(flight);
    }

    /// The recorder handle and traced-request id of a pending request.
    fn obs_of(&self, request_id: u64) -> Option<(Recorder, RequestId)> {
        let rec = self.obs.as_ref()?.clone();
        let req = self.pending.get(&request_id)?.obs_req?;
        Some((rec, req))
    }

    /// Closes every proxy-owned span of a finished request and retires its
    /// wire-id correlation. B-peer-owned spans (e.g. `backend.execute`) are
    /// deliberately left alone: an open one truthfully reports a b-peer
    /// that never finished.
    fn obs_finish(&self, rec: &Recorder, req: RequestId, request_id: u64, now: SimTime) {
        for name in [
            "proxy.invoke",
            "proxy.members",
            "proxy.discover",
            "proxy.request",
        ] {
            rec.end_named(req, name, now);
        }
        rec.unbind(trace::NS_PEER, trace::peer_key(self.peer, request_id));
    }

    /// Counters for experiments.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// How much per-request state the proxy is holding right now.
    pub fn backlog(&self) -> ProxyBacklog {
        ProxyBacklog {
            pending: self.pending.len(),
            queries: self.queries.len(),
            inflight_clients: self.inflight_clients.len(),
            deadlines: self.timeouts.len(),
        }
    }

    /// The observed-QoS measurements backing [`SelectionPolicy::Adaptive`].
    pub fn qos_monitor(&self) -> &QosMonitor {
        &self.monitor
    }

    /// This proxy's peer id.
    pub fn peer_id(&self) -> PeerId {
        self.peer
    }

    /// The group each operation is currently bound to (via its coordinator
    /// peer), for inspection in tests.
    pub fn binding_of(&self, group: GroupId) -> Option<PeerId> {
        self.bindings.get(&group).map(|b| b.peer)
    }

    /// Whether `group`'s current binding bypasses a fail-slow coordinator
    /// with delegated forwards.
    pub fn binding_is_delegated(&self, group: GroupId) -> bool {
        self.bindings.get(&group).is_some_and(|b| b.delegated)
    }

    /// The per-peer latency record backing the fail-slow detector.
    pub fn peer_health(&self) -> &PeerHealth {
        &self.peer_health
    }

    /// Demotes `peer` when the fail-slow detector is armed and its
    /// evidence crosses the configured threshold. Returns whether a
    /// demotion happened.
    fn maybe_trip_fail_slow(&mut self, now: SimTime, peer: PeerId) -> bool {
        let Some(threshold) = self.config.fail_slow_after else {
            return false;
        };
        if peer_suspect(&self.suspects, peer, now) {
            return false; // already serving a cooldown
        }
        // Expired cooldown: forget it (and the stale EWMA was already
        // reset at demotion time — evidence since then is fresh).
        self.suspects.retain(|_, &mut until| now < until);
        if !self.peer_health.is_fail_slow(peer, threshold) {
            return false;
        }
        self.suspects
            .insert(peer, now + self.config.fail_slow_cooldown);
        // Fresh evidence required before any re-demotion after cooldown.
        self.peer_health.reset(peer);
        self.stats.fail_slow_rebinds += 1;
        // Unbind every group routed through the demoted peer; the next
        // request re-binds around it.
        self.bindings.retain(|_, b| b.peer != peer);
        if let Some(flight) = &self.flight {
            flight.note_alert(now, format!("fail-slow p{}", peer.value()), true);
        }
        if let Some(rec) = &self.obs {
            rec.incr("proxy.fail_slow_rebinds", 1);
        }
        true
    }

    /// Faults the request when its end-to-end budget (if any) has run
    /// out; returns whether the request was retired. Checked at every
    /// rung of the retry/re-bind ladder, so a budget cannot be overshot
    /// by more than one timeout.
    fn deadline_exceeded(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        started_at: SimTime,
    ) -> bool {
        let Some(deadline) = self.config.deadline else {
            return false;
        };
        if ctx.now().since(started_at) < deadline {
            return false;
        }
        self.stats.deadline_faults += 1;
        if let Some(rec) = &self.obs {
            rec.incr("proxy.deadline_faults", 1);
        }
        self.reply_fault(
            ctx,
            request_id,
            FaultCode::Receiver,
            "request deadline exceeded".to_string(),
        );
        true
    }

    /// Drops the discovery query a request was still waiting on when it
    /// was answered or moved on, so `queries` cannot outgrow `pending`
    /// (a late response to it is ignored either way).
    fn forget_query(&mut self, request_id: u64, state: &PendingState) {
        if let PendingState::AwaitGroups(q) | PendingState::AwaitMembers(q, _) = *state {
            if self.queries.get(&q) == Some(&request_id) {
                self.queries.remove(&q);
            }
        }
    }

    /// Completes a client request: retires its in-flight dedup entry and
    /// remembers the answer so chaos-duplicated requests are re-served
    /// instead of re-executed.
    fn remember_answered(&mut self, key: (NodeId, u64), envelope: &str) {
        self.inflight_clients.remove(&key);
        self.answered.push_back((key, envelope.to_string()));
        if self.answered.len() > ANSWERED_CAP {
            self.answered.pop_front();
        }
    }

    /// The introspection snapshot served to [`WhisperMsg::ScopeRequest`]:
    /// cached group→coordinator bindings, in-flight request count, traffic
    /// counters and the obs registry dump.
    pub fn scope_snapshot(&self) -> NodeSnapshot {
        let mut snap = NodeSnapshot::empty(NodeRole::Proxy, self.peer.value());
        let mut bindings: Vec<(u64, u64)> = self
            .bindings
            .iter()
            .map(|(g, b)| (g.value(), b.peer.value()))
            .collect();
        bindings.sort_unstable();
        snap.bindings = bindings;
        snap.queue_depth = self.pending.len() as u64;
        snap.sent = self.tx.snapshot();
        snap.received = self.rx.snapshot();
        if let Some(rec) = &self.obs {
            snap.registry = rec.registry_dump();
        }
        snap
    }

    fn send_to_peer(&mut self, ctx: &mut Context<'_, WhisperMsg>, to: PeerId, msg: WhisperMsg) {
        self.tx.on_send(msg.kind(), msg.wire_size());
        crate::routing::send_routed(&self.directory, self.peer, ctx, to, msg);
    }

    /// Sends straight to a node (clients and probes are not in the peer
    /// directory), still counting the traffic.
    fn send_direct(&mut self, ctx: &mut Context<'_, WhisperMsg>, to: NodeId, msg: WhisperMsg) {
        self.tx.on_send(msg.kind(), msg.wire_size());
        ctx.send(to, msg);
    }

    /// Feeds a finished request into the pulse plane: records the
    /// end-to-end latency and, when the tail sampler keeps the request,
    /// buffers its span tree for the next frame.
    fn pulse_observe(&mut self, ctx: &mut Context<'_, WhisperMsg>, request_id: u64, p: &Pending) {
        if self.pulse.is_none() {
            return;
        }
        let now = ctx.now();
        let dur = now.since(p.started_at);
        self.local_rtt.record(dur);
        let us = dur.as_micros();
        let coin = ctx.rng().next_u64();
        if !self.sampler.observe(us, coin) || self.outlier_buf.len() >= MAX_PENDING_OUTLIERS {
            return;
        }
        let trace = match (&self.obs, p.obs_req) {
            (Some(rec), Some(req)) => pulse::capture_trace(rec, req, p.operation.clone(), us, now),
            // No recorder: a single synthetic span still places the request
            // on the timeline.
            _ => OutlierTrace {
                request: request_id,
                label: p.operation.clone(),
                total_us: us,
                spans: vec![PulseSpan {
                    id: 0,
                    parent: None,
                    name: "proxy.request".into(),
                    start_us: p.started_at.as_micros(),
                    end_us: now.as_micros(),
                }],
            },
        };
        self.outlier_buf.push(trace);
    }

    /// Builds and ships one telemetry frame, then re-arms the interval.
    fn emit_pulse(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let Some(cfg) = self.pulse else {
            return;
        };
        self.sampler.roll();
        let (mut counters, mut gauges, mut hists, spans_dropped) = match &self.obs {
            Some(rec) => rec.pulse_readings(),
            None => (Vec::new(), Vec::new(), Vec::new(), 0),
        };
        if self.obs.is_none() {
            // Without a recorder the frame still carries the proxy's own
            // counters (the recorder path reports these under the same
            // names, so they are only added once).
            counters.push(("proxy.requests".into(), self.next_request));
            counters.push(("proxy.faults".into(), self.stats.faults_generated));
            counters.push(("proxy.rebinds".into(), self.stats.rebinds));
            counters.push(("proxy.redirects".into(), self.stats.redirects_followed));
            counters.push((
                "proxy.duplicate_requests".into(),
                self.stats.duplicate_requests,
            ));
            counters.push((
                "proxy.duplicate_responses".into(),
                self.stats.duplicate_responses,
            ));
            counters.push((
                "proxy.fail_slow_rebinds".into(),
                self.stats.fail_slow_rebinds,
            ));
            counters.push(("proxy.deadline_faults".into(), self.stats.deadline_faults));
        }
        counters.push(("proxy.responses".into(), self.stats.responses_forwarded));
        counters.push(("proxy.discoveries".into(), self.stats.discoveries));
        counters.extend(pulse::traffic_counters(&self.tx, &self.rx));
        counters.sort();
        gauges.push(("proxy.pending".into(), self.pending.len() as i64));
        gauges.sort();
        hists.push(("proxy.rtt".into(), self.local_rtt.clone()));
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let delta = self.pulse_emitter.frame(
            ctx.now().as_micros(),
            cfg.interval.as_micros(),
            counters,
            gauges,
            hists,
            spans_dropped,
        );
        let outliers = std::mem::take(&mut self.outlier_buf);
        self.send_direct(
            ctx,
            cfg.collector,
            WhisperMsg::PulseReport {
                delta: Box::new(delta),
                outliers,
            },
        );
        ctx.set_timer(cfg.interval, token(0, 0, PURPOSE_PULSE));
    }

    fn reply_fault(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        code: FaultCode,
        reason: String,
    ) {
        let Some(p) = self.pending.remove(&request_id) else {
            return;
        };
        self.forget_query(request_id, &p.state);
        if let Some(g) = p.group {
            let measured_from = p.forwarded_at.unwrap_or(p.started_at);
            self.monitor
                .record_response(g, ctx.now().since(measured_from), true);
        }
        if let (Some(rec), Some(req)) = (&self.obs, p.obs_req) {
            rec.incr("proxy.faults", 1);
            self.obs_finish(rec, req, request_id, ctx.now());
        }
        self.pulse_observe(ctx, request_id, &p);
        self.stats.faults_generated += 1;
        self.stats.responses_forwarded += 1;
        let envelope = Envelope::fault(Fault::new(code, reason)).to_xml_string();
        self.remember_answered((p.client_node, p.client_request_id), &envelope);
        self.send_direct(
            ctx,
            p.client_node,
            WhisperMsg::SoapResponse {
                request_id: p.client_request_id,
                envelope,
            },
        );
    }

    /// Entry point: a SOAP request arrived from a client.
    fn handle_soap_request(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        client_node: NodeId,
        client_request_id: u64,
        envelope: String,
    ) {
        // Exactly-once gate: a duplicated delivery of a request already in
        // flight rides the existing pipeline; one answered recently is
        // re-served from the answer cache. Either way the b-peers see the
        // request once and the client is answered once per execution.
        let key = (client_node, client_request_id);
        if self.inflight_clients.contains_key(&key) {
            self.stats.duplicate_requests += 1;
            if let Some(rec) = &self.obs {
                rec.incr("proxy.duplicate_requests", 1);
            }
            return;
        }
        if let Some((_, cached)) = self.answered.iter().rev().find(|(k, _)| *k == key) {
            self.stats.duplicate_requests += 1;
            let resend = cached.clone();
            if let Some(rec) = &self.obs {
                rec.incr("proxy.duplicate_requests", 1);
            }
            self.send_direct(
                ctx,
                client_node,
                WhisperMsg::SoapResponse {
                    request_id: client_request_id,
                    envelope: resend,
                },
            );
            return;
        }
        let operation = match Envelope::parse(&envelope) {
            Ok(env) => match env.body_payload() {
                Some(p) => p.name.to_string(),
                None => {
                    self.stats.faults_generated += 1;
                    self.stats.responses_forwarded += 1;
                    let fault =
                        Envelope::fault(Fault::new(FaultCode::Sender, "request body is empty"))
                            .to_xml_string();
                    self.send_direct(
                        ctx,
                        client_node,
                        WhisperMsg::SoapResponse {
                            request_id: client_request_id,
                            envelope: fault,
                        },
                    );
                    return;
                }
            },
            Err(e) => {
                self.stats.faults_generated += 1;
                self.stats.responses_forwarded += 1;
                let fault =
                    Envelope::fault(Fault::new(FaultCode::Sender, format!("bad envelope: {e}")))
                        .to_xml_string();
                self.send_direct(
                    ctx,
                    client_node,
                    WhisperMsg::SoapResponse {
                        request_id: client_request_id,
                        envelope: fault,
                    },
                );
                return;
            }
        };
        let request_id = self.next_request;
        self.next_request += 1;
        self.inflight_clients.insert(key, request_id);
        let obs_req = self.obs.as_ref().map(|rec| {
            let now = ctx.now();
            // Join the client's trace when it announced itself; otherwise
            // (untraced client) the request is born here.
            let req = rec
                .lookup(
                    trace::NS_SOAP,
                    trace::soap_key(client_node, client_request_id),
                )
                .unwrap_or_else(|| rec.begin_request(format!("proxy {operation}"), now));
            let span = rec.start_span("proxy.request", req, now);
            rec.set_attr(span, "operation", operation.clone());
            rec.bind(trace::NS_PEER, trace::peer_key(self.peer, request_id), req);
            rec.incr("proxy.requests", 1);
            req
        });
        self.pending.insert(
            request_id,
            Pending {
                client_node,
                client_request_id,
                operation: operation.clone(),
                envelope,
                attempts: 0,
                state: PendingState::AwaitGroups(0),
                candidates: Vec::new(),
                gathered: Vec::new(),
                gathering: false,
                unanswered: Vec::new(),
                failed_groups: Vec::new(),
                dead_peers: Vec::new(),
                group: None,
                started_at: ctx.now(),
                forwarded_at: None,
                obs_req,
            },
        );
        if !self.semantics.contains_key(&operation) {
            self.reply_fault(
                ctx,
                request_id,
                FaultCode::Sender,
                format!("operation {operation:?} is not offered by this service"),
            );
            return;
        }
        self.advance_from_group_search(ctx, request_id);
    }

    /// Finds a group for the request: local cache first, then the network.
    ///
    /// The local pass is the proxy's hottest path and runs zero-copy: it
    /// ranks candidates straight off borrowed cache entries, and the
    /// ranking itself is memoized per operation on the discovery cache
    /// epoch — a warm repeat request performs no cache clone and no
    /// ontology matching at all.
    fn advance_from_group_search(&mut self, ctx: &mut Context<'_, WhisperMsg>, request_id: u64) {
        let now = ctx.now();
        let picked: Option<GroupId> = {
            let Some(p) = self.pending.get(&request_id) else {
                return;
            };
            let sem = &self.semantics[&p.operation];
            let epoch = self.disco.cache_epoch();
            let filter = AdvFilter::of_kind(AdvKind::Semantic);
            let disco = &self.disco;
            let ontology = &self.ontology;
            let obs = self.obs.as_ref();
            let failed = &p.failed_groups;
            let (ranked, hit) = self
                .memo
                .get_or_build(&p.operation, epoch, failed, now, || {
                    if let Some(rec) = obs {
                        rec.incr("proxy.semantic_matches", 1);
                    }
                    // Track the earliest expiry among *consulted* entries (not
                    // just acceptable ones): conservative, so TTL passage can
                    // only cause a harmless rebuild, never a stale hit.
                    let mut earliest = SimTime::from_micros(u64::MAX);
                    let ranked = matchmaker::rank_candidates(
                        ontology,
                        sem,
                        disco
                            .local_lookup_iter(&filter, now)
                            .map(|(a, expires)| {
                                if expires < earliest {
                                    earliest = expires;
                                }
                                a
                            })
                            .filter_map(Advertisement::as_semantic)
                            .filter(|a| !failed.contains(&a.group)),
                    );
                    (ranked, earliest)
                });
            if hit {
                if let Some(rec) = obs {
                    rec.incr("proxy.memo_hits", 1);
                }
            }
            matchmaker::select_from_ranked(ranked, self.config.policy, ctx.rng(), &self.monitor)
                .map(|i| ranked[i].adv.group)
        };
        if let Some(group) = picked {
            self.bind_or_find_members(ctx, request_id, group);
            return;
        }
        // Nothing usable locally: go to the network.
        let (qid, sends) = self
            .disco
            .remote_query(AdvFilter::of_kind(AdvKind::Semantic), now);
        self.stats.discoveries += 1;
        self.queries.insert(qid, request_id);
        if let Some((rec, req)) = self.obs_of(request_id) {
            // a re-discovery after a failed group supersedes the old span
            rec.end_named(req, "proxy.discover", now);
            let span = rec.start_span("proxy.discover", req, now);
            rec.set_attr(span, "query", qid);
            rec.bind(trace::NS_QUERY, qid, req);
        }
        let queried: Vec<PeerId> = sends.iter().map(|s| s.to).collect();
        for s in sends {
            self.send_to_peer(ctx, s.to, WhisperMsg::P2p(s.msg));
        }
        if let Some(p) = self.pending.get_mut(&request_id) {
            p.attempts += 1;
            p.state = PendingState::AwaitGroups(qid);
            p.unanswered = queried;
            self.timeouts.push(ctx, request_id, p.attempts);
        }
    }

    /// With a group chosen: bind to a member (cached binding, cached peer
    /// advertisements, or a member-discovery query).
    ///
    /// Runs over a single mutable borrow of the pending entry: the member
    /// scan filters borrowed cache entries against the borrowed dead-peer
    /// list, with no re-fetches and no clones.
    fn bind_or_find_members(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        group: GroupId,
    ) {
        let now = ctx.now();
        let mut filter = AdvFilter::of_kind(AdvKind::Peer);
        filter.group = Some(group);
        // A cached binding is reused unless its peer turned suspect, or it
        // was a fail-slow bypass whose shadowed coordinator has recovered;
        // either way the stale binding is dropped and the member scan runs.
        let cached = self.bindings.get(&group).copied();
        if let Some(b) = cached {
            let stale = peer_suspect(&self.suspects, b.peer, now)
                || b.shadows
                    .is_some_and(|c| !peer_suspect(&self.suspects, c, now));
            if stale {
                self.bindings.remove(&group);
            }
        }
        let target: Option<(PeerId, bool, Option<PeerId>)> = {
            let Some(p) = self.pending.get_mut(&request_id) else {
                return;
            };
            p.group = Some(group);
            if let Some(b) = self.bindings.get(&group) {
                Some((b.peer, b.delegated, b.shadows))
            } else {
                if let Some(rec) = &self.obs {
                    rec.incr("proxy.member_scans", 1);
                }
                let dead = &p.dead_peers;
                let mut members: Vec<PeerId> = self
                    .disco
                    .local_lookup_iter(&filter, now)
                    .filter_map(|(a, _)| match a {
                        Advertisement::Peer(pa) => Some(pa.peer),
                        _ => None,
                    })
                    .filter(|m| !dead.contains(m))
                    .collect();
                if members.is_empty() {
                    None
                } else {
                    members.sort();
                    Some(pick_target(&mut members, &self.suspects, now, |c| {
                        p.candidates = c;
                    }))
                }
            }
        };
        if let Some((target, delegated, shadows)) = target {
            self.forward_to_peer(ctx, request_id, target, group, delegated, shadows);
            return;
        }
        // No member knowledge: query the network for the group's peers.
        let (qid, sends) = self.disco.remote_query(filter, now);
        self.stats.discoveries += 1;
        self.queries.insert(qid, request_id);
        if let Some((rec, req)) = self.obs_of(request_id) {
            rec.end_named(req, "proxy.members", now);
            let span = rec.start_span("proxy.members", req, now);
            rec.set_attr(span, "group", group.value());
            rec.set_attr(span, "query", qid);
            rec.bind(trace::NS_QUERY, qid, req);
        }
        for s in sends {
            self.send_to_peer(ctx, s.to, WhisperMsg::P2p(s.msg));
        }
        if let Some(p) = self.pending.get_mut(&request_id) {
            p.attempts += 1;
            p.state = PendingState::AwaitMembers(qid, group);
            self.timeouts.push(ctx, request_id, p.attempts);
        }
    }

    fn forward_to_peer(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        target: PeerId,
        group: GroupId,
        delegated: bool,
        shadows: Option<PeerId>,
    ) {
        let Some((attempts_so_far, started_at)) = self
            .pending
            .get(&request_id)
            .map(|p| (p.attempts, p.started_at))
        else {
            return;
        };
        if attempts_so_far >= self.config.max_attempts {
            self.reply_fault(
                ctx,
                request_id,
                FaultCode::Receiver,
                "no live b-peer could process the request".to_string(),
            );
            return;
        }
        if self.deadline_exceeded(ctx, request_id, started_at) {
            return;
        }
        let p = self.pending.get_mut(&request_id).expect("checked above");
        p.attempts += 1;
        p.state = PendingState::AwaitResponse(target);
        p.forwarded_at = Some(ctx.now());
        let attempts = p.attempts;
        let envelope = p.envelope.clone();
        self.bindings.insert(
            group,
            Binding {
                peer: target,
                delegated,
                shadows,
            },
        );
        if let Some(flight) = &self.flight {
            // attempt 1 is the initial binding; later waves are re-binds
            // after a timeout or redirect
            flight.note_bind(
                ctx.now(),
                format!("group-{}", group.value()),
                target.value(),
                attempts > 1,
            );
        }
        if let Some((rec, req)) = self.obs_of(request_id) {
            let now = ctx.now();
            // a retry closes the previous attempt's invoke span first
            rec.end_named(req, "proxy.invoke", now);
            let bind = rec.instant("proxy.bind", req, now);
            rec.set_attr(bind, "peer", target.value());
            rec.set_attr(bind, "attempt", attempts as u64);
            let invoke = rec.start_span("proxy.invoke", req, now);
            rec.set_attr(invoke, "peer", target.value());
        }
        self.send_to_peer(
            ctx,
            target,
            WhisperMsg::PeerRequest {
                request_id,
                reply_to: self.peer,
                delegated,
                envelope,
            },
        );
        self.timeouts.push(ctx, request_id, attempts);
    }

    fn handle_discovery_results(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        responder: PeerId,
        query: QueryId,
        advs: Vec<Advertisement>,
    ) {
        let Some(&request_id) = self.queries.get(&query) else {
            return;
        };
        let Some(p) = self.pending.get_mut(&request_id) else {
            self.queries.remove(&query);
            return;
        };
        match p.state {
            PendingState::AwaitGroups(q) if q == query => {
                // Flood discovery returns one response per queried peer;
                // selection waits for all of them, so it sees the whole
                // network. The gather window, armed by the first useful
                // response, bounds the wait for a peer that never answers
                // (dead, cut off, or its frame lost). A complete answer
                // set closes the gather even when it holds nothing.
                p.gathered
                    .extend(advs.iter().filter_map(Advertisement::as_semantic).cloned());
                p.unanswered.retain(|&peer| peer != responder);
                if p.unanswered.is_empty() {
                    let attempt = p.attempts;
                    self.handle_gather_fired(ctx, request_id, attempt);
                } else if !p.gathered.is_empty() && !p.gathering {
                    p.gathering = true;
                    ctx.set_timer(
                        self.config.gather_window,
                        token(request_id, p.attempts, PURPOSE_GATHER),
                    );
                }
            }
            PendingState::AwaitMembers(q, group) if q == query => {
                let dead = &p.dead_peers;
                let mut members: Vec<PeerId> = advs
                    .iter()
                    .filter_map(|a| match a {
                        Advertisement::Peer(pa) if pa.group == Some(group) => Some(pa.peer),
                        _ => None,
                    })
                    .filter(|m| !dead.contains(m))
                    .collect();
                members.sort();
                members.dedup();
                if members.is_empty() {
                    // keep the query registered: a later response may
                    // still carry live members
                    return;
                }
                self.queries.remove(&query);
                let now = ctx.now();
                let (target, delegated, shadows) =
                    pick_target(&mut members, &self.suspects, now, |c| {
                        p.candidates = c;
                    });
                if let (Some(rec), Some(req)) = (&self.obs, p.obs_req) {
                    rec.end_named(req, "proxy.members", now);
                    rec.unbind(trace::NS_QUERY, query);
                }
                self.forward_to_peer(ctx, request_id, target, group, delegated, shadows);
            }
            _ => {
                self.queries.remove(&query);
            }
        }
    }

    fn handle_redirect(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        coordinator: Option<PeerId>,
    ) {
        let (old_target, group) = match self.pending.get(&request_id) {
            Some(p) => match p.state {
                PendingState::AwaitResponse(t) => (t, p.group),
                _ => return,
            },
            None => return,
        };
        if let Some((rec, req)) = self.obs_of(request_id) {
            let redirect = rec.instant("proxy.redirect", req, ctx.now());
            rec.set_attr(redirect, "from", old_target.value());
            if let Some(c) = coordinator {
                rec.set_attr(redirect, "coordinator", c.value());
            }
            rec.end_named(req, "proxy.invoke", ctx.now());
            rec.incr("proxy.redirects", 1);
        }
        match (coordinator, group) {
            (Some(c), Some(g)) if c != old_target => {
                self.stats.redirects_followed += 1;
                self.forward_to_peer(ctx, request_id, c, g, false, None);
            }
            (_, Some(g)) => {
                // No coordinator yet (election in flight) or a self-loop:
                // back off and retry.
                let p = self.pending.get_mut(&request_id).expect("checked above");
                p.state = PendingState::Backoff(g);
                let attempts = p.attempts;
                ctx.set_timer(
                    self.config.retry_backoff,
                    token(request_id, attempts, PURPOSE_BACKOFF),
                );
            }
            (_, None) => {
                self.reply_fault(
                    ctx,
                    request_id,
                    FaultCode::Receiver,
                    "binding lost during redirect".to_string(),
                );
            }
        }
    }

    fn handle_timeout(&mut self, ctx: &mut Context<'_, WhisperMsg>, request_id: u64, attempt: u32) {
        let Some(p) = self.pending.get(&request_id) else {
            return;
        };
        if p.attempts != attempt {
            return; // stale timer from an earlier attempt
        }
        let started_at = p.started_at;
        if self.deadline_exceeded(ctx, request_id, started_at) {
            return;
        }
        let p = self.pending.get(&request_id).expect("not retired above");
        if p.attempts >= self.config.max_attempts {
            self.reply_fault(
                ctx,
                request_id,
                FaultCode::Receiver,
                "request timed out after exhausting all b-peers".to_string(),
            );
            return;
        }
        match p.state {
            PendingState::AwaitGroups(_) => {
                // discovery produced nothing in time
                self.reply_fault(
                    ctx,
                    request_id,
                    FaultCode::Receiver,
                    "no semantic peer group matches the request".to_string(),
                );
            }
            PendingState::AwaitMembers(query, group) => {
                // No untried member answered: every member of this group is
                // dead as far as this request is concerned. Exclude the
                // group and search for an alternative.
                if let Some((rec, req)) = self.obs_of(request_id) {
                    rec.end_named(req, "proxy.members", ctx.now());
                }
                self.queries.remove(&query);
                if let Some(p) = self.pending.get_mut(&request_id) {
                    p.failed_groups.push(group);
                }
                self.advance_from_group_search(ctx, request_id);
            }
            PendingState::AwaitResponse(dead) => {
                // The bound peer is unresponsive: re-bind. Try the next
                // cached member; when none are left, re-discover members
                // (a new coordinator may have been elected meanwhile).
                if let Some((rec, req)) = self.obs_of(request_id) {
                    rec.end_named(req, "proxy.invoke", ctx.now());
                    rec.incr("proxy.attempt_timeouts", 1);
                }
                let p = self.pending.get_mut(&request_id).expect("checked above");
                p.dead_peers.push(dead);
                let Some(g) = p.group else {
                    self.advance_from_group_search(ctx, request_id);
                    return;
                };
                // The binding goes only while it points at a peer this
                // request found dead. Once the first timeout of a burst
                // (or an announcement) has moved it, the requests behind
                // follow the move instead of each dropping the good
                // binding and scanning the member cache again.
                let bound = self.bindings.get(&g).map(|b| b.peer);
                if bound.is_some_and(|b| !p.dead_peers.contains(&b)) {
                    self.bind_or_find_members(ctx, request_id, g);
                    return;
                }
                let next =
                    std::iter::from_fn(|| p.candidates.pop()).find(|c| !p.dead_peers.contains(c));
                if bound.is_some() {
                    self.bindings.remove(&g);
                    self.note_rebind();
                }
                match next {
                    Some(next_target) => {
                        self.forward_to_peer(ctx, request_id, next_target, g, false, None)
                    }
                    // Consult the caches / the network for members we
                    // have not tried yet; a new coordinator may exist.
                    None => self.bind_or_find_members(ctx, request_id, g),
                }
            }
            PendingState::Backoff(_) => {}
        }
    }

    /// Counts one binding move (dropped after a timeout, or replaced on an
    /// announcement).
    fn note_rebind(&mut self) {
        self.stats.rebinds += 1;
        if let Some(rec) = &self.obs {
            rec.incr("proxy.rebinds", 1);
        }
    }

    /// A coordinator announced that it now owns `group`'s request pipe.
    ///
    /// For a group this proxy has bound, that is a hint, never an order:
    /// the binding moves to the owner (unless the owner serves a fail-slow
    /// cooldown), and a wrong hint costs one [`WhisperMsg::PeerRedirect`].
    /// When the owner's id is *lower* than the bound peer's, the bound
    /// peer must be gone — under Bully a live higher peer would have won —
    /// so everything pending at it is forwarded again at once, each as one
    /// more attempt of the usual ladder. A *higher* owner is the old
    /// coordinator bullying back while the interim one still lives: its
    /// in-flight work will be answered, so only the binding moves.
    fn handle_pipe_announcement(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        group: GroupId,
        owner: PeerId,
    ) {
        let now = ctx.now();
        let announced = Binding {
            peer: owner,
            delegated: false,
            shadows: None,
        };
        let Some(bound) = self.bindings.get(&group).copied() else {
            return;
        };
        if bound == announced || peer_suspect(&self.suspects, owner, now) {
            return;
        }
        self.bindings.insert(group, announced);
        if bound.peer == owner {
            return; // a fail-slow bypass whose target now coordinates
        }
        self.note_rebind();
        if let Some(flight) = &self.flight {
            flight.note_bind(now, format!("group-{}", group.value()), owner.value(), true);
        }
        if owner > bound.peer {
            return;
        }
        let mut stranded: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.group == Some(group)
                    && p.state == PendingState::AwaitResponse(bound.peer)
                    && !p.dead_peers.contains(&owner)
            })
            .map(|(&id, _)| id)
            .collect();
        stranded.sort_unstable(); // map order must not leak into send order
        for request_id in stranded {
            if let Some(p) = self.pending.get_mut(&request_id) {
                p.dead_peers.push(bound.peer);
            }
            self.forward_to_peer(ctx, request_id, owner, group, false, None);
        }
    }

    /// Closes the gather of `attempt`'s group query and selects among what
    /// it gathered: when every queried peer has answered, or when the
    /// window runs out first. A window timer of an earlier query (one that
    /// closed early and was followed by a re-query) is stale and ignored.
    /// Nothing acceptable in a complete answer set faults the request at
    /// once; after a window a silent peer may still answer.
    fn handle_gather_fired(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        attempt: u32,
    ) {
        let picked: Option<(QueryId, GroupId)> = {
            let Some(p) = self.pending.get_mut(&request_id) else {
                return;
            };
            let PendingState::AwaitGroups(query) = p.state else {
                return;
            };
            if p.attempts != attempt {
                return;
            }
            p.gathering = false;
            let failed = &p.failed_groups;
            let candidates: Vec<SemanticAdv> = std::mem::take(&mut p.gathered)
                .into_iter()
                .filter(|a| !failed.contains(&a.group))
                .collect();
            let sem = &self.semantics[&p.operation];
            // Gathered network candidates are one-shot per query — a full
            // matching pass, never memoized.
            if let Some(rec) = self.obs.as_ref() {
                rec.incr("proxy.semantic_matches", 1);
            }
            matchmaker::select_candidate(
                &self.ontology,
                sem,
                &candidates,
                self.config.policy,
                ctx.rng(),
                &self.monitor,
            )
            .map(|idx| (query, candidates[idx].group))
        };
        let Some((query, group)) = picked else {
            if self
                .pending
                .get(&request_id)
                .is_some_and(|p| p.unanswered.is_empty())
            {
                self.reply_fault(
                    ctx,
                    request_id,
                    FaultCode::Receiver,
                    "no semantic peer group matches the request".to_string(),
                );
            }
            // otherwise keep waiting for more responses; the request
            // timeout faults if nothing acceptable ever shows up
            return;
        };
        self.queries.remove(&query);
        if let Some((rec, req)) = self.obs_of(request_id) {
            rec.end_named(req, "proxy.discover", ctx.now());
            rec.unbind(trace::NS_QUERY, query);
        }
        self.bind_or_find_members(ctx, request_id, group);
    }

    /// Ends the wait of a request that was redirected while its group had
    /// no coordinator, and binds it again. A timer of an earlier attempt is
    /// stale and ignored. The binding is dropped (and the member cache
    /// scanned) only while it points at a peer this request found dead: an
    /// announcement may have moved it to the new coordinator meanwhile.
    fn handle_backoff_fired(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        attempt: u32,
    ) {
        let Some(p) = self.pending.get(&request_id) else {
            return;
        };
        let PendingState::Backoff(group) = p.state else {
            return;
        };
        if p.attempts != attempt {
            return;
        }
        let bound = self.bindings.get(&group).map(|b| b.peer);
        if bound.is_some_and(|b| p.dead_peers.contains(&b)) {
            self.bindings.remove(&group);
            self.note_rebind();
        }
        self.bind_or_find_members(ctx, request_id, group);
    }
}

impl Actor<WhisperMsg> for SwsProxyActor {
    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        let Some((from, msg)) =
            crate::routing::unwrap_or_forward(&self.directory, self.peer, ctx, from, msg)
        else {
            return;
        };
        self.rx.on_send(msg.kind(), msg.wire_size());
        match msg {
            WhisperMsg::SoapRequest {
                request_id,
                envelope,
            } => {
                self.handle_soap_request(ctx, from, request_id, envelope);
            }
            WhisperMsg::P2p(m) => {
                let from_peer = self.directory.peer_of(from).unwrap_or(self.peer);
                // a pipe advertisement pushed by its own owner: the
                // group's new coordinator announcing itself (the pipe id
                // is the group's)
                let announced = match &m {
                    P2pMessage::Publish {
                        adv: Advertisement::Pipe(pipe),
                        ..
                    } if pipe.owner == from_peer => {
                        Some((GroupId::new(pipe.pipe.value()), pipe.owner))
                    }
                    _ => None,
                };
                let (sends, events) = self.disco.handle_message(from_peer, m, ctx.now());
                for s in sends {
                    self.send_to_peer(ctx, s.to, WhisperMsg::P2p(s.msg));
                }
                for ev in events {
                    let whisper_p2p::DiscoveryEvent::Results { query, advs } = ev;
                    self.handle_discovery_results(ctx, from_peer, query, advs);
                }
                if let Some((group, owner)) = announced {
                    self.handle_pipe_announcement(ctx, group, owner);
                }
            }
            WhisperMsg::PeerResponse {
                request_id,
                envelope,
            } => {
                if let Some(p) = self.pending.remove(&request_id) {
                    self.forget_query(request_id, &p.state);
                    self.stats.responses_forwarded += 1;
                    // Per-peer latency evidence: attribute the response to
                    // the peer it was forwarded to, so a fail-slow member
                    // is demoted on observation, not on timeout.
                    if let (PendingState::AwaitResponse(peer), Some(f)) = (&p.state, p.forwarded_at)
                    {
                        let peer = *peer;
                        self.peer_health.record_response(peer, ctx.now().since(f));
                        self.maybe_trip_fail_slow(ctx.now(), peer);
                    }
                    if let Some(g) = p.group {
                        let fault = Envelope::peek_body(&envelope)
                            .map(|body| body == BodyKind::Fault)
                            .unwrap_or(true);
                        let measured_from = p.forwarded_at.unwrap_or(p.started_at);
                        self.monitor
                            .record_response(g, ctx.now().since(measured_from), fault);
                    }
                    if let (Some(rec), Some(req)) = (&self.obs, p.obs_req) {
                        let now = ctx.now();
                        if let Some(f) = p.forwarded_at {
                            rec.record_duration("proxy.invoke", now.since(f));
                        }
                        rec.record_duration("proxy.request", now.since(p.started_at));
                        self.obs_finish(rec, req, request_id, now);
                    }
                    self.pulse_observe(ctx, request_id, &p);
                    self.remember_answered((p.client_node, p.client_request_id), &envelope);
                    self.send_direct(
                        ctx,
                        p.client_node,
                        WhisperMsg::SoapResponse {
                            request_id: p.client_request_id,
                            envelope,
                        },
                    );
                } else {
                    // A late reply crossing a retry, or a chaos-duplicated
                    // frame: the client was (or will be) answered by the
                    // winning copy; this one is dropped, not forwarded.
                    self.stats.duplicate_responses += 1;
                    if let Some(rec) = &self.obs {
                        rec.incr("proxy.duplicate_responses", 1);
                    }
                }
            }
            WhisperMsg::PeerRedirect {
                request_id,
                coordinator,
            } => {
                self.handle_redirect(ctx, request_id, coordinator);
            }
            WhisperMsg::ScopeRequest { request_id } => {
                let reply = WhisperMsg::ScopeResponse {
                    request_id,
                    snapshot: Box::new(self.scope_snapshot()),
                };
                match self.directory.peer_of(from) {
                    Some(peer) => self.send_to_peer(ctx, peer, reply),
                    None => self.send_direct(ctx, from, reply),
                }
            }
            // An empty-events dump is a collector's solicitation: answer
            // with this node's ring. Filled dumps are collector traffic.
            WhisperMsg::FlightDump {
                request_id, events, ..
            } if events.is_empty() => {
                let reply = WhisperMsg::FlightDump {
                    request_id,
                    node: self.peer.value(),
                    events: self
                        .flight
                        .as_ref()
                        .map(FlightHandle::snapshot)
                        .unwrap_or_default(),
                };
                match self.directory.peer_of(from) {
                    Some(peer) => self.send_to_peer(ctx, peer, reply),
                    None => self.send_direct(ctx, from, reply),
                }
            }
            // Proxies ignore election traffic, stray SOAP responses,
            // telemetry frames (only the collector consumes those), and
            // worker completions (b-peer-internal traffic).
            WhisperMsg::Election { .. }
            | WhisperMsg::SoapResponse { .. }
            | WhisperMsg::PeerRequest { .. }
            | WhisperMsg::ScopeResponse { .. }
            | WhisperMsg::Relayed { .. }
            | WhisperMsg::PulseReport { .. }
            | WhisperMsg::FlightDump { .. }
            | WhisperMsg::JobDone { .. } => {}
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        if let Some(cfg) = self.pulse {
            ctx.set_timer(cfg.interval, token(0, 0, PURPOSE_PULSE));
        }
    }

    /// A crash clears the node's timers but the proxy keeps its state, so
    /// every timer that state still counts on is armed again: the sweep
    /// for the surviving deadline queue (requests pending at the crash
    /// time out, re-bind or fault, and drain — overdue ones at once), the
    /// backoff of requests that were waiting out an election, and the
    /// pulse interval.
    fn on_restart(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        self.timeouts.arm(ctx);
        let mut backing_off: Vec<(u64, u32)> = self
            .pending
            .iter()
            .filter(|(_, p)| matches!(p.state, PendingState::Backoff(_)))
            .map(|(&id, p)| (id, p.attempts))
            .collect();
        backing_off.sort_unstable(); // map order must not leak into timer order
        for (request_id, attempts) in backing_off {
            ctx.set_timer(
                self.config.retry_backoff,
                token(request_id, attempts, PURPOSE_BACKOFF),
            );
        }
        self.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, t: u64) {
        let (request_id, attempt, purpose) = untoken(t);
        match purpose {
            PURPOSE_PULSE => self.emit_pulse(ctx),
            PURPOSE_TIMEOUT => loop {
                let pending = &self.pending;
                let due = self.timeouts.next_due(ctx, |id, attempt| {
                    pending.get(&id).is_some_and(|p| p.attempts == attempt)
                });
                let Some((request_id, attempt)) = due else {
                    break;
                };
                self.handle_timeout(ctx, request_id, attempt);
            },
            PURPOSE_BACKOFF => self.handle_backoff_fired(ctx, request_id, attempt),
            PURPOSE_GATHER => self.handle_gather_fired(ctx, request_id, attempt),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trip() {
        for (rid, att, purpose) in [
            (0u64, 0u32, PURPOSE_TIMEOUT),
            (17, 9, PURPOSE_BACKOFF),
            (1 << 30, 200_000, PURPOSE_TIMEOUT),
        ] {
            let t = token(rid, att, purpose);
            let (r, a, p) = untoken(t);
            assert_eq!((r, a, p), (rid, att & 0x3_ffff, purpose));
        }
    }

    #[test]
    fn token_fields_saturate_without_bleeding_into_neighbours() {
        // Every field simultaneously at its maximum round-trips exactly:
        // the packing masks keep each field inside its own bit range.
        let rid = TOKEN_REQUEST_MASK;
        let att = TOKEN_ATTEMPT_MASK as u32;
        for purpose in [
            PURPOSE_PULSE,
            PURPOSE_TIMEOUT,
            PURPOSE_BACKOFF,
            PURPOSE_GATHER,
        ] {
            let (r, a, p) = untoken(token(rid, att, purpose));
            assert_eq!((r, a, p), (rid, att, purpose));
        }
        // A saturated attempt never flips request-id bits: two tokens for
        // different requests stay distinct whatever the attempt counter is.
        assert_ne!(
            token(1, att, PURPOSE_TIMEOUT) >> 20,
            token(2, att, PURPOSE_TIMEOUT) >> 20
        );
    }

    #[test]
    fn proxy_construction_resolves_semantics() {
        let svc = whisper_wsdl::samples::student_management();
        let onto = whisper_ontology::samples::university_ontology();
        let proxy = SwsProxyActor::new(
            PeerId::new(0),
            &svc,
            onto,
            Directory::default(),
            ProxyConfig::default(),
        );
        assert_eq!(proxy.semantics.len(), 2);
        assert!(proxy.semantics.contains_key("StudentInformation"));
        assert_eq!(proxy.stats(), ProxyStats::default());
    }

    #[test]
    #[should_panic(expected = "must resolve")]
    fn dangling_annotations_panic_at_construction() {
        let svc = whisper_wsdl::samples::student_management();
        // wrong ontology: b2b doesn't define the university concepts
        let onto = whisper_ontology::samples::b2b_ontology();
        let _ = SwsProxyActor::new(
            PeerId::new(0),
            &svc,
            onto,
            Directory::default(),
            ProxyConfig::default(),
        );
    }
}

//! The b-peer actor: a replica of a service's business logic inside a
//! semantic b-peer group.
//!
//! B-peers (paper, section 4.2) implement the service functionality plus the
//! Bully election algorithm. Within a group all replicas are active (static
//! redundancy); the coordinator processes requests. Heartbeats form a star
//! around the coordinator — members beacon the coordinator, the coordinator
//! beacons the members — so steady-state chatter grows *linearly* with group
//! size, which is what the paper's Figure 4 observes.

use crate::backend::{BackendError, ServiceBackend};
use crate::directory::Directory;
use crate::msg::WhisperMsg;
use crate::pulse::{self, PulseConfig};
use crate::trace;
use whisper_election::{
    BullyConfig, BullyNode, ElectionEvent, ElectionMsg, ElectionProtocol, Output,
};
use whisper_obs::{
    AvailabilityLedger, ElectionView, FlightHandle, NodeRole, NodeSnapshot, PulseEmitter, Recorder,
    SpanId,
};
use whisper_p2p::{
    AdvKind, Advertisement, DiscoveryService, DiscoveryStrategy, FailureDetector, GroupId,
    P2pMessage, PeerAdv, PeerId, PipeId, SemanticAdv,
};
use whisper_simnet::{Actor, Context, Metrics, NodeId, SimDuration, SimTime, Wire};
use whisper_soap::{Envelope, Fault, FaultCode};

/// Timer tokens (election tokens live in the high half of the space).
const TOKEN_HEARTBEAT: u64 = 1;
const TOKEN_FD_CHECK: u64 = 2;
const TOKEN_REPUBLISH: u64 = 3;
const TOKEN_PULSE: u64 = 4;
const ELECTION_TOKEN_BASE: u64 = 1 << 63;
const RESPONSE_TOKEN_BASE: u64 = 1 << 62;

/// Most proxies a b-peer remembers as users of its group (the ones a new
/// coordinator announces itself to); further ones fall back to their
/// request timeout.
const MAX_KNOWN_PROXIES: usize = 8;

/// Tuning knobs of a b-peer.
///
/// # Examples
///
/// ```
/// use whisper::BPeerConfig;
/// use whisper_simnet::SimDuration;
///
/// // Aggressive failure detection (see the failover_sensitivity bench).
/// let cfg = BPeerConfig {
///     heartbeat_period: SimDuration::from_millis(100),
///     failure_timeout: SimDuration::from_millis(300),
///     ..BPeerConfig::default()
/// };
/// assert!(cfg.failure_timeout > cfg.heartbeat_period);
/// ```
#[derive(Debug, Clone)]
pub struct BPeerConfig {
    /// Heartbeat beacon period.
    pub heartbeat_period: SimDuration,
    /// Silence after which a peer is suspected dead.
    pub failure_timeout: SimDuration,
    /// Lifetime requested for published advertisements.
    pub adv_lifetime: SimDuration,
    /// Bully algorithm timeouts.
    pub bully: BullyConfig,
    /// Discovery strategy (must match the deployment's).
    pub strategy: DiscoveryStrategy,
    /// Time the replica needs to process one request. Requests queue behind
    /// each other (an M/D/1-style server), so offered load beyond
    /// `1/processing_time` saturates the replica — the knob behind the
    /// load-scalability experiment.
    pub processing_time: SimDuration,
    /// When set, the coordinator spreads requests round-robin over the live
    /// members instead of executing everything itself (the paper's
    /// "scalability requirements through load-sharing").
    pub load_share: bool,
    /// Parallel execution width ("whisper-surge"). `0` (the default) keeps
    /// backend execution inline on the actor loop. With `k > 0` and a
    /// replicable backend ([`ServiceBackend::replicate`]), the thread and
    /// TCP substrates offload execution onto `k` worker threads — requests
    /// complete out of order across clients (per-client order is
    /// preserved by sharding), and the actor loop stays free to answer
    /// heartbeats and elections while requests execute. On the
    /// deterministic simulator the same `k` widens the virtual-time server
    /// model instead: `processing_time` is served by `k` virtual servers,
    /// so E-load results stay exactly reproducible.
    pub workers: usize,
}

impl Default for BPeerConfig {
    /// Paper-era defaults: 500 ms heartbeats, 1.5 s failure timeout,
    /// 10 min advertisement lifetime.
    fn default() -> Self {
        BPeerConfig {
            heartbeat_period: SimDuration::from_millis(500),
            failure_timeout: SimDuration::from_millis(1500),
            adv_lifetime: SimDuration::from_secs(600),
            bully: BullyConfig::default(),
            strategy: DiscoveryStrategy::Flood,
            processing_time: SimDuration::ZERO,
            load_share: false,
            workers: 0,
        }
    }
}

/// Runs one serialized request envelope against a backend, free of any
/// actor state so workers can call it off-loop: parse, dispatch, wrap.
/// Returns the response envelope, whether the backend handled the request
/// (counts toward `requests_handled`), and whether it reported itself
/// unavailable (failover may still mask that with a delegation).
fn run_backend(backend: &mut dyn ServiceBackend, envelope: &str) -> (String, bool, bool) {
    let parsed = match Envelope::parse(envelope) {
        Ok(env) => env,
        Err(e) => {
            return (
                BPeerActor::fault_envelope(FaultCode::Sender, format!("unparseable request: {e}")),
                false,
                false,
            )
        }
    };
    let Some(payload) = parsed.body_payload() else {
        return (
            BPeerActor::fault_envelope(FaultCode::Sender, "empty request body".to_string()),
            false,
            false,
        );
    };
    let operation = payload.name.clone();
    match backend.handle(&operation, payload) {
        Ok(result) => (Envelope::request(result).to_xml_string(), true, false),
        Err(BackendError::Unavailable(what)) => (
            BPeerActor::fault_envelope(FaultCode::Receiver, format!("backend unavailable: {what}")),
            false,
            true,
        ),
        Err(
            e @ (BackendError::BadRequest(_)
            | BackendError::UnsupportedOperation(_)
            | BackendError::NotFound(_)),
        ) => (
            BPeerActor::fault_envelope(FaultCode::Sender, e.to_string()),
            false,
            false,
        ),
    }
}

/// One offloaded request on its way to a worker.
struct Job {
    job: u64,
    request_id: u64,
    envelope: String,
}

/// The parallel execution plane of one b-peer: `k` worker threads, each
/// owning an independent backend replica and a FIFO job queue. Completions
/// re-enter the actor loop as self-injected [`WhisperMsg::JobDone`]
/// messages, so all protocol state stays single-threaded.
struct WorkerPool {
    senders: Vec<std::sync::mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(
        replicas: Vec<Box<dyn ServiceBackend>>,
        injector: whisper_simnet::SelfInjector<WhisperMsg>,
        processing_time: SimDuration,
    ) -> Self {
        let mut senders = Vec::with_capacity(replicas.len());
        let mut handles = Vec::with_capacity(replicas.len());
        for mut backend in replicas {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            let injector = injector.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    if processing_time > SimDuration::ZERO {
                        // Model the configured service time for real, so
                        // the three substrates agree on what a "busy"
                        // replica means.
                        std::thread::sleep(std::time::Duration::from_micros(
                            processing_time.as_micros(),
                        ));
                    }
                    let (envelope, handled, unavailable) =
                        run_backend(backend.as_mut(), &job.envelope);
                    injector.inject(WhisperMsg::JobDone {
                        job: job.job,
                        request_id: job.request_id,
                        handled,
                        unavailable,
                        envelope,
                    });
                }
            }));
            senders.push(tx);
        }
        WorkerPool { senders, handles }
    }

    /// Shards by the replying proxy: one client's requests always land on
    /// the same worker queue, so per-client FIFO survives the pool even
    /// though completions across clients arrive out of order.
    fn submit(&self, reply_to: PeerId, job: Job) {
        let shard = (reply_to.value() as usize) % self.senders.len();
        // workers only exit once their sender drops, so this cannot fail
        let _ = self.senders[shard].send(job);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the queues; each worker drains what it has and exits.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Lazily probed state of the worker pool (probing needs a live
/// [`Context`] to learn whether the substrate supports self-injection).
enum PoolState {
    Unprobed,
    Disabled,
    Ready(WorkerPool),
}

/// Actor-side context of an offloaded request, keyed by job id until its
/// [`WhisperMsg::JobDone`] arrives.
struct JobCtx {
    request_id: u64,
    reply_to: PeerId,
    delegated: bool,
    /// Original request envelope, retained only while failover-by-
    /// delegation is still possible (i.e. the request was not itself a
    /// delegation).
    envelope: Option<String>,
    /// The request's still-open `backend.execute` span, closed when the
    /// response finally leaves.
    span: Option<SpanId>,
}

/// A b-peer: group member, election participant, request executor.
pub struct BPeerActor {
    peer: PeerId,
    group: GroupId,
    members: Vec<PeerId>,
    directory: Directory,
    disco: DiscoveryService,
    election: BullyNode,
    fd: FailureDetector,
    backend: Box<dyn ServiceBackend>,
    semantic_adv: SemanticAdv,
    config: BPeerConfig,
    requests_handled: u64,
    name: String,
    /// Virtual-time server model: per-slot instants the replica's servers
    /// become free again (`config.workers.max(1)` slots — one slot is the
    /// classic M/D/1 server, `k` slots model the parallel pool).
    busy_slots: Vec<whisper_simnet::SimTime>,
    /// Parallel execution plane, probed lazily on the first request.
    pool: PoolState,
    /// Requests parked with the worker pool, keyed by job id until their
    /// [`WhisperMsg::JobDone`] completion re-enters the loop.
    jobs: std::collections::HashMap<u64, JobCtx>,
    next_job: u64,
    /// Deferred responses keyed by stash id (token payload); the span is
    /// the request's still-open `backend.execute`, closed when the
    /// response finally leaves.
    stash: std::collections::HashMap<u64, (PeerId, WhisperMsg, Option<SpanId>)>,
    next_stash: u64,
    /// Round-robin cursor for load sharing.
    rr_cursor: usize,
    /// Proxies that route requests to this group, learned off the request
    /// path: from their member queries and from requests this peer had to
    /// redirect. When this peer wins an election it pushes its pipe
    /// advertisement to them, so they re-bind without waiting out a
    /// request timeout.
    proxies: Vec<PeerId>,
    obs: Option<Recorder>,
    /// Per-kind traffic counters for the introspection snapshot.
    tx: Metrics,
    rx: Metrics,
    /// Online availability bookkeeping (shared across the deployment).
    ledger: Option<AvailabilityLedger>,
    /// Telemetry plane: where/how often to push [`WhisperMsg::PulseReport`]s.
    pulse: Option<PulseConfig>,
    pulse_emitter: PulseEmitter,
    /// Always-on flight recorder ("whisper-flight"): protocol-level
    /// transitions recorded into the same Lamport-stamped ring the
    /// transport writes message events to.
    flight: Option<FlightHandle>,
    /// Peers currently flagged as heartbeat-missing in the flight ring,
    /// so each suspicion records one miss and one restore, not one per
    /// detector sweep.
    flight_suspects: std::collections::BTreeSet<u64>,
    /// The `last_seen` each peer was last reported down to the ledger
    /// with. The group shares one ledger, so a burial is reported once per
    /// piece of evidence: a member that has heard the peer since (after a
    /// restart) is not overruled, sweep after sweep, by this node's older
    /// silence.
    ledger_reports: std::collections::BTreeMap<PeerId, SimTime>,
}

impl BPeerActor {
    /// Creates a b-peer for `peer`, member of `group` with `members`
    /// (which must include `peer`), executing `backend`.
    pub fn new(
        peer: PeerId,
        group: GroupId,
        members: Vec<PeerId>,
        semantic_adv: SemanticAdv,
        backend: Box<dyn ServiceBackend>,
        directory: Directory,
        config: BPeerConfig,
    ) -> Self {
        let name = format!("b-peer {peer} of {}", semantic_adv.name);
        let server_slots = config.workers.max(1);
        BPeerActor {
            peer,
            group,
            election: BullyNode::new(peer, members.iter().copied(), config.bully),
            fd: FailureDetector::new(config.failure_timeout),
            disco: DiscoveryService::new(peer, config.strategy),
            members,
            directory,
            backend,
            semantic_adv,
            config,
            requests_handled: 0,
            name,
            busy_slots: vec![whisper_simnet::SimTime::ZERO; server_slots],
            pool: PoolState::Unprobed,
            jobs: std::collections::HashMap::new(),
            next_job: 0,
            stash: std::collections::HashMap::new(),
            next_stash: 0,
            rr_cursor: 0,
            proxies: Vec::new(),
            obs: None,
            tx: Metrics::new(),
            rx: Metrics::new(),
            ledger: None,
            pulse: None,
            pulse_emitter: PulseEmitter::new(),
            flight: None,
            flight_suspects: std::collections::BTreeSet::new(),
            ledger_reports: std::collections::BTreeMap::new(),
        }
    }

    /// A b-peer joining this one's group at runtime as `peer`, knowing
    /// `members`: same advertisement, directory and configuration, and the
    /// same recorder, ledger and pulse plane; no flight ring.
    pub(crate) fn newcomer(
        &self,
        peer: PeerId,
        members: Vec<PeerId>,
        backend: Box<dyn ServiceBackend>,
    ) -> BPeerActor {
        let mut actor = BPeerActor::new(
            peer,
            self.group,
            members,
            self.semantic_adv.clone(),
            backend,
            self.directory.clone(),
            self.config.clone(),
        );
        if let Some(rec) = &self.obs {
            actor.set_recorder(rec.clone());
        }
        actor.ledger = self.ledger.clone();
        actor.pulse = self.pulse;
        actor
    }

    /// Installs an observability recorder into this b-peer, its discovery
    /// service, and its election protocol. Requests it executes get
    /// `backend.execute` spans correlated back to the proxy's trace.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.disco.set_recorder(rec.clone());
        self.election.set_recorder(rec.clone());
        self.obs = Some(rec);
    }

    /// This peer's id.
    pub fn peer_id(&self) -> PeerId {
        self.peer
    }

    /// The group this peer belongs to.
    pub fn group_id(&self) -> GroupId {
        self.group
    }

    /// Whether this peer currently believes it is the group coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.election.is_coordinator()
    }

    /// The coordinator this peer currently believes in.
    pub fn coordinator(&self) -> Option<PeerId> {
        self.election.coordinator()
    }

    /// How many requests this replica has executed.
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled
    }

    /// How many elections this peer initiated.
    pub fn elections_started(&self) -> u64 {
        self.election.elections_started()
    }

    /// The backend label (e.g. `"operational-db"`).
    pub fn backend_label(&self) -> &str {
        self.backend.label()
    }

    /// Direct mutable access to the backend, for fault-injection in tests
    /// and experiments (e.g. taking the operational database offline).
    pub fn backend_mut(&mut self) -> &mut dyn ServiceBackend {
        self.backend.as_mut()
    }

    /// Read access to this peer's discovery state (advertisement cache,
    /// bound pipes).
    pub fn discovery(&self) -> &DiscoveryService {
        &self.disco
    }

    /// The group members this peer currently knows, in id order.
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// Installs the deployment-wide availability ledger. Every b-peer feeds
    /// the same (cheaply cloneable) ledger: heartbeats extend uptime,
    /// failure-detector suspicions open downtime intervals, elections close
    /// the per-service ones.
    pub fn set_ledger(&mut self, ledger: AvailabilityLedger) {
        self.ledger = Some(ledger);
    }

    /// Joins the pulse telemetry plane: the b-peer then pushes a
    /// [`WhisperMsg::PulseReport`] with its traffic and execution counters
    /// to `cfg.collector` every `cfg.interval`.
    pub fn set_pulse(&mut self, cfg: PulseConfig) {
        self.pulse = Some(cfg);
    }

    /// Installs this node's flight recorder handle. The same handle must
    /// be installed into the substrate (`Spawner::set_flight_hook`) so
    /// protocol transitions and message traffic share one Lamport clock.
    pub fn set_flight(&mut self, flight: FlightHandle) {
        self.flight = Some(flight);
    }

    /// Builds and ships one telemetry frame, then re-arms the interval.
    /// B-peers report only node-local tallies — recorder-derived series are
    /// reported once, by the proxy, because the recorder is shared.
    fn emit_pulse(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let Some(cfg) = self.pulse else {
            return;
        };
        let mut counters = vec![("bpeer.handled".to_string(), self.requests_handled)];
        counters.extend(pulse::traffic_counters(&self.tx, &self.rx));
        counters.sort();
        let gauges = vec![
            ("bpeer.jobs".to_string(), self.jobs.len() as i64),
            ("bpeer.stash".to_string(), self.stash.len() as i64),
        ];
        let delta = self.pulse_emitter.frame(
            ctx.now().as_micros(),
            cfg.interval.as_micros(),
            counters,
            gauges,
            Vec::new(),
            0,
        );
        let msg = WhisperMsg::PulseReport {
            delta: Box::new(delta),
            outliers: Vec::new(),
        };
        // The collector is a plain node, not a peer: send directly.
        self.tx.on_send(msg.kind(), msg.wire_size());
        ctx.send(cfg.collector, msg);
        ctx.set_timer(cfg.interval, TOKEN_PULSE);
    }

    /// The introspection snapshot served to [`WhisperMsg::ScopeRequest`]:
    /// role, election view, heartbeat ages, queue depth, traffic counters
    /// and the obs registry dump.
    pub fn scope_snapshot(&self, now: SimTime) -> NodeSnapshot {
        let mut snap = NodeSnapshot::empty(NodeRole::BPeer, self.peer.value());
        snap.group = Some(self.group.value());
        snap.election = Some(ElectionView {
            coordinator: self.election.coordinator().map(|p| p.value()),
            is_coordinator: self.election.is_coordinator(),
            term: self.election.epoch(),
            elections_started: self.election.elections_started(),
            phase: self.election.phase_name().to_string(),
        });
        snap.heartbeat_ages_us = self
            .fd
            .ages(now)
            .into_iter()
            .map(|(p, age)| (p.value(), age.as_micros()))
            .collect();
        snap.queue_depth = (self.stash.len() + self.jobs.len()) as u64;
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

    /// Symbolic name of the group's request pipe.
    fn pipe_name(&self) -> String {
        format!("{}-requests", self.semantic_adv.name)
    }

    /// Advertisements are refreshed at half their lifetime.
    fn republish_period(&self) -> SimDuration {
        SimDuration::from_micros((self.config.adv_lifetime.as_micros() / 2).max(1))
    }

    /// Learns a group member that joined after this peer started — JXTA
    /// networks "are inherently dynamic", and a bigger group means higher
    /// availability (paper, §4.2).
    fn note_member(&mut self, peer: PeerId, now: whisper_simnet::SimTime) {
        if peer == self.peer || self.members.contains(&peer) {
            return;
        }
        self.members.push(peer);
        self.members.sort();
        self.election.set_members(&self.members);
        self.disco.add_known_peer(peer);
        self.fd.record(peer, now);
    }

    /// Remembers `proxy` as a user of this group (bounded).
    fn note_proxy(&mut self, proxy: PeerId) {
        if self.proxies.len() < MAX_KNOWN_PROXIES && !self.proxies.contains(&proxy) {
            self.proxies.push(proxy);
        }
    }

    fn route_election_output(&mut self, ctx: &mut Context<'_, WhisperMsg>, out: Output) {
        for (to, msg) in out.sends {
            self.send_to_peer(
                ctx,
                to,
                WhisperMsg::Election {
                    group: self.group,
                    msg,
                },
            );
        }
        for t in out.timers {
            ctx.set_timer(t.delay, ELECTION_TOKEN_BASE | t.token);
        }
        for ev in out.events {
            let winner = match ev {
                ElectionEvent::CoordinatorElected(winner) => winner,
                ElectionEvent::AnswerWaitSkipped => {
                    if let Some(flight) = &self.flight {
                        flight.note_election(
                            ctx.now(),
                            self.election.epoch(),
                            Some(self.peer.value()),
                            "skipped-suspect",
                        );
                    }
                    continue;
                }
            };
            if let Some(ledger) = &self.ledger {
                ledger.coordinator_elected(self.group.value(), winner.value(), ctx.now());
            }
            if let Some(flight) = &self.flight {
                flight.note_election(
                    ctx.now(),
                    self.election.epoch(),
                    Some(winner.value()),
                    "elected",
                );
            }
            if winner == self.peer {
                // A new coordinator re-binds the group's request pipe
                // (JXTA input-pipe creation) and pushes the advertisement
                // to the proxies known to use the group, which re-bind on
                // it; a proxy it does not reach re-resolves after its
                // request timeout — the paper's "new binding between the
                // SWS-proxy and the elected b-peer".
                let name = self.pipe_name();
                if let Some(flight) = &self.flight {
                    flight.note_bind(
                        ctx.now(),
                        name.clone(),
                        self.peer.value(),
                        self.election.epoch() > 1,
                    );
                }
                let sends = self.disco.bind_input_pipe(
                    PipeId::new(self.group.value()),
                    name,
                    self.config.adv_lifetime,
                    ctx.now(),
                    &self.proxies,
                );
                if !self.proxies.is_empty() {
                    if let Some(flight) = &self.flight {
                        flight.note_election(
                            ctx.now(),
                            self.election.epoch(),
                            Some(self.peer.value()),
                            "announced",
                        );
                    }
                }
                for s in sends {
                    self.send_to_peer(ctx, s.to, WhisperMsg::P2p(s.msg));
                }
            }
        }
    }

    fn publish_advertisements(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let now = ctx.now();
        let peer_adv = Advertisement::Peer(PeerAdv {
            peer: self.peer,
            name: self.name.clone(),
            group: Some(self.group),
        });
        let sem_adv = Advertisement::Semantic(self.semantic_adv.clone());
        for adv in [peer_adv, sem_adv] {
            for send in self.disco.publish(adv, self.config.adv_lifetime, now) {
                self.send_to_peer(ctx, send.to, WhisperMsg::P2p(send.msg));
            }
        }
    }

    fn heartbeat_targets(&self) -> Vec<PeerId> {
        match self.election.coordinator() {
            Some(c) if c == self.peer => {
                // coordinator beacons every member
                self.members
                    .iter()
                    .copied()
                    .filter(|&p| p != self.peer)
                    .collect()
            }
            Some(c) => vec![c],
            // no coordinator known (election in flight): beacon everyone so
            // liveness information keeps flowing
            None => self
                .members
                .iter()
                .copied()
                .filter(|&p| p != self.peer)
                .collect(),
        }
    }

    fn fault_envelope(code: FaultCode, reason: String) -> String {
        Envelope::fault(Fault::new(code, reason)).to_xml_string()
    }

    /// Inline execution of one envelope (the worker pool calls
    /// [`run_backend`] directly); kept for unit tests of the wrap/count
    /// behaviour.
    #[cfg(test)]
    fn execute(&mut self, envelope: &str) -> String {
        let (response, handled, _unavailable) = run_backend(self.backend.as_mut(), envelope);
        if handled {
            self.requests_handled += 1;
        }
        response
    }

    /// Whether the parallel execution plane is usable, spawning it on
    /// first use. Requires `config.workers > 0`, a substrate that supports
    /// self-injection (thread/TCP — never the deterministic simulator),
    /// and a backend that opts into replication.
    fn ensure_pool(&mut self, ctx: &Context<'_, WhisperMsg>) -> bool {
        if self.config.workers == 0 {
            return false;
        }
        match self.pool {
            PoolState::Ready(_) => return true,
            PoolState::Disabled => return false,
            PoolState::Unprobed => {}
        }
        let Some(injector) = ctx.self_injector() else {
            // SimNet: stay inline; the k-slot virtual-time server model
            // provides the parallelism deterministically.
            self.pool = PoolState::Disabled;
            return false;
        };
        let mut replicas = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            match self.backend.replicate() {
                Some(b) => replicas.push(b),
                None => {
                    self.pool = PoolState::Disabled;
                    return false;
                }
            }
        }
        self.pool = PoolState::Ready(WorkerPool::spawn(
            replicas,
            injector,
            self.config.processing_time,
        ));
        true
    }

    /// A worker finished an offloaded request: close it out exactly like
    /// the inline path would — count it, maybe fail it over, answer the
    /// proxy. Completions arrive out of order across clients; the job id
    /// correlates each one to the request parked in `jobs`, so cross-talk
    /// is impossible. Stale completions (job parked before a crash) find
    /// no entry and are dropped — the proxy's timeout already re-bound.
    fn finish_job(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        job: u64,
        handled: bool,
        unavailable: bool,
        envelope: String,
    ) {
        let Some(jctx) = self.jobs.remove(&job) else {
            return;
        };
        if handled {
            self.requests_handled += 1;
        }
        if let Some(flight) = &self.flight {
            flight.note_queue_depth(ctx.now(), (self.stash.len() + self.jobs.len()) as u64);
        }
        if unavailable && !jctx.delegated {
            if let (Some(delegate), Some(original)) =
                (self.delegate_target(ctx.now()), jctx.envelope)
            {
                if let (Some(rec), Some(s)) = (&self.obs, jctx.span) {
                    rec.set_attr(s, "outcome", "unavailable");
                    rec.end_span(s, ctx.now());
                }
                self.obs_delegate(ctx.now(), jctx.reply_to, jctx.request_id, delegate);
                self.send_to_peer(
                    ctx,
                    delegate,
                    WhisperMsg::PeerRequest {
                        request_id: jctx.request_id,
                        reply_to: jctx.reply_to,
                        delegated: true,
                        envelope: original,
                    },
                );
                return;
            }
        }
        if let (Some(rec), Some(s)) = (&self.obs, jctx.span) {
            rec.end_span(s, ctx.now());
        }
        self.send_to_peer(
            ctx,
            jctx.reply_to,
            WhisperMsg::PeerResponse {
                request_id: jctx.request_id,
                envelope,
            },
        );
    }

    /// Picks a live member other than us to delegate to when our own
    /// backend is unavailable (the operational-DB → data-warehouse failover
    /// of section 4.1).
    fn delegate_target(&self, now: whisper_simnet::SimTime) -> Option<PeerId> {
        let alive = self.fd.alive(now);
        self.members
            .iter()
            .copied()
            .filter(|&p| p != self.peer && alive.contains(&p))
            .max()
    }

    fn handle_peer_request(
        &mut self,
        ctx: &mut Context<'_, WhisperMsg>,
        request_id: u64,
        reply_to: PeerId,
        delegated: bool,
        envelope: String,
    ) {
        if !delegated && !self.is_coordinator() {
            // paper: "the b-peer found may not be the coordinator" — point
            // the proxy at the peer we believe is coordinating.
            let coordinator = self.election.coordinator().filter(|&c| c != self.peer);
            self.note_proxy(reply_to);
            if let Some(rec) = &self.obs {
                if let Some(req) = rec.lookup(trace::NS_PEER, trace::peer_key(reply_to, request_id))
                {
                    let s = rec.instant("bpeer.redirect", req, ctx.now());
                    rec.set_attr(s, "peer", self.peer.value());
                    if let Some(c) = coordinator {
                        rec.set_attr(s, "coordinator", c.value());
                    }
                }
                rec.incr("bpeer.redirects", 1);
            }
            self.send_to_peer(
                ctx,
                reply_to,
                WhisperMsg::PeerRedirect {
                    request_id,
                    coordinator,
                },
            );
            return;
        }
        // Load sharing: the coordinator spreads work across live members.
        if !delegated && self.config.load_share {
            let mut pool = self.fd.alive(ctx.now());
            pool.retain(|p| self.members.contains(p));
            pool.push(self.peer);
            pool.sort();
            pool.dedup();
            if pool.len() > 1 {
                let target = pool[self.rr_cursor % pool.len()];
                self.rr_cursor += 1;
                if target != self.peer {
                    self.obs_delegate(ctx.now(), reply_to, request_id, target);
                    self.send_to_peer(
                        ctx,
                        target,
                        WhisperMsg::PeerRequest {
                            request_id,
                            reply_to,
                            delegated: true,
                            envelope,
                        },
                    );
                    return;
                }
            }
        }
        // Probe the backend by executing; on unavailability, try to
        // delegate to a semantically equivalent member.
        let exec_span = self.obs.as_ref().and_then(|rec| {
            let req = rec.lookup(trace::NS_PEER, trace::peer_key(reply_to, request_id))?;
            let s = rec.start_span("backend.execute", req, ctx.now());
            rec.set_attr(s, "peer", self.peer.value());
            rec.set_attr(s, "backend", self.backend.label().to_string());
            if delegated {
                rec.set_attr(s, "delegated", 1u64);
            }
            rec.incr("bpeer.executed", 1);
            Some(s)
        });
        // Parallel plane: park the request with the worker pool and let
        // its out-of-order completion (a self-injected JobDone) finish it.
        if self.ensure_pool(&*ctx) {
            let job = self.next_job;
            self.next_job += 1;
            self.jobs.insert(
                job,
                JobCtx {
                    request_id,
                    reply_to,
                    delegated,
                    envelope: (!delegated).then(|| envelope.clone()),
                    span: exec_span,
                },
            );
            if let Some(flight) = &self.flight {
                flight.note_queue_depth(ctx.now(), (self.stash.len() + self.jobs.len()) as u64);
            }
            let PoolState::Ready(pool) = &self.pool else {
                unreachable!("ensure_pool returned true");
            };
            pool.submit(
                reply_to,
                Job {
                    job,
                    request_id,
                    envelope,
                },
            );
            return;
        }
        let (response, handled, unavailable) = run_backend(self.backend.as_mut(), &envelope);
        if handled {
            self.requests_handled += 1;
        }
        if unavailable && !delegated {
            if let Some(delegate) = self.delegate_target(ctx.now()) {
                if let (Some(rec), Some(s)) = (&self.obs, exec_span) {
                    rec.set_attr(s, "outcome", "unavailable");
                    rec.end_span(s, ctx.now());
                }
                self.obs_delegate(ctx.now(), reply_to, request_id, delegate);
                self.send_to_peer(
                    ctx,
                    delegate,
                    WhisperMsg::PeerRequest {
                        request_id,
                        reply_to,
                        delegated: true,
                        envelope,
                    },
                );
                return;
            }
        }
        let msg = WhisperMsg::PeerResponse {
            request_id,
            envelope: response,
        };
        if self.config.processing_time == SimDuration::ZERO {
            if let (Some(rec), Some(s)) = (&self.obs, exec_span) {
                rec.end_span(s, ctx.now());
            }
            self.send_to_peer(ctx, reply_to, msg);
        } else {
            // Serve like a k-server queue (k = 1 unless `workers` widens
            // it): each request occupies the earliest-free virtual server,
            // queueing behind it when all are busy. The execute span stays
            // open until the response leaves, so it measures queueing +
            // service time.
            let now = ctx.now();
            let slot = self
                .busy_slots
                .iter_mut()
                .min()
                .expect("at least one server slot");
            let start = (*slot).max(now);
            *slot = start + self.config.processing_time;
            let ready_at = *slot;
            let stash_id = self.next_stash;
            self.next_stash += 1;
            self.stash.insert(stash_id, (reply_to, msg, exec_span));
            if let Some(flight) = &self.flight {
                flight.note_queue_depth(now, (self.stash.len() + self.jobs.len()) as u64);
            }
            ctx.set_timer(ready_at.since(now), RESPONSE_TOKEN_BASE | stash_id);
        }
    }

    /// One pass of the failure detector: flags and buries the peers it
    /// holds dead, and replaces a dead coordinator. Runs every heartbeat
    /// period, and at once when a link is lost — waiting for the periodic
    /// pass would add up to a period to the outage.
    fn sweep_detector(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let now = ctx.now();
        // Heartbeats form a star, so silence is only evidence for
        // peers whose beacons this node expects: members monitor
        // the coordinator, the coordinator monitors every member.
        // The fd map also holds stale entries from boot-time
        // election traffic; acting on those would bury live
        // members and oscillate the ledger against the beacons
        // the coordinator keeps receiving.
        let monitored = self.heartbeat_targets();
        let silent = self.fd.suspected(now);
        let suspected: Vec<PeerId> = silent
            .iter()
            .copied()
            .filter(|p| monitored.contains(p))
            .collect();
        // A lost link is evidence whoever the peer beacons: it cannot
        // answer this node.
        let lost = self.fd.lost();
        if let Some(flight) = &self.flight {
            // record suspicion *transitions*: one mark when a peer is
            // buried, one restore when it is heard from again
            for &p in suspected.iter().chain(&lost) {
                if !self.flight_suspects.insert(p.value()) {
                    continue;
                }
                match self.directory.node_of(p) {
                    Some(node) if lost.contains(&p) => {
                        flight.note_fault(now, format!("lost-confirmed {node}"));
                    }
                    _ => {
                        let last_seen = self.fd.last_seen(p).unwrap_or(now);
                        flight.note_heartbeat_miss(now, p.value(), last_seen);
                    }
                }
            }
            let restored: Vec<u64> = self
                .flight_suspects
                .iter()
                .copied()
                .filter(|&p| !silent.iter().any(|s| s.value() == p))
                .collect();
            for p in restored {
                self.flight_suspects.remove(&p);
                flight.note_heartbeat_restore(now, p);
            }
        }
        if let Some(ledger) = &self.ledger {
            for &p in &suspected {
                let last_seen = self.fd.last_seen(p).unwrap_or(now);
                if self.ledger_reports.insert(p, last_seen) != Some(last_seen) {
                    ledger.peer_down(p.value(), last_seen, now);
                }
            }
        }
        // An election does not wait for an answer from a peer this
        // sweep holds dead; one already waiting may end here.
        let buried = suspected.iter().chain(&lost).copied();
        let out = self.election.set_suspects(buried, now);
        self.route_election_output(ctx, out);
        if let Some(coord) = self.election.coordinator() {
            if coord != self.peer && suspected.contains(&coord) {
                // the coordinator went silent: the service is down
                // from the coordinator's last sign of life until a
                // successor takes over — elect a new one.
                if let Some(ledger) = &self.ledger {
                    let last_seen = self.fd.last_seen(coord).unwrap_or(now);
                    ledger.coordinator_down(self.group.value(), coord.value(), last_seen, now);
                }
                if let Some(flight) = &self.flight {
                    flight.note_election(
                        now,
                        self.election.epoch(),
                        self.election.coordinator().map(|p| p.value()),
                        "started",
                    );
                }
                let out = self.election.start_election(now);
                self.route_election_output(ctx, out);
            }
        }
    }

    /// Marks a hand-off of a request to another member on its trace.
    fn obs_delegate(
        &self,
        now: whisper_simnet::SimTime,
        reply_to: PeerId,
        request_id: u64,
        target: PeerId,
    ) {
        if let Some(rec) = &self.obs {
            if let Some(req) = rec.lookup(trace::NS_PEER, trace::peer_key(reply_to, request_id)) {
                let s = rec.instant("bpeer.delegate", req, now);
                rec.set_attr(s, "from", self.peer.value());
                rec.set_attr(s, "to", target.value());
            }
            rec.incr("bpeer.delegated", 1);
        }
    }
}

impl Actor<WhisperMsg> for BPeerActor {
    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        // Give every member an initial grace period before suspecting it.
        for &m in &self.members {
            if m != self.peer {
                self.fd.record(m, ctx.now());
                self.disco.add_known_peer(m);
            }
        }
        self.publish_advertisements(ctx);
        let out = self.election.start_election(ctx.now());
        self.route_election_output(ctx, out);
        ctx.set_timer(self.config.heartbeat_period, TOKEN_HEARTBEAT);
        ctx.set_timer(self.config.heartbeat_period, TOKEN_FD_CHECK);
        // Refresh advertisements at half their lifetime so they never
        // expire from caches while the peer is alive.
        ctx.set_timer(self.republish_period(), TOKEN_REPUBLISH);
        if let Some(cfg) = self.pulse {
            ctx.set_timer(cfg.interval, TOKEN_PULSE);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        // A recovered peer rejoins: re-publish, re-elect (it may be the
        // rightful highest-id coordinator), restart beacons. Requests
        // parked with the worker pool before the crash are abandoned —
        // their completions find no job entry and are dropped, and the
        // proxy's timeout has already failed the requests over. So are
        // responses deferred behind a service-time timer: the crash took
        // the timer, and the virtual servers it booked are free again.
        // Lost-link evidence goes with the detector that held it.
        self.jobs.clear();
        self.stash.clear();
        self.busy_slots.fill(SimTime::ZERO);
        self.fd = FailureDetector::new(self.config.failure_timeout);
        self.election = BullyNode::new(self.peer, self.members.iter().copied(), self.config.bully);
        // the fresh BullyNode must observe through the same recorder
        if let Some(rec) = &self.obs {
            self.election.set_recorder(rec.clone());
        }
        self.on_start(ctx);
    }

    fn on_link_lost(&mut self, ctx: &mut Context<'_, WhisperMsg>, node: NodeId) {
        // Evidence about a member on the far end of a link of this peer's
        // own; one reached through a relay never was.
        let Some(peer) = self.directory.peer_of(node) else {
            return;
        };
        if !self.members.contains(&peer)
            || crate::routing::relay_between(&self.directory, self.peer, peer).is_some()
        {
            return;
        }
        if let Some(rec) = &self.obs {
            rec.incr("bpeer.link_lost", 1);
        }
        // A transport reports a lost link only once the peer's process let
        // go of its sockets (a kill), never for gray weather: bury it now.
        // A later word from it clears the mark (`on_message`).
        self.fd.link_lost(peer);
        self.sweep_detector(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        // Unwrap (or forward, if we are the relay) relayed envelopes first.
        let Some((from, msg)) =
            crate::routing::unwrap_or_forward(&self.directory, self.peer, ctx, from, msg)
        else {
            return;
        };
        self.rx.on_send(msg.kind(), msg.wire_size());
        // Any traffic from a peer proves it is alive.
        if let Some(peer) = self.directory.peer_of(from) {
            if self.fd.record(peer, ctx.now()) {
                // it spoke after its link was lost: over a fresh one
                if let Some(rec) = &self.obs {
                    rec.incr("bpeer.link_lost_cleared", 1);
                }
            }
            if let Some(ledger) = &self.ledger {
                ledger.peer_heartbeat(peer.value(), ctx.now());
            }
        }
        match msg {
            WhisperMsg::P2p(m) => {
                let from_peer = match &m {
                    P2pMessage::Heartbeat { from, .. } => *from,
                    _ => self.directory.peer_of(from).unwrap_or(self.peer),
                };
                if let P2pMessage::Heartbeat {
                    from: hb_from,
                    group,
                } = &m
                {
                    if *group == self.group {
                        self.note_member(*hb_from, ctx.now());
                    }
                    self.fd.record(*hb_from, ctx.now());
                    if let Some(ledger) = &self.ledger {
                        ledger.peer_heartbeat(hb_from.value(), ctx.now());
                    }
                }
                if let P2pMessage::Query { filter, origin, .. } = &m {
                    // who enumerates this group's members binds to it
                    if filter.kind == Some(AdvKind::Peer) && filter.group == Some(self.group) {
                        self.note_proxy(*origin);
                    }
                }
                let (sends, _events) = self.disco.handle_message(from_peer, m, ctx.now());
                for s in sends {
                    self.send_to_peer(ctx, s.to, WhisperMsg::P2p(s.msg));
                }
            }
            WhisperMsg::Election { group, msg } => {
                if group != self.group {
                    return;
                }
                let from_peer = match &msg {
                    ElectionMsg::Election { from }
                    | ElectionMsg::Answer { from }
                    | ElectionMsg::Coordinator { from } => *from,
                    ElectionMsg::RingElection { origin, .. }
                    | ElectionMsg::RingCoordinator { origin, .. } => *origin,
                };
                self.note_member(from_peer, ctx.now());
                self.fd.record(from_peer, ctx.now());
                let out = self.election.on_message(from_peer, msg, ctx.now());
                self.route_election_output(ctx, out);
            }
            WhisperMsg::PeerRequest {
                request_id,
                reply_to,
                delegated,
                envelope,
            } => {
                self.handle_peer_request(ctx, request_id, reply_to, delegated, envelope);
            }
            WhisperMsg::JobDone {
                job,
                request_id: _,
                handled,
                unavailable,
                envelope,
            } => {
                self.finish_job(ctx, job, handled, unavailable, envelope);
            }
            WhisperMsg::ScopeRequest { request_id } => {
                let reply = WhisperMsg::ScopeResponse {
                    request_id,
                    snapshot: Box::new(self.scope_snapshot(ctx.now())),
                };
                match self.directory.peer_of(from) {
                    Some(peer) => self.send_to_peer(ctx, peer, reply),
                    None => {
                        // Probes (whisper-top) are not in the peer directory;
                        // answer the node directly.
                        self.tx.on_send(reply.kind(), reply.wire_size());
                        ctx.send(from, reply);
                    }
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
                    None => {
                        self.tx.on_send(reply.kind(), reply.wire_size());
                        ctx.send(from, reply);
                    }
                }
            }
            // B-peers neither originate SOAP traffic nor receive responses;
            // nested relay envelopes are already unwrapped above, and
            // telemetry frames are consumed by the collector alone.
            WhisperMsg::SoapRequest { .. }
            | WhisperMsg::SoapResponse { .. }
            | WhisperMsg::PeerResponse { .. }
            | WhisperMsg::PeerRedirect { .. }
            | WhisperMsg::ScopeResponse { .. }
            | WhisperMsg::Relayed { .. }
            | WhisperMsg::PulseReport { .. }
            | WhisperMsg::FlightDump { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, token: u64) {
        if token & ELECTION_TOKEN_BASE != 0 {
            let out = self
                .election
                .on_timer(token & !ELECTION_TOKEN_BASE, ctx.now());
            self.route_election_output(ctx, out);
            return;
        }
        if token & RESPONSE_TOKEN_BASE != 0 {
            if let Some((reply_to, msg, span)) = self.stash.remove(&(token & !RESPONSE_TOKEN_BASE))
            {
                if let (Some(rec), Some(s)) = (&self.obs, span) {
                    rec.end_span(s, ctx.now());
                }
                self.send_to_peer(ctx, reply_to, msg);
            }
            return;
        }
        match token {
            TOKEN_HEARTBEAT => {
                for target in self.heartbeat_targets() {
                    self.send_to_peer(
                        ctx,
                        target,
                        WhisperMsg::P2p(P2pMessage::Heartbeat {
                            group: self.group,
                            from: self.peer,
                        }),
                    );
                }
                ctx.set_timer(self.config.heartbeat_period, TOKEN_HEARTBEAT);
            }
            TOKEN_REPUBLISH => {
                self.publish_advertisements(ctx);
                if self.is_coordinator() {
                    let name = self.pipe_name();
                    let sends = self.disco.bind_input_pipe(
                        PipeId::new(self.group.value()),
                        name,
                        self.config.adv_lifetime,
                        ctx.now(),
                        &[],
                    );
                    for s in sends {
                        self.send_to_peer(ctx, s.to, WhisperMsg::P2p(s.msg));
                    }
                }
                ctx.set_timer(self.republish_period(), TOKEN_REPUBLISH);
            }
            TOKEN_FD_CHECK => {
                self.sweep_detector(ctx);
                ctx.set_timer(self.config.heartbeat_period, TOKEN_FD_CHECK);
            }
            TOKEN_PULSE => self.emit_pulse(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EchoBackend;
    use whisper_xml::QName;

    fn sem_adv(group: GroupId) -> SemanticAdv {
        SemanticAdv {
            group,
            name: "test-group".into(),
            action: QName::with_ns("urn:u", "Act"),
            inputs: vec![],
            outputs: vec![],
            qos: None,
        }
    }

    fn peer_actor(peer: u64, members: &[u64]) -> BPeerActor {
        let g = GroupId::new(1);
        let member_ids: Vec<PeerId> = members.iter().map(|&m| PeerId::new(m)).collect();
        let directory = Directory::new(
            member_ids
                .iter()
                .map(|&p| (p, whisper_simnet::NodeId::from_index(p.value() as usize))),
        );
        BPeerActor::new(
            PeerId::new(peer),
            g,
            member_ids,
            sem_adv(g),
            Box::new(EchoBackend),
            directory,
            BPeerConfig::default(),
        )
    }

    #[test]
    fn accessors_and_construction() {
        let p = peer_actor(2, &[1, 2, 3]);
        assert_eq!(p.peer_id(), PeerId::new(2));
        assert_eq!(p.group_id(), GroupId::new(1));
        assert!(!p.is_coordinator());
        assert_eq!(p.requests_handled(), 0);
        assert_eq!(p.backend_label(), "echo");
    }

    #[test]
    fn heartbeat_targets_depend_on_role() {
        let mut p = peer_actor(3, &[1, 2, 3]);
        // no coordinator yet: beacon everyone
        assert_eq!(p.heartbeat_targets().len(), 2);
        // become coordinator: beacon all members
        let _ = p.election.start_election(whisper_simnet::SimTime::ZERO);
        assert!(p.is_coordinator());
        assert_eq!(p.heartbeat_targets(), vec![PeerId::new(1), PeerId::new(2)]);

        let mut member = peer_actor(1, &[1, 2, 3]);
        let _ = member.election.on_message(
            PeerId::new(3),
            ElectionMsg::Coordinator {
                from: PeerId::new(3),
            },
            whisper_simnet::SimTime::ZERO,
        );
        // member beacons only the coordinator
        assert_eq!(member.heartbeat_targets(), vec![PeerId::new(3)]);
    }

    #[test]
    fn execute_wraps_backend_results_and_faults() {
        let mut p = peer_actor(1, &[1]);
        let req = Envelope::request(whisper_xml::Element::with_text("Ping", "x")).to_xml_string();
        let resp = p.execute(&req);
        let env = Envelope::parse(&resp).unwrap();
        assert!(!env.is_fault());
        assert_eq!(env.body_payload().unwrap().name, "Echo");
        assert_eq!(p.requests_handled(), 1);

        let garbage = p.execute("not xml at all");
        let env = Envelope::parse(&garbage).unwrap();
        assert_eq!(env.as_fault().unwrap().code, FaultCode::Sender);

        let empty = p.execute(&Envelope::empty().to_xml_string());
        assert!(Envelope::parse(&empty).unwrap().is_fault());
    }

    #[test]
    fn unavailable_backend_yields_receiver_fault_when_alone() {
        let g = GroupId::new(1);
        let directory = Directory::new([(PeerId::new(1), whisper_simnet::NodeId::from_index(1))]);
        let mut reg = crate::backend::StudentRegistry::operational_db().with_sample_data();
        reg.set_available(false);
        let mut p = BPeerActor::new(
            PeerId::new(1),
            g,
            vec![PeerId::new(1)],
            sem_adv(g),
            Box::new(reg),
            directory,
            BPeerConfig::default(),
        );
        let mut payload = whisper_xml::Element::new("StudentInformation");
        payload.push_child(whisper_xml::Element::with_text("StudentID", "u1000"));
        let req = Envelope::request(payload).to_xml_string();
        let resp = p.execute(&req);
        let env = Envelope::parse(&resp).unwrap();
        assert_eq!(env.as_fault().unwrap().code, FaultCode::Receiver);
    }
}

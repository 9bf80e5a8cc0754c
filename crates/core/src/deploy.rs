//! The deployment layer: one scenario description, three substrates.
//!
//! [`ScenarioWiring`] is the one-shot wiring pass: it places a complete
//! Whisper scenario — rendezvous, b-peer groups, SWS-proxy, clients, and
//! optionally the pulse collector — onto any [`Spawner`], i.e. the
//! deterministic simulator or the builders of the threaded and TCP
//! runtimes. Node layout is identical everywhere
//! (`[rendezvous?] [b-peers, group by group] [proxy] [clients...]
//! [collector?]`, peer id = node index + 1), so the [`Topology`] it
//! returns means the same thing on every substrate.
//!
//! [`ScenarioWiring::boot`] is the one boot body — wire, append the edge
//! node, start — and [`Booted`] is what it returns: the one cluster facade
//! (transport, topology, observability handles, and the edge's
//! poll / settle / submit / response surface) every harness drives, on
//! every substrate.
//!
//! [`Deployment`] is the reusable form: instead of boxed backends it holds
//! backend *factories*, so the same description can be booted repeatedly —
//! [`Deployment::boot_sim`], [`Deployment::boot_threadnet`] and
//! [`Deployment::boot_tcp`] each produce a fresh [`Booted`] network whose
//! transport implements [`Substrate`]. An experiment written against
//! `Substrate` (inject, kill, restart, block, [`FaultPlan`] replay,
//! advance) therefore runs unmodified on all three runtimes, which is what
//! makes per-substrate availability/MTTR numbers comparable.
//!
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use std::sync::Arc;

use crate::backend::{ServiceBackend, StudentRegistry};
use crate::bpeer::{BPeerActor, BPeerConfig};
use crate::client::{ClientActor, ClientConfig};
use crate::directory::Directory;
use crate::edge::{Answer, Edge, Poll};
use crate::harness::{ClientConfigTemplate, GroupSpec};
use crate::msg::WhisperMsg;
use crate::proxy::{ProxyConfig, SwsProxyActor};
use crate::pulse::{self, PulseCollectorActor, PulseConfig, SharedPulseStore};
use crate::WhisperError;
use whisper_obs::{
    AvailabilityLedger, FlightHandle, FlightPlane, NodeRole, NodeSnapshot, PulseEmitter, Recorder,
};
use whisper_ontology::Ontology;
use whisper_p2p::{DiscoveryService, DiscoveryStrategy, GroupId, P2pMessage, PeerId, SemanticAdv};
use whisper_simnet::tcpnet::{TcpNet, TcpNetBuilder};
use whisper_simnet::threadnet::{ThreadNet, ThreadNetBuilder};
use whisper_simnet::{
    Actor, Context, Metrics, NodeId, SimDuration, SimNet, SimTime, Spawner, Substrate, SwitchedLan,
    Wire,
};
use whisper_soap::Envelope;
use whisper_wsdl::ServiceDescription;
use whisper_xml::Element;

/// A minimal rendezvous peer: caches publications, answers queries.
pub(crate) struct RendezvousActor {
    pub(crate) peer: PeerId,
    pub(crate) directory: Directory,
    pub(crate) disco: DiscoveryService,
    pub(crate) obs: Option<Recorder>,
    /// Per-kind traffic counters for the introspection snapshot.
    pub(crate) tx: Metrics,
    pub(crate) rx: Metrics,
    /// Telemetry plane: where/how often to push [`WhisperMsg::PulseReport`]s.
    pub(crate) pulse: Option<PulseConfig>,
    pub(crate) pulse_emitter: PulseEmitter,
}

/// The rendezvous' only timer: its pulse interval.
const RDV_TOKEN_PULSE: u64 = 1;

impl RendezvousActor {
    fn new(peer: PeerId, directory: Directory) -> Self {
        RendezvousActor {
            peer,
            directory,
            disco: DiscoveryService::new(peer, DiscoveryStrategy::Rendezvous(peer)),
            obs: None,
            tx: Metrics::new(),
            rx: Metrics::new(),
            pulse: None,
            pulse_emitter: PulseEmitter::new(),
        }
    }

    /// The introspection snapshot served to [`WhisperMsg::ScopeRequest`]:
    /// cache size, traffic counters and the obs registry dump.
    pub(crate) fn scope_snapshot(&self) -> NodeSnapshot {
        let mut snap = NodeSnapshot::empty(NodeRole::Rendezvous, self.peer.value());
        snap.queue_depth = self.disco.cache().len() as u64;
        snap.sent = self.tx.snapshot();
        snap.received = self.rx.snapshot();
        if let Some(rec) = &self.obs {
            snap.registry = rec.registry_dump();
        }
        snap
    }

    /// Builds and ships one telemetry frame, then re-arms the interval.
    fn emit_pulse(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let Some(cfg) = self.pulse else {
            return;
        };
        let mut counters = pulse::traffic_counters(&self.tx, &self.rx);
        counters.sort();
        let gauges = vec![(
            "rendezvous.cache".to_string(),
            self.disco.cache().len() as i64,
        )];
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
        self.tx.on_send(msg.kind(), msg.wire_size());
        ctx.send(cfg.collector, msg);
        ctx.set_timer(cfg.interval, RDV_TOKEN_PULSE);
    }
}

impl Actor<WhisperMsg> for RendezvousActor {
    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        if let Some(cfg) = self.pulse {
            ctx.set_timer(cfg.interval, RDV_TOKEN_PULSE);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, token: u64) {
        if token == RDV_TOKEN_PULSE {
            self.emit_pulse(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        let Some((from, msg)) =
            crate::routing::unwrap_or_forward(&self.directory, self.peer, ctx, from, msg)
        else {
            return;
        };
        self.rx.on_send(msg.kind(), msg.wire_size());
        if let WhisperMsg::ScopeRequest { request_id } = msg {
            let reply = WhisperMsg::ScopeResponse {
                request_id,
                snapshot: Box::new(self.scope_snapshot()),
            };
            self.tx.on_send(reply.kind(), reply.wire_size());
            match self.directory.peer_of(from) {
                Some(peer) => {
                    crate::routing::send_routed(&self.directory, self.peer, ctx, peer, reply)
                }
                None => ctx.send(from, reply),
            }
            return;
        }
        if let WhisperMsg::P2p(m) = msg {
            let origin = match &m {
                P2pMessage::Query { origin, .. } => *origin,
                P2pMessage::Heartbeat { from, .. } => *from,
                _ => self.peer,
            };
            if let (Some(rec), P2pMessage::Query { id, .. }) = (&self.obs, &m) {
                if let Some(req) = rec.lookup(crate::trace::NS_QUERY, *id) {
                    rec.instant("rendezvous.lookup", req, ctx.now());
                }
                rec.incr("rendezvous.queries", 1);
            }
            let (sends, _) = self.disco.handle_message(origin, m, ctx.now());
            for s in sends {
                let msg = WhisperMsg::P2p(s.msg);
                self.tx.on_send(msg.kind(), msg.wire_size());
                crate::routing::send_routed(&self.directory, self.peer, ctx, s.to, msg);
            }
        }
    }
}

/// Pulse-plane wiring for a scenario: every protocol actor pushes a
/// [`WhisperMsg::PulseReport`] to an in-network collector node every
/// `interval`; `store` is where the collector accumulates frames.
pub struct PulseWiring {
    /// Pulse emission period.
    pub interval: SimDuration,
    /// The collector's shared store (see [`crate::pulse::shared_store`]).
    pub store: SharedPulseStore,
}

/// One complete Whisper scenario, ready to be placed on a [`Spawner`].
///
/// This is the single wiring pass every runtime shares: the simulator
/// harness ([`crate::WhisperNet`]) and the live TCP cluster both boot
/// through [`ScenarioWiring::wire`]. Observability (recorder, availability
/// ledger, pulse plane) is installed *before* actors spawn, because the
/// real-time substrates cannot reach into running actors the way the
/// simulator can.
pub struct ScenarioWiring {
    /// The semantic Web service the proxy exposes.
    pub service: ServiceDescription,
    /// The shared deployment ontology.
    pub ontology: Ontology,
    /// B-peer groups to deploy (consumed: backends are boxed).
    pub groups: Vec<GroupSpec>,
    /// Use a dedicated rendezvous peer instead of flooding.
    pub use_rendezvous: bool,
    /// Route every b-peer through the rendezvous relay (directory routes
    /// only; blocking the direct links is the simulator harness' job).
    pub firewall_bpeers: bool,
    /// B-peer tuning (strategy is overwritten to match the deployment).
    pub bpeer: BPeerConfig,
    /// Proxy tuning (strategy is overwritten to match the deployment).
    pub proxy: ProxyConfig,
    /// Clients to deploy.
    pub clients: Vec<ClientConfigTemplate>,
    /// Shared availability ledger, installed into every b-peer.
    pub ledger: Option<AvailabilityLedger>,
    /// Shared trace recorder, installed into every actor + the net hook.
    pub recorder: Option<Recorder>,
    /// Pulse telemetry plane; adds a collector node after the clients.
    pub pulse: Option<PulseWiring>,
    /// Flight-recorder plane: per-node ring byte budget. When set, every
    /// node gets an always-on [`FlightHandle`] (ring id = node index)
    /// installed both into the substrate (message send/recv + fault
    /// events, Lamport-stamped) and into the protocol actors (elections,
    /// binds, heartbeat transitions, queue high-water marks).
    pub flight: Option<usize>,
}

impl ScenarioWiring {
    /// A scenario with no observability attached.
    pub fn bare(
        service: ServiceDescription,
        ontology: Ontology,
        groups: Vec<GroupSpec>,
    ) -> ScenarioWiring {
        ScenarioWiring {
            service,
            ontology,
            groups,
            use_rendezvous: false,
            firewall_bpeers: false,
            bpeer: BPeerConfig::default(),
            proxy: ProxyConfig::default(),
            clients: Vec::new(),
            ledger: None,
            recorder: None,
            pulse: None,
            flight: None,
        }
    }

    /// Places the scenario onto `spawner` and returns where everything
    /// landed. Works identically on [`SimNet`], [`ThreadNetBuilder`] and
    /// [`TcpNetBuilder`] — node ids are assigned in registration order on
    /// every substrate.
    ///
    /// # Errors
    ///
    /// [`WhisperError::BadDeployment`] for structurally impossible
    /// configurations (no groups, empty group, firewalled b-peers without
    /// a rendezvous), [`WhisperError::Wsdl`] for service annotations that
    /// do not resolve against the ontology.
    pub fn wire<S: Spawner<WhisperMsg>>(self, spawner: &mut S) -> Result<Topology, WhisperError> {
        if self.groups.is_empty() {
            return Err(WhisperError::BadDeployment(
                "no b-peer groups configured".into(),
            ));
        }
        if self.groups.iter().any(|g| g.backends.is_empty()) {
            return Err(WhisperError::BadDeployment("a group has no b-peers".into()));
        }
        if self.firewall_bpeers && !self.use_rendezvous {
            return Err(WhisperError::BadDeployment(
                "firewalled b-peers need a rendezvous to relay through".into(),
            ));
        }
        // Validate annotations up front (the proxy would panic otherwise).
        self.service.resolve_all(&self.ontology)?;

        // --- Assign node indices and peer ids -------------------------
        let mut next_node = 0usize;
        let rendezvous_idx = self.use_rendezvous.then(|| {
            let i = next_node;
            next_node += 1;
            i
        });
        let mut group_node_idx: Vec<Vec<usize>> = Vec::new();
        for g in &self.groups {
            let idxs = (0..g.backends.len())
                .map(|_| {
                    let i = next_node;
                    next_node += 1;
                    i
                })
                .collect();
            group_node_idx.push(idxs);
        }
        let proxy_idx = next_node;
        next_node += 1;
        let client_idx: Vec<usize> = (0..self.clients.len())
            .map(|_| {
                let i = next_node;
                next_node += 1;
                i
            })
            .collect();
        let collector_idx = self.pulse.as_ref().map(|_| {
            let i = next_node;
            next_node += 1;
            i
        });

        // Peers: every node except clients and the collector.
        // PeerId = node index + 1.
        let peer_of = |idx: usize| PeerId::new(idx as u64 + 1);
        let mut pairs = Vec::new();
        if let Some(r) = rendezvous_idx {
            pairs.push((peer_of(r), NodeId::from_index(r)));
        }
        for idxs in &group_node_idx {
            for &i in idxs {
                pairs.push((peer_of(i), NodeId::from_index(i)));
            }
        }
        pairs.push((peer_of(proxy_idx), NodeId::from_index(proxy_idx)));
        let mut routes = Vec::new();
        if self.firewall_bpeers {
            let relay = peer_of(rendezvous_idx.expect("validated above"));
            for idxs in &group_node_idx {
                for &i in idxs {
                    routes.push((peer_of(i), relay));
                }
            }
        }
        let directory = Directory::with_routes(pairs, routes);

        let strategy = match rendezvous_idx {
            Some(r) => DiscoveryStrategy::Rendezvous(peer_of(r)),
            None => DiscoveryStrategy::Flood,
        };
        let pulse_cfg = match (&self.pulse, collector_idx) {
            (Some(p), Some(c)) => Some(PulseConfig::new(NodeId::from_index(c), p.interval)),
            _ => None,
        };

        // --- Place the actors -----------------------------------------
        if let Some(rec) = &self.recorder {
            spawner.set_net_hook(Box::new(rec.clone()));
        }

        // One flight ring per node, shared between the substrate hook and
        // the node's actor so both stamp the same Lamport clock. Ring ids
        // are node *indices*, matching the `from`/`to` the substrate
        // records — that is what makes merged timelines causally
        // checkable.
        let flight_plane = self.flight.map(|budget| {
            let mut plane = FlightPlane::new();
            for i in 0..next_node {
                let handle = FlightHandle::new(i as u64, budget);
                spawner.set_flight_hook(NodeId::from_index(i), Box::new(handle.clone()));
                plane.push(handle);
            }
            plane
        });
        let flight_of = |idx: usize| {
            flight_plane
                .as_ref()
                .and_then(|p| p.handle(idx as u64))
                .cloned()
        };

        if let Some(r) = rendezvous_idx {
            let mut rdv = RendezvousActor::new(peer_of(r), directory.clone());
            if let Some(rec) = &self.recorder {
                rdv.disco.set_recorder(rec.clone());
                rdv.obs = Some(rec.clone());
            }
            rdv.pulse = pulse_cfg;
            let added = spawner.add(rdv);
            debug_assert_eq!(added, NodeId::from_index(r));
        }

        let mut group_nodes = Vec::new();
        let mut group_ids = Vec::new();
        let mut group_advs = Vec::new();
        for (gi, spec) in self.groups.into_iter().enumerate() {
            let group = GroupId::new(gi as u64 + 1);
            let idxs = &group_node_idx[gi];
            let members: Vec<PeerId> = idxs.iter().map(|&i| peer_of(i)).collect();
            let adv = SemanticAdv {
                group,
                name: spec.name.clone(),
                action: spec.action.clone(),
                inputs: spec.inputs.clone(),
                outputs: spec.outputs.clone(),
                qos: spec.qos,
            };
            let mut nodes = Vec::new();
            for (pi, backend) in spec.backends.into_iter().enumerate() {
                let peer = peer_of(idxs[pi]);
                let mut bp_cfg = self.bpeer.clone();
                bp_cfg.strategy = strategy;
                if let Some(pt) = spec.processing_time {
                    bp_cfg.processing_time = pt;
                }
                let mut actor = BPeerActor::new(
                    peer,
                    group,
                    members.clone(),
                    adv.clone(),
                    backend,
                    directory.clone(),
                    bp_cfg,
                );
                if let Some(ledger) = &self.ledger {
                    actor.set_ledger(ledger.clone());
                }
                if let Some(rec) = &self.recorder {
                    actor.set_recorder(rec.clone());
                }
                if let Some(cfg) = pulse_cfg {
                    actor.set_pulse(cfg);
                }
                if let Some(handle) = flight_of(idxs[pi]) {
                    actor.set_flight(handle);
                }
                let added = spawner.add(actor);
                debug_assert_eq!(added, NodeId::from_index(idxs[pi]));
                nodes.push(added);
            }
            group_nodes.push(nodes);
            group_ids.push(group);
            group_advs.push(adv);
        }

        let proxy_peer = peer_of(proxy_idx);
        let mut proxy_cfg = self.proxy.clone();
        proxy_cfg.strategy = strategy;
        let mut proxy = SwsProxyActor::new(
            proxy_peer,
            &self.service,
            self.ontology,
            directory.clone(),
            proxy_cfg,
        );
        for idxs in &group_node_idx {
            for &i in idxs {
                proxy.add_known_peer(peer_of(i));
            }
        }
        if let Some(r) = rendezvous_idx {
            proxy.add_known_peer(peer_of(r));
        }
        if let Some(rec) = &self.recorder {
            proxy.set_recorder(rec.clone());
        }
        if let Some(cfg) = pulse_cfg {
            proxy.set_pulse(cfg);
        }
        if let Some(handle) = flight_of(proxy_idx) {
            proxy.set_flight(handle);
        }
        let proxy_node = spawner.add(proxy);
        debug_assert_eq!(proxy_node, NodeId::from_index(proxy_idx));

        let mut client_nodes = Vec::new();
        for (ci, tpl) in self.clients.into_iter().enumerate() {
            let cc = ClientConfig {
                proxy_node,
                workload: tpl.workload,
                payloads: tpl.payloads,
                total: tpl.total,
                timeout: tpl.timeout,
                warmup: tpl.warmup,
            };
            let mut actor = ClientActor::new(cc);
            if let Some(rec) = &self.recorder {
                actor.set_recorder(rec.clone());
            }
            let added = spawner.add(actor);
            debug_assert_eq!(added, NodeId::from_index(client_idx[ci]));
            client_nodes.push(added);
        }

        let mut collector_node = None;
        if let (Some(p), Some(c)) = (self.pulse, collector_idx) {
            let added = spawner.add(PulseCollectorActor::new(p.store));
            debug_assert_eq!(added, NodeId::from_index(c));
            collector_node = Some(added);
        }

        Ok(Topology {
            rendezvous: rendezvous_idx.map(NodeId::from_index),
            group_nodes,
            group_ids,
            group_advs,
            proxy: proxy_node,
            clients: client_nodes,
            collector: collector_node,
            directory,
            strategy,
            node_count: next_node,
            flight: flight_plane,
        })
    }
}

/// Where a wired scenario's actors landed, substrate-independently.
pub struct Topology {
    /// The rendezvous node, when deployed with one.
    pub rendezvous: Option<NodeId>,
    /// B-peer nodes, group by group, in peer-id order.
    pub group_nodes: Vec<Vec<NodeId>>,
    /// Group ids, parallel to `group_nodes`.
    pub group_ids: Vec<GroupId>,
    /// The semantic advertisement each group publishes.
    pub group_advs: Vec<SemanticAdv>,
    /// The node hosting the Web service + SWS-proxy.
    pub proxy: NodeId,
    /// Client nodes, in configuration order.
    pub clients: Vec<NodeId>,
    /// The pulse collector node, when the pulse plane is wired.
    pub collector: Option<NodeId>,
    /// The peer↔node directory the actors share.
    pub directory: Directory,
    /// The discovery strategy the deployment uses.
    pub strategy: DiscoveryStrategy,
    /// Total nodes placed (the next free node index).
    pub node_count: usize,
    /// The flight-recorder plane, when wired: one handle per node, ready
    /// for [`FlightPlane::capture`] into an incident timeline.
    pub flight: Option<FlightPlane>,
}

impl Topology {
    /// Every b-peer node, across all groups.
    pub fn all_bpeers(&self) -> Vec<NodeId> {
        self.group_nodes.iter().flatten().copied().collect()
    }

    /// The peer id living on `node` (node index + 1 by construction).
    pub fn peer_of(&self, node: NodeId) -> PeerId {
        PeerId::new(node.index() as u64 + 1)
    }
}

/// Builds replica backends for a [`GroupBlueprint`]: one call per b-peer,
/// one fresh backend per boot.
pub type BackendFactory = Arc<dyn Fn() -> Box<dyn ServiceBackend> + Send + Sync>;

/// A b-peer group described by *how to build it* rather than by boxed
/// backend instances, so one [`Deployment`] can boot many networks.
pub struct GroupBlueprint {
    /// Symbolic group name (the syntactic identity).
    pub name: String,
    /// The WSDL-S operation the group serves (advertisement concepts are
    /// taken from its annotations).
    pub operation: String,
    /// Number of redundant b-peers.
    pub replicas: usize,
    /// Produces one backend per replica.
    pub backend: BackendFactory,
    /// Per-group override of the replica service time.
    pub processing_time: Option<SimDuration>,
}

impl GroupBlueprint {
    /// `replicas` interchangeable b-peers serving `operation`.
    pub fn replicated(
        name: impl Into<String>,
        operation: impl Into<String>,
        replicas: usize,
        backend: BackendFactory,
    ) -> GroupBlueprint {
        GroupBlueprint {
            name: name.into(),
            operation: operation.into(),
            replicas,
            backend,
            processing_time: None,
        }
    }
}

/// A substrate-agnostic Whisper deployment: the scenario as data, bootable
/// any number of times on any runtime.
///
/// # Examples
///
/// The same deployment on the simulator and on OS threads:
///
/// ```
/// use whisper::deploy::Deployment;
/// use whisper_simnet::{SimDuration, Substrate};
///
/// let dep = Deployment::student(3);
///
/// let mut sim = dep.boot_sim(42).expect("well-formed");
/// sim.net.advance(SimDuration::from_secs(2));
/// assert!(sim.net.metrics_snapshot().sent > 0);
///
/// let mut live = dep.boot_threadnet().expect("well-formed");
/// live.net.advance(SimDuration::from_millis(50));
/// assert!(live.net.metrics_snapshot().sent > 0);
/// live.net.shutdown();
/// ```
pub struct Deployment {
    /// The semantic Web service the proxy exposes.
    pub service: ServiceDescription,
    /// The shared deployment ontology.
    pub ontology: Ontology,
    /// B-peer groups, as blueprints.
    pub groups: Vec<GroupBlueprint>,
    /// Use a dedicated rendezvous peer instead of flooding.
    pub use_rendezvous: bool,
    /// B-peer tuning (strategy is overwritten to match the deployment).
    pub bpeer: BPeerConfig,
    /// Proxy tuning (strategy is overwritten to match the deployment).
    pub proxy: ProxyConfig,
    /// Clients to deploy.
    pub clients: Vec<ClientConfigTemplate>,
    /// Install a fresh [`AvailabilityLedger`] into every boot's b-peers.
    pub with_ledger: bool,
    /// Install the always-on flight recorder into every boot's nodes
    /// (ring budget [`whisper_obs::flight::DEFAULT_RING_BYTES`] per node).
    pub with_flight: bool,
}

/// A freshly booted deployment on any [`Substrate`] — the one cluster
/// facade every harness drives: the transport, where the actors landed,
/// the observability handles the wiring carried, and the edge node's
/// surface ([`Booted::poll`], [`Booted::settle`], [`Booted::submit`],
/// [`Booted::response`]), all paced by [`Substrate::now`] /
/// [`Substrate::advance`] so the same line waits in virtual time on the
/// simulator and on the wall on the live runtimes.
///
/// Faults go through the transport itself (`booted.net.kill_node(..)`,
/// `booted.net.execute_plan(..)`): the facade adds what `Substrate` does
/// not have, it does not re-export what it has.
///
/// # Examples
///
/// ```
/// use whisper::deploy::Deployment;
/// use whisper_simnet::{SimDuration, Substrate};
/// use whisper_xml::Element;
///
/// let mut rig = Deployment::student(3).boot_sim(42).expect("well-formed");
/// let group = rig.topology.group_nodes[0].clone();
/// let timeout = SimDuration::from_secs(10);
/// // wait until the cluster says it has elected, not for a horizon
/// assert!(rig.settle(&group, timeout, |poll| poll.coordinator() == Some(3)));
///
/// let mut payload = Element::new("StudentInformation");
/// payload.push_child(Element::with_text("StudentID", "u1001"));
/// let id = rig.submit(payload);
/// rig.net.kill_node(group[2]); // the coordinator, mid-request
/// let answer = rig.await_response(id, timeout).expect("failed over");
/// assert_eq!(answer.copies, 1);
/// ```
///
/// [`Substrate`]: whisper_simnet::Substrate
/// [`Substrate::now`]: whisper_simnet::Substrate::now
/// [`Substrate::advance`]: whisper_simnet::Substrate::advance
pub struct Booted<N> {
    /// The running (or, for the simulator, runnable) network.
    pub net: N,
    /// Where the scenario's actors landed. The edge node sits behind them,
    /// at index `topology.node_count`.
    pub topology: Topology,
    /// The availability ledger, when the wiring carried one.
    pub ledger: Option<AvailabilityLedger>,
    /// The trace recorder, when the wiring carried one.
    pub recorder: Option<Recorder>,
    /// The pulse collector's store, when the wiring carried a pulse plane.
    pub pulse_store: Option<SharedPulseStore>,
    edge: Edge,
}

/// How long the edge lets the substrate run between two looks at its store.
const PACE: SimDuration = SimDuration::from_millis(2);

/// How long one poll inside [`Booted::settle`] waits for its targets.
const SETTLE_POLL: SimDuration = SimDuration::from_secs(2);

/// The pause between two polls of [`Booted::settle`].
const SETTLE_PAUSE: SimDuration = SimDuration::from_millis(20);

impl<N: Substrate<WhisperMsg>> Booted<N> {
    /// The edge node: where polls and submitted requests come from.
    pub fn edge_node(&self) -> NodeId {
        self.edge.node()
    }

    /// Lets the substrate run in [`PACE`] steps until `look` finds what it
    /// is waiting for in the edge's store, or `deadline` passes.
    fn pace_until<T>(&mut self, deadline: SimTime, look: impl Fn(&Edge) -> Option<T>) -> Option<T> {
        loop {
            let found = look(&self.edge);
            if found.is_some() || self.net.now() >= deadline {
                return found;
            }
            self.net.advance(PACE);
        }
    }

    /// One scope poll: sends a [`WhisperMsg::ScopeRequest`] to every target
    /// and waits up to `timeout` for the snapshots. A killed target never
    /// answers; the returned [`Poll`] knows it is incomplete. The poll is
    /// retired on return — a snapshot that lands later is counted in
    /// [`Booted::late_arrivals`] and dropped.
    pub fn poll(&mut self, targets: &[NodeId], timeout: SimDuration) -> Poll {
        let request_id = self.edge.open_poll();
        for &t in targets {
            self.net
                .inject(self.edge.node(), t, WhisperMsg::ScopeRequest { request_id });
        }
        let deadline = self.net.now() + timeout;
        self.pace_until(deadline, |edge| {
            (edge.poll_len() >= targets.len()).then_some(())
        });
        self.edge.close_poll(targets.len())
    }

    /// Polls `targets` until every one of them answers and `settled`
    /// accepts the poll; `false` when `timeout` ran out first. This is how
    /// a harness waits for the cluster to *say* something has taken effect
    /// instead of sleeping for a horizon it hopes is long enough.
    pub fn settle(
        &mut self,
        targets: &[NodeId],
        timeout: SimDuration,
        mut settled: impl FnMut(&Poll) -> bool,
    ) -> bool {
        let deadline = self.net.now() + timeout;
        loop {
            let poll = self.poll(targets, SETTLE_POLL);
            if poll.complete() && settled(&poll) {
                return true;
            }
            if self.net.now() >= deadline {
                return false;
            }
            self.net.advance(SETTLE_PAUSE);
        }
    }

    /// [`Booted::settle`] for the commonest wait, the boot election: every
    /// member of group `gi` answers and all name the same coordinator.
    pub fn await_election(&mut self, gi: usize, timeout: SimDuration) -> bool {
        let members = self.topology.group_nodes[gi].clone();
        self.settle(&members, timeout, |poll| poll.coordinator().is_some())
    }

    /// Injects `payload` as a SOAP request from the edge to the proxy and
    /// returns its request id.
    pub fn submit(&mut self, payload: Element) -> u64 {
        self.submit_envelope(Envelope::request(payload).to_xml_string())
    }

    /// [`Booted::submit`] for an envelope serialized by the caller (load
    /// generators serialize once per run).
    pub fn submit_envelope(&mut self, envelope: String) -> u64 {
        let request_id = self.edge.expect_answer();
        self.net.inject(
            self.edge.node(),
            self.topology.proxy,
            WhisperMsg::SoapRequest {
                request_id,
                envelope,
            },
        );
        request_id
    }

    /// Hands over the answer to `request_id` when it has arrived: the edge
    /// forgets it, and a copy arriving later counts as a late arrival.
    pub fn response(&mut self, request_id: u64) -> Option<Answer> {
        self.edge.take_answer(request_id)
    }

    /// Waits up to `timeout` for the answer to `request_id` and hands it
    /// over.
    pub fn await_response(&mut self, request_id: u64, timeout: SimDuration) -> Option<Answer> {
        let deadline = self.net.now() + timeout;
        self.pace_until(deadline, |edge| edge.take_answer(request_id))
    }

    /// Distinct submitted requests answered so far.
    pub fn answered(&self) -> u64 {
        self.edge.answered()
    }

    /// Waits until `n` distinct requests are answered or `timeout` passes;
    /// returns whether they were.
    pub fn await_answered(&mut self, n: u64, timeout: SimDuration) -> bool {
        let deadline = self.net.now() + timeout;
        self.pace_until(deadline, |edge| (edge.answered() >= n).then_some(()))
            .is_some()
    }

    /// Arrivals the edge dropped because nobody was waiting any more:
    /// snapshots of a retired poll, copies of a response already read.
    pub fn late_arrivals(&self) -> u64 {
        self.edge.late()
    }

    /// Stops waiting for every unanswered request and drops every unread
    /// answer, so a measurement can start from zero; stragglers count as
    /// late arrivals.
    pub fn forget_requests(&mut self) {
        self.edge.forget();
    }
}

impl ScenarioWiring {
    /// The one boot body: wires the scenario onto `spawner`, appends the
    /// edge node behind it, and turns the spawner into the running network
    /// with `start` — `Ok` for the simulator, the builders' `start` for the
    /// live runtimes.
    ///
    /// The edge is appended here and not by [`ScenarioWiring::wire`], so
    /// `wire` places exactly the scenario and every scenario node id means
    /// the same with or without a harness attached.
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`]; additionally [`WhisperError::Io`] for
    /// whatever `start` reports (socket errors on TCP).
    pub fn boot<S: Spawner<WhisperMsg>, N>(
        self,
        mut spawner: S,
        start: impl FnOnce(S) -> std::io::Result<N>,
    ) -> Result<Booted<N>, WhisperError> {
        let ledger = self.ledger.clone();
        let recorder = self.recorder.clone();
        let pulse_store = self.pulse.as_ref().map(|p| p.store.clone());
        let topology = self.wire(&mut spawner)?;
        let edge = Edge::add_to(&mut spawner);
        Ok(Booted {
            net: start(spawner)?,
            topology,
            ledger,
            recorder,
            pulse_store,
            edge,
        })
    }

    /// [`ScenarioWiring::boot`] on the deterministic simulator
    /// (paper-testbed link model).
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`].
    pub fn boot_sim(self, seed: u64) -> Result<Booted<SimNet<WhisperMsg>>, WhisperError> {
        self.boot(SimNet::with_link(seed, SwitchedLan::paper_testbed()), Ok)
    }

    /// [`ScenarioWiring::boot`] on OS threads and channels (wall clock).
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`].
    pub fn boot_threadnet(self) -> Result<Booted<ThreadNet<WhisperMsg>>, WhisperError> {
        self.boot(ThreadNetBuilder::new(), |b| Ok(b.start()))
    }

    /// [`ScenarioWiring::boot`] on real TCP loopback sockets (wall clock,
    /// every message encoded to bytes and framed).
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`]; additionally [`WhisperError::Io`] for
    /// socket errors while opening the loopback mesh.
    pub fn boot_tcp(self) -> Result<Booted<TcpNet<WhisperMsg>>, WhisperError> {
        self.boot(TcpNetBuilder::new(), TcpNetBuilder::start)
    }
}

impl Deployment {
    /// The paper's running example as a reusable deployment:
    /// `StudentManagement` served by one group of `replicas` operational-db
    /// b-peers, flood discovery, no clients, availability ledger on.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is zero.
    pub fn student(replicas: usize) -> Deployment {
        assert!(replicas > 0, "need at least one b-peer");
        Deployment {
            service: whisper_wsdl::samples::student_management(),
            ontology: whisper_ontology::samples::university_ontology(),
            groups: vec![GroupBlueprint::replicated(
                "StudentInfoGroup",
                "StudentInformation",
                replicas,
                Arc::new(|| Box::new(StudentRegistry::operational_db().with_sample_data())),
            )],
            use_rendezvous: false,
            bpeer: BPeerConfig::default(),
            proxy: ProxyConfig::default(),
            clients: Vec::new(),
            with_ledger: true,
            with_flight: true,
        }
    }

    /// Materializes one boot's wiring (fresh backends, fresh ledger).
    fn wiring(&self) -> Result<ScenarioWiring, WhisperError> {
        let mut groups = Vec::with_capacity(self.groups.len());
        for b in &self.groups {
            if b.replicas == 0 {
                return Err(WhisperError::BadDeployment(format!(
                    "group {:?} has no b-peers",
                    b.name
                )));
            }
            let op = self.service.operation(&b.operation)?;
            let backends: Vec<Box<dyn ServiceBackend>> =
                (0..b.replicas).map(|_| (b.backend)()).collect();
            let mut spec = GroupSpec::from_operation(b.name.clone(), op, backends);
            spec.processing_time = b.processing_time;
            groups.push(spec);
        }
        Ok(ScenarioWiring {
            service: self.service.clone(),
            ontology: self.ontology.clone(),
            groups,
            use_rendezvous: self.use_rendezvous,
            firewall_bpeers: false,
            bpeer: self.bpeer.clone(),
            proxy: self.proxy.clone(),
            clients: self.clients.clone(),
            ledger: self.with_ledger.then(AvailabilityLedger::default),
            recorder: None,
            pulse: None,
            flight: self
                .with_flight
                .then_some(whisper_obs::flight::DEFAULT_RING_BYTES),
        })
    }

    /// Boots on the deterministic simulator (paper-testbed link model).
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`].
    pub fn boot_sim(&self, seed: u64) -> Result<Booted<SimNet<WhisperMsg>>, WhisperError> {
        self.wiring()?.boot_sim(seed)
    }

    /// Boots on OS threads and crossbeam channels (wall-clock time).
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`].
    pub fn boot_threadnet(&self) -> Result<Booted<ThreadNet<WhisperMsg>>, WhisperError> {
        self.wiring()?.boot_threadnet()
    }

    /// Boots on real TCP loopback sockets (wall-clock time, every message
    /// encoded to bytes and framed).
    ///
    /// # Errors
    ///
    /// See [`ScenarioWiring::wire`]; additionally [`WhisperError::Io`] for
    /// socket errors while opening the loopback mesh.
    pub fn boot_tcp(&self) -> Result<Booted<TcpNet<WhisperMsg>>, WhisperError> {
        self.wiring()?.boot_tcp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_simnet::FaultAction;

    /// The same deployment wires to the same topology on every substrate.
    #[test]
    fn layout_is_identical_across_substrates() {
        let dep = Deployment::student(3);
        let sim = dep.boot_sim(1).expect("sim boots");
        let live = dep.boot_threadnet().expect("threadnet boots");
        assert_eq!(sim.topology.node_count, live.topology.node_count);
        assert_eq!(sim.topology.proxy, live.topology.proxy);
        assert_eq!(sim.topology.all_bpeers(), live.topology.all_bpeers());
        assert_eq!(sim.topology.group_ids, live.topology.group_ids);
        live.net.shutdown();
    }

    /// The ledger handed back by boot is the one the b-peers feed.
    #[test]
    fn booted_ledger_is_live() {
        let dep = Deployment::student(3);
        let mut booted = dep.boot_sim(7).expect("sim boots");
        let ledger = booted.ledger.clone().expect("student() wires a ledger");
        Substrate::advance(&mut booted.net, SimDuration::from_secs(3));
        let report = ledger
            .service_report(
                booted.topology.group_ids[0].value(),
                Substrate::now(&booted.net),
            )
            .expect("b-peers fed the ledger");
        assert!(report.up, "group elected a coordinator: {report:?}");
        assert_eq!(report.coordinator, Some(3), "Bully winner is peer 3");
    }

    /// The always-on flight plane records substrate traffic and protocol
    /// milestones, and the merged timeline is causally ordered.
    #[test]
    fn booted_flight_plane_records_a_causal_timeline() {
        let dep = Deployment::student(3);
        let mut booted = dep.boot_sim(11).expect("sim boots");
        let flight = booted
            .topology
            .flight
            .clone()
            .expect("student() wires flight");
        assert_eq!(flight.handles().len(), booted.topology.node_count);
        Substrate::advance(&mut booted.net, SimDuration::from_secs(3));
        let timeline = flight.capture();
        assert!(!timeline.events().is_empty(), "rings saw traffic");
        assert!(timeline.causally_consistent(), "no recv before its send");
        // Protocol milestones made it in: the group elected a coordinator.
        let elected = timeline.events().iter().any(|e| {
            matches!(
                &e.kind,
                whisper_obs::FlightEventKind::Election { detail, .. } if detail == "elected"
            )
        });
        assert!(elected, "election milestone recorded");
    }

    /// The edge keeps nothing past its reader: a poll that timed out is
    /// retired, so the snapshot a stalled node sends after the deadline is
    /// counted and dropped instead of re-creating the poll's entry.
    #[test]
    fn late_snapshot_is_dropped_and_the_store_stays_empty() {
        let mut booted = Deployment::student(3).boot_sim(5).expect("sim boots");
        let group = booted.topology.group_nodes[0].clone();
        assert!(booted.await_election(0, SimDuration::from_secs(30)));
        assert_eq!((booted.edge.held(), booted.late_arrivals()), (0, 0));

        let stalled = group[0];
        let stall = SimDuration::from_millis(200);
        booted.net.apply_action(FaultAction::Stall(stalled, stall));
        let poll = booted.poll(&group, SimDuration::from_millis(50));
        assert_eq!(poll.len(), 2, "the stalled node's answer is held back");
        assert!(poll.iter().all(|(n, _)| *n != stalled));
        assert_eq!(poll.coordinator(), None, "a silent target is no agreement");

        booted.net.advance(stall + stall);
        assert_eq!(booted.late_arrivals(), 1, "the held-back answer landed");
        assert_eq!(booted.edge.held(), 0, "and re-created nothing");
    }

    /// A response is handed over on read, once; copies that arrive before
    /// the read are counted on it, copies after it are late arrivals.
    #[test]
    fn response_is_handed_over_once_with_its_copies_counted() {
        let mut booted = Deployment::student(3).boot_sim(9).expect("sim boots");
        let timeout = SimDuration::from_secs(30);
        assert!(booted.await_election(0, timeout));

        let mut payload = Element::new("StudentInformation");
        payload.push_child(Element::with_text("StudentID", "u1000"));
        let id = booted.submit(payload);
        assert!(booted.await_answered(1, timeout));
        let (edge, proxy) = (booted.edge_node(), booted.topology.proxy);
        let copy = |envelope: &str| WhisperMsg::SoapResponse {
            request_id: id,
            envelope: envelope.to_string(),
        };
        booted.net.inject(proxy, edge, copy("<copy/>"));
        booted.net.advance(SimDuration::from_millis(10));

        let answer = booted.response(id).expect("answered");
        assert_eq!(answer.copies, 2);
        assert!(answer.envelope.contains("u1000"), "{}", answer.envelope);
        assert_eq!(booted.response(id), None, "handed over, not cloned");
        assert_eq!(booted.edge.held(), 0);

        booted.net.inject(proxy, edge, copy("<copy/>"));
        booted.net.advance(SimDuration::from_millis(10));
        assert_eq!((booted.answered(), booted.late_arrivals()), (1, 1));
        assert_eq!(booted.edge.held(), 0);
    }

    #[test]
    fn blueprint_with_zero_replicas_is_rejected() {
        let mut dep = Deployment::student(2);
        dep.groups[0].replicas = 0;
        assert!(matches!(
            dep.boot_sim(0),
            Err(WhisperError::BadDeployment(_))
        ));
    }
}

//! The deployment harness: builds a complete Whisper network on the
//! simulator with one call.
//!
//! Node layout (insertion order is the directory order):
//! `[rendezvous?] [b-peers, group by group] [proxy] [clients...]`.

use crate::backend::{ServiceBackend, StudentRegistry};
use crate::bpeer::{BPeerActor, BPeerConfig};
use crate::client::{ClientActor, ClientStats};
use crate::deploy::{RendezvousActor, ScenarioWiring, Topology};
use crate::directory::Directory;
use crate::msg::WhisperMsg;
use crate::proxy::{ProxyConfig, ProxyStats, SwsProxyActor};
use crate::pulse::{self, PulseCollectorActor, PulseConfig, SharedPulseStore};
use crate::WhisperError;
use whisper_obs::{AvailabilityLedger, NodeSnapshot, Recorder};
use whisper_ontology::Ontology;
use whisper_p2p::{GroupId, PeerId, QosSpec};
use whisper_simnet::{FaultPlan, Metrics, NodeId, SimDuration, SimNet, SimTime, SwitchedLan};
use whisper_soap::Envelope;
use whisper_wsdl::{Operation, ServiceDescription};
use whisper_xml::Element;

/// One semantic b-peer group to deploy: its advertisement concepts and one
/// backend per replica.
pub struct GroupSpec {
    /// Symbolic group name (the syntactic identity).
    pub name: String,
    /// Action concept advertised by the group.
    pub action: whisper_xml::QName,
    /// Input concepts, in signature order.
    pub inputs: Vec<whisper_xml::QName>,
    /// Output concepts, in signature order.
    pub outputs: Vec<whisper_xml::QName>,
    /// QoS claims placed on the advertisement, if any.
    pub qos: Option<QosSpec>,
    /// Per-group override of the replica service time.
    pub processing_time: Option<SimDuration>,
    /// One backend per b-peer; the group size is `backends.len()`.
    pub backends: Vec<Box<dyn ServiceBackend>>,
}

impl GroupSpec {
    /// Builds a spec whose concepts mirror a WSDL-S operation exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use whisper::{EchoBackend, GroupSpec, ServiceBackend};
    ///
    /// let service = whisper_wsdl::samples::student_management();
    /// let op = service.operation("StudentInformation").expect("sample op");
    /// let backends: Vec<Box<dyn ServiceBackend>> =
    ///     vec![Box::new(EchoBackend), Box::new(EchoBackend)];
    /// let group = GroupSpec::from_operation("InfoGroup", op, backends);
    /// assert_eq!(group.backends.len(), 2);
    /// assert_eq!(group.inputs.len(), 1);
    /// ```
    pub fn from_operation(
        name: impl Into<String>,
        op: &Operation,
        backends: Vec<Box<dyn ServiceBackend>>,
    ) -> Self {
        GroupSpec {
            name: name.into(),
            action: op.action.clone(),
            inputs: op.inputs.iter().map(|p| p.concept.clone()).collect(),
            outputs: op.outputs.iter().map(|p| p.concept.clone()).collect(),
            qos: None,
            processing_time: None,
            backends,
        }
    }
}

/// [`ClientConfig`](crate::client::ClientConfig) without the proxy node
/// (assigned by the harness).
#[derive(Debug, Clone)]
pub struct ClientConfigTemplate {
    /// Traffic generation mode.
    pub workload: crate::client::Workload,
    /// Request payloads, cycled.
    pub payloads: Vec<Element>,
    /// Stop after this many requests.
    pub total: Option<u64>,
    /// Client-side timeout.
    pub timeout: SimDuration,
    /// Delay before the first autonomous request.
    pub warmup: SimDuration,
}

impl Default for ClientConfigTemplate {
    fn default() -> Self {
        ClientConfigTemplate {
            workload: crate::client::Workload::Manual,
            payloads: Vec::new(),
            total: None,
            timeout: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(2),
        }
    }
}

/// Full configuration of a Whisper deployment.
pub struct DeploymentConfig {
    /// RNG seed for the simulator (reproducibility).
    pub seed: u64,
    /// The semantic Web service the proxy exposes.
    pub service: ServiceDescription,
    /// The shared deployment ontology.
    pub ontology: Ontology,
    /// B-peer groups to deploy.
    pub groups: Vec<GroupSpec>,
    /// Use a dedicated rendezvous peer instead of flooding.
    pub use_rendezvous: bool,
    /// Put every b-peer behind a firewall/NAT: its only reachable neighbour
    /// is the rendezvous peer, which doubles as its JXTA relay. Requires
    /// `use_rendezvous`; direct links are blocked on the simulator so any
    /// unrouted traffic shows up as partition drops.
    pub firewall_bpeers: bool,
    /// B-peer tuning (strategy is overwritten to match the deployment).
    pub bpeer: BPeerConfig,
    /// Proxy tuning (strategy is overwritten to match the deployment).
    pub proxy: ProxyConfig,
    /// Clients to deploy.
    pub clients: Vec<ClientConfigTemplate>,
    /// The link model.
    pub link: SwitchedLan,
}

impl Default for DeploymentConfig {
    /// The paper scenario skeleton: StudentManagement service over the
    /// university ontology, flood discovery, no groups or clients yet.
    fn default() -> Self {
        DeploymentConfig {
            seed: 0,
            service: whisper_wsdl::samples::student_management(),
            ontology: whisper_ontology::samples::university_ontology(),
            groups: Vec::new(),
            use_rendezvous: false,
            firewall_bpeers: false,
            bpeer: BPeerConfig::default(),
            proxy: ProxyConfig::default(),
            clients: vec![ClientConfigTemplate::default()],
            link: SwitchedLan::paper_testbed(),
        }
    }
}

/// A fully wired Whisper deployment on the deterministic simulator.
///
/// See the crate docs for a quickstart.
pub struct WhisperNet {
    net: SimNet<WhisperMsg>,
    /// Where the wiring pass put everything; `enable_pulse` and
    /// `add_bpeer` keep it current.
    topology: Topology,
    bpeer_cfg: BPeerConfig,
    obs: Option<Recorder>,
    ledger: Option<AvailabilityLedger>,
    pulse: Option<(SharedPulseStore, NodeId, SimDuration)>,
}

impl WhisperNet {
    /// Builds and wires a deployment.
    ///
    /// # Errors
    ///
    /// [`WhisperError::BadDeployment`] for structurally impossible
    /// configurations (no groups, empty group, unresolvable service
    /// annotations).
    pub fn build(cfg: DeploymentConfig) -> Result<Self, WhisperError> {
        let firewall_bpeers = cfg.firewall_bpeers;
        let bpeer_cfg = cfg.bpeer.clone();
        let wiring = ScenarioWiring {
            service: cfg.service,
            ontology: cfg.ontology,
            groups: cfg.groups,
            use_rendezvous: cfg.use_rendezvous,
            firewall_bpeers,
            bpeer: cfg.bpeer,
            proxy: cfg.proxy,
            clients: cfg.clients,
            ledger: None,
            recorder: None,
            pulse: None,
            flight: None,
        };
        let mut net: SimNet<WhisperMsg> = SimNet::with_link(cfg.seed, cfg.link);
        let topology = wiring.wire(&mut net)?;

        // Enforce the firewall on the wire: block every direct link that a
        // NATed b-peer must not use, leaving only b-peer↔rendezvous. Any
        // traffic that bypasses the relay then surfaces as a partition drop
        // in the metrics (asserted zero by the relay experiment). The
        // directory routes come from the wiring pass; the wire-level
        // blocks are a simulator capability, so they live here.
        if firewall_bpeers {
            let all_bpeers = topology.all_bpeers();
            let mut plan = FaultPlan::new();
            for (i, &a) in all_bpeers.iter().enumerate() {
                plan.block_at(a, topology.proxy, SimTime::ZERO);
                for &c in &topology.clients {
                    plan.block_at(a, c, SimTime::ZERO);
                }
                for &b in &all_bpeers[i + 1..] {
                    plan.block_at(a, b, SimTime::ZERO);
                }
            }
            net.apply_faults(&plan);
        }

        Ok(WhisperNet {
            net,
            topology,
            bpeer_cfg,
            obs: None,
            ledger: None,
            pulse: None,
        })
    }

    /// Installs a shared observability [`Recorder`] into every actor of
    /// the deployment (proxy, b-peers, clients, rendezvous) plus the
    /// engine's network hook, and returns a handle to it. Idempotent:
    /// repeated calls return the same recorder.
    pub fn enable_obs(&mut self) -> Recorder {
        if let Some(rec) = &self.obs {
            return rec.clone();
        }
        let rec = Recorder::new();
        self.net.set_net_hook(Box::new(rec.clone()));
        self.net
            .node_mut::<SwsProxyActor>(self.topology.proxy)
            .set_recorder(rec.clone());
        for n in self.topology.all_bpeers() {
            self.net.node_mut::<BPeerActor>(n).set_recorder(rec.clone());
        }
        for c in self.topology.clients.clone() {
            self.net
                .node_mut::<ClientActor>(c)
                .set_recorder(rec.clone());
        }
        if let Some(r) = self.topology.rendezvous {
            let rv = self.net.node_mut::<RendezvousActor>(r);
            rv.disco.set_recorder(rec.clone());
            rv.obs = Some(rec.clone());
        }
        self.obs = Some(rec.clone());
        rec
    }

    /// The installed recorder, when [`WhisperNet::enable_obs`] has run.
    pub fn recorder(&self) -> Option<Recorder> {
        self.obs.clone()
    }

    /// Installs a shared [`AvailabilityLedger`] into every b-peer of the
    /// deployment and returns a handle to it. Heartbeats extend uptime,
    /// failure-detector suspicions open downtime intervals, and elections
    /// close the per-service ones — so reports are available *online*,
    /// while the deployment runs. Idempotent: repeated calls return the
    /// same ledger.
    pub fn enable_ledger(&mut self) -> AvailabilityLedger {
        if let Some(ledger) = &self.ledger {
            return ledger.clone();
        }
        let ledger = AvailabilityLedger::default();
        for n in self.topology.all_bpeers() {
            self.net
                .node_mut::<BPeerActor>(n)
                .set_ledger(ledger.clone());
        }
        self.ledger = Some(ledger.clone());
        ledger
    }

    /// The installed ledger, when [`WhisperNet::enable_ledger`] has run.
    pub fn ledger(&self) -> Option<AvailabilityLedger> {
        self.ledger.clone()
    }

    /// Deploys the pulse telemetry plane: adds a collector node and makes
    /// every actor (proxy, b-peers, rendezvous) push a
    /// [`WhisperMsg::PulseReport`] to it every `interval`. Returns the
    /// collector's shared store for windowed queries. Call before the
    /// deployment first runs (emission starts from each actor's
    /// `on_start`). Idempotent: repeated calls return the same store and
    /// ignore a changed interval.
    pub fn enable_pulse(&mut self, interval: SimDuration) -> SharedPulseStore {
        if let Some((store, _, _)) = &self.pulse {
            return store.clone();
        }
        // Bounds sized for long soaks: 256 windows/node, 128 traces, 4 MiB.
        let store = pulse::shared_store(256, 128, 4 << 20);
        let collector = self.net.add_node(PulseCollectorActor::new(store.clone()));
        self.topology.node_count += 1;
        self.topology.collector = Some(collector);
        let cfg = PulseConfig::new(collector, interval);
        self.net
            .node_mut::<SwsProxyActor>(self.topology.proxy)
            .set_pulse(cfg);
        for n in self.topology.all_bpeers() {
            self.net.node_mut::<BPeerActor>(n).set_pulse(cfg);
        }
        if let Some(r) = self.topology.rendezvous {
            self.net.node_mut::<RendezvousActor>(r).pulse = Some(cfg);
        }
        self.pulse = Some((store.clone(), collector, interval));
        store
    }

    /// The pulse store, when [`WhisperNet::enable_pulse`] has run.
    pub fn pulse_store(&self) -> Option<SharedPulseStore> {
        self.pulse.as_ref().map(|(s, _, _)| s.clone())
    }

    /// The pulse collector node, when [`WhisperNet::enable_pulse`] has run.
    pub fn pulse_collector(&self) -> Option<NodeId> {
        self.pulse.as_ref().map(|&(_, n, _)| n)
    }

    /// The introspection snapshot of any non-client node, exactly as a
    /// [`WhisperMsg::ScopeRequest`] over the wire would see it.
    ///
    /// # Panics
    ///
    /// Panics when `node` is a client (clients serve no snapshot).
    pub fn scope_snapshot(&self, node: NodeId) -> NodeSnapshot {
        if node == self.topology.proxy {
            return self.net.node::<SwsProxyActor>(node).scope_snapshot();
        }
        if Some(node) == self.topology.rendezvous {
            return self.net.node::<RendezvousActor>(node).scope_snapshot();
        }
        assert!(
            !self.topology.clients.contains(&node),
            "clients serve no scope snapshot"
        );
        self.net.node::<BPeerActor>(node).scope_snapshot(self.now())
    }

    /// Adds a b-peer to group `gi` **at runtime** — the paper's §4.2:
    /// "b-peers may join or publish advertisements at different times …
    /// dynamically increasing the level of availability of a Web service".
    /// The newcomer gets the next peer id (so, being the highest, it will
    /// bully its way to coordinator), registers itself in the directory,
    /// and existing members learn it from its election and heartbeat
    /// traffic.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range group index.
    pub fn add_bpeer(&mut self, gi: usize, backend: Box<dyn ServiceBackend>) -> NodeId {
        let group = self.topology.group_ids[gi];
        let adv = self.topology.group_advs[gi].clone();
        let peer = PeerId::new(
            self.topology
                .directory
                .max_peer()
                .map(|p| p.value() + 1)
                .unwrap_or(1),
        );
        let node = NodeId::from_index(self.topology.node_count);
        self.topology.node_count += 1;
        self.topology.directory.register(peer, node);

        let mut members: Vec<PeerId> = self.topology.group_nodes[gi]
            .iter()
            .filter_map(|&n| self.topology.directory.peer_of(n))
            .collect();
        members.push(peer);
        let mut cfg = self.bpeer_cfg.clone();
        cfg.strategy = self.topology.strategy;
        let actor = BPeerActor::new(
            peer,
            group,
            members,
            adv,
            backend,
            self.topology.directory.clone(),
            cfg,
        );
        let added = self.net.add_node(actor);
        debug_assert_eq!(added, node);
        if let Some(rec) = &self.obs {
            self.net
                .node_mut::<BPeerActor>(added)
                .set_recorder(rec.clone());
        }
        if let Some(ledger) = &self.ledger {
            self.net
                .node_mut::<BPeerActor>(added)
                .set_ledger(ledger.clone());
        }
        if let Some(&(_, collector, interval)) = self.pulse.as_ref() {
            self.net
                .node_mut::<BPeerActor>(added)
                .set_pulse(PulseConfig::new(collector, interval));
        }
        self.topology.group_nodes[gi].push(added);
        // the proxy may flood-query the newcomer too
        self.net
            .node_mut::<SwsProxyActor>(self.topology.proxy)
            .add_known_peer(peer);
        added
    }

    /// The paper's running example: one `StudentManagement` service backed
    /// by one semantic group of `n_bpeers` replicas that alternate between
    /// the operational database and the data warehouse, plus one manual
    /// client. Flood discovery.
    ///
    /// # Panics
    ///
    /// Panics when `n_bpeers` is zero.
    pub fn student_scenario(n_bpeers: usize, seed: u64) -> WhisperNet {
        assert!(n_bpeers > 0, "need at least one b-peer");
        let service = whisper_wsdl::samples::student_management();
        let op = service
            .operation("StudentInformation")
            .expect("sample operation");
        let backends: Vec<Box<dyn ServiceBackend>> = (0..n_bpeers)
            .map(|i| -> Box<dyn ServiceBackend> {
                if i % 2 == 0 {
                    Box::new(StudentRegistry::operational_db().with_sample_data())
                } else {
                    Box::new(StudentRegistry::data_warehouse().with_sample_data())
                }
            })
            .collect();
        let group = GroupSpec::from_operation("StudentInfoGroup", op, backends);
        let cfg = DeploymentConfig {
            seed,
            groups: vec![group],
            ..DeploymentConfig::default()
        };
        WhisperNet::build(cfg).expect("student scenario is well-formed")
    }

    // --- Run control ---------------------------------------------------

    /// Runs `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.net.run_for(d);
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.net.run_until(deadline);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Network metrics so far.
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }

    /// Resets the metrics (to measure one phase in isolation).
    pub fn reset_metrics(&mut self) {
        self.net.metrics_mut().reset();
    }

    /// Starts recording every message (see [`SimNet::enable_trace`]).
    pub fn enable_trace(&mut self) {
        self.net.enable_trace();
    }

    /// The recorded message log.
    pub fn trace(&self) -> &[whisper_simnet::TraceEvent] {
        self.net.trace()
    }

    // --- Topology accessors ---------------------------------------------

    /// The node hosting the Web service + SWS-proxy.
    pub fn proxy_node(&self) -> NodeId {
        self.topology.proxy
    }

    /// Client nodes, in configuration order.
    pub fn client_ids(&self) -> &[NodeId] {
        &self.topology.clients
    }

    /// Nodes of group `gi`, in peer-id order.
    pub fn group_nodes(&self, gi: usize) -> &[NodeId] {
        &self.topology.group_nodes[gi]
    }

    /// The rendezvous node when deployed with one.
    pub fn rendezvous_node(&self) -> Option<NodeId> {
        self.topology.rendezvous
    }

    /// The peer↔node directory.
    pub fn directory(&self) -> &Directory {
        &self.topology.directory
    }

    /// Number of deployed groups.
    pub fn group_count(&self) -> usize {
        self.topology.group_nodes.len()
    }

    /// The id of group `gi`.
    pub fn group_id(&self, gi: usize) -> GroupId {
        self.topology.group_ids[gi]
    }

    // --- Inspection -------------------------------------------------------

    /// The coordinator group `gi`'s live members currently agree on, if
    /// any (`None` during elections or total outage).
    pub fn coordinator_of(&self, gi: usize) -> Option<PeerId> {
        for &n in &self.topology.group_nodes[gi] {
            if self.net.is_up(n) {
                let actor = self.net.node::<BPeerActor>(n);
                if actor.is_coordinator() {
                    return Some(actor.peer_id());
                }
            }
        }
        None
    }

    /// Read access to a b-peer actor.
    pub fn bpeer(&self, node: NodeId) -> &BPeerActor {
        self.net.node::<BPeerActor>(node)
    }

    /// Mutable access to a b-peer actor (fault injection on backends).
    pub fn bpeer_mut(&mut self, node: NodeId) -> &mut BPeerActor {
        self.net.node_mut::<BPeerActor>(node)
    }

    /// Proxy counters.
    pub fn proxy_stats(&self) -> ProxyStats {
        self.net.node::<SwsProxyActor>(self.topology.proxy).stats()
    }

    /// The deployed SWS-proxy actor, for inspection (bindings, QoS
    /// monitors, the fail-slow detector's evidence).
    pub fn proxy(&self) -> &SwsProxyActor {
        self.net.node::<SwsProxyActor>(self.topology.proxy)
    }

    /// Client counters.
    pub fn client_stats(&self, client: NodeId) -> ClientStats {
        self.net.node::<ClientActor>(client).stats().clone()
    }

    /// Per-request outcomes of a client.
    pub fn client_outcomes(&self, client: NodeId) -> Vec<crate::client::RequestOutcome> {
        self.net.node::<ClientActor>(client).outcomes().to_vec()
    }

    /// The most recent response envelope a client received.
    pub fn client_last_response(&self, client: NodeId) -> Option<String> {
        self.net
            .node::<ClientActor>(client)
            .last_response()
            .map(str::to_string)
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.net.is_up(node)
    }

    // --- Fault injection ---------------------------------------------------

    /// Kills the current coordinator of group `gi` immediately (a crash);
    /// returns the killed peer, or `None` when the group has no
    /// coordinator.
    pub fn kill_coordinator(&mut self, gi: usize) -> Option<PeerId> {
        let coord = self.coordinator_of(gi)?;
        let node = self.topology.directory.node_of(coord)?;
        self.net.kill_node(node);
        Some(coord)
    }

    /// Kills an arbitrary node now (a crash).
    pub fn kill_node(&mut self, node: NodeId) {
        self.net.kill_node(node);
    }

    /// Restarts a crashed node now.
    pub fn restart_node(&mut self, node: NodeId) {
        self.net.restart_node(node);
    }

    /// Installs a pre-built fault plan.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        self.net.apply_faults(plan);
    }

    // --- Request injection --------------------------------------------------

    /// Injects `payload` as a SOAP request from `client`; returns the
    /// client-local request id.
    ///
    /// # Panics
    ///
    /// Panics when `client` is not a client node.
    pub fn submit_request(&mut self, client: NodeId, payload: Element) -> u64 {
        let now = self.net.now();
        let id = self
            .net
            .node_mut::<ClientActor>(client)
            .register_manual(now);
        // The client begins the trace itself once started; cover the
        // window before its `on_start` ran (injection at t=0).
        if let Some(rec) = &self.obs {
            let key = crate::trace::soap_key(client, id);
            if rec.lookup(crate::trace::NS_SOAP, key).is_none() {
                let req = rec.begin_request(format!("client{} #{id}", client.index()), now);
                rec.start_span("client.request", req, now);
                rec.bind(crate::trace::NS_SOAP, key, req);
                rec.incr("client.sent", 1);
            }
        }
        let envelope = Envelope::request(payload).to_xml_string();
        self.net.inject(
            client,
            self.topology.proxy,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope,
            },
        );
        id
    }

    /// Injects the paper's `StudentInformation` request for `student_id`.
    pub fn submit_student_request(&mut self, client: NodeId, student_id: &str) -> u64 {
        let mut payload = Element::new("StudentInformation");
        payload.push_child(Element::with_text("StudentID", student_id));
        self.submit_request(client, payload)
    }

    /// Direct access to the underlying simulator for advanced experiments.
    pub fn sim(&mut self) -> &mut SimNet<WhisperMsg> {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_empty_configs() {
        let cfg = DeploymentConfig::default();
        assert!(matches!(
            WhisperNet::build(cfg),
            Err(WhisperError::BadDeployment(_))
        ));
    }

    #[test]
    fn student_scenario_elects_highest_peer() {
        let mut net = WhisperNet::student_scenario(3, 7);
        net.run_for(SimDuration::from_secs(3));
        // peers are 1..=3 (proxy is 4): the Bully winner is peer 3
        assert_eq!(net.coordinator_of(0), Some(PeerId::new(3)));
        // every member agrees
        for &n in net.group_nodes(0) {
            assert_eq!(net.bpeer(n).coordinator(), Some(PeerId::new(3)));
        }
    }

    #[test]
    fn traced_request_produces_a_full_span_tree() {
        let mut net = WhisperNet::student_scenario(3, 11);
        let rec = net.enable_obs();
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(3));

        let req = rec
            .requests()
            .into_iter()
            .find(|r| r.label.starts_with("client"))
            .expect("the manual request is traced")
            .id;
        let spans = rec.spans_of(req);
        let find = |name: &str| spans.iter().find(|s| s.name == name);
        let root = find("client.request").expect("root span");
        let proxy = find("proxy.request").expect("proxy span");
        let invoke = find("proxy.invoke").expect("invoke span");
        let exec = find("backend.execute").expect("execute span");
        assert!(find("proxy.bind").is_some());
        assert!(find("proxy.discover").is_some(), "cold request discovers");
        // causal nesting across nodes
        assert_eq!(proxy.parent, Some(root.id));
        assert_eq!(exec.parent, Some(invoke.id));
        // every span of the request closed, children inside parents
        for s in &spans {
            let end = s.end.expect("span closed");
            assert!(s.start <= end);
            if let Some(pid) = s.parent {
                let parent = spans.iter().find(|p| p.id == pid).unwrap();
                assert!(parent.start <= s.start && end <= parent.end.unwrap());
            }
        }
        // network hook counted traffic; export round-trips losslessly
        let export = rec.export();
        let counter = |name: &str| {
            export
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert!(counter("net.sent.heartbeat") > 0);
        assert!(counter("net.sent.peer-request") > 0);
        let parsed = whisper_obs::Export::parse_jsonl(&export.to_jsonl()).expect("parses");
        assert_eq!(parsed, export);
    }

    #[test]
    fn pulse_plane_collects_frames_from_every_node() {
        let mut net = WhisperNet::student_scenario(3, 13);
        net.enable_obs();
        let store = net.enable_pulse(SimDuration::from_millis(500));
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(3));

        let store = store.lock().unwrap();
        // every b-peer and the proxy reported (nodes 0..=2 are b-peers,
        // node 3 is the proxy)
        assert_eq!(store.nodes(), vec![0, 1, 2, 3]);
        assert!(store.frames_ingested() >= 4 * 10, "6 s at 500 ms intervals");
        let agg = store.aggregate(64);
        // the proxy's recorder-derived counters and RTT series arrived
        assert_eq!(agg.counter("proxy.requests"), 1);
        assert_eq!(agg.counter("client.sent"), 1);
        assert!(agg.counter("tx.heartbeat") > 0, "b-peer traffic counters");
        let p99 = agg.quantile_us("proxy.rtt", 99.0).expect("rtt series");
        assert!(p99 > 0);
        // memory bound respected
        assert!(store.approx_bytes() <= store.max_bytes());
    }

    /// The student scenario with a custom proxy configuration.
    fn student_scenario_with_proxy(n_bpeers: usize, seed: u64, proxy: ProxyConfig) -> WhisperNet {
        let service = whisper_wsdl::samples::student_management();
        let op = service
            .operation("StudentInformation")
            .expect("sample operation");
        let backends: Vec<Box<dyn ServiceBackend>> = (0..n_bpeers)
            .map(|_| -> Box<dyn ServiceBackend> {
                Box::new(StudentRegistry::operational_db().with_sample_data())
            })
            .collect();
        let group = GroupSpec::from_operation("StudentInfoGroup", op, backends);
        let cfg = DeploymentConfig {
            seed,
            groups: vec![group],
            proxy,
            ..DeploymentConfig::default()
        };
        WhisperNet::build(cfg).expect("well-formed")
    }

    #[test]
    fn fail_slow_coordinator_is_demoted_without_an_election() {
        let mut net = student_scenario_with_proxy(
            3,
            21,
            ProxyConfig {
                fail_slow_after: Some(SimDuration::from_millis(5)),
                fail_slow_cooldown: SimDuration::from_secs(5),
                ..ProxyConfig::default()
            },
        );
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        let coord_node = *net.group_nodes(0).last().unwrap();
        let coord_peer = net.coordinator_of(0).expect("elected");

        // one healthy request establishes the binding
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(2));
        assert_eq!(net.proxy_stats().fail_slow_rebinds, 0);

        // the coordinator turns gray: up, answering, but 100x slower
        net.sim()
            .apply_action(whisper_simnet::FaultAction::Slow(coord_node, 10_000));
        for _ in 0..3 {
            net.submit_student_request(client, "u1004");
            net.run_for(SimDuration::from_secs(1));
        }
        let stats = net.proxy_stats();
        assert_eq!(stats.fail_slow_rebinds, 1, "stats: {stats:?}");
        assert_eq!(stats.rebinds, 0, "no timeout fired: {stats:?}");
        // demotion is not an election: the group still agrees on the
        // same coordinator
        assert_eq!(net.coordinator_of(0), Some(coord_peer));

        // traffic now bypasses the slow coordinator via delegated forwards
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(1));
        let gid = net.group_id(0);
        assert!(net.proxy().binding_is_delegated(gid));
        assert_ne!(net.proxy().binding_of(gid), Some(coord_peer));
        let cs = net.client_stats(client);
        assert_eq!(cs.completed, 5, "every request answered: {cs:?}");
        assert_eq!(cs.faults, 0);

        // after the cooldown the coordinator earns its traffic back
        net.sim()
            .apply_action(whisper_simnet::FaultAction::Slow(coord_node, 100));
        net.run_for(SimDuration::from_secs(6));
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(1));
        assert!(!net.proxy().binding_is_delegated(gid));
        assert_eq!(net.proxy().binding_of(gid), Some(coord_peer));
    }

    #[test]
    fn deadline_budget_caps_the_retry_ladder() {
        let mut net = student_scenario_with_proxy(
            3,
            23,
            ProxyConfig {
                deadline: Some(SimDuration::from_millis(800)),
                request_timeout: SimDuration::from_millis(250),
                // must close before the 250 ms request timeout fires
                gather_window: SimDuration::from_millis(50),
                ..ProxyConfig::default()
            },
        );
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        // warm the caches and the binding so the dead deployment exercises
        // the re-bind ladder rather than the no-group fast fault
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(2));
        for &n in net.group_nodes(0).to_vec().iter() {
            net.kill_node(n);
        }
        let sent_at = net.now();
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(5));
        let stats = net.proxy_stats();
        assert_eq!(stats.deadline_faults, 1, "stats: {stats:?}");
        let cs = net.client_stats(client);
        assert_eq!(cs.completed, 2);
        assert_eq!(cs.faults, 1);
        let done = net.client_outcomes(client)[1]
            .completed_at
            .expect("faulted in time");
        // budget 800 ms + at most one 250 ms timeout rung of overshoot;
        // without the budget this deployment burns 10 x 250 ms attempts
        assert!(
            done.since(sent_at) <= SimDuration::from_millis(1300),
            "deadline fault came at +{:?}",
            done.since(sent_at)
        );
    }

    #[test]
    fn duplicated_client_requests_are_answered_exactly_once() {
        let mut net = WhisperNet::student_scenario(3, 29);
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        let proxy_node = net.proxy_node();

        let mut payload = Element::new("StudentInformation");
        payload.push_child(Element::with_text("StudentID", "u1004"));
        let envelope = Envelope::request(payload.clone()).to_xml_string();

        // duplicate of a completed request: re-served from the answer cache
        let id = net.submit_request(client, payload.clone());
        net.run_for(SimDuration::from_secs(2));
        net.sim().inject(
            client,
            proxy_node,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope: envelope.clone(),
            },
        );
        net.run_for(SimDuration::from_secs(1));
        let stats = net.proxy_stats();
        assert_eq!(stats.duplicate_requests, 1, "stats: {stats:?}");
        assert_eq!(stats.responses_forwarded, 1, "no second execution");

        // duplicate racing the original: joins the in-flight pipeline
        let id2 = net.submit_request(client, payload);
        net.sim().inject(
            client,
            proxy_node,
            WhisperMsg::SoapRequest {
                request_id: id2,
                envelope,
            },
        );
        net.run_for(SimDuration::from_secs(2));
        let stats = net.proxy_stats();
        assert_eq!(stats.duplicate_requests, 2, "stats: {stats:?}");
        assert_eq!(stats.responses_forwarded, 2);
        let cs = net.client_stats(client);
        assert_eq!(cs.completed, 2, "each request completed once: {cs:?}");
    }

    #[test]
    fn end_to_end_request_succeeds() {
        let mut net = WhisperNet::student_scenario(3, 11);
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_secs(3));
        let stats = net.client_stats(client);
        assert_eq!(stats.completed, 1, "stats: {stats:?}");
        assert_eq!(stats.faults, 0);
        assert_eq!(stats.rtt.count(), 1);
    }
}

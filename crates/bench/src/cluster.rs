//! A live Whisper cluster over real TCP loopback sockets, plus the
//! in-band introspection probe that `whisper-top`, the CI smoke test and
//! the integration tests share.
//!
//! The layout mirrors the simulator harness and the threadnet benches:
//! b-peer replicas on nodes `0..peers`, the SWS-proxy next, then one
//! *probe* node — an actor that is **not** a peer (it stays out of the
//! directory, like a client) and speaks only the scope protocol:
//! it injects [`WhisperMsg::ScopeRequest`]s and collects the
//! [`NodeSnapshot`]s that come back over the same sockets every other
//! message uses. Introspection rides the message plane; there is no side
//! channel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use whisper::{
    pulse::shared_store, BPeerConfig, GroupSpec, ProxyConfig, PulseWiring, ScenarioWiring,
    ServiceBackend, SharedPulseStore, StudentRegistry, WhisperMsg,
};
use whisper_election::BullyConfig;
use whisper_obs::{AvailabilityLedger, NodeSnapshot, Recorder};
use whisper_simnet::tcpnet::{TcpNet, TcpNetBuilder};
use whisper_simnet::{
    Actor, Context, FaultPlan, MetricsSnapshot, NodeId, SimDuration, Spawner, Substrate,
};
use whisper_soap::Envelope;
use whisper_xml::Element;

/// Tuning of a live cluster. The defaults are aggressive (50 ms
/// heartbeats, 250 ms failure timeout, sub-second Bully waits) so smoke
/// tests observe failure detection and re-election in about a second of
/// wall clock instead of the paper's JXTA-era multi-second windows.
#[derive(Debug, Clone, Copy)]
pub struct ClusterTuning {
    /// Heartbeat beacon period.
    pub heartbeat_period: SimDuration,
    /// Silence after which a peer is suspected dead.
    pub failure_timeout: SimDuration,
    /// Bully answer/coordinator waits (scaled off this value).
    pub election_timeout: SimDuration,
}

impl Default for ClusterTuning {
    fn default() -> Self {
        ClusterTuning {
            heartbeat_period: SimDuration::from_millis(50),
            failure_timeout: SimDuration::from_millis(250),
            election_timeout: SimDuration::from_millis(200),
        }
    }
}

/// Tuning of the streaming-telemetry (pulse) plane of a live cluster,
/// plus the deliberately slow transcript replica it ships for
/// tail-capture experiments: every `interval` each node emits a
/// [`WhisperMsg::PulseReport`] delta frame to an in-cluster collector,
/// and the `StudentTranscript` operation is served by a dedicated
/// single-peer group whose backend takes `slow_processing` per request —
/// a reproducible outlier among sub-millisecond loopback traffic.
#[derive(Debug, Clone, Copy)]
pub struct PulseTuning {
    /// Pulse emission period (every node, heartbeat-aligned by its own
    /// timer wheel).
    pub interval: SimDuration,
    /// Delta frames retained per node in the collector's ring.
    pub per_node_windows: usize,
    /// Outlier traces retained by the collector.
    pub max_outliers: usize,
    /// Collector byte budget over frames + traces (oldest evicted first).
    pub max_bytes: usize,
    /// Service time of the transcript replica (the injected tail).
    pub slow_processing: SimDuration,
}

impl Default for PulseTuning {
    fn default() -> Self {
        PulseTuning {
            interval: SimDuration::from_millis(100),
            per_node_windows: 256,
            max_outliers: 128,
            max_bytes: 4 << 20,
            slow_processing: SimDuration::from_millis(40),
        }
    }
}

/// Snapshots collected by the probe, keyed by scope request id.
pub(crate) type SnapshotStore = Arc<Mutex<HashMap<u64, Vec<(NodeId, NodeSnapshot)>>>>;

/// SOAP responses collected by the driver, keyed by request id.
type ResponseStore = Arc<Mutex<HashMap<u64, String>>>;

/// The workload end of a pulse-enabled cluster: a non-peer node the
/// harness injects [`WhisperMsg::SoapRequest`]s from; it collects the
/// proxy's [`WhisperMsg::SoapResponse`]s so tests can await completion.
struct SoapDriver {
    responses: ResponseStore,
}

impl Actor<WhisperMsg> for SoapDriver {
    fn on_message(&mut self, _ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        if let WhisperMsg::SoapResponse {
            request_id,
            envelope,
        } = msg
        {
            self.responses
                .lock()
                .expect("driver store poisoned")
                .insert(request_id, envelope);
        }
    }
}

/// The telemetry side of a pulse-enabled cluster.
struct PulsePlane {
    store: SharedPulseStore,
    collector_node: NodeId,
    recorder: Recorder,
    transcript_node: NodeId,
    driver_node: NodeId,
    responses: ResponseStore,
    next_soap_request: AtomicU64,
}

/// The measuring end of the scope protocol: collects every
/// [`WhisperMsg::ScopeResponse`] it receives, keyed by request id.
pub(crate) struct ScopeProbe {
    pub(crate) store: SnapshotStore,
}

impl Actor<WhisperMsg> for ScopeProbe {
    fn on_message(&mut self, _ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        if let WhisperMsg::ScopeResponse {
            request_id,
            snapshot,
        } = msg
        {
            self.store
                .lock()
                .expect("probe store poisoned")
                .entry(request_id)
                .or_default()
                .push((from, *snapshot));
        }
    }
}

/// A running Whisper deployment on TCP loopback: one b-peer group, its
/// SWS-proxy, and a scope probe, all exchanging length-prefixed encoded
/// frames over real sockets.
pub struct TcpCluster {
    net: TcpNet<WhisperMsg>,
    bpeer_nodes: Vec<NodeId>,
    proxy_node: NodeId,
    probe_node: NodeId,
    store: SnapshotStore,
    ledger: AvailabilityLedger,
    next_scope_request: AtomicU64,
    pulse: Option<PulsePlane>,
}

impl TcpCluster {
    /// Boots `peers` b-peer replicas plus the proxy and the probe, wired
    /// exactly like the simulator harness (peer ids are node index + 1),
    /// with a shared [`AvailabilityLedger`] installed into every b-peer.
    ///
    /// # Errors
    ///
    /// Socket errors while opening the loopback mesh.
    ///
    /// # Panics
    ///
    /// Panics when `peers` is zero.
    pub fn start(peers: usize, tuning: ClusterTuning) -> std::io::Result<TcpCluster> {
        TcpCluster::boot(peers, tuning, None)
    }

    /// Like [`TcpCluster::start`], with the streaming-telemetry plane on:
    /// a second single-peer group serving the (deliberately slow)
    /// `StudentTranscript` operation, a pulse collector node every actor
    /// reports to, a SOAP driver node for workload injection, and a shared
    /// [`Recorder`] on the proxy so captured outlier traces carry real
    /// span trees.
    ///
    /// # Errors
    ///
    /// Socket errors while opening the loopback mesh.
    ///
    /// # Panics
    ///
    /// Panics when `peers` is zero.
    pub fn start_pulse(
        peers: usize,
        tuning: ClusterTuning,
        pulse: PulseTuning,
    ) -> std::io::Result<TcpCluster> {
        TcpCluster::boot(peers, tuning, Some(pulse))
    }

    /// Node layout (from the shared deployment layer, see
    /// [`whisper::deploy`]): `0..peers` fast b-peers, then (pulse only)
    /// the transcript b-peer, then the proxy, (pulse only) the collector,
    /// then the scope probe and (pulse only) the SOAP driver. Peer ids
    /// are node index + 1 throughout, like the simulator harness.
    ///
    /// The scenario itself — groups, proxy, ledger, recorder, pulse plane
    /// — is wired by [`ScenarioWiring`], the same pass [`whisper::WhisperNet`]
    /// boots the simulator with; this function only appends the
    /// cluster-specific measuring actors (probe, driver) and starts the
    /// sockets.
    fn boot(
        peers: usize,
        tuning: ClusterTuning,
        pulse: Option<PulseTuning>,
    ) -> std::io::Result<TcpCluster> {
        assert!(peers > 0, "need at least one b-peer");
        let service = whisper_wsdl::samples::student_management();
        let op = service
            .operation("StudentInformation")
            .expect("sample operation");
        let backends: Vec<Box<dyn ServiceBackend>> = (0..peers)
            .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
            .collect();
        let mut groups = vec![GroupSpec::from_operation("StudentInfoGroup", op, backends)];
        if let Some(p) = pulse {
            // The transcript group: one replica, one operation, a fixed
            // multi-millisecond service time. Every request it serves is a
            // reproducible tail among sub-millisecond loopback traffic.
            let transcript_op = service
                .operation("StudentTranscript")
                .expect("sample operation");
            let mut spec = GroupSpec::from_operation(
                "TranscriptGroup",
                transcript_op,
                vec![Box::new(
                    StudentRegistry::operational_db().with_sample_data(),
                )],
            );
            spec.processing_time = Some(p.slow_processing);
            groups.push(spec);
        }

        let ledger = AvailabilityLedger::default();
        let recorder = pulse.map(|_| Recorder::new());
        let pulse_store =
            pulse.map(|p| shared_store(p.per_node_windows, p.max_outliers, p.max_bytes));
        let wiring = ScenarioWiring {
            service,
            ontology: whisper_ontology::samples::university_ontology(),
            groups,
            use_rendezvous: false,
            firewall_bpeers: false,
            bpeer: BPeerConfig {
                heartbeat_period: tuning.heartbeat_period,
                failure_timeout: tuning.failure_timeout,
                bully: BullyConfig {
                    answer_timeout: tuning.election_timeout,
                    coordinator_timeout: tuning.election_timeout + tuning.election_timeout,
                    cooldown: tuning.election_timeout,
                },
                ..BPeerConfig::default()
            },
            proxy: ProxyConfig::default(),
            clients: Vec::new(),
            ledger: Some(ledger.clone()),
            recorder: recorder.clone(),
            pulse: pulse.map(|p| PulseWiring {
                interval: p.interval,
                store: pulse_store.clone().expect("store exists in pulse mode"),
            }),
            flight: None,
        };

        let mut builder = TcpNetBuilder::new();
        let topo = wiring
            .wire(&mut builder)
            .expect("the cluster scenario is well-formed");

        // The measuring actors ride the same sockets but are no part of
        // the scenario: the probe (and, pulse only, the SOAP driver) are
        // appended after the deployment-layer nodes, like clients.
        let store: SnapshotStore = Arc::new(Mutex::new(HashMap::new()));
        let probe_node = builder.add_node(ScopeProbe {
            store: Arc::clone(&store),
        });
        let mut plane = None;
        if pulse.is_some() {
            let responses: ResponseStore = Arc::new(Mutex::new(HashMap::new()));
            let driver_node = builder.add_node(SoapDriver {
                responses: Arc::clone(&responses),
            });
            plane = Some(PulsePlane {
                store: pulse_store.expect("store exists in pulse mode"),
                collector_node: topo.collector.expect("pulse wiring places a collector"),
                recorder: recorder.expect("recorder exists in pulse mode"),
                transcript_node: topo.group_nodes[1][0],
                driver_node,
                responses,
                next_soap_request: AtomicU64::new(1),
            });
        }

        let net = builder.start()?;
        Ok(TcpCluster {
            net,
            bpeer_nodes: topo.group_nodes[0].clone(),
            proxy_node: topo.proxy,
            probe_node,
            store,
            ledger,
            next_scope_request: AtomicU64::new(1),
            pulse: plane,
        })
    }

    /// The b-peer nodes, in peer-id order.
    pub fn bpeer_nodes(&self) -> &[NodeId] {
        &self.bpeer_nodes
    }

    fn plane(&self) -> &PulsePlane {
        self.pulse
            .as_ref()
            .expect("pulse plane not enabled; boot with TcpCluster::start_pulse")
    }

    /// The collector's live store (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn pulse_store(&self) -> &SharedPulseStore {
        &self.plane().store
    }

    /// The proxy's shared recorder (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn recorder(&self) -> &Recorder {
        &self.plane().recorder
    }

    /// The node hosting the slow transcript replica (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn transcript_node(&self) -> NodeId {
        self.plane().transcript_node
    }

    /// The pulse collector's node (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn collector_node(&self) -> NodeId {
        self.plane().collector_node
    }

    /// Injects `payload` as a SOAP request from the driver node and
    /// returns the request id; await the response with
    /// [`TcpCluster::await_responses`] (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn submit_soap(&self, payload: Element) -> u64 {
        let plane = self.plane();
        let request_id = plane.next_soap_request.fetch_add(1, Ordering::SeqCst);
        let envelope = Envelope::request(payload).to_xml_string();
        self.net.inject(
            plane.driver_node,
            self.proxy_node,
            WhisperMsg::SoapRequest {
                request_id,
                envelope,
            },
        );
        request_id
    }

    /// Submits the paper's `StudentInformation` request (fast group).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn submit_student_info(&self, student_id: &str) -> u64 {
        let mut payload = Element::new("StudentInformation");
        payload.push_child(Element::with_text("StudentID", student_id));
        self.submit_soap(payload)
    }

    /// Submits a `StudentTranscript` request — served by the deliberately
    /// slow transcript replica, i.e. an injected tail-latency outlier.
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn submit_transcript(&self, student_id: &str) -> u64 {
        let mut payload = Element::new("StudentTranscript");
        payload.push_child(Element::with_text("StudentID", student_id));
        self.submit_soap(payload)
    }

    /// Waits until at least `n` SOAP responses have arrived at the driver
    /// (or `timeout` passes); returns how many are in (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn await_responses(&self, n: usize, timeout: Duration) -> usize {
        let plane = self.plane();
        let deadline = Instant::now() + timeout;
        loop {
            let got = plane.responses.lock().expect("driver store poisoned").len();
            if got >= n || Instant::now() >= deadline {
                return got;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The response envelope for `request_id`, when it has arrived
    /// (pulse mode only).
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was booted with [`TcpCluster::start_pulse`].
    pub fn response(&self, request_id: u64) -> Option<String> {
        self.plane()
            .responses
            .lock()
            .expect("driver store poisoned")
            .get(&request_id)
            .cloned()
    }

    /// The proxy node.
    pub fn proxy_node(&self) -> NodeId {
        self.proxy_node
    }

    /// The shared availability ledger the b-peers feed.
    pub fn ledger(&self) -> &AvailabilityLedger {
        &self.ledger
    }

    /// The peer id living on `node` (node index + 1 by construction).
    pub fn peer_of(&self, node: NodeId) -> u64 {
        node.index() as u64 + 1
    }

    /// Sends a [`WhisperMsg::ScopeRequest`] to every target and waits up
    /// to `timeout` for the responses, returning whatever arrived (one
    /// `(node, snapshot)` pair per answering target). Targets whose node
    /// was killed simply never answer; the caller sees them missing.
    pub fn poll_snapshots(
        &self,
        targets: &[NodeId],
        timeout: Duration,
    ) -> Vec<(NodeId, NodeSnapshot)> {
        poll_snapshots_on(
            &self.net,
            self.probe_node,
            &self.store,
            &self.next_scope_request,
            targets,
            timeout,
        )
    }

    /// Convenience: snapshots of every node (b-peers + proxy).
    pub fn poll_all(&self, timeout: Duration) -> Vec<(NodeId, NodeSnapshot)> {
        let mut targets = self.bpeer_nodes.clone();
        targets.push(self.proxy_node);
        self.poll_snapshots(&targets, timeout)
    }

    /// The coordinator the live b-peers agree on, from a snapshot poll:
    /// `Some(peer)` only when every answering b-peer names the same one.
    pub fn agreed_coordinator(snapshots: &[(NodeId, NodeSnapshot)]) -> Option<u64> {
        let mut coords = snapshots
            .iter()
            .filter_map(|(_, s)| s.election.as_ref())
            .map(|e| e.coordinator);
        let first = coords.next()??;
        coords.all(|c| c == Some(first)).then_some(first)
    }

    /// Kills `node` as a crash (see
    /// [`TcpNet::kill_node`](whisper_simnet::tcpnet::TcpNet::kill_node)).
    pub fn kill_node(&self, node: NodeId) {
        self.net.kill_node(node);
    }

    /// Restarts a killed node: its sockets are re-dialed and its
    /// `on_restart` hook fires (see
    /// [`TcpNet::restart_node`](whisper_simnet::tcpnet::TcpNet::restart_node)).
    pub fn restart_node(&self, node: NodeId) {
        self.net.restart_node(node);
    }

    /// Blocks all traffic between `a` and `b`, both directions.
    pub fn block_link(&self, a: NodeId, b: NodeId) {
        self.net.block_link(a, b);
    }

    /// Unblocks traffic between `a` and `b`.
    pub fn unblock_link(&self, a: NodeId, b: NodeId) {
        self.net.unblock_link(a, b);
    }

    /// Replays `plan` against the live cluster in wall-clock time (action
    /// offsets are measured from cluster start).
    pub fn execute_plan(&mut self, plan: &FaultPlan) {
        self.net.execute_plan(plan);
    }

    /// Transport metrics so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.net.metrics_snapshot()
    }

    /// Stops every thread and closes every socket.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}

/// The scope poll every TCP harness shares ([`TcpCluster`] and the surge
/// load plane): sends one [`WhisperMsg::ScopeRequest`] to every target
/// from `probe` and waits up to `timeout` for the snapshots to land in
/// `store`, returning whatever arrived sorted by node index.
pub(crate) fn poll_snapshots_on(
    net: &TcpNet<WhisperMsg>,
    probe: NodeId,
    store: &SnapshotStore,
    next_request: &AtomicU64,
    targets: &[NodeId],
    timeout: Duration,
) -> Vec<(NodeId, NodeSnapshot)> {
    let request_id = next_request.fetch_add(1, Ordering::SeqCst);
    for &t in targets {
        net.inject(probe, t, WhisperMsg::ScopeRequest { request_id });
    }
    let deadline = Instant::now() + timeout;
    collect_snapshots(store, request_id, targets.len(), || {
        let waiting = Instant::now() < deadline;
        if waiting {
            std::thread::sleep(Duration::from_millis(2));
        }
        waiting
    })
}

/// Takes what the probe collected for `request_id`, sorted by node index,
/// once `want` snapshots are in or `wait` — which lets the substrate run a
/// beat — reports the deadline passed.
fn collect_snapshots(
    store: &SnapshotStore,
    request_id: u64,
    want: usize,
    mut wait: impl FnMut() -> bool,
) -> Vec<(NodeId, NodeSnapshot)> {
    loop {
        let have = store
            .lock()
            .expect("probe store poisoned")
            .get(&request_id)
            .map_or(0, Vec::len);
        if have >= want || !wait() {
            break;
        }
    }
    let mut got = store
        .lock()
        .expect("probe store poisoned")
        .remove(&request_id)
        .unwrap_or_default();
    got.sort_by_key(|(n, _)| n.index());
    got
}

/// The scope probe for a deployment on *any* substrate: the same in-band
/// poll protocol as [`TcpCluster::poll_snapshots`], waiting on the
/// substrate's own clock (virtual time on the simulator, the wall on the
/// live runtimes) — so a test can wait for the cluster to *say* it has
/// settled instead of sleeping for a horizon it hopes is long enough.
pub struct SubstrateProbe {
    node: NodeId,
    store: SnapshotStore,
    next_request: AtomicU64,
}

impl SubstrateProbe {
    /// Adds the probe node behind whatever `spawner` already holds (after
    /// [`whisper::deploy::Deployment::wire_onto`], like a client).
    pub fn add_to(spawner: &mut impl Spawner<WhisperMsg>) -> SubstrateProbe {
        let store: SnapshotStore = Arc::new(Mutex::new(HashMap::new()));
        let node = spawner.add(ScopeProbe {
            store: Arc::clone(&store),
        });
        SubstrateProbe {
            node,
            store,
            next_request: AtomicU64::new(1),
        }
    }

    /// One scope poll of `targets`: whatever answered within `timeout`.
    pub fn poll<N: Substrate<WhisperMsg>>(
        &self,
        net: &mut N,
        targets: &[NodeId],
        timeout: SimDuration,
    ) -> Vec<(NodeId, NodeSnapshot)> {
        let request_id = self.next_request.fetch_add(1, Ordering::SeqCst);
        for &t in targets {
            net.inject(self.node, t, WhisperMsg::ScopeRequest { request_id });
        }
        let deadline = net.now() + timeout;
        collect_snapshots(&self.store, request_id, targets.len(), || {
            let waiting = net.now() < deadline;
            if waiting {
                net.advance(SimDuration::from_millis(2));
            }
            waiting
        })
    }

    /// Polls `targets` until every one of them answers and `settled`
    /// accepts the snapshots; `false` when `timeout` ran out first.
    pub fn settle<N: Substrate<WhisperMsg>>(
        &self,
        net: &mut N,
        targets: &[NodeId],
        timeout: SimDuration,
        settled: impl Fn(&[(NodeId, NodeSnapshot)]) -> bool,
    ) -> bool {
        let deadline = net.now() + timeout;
        loop {
            let snaps = self.poll(net, targets, SimDuration::from_secs(2));
            if snaps.len() == targets.len() && settled(&snaps) {
                return true;
            }
            if net.now() >= deadline {
                return false;
            }
            net.advance(SimDuration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls until `cond` holds or the deadline passes; asserts it held.
    fn wait_for(what: &str, deadline: Duration, cond: impl Fn() -> bool) {
        let end = Instant::now() + deadline;
        while !cond() {
            assert!(Instant::now() < end, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn cluster_boots_elects_and_answers_scope_requests() {
        let cluster = TcpCluster::start(3, ClusterTuning::default()).expect("loopback sockets");
        // Wait until the cluster agrees on a coordinator...
        wait_for("a coordinator", Duration::from_secs(15), || {
            let snaps = cluster.poll_snapshots(cluster.bpeer_nodes(), Duration::from_secs(2));
            snaps.len() == 3 && TcpCluster::agreed_coordinator(&snaps).is_some()
        });
        // ...let a few beacon periods elapse so heartbeats flow...
        std::thread::sleep(Duration::from_millis(300));
        // ...then check the snapshot contents in detail.
        let snaps = cluster.poll_all(Duration::from_secs(5));
        assert_eq!(snaps.len(), 4, "all four nodes answer");
        let coord = TcpCluster::agreed_coordinator(&snaps).expect("agreed");
        assert_eq!(coord, 3, "the Bully winner is the highest peer id");
        for (node, snap) in &snaps {
            assert_eq!(snap.peer, cluster.peer_of(*node));
            // everyone saw the probe's request arrive over the socket
            assert!(
                snap.received.sent_of_kind("scope-request") > 0,
                "{node:?}: {snap:?}"
            );
        }
        // b-peers have been chattering since boot (heartbeats, election)
        for (node, snap) in snaps.iter().take(3) {
            assert!(snap.sent.messages_sent() > 0, "{node:?}: {snap:?}");
        }
        let bpeer_snap = &snaps[0].1;
        assert_eq!(bpeer_snap.role.label(), "b-peer");
        assert!(
            bpeer_snap.sent.sent_of_kind("heartbeat") > 0,
            "b-peers beacon: {bpeer_snap:?}"
        );
        assert_eq!(
            bpeer_snap.heartbeat_ages_us.len(),
            2,
            "a member monitors its two siblings"
        );
        let proxy_snap = &snaps.last().expect("proxy answered").1;
        assert_eq!(proxy_snap.role.label(), "proxy");
        assert!(proxy_snap.election.is_none(), "proxies do not elect");
        cluster.shutdown();
    }
}

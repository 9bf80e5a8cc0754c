//! The live-cluster scenarios `whisper-top`, `whisper-pulse`, the load
//! plane and the integration tests boot: what is genuinely per-experiment
//! once the facade is [`whisper::Booted`] — the fast timings, the student
//! group, and the pulse scenario with its deliberately slow transcript
//! replica. Each function returns a [`ScenarioWiring`]; booting it
//! ([`ScenarioWiring::boot_tcp`] and its siblings) yields the one rig every
//! harness drives, whose edge node introspects the cluster **in-band** —
//! scope requests ride the same sockets every other message uses; there is
//! no side channel.

use whisper::{
    pulse::shared_store, BPeerConfig, GroupSpec, PulseWiring, ScenarioWiring, ServiceBackend,
    StudentRegistry,
};
use whisper_election::BullyConfig;
use whisper_obs::{AvailabilityLedger, Recorder};
use whisper_simnet::{SimDuration, SimTime};
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

impl ClusterTuning {
    /// The b-peer configuration these timings stand for: the Bully answer
    /// wait and cooldown are one `election_timeout`, the coordinator wait
    /// two; everything else is [`BPeerConfig::default`].
    pub fn bpeer(&self) -> BPeerConfig {
        BPeerConfig {
            heartbeat_period: self.heartbeat_period,
            failure_timeout: self.failure_timeout,
            bully: BullyConfig {
                answer_timeout: self.election_timeout,
                coordinator_timeout: self.election_timeout.saturating_mul(2),
                cooldown: self.election_timeout,
            },
            ..BPeerConfig::default()
        }
    }
}

/// Tuning of the streaming-telemetry (pulse) plane of a live cluster,
/// plus the deliberately slow transcript replica it ships for
/// tail-capture experiments: every `interval` each node emits a
/// [`whisper::WhisperMsg::PulseReport`] delta frame to an in-cluster
/// collector, and the `StudentTranscript` operation is served by a
/// dedicated single-peer group whose backend takes `slow_processing` per
/// request — a reproducible outlier among sub-millisecond loopback
/// traffic.
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

/// The paper's student scenario with fast timings: one group of `peers`
/// replicas (one `backend()` each) serving `StudentInformation`, flood
/// discovery, no observability attached. Callers set what their experiment
/// adds (`wiring.proxy.request_timeout`, `wiring.bpeer.workers`, a
/// ledger...) on the returned wiring before booting it.
///
/// # Panics
///
/// Panics when `peers` is zero.
pub fn student_wiring(
    peers: usize,
    backend: impl Fn() -> Box<dyn ServiceBackend>,
    tuning: ClusterTuning,
) -> ScenarioWiring {
    assert!(peers > 0, "need at least one b-peer");
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample operation")
        .clone();
    let backends = (0..peers).map(|_| backend()).collect();
    let mut wiring = ScenarioWiring::bare(
        service,
        whisper_ontology::samples::university_ontology(),
        vec![GroupSpec::from_operation("StudentInfoGroup", &op, backends)],
    );
    wiring.bpeer = tuning.bpeer();
    wiring
}

/// One student-registry replica with the sample data loaded.
pub fn student_registry() -> Box<dyn ServiceBackend> {
    Box::new(StudentRegistry::operational_db().with_sample_data())
}

/// The cluster `whisper-top` introspects: [`student_wiring`] over
/// student-registry replicas with a shared [`AvailabilityLedger`]
/// installed into every b-peer.
pub fn cluster_scenario(peers: usize, tuning: ClusterTuning) -> ScenarioWiring {
    let mut wiring = student_wiring(peers, student_registry, tuning);
    wiring.ledger = Some(AvailabilityLedger::default());
    wiring
}

/// [`cluster_scenario`] with the streaming-telemetry plane on: a second
/// single-peer group serving the (deliberately slow) `StudentTranscript`
/// operation — `topology.group_nodes[1][0]` once booted — a pulse
/// collector node every actor reports to (`topology.collector`), and a
/// shared [`Recorder`] on the proxy so captured outlier traces carry real
/// span trees.
pub fn pulse_scenario(peers: usize, tuning: ClusterTuning, pulse: PulseTuning) -> ScenarioWiring {
    let mut wiring = cluster_scenario(peers, tuning);
    // The transcript group: one replica, one operation, a fixed
    // multi-millisecond service time. Every request it serves is a
    // reproducible tail among sub-millisecond loopback traffic.
    let transcript_op = wiring
        .service
        .operation("StudentTranscript")
        .expect("sample operation");
    let mut spec =
        GroupSpec::from_operation("TranscriptGroup", transcript_op, vec![student_registry()]);
    spec.processing_time = Some(pulse.slow_processing);
    wiring.groups.push(spec);
    wiring.recorder = Some(Recorder::new());
    wiring.pulse = Some(PulseWiring {
        interval: pulse.interval,
        store: shared_store(pulse.per_node_windows, pulse.max_outliers, pulse.max_bytes),
    });
    wiring
}

/// The paper's `StudentInformation` request payload (fast group).
pub fn student_info(student_id: &str) -> Element {
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", student_id));
    payload
}

/// A `StudentTranscript` request payload — served by the deliberately
/// slow transcript replica of [`pulse_scenario`], i.e. an injected
/// tail-latency outlier.
pub fn transcript(student_id: &str) -> Element {
    let mut payload = Element::new("StudentTranscript");
    payload.push_child(Element::with_text("StudentID", student_id));
    payload
}

/// The fixed-width marker of request `n` (markers cannot be prefixes of
/// each other), for harnesses that check an answer belongs to its request.
pub fn marker(n: u64) -> String {
    format!("req-{n:05}")
}

/// A `StudentInformation` request envelope carrying [`marker`]`(n)`, which
/// an [`whisper::EchoBackend`] replica echoes back.
pub fn marked_envelope(n: u64) -> String {
    let mut payload = student_info("u1000");
    payload.push_child(Element::with_text("Marker", marker(n)));
    Envelope::request(payload).to_xml_string()
}

/// Cumulative downtime across every ledgered service at `now` — the
/// availability signal an SLO engine burns against.
pub fn ledger_downtime(ledger: &AvailabilityLedger, now: SimTime) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for &s in &ledger.services() {
        if let Some(r) = ledger.service_report(s, now) {
            total = total + r.downtime;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_boots_elects_and_answers_scope_requests() {
        let mut rig = cluster_scenario(3, ClusterTuning::default())
            .boot_tcp()
            .expect("loopback sockets");
        let bpeers = rig.topology.group_nodes[0].clone();
        let mut all = bpeers.clone();
        all.push(rig.topology.proxy);
        // Wait until the group agrees on a coordinator and every member
        // beacons and monitors both siblings — the snapshot contents checked
        // below — instead of sleeping a few beacon periods and hoping.
        let settled = rig.settle(&bpeers, SimDuration::from_secs(15), |p| {
            p.coordinator().is_some()
                && p.iter().all(|(_, s)| {
                    s.sent.sent_of_kind("heartbeat") > 0 && s.heartbeat_ages_us.len() == 2
                })
        });
        assert!(settled, "boot election + heartbeats");

        let snaps = rig.poll(&all, SimDuration::from_secs(5));
        assert_eq!(snaps.len(), 4, "all four nodes answer");
        assert_eq!(snaps.coordinator(), Some(3), "the highest peer id wins");
        for (node, snap) in snaps.iter() {
            assert_eq!(snap.peer, rig.topology.peer_of(*node).value());
            // everyone saw the edge's request arrive over the socket
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
        rig.net.shutdown();
    }
}

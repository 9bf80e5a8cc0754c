//! The cold bind's discovery gather closes once every peer the group query
//! went to has answered; the `gather_window` is only the bound for a peer
//! that never does. On the simulator with the benchmark's timers (50 ms
//! beacons, 250 ms failure timeout, 200 ms Bully waits, 250 ms gather
//! window, 1 s request timeout), read off the recorder's `proxy.discover`
//! span:
//!
//! * every queried peer answers (flood over three b-peers, or the one
//!   rendezvous): the window closes within a few milliseconds;
//! * one b-peer is cut off from the proxy: the window lasts
//!   `gather_window`, and still does when the chaos plane duplicates every
//!   frame — the rule tracks *which* peers answered, not how many answers
//!   came;
//! * E7's gold / silver / bronze groups: the cold request binds gold, so
//!   selection still saw every group's answer;
//! * a gather timer left armed by an early close is stale once the request
//!   has moved on to a new query, and must not close that query's window;
//! * a request no group matches faults as soon as every queried peer has
//!   answered without a match, not a request timeout later — unless a peer
//!   is cut off and may still answer.

use whisper::{
    BPeerConfig, Booted, ClientActor, ClientConfigTemplate, EchoBackend, FlakyBackend, GroupSpec,
    ProxyConfig, ScenarioWiring, SelectionPolicy, ServiceBackend, StudentRegistry, SwsProxyActor,
    WhisperMsg,
};
use whisper_election::BullyConfig;
use whisper_obs::{Recorder, Span};
use whisper_p2p::{Advertisement, GroupId, P2pMessage, PeerAdv, QosSpec, SemanticAdv};
use whisper_simnet::{DegradeSpec, FaultPlan, NodeId, SimDuration, SimNet, SimTime};
use whisper_soap::Envelope;
use whisper_xml::Element;

const GATHER_WINDOW: SimDuration = SimDuration::from_millis(250);
/// Boot and elect before the cold request.
const COLD_AT: SimTime = SimTime::from_micros(2_000_000);

type Rig = Booted<SimNet<WhisperMsg>>;

/// Boots `groups` behind the proxy, with one manual client and a recorder.
fn traced_net(seed: u64, groups: Vec<GroupSpec>, wiring: ScenarioWiring) -> (Rig, Recorder) {
    let rec = Recorder::new();
    let wiring = ScenarioWiring {
        groups,
        clients: vec![ClientConfigTemplate::default()],
        recorder: Some(rec.clone()),
        ..wiring
    };
    (wiring.boot_sim(seed).expect("well-formed"), rec)
}

fn proxy(rig: &Rig) -> &SwsProxyActor {
    rig.net.node::<SwsProxyActor>(rig.topology.proxy)
}

/// The benchmark's b-peer and proxy tuning (`benchmark/src/workload.rs`).
fn benchmark_timers() -> (BPeerConfig, ProxyConfig) {
    let bpeer = BPeerConfig {
        heartbeat_period: SimDuration::from_millis(50),
        failure_timeout: SimDuration::from_millis(250),
        bully: BullyConfig {
            answer_timeout: SimDuration::from_millis(200),
            coordinator_timeout: SimDuration::from_millis(400),
            cooldown: SimDuration::from_millis(200),
        },
        load_share: true,
        workers: 2,
        ..BPeerConfig::default()
    };
    let proxy = ProxyConfig {
        policy: SelectionPolicy::SemanticThenQos,
        request_timeout: SimDuration::from_millis(1000),
        gather_window: GATHER_WINDOW,
        ..ProxyConfig::default()
    };
    (bpeer, proxy)
}

/// One StudentInformation group of three replicas and one manual client.
fn student_net(
    seed: u64,
    use_rendezvous: bool,
    (bpeer, proxy): (BPeerConfig, ProxyConfig),
) -> (Rig, Recorder) {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let group = GroupSpec::from_operation("StudentInfoGroup", op, backends);
    let wiring = ScenarioWiring {
        use_rendezvous,
        bpeer,
        proxy,
        ..ScenarioWiring::student(1)
    };
    traced_net(seed, vec![group], wiring)
}

fn discover_spans(rec: &Recorder) -> Vec<Span> {
    rec.spans()
        .into_iter()
        .filter(|s| s.name == "proxy.discover")
        .collect()
}

/// The cold request's gather, in virtual milliseconds.
fn cold_discover_ms(rec: &Recorder) -> f64 {
    discover_spans(rec)
        .first()
        .and_then(Span::duration)
        .expect("the cold request's discovery span closed")
        .as_millis_f64()
}

/// Sends the cold request at [`COLD_AT`] and runs one second past it;
/// the request must come back answered, not faulted.
fn cold_request(rig: &mut Rig) {
    rig.net.run_until(COLD_AT);
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    rig.net.run_for(SimDuration::from_secs(1));
    let stats = rig.net.node::<ClientActor>(client).stats();
    assert_eq!((stats.completed, stats.faults), (1, 0), "{stats:?}");
}

#[test]
fn a_complete_answer_set_closes_the_window_at_once() {
    for (use_rendezvous, queried) in [(false, 3), (true, 1)] {
        let (mut net, rec) = student_net(25, use_rendezvous, benchmark_timers());
        cold_request(&mut net);

        let ms = cold_discover_ms(&rec);
        assert!(
            ms < 5.0,
            "rendezvous={use_rendezvous}: discovery took {ms} ms"
        );
        // every peer each query went to answered it: the window closed on
        // a complete set, not on a guess (only the proxy queries)
        let discoveries = proxy(&net).stats().discoveries;
        assert_eq!(discoveries, 2, "one group query, one member query");
        assert_eq!(
            rec.counter("discovery.responses"),
            discoveries * queried,
            "rendezvous={use_rendezvous}"
        );
    }
}

/// The lowest b-peer cannot reach the proxy (nor the proxy it), from just
/// before the cold request on; with `dup` every other link delivers every
/// frame twice.
fn one_peer_cut_off(net: &mut Rig, dup: bool) {
    let before = SimTime::from_micros(COLD_AT.as_micros() - 100_000);
    let proxy = net.topology.proxy;
    let peers = net.topology.group_nodes[0].clone();
    let mut plan = FaultPlan::new();
    plan.block_at(proxy, peers[0], before);
    if dup {
        let mut nodes: Vec<NodeId> = peers.clone();
        nodes.push(proxy);
        nodes.extend_from_slice(&net.topology.clients);
        let twice = DegradeSpec {
            dup_pct: 100,
            ..DegradeSpec::default()
        };
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                if (a, b) != (peers[0], proxy) {
                    plan.degrade_at(a, b, twice, before);
                }
            }
        }
    }
    net.net.apply_faults(&plan);
}

#[test]
fn a_silent_peer_holds_the_window_for_gather_window() {
    for dup in [false, true] {
        // with load sharing the coordinator may hand the request to the
        // cut-off peer, whose answer the proxy would only replace after a
        // request timeout: a different story from the gather's
        let (mut bpeer, proxy) = benchmark_timers();
        bpeer.load_share = false;
        let (mut net, rec) = student_net(26, false, (bpeer, proxy));
        one_peer_cut_off(&mut net, dup);
        cold_request(&mut net);

        let ms = cold_discover_ms(&rec);
        assert!(
            (250.0..260.0).contains(&ms),
            "dup={dup}: discovery took {ms} ms with a peer that never answers"
        );
        let queried = self::proxy(&net).stats().discoveries * 3;
        let responses = rec.counter("discovery.responses");
        if dup {
            // more answers than peers queried, and still the window waited
            // for the one peer that never answered
            assert!(
                responses > queried,
                "{responses} answers to {queried} queries"
            );
        } else {
            assert!(
                responses < queried,
                "{responses} answers to {queried} queries"
            );
        }
    }
}

/// E7's three semantically identical groups (`crates/bench/src/experiments/
/// qos.rs`): gold, silver and bronze claim — and deliver — 0.3 / 3 / 10 ms.
fn qos_net(seed: u64) -> (Rig, Recorder) {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let profiles = [
        ("GoldGroup", 300, 0.0, 0.999),
        ("SilverGroup", 3_000, 0.02, 0.98),
        ("BronzeGroup", 10_000, 0.08, 0.92),
    ];
    let groups = profiles
        .iter()
        .enumerate()
        .map(|(gi, &(name, latency_us, fail_p, reliability))| {
            let backends: Vec<Box<dyn ServiceBackend>> = (0..2)
                .map(|pi| {
                    Box::new(FlakyBackend::new(
                        Box::new(EchoBackend),
                        fail_p,
                        seed ^ ((gi * 10 + pi) as u64),
                    )) as _
                })
                .collect();
            let mut g = GroupSpec::from_operation(name, op, backends);
            g.qos = Some(QosSpec {
                latency_us,
                reliability,
                cost: 1.0,
            });
            g.processing_time = Some(SimDuration::from_micros(latency_us));
            g
        })
        .collect();
    let (bpeer, proxy) = benchmark_timers();
    let wiring = ScenarioWiring {
        bpeer,
        proxy,
        ..ScenarioWiring::student(1)
    };
    traced_net(seed, groups, wiring)
}

#[test]
fn the_cold_request_binds_gold_when_every_group_answered() {
    for seed in 0..20 {
        let (mut net, rec) = qos_net(seed);
        cold_request(&mut net);

        let ms = cold_discover_ms(&rec);
        assert!(ms < 5.0, "seed {seed}: discovery took {ms} ms");
        let bound: Vec<bool> = (0..3)
            .map(|gi| proxy(&net).binding_of(net.topology.group_ids[gi]).is_some())
            .collect();
        assert_eq!(bound, [true, false, false], "seed {seed}: gold, only gold");
    }
}

/// A request for `StudentTranscript`, an operation of the service that no
/// deployed group offers.
fn unmatched_envelope() -> String {
    let mut payload = Element::new("StudentTranscript");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    Envelope::request(payload).to_xml_string()
}

#[test]
fn a_complete_answer_set_without_a_match_faults_at_once() {
    const HOP: SimDuration = SimDuration::from_millis(5);
    let (mut bpeer, proxy_cfg) = benchmark_timers();
    bpeer.load_share = false;
    let request_timeout = proxy_cfg.request_timeout;
    for cut_off in [false, true] {
        let (mut net, rec) = student_net(28, false, (bpeer.clone(), proxy_cfg.clone()));
        if cut_off {
            one_peer_cut_off(&mut net, false);
        }
        net.net.run_until(COLD_AT);
        let id = net.submit_envelope(unmatched_envelope());
        let answer = net
            .await_response(id, request_timeout + HOP)
            .expect("answered");
        let text = Envelope::parse(&answer.envelope)
            .expect("an envelope")
            .as_fault()
            .map(|f| f.reason.clone());
        assert_eq!(
            text.as_deref(),
            Some("no semantic peer group matches the request"),
            "cut_off={cut_off}"
        );
        let waited = answer.at.since(COLD_AT);
        if cut_off {
            // a peer that has not answered may still hold a match
            assert!(waited >= request_timeout, "cut_off: faulted after {waited}");
        } else {
            assert!(waited <= HOP, "faulted after {waited}");
            assert_eq!(rec.counter("discovery.responses"), 3, "all three answered");
        }
        assert_eq!(self::proxy(&net).stats().faults_generated, 1);
        assert_eq!(self::proxy(&net).backlog().pending, 0);
    }
}

// --- a stale gather timer ------------------------------------------------

/// A semantic advertisement for the StudentInformation operation, as
/// group `group` would publish it.
fn student_adv(group: u64, qos: Option<QosSpec>) -> Advertisement {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    Advertisement::Semantic(SemanticAdv {
        group: GroupId::new(group),
        name: format!("Group{group}"),
        action: op.action.clone(),
        inputs: op.inputs.iter().map(|p| p.concept.clone()).collect(),
        outputs: op.outputs.iter().map(|p| p.concept.clone()).collect(),
        qos,
    })
}

/// QoS claims of `latency_us` at 99 % reliability.
fn claims(latency_us: u64) -> Option<QosSpec> {
    Some(QosSpec {
        latency_us,
        reliability: 0.99,
        cost: 1.0,
    })
}

/// The interleaving an early close makes possible: the cold request's
/// group query closes on its third answer, leaving the window timer armed;
/// the chosen group's members never answer, so within the window the
/// request fails the group and queries again; two of three peers answer
/// that query at once, the third only after the old timer has fired. The
/// old timer must not select from the partial set — the third answer
/// carries the better group.
///
/// The b-peers are dead and every discovery answer is forged from their
/// nodes, so the proxy sees exactly this script. The request timeout is
/// 150 ms (not the benchmark's 1 s) so the failed member query ends inside
/// the first window.
#[test]
fn a_stale_gather_timer_does_not_close_a_newer_query() {
    let (bpeer, mut proxy_cfg) = benchmark_timers();
    proxy_cfg.request_timeout = SimDuration::from_millis(150);
    let (mut net, rec) = student_net(27, false, (bpeer, proxy_cfg));
    let nodes = net.topology.group_nodes[0].clone();
    let proxy = net.topology.proxy;
    let client = net.topology.clients[0];
    let p3 = net
        .topology
        .directory
        .peer_of(nodes[2])
        .expect("registered");
    let answer = |net: &mut Rig, from: NodeId, id: u64, advs: Vec<Advertisement>| {
        net.net.inject(
            from,
            proxy,
            WhisperMsg::P2p(P2pMessage::Response { id, advs }),
        );
    };
    let at = |ms: u64| SimTime::from_micros(COLD_AT.as_micros() + ms * 1000);

    net.net.run_until(COLD_AT);
    for &n in &nodes {
        net.net.kill_node(n);
    }
    net.submit_from(client, StudentRegistry::request("u1000"));
    net.net.run_until(at(5));
    // query 0: every peer answers with group 1 — the window closes early,
    // its timer (armed by the first answer) stays set until ≈ +255 ms
    for &n in &nodes {
        answer(&mut net, n, 0, vec![student_adv(1, None)]);
    }
    // query 1 (group 1's members) goes unanswered and times out at
    // ≈ +155 ms; group 1 is failed and query 2 goes out
    net.net.run_until(at(160));
    answer(&mut net, nodes[0], 2, vec![student_adv(1, None)]);
    answer(&mut net, nodes[1], 2, vec![student_adv(2, claims(3_000))]);
    // the first window's timer fires here, with query 2 incomplete
    net.net.run_until(at(280));
    assert_eq!(discover_spans(&rec).len(), 2);
    assert_eq!(
        discover_spans(&rec)[1].end,
        None,
        "query 2 closed before its third peer answered"
    );
    answer(&mut net, nodes[2], 2, vec![student_adv(3, claims(300))]);
    net.net.run_until(at(285));
    let closed = discover_spans(&rec)[1]
        .end
        .expect("closed on the third answer");
    assert!(closed > at(280), "closed at {closed}");

    // query 3 asks for the chosen group's members: only group 3 has one
    let member = Advertisement::Peer(PeerAdv {
        peer: p3,
        name: "p3".into(),
        group: Some(GroupId::new(3)),
    });
    answer(&mut net, nodes[2], 3, vec![member]);
    net.net.run_until(at(290));
    let envelope = Envelope::request(Element::new("StudentInformationResponse")).to_xml_string();
    net.net.inject(
        nodes[2],
        proxy,
        WhisperMsg::PeerResponse {
            request_id: 0,
            envelope,
        },
    );
    net.net.run_until(at(300));

    let stats = net.net.node::<ClientActor>(client).stats();
    assert_eq!((stats.completed, stats.faults), (1, 0), "{stats:?}");
    assert_eq!(self::proxy(&net).binding_of(GroupId::new(3)), Some(p3));
    assert_eq!(self::proxy(&net).binding_of(GroupId::new(2)), None);
}

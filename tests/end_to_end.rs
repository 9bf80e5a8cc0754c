//! End-to-end integration tests: a full Whisper deployment — semantic Web
//! service, SWS-proxy, semantic discovery, b-peer groups, Bully election,
//! SOAP messaging — exercised through the public API only.

use whisper::{
    ClientActor, ClientConfigTemplate, DeploymentConfig, EchoBackend, GroupSpec, ServiceBackend,
    StudentRegistry, WhisperMsg, WhisperNet, Workload,
};
use whisper_p2p::PeerId;
use whisper_simnet::SimDuration;
use whisper_soap::{Envelope, FaultCode};
use whisper_xml::Element;

fn student_req(id: &str) -> Element {
    let mut p = Element::new("StudentInformation");
    p.push_child(Element::with_text("StudentID", id));
    p
}

#[test]
fn request_flows_through_the_whole_stack() {
    let mut net = WhisperNet::student_scenario(3, 100);
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1006");
    net.run_for(SimDuration::from_secs(2));

    let response = net.client_last_response(client).expect("response arrived");
    let env = Envelope::parse(&response).expect("well-formed SOAP");
    let payload = env.body_payload().expect("not a fault");
    assert_eq!(payload.name, "StudentInfo");
    assert_eq!(
        payload.child("StudentID").expect("id echoed").text(),
        "u1006"
    );
    assert_eq!(
        payload.child("Name").expect("record found").text(),
        "Student Number 6"
    );

    // exactly one replica did the work — the coordinator
    let handled: Vec<u64> = net
        .group_nodes(0)
        .iter()
        .map(|&n| net.bpeer(n).requests_handled())
        .collect();
    assert_eq!(handled.iter().sum::<u64>(), 1, "{handled:?}");
    let coord = net.coordinator_of(0).expect("coordinator exists");
    let coord_node = net.directory().node_of(coord).expect("routable");
    assert_eq!(net.bpeer(coord_node).requests_handled(), 1);
}

#[test]
fn unknown_student_yields_sender_fault_not_crash() {
    let mut net = WhisperNet::student_scenario(2, 101);
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "no-such-student");
    net.run_for(SimDuration::from_secs(2));

    let env = Envelope::parse(&net.client_last_response(client).expect("response")).expect("soap");
    let fault = env.as_fault().expect("application error is a soap fault");
    assert_eq!(fault.code, FaultCode::Sender);
    assert!(fault.reason.contains("not found"), "{}", fault.reason);
    assert_eq!(net.client_stats(client).faults, 1);
}

#[test]
fn deeply_nested_request_yields_sender_fault_not_a_dead_proxy() {
    let mut net = WhisperNet::student_scenario(2, 117);
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    let proxy = net.proxy_node();

    // 35 KB that used to overflow the stack of whichever thread parsed it
    let deep = format!(
        "<soap:Envelope xmlns:soap=\"{}\"><soap:Body>{}{}</soap:Body></soap:Envelope>",
        whisper_soap::SOAP_ENVELOPE_NS,
        "<a>".repeat(5_000),
        "</a>".repeat(5_000)
    );
    let now = net.now();
    let request_id = net
        .sim()
        .node_mut::<ClientActor>(client)
        .register_manual(now);
    let request = WhisperMsg::SoapRequest {
        request_id,
        envelope: deep,
    };
    net.sim().inject(client, proxy, request);
    net.run_for(SimDuration::from_secs(2));

    let response = net.client_last_response(client).expect("fault arrived");
    let env = Envelope::parse(&response).expect("well-formed SOAP fault");
    let fault = env.as_fault().expect("is a fault");
    assert_eq!(fault.code, FaultCode::Sender);
    assert!(fault.reason.contains("nested deeper"), "{}", fault.reason);
    assert_eq!(net.proxy_stats().faults_generated, 1);

    // the proxy took no harm: the next request is served
    net.submit_student_request(client, "u1006");
    net.run_for(SimDuration::from_secs(2));
    let s = net.client_stats(client);
    assert_eq!((s.completed, s.faults), (2, 1), "{s:?}");
    let response = net.client_last_response(client).expect("response arrived");
    let env = Envelope::parse(&response).expect("well-formed SOAP");
    assert_eq!(env.body_payload().expect("not a fault").name, "StudentInfo");
}

#[test]
fn unknown_operation_yields_sender_fault() {
    let mut net = WhisperNet::student_scenario(2, 102);
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    let mut bogus = Element::new("LaunchMissiles");
    bogus.push_child(Element::with_text("Target", "moon"));
    net.submit_request(client, bogus);
    net.run_for(SimDuration::from_secs(2));

    let env = Envelope::parse(&net.client_last_response(client).expect("response")).expect("soap");
    let fault = env.as_fault().expect("fault");
    assert_eq!(fault.code, FaultCode::Sender);
    assert!(fault.reason.contains("LaunchMissiles"), "{}", fault.reason);
}

#[test]
fn steady_state_request_costs_four_messages() {
    // client→proxy, proxy→coordinator, coordinator→proxy, proxy→client
    let mut net = WhisperNet::student_scenario(3, 103);
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    // warm the bindings
    net.submit_student_request(client, "u1000");
    net.run_for(SimDuration::from_secs(1));

    net.reset_metrics();
    net.submit_student_request(client, "u1001");
    net.run_for(SimDuration::from_secs(1));
    let m = net.metrics();
    assert_eq!(m.sent_of_kind("soap-request"), 1);
    assert_eq!(m.sent_of_kind("peer-request"), 1);
    assert_eq!(m.sent_of_kind("peer-response"), 1);
    assert_eq!(m.sent_of_kind("soap-response"), 1);
    assert_eq!(
        m.sent_of_kind("discovery-query"),
        0,
        "warm path must skip discovery"
    );
}

#[test]
fn warm_binding_request_is_zero_copy_and_skips_semantic_matching() {
    // The steady-state hot path: once the proxy has discovered the group
    // and memoized the semantic ranking, a repeat request must perform no
    // discovery-cache clone and no ontology matching pass at all — the
    // memo answers from borrowed state.
    let mut net = WhisperNet::student_scenario(3, 104);
    let rec = net.enable_obs();
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];

    // Request 1 populates the discovery cache (epoch moves as responses
    // arrive); request 2 rebuilds the memo against the settled epoch.
    net.submit_student_request(client, "u1000");
    net.run_for(SimDuration::from_secs(1));
    net.submit_student_request(client, "u1001");
    net.run_for(SimDuration::from_secs(1));

    let clones_before = rec.counter("discovery.cache_clones");
    let matches_before = rec.counter("proxy.semantic_matches");
    let hits_before = rec.counter("proxy.memo_hits");

    net.submit_student_request(client, "u1002");
    net.run_for(SimDuration::from_secs(1));

    let env = Envelope::parse(&net.client_last_response(client).expect("response")).expect("soap");
    assert!(!env.is_fault(), "warm request must succeed");
    assert_eq!(
        rec.counter("discovery.cache_clones"),
        clones_before,
        "warm path must not clone the discovery cache"
    );
    assert_eq!(
        rec.counter("proxy.semantic_matches"),
        matches_before,
        "warm path must not run ontology matching"
    );
    assert!(
        rec.counter("proxy.memo_hits") > hits_before,
        "warm path must answer from the semantic-match memo"
    );
}

#[test]
fn multiple_clients_share_the_service() {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("op").clone();
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let client_tpl = |n: u64| ClientConfigTemplate {
        workload: Workload::Closed {
            think: SimDuration::from_millis(50),
            window: 1,
        },
        payloads: vec![student_req(&format!("u100{n}"))],
        total: Some(20),
        timeout: SimDuration::from_secs(10),
        warmup: SimDuration::from_secs(2),
    };
    let cfg = DeploymentConfig {
        seed: 104,
        service,
        groups: vec![GroupSpec::from_operation("G", &op, backends)],
        clients: vec![client_tpl(1), client_tpl(2), client_tpl(3)],
        ..DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(20));
    for &c in net.client_ids() {
        let s = net.client_stats(c);
        assert_eq!(s.completed, 20, "client {c} stats {s:?}");
        assert_eq!(s.faults, 0);
    }
}

#[test]
fn rendezvous_deployment_serves_requests() {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("op").clone();
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let cfg = DeploymentConfig {
        seed: 105,
        service,
        groups: vec![GroupSpec::from_operation("G", &op, backends)],
        use_rendezvous: true,
        ..DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    assert!(net.rendezvous_node().is_some());
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1002");
    net.run_for(SimDuration::from_secs(2));
    let s = net.client_stats(client);
    assert_eq!(s.completed, 1);
    assert_eq!(s.faults, 0);
    // the cold query went to the rendezvous only
    assert!(net.metrics().sent_of_kind("discovery-query") <= 2);
}

#[test]
fn two_services_in_one_ontology_do_not_cross_talk() {
    // Two groups with different semantics; requests route to the right one.
    let service = whisper_wsdl::samples::student_management();
    let info_op = service.operation("StudentInformation").expect("op").clone();
    let transcript_op = service.operation("StudentTranscript").expect("op").clone();
    let mk = || -> Vec<Box<dyn ServiceBackend>> {
        vec![
            Box::new(StudentRegistry::operational_db().with_sample_data()),
            Box::new(StudentRegistry::operational_db().with_sample_data()),
        ]
    };
    let cfg = DeploymentConfig {
        seed: 106,
        service,
        groups: vec![
            GroupSpec::from_operation("InfoGroup", &info_op, mk()),
            GroupSpec::from_operation("TranscriptGroup", &transcript_op, mk()),
        ],
        ..DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];

    let mut treq = Element::new("StudentTranscript");
    treq.push_child(Element::with_text("StudentID", "u1003"));
    net.submit_request(client, treq);
    net.run_for(SimDuration::from_secs(2));
    let env = Envelope::parse(&net.client_last_response(client).expect("response")).expect("soap");
    assert_eq!(env.body_payload().expect("ok").name, "StudentTranscript");

    // only the transcript group worked
    let info_handled: u64 = net
        .group_nodes(0)
        .iter()
        .map(|&n| net.bpeer(n).requests_handled())
        .sum();
    let transcript_handled: u64 = net
        .group_nodes(1)
        .iter()
        .map(|&n| net.bpeer(n).requests_handled())
        .sum();
    assert_eq!(info_handled, 0);
    assert_eq!(transcript_handled, 1);
}

#[test]
fn semantically_equivalent_group_is_matched_via_subsumption() {
    // The deployed group advertises *more specific* output and action
    // concepts than the service requests — Subsume matches (the semantic
    // generalization plain name-matching could never find).
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("op").clone();
    let ns = whisper_ontology::samples::UNIVERSITY_NS;
    let backends: Vec<Box<dyn ServiceBackend>> = vec![Box::new(EchoBackend), Box::new(EchoBackend)];
    let mut group = GroupSpec::from_operation("WarehouseGroup", &op, backends);
    group.action = whisper_xml::QName::with_ns(ns, "StudentTranscriptRetrieval");
    group.outputs = vec![whisper_xml::QName::with_ns(ns, "StudentTranscript")];
    let cfg = DeploymentConfig {
        seed: 107,
        service,
        groups: vec![group],
        ..DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    net.run_for(SimDuration::from_secs(3));
    let s = net.client_stats(client);
    assert_eq!(s.completed, 1, "subsuming group should serve the request");
    assert_eq!(s.faults, 0);
}

#[test]
fn mismatched_group_produces_receiver_fault() {
    // The only group deployed serves a *different* action: no semantic
    // match exists and the proxy must answer with a Receiver fault.
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("op").clone();
    let ns = whisper_ontology::samples::UNIVERSITY_NS;
    let backends: Vec<Box<dyn ServiceBackend>> = vec![Box::new(EchoBackend)];
    let mut group = GroupSpec::from_operation("EnrollmentGroup", &op, backends);
    group.action = whisper_xml::QName::with_ns(ns, "EnrollmentUpdate");
    let mut cfg = DeploymentConfig {
        seed: 108,
        service,
        groups: vec![group],
        ..DeploymentConfig::default()
    };
    cfg.proxy.request_timeout = SimDuration::from_millis(800);
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    net.run_for(SimDuration::from_secs(5));

    let env = Envelope::parse(&net.client_last_response(client).expect("response")).expect("soap");
    let fault = env.as_fault().expect("no match must fault");
    assert_eq!(fault.code, FaultCode::Receiver);
}

#[test]
fn peer_ids_and_directory_are_consistent() {
    let net = WhisperNet::student_scenario(4, 109);
    let dir = net.directory();
    // 4 b-peers + 1 proxy
    assert_eq!(dir.len(), 5);
    for &n in net.group_nodes(0) {
        let p = dir.peer_of(n).expect("b-peers have peer ids");
        assert_eq!(dir.node_of(p), Some(n));
        assert_eq!(net.bpeer(n).peer_id(), p);
    }
    // clients have no peer identity
    assert_eq!(dir.peer_of(net.client_ids()[0]), None);
    assert_eq!(net.group_count(), 1);
    assert_eq!(net.group_id(0).value(), 1);
}

#[test]
fn deterministic_replay_of_a_full_deployment() {
    let run = |seed: u64| {
        let mut net = WhisperNet::student_scenario(3, seed);
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        net.submit_student_request(client, "u1001");
        net.run_for(SimDuration::from_secs(2));
        (
            net.metrics().messages_sent(),
            net.metrics().bytes_sent(),
            // min/max are exact even in the bucketed histogram; nearby
            // samples could share a log bucket across seeds
            net.client_stats(client).rtt.min(),
        )
    };
    assert_eq!(run(42), run(42));
    // Counts are jitter-independent in a fixed scenario, but latencies are
    // not: a different seed must produce different RTT samples.
    assert_ne!(run(42).2, run(43).2);
}

#[test]
fn load_shared_group_spreads_work() {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("op").clone();
    let backends: Vec<Box<dyn ServiceBackend>> =
        (0..3).map(|_| Box::new(EchoBackend) as _).collect();
    let cfg = DeploymentConfig {
        seed: 110,
        service,
        groups: vec![GroupSpec::from_operation("G", &op, backends)],
        bpeer: whisper::BPeerConfig {
            load_share: true,
            ..Default::default()
        },
        clients: vec![ClientConfigTemplate {
            workload: Workload::Closed {
                think: SimDuration::from_millis(10),
                window: 1,
            },
            payloads: vec![student_req("u1000")],
            total: Some(30),
            timeout: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(2),
        }],
        ..DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(10));
    assert_eq!(net.client_stats(net.client_ids()[0]).completed, 30);
    let handled: Vec<u64> = net
        .group_nodes(0)
        .iter()
        .map(|&n| net.bpeer(n).requests_handled())
        .collect();
    assert_eq!(handled.iter().sum::<u64>(), 30);
    assert!(
        handled.iter().all(|&h| h >= 5),
        "load sharing should spread work: {handled:?}"
    );
    let _ = PeerId::new(0); // silence unused import lint paths on some cfgs
}

#[test]
fn coordinator_binds_the_group_request_pipe() {
    let mut net = WhisperNet::student_scenario(3, 111);
    net.run_for(SimDuration::from_secs(3));
    let coord = net.coordinator_of(0).expect("elected");
    let coord_node = net.directory().node_of(coord).expect("routable");
    let adv = net
        .bpeer(coord_node)
        .discovery()
        .resolve_pipe("StudentInfoGroup-requests", net.now())
        .expect("coordinator bound the pipe");
    assert_eq!(adv.owner, coord);

    // after failover the NEW coordinator rebinds the same pipe
    net.kill_coordinator(0);
    net.run_for(SimDuration::from_secs(10));
    let new_coord = net.coordinator_of(0).expect("re-elected");
    assert_ne!(new_coord, coord);
    let new_node = net.directory().node_of(new_coord).expect("routable");
    let adv = net
        .bpeer(new_node)
        .discovery()
        .resolve_pipe("StudentInfoGroup-requests", net.now())
        .expect("pipe rebound");
    assert_eq!(adv.owner, new_coord);
}

#[test]
fn firewalled_bpeers_require_a_rendezvous() {
    let cfg = whisper::DeploymentConfig {
        firewall_bpeers: true,
        use_rendezvous: false,
        groups: vec![GroupSpec::from_operation(
            "G",
            whisper_wsdl::samples::student_management()
                .operation("StudentInformation")
                .expect("op"),
            vec![Box::new(EchoBackend)],
        )],
        ..whisper::DeploymentConfig::default()
    };
    assert!(matches!(
        WhisperNet::build(cfg),
        Err(whisper::WhisperError::BadDeployment(_))
    ));
}

#[test]
fn firewalled_deployment_serves_requests_without_leaks() {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("op").clone();
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let cfg = whisper::DeploymentConfig {
        seed: 112,
        service,
        groups: vec![GroupSpec::from_operation("G", &op, backends)],
        use_rendezvous: true,
        firewall_bpeers: true,
        ..whisper::DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(3));
    // the group still elects across the relay
    assert!(net.coordinator_of(0).is_some());
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1001");
    net.run_for(SimDuration::from_secs(3));
    let s = net.client_stats(client);
    assert_eq!(s.completed, 1);
    assert_eq!(s.faults, 0);
    // every message respected the firewall
    assert_eq!(net.metrics().messages_partitioned(), 0);
    // and relaying actually happened
    assert!(net.metrics().sent_of_kind("relayed") > 0);
}

#[test]
fn ontology_alignment_bridges_foreign_vocabulary_groups() {
    // Mirror of the cross_organization example: a b-peer group advertising
    // in a partner vocabulary only matches after import + equivalences.
    use whisper_ontology::samples::{university_ontology, UNIVERSITY_NS};
    use whisper_ontology::Ontology;
    use whisper_xml::QName;

    const PARTNER_NS: &str = "urn:test:partner";
    let mut partner = Ontology::new(PARTNER_NS);
    let acao = partner.add_class("Acao", &[]).expect("fresh");
    partner
        .add_class("ConsultaDeAluno", &[acao])
        .expect("fresh");
    partner.add_class("Matricula", &[]).expect("fresh");
    partner.add_class("FichaDoAluno", &[]).expect("fresh");

    let group = || {
        let q = |l: &str| QName::with_ns(PARTNER_NS, l);
        GroupSpec {
            name: "GrupoConsulta".into(),
            action: q("ConsultaDeAluno"),
            inputs: vec![q("Matricula")],
            outputs: vec![q("FichaDoAluno")],
            qos: None,
            processing_time: None,
            backends: vec![Box::new(
                StudentRegistry::operational_db().with_sample_data(),
            )],
        }
    };
    let run = |ontology: Ontology| -> (u64, u64) {
        let mut cfg = DeploymentConfig {
            seed: 300,
            ontology,
            groups: vec![group()],
            ..DeploymentConfig::default()
        };
        cfg.proxy.request_timeout = SimDuration::from_millis(600);
        let mut net = WhisperNet::build(cfg).expect("valid deployment");
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        net.submit_student_request(client, "u1000");
        net.run_for(SimDuration::from_secs(5));
        let s = net.client_stats(client);
        (s.completed, s.faults)
    };

    // without alignment: no semantic match -> fault
    assert_eq!(run(university_ontology()), (1, 1));

    // with alignment: Exact matches across vocabularies -> served
    let mut aligned = university_ontology();
    aligned.import(&partner).expect("no collisions");
    let bridge = |o: &mut Ontology, a: &str, b: &str| {
        let ca = o
            .class_by_qname(&QName::with_ns(UNIVERSITY_NS, a))
            .expect("known");
        let cb = o
            .class_by_qname(&QName::with_ns(PARTNER_NS, b))
            .expect("imported");
        o.add_equivalence(ca, cb).expect("valid");
    };
    bridge(&mut aligned, "StudentInformation", "ConsultaDeAluno");
    bridge(&mut aligned, "StudentID", "Matricula");
    bridge(&mut aligned, "StudentInfo", "FichaDoAluno");
    assert_eq!(run(aligned), (1, 0));
}

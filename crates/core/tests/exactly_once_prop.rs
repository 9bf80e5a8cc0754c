//! Property: whatever the chaos plane does to replies — duplicating them,
//! reordering them, letting a late reply cross a retry, or duplicating the
//! client's request itself — each client request id is answered exactly
//! once, and every surplus message is counted, never forwarded.
//!
//! The same edge holds for the coordinator's pipe announcement, which the
//! proxy takes as a hint only: lost, stale, from a fail-slow suspect, or
//! about a coordinator that was merely stalled, it never loses a request
//! and never answers one twice (second half of this file).

use proptest::prelude::*;
use whisper::{
    BPeerConfig, DeploymentConfig, GroupSpec, ProxyBacklog, ProxyConfig, ServiceBackend,
    StudentRegistry, WhisperMsg, WhisperNet,
};
use whisper_election::BullyConfig;
use whisper_p2p::{Advertisement, P2pMessage, PeerId, PipeAdv, PipeId};
use whisper_simnet::{FaultAction, FaultPlan, NodeId, SimDuration};
use whisper_soap::Envelope;
use whisper_xml::Element;

fn student_payload() -> Element {
    let mut p = Element::new("StudentInformation");
    p.push_child(Element::with_text("StudentID", "u1004"));
    p
}

const REQUESTS: u64 = 4;

proptest! {
    // Each case boots a full deployment; a handful of cases over the
    // seed/duplication space is plenty and keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn replies_collapse_to_exactly_one_per_request(
        seed in 0u64..500,
        forged_inflight in 0usize..3,
        forged_late in 0usize..3,
        dup_requests in 0usize..3,
        stray in 0usize..2,
    ) {
        let mut net = WhisperNet::student_scenario(3, seed);
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        let proxy = net.proxy_node();
        let bpeer = net.group_nodes(0)[0];
        let forged_env = Envelope::request(student_payload()).to_xml_string();

        // Sequential requests; the proxy numbers them 0..REQUESTS in
        // arrival order, which the forged replies below rely on.
        for i in 0..REQUESTS {
            net.submit_student_request(client, "u1004");
            if i == 0 {
                // replies racing the real one for the in-flight request:
                // whichever copy arrives first wins, the rest are dropped
                for _ in 0..forged_inflight {
                    net.sim().inject(bpeer, proxy, WhisperMsg::PeerResponse {
                        request_id: 0,
                        envelope: forged_env.clone(),
                    });
                }
            }
            net.run_for(SimDuration::from_secs(2));
        }
        // late replies for requests already answered (a retry's first
        // attempt surfacing after the second one won)
        for k in 0..forged_late {
            net.sim().inject(bpeer, proxy, WhisperMsg::PeerResponse {
                request_id: k as u64 % REQUESTS,
                envelope: forged_env.clone(),
            });
        }
        // replies for requests that never existed
        for _ in 0..stray {
            net.sim().inject(bpeer, proxy, WhisperMsg::PeerResponse {
                request_id: 999_999,
                envelope: forged_env.clone(),
            });
        }
        // chaos-duplicated client requests: re-served from the answer
        // cache, never re-executed
        for k in 0..dup_requests {
            net.sim().inject(client, proxy, WhisperMsg::SoapRequest {
                request_id: k as u64 % REQUESTS,
                envelope: forged_env.clone(),
            });
        }
        net.run_for(SimDuration::from_secs(2));

        let stats = net.proxy_stats();
        prop_assert_eq!(stats.responses_forwarded, REQUESTS, "stats: {:?}", stats);
        // Every surplus reply is counted, never forwarded. The exact tally
        // depends on the race for request 0: when a forged copy wins before
        // the forward, the b-peer never executes and the "real" reply does
        // not exist, so one fewer duplicate arrives.
        let dups = stats.duplicate_responses as usize;
        let floor = forged_inflight.saturating_sub(1) + forged_late + stray;
        let ceil = forged_inflight + forged_late + stray;
        prop_assert!(
            dups >= floor && dups <= ceil,
            "duplicate_responses {} outside [{}, {}]: {:?}",
            dups, floor, ceil, stats
        );
        prop_assert_eq!(stats.duplicate_requests as usize, dup_requests, "stats: {:?}", stats);

        let cs = net.client_stats(client);
        prop_assert_eq!(cs.completed, REQUESTS, "client: {:?}", cs);
        prop_assert_eq!(cs.timeouts, 0);
        let outcomes = net.client_outcomes(client);
        prop_assert_eq!(outcomes.len() as u64, REQUESTS);
        for o in &outcomes {
            prop_assert!(o.completed_at.is_some(), "unanswered request {:?}", o);
        }
    }
}

// --- the pipe announcement is only a hint -------------------------------

const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(1000);
const SEEDS: [u64; 3] = [3, 58, 407];

/// Three replicas with the benchmark's timers (50 ms beacons, 250 ms
/// failure timeout, 200 ms answer wait, 1 s request timeout), one manual
/// client, the binding warmed by one request.
fn fast_failover_net(seed: u64, proxy: ProxyConfig) -> WhisperNet {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let mut net = WhisperNet::build(DeploymentConfig {
        seed,
        groups: vec![GroupSpec::from_operation("StudentInfoGroup", op, backends)],
        bpeer: BPeerConfig {
            heartbeat_period: SimDuration::from_millis(50),
            failure_timeout: SimDuration::from_millis(250),
            bully: BullyConfig {
                answer_timeout: SimDuration::from_millis(200),
                coordinator_timeout: SimDuration::from_millis(400),
                cooldown: SimDuration::from_millis(200),
            },
            ..BPeerConfig::default()
        },
        proxy: ProxyConfig {
            request_timeout: REQUEST_TIMEOUT,
            ..proxy
        },
        ..DeploymentConfig::default()
    })
    .expect("well-formed");
    net.run_for(SimDuration::from_secs(2));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1004");
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.client_stats(client).completed, 1);
    net
}

/// `owner`'s announcement of group 0's request pipe, as its b-peer
/// builds it, delivered to the proxy from `owner`'s own node.
fn announce(net: &mut WhisperNet, owner: NodeId) {
    let owner_peer = net.directory().peer_of(owner).expect("a b-peer");
    let msg = WhisperMsg::P2p(P2pMessage::Publish {
        adv: Advertisement::Pipe(PipeAdv {
            pipe: PipeId::new(net.group_id(0).value()),
            name: "StudentInfoGroup-requests".into(),
            owner: owner_peer,
        }),
        lifetime: SimDuration::from_secs(600),
    });
    let proxy = net.proxy_node();
    net.sim().inject(owner, proxy, msg);
}

/// Every request sent was answered without a fault, the proxy forwarded
/// exactly one response per request and holds nothing back, and the live
/// members name one coordinator, which is what the proxy is bound to.
fn assert_exactly_once_and_converged(net: &WhisperNet, case: &str) -> PeerId {
    let client = net.client_ids()[0];
    let cs = net.client_stats(client);
    assert_eq!(
        (cs.completed, cs.faults, cs.timeouts),
        (cs.sent, 0, 0),
        "{case}: {cs:?}"
    );
    let stats = net.proxy_stats();
    assert_eq!(stats.responses_forwarded, cs.sent, "{case}: {stats:?}");
    assert_eq!(net.proxy().backlog(), ProxyBacklog::default(), "{case}");
    let beliefs: Vec<Option<PeerId>> = net
        .group_nodes(0)
        .iter()
        .filter(|&&n| net.is_up(n))
        .map(|&n| net.bpeer(n).coordinator())
        .collect();
    let coordinator = beliefs[0].expect("a coordinator");
    assert!(
        beliefs.iter().all(|b| *b == Some(coordinator)),
        "{case}: {beliefs:?}"
    );
    coordinator
}

#[test]
fn lost_announcement_falls_back_to_the_timeout_ladder() {
    for seed in SEEDS {
        let case = format!("seed {seed}");
        let mut net = fast_failover_net(seed, ProxyConfig::default());
        let client = net.client_ids()[0];
        let proxy = net.proxy_node();
        let nodes = net.group_nodes(0).to_vec();

        // the successor is cut off from the proxy while it announces
        let now = net.now();
        let mut plan = FaultPlan::new();
        plan.partition_between(
            &[proxy],
            &nodes[..2],
            now,
            now + SimDuration::from_millis(500),
        );
        net.apply_faults(&plan);
        net.kill_coordinator(0).expect("had a coordinator");
        net.submit_student_request(client, "u1004");
        net.submit_student_request(client, "u1004");
        net.run_for(REQUEST_TIMEOUT + REQUEST_TIMEOUT + SimDuration::from_millis(100));

        let successor = assert_exactly_once_and_converged(&net, &case);
        assert_eq!(net.directory().node_of(successor), Some(nodes[1]), "{case}");
        assert_eq!(net.proxy().binding_of(net.group_id(0)), Some(successor));
        for o in &net.client_outcomes(client)[1..] {
            let waited = o.completed_at.expect("completed").since(o.sent_at);
            assert!(waited >= REQUEST_TIMEOUT, "{case}: the old path, {waited}");
        }
        assert_eq!(net.proxy_stats().rebinds, 1, "{case}");
    }
}

#[test]
fn stale_announcement_costs_one_redirect() {
    for seed in SEEDS {
        let case = format!("seed {seed}");
        let mut net = fast_failover_net(seed, ProxyConfig::default());
        let client = net.client_ids()[0];
        let gid = net.group_id(0);
        let nodes = net.group_nodes(0).to_vec();
        let (interim, highest) = (nodes[1], nodes[2]);

        // kill → the middle peer takes over and says so → the highest
        // comes back and says so
        net.kill_node(highest);
        net.run_for(SimDuration::from_millis(600));
        assert_eq!(
            net.proxy().binding_of(gid),
            net.directory().peer_of(interim)
        );
        net.restart_node(highest);
        net.run_for(SimDuration::from_millis(600));
        assert_eq!(
            net.proxy().binding_of(gid),
            net.directory().peer_of(highest)
        );
        let before = net.proxy_stats();

        // a copy of the interim coordinator's announcement surfaces behind
        // the newer one, with a request in flight at the real coordinator:
        // the lower owner reads as "the bound peer is gone"
        net.submit_student_request(client, "u1004");
        announce(&mut net, interim);
        announce(&mut net, interim); // and once more, duplicated
        net.run_for(SimDuration::from_millis(100));
        net.submit_student_request(client, "u1004");
        net.run_for(REQUEST_TIMEOUT + REQUEST_TIMEOUT);

        let coordinator = assert_exactly_once_and_converged(&net, &case);
        assert_eq!(
            net.directory().node_of(coordinator),
            Some(highest),
            "{case}"
        );
        let after = net.proxy_stats();
        assert!(
            after.rebinds > before.rebinds && after.redirects_followed > before.redirects_followed,
            "{case}: the hint was taken, and the non-coordinator pointed the proxy back: {after:?}"
        );
        assert_eq!(net.proxy().binding_of(gid), Some(coordinator), "{case}");
        // nothing timed out along the way
        for o in net.client_outcomes(client) {
            let waited = o.completed_at.expect("completed").since(o.sent_at);
            assert!(waited < REQUEST_TIMEOUT, "{case}: {waited}");
        }
    }
}

#[test]
fn announcement_from_a_fail_slow_suspect_waits_out_the_cooldown() {
    let cooldown = SimDuration::from_secs(3);
    for seed in SEEDS {
        let case = format!("seed {seed}");
        let mut net = fast_failover_net(
            seed,
            ProxyConfig {
                fail_slow_after: Some(SimDuration::from_millis(5)),
                fail_slow_cooldown: cooldown,
                ..ProxyConfig::default()
            },
        );
        let client = net.client_ids()[0];
        let gid = net.group_id(0);
        let coord_node = *net.group_nodes(0).last().expect("three b-peers");
        let coord = net.coordinator_of(0).expect("elected");

        // the coordinator turns gray and is demoted
        net.sim()
            .apply_action(FaultAction::Slow(coord_node, 10_000));
        for _ in 0..4 {
            net.submit_student_request(client, "u1004");
            net.run_for(SimDuration::from_millis(500));
        }
        assert_eq!(net.proxy_stats().fail_slow_rebinds, 1, "{case}");
        assert!(net.proxy().binding_is_delegated(gid), "{case}");
        let bypass = net.proxy().binding_of(gid);
        assert_ne!(bypass, Some(coord), "{case}");
        net.sim().apply_action(FaultAction::Slow(coord_node, 100));

        // its announcement must not pull traffic back while it is suspect
        announce(&mut net, coord_node);
        net.run_for(SimDuration::from_millis(100));
        assert_eq!(net.proxy().binding_of(gid), bypass, "{case}: ignored");
        assert!(net.proxy().binding_is_delegated(gid), "{case}");
        assert_eq!(net.proxy_stats().rebinds, 0, "{case}");
        net.submit_student_request(client, "u1004");
        net.run_for(SimDuration::from_millis(500));

        // once the cooldown is over the same hint is taken
        net.run_for(cooldown);
        announce(&mut net, coord_node);
        net.run_for(SimDuration::from_millis(100));
        assert_eq!(net.proxy().binding_of(gid), Some(coord), "{case}: taken");
        assert!(!net.proxy().binding_is_delegated(gid), "{case}");
        net.submit_student_request(client, "u1004");
        net.run_for(REQUEST_TIMEOUT + REQUEST_TIMEOUT);

        assert_eq!(assert_exactly_once_and_converged(&net, &case), coord);
        assert_eq!(net.proxy_stats().rebinds, 1, "{case}: the one move taken");
    }
}

#[test]
fn stalled_coordinator_is_replaced_without_losing_or_repeating_an_answer() {
    for seed in SEEDS {
        for stall_ms in [300, 450] {
            let case = format!("seed {seed}, stalled {stall_ms} ms");
            let mut net = fast_failover_net(seed, ProxyConfig::default());
            let client = net.client_ids()[0];
            let (interim, coord_node) = (net.group_nodes(0)[1], net.group_nodes(0)[2]);

            // alive, hearing everything, saying nothing: the survivors
            // bury it, the proxy moves what it holds; then it resumes and
            // everything it had to say arrives at once
            net.sim().apply_action(FaultAction::Stall(
                coord_node,
                SimDuration::from_millis(stall_ms),
            ));
            for _ in 0..8 {
                net.submit_student_request(client, "u1004");
                net.run_for(SimDuration::from_millis(75));
            }
            net.run_for(REQUEST_TIMEOUT + REQUEST_TIMEOUT);

            let coordinator = assert_exactly_once_and_converged(&net, &case);
            if stall_ms == 450 {
                // long enough to be buried: the middle peer took over, and
                // what the stalled one answered afterwards was dropped
                assert_eq!(net.directory().node_of(coordinator), Some(interim));
                assert!(net.proxy_stats().duplicate_responses > 0, "{case}");
            }
            for o in net.client_outcomes(client) {
                let waited = o.completed_at.expect("completed").since(o.sent_at);
                assert!(waited < REQUEST_TIMEOUT, "{case}: {waited}");
            }
        }
    }
}

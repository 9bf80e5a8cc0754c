//! A crash clears a node's timers but not the actor's state, so the proxy
//! and the client re-arm in `on_restart` what their surviving state still
//! counts on. Without that, a request pending at the crash never times
//! out: its bookkeeping leaks and a client's retry rides the dead
//! pipeline forever; and a client that generates its own load never sends
//! again.

use whisper::{
    BPeerConfig, ClientConfigTemplate, DeploymentConfig, GroupSpec, ProxyBacklog, ProxyConfig,
    ServiceBackend, StudentRegistry, WhisperNet, Workload,
};
use whisper_simnet::{SimDuration, SimTime};
use whisper_xml::Element;

#[test]
fn request_pending_at_a_proxy_crash_is_rebound_after_the_restart() {
    let mut net = WhisperNet::student_scenario(3, 41);
    net.enable_pulse(SimDuration::from_millis(100));
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    let proxy = net.proxy_node();
    net.submit_student_request(client, "u1000"); // warms the binding
    net.run_for(SimDuration::from_secs(1));

    // Crash the proxy with the second request forwarded and unanswered:
    // the coordinator's answer reaches a dead node and is lost.
    net.submit_student_request(client, "u1001");
    while net.proxy().backlog().pending == 0 {
        assert!(net.sim().step(), "the request never reached the proxy");
    }
    let held = net.proxy().backlog();
    assert!(
        held.inflight_clients == 1 && held.deadlines >= 1,
        "{held:?}"
    );
    net.kill_node(proxy);
    net.run_for(SimDuration::from_millis(100));
    assert_eq!(net.client_stats(client).completed, 1, "the answer was lost");

    net.restart_node(proxy);
    let restarted_at = net.now();
    let timeout = ProxyConfig::default().request_timeout;
    net.run_for(timeout);
    let s = net.client_stats(client);
    assert_eq!(
        (s.completed, s.faults),
        (2, 0),
        "re-bound and answered: {s:?}"
    );
    let answered_at = net.client_outcomes(client)[1]
        .completed_at
        .expect("completed");
    assert!(
        answered_at.since(restarted_at) < timeout,
        "within one request_timeout of the restart"
    );
    assert_eq!(net.proxy_stats().rebinds, 1);
    // the pulse interval is running again
    assert!(net
        .sim()
        .pending_timers(proxy)
        .iter()
        .any(|t| t & 0b11 == 0));

    net.run_for(timeout);
    assert_eq!(net.proxy().backlog(), ProxyBacklog::default());
}

/// The student group behind the proxy, and one client that sends `total`
/// requests of its own accord (first one at 2 s).
fn self_driving_client(
    seed: u64,
    workload: Workload,
    total: u64,
    timeout: SimDuration,
) -> WhisperNet {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backend: Box<dyn ServiceBackend> =
        Box::new(StudentRegistry::operational_db().with_sample_data());
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    WhisperNet::build(DeploymentConfig {
        seed,
        groups: vec![GroupSpec::from_operation("Group", op, vec![backend])],
        clients: vec![ClientConfigTemplate {
            workload,
            payloads: vec![payload],
            total: Some(total),
            timeout,
            warmup: SimDuration::from_secs(2),
        }],
        ..DeploymentConfig::default()
    })
    .expect("well-formed")
}

#[test]
fn request_pending_at_a_client_crash_still_times_out() {
    let timeout = SimDuration::from_secs(5);
    let closed = Workload::Closed {
        think: SimDuration::ZERO,
        window: 1,
    };
    let mut net = self_driving_client(42, closed, 2, timeout);
    let client = net.client_ids()[0];
    net.kill_node(net.proxy_node()); // nobody will answer

    // the first request leaves at 2 s; the client is down from 3 s to 4 s
    net.run_for(SimDuration::from_secs(3));
    assert_eq!(net.client_stats(client).sent, 1);
    net.kill_node(client);
    net.run_for(SimDuration::from_secs(1));
    net.restart_node(client);
    net.run_for(SimDuration::from_secs(4));

    let outcomes = net.client_outcomes(client);
    assert!(outcomes[0].timed_out, "{:?}", outcomes[0]);
    // at its own deadline, which also kept the closed loop alive
    assert_eq!(outcomes[1].sent_at, outcomes[0].sent_at + timeout);
}

/// Every request the client ever sent is accounted for, each id once and
/// none while the client was down; the proxy holds nothing back.
fn assert_all_sent_once_and_settled(net: &WhisperNet, total: u64, down: (SimTime, SimTime)) {
    let client = net.client_ids()[0];
    let s = net.client_stats(client);
    assert_eq!((s.sent, s.in_flight()), (total, 0), "{s:?}");
    let outcomes = net.client_outcomes(client);
    let ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
    assert_eq!(ids, (0..total).collect::<Vec<_>>());
    assert!(outcomes
        .iter()
        .all(|o| o.sent_at < down.0 || o.sent_at >= down.1));
    assert!(
        outcomes.iter().any(|o| o.sent_at >= down.1),
        "never resumed"
    );
    // the group saw each request once: nothing was re-sent after the crash
    let handled: u64 = net
        .group_nodes(0)
        .iter()
        .map(|&n| net.bpeer(n).requests_handled())
        .sum();
    assert_eq!(handled, total);
    assert_eq!(net.proxy().backlog(), ProxyBacklog::default());
}

#[test]
fn open_loop_client_sends_again_after_a_restart() {
    let interval = SimDuration::from_millis(100);
    let open = Workload::Open {
        interval,
        poisson: false,
    };
    let mut net = self_driving_client(43, open, 30, SimDuration::from_secs(5));
    let client = net.client_ids()[0];

    // ten requests out, then down for a second with the send timer armed
    net.run_for(SimDuration::from_millis(2_950));
    assert_eq!(net.client_stats(client).sent, 10);
    net.kill_node(client);
    let down_from = net.now();
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.client_stats(client).sent, 10);
    net.restart_node(client);
    let down = (down_from, net.now());

    net.run_for(SimDuration::from_secs(10));
    assert_all_sent_once_and_settled(&net, 30, down);
    // the chain is one timer again, not one per restart
    let outcomes = net.client_outcomes(client);
    assert_eq!(outcomes[10].sent_at, down.1 + interval);
    assert_eq!(
        outcomes[29].sent_at,
        outcomes[10].sent_at + SimDuration::from_millis(1_900)
    );
}

#[test]
fn closed_loop_client_refills_its_window_after_a_restart() {
    let think = SimDuration::from_millis(500);
    let closed = Workload::Closed { think, window: 2 };
    let mut net = self_driving_client(44, closed, 12, SimDuration::from_secs(5));
    let client = net.client_ids()[0];

    // both requests of the window answered (the cold bind takes 250 ms),
    // both think timers pending
    net.run_for(SimDuration::from_millis(2_400));
    let s = net.client_stats(client);
    assert_eq!((s.sent, s.completed), (2, 2), "{s:?}");
    net.kill_node(client);
    let down_from = net.now();
    net.run_for(SimDuration::from_secs(1));
    net.restart_node(client);
    let down = (down_from, net.now());

    net.run_for(SimDuration::from_secs(10));
    assert_all_sent_once_and_settled(&net, 12, down);
    // the window is two wide again, and no wider
    let outcomes = net.client_outcomes(client);
    assert_eq!(outcomes[2].sent_at, down.1 + think);
    assert_eq!(outcomes[3].sent_at, outcomes[2].sent_at);
    assert!(outcomes[4].sent_at >= outcomes[2].sent_at + think);
}

#[test]
fn client_down_through_its_warmup_starts_over() {
    let open = Workload::Open {
        interval: SimDuration::from_millis(100),
        poisson: false,
    };
    let mut net = self_driving_client(45, open, 5, SimDuration::from_secs(5));
    let client = net.client_ids()[0];
    net.run_for(SimDuration::from_secs(1));
    net.kill_node(client);
    let down_from = net.now();
    net.run_for(SimDuration::from_millis(500));
    net.restart_node(client);
    let down = (down_from, net.now());
    net.run_for(SimDuration::from_secs(5));
    assert_all_sent_once_and_settled(&net, 5, down);
    let warmup = SimDuration::from_secs(2);
    assert_eq!(net.client_outcomes(client)[0].sent_at, down.1 + warmup);
}

/// A crash takes the b-peer's timers, so a response it had deferred
/// behind its service time is never sent: the restart must drop the
/// deferred entries and free the virtual servers they booked, or the
/// node reports a queue forever and serves its next requests late.
#[test]
fn bpeer_restart_drops_deferred_responses_and_frees_its_servers() {
    let service_time = SimDuration::from_millis(200);
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backend: Box<dyn ServiceBackend> =
        Box::new(StudentRegistry::operational_db().with_sample_data());
    let mut net = WhisperNet::build(DeploymentConfig {
        seed: 46,
        groups: vec![GroupSpec::from_operation("Group", op, vec![backend])],
        bpeer: BPeerConfig {
            processing_time: service_time,
            ..BPeerConfig::default()
        },
        ..DeploymentConfig::default()
    })
    .expect("well-formed");
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    let bpeer = net.group_nodes(0)[0];
    net.submit_student_request(client, "u1000"); // warms the binding
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.client_stats(client).completed, 1);

    // three requests in service: the single server is booked 600 ms ahead
    for _ in 0..3 {
        net.submit_student_request(client, "u1001");
    }
    net.run_for(SimDuration::from_millis(10));
    assert_eq!(net.bpeer(bpeer).scope_snapshot(net.now()).queue_depth, 3);
    net.kill_node(bpeer);
    net.run_for(SimDuration::from_millis(10));
    net.restart_node(bpeer);
    net.run_for(SimDuration::from_micros(1)); // lets `on_restart` run
    assert_eq!(net.bpeer(bpeer).scope_snapshot(net.now()).queue_depth, 0);

    // a request arriving now is served in one service time, not behind
    // the bookings of the three that died with the crash
    let restarted_at = net.now();
    let id = net.submit_student_request(client, "u1002") as usize;
    net.run_for(service_time + SimDuration::from_millis(10));
    let answered_at = net.client_outcomes(client)[id]
        .completed_at
        .expect("served in one service time");
    assert!(answered_at.since(restarted_at) >= service_time);

    // the three caught by the crash ride the proxy's timeout ladder (and
    // fault: their only replica failed them once); in the end nothing is
    // queued anywhere
    net.run_for(SimDuration::from_secs(10));
    let s = net.client_stats(client);
    assert_eq!((s.completed, s.in_flight()), (5, 0), "{s:?}");
    assert_eq!(net.bpeer(bpeer).scope_snapshot(net.now()).queue_depth, 0);
    assert_eq!(net.proxy().backlog(), ProxyBacklog::default());
}

/// A b-peer told that a link is lost arms one detector sweep a beacon
/// period out and keeps the evidence in its detector. A crash takes the
/// timer; the restart must take the evidence with it (a fresh detector),
/// or the restarted peer would hold a grudge nothing is armed to settle.
#[test]
fn bpeer_restart_drops_lost_link_evidence_and_the_sweep_it_armed() {
    use whisper::deploy::Deployment;
    use whisper_obs::FlightEventKind;
    /// `TOKEN_LOST_CHECK` of `bpeer.rs`.
    const LOST_CHECK: u64 = 5;

    let mut dep = Deployment::student(3);
    dep.with_flight = true;
    dep.bpeer.heartbeat_period = SimDuration::from_millis(50);
    dep.bpeer.failure_timeout = SimDuration::from_millis(250);
    let mut rig = dep.boot_sim(47).expect("well-formed");
    assert!(rig.await_election(0, SimDuration::from_secs(30)));
    let (low, mid, top) = {
        let g = &rig.topology.group_nodes[0];
        (g[0], g[1], g[2])
    };

    rig.net.kill_node(top);
    rig.net.run_for(SimDuration::from_millis(10));
    for survivor in [low, mid] {
        assert!(
            rig.net.pending_timers(survivor).contains(&LOST_CHECK),
            "{survivor}: told, and the confirming sweep is armed"
        );
    }
    rig.net.kill_node(low);
    rig.net.run_for(SimDuration::from_millis(10));
    rig.net.restart_node(low);
    rig.net.run_for(SimDuration::from_micros(1)); // lets `on_restart` run
    assert!(!rig.net.pending_timers(low).contains(&LOST_CHECK));

    rig.net.run_for(SimDuration::from_millis(200));
    let timeline = rig.topology.flight.as_ref().expect("wired").capture();
    let marks = |node: whisper_simnet::NodeId| -> Vec<String> {
        let of_node = timeline
            .events()
            .iter()
            .filter(|e| e.node == node.index() as u64);
        of_node
            .filter_map(|e| match &e.kind {
                FlightEventKind::Fault { action } if action.contains("lost") => {
                    Some(action.clone())
                }
                _ => None,
            })
            .collect()
    };
    // the survivor that stayed up confirmed it (and won the election)...
    assert_eq!(
        marks(mid),
        [
            format!("link-lost {top}"),
            format!("link-lost {low}"),
            format!("lost-confirmed {top}")
        ]
    );
    // ...the one that restarted in between confirmed nothing: it follows
    assert_eq!(marks(low), [format!("link-lost {top}")]);
    let snaps = rig.poll(&[low, mid], SimDuration::from_secs(2));
    assert_eq!(snaps.coordinator(), Some(rig.topology.peer_of(mid).value()));
}

//! A crash clears a node's timers but not the actor's state, so the proxy
//! and the client re-arm in `on_restart` what their surviving state still
//! counts on. Without that, a request pending at the crash never times
//! out: its bookkeeping leaks and a client's retry rides the dead
//! pipeline forever; and a client that generates its own load never sends
//! again.

use whisper::{
    BPeerActor, BPeerConfig, Booted, ClientActor, ClientConfigTemplate, GroupSpec, ProxyBacklog,
    ProxyConfig, PulseWiring, ScenarioWiring, ServiceBackend, StudentRegistry, SwsProxyActor,
    WhisperMsg, Workload,
};
use whisper_simnet::{SimDuration, SimNet, SimTime};

type Rig = Booted<SimNet<WhisperMsg>>;

#[test]
fn request_pending_at_a_proxy_crash_is_rebound_after_the_restart() {
    let wiring = ScenarioWiring {
        pulse: Some(PulseWiring {
            interval: SimDuration::from_millis(100),
            store: whisper::pulse::shared_store(256, 128, 4 << 20),
        }),
        ..ScenarioWiring::student(3)
    };
    let mut rig = wiring.boot_sim(41).expect("well-formed");
    rig.net.run_for(SimDuration::from_secs(3));
    let client = rig.topology.clients[0];
    let proxy = rig.topology.proxy;
    rig.submit_from(client, StudentRegistry::request("u1000")); // warms the binding
    rig.net.run_for(SimDuration::from_secs(1));

    // Crash the proxy with the second request forwarded and unanswered:
    // the coordinator's answer reaches a dead node and is lost.
    rig.submit_from(client, StudentRegistry::request("u1001"));
    while rig
        .net
        .node::<SwsProxyActor>(rig.topology.proxy)
        .backlog()
        .pending
        == 0
    {
        assert!(rig.net.step(), "the request never reached the proxy");
    }
    let held = rig.net.node::<SwsProxyActor>(rig.topology.proxy).backlog();
    assert!(
        held.inflight_clients == 1 && held.deadlines >= 1,
        "{held:?}"
    );
    rig.net.kill_node(proxy);
    rig.net.run_for(SimDuration::from_millis(100));
    assert_eq!(
        rig.net.node::<ClientActor>(client).stats().completed,
        1,
        "the answer was lost"
    );

    rig.net.restart_node(proxy);
    let restarted_at = rig.net.now();
    let timeout = ProxyConfig::default().request_timeout;
    rig.net.run_for(timeout);
    let s = rig.net.node::<ClientActor>(client).stats();
    assert_eq!(
        (s.completed, s.faults),
        (2, 0),
        "re-bound and answered: {s:?}"
    );
    let answered_at = rig.net.node::<ClientActor>(client).outcomes()[1]
        .completed_at
        .expect("completed");
    assert!(
        answered_at.since(restarted_at) < timeout,
        "within one request_timeout of the restart"
    );
    assert_eq!(
        rig.net
            .node::<SwsProxyActor>(rig.topology.proxy)
            .stats()
            .rebinds,
        1
    );
    // the pulse interval is running again
    assert!(rig.net.pending_timers(proxy).iter().any(|t| t & 0b11 == 0));

    rig.net.run_for(timeout);
    assert_eq!(
        rig.net.node::<SwsProxyActor>(rig.topology.proxy).backlog(),
        ProxyBacklog::default()
    );
}

/// The student group behind the proxy, and one client that sends `total`
/// requests of its own accord (first one at 2 s).
fn self_driving_client(seed: u64, workload: Workload, total: u64, timeout: SimDuration) -> Rig {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backend: Box<dyn ServiceBackend> =
        Box::new(StudentRegistry::operational_db().with_sample_data());
    let payload = StudentRegistry::request("u1000");
    ScenarioWiring {
        groups: vec![GroupSpec::from_operation("Group", op, vec![backend])],
        clients: vec![ClientConfigTemplate {
            workload,
            payloads: vec![payload],
            total: Some(total),
            timeout,
            warmup: SimDuration::from_secs(2),
        }],
        ..ScenarioWiring::student(1)
    }
    .boot_sim(seed)
    .expect("well-formed")
}

#[test]
fn request_pending_at_a_client_crash_still_times_out() {
    let timeout = SimDuration::from_secs(5);
    let closed = Workload::Closed {
        think: SimDuration::ZERO,
        window: 1,
    };
    let mut rig = self_driving_client(42, closed, 2, timeout);
    let client = rig.topology.clients[0];
    rig.net.kill_node(rig.topology.proxy); // nobody will answer

    // the first request leaves at 2 s; the client is down from 3 s to 4 s
    rig.net.run_for(SimDuration::from_secs(3));
    assert_eq!(rig.net.node::<ClientActor>(client).stats().sent, 1);
    rig.net.kill_node(client);
    rig.net.run_for(SimDuration::from_secs(1));
    rig.net.restart_node(client);
    rig.net.run_for(SimDuration::from_secs(4));

    let outcomes = rig.net.node::<ClientActor>(client).outcomes();
    assert!(outcomes[0].timed_out, "{:?}", outcomes[0]);
    // at its own deadline, which also kept the closed loop alive
    assert_eq!(outcomes[1].sent_at, outcomes[0].sent_at + timeout);
}

/// Every request the client ever sent is accounted for, each id once and
/// none while the client was down; the proxy holds nothing back.
fn assert_all_sent_once_and_settled(rig: &Rig, total: u64, down: (SimTime, SimTime)) {
    let client = rig.topology.clients[0];
    let s = rig.net.node::<ClientActor>(client).stats();
    assert_eq!((s.sent, s.in_flight()), (total, 0), "{s:?}");
    let outcomes = rig.net.node::<ClientActor>(client).outcomes();
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
    let handled: u64 = rig.topology.group_nodes[0]
        .iter()
        .map(|&n| rig.net.node::<BPeerActor>(n).requests_handled())
        .sum();
    assert_eq!(handled, total);
    assert_eq!(
        rig.net.node::<SwsProxyActor>(rig.topology.proxy).backlog(),
        ProxyBacklog::default()
    );
}

#[test]
fn open_loop_client_sends_again_after_a_restart() {
    let interval = SimDuration::from_millis(100);
    let open = Workload::Open {
        interval,
        poisson: false,
    };
    let mut rig = self_driving_client(43, open, 30, SimDuration::from_secs(5));
    let client = rig.topology.clients[0];

    // ten requests out, then down for a second with the send timer armed
    rig.net.run_for(SimDuration::from_millis(2_950));
    assert_eq!(rig.net.node::<ClientActor>(client).stats().sent, 10);
    rig.net.kill_node(client);
    let down_from = rig.net.now();
    rig.net.run_for(SimDuration::from_secs(1));
    assert_eq!(rig.net.node::<ClientActor>(client).stats().sent, 10);
    rig.net.restart_node(client);
    let down = (down_from, rig.net.now());

    rig.net.run_for(SimDuration::from_secs(10));
    assert_all_sent_once_and_settled(&rig, 30, down);
    // the chain is one timer again, not one per restart
    let outcomes = rig.net.node::<ClientActor>(client).outcomes();
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
    let mut rig = self_driving_client(44, closed, 12, SimDuration::from_secs(5));
    let client = rig.topology.clients[0];

    // both requests of the window answered (the cold bind takes 250 ms),
    // both think timers pending
    rig.net.run_for(SimDuration::from_millis(2_400));
    let s = rig.net.node::<ClientActor>(client).stats();
    assert_eq!((s.sent, s.completed), (2, 2), "{s:?}");
    rig.net.kill_node(client);
    let down_from = rig.net.now();
    rig.net.run_for(SimDuration::from_secs(1));
    rig.net.restart_node(client);
    let down = (down_from, rig.net.now());

    rig.net.run_for(SimDuration::from_secs(10));
    assert_all_sent_once_and_settled(&rig, 12, down);
    // the window is two wide again, and no wider
    let outcomes = rig.net.node::<ClientActor>(client).outcomes();
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
    let mut rig = self_driving_client(45, open, 5, SimDuration::from_secs(5));
    let client = rig.topology.clients[0];
    rig.net.run_for(SimDuration::from_secs(1));
    rig.net.kill_node(client);
    let down_from = rig.net.now();
    rig.net.run_for(SimDuration::from_millis(500));
    rig.net.restart_node(client);
    let down = (down_from, rig.net.now());
    rig.net.run_for(SimDuration::from_secs(5));
    assert_all_sent_once_and_settled(&rig, 5, down);
    let warmup = SimDuration::from_secs(2);
    assert_eq!(
        rig.net.node::<ClientActor>(client).outcomes()[0].sent_at,
        down.1 + warmup
    );
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
    let mut rig = ScenarioWiring {
        groups: vec![GroupSpec::from_operation("Group", op, vec![backend])],
        bpeer: BPeerConfig {
            processing_time: service_time,
            ..BPeerConfig::default()
        },
        ..ScenarioWiring::student(1)
    }
    .boot_sim(46)
    .expect("well-formed");
    rig.net.run_for(SimDuration::from_secs(3));
    let client = rig.topology.clients[0];
    let bpeer = rig.topology.group_nodes[0][0];
    rig.submit_from(client, StudentRegistry::request("u1000")); // warms the binding
    rig.net.run_for(SimDuration::from_secs(1));
    assert_eq!(rig.net.node::<ClientActor>(client).stats().completed, 1);

    // three requests in service: the single server is booked 600 ms ahead
    for _ in 0..3 {
        rig.submit_from(client, StudentRegistry::request("u1001"));
    }
    rig.net.run_for(SimDuration::from_millis(10));
    assert_eq!(
        rig.net
            .node::<BPeerActor>(bpeer)
            .scope_snapshot(rig.net.now())
            .queue_depth,
        3
    );
    rig.net.kill_node(bpeer);
    rig.net.run_for(SimDuration::from_millis(10));
    rig.net.restart_node(bpeer);
    rig.net.run_for(SimDuration::from_micros(1)); // lets `on_restart` run
    assert_eq!(
        rig.net
            .node::<BPeerActor>(bpeer)
            .scope_snapshot(rig.net.now())
            .queue_depth,
        0
    );

    // a request arriving now is served in one service time, not behind
    // the bookings of the three that died with the crash
    let restarted_at = rig.net.now();
    let id = rig.submit_from(client, StudentRegistry::request("u1002")) as usize;
    rig.net.run_for(service_time + SimDuration::from_millis(10));
    let answered_at = rig.net.node::<ClientActor>(client).outcomes()[id]
        .completed_at
        .expect("served in one service time");
    assert!(answered_at.since(restarted_at) >= service_time);

    // the three caught by the crash ride the proxy's timeout ladder (and
    // fault: their only replica failed them once); in the end nothing is
    // queued anywhere
    rig.net.run_for(SimDuration::from_secs(10));
    let s = rig.net.node::<ClientActor>(client).stats();
    assert_eq!((s.completed, s.in_flight()), (5, 0), "{s:?}");
    assert_eq!(
        rig.net
            .node::<BPeerActor>(bpeer)
            .scope_snapshot(rig.net.now())
            .queue_depth,
        0
    );
    assert_eq!(
        rig.net.node::<SwsProxyActor>(rig.topology.proxy).backlog(),
        ProxyBacklog::default()
    );
}

/// A b-peer told that a link is lost buries the peer in the same handler:
/// `link-lost` and `lost-confirmed` carry one instant. The evidence lives in
/// the detector, and a restart must take it with it (a fresh detector), or
/// the restarted peer would hold a grudge against a peer nothing it hears
/// any more can clear.
#[test]
fn bpeer_restart_drops_lost_link_evidence_and_survivors_bury_at_once() {
    use whisper_obs::FlightEventKind;

    let mut wiring = ScenarioWiring::student(3);
    wiring.flight = Some(whisper_obs::flight::DEFAULT_RING_BYTES);
    wiring.recorder = Some(whisper_obs::Recorder::new());
    wiring.bpeer.heartbeat_period = SimDuration::from_millis(50);
    wiring.bpeer.failure_timeout = SimDuration::from_millis(250);
    let mut rig = wiring.boot_sim(47).expect("well-formed");
    let rec = rig.recorder.clone().expect("wired");
    assert!(rig.await_election(0, SimDuration::from_secs(30)));
    let (low, mid, top) = {
        let g = &rig.topology.group_nodes[0];
        (g[0], g[1], g[2])
    };
    let marks = |rig: &Rig, node: whisper_simnet::NodeId| -> Vec<(SimTime, String)> {
        let timeline = rig.topology.flight.as_ref().expect("wired").capture();
        let of_node = timeline
            .events()
            .iter()
            .filter(|e| e.node == node.index() as u64);
        of_node
            .filter_map(|e| match &e.kind {
                FlightEventKind::Fault { action } if action.contains("lost") => {
                    Some((e.at, action.clone()))
                }
                _ => None,
            })
            .collect()
    };
    let words =
        |m: Vec<(SimTime, String)>| -> Vec<String> { m.into_iter().map(|(_, w)| w).collect() };

    rig.net.kill_node(top);
    rig.net.run_for(SimDuration::from_millis(10));
    for survivor in [low, mid] {
        let m = marks(&rig, survivor);
        assert_eq!(
            words(m.clone()),
            [format!("link-lost {top}"), format!("lost-confirmed {top}")],
            "{survivor}"
        );
        assert_eq!(m[0].0, m[1].0, "{survivor}: told and buried in one instant");
    }
    assert_eq!(rec.counter("bpeer.link_lost_cleared"), 0);

    rig.net.kill_node(low);
    rig.net.run_for(SimDuration::from_millis(10));
    rig.net.restart_node(low);
    rig.net.run_for(SimDuration::from_millis(200));
    // the survivor that stayed up buried both; the restarted one's word
    // cleared its mark on mid
    assert_eq!(
        words(marks(&rig, mid)),
        [
            format!("link-lost {top}"),
            format!("lost-confirmed {top}"),
            format!("link-lost {low}"),
            format!("lost-confirmed {low}")
        ]
    );
    assert_eq!(rec.counter("bpeer.link_lost_cleared"), 1, "mid heard low");
    // ...the one that restarted in between marked nothing since: it follows
    assert_eq!(
        words(marks(&rig, low)),
        [format!("link-lost {top}"), format!("lost-confirmed {top}")]
    );
    let snaps = rig.poll(&[low, mid], SimDuration::from_secs(2));
    assert_eq!(snaps.coordinator(), Some(rig.topology.peer_of(mid).value()));

    // When `top` comes back and speaks, only the peer that stayed up held
    // a mark against it: the restarted one's detector is fresh.
    rig.net.restart_node(top);
    assert!(rig.await_election(0, SimDuration::from_secs(2)));
    assert_eq!(rec.counter("bpeer.link_lost_cleared"), 2, "mid heard top");
    assert_eq!(rig.coordinator_of(0), rig.topology.directory.peer_of(top));
}

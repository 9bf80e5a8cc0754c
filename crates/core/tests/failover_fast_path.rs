//! Failover by transport evidence and notification, on the simulator with
//! the benchmark's timers (50 ms beacons, 250 ms failure timeout, 200 ms
//! Bully answer wait, 1 s proxy request timeout, three b-peers): the outage
//! a client sees is one beacon period plus a hop. The survivors are told
//! the dead coordinator's links closed and confirm it with one silent
//! beacon period; the one that outranks the other does not wait for an
//! answer from the peer it has just buried, and it tells the proxy, which
//! moves what was pending at the dead peer at once instead of one request
//! timeout later.
//!
//! The kill is swept over a whole heartbeat period in 5 ms steps, with the
//! two survivors' detector sweeps in phase and 20 ms apart, with and
//! without load sharing: no interleaving may pay the failure timeout or
//! either wait, and none may act on the lost link before the beacon period
//! is out.

use whisper::{
    BPeerConfig, ClientConfigTemplate, DeploymentConfig, GroupSpec, ProxyBacklog, ProxyConfig,
    ServiceBackend, StudentRegistry, WhisperNet, Workload,
};
use whisper_election::BullyConfig;
use whisper_simnet::{NodeId, SimDuration, SimTime};
use whisper_xml::Element;

const HEARTBEAT: SimDuration = SimDuration::from_millis(50);
const FAILURE_TIMEOUT: SimDuration = SimDuration::from_millis(250);
const ANSWER_TIMEOUT: SimDuration = SimDuration::from_millis(200);
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(1000);
/// Link latency to be told, an election hop, the announcement, one
/// forwarded request and its answer: about 1 ms on the simulated LAN.
const HOP: SimDuration = SimDuration::from_millis(5);

fn ms(n: u64) -> SimTime {
    SimTime::from_micros(n * 1000)
}

/// The benchmark's b-peer and proxy tuning (`benchmark/src/workload.rs`).
fn benchmark_timers(load_share: bool) -> (BPeerConfig, ProxyConfig) {
    let bpeer = BPeerConfig {
        heartbeat_period: HEARTBEAT,
        failure_timeout: FAILURE_TIMEOUT,
        bully: BullyConfig {
            answer_timeout: ANSWER_TIMEOUT,
            coordinator_timeout: SimDuration::from_millis(400),
            cooldown: SimDuration::from_millis(200),
        },
        load_share,
        workers: 2,
        ..BPeerConfig::default()
    };
    let proxy = ProxyConfig {
        request_timeout: REQUEST_TIMEOUT,
        ..ProxyConfig::default()
    };
    (bpeer, proxy)
}

/// `peers` replicas behind the proxy and two open-loop clients, 250
/// requests a second each: the first offers 2.0–4.0 s (the kill leg), the
/// second 4.5–5.5 s (the restart leg), with nothing in flight in between.
fn deployment(seed: u64, peers: usize, load_share: bool) -> WhisperNet {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backends: Vec<Box<dyn ServiceBackend>> = (0..peers)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    let client = |warmup_ms: u64, total: u64| ClientConfigTemplate {
        workload: Workload::Open {
            interval: SimDuration::from_millis(4),
            poisson: false,
        },
        payloads: vec![payload.clone()],
        total: Some(total),
        timeout: SimDuration::from_secs(30),
        warmup: SimDuration::from_millis(warmup_ms),
    };
    let (bpeer, proxy) = benchmark_timers(load_share);
    WhisperNet::build(DeploymentConfig {
        seed,
        groups: vec![GroupSpec::from_operation("StudentInfoGroup", op, backends)],
        clients: vec![client(2000, 500), client(4500, 250)],
        bpeer,
        proxy,
        ..DeploymentConfig::default()
    })
    .expect("well-formed")
}

fn handled(net: &WhisperNet) -> u64 {
    net.group_nodes(0)
        .iter()
        .map(|&n| net.bpeer(n).requests_handled())
        .sum()
}

/// Every request of `client` was answered, once, without a fault, and none
/// waited as long as the proxy's request timeout. Returns how many.
fn assert_all_answered_promptly(net: &WhisperNet, client: NodeId, case: &str) -> u64 {
    let stats = net.client_stats(client);
    assert_eq!(
        (stats.completed, stats.faults, stats.timeouts),
        (stats.sent, 0, 0),
        "{case}: {stats:?}"
    );
    for o in net.client_outcomes(client) {
        let waited = o.completed_at.expect("completed").since(o.sent_at);
        assert!(
            waited < REQUEST_TIMEOUT,
            "{case}: request {} waited {waited}",
            o.id
        );
    }
    stats.sent
}

/// Kill → first good answer to a request sent at or after the kill.
fn outage_after(net: &WhisperNet, client: NodeId, kill_at: SimTime) -> SimDuration {
    net.client_outcomes(client)
        .iter()
        .filter(|o| o.sent_at >= kill_at)
        .filter_map(|o| o.completed_at)
        .min()
        .expect("requests were sent after the kill")
        .since(kill_at)
}

/// One kill → restart story; `skew_ms` de-phases the lower survivor's
/// detector sweep from the others', `kill_offset_ms` places the kill in
/// the heartbeat period.
fn run_case(load_share: bool, skew_ms: u64, kill_offset_ms: u64) {
    let case = format!("load_share={load_share} skew={skew_ms}ms offset={kill_offset_ms}ms");
    let mut net = deployment(18, 3, load_share);
    let victim = *net.group_nodes(0).last().expect("three b-peers");
    let lowest = net.group_nodes(0)[0];
    let (first, second) = (net.client_ids()[0], net.client_ids()[1]);

    // All nodes boot at 0, so their 50 ms timers are in phase; a restart
    // re-phases the lowest peer's to 1000 + skew (mod 50).
    net.run_until(ms(900));
    net.kill_node(lowest);
    net.run_until(ms(1000 + skew_ms));
    net.restart_node(lowest);

    let kill_at = ms(3000 + kill_offset_ms);
    net.run_until(kill_at);
    assert_eq!(
        net.coordinator_of(0),
        net.directory().peer_of(victim),
        "{case}: the highest peer coordinates"
    );
    net.kill_node(victim);

    // between the legs nothing is in flight
    net.run_until(ms(4400));
    let sent_first = assert_all_answered_promptly(&net, first, &case);
    assert_eq!(sent_first, 500, "{case}");
    let outage = outage_after(&net, first, kill_at);
    assert!(
        outage >= HEARTBEAT && outage <= HEARTBEAT + HOP,
        "{case}: outage {outage} — a lost link is confirmed by one silent \
         beacon period, no sooner, and acted on one hop later"
    );
    assert_eq!(net.proxy().backlog().pending, 0, "{case}");
    let handled_before_restart_leg = handled(&net);

    // the restart leg: the victim comes back under load and bullies back
    net.run_until(ms(5000));
    net.restart_node(victim);
    net.run_until(ms(5500) + REQUEST_TIMEOUT + REQUEST_TIMEOUT);
    assert_eq!(
        net.coordinator_of(0),
        net.directory().peer_of(victim),
        "{case}: the restarted peer reclaims the group"
    );
    let sent_second = assert_all_answered_promptly(&net, second, &case);
    assert_eq!(sent_second, 250, "{case}");
    assert_eq!(
        handled(&net) - handled_before_restart_leg,
        sent_second,
        "{case}: a request was executed twice on the bully-back"
    );

    let stats = net.proxy_stats();
    // (each client also sent nothing but its own requests: one response
    // forwarded per request, no proxy-made fault)
    assert_eq!(
        (stats.responses_forwarded, stats.faults_generated),
        (sent_first + sent_second, 0),
        "{case}: {stats:?}"
    );
    assert_eq!(net.proxy().backlog(), ProxyBacklog::default(), "{case}");
}

#[test]
fn no_kill_offset_pays_the_answer_wait_or_the_request_timeout() {
    for load_share in [true, false] {
        for skew_ms in [0, 20] {
            for kill_offset_ms in (0..=50).step_by(5) {
                run_case(load_share, skew_ms, kill_offset_ms);
            }
        }
    }
}

/// The E20 hole: in a group of five the members monitor the coordinator
/// only, so when peers 5 and 4 die together peer 3's silence detector
/// never buries 4 — and its election used to wait the whole answer timeout
/// for it. A lost link is evidence whoever the peer beacons.
#[test]
fn a_second_casualty_does_not_cost_the_answer_wait() {
    let mut net = deployment(21, 5, false);
    let group = net.group_nodes(0).to_vec();
    let first = net.client_ids()[0];
    let kill_at = ms(3020);
    net.run_until(kill_at);
    net.kill_node(group[4]);
    net.kill_node(group[3]);
    net.run_until(ms(4400));

    let outage = outage_after(&net, first, kill_at);
    assert!(
        outage <= HEARTBEAT + HEARTBEAT + HOP,
        "outage {outage}: peer 3 waited for a peer whose link it had lost"
    );
    assert_eq!(
        assert_all_answered_promptly(&net, first, "two casualties"),
        500
    );
    // (the first request is the cold one: it pays the discovery window)
    for o in &net.client_outcomes(first)[1..] {
        let waited = o.completed_at.expect("completed").since(o.sent_at);
        assert!(waited < ANSWER_TIMEOUT, "request {} waited {waited}", o.id);
    }
    assert_eq!(net.coordinator_of(0), net.directory().peer_of(group[2]));
    assert_eq!(net.proxy().backlog().pending, 0);
}

/// The Bully cooldown keeps stray `Election`s from re-running an election
/// that has just settled; it must not keep the survivors from replacing a
/// coordinator that dies inside it — which one beacon period of detection
/// (shorter than the 200 ms cooldown) now makes an everyday case: the
/// benchmark kills the coordinator 0–200 ms after it bullied back.
#[test]
fn a_coordinator_killed_right_after_it_was_crowned_is_replaced_at_once() {
    let mut net = deployment(22, 3, false);
    let victim = *net.group_nodes(0).last().expect("three b-peers");
    let second = net.client_ids()[1];
    net.run_until(ms(4000));
    net.kill_node(victim);
    net.run_until(ms(5000));
    net.restart_node(victim); // crowned again within a hop...
    let kill_at = ms(5060);
    net.run_until(kill_at);
    assert_eq!(net.coordinator_of(0), net.directory().peer_of(victim));
    net.kill_node(victim); // ...and dead again 60 ms later
    net.run_until(ms(5500) + REQUEST_TIMEOUT);

    let outage = outage_after(&net, second, kill_at);
    assert!(
        outage <= HEARTBEAT + HOP,
        "outage {outage}: the cooldown shielded a dead coordinator"
    );
    assert_eq!(assert_all_answered_promptly(&net, second, "re-kill"), 250);
}

/// The timeout path alone (a rendezvous deployment: b-peers never see the
/// proxy's member query, so nobody announces): the first timeout of a
/// burst moves the binding, the requests behind it follow the move.
#[test]
fn a_burst_at_a_dead_coordinator_moves_the_binding_once() {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let (bpeer, proxy) = benchmark_timers(false);
    let mut net = WhisperNet::build(DeploymentConfig {
        seed: 19,
        groups: vec![GroupSpec::from_operation("StudentInfoGroup", op, backends)],
        use_rendezvous: true,
        bpeer,
        proxy,
        ..DeploymentConfig::default()
    })
    .expect("well-formed");
    let rec = net.enable_obs();
    net.run_for(SimDuration::from_secs(2));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000"); // warms the binding
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.client_stats(client).completed, 1);
    let scans_warm = rec.counter("proxy.member_scans");

    let dead = net.kill_coordinator(0).expect("had a coordinator");
    net.submit_student_request(client, "u1001");
    net.submit_student_request(client, "u1002");
    net.run_for(REQUEST_TIMEOUT + SimDuration::from_millis(100));

    let stats = net.client_stats(client);
    assert_eq!((stats.completed, stats.faults), (3, 0), "{stats:?}");
    for o in &net.client_outcomes(client)[1..] {
        let waited = o.completed_at.expect("completed").since(o.sent_at);
        assert!(waited >= REQUEST_TIMEOUT, "nobody announced: {waited}");
    }
    let successor = net.coordinator_of(0).expect("re-elected");
    assert_ne!(successor, dead);
    assert_eq!(net.proxy().binding_of(net.group_id(0)), Some(successor));
    assert_eq!(net.proxy_stats().rebinds, 1, "one binding move");
    assert_eq!(
        rec.counter("proxy.member_scans") - scans_warm,
        1,
        "one scan of the member cache"
    );
    assert_eq!(rec.counter("proxy.rebinds"), 1);
}

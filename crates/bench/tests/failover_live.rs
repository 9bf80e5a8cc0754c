//! Failover by notification on the live substrates: with the benchmark's
//! timers (250 ms failure timeout, 1 s proxy request timeout) the
//! coordinator is killed under open-loop load on OS threads and on real
//! TCP loopback, and no request in the client's completion log waited as
//! long as the request timeout — the successor's announcement moved what
//! was pending at the dead peer, nothing had to time out.
//!
//! Paced by the cluster, not by sleeps: every step waits until a scope
//! poll says the previous one has taken effect.

use std::any::Any;

use whisper::{
    BPeerConfig, ClientActor, ClientConfigTemplate, GroupSpec, ProxyConfig, ScenarioWiring,
    ServiceBackend, StudentRegistry, Topology, WhisperMsg, Workload,
};
use whisper_bench::cluster::SubstrateProbe;
use whisper_bench::TcpCluster;
use whisper_election::BullyConfig;
use whisper_obs::NodeSnapshot;
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{NodeId, SimDuration, Spawner, Substrate};
use whisper_xml::Element;

const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(1000);
const SETTLE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Requests the client offers, one every 5 ms.
const TOTAL: u64 = 1200;

/// Three replicas with the benchmark's tuning and one open-loop client.
fn wiring() -> ScenarioWiring {
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample operation")
        .clone();
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let mut wiring = ScenarioWiring::bare(
        service,
        whisper_ontology::samples::university_ontology(),
        vec![GroupSpec::from_operation("StudentInfoGroup", &op, backends)],
    );
    wiring.bpeer = BPeerConfig {
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
    wiring.proxy = ProxyConfig {
        request_timeout: REQUEST_TIMEOUT,
        ..ProxyConfig::default()
    };
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    wiring.clients = vec![ClientConfigTemplate {
        workload: Workload::Open {
            interval: SimDuration::from_millis(5),
            poisson: false,
        },
        payloads: vec![payload],
        total: Some(TOTAL),
        timeout: SimDuration::from_secs(30),
        warmup: SimDuration::from_millis(500),
    }];
    wiring
}

fn wire<S: Spawner<WhisperMsg>>(spawner: &mut S) -> (Topology, SubstrateProbe) {
    let topology = wiring().wire(spawner).expect("well-formed scenario");
    let probe = SubstrateProbe::add_to(spawner);
    (topology, probe)
}

/// Client requests the proxy has taken in, per its scope snapshot.
fn requests_seen(snaps: &[(NodeId, NodeSnapshot)]) -> u64 {
    snaps[0].1.received.sent_of_kind("soap-request")
}

/// Kills the coordinator once the load flows, restarts it once the proxy
/// has served a stretch through the successor, and waits for the client's
/// last answer.
fn kill_and_restart_under_load<N: Substrate<WhisperMsg>>(
    net: &mut N,
    topology: &Topology,
    probe: &SubstrateProbe,
) {
    let group = &topology.group_nodes[0];
    let (&victim, survivors) = group.split_last().expect("the group has b-peers");
    let boss = topology.peer_of(victim).value();
    let service = topology.group_ids[0].value();
    let proxy = [topology.proxy];
    let settle = |net: &mut N, what: &str, nodes: &[NodeId], ok: &dyn Fn(&[_]) -> bool| {
        assert!(
            probe.settle(net, nodes, SETTLE_TIMEOUT, ok),
            "{}: never settled: {what}",
            net.name()
        );
    };

    settle(net, "boot election", group, &|snaps| {
        TcpCluster::agreed_coordinator(snaps) == Some(boss)
    });
    settle(net, "load flowing through the boss", &proxy, &|snaps| {
        requests_seen(snaps) >= 100 && snaps[0].1.bindings.contains(&(service, boss))
    });

    net.kill_node(victim);
    settle(net, "successor elected", survivors, &|snaps| {
        TcpCluster::agreed_coordinator(snaps).is_some_and(|c| c != boss)
    });
    let at_takeover = requests_seen(&probe.poll(net, &proxy, SimDuration::from_secs(2)));
    settle(net, "a stretch served by the successor", &proxy, &|snaps| {
        requests_seen(snaps) >= at_takeover + 200 && !snaps[0].1.bindings.contains(&(service, boss))
    });

    net.restart_node(victim);
    settle(net, "the boss bullied back", group, &|snaps| {
        TcpCluster::agreed_coordinator(snaps) == Some(boss)
    });
    settle(net, "every request answered", &proxy, &|snaps| {
        snaps[0].1.sent.sent_of_kind("soap-response") >= TOTAL
    });
}

/// The client's completion log: everything answered, nothing faulted, and
/// no latency anywhere near the proxy's request timeout.
fn assert_no_request_waited_out_a_timeout(
    substrate: &str,
    topology: &Topology,
    actors: Vec<Box<dyn Any + Send>>,
) {
    let client = actors
        .into_iter()
        .nth(topology.clients[0].index())
        .and_then(|a| a.downcast::<ClientActor>().ok())
        .expect("the client node holds the client actor");
    let stats = client.stats();
    assert_eq!(
        (stats.sent, stats.completed, stats.faults, stats.timeouts),
        (TOTAL, TOTAL, 0, 0),
        "{substrate}: {stats:?}"
    );
    let slowest = client
        .outcomes()
        .iter()
        .map(|o| o.completed_at.expect("completed").since(o.sent_at))
        .max()
        .expect("requests were sent");
    assert!(
        slowest < REQUEST_TIMEOUT,
        "{substrate}: a request waited {slowest}, as long as the request timeout"
    );
}

#[test]
fn threadnet_failover_pays_no_request_timeout() {
    let mut builder = ThreadNetBuilder::new();
    let (topology, probe) = wire(&mut builder);
    let mut net = builder.start();
    kill_and_restart_under_load(&mut net, &topology, &probe);
    assert_no_request_waited_out_a_timeout("threadnet", &topology, net.shutdown());
}

#[test]
fn tcpnet_failover_pays_no_request_timeout() {
    let mut builder = TcpNetBuilder::new();
    let (topology, probe) = wire(&mut builder);
    let mut net = builder.start().expect("loopback sockets");
    kill_and_restart_under_load(&mut net, &topology, &probe);
    assert_no_request_waited_out_a_timeout("tcp", &topology, net.shutdown());
}

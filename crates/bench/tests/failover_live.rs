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

use whisper::{Booted, ClientActor, ClientConfigTemplate, Poll, ScenarioWiring, Topology};
use whisper::{WhisperMsg, Workload};
use whisper_bench::cluster::{student_info, student_registry, student_wiring};
use whisper_bench::ClusterTuning;
use whisper_simnet::{NodeId, SimDuration, Substrate};

const REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(1000);
const SETTLE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Requests the client offers, one every 5 ms.
const TOTAL: u64 = 1200;

/// Three replicas with the benchmark's tuning and one open-loop client.
fn wiring() -> ScenarioWiring {
    let mut wiring = student_wiring(3, student_registry, ClusterTuning::default());
    wiring.bpeer.load_share = true;
    wiring.bpeer.workers = 2;
    wiring.proxy.request_timeout = REQUEST_TIMEOUT;
    wiring.clients = vec![ClientConfigTemplate {
        workload: Workload::Open {
            interval: SimDuration::from_millis(5),
            poisson: false,
        },
        payloads: vec![student_info("u1000")],
        total: Some(TOTAL),
        timeout: SimDuration::from_secs(30),
        warmup: SimDuration::from_millis(500),
    }];
    wiring
}

/// Client requests the proxy has taken in, per its scope snapshot.
fn requests_seen(snaps: &Poll) -> u64 {
    snaps[0].1.received.sent_of_kind("soap-request")
}

/// Kills the coordinator once the load flows, restarts it once the proxy
/// has served a stretch through the successor, and waits for the client's
/// last answer.
fn kill_and_restart_under_load<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>) {
    let group = rig.topology.group_nodes[0].clone();
    let (&victim, survivors) = group.split_last().expect("the group has b-peers");
    let boss = rig.topology.peer_of(victim).value();
    let service = rig.topology.group_ids[0].value();
    let proxy = [rig.topology.proxy];
    let settle = |rig: &mut Booted<N>, what: &str, nodes: &[NodeId], ok: &dyn Fn(&Poll) -> bool| {
        assert!(
            rig.settle(nodes, SETTLE_TIMEOUT, ok),
            "{}: never settled: {what}",
            rig.net.name()
        );
    };

    settle(rig, "boot election", &group, &|snaps| {
        snaps.coordinator() == Some(boss)
    });
    settle(rig, "load flowing through the boss", &proxy, &|snaps| {
        requests_seen(snaps) >= 100 && snaps[0].1.bindings.contains(&(service, boss))
    });

    rig.net.kill_node(victim);
    settle(rig, "successor elected", survivors, &|snaps| {
        snaps.coordinator().is_some_and(|c| c != boss)
    });
    let at_takeover = requests_seen(&rig.poll(&proxy, SimDuration::from_secs(2)));
    settle(rig, "a stretch served by the successor", &proxy, &|snaps| {
        requests_seen(snaps) >= at_takeover + 200 && !snaps[0].1.bindings.contains(&(service, boss))
    });

    rig.net.restart_node(victim);
    settle(rig, "the boss bullied back", &group, &|snaps| {
        snaps.coordinator() == Some(boss)
    });
    settle(rig, "every request answered", &proxy, &|snaps| {
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
    let mut rig = wiring().boot_threadnet().expect("well-formed scenario");
    kill_and_restart_under_load(&mut rig);
    assert_no_request_waited_out_a_timeout("threadnet", &rig.topology, rig.net.shutdown());
}

#[test]
fn tcpnet_failover_pays_no_request_timeout() {
    let mut rig = wiring().boot_tcp().expect("loopback sockets");
    kill_and_restart_under_load(&mut rig);
    assert_no_request_waited_out_a_timeout("tcp", &rig.topology, rig.net.shutdown());
}

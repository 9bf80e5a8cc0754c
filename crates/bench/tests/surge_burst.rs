//! Out-of-order completion under fire: a burst of in-flight requests
//! with a mid-burst coordinator kill, on OS threads and on real TCP
//! loopback.
//!
//! With the surge worker pool enabled ([`whisper::BPeerConfig::workers`]), backend
//! executions finish out of order and are correlated back by job id; the
//! proxy additionally retries requests the dead coordinator swallowed.
//! The acceptance bar: **every** request is answered (success or fault —
//! nothing lost), and every successful response echoes its own request's
//! unique marker — completions never cross-talk between correlation ids.

use whisper::{Booted, EchoBackend, ScenarioWiring, WhisperMsg};
use whisper_bench::cluster::{marked_envelope, marker, student_wiring};
use whisper_bench::ClusterTuning;
use whisper_simnet::{SimDuration, Substrate};
use whisper_soap::Envelope;

/// How many requests each burst injects.
const BURST: u64 = 40;

/// The deployment under test: three echo replicas with two surge workers
/// each, load-sharing on, fast failure detection, and a proxy that
/// retries quickly enough to fail over inside the test budget.
fn surge_wiring(peers: usize) -> ScenarioWiring {
    let mut wiring = student_wiring(peers, || Box::new(EchoBackend), ClusterTuning::default());
    wiring.bpeer.load_share = true;
    wiring.bpeer.workers = 2;
    wiring.proxy.request_timeout = SimDuration::from_millis(500);
    wiring
}

/// The shared scenario: burst `BURST` requests, killing the coordinator
/// (the Bully winner — the highest b-peer) halfway through the
/// injections, restarting it while the tail of the burst is still being
/// retried; then verify nothing was lost and nothing cross-talked.
fn burst_with_mid_kill<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>) {
    let substrate = rig.net.name();
    let bpeers = rig.topology.group_nodes[0].clone();
    let (&coordinator_node, survivors) = bpeers.split_last().expect("at least one b-peer");
    let boss = rig.topology.peer_of(coordinator_node).value();
    let settled = rig.settle(&bpeers, SimDuration::from_secs(20), |p| {
        p.coordinator() == Some(boss)
    });
    assert!(settled, "boot election did not settle on {substrate}");

    let mut ids = Vec::new();
    for n in 1..=BURST {
        if n == BURST / 2 {
            rig.net.kill_node(coordinator_node);
        }
        ids.push((n, rig.submit_envelope(marked_envelope(n))));
    }

    // Bring the victim back once the survivors have elected a successor:
    // the proxy is then still failing over the swallowed half of the
    // burst, so restarting mid-recovery also exercises the
    // stale-completion path (parked jobs are dropped on restart).
    let succeeded = rig.settle(survivors, SimDuration::from_secs(20), |p| {
        p.coordinator().is_some_and(|c| c != boss)
    });
    assert!(succeeded, "{substrate}: the survivors never elected");
    rig.net.restart_node(coordinator_node);

    assert!(
        rig.await_answered(BURST, SimDuration::from_secs(60)),
        "{substrate}: only {}/{BURST} requests answered",
        rig.answered()
    );

    let mut faults = 0u64;
    for (n, id) in ids {
        let answer = rig
            .response(id)
            .unwrap_or_else(|| panic!("{substrate}: request {n} lost"));
        let parsed = Envelope::parse(&answer.envelope)
            .unwrap_or_else(|e| panic!("{substrate}: request {n}: bad envelope: {e:?}"));
        if parsed.is_fault() {
            faults += 1;
            continue;
        }
        // The correlation bar: a successful response must echo its own
        // request's marker — never a sibling's.
        assert!(
            answer.envelope.contains(&marker(n)),
            "{substrate}: response for {n} does not carry its marker: {}",
            answer.envelope
        );
    }
    // The kill must be masked, not merely answered: the proxy's failover
    // budget (10 attempts x 500 ms) dwarfs the ~1 s re-election, so
    // virtually the whole burst should succeed. Allow a straggler whose
    // attempts raced the election.
    assert!(
        faults <= BURST / 10,
        "{substrate}: {faults}/{BURST} requests faulted instead of failing over"
    );
}

#[test]
fn threadnet_burst_survives_mid_burst_coordinator_kill() {
    let mut rig = surge_wiring(3).boot_threadnet().expect("well-formed");
    burst_with_mid_kill(&mut rig);
    rig.net.shutdown();
}

#[test]
fn tcpnet_burst_survives_mid_burst_coordinator_kill() {
    let mut rig = surge_wiring(3).boot_tcp().expect("loopback sockets");
    burst_with_mid_kill(&mut rig);
    rig.net.shutdown();
}

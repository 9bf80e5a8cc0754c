//! Network partition over real sockets: the coordinator is not killed but
//! *isolated* — its links to the other b-peers and to the SWS-proxy are
//! blocked pair-wise while the process stays alive. The survivors must
//! elect a replacement, the proxy must re-bind requests to the live side,
//! the ledger must account the outage, and healing the partition must let
//! the old coordinator bully its way back.

use whisper::StudentRegistry;
use whisper_bench::cluster::pulse_scenario;
use whisper_bench::experiments::substrate_matrix::{self, MatrixTuning};
use whisper_bench::{ClusterTuning, PulseTuning};
use whisper_simnet::SimDuration;

/// The TCP leg of the substrate matrix's partition schedule (sim and
/// threads: `substrate_matrix::tests`): cutting the coordinator off closes
/// no socket, so the repair is not the crash's transport-speed burial — it
/// still waits out the failure timeout.
#[test]
fn a_partition_still_costs_the_failure_timeout_on_tcp() {
    let t = MatrixTuning::default();
    let mut rig = substrate_matrix::deployment(&t)
        .boot_tcp()
        .expect("loopback sockets");
    let plan = substrate_matrix::partition_plan(&rig.topology, &t);
    let row = substrate_matrix::run_on(&mut rig, &t, Some(&plan));
    rig.net.shutdown();
    assert!(row.recovered, "no coordinator at the end: {row:?}");
    assert_eq!(row.failures, 1, "exactly one outage: {row:?}");
    let mttr = row.mttr.expect("the outage was repaired");
    assert!(
        mttr >= t.cluster.failure_timeout,
        "repaired before the failure timeout: {mttr} vs {}",
        t.cluster.failure_timeout
    );
}

#[test]
fn partitioned_coordinator_is_replaced_and_requests_rebind() {
    let tuning = ClusterTuning::default();
    let mut rig = pulse_scenario(5, tuning, PulseTuning::default())
        .boot_tcp()
        .expect("loopback sockets");
    let bpeers = rig.topology.group_nodes[0].clone();
    let (&coordinator_node, survivors) = bpeers.split_last().expect("five b-peers");
    let proxy = rig.topology.proxy;
    let coordinator = 5;

    // Boot: all five agree on peer 5 (highest id wins the Bully round),
    // and every member has received a beacon (in the heartbeat star only
    // the coordinator beacons to the members), so the outage can be
    // backdated to a real heartbeat.
    let booted = rig.settle(&bpeers, SimDuration::from_secs(15), |p| {
        p.coordinator() == Some(coordinator)
            && p.iter()
                .all(|(_, s)| s.received.sent_of_kind("heartbeat") > 0)
    });
    assert!(booted, "boot election");

    // A request through the healthy cluster lands on the coordinator.
    let first = rig.submit(StudentRegistry::request("u1000"));
    assert!(rig
        .await_response(first, SimDuration::from_secs(10))
        .is_some());

    // Partition: the coordinator's process stays up, but every link to
    // the other b-peers and to the proxy is gated shut.
    for &s in survivors {
        rig.net.block_link(coordinator_node, s);
    }
    rig.net.block_link(coordinator_node, proxy);

    // The survivors stop hearing peer 5 and elect the next-highest id.
    let reelected = rig.settle(survivors, SimDuration::from_secs(20), |p| {
        p.coordinator() == Some(4)
    });
    assert!(reelected, "next-highest survivor wins");

    // Split brain: the isolated node still answers scope requests (its
    // link to the edge is untouched) and still believes it coordinates.
    let snaps = rig.poll(&[coordinator_node], SimDuration::from_secs(2));
    assert!(snaps.complete(), "the isolated node is alive, not dead");
    assert_eq!(
        snaps.coordinator(),
        Some(5),
        "the minority side keeps its stale view: {snaps:?}"
    );

    // A request submitted into the partition must re-bind to the live
    // side and complete — the proxy cannot reach peer 5 at all.
    let second = rig.submit(StudentRegistry::request("u1001"));
    assert!(
        rig.await_response(second, SimDuration::from_secs(30))
            .is_some(),
        "the proxy re-bound to a live b-peer"
    );

    // The ledger accounted the outage: one closed interval, detection no
    // earlier than the configured silence window, service now led by 4.
    let now = rig.net.now();
    let ledger = rig.ledger.clone().expect("the cluster wires a ledger");
    let report = ledger
        .service_report(1, now)
        .expect("service timeline exists");
    assert!(report.up, "service recovered on the majority side");
    assert_eq!(report.coordinator, Some(4));
    assert_eq!(report.failures, 1, "exactly one outage: {report:?}");
    let interval = report.downtime_intervals[0];
    assert!(interval.end.is_some(), "closed by the re-election");
    assert!(
        interval.detection_latency() >= tuning.failure_timeout,
        "detection before the failure timeout: {interval:?}"
    );
    assert!(report.availability < 1.0);

    // The isolated peer's own timeline is down from the survivors' view.
    let peer = ledger.peer_report(5, now).expect("peer timeline exists");
    assert!(!peer.up, "the partitioned peer reads as down: {peer:?}");

    // Heal the partition and bounce the stale node. Unblocking alone
    // leaves a stable split view — heartbeats carry liveness, not
    // coordinator claims — so the operator's move is a restart: the node
    // comes back with fresh election state and, having the highest id,
    // bullies its way back to coordinator over re-dialed sockets.
    for &s in survivors {
        rig.net.unblock_link(coordinator_node, s);
    }
    rig.net.unblock_link(coordinator_node, proxy);
    rig.net.kill_node(coordinator_node);
    rig.net.restart_node(coordinator_node);
    let healed = rig.settle(&bpeers, SimDuration::from_secs(20), |p| {
        p.coordinator() == Some(5)
    });
    assert!(healed, "highest id reclaims the group after the heal");

    rig.net.shutdown();
}

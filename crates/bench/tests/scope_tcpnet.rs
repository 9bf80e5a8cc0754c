//! End-to-end introspection over real sockets: a 5-peer TCP cluster is
//! booted, its coordinator assassinated, and the availability ledger's
//! online record is checked against the independently measured
//! re-election window — the acceptance test for the whisper-scope plane.

use std::time::Duration;

use whisper_bench::cluster::cluster_scenario;
use whisper_bench::ClusterTuning;
use whisper_simnet::SimDuration;

#[test]
fn coordinator_kill_is_ledgered_with_measured_mttr() {
    let tuning = ClusterTuning::default();
    let mut rig = cluster_scenario(5, tuning)
        .boot_tcp()
        .expect("loopback sockets");
    let bpeers = rig.topology.group_nodes[0].clone();
    let (&coordinator_node, survivors) = bpeers.split_last().expect("five b-peers");
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

    // Kill the coordinator and measure the re-election window ourselves:
    // kill → every survivor names the same new coordinator.
    let killed_at = rig.net.now();
    rig.net.kill_node(coordinator_node);
    let reelected = rig.settle(survivors, SimDuration::from_secs(20), |p| {
        p.coordinator().is_some_and(|c| c != coordinator)
    });
    assert!(reelected, "re-election");
    let measured_window = Duration::from_micros(rig.net.now().since(killed_at).as_micros());
    let again = rig.poll(survivors, SimDuration::from_secs(2));
    assert_eq!(again.coordinator(), Some(4), "next-highest survivor wins");

    // The dead node no longer answers scope requests; the others do.
    let mut all = bpeers.clone();
    all.push(rig.topology.proxy);
    let snaps = rig.poll(&all, SimDuration::from_secs(2));
    assert_eq!(snaps.len(), 5, "all nodes but the corpse answer");
    assert!(snaps.iter().all(|(n, _)| *n != coordinator_node));
    assert_eq!(snaps.coordinator(), None, "a silent target is no agreement");

    // What the ledger recorded, read at "now" on the substrate's clock
    // (tcpnet actors stamp SimTime from the same epoch).
    let now = rig.net.now();
    let ledger = rig.ledger.clone().expect("the cluster wires a ledger");
    let report = ledger
        .service_report(1, now)
        .expect("service timeline exists");
    assert!(report.up, "service recovered");
    assert_eq!(report.coordinator, Some(4));
    assert_eq!(report.failures, 1, "exactly one outage: {report:?}");
    assert_eq!(report.downtime_intervals.len(), 1);
    let interval = report.downtime_intervals[0];
    let mttr = interval.duration().expect("closed by the re-election");
    assert_eq!(report.mttr, Some(mttr));
    assert!(report.availability < 1.0);

    // The outage starts at the coordinator's last heartbeat; its closed
    // sockets told the survivors, and one beacon period of silence — not
    // the whole failure timeout — confirmed it.
    let detection = interval.detection_latency();
    assert!(
        detection >= tuning.heartbeat_period && detection < tuning.failure_timeout,
        "a crash is detected by its closed links, one beacon period later: {interval:?}"
    );

    // MTTR (last heartbeat → new coordinator) must match the measured
    // kill → agreement window. Backdating can stretch it by at most one
    // heartbeat period; our observation of the agreement lags by polling
    // jitter. Allow one period plus scheduling slack.
    let mttr = Duration::from_micros(mttr.as_micros());
    let hb_period = Duration::from_micros(tuning.heartbeat_period.as_micros());
    let tolerance = hb_period + Duration::from_millis(150);
    let diff = mttr.abs_diff(measured_window);
    assert!(
        diff <= tolerance,
        "ledger MTTR {mttr:?} vs measured window {measured_window:?} (diff {diff:?} > {tolerance:?})"
    );

    // The killed peer's own timeline went down and stayed down.
    let peer = ledger
        .peer_report(coordinator, now)
        .expect("peer timeline exists");
    assert!(!peer.up, "the corpse stays down: {peer:?}");

    rig.net.shutdown();
}

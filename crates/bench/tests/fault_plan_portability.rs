//! One outage schedule, two clocks: the coordinator is killed and
//! restarted twice against the same [`Deployment`] on the virtual-time
//! simulator and on OS threads, and the availability ledger must tell the
//! *same story* on both: the same ordered sequence of service outages,
//! the same hand-over count, the same per-peer failure tally. Timestamps
//! differ (one clock is virtual, one is the wall), so the comparison is
//! structural.
//!
//! The schedule is paced by the cluster, not by a clock: each kill and
//! restart waits until a scope poll of the b-peers and the ledger both
//! say the previous step has settled. A fixed horizon (this test used to
//! replay a timed [`FaultPlan`] and sleep through it) races the wall
//! clock on a loaded box — a re-election that takes a little longer than
//! the sleep allowed reads as a different story.
//!
//! [`Deployment`]: whisper::deploy::Deployment
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use whisper::{Booted, WhisperMsg};
use whisper_bench::experiments::substrate_matrix::{self, MatrixTuning};
use whisper_simnet::{NodeId, SimDuration, Substrate};

/// Far beyond any healthy election (sub-second with the matrix tuning);
/// only a cluster that never settles waits this long.
const SETTLE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Kills the Bully winner, lets the survivors elect, restarts it, lets it
/// bully its way back — twice, enough for ordering to matter — and
/// flattens what the ledger recorded into an ordered, timestamp-free
/// event trace.
fn outage_trace<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>) -> Vec<String> {
    let ledger = rig.ledger.clone().expect("ledger wired");
    let group = rig.topology.group_nodes[0].clone();
    let (&victim, survivors) = group.split_last().expect("the group has b-peers");
    let boss = rig.topology.peer_of(victim).value();
    let service = rig.topology.group_ids[0].value();

    // Settled: every polled b-peer names one coordinator, it is (or is
    // not) the victim, and the ledger has booked the same view.
    let settle = |rig: &mut Booted<N>, nodes: &[NodeId], boss_rules: bool| {
        let settled = rig.settle(nodes, SETTLE_TIMEOUT, |snaps| {
            let agreed = snaps.coordinator();
            agreed.is_some_and(|c| (c == boss) == boss_rules)
        });
        assert!(
            settled,
            "the b-peers never agreed (boss rules: {boss_rules})"
        );
        let booked = |now| {
            let service_ok = ledger
                .service_report(service, now)
                .is_some_and(|r| r.up && r.coordinator.is_some_and(|c| (c == boss) == boss_rules));
            let peer_ok = ledger
                .peer_report(boss, now)
                .is_some_and(|r| r.up == boss_rules);
            service_ok && peer_ok
        };
        let deadline = rig.net.now() + SETTLE_TIMEOUT;
        while !booked(rig.net.now()) {
            assert!(rig.net.now() < deadline, "the ledger never caught up");
            rig.net.advance(SimDuration::from_millis(20));
        }
    };

    settle(rig, &group, true);
    for _ in 0..2 {
        rig.net.kill_node(victim);
        settle(rig, survivors, false);
        rig.net.restart_node(victim);
        settle(rig, &group, true);
    }

    let now = rig.net.now();
    let mut trace = Vec::new();
    for service in ledger.services() {
        let r = ledger
            .service_report(service, now)
            .expect("listed service has a report");
        for (i, interval) in r.downtime_intervals.iter().enumerate() {
            trace.push(format!(
                "service {service} outage {i}: {}",
                if interval.end.is_some() {
                    "recovered"
                } else {
                    "open"
                }
            ));
        }
        trace.push(format!(
            "service {service}: up={} coordinator={:?} failures={} churn={}",
            r.up, r.coordinator, r.failures, r.churn
        ));
    }
    for peer in ledger.peers() {
        let r = ledger.peer_report(peer, now).expect("listed peer reports");
        if r.failures > 0 || !r.up {
            trace.push(format!("peer {peer}: up={} failures={}", r.up, r.failures));
        }
    }
    trace
}

#[test]
fn same_plan_same_outage_story_on_sim_and_threadnet() {
    let dep = substrate_matrix::deployment(&MatrixTuning::default());

    let mut sim = dep.boot_sim(5).expect("well-formed scenario");
    let sim_trace = outage_trace(&mut sim);

    let mut live = dep.boot_threadnet().expect("well-formed scenario");
    let live_trace = outage_trace(&mut live);
    live.net.shutdown();

    // Both clocks must report two closed outages, the victim back in
    // charge, and the victim as the only peer that ever failed.
    assert!(
        sim_trace.iter().any(|e| e.contains("outage 1: recovered")),
        "the simulator saw both outages: {sim_trace:?}"
    );
    assert_eq!(
        sim_trace, live_trace,
        "virtual time and OS threads disagree on the outage story"
    );
}

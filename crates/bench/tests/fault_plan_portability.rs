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

use whisper::deploy::Topology;
use whisper::WhisperMsg;
use whisper_bench::cluster::SubstrateProbe;
use whisper_bench::experiments::substrate_matrix::{self, MatrixTuning};
use whisper_bench::TcpCluster;
use whisper_obs::AvailabilityLedger;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{NodeId, SimDuration, SimNet, Substrate, SwitchedLan};

/// Far beyond any healthy election (sub-second with the matrix tuning);
/// only a cluster that never settles waits this long.
const SETTLE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Kills the Bully winner, lets the survivors elect, restarts it, lets it
/// bully its way back — twice, enough for ordering to matter — and
/// flattens what the ledger recorded into an ordered, timestamp-free
/// event trace.
fn outage_trace<N: Substrate<WhisperMsg>>(
    net: &mut N,
    topology: &Topology,
    ledger: &AvailabilityLedger,
    probe: &SubstrateProbe,
) -> Vec<String> {
    let group = &topology.group_nodes[0];
    let (&victim, survivors) = group.split_last().expect("the group has b-peers");
    let boss = topology.peer_of(victim).value();
    let service = topology.group_ids[0].value();

    // Settled: every polled b-peer names one coordinator, it is (or is
    // not) the victim, and the ledger has booked the same view.
    let settle = |net: &mut N, nodes: &[NodeId], boss_rules: bool| {
        let settled = probe.settle(net, nodes, SETTLE_TIMEOUT, |snaps| {
            let agreed = TcpCluster::agreed_coordinator(snaps);
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
        let deadline = net.now() + SETTLE_TIMEOUT;
        while !booked(net.now()) {
            assert!(net.now() < deadline, "the ledger never caught up");
            net.advance(SimDuration::from_millis(20));
        }
    };

    settle(net, group, true);
    for _ in 0..2 {
        net.kill_node(victim);
        settle(net, survivors, false);
        net.restart_node(victim);
        settle(net, group, true);
    }

    let now = net.now();
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

    let mut sim: SimNet<WhisperMsg> = SimNet::with_link(5, SwitchedLan::paper_testbed());
    let (topology, ledger) = dep.wire_onto(&mut sim).expect("well-formed scenario");
    let probe = SubstrateProbe::add_to(&mut sim);
    let ledger = ledger.expect("ledger wired");
    let sim_trace = outage_trace(&mut sim, &topology, &ledger, &probe);

    let mut builder = ThreadNetBuilder::new();
    let (topology, ledger) = dep.wire_onto(&mut builder).expect("well-formed scenario");
    let probe = SubstrateProbe::add_to(&mut builder);
    let ledger = ledger.expect("ledger wired");
    let mut live = builder.start();
    let live_trace = outage_trace(&mut live, &topology, &ledger, &probe);
    live.shutdown();

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

//! The facade's contract, asserted once on all three substrates: the same
//! generic body — boot, settle, submit, kill the coordinator, settle on
//! the survivors, submit, restart, settle, audit — runs in virtual time on
//! the simulator and on the wall on OS threads and TCP loopback, because
//! everything it waits on is paced by the substrate's own clock.

use whisper::{Booted, WhisperMsg};
use whisper_bench::cluster::{cluster_scenario, student_info};
use whisper_bench::ClusterTuning;
use whisper_simnet::{SimDuration, Substrate};
use whisper_soap::Envelope;

const TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Requests submitted before the kill.
const K: usize = 5;

fn contract<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>) {
    let substrate = rig.net.name();
    let group = rig.topology.group_nodes[0].clone();
    let (&victim, survivors) = group.split_last().expect("the group has b-peers");
    let boss = rig.topology.peer_of(victim).value();
    assert_eq!(
        rig.edge_node().index(),
        rig.topology.node_count,
        "{substrate}: the edge sits behind the scenario's nodes"
    );
    assert_eq!(rig.net.node_count(), rig.topology.node_count + 1);

    // boot → settle
    assert!(
        rig.settle(&group, TIMEOUT, |p| p.coordinator() == Some(boss)),
        "{substrate}: boot election"
    );

    // submit ×k
    let mut ids: Vec<u64> = (0..K)
        .map(|i| rig.submit(student_info(&format!("u100{i}"))))
        .collect();
    assert!(
        rig.await_answered(K as u64, TIMEOUT),
        "{substrate}: {K} answers"
    );

    // kill the coordinator → settle on the survivors; polling the whole
    // group meanwhile never reads as agreement, because one target is
    // silent.
    rig.net.kill_node(victim);
    let whole = rig.poll(&group, SimDuration::from_millis(200));
    assert!(!whole.complete(), "{substrate}: the corpse answered");
    assert_eq!(whole.coordinator(), None, "{substrate}: {whole:?}");
    assert!(
        rig.settle(survivors, TIMEOUT, |p| p
            .coordinator()
            .is_some_and(|c| c != boss)),
        "{substrate}: the survivors elect a successor"
    );
    assert!(
        !rig.settle(&group, SimDuration::from_millis(300), |_| true),
        "{substrate}: settle never accepts a poll with a silent target"
    );

    // submit through the successor
    ids.push(rig.submit(student_info("u1005")));
    assert!(
        rig.await_answered(K as u64 + 1, TIMEOUT),
        "{substrate}: the request after the kill is answered"
    );

    // restart → settle
    rig.net.restart_node(victim);
    assert!(
        rig.settle(&group, TIMEOUT, |p| p.coordinator() == Some(boss)),
        "{substrate}: the boss bullies its way back"
    );
    ids.push(rig.submit(student_info("u1006")));

    // every id answered exactly once, none a fault
    for id in &ids {
        let answer = rig
            .await_response(*id, TIMEOUT)
            .unwrap_or_else(|| panic!("{substrate}: request {id} lost"));
        assert_eq!(answer.copies, 1, "{substrate}: request {id}");
        let parsed = Envelope::parse(&answer.envelope).expect("well-formed envelope");
        assert!(!parsed.is_fault(), "{substrate}: {}", answer.envelope);
        assert_eq!(rig.response(*id), None, "{substrate}: handed over once");
    }
    assert_eq!(rig.answered(), ids.len() as u64);
}

#[test]
fn contract_holds_on_the_simulator() {
    let mut rig = cluster_scenario(3, ClusterTuning::default())
        .boot_sim(7)
        .expect("well-formed scenario");
    contract(&mut rig);
}

#[test]
fn contract_holds_on_threadnet() {
    let mut rig = cluster_scenario(3, ClusterTuning::default())
        .boot_threadnet()
        .expect("well-formed scenario");
    contract(&mut rig);
    rig.net.shutdown();
}

#[test]
fn contract_holds_on_tcp() {
    let mut rig = cluster_scenario(3, ClusterTuning::default())
        .boot_tcp()
        .expect("loopback sockets");
    contract(&mut rig);
    rig.net.shutdown();
}

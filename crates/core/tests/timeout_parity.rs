//! The failover scenarios of `tests/failover.rs` as recorded stories: the
//! proxy's counters and every client-visible outcome — send and completion
//! instants in virtual microseconds, fault and timeout flags.
//!
//! The stories were first recorded when the deadline queue replaced the
//! timer per attempt (it changed how the proxy and the client are woken
//! for a timeout, not when), and again when failover went by notification:
//! a request caught by a crash is now answered when the survivors'
//! detector fires (the successor does not wait for the dead peer's answer
//! and announces itself to the proxy) instead of one or two request
//! timeouts later, and `rebinds` counts bindings moved, not requests. A
//! third time when a crash came to be noticed by its closed links: the
//! detector fires one beacon period (500 ms here) after the kill instead
//! of `failure_timeout` and a sweep later, so a request caught by a crash
//! at 4.000 s is answered at 4.501 s, not 6.001 s; the stories without a
//! surviving peer to notice (whole group down, partition) moved by the
//! microseconds of the link-latency draws a crash now makes. What must
//! *not* have moved is the path taken when nobody announces: with the
//! announcement cut off, the story is the one recorded before failover
//! went by notification, to the millisecond
//! (`ANNOUNCEMENT_LOST_AT_PARENT`).
//!
//! All six were recorded again when the proxy's discovery gather came to
//! close once every queried peer had answered, instead of always waiting
//! out the 250 ms `gather_window`: the cold request `0` of each story is
//! answered 249.9–250.0 ms sooner (`3251721 → 3001791`, `0:2000-2252 →
//! 0:2000-2002`, …), and every other entry, counter and flag is the one
//! recorded before, byte for byte — the warm binding never gathers, so no
//! failover instant moved.
//!
//! Recorded again when the simulator harnesses came to run as a booted rig,
//! whose edge node sits idle behind the scenario. A crash tells every up
//! node that the dead one's links closed, one link-latency draw each, and
//! the edge is one more up node: one more draw from the simulator's RNG per
//! crash, so every instant after a crash moved by microseconds
//! (`4501064 → 4501068`, `12000494F → 12000510F`, …). The stories without a
//! crash (`partition_heals`, and everything before the first kill) did not
//! move, and each new value is the one the previous harness gives with one
//! idle node appended after its build.
//!
//! Recorded again when a lost link came to bury its peer at once instead of
//! after one silent beacon period: a transport reports a closed link only
//! once the peer's process let go of it. A request caught by a crash at
//! 4.000 s is now answered at 4.001 s, a link latency plus a few hops after
//! the kill, not 4.501 s (`4501068 → 4001022`; the cascade's three rounds
//! `4501210 / 24501159 / 44501174 → 4001047 / 24001074 / 44001163`; the
//! scripted outage's kills at 5 s and 15 s `5500984 / 15500948 → 5001073 /
//! 15001070`). The requests served between and after the kills moved by the
//! microseconds of the simulator's draws, which the earlier election now
//! consumes in another order. The story without a surviving peer to tell
//! (`whole_group_down`) did not move, and neither did the announcement-lost
//! story. In the same change a group query whose every peer answered
//! without an acceptable group came to fault at once instead of waiting out
//! the request timeout: `partition_heals`'s request 1, whose only group had
//! failed it, faults when the healed peers' answers are in (`12000461F →
//! 10000890F`), one request timeout sooner; nothing else in it moved.

use whisper::{
    BPeerConfig, Booted, ClientActor, GroupSpec, ProxyConfig, ScenarioWiring, ServiceBackend,
    StudentRegistry, SwsProxyActor, WhisperMsg,
};
use whisper_election::BullyConfig;
use whisper_simnet::{FaultPlan, SimDuration, SimNet, SimTime};

type Rig = Booted<SimNet<WhisperMsg>>;

/// The proxy's failover counters, then one `id:sent-completed` entry per
/// request (`F` = fault, `T` = client-side timeout, `-` = never completed).
fn story(rig: &Rig) -> String {
    let s = rig.net.node::<SwsProxyActor>(rig.topology.proxy).stats();
    let mut out = format!(
        "rebinds={} faults={} dup_responses={} |",
        s.rebinds, s.faults_generated, s.duplicate_responses
    );
    for o in rig
        .net
        .node::<ClientActor>(rig.topology.clients[0])
        .outcomes()
    {
        let done = o
            .completed_at
            .map_or("-".to_string(), |t| t.as_micros().to_string());
        let flags = format!(
            "{}{}",
            if o.fault { "F" } else { "" },
            if o.timed_out { "T" } else { "" }
        );
        out.push_str(&format!(
            " {}:{}-{}{}",
            o.id,
            o.sent_at.as_micros(),
            done,
            flags
        ));
    }
    out
}

fn secs(rig: &mut Rig, s: u64) {
    rig.net.run_for(SimDuration::from_secs(s));
}

fn coordinator_crash() -> String {
    let mut rig = ScenarioWiring::student(3)
        .boot_sim(200)
        .expect("well-formed");
    secs(&mut rig, 3);
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    secs(&mut rig, 1);
    rig.kill_coordinator(0).expect("had a coordinator");
    rig.submit_from(client, StudentRegistry::request("u1001"));
    secs(&mut rig, 15);
    story(&rig)
}

fn cascading_crashes() -> String {
    let mut rig = ScenarioWiring::student(4)
        .boot_sim(201)
        .expect("well-formed");
    secs(&mut rig, 3);
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    secs(&mut rig, 1);
    for round in 0..3 {
        rig.kill_coordinator(0).expect("coordinator exists");
        rig.submit_from(
            client,
            StudentRegistry::request(&format!("u100{}", round + 1)),
        );
        secs(&mut rig, 20);
    }
    story(&rig)
}

fn whole_group_down() -> String {
    let mut rig = ScenarioWiring::student(2)
        .boot_sim(204)
        .expect("well-formed");
    secs(&mut rig, 3);
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    secs(&mut rig, 1);
    let nodes: Vec<_> = rig.topology.group_nodes[0].to_vec();
    for &n in &nodes {
        rig.net.kill_node(n);
    }
    rig.submit_from(client, StudentRegistry::request("u1001"));
    secs(&mut rig, 40);
    for &n in &nodes {
        rig.net.restart_node(n);
    }
    secs(&mut rig, 5);
    rig.submit_from(client, StudentRegistry::request("u1002"));
    secs(&mut rig, 10);
    story(&rig)
}

fn scripted_outage() -> String {
    let mut rig = ScenarioWiring::student(3)
        .boot_sim(205)
        .expect("well-formed");
    let coordinator_node = *rig.topology.group_nodes[0].last().expect("non-empty");
    let mut plan = FaultPlan::new();
    plan.crash_at(coordinator_node, SimTime::from_micros(5_000_000));
    plan.restart_at(coordinator_node, SimTime::from_micros(9_000_000));
    plan.crash_at(coordinator_node, SimTime::from_micros(15_000_000));
    plan.restart_at(coordinator_node, SimTime::from_micros(19_000_000));
    rig.net.apply_faults(&plan);
    secs(&mut rig, 3);
    let client = rig.topology.clients[0];
    for i in 0..22 {
        rig.submit_from(client, StudentRegistry::request(&format!("u100{}", i % 10)));
        secs(&mut rig, 1);
    }
    secs(&mut rig, 20);
    story(&rig)
}

fn partition_heals() -> String {
    let mut rig = ScenarioWiring::student(2)
        .boot_sim(206)
        .expect("well-formed");
    secs(&mut rig, 3);
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    secs(&mut rig, 1);
    let proxy = rig.topology.proxy;
    let peers: Vec<_> = rig.topology.group_nodes[0].to_vec();
    let now = rig.net.now();
    let mut plan = FaultPlan::new();
    plan.partition_between(&[proxy], &peers, now, now + SimDuration::from_secs(5));
    rig.net.apply_faults(&plan);
    rig.submit_from(client, StudentRegistry::request("u1001"));
    secs(&mut rig, 40);
    rig.submit_from(client, StudentRegistry::request("u1002"));
    secs(&mut rig, 10);
    story(&rig)
}

/// The benchmark's timers (50 ms beacons, 250 ms failure timeout, 200 ms
/// answer wait, 1 s request timeout) with the successor cut off from the
/// proxy while it announces itself: two requests caught by the crash, one
/// after it. Faults, dropped duplicates, then `id:sent-completed` in
/// virtual milliseconds.
fn announcement_lost() -> String {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backends: Vec<Box<dyn ServiceBackend>> = (0..3)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let mut rig = ScenarioWiring {
        groups: vec![GroupSpec::from_operation("StudentInfoGroup", op, backends)],
        bpeer: BPeerConfig {
            heartbeat_period: SimDuration::from_millis(50),
            failure_timeout: SimDuration::from_millis(250),
            bully: BullyConfig {
                answer_timeout: SimDuration::from_millis(200),
                coordinator_timeout: SimDuration::from_millis(400),
                cooldown: SimDuration::from_millis(200),
            },
            ..BPeerConfig::default()
        },
        proxy: ProxyConfig {
            request_timeout: SimDuration::from_millis(1000),
            ..ProxyConfig::default()
        },
        ..ScenarioWiring::student(1)
    }
    .boot_sim(207)
    .expect("well-formed");
    secs(&mut rig, 2);
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    secs(&mut rig, 1);

    let survivors = rig.topology.group_nodes[0][..2].to_vec();
    let now = rig.net.now();
    let mut plan = FaultPlan::new();
    plan.partition_between(
        &[rig.topology.proxy],
        &survivors,
        now,
        now + SimDuration::from_millis(600),
    );
    rig.net.apply_faults(&plan);
    rig.kill_coordinator(0).expect("had a coordinator");
    rig.submit_from(client, StudentRegistry::request("u1001"));
    rig.net.run_for(SimDuration::from_millis(200));
    rig.submit_from(client, StudentRegistry::request("u1002"));
    rig.net.run_for(SimDuration::from_millis(1800));
    rig.submit_from(client, StudentRegistry::request("u1003"));
    secs(&mut rig, 2);

    let s = rig.net.node::<SwsProxyActor>(rig.topology.proxy).stats();
    let mut out = format!(
        "faults={} dup_responses={} |",
        s.faults_generated, s.duplicate_responses
    );
    for o in rig.net.node::<ClientActor>(client).outcomes() {
        let done = o.completed_at.expect("answered").as_micros() / 1000;
        out.push_str(&format!(
            " {}:{}-{done}",
            o.id,
            o.sent_at.as_micros() / 1000
        ));
    }
    out
}

#[test]
fn failover_stories_equal_the_timer_per_attempt_ones() {
    let stories = [
        coordinator_crash(),
        cascading_crashes(),
        whole_group_down(),
        scripted_outage(),
        partition_heals(),
    ];
    assert_eq!(stories, RECORDED);
}

#[test]
fn without_the_announcement_the_story_is_the_parents() {
    assert_eq!(announcement_lost(), ANNOUNCEMENT_LOST_AT_PARENT);
}

const ANNOUNCEMENT_LOST_AT_PARENT: &str =
    "faults=0 dup_responses=0 | 0:2000-2002 1:3000-4000 2:3200-4200 3:5000-5000";

const RECORDED: [&str; 5] = [
    "rebinds=1 faults=0 dup_responses=0 | 0:3000000-3001791 1:4000000-4001022",
    "rebinds=3 faults=0 dup_responses=0 | 0:3000000-3002041 1:4000000-4001047 \
     2:24000000-24001074 3:44000000-44001163",
    "rebinds=2 faults=1 dup_responses=0 | 0:3000000-3001687 1:4000000-12000510F \
     2:49000000-49000829",
    "rebinds=4 faults=0 dup_responses=0 | 0:3000000-3002138 1:4000000-4000925 \
     2:5000000-5001073 3:6000000-6000891 4:7000000-7000895 5:8000000-8000805 \
     6:9000000-9001251 7:10000000-10000843 8:11000000-11000799 9:12000000-12000919 \
     10:13000000-13000853 11:14000000-14000839 12:15000000-15001070 \
     13:16000000-16000847 14:17000000-17000909 15:18000000-18000926 \
     16:19000000-19000822 17:20000000-20000926 18:21000000-21000789 \
     19:22000000-22000843 20:23000000-23000730 21:24000000-24000822",
    "rebinds=2 faults=1 dup_responses=0 | 0:3000000-3001588 1:4000000-10000890F \
     2:44000000-44000924",
];

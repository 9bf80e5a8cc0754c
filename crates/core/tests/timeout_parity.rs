//! The deadline queue changed how the proxy and the client are woken for
//! a timeout, not when: on the failover scenarios of `tests/failover.rs`
//! the proxy's counters and every client-visible outcome — send and
//! completion instants in virtual microseconds, fault and timeout flags —
//! are the ones the timer-per-attempt code produced (recorded from the
//! parent commit with this same file).

use whisper::WhisperNet;
use whisper_simnet::{FaultPlan, SimDuration, SimTime};

/// The proxy's failover counters, then one `id:sent-completed` entry per
/// request (`F` = fault, `T` = client-side timeout, `-` = never completed).
fn story(net: &WhisperNet) -> String {
    let s = net.proxy_stats();
    let mut out = format!(
        "rebinds={} faults={} dup_responses={} |",
        s.rebinds, s.faults_generated, s.duplicate_responses
    );
    for o in net.client_outcomes(net.client_ids()[0]) {
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

fn secs(net: &mut WhisperNet, s: u64) {
    net.run_for(SimDuration::from_secs(s));
}

fn coordinator_crash() -> String {
    let mut net = WhisperNet::student_scenario(3, 200);
    secs(&mut net, 3);
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    secs(&mut net, 1);
    net.kill_coordinator(0).expect("had a coordinator");
    net.submit_student_request(client, "u1001");
    secs(&mut net, 15);
    story(&net)
}

fn cascading_crashes() -> String {
    let mut net = WhisperNet::student_scenario(4, 201);
    secs(&mut net, 3);
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    secs(&mut net, 1);
    for round in 0..3 {
        net.kill_coordinator(0).expect("coordinator exists");
        net.submit_student_request(client, &format!("u100{}", round + 1));
        secs(&mut net, 20);
    }
    story(&net)
}

fn whole_group_down() -> String {
    let mut net = WhisperNet::student_scenario(2, 204);
    secs(&mut net, 3);
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    secs(&mut net, 1);
    let nodes: Vec<_> = net.group_nodes(0).to_vec();
    for &n in &nodes {
        net.kill_node(n);
    }
    net.submit_student_request(client, "u1001");
    secs(&mut net, 40);
    for &n in &nodes {
        net.restart_node(n);
    }
    secs(&mut net, 5);
    net.submit_student_request(client, "u1002");
    secs(&mut net, 10);
    story(&net)
}

fn scripted_outage() -> String {
    let mut net = WhisperNet::student_scenario(3, 205);
    let coordinator_node = *net.group_nodes(0).last().expect("non-empty");
    let mut plan = FaultPlan::new();
    plan.crash_at(coordinator_node, SimTime::from_micros(5_000_000));
    plan.restart_at(coordinator_node, SimTime::from_micros(9_000_000));
    plan.crash_at(coordinator_node, SimTime::from_micros(15_000_000));
    plan.restart_at(coordinator_node, SimTime::from_micros(19_000_000));
    net.apply_faults(&plan);
    secs(&mut net, 3);
    let client = net.client_ids()[0];
    for i in 0..22 {
        net.submit_student_request(client, &format!("u100{}", i % 10));
        secs(&mut net, 1);
    }
    secs(&mut net, 20);
    story(&net)
}

fn partition_heals() -> String {
    let mut net = WhisperNet::student_scenario(2, 206);
    secs(&mut net, 3);
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    secs(&mut net, 1);
    let proxy = net.proxy_node();
    let peers: Vec<_> = net.group_nodes(0).to_vec();
    let now = net.now();
    let mut plan = FaultPlan::new();
    plan.partition_between(&[proxy], &peers, now, now + SimDuration::from_secs(5));
    net.apply_faults(&plan);
    net.submit_student_request(client, "u1001");
    secs(&mut net, 40);
    net.submit_student_request(client, "u1002");
    secs(&mut net, 10);
    story(&net)
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
    assert_eq!(stories, PARENT);
}

const PARENT: [&str; 5] = [
    "rebinds=2 faults=0 dup_responses=0 | 0:3000000-3251721 1:4000000-8001650",
    "rebinds=7 faults=0 dup_responses=0 | 0:3000000-3252007 1:4000000-8001709 \
     2:24000000-28000858 3:44000000-50000837",
    "rebinds=2 faults=1 dup_responses=0 | 0:3000000-3251639 1:4000000-12000533F \
     2:49000000-49000961",
    "rebinds=9 faults=0 dup_responses=0 | 0:3000000-3252112 1:4000000-4000925 \
     2:5000000-9001783 3:6000000-8000832 4:7000000-9001248 5:8000000-10001202 \
     6:9000000-9001203 7:10000000-10001340 8:11000000-11000843 9:12000000-12000818 \
     10:13000000-13000965 11:14000000-14000909 12:15000000-19001682 \
     13:16000000-18000937 14:17000000-19001240 15:18000000-18000892 \
     16:19000000-19001337 17:20000000-20000788 18:21000000-21000857 \
     19:22000000-22000793 20:23000000-23000742 21:24000000-24000929",
    "rebinds=2 faults=1 dup_responses=0 | 0:3000000-3251558 1:4000000-12000461F \
     2:44000000-44000924",
];

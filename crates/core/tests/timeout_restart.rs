//! A crash clears a node's timers but not the actor's state, so the proxy
//! and the client re-arm in `on_restart` what their surviving state still
//! counts on. Without that, a request pending at the crash never times
//! out: its bookkeeping leaks and a client's retry rides the dead
//! pipeline forever.

use whisper::{
    ClientConfigTemplate, DeploymentConfig, GroupSpec, ProxyBacklog, ProxyConfig, ServiceBackend,
    StudentRegistry, WhisperNet, Workload,
};
use whisper_simnet::SimDuration;
use whisper_xml::Element;

#[test]
fn request_pending_at_a_proxy_crash_is_rebound_after_the_restart() {
    let mut net = WhisperNet::student_scenario(3, 41);
    net.enable_pulse(SimDuration::from_millis(100));
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    let proxy = net.proxy_node();
    net.submit_student_request(client, "u1000"); // warms the binding
    net.run_for(SimDuration::from_secs(1));

    // Crash the proxy with the second request forwarded and unanswered:
    // the coordinator's answer reaches a dead node and is lost.
    net.submit_student_request(client, "u1001");
    while net.proxy().backlog().pending == 0 {
        assert!(net.sim().step(), "the request never reached the proxy");
    }
    let held = net.proxy().backlog();
    assert!(
        held.inflight_clients == 1 && held.deadlines >= 1,
        "{held:?}"
    );
    net.kill_node(proxy);
    net.run_for(SimDuration::from_millis(100));
    assert_eq!(net.client_stats(client).completed, 1, "the answer was lost");

    net.restart_node(proxy);
    let restarted_at = net.now();
    let timeout = ProxyConfig::default().request_timeout;
    net.run_for(timeout);
    let s = net.client_stats(client);
    assert_eq!(
        (s.completed, s.faults),
        (2, 0),
        "re-bound and answered: {s:?}"
    );
    let answered_at = net.client_outcomes(client)[1]
        .completed_at
        .expect("completed");
    assert!(
        answered_at.since(restarted_at) < timeout,
        "within one request_timeout of the restart"
    );
    assert_eq!(net.proxy_stats().rebinds, 1);
    // the pulse interval is running again
    assert!(net
        .sim()
        .pending_timers(proxy)
        .iter()
        .any(|t| t & 0b11 == 0));

    net.run_for(timeout);
    assert_eq!(net.proxy().backlog(), ProxyBacklog::default());
}

#[test]
fn request_pending_at_a_client_crash_still_times_out() {
    let service = whisper_wsdl::samples::student_management();
    let op = service.operation("StudentInformation").expect("sample op");
    let backend: Box<dyn ServiceBackend> =
        Box::new(StudentRegistry::operational_db().with_sample_data());
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    let timeout = SimDuration::from_secs(5);
    let mut net = WhisperNet::build(DeploymentConfig {
        seed: 42,
        groups: vec![GroupSpec::from_operation("Group", op, vec![backend])],
        clients: vec![ClientConfigTemplate {
            workload: Workload::Closed {
                think: SimDuration::ZERO,
                window: 1,
            },
            payloads: vec![payload],
            total: Some(2),
            timeout,
            warmup: SimDuration::from_secs(2),
        }],
        ..DeploymentConfig::default()
    })
    .expect("well-formed");
    let client = net.client_ids()[0];
    net.kill_node(net.proxy_node()); // nobody will answer

    // the first request leaves at 2 s; the client is down from 3 s to 4 s
    net.run_for(SimDuration::from_secs(3));
    assert_eq!(net.client_stats(client).sent, 1);
    net.kill_node(client);
    net.run_for(SimDuration::from_secs(1));
    net.restart_node(client);
    net.run_for(SimDuration::from_secs(4));

    let outcomes = net.client_outcomes(client);
    assert!(outcomes[0].timed_out, "{:?}", outcomes[0]);
    // at its own deadline, which also kept the closed loop alive
    assert_eq!(outcomes[1].sent_at, outcomes[0].sent_at + timeout);
}

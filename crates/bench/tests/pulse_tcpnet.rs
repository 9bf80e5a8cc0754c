//! Acceptance test for the whisper-pulse telemetry plane over real TCP
//! sockets: a cluster serves a hundred-plus sub-millisecond requests and
//! a handful of deliberately slow ones (a 40 ms transcript replica), and
//! the pulse plane must (a) tail-capture a slow request's span tree,
//! (b) report a windowed p99 at the injected latency while p50 stays
//! fast, (c) stay within its configured memory budget, and (d) serve the
//! matching series over the Prometheus-style exposition endpoint.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use whisper_bench::cluster::{pulse_scenario, student_info, transcript};
use whisper_bench::{exporter, ClusterTuning, PulseTuning};
use whisper_simnet::SimDuration;
use whisper_soap::Envelope;

const FAST_REQUESTS: usize = 120;
const SLOW_REQUESTS: usize = 3;
const SLOW_US: u64 = 40_000;

/// Polls until `cond` yields `Some`, or panics at the deadline.
fn wait_for<T>(what: &str, deadline: Duration, mut cond: impl FnMut() -> Option<T>) -> T {
    let end = Instant::now() + deadline;
    loop {
        if let Some(v) = cond() {
            return v;
        }
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One HTTP GET against the exposition endpoint.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to exporter");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
}

/// The numeric value of the first exposition line starting with `prefix`.
fn series_value(body: &str, prefix: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("series {prefix:?} missing from:\n{body}"))
        .trim()
        .parse()
        .expect("numeric sample")
}

#[test]
fn slow_request_is_tail_captured_and_exposed() {
    let pulse = PulseTuning {
        interval: SimDuration::from_millis(100),
        slow_processing: SimDuration::from_micros(SLOW_US),
        ..PulseTuning::default()
    };
    let mut rig = pulse_scenario(3, ClusterTuning::default(), pulse)
        .boot_tcp()
        .expect("loopback sockets");
    let answer_within = SimDuration::from_secs(10);

    // Boot: the fast group elects before traffic starts.
    assert!(
        rig.await_election(0, SimDuration::from_secs(15)),
        "boot election"
    );

    // Warm phase: enough fast requests that the tail sampler's p99
    // threshold is trusted (and frozen well below the injected latency).
    // Closed-loop pacing — await each response — so fast requests measure
    // service time, not the queueing of a single burst.
    for i in 0..FAST_REQUESTS {
        let id = rig.submit(student_info(&format!("u100{}", i % 8)));
        let answer = rig.await_response(id, answer_within);
        assert!(answer.is_some(), "fast request {i} answered");
    }

    // The injected tail: requests served by the 40 ms transcript replica.
    for i in 0..SLOW_REQUESTS {
        let id = rig.submit(transcript("u1004"));
        let answer = rig
            .await_response(id, answer_within)
            .unwrap_or_else(|| panic!("slow request {i} answered"));
        let parsed = Envelope::parse(&answer.envelope).expect("well-formed envelope");
        assert!(
            !parsed.is_fault(),
            "transcript served, not faulted: {}",
            answer.envelope
        );
    }

    // (a) The tail sampler captured a slow request's span tree and the
    // collector holds it. Captures ride pulse frames, so allow a few
    // intervals for the flush — and keep the workload warm while
    // waiting: the sampler's threshold freezes per window, so on a
    // heavily loaded machine the original burst may land in windows too
    // sparse to warm it. Trickling fast requests plus a transcript each
    // round guarantees a warm window eventually coincides with a tail.
    let store = rig.pulse_store.clone().expect("the pulse plane is wired");
    let trace = wait_for("captured transcript trace", Duration::from_secs(30), || {
        {
            let guard = store.lock().unwrap_or_else(|e| e.into_inner());
            let found = guard
                .outliers()
                .find(|t| t.label == "StudentTranscript")
                .cloned();
            if found.is_some() {
                return found;
            }
        }
        for i in 0..8 {
            let id = rig.submit(student_info(&format!("u100{i}")));
            rig.await_response(id, answer_within);
        }
        let id = rig.submit(transcript("u1004"));
        rig.await_response(id, answer_within);
        None
    });
    assert!(
        trace.total_us >= SLOW_US,
        "captured latency covers the injected service time: {trace:?}"
    );
    let root = trace
        .spans
        .iter()
        .find(|s| s.parent.is_none())
        .expect("trace has a root span");
    assert_eq!(root.name, "proxy.request", "{trace:?}");
    for span in &trace.spans {
        if let Some(parent) = span.parent {
            assert!(
                trace.spans.iter().any(|s| s.id == parent),
                "parent {parent} resolves within the trace: {trace:?}"
            );
        }
        assert!(span.end_us >= span.start_us, "{span:?}");
    }

    let guard = store.lock().unwrap_or_else(|e| e.into_inner());
    // (b) Windowed quantiles: p99 at the injected latency, p50 fast.
    // The log-bucketed histogram answers interior ranks with the bucket
    // midpoint (within 1.6%), so compare against a small margin.
    let agg = guard.aggregate(usize::MAX);
    let p99 = agg
        .quantile_us("proxy.rtt", 99.0)
        .expect("proxy.rtt series exists");
    let p50 = agg
        .quantile_us("proxy.rtt", 50.0)
        .expect("proxy.rtt series exists");
    assert!(
        p99 >= SLOW_US * 95 / 100,
        "p99 {p99}us sees the {SLOW_US}us injected tail"
    );
    assert!(p50 < SLOW_US / 2, "p50 {p50}us stays fast");

    // Every node reported: 3 fast peers, the transcript peer, the proxy.
    assert_eq!(guard.nodes(), vec![0, 1, 2, 3, 4], "all emitters reported");
    // (c) The pulse plane honours its byte budget.
    assert!(
        guard.approx_bytes() <= guard.max_bytes(),
        "{} bytes held exceeds the {} budget",
        guard.approx_bytes(),
        guard.max_bytes()
    );
    drop(guard);

    // (d) The exposition endpoint serves matching series. The newest
    // requests ride the *next* pulse frame, so poll until the exposed
    // total covers the original workload.
    let exporter = exporter::serve(store, "127.0.0.1:0", usize::MAX).expect("bind exporter");
    let body = wait_for(
        "exposed request total to cover the workload",
        Duration::from_secs(10),
        || {
            let body = scrape(exporter.addr());
            assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
            let requests = series_value(&body, "whisper_request_total ");
            (requests >= (FAST_REQUESTS + SLOW_REQUESTS) as u64).then_some(body)
        },
    );
    let exposed_p99 = series_value(
        &body,
        "whisper_latency_us{series=\"proxy.rtt\",quantile=\"0.99\"} ",
    );
    assert!(
        exposed_p99 >= SLOW_US * 95 / 100,
        "exposed p99 {exposed_p99}us sees the injected tail"
    );
    series_value(
        &body,
        "whisper_latency_us{series=\"proxy.rtt\",quantile=\"0.5\"} ",
    );
    series_value(&body, "whisper_pulse_frames_ingested_total ");
    exporter.stop();
    rig.net.shutdown();
}

//! **RTT analysis** (paper §5): "the average latency is approximately
//! 0.5 milliseconds. Nevertheless, in the worst case the RTT can take
//! several seconds. … On the one hand, in case of coordinator failure, the
//! time needed to elect a new coordinator is considerably high. On the
//! other hand, the time to make a new binding between the SWS-proxy and
//! the elected b-peer is also high."
//!
//! Three measurements reproduce that paragraph:
//!
//! 1. **network RTT** — a raw two-node ping over the calibrated LAN model
//!    (what the paper's monitor timestamps): expected ≈ 0.5 ms;
//! 2. **steady-state service RTT** — client → proxy → coordinator → back
//!    (four network hops plus processing);
//! 3. **failover breakdown** — crash the coordinator mid-stream and split
//!    the stalled request's latency into *detect+elect* (failure detection
//!    plus Bully run) and *re-bind* components. In the paper's design the
//!    Bully run waits out an answer timeout and the re-bind a proxy
//!    request timeout (member re-discovery, retry); here the successor
//!    skips the wait for the peer it has just buried and tells the proxy,
//!    so both legs after detection are one hop (EXPERIMENTS.md E2 keeps
//!    the old rows beside the new ones).

use crate::Table;
use whisper::{
    ClientConfigTemplate, DeploymentConfig, GroupSpec, ServiceBackend, StudentRegistry, WhisperNet,
    Workload,
};
use whisper_simnet::{Actor, Context, Histogram, NodeId, SimDuration, SimNet, SimTime, Wire};
use whisper_xml::Element;

/// Raw ping message for the network-RTT measurement.
#[derive(Debug, Clone)]
struct Ping {
    sent_at: SimTime,
    /// Pad to a typical SOAP request size.
    size: usize,
    reply: bool,
}

impl Wire for Ping {
    fn wire_size(&self) -> usize {
        self.size
    }
    fn kind(&self) -> &'static str {
        "ping"
    }
}

struct Responder;
impl Actor<Ping> for Responder {
    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
        if !msg.reply {
            ctx.send(from, Ping { reply: true, ..msg });
        }
    }
}

struct Prober {
    target: NodeId,
    remaining: usize,
    size: usize,
    rtts: Histogram,
}

impl Actor<Ping> for Prober {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.send(
            self.target,
            Ping {
                sent_at: ctx.now(),
                size: self.size,
                reply: false,
            },
        );
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: Ping) {
        if msg.reply {
            self.rtts.record(ctx.now().since(msg.sent_at));
            self.remaining -= 1;
            if self.remaining > 0 {
                // small gap between probes
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _token: u64) {
        ctx.send(
            self.target,
            Ping {
                sent_at: ctx.now(),
                size: self.size,
                reply: false,
            },
        );
    }
}

/// Measures the raw two-node RTT over the paper-calibrated LAN for
/// `probes` messages of `size` bytes.
pub fn network_rtt(probes: usize, size: usize, seed: u64) -> Histogram {
    let mut net: SimNet<Ping> = SimNet::new(seed);
    let responder = net.add_node(Responder);
    let prober = net.add_node(Prober {
        target: responder,
        remaining: probes,
        size,
        rtts: Histogram::new(),
    });
    net.run_until_quiescent();
    net.node::<Prober>(prober).rtts.clone()
}

/// The service-level RTT distribution of a closed-loop client.
pub fn service_rtt(requests: u64, bpeers: usize, seed: u64) -> Histogram {
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample op")
        .clone();
    let backends: Vec<Box<dyn ServiceBackend>> = (0..bpeers)
        .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
        .collect();
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1004"));
    let cfg = DeploymentConfig {
        seed,
        service,
        groups: vec![GroupSpec::from_operation("StudentInfoGroup", &op, backends)],
        clients: vec![ClientConfigTemplate {
            workload: Workload::Closed {
                think: SimDuration::from_millis(20),
                window: 1,
            },
            payloads: vec![payload],
            total: Some(requests),
            timeout: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(2),
        }],
        ..DeploymentConfig::default()
    };
    let mut net = WhisperNet::build(cfg).expect("valid deployment");
    net.run_for(SimDuration::from_secs(2) + SimDuration::from_millis(25 * requests + 5_000));
    let client = net.client_ids()[0];
    net.client_stats(client).rtt
}

/// The latency anatomy of one coordinator failure.
#[derive(Debug, Clone, Copy)]
pub struct FailoverBreakdown {
    /// Crash → all surviving members agree on a new coordinator
    /// (failure detection + Bully election).
    pub detect_and_elect: SimDuration,
    /// Agreement → the stalled request completes (the successor's
    /// announcement re-binds the proxy; without it: proxy timeout,
    /// re-discovery of members, retry).
    pub rebind: SimDuration,
    /// Crash → response at the client (the paper's worst-case RTT).
    pub total: SimDuration,
}

/// Crashes the coordinator with a request in flight and measures the
/// recovery timeline.
pub fn failover_breakdown(bpeers: usize, seed: u64) -> FailoverBreakdown {
    failover_traced(bpeers, seed).0
}

/// [`failover_breakdown`] with a [`whisper_obs::Recorder`] attached, so the
/// recovery timeline can also be read as a span tree (election spans, the
/// proxy's re-discovery, the retried invoke).
pub fn failover_traced(bpeers: usize, seed: u64) -> (FailoverBreakdown, whisper_obs::Recorder) {
    let mut net = WhisperNet::student_scenario(bpeers, seed);
    let rec = net.enable_obs();
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];

    // Prime the proxy's caches and binding.
    net.submit_student_request(client, "u1000");
    net.run_for(SimDuration::from_secs(1));

    let crash_at = net.now();
    net.kill_coordinator(0).expect("coordinator exists");
    // The stalled request: issued right after the crash, while every group
    // member still believes in the dead coordinator.
    net.submit_student_request(client, "u1001");

    // Step until the survivors agree on a new coordinator.
    let elected_at = loop {
        net.run_for(SimDuration::from_millis(10));
        let agreed = net
            .group_nodes(0)
            .iter()
            .filter(|&&n| net.is_up(n))
            .all(|&n| {
                net.bpeer(n)
                    .coordinator()
                    .is_some_and(|c| net.directory().node_of(c).is_some_and(|cn| net.is_up(cn)))
            });
        if agreed {
            break net.now();
        }
        assert!(
            net.now().since(crash_at) < SimDuration::from_secs(60),
            "election never converged"
        );
    };

    // Step until the client got its answer.
    let answered_at = loop {
        net.run_for(SimDuration::from_millis(10));
        if net.client_stats(client).completed == 2 {
            break net.now();
        }
        assert!(
            net.now().since(crash_at) < SimDuration::from_secs(60),
            "failover request never completed"
        );
    };

    (
        FailoverBreakdown {
            detect_and_elect: elected_at.since(crash_at),
            rebind: answered_at.since(elected_at),
            total: answered_at.since(crash_at),
        },
        rec,
    )
}

/// Renders the full RTT analysis.
pub fn table(probes: usize, requests: u64, bpeers: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "rtt_analysis",
        &[
            "measurement",
            "min ms",
            "mean ms",
            "p95 ms",
            "p99 ms",
            "max ms",
        ],
    );
    let mut push_hist = |name: &str, h: Histogram| {
        t.row([
            name.to_string(),
            crate::table::ms_opt(h.min()),
            crate::table::ms_opt(h.mean()),
            crate::table::ms_opt(h.percentile(95.0)),
            crate::table::ms_opt(h.percentile(99.0)),
            crate::table::ms_opt(h.max()),
        ]);
    };
    push_hist("network ping (1 KiB)", network_rtt(probes, 1024, seed));
    push_hist(
        "service request (steady)",
        service_rtt(requests, bpeers, seed),
    );

    let f = failover_breakdown(bpeers, seed);
    let ms = crate::table::ms;
    t.row([
        "failover: detect+elect".to_string(),
        "-".into(),
        ms(f.detect_and_elect),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row([
        "failover: re-bind".to_string(),
        "-".into(),
        ms(f.rebind),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row([
        "failover: total worst-case RTT".to_string(),
        "-".into(),
        ms(f.total),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_rtt_matches_paper_half_millisecond() {
        let h = network_rtt(100, 1024, 7);
        assert_eq!(h.count(), 100);
        let mean = h.mean().expect("samples").as_millis_f64();
        assert!(
            (0.3..=0.8).contains(&mean),
            "mean network RTT {mean} ms outside the paper's ≈0.5 ms band"
        );
        assert!(h.percentile(99.0).expect("samples").as_millis_f64() < 1.0);
    }

    #[test]
    fn steady_service_rtt_is_low_single_digit_ms() {
        let h = service_rtt(30, 3, 5);
        assert_eq!(h.count(), 30);
        // The first (cold) request pays discovery (the gather closes once
        // every b-peer has answered) and the member lookup; the steady
        // state is the median.
        let p50 = h.percentile(50.0).expect("samples").as_millis_f64();
        assert!((0.5..5.0).contains(&p50), "service RTT median {p50} ms");
        // no multi-second outliers in steady state
        assert!(h.percentile(100.0).expect("samples").as_secs_f64() < 1.0);
    }

    /// The paper's worst case was seconds: failure timeout, answer wait,
    /// request timeout. None of the three is waited for after a crash any
    /// more — its closed links are confirmed by one silent beacon period
    /// (500 ms with these paper-era timers) and the successor tells the
    /// proxy.
    #[test]
    fn crash_failover_takes_one_beacon_period_not_the_papers_seconds() {
        let f = failover_breakdown(3, 11);
        let beacon = whisper::BPeerConfig::default().heartbeat_period;
        assert!(
            f.total >= beacon && f.total < beacon + SimDuration::from_millis(100),
            "worst-case RTT {} should be one beacon period",
            f.total
        );
        // both components the paper blames are still there to be measured
        assert!(f.detect_and_elect >= beacon);
        assert!(f.rebind.as_millis_f64() > 0.0);
    }
}

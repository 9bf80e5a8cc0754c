//! `whisper-top` — top(1) for a live Whisper cluster.
//!
//! Boots a b-peer group + SWS-proxy on real TCP loopback sockets, then
//! introspects it **in-band**: every refresh sends a
//! [`whisper::WhisperMsg::ScopeRequest`] to each node over the same
//! sockets the protocol uses and renders the [`NodeSnapshot`]s that come
//! back — role, coordinator, election phase, per-peer heartbeat ages,
//! queue depth and message counters — plus the availability ledger's
//! per-service summary.
//!
//! ```text
//! whisper-top [--peers N] [--interval MS] [--frames N] [--once] [--live]
//! ```
//!
//! `--once` prints a single frame and exits by health (the CI smoke
//! check): `0` when every node answered, all b-peers agree on a
//! coordinator and the ledger shows every service up; `3` when the
//! cluster is *up but degraded* — all nodes still answering but the
//! b-peers disagree on the coordinator, the ledger carries an open
//! outage, or the SLO engine is burning (an alert firing or an error
//! budget exhausted); `1` when nodes are missing or requests went
//! unanswered (down); `2` on usage errors.
//!
//! Every frame ends with an `ALERTS` pane: per-objective burn rates over
//! the fast/slow windows, the error budget left, and whether the
//! multi-window burn-rate alert is firing (see `whisper_obs::slo`).
//! `--live` boots the pulse telemetry plane alongside the cluster (plus
//! a deliberately slow transcript replica), drives one request per
//! refresh, and adds a telemetry panel under each frame: request-rate
//! and p99 sparklines from the collector's windowed time-series, and a
//! flame rendering of the latest tail-captured slow request.

use std::process::ExitCode;
use std::time::Duration;

use whisper::{SharedPulseStore, Topology};
use whisper_bench::cluster::{self, ledger_downtime};
use whisper_bench::{ClusterTuning, PulseTuning, Table};
use whisper_obs::{
    AvailabilityLedger, MetricsDelta, NodeSnapshot, OutlierTrace, PulseSpan, SloConfig, SloEngine,
};
use whisper_simnet::{NodeId, SimDuration, SimTime};

struct Options {
    peers: usize,
    interval: Duration,
    frames: Option<u64>,
    once: bool,
    live: bool,
}

const USAGE: &str = "\
usage: whisper-top [--peers N] [--interval MS] [--frames N] [--once] [--live]

--once exits by health: 0 healthy; 3 up but degraded (coordinator
disagreement, open ledger outage, or SLO burn — alert firing /
error budget exhausted); 1 down (missing nodes or unanswered
requests); 2 usage errors.";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        peers: 5,
        interval: Duration::from_millis(1000),
        frames: None,
        once: false,
        live: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--peers" => match value("--peers").parse() {
                Ok(n) if n > 0 => opts.peers = n,
                _ => usage(),
            },
            "--interval" => match value("--interval").parse() {
                Ok(ms) => opts.interval = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--frames" => match value("--frames").parse() {
                Ok(n) => opts.frames = Some(n),
                Err(_) => usage(),
            },
            "--once" => opts.once = true,
            "--live" => opts.live = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    opts
}

fn fmt_ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1e3)
}

/// One rendered frame: the per-node table from a fresh snapshot poll.
fn frame_table(topology: &Topology, snaps: &[(NodeId, NodeSnapshot)]) -> Table {
    let mut t = Table::new(
        "whisper_top",
        &[
            "node",
            "role",
            "peer",
            "coord",
            "phase",
            "hb_age_ms",
            "queue",
            "tx",
            "tx_kb",
            "rx",
        ],
    );
    for (node, snap) in snaps {
        let (coord, phase) = match &snap.election {
            Some(e) => (
                e.coordinator
                    .map(|c| {
                        if e.is_coordinator {
                            format!("{c}*")
                        } else {
                            c.to_string()
                        }
                    })
                    .unwrap_or_else(|| "?".into()),
                e.phase.clone(),
            ),
            None => ("-".into(), "-".into()),
        };
        let worst_age = snap.heartbeat_ages_us.iter().map(|&(_, a)| a).max();
        t.row(&[
            node.index().to_string(),
            snap.role.label().to_string(),
            topology.peer_of(*node).value().to_string(),
            coord,
            phase,
            worst_age.map(fmt_ms).unwrap_or_else(|| "-".into()),
            snap.queue_depth.to_string(),
            snap.sent.messages_sent().to_string(),
            format!("{:.1}", snap.sent.bytes_sent() as f64 / 1024.0),
            snap.received.messages_sent().to_string(),
        ]);
    }
    t
}

/// How healthy the cluster looked on the last rendered frame, ordered
/// worst-first so `max` keeps the most pessimistic verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Health {
    /// Every node answered, coordinator agreed, every service up.
    Healthy,
    /// Still serving — every node answered every request — but the
    /// b-peers disagree on the coordinator, the ledger carries an open
    /// outage, or the SLO engine is burning (alert firing or error
    /// budget exhausted). Exit code 3, so CI can tell "restart it" from
    /// "wait for re-election".
    Degraded,
    /// Nodes missing from the snapshot poll or requests unanswered.
    Down,
}

/// The `ALERTS` pane: per-objective burn rates, budget left and alert
/// state from the SLO engine.
fn print_alerts(slo: &SloEngine) {
    for s in slo.status() {
        println!(
            "ALERTS {:<13} target={:.3} burn fast={:.1}x slow={:.1}x budget={:>6.1}% {}",
            s.objective,
            s.target,
            s.fast_burn,
            s.slow_burn,
            s.budget_remaining * 100.0,
            if s.firing {
                "FIRING"
            } else if s.budget_remaining <= 0.0 {
                "BUDGET EXHAUSTED"
            } else {
                "ok"
            },
        );
    }
}

/// `true` when the availability ledger currently carries an open outage
/// for any service.
fn ledger_outage(ledger: &AvailabilityLedger, now: SimTime) -> bool {
    ledger
        .services()
        .iter()
        .any(|&s| ledger.service_report(s, now).is_some_and(|r| !r.up))
}

/// Prints the availability ledger's per-service lines.
fn print_ledger(ledger: &AvailabilityLedger, now: SimTime) {
    for service in ledger.services() {
        if let Some(r) = ledger.service_report(service, now) {
            println!(
                "service {service}: {} coordinator={} availability={:.6} failures={} churn={}{}",
                if r.up { "up" } else { "DOWN" },
                r.coordinator
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "?".into()),
                r.availability,
                r.failures,
                r.churn,
                r.mttr
                    .map(|d| format!(" mttr={:.1}ms", d.as_secs_f64() * 1e3))
                    .unwrap_or_default(),
            );
        }
    }
}

/// How many pulse windows back the sparklines look.
const SPARK_WIDTH: usize = 32;

/// Scales `vals` into one `▁`..`█` glyph each (shared maximum).
fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = vals.iter().fold(0.0_f64, |a, &b| a.max(b));
    vals.iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Renders a captured outlier trace as an indented flame: each span's bar
/// is proportional to its share of the trace, children nested under
/// their parent in start order.
fn print_flame(trace: &OutlierTrace) {
    println!(
        "slowest capture: {} · {:.1} ms · {} spans",
        trace.label,
        trace.total_us as f64 / 1e3,
        trace.spans.len()
    );
    fn walk(trace: &OutlierTrace, parent: Option<u32>, depth: usize) {
        let mut children: Vec<&PulseSpan> =
            trace.spans.iter().filter(|s| s.parent == parent).collect();
        children.sort_by_key(|s| (s.start_us, s.id));
        for span in children {
            let us = span.end_us.saturating_sub(span.start_us);
            let share = (us * 24 / trace.total_us.max(1)).max(1) as usize;
            println!(
                "  {}{} {} ({:.1} ms)",
                "  ".repeat(depth),
                "█".repeat(share),
                span.name,
                us as f64 / 1e3,
            );
            walk(trace, Some(span.id), depth + 1);
        }
    }
    walk(trace, None, 0);
}

/// The `--live` telemetry panel: request-rate and p99 sparklines from the
/// proxy's windowed time-series, plus the latest tail capture.
fn print_pulse(store: &SharedPulseStore, proxy: NodeId) {
    let guard = store.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(series) = guard.series(proxy.index() as u64) {
        let frames: Vec<&MetricsDelta> = series.frames().collect();
        let recent = &frames[frames.len().saturating_sub(SPARK_WIDTH)..];
        let rates: Vec<f64> = recent
            .iter()
            .map(|f| f.counter("proxy.requests") as f64 * 1e6 / f.interval_us.max(1) as f64)
            .collect();
        let p99s: Vec<f64> = recent
            .iter()
            .map(|f| {
                f.hists
                    .iter()
                    .find(|(k, _)| k == "proxy.rtt")
                    .and_then(|(_, h)| h.percentile(99.0))
                    .map(|d| d.as_micros() as f64 / 1e3)
                    .unwrap_or(0.0)
            })
            .collect();
        let agg = guard.aggregate(usize::MAX);
        println!(
            "req/s {} {:.1}/s now · p99 {} {} window",
            sparkline(&rates),
            rates.last().copied().unwrap_or(0.0),
            sparkline(&p99s),
            agg.quantile_us("proxy.rtt", 99.0)
                .map(|us| format!("{:.1}ms", us as f64 / 1e3))
                .unwrap_or_else(|| "-".into()),
        );
    }
    if let Some(trace) = guard.latest_outlier() {
        print_flame(trace);
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    eprintln!(
        "booting {} b-peers + proxy on TCP loopback{}...",
        opts.peers,
        if opts.live {
            " (+ transcript replica + pulse collector)"
        } else {
            ""
        }
    );
    let wiring = if opts.live {
        cluster::pulse_scenario(opts.peers, ClusterTuning::default(), PulseTuning::default())
    } else {
        cluster::cluster_scenario(opts.peers, ClusterTuning::default())
    };
    let mut rig = match wiring.boot_tcp() {
        Ok(rig) => rig,
        Err(e) => {
            eprintln!("cluster failed to boot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ledger = rig.ledger.clone().expect("the cluster wires a ledger");
    // Coordinator agreement is a fast-group question (the transcript
    // replica of live mode coordinates its own single-member group), so
    // each frame polls the fast group and the rest separately.
    let bpeers = rig.topology.group_nodes[0].clone();
    let mut others: Vec<NodeId> = rig.topology.group_nodes[1..].concat();
    others.push(rig.topology.proxy);
    let expected = bpeers.len() + others.len();

    // Give the boot election a chance before the first frame.
    rig.await_election(0, SimDuration::from_secs(15));

    let mut frames_left = if opts.once { Some(1) } else { opts.frames };
    let mut sent = 0usize;
    // The SLO engine burns against the ledger from boot, so even a single
    // `--once` frame sees all downtime accumulated since startup.
    let mut slo = SloEngine::new(SloConfig::default());
    slo.tick(SimTime::ZERO, SimDuration::ZERO, None);
    let health = loop {
        // Live mode drives a trickle of real traffic so the telemetry
        // panel moves: one request per refresh, a slow transcript every
        // eighth so the tail sampler has something to capture.
        let mut answered = true;
        if opts.live {
            let payload = if sent % 8 == 7 {
                cluster::transcript("u1004")
            } else {
                cluster::student_info(&format!("u100{}", sent % 8))
            };
            sent += 1;
            let id = rig.submit(payload);
            answered = rig.await_response(id, SimDuration::from_secs(5)).is_some();
        }
        let fast = rig.poll(&bpeers, SimDuration::from_secs(5));
        let coord = fast.coordinator();
        let mut snaps = fast.to_vec();
        snaps.extend_from_slice(&rig.poll(&others, SimDuration::from_secs(5)));
        let now = rig.net.now();
        println!(
            "whisper-top · uptime {:.1}s · {}/{} nodes answering · coordinator: {}",
            now.as_secs_f64(),
            snaps.len(),
            expected,
            coord
                .map(|c| format!("peer {c}"))
                .unwrap_or_else(|| "NONE".into()),
        );
        frame_table(&rig.topology, &snaps).print();
        print_ledger(&ledger, now);
        let mut p99 = None;
        if let Some(store) = &rig.pulse_store {
            print_pulse(store, rig.topology.proxy);
            let guard = store.lock().unwrap_or_else(|e| e.into_inner());
            p99 = guard
                .aggregate(usize::MAX)
                .quantile_us("proxy.rtt", 99.0)
                .map(SimDuration::from_micros);
        }
        slo.tick(now, ledger_downtime(&ledger, now), p99);
        print_alerts(&slo);
        let frame_health = if snaps.len() != expected || !answered {
            Health::Down
        } else if coord.is_none()
            || ledger_outage(&ledger, now)
            || slo.any_firing()
            || slo.any_budget_exhausted()
        {
            Health::Degraded
        } else {
            Health::Healthy
        };

        if let Some(left) = &mut frames_left {
            *left -= 1;
            if *left == 0 {
                break frame_health;
            }
        }
        println!();
        std::thread::sleep(opts.interval);
    };
    rig.net.shutdown();

    match health {
        Health::Healthy => ExitCode::SUCCESS,
        Health::Degraded => {
            eprintln!(
                "degraded: nodes answering but no agreed coordinator, an open outage, \
                 or SLO burn (alert firing / error budget exhausted)"
            );
            ExitCode::from(3)
        }
        Health::Down => {
            eprintln!("down: missing snapshots or unanswered requests");
            ExitCode::FAILURE
        }
    }
}

//! `whisper-pulse` — the streaming telemetry plane as a standalone daemon.
//!
//! Boots a b-peer group + transcript replica + SWS-proxy + pulse
//! collector on real TCP loopback sockets, drives a steady SOAP workload
//! through the proxy (every `--slow-every`th request hits the
//! deliberately slow transcript replica so the tail stays interesting),
//! and serves the collector's windowed time-series in Prometheus text
//! exposition format over HTTP.
//!
//! ```text
//! whisper-pulse [--peers N] [--port P] [--seconds S] [--slow-every N] [--smoke]
//! ```
//!
//! `--seconds 0` (the default) runs until interrupted. `--smoke` runs the
//! workload, then scrapes its own exposition endpoint and exits non-zero
//! unless `whisper_request_total` is non-zero, a `proxy.rtt` p99 series
//! is present, and the `whisper_slo_*` series are exposed — the CI
//! self-check.
//!
//! An [`SloEngine`] with the default objectives (99 % availability, p99
//! ≤ 250 ms) watches the cluster's availability ledger and the live p99;
//! its burn rates, budget, and firing state ride along on every scrape
//! as `whisper_slo_*` series.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use whisper_bench::cluster::{self, ledger_downtime};
use whisper_bench::{exporter, ClusterTuning, PulseTuning};
use whisper_obs::{SloConfig, SloEngine};
use whisper_simnet::{SimDuration, SimTime};

struct Options {
    peers: usize,
    port: u16,
    seconds: u64,
    slow_every: usize,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: whisper-pulse [--peers N] [--port P] [--seconds S] [--slow-every N] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        peers: 5,
        port: 9464,
        seconds: 0,
        slow_every: 16,
        smoke: false,
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
            "--port" => match value("--port").parse() {
                Ok(p) => opts.port = p,
                Err(_) => usage(),
            },
            "--seconds" => match value("--seconds").parse() {
                Ok(s) => opts.seconds = s,
                Err(_) => usage(),
            },
            "--slow-every" => match value("--slow-every").parse() {
                Ok(n) if n > 0 => opts.slow_every = n,
                _ => usage(),
            },
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// One HTTP GET against our own exposition endpoint.
fn self_scrape(addr: std::net::SocketAddr) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    Ok(response)
}

/// The smoke assertions: a served request counter and a p99 series.
fn smoke_check(body: &str) -> Result<(), String> {
    let requests: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("whisper_request_total "))
        .ok_or("whisper_request_total missing from exposition")?
        .trim()
        .parse()
        .map_err(|e| format!("whisper_request_total not numeric: {e}"))?;
    if requests == 0 {
        return Err("whisper_request_total is zero".into());
    }
    let p99 = "whisper_latency_us{series=\"proxy.rtt\",quantile=\"0.99\"} ";
    if !body.lines().any(|l| l.starts_with(p99)) {
        return Err(format!("p99 series {p99:?} missing from exposition"));
    }
    if !body.lines().any(|l| l.starts_with("whisper_slo_target{")) {
        return Err("whisper_slo_target series missing from exposition".into());
    }
    println!("smoke: ok ({requests} requests exposed, p99 + SLO series present)");
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse_args();

    eprintln!(
        "booting {} b-peers + transcript replica + proxy + pulse collector...",
        opts.peers
    );
    let wiring =
        cluster::pulse_scenario(opts.peers, ClusterTuning::default(), PulseTuning::default());
    let mut rig = match wiring.boot_tcp() {
        Ok(rig) => rig,
        Err(e) => {
            eprintln!("cluster failed to boot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ledger = rig.ledger.clone().expect("the cluster wires a ledger");
    let store = rig.pulse_store.clone().expect("the pulse plane is wired");

    // Boot election before traffic.
    if !rig.await_election(0, SimDuration::from_secs(15)) {
        eprintln!("cluster failed to elect a coordinator");
        rig.net.shutdown();
        return ExitCode::FAILURE;
    }

    let slo: exporter::SharedSlo = Arc::new(Mutex::new(SloEngine::new(SloConfig::default())));
    slo.lock()
        .unwrap_or_else(|e| e.into_inner())
        .tick(SimTime::ZERO, SimDuration::ZERO, None);

    let bind = format!("127.0.0.1:{}", opts.port);
    let server = match exporter::serve_with_slo(store.clone(), Some(slo.clone()), &bind, usize::MAX)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind exposition endpoint on {bind}: {e}");
            rig.net.shutdown();
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving Prometheus exposition on http://{}/metrics",
        server.addr()
    );

    // Closed-loop workload: one outstanding request at a time, a slow
    // transcript every `slow_every`th, a status line each second.
    let run_for = (opts.seconds > 0).then(|| Duration::from_secs(opts.seconds));
    let start = Instant::now();
    let mut sent = 0usize;
    let mut answered = 0usize;
    let mut last_status = Instant::now();
    loop {
        if let Some(limit) = run_for {
            if start.elapsed() >= limit {
                break;
            }
        }
        let student = format!("u100{}", sent % 8);
        let id = rig.submit(if sent % opts.slow_every == opts.slow_every - 1 {
            cluster::transcript(&student)
        } else {
            cluster::student_info(&student)
        });
        sent += 1;
        if rig.await_response(id, SimDuration::from_secs(10)).is_none() {
            eprintln!("request {sent} unanswered after 10s");
            break;
        }
        answered += 1;
        if last_status.elapsed() >= Duration::from_secs(1) {
            last_status = Instant::now();
            let guard = store.lock().unwrap_or_else(|e| e.into_inner());
            let agg = guard.aggregate(usize::MAX);
            let p99_us = agg.quantile_us("proxy.rtt", 99.0);
            println!(
                "pulse · {:.0}s · {answered} answered · p50 {} · p99 {} · {} frames · {} outliers",
                start.elapsed().as_secs_f64(),
                agg.quantile_us("proxy.rtt", 50.0)
                    .map(|us| format!("{:.1}ms", us as f64 / 1e3))
                    .unwrap_or_else(|| "-".into()),
                p99_us
                    .map(|us| format!("{:.1}ms", us as f64 / 1e3))
                    .unwrap_or_else(|| "-".into()),
                guard.frames_ingested(),
                guard.outliers_ingested(),
            );
            drop(guard);
            let now = rig.net.now();
            let mut slo_guard = slo.lock().unwrap_or_else(|e| e.into_inner());
            for ev in slo_guard.tick(
                now,
                ledger_downtime(&ledger, now),
                p99_us.map(SimDuration::from_micros),
            ) {
                println!("slo · {ev:?}");
            }
        }
        // A breather so the pulse interval ticks relative to the load.
        std::thread::sleep(Duration::from_millis(5));
    }

    // Let at least one pulse interval flush the final deltas.
    std::thread::sleep(Duration::from_millis(250));

    let verdict = if opts.smoke {
        match self_scrape(server.addr()) {
            Ok(body) if body.starts_with("HTTP/1.1 200 OK") => smoke_check(&body),
            Ok(body) => Err(format!("exposition endpoint returned: {body}")),
            Err(e) => Err(format!("self-scrape failed: {e}")),
        }
    } else {
        Ok(())
    };

    server.stop();
    rig.net.shutdown();
    match verdict {
        Ok(()) if answered == sent && sent > 0 => ExitCode::SUCCESS,
        Ok(()) => {
            eprintln!("unhealthy: {answered}/{sent} requests answered");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("smoke failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

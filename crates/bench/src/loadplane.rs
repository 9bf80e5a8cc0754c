//! The whisper-surge saturation load plane: a real-TCP Whisper
//! deployment plus two workload shapes that can push it to (and past) its
//! knee.
//!
//! Both shapes drive a booted [`load_scenario`] through the rig's edge
//! node and are measured there — the edge stamps every answer with its
//! arrival time on the actor thread, so latency is arrival minus the
//! instant the measurement counts from, whenever the pacing thread gets
//! around to reading it:
//!
//! - **Open loop** ([`run_open`]): requests are offered on a fixed
//!   schedule regardless of how the system responds — the honest model of
//!   independent B2B partners. Latency is measured from each request's
//!   *intended* send time on that schedule, not from the moment the
//!   sender got around to it, so coordinated omission cannot launder
//!   queueing delay out of the percentiles.
//! - **Closed loop** ([`run_closed`]): a fixed window of requests is kept
//!   in flight and every completion is immediately replaced — the shape
//!   that finds the pipeline's saturation throughput without overrunning
//!   it.
//!
//! The deployment is the paper's student scenario on TCP loopback with
//! load-sharing on and the surge worker pool enabled
//! ([`whisper::BPeerConfig::workers`]), so backend execution rides worker
//! threads while the actor loops keep draining heartbeats, elections and
//! the next requests.

use std::time::Duration;

use whisper::{Booted, ScenarioWiring, WhisperMsg};
use whisper_simnet::tcpnet::TcpNet;
use whisper_simnet::{SimDuration, SimTime};
use whisper_soap::Envelope;

use crate::cluster::{student_info, student_registry, student_wiring, ClusterTuning};

/// Tuning of the load plane's deployment.
#[derive(Debug, Clone, Copy)]
pub struct LoadTuning {
    /// Heartbeat/failure/election timing.
    pub cluster: ClusterTuning,
    /// Worker threads per b-peer (see [`whisper::BPeerConfig::workers`]).
    pub workers: usize,
    /// Proxy-side wait before a request attempt is declared failed.
    pub request_timeout: SimDuration,
}

impl Default for LoadTuning {
    fn default() -> Self {
        LoadTuning {
            cluster: ClusterTuning::default(),
            workers: 2,
            request_timeout: SimDuration::from_millis(2000),
        }
    }
}

/// The load plane's deployment: `peers` student-registry replicas with
/// load-sharing on and `tuning.workers` surge workers each.
pub fn load_scenario(peers: usize, tuning: LoadTuning) -> ScenarioWiring {
    let mut wiring = student_wiring(peers, student_registry, tuning.cluster);
    wiring.bpeer.load_share = true;
    wiring.bpeer.workers = tuning.workers;
    wiring.proxy.request_timeout = tuning.request_timeout;
    wiring
}

/// The load plane's rig: [`load_scenario`] booted on TCP loopback.
pub type LoadRig = Booted<TcpNet<WhisperMsg>>;

/// One measured operating point.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// Requests injected.
    pub issued: u64,
    /// Responses received (faults included).
    pub completed: u64,
    /// `<soap:Fault>` responses among the completions.
    pub faults: u64,
    /// First injection to last counted completion (or drain cutoff).
    pub elapsed: Duration,
    /// Sorted per-request latencies in microseconds (open loop: measured
    /// from the intended send time).
    latencies_us: Vec<u64>,
}

impl LoadOutcome {
    /// Non-fault completions per second of the measured interval.
    pub fn achieved_rps(&self) -> f64 {
        let good = self.completed.saturating_sub(self.faults);
        good as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `p`-th latency percentile in microseconds (nearest-rank).
    pub fn percentile_us(&self, p: f64) -> Option<u64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.latencies_us.len() as f64).ceil() as usize;
        Some(self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1])
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> Option<f64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let sum: u64 = self.latencies_us.iter().sum();
        Some(sum as f64 / self.latencies_us.len() as f64)
    }
}

/// The paper's `StudentInformation` request, serialized once per run so
/// the pacing thread does no XML work per request.
fn request_envelope() -> String {
    Envelope::request(student_info("u1000")).to_xml_string()
}

/// Waits up to `drain` for the tail of `sent` (request id, instant its
/// latency counts from), then reads every answer off the edge and freezes
/// the point. (Each run starts by forgetting what the last one left
/// unanswered, so a straggler from a saturated point cannot leak into the
/// next one's numbers.)
fn finish(
    rig: &mut LoadRig,
    started: SimTime,
    sent: &[(u64, SimTime)],
    drain: Duration,
) -> LoadOutcome {
    rig.await_answered(
        sent.len() as u64,
        SimDuration::from_micros(drain.as_micros() as u64),
    );
    let cutoff = rig.net.now();
    let mut last = started;
    let mut faults = 0;
    let mut latencies_us = Vec::with_capacity(sent.len());
    for &(id, t0) in sent {
        let Some(answer) = rig.response(id) else {
            continue;
        };
        last = last.max(answer.at);
        latencies_us.push(answer.at.as_micros().saturating_sub(t0.as_micros()));
        let fault = Envelope::parse(&answer.envelope)
            .map(|e| e.is_fault())
            .unwrap_or(true);
        faults += u64::from(fault);
    }
    latencies_us.sort_unstable();
    let end = if latencies_us.len() == sent.len() {
        last
    } else {
        cutoff
    };
    LoadOutcome {
        issued: sent.len() as u64,
        completed: latencies_us.len() as u64,
        faults,
        elapsed: Duration::from_micros(end.since(started).as_micros()),
        latencies_us,
    }
}

/// Open-loop run: `total` requests offered at `rate` per second on a
/// fixed schedule. Each latency is measured from the request's intended
/// send time on that schedule — if the sender (or anything downstream)
/// stalls, the stall shows up in the percentiles instead of silently
/// thinning the load (coordinated-omission correction). After the last
/// injection the run drains for up to `drain`.
///
/// # Panics
///
/// Panics unless `rate` is positive.
pub fn run_open(rig: &mut LoadRig, rate: f64, total: u64, drain: Duration) -> LoadOutcome {
    assert!(rate > 0.0, "need a positive offered rate");
    rig.forget_requests();
    let envelope = request_envelope();
    let started = rig.net.now();
    let mut sent = Vec::with_capacity(total as usize);
    for i in 0..total {
        let intended = started + SimDuration::from_micros((i as f64 * 1e6 / rate) as u64);
        // Sleep toward the slot, then spin the last stretch: loopback
        // schedules are microseconds apart and sleep granularity is not.
        loop {
            let now = rig.net.now();
            if now >= intended {
                break;
            }
            match intended.since(now).as_micros().checked_sub(200) {
                Some(coarse) => std::thread::sleep(Duration::from_micros(coarse)),
                None => std::hint::spin_loop(),
            }
        }
        sent.push((rig.submit_envelope(envelope.clone()), intended));
    }
    finish(rig, started, &sent, drain)
}

/// Closed-loop run: keeps `window` requests in flight until `total` have
/// been issued, replacing each completion immediately. Latency is
/// measured from the actual send (a closed loop cannot fall behind its
/// own schedule, so there is nothing to correct).
///
/// # Panics
///
/// Panics when `window` is zero.
pub fn run_closed(rig: &mut LoadRig, window: usize, total: u64, drain: Duration) -> LoadOutcome {
    assert!(window > 0, "need at least one request in flight");
    rig.forget_requests();
    let envelope = request_envelope();
    let started = rig.net.now();
    let mut sent = Vec::with_capacity(total as usize);
    while (sent.len() as u64) < total {
        if sent.len() as u64 - rig.answered() < window as u64 {
            let now = rig.net.now();
            sent.push((rig.submit_envelope(envelope.clone()), now));
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    finish(rig, started, &sent, drain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_every_request_and_measures_latency() {
        let mut rig = load_scenario(2, LoadTuning::default())
            .boot_tcp()
            .expect("loopback sockets");
        assert!(
            rig.await_election(0, SimDuration::from_secs(15)),
            "boot election"
        );
        let out = run_closed(&mut rig, 8, 400, Duration::from_secs(10));
        assert_eq!(out.issued, 400);
        assert_eq!(out.completed, 400, "{out:?}");
        assert_eq!(out.faults, 0, "{out:?}");
        assert!(out.achieved_rps() > 0.0);
        let p50 = out.percentile_us(50.0).expect("latencies recorded");
        let p99 = out.percentile_us(99.0).expect("latencies recorded");
        assert!(p50 <= p99);

        // A second run on the same cluster starts from a clean slate.
        let again = run_open(&mut rig, 500.0, 100, Duration::from_secs(10));
        assert_eq!(again.completed, 100, "{again:?}");
        rig.net.shutdown();
    }
}

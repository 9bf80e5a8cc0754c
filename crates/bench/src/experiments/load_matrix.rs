//! **E16 — real-TCP saturation matrix** (whisper-surge): throughput and
//! latency of the live loopback deployment under open- and closed-loop
//! load, across replica counts.
//!
//! The sim-side load experiment ([`crate::experiments::load`]) models an
//! M/D/1 replica in virtual time; this one drives the *real* pipeline —
//! sockets, frames, the proxy actor, the surge worker pools — and reports
//! what it actually sustains:
//!
//! - the **saturation knee** per replica count: the highest offered
//!   open-loop rate the deployment still serves at ≥ 95% goodput;
//! - **coordinated-omission-corrected percentiles** at every open-loop
//!   point (latency from the intended send time, see
//!   [`run_open`]);
//! - the **closed-loop peak**: the throughput ceiling a widening
//!   in-flight window finds, which bounds the whole matrix from above.
//!
//! A single in-flight request implies a throughput ceiling of
//! `1e6 / tcpnet_request_cycle_us` — the closed-loop peak shows how far
//! pipelining (batched frame flushing + parallel b-peer execution) lifts
//! that bound.

use std::time::Duration;

use crate::loadplane::{load_scenario, run_closed, run_open, LoadOutcome, LoadTuning};
use crate::Table;
use whisper_simnet::SimDuration;

/// Parameters of the saturation matrix.
#[derive(Debug, Clone)]
pub struct MatrixParams {
    /// Replica counts to boot (one cluster per entry).
    pub peers: Vec<usize>,
    /// Worker threads per b-peer.
    pub workers: usize,
    /// Open-loop offered rates in requests/second.
    pub rates: Vec<f64>,
    /// Closed-loop in-flight windows.
    pub windows: Vec<usize>,
    /// Offered duration of each open-loop point.
    pub secs: f64,
    /// Requests issued per closed-loop point.
    pub closed_total: u64,
    /// Post-injection drain allowance per point.
    pub drain: Duration,
}

impl MatrixParams {
    /// The full matrix `whisper-bench loadgen` runs by default.
    pub fn full() -> MatrixParams {
        MatrixParams {
            peers: vec![1, 3, 5],
            workers: 2,
            rates: vec![2_000.0, 4_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0],
            windows: vec![1, 4, 16, 64],
            secs: 2.0,
            closed_total: 20_000,
            drain: Duration::from_secs(10),
        }
    }

    /// The short CI variant (`whisper-bench loadgen --smoke`): one replica
    /// count, two rates, two windows — enough for a knee and a peak.
    pub fn smoke() -> MatrixParams {
        MatrixParams {
            peers: vec![3],
            workers: 2,
            rates: vec![1_000.0, 4_000.0],
            windows: vec![1, 32],
            secs: 1.0,
            closed_total: 3_000,
            drain: Duration::from_secs(8),
        }
    }
}

/// One measured operating point of the matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Replicas in the group.
    pub peers: usize,
    /// `"open"` or `"closed"`.
    pub mode: &'static str,
    /// Offered rate (open loop; `0` for closed-loop rows).
    pub offered_rps: f64,
    /// In-flight window (closed loop; `0` for open-loop rows).
    pub window: usize,
    /// Non-fault completions per second.
    pub achieved_rps: f64,
    /// Fault responses.
    pub faults: u64,
    /// Requests still unanswered when the drain cutoff hit.
    pub lost: u64,
    /// Median latency (µs; open loop: corrected).
    pub p50_us: Option<u64>,
    /// 99th percentile latency (µs; open loop: corrected).
    pub p99_us: Option<u64>,
    /// 99.9th percentile latency (µs; open loop: corrected).
    pub p999_us: Option<u64>,
}

impl MatrixRow {
    fn from_outcome(
        peers: usize,
        mode: &'static str,
        offered: f64,
        window: usize,
        out: &LoadOutcome,
    ) -> MatrixRow {
        MatrixRow {
            peers,
            mode,
            offered_rps: offered,
            window,
            achieved_rps: out.achieved_rps(),
            faults: out.faults,
            lost: out.issued.saturating_sub(out.completed),
            p50_us: out.percentile_us(50.0),
            p99_us: out.percentile_us(99.0),
            p999_us: out.percentile_us(99.9),
        }
    }
}

/// Runs the whole matrix: one [`load_scenario`] boot per replica count,
/// closed-loop points first (they find the ceiling), then the open-loop
/// rate sweep.
///
/// # Errors
///
/// Socket errors while booting a loopback mesh, or a boot election that
/// never settles.
pub fn run_matrix(params: &MatrixParams) -> std::io::Result<Vec<MatrixRow>> {
    let mut rows = Vec::new();
    for &peers in &params.peers {
        let tuning = LoadTuning {
            workers: params.workers,
            ..LoadTuning::default()
        };
        let mut rig = load_scenario(peers, tuning)
            .boot_tcp()
            .map_err(std::io::Error::other)?;
        // Measuring before the boot election settles would charge Bully
        // waits to the first requests.
        if !rig.await_election(0, SimDuration::from_secs(20)) {
            rig.net.shutdown();
            return Err(std::io::Error::other(format!(
                "boot election did not settle with {peers} b-peers"
            )));
        }
        for &window in &params.windows {
            let out = run_closed(&mut rig, window, params.closed_total, params.drain);
            rows.push(MatrixRow::from_outcome(peers, "closed", 0.0, window, &out));
        }
        for &rate in &params.rates {
            let total = (rate * params.secs).max(1.0) as u64;
            let out = run_open(&mut rig, rate, total, params.drain);
            rows.push(MatrixRow::from_outcome(peers, "open", rate, 0, &out));
        }
        rig.net.shutdown();
    }
    Ok(rows)
}

/// The saturation knee for one replica count: the highest offered
/// open-loop rate still served at ≥ 95% goodput. `None` when even the
/// lowest rate saturates.
pub fn knee(rows: &[MatrixRow], peers: usize) -> Option<f64> {
    rows.iter()
        .filter(|r| r.peers == peers && r.mode == "open")
        .filter(|r| r.achieved_rps >= 0.95 * r.offered_rps)
        .map(|r| r.offered_rps)
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.max(r)))
        })
}

/// The corrected p99 at roughly half the knee — the "comfortable load"
/// tail the E16 acceptance gate watches. Picks the open-loop point whose
/// offered rate is closest to `knee / 2`.
pub fn half_knee_p99_us(rows: &[MatrixRow], peers: usize) -> Option<u64> {
    let half = knee(rows, peers)? / 2.0;
    rows.iter()
        .filter(|r| r.peers == peers && r.mode == "open")
        .min_by(|a, b| {
            (a.offered_rps - half)
                .abs()
                .total_cmp(&(b.offered_rps - half).abs())
        })?
        .p99_us
}

/// The closed-loop throughput ceiling across the whole matrix.
pub fn peak_rps(rows: &[MatrixRow]) -> f64 {
    rows.iter()
        .filter(|r| r.mode == "closed")
        .map(|r| r.achieved_rps)
        .fold(0.0, f64::max)
}

/// Renders the matrix.
pub fn table(rows: &[MatrixRow]) -> Table {
    let mut t = Table::new(
        "load_matrix",
        &[
            "replicas",
            "mode",
            "offered rps",
            "window",
            "achieved rps",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "faults",
            "lost",
        ],
    );
    let ms = |us: Option<u64>| {
        us.map(|u| format!("{:.2}", u as f64 / 1e3))
            .unwrap_or_else(|| "-".into())
    };
    for r in rows {
        t.row([
            r.peers.to_string(),
            r.mode.to_string(),
            if r.mode == "open" {
                format!("{:.0}", r.offered_rps)
            } else {
                "-".into()
            },
            if r.mode == "closed" {
                r.window.to_string()
            } else {
                "-".into()
            },
            format!("{:.0}", r.achieved_rps),
            ms(r.p50_us),
            ms(r.p99_us),
            ms(r.p999_us),
            r.faults.to_string(),
            r.lost.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature matrix on one replica: every point completes, and the
    /// knee logic sees the unsaturated low rate.
    #[test]
    fn mini_matrix_produces_knee_and_peak() {
        let params = MatrixParams {
            peers: vec![1],
            workers: 1,
            rates: vec![400.0],
            windows: vec![4],
            secs: 0.5,
            closed_total: 200,
            drain: Duration::from_secs(8),
        };
        let rows = run_matrix(&params).expect("loopback sockets");
        assert_eq!(rows.len(), 2);
        let closed = &rows[0];
        assert_eq!((closed.mode, closed.window), ("closed", 4));
        assert_eq!(closed.lost, 0, "{closed:?}");
        let open = &rows[1];
        assert_eq!(open.mode, "open");
        assert!(
            open.achieved_rps >= 0.95 * open.offered_rps,
            "400 rps must not saturate loopback: {open:?}"
        );
        assert_eq!(knee(&rows, 1), Some(400.0));
        assert!(peak_rps(&rows) > 0.0);
        assert!(half_knee_p99_us(&rows, 1).is_some());
    }
}

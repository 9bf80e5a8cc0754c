//! **Cluster health ledger** — the availability/MTTR ledger watching a
//! live group through repeated coordinator assassinations.
//!
//! The availability experiment measures what *clients* see; this one
//! measures what the *cluster itself* records. A deterministic simnet
//! deployment runs with the [`whisper_obs::AvailabilityLedger`] attached,
//! the current coordinator is killed several times, and after each kill
//! the ledger's service timeline is read back: the downtime interval it
//! recorded (backdated to the dead coordinator's last heartbeat), the
//! detection latency, and the repair time (detection + re-election).
//! The numbers in `EXPERIMENTS.md` come straight from these reports.

use crate::Table;
use whisper::WhisperNet;
use whisper_obs::AvailabilityReport;
use whisper_simnet::{SimDuration, SimTime};

/// Parameters of the cluster-health experiment.
#[derive(Debug, Clone, Copy)]
pub struct ClusterHealthParams {
    /// B-peers in the group at boot.
    pub n_bpeers: usize,
    /// Coordinator kills to inject (must be < `n_bpeers`, the dead stay
    /// dead).
    pub kills: usize,
    /// Quiet time before the first kill (boot election + heartbeats).
    pub warmup: SimDuration,
    /// Quiet time after each kill (detection + re-election + slack).
    pub settle: SimDuration,
    /// Simulator seed.
    pub seed: u64,
}

impl Default for ClusterHealthParams {
    fn default() -> Self {
        ClusterHealthParams {
            n_bpeers: 5,
            kills: 3,
            warmup: SimDuration::from_secs(20),
            settle: SimDuration::from_secs(30),
            seed: 42,
        }
    }
}

/// What the ledger recorded about one injected coordinator kill.
#[derive(Debug, Clone)]
pub struct KillRow {
    /// Kill index (1-based).
    pub kill: usize,
    /// The coordinator that was crashed.
    pub killed: u64,
    /// The coordinator the survivors elected.
    pub new_coordinator: Option<u64>,
    /// Ledger-recorded detection latency (last heartbeat → suspicion).
    pub detection: SimDuration,
    /// Ledger-recorded repair time (last heartbeat → new coordinator),
    /// i.e. the paper's failover window measured online.
    pub repair: Option<SimDuration>,
}

/// The full experiment outcome.
#[derive(Debug, Clone)]
pub struct ClusterHealthReport {
    /// One row per injected kill.
    pub rows: Vec<KillRow>,
    /// The service timeline's final availability report.
    pub service: AvailabilityReport,
    /// Total simulated time observed.
    pub horizon: SimDuration,
}

/// Runs the experiment: boot, then kill the coordinator `params.kills`
/// times, reading the ledger's service timeline back after each kill.
pub fn run(params: ClusterHealthParams) -> ClusterHealthReport {
    assert!(
        params.kills < params.n_bpeers,
        "need a survivor to elect ({} kills, {} b-peers)",
        params.kills,
        params.n_bpeers
    );
    let mut net = WhisperNet::student_scenario(params.n_bpeers, params.seed);
    let ledger = net.enable_ledger();
    net.run_for(params.warmup);
    let service = net.group_id(0).value();

    let mut rows = Vec::with_capacity(params.kills);
    for k in 0..params.kills {
        let killed = net.kill_coordinator(0).expect("a coordinator to kill");
        net.run_for(params.settle);
        let report = ledger
            .service_report(service, net.now())
            .expect("service timeline after boot election");
        let interval = report.downtime_intervals.last().copied();
        rows.push(KillRow {
            kill: k + 1,
            killed: killed.value(),
            new_coordinator: net.coordinator_of(0).map(|p| p.value()),
            detection: interval
                .map(|i| i.detection_latency())
                .unwrap_or(SimDuration::ZERO),
            repair: interval.and_then(|i| i.duration()),
        });
    }

    let service_report = ledger
        .service_report(service, net.now())
        .expect("service timeline");
    ClusterHealthReport {
        rows,
        service: service_report,
        horizon: net.now().since(SimTime::ZERO),
    }
}

/// Renders the per-kill table.
pub fn table(report: &ClusterHealthReport) -> Table {
    let mut t = Table::new(
        "cluster_health",
        &[
            "kill",
            "killed_peer",
            "new_coordinator",
            "detection_ms",
            "repair_ms",
        ],
    );
    for row in &report.rows {
        t.row(&[
            row.kill.to_string(),
            row.killed.to_string(),
            row.new_coordinator
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", row.detection.as_secs_f64() * 1e3),
            row.repair
                .map(|d| format!("{:.1}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "open".into()),
        ]);
    }
    t
}

/// Renders the final ledger summary for the service timeline.
pub fn summary_table(report: &ClusterHealthReport) -> Table {
    let mut t = Table::new("cluster_health_summary", &["stat", "value"]);
    let s = &report.service;
    t.row(&[
        "horizon_s".into(),
        format!("{:.1}", report.horizon.as_secs_f64()),
    ]);
    t.row(&["availability".into(), format!("{:.6}", s.availability)]);
    t.row(&["failures".into(), s.failures.to_string()]);
    t.row(&["coordinator_churn".into(), s.churn.to_string()]);
    t.row(&[
        "mttf_s".into(),
        s.mttf
            .map(|d| format!("{:.2}", d.as_secs_f64()))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row(&[
        "mttr_ms".into(),
        s.mttr
            .map(|d| format!("{:.1}", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "-".into()),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_every_injected_kill() {
        let params = ClusterHealthParams {
            n_bpeers: 4,
            kills: 2,
            warmup: SimDuration::from_secs(15),
            settle: SimDuration::from_secs(30),
            seed: 7,
        };
        let report = run(params);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(
                row.new_coordinator.is_some(),
                "survivors re-elected: {row:?}"
            );
            assert_ne!(row.new_coordinator, Some(row.killed));
            let repair = row.repair.expect("interval closed by re-election");
            assert!(repair >= row.detection, "repair covers detection: {row:?}");
            assert!(
                repair < params.settle,
                "re-election finished inside the settle window: {row:?}"
            );
        }
        // Two closed outages → availability strictly below 1, churn = 2.
        assert_eq!(report.service.failures, 2);
        assert_eq!(report.service.churn, 2);
        assert!(report.service.availability < 1.0);
        assert!(report.service.availability > 0.9, "outages are short");
        assert!(report.service.up, "service recovered");
    }

    #[test]
    fn summary_stats_cover_the_headline_numbers() {
        let report = run(ClusterHealthParams {
            n_bpeers: 3,
            kills: 1,
            warmup: SimDuration::from_secs(15),
            settle: SimDuration::from_secs(30),
            seed: 11,
        });
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.service.failures, 1);
        assert!(report.service.mttr.expect("one closed outage") > SimDuration::ZERO);
        assert!(report.service.availability > 0.0 && report.service.availability < 1.0);
    }
}

//! **Substrate matrix** — the availability/failover experiment, run
//! unmodified on all three runtimes from one [`Deployment`].
//!
//! The paper measures Whisper's fault tolerance on nine LAN PCs; this
//! repo's earlier experiments measured it on the calibrated simulator.
//! The deployment layer closes the loop: the same scenario (one b-peer
//! group, availability ledger on) boots on the deterministic simulator,
//! on OS threads, and on real TCP loopback sockets, and the same
//! [`FaultPlan`] — kill the coordinator, restart it later — replays on
//! each via [`Substrate::execute_plan`]. The ledger then reports
//! availability, MTTR and detection latency per substrate, side by side:
//! virtual-time numbers validated against two kinds of wall-clock
//! reality.
//!
//! MTTR here is detection + re-election (the proxy re-bind leg is
//! measured separately by the RTT experiments), counted from the
//! coordinator's last beacon. A crash closes the coordinator's links: the
//! survivors are told, confirm it with one silent beacon period `hb`, and
//! the one that outranks the others does not wait for an answer from the
//! peer it has just buried — so every substrate should land in
//! [`crash_repair_window`], `[hb, 2·hb + a hop]`, on the simulator exactly,
//! which `fault_matrix` enforces. A partition ([`partition_plan`]) closes
//! nothing and still costs the failure timeout `to`: `[to, to + 2·hb]`.
//! (Before crashes were noticed by their links that was the crash's window
//! too; before failover went by notification the Bully answer timeout `el`
//! sat on top, `[to, to + hb + 2·el]`.)

use crate::{ClusterTuning, Table};
use whisper::deploy::{Booted, Deployment, Topology};
use whisper::WhisperMsg;
use whisper_simnet::{FaultPlan, SimDuration, SimTime, Substrate};

/// Scenario shape and fault schedule, shared by every substrate.
#[derive(Debug, Clone, Copy)]
pub struct MatrixTuning {
    /// Redundant b-peers in the group.
    pub peers: usize,
    /// Heartbeat/failure/election timing.
    pub cluster: ClusterTuning,
    /// Healthy run-in before the coordinator is killed.
    pub warmup: SimDuration,
    /// How long the killed coordinator stays down.
    pub outage: SimDuration,
    /// Healthy tail after the restart, before the books close.
    pub settle: SimDuration,
}

impl Default for MatrixTuning {
    /// Aggressive live-cluster timings (the [`ClusterTuning`] defaults) so
    /// a full three-substrate matrix takes seconds of wall clock, not the
    /// paper's JXTA-era multi-second windows per leg.
    fn default() -> Self {
        MatrixTuning {
            peers: 5,
            cluster: ClusterTuning::default(),
            warmup: SimDuration::from_millis(1500),
            outage: SimDuration::from_millis(1000),
            settle: SimDuration::from_millis(1500),
        }
    }
}

impl MatrixTuning {
    /// Total observed horizon per substrate.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_micros(
            self.warmup.as_micros() + self.outage.as_micros() + self.settle.as_micros(),
        )
    }
}

/// What one substrate reported at the end of the schedule.
#[derive(Debug, Clone)]
pub struct SubstrateOutcome {
    /// `"sim"`, `"threadnet"` or `"tcp"`.
    pub substrate: &'static str,
    /// Whether the service had an agreed coordinator when the books closed.
    pub recovered: bool,
    /// Service availability over the horizon.
    pub availability: f64,
    /// Mean time to repair (detection + re-election), once repaired.
    pub mttr: Option<SimDuration>,
    /// Mean failure-detection latency over completed outages.
    pub detection: Option<SimDuration>,
    /// Completed outages (the schedule injects exactly one).
    pub failures: u64,
    /// Coordinator hand-overs (crash election + the restarted peer
    /// bullying its way back).
    pub churn: u64,
    /// Transport messages sent over the horizon.
    pub messages: u64,
}

/// The shared scenario: `peers` redundant b-peers, ledger on, no clients.
pub fn deployment(t: &MatrixTuning) -> Deployment {
    let mut dep = Deployment::student(t.peers);
    dep.bpeer = t.cluster.bpeer();
    dep
}

/// The shared fault schedule against a booted topology: kill the highest
/// b-peer (the Bully winner, hence the coordinator) after `warmup`,
/// restart it `outage` later.
pub fn fault_plan(topo: &Topology, t: &MatrixTuning) -> FaultPlan {
    let victim = *topo.group_nodes[0]
        .last()
        .expect("the group has at least one b-peer");
    let kill_at = SimTime::ZERO + t.warmup;
    let mut plan = FaultPlan::new();
    plan.crash_at(victim, kill_at);
    plan.restart_at(victim, kill_at + t.outage);
    plan
}

/// The partition schedule: after `warmup` the coordinator is cut off from
/// every other member, its process and its sockets untouched — the outage
/// that leaves only silence as evidence.
pub fn partition_plan(topo: &Topology, t: &MatrixTuning) -> FaultPlan {
    let (&coordinator, members) = topo.group_nodes[0]
        .split_last()
        .expect("the group has at least one b-peer");
    let mut plan = FaultPlan::new();
    for &m in members {
        plan.block_at(coordinator, m, SimTime::ZERO + t.warmup);
    }
    plan
}

/// Where the ledger's MTTR of a coordinator *crash* must land: no repair
/// before one beacon period (link evidence is suspicion until a period of
/// silence confirms it), none later than the beacon's age at the kill plus
/// that period plus an election hop.
pub fn crash_repair_window(t: &ClusterTuning) -> (SimDuration, SimDuration) {
    let hop = SimDuration::from_millis(5);
    (
        t.heartbeat_period,
        t.heartbeat_period.saturating_mul(2) + hop,
    )
}

/// Runs a schedule on one booted substrate and reads the ledger's
/// verdict: the built-in kill/restart ([`fault_plan`]) over
/// [`MatrixTuning::horizon`], or `custom` — e.g. a plan loaded from a file
/// with [`FaultPlan::parse_text`] via `fault_matrix --plan` — over its
/// last action plus the tuning's settle tail. This function is the point
/// of the experiment: it sees only [`Substrate`], so the code is literally
/// identical for virtual time and both wall-clock runtimes.
pub fn run_on<N: Substrate<WhisperMsg>>(
    booted: &mut Booted<N>,
    t: &MatrixTuning,
    custom: Option<&FaultPlan>,
) -> SubstrateOutcome {
    let built_in;
    let (plan, horizon) = match custom {
        Some(plan) => {
            let last = plan.actions().iter().map(|&(at, _)| at).max();
            let last = last.unwrap_or(SimTime::ZERO).since(SimTime::ZERO);
            (plan, last + t.settle)
        }
        None => {
            built_in = fault_plan(&booted.topology, t);
            (&built_in, t.horizon())
        }
    };
    booted.net.execute_plan(plan);
    booted.net.advance(horizon);

    let now = booted.net.now();
    let ledger = booted
        .ledger
        .as_ref()
        .expect("the matrix deployment wires a ledger");
    let service = booted.topology.group_ids[0].value();
    let report = ledger
        .service_report(service, now)
        .expect("b-peers fed the ledger");
    let completed: Vec<SimDuration> = report
        .downtime_intervals
        .iter()
        .filter(|i| i.end.is_some())
        .map(|i| i.detected_at.since(i.start))
        .collect();
    let detection = (!completed.is_empty()).then(|| {
        let sum: u64 = completed.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(sum / completed.len() as u64)
    });
    SubstrateOutcome {
        substrate: booted.net.name(),
        recovered: report.up,
        availability: report.availability,
        mttr: report.mttr,
        detection,
        failures: report.failures,
        churn: report.churn,
        messages: booted.net.metrics_snapshot().sent,
    }
}

/// Boots the deployment on all three substrates in turn and runs the
/// same schedule (see [`run_on`]) on each. Wall-clock cost: two live
/// horizons (the simulator leg is virtual).
pub fn run_matrix(t: &MatrixTuning, custom: Option<&FaultPlan>) -> Vec<SubstrateOutcome> {
    let dep = deployment(t);
    let mut rows = Vec::with_capacity(3);

    let mut sim = dep
        .boot_sim(11)
        .expect("the matrix scenario is well-formed");
    rows.push(run_on(&mut sim, t, custom));

    let mut threads = dep
        .boot_threadnet()
        .expect("the matrix scenario is well-formed");
    rows.push(run_on(&mut threads, t, custom));
    threads.net.shutdown();

    let mut tcp = dep.boot_tcp().expect("loopback sockets");
    rows.push(run_on(&mut tcp, t, custom));
    tcp.net.shutdown();

    rows
}

/// Renders the matrix.
pub fn table(rows: &[SubstrateOutcome]) -> Table {
    let mut t = Table::new(
        "substrate_matrix",
        &[
            "substrate",
            "recovered",
            "availability",
            "mttr ms",
            "detect ms",
            "failures",
            "churn",
            "messages",
        ],
    );
    for r in rows {
        t.row([
            r.substrate.to_string(),
            r.recovered.to_string(),
            format!("{:.6}", r.availability),
            r.mttr.map(crate::table::ms).unwrap_or_else(|| "-".into()),
            r.detection
                .map(crate::table::ms)
                .unwrap_or_else(|| "-".into()),
            r.failures.to_string(),
            r.churn.to_string(),
            r.messages.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What any single-outage schedule must leave behind, and its MTTR.
    fn repaired_once(r: &SubstrateOutcome) -> SimDuration {
        assert!(
            r.recovered,
            "{}: no coordinator at the end: {r:?}",
            r.substrate
        );
        assert_eq!(r.failures, 1, "{}: exactly one outage: {r:?}", r.substrate);
        assert!(
            r.availability > 0.5 && r.availability < 1.0,
            "{}: availability should reflect one short outage: {r:?}",
            r.substrate
        );
        r.mttr
            .unwrap_or_else(|| panic!("{}: no mttr: {r:?}", r.substrate))
    }

    /// Generous slack on the ceilings for loaded CI machines on the
    /// wall-clock substrates; the simulator is held to the window itself.
    fn slack(r: &SubstrateOutcome) -> u64 {
        if r.substrate == "sim" {
            1
        } else {
            4
        }
    }

    /// The recovery window a crash must land in on every substrate:
    /// [`crash_repair_window`].
    fn assert_outcome_sane(r: &SubstrateOutcome, t: &MatrixTuning) {
        let mttr = repaired_once(r);
        let (floor, ceiling) = crash_repair_window(&t.cluster);
        assert!(
            mttr >= floor,
            "{}: a lost link was taken for death before one beacon period: {mttr} vs {floor}",
            r.substrate
        );
        let ceiling = ceiling.saturating_mul(slack(r));
        assert!(
            mttr <= ceiling,
            "{}: repair slower than link evidence + one beacon period: {mttr} vs {ceiling}",
            r.substrate
        );
    }

    /// The window a partition must land in: it closes no link, so nothing
    /// may repair it before the failure timeout.
    fn assert_partition_outcome_sane(r: &SubstrateOutcome, t: &MatrixTuning) {
        let mttr = repaired_once(r);
        assert!(
            mttr >= t.cluster.failure_timeout,
            "{}: repaired before the failure timeout: {mttr} vs {}",
            r.substrate,
            t.cluster.failure_timeout
        );
        let ceiling = (t.cluster.failure_timeout + t.cluster.heartbeat_period.saturating_mul(2))
            .saturating_mul(slack(r));
        assert!(
            mttr <= ceiling,
            "{}: repair slower than detection + re-election: {mttr} vs {ceiling}",
            r.substrate
        );
    }

    /// Same deployment, same plan, same sanity window — on the simulator
    /// and on OS threads. (The TCP leg runs in the `fault_matrix` bin and
    /// the tcpnet integration tests; keeping it out of the unit suite
    /// keeps `cargo test` off the socket-heavy path.)
    #[test]
    fn sim_and_threadnet_agree_on_the_recovery_window() {
        let t = MatrixTuning::default();
        let dep = deployment(&t);

        let mut sim = dep.boot_sim(3).expect("well-formed");
        let sim_row = run_on(&mut sim, &t, None);
        assert_eq!(sim_row.substrate, "sim");
        assert_outcome_sane(&sim_row, &t);

        let mut live = dep.boot_threadnet().expect("well-formed");
        let live_row = run_on(&mut live, &t, None);
        live.net.shutdown();
        assert_eq!(live_row.substrate, "threadnet");
        assert_outcome_sane(&live_row, &t);
    }

    /// A partition is not a crash: with the coordinator cut off but alive,
    /// no link closes, and both substrates wait out the failure timeout as
    /// they always did. (The TCP leg is `partition_tcpnet.rs`.)
    #[test]
    fn a_partition_still_costs_the_failure_timeout_on_sim_and_threadnet() {
        let t = MatrixTuning::default();
        let dep = deployment(&t);

        let mut sim = dep.boot_sim(3).expect("well-formed");
        let plan = partition_plan(&sim.topology, &t);
        assert_partition_outcome_sane(&run_on(&mut sim, &t, Some(&plan)), &t);

        let mut live = dep.boot_threadnet().expect("well-formed");
        let row = run_on(&mut live, &t, Some(&plan));
        live.net.shutdown();
        assert_partition_outcome_sane(&row, &t);
    }

    #[test]
    fn fault_plan_targets_the_bully_winner() {
        let t = MatrixTuning::default();
        let dep = deployment(&t);
        let booted = dep.boot_sim(1).expect("well-formed");
        let plan = fault_plan(&booted.topology, &t);
        // Highest peer id = last group node = the eventual coordinator.
        let victim = *booted.topology.group_nodes[0].last().unwrap();
        assert_eq!(
            plan.actions().first().map(|&(at, a)| (at, a)),
            Some((
                SimTime::ZERO + t.warmup,
                whisper_simnet::FaultAction::Crash(victim)
            ))
        );
    }
}

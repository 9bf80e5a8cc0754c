//! **Failover-latency sensitivity** — an ablation of the paper's §5
//! diagnosis. In the paper's design the multi-second worst-case RTT
//! decomposes into (1) failure detection (heartbeat period + failure
//! timeout), (2) the Bully answer timeout, and (3) the proxy's request
//! timeout before it re-binds, and this experiment sweeps each knob to
//! show which one buys the most. Since failover goes by notification —
//! the successor does not wait for an answer from the coordinator its
//! detector has just buried, and announces itself to the proxy — only (1)
//! is left on the path: the sweep now shows knobs (2) and (3) buying
//! nothing (they bound the fallback paths only: a higher peer that is not
//! suspected, a lost announcement), and detection tuning alone taking the
//! worst case from seconds to hundreds of milliseconds. And since a crash
//! is buried as soon as the transport reports its links closed, nothing of
//! (1) is left for the crash this experiment injects either: every profile
//! reads the same two 5 ms sweep steps (one to agree, one to answer; E2
//! reads the whole failover at about a millisecond). The detector knobs —
//! heartbeat period and failure timeout — now govern only faults that close
//! nothing (a partition, a silent or stalled host). EXPERIMENTS.md E9 keeps
//! the rows of the paper's design beside the new ones.

use crate::experiments::rtt::FailoverBreakdown;
use crate::Table;
use whisper::{BPeerActor, Booted, ClientActor, ScenarioWiring, StudentRegistry, WhisperMsg};
use whisper_election::BullyConfig;
use whisper_simnet::{SimDuration, SimNet};

type Rig = Booted<SimNet<WhisperMsg>>;

/// One tuning profile.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Label for the table.
    pub name: &'static str,
    /// Heartbeat beacon period.
    pub heartbeat_period: SimDuration,
    /// Failure-detector timeout.
    pub failure_timeout: SimDuration,
    /// Bully answer timeout.
    pub answer_timeout: SimDuration,
    /// Proxy request timeout before re-binding.
    pub request_timeout: SimDuration,
}

/// The sweep: the paper-era defaults, then each knob tightened alone, then
/// everything tightened.
pub fn profiles() -> Vec<Profile> {
    let paper = Profile {
        name: "paper-era defaults",
        heartbeat_period: SimDuration::from_millis(500),
        failure_timeout: SimDuration::from_millis(1500),
        answer_timeout: SimDuration::from_millis(1000),
        request_timeout: SimDuration::from_millis(2000),
    };
    vec![
        paper,
        Profile {
            name: "fast detection (hb 100 ms / to 300 ms)",
            heartbeat_period: SimDuration::from_millis(100),
            failure_timeout: SimDuration::from_millis(300),
            ..paper
        },
        Profile {
            name: "fast election (answer 200 ms)",
            answer_timeout: SimDuration::from_millis(200),
            ..paper
        },
        Profile {
            name: "fast re-bind (request to 500 ms)",
            request_timeout: SimDuration::from_millis(500),
            ..paper
        },
        Profile {
            name: "everything tightened",
            heartbeat_period: SimDuration::from_millis(100),
            failure_timeout: SimDuration::from_millis(300),
            answer_timeout: SimDuration::from_millis(200),
            request_timeout: SimDuration::from_millis(500),
        },
    ]
}

/// Builds the paper scenario with the profile's timeouts.
fn deployment(profile: Profile, bpeers: usize, seed: u64) -> Rig {
    let mut cfg = ScenarioWiring::student(bpeers);
    cfg.bpeer.heartbeat_period = profile.heartbeat_period;
    cfg.bpeer.failure_timeout = profile.failure_timeout;
    cfg.bpeer.bully = BullyConfig {
        answer_timeout: profile.answer_timeout,
        coordinator_timeout: profile.answer_timeout.saturating_mul(2),
        ..BullyConfig::default()
    };
    cfg.proxy.request_timeout = profile.request_timeout;
    cfg.boot_sim(seed).expect("valid deployment")
}

/// Measures the failover breakdown under one profile (same protocol as
/// [`rtt::failover_breakdown`](crate::experiments::rtt::failover_breakdown)).
pub fn measure(profile: Profile, bpeers: usize, seed: u64) -> FailoverBreakdown {
    let mut rig = deployment(profile, bpeers, seed);
    rig.net.run_for(SimDuration::from_secs(3));
    let client = rig.topology.clients[0];
    rig.submit_from(client, StudentRegistry::request("u1000"));
    rig.net.run_for(SimDuration::from_secs(1));

    let crash_at = rig.net.now();
    rig.kill_coordinator(0).expect("coordinator exists");
    rig.submit_from(client, StudentRegistry::request("u1001"));

    let elected_at = loop {
        rig.net.run_for(SimDuration::from_millis(5));
        let agreed = rig.topology.group_nodes[0]
            .iter()
            .filter(|&&n| rig.net.is_up(n))
            .all(|&n| {
                rig.net
                    .node::<BPeerActor>(n)
                    .coordinator()
                    .is_some_and(|c| {
                        rig.topology
                            .directory
                            .node_of(c)
                            .is_some_and(|cn| rig.net.is_up(cn))
                    })
            });
        if agreed {
            break rig.net.now();
        }
        assert!(
            rig.net.now().since(crash_at) < SimDuration::from_secs(60),
            "election never converged under {:?}",
            profile.name
        );
    };
    let answered_at = loop {
        rig.net.run_for(SimDuration::from_millis(5));
        if rig.net.node::<ClientActor>(client).stats().completed == 2 {
            break rig.net.now();
        }
        assert!(
            rig.net.now().since(crash_at) < SimDuration::from_secs(60),
            "failover request never completed under {:?}",
            profile.name
        );
    };
    FailoverBreakdown {
        detect_and_elect: elected_at.since(crash_at),
        rebind: answered_at.since(elected_at),
        total: answered_at.since(crash_at),
    }
}

/// Runs the sweep.
pub fn run_sweep(bpeers: usize, seed: u64) -> Vec<(Profile, FailoverBreakdown)> {
    profiles()
        .into_iter()
        .map(|p| (p, measure(p, bpeers, seed)))
        .collect()
}

/// Renders the sweep.
pub fn table(rows: &[(Profile, FailoverBreakdown)]) -> Table {
    let mut t = Table::new(
        "failover_sensitivity",
        &["profile", "detect+elect ms", "re-bind ms", "total ms"],
    );
    for (p, b) in rows {
        t.row([
            p.name.to_string(),
            crate::table::ms(b.detect_and_elect),
            crate::table::ms(b.rebind),
            crate::table::ms(b.total),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Older than the transport-speed burial, this test's name states what
    /// the knobs bought a crash when detection waited on them. Now a crash
    /// is buried when its links close, so no knob is on its path: every
    /// profile's crash total is within a hop of the others', read at the
    /// sweep's 5 ms steps (one to agree, one to answer), far below any
    /// profile's beacon period.
    #[test]
    fn tightened_profile_is_dramatically_faster_than_paper_defaults() {
        let all = run_sweep(3, 19);
        let hop = SimDuration::from_millis(5);
        let totals: Vec<SimDuration> = all.iter().map(|(_, b)| b.total).collect();
        let (fastest, slowest) = (
            *totals.iter().min().expect("non-empty"),
            *totals.iter().max().expect("non-empty"),
        );
        assert!(
            slowest <= fastest + hop,
            "a knob moved a crash's failover: {totals:?}"
        );
        for (p, b) in &all {
            assert!(
                b.total <= hop + hop && b.total < p.heartbeat_period,
                "{:?} should take two sweep steps, not a beacon period: {}",
                p.name,
                b.total
            );
        }
    }

    #[test]
    fn each_single_knob_helps() {
        let all = run_sweep(3, 23);
        let paper_total = all[0].1.total;
        for (p, b) in &all[1..4] {
            assert!(
                b.total <= paper_total,
                "profile {:?} should not be slower than defaults: {} vs {}",
                p.name,
                b.total,
                paper_total
            );
        }
    }
}

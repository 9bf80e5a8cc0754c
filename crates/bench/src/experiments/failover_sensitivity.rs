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
//! is noticed by its closed links, what is left of (1) for the crash this
//! experiment injects is one heartbeat period: the failure timeout bounds
//! only failures that close nothing (a partition, a silent host).
//! EXPERIMENTS.md E9 keeps the rows of the paper's design beside the new
//! ones.

use crate::experiments::rtt::FailoverBreakdown;
use crate::Table;
use whisper::{DeploymentConfig, GroupSpec, ServiceBackend, StudentRegistry, WhisperNet};
use whisper_election::BullyConfig;
use whisper_simnet::SimDuration;

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
fn deployment(profile: Profile, bpeers: usize, seed: u64) -> WhisperNet {
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample op")
        .clone();
    let backends: Vec<Box<dyn ServiceBackend>> = (0..bpeers)
        .map(|i| -> Box<dyn ServiceBackend> {
            if i % 2 == 0 {
                Box::new(StudentRegistry::operational_db().with_sample_data())
            } else {
                Box::new(StudentRegistry::data_warehouse().with_sample_data())
            }
        })
        .collect();
    let mut cfg = DeploymentConfig {
        seed,
        service,
        groups: vec![GroupSpec::from_operation("StudentInfoGroup", &op, backends)],
        ..DeploymentConfig::default()
    };
    cfg.bpeer.heartbeat_period = profile.heartbeat_period;
    cfg.bpeer.failure_timeout = profile.failure_timeout;
    cfg.bpeer.bully = BullyConfig {
        answer_timeout: profile.answer_timeout,
        coordinator_timeout: profile.answer_timeout.saturating_mul(2),
        ..BullyConfig::default()
    };
    cfg.proxy.request_timeout = profile.request_timeout;
    WhisperNet::build(cfg).expect("valid deployment")
}

/// Measures the failover breakdown under one profile (same protocol as
/// [`rtt::failover_breakdown`](crate::experiments::rtt::failover_breakdown)).
pub fn measure(profile: Profile, bpeers: usize, seed: u64) -> FailoverBreakdown {
    let mut net = deployment(profile, bpeers, seed);
    net.run_for(SimDuration::from_secs(3));
    let client = net.client_ids()[0];
    net.submit_student_request(client, "u1000");
    net.run_for(SimDuration::from_secs(1));

    let crash_at = net.now();
    net.kill_coordinator(0).expect("coordinator exists");
    net.submit_student_request(client, "u1001");

    let elected_at = loop {
        net.run_for(SimDuration::from_millis(5));
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
            "election never converged under {:?}",
            profile.name
        );
    };
    let answered_at = loop {
        net.run_for(SimDuration::from_millis(5));
        if net.client_stats(client).completed == 2 {
            break net.now();
        }
        assert!(
            net.now().since(crash_at) < SimDuration::from_secs(60),
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

    #[test]
    fn tightened_profile_is_dramatically_faster_than_paper_defaults() {
        let all = run_sweep(3, 19);
        let paper = &all[0].1;
        let tight = &all.last().expect("non-empty").1;
        // a crash is noticed by its closed links and confirmed by one
        // silent beacon period — 500 ms of the paper-era defaults, no
        // longer their seconds
        assert!(
            paper.total >= all[0].0.heartbeat_period && paper.total < all[0].0.failure_timeout,
            "paper defaults should take one beacon period: {}",
            paper.total
        );
        assert!(
            tight.total.as_millis_f64() < paper.total.as_millis_f64() / 3.0,
            "tightened profile should be at least 3x faster: {} vs {}",
            tight.total,
            paper.total
        );
        assert!(
            tight.total.as_millis_f64() < 1_500.0,
            "tightened failover should be sub-1.5 s: {}",
            tight.total
        );
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

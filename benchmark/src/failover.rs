//! The `tcp-failover` workload: requests offered on a fixed schedule while
//! the coordinator is killed and restarted, round after round.
//!
//! One round: scope-poll until all b-peers agree on a coordinator, wait a
//! seeded offset (so kills land anywhere in the heartbeat phase), kill the
//! coordinator, watch the survivors with 20 ms scope polls until they agree
//! on a successor, wait until the proxy's request timeout has certainly
//! re-bound, restart the killed node, poll until all three agree again.
//! The generator never stops: requests due while no coordinator exists are
//! sent, timed from their due time, and counted.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::{agreed_coordinator, Cluster};
use crate::generator::{process_cpu_us, Command, Completion, PhaseLog};
use crate::inputs::{Inputs, Verdict};
use crate::report::Report;
use crate::stats::{median, percentile_sorted};
use crate::steady::{record_boots, SteadyOutcome, Tally};
use crate::workload::{Load, Watching, Workload, REQUEST_TIMEOUT_MS};

/// Open-loop warm-up before the first kill.
const WARM_UP: Duration = Duration::from_millis(1000);

/// After a kill, the killed node stays down until the proxy's request
/// timeout has re-bound the first request, plus this much. Requests sent
/// to the dead coordinator before that re-bind keep timing out for one
/// more request timeout; the next kill must come after the last of them,
/// or its outage would be cut short by a leftover of this one.
const DOWN_AFTER_REBIND: Duration = Duration::from_millis(REQUEST_TIMEOUT_MS);

/// What a round is expected to take: decides how many fit in `--seconds`.
const ROUND_ESTIMATE: Duration = Duration::from_millis(REQUEST_TIMEOUT_MS + 1600);

/// A response this late after its due time does not count as goodput: the
/// caller of a 0.3 ms service has given up.
pub const GOODPUT_LIMIT: Duration = Duration::from_millis(50);

/// Recovered service is called steady this long after the first good
/// answer (the requests parked during the outage drain in between).
const STEADY_AFTER_RECOVERY_NS: u64 = 100_000_000;

/// Steady service is cut into slices of this length; each slice's median
/// latency is one value of `client.steady_p50_us`.
const STEADY_SLICE_NS: u64 = 250_000_000;

/// Fewest requests a steady slice must hold for its median to count.
const STEADY_SLICE_MIN: usize = 20;

/// Most rounds a run can hold (kill offsets are drawn for this many).
pub const MAX_ROUNDS: usize = 64;

/// Pause between two scope polls of the survivors.
const WATCH_EVERY: Duration = Duration::from_millis(20);

/// One kill as the driver saw it.
#[derive(Debug, Clone, Copy)]
struct Kill {
    at: Instant,
    cpu_us: u64,
    /// Kill → first survivor shows it noticed (a new election, or another
    /// coordinator), ms.
    detect_ms: Option<f64>,
    /// Kill → both survivors name the same new coordinator, ms.
    agreed_ms: Option<f64>,
}

/// Per-kill and per-round readings taken from the completion log.
#[derive(Debug, Default, PartialEq)]
pub struct RoundStats {
    /// Per kill: first good response to a request due at or after the
    /// kill, minus the kill time, ms. `None`: service never came back
    /// before the next kill.
    pub outage_ms: Vec<Option<f64>>,
    /// Per kill: median latency, from the due time, of the good responses
    /// to requests due inside the outage, µs — what a caller caught by
    /// the failover waited.
    pub caught_p50_us: Vec<f64>,
    /// Per 250 ms slice of steady service (before the first kill, and from
    /// recovery to the next kill): median latency from the due time, µs.
    pub steady_p50_us: Vec<f64>,
    /// Per round (kill to next kill): good responses within
    /// [`GOODPUT_LIMIT`] of their due time, per second.
    pub goodput_rps: Vec<f64>,
    /// Per round: good responses, whatever their latency.
    pub good: Vec<u64>,
    /// Requests due inside an outage that were answered badly.
    pub failed_in_outage: u64,
}

/// Reads outages, steady latency and goodput off a completion log.
/// `kills_ns` are kill times and `end_ns` the end of the offered load, all
/// as offsets on the log's clock; `steady_from_ns` is where the warm-up
/// ends.
pub fn round_stats(
    completions: &[Completion],
    steady_from_ns: u64,
    kills_ns: &[u64],
    end_ns: u64,
) -> RoundStats {
    let mut stats = RoundStats::default();
    let good_in = |from: u64, to: u64| {
        completions
            .iter()
            .filter(move |c| c.verdict == Verdict::Good && c.due_ns >= from && c.due_ns < to)
    };
    let mut steady: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut add_steady = |from: u64, to: u64| {
        for c in good_in(from, to) {
            steady
                .entry(c.due_ns / STEADY_SLICE_NS)
                .or_default()
                .push(c.latency_ns());
        }
    };
    if let Some(&first) = kills_ns.first() {
        add_steady(steady_from_ns, first);
    }
    for (i, &kill) in kills_ns.iter().enumerate() {
        let next = kills_ns.get(i + 1).copied().unwrap_or(end_ns);
        let recovered = good_in(kill, next).map(|c| c.done_ns).min();
        stats
            .outage_ms
            .push(recovered.map(|done| done.saturating_sub(kill) as f64 / 1e6));
        let outage_end = recovered.unwrap_or(next);
        let mut caught: Vec<u64> = good_in(kill, outage_end).map(|c| c.latency_ns()).collect();
        if !caught.is_empty() {
            caught.sort_unstable();
            stats
                .caught_p50_us
                .push(percentile_sorted(&caught, 50.0) / 1e3);
        }
        stats.failed_in_outage += completions
            .iter()
            .filter(|c| c.verdict != Verdict::Good && c.due_ns >= kill && c.due_ns < outage_end)
            .count() as u64;
        add_steady(outage_end + STEADY_AFTER_RECOVERY_NS, next);
        let timely = good_in(kill, next)
            .filter(|c| c.latency_ns() <= GOODPUT_LIMIT.as_nanos() as u64)
            .count();
        stats
            .goodput_rps
            .push(timely as f64 / ((next - kill) as f64 / 1e9));
        stats.good.push(good_in(kill, next).count() as u64);
    }
    for mut latencies in steady.into_values() {
        if latencies.len() >= STEADY_SLICE_MIN {
            latencies.sort_unstable();
            stats
                .steady_p50_us
                .push(percentile_sorted(&latencies, 50.0) / 1e3);
        }
    }
    stats
}

/// Runs the failover workload for about `seconds` and fills `report`.
pub fn run(
    workload: &Workload,
    inputs: &Arc<Inputs>,
    seconds: f64,
    report: &mut Report,
) -> SteadyOutcome {
    let Load::OpenWithKills { rate } = workload.load else {
        unreachable!("failover::run is for the open-loop workload");
    };
    // boots back to back; the rounds run on the last deployment
    let mut boots = Vec::with_capacity(workload.boots);
    let mut cluster = loop {
        let (cluster, times) = Cluster::boot(workload, inputs, inputs.seed, Watching::default());
        report.attempted += 1; // the cold request; boot panics unless it was good
        boots.push(times);
        if boots.len() >= workload.boots {
            break cluster;
        }
        cluster.shutdown();
    };
    record_boots(report, &boots, workload.net);
    let bpeers = cluster.topology.all_bpeers();
    let down_for = Duration::from_millis(REQUEST_TIMEOUT_MS) + DOWN_AFTER_REBIND;

    let net_before = cluster.net_metrics();
    let offered_from = Instant::now();
    cluster.command(Command::Open { rate });
    std::thread::sleep(WARM_UP.min(Duration::from_secs_f64(seconds / 4.0)));
    let steady_from = Instant::now();

    let mut kills: Vec<Kill> = Vec::new();
    while kills.is_empty()
        || (kills.len() < MAX_ROUNDS
            && (offered_from.elapsed() + ROUND_ESTIMATE).as_secs_f64() <= seconds)
    {
        let coordinator = cluster
            .await_agreement(&bpeers, Duration::from_secs(15))
            .expect("all b-peers agree on a coordinator before a kill");
        let victim = *bpeers
            .iter()
            .find(|n| cluster.topology.peer_of(**n).value() == coordinator)
            .expect("the coordinator is one of the b-peers");
        let survivors: Vec<_> = bpeers.iter().copied().filter(|n| *n != victim).collect();
        let elections_before: u64 = started_elections(&cluster.poll(&survivors));
        std::thread::sleep(Duration::from_micros(inputs.kill_offsets_us[kills.len()]));

        let cpu_us = process_cpu_us();
        cluster.kill(victim);
        let mut kill = Kill {
            at: Instant::now(),
            cpu_us,
            detect_ms: None,
            agreed_ms: None,
        };
        while kill.agreed_ms.is_none() && kill.at.elapsed() < down_for {
            std::thread::sleep(WATCH_EVERY);
            let snaps = cluster.poll(&survivors);
            let seen_ms = kill.at.elapsed().as_secs_f64() * 1e3;
            let successor = agreed_coordinator(&snaps).filter(|c| *c != coordinator);
            let noticed = started_elections(&snaps) > elections_before
                || snaps
                    .iter()
                    .any(|(_, s)| s.coordinator() != Some(coordinator));
            if noticed && kill.detect_ms.is_none() {
                kill.detect_ms = Some(seen_ms);
            }
            if successor.is_some() && snaps.len() == survivors.len() {
                kill.agreed_ms = Some(seen_ms);
            }
        }
        std::thread::sleep(down_for.saturating_sub(kill.at.elapsed()));
        cluster.restart(victim);
        kills.push(kill);
    }
    // the last restarted node rejoins before the load stops, like the others
    cluster
        .await_agreement(&bpeers, Duration::from_secs(15))
        .expect("all b-peers agree again after the last restart");
    let end = Instant::now();
    let end_cpu_us = process_cpu_us();
    cluster.command(Command::Stop);
    let log: PhaseLog = cluster.await_log(Duration::from_secs(30));
    report.count(&log);

    let offset = |t: Instant| t.saturating_duration_since(log.started).as_nanos() as u64;
    let kills_ns: Vec<u64> = kills.iter().map(|k| offset(k.at)).collect();
    let stats = round_stats(
        &log.completions,
        offset(steady_from),
        &kills_ns,
        offset(end),
    );

    let outages: Vec<f64> = stats.outage_ms.iter().flatten().copied().collect();
    assert!(
        outages.len() == kills.len(),
        "service did not come back after every kill: {:?}",
        stats.outage_ms
    );
    for (i, (kill, outage)) in kills.iter().zip(&outages).enumerate() {
        println!(
            "kill {} at {:.3} s: noticed after {:.0} ms, successor agreed after {:.0} ms, \
             first good answer after {outage:.1} ms",
            i + 1,
            kills_ns[i] as f64 / 1e9,
            kill.detect_ms.unwrap_or(f64::NAN),
            kill.agreed_ms.unwrap_or(f64::NAN),
        );
    }
    report.set("outage_ms", &outages);
    report.set("lat_p50_us", &stats.caught_p50_us);
    report.set("client.steady_p50_us", &stats.steady_p50_us);
    report.set("goodput_rps", &stats.goodput_rps);
    let cpu_marks: Vec<u64> = kills.iter().map(|k| k.cpu_us).chain([end_cpu_us]).collect();
    let cpu_per_req: Vec<f64> = cpu_marks
        .windows(2)
        .zip(&stats.good)
        .filter(|(_, good)| **good > 0)
        .map(|(pair, good)| (pair[1] - pair[0]) as f64 / *good as f64)
        .collect();
    report.set("client.cpu_us_per_req", &cpu_per_req);
    let busy = (end_cpu_us - kills[0].cpu_us) as f64
        / ((end - kills[0].at).as_micros() as f64 * crate::report::nproc() as f64);
    report.set_one("client.cpu_busy_share", 100.0 * busy);

    // kill → noticed → successor agreed → proxy re-bound: three stretches
    // that add up to the outage
    let detect: Vec<f64> = kills.iter().filter_map(|k| k.detect_ms).collect();
    let settle: Vec<f64> = kills
        .iter()
        .filter_map(|k| Some(k.agreed_ms? - k.detect_ms?))
        .collect();
    let rebind: Vec<f64> = kills
        .iter()
        .zip(&outages)
        .filter_map(|(k, outage)| Some(outage - k.agreed_ms?))
        .collect();
    report.set("core.detect_ms", &detect);
    report.set("election.settle_ms", &settle);
    report.set("core.rebind_ms", &rebind);

    let mut late = log.late_ns.clone();
    late.sort_unstable();
    report.set_one(
        "client.gen_late_p99_us",
        percentile_sorted(&late, 99.0) / 1e3,
    );
    report.set_one(
        "client.failed_in_outage",
        (stats.failed_in_outage + log.unanswered) as f64,
    );
    report.set_one(
        "client.fail_share",
        100.0 * report.failed as f64 / report.attempted.max(1) as f64,
    );

    let advertisement = cluster.topology.group_advs[0].clone();
    let mut tally = Tally::default();
    tally.close(cluster, &net_before, stats.good.iter().sum());
    tally.record(report);
    SteadyOutcome {
        sample_response: log
            .sample_response
            .expect("the failover run answers requests"),
        reference_rtt_us: median(&stats.steady_p50_us),
        advertisement,
    }
}

/// Elections the answering nodes have started so far, summed.
fn started_elections(snaps: &[(whisper_simnet::NodeId, whisper_obs::NodeSnapshot)]) -> u64 {
    snaps
        .iter()
        .filter_map(|(_, s)| s.election.as_ref())
        .map(|e| e.elections_started)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// 500 rps for 10 s with kills at 2 s and 6 s; after a kill nothing is
    /// answered for 1.5 s, then everything parked is answered at once and
    /// service is 300 µs again.
    fn synthetic_log() -> Vec<Completion> {
        let kills = [2000 * MS, 6000 * MS];
        (0..5000u64)
            .map(|k| {
                let due_ns = k * 2 * MS;
                let blocked_until = kills
                    .iter()
                    .find(|&&kill| due_ns >= kill && due_ns < kill + 1500 * MS)
                    .map(|kill| kill + 1500 * MS);
                let done_ns = match blocked_until {
                    Some(t) => t + 40_000,
                    None => due_ns + 300_000,
                };
                Completion {
                    due_ns,
                    done_ns,
                    virt_us: 0,
                    verdict: Verdict::Good,
                }
            })
            .collect()
    }

    #[test]
    fn outage_is_first_good_answer_to_a_request_due_after_the_kill() {
        let log = synthetic_log();
        let stats = round_stats(&log, 1000 * MS, &[2000 * MS, 6000 * MS], 10_000 * MS);
        assert_eq!(stats.outage_ms, vec![Some(1500.04), Some(1500.04)]);
        // the requests caught by an outage waited between 1.5 s and nothing
        assert_eq!(stats.caught_p50_us, vec![750_040.0, 750_040.0]);
        // steady stretches (1 s before the first kill, 2.4 s after each
        // recovery) in 250 ms slices
        assert!(stats.steady_p50_us.len() >= 22, "{:?}", stats.steady_p50_us);
        assert!(stats.steady_p50_us.iter().all(|p50| *p50 == 300.0));
        // per 4 s round: 1.5 s of requests answered late, the last 24 of
        // them (due less than 50 ms before the answer) still within the
        // goodput limit
        let timely = (2000.0 - 750.0 + 24.0) / 4.0;
        assert_eq!(stats.goodput_rps, vec![timely, timely]);
        assert_eq!(stats.good, vec![2000, 2000]);
        assert_eq!(stats.failed_in_outage, 0);
    }

    #[test]
    fn requests_answered_before_the_kill_do_not_end_an_outage() {
        // a request due just before the kill is answered just after it:
        // that is not recovery
        let mut log = synthetic_log();
        log.push(Completion {
            due_ns: 2000 * MS - 1,
            done_ns: 2000 * MS + 5,
            virt_us: 0,
            verdict: Verdict::Good,
        });
        let stats = round_stats(&log, 1000 * MS, &[2000 * MS], 6000 * MS);
        assert_eq!(stats.outage_ms, vec![Some(1500.04)]);
    }

    #[test]
    fn a_kill_with_no_recovery_reads_as_none_and_faults_are_counted() {
        let mut log = synthetic_log();
        log.retain(|c| c.due_ns < 6000 * MS);
        log.push(Completion {
            due_ns: 6100 * MS,
            done_ns: 8100 * MS,
            virt_us: 0,
            verdict: Verdict::Fault,
        });
        let stats = round_stats(&log, 1000 * MS, &[2000 * MS, 6000 * MS], 10_000 * MS);
        assert_eq!(stats.outage_ms, vec![Some(1500.04), None]);
        assert_eq!(stats.failed_in_outage, 1);
        assert_eq!(stats.goodput_rps[1], 0.0);
    }
}

//! The closed-loop workloads (`tcp-small`, `tcp-large`, `sim-logic`):
//! boot, warm the binding, one timed phase per in-flight window, shut down
//! — several times over, so that every metric samples the whole run.
//!
//! Why several boots and not one long phase per window: the machine's
//! speed changes in stretches of seconds to minutes (see the README), so a
//! window measured only in the first half of a run and another only in
//! the second would each see half of it; and every boot moves to the next
//! processor in turn (see [`crate::affinity`]), so a neighbour that slows
//! one of them for a minute does not own the run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::affinity::Turns;
use crate::cluster::{BootTimes, Cluster};
use crate::generator::{Command, PhaseLog};
use crate::inputs::{Inputs, Verdict};
use crate::report::{nproc, Report};
use crate::stats::{median, percentile_sorted, slice_up, Summary};
use crate::workload::{Load, Net, Watching, Workload, REQUEST_TIMEOUT_MS};
use whisper_p2p::SemanticAdv;
use whisper_simnet::MetricsSnapshot;

/// Length of the slices a timed phase is cut into. Short, so that a run
/// holds hundreds and some of them fall into moments the machine was
/// quiet; not shorter, because process CPU time is counted in 10 ms ticks.
const SLICE: Duration = Duration::from_millis(50);

/// Closed-loop warm-up after a boot, before its first timed phase, on the
/// substrate's clock. It fills the match cache, the worker pools and the
/// allocator's free lists — and it outlasts the proxy's request timeout:
/// the proxy arms one timer per request and never cancels it, so a second
/// after load starts the stale timers begin to fire, one per request, and
/// the window-4 median steps up by a quarter on `tcp-small` (measured:
/// ≈ 260 µs in the first second of load, ≈ 330 µs from then on). Steady
/// state is the second regime; the warm-up runs through the first.
const WARM_UP_MS: f64 = (REQUEST_TIMEOUT_MS + 100) as f64;

/// Wall-clock length of one warm-up phase on the simulator, whose clock
/// runs an order of magnitude faster than the wall: phases are repeated
/// until [`WARM_UP_MS`] of virtual time have passed.
const SIM_WARM_UP_PHASE: Duration = Duration::from_millis(10);

/// Longest a phase may take to drain after it stopped sending.
const DRAIN_LIMIT: Duration = Duration::from_secs(15);

/// How many slices a phase of length `span` is cut into.
pub fn slices_in(span: Duration) -> usize {
    ((span.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(4)
}

/// Per-slice readings of one closed-loop phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Median latency of each slice, µs (wall clock).
    pub p50_us: Vec<f64>,
    /// 99th percentile latency of each slice, µs.
    pub p99_us: Vec<f64>,
    /// Median send→response time on the substrate's clock, µs.
    pub virt_p50_us: Vec<f64>,
    /// Good completions per wall second, per slice.
    pub goodput_rps: Vec<f64>,
    /// Process CPU per good completion between marks, µs.
    pub cpu_us_per_req: Vec<f64>,
    /// Process CPU over wall × processors between marks, percent.
    pub busy_share_pct: Vec<f64>,
}

impl PhaseStats {
    /// Pools the slices of another phase of the same window into these.
    pub fn append(&mut self, mut other: PhaseStats) {
        self.p50_us.append(&mut other.p50_us);
        self.p99_us.append(&mut other.p99_us);
        self.virt_p50_us.append(&mut other.virt_p50_us);
        self.goodput_rps.append(&mut other.goodput_rps);
        self.cpu_us_per_req.append(&mut other.cpu_us_per_req);
        self.busy_share_pct.append(&mut other.busy_share_pct);
    }
}

/// Cuts a closed-loop phase of length `span` into `slices` equal slices.
pub fn phase_stats(log: &PhaseLog, span: Duration, slices: usize) -> PhaseStats {
    let span_ns = span.as_nanos() as u64;
    let slice_s = span.as_secs_f64() / slices as f64;
    let good = || {
        log.completions
            .iter()
            .filter(|c| c.verdict == Verdict::Good)
    };
    let mut stats = PhaseStats::default();
    let latencies = slice_up(good().map(|c| (c.done_ns, c.latency_ns())), span_ns, slices);
    for mut slice in latencies {
        slice.sort_unstable();
        stats.p50_us.push(percentile_sorted(&slice, 50.0) / 1e3);
        stats.p99_us.push(percentile_sorted(&slice, 99.0) / 1e3);
        stats.goodput_rps.push(slice.len() as f64 / slice_s);
    }
    let virtual_times = slice_up(good().map(|c| (c.done_ns, c.virt_us)), span_ns, slices);
    for mut slice in virtual_times {
        slice.sort_unstable();
        stats.virt_p50_us.push(percentile_sorted(&slice, 50.0));
    }
    // marks sit at the first completion past each slice boundary; the last
    // one (taken when the drain ended) is left out
    let marks = &log.marks[..log.marks.len().min(slices + 1)];
    for pair in marks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let cpu_us = b.cpu_us.saturating_sub(a.cpu_us) as f64;
        let done = b.good.saturating_sub(a.good);
        let wall_us = b.at_ns.saturating_sub(a.at_ns) as f64 / 1e3;
        if done > 0 && wall_us > 0.0 {
            stats.cpu_us_per_req.push(cpu_us / done as f64);
            stats
                .busy_share_pct
                .push(100.0 * cpu_us / (wall_us * nproc() as f64));
        }
    }
    stats
}

/// Records what the boots of a run cost: `setup_s`, the cold request
/// (`outage_ms` on the steady workloads) and the first election. A live
/// boot waits for timers and reports its median; a simulator boot is
/// computation on one thread and reports its quiet decile (see [`run`]).
pub fn record_boots(report: &mut Report, boots: &[BootTimes], net: Net) {
    let of = |f: fn(&BootTimes) -> f64| boots.iter().map(f).collect::<Vec<f64>>();
    let setup = of(|t| t.setup.as_secs_f64());
    report.set_summary(
        "setup_s",
        match net {
            Net::Tcp => Summary::of(&setup),
            Net::Sim => Summary::quiet_cost(&setup),
        },
    );
    report.set("outage_ms", &of(|t| t.cold_ms));
    report.set("election.settle_ms", &of(|t| t.settle_ms));
}

/// What the transport, the proxy and the elections counted over the timed
/// parts of a run, summed over its deployments.
#[derive(Debug, Default)]
pub struct Tally {
    good: u64,
    sent: u64,
    bytes_sent: u64,
    flushes: u64,
    frames_coalesced: u64,
    backpressure_waits: u64,
    decode_errors: u64,
    discoveries: u64,
    rebinds: u64,
    faults: u64,
    elections: u64,
    election_msgs: u64,
}

impl Tally {
    /// Adds a deployment whose timed part began at `before` and answered
    /// `good` requests, and shuts it down.
    pub fn close(&mut self, mut cluster: Cluster, before: &MetricsSnapshot, good: u64) {
        let after = cluster.net_metrics();
        self.good += good;
        self.sent += after.sent - before.sent;
        self.bytes_sent += after.bytes_sent - before.bytes_sent;
        self.flushes += after.batch_flushes - before.batch_flushes;
        self.frames_coalesced += after.frames_coalesced - before.frames_coalesced;
        self.backpressure_waits += after.backpressure_waits - before.backpressure_waits;
        self.decode_errors += after.decode_errors - before.decode_errors;
        let bpeers = cluster.topology.all_bpeers();
        for (_, snapshot) in cluster.poll(&bpeers) {
            self.elections += snapshot
                .election
                .as_ref()
                .map_or(0, |e| e.elections_started);
            self.election_msgs += ["election", "election-answer", "coordinator"]
                .iter()
                .map(|kind| snapshot.sent.sent_of_kind(kind))
                .sum::<u64>();
        }
        let proxy = cluster.shutdown();
        self.discoveries += proxy.discoveries;
        self.rebinds += proxy.rebinds;
        self.faults += proxy.faults_generated;
    }

    /// Writes the sums into `report`.
    pub fn record(&self, report: &mut Report) {
        let per_req = |count: u64| count as f64 / self.good.max(1) as f64;
        report.set_one("simnet.msgs_per_req", per_req(self.sent));
        report.set_one("simnet.bytes_per_req", per_req(self.bytes_sent));
        report.set_one(
            "simnet.frames_per_flush",
            self.frames_coalesced as f64 / self.flushes.max(1) as f64,
        );
        report.set_one("simnet.backpressure_waits", self.backpressure_waits as f64);
        report.set_one("simnet.decode_errors", self.decode_errors as f64);
        report.set_one("core.proxy_discoveries", self.discoveries as f64);
        report.set_one("core.proxy_rebinds", self.rebinds as f64);
        report.set_one("core.proxy_faults", self.faults as f64);
        report.set_one("election.started", self.elections as f64);
        report.set_one(
            "election.msgs_per_election",
            self.election_msgs as f64 / self.elections.max(1) as f64,
        );
    }
}

/// What a workload run hands to the per-layer stage of a traced run.
pub struct SteadyOutcome {
    /// One good response envelope of this workload.
    pub sample_response: String,
    /// The reference round trip the replay's path sum is compared with:
    /// the window-1 median on TCP, wall time per request on the simulator.
    pub reference_rtt_us: f64,
    /// The semantic advertisement the b-peer group published.
    pub advertisement: SemanticAdv,
}

/// Runs a closed-loop workload for `seconds` of timed phases, spread
/// evenly over `workload.boots` deployments, and fills `report`. With
/// `traced`, the window-1 phase is added.
pub fn run(
    workload: &Workload,
    inputs: &Arc<Inputs>,
    seconds: f64,
    traced: bool,
    turns: &mut Turns,
    report: &mut Report,
) -> SteadyOutcome {
    let Load::Closed {
        windows,
        traced_windows,
    } = workload.load
    else {
        unreachable!("steady::run is for closed-loop workloads");
    };
    let windows = if traced { traced_windows } else { windows };
    let span = Duration::from_secs_f64(seconds / (workload.boots * windows.len()) as f64);
    let slices = slices_in(span);

    let mut boots = Vec::with_capacity(workload.boots);
    let mut per_window: Vec<PhaseStats> = windows.iter().map(|_| PhaseStats::default()).collect();
    let mut tally = Tally::default();
    let mut sample_response = None;
    let mut advertisement = None;
    let mut sim_events = 0u64;
    let mut timed_wall = 0.0;
    for boot in 0..workload.boots as u64 {
        // a distinct simulator seed per boot: the cold path's jitter
        // draws differ, as they do between boots of a live cluster
        let sim_seed = inputs.seed.wrapping_mul(1000).wrapping_add(boot);
        turns.next();
        let (mut cluster, times) = Cluster::boot(workload, inputs, sim_seed, Watching::default());
        report.attempted += 1; // the cold request; boot panics unless it was good
        boots.push(times);
        let warm_until = cluster.clock_ms() + WARM_UP_MS;
        while cluster.clock_ms() < warm_until {
            let left = Duration::from_secs_f64((warm_until - cluster.clock_ms()) / 1e3);
            let warm = cluster.run_phase(
                Command::Closed {
                    window: 4,
                    duration: match workload.net {
                        Net::Tcp => left,
                        Net::Sim => SIM_WARM_UP_PHASE,
                    },
                    marks: 1,
                },
                left + DRAIN_LIMIT,
            );
            report.count(&warm);
        }

        let net_before = cluster.net_metrics();
        let events_before = cluster.sim_events;
        let timed_from = Instant::now();
        let mut good = 0;
        for (stats, &window) in per_window.iter_mut().zip(windows) {
            let log = cluster.run_phase(
                Command::Closed {
                    window,
                    duration: span,
                    marks: slices,
                },
                span + DRAIN_LIMIT,
            );
            report.count(&log);
            good += log.good();
            stats.append(phase_stats(&log, span, slices));
            sample_response = sample_response.or(log.sample_response);
        }
        timed_wall += timed_from.elapsed().as_secs_f64();
        sim_events += cluster.sim_events - events_before;
        advertisement = Some(cluster.topology.group_advs[0].clone());
        tally.close(cluster, &net_before, good);
    }
    record_boots(report, &boots, workload.net);
    tally.record(report);

    // The run is bound to one processor (see `affinity`), so whether one
    // thread computes (the simulator) or a dozen take turns (the live
    // runtime), other tenants of the machine only ever slow it down: its
    // speed is the speed of the quietest slices.
    let cost = Summary::quiet_cost;
    let rate = Summary::quiet_rate;
    let mut reference_rtt_us = 0.0;
    for (stats, &window) in per_window.iter().zip(windows) {
        match window {
            1 => {
                report.set_summary("client.rtt_w1_p50_us", cost(&stats.p50_us));
                report.set("client.rtt_w1_p99_us", &stats.p99_us);
                reference_rtt_us = median(&stats.p50_us);
            }
            4 => {
                report.set_summary("lat_p50_us", cost(&stats.p50_us));
                report.set("client.lat_w4_p99_us", &stats.p99_us);
            }
            16 => {
                report.set_summary("client.lat_w16_p50_us", cost(&stats.p50_us));
                report.set("client.lat_w16_p99_us", &stats.p99_us);
            }
            _ => {}
        }
    }
    // goodput and CPU come from the widest window: the phase that keeps
    // both processors busy
    let last = per_window.last().expect("at least one window");
    report.set_summary("goodput_rps", rate(&last.goodput_rps));
    report.set_summary("client.cpu_us_per_req", cost(&last.cpu_us_per_req));
    report.set("client.cpu_busy_share", &last.busy_share_pct);
    if workload.net == Net::Sim {
        report.set("simnet.virtual_lat_p50_us", &last.virt_p50_us);
        report.set_one("simnet.engine_events_per_s", sim_events as f64 / timed_wall);
        // one thread: wall time per request is the whole cost of a request
        reference_rtt_us = 1e6 / rate(&last.goodput_rps).value.max(1.0);
    }
    report.set_one(
        "client.fail_share",
        100.0 * report.failed as f64 / report.attempted.max(1) as f64,
    );
    SteadyOutcome {
        sample_response: sample_response.expect("a timed run answers at least one request"),
        reference_rtt_us,
        advertisement: advertisement.expect("at least one boot"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Completion, Mark};

    fn log_of(completions: Vec<Completion>, marks: Vec<Mark>) -> PhaseLog {
        PhaseLog {
            started: Instant::now(),
            issued: completions.len() as u64,
            completions,
            unanswered: 0,
            duplicates: 0,
            late_ns: Vec::new(),
            marks,
            sample_response: None,
        }
    }

    #[test]
    fn phase_stats_are_per_slice() {
        // 8 slices of 1 ms; slice i holds i+1 completions of latency
        // (i+1)*10 µs, so every per-slice value is known
        let span = Duration::from_millis(8);
        let mut completions = Vec::new();
        let mut marks = vec![Mark {
            at_ns: 0,
            cpu_us: 0,
            good: 0,
        }];
        let mut good = 0;
        for i in 0..8u64 {
            for j in 0..=i {
                let done_ns = i * 1_000_000 + 100_000 + j;
                completions.push(Completion {
                    due_ns: done_ns - (i + 1) * 10_000,
                    done_ns,
                    virt_us: 7,
                    verdict: Verdict::Good,
                });
                good += 1;
            }
            marks.push(Mark {
                at_ns: (i + 1) * 1_000_000,
                cpu_us: (i + 1) * 1_500,
                good,
            });
        }
        // a straggler after the close and a fault: neither is a good sample
        completions.push(Completion {
            due_ns: 0,
            done_ns: 9_000_000,
            virt_us: 7,
            verdict: Verdict::Good,
        });
        completions.push(Completion {
            due_ns: 0,
            done_ns: 500_000,
            virt_us: 7,
            verdict: Verdict::Fault,
        });
        let stats = phase_stats(&log_of(completions, marks), span, 8);
        assert_eq!(slices_in(Duration::from_millis(2400)), 48);
        let expect_p50: Vec<f64> = (1..=8).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(stats.p50_us, expect_p50);
        let expect_rps: Vec<f64> = (1..=8).map(|i| f64::from(i) * 1000.0).collect();
        assert_eq!(stats.goodput_rps, expect_rps);
        assert_eq!(stats.virt_p50_us, vec![7.0; 8]);
        // 1500 µs of CPU per mark interval, i+1 completions in it
        assert_eq!(stats.cpu_us_per_req.len(), 8);
        assert_eq!(stats.cpu_us_per_req[0], 1500.0);
        assert_eq!(stats.cpu_us_per_req[2], 500.0);
    }
}

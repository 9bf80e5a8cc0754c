//! **Chaos soak (E17)** — gray-failure injection against the fail-slow-aware
//! resilience layer, end to end on the wall-clock substrates.
//!
//! The earlier fault experiments kill nodes outright; real B2B outages are
//! mostly *gray*: lossy links, duplicated frames, a coordinator that still
//! answers but ten times slower. This soak arms the chaos plane
//! ([`FaultAction::Degrade`]/[`FaultAction::Stall`]/[`FaultAction::Slow`])
//! on every interior link of a live deployment while a driver injects a
//! steady request stream, and then checks the properties the resilience
//! layer promises:
//!
//! 1. **Exactly-once** — every injected request id is answered exactly
//!    once at the edge, however many copies the chaos plane manufactured
//!    inside (the proxy absorbs surplus replies and counts them).
//! 2. **Goodput floor** — under 5 % loss plus a doubled round trip the
//!    non-fault completion rate stays above [`ChaosTuning::goodput_floor`].
//! 3. **Gray visibility** — every injected gray action surfaces in the
//!    flight recorder, and the availability ledger never books the gray
//!    period as downtime (the service stayed up, just degraded).
//!
//! The companion [`race`] measures *why* the fail-slow detector exists: it
//! times recovery through the crash detector's own path (heartbeat
//! timeout → re-election → re-bind) against recovery after the same
//! coordinator turns fail-slow (latency-EWMA trip → delegated bypass, no
//! election), on the same substrate with the same timeouts. The crash
//! detector's leg cuts the coordinator off instead of killing it: a gray
//! peer closes no link, so the heartbeat timeout — not the link evidence
//! a kill leaves behind — is what it would otherwise have to wait for.
//!
//! The driver↔proxy edge stays pristine on purpose: answers must be
//! observable to be countable, so chaos is confined to the proxy↔b-peer
//! and b-peer↔b-peer links — exactly the links a real integration cannot
//! see into.

use crate::cluster::{marked_envelope, marker, student_wiring, ClusterTuning};
use crate::Table;
use whisper::{Booted, EchoBackend, ProxyConfig, ScenarioWiring, WhisperMsg};
use whisper_obs::{AvailabilityLedger, FlightEventKind, Recorder};
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{DegradeSpec, FaultAction, FaultPlan, NodeId, SimDuration, Substrate};
use whisper_soap::Envelope;

/// Soak shape: request stream, gray-failure mix, and acceptance bars.
#[derive(Debug, Clone)]
pub struct ChaosTuning {
    /// Redundant b-peers in the group.
    pub peers: usize,
    /// Requests the driver injects over the soak.
    pub requests: u64,
    /// Clean requests before the gray plane arms (these also feed the
    /// fail-slow detector its healthy-latency baseline).
    pub warmup_requests: u64,
    /// Spacing between injected requests.
    pub gap: SimDuration,
    /// The gray spec applied to every interior link once armed.
    pub degrade: DegradeSpec,
    /// Mid-soak outbound freeze of the coordinator. Kept *below* the
    /// failure timeout: a stall this short must degrade, not trip the
    /// crash detector.
    pub stall: SimDuration,
    /// Mid-soak coordinator slowdown, in hundredths (5_100 = 51×: on the
    /// live substrates every message touching the node is held ~50 ms).
    pub slow_factor: u32,
    /// Proxy latency-EWMA threshold for demoting a fail-slow peer.
    pub fail_slow_after: SimDuration,
    /// Budget for draining the tail after the last injection.
    pub drain: SimDuration,
    /// Minimum acceptable non-fault completion rate.
    pub goodput_floor: f64,
    /// When set, replayed via [`Substrate::execute_plan`] at soak start
    /// *instead of* the built-in degrade/stall/slow schedule — the
    /// `whisper-chaos --plan <file>` path.
    pub plan: Option<FaultPlan>,
}

impl Default for ChaosTuning {
    /// 5 % loss, ~1 ms of added one-way latency (≈2× the healthy loopback
    /// round trip), a dash of duplication/reordering/corruption, one
    /// sub-timeout stall and one 51× coordinator slowdown — over 36
    /// requests at 60 ms spacing.
    fn default() -> Self {
        ChaosTuning {
            peers: 3,
            requests: 36,
            warmup_requests: 6,
            gap: SimDuration::from_millis(60),
            degrade: DegradeSpec {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_millis(1),
                loss_pct: 5,
                dup_pct: 3,
                reorder_pct: 2,
                corrupt_pct: 2,
            },
            stall: SimDuration::from_millis(200),
            slow_factor: 5_100,
            fail_slow_after: SimDuration::from_millis(25),
            drain: SimDuration::from_secs(20),
            goodput_floor: 0.9,
            plan: None,
        }
    }
}

/// What one substrate's soak delivered.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// `"sim"`, `"threadnet"` or `"tcp"`.
    pub substrate: &'static str,
    /// Requests injected.
    pub requests: u64,
    /// Distinct request ids answered at the edge.
    pub answered: u64,
    /// Request ids never answered (must be 0).
    pub lost: u64,
    /// Request ids answered more than once (must be 0).
    pub duplicated: u64,
    /// Answers that were SOAP faults.
    pub faults: u64,
    /// Non-fault completions / requests.
    pub goodput: f64,
    /// Fail-slow demotions the proxy performed.
    pub fail_slow_rebinds: u64,
    /// Surplus replies the proxy absorbed instead of forwarding.
    pub surplus_replies: u64,
    /// Corrupted frames counted (and survived) by the transport.
    pub decode_errors: u64,
    /// Gray fault events visible in the merged flight timeline.
    pub gray_faults_recorded: u64,
    /// Whether the ledger says the service was up when the books closed.
    pub ledger_up: bool,
    /// `link-lost` / `lost-confirmed` marks naming a node no `kill` mark
    /// precedes (must be 0: gray faults close no link).
    pub unowed_link_losses: u64,
}

impl SoakOutcome {
    /// The E17 acceptance bar for one substrate.
    pub fn accepted(&self, t: &ChaosTuning) -> bool {
        self.lost == 0
            && self.duplicated == 0
            && self.goodput >= t.goodput_floor
            && self.ledger_up
            && self.gray_faults_recorded > 0
            && self.unowed_link_losses == 0
    }
}

/// Crash-path vs fail-slow-path recovery on one substrate.
#[derive(Debug, Clone, Copy)]
pub struct RaceOutcome {
    /// `"sim"`, `"threadnet"` or `"tcp"`.
    pub substrate: &'static str,
    /// Fault → first fast answer when the crash detector has to do it:
    /// the coordinator goes silent with its links open (heartbeat timeout
    /// + re-election + re-bind).
    pub crash_recovery: SimDuration,
    /// Fault → first fast answer after the coordinator turns fail-slow
    /// (EWMA trip + delegated bypass; no election).
    pub fail_slow_recovery: SimDuration,
}

/// The deployment under chaos: echo replicas, fast failure detection, the
/// fail-slow detector armed, ledger + recorder + flight plane wired.
fn soak_wiring(t: &ChaosTuning) -> ScenarioWiring {
    let tuning = ClusterTuning {
        // Above the stall: a 200 ms outbound freeze must stay gray.
        failure_timeout: SimDuration::from_millis(400),
        ..ClusterTuning::default()
    };
    let mut wiring = student_wiring(t.peers, || Box::new(EchoBackend), tuning);
    wiring.proxy = ProxyConfig {
        request_timeout: SimDuration::from_millis(500),
        fail_slow_after: Some(t.fail_slow_after),
        // Longer than any soak: a demotion must stick to be observable.
        fail_slow_cooldown: SimDuration::from_secs(60),
        ..ProxyConfig::default()
    };
    wiring.recorder = Some(Recorder::new());
    wiring.ledger = Some(AvailabilityLedger::default());
    wiring.flight = Some(whisper_obs::flight::DEFAULT_RING_BYTES);
    wiring
}

/// Waits (in the substrate's own time) until every b-peer names the same
/// coordinator.
fn settle<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>) {
    assert!(
        rig.await_election(0, SimDuration::from_secs(30)),
        "boot election did not settle on {}",
        rig.net.name()
    );
}

/// Arms the built-in gray schedule action by action as the stream
/// progresses, or replays a custom plan, then drains and audits the books.
/// Generic over [`Substrate`], so the sim, threadnet and tcp legs run
/// literally the same code.
fn run_soak<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>, t: &ChaosTuning) -> SoakOutcome {
    settle(rig);
    let proxy = rig.topology.proxy;
    let bpeers = rig.topology.group_nodes[0].clone();
    let coordinator = *bpeers.last().expect("at least one b-peer");
    // Every interior link: proxy↔b-peer and b-peer↔b-peer.
    let mut interior: Vec<_> = bpeers.iter().map(|&b| (proxy, b)).collect();
    for (i, &a) in bpeers.iter().enumerate() {
        interior.extend(bpeers[i + 1..].iter().map(|&b| (a, b)));
    }

    if let Some(plan) = &t.plan {
        rig.net.execute_plan(plan);
    }
    let mut ids = Vec::with_capacity(t.requests as usize);
    for n in 1..=t.requests {
        if t.plan.is_none() {
            if n == t.warmup_requests + 1 {
                for &(a, b) in &interior {
                    rig.net.apply_action(FaultAction::Degrade(a, b, t.degrade));
                }
            }
            if n == t.requests / 3 {
                rig.net
                    .apply_action(FaultAction::Slow(coordinator, t.slow_factor));
            }
            if n == t.requests / 2 {
                rig.net
                    .apply_action(FaultAction::Stall(coordinator, t.stall));
            }
        }
        ids.push((n, rig.submit_envelope(marked_envelope(n))));
        rig.net.advance(t.gap);
    }

    // Heal the network, then drain the retried tail.
    if t.plan.is_none() {
        for &(a, b) in &interior {
            rig.net.apply_action(FaultAction::Restore(a, b));
        }
        rig.net.apply_action(FaultAction::Slow(coordinator, 100));
    }
    rig.await_answered(t.requests, t.drain);
    // One more beat so straggling duplicate copies (if any) land before
    // the books are audited.
    rig.net.advance(SimDuration::from_millis(100));

    let substrate = rig.net.name();
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut faults = 0u64;
    for (n, id) in ids {
        let Some(answer) = rig.response(id) else {
            lost += 1;
            continue;
        };
        duplicated += u64::from(answer.copies > 1);
        let parsed = Envelope::parse(&answer.envelope)
            .unwrap_or_else(|e| panic!("{substrate}: request {n}: bad envelope: {e:?}"));
        if parsed.is_fault() {
            faults += 1;
        } else {
            assert!(
                answer.envelope.contains(&marker(n)),
                "{substrate}: response for {n} does not carry its marker"
            );
        }
    }
    let goodput = (t.requests - lost - faults) as f64 / t.requests as f64;

    // The fault marks of the merged timeline, as (verb, rest).
    let timeline = rig.topology.flight.as_ref().map(|plane| plane.capture());
    let marks: Vec<(&str, &str)> = timeline
        .iter()
        .flat_map(|t| t.events())
        .filter_map(|e| match &e.kind {
            FlightEventKind::Fault { action } => action.split_once(' '),
            _ => None,
        })
        .collect();
    let gray = ["degrade", "restore", "stall", "slow", "decode-error"];
    let gray_faults_recorded = marks.iter().filter(|(v, _)| gray.contains(v)).count() as u64;
    let unowed_link_losses = marks
        .iter()
        .enumerate()
        .filter(|(i, (verb, node))| {
            ["link-lost", "lost-confirmed"].contains(verb)
                && !marks[..*i].contains(&("kill", *node))
        })
        .count() as u64;
    let ledger = rig.ledger.as_ref().expect("the soak wires a ledger");
    let ledger_up = ledger
        .service_report(rig.topology.group_ids[0].value(), rig.net.now())
        .map(|r| r.up)
        .unwrap_or(false);
    let recorder = rig.recorder.as_ref().expect("the soak wires a recorder");

    SoakOutcome {
        substrate,
        requests: t.requests,
        answered: t.requests - lost,
        lost,
        duplicated,
        faults,
        goodput,
        fail_slow_rebinds: recorder.counter("proxy.fail_slow_rebinds"),
        surplus_replies: recorder.counter("proxy.duplicate_responses"),
        decode_errors: rig.net.metrics_snapshot().decode_errors,
        gray_faults_recorded,
        ledger_up,
        unowed_link_losses,
    }
}

/// The soak on OS threads, chaos RNG seeded for reproducibility.
pub fn run_soak_threadnet(t: &ChaosTuning, seed: u64) -> SoakOutcome {
    let mut builder = ThreadNetBuilder::new();
    builder.set_chaos_seed(seed);
    let mut rig = soak_wiring(t)
        .boot(builder, |b| Ok(b.start()))
        .expect("the chaos scenario is well-formed");
    let out = run_soak(&mut rig, t);
    rig.net.shutdown();
    out
}

/// The soak on real TCP loopback sockets, chaos RNG seeded.
pub fn run_soak_tcp(t: &ChaosTuning, seed: u64) -> SoakOutcome {
    let mut builder = TcpNetBuilder::new();
    builder.set_chaos_seed(seed);
    let mut rig = soak_wiring(t)
        .boot(builder, TcpNetBuilder::start)
        .expect("loopback sockets");
    let out = run_soak(&mut rig, t);
    rig.net.shutdown();
    out
}

/// The fault injected at the start of one race leg.
#[derive(Debug, Clone, Copy)]
enum RaceLeg {
    /// Cut off from every other node, process and sockets untouched.
    Silent,
    FailSlow(u32),
}

/// Runs one leg: prime the binding and the latency baseline, inject the
/// fault, then probe until a request completes *fast* again. The elapsed
/// fault→fast-answer time is the recovery the leg measures. The fast bar
/// sits well under both the slowed round trip and the retry timeout, so a
/// late or slowed answer cannot count as recovery.
fn race_leg<N: Substrate<WhisperMsg>>(rig: &mut Booted<N>, leg: RaceLeg) -> SimDuration {
    settle(rig);
    let substrate = rig.net.name();
    let coordinator = *rig.topology.group_nodes[0]
        .last()
        .expect("at least one b-peer");
    let fast_bar = SimDuration::from_millis(80);
    let probe_window = SimDuration::from_millis(150);

    // Prime: bind the proxy and feed the fail-slow detector its healthy
    // baseline (PeerHealth needs min_samples before it may trip).
    for n in 1..=4u64 {
        let id = rig.submit_envelope(marked_envelope(n));
        assert!(
            rig.await_response(id, SimDuration::from_secs(10)).is_some(),
            "{substrate}: prime request {n} never answered"
        );
    }

    let t0 = rig.net.now();
    match leg {
        RaceLeg::Silent => {
            for node in (0..rig.topology.node_count).map(NodeId::from_index) {
                if node != coordinator {
                    rig.net.block_link(coordinator, node);
                }
            }
        }
        RaceLeg::FailSlow(factor) => rig.net.apply_action(FaultAction::Slow(coordinator, factor)),
    }

    for n in 101u64.. {
        let sent = rig.net.now();
        let id = rig.submit_envelope(marked_envelope(n));
        // answered late, answered with a fault, or not yet: probe again
        if let Some(answer) = rig.await_response(id, probe_window) {
            let ok = Envelope::parse(&answer.envelope)
                .map(|e| !e.is_fault())
                .unwrap_or(false);
            if ok && answer.at.since(sent) <= fast_bar {
                return answer.at.since(t0);
            }
        }
        assert!(
            rig.net.now().since(t0) < SimDuration::from_secs(30),
            "{substrate}: service never recovered from {leg:?}"
        );
    }
    unreachable!("the probe loop returns or panics")
}

/// Times the crash detector's recovery against fail-slow recovery on OS
/// threads, each leg on a fresh boot so the silent leg's re-election
/// cannot contaminate the gray leg.
pub fn race(t: &ChaosTuning) -> RaceOutcome {
    let run = |leg| {
        let mut rig = soak_wiring(t)
            .boot_threadnet()
            .expect("the chaos scenario is well-formed");
        let d = race_leg(&mut rig, leg);
        rig.net.shutdown();
        d
    };
    RaceOutcome {
        substrate: "threadnet",
        crash_recovery: run(RaceLeg::Silent),
        fail_slow_recovery: run(RaceLeg::FailSlow(t.slow_factor)),
    }
}

/// Renders the soak rows.
pub fn table(rows: &[SoakOutcome]) -> Table {
    let mut t = Table::new(
        "chaos_soak",
        &[
            "substrate",
            "requests",
            "answered",
            "lost",
            "dup",
            "faults",
            "goodput",
            "fail_slow_rebinds",
            "surplus_replies",
            "decode_errors",
            "gray_events",
            "ledger_up",
        ],
    );
    for r in rows {
        t.row([
            r.substrate.to_string(),
            r.requests.to_string(),
            r.answered.to_string(),
            r.lost.to_string(),
            r.duplicated.to_string(),
            r.faults.to_string(),
            format!("{:.4}", r.goodput),
            r.fail_slow_rebinds.to_string(),
            r.surplus_replies.to_string(),
            r.decode_errors.to_string(),
            r.gray_faults_recorded.to_string(),
            r.ledger_up.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full soak on the deterministic simulator: exactly-once at the
    /// edge, goodput above the floor, gray incidents on the books — all
    /// in virtual time, so this is the cheap CI anchor for E17.
    #[test]
    fn sim_soak_is_exactly_once_and_above_the_goodput_floor() {
        let t = ChaosTuning::default();
        let mut rig = soak_wiring(&t).boot_sim(17).expect("well-formed");
        let out = run_soak(&mut rig, &t);
        assert_eq!(out.lost, 0, "lost requests: {out:?}");
        assert_eq!(out.duplicated, 0, "duplicated answers: {out:?}");
        assert!(
            out.goodput >= t.goodput_floor,
            "goodput {} below floor {}: {out:?}",
            out.goodput,
            t.goodput_floor
        );
        assert!(out.gray_faults_recorded > 0, "no gray events: {out:?}");
        assert!(out.ledger_up, "gray chaos booked as downtime: {out:?}");
        assert!(out.accepted(&t), "acceptance bar: {out:?}");
    }

    /// One short threadnet soak — the wall-clock leg of the E17 bar (the
    /// tcp leg runs in the `whisper-chaos` bin to keep `cargo test` off
    /// the socket-heavy path).
    #[test]
    fn threadnet_soak_is_exactly_once_and_above_the_goodput_floor() {
        let t = ChaosTuning {
            requests: 24,
            ..ChaosTuning::default()
        };
        let out = run_soak_threadnet(&t, 7);
        assert_eq!(out.lost, 0, "lost requests: {out:?}");
        assert_eq!(out.duplicated, 0, "duplicated answers: {out:?}");
        assert!(
            out.goodput >= t.goodput_floor,
            "goodput {} below floor {}: {out:?}",
            out.goodput,
            t.goodput_floor
        );
        assert!(out.gray_faults_recorded > 0, "no gray events: {out:?}");
    }

    /// The point of the fail-slow detector: demoting a gray coordinator
    /// must beat waiting for the crash machinery.
    #[test]
    fn fail_slow_rebind_beats_crash_rebind() {
        let t = ChaosTuning::default();
        let r = race(&t);
        assert!(
            r.fail_slow_recovery < r.crash_recovery,
            "fail-slow {} should beat crash {}",
            r.fail_slow_recovery,
            r.crash_recovery
        );
    }
}

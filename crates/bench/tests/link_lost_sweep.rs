//! Seeded search for false positives of the lost-link detector, on the
//! simulator: 200 generated fault plans over a healthy 3- or 5-peer group
//! under load.
//!
//! A lost link is evidence only a *crash* leaves. Every plan weathers the
//! group with the faults that close nothing — `Degrade` (up to 20 % loss,
//! added latency, jitter, reordering, duplication), `Stall`, `Slow`,
//! `Block`/`Unblock` — and no run may show a `link-lost` or a
//! `lost-confirmed` mark for them, nor an election that is not owed to a
//! heartbeat timeout. A third of the plans then kill the coordinator and
//! restart it inside one beacon period: the survivors are told (`link-lost`)
//! and the restarted peer's first words clear it again
//! (`bpeer.link_lost_cleared`) — never `lost-confirmed`, and the only
//! election is the come-back's own. Through all of it every request is
//! answered exactly once and the settled group has one coordinator.
//!
//! A failing seed prints its plan in `FaultPlan::to_text` form, replayable
//! with `fault_matrix --plan`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use whisper::EchoBackend;
use whisper_bench::cluster::{marked_envelope, student_wiring, ClusterTuning};
use whisper_obs::{FlightEvent, FlightEventKind, Recorder};
use whisper_simnet::{DegradeSpec, FaultPlan, NodeId, SimDuration, SimTime, Substrate};

const SEEDS: u64 = 200;
/// Spacing of the offered requests.
const GAP: SimDuration = SimDuration::from_millis(20);
/// The gray weather starts here (offsets from the settled boot)...
const WEATHER_FROM_MS: u64 = 200;
/// ...has healed by 1.8 s, and the beacons it cost are back when the
/// coordinator is bounced.
const BOUNCE_AT_MS: u64 = 2_400;
const LOAD_UNTIL_MS: u64 = 2_800;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// One generated plan: gray actions over the interior links and the
/// b-peers, each undone within 400 ms; with `bounce`, the coordinator
/// killed at `BOUNCE_AT_MS` and restarted after that many milliseconds,
/// less than a beacon period (0: in the same instant).
fn generate(
    rng: &mut SmallRng,
    t0: SimTime,
    bpeers: &[NodeId],
    proxy: NodeId,
    bounce: Option<u64>,
) -> FaultPlan {
    let tuning = ClusterTuning::default();
    let mut pairs: Vec<(NodeId, NodeId)> = bpeers.iter().map(|&b| (proxy, b)).collect();
    for (i, &a) in bpeers.iter().enumerate() {
        pairs.extend(bpeers[i + 1..].iter().map(|&b| (a, b)));
    }
    let mut plan = FaultPlan::new();
    // One block a plan: two back to back on one pair add up to a partition
    // longer than the failure timeout, and what that leaves behind (a
    // cut-off coordinator keeps its stale view after the heal, see
    // `partition_tcpnet.rs`) is not this sweep's subject.
    let mut kinds = 4u32;
    for _ in 0..rng.gen_range(3..=6usize) {
        let at = t0 + ms(rng.gen_range(WEATHER_FROM_MS..1_400));
        let until = at + ms(rng.gen_range(50..400));
        let (a, b) = pairs[rng.gen_range(0..pairs.len())];
        let node = bpeers[rng.gen_range(0..bpeers.len())];
        match rng.gen_range(0..kinds) {
            0 => {
                let spec = DegradeSpec {
                    latency: ms(rng.gen_range(0..=3)),
                    jitter: ms(rng.gen_range(0..=2)),
                    loss_pct: rng.gen_range(0..=20),
                    dup_pct: rng.gen_range(0..=10),
                    reorder_pct: rng.gen_range(0..=10),
                    corrupt_pct: 0,
                };
                plan.degrade_at(a, b, spec, at).restore_at(a, b, until);
            }
            // shorter than the failure timeout: a healthy group under
            // weather, not an outage of its own
            1 => {
                let most = tuning.failure_timeout.as_micros() / 1000 - 100;
                plan.stall_at(node, ms(rng.gen_range(20..=most)), at);
            }
            2 => {
                plan.slow_at(node, rng.gen_range(150..=400), at)
                    .slow_at(node, 100, until);
            }
            _ => {
                let most = tuning.failure_timeout.as_micros() / 1000 - 50;
                let until = until.min(at + ms(most));
                plan.block_at(a, b, at).unblock_at(a, b, until);
                kinds = 3;
            }
        }
    }
    if let Some(down_ms) = bounce {
        let victim = *bpeers.last().expect("non-empty group");
        let at = t0 + ms(BOUNCE_AT_MS);
        plan.crash_at(victim, at)
            .restart_at(victim, at + ms(down_ms));
    }
    plan
}

fn fault_marks<'a>(
    events: &'a [FlightEvent],
    word: &'a str,
) -> impl Iterator<Item = &'a FlightEvent> {
    events.iter().filter(
        move |e| matches!(&e.kind, FlightEventKind::Fault { action } if action.starts_with(word)),
    )
}

fn run_seed(seed: u64) {
    let peers = if seed.is_multiple_of(2) { 3 } else { 5 };
    let mut rng = SmallRng::seed_from_u64(seed);
    let bounce = seed.is_multiple_of(3).then(|| rng.gen_range(0..40u64));
    let mut wiring = student_wiring(peers, || Box::new(EchoBackend), ClusterTuning::default());
    wiring.proxy.request_timeout = ms(300);
    wiring.recorder = Some(Recorder::new());
    wiring.flight = Some(whisper_obs::flight::DEFAULT_RING_BYTES * 4);
    let mut rig = wiring.boot_sim(seed).expect("well-formed scenario");
    assert!(rig.await_election(0, SimDuration::from_secs(30)), "boot");
    let bpeers = rig.topology.group_nodes[0].clone();
    let victim = *bpeers.last().expect("non-empty group");
    let recorder = rig.recorder.clone().expect("wired");

    let t0 = rig.net.now();
    let plan = generate(&mut rng, t0, &bpeers, rig.topology.proxy, bounce);
    let case = format!("seed {seed} ({peers} peers)\n{}", plan.to_text());
    rig.net.execute_plan(&plan);

    let mut ids = Vec::new();
    let mut elections_before_bounce = None;
    while rig.net.now() < t0 + ms(LOAD_UNTIL_MS) {
        if elections_before_bounce.is_none() && rig.net.now() + GAP >= t0 + ms(BOUNCE_AT_MS) {
            elections_before_bounce = Some(recorder.counter("election.started"));
        }
        ids.push(rig.submit_envelope(marked_envelope(ids.len() as u64)));
        rig.net.advance(GAP);
    }
    assert!(
        rig.await_answered(ids.len() as u64, SimDuration::from_secs(30)),
        "{case}: {} of {} answered",
        rig.answered(),
        ids.len()
    );
    let settled = rig.settle(&bpeers, SimDuration::from_secs(10), |p| {
        p.coordinator().is_some()
            && p.iter()
                .filter(|(_, s)| s.election.as_ref().is_some_and(|e| e.is_coordinator))
                .count()
                == 1
    });
    assert!(settled, "{case}: no single coordinator once settled");

    // every id answered exactly once
    for id in ids {
        let answer = rig.response(id).expect("answered");
        assert_eq!(answer.copies, 1, "{case}: request {id}");
    }
    assert_eq!(rig.late_arrivals(), 0, "{case}");

    let timeline = rig.topology.flight.as_ref().expect("wired").capture();
    let events = timeline.events();
    assert_eq!(
        fault_marks(events, "lost-confirmed").count(),
        0,
        "{case}: a peer that never stayed dead was confirmed lost"
    );
    let bounce_at = t0 + ms(BOUNCE_AT_MS);
    let told = fault_marks(events, "link-lost").count() as u64;
    for e in fault_marks(events, "link-lost") {
        assert!(
            bounce.is_some()
                && e.at >= bounce_at
                && e.kind.to_string().ends_with(&victim.to_string()),
            "{case}: a link was lost to something that is not a crash: {e:?}"
        );
    }
    // An election the detector starts is owed to a heartbeat timeout, as
    // it always was: the same ring holds the miss, and none comes with or
    // after the bounce.
    for (i, e) in events.iter().enumerate() {
        if !matches!(&e.kind, FlightEventKind::Election { detail, .. } if detail == "started") {
            continue;
        }
        let owed = events[..i]
            .iter()
            .any(|m| m.node == e.node && matches!(m.kind, FlightEventKind::HeartbeatMiss { .. }));
        assert!(
            owed,
            "{case}: an election without a heartbeat timeout: {e:?}"
        );
        assert!(bounce.is_none() || e.at < bounce_at, "{case}: {e:?}");
    }
    // A peer back in the same instant has re-dialed before anyone read the
    // loss. Otherwise every survivor and the proxy are told; the b-peers
    // among them note it, and the restarted peer's first words clear it.
    let (told_expected, noted) = match bounce {
        Some(down_ms) if down_ms > 0 => (peers as u64, peers as u64 - 1),
        _ => (0, 0),
    };
    assert_eq!(told, told_expected, "{case}");
    assert_eq!(recorder.counter("bpeer.link_lost"), noted, "{case}");
    assert_eq!(recorder.counter("bpeer.link_lost_cleared"), noted, "{case}");
    if bounce.is_some() {
        let before = elections_before_bounce.expect("the load outlasts the bounce");
        assert_eq!(
            recorder.counter("election.started") - before,
            1,
            "{case}: the come-back's own election is the only one"
        );
    }
}

#[test]
fn gray_faults_and_instant_restarts_never_confirm_a_lost_link() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}

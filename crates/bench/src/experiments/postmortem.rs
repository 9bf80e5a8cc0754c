//! **Postmortem matrix (E15)** — SLO burn-rate alerts trigger flight
//! captures, and the captured timelines tell the whole failover story.
//!
//! This closes the observability loop over PR 7's substrate matrix: the
//! same 5-peer deployment and the same kill/restart [`FaultPlan`] run on
//! all three runtimes, but now with the always-on flight recorder wired
//! into every node and an [`SloEngine`] watching the availability ledger.
//! When the outage burns through the error budget fast enough to trip the
//! multi-window alert, the harness snapshots every node's flight ring and
//! merges them into one causally-ordered [`IncidentTimeline`]; when the
//! alert clears, the capture is sealed with the complete arc.
//!
//! The assertion that matters: each kill produces **exactly one** sealed
//! capture, and inside it the story reads in happens-before order —
//! fault-injection `kill`, then a survivor's `link-lost` for the dead
//! peer, its `lost-confirmed` in the same instant, the
//! successor's `skipped-suspect` / `elected` / `announced` milestones, then
//! the proxy re-binding the group to the new coordinator. That order is
//! recovered purely from Lamport clocks — carried on the wire, and for the
//! one edge no message carries, the closed link, read off the dead node's
//! ring — not from synchronized wall clocks, which is why it holds on real
//! sockets as well as in virtual time.
//!
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use crate::Table;
use whisper::{
    Booted, ClientConfigTemplate, ScenarioWiring, StudentRegistry, WhisperMsg, Workload,
};
use whisper_obs::{FlightEventKind, IncidentTimeline, SloConfig, SloEngine, SloEvent};
use whisper_simnet::{SimDuration, SimTime, Substrate};

use super::substrate_matrix::{self, MatrixTuning};

/// One SLO-triggered flight capture: opened when the burn-rate alert
/// fires, sealed (re-captured) when it clears so the timeline holds the
/// complete incident arc.
#[derive(Debug, Clone)]
pub struct IncidentCapture {
    /// When the burn-rate alert fired.
    pub fired_at: SimTime,
    /// When the alert cleared; `None` if still firing at the horizon.
    pub cleared_at: Option<SimTime>,
    /// The merged, causally-ordered timeline at seal time.
    pub timeline: IncidentTimeline,
}

/// What one substrate's postmortem leg produced.
#[derive(Debug, Clone)]
pub struct PostmortemOutcome {
    /// `"sim"`, `"threadnet"` or `"tcp"`.
    pub substrate: &'static str,
    /// Availability alerts fired over the horizon.
    pub alerts_fired: u64,
    /// SLO-triggered captures, in fire order.
    pub captures: Vec<IncidentCapture>,
    /// Error budget left on the availability objective at the horizon.
    pub budget_remaining: f64,
    /// The rendered post-mortem report for the first capture (empty when
    /// nothing fired).
    pub report: String,
    /// The same capture as JSONL, one event per line.
    pub jsonl: String,
}

impl PostmortemOutcome {
    /// Whether every sealed capture is causally consistent *and* tells
    /// the full kill story (see [`kill_story_ok`]).
    pub fn captures_ok(&self) -> bool {
        !self.captures.is_empty()
            && self
                .captures
                .iter()
                .all(|c| c.timeline.causally_consistent() && kill_story_ok(&c.timeline))
    }

    /// The bar a leg with one kill must clear: exactly one alert fired,
    /// exactly one capture sealed, and [`Self::captures_ok`].
    pub fn accepted(&self) -> bool {
        self.alerts_fired == 1 && self.captures.len() == 1 && self.captures_ok()
    }
}

/// The E14 scenario plus an open-loop client, so the proxy holds a live
/// binding that the failover forces it to re-establish. Proxy retries are
/// tightened so the re-bind lands inside the outage window.
pub fn scenario(t: &MatrixTuning) -> ScenarioWiring {
    let mut wiring = substrate_matrix::deployment(t);
    wiring.proxy.request_timeout = SimDuration::from_millis(300);
    wiring.proxy.retry_backoff = SimDuration::from_millis(100);
    let payload = StudentRegistry::request("u1000");
    wiring.clients.push(ClientConfigTemplate {
        workload: Workload::Open {
            interval: SimDuration::from_millis(100),
            poisson: false,
        },
        payloads: vec![payload],
        total: None,
        timeout: SimDuration::from_secs(3),
        warmup: SimDuration::from_millis(500),
    });
    wiring
}

/// Walks the merged timeline and checks the failover arc appears in
/// happens-before order: a `kill` fault, a survivor told the victim's link
/// is lost, the loss confirmed, the successor skipping the wait for the
/// peer it has buried, elected, announcing itself, then the proxy
/// re-binding the group.
pub fn kill_story_ok(timeline: &IncidentTimeline) -> bool {
    let mut arc = [
        "kill",
        "link-lost",
        "lost-confirmed",
        "skipped-suspect",
        "elected",
        "announced",
    ]
    .into_iter()
    .peekable();
    for ev in timeline.events() {
        let word = match &ev.kind {
            FlightEventKind::Fault { action } => action.split(' ').next().unwrap_or(""),
            FlightEventKind::Election { detail, .. } => detail.as_str(),
            FlightEventKind::Bind { rebind: true, .. } if arc.peek().is_none() => return true,
            _ => continue,
        };
        arc.next_if(|next| *next == word);
    }
    false
}

/// Runs the kill/restart schedule on one booted substrate with the SLO
/// engine in the loop: the harness advances in short slices, feeds the
/// ledger's cumulative downtime into the engine, and every `Fired`
/// transition opens a flight capture that the matching `Cleared` seals.
///
/// This function sees only [`Substrate`], so — like the E14 leg it
/// extends — it is literally the same code on virtual time, OS threads
/// and TCP loopback.
pub fn run_on<N: Substrate<WhisperMsg>>(
    booted: &mut Booted<N>,
    t: &MatrixTuning,
) -> PostmortemOutcome {
    let plan = substrate_matrix::fault_plan(&booted.topology, t);
    let ledger = booted
        .ledger
        .clone()
        .expect("the postmortem deployment wires a ledger");
    let flight = booted
        .topology
        .flight
        .clone()
        .expect("the postmortem deployment wires the flight plane");
    let proxy_flight = flight
        .handle(booted.topology.proxy.index() as u64)
        .cloned()
        .expect("every node has a ring");
    let service = booted.topology.group_ids[0].value();
    // Three nines: a crash is repaired within the last beacon's age plus
    // a hop, which two nines would not notice.
    let mut slo = SloEngine::new(SloConfig {
        availability_target: 0.999,
        ..SloConfig::default()
    });

    booted.net.execute_plan(&plan);

    let step = SimDuration::from_millis(50);
    let horizon = SimTime::ZERO + t.horizon();
    let mut captures: Vec<IncidentCapture> = Vec::new();
    let mut open: Option<usize> = None;
    while booted.net.now() < horizon {
        booted.net.advance(step);
        let now = booted.net.now();
        let downtime = ledger
            .service_report(service, now)
            .map(|r| r.downtime)
            .unwrap_or(SimDuration::ZERO);
        for ev in slo.tick(now, downtime, None) {
            match ev {
                SloEvent::Fired { objective, at, .. } => {
                    // The alert itself becomes flight evidence, then the
                    // rings are snapshotted while the incident is hot.
                    proxy_flight.note_alert(at, objective, true);
                    captures.push(IncidentCapture {
                        fired_at: at,
                        cleared_at: None,
                        timeline: flight.capture(),
                    });
                    open = Some(captures.len() - 1);
                }
                SloEvent::Cleared { objective, at } => {
                    proxy_flight.note_alert(at, objective, false);
                    if let Some(i) = open.take() {
                        captures[i].cleared_at = Some(at);
                        captures[i].timeline = flight.capture();
                    }
                }
            }
        }
    }
    // An alert still firing at the horizon seals with what we have.
    if let Some(i) = open.take() {
        captures[i].timeline = flight.capture();
    }

    let now = booted.net.now();
    let budget_remaining = slo
        .status()
        .iter()
        .find(|s| s.objective == "availability")
        .map(|s| s.budget_remaining)
        .unwrap_or(1.0);
    let (report, jsonl) = captures
        .first()
        .map(|c| {
            (
                c.timeline.render_report(&ledger, now),
                c.timeline.to_jsonl(),
            )
        })
        .unwrap_or_default();
    PostmortemOutcome {
        substrate: booted.net.name(),
        alerts_fired: slo.fired_total(),
        captures,
        budget_remaining,
        report,
        jsonl,
    }
}

/// Boots the scenario on `substrate` (`"sim"`, `"threadnet"`, anything
/// else is TCP loopback) and runs the SLO-supervised schedule on it.
pub fn run_leg(substrate: &str, t: &MatrixTuning) -> PostmortemOutcome {
    let wiring = scenario(t);
    match substrate {
        "sim" => {
            let mut booted = wiring.boot_sim(11).expect("well-formed scenario");
            run_on(&mut booted, t)
        }
        "threadnet" => {
            let mut booted = wiring.boot_threadnet().expect("well-formed scenario");
            let row = run_on(&mut booted, t);
            booted.net.shutdown();
            row
        }
        _ => {
            let mut booted = wiring.boot_tcp().expect("loopback sockets");
            let row = run_on(&mut booted, t);
            booted.net.shutdown();
            row
        }
    }
}

/// Runs the same SLO-supervised schedule on all three substrates in turn.
pub fn run_matrix(t: &MatrixTuning) -> Vec<PostmortemOutcome> {
    ["sim", "threadnet", "tcp"]
        .iter()
        .map(|s| run_leg(s, t))
        .collect()
}

/// Renders the matrix.
pub fn table(rows: &[PostmortemOutcome]) -> Table {
    let mut t = Table::new(
        "postmortem",
        &[
            "substrate",
            "alerts",
            "captures",
            "causal",
            "kill story",
            "events",
            "budget left",
        ],
    );
    for r in rows {
        let causal = r.captures.iter().all(|c| c.timeline.causally_consistent());
        let story = r.captures.iter().all(|c| kill_story_ok(&c.timeline));
        let events = r
            .captures
            .first()
            .map(|c| c.timeline.events().len())
            .unwrap_or(0);
        t.row([
            r.substrate.to_string(),
            r.alerts_fired.to_string(),
            r.captures.len().to_string(),
            causal.to_string(),
            story.to_string(),
            events.to_string(),
            format!("{:.3}", r.budget_remaining),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full E15 loop on the simulator leg: one kill, one alert, one
    /// sealed capture holding the causally-ordered failover story.
    #[test]
    fn sim_kill_produces_exactly_one_causal_capture() {
        let t = MatrixTuning::default();
        let mut booted = scenario(&t).boot_sim(11).expect("well-formed");
        let row = run_on(&mut booted, &t);

        assert_eq!(row.substrate, "sim");
        assert_eq!(row.alerts_fired, 1, "one outage, one alert: {row:?}");
        assert_eq!(row.captures.len(), 1, "one alert, one capture");
        let cap = &row.captures[0];
        assert!(cap.cleared_at.is_some(), "the alert cleared after repair");
        assert!(cap.timeline.causally_consistent(), "no recv before send");
        assert!(
            kill_story_ok(&cap.timeline),
            "kill -> link-lost -> lost-confirmed -> skipped-suspect -> elected -> announced \
             -> re-bind, in happens-before order"
        );
        assert!(
            row.budget_remaining < 1.0,
            "the outage spent error budget: {}",
            row.budget_remaining
        );
        assert!(row.report.contains("incident report"), "report rendered");
        assert!(!row.jsonl.is_empty(), "jsonl rendered");
    }

    /// The alert evidence itself lands in the captured timeline: the
    /// sealed capture shows the availability alert firing and clearing.
    #[test]
    fn sealed_capture_contains_the_alert_transitions() {
        let t = MatrixTuning::default();
        let mut booted = scenario(&t).boot_sim(7).expect("well-formed");
        let row = run_on(&mut booted, &t);
        let cap = row.captures.first().expect("one capture");
        let fired = cap.timeline.events().iter().any(|e| {
            matches!(&e.kind, FlightEventKind::Alert { name, firing } if name == "availability" && *firing)
        });
        assert!(fired, "alert-fired evidence in the ring");
    }
}

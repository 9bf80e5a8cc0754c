//! Service-level objectives with error budgets and multi-window
//! burn-rate alerts.
//!
//! The [`SloEngine`] consumes the same signals the ledger and pulse
//! planes already produce — cumulative downtime from the
//! [`crate::AvailabilityLedger`] and a p99 request latency from the
//! pulse windows — and maintains two objectives:
//!
//! * **availability** — fraction of time the service is up must meet
//!   `availability_target`;
//! * **latency** — the observed p99 must stay under `p99_target`, for
//!   at least `latency_target` of the time.
//!
//! Each objective gets an *error budget*: over `budget_window`, at most
//! `1 - target` of the time may be bad. The engine tracks the **burn
//! rate** — how fast the budget is being consumed relative to the rate
//! that would exactly exhaust it — over a *fast* and a *slow* window.
//! An alert fires only when **both** exceed their thresholds (the slow
//! window proves the problem is material, the fast window proves it is
//! current), and clears as soon as either drops back below — the
//! classic multi-window burn-rate construction, which reacts in
//! O(fast_window) both ways instead of ringing for the whole budget
//! window.
//!
//! A firing alert is the trigger for a flight capture: the driver that
//! ticks the engine snapshots the [`crate::flight::FlightPlane`] on
//! every [`SloEvent::Fired`] so the post-mortem evidence is taken while
//! the incident is fresh in every ring.
//!
//! # Example
//!
//! ```
//! use whisper_obs::slo::{SloConfig, SloEngine, SloEvent};
//! use whisper_simnet::{SimDuration, SimTime};
//!
//! let mut slo = SloEngine::new(SloConfig::default());
//! let t = |ms| SimTime::from_micros(ms * 1000);
//! // healthy ticks: no downtime accumulates
//! for ms in (0..1000).step_by(50) {
//!     assert!(slo.tick(t(ms), SimDuration::ZERO, None).is_empty());
//! }
//! // an outage: downtime grows as fast as time does
//! let events: Vec<SloEvent> = (1000..2000)
//!     .step_by(50)
//!     .flat_map(|ms| {
//!         slo.tick(t(ms), SimDuration::from_micros((ms - 1000) * 1000), None)
//!     })
//!     .collect();
//! assert!(matches!(events[0], SloEvent::Fired { objective: "availability", .. }));
//! ```

use std::collections::VecDeque;

use whisper_simnet::{SimDuration, SimTime};

/// Objective targets and alerting windows for an [`SloEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Availability objective: fraction of time the service must be up.
    pub availability_target: f64,
    /// Latency objective: the p99 bound.
    pub p99_target: SimDuration,
    /// Fraction of time the p99 must be under `p99_target`.
    pub latency_target: f64,
    /// Horizon of the error budget.
    pub budget_window: SimDuration,
    /// Short burn-rate window: proves the problem is happening *now*.
    pub fast_window: SimDuration,
    /// Long burn-rate window: proves the problem is material.
    pub slow_window: SimDuration,
    /// Burn-rate threshold on the fast window.
    pub fast_burn: f64,
    /// Burn-rate threshold on the slow window.
    pub slow_burn: f64,
}

impl Default for SloConfig {
    /// Defaults tuned for the fault-matrix scenarios: a ~450 ms outage
    /// against a 99% availability target crosses both windows once and
    /// clears within about a second of recovery.
    fn default() -> Self {
        SloConfig {
            availability_target: 0.99,
            p99_target: SimDuration::from_millis(250),
            latency_target: 0.99,
            budget_window: SimDuration::from_secs(60),
            fast_window: SimDuration::from_secs(1),
            slow_window: SimDuration::from_secs(5),
            fast_burn: 10.0,
            slow_burn: 2.0,
        }
    }
}

/// An alert transition produced by [`SloEngine::tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloEvent {
    /// Both burn-rate windows crossed their thresholds.
    Fired {
        /// `"availability"` or `"latency"`.
        objective: &'static str,
        /// Tick time of the transition.
        at: SimTime,
        /// Fast-window burn rate at fire time.
        fast_burn: f64,
        /// Slow-window burn rate at fire time.
        slow_burn: f64,
    },
    /// At least one window dropped back below its threshold.
    Cleared {
        /// `"availability"` or `"latency"`.
        objective: &'static str,
        /// Tick time of the transition.
        at: SimTime,
    },
}

impl SloEvent {
    /// The objective this event is about.
    pub fn objective(&self) -> &'static str {
        match self {
            SloEvent::Fired { objective, .. } | SloEvent::Cleared { objective, .. } => objective,
        }
    }

    /// Whether this is a fire (vs a clear).
    pub fn is_fired(&self) -> bool {
        matches!(self, SloEvent::Fired { .. })
    }
}

/// One interval's badness, per objective.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// End of the interval.
    at: SimTime,
    /// Interval length in microseconds.
    interval_us: u64,
    /// Downtime booked during the interval, as a fraction of its length.
    /// Above 1 when the ledger backdates: an outage is booked from the
    /// coordinator's last sign of life, so the tick that learns of it can
    /// book more downtime than it is long (all of it, when the successor
    /// takes over in the very sweep that detects the failure).
    avail_bad: f64,
    /// 1.0 when the p99 exceeded the bound during this interval.
    lat_bad: f64,
}

#[derive(Debug, Clone, Copy)]
struct Objective {
    name: &'static str,
    target: f64,
    firing: bool,
}

/// Point-in-time view of one objective, from [`SloEngine::status`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// `"availability"` or `"latency"`.
    pub objective: &'static str,
    /// The configured target.
    pub target: f64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Fraction of the error budget still unspent over the budget
    /// window; negative once over-spent.
    pub budget_remaining: f64,
    /// Whether the alert is currently firing.
    pub firing: bool,
}

/// The SLO engine: feed it ticks, read back alerts, burn rates and
/// remaining error budget.
#[derive(Debug)]
pub struct SloEngine {
    cfg: SloConfig,
    samples: VecDeque<Sample>,
    last_at: Option<SimTime>,
    last_downtime: SimDuration,
    objectives: [Objective; 2],
    fired_total: u64,
}

impl SloEngine {
    /// A fresh engine; the first tick only establishes the time origin.
    pub fn new(cfg: SloConfig) -> Self {
        SloEngine {
            objectives: [
                Objective {
                    name: "availability",
                    target: cfg.availability_target,
                    firing: false,
                },
                Objective {
                    name: "latency",
                    target: cfg.latency_target,
                    firing: false,
                },
            ],
            cfg,
            samples: VecDeque::new(),
            last_at: None,
            last_downtime: SimDuration::ZERO,
            fired_total: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Advances the engine to `now`.
    ///
    /// `downtime_cum` is the service's *cumulative* downtime (e.g.
    /// [`crate::AvailabilityReport::downtime`]); the engine diffs
    /// successive values itself. `p99` is the current p99 request
    /// latency when one is known (e.g. from a pulse window).
    ///
    /// Returns the alert transitions this tick produced, in objective
    /// order. Out-of-order or duplicate `now` values are ignored.
    pub fn tick(
        &mut self,
        now: SimTime,
        downtime_cum: SimDuration,
        p99: Option<SimDuration>,
    ) -> Vec<SloEvent> {
        let Some(last) = self.last_at else {
            self.last_at = Some(now);
            self.last_downtime = downtime_cum;
            return Vec::new();
        };
        if now <= last {
            return Vec::new();
        }
        let interval_us = now.since(last).as_micros();
        let down_us = downtime_cum
            .as_micros()
            .saturating_sub(self.last_downtime.as_micros());
        self.last_at = Some(now);
        self.last_downtime = downtime_cum;

        self.samples.push_back(Sample {
            at: now,
            interval_us,
            avail_bad: down_us as f64 / interval_us as f64,
            lat_bad: match p99 {
                Some(p) if p > self.cfg.p99_target => 1.0,
                _ => 0.0,
            },
        });
        // keep exactly the history the widest window can see
        let horizon = self.cfg.budget_window.as_micros().max(
            self.cfg
                .slow_window
                .as_micros()
                .max(self.cfg.fast_window.as_micros()),
        );
        while let Some(front) = self.samples.front() {
            if now.since(front.at).as_micros() >= horizon {
                self.samples.pop_front();
            } else {
                break;
            }
        }

        let mut events = Vec::new();
        for idx in 0..self.objectives.len() {
            let obj = self.objectives[idx];
            let fast = self.burn_over(now, self.cfg.fast_window, obj);
            let slow = self.burn_over(now, self.cfg.slow_window, obj);
            // tolerance so a burn sitting exactly on the threshold counts
            // as hot despite float round-off in the window sums
            const EPS: f64 = 1e-9;
            let hot = fast >= self.cfg.fast_burn - EPS && slow >= self.cfg.slow_burn - EPS;
            if hot && !obj.firing {
                self.objectives[idx].firing = true;
                self.fired_total += 1;
                events.push(SloEvent::Fired {
                    objective: obj.name,
                    at: now,
                    fast_burn: fast,
                    slow_burn: slow,
                });
            } else if !hot && obj.firing {
                self.objectives[idx].firing = false;
                events.push(SloEvent::Cleared {
                    objective: obj.name,
                    at: now,
                });
            }
        }
        events
    }

    fn bad_fraction(sample: &Sample, obj: Objective) -> f64 {
        match obj.name {
            "availability" => sample.avail_bad,
            _ => sample.lat_bad,
        }
    }

    /// Burn rate for `obj` over the trailing `window` ending at `now`:
    /// mean bad-fraction divided by the allowed error rate `1 - target`.
    fn burn_over(&self, now: SimTime, window: SimDuration, obj: Objective) -> f64 {
        let window_us = window.as_micros().max(1);
        let mut bad_us = 0.0;
        for s in self.samples.iter().rev() {
            let age = now.since(s.at).as_micros();
            if age >= window_us {
                break;
            }
            // clip the sample's interval to the window edge
            let visible = s.interval_us.min(window_us - age) as f64;
            bad_us += Self::bad_fraction(s, obj) * visible;
        }
        let allowed = (1.0 - obj.target).max(f64::EPSILON);
        (bad_us / window_us as f64) / allowed
    }

    fn status_of(&self, now: SimTime, obj: Objective) -> SloStatus {
        let budget_us = self.cfg.budget_window.as_micros().max(1);
        let mut bad_us = 0.0;
        for s in self.samples.iter().rev() {
            let age = now.since(s.at).as_micros();
            if age >= budget_us {
                break;
            }
            let visible = s.interval_us.min(budget_us - age) as f64;
            bad_us += Self::bad_fraction(s, obj) * visible;
        }
        let allowed = (1.0 - obj.target).max(f64::EPSILON);
        SloStatus {
            objective: obj.name,
            target: obj.target,
            fast_burn: self.burn_over(now, self.cfg.fast_window, obj),
            slow_burn: self.burn_over(now, self.cfg.slow_window, obj),
            budget_remaining: 1.0 - bad_us / (budget_us as f64 * allowed),
            firing: obj.firing,
        }
    }

    /// Point-in-time status of every objective, at the last tick.
    pub fn status(&self) -> Vec<SloStatus> {
        let now = self.last_at.unwrap_or(SimTime::ZERO);
        self.objectives
            .iter()
            .map(|&o| self.status_of(now, o))
            .collect()
    }

    /// Whether any objective's alert is currently firing.
    pub fn any_firing(&self) -> bool {
        self.objectives.iter().any(|o| o.firing)
    }

    /// Whether any objective's error budget is exhausted (remaining ≤ 0).
    pub fn any_budget_exhausted(&self) -> bool {
        self.status().iter().any(|s| s.budget_remaining <= 0.0)
    }

    /// Total fire transitions since creation.
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    /// Ticks every 50 ms; downtime accumulates inside `[down_from, down_to)`.
    fn drive(
        slo: &mut SloEngine,
        from_ms: u64,
        to_ms: u64,
        down_from: u64,
        down_to: u64,
    ) -> Vec<SloEvent> {
        let mut events = Vec::new();
        let mut ms = from_ms;
        while ms <= to_ms {
            let down_ms = down_to
                .min(ms)
                .saturating_sub(down_from.min(down_to.min(ms)));
            events.extend(slo.tick(t(ms), d(down_ms), None));
            ms += 50;
        }
        events
    }

    #[test]
    fn outage_fires_exactly_once_and_clears_after_fast_window_drains() {
        let mut slo = SloEngine::new(SloConfig::default());
        // 1 s healthy, 450 ms outage, then healthy again
        let mut events = drive(&mut slo, 0, 1000, u64::MAX, u64::MAX);
        events.extend(drive(&mut slo, 1050, 4000, 1000, 1450));
        let fired: Vec<_> = events.iter().filter(|e| e.is_fired()).collect();
        assert_eq!(fired.len(), 1, "one outage, one alert: {events:?}");
        // fast/slow thresholds 10x/2x both equal 100 ms of downtime, so the
        // alert fires on the tick where 100 ms has accumulated: t=1100.
        assert!(
            matches!(fired[0], SloEvent::Fired { objective: "availability", at, .. } if *at == t(1100)),
            "{fired:?}"
        );
        // ...and clears on the first tick where the fast window holds less
        // than 100 ms of the outage: the last bad sample ends at 1450, so
        // at t=2400 only 50 ms remains in view.
        let cleared: Vec<_> = events.iter().filter(|e| !e.is_fired()).collect();
        assert_eq!(cleared.len(), 1);
        assert!(
            matches!(cleared[0], SloEvent::Cleared { objective: "availability", at } if *at == t(2400)),
            "{cleared:?}"
        );
        assert_eq!(slo.fired_total(), 1);
        assert!(!slo.any_firing());
    }

    #[test]
    fn two_separated_outages_fire_twice() {
        let mut slo = SloEngine::new(SloConfig::default());
        let mut events = drive(&mut slo, 0, 1000, u64::MAX, u64::MAX);
        events.extend(drive(&mut slo, 1050, 4000, 1000, 1450));
        // second outage after the first alert cleared
        let mut ms = 4050u64;
        while ms <= 8000 {
            let down = 450 + 4500u64.min(ms).saturating_sub(4000u64.min(ms));
            events.extend(slo.tick(t(ms), d(down), None));
            ms += 50;
        }
        assert_eq!(events.iter().filter(|e| e.is_fired()).count(), 2);
        assert_eq!(events.iter().filter(|e| !e.is_fired()).count(), 2);
    }

    #[test]
    fn budget_remaining_is_exact() {
        let cfg = SloConfig::default();
        let mut slo = SloEngine::new(cfg);
        drive(&mut slo, 0, 1000, u64::MAX, u64::MAX);
        drive(&mut slo, 1050, 2000, 1000, 1300);
        // 300 ms bad in a 60 s budget window at 1% allowed:
        // budget = 60_000 ms * 0.01 = 600 ms; spent 300 → 50% left
        let avail = &slo.status()[0];
        assert_eq!(avail.objective, "availability");
        assert!(
            (avail.budget_remaining - 0.5).abs() < 1e-9,
            "{}",
            avail.budget_remaining
        );
        assert!(!slo.any_budget_exhausted());
        // a further 700 ms outage blows past the 600 ms budget
        let mut ms = 2050u64;
        while ms <= 3000 {
            let down = 300 + 2700u64.min(ms).saturating_sub(2000);
            slo.tick(t(ms), d(down), None);
            ms += 50;
        }
        assert!(slo.any_budget_exhausted());
    }

    #[test]
    fn latency_objective_fires_on_sustained_slow_p99() {
        let mut slo = SloEngine::new(SloConfig::default());
        let mut events = Vec::new();
        for ms in (0..=1000).step_by(50) {
            events.extend(slo.tick(t(ms), SimDuration::ZERO, Some(d(10))));
        }
        assert!(events.is_empty());
        for ms in (1050..=2000).step_by(50) {
            events.extend(slo.tick(t(ms), SimDuration::ZERO, Some(d(400))));
        }
        let fired: Vec<_> = events.iter().filter(|e| e.is_fired()).collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].objective(), "latency");
        // p99 recovers: the alert clears
        for ms in (2050..=4000).step_by(50) {
            events.extend(slo.tick(t(ms), SimDuration::ZERO, Some(d(10))));
        }
        assert!(events.iter().any(|e| !e.is_fired()));
        assert!(!slo.any_firing());
    }

    #[test]
    fn backdated_outage_booked_in_one_tick_counts_in_full() {
        // detection and repair fall into the same 50 ms tick: the ledger
        // books 300 ms of downtime at once, backdated to the last heartbeat
        let mut slo = SloEngine::new(SloConfig::default());
        let mut events = Vec::new();
        for ms in (0..=4000).step_by(50) {
            let down = if ms >= 1300 { 300 } else { 0 };
            events.extend(slo.tick(t(ms), d(down), None));
        }
        assert!(
            matches!(events[0], SloEvent::Fired { objective: "availability", at, .. } if at == t(1300)),
            "{events:?}"
        );
        // the one sample leaves the fast window a second later
        assert!(
            matches!(events[1], SloEvent::Cleared { objective: "availability", at } if at == t(2300)),
            "{events:?}"
        );
        assert_eq!(events.len(), 2);
        // 300 ms of a 600 ms budget, not the 50 ms the tick was long
        let avail = &slo.status()[0];
        assert!((avail.budget_remaining - 0.5).abs() < 1e-9, "{avail:?}");
    }

    #[test]
    fn short_blip_does_not_fire() {
        let mut slo = SloEngine::new(SloConfig::default());
        // 50 ms of downtime: under the 100 ms the thresholds demand
        let mut events = drive(&mut slo, 0, 1000, u64::MAX, u64::MAX);
        events.extend(drive(&mut slo, 1050, 3000, 1000, 1050));
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn duplicate_and_backward_ticks_are_ignored() {
        let mut slo = SloEngine::new(SloConfig::default());
        slo.tick(t(100), SimDuration::ZERO, None);
        slo.tick(t(200), SimDuration::ZERO, None);
        assert!(slo.tick(t(200), d(1000), None).is_empty());
        assert!(slo.tick(t(150), d(1000), None).is_empty());
    }
}

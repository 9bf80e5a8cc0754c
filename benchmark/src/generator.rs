//! The load generator: one actor added to the net next to the scenario's
//! own nodes.
//!
//! It keeps a window of requests in flight (closed loop) or sends on a
//! fixed schedule (open loop) from *inside* its actor hooks: a completion
//! triggers the replacement in `on_message`, the schedule rides the node's
//! own timer. Nothing sleep-polls or spins on the measured path, and the
//! generator is one thread on the live substrates (none on the simulator).
//! Every response is parsed and checked before it is logged.
//!
//! The driver thread talks to it through channels: commands in (announced
//! by a *kick*, a `ScopeRequest` carrying a reserved id, because an actor
//! only wakes for messages), phase logs and scope snapshots out.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::{Inputs, Verdict};
use whisper::WhisperMsg;
use whisper_obs::NodeSnapshot;
use whisper_simnet::{Actor, Context, NodeId, SimDuration, SimTime};

/// The `ScopeRequest` id that means "read your command channel".
pub const KICK: u64 = u64::MAX;

/// The open loop's only timer.
const TOKEN_SCHEDULE: u64 = 1;

/// What the driver asks for next.
#[derive(Debug, Clone, Copy)]
pub enum Command {
    /// One request, now (the cold request that ends a boot).
    Single,
    /// Keep `window` requests in flight for `duration`, then drain.
    Closed {
        /// Requests in flight.
        window: usize,
        /// How long replacements keep being sent.
        duration: Duration,
        /// CPU/progress marks to take, evenly spaced over `duration`.
        marks: usize,
    },
    /// Send `rate` requests per second on a fixed schedule until stopped.
    Open {
        /// Offered requests per second.
        rate: f64,
    },
    /// First: stop sending and drain. Again: give up on what is still
    /// unanswered and close the phase now.
    Stop,
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// When the request was due (open loop) or sent (closed loop), as an
    /// offset from the phase start.
    pub due_ns: u64,
    /// When its response was read, as an offset from the phase start.
    pub done_ns: u64,
    /// Send → response on the substrate's clock (virtual on the simulator).
    pub virt_us: u64,
    /// How the response compared with the request.
    pub verdict: Verdict,
}

impl Completion {
    /// Response time in nanoseconds, from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Process CPU and progress at one instant of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Offset from the phase start.
    pub at_ns: u64,
    /// Process CPU time (user + system) in microseconds.
    pub cpu_us: u64,
    /// Good completions so far.
    pub good: u64,
}

/// Everything one phase produced.
#[derive(Debug)]
pub struct PhaseLog {
    /// Wall-clock start of the phase (offsets count from here).
    pub started: Instant,
    /// Requests sent.
    pub issued: u64,
    /// Every response read, in arrival order.
    pub completions: Vec<Completion>,
    /// Requests still unanswered when the phase was closed.
    pub unanswered: u64,
    /// Responses to request ids that were not (or no longer) in flight.
    pub duplicates: u64,
    /// Open loop only: how late each send left, against its schedule.
    pub late_ns: Vec<u64>,
    /// CPU/progress marks, first at offset 0, last at the close.
    pub marks: Vec<Mark>,
    /// The first good response envelope, for the per-layer timings.
    pub sample_response: Option<String>,
}

impl PhaseLog {
    /// Completions that passed the check.
    pub fn good(&self) -> u64 {
        self.completions
            .iter()
            .filter(|c| c.verdict == Verdict::Good)
            .count() as u64
    }

    /// Completions that failed the check, plus unanswered and duplicated
    /// requests: everything `fail_share` counts.
    pub fn failed(&self) -> u64 {
        let bad = self
            .completions
            .iter()
            .filter(|c| c.verdict != Verdict::Good)
            .count() as u64;
        bad + self.unanswered + self.duplicates
    }

    /// Completions whose body was not the one asked for, or ids answered
    /// twice: never acceptable, on any workload.
    pub fn violations(&self) -> u64 {
        let wrong = self
            .completions
            .iter()
            .filter(|c| c.verdict == Verdict::Wrong)
            .count() as u64;
        wrong + self.duplicates
    }
}

/// Process CPU time (utime + stime) in microseconds, from
/// `/proc/self/stat`; the kernel counts it in 10 ms ticks.
pub fn process_cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // the command name may contain spaces: fields are counted after ')'
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let ticks: u64 = [fields.next(), fields.next()]
        .iter()
        .map(|f| f.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0))
        .sum();
    ticks * 10_000
}

struct InFlight {
    due: Instant,
    sent_virt: SimTime,
    template: usize,
}

enum Mode {
    Single,
    Closed { window: usize, closes_at: Instant },
    Open { interval: Duration, sent: u64 },
}

struct Phase {
    mode: Mode,
    /// No further sends; the phase ends when the last answer is in.
    draining: bool,
    next_mark_ns: u64,
    mark_step_ns: u64,
    good: u64,
    log: PhaseLog,
}

/// The generator actor. Build it with [`Generator::new`], add it to the
/// net after `ScenarioWiring::wire`, and drive it through the channels.
pub struct Generator {
    proxy: NodeId,
    inputs: Arc<Inputs>,
    commands: Receiver<Command>,
    logs: Sender<PhaseLog>,
    snapshots: Sender<(u64, NodeId, NodeSnapshot)>,
    /// Requests issued over the generator's whole life; ids never repeat.
    issued: u64,
    inflight: HashMap<u64, InFlight>,
    phase: Option<Phase>,
}

impl Generator {
    /// A generator sending to `proxy`; see the module docs for the
    /// channels.
    pub fn new(
        proxy: NodeId,
        inputs: Arc<Inputs>,
        commands: Receiver<Command>,
        logs: Sender<PhaseLog>,
        snapshots: Sender<(u64, NodeId, NodeSnapshot)>,
    ) -> Generator {
        Generator {
            proxy,
            inputs,
            commands,
            logs,
            snapshots,
            issued: 0,
            inflight: HashMap::new(),
            phase: None,
        }
    }

    fn begin(&mut self, ctx: &mut Context<'_, WhisperMsg>, command: Command) {
        let started = Instant::now();
        let (mode, mark_step_ns, first_sends) = match command {
            Command::Single => (Mode::Single, u64::MAX, 1),
            Command::Closed {
                window,
                duration,
                marks,
            } => (
                Mode::Closed {
                    window,
                    closes_at: started + duration,
                },
                duration.as_nanos() as u64 / marks.max(1) as u64,
                window,
            ),
            Command::Open { rate } => (
                Mode::Open {
                    interval: Duration::from_secs_f64(1.0 / rate),
                    sent: 0,
                },
                u64::MAX,
                0,
            ),
            Command::Stop => return,
        };
        let open = matches!(mode, Mode::Open { .. });
        self.phase = Some(Phase {
            mode,
            draining: false,
            next_mark_ns: mark_step_ns,
            mark_step_ns,
            good: 0,
            log: PhaseLog {
                started,
                issued: 0,
                completions: Vec::with_capacity(1 << 16),
                unanswered: 0,
                duplicates: 0,
                late_ns: Vec::new(),
                marks: vec![Mark {
                    at_ns: 0,
                    cpu_us: process_cpu_us(),
                    good: 0,
                }],
                sample_response: None,
            },
        });
        for _ in 0..first_sends {
            self.issue(ctx, Instant::now());
        }
        if open {
            self.on_schedule(ctx);
        }
    }

    /// Sends the next request; its latency clock starts at `due`.
    fn issue(&mut self, ctx: &mut Context<'_, WhisperMsg>, due: Instant) {
        let k = self.issued;
        self.issued += 1;
        let template = self.inputs.template_of(k);
        let request_id = self.inputs.first_request_id + k;
        self.inflight.insert(
            request_id,
            InFlight {
                due,
                sent_virt: ctx.now(),
                template,
            },
        );
        if let Some(phase) = &mut self.phase {
            phase.log.issued += 1;
        }
        ctx.send(
            self.proxy,
            WhisperMsg::SoapRequest {
                request_id,
                envelope: self.inputs.templates[template].envelope.clone(),
            },
        );
    }

    /// Open loop: sends everything due by now, then sleeps (on the node's
    /// timer) until the next slot.
    fn on_schedule(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let Some(phase) = &self.phase else { return };
        let started = phase.log.started;
        let Mode::Open { interval, .. } = phase.mode else {
            return;
        };
        if phase.draining {
            return;
        }
        let now = Instant::now();
        loop {
            let Some(Phase {
                mode: Mode::Open { sent, .. },
                log,
                ..
            }) = &mut self.phase
            else {
                return;
            };
            let due = started + interval.mul_f64(*sent as f64);
            if due > now {
                let wait = due - now;
                ctx.set_timer(
                    SimDuration::from_micros(wait.as_micros().max(1) as u64),
                    TOKEN_SCHEDULE,
                );
                return;
            }
            *sent += 1;
            log.late_ns.push((now - due).as_nanos() as u64);
            self.issue(ctx, due);
        }
    }

    fn on_response(&mut self, ctx: &mut Context<'_, WhisperMsg>, request_id: u64, envelope: &str) {
        let done = Instant::now();
        let Some(phase) = &mut self.phase else {
            return; // a straggler after its phase was closed; already counted
        };
        let Some(sent) = self.inflight.remove(&request_id) else {
            phase.log.duplicates += 1;
            return;
        };
        let verdict = self.inputs.templates[sent.template].check(envelope);
        let started = phase.log.started;
        let done_ns = (done - started).as_nanos() as u64;
        phase.log.completions.push(Completion {
            due_ns: sent.due.saturating_duration_since(started).as_nanos() as u64,
            done_ns,
            virt_us: ctx.now().since(sent.sent_virt).as_micros(),
            verdict,
        });
        if verdict == Verdict::Good {
            phase.good += 1;
            if phase.log.sample_response.is_none() {
                phase.log.sample_response = Some(envelope.to_string());
            }
        }
        while done_ns >= phase.next_mark_ns {
            phase.log.marks.push(Mark {
                at_ns: done_ns,
                cpu_us: process_cpu_us(),
                good: phase.good,
            });
            phase.next_mark_ns = phase.next_mark_ns.saturating_add(phase.mark_step_ns);
        }
        match phase.mode {
            Mode::Single => phase.draining = true,
            Mode::Closed { window, closes_at } => {
                if Instant::now() >= closes_at {
                    phase.draining = true;
                } else if self.inflight.len() < window {
                    // the clock of the replacement starts after the check
                    // above, so validation time is not billed as latency
                    self.issue(ctx, Instant::now());
                }
            }
            Mode::Open { .. } => {}
        }
        self.finish_if_drained();
    }

    fn finish_if_drained(&mut self) {
        if self
            .phase
            .as_ref()
            .is_some_and(|p| p.draining && self.inflight.is_empty())
        {
            self.finish();
        }
    }

    fn finish(&mut self) {
        let Some(mut phase) = self.phase.take() else {
            return;
        };
        phase.log.unanswered = self.inflight.len() as u64;
        self.inflight.clear();
        phase.log.marks.push(Mark {
            at_ns: phase.log.started.elapsed().as_nanos() as u64,
            cpu_us: process_cpu_us(),
            good: phase.good,
        });
        // the driver may already have given up; nothing to do about it here
        let _ = self.logs.send(phase.log);
    }

    fn on_kick(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        while let Ok(command) = self.commands.try_recv() {
            match (command, &mut self.phase) {
                (Command::Stop, Some(phase)) if phase.draining => self.finish(),
                (Command::Stop, Some(phase)) => {
                    phase.draining = true;
                    self.finish_if_drained();
                }
                (Command::Stop, None) => {}
                (start, _) => self.begin(ctx, start),
            }
        }
    }
}

impl Actor<WhisperMsg> for Generator {
    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        match msg {
            WhisperMsg::SoapResponse {
                request_id,
                envelope,
            } => self.on_response(ctx, request_id, &envelope),
            WhisperMsg::ScopeRequest { request_id: KICK } => self.on_kick(ctx),
            WhisperMsg::ScopeResponse {
                request_id,
                snapshot,
            } => {
                let _ = self.snapshots.send((request_id, from, *snapshot));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, token: u64) {
        if token == TOKEN_SCHEDULE {
            self.on_schedule(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_us();
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us() > before, "{x}");
    }
}

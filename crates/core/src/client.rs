//! Workload clients: the B2B applications invoking the Web service.

use crate::deadline::DeadlineQueue;
use crate::msg::WhisperMsg;
use crate::trace;
use whisper_obs::Recorder;
use whisper_simnet::{Actor, Context, Histogram, NodeId, SimDuration, SimTime};
use whisper_soap::Envelope;
use whisper_xml::Element;

/// How a client generates requests.
///
/// # Examples
///
/// ```
/// use whisper::Workload;
/// use whisper_simnet::SimDuration;
///
/// // 200 requests/second Poisson arrivals, regardless of responses.
/// let open = Workload::Open {
///     interval: SimDuration::from_micros(5_000),
///     poisson: true,
/// };
/// // one request at a time with 50 ms think time
/// let closed = Workload::Closed { think: SimDuration::from_millis(50), window: 1 };
/// // eight requests in flight at once (the proxy pipelines them)
/// let windowed = Workload::Closed { think: SimDuration::ZERO, window: 8 };
/// # let _ = (open, closed, windowed);
/// ```
#[derive(Debug, Clone)]
pub enum Workload {
    /// No autonomous traffic; requests are injected by the harness
    /// ([`WhisperNet::submit_request`](crate::WhisperNet::submit_request)).
    Manual,
    /// Closed loop: keep `window` requests in flight; every response (or
    /// timeout) is replaced after `think`.
    Closed {
        /// Think time between a response and its replacement request.
        think: SimDuration,
        /// Concurrent in-flight requests this client maintains. `1` is the
        /// classic closed loop; larger windows pipeline through the
        /// proxy's pending map and measure the deployment's concurrency,
        /// not just its sequential round-trip.
        window: u32,
    },
    /// Open loop: fire at fixed or exponential intervals regardless of
    /// outstanding requests.
    Open {
        /// Mean inter-arrival interval.
        interval: SimDuration,
        /// Exponentially distributed inter-arrivals (Poisson process)
        /// instead of fixed spacing.
        poisson: bool,
    },
}

/// Configuration of one client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Node hosting the Web service (its SWS-proxy).
    pub proxy_node: NodeId,
    /// Traffic generation mode.
    pub workload: Workload,
    /// Request payloads, cycled in order.
    pub payloads: Vec<Element>,
    /// Stop after this many requests (`None` = until the run ends).
    pub total: Option<u64>,
    /// Client-side timeout; an unanswered request counts as failed.
    pub timeout: SimDuration,
    /// Delay before the first autonomous request (lets the b-peer groups
    /// elect and publish).
    pub warmup: SimDuration,
}

impl ClientConfig {
    /// A manual client pointed at `proxy_node`.
    pub fn manual(proxy_node: NodeId) -> Self {
        ClientConfig {
            proxy_node,
            workload: Workload::Manual,
            payloads: Vec::new(),
            total: None,
            timeout: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(2),
        }
    }
}

/// The fate of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Client-local request id.
    pub id: u64,
    /// When the request left the client.
    pub sent_at: SimTime,
    /// When the response arrived (`None` while pending or after timeout).
    pub completed_at: Option<SimTime>,
    /// Whether the response was a `<soap:fault>`.
    pub fault: bool,
    /// Whether the client-side timeout fired first.
    pub timed_out: bool,
}

/// Aggregated client counters.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Requests sent.
    pub sent: u64,
    /// Responses received (faults included).
    pub completed: u64,
    /// Responses that were faults.
    pub faults: u64,
    /// Requests that hit the client-side timeout.
    pub timeouts: u64,
    /// Round-trip times of successful (non-fault) responses.
    pub rtt: Histogram,
}

impl ClientStats {
    /// Requests neither answered nor timed out when the run stopped.
    pub fn in_flight(&self) -> u64 {
        self.sent - self.completed - self.timeouts
    }

    /// Fraction of sent requests that completed without fault or timeout,
    /// ignoring still-in-flight ones. `None` before any request resolved.
    pub fn availability(&self) -> Option<f64> {
        let resolved = self.completed + self.timeouts;
        if resolved == 0 {
            return None;
        }
        let good = self.completed - self.faults;
        Some(good as f64 / resolved as f64)
    }
}

const TOKEN_SEND: u64 = 1;
/// The sweep timer of the request-timeout queue.
const TOKEN_TIMEOUT: u64 = 2;
const TOKEN_THINK: u64 = 3;

/// A client application node.
pub struct ClientActor {
    config: ClientConfig,
    next_id: u64,
    payload_cursor: usize,
    /// Indexed by request id (ids are handed out in push order).
    outcomes: Vec<RequestOutcome>,
    /// Client-side `timeout` deadlines of the requests sent so far.
    timeouts: DeadlineQueue,
    stats: ClientStats,
    last_response: Option<String>,
    obs: Option<Recorder>,
    my_id: Option<NodeId>,
}

impl ClientActor {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        ClientActor {
            timeouts: DeadlineQueue::new(config.timeout, TOKEN_TIMEOUT),
            config,
            next_id: 0,
            payload_cursor: 0,
            outcomes: Vec::new(),
            stats: ClientStats::default(),
            last_response: None,
            obs: None,
            my_id: None,
        }
    }

    /// Installs an observability recorder: every request becomes a traced
    /// request with a `client.request` root span.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = Some(rec);
    }

    /// Aggregated counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Per-request outcomes in send order.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// The most recent response envelope, for display and inspection.
    pub fn last_response(&self) -> Option<&str> {
        self.last_response.as_deref()
    }

    /// Registers a harness-injected request so the eventual response is
    /// accounted for. Returns the request id to inject with.
    pub fn register_manual(&mut self, now: SimTime) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.outcomes.push(RequestOutcome {
            id,
            sent_at: now,
            completed_at: None,
            fault: false,
            timed_out: false,
        });
        self.stats.sent += 1;
        if let (Some(rec), Some(me)) = (&self.obs, self.my_id) {
            let req = rec.begin_request(format!("client{} #{id}", me.index()), now);
            rec.start_span("client.request", req, now);
            rec.bind(trace::NS_SOAP, trace::soap_key(me, id), req);
            rec.incr("client.sent", 1);
        }
        id
    }

    fn quota_left(&self) -> bool {
        match self.config.total {
            Some(t) => self.stats.sent < t,
            None => true,
        }
    }

    fn interval(&self, ctx: &mut Context<'_, WhisperMsg>) -> SimDuration {
        match &self.config.workload {
            Workload::Open { interval, poisson } => {
                if *poisson {
                    use rand::Rng;
                    let u: f64 = ctx.rng().gen_range(1e-9..1.0);
                    let scaled = -(u.ln()) * interval.as_micros() as f64;
                    SimDuration::from_micros(scaled.max(1.0) as u64)
                } else {
                    *interval
                }
            }
            Workload::Closed { think, .. } => *think,
            Workload::Manual => SimDuration::ZERO,
        }
    }

    fn send_next(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        if !self.quota_left() || self.config.payloads.is_empty() {
            return;
        }
        let payload =
            self.config.payloads[self.payload_cursor % self.config.payloads.len()].clone();
        self.payload_cursor += 1;
        let id = self.register_manual(ctx.now());
        let envelope = Envelope::request(payload).to_xml_string();
        ctx.send(
            self.config.proxy_node,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope,
            },
        );
        self.timeouts.push(ctx, id, 0);
        if let Workload::Open { .. } = self.config.workload {
            let next = self.interval(ctx);
            ctx.set_timer(next, TOKEN_SEND);
        }
    }

    fn complete(&mut self, id: u64, now: SimTime, envelope: &str) {
        let Some(outcome) = self.outcomes.iter_mut().find(|o| o.id == id) else {
            return;
        };
        if outcome.completed_at.is_some() || outcome.timed_out {
            return; // duplicate or late response
        }
        outcome.completed_at = Some(now);
        self.last_response = Some(envelope.to_string());
        let fault = Envelope::parse(envelope)
            .map(|e| e.is_fault())
            .unwrap_or(true);
        outcome.fault = fault;
        self.stats.completed += 1;
        let sent_at = outcome.sent_at;
        if fault {
            self.stats.faults += 1;
        } else {
            self.stats.rtt.record(now.since(sent_at));
        }
        if let (Some(rec), Some(me)) = (&self.obs, self.my_id) {
            let key = trace::soap_key(me, id);
            if let Some(req) = rec.lookup(trace::NS_SOAP, key) {
                rec.end_named(req, "client.request", now);
                rec.unbind(trace::NS_SOAP, key);
            }
            rec.incr(
                if fault {
                    "client.faults"
                } else {
                    "client.completed"
                },
                1,
            );
            if !fault {
                rec.record_duration("client.rtt", now.since(sent_at));
            }
        }
    }

    /// The client-side timeout of unanswered request `id` came due.
    fn time_out(&mut self, ctx: &mut Context<'_, WhisperMsg>, id: u64) {
        self.outcomes[id as usize].timed_out = true;
        self.stats.timeouts += 1;
        if let (Some(rec), Some(me)) = (&self.obs, self.my_id) {
            let key = trace::soap_key(me, id);
            if let Some(req) = rec.lookup(trace::NS_SOAP, key) {
                rec.end_named(req, "client.request", ctx.now());
                rec.unbind(trace::NS_SOAP, key);
            }
            rec.incr("client.timeouts", 1);
        }
        // keep a closed loop alive after a loss
        if let Workload::Closed { .. } = self.config.workload {
            if self.quota_left() {
                ctx.set_timer(SimDuration::ZERO, TOKEN_THINK);
            }
        }
    }
}

impl Actor<WhisperMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        self.my_id = Some(ctx.id());
        if !matches!(self.config.workload, Workload::Manual) {
            ctx.set_timer(self.config.warmup, TOKEN_SEND);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        if let WhisperMsg::SoapResponse {
            request_id,
            envelope,
        } = msg
        {
            self.complete(request_id, ctx.now(), &envelope);
            if let Workload::Closed { .. } = self.config.workload {
                if self.quota_left() {
                    let think = self.interval(ctx);
                    ctx.set_timer(think, TOKEN_THINK);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, token: u64) {
        match token {
            // The warmup fire opens a closed loop's whole window at once;
            // afterwards each completion replaces exactly one request.
            TOKEN_SEND => {
                if let Workload::Closed { window, .. } = self.config.workload {
                    for _ in 0..window.max(1) {
                        self.send_next(ctx);
                    }
                } else {
                    self.send_next(ctx);
                }
            }
            TOKEN_THINK => self.send_next(ctx),
            TOKEN_TIMEOUT => loop {
                let outcomes = &self.outcomes;
                let due = self.timeouts.next_due(ctx, |id, _| {
                    outcomes
                        .get(id as usize)
                        .is_some_and(|o| o.completed_at.is_none() && !o.timed_out)
                });
                let Some((id, _)) = due else {
                    break;
                };
                self.time_out(ctx, id);
            },
            _ => {}
        }
    }

    /// A crash clears the node's timers; the requests in flight at the
    /// crash still get their timeouts, and a workload with requests left
    /// to send gets its send chain back.
    fn on_restart(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        self.timeouts.arm(ctx);
        if !self.quota_left() {
            return;
        }
        if self.stats.sent == 0 {
            // down through the warmup: start over
            return self.on_start(ctx);
        }
        match self.config.workload {
            Workload::Manual => {}
            // one `TOKEN_SEND` is always pending between two sends
            Workload::Open { .. } => {
                let next = self.interval(ctx);
                ctx.set_timer(next, TOKEN_SEND);
            }
            // every slot of the window is a request in flight or a pending
            // `TOKEN_THINK`; those died, the requests have their timeouts
            Workload::Closed { think, window } => {
                for _ in self.stats.in_flight()..u64::from(window.max(1)) {
                    ctx.set_timer(think, TOKEN_THINK);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Element {
        let mut p = Element::new("StudentInformation");
        p.push_child(Element::with_text("StudentID", "u1000"));
        p
    }

    #[test]
    fn manual_registration_and_completion() {
        let mut c = ClientActor::new(ClientConfig::manual(NodeId::from_index(0)));
        let id = c.register_manual(SimTime::from_micros(100));
        assert_eq!(c.stats().sent, 1);
        let resp = Envelope::request(payload()).to_xml_string();
        c.complete(id, SimTime::from_micros(700), &resp);
        let s = c.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.faults, 0);
        assert_eq!(s.rtt.count(), 1);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.availability(), Some(1.0));
        assert_eq!(
            c.outcomes()[0].completed_at,
            Some(SimTime::from_micros(700))
        );
    }

    #[test]
    fn fault_responses_counted_separately() {
        let mut c = ClientActor::new(ClientConfig::manual(NodeId::from_index(0)));
        let id = c.register_manual(SimTime::ZERO);
        let fault = Envelope::fault(whisper_soap::Fault::new(
            whisper_soap::FaultCode::Receiver,
            "down",
        ))
        .to_xml_string();
        c.complete(id, SimTime::from_micros(10), &fault);
        assert_eq!(c.stats().faults, 1);
        assert_eq!(c.stats().rtt.count(), 0);
        assert_eq!(c.stats().availability(), Some(0.0));
    }

    #[test]
    fn duplicate_responses_ignored() {
        let mut c = ClientActor::new(ClientConfig::manual(NodeId::from_index(0)));
        let id = c.register_manual(SimTime::ZERO);
        let resp = Envelope::request(payload()).to_xml_string();
        c.complete(id, SimTime::from_micros(10), &resp);
        c.complete(id, SimTime::from_micros(20), &resp);
        assert_eq!(c.stats().completed, 1);
        // unknown ids ignored too
        c.complete(99, SimTime::from_micros(30), &resp);
        assert_eq!(c.stats().completed, 1);
    }

    #[test]
    fn unparseable_response_counts_as_fault() {
        let mut c = ClientActor::new(ClientConfig::manual(NodeId::from_index(0)));
        let id = c.register_manual(SimTime::ZERO);
        c.complete(id, SimTime::from_micros(10), "garbage");
        assert_eq!(c.stats().faults, 1);
    }

    #[test]
    fn availability_none_before_any_resolution() {
        let mut c = ClientActor::new(ClientConfig::manual(NodeId::from_index(0)));
        assert_eq!(c.stats().availability(), None);
        let _ = c.register_manual(SimTime::ZERO);
        assert_eq!(c.stats().availability(), None);
        assert_eq!(c.stats().in_flight(), 1);
    }
}

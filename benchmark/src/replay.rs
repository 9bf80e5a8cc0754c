//! The traced run's replay: one request's path walked on a single thread,
//! every layer boundary wrapped in a span recorded by the benchmark itself.
//!
//! The replay calls the same public functions the actors call, on the
//! envelopes captured from the workload, in the order a warm request
//! crosses them: the client builds and sends, the proxy parses, selects
//! the group and forwards, the coordinator hands two requests in three to
//! a sibling (load sharing over three replicas), a b-peer parses, executes
//! and answers, the proxy inspects the answer and relays it, the client
//! parses and checks it. Every message crossing is encode → frame →
//! loopback socket write+read → unframe → decode.
//!
//! What the replay cannot contain is what only exists between threads:
//! queueing, wake-ups, actor dispatch. `trace.unattributed_us` is the
//! measured round trip minus the replayed path — the number a later
//! in-program waterfall has to explain.

use std::fmt::Write as _;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::inputs::{Template, Verdict};
use crate::layers::Captured;
use crate::report::Report;
use crate::stats::median;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use whisper::matchmaker::{
    rank_candidates, select_from_ranked, RankedCandidate, SemanticMatchCache,
};
use whisper::{
    EchoBackend, QosMonitor, SelectionPolicy, ServiceBackend, StudentRegistry, WhisperMsg,
};
use whisper_ontology::Ontology;
use whisper_p2p::{PeerId, SemanticAdv};
use whisper_simnet::SimTime;
use whisper_soap::Envelope;
use whisper_wire::{decode_clocked, encode_clocked_into, read_frame_into, write_frames_vectored};
use whisper_wsdl::OperationSemantics;
use whisper_xml::Element;

/// Requests whose spans are kept at most (memory), and written at most.
const KEEP_REQUESTS: usize = 20_000;
const WRITE_REQUESTS: u32 = 1_000;

/// Fewest requests a replay pass makes, whatever the budget.
const MIN_REQUESTS: usize = 200;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.what`, e.g. `soap.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a request's root.
    pub parent: u32,
    /// The request the span belongs to.
    pub request: u32,
}

/// The benchmark's own span recorder: spans live in memory and are written
/// out when the run ends. Switched off, entering a span costs one branch.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Spans {
    /// A recorder, recording or not.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover. Same order as [`Spans::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans of the first [`WRITE_REQUESTS`] requests, one JSON object
    /// a line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.request >= WRITE_REQUESTS {
                break;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"request\": {}, \"span\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Evaluates `$body` inside a span called `$name`.
macro_rules! span {
    ($spans:expr, $name:literal, $body:expr) => {{
        $spans.enter($name);
        let value = $body;
        $spans.exit();
        value
    }};
}

/// Everything the replayed nodes hold between requests.
struct Path {
    spans: Spans,
    operation: &'static str,
    request_payload: Element,
    template: Template,
    ontology: Ontology,
    semantics: OperationSemantics,
    candidates: Vec<SemanticAdv>,
    memo: SemanticMatchCache,
    monitor: QosMonitor,
    rng: SmallRng,
    backend: Box<dyn ServiceBackend>,
    writer: TcpStream,
    reader: TcpStream,
    scratch: Vec<u8>,
    framed: Vec<u8>,
    inbox: Vec<u8>,
    payload: Vec<u8>,
}

impl Path {
    fn new(captured: &Captured, template: &Template, spans_on: bool) -> Path {
        let service = whisper_wsdl::samples::student_management();
        let ontology = whisper_ontology::samples::university_ontology();
        let semantics = service
            .operation(captured.operation)
            .expect("sample operation")
            .resolve(&ontology)
            .expect("sample annotations resolve");
        let request = Envelope::parse(&captured.request).expect("own request");
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
        let writer =
            TcpStream::connect(listener.local_addr().expect("bound")).expect("loopback connect");
        let (reader, _) = listener.accept().expect("loopback accept");
        writer.set_nodelay(true).expect("nodelay");
        reader.set_nodelay(true).expect("nodelay");
        Path {
            spans: Spans::new(spans_on),
            operation: captured.operation,
            request_payload: request.body_payload().expect("own request").clone(),
            template: template.clone(),
            ontology,
            semantics,
            candidates: vec![captured.advertisement.clone()],
            memo: SemanticMatchCache::new(),
            monitor: QosMonitor::default(),
            rng: SmallRng::seed_from_u64(1),
            backend: if captured.operation == "StudentInformation" {
                Box::new(StudentRegistry::operational_db().with_sample_data())
            } else {
                Box::new(EchoBackend)
            },
            writer,
            reader,
            scratch: Vec::new(),
            framed: Vec::new(),
            inbox: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// One message crossing between two nodes.
    fn hop(&mut self, msg: WhisperMsg) -> WhisperMsg {
        let s = &mut self.spans;
        span!(s, "wire.encode", {
            self.scratch.clear();
            encode_clocked_into(&msg, 1, &mut self.scratch);
        });
        span!(s, "wire.frame_write", {
            self.framed.clear();
            write_frames_vectored(&mut self.framed, &[&self.scratch]).expect("Vec sink");
        });
        span!(s, "simnet.hop", {
            self.writer.write_all(&self.framed).expect("loopback write");
            self.inbox.resize(self.framed.len(), 0);
            self.reader
                .read_exact(&mut self.inbox)
                .expect("loopback read");
        });
        span!(s, "wire.frame_read", {
            read_frame_into(&mut Cursor::new(&self.inbox), &mut self.payload).expect("own frame");
        });
        span!(s, "wire.decode", {
            decode_clocked::<WhisperMsg>(&self.payload)
                .expect("own encoding")
                .0
        })
    }

    /// One request, client to client. `k` picks the delegated variant.
    fn request(&mut self, k: u64) {
        let envelope_of = |msg: WhisperMsg| match msg {
            WhisperMsg::SoapRequest { envelope, .. }
            | WhisperMsg::SoapResponse { envelope, .. }
            | WhisperMsg::PeerRequest { envelope, .. }
            | WhisperMsg::PeerResponse { envelope, .. } => envelope,
            other => unreachable!("the replay sends no {other:?}"),
        };
        let proxy = PeerId::new(4);
        self.spans.request = k as u32;
        self.spans.enter("replay.request");

        self.spans.enter("replay.client_send");
        let envelope = span!(self.spans, "soap.build", {
            Envelope::request(self.request_payload.clone()).to_xml_string()
        });
        let envelope = envelope_of(self.hop(WhisperMsg::SoapRequest {
            request_id: k,
            envelope,
        }));
        self.spans.exit();

        self.spans.enter("replay.proxy_forward");
        span!(self.spans, "soap.parse", {
            let parsed = Envelope::parse(&envelope).expect("own request");
            assert!(parsed
                .body_payload()
                .is_some_and(|p| p.name == self.operation));
        });
        span!(self.spans, "core.matchmaker", {
            let (ontology, semantics, candidates) =
                (&self.ontology, &self.semantics, &self.candidates);
            let build = || -> (Vec<RankedCandidate>, SimTime) {
                (
                    rank_candidates(ontology, semantics, candidates.iter()),
                    SimTime::from_micros(u64::MAX),
                )
            };
            let (ranked, _) = self
                .memo
                .get_or_build(self.operation, 1, &[], SimTime::ZERO, build);
            select_from_ranked(
                ranked,
                SelectionPolicy::SemanticThenQos,
                &mut self.rng,
                &self.monitor,
            )
            .expect("the group matches its own operation");
        });
        let mut envelope = envelope_of(self.hop(WhisperMsg::PeerRequest {
            request_id: k,
            reply_to: proxy,
            delegated: false,
            envelope,
        }));
        self.spans.exit();

        if !k.is_multiple_of(3) {
            // round-robin over three live members: the coordinator keeps
            // every third request and hands the others to a sibling
            self.spans.enter("replay.bpeer_delegate");
            envelope = envelope_of(self.hop(WhisperMsg::PeerRequest {
                request_id: k,
                reply_to: proxy,
                delegated: true,
                envelope,
            }));
            self.spans.exit();
        }

        self.spans.enter("replay.bpeer_execute");
        let parsed = span!(self.spans, "soap.parse", {
            Envelope::parse(&envelope).expect("own request")
        });
        let answer = span!(self.spans, "core.backend", {
            let payload = parsed.body_payload().expect("own request");
            self.backend
                .handle(self.operation, payload)
                .expect("the backend answers its own workload")
        });
        let response = span!(self.spans, "soap.build", {
            Envelope::request(answer).to_xml_string()
        });
        let response = envelope_of(self.hop(WhisperMsg::PeerResponse {
            request_id: k,
            envelope: response,
        }));
        self.spans.exit();

        self.spans.enter("replay.proxy_return");
        span!(self.spans, "soap.parse", {
            assert!(!Envelope::parse(&response).expect("own response").is_fault());
        });
        let response = envelope_of(self.hop(WhisperMsg::SoapResponse {
            request_id: k,
            envelope: response,
        }));
        self.spans.exit();

        self.spans.enter("replay.client_receive");
        span!(self.spans, "soap.parse", {
            assert_eq!(self.template.check(&response), Verdict::Good);
        });
        self.spans.exit();

        self.spans.exit();
    }

    /// Replays requests for `budget`; returns wall µs per request.
    fn run(&mut self, budget: Duration) -> Vec<f64> {
        let give_up = Instant::now() + budget;
        let mut per_request = Vec::new();
        let mut k = 0u64;
        while (Instant::now() < give_up || per_request.len() < MIN_REQUESTS)
            && per_request.len() < KEEP_REQUESTS
        {
            let t0 = Instant::now();
            self.request(k);
            per_request.push(t0.elapsed().as_nanos() as f64 / 1e3);
            k += 1;
        }
        per_request
    }
}

/// The layer a span's self time is billed to: the part of its name before
/// the dot.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Replays the request path with spans off and on, fills the `trace.*`
/// metrics, and returns the self-time table and the span file's content.
///
/// `reference_rtt_us` is the measured round trip the replayed path is
/// subtracted from.
pub fn run(
    report: &mut Report,
    captured: &Captured,
    template: &Template,
    reference_rtt_us: f64,
    budget: Duration,
) -> (String, String) {
    let plain = Path::new(captured, template, false).run(budget / 2);
    let mut path = Path::new(captured, template, true);
    let traced = path.run(budget / 2);
    let (plain_us, traced_us) = (median(&plain), median(&traced));
    report.set_one(
        "trace.overhead_pct",
        100.0 * (traced_us - plain_us) / plain_us,
    );

    // per request: self time by span name, and by layer
    let spans = path.spans.spans();
    let own = path.spans.self_times_ns();
    let requests = traced.len();
    let mut names: Vec<&'static str> = Vec::new();
    let mut by_name: Vec<Vec<f64>> = Vec::new();
    for (s, own_ns) in spans.iter().zip(&own) {
        let i = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
            names.push(s.name);
            by_name.push(vec![0.0; requests]);
            names.len() - 1
        });
        by_name[i][s.request as usize] += *own_ns as f64 / 1e3;
    }
    let layer_sum = |layer: &str| -> Vec<f64> {
        (0..requests)
            .map(|r| {
                names
                    .iter()
                    .zip(&by_name)
                    .filter(|(n, _)| layer_of(n) == layer)
                    .map(|(_, v)| v[r])
                    .sum()
            })
            .collect()
    };
    let path_sum: Vec<f64> = (0..requests)
        .map(|r| by_name.iter().map(|v| v[r]).sum())
        .collect();
    report.set("trace.path_sum_us", &path_sum);
    report.set_one(
        "trace.unattributed_us",
        reference_rtt_us - median(&path_sum),
    );
    for (metric, layer) in [
        ("trace.soap_us", "soap"),
        ("trace.wire_us", "wire"),
        ("trace.simnet_us", "simnet"),
        ("trace.core_us", "core"),
    ] {
        report.set(metric, &layer_sum(layer));
    }

    let mut table = format!(
        "replay of {requests} requests, self time per request (median):\n{:<26} {:>8} {:>12}\n",
        "span", "calls", "self us"
    );
    for (name, values) in names.iter().zip(&by_name) {
        let calls = spans.iter().filter(|s| s.name == *name).count() as f64 / requests as f64;
        let _ = writeln!(table, "{name:<26} {calls:>8.2} {:>12.3}", median(values));
    }
    let _ = writeln!(
        table,
        "{:<26} {:>8} {:>12.3}  (trace.path_sum_us)\n{:<26} {:>8} {:>12.3}  (measured round trip)\n{:<26} {:>8} {:>12.3}  (trace.unattributed_us)",
        "sum",
        "",
        median(&path_sum),
        "reference",
        "",
        reference_rtt_us,
        "not in the replay",
        "",
        reference_rtt_us - median(&path_sum),
    );
    (table, path.spans.to_jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut spans = Spans::new(true);
        spans.spans = vec![
            Span {
                name: "replay.request",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                request: 0,
            },
            Span {
                name: "replay.stage",
                start_ns: 10,
                end_ns: 90,
                parent: 0,
                request: 0,
            },
            Span {
                name: "soap.parse",
                start_ns: 20,
                end_ns: 50,
                parent: 1,
                request: 0,
            },
            Span {
                name: "wire.encode",
                start_ns: 50,
                end_ns: 85,
                parent: 1,
                request: 0,
            },
        ];
        assert_eq!(spans.self_times_ns(), vec![20, 15, 30, 35]);
        assert_eq!(spans.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_by_entry_order_and_cost_nothing_when_off() {
        let mut spans = Spans::new(true);
        spans.enter("replay.request");
        spans.enter("soap.parse");
        spans.exit();
        spans.enter("wire.encode");
        spans.exit();
        spans.exit();
        let parents: Vec<u32> = spans.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0]);
        assert!(spans.to_jsonl().lines().count() == 3);

        let mut off = Spans::new(false);
        off.enter("replay.request");
        off.exit();
        assert!(off.spans().is_empty());
    }
}

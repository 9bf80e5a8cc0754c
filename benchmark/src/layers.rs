//! Per-layer timings of a traced run, taken from outside: each layer's
//! public functions are called on the workload's own captured envelopes,
//! two-node volleys time one transport hop at the workload's frame size,
//! and short simulator re-runs price the observability planes.

use std::hint::black_box;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::Cluster;
use crate::generator::{Command, KICK};
use crate::inputs::Inputs;
use crate::report::Report;
use crate::stats::median;
use crate::steady::{phase_stats, slices_in};
use crate::workload::{Net, Watching, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use whisper::matchmaker::{rank_candidates, select_from_ranked, SemanticMatchCache};
use whisper::{
    EchoBackend, QosMonitor, SelectionPolicy, ServiceBackend, StudentRegistry, WhisperMsg,
};
use whisper_ontology::Ontology;
use whisper_p2p::{
    AdvFilter, AdvKind, Advertisement, DiscoveryService, DiscoveryStrategy, PeerAdv, PeerId,
    SemanticAdv,
};
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{Actor, Context, NodeId, SimDuration, SimTime};
use whisper_soap::Envelope;
use whisper_wire::{decode_clocked, encode_clocked_into, write_frames_vectored};
use whisper_wsdl::ServiceDescription;

/// The envelopes of one request of the workload, as captured from the run.
#[derive(Debug, Clone)]
pub struct Captured {
    /// The operation called.
    pub operation: &'static str,
    /// A request envelope the generator sent.
    pub request: String,
    /// A good response envelope the generator received.
    pub response: String,
    /// The semantic advertisement the b-peer group published.
    pub advertisement: SemanticAdv,
}

/// Calls `f` in batches for about `budget` and returns the cost of one
/// call in µs, one value per batch. The batch size is found first (a batch
/// lasts about a millisecond, so the clock reads are noise).
pub fn time_calls(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_micros(500) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut per_call = Vec::new();
    let give_up = Instant::now() + budget;
    while Instant::now() < give_up || per_call.len() < 3 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / 1e3 / batch as f64);
    }
    per_call
}

/// Times every layer's public entry points on `captured`; `budget` is
/// split evenly over the timings.
pub fn time_layers(report: &mut Report, captured: &Captured, budget: Duration) {
    let each = budget / 16;
    let response = captured.response.as_str();

    // xml: the parser and writer under every envelope and advertisement
    let parse = time_calls(each, || {
        black_box(whisper_xml::parse(black_box(response)).expect("captured response parses"));
    });
    let mib_s: Vec<f64> = parse
        .iter()
        .map(|us| response.len() as f64 / (1024.0 * 1024.0) / (us / 1e6))
        .collect();
    report.set_cost("xml.parse_us", &parse);
    report.set_rate("xml.parse_mib_s", &mib_s);
    let tree = whisper_xml::parse(response).expect("captured response parses");
    report.set_cost(
        "xml.write_us",
        &time_calls(each, || {
            black_box(black_box(&tree).to_xml());
        }),
    );

    // soap: what proxy, b-peer and client each do per envelope
    report.set_cost(
        "soap.parse_us",
        &time_calls(each, || {
            black_box(Envelope::parse(black_box(response)).expect("captured response parses"));
        }),
    );
    let envelope = Envelope::parse(response).expect("captured response parses");
    report.set_cost(
        "soap.build_us",
        &time_calls(each, || {
            black_box(black_box(&envelope).to_xml_string());
        }),
    );

    // wsdl + ontology: paid at boot, and (matching) on a cold bind
    let service = whisper_wsdl::samples::student_management();
    let wsdl_text = service.to_xml_string();
    report.set_cost(
        "wsdl.parse_us",
        &time_calls(each, || {
            black_box(ServiceDescription::parse(black_box(&wsdl_text)).expect("sample WSDL"));
        }),
    );
    let ontology = whisper_ontology::samples::university_ontology();
    let ontology_text = ontology.to_xml().to_xml();
    report.set_cost(
        "ontology.load_us",
        &time_calls(each, || {
            let root = whisper_xml::parse(black_box(&ontology_text)).expect("sample ontology");
            black_box(Ontology::from_xml(&root).expect("sample ontology"));
        }),
    );
    let semantics = service
        .operation(captured.operation)
        .expect("sample operation")
        .resolve(&ontology)
        .expect("sample annotations resolve");
    report.set_cost(
        "ontology.match_us",
        &time_calls(each, || {
            black_box(
                ontology.match_concept_lists(
                    black_box(&semantics.inputs),
                    black_box(&semantics.inputs),
                ),
            );
            black_box(
                ontology.match_concept_lists(
                    black_box(&semantics.outputs),
                    black_box(&semantics.outputs),
                ),
            );
        }),
    );

    // wire: message codec and framing, on the response message
    let message = WhisperMsg::SoapResponse {
        request_id: 1 << 33,
        envelope: captured.response.clone(),
    };
    let mut frame = Vec::new();
    report.set_cost(
        "wire.encode_us",
        &time_calls(each, || {
            frame.clear();
            encode_clocked_into(black_box(&message), 7, &mut frame);
            black_box(&frame);
        }),
    );
    report.set_one("wire.frame_bytes", (frame.len() + 4) as f64);
    report.set_cost(
        "wire.decode_us",
        &time_calls(each, || {
            black_box(decode_clocked::<WhisperMsg>(black_box(&frame)).expect("own encoding"));
        }),
    );
    let mut sink = Vec::with_capacity(9 * (frame.len() + 4));
    for (name, frames) in [("wire.flush1_us", 1), ("wire.flush8_us", 8)] {
        let payloads: Vec<&[u8]> = vec![frame.as_slice(); frames];
        report.set_cost(
            name,
            &time_calls(each, || {
                sink.clear();
                write_frames_vectored(&mut sink, black_box(&payloads)).expect("Vec sink");
                black_box(&sink);
            }),
        );
    }

    // p2p: the discovery cache a warm request consults, and the XML form
    // advertisements travel in
    let semantic = captured.advertisement.clone();
    let group = semantic.group;
    let mut discovery = DiscoveryService::new(PeerId::new(9), DiscoveryStrategy::Flood);
    let lifetime = SimDuration::from_secs(600);
    discovery.publish(
        Advertisement::Semantic(semantic.clone()),
        lifetime,
        SimTime::ZERO,
    );
    for peer in 1..=crate::workload::REPLICAS as u64 {
        discovery.publish(
            Advertisement::Peer(PeerAdv {
                peer: PeerId::new(peer),
                name: format!("peer-{peer}"),
                group: Some(group),
            }),
            lifetime,
            SimTime::ZERO,
        );
    }
    let now = SimTime::from_micros(1_000_000);
    let semantic_filter = AdvFilter::of_kind(AdvKind::Semantic);
    let mut member_filter = AdvFilter::of_kind(AdvKind::Peer);
    member_filter.group = Some(group);
    report.set_cost(
        "p2p.lookup_us",
        &time_calls(each, || {
            black_box(discovery.local_lookup_iter(&semantic_filter, now).count());
            black_box(discovery.local_lookup_iter(&member_filter, now).count());
        }),
    );
    let adv_text = Advertisement::Semantic(semantic.clone()).to_xml_string();
    report.set_one("p2p.adv_bytes", adv_text.len() as f64);
    report.set_cost(
        "p2p.adv_parse_us",
        &time_calls(each, || {
            black_box(Advertisement::parse(black_box(&adv_text)).expect("own advertisement"));
        }),
    );

    // core: the proxy's group selection warm and cold, and the backend
    let candidates = [semantic];
    let monitor = QosMonitor::default();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut memo = SemanticMatchCache::new();
    let far = SimTime::from_micros(u64::MAX);
    report.set_cost(
        "core.matchmaker_warm_us",
        &time_calls(each, || {
            let (ranked, _) = memo.get_or_build(captured.operation, 1, &[], now, || {
                (
                    rank_candidates(&ontology, &semantics, candidates.iter()),
                    far,
                )
            });
            black_box(select_from_ranked(
                ranked,
                SelectionPolicy::SemanticThenQos,
                &mut rng,
                &monitor,
            ));
        }),
    );
    report.set_cost(
        "core.matchmaker_cold_us",
        &time_calls(each, || {
            black_box(rank_candidates(
                &ontology,
                &semantics,
                black_box(&candidates).iter(),
            ));
        }),
    );
    let request = Envelope::parse(&captured.request).expect("own request");
    let payload = request.body_payload().expect("own request has a body");
    let mut backend: Box<dyn ServiceBackend> = if captured.operation == "StudentInformation" {
        Box::new(StudentRegistry::operational_db().with_sample_data())
    } else {
        Box::new(EchoBackend)
    };
    report.set_cost(
        "core.backend_us",
        &time_calls(each, || {
            black_box(
                backend
                    .handle(captured.operation, black_box(payload))
                    .expect("the backend answers its own workload"),
            );
        }),
    );
}

/// One end of a two-node volley: bounces `ball` back, and on the serving
/// side times each round trip until `until`, then reports the one-way
/// times.
struct Volley {
    peer: NodeId,
    ball: WhisperMsg,
    serve: Option<(Instant, Sender<Vec<f64>>)>,
    sent_at: Instant,
    hops_us: Vec<f64>,
}

impl Actor<WhisperMsg> for Volley {
    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        let Some((until, done)) = &self.serve else {
            ctx.send(self.peer, msg); // the far end: straight back
            return;
        };
        let now = Instant::now();
        if !matches!(msg, WhisperMsg::ScopeRequest { request_id: KICK }) {
            self.hops_us
                .push((now - self.sent_at).as_nanos() as f64 / 2e3);
        }
        if now >= *until {
            let _ = done.send(std::mem::take(&mut self.hops_us));
            return;
        }
        self.sent_at = Instant::now();
        ctx.send(self.peer, self.ball.clone());
    }
}

/// Times one transport hop on the two live runtimes with a message of the
/// workload's response size: two nodes, one message in flight, receivers
/// blocked in their mailbox — the bare cost of a hop with its thread wake.
pub fn time_hops(report: &mut Report, captured: &Captured, budget: Duration) {
    let ball = WhisperMsg::SoapResponse {
        request_id: 1,
        envelope: captured.response.clone(),
    };
    let ends = |done: Sender<Vec<f64>>| {
        let until = Instant::now() + budget / 2;
        let end = |peer: usize, serve| Volley {
            peer: NodeId::from_index(peer),
            ball: ball.clone(),
            serve,
            sent_at: Instant::now(),
            hops_us: Vec::new(),
        };
        (end(1, Some((until, done))), end(0, None))
    };
    let kick = WhisperMsg::ScopeRequest { request_id: KICK };
    let server = NodeId::from_index(0);
    let limit = budget / 2 + Duration::from_secs(10);

    let (done, results) = channel();
    let (a, b) = ends(done);
    let mut builder = TcpNetBuilder::new();
    builder.add_node(a);
    builder.add_node(b);
    let net = builder.start().expect("loopback sockets");
    net.inject(server, server, kick.clone());
    let hops = results.recv_timeout(limit).expect("tcp volley finishes");
    net.shutdown();
    report.set_cost("simnet.tcpnet_hop_us", &batch_medians(&hops));

    let (done, results) = channel();
    let (a, b) = ends(done);
    let mut builder = ThreadNetBuilder::new();
    builder.add_node(a);
    builder.add_node(b);
    let net = builder.start();
    net.inject(server, server, kick);
    let hops = results
        .recv_timeout(limit)
        .expect("channel volley finishes");
    net.shutdown();
    report.set_cost("simnet.threadnet_hop_us", &batch_medians(&hops));
}

/// Medians of consecutive batches of a long sample (about 32 of them).
fn batch_medians(values: &[f64]) -> Vec<f64> {
    values
        .chunks((values.len() / 32).max(1))
        .map(median)
        .collect()
}

/// Prices the observability planes: the workload's request on the
/// simulator (one thread, so wall time per request is CPU per request),
/// bare, with a trace recorder in every actor, and with flight rings on
/// every node. Also reads the proxy's match-cache hit share off the
/// recorder run, the only place the program counts it.
pub fn time_watching(
    report: &mut Report,
    workload: &Workload,
    inputs: &Arc<Inputs>,
    budget: Duration,
) {
    let on_sim = Workload {
        net: Net::Sim,
        boots: 1,
        ..*workload
    };
    // the three variants take turns, so that a change of the machine's
    // pace during the timing lands on all of them
    const ROUNDS: u32 = 4;
    let span = budget / (3 * ROUNDS);
    let recorder = whisper_obs::Recorder::new();
    let variants = [
        Watching::default(),
        Watching {
            recorder: Some(recorder.clone()),
            flight: None,
        },
        Watching {
            recorder: None,
            flight: Some(whisper_obs::flight::DEFAULT_RING_BYTES),
        },
    ];
    let mut rates: [Vec<f64>; 3] = Default::default();
    for _ in 0..ROUNDS {
        for (watching, rates) in variants.iter().zip(&mut rates) {
            let (mut cluster, _) = Cluster::boot(&on_sim, inputs, inputs.seed, watching.clone());
            let log = cluster.run_phase(
                Command::Closed {
                    window: 4,
                    duration: span,
                    marks: slices_in(span),
                },
                span + Duration::from_secs(15),
            );
            cluster.shutdown();
            rates.append(&mut phase_stats(&log, span, slices_in(span)).goodput_rps);
        }
    }
    // the rate of the quietest tenth of the slices, like `goodput_rps`
    let [bare, recorded, flown] =
        rates.map(|r| 1e6 / crate::stats::Summary::quiet_rate(&r).value.max(1.0));
    report.set_one(
        "obs.recorder_overhead_pct",
        100.0 * (recorded - bare) / bare,
    );
    report.set_one("obs.flight_overhead_pct", 100.0 * (flown - bare) / bare);
    report.set_one(
        "core.match_cache_hit_share",
        100.0 * recorder.counter("proxy.memo_hits") as f64
            / recorder.counter("proxy.requests").max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_calls_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for i in 0..n {
                    x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
                black_box(x);
            }
        };
        let short = median(&time_calls(Duration::from_millis(20), spin(200)));
        let long = median(&time_calls(Duration::from_millis(20), spin(4000)));
        assert!(long > 5.0 * short, "{short} vs {long}");
    }
}

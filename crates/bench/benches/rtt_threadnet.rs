//! Wall-clock message round-trip over the **real-time** runtimes: the same
//! actor abstraction as the simulator, but on real OS threads — with
//! crossbeam channels (`threadnet/*`) or real TCP loopback sockets
//! (`tcpnet/*`) as the link. This is the hardware-grounded counterpart of
//! the simulated RTT analysis — absolute numbers reflect this machine, not
//! the paper's LAN, but the protocol code path is identical, and on the
//! TCP variant every message really is encoded to bytes, framed, written
//! to a socket, read back and decoded.
//!
//! Two shapes are measured per transport:
//!
//! * `100_hop_volley` — a ~1 KiB ball bounced 100 times between two
//!   trivial actors: the transport's raw per-hop overhead.
//! * `request_cycle` — one full Whisper SOAP request through the
//!   **unmodified** `SwsProxyActor` and `BPeerActor` implementations
//!   (client → proxy → coordinator b-peer → proxy → client), measured warm
//!   (after discovery has bound the group). Compare against the paper's
//!   ≈0.5 ms LAN round trip.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whisper::{
    BPeerActor, BPeerConfig, Directory, GroupSpec, ProxyConfig, ServiceBackend, StudentRegistry,
    SwsProxyActor, WhisperMsg,
};
use whisper_p2p::{GroupId, PeerId, SemanticAdv};
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{Actor, Context, NodeId, Wire};
use whisper_soap::Envelope;
use whisper_wire::{Decode, Encode, Reader, WireError};
use whisper_xml::Element;

// --- Raw volley: transport overhead without any protocol logic ----------

/// A ~1 KiB message, matching the paper's benchmark request size.
#[derive(Clone, Debug)]
struct Ball {
    bounces_left: u32,
    pad: Vec<u8>,
}

impl Ball {
    fn new(bounces_left: u32) -> Self {
        Ball {
            bounces_left,
            pad: vec![0; 1017],
        }
    }
}

impl Wire for Ball {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
    fn kind(&self) -> &'static str {
        "ball"
    }
}

impl Encode for Ball {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.bounces_left.encode_into(out);
        self.pad.encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        self.bounces_left.encoded_len() + self.pad.encoded_len()
    }
}

impl Decode for Ball {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Ball {
            bounces_left: u32::decode_from(r)?,
            pad: Vec::decode_from(r)?,
        })
    }
}

/// Bounces the ball back until it runs out, then bumps the counter.
struct Paddle {
    completed: Arc<AtomicU64>,
}

impl Actor<Ball> for Paddle {
    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
        if msg.bounces_left == 0 {
            self.completed.fetch_add(1, Ordering::SeqCst);
        } else {
            ctx.send(from, Ball::new(msg.bounces_left - 1));
        }
    }
}

/// Injects a 100-bounce ball and spin-waits for the far side to finish.
fn run_volley(c: &mut Criterion, label: &str, completed: &Arc<AtomicU64>, inject: impl Fn(Ball)) {
    c.bench_function(label, |bench| {
        bench.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let before = completed.load(Ordering::SeqCst);
                let start = Instant::now();
                inject(Ball::new(100));
                while completed.load(Ordering::SeqCst) == before {
                    std::hint::spin_loop();
                }
                total += start.elapsed();
            }
            total
        })
    });
}

fn bench_threadnet_volley(c: &mut Criterion) {
    let completed = Arc::new(AtomicU64::new(0));
    let mut b = ThreadNetBuilder::new();
    let a = b.add_node(Paddle {
        completed: completed.clone(),
    });
    let z = b.add_node(Paddle {
        completed: completed.clone(),
    });
    let net = b.start();
    run_volley(c, "threadnet/100_hop_volley", &completed, |ball| {
        net.inject(a, z, ball)
    });
    net.shutdown();
}

fn bench_tcpnet_volley(c: &mut Criterion) {
    let completed = Arc::new(AtomicU64::new(0));
    let mut b = TcpNetBuilder::new();
    let a = b.add_node(Paddle {
        completed: completed.clone(),
    });
    let z = b.add_node(Paddle {
        completed: completed.clone(),
    });
    let net = b.start().expect("loopback sockets");
    run_volley(c, "tcpnet/100_hop_volley", &completed, |ball| {
        net.inject(a, z, ball)
    });
    net.shutdown();
}

// --- Full request cycle through the unmodified Whisper actors -----------

const N_BPEERS: usize = 3;

/// Forwards injected SOAP requests to the proxy and counts responses: the
/// measuring end of the cycle. Everything in between — discovery, binding,
/// election, execution — runs in the unmodified proxy and b-peer actors.
struct BenchClient {
    proxy: NodeId,
    completed: Arc<AtomicU64>,
}

impl Actor<WhisperMsg> for BenchClient {
    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        match msg {
            req @ WhisperMsg::SoapRequest { .. } => ctx.send(self.proxy, req),
            WhisperMsg::SoapResponse { .. } => {
                self.completed.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
    }
}

/// The student scenario wired by hand, mirroring the simulator harness's
/// layout: b-peer replicas on nodes `0..N_BPEERS`, the proxy next, the
/// measuring client last (clients are not peers, so it stays out of the
/// directory).
fn whisper_actors(completed: &Arc<AtomicU64>) -> (Vec<BPeerActor>, SwsProxyActor, BenchClient) {
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample operation");
    let backends: Vec<Box<dyn ServiceBackend>> = (0..N_BPEERS)
        .map(|i| -> Box<dyn ServiceBackend> {
            if i % 2 == 0 {
                Box::new(StudentRegistry::operational_db().with_sample_data())
            } else {
                Box::new(StudentRegistry::data_warehouse().with_sample_data())
            }
        })
        .collect();
    let spec = GroupSpec::from_operation("StudentInfoGroup", op, backends);

    let peer_of = |idx: usize| PeerId::new(idx as u64 + 1);
    let proxy_idx = N_BPEERS;
    let mut pairs: Vec<(PeerId, NodeId)> = (0..N_BPEERS)
        .map(|i| (peer_of(i), NodeId::from_index(i)))
        .collect();
    pairs.push((peer_of(proxy_idx), NodeId::from_index(proxy_idx)));
    let directory = Directory::with_routes(pairs, Vec::new());

    let group = GroupId::new(1);
    let members: Vec<PeerId> = (0..N_BPEERS).map(peer_of).collect();
    let adv = SemanticAdv {
        group,
        name: spec.name.clone(),
        action: spec.action.clone(),
        inputs: spec.inputs.clone(),
        outputs: spec.outputs.clone(),
        qos: spec.qos,
    };
    let bpeers: Vec<BPeerActor> = spec
        .backends
        .into_iter()
        .enumerate()
        .map(|(i, backend)| {
            BPeerActor::new(
                peer_of(i),
                group,
                members.clone(),
                adv.clone(),
                backend,
                directory.clone(),
                BPeerConfig::default(),
            )
        })
        .collect();

    let mut proxy = SwsProxyActor::new(
        peer_of(proxy_idx),
        &service,
        whisper_ontology::samples::university_ontology(),
        directory.clone(),
        ProxyConfig::default(),
    );
    for i in 0..N_BPEERS {
        proxy.add_known_peer(peer_of(i));
    }

    let client = BenchClient {
        proxy: NodeId::from_index(proxy_idx),
        completed: completed.clone(),
    };
    (bpeers, proxy, client)
}

fn student_request(request_id: u64) -> WhisperMsg {
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1004"));
    WhisperMsg::SoapRequest {
        request_id,
        envelope: Envelope::request(payload).to_xml_string(),
    }
}

/// Warm-up (cold discovery waits for every b-peer's flood answer, and at
/// most the proxy's 250 ms gather window, and may wait out an election),
/// then measure warm request round trips.
fn run_request_cycle(
    c: &mut Criterion,
    label: &str,
    completed: &Arc<AtomicU64>,
    inject: impl Fn(WhisperMsg),
) {
    let ids = AtomicU64::new(1);
    inject(student_request(ids.fetch_add(1, Ordering::SeqCst)));
    let deadline = Instant::now() + Duration::from_secs(30);
    while completed.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "warm-up request never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    c.bench_function(label, |bench| {
        bench.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let before = completed.load(Ordering::SeqCst);
                let start = Instant::now();
                inject(student_request(ids.fetch_add(1, Ordering::SeqCst)));
                while completed.load(Ordering::SeqCst) == before {
                    std::hint::spin_loop();
                }
                total += start.elapsed();
            }
            total
        })
    });
}

fn bench_request_cycle_channel(c: &mut Criterion) {
    let completed = Arc::new(AtomicU64::new(0));
    let (bpeers, proxy, client) = whisper_actors(&completed);
    let mut b = ThreadNetBuilder::new();
    for bp in bpeers {
        b.add_node(bp);
    }
    b.add_node(proxy);
    let client_node = b.add_node(client);
    let net = b.start();
    run_request_cycle(c, "threadnet/request_cycle", &completed, |req| {
        net.inject(client_node, client_node, req)
    });
    net.shutdown();
}

fn bench_request_cycle_tcp(c: &mut Criterion) {
    let completed = Arc::new(AtomicU64::new(0));
    let (bpeers, proxy, client) = whisper_actors(&completed);
    let mut b = TcpNetBuilder::new();
    for bp in bpeers {
        b.add_node(bp);
    }
    b.add_node(proxy);
    let client_node = b.add_node(client);
    let net = b.start().expect("loopback sockets");
    run_request_cycle(c, "tcpnet/request_cycle", &completed, |req| {
        net.inject(client_node, client_node, req)
    });
    let metrics = net.metrics_snapshot();
    println!(
        "tcpnet/request_cycle: {} bytes over loopback sockets across {} messages",
        metrics.bytes_sent(),
        metrics.messages_sent()
    );
    net.shutdown();
}

criterion_group!(
    benches,
    bench_threadnet_volley,
    bench_tcpnet_volley,
    bench_request_cycle_channel,
    bench_request_cycle_tcp,
);

criterion_main!(benches);

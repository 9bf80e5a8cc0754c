//! The four workloads, with every configuration value written out: none
//! is inherited from a `Default` impl, so a changed default in the program
//! shows up as a diff here or not at all.

use crate::inputs::RequestShape;
use whisper::{
    BPeerConfig, EchoBackend, GroupSpec, ProxyConfig, ScenarioWiring, SelectionPolicy,
    ServiceBackend, StudentRegistry,
};
use whisper_election::BullyConfig;
use whisper_p2p::DiscoveryStrategy;
use whisper_simnet::SimDuration;

/// Seconds one run measures when `--seconds` is not given; `BENCHMARK.json`
/// says the same (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 24.0;

/// Redundant b-peers behind the proxy on every workload.
pub const REPLICAS: usize = 3;

/// How long the proxy waits for a bound b-peer before re-binding: above
/// failure detection plus election (250 + 200 ms), so the first re-bind
/// finds a successor. The failover round schedule is derived from it.
pub const REQUEST_TIMEOUT_MS: u64 = 1000;

/// Which runtime carries the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// `TcpNet`: one thread per node, real loopback sockets.
    Tcp,
    /// `SimNet`: one thread, virtual time, seeded LAN link model.
    Sim,
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: one phase per window, each keeping that many requests
    /// in flight. Latency comes from the window-4 phase, goodput and CPU
    /// from the last phase.
    Closed {
        /// In-flight windows of the timed run.
        windows: &'static [usize],
        /// In-flight windows of the traced run (adds the window-1 RTT).
        traced_windows: &'static [usize],
    },
    /// Open loop on a fixed schedule while coordinators are killed.
    OpenWithKills {
        /// Offered requests per second.
        rate: f64,
    },
}

/// One workload: a name the driver passes, why it exists, and its shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The runtime under the actors.
    pub net: Net,
    /// The request sent.
    pub shape: RequestShape,
    /// How it is offered.
    pub load: Load,
    /// Deployments booted per run; `setup_s` and the cold-bind `outage_ms`
    /// are taken over them, and the closed-loop workloads spread their
    /// timed phases evenly over them, each boot on the next processor in
    /// turn. The simulator boots in a third of a millisecond of pure
    /// computation, so its `setup_s` needs many samples, spread over the
    /// run, for some to fall into quiet moments.
    pub boots: usize,
}

/// Every workload, in the order a full run executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp-small",
        why: "250-byte request on loopback TCP, warm binding: per-message cost (syscalls, frame flush, thread wake, wire codec) dominates; match cache hits, elections idle",
        net: Net::Tcp,
        shape: RequestShape::StudentInfo,
        load: Load::Closed {
            windows: &[4, 16],
            traced_windows: &[1, 4, 16],
        },
        boots: 5,
    },
    Workload {
        name: "tcp-large",
        why: "same deployment, 16 KiB request and echoed response: per-byte cost (XML parse/write, SOAP, wire copies, socket writes) dominates per-message cost",
        net: Net::Tcp,
        shape: RequestShape::Transcript { attachment: 16 * 1024 },
        load: Load::Closed {
            windows: &[4, 16],
            traced_windows: &[1, 4, 16],
        },
        boots: 5,
    },
    Workload {
        name: "sim-logic",
        why: "same scenario on the single-threaded simulator: no sockets or scheduler, wall time per request is the CPU cost of xml+soap+core+p2p+election+engine alone; a transport change must leave it flat",
        net: Net::Sim,
        shape: RequestShape::StudentInfo,
        load: Load::Closed {
            windows: &[4],
            traced_windows: &[4],
        },
        boots: 32,
    },
    Workload {
        name: "tcp-failover",
        why: "500 rps open loop on TCP while the coordinator is killed and restarted round after round: election, heartbeats, proxy re-bind and re-dial do the work, the steady hot path little",
        net: Net::Tcp,
        shape: RequestShape::StudentInfo,
        load: Load::OpenWithKills { rate: 500.0 },
        boots: 5,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// B-peer tuning of every workload: `ClusterTuning::default()`-style live
/// timers (50 ms beacons, 250 ms failure timeout, 200 ms Bully waits),
/// load sharing on, two execution workers per b-peer.
fn bpeer_config() -> BPeerConfig {
    BPeerConfig {
        heartbeat_period: SimDuration::from_millis(50),
        failure_timeout: SimDuration::from_millis(250),
        adv_lifetime: SimDuration::from_secs(600),
        bully: BullyConfig {
            answer_timeout: SimDuration::from_millis(200),
            coordinator_timeout: SimDuration::from_millis(400),
            cooldown: SimDuration::from_millis(200),
        },
        strategy: DiscoveryStrategy::Flood,
        processing_time: SimDuration::ZERO,
        load_share: true,
        workers: 2,
    }
}

/// Proxy tuning of every workload.
fn proxy_config() -> ProxyConfig {
    ProxyConfig {
        strategy: DiscoveryStrategy::Flood,
        policy: SelectionPolicy::SemanticThenQos,
        request_timeout: SimDuration::from_millis(REQUEST_TIMEOUT_MS),
        retry_backoff: SimDuration::from_millis(300),
        max_attempts: 10,
        gather_window: SimDuration::from_millis(250),
        deadline: None,
        fail_slow_after: None,
        fail_slow_cooldown: SimDuration::from_secs(5),
    }
}

/// What `ScenarioWiring::wire` may additionally install; the timed runs
/// install nothing.
#[derive(Debug, Clone, Default)]
pub struct Watching {
    /// A shared trace recorder in every actor and the net hook.
    pub recorder: Option<whisper_obs::Recorder>,
    /// Per-node flight rings of this many bytes.
    pub flight: Option<usize>,
}

impl Workload {
    /// The scenario of this workload: one group of [`REPLICAS`] b-peers
    /// serving the operation the request shape calls, flood discovery, no
    /// built-in clients (the generator node is added after wiring).
    pub fn wiring(&self, watching: Watching) -> ScenarioWiring {
        let service = whisper_wsdl::samples::student_management();
        let group = match self.shape {
            RequestShape::StudentInfo => {
                let backends: Vec<Box<dyn ServiceBackend>> = (0..REPLICAS)
                    .map(|_| Box::new(StudentRegistry::operational_db().with_sample_data()) as _)
                    .collect();
                let op = service
                    .operation("StudentInformation")
                    .expect("sample operation");
                GroupSpec::from_operation("StudentInfoGroup", op, backends)
            }
            RequestShape::Transcript { .. } => {
                let backends: Vec<Box<dyn ServiceBackend>> =
                    (0..REPLICAS).map(|_| Box::new(EchoBackend) as _).collect();
                let op = service
                    .operation("StudentTranscript")
                    .expect("sample operation");
                GroupSpec::from_operation("TranscriptGroup", op, backends)
            }
        };
        ScenarioWiring {
            service,
            ontology: whisper_ontology::samples::university_ontology(),
            groups: vec![group],
            use_rendezvous: false,
            firewall_bpeers: false,
            bpeer: bpeer_config(),
            proxy: proxy_config(),
            clients: Vec::new(),
            ledger: None,
            recorder: watching.recorder,
            pulse: None,
            flight: watching.flight,
        }
    }

    /// The operation name the request shape calls.
    pub fn operation(&self) -> &'static str {
        match self.shape {
            RequestShape::StudentInfo => "StudentInformation",
            RequestShape::Transcript { .. } => "StudentTranscript",
        }
    }
}

//! # whisper
//!
//! **Whisper** — a semantic Web service architecture for fault-tolerant B2B
//! integration, reproducing Cardoso's ICDCS 2006 system of the same name.
//!
//! Plain Web services (WSDL + SOAP) offer no availability mechanism beyond
//! `<soap:fault>`. Whisper backs every semantic Web service with a
//! peer-to-peer network of redundant **b-peers**: the service's SWS-proxy
//! discovers a *semantic b-peer group* whose advertised action/input/output
//! concepts match the service's WSDL-S annotations, binds to the group's
//! **coordinator** (elected with the Bully algorithm), and transparently
//! re-binds when the coordinator fails.
//!
//! The crate assembles the substrates into the full architecture:
//!
//! | Layer | Crate |
//! |-------|-------|
//! | XML | [`whisper_xml`] |
//! | Ontologies + matching | [`whisper_ontology`] |
//! | SOAP envelopes | [`whisper_soap`] |
//! | WSDL-S descriptions | [`whisper_wsdl`] |
//! | Simulated / threaded transport | [`whisper_simnet`] |
//! | JXTA-style P2P (advertisements, discovery) | [`whisper_p2p`] |
//! | Coordinator election | [`whisper_election`] |
//!
//! and adds the Whisper-specific pieces: the wire protocol
//! ([`WhisperMsg`]), service backends ([`ServiceBackend`] and the
//! student-registry implementations of the paper's running example), the
//! semantic matchmaker ([`matchmaker`]), the b-peer and SWS-proxy actors,
//! workload clients, and [`WhisperNet`] — a one-call deployment harness.
//!
//! # Quickstart
//!
//! ```
//! use whisper::{DeploymentConfig, WhisperNet};
//! use whisper_simnet::SimDuration;
//!
//! // Paper scenario: StudentManagement service backed by 3 b-peers.
//! let mut net = WhisperNet::student_scenario(3, 42);
//! net.run_for(SimDuration::from_secs(2)); // let the group elect + publish
//!
//! let client = net.client_ids()[0];
//! net.submit_student_request(client, "u1001");
//! net.run_for(SimDuration::from_secs(2));
//!
//! let stats = net.client_stats(client);
//! assert_eq!(stats.completed, 1);
//! assert_eq!(stats.faults, 0);
//! # let _ = DeploymentConfig::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod bpeer;
mod client;
pub mod composition;
mod deadline;
pub mod deploy;
mod directory;
mod edge;
mod error;
mod harness;
pub mod matchmaker;
mod msg;
mod proxy;
pub mod pulse;
mod qos;
mod routing;
pub mod trace;

pub use backend::{
    BackendError, ClaimProcessor, EchoBackend, FlakyBackend, OrderTracker, ServiceBackend,
    StudentRecord, StudentRegistry,
};
pub use bpeer::{BPeerActor, BPeerConfig};
pub use client::{ClientActor, ClientConfig, ClientStats, RequestOutcome, Workload};
pub use deploy::{
    BackendFactory, Booted, Deployment, GroupBlueprint, PulseWiring, ScenarioWiring, Topology,
};
pub use directory::Directory;
pub use edge::{Answer, Poll};
pub use error::WhisperError;
pub use harness::{ClientConfigTemplate, DeploymentConfig, GroupSpec, WhisperNet};
pub use msg::WhisperMsg;
pub use proxy::{ProxyBacklog, ProxyConfig, ProxyStats, SwsProxyActor};
pub use pulse::{PulseCollectorActor, PulseConfig, SharedPulseStore};
pub use qos::{PeerHealth, QosMonitor, SelectionPolicy};

//! # whisper-simnet
//!
//! A deterministic discrete-event network simulator, plus a real-time
//! threaded runtime over channels or sockets, for the Whisper protocol
//! stack.
//!
//! The paper benchmarks Whisper on nine LAN-connected PCs. This crate
//! substitutes a calibrated simulation: protocol logic is written against the
//! [`Actor`] trait and scheduled by [`SimNet`], which models per-link
//! propagation delay, serialization (bandwidth) delay, jitter and loss, and
//! injects crash/restart/partition faults. Every run is reproducible from a
//! seed, which makes message-count experiments (the paper's Figure 4) exact.
//!
//! The same actors can be run in real time, one OS thread per node, by the
//! [`live`] runtime: over channels as [`threadnet::ThreadNet`] to obtain
//! wall-clock numbers for Criterion benches, or over real TCP loopback
//! sockets as [`tcpnet::TcpNet`], where every inter-node message is
//! encoded to bytes (`whisper-wire`), framed, and parsed back on the
//! receiving side. The two are one runtime with two sets of links.
//!
//! # Examples
//!
//! A two-node ping/pong:
//!
//! ```
//! use whisper_simnet::{Actor, Context, NodeId, SimDuration, SimNet, Wire};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Wire for Ping {
//!     fn wire_size(&self) -> usize { 64 }
//!     fn kind(&self) -> &'static str { "ping" }
//! }
//!
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
//!         if msg.0 < 3 { ctx.send(from, Ping(msg.0 + 1)); }
//!     }
//! }
//!
//! struct Starter { peer: NodeId }
//! impl Actor<Ping> for Starter {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         ctx.send(self.peer, Ping(0));
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
//!         if msg.0 < 3 { ctx.send(from, Ping(msg.0 + 1)); }
//!     }
//! }
//!
//! let mut net = SimNet::new(42);
//! let echo = net.add_node(Echo);
//! let _starter = net.add_node(Starter { peer: echo });
//! net.run_until_quiescent();
//! assert_eq!(net.metrics().messages_sent(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod engine;
mod event;
mod faults;
mod link;
pub mod live;
mod metrics;
mod substrate;
pub mod tcpnet;
pub mod threadnet;
mod time;

pub use engine::{
    Actor, Context, DynActor, FlightHook, NetHook, NodeId, SelfInjector, SimNet, TimerId,
    TraceEvent, TraceOutcome,
};
pub use faults::{DegradeSpec, FaultAction, FaultPlan};
pub use link::{LinkModel, PerfectLink, SwitchedLan};
pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use substrate::{Spawner, Substrate};
pub use time::{SimDuration, SimTime};

/// A message type that can travel over the simulated (or threaded) network.
///
/// `wire_size` feeds the bandwidth model; `kind` labels the message for the
/// per-kind counters that experiments report.
pub trait Wire: Clone + std::fmt::Debug + Send + 'static {
    /// Serialized size in bytes; it drives the serialization-delay term of
    /// the link model and the byte counters in [`Metrics`].
    ///
    /// Whisper message types implement this as exactly
    /// `whisper_wire::Encode::encode(self).len()`, so the simulator's byte
    /// accounting matches what the TCP transport actually puts on a socket.
    fn wire_size(&self) -> usize;

    /// A short static label for metrics, e.g. `"election"`, `"heartbeat"`.
    fn kind(&self) -> &'static str {
        "message"
    }

    /// Whether this message is best-effort telemetry (e.g. a pulse report).
    /// Transports may shed such messages rather than let them head-of-line
    /// block protocol traffic: the TCP runtime drops a telemetry frame
    /// instead of waiting on a contended link, counting it as lost.
    fn is_telemetry(&self) -> bool {
        false
    }

    /// The request/correlation id this message carries, if any. Substrates
    /// pass it to the per-node [`FlightHook`], so the flight recorder can
    /// stitch message-level evidence back to end-to-end requests without
    /// knowing the concrete message type.
    fn correlation(&self) -> Option<u64> {
        None
    }
}

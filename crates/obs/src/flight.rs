//! Always-on per-node flight recorder and cross-node incident
//! reconstruction.
//!
//! Every node keeps a cheap, bounded [`FlightRing`] of structured
//! [`FlightEvent`]s — message sends/receives with wire kind and
//! correlation id, election transitions, bind/re-bind decisions,
//! heartbeat misses and restores, injected faults, queue-depth
//! high-water marks, SLO alerts. Each event is stamped with the node's
//! local time *and* a Lamport clock that rides beside every message on
//! the wire, so a collector can later fuse the rings of all nodes into
//! one causally-ordered incident timeline without synchronized clocks.
//!
//! The ring is a single-writer structure behind one mutex
//! ([`FlightHandle`]), byte-budgeted with drop-oldest semantics: the
//! recorder is always on and can never grow memory without bound, which
//! is what makes it safe to leave running in benchmarks.
//!
//! [`IncidentTimeline::merge`] is the collector side: it takes the
//! per-node dumps and sorts by `(lamport, node, seq)`. Because a
//! receive always carries a Lamport stamp strictly greater than its
//! send, happens-before edges survive the merge — verified by
//! [`IncidentTimeline::causally_consistent`].
//!
//! # Example
//!
//! ```
//! use whisper_obs::flight::{FlightHandle, IncidentTimeline};
//! use whisper_simnet::{FlightHook, NodeId, SimTime};
//!
//! let a = FlightHandle::new(0, 4096);
//! let b = FlightHandle::new(1, 4096);
//! let t = SimTime::from_micros(10);
//! // node 0 sends; the substrate carries the returned clock to node 1
//! let clock = a.clone().on_send_msg(t, NodeId::from_index(1), "ping", 64, None);
//! b.clone()
//!     .on_recv_msg(t, NodeId::from_index(0), "ping", 64, None, clock);
//! let timeline = IncidentTimeline::merge([a.snapshot(), b.snapshot()]);
//! assert!(timeline.causally_consistent());
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use whisper_simnet::{FlightHook, NodeId, SimTime};
use whisper_wire::{Decode, Encode, Reader, WireError};

use crate::json;
use crate::ledger::AvailabilityLedger;

/// Default per-node ring budget: enough for a few thousand events, small
/// enough to leave always-on in benches.
pub const DEFAULT_RING_BYTES: usize = 128 * 1024;

/// What happened, as recorded by one node's flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A message left this node.
    MsgSend {
        /// Destination node id.
        to: u64,
        /// Wire kind label (`Wire::kind`).
        kind: String,
        /// Encoded size in bytes.
        bytes: u64,
        /// Request/correlation id carried by the message, if any.
        correlation: Option<u64>,
    },
    /// A message was delivered to this node.
    MsgRecv {
        /// Source node id.
        from: u64,
        /// Wire kind label.
        kind: String,
        /// Encoded size in bytes.
        bytes: u64,
        /// Request/correlation id carried by the message, if any.
        correlation: Option<u64>,
        /// The Lamport stamp the *sender* put on the message; pairs this
        /// receive with its send during causal verification.
        sent_clock: u64,
    },
    /// An election-state transition observed by this node.
    Election {
        /// Election term/round.
        term: u64,
        /// Coordinator now believed in, when one is known.
        coordinator: Option<u64>,
        /// Short transition label, e.g. `"started"`, `"elected"`.
        detail: String,
    },
    /// A proxy bind or re-bind decision.
    Bind {
        /// The service group being bound.
        group: String,
        /// The peer bound to.
        peer: u64,
        /// Whether this replaced an earlier binding.
        rebind: bool,
    },
    /// A peer's heartbeat went missing past the suspicion threshold.
    HeartbeatMiss {
        /// The suspected peer.
        peer: u64,
        /// When that peer was last heard from.
        last_seen: SimTime,
    },
    /// A suspected peer was heard from again.
    HeartbeatRestore {
        /// The restored peer.
        peer: u64,
    },
    /// A fault was injected on this node (or one of its links), or reached
    /// it from one injected elsewhere.
    Fault {
        /// Action label, e.g. `"kill n2"`, `"block n0 n3"`; `"link-lost n2"`
        /// where a killed peer's link closed, `"lost-confirmed n2"` where the
        /// node then buried the peer.
        action: String,
    },
    /// The node's inbound queue reached a new high-water mark.
    QueueDepth {
        /// The new high-water depth.
        depth: u64,
    },
    /// An SLO alert fired or cleared.
    Alert {
        /// Objective name, e.g. `"availability"`.
        name: String,
        /// `true` on fire, `false` on clear.
        firing: bool,
    },
}

impl FlightEventKind {
    const TAG_MSG_SEND: u8 = 0;
    const TAG_MSG_RECV: u8 = 1;
    const TAG_ELECTION: u8 = 2;
    const TAG_BIND: u8 = 3;
    const TAG_HB_MISS: u8 = 4;
    const TAG_HB_RESTORE: u8 = 5;
    const TAG_FAULT: u8 = 6;
    const TAG_QUEUE_DEPTH: u8 = 7;
    const TAG_ALERT: u8 = 8;

    /// Short label for rendering and JSONL.
    pub fn label(&self) -> &'static str {
        match self {
            FlightEventKind::MsgSend { .. } => "msg_send",
            FlightEventKind::MsgRecv { .. } => "msg_recv",
            FlightEventKind::Election { .. } => "election",
            FlightEventKind::Bind { .. } => "bind",
            FlightEventKind::HeartbeatMiss { .. } => "heartbeat_miss",
            FlightEventKind::HeartbeatRestore { .. } => "heartbeat_restore",
            FlightEventKind::Fault { .. } => "fault",
            FlightEventKind::QueueDepth { .. } => "queue_depth",
            FlightEventKind::Alert { .. } => "alert",
        }
    }
}

impl Encode for FlightEventKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            FlightEventKind::MsgSend {
                to,
                kind,
                bytes,
                correlation,
            } => {
                out.push(Self::TAG_MSG_SEND);
                to.encode_into(out);
                kind.encode_into(out);
                bytes.encode_into(out);
                correlation.encode_into(out);
            }
            FlightEventKind::MsgRecv {
                from,
                kind,
                bytes,
                correlation,
                sent_clock,
            } => {
                out.push(Self::TAG_MSG_RECV);
                from.encode_into(out);
                kind.encode_into(out);
                bytes.encode_into(out);
                correlation.encode_into(out);
                sent_clock.encode_into(out);
            }
            FlightEventKind::Election {
                term,
                coordinator,
                detail,
            } => {
                out.push(Self::TAG_ELECTION);
                term.encode_into(out);
                coordinator.encode_into(out);
                detail.encode_into(out);
            }
            FlightEventKind::Bind {
                group,
                peer,
                rebind,
            } => {
                out.push(Self::TAG_BIND);
                group.encode_into(out);
                peer.encode_into(out);
                rebind.encode_into(out);
            }
            FlightEventKind::HeartbeatMiss { peer, last_seen } => {
                out.push(Self::TAG_HB_MISS);
                peer.encode_into(out);
                last_seen.encode_into(out);
            }
            FlightEventKind::HeartbeatRestore { peer } => {
                out.push(Self::TAG_HB_RESTORE);
                peer.encode_into(out);
            }
            FlightEventKind::Fault { action } => {
                out.push(Self::TAG_FAULT);
                action.encode_into(out);
            }
            FlightEventKind::QueueDepth { depth } => {
                out.push(Self::TAG_QUEUE_DEPTH);
                depth.encode_into(out);
            }
            FlightEventKind::Alert { name, firing } => {
                out.push(Self::TAG_ALERT);
                name.encode_into(out);
                firing.encode_into(out);
            }
        }
    }
}

impl Decode for FlightEventKind {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            Self::TAG_MSG_SEND => Ok(FlightEventKind::MsgSend {
                to: u64::decode_from(r)?,
                kind: String::decode_from(r)?,
                bytes: u64::decode_from(r)?,
                correlation: Option::decode_from(r)?,
            }),
            Self::TAG_MSG_RECV => Ok(FlightEventKind::MsgRecv {
                from: u64::decode_from(r)?,
                kind: String::decode_from(r)?,
                bytes: u64::decode_from(r)?,
                correlation: Option::decode_from(r)?,
                sent_clock: u64::decode_from(r)?,
            }),
            Self::TAG_ELECTION => Ok(FlightEventKind::Election {
                term: u64::decode_from(r)?,
                coordinator: Option::decode_from(r)?,
                detail: String::decode_from(r)?,
            }),
            Self::TAG_BIND => Ok(FlightEventKind::Bind {
                group: String::decode_from(r)?,
                peer: u64::decode_from(r)?,
                rebind: bool::decode_from(r)?,
            }),
            Self::TAG_HB_MISS => Ok(FlightEventKind::HeartbeatMiss {
                peer: u64::decode_from(r)?,
                last_seen: SimTime::decode_from(r)?,
            }),
            Self::TAG_HB_RESTORE => Ok(FlightEventKind::HeartbeatRestore {
                peer: u64::decode_from(r)?,
            }),
            Self::TAG_FAULT => Ok(FlightEventKind::Fault {
                action: String::decode_from(r)?,
            }),
            Self::TAG_QUEUE_DEPTH => Ok(FlightEventKind::QueueDepth {
                depth: u64::decode_from(r)?,
            }),
            Self::TAG_ALERT => Ok(FlightEventKind::Alert {
                name: String::decode_from(r)?,
                firing: bool::decode_from(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "FlightEventKind",
                tag,
            }),
        }
    }
}

impl fmt::Display for FlightEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightEventKind::MsgSend {
                to,
                kind,
                bytes,
                correlation,
            } => {
                write!(f, "send {kind} -> n{to} ({bytes}B")?;
                if let Some(c) = correlation {
                    write!(f, ", req {c}")?;
                }
                write!(f, ")")
            }
            FlightEventKind::MsgRecv {
                from,
                kind,
                bytes,
                correlation,
                ..
            } => {
                write!(f, "recv {kind} <- n{from} ({bytes}B")?;
                if let Some(c) = correlation {
                    write!(f, ", req {c}")?;
                }
                write!(f, ")")
            }
            FlightEventKind::Election {
                term,
                coordinator,
                detail,
            } => match coordinator {
                Some(c) => write!(f, "election {detail} (term {term}, coordinator n{c})"),
                None => write!(f, "election {detail} (term {term})"),
            },
            FlightEventKind::Bind {
                group,
                peer,
                rebind,
            } => {
                let verb = if *rebind { "re-bind" } else { "bind" };
                write!(f, "{verb} {group} -> n{peer}")
            }
            FlightEventKind::HeartbeatMiss { peer, last_seen } => {
                write!(f, "heartbeat miss n{peer} (last seen {last_seen})")
            }
            FlightEventKind::HeartbeatRestore { peer } => {
                write!(f, "heartbeat restore n{peer}")
            }
            FlightEventKind::Fault { action } => write!(f, "fault: {action}"),
            FlightEventKind::QueueDepth { depth } => {
                write!(f, "queue depth high-water {depth}")
            }
            FlightEventKind::Alert { name, firing } => {
                let verb = if *firing { "FIRED" } else { "cleared" };
                write!(f, "slo alert {name} {verb}")
            }
        }
    }
}

/// One entry in a node's flight ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Per-node monotone sequence number (survives ring eviction, so gaps
    /// reveal how much history was dropped).
    pub seq: u64,
    /// Lamport stamp: totally orders this node's events and embeds
    /// happens-before edges across nodes.
    pub lamport: u64,
    /// Local time of the recording node (sim time or wall time since the
    /// run epoch, depending on substrate).
    pub at: SimTime,
    /// The recording node.
    pub node: u64,
    /// What happened.
    pub kind: FlightEventKind,
}

impl Encode for FlightEvent {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.seq.encode_into(out);
        self.lamport.encode_into(out);
        self.at.encode_into(out);
        self.node.encode_into(out);
        self.kind.encode_into(out);
    }
}

impl Decode for FlightEvent {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FlightEvent {
            seq: u64::decode_from(r)?,
            lamport: u64::decode_from(r)?,
            at: SimTime::decode_from(r)?,
            node: u64::decode_from(r)?,
            kind: FlightEventKind::decode_from(r)?,
        })
    }
}

/// A bounded, single-writer ring of [`FlightEvent`]s for one node.
///
/// The budget is counted in *encoded* bytes (exactly what a
/// `FlightDump` of the ring would put on the wire), and enforcement is
/// drop-oldest: the newest event always fits, older history gives way.
#[derive(Debug)]
pub struct FlightRing {
    node: u64,
    max_bytes: usize,
    events: VecDeque<FlightEvent>,
    bytes: usize,
    lamport: u64,
    next_seq: u64,
    dropped: u64,
    queue_hwm: u64,
}

impl FlightRing {
    /// Creates an empty ring for `node` bounded to `max_bytes` of encoded
    /// events.
    pub fn new(node: u64, max_bytes: usize) -> Self {
        FlightRing {
            node,
            max_bytes,
            events: VecDeque::new(),
            bytes: 0,
            lamport: 0,
            next_seq: 0,
            dropped: 0,
            queue_hwm: 0,
        }
    }

    /// Records a local (non-message) event, advancing the Lamport clock.
    pub fn record(&mut self, at: SimTime, kind: FlightEventKind) {
        self.record_after(at, 0, kind);
    }

    /// Records a local event that another node's event caused without a
    /// message between them (a lost link after a kill): `clock`, that
    /// node's Lamport clock, is merged like a message stamp.
    pub fn record_after(&mut self, at: SimTime, clock: u64, kind: FlightEventKind) {
        self.lamport = self.lamport.max(clock) + 1;
        self.push(at, kind);
    }

    /// Records a message send and returns the Lamport stamp to carry on
    /// the wire.
    pub fn record_send(
        &mut self,
        at: SimTime,
        to: u64,
        kind: &str,
        bytes: usize,
        correlation: Option<u64>,
    ) -> u64 {
        self.lamport += 1;
        let stamp = self.lamport;
        self.push(
            at,
            FlightEventKind::MsgSend {
                to,
                kind: kind.to_string(),
                bytes: bytes as u64,
                correlation,
            },
        );
        stamp
    }

    /// Records a message delivery, merging the sender's Lamport stamp.
    #[allow(clippy::too_many_arguments)]
    pub fn record_recv(
        &mut self,
        at: SimTime,
        from: u64,
        kind: &str,
        bytes: usize,
        correlation: Option<u64>,
        sent_clock: u64,
    ) {
        self.lamport = self.lamport.max(sent_clock) + 1;
        self.push(
            at,
            FlightEventKind::MsgRecv {
                from,
                kind: kind.to_string(),
                bytes: bytes as u64,
                correlation,
                sent_clock,
            },
        );
    }

    /// Records the inbound queue depth; only new high-water marks produce
    /// an event, so a busy node does not flood its own ring.
    pub fn record_queue_depth(&mut self, at: SimTime, depth: u64) {
        if depth > self.queue_hwm {
            self.queue_hwm = depth;
            self.record(at, FlightEventKind::QueueDepth { depth });
        }
    }

    fn push(&mut self, at: SimTime, kind: FlightEventKind) {
        let ev = FlightEvent {
            seq: self.next_seq,
            lamport: self.lamport,
            at,
            node: self.node,
            kind,
        };
        self.next_seq += 1;
        self.bytes += ev.encoded_len();
        self.events.push_back(ev);
        while self.bytes > self.max_bytes && self.events.len() > 1 {
            let old = self.events.pop_front().expect("len > 1");
            self.bytes -= old.encoded_len();
            self.dropped += 1;
        }
    }

    /// The node this ring records for.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Current Lamport clock value.
    pub fn lamport(&self) -> u64 {
        self.lamport
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the byte budget since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Encoded bytes currently retained.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.iter().cloned().collect()
    }
}

/// A cloneable handle to one node's [`FlightRing`].
///
/// The handle implements [`whisper_simnet::FlightHook`], so it can be
/// installed into any substrate via `Spawner::set_flight_hook`, and it
/// exposes the actor-facing note helpers (elections, binds, heartbeats,
/// alerts) so protocol code records into the same causally-stamped ring
/// the transport does.
#[derive(Debug, Clone)]
pub struct FlightHandle {
    ring: Arc<Mutex<FlightRing>>,
}

impl FlightHandle {
    /// Creates a handle over a fresh ring for `node` with `max_bytes`
    /// budget.
    pub fn new(node: u64, max_bytes: usize) -> Self {
        FlightHandle {
            ring: Arc::new(Mutex::new(FlightRing::new(node, max_bytes))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightRing> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records an election transition.
    pub fn note_election(
        &self,
        at: SimTime,
        term: u64,
        coordinator: Option<u64>,
        detail: impl Into<String>,
    ) {
        self.lock().record(
            at,
            FlightEventKind::Election {
                term,
                coordinator,
                detail: detail.into(),
            },
        );
    }

    /// Records a bind or re-bind decision.
    pub fn note_bind(&self, at: SimTime, group: impl Into<String>, peer: u64, rebind: bool) {
        self.lock().record(
            at,
            FlightEventKind::Bind {
                group: group.into(),
                peer,
                rebind,
            },
        );
    }

    /// Records a heartbeat miss.
    pub fn note_heartbeat_miss(&self, at: SimTime, peer: u64, last_seen: SimTime) {
        self.lock()
            .record(at, FlightEventKind::HeartbeatMiss { peer, last_seen });
    }

    /// Records a heartbeat restore.
    pub fn note_heartbeat_restore(&self, at: SimTime, peer: u64) {
        self.lock()
            .record(at, FlightEventKind::HeartbeatRestore { peer });
    }

    /// Records a fault mark in the substrate's words (`"kill n2"`) or the
    /// protocol's (`"lost-confirmed n2"`).
    pub fn note_fault(&self, at: SimTime, action: impl Into<String>) {
        self.lock().record(
            at,
            FlightEventKind::Fault {
                action: action.into(),
            },
        );
    }

    /// Records the inbound queue depth (high-water marks only).
    pub fn note_queue_depth(&self, at: SimTime, depth: u64) {
        self.lock().record_queue_depth(at, depth);
    }

    /// Records an SLO alert transition.
    pub fn note_alert(&self, at: SimTime, name: impl Into<String>, firing: bool) {
        self.lock().record(
            at,
            FlightEventKind::Alert {
                name: name.into(),
                firing,
            },
        );
    }

    /// The node this handle records for.
    pub fn node(&self) -> u64 {
        self.lock().node()
    }

    /// Events evicted by the byte budget.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped()
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.lock().snapshot()
    }
}

impl FlightHook for FlightHandle {
    fn on_send_msg(
        &mut self,
        now: SimTime,
        to: NodeId,
        kind: &'static str,
        bytes: usize,
        correlation: Option<u64>,
    ) -> u64 {
        self.lock()
            .record_send(now, to.index() as u64, kind, bytes, correlation)
    }

    fn on_recv_msg(
        &mut self,
        now: SimTime,
        from: NodeId,
        kind: &'static str,
        bytes: usize,
        correlation: Option<u64>,
        clock: u64,
    ) {
        self.lock()
            .record_recv(now, from.index() as u64, kind, bytes, correlation, clock);
    }

    fn on_fault(&mut self, now: SimTime, action: &str) {
        self.note_fault(now, action);
    }

    fn on_fault_after(&mut self, now: SimTime, action: &str, clock: u64) {
        self.lock().record_after(
            now,
            clock,
            FlightEventKind::Fault {
                action: action.to_string(),
            },
        );
    }

    fn lamport(&self) -> u64 {
        self.lock().lamport()
    }
}

/// The set of flight handles of one deployment, in node-id order.
///
/// This is the in-process capture path: snapshot every ring at once and
/// merge. (The wire path — `FlightDump` solicitation messages — covers
/// remote collectors.)
#[derive(Debug, Clone, Default)]
pub struct FlightPlane {
    handles: Vec<FlightHandle>,
}

impl FlightPlane {
    /// An empty plane.
    pub fn new() -> Self {
        FlightPlane::default()
    }

    /// Adds a node's handle.
    pub fn push(&mut self, handle: FlightHandle) {
        self.handles.push(handle);
    }

    /// The installed handles.
    pub fn handles(&self) -> &[FlightHandle] {
        &self.handles
    }

    /// Handle for a specific node id, when installed.
    pub fn handle(&self, node: u64) -> Option<&FlightHandle> {
        self.handles.iter().find(|h| h.node() == node)
    }

    /// Snapshots every ring and merges into one causal timeline.
    pub fn capture(&self) -> IncidentTimeline {
        IncidentTimeline::merge(self.handles.iter().map(FlightHandle::snapshot))
    }
}

/// A merged, causally-ordered view over the flight rings of many nodes.
#[derive(Debug, Clone)]
pub struct IncidentTimeline {
    events: Vec<FlightEvent>,
}

impl IncidentTimeline {
    /// Fuses per-node dumps into one timeline ordered by
    /// `(lamport, node, seq)`.
    ///
    /// Lamport order embeds every happens-before edge (a receive's stamp
    /// is strictly greater than its send's); concurrent events tie-break
    /// deterministically by node id, then per-node sequence.
    pub fn merge(dumps: impl IntoIterator<Item = Vec<FlightEvent>>) -> Self {
        let mut events: Vec<FlightEvent> = dumps.into_iter().flatten().collect();
        events.sort_by_key(|e| (e.lamport, e.node, e.seq));
        IncidentTimeline { events }
    }

    /// The merged events, in causal order.
    pub fn events(&self) -> &[FlightEvent] {
        &self.events
    }

    /// Whether every receive appears *after* its matching send.
    ///
    /// A receive matches the send event recorded on the `from` node with
    /// Lamport stamp `sent_clock`. Receives with stamp 0 came from a node
    /// without a recorder (or an old frame) and are exempt.
    pub fn causally_consistent(&self) -> bool {
        self.events.iter().enumerate().all(|(i, ev)| {
            let FlightEventKind::MsgRecv {
                from, sent_clock, ..
            } = &ev.kind
            else {
                return true;
            };
            if *sent_clock == 0 {
                return true;
            }
            self.events[..i].iter().any(|s| {
                s.node == *from
                    && s.lamport == *sent_clock
                    && matches!(s.kind, FlightEventKind::MsgSend { .. })
            })
        })
    }

    /// Positions of events matching a predicate, in causal order.
    pub fn positions(&self, mut pred: impl FnMut(&FlightEvent) -> bool) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| pred(e).then_some(i))
            .collect()
    }

    /// Renders the annotated post-mortem report: the
    /// [`AvailabilityLedger`]'s outage story first, then the merged
    /// message-level evidence with events that fall inside a recorded
    /// outage window marked in the margin.
    pub fn render_report(&self, ledger: &AvailabilityLedger, now: SimTime) -> String {
        let mut out = String::new();
        out.push_str("== incident report ==\n");

        // -- the ledger's outage story --------------------------------
        let mut outages: Vec<(u64, SimTime, Option<SimTime>)> = Vec::new();
        out.push_str("\n-- outage story (availability ledger) --\n");
        for service in ledger.services() {
            if let Some(rep) = ledger.service_report(service, now) {
                out.push_str(&format!(
                    "service {service}: availability {:.4}%  failures {}  mttr {}\n",
                    rep.availability * 100.0,
                    rep.failures,
                    rep.mttr
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "-".into()),
                ));
            }
        }
        for peer in ledger.peers() {
            let Some(rep) = ledger.peer_report(peer, now) else {
                continue;
            };
            for iv in &rep.downtime_intervals {
                outages.push((peer, iv.start, iv.end));
                out.push_str(&format!(
                    "peer n{peer} down: {} .. {}  (detected {}, outage {})\n",
                    iv.start,
                    iv.end
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "ongoing".into()),
                    iv.detected_at,
                    iv.duration()
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "ongoing".into()),
                ));
            }
        }
        if outages.is_empty() {
            out.push_str("no outages recorded\n");
        }

        // -- message-level evidence -----------------------------------
        out.push_str("\n-- causal timeline (lamport order) --\n");
        for ev in &self.events {
            let in_outage = outages
                .iter()
                .any(|&(_, start, end)| ev.at >= start && end.map(|e| ev.at <= e).unwrap_or(true));
            let marker = if in_outage { "!" } else { " " };
            out.push_str(&format!(
                "{marker} [{:>6}] {:>12}  n{}  {}\n",
                ev.lamport,
                ev.at.to_string(),
                ev.node,
                ev.kind
            ));
        }
        out
    }

    /// The merged timeline as JSON-lines, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"seq\":{},\"lamport\":{},\"at_us\":{},\"node\":{},\"event\":",
                ev.seq,
                ev.lamport,
                ev.at.as_micros(),
                ev.node
            ));
            json::write_str(&mut out, ev.kind.label());
            match &ev.kind {
                FlightEventKind::MsgSend {
                    to,
                    kind,
                    bytes,
                    correlation,
                } => {
                    out.push_str(&format!(",\"to\":{to},\"kind\":"));
                    json::write_str(&mut out, kind);
                    out.push_str(&format!(",\"bytes\":{bytes}"));
                    if let Some(c) = correlation {
                        out.push_str(&format!(",\"correlation\":{c}"));
                    }
                }
                FlightEventKind::MsgRecv {
                    from,
                    kind,
                    bytes,
                    correlation,
                    sent_clock,
                } => {
                    out.push_str(&format!(",\"from\":{from},\"kind\":"));
                    json::write_str(&mut out, kind);
                    out.push_str(&format!(",\"bytes\":{bytes},\"sent_clock\":{sent_clock}"));
                    if let Some(c) = correlation {
                        out.push_str(&format!(",\"correlation\":{c}"));
                    }
                }
                FlightEventKind::Election {
                    term,
                    coordinator,
                    detail,
                } => {
                    out.push_str(&format!(",\"term\":{term}"));
                    if let Some(c) = coordinator {
                        out.push_str(&format!(",\"coordinator\":{c}"));
                    }
                    out.push_str(",\"detail\":");
                    json::write_str(&mut out, detail);
                }
                FlightEventKind::Bind {
                    group,
                    peer,
                    rebind,
                } => {
                    out.push_str(",\"group\":");
                    json::write_str(&mut out, group);
                    out.push_str(&format!(",\"peer\":{peer},\"rebind\":{rebind}"));
                }
                FlightEventKind::HeartbeatMiss { peer, last_seen } => {
                    out.push_str(&format!(
                        ",\"peer\":{peer},\"last_seen_us\":{}",
                        last_seen.as_micros()
                    ));
                }
                FlightEventKind::HeartbeatRestore { peer } => {
                    out.push_str(&format!(",\"peer\":{peer}"));
                }
                FlightEventKind::Fault { action } => {
                    out.push_str(",\"action\":");
                    json::write_str(&mut out, action);
                }
                FlightEventKind::QueueDepth { depth } => {
                    out.push_str(&format!(",\"depth\":{depth}"));
                }
                FlightEventKind::Alert { name, firing } => {
                    out.push_str(",\"name\":");
                    json::write_str(&mut out, name);
                    out.push_str(&format!(",\"firing\":{firing}"));
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn one_of_each() -> Vec<FlightEventKind> {
        vec![
            FlightEventKind::MsgSend {
                to: 3,
                kind: "invoke".into(),
                bytes: 412,
                correlation: Some(7),
            },
            FlightEventKind::MsgRecv {
                from: 1,
                kind: "invoke".into(),
                bytes: 412,
                correlation: None,
                sent_clock: 41,
            },
            FlightEventKind::Election {
                term: 2,
                coordinator: Some(4),
                detail: "elected".into(),
            },
            FlightEventKind::Bind {
                group: "translate".into(),
                peer: 4,
                rebind: true,
            },
            FlightEventKind::HeartbeatMiss {
                peer: 2,
                last_seen: t(900),
            },
            FlightEventKind::HeartbeatRestore { peer: 2 },
            FlightEventKind::Fault {
                action: "kill 2".into(),
            },
            FlightEventKind::QueueDepth { depth: 17 },
            FlightEventKind::Alert {
                name: "availability".into(),
                firing: true,
            },
        ]
    }

    #[test]
    fn event_kinds_round_trip() {
        for kind in one_of_each() {
            let ev = FlightEvent {
                seq: 5,
                lamport: 9,
                at: t(1234),
                node: 2,
                kind,
            };
            let bytes = ev.encode();
            assert_eq!(ev.encoded_len(), bytes.len());
            assert_eq!(FlightEvent::decode(&bytes).unwrap(), ev);
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut ev = FlightEvent {
            seq: 0,
            lamport: 1,
            at: t(0),
            node: 0,
            kind: FlightEventKind::QueueDepth { depth: 1 },
        }
        .encode();
        // the kind tag is the 5th varint in; for these small values each
        // header field is one byte, so the tag sits at offset 4
        ev[4] = 0xEE;
        assert!(matches!(
            FlightEvent::decode(&ev),
            Err(WireError::BadTag {
                what: "FlightEventKind",
                ..
            })
        ));
    }

    #[test]
    fn ring_budget_drops_oldest_and_keeps_seq() {
        let mut ring = FlightRing::new(0, 128);
        for i in 0..100 {
            ring.record(t(i), FlightEventKind::QueueDepth { depth: 1000 + i });
        }
        assert!(ring.approx_bytes() <= 128);
        assert!(ring.dropped() > 0);
        assert_eq!(ring.dropped() as usize + ring.len(), 100);
        // byte accounting stays exact under eviction
        let expected: usize = ring.events().map(Encode::encoded_len).sum();
        assert_eq!(ring.approx_bytes(), expected);
        // the survivors are the newest, in order
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(seqs.last().copied(), Some(99));
    }

    #[test]
    fn lamport_merges_on_recv() {
        let mut ring = FlightRing::new(0, 4096);
        let s1 = ring.record_send(t(0), 1, "ping", 10, None);
        assert_eq!(s1, 1);
        // a message arrives from a node far ahead of us
        ring.record_recv(t(5), 1, "pong", 10, None, 40);
        assert_eq!(ring.lamport(), 41);
        let s2 = ring.record_send(t(6), 1, "ping", 10, None);
        assert_eq!(s2, 42);
    }

    #[test]
    fn queue_depth_records_high_water_only() {
        let mut ring = FlightRing::new(0, 4096);
        ring.record_queue_depth(t(0), 3);
        ring.record_queue_depth(t(1), 2);
        ring.record_queue_depth(t(2), 3);
        ring.record_queue_depth(t(3), 5);
        let depths: Vec<u64> = ring
            .events()
            .filter_map(|e| match e.kind {
                FlightEventKind::QueueDepth { depth } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![3, 5]);
    }

    #[test]
    fn merge_orders_causally_and_verifies() {
        let a = FlightHandle::new(0, 4096);
        let b = FlightHandle::new(1, 4096);
        // node 1 does local work first: its raw clock runs ahead
        for i in 0..5 {
            b.note_queue_depth(t(i), i + 1);
        }
        let clock = {
            let mut h = a.clone();
            h.on_send_msg(t(10), NodeId::from_index(1), "invoke", 64, Some(9))
        };
        {
            let mut h = b.clone();
            h.on_recv_msg(t(12), NodeId::from_index(0), "invoke", 64, Some(9), clock);
        }
        let timeline = IncidentTimeline::merge([a.snapshot(), b.snapshot()]);
        assert!(timeline.causally_consistent());
        let send_pos = timeline.positions(|e| matches!(e.kind, FlightEventKind::MsgSend { .. }));
        let recv_pos = timeline.positions(|e| matches!(e.kind, FlightEventKind::MsgRecv { .. }));
        assert!(send_pos[0] < recv_pos[0]);
    }

    #[test]
    fn report_interleaves_ledger_outages() {
        let ledger = AvailabilityLedger::new();
        ledger.peer_heartbeat(2, t(0));
        ledger.peer_down(2, t(100), t(150));
        ledger.peer_heartbeat(2, t(500));

        let h = FlightHandle::new(0, 4096);
        let mut hook = h.clone();
        hook.on_fault(t(120), "kill 2");
        h.note_heartbeat_miss(t(150), 2, t(100));
        h.note_bind(t(400), "translate", 3, true);
        h.note_queue_depth(t(800), 4);

        let timeline = IncidentTimeline::merge([h.snapshot()]);
        let report = timeline.render_report(&ledger, t(1000));
        assert!(report.contains("peer n2 down"));
        assert!(report.contains("fault: kill 2"));
        // events inside the outage window are flagged in the margin
        assert!(report.contains("! [")); // kill at t=120 falls inside 100..500
        let jsonl = timeline.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"event\":\"fault\""));
        for line in jsonl.lines() {
            json::parse(line).expect("valid json");
        }
    }
}

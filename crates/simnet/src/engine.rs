//! The discrete-event engine: nodes, virtual clock, scheduling and faults.

use crate::event::{EventKind, EventQueue};
use crate::faults::{DegradeSpec, FaultAction, FaultPlan};
use crate::link::{LinkModel, SwitchedLan};
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use crate::Wire;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a node within one [`SimNet`]. Assigned by
/// [`SimNet::add_node`] in insertion order starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The position of this node in insertion order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs the id of the `i`-th added node. Node ids are assigned
    /// sequentially from zero, so deployment harnesses can compute routing
    /// tables before the nodes exist.
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// What happened to a traced message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Delivered to a live node.
    Delivered,
    /// Dropped by the loss model.
    Lost,
    /// Dropped by a partition at send time.
    Partitioned,
    /// The destination was crashed at delivery time.
    DestinationDown,
}

/// One traced message (recorded when tracing is enabled via
/// [`SimNet::enable_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the message left the sender.
    pub sent_at: SimTime,
    /// When it arrived (`None` when it never did).
    pub delivered_at: Option<SimTime>,
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Metric label of the message.
    pub kind: &'static str,
    /// Wire size in bytes.
    pub bytes: usize,
    /// Fate of the message.
    pub outcome: TraceOutcome,
}

/// Protocol logic attached to a node.
///
/// Implementations are *sans-io* state machines: they never block and only
/// interact with the world through the [`Context`] passed into each hook.
/// The same actor runs unchanged on the simulator and on
/// [`threadnet::ThreadNet`](crate::threadnet::ThreadNet).
pub trait Actor<M>: Send {
    /// Called once when the node first starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _token: u64) {}

    /// Called when the node recovers from a crash. Timers set before the
    /// crash never fire; state carried across the crash is up to the actor
    /// (keep it to model persistent storage, clear it in `on_restart` to
    /// model a cold start).
    fn on_restart(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when the transport link from `peer` to this node closed
    /// under it: `peer` crashed (its sockets shut), or the link's socket
    /// broke. Every message `peer` sent over that link has been delivered
    /// before this; a later sign of life can only come over a fresh link.
    ///
    /// The signal is gated exactly like a message — a down node and a
    /// blocked pair hear nothing — and it is *evidence, not a verdict*: a
    /// partition, a stalled or a slowed peer closes no link and never
    /// produces it, and a peer that restarts at once produces it and then
    /// speaks again. Treat it as suspicion to confirm.
    fn on_link_lost(&mut self, _ctx: &mut Context<'_, M>, _peer: NodeId) {}
}

/// An [`Actor`] that can also be inspected via [`Any`] downcasts.
///
/// Deployment harnesses that wire the *same* scenario onto every substrate
/// hand actors around as `Box<dyn DynActor<M>>` (see
/// [`Spawner`](crate::Spawner)): the box spawns onto the simulator, the
/// threaded runtime or the TCP runtime unchanged, while
/// [`SimNet::node`]/[`SimNet::node_mut`] keep their concrete-type access.
/// The blanket impl covers every `'static` actor, so implementors never
/// write this by hand.
pub trait DynActor<M>: Actor<M> {
    /// The actor as [`Any`], for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// The actor as mutable [`Any`], for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Consumes the box into an owned [`Any`], used by the threaded
    /// runtimes to return actors out of `shutdown`.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<M, T: Actor<M> + Any + Send> DynActor<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

pub(crate) enum Op<M> {
    Send {
        to: NodeId,
        msg: M,
    },
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        token: u64,
    },
    CancelTimer(TimerId),
}

/// A handle that lets work running *outside* the actor loop — a worker
/// pool thread, a completion callback — push a message back into the
/// owning node's own mailbox, where it is delivered through the normal
/// `on_message` path (subject to the node's up/down state like any other
/// send-to-self).
///
/// Obtained via [`Context::self_injector`] on the threaded runtimes; the
/// deterministic simulator returns `None` there, because off-loop wall
/// clock work would break replayability — actors must keep a sequential
/// fallback for that substrate.
pub struct SelfInjector<M> {
    node: NodeId,
    send: std::sync::Arc<dyn Fn(M) + Send + Sync>,
}

impl<M> Clone for SelfInjector<M> {
    fn clone(&self) -> Self {
        SelfInjector {
            node: self.node,
            send: std::sync::Arc::clone(&self.send),
        }
    }
}

impl<M> fmt::Debug for SelfInjector<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelfInjector")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<M> SelfInjector<M> {
    pub(crate) fn new(node: NodeId, send: std::sync::Arc<dyn Fn(M) + Send + Sync>) -> Self {
        SelfInjector { node, send }
    }

    /// Enqueues `msg` into the owning node's mailbox as a send-to-self.
    pub fn inject(&self, msg: M) {
        (self.send)(msg);
    }

    /// The node this injector feeds.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// The actor's window onto the engine during one hook invocation.
pub struct Context<'a, M> {
    now: SimTime,
    id: NodeId,
    next_timer: &'a mut u64,
    ops: Vec<Op<M>>,
    rng: &'a mut SmallRng,
    injector: Option<&'a SelfInjector<M>>,
}

impl<'a, M> Context<'a, M> {
    /// Crate-internal constructor shared by the simulator and the threaded
    /// runtime.
    pub(crate) fn detached(
        now: SimTime,
        id: NodeId,
        next_timer: &'a mut u64,
        rng: &'a mut SmallRng,
        injector: Option<&'a SelfInjector<M>>,
    ) -> Self {
        Context {
            now,
            id,
            next_timer,
            ops: Vec::new(),
            rng,
            injector,
        }
    }

    /// Crate-internal: drains the buffered operations for interpretation by
    /// the hosting runtime.
    pub(crate) fn take_ops(&mut self) -> Vec<Op<M>> {
        std::mem::take(&mut self.ops)
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `msg` to `to`. Delivery time and loss are decided by the link
    /// model; sending to a crashed node silently drops at delivery time,
    /// exactly like a real datagram.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.ops.push(Op::Send { to, msg });
    }

    /// Arms a timer that fires after `delay` with the protocol-chosen
    /// `token`. Returns a handle for [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.ops.push(Op::SetTimer { id, delay, token });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or foreign timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ops.push(Op::CancelTimer(id));
    }

    /// Deterministic randomness (seeded per run).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// A cloneable handle for off-loop work (e.g. a worker pool) to push
    /// messages back into this node's mailbox. `None` on the
    /// deterministic simulator, where every effect must stay inside the
    /// event loop — callers keep an inline fallback for that substrate.
    pub fn self_injector(&self) -> Option<SelfInjector<M>> {
        self.injector.cloned()
    }
}

struct NodeSlot<M> {
    actor: Box<dyn DynActor<M>>,
    up: bool,
    /// Incremented on every crash so stale timers never fire after restart.
    epoch: u32,
}

/// The deterministic discrete-event network simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct SimNet<M: Wire> {
    nodes: Vec<NodeSlot<M>>,
    queue: EventQueue<M>,
    clock: SimTime,
    rng: SmallRng,
    link: Box<dyn LinkModel>,
    metrics: Metrics,
    cancelled: HashSet<TimerId>,
    blocked: HashSet<(NodeId, NodeId)>,
    /// Gray-degraded ordered links (both directions of a pair are
    /// inserted when a [`FaultAction::Degrade`] lands).
    degraded: HashMap<(NodeId, NodeId), DegradeSpec>,
    /// Nodes whose outbound traffic is frozen until the given time.
    stalled_until: HashMap<NodeId, SimTime>,
    /// Fail-slow factors in hundredths (absent = 100 = full speed).
    slow: HashMap<NodeId, u32>,
    next_timer: u64,
    /// Safety valve for runaway protocols (see [`SimNet::set_event_limit`]).
    event_limit: u64,
    events_processed: u64,
    /// Message log, populated when [`SimNet::enable_trace`] was called.
    trace: Option<Vec<TraceEvent>>,
    /// Observability hook; `None` keeps the message hot path allocation-free.
    hook: Option<Box<dyn NetHook>>,
    /// Per-node flight recorders, indexed by node; `None` slots are free.
    flight: Vec<Option<Box<dyn FlightHook + Send>>>,
}

/// Callbacks observing the message layer, installed with
/// [`SimNet::set_net_hook`]. All methods default to no-ops so implementors
/// subscribe only to what they need. When no hook is installed the engine
/// pays a single branch per message.
pub trait NetHook {
    /// A message was handed to the network.
    fn on_send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: usize,
    ) {
        let _ = (now, from, to, kind, bytes);
    }

    /// A message was dropped before delivery (`reason` is never
    /// [`TraceOutcome::Delivered`]).
    fn on_drop(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        reason: TraceOutcome,
    ) {
        let _ = (now, from, to, kind, reason);
    }
}

/// Per-node flight recorder, installed with
/// [`Spawner::set_flight_hook`](crate::Spawner::set_flight_hook) (or
/// [`SimNet::set_flight_hook`] directly). Unlike [`NetHook`], which observes
/// the network as a whole, a flight hook belongs to *one node* and owns that
/// node's Lamport clock: the engine asks it to stamp every outgoing message
/// and hands it the sender's stamp on every delivery, so cross-node order is
/// recoverable without synchronized clocks.
pub trait FlightHook: Send {
    /// The node hands a message to the network. Returns the Lamport clock to
    /// carry on the message (the hook increments its counter first, so the
    /// returned stamp is strictly greater than every event recorded so far).
    fn on_send_msg(
        &mut self,
        now: SimTime,
        to: NodeId,
        kind: &'static str,
        bytes: usize,
        correlation: Option<u64>,
    ) -> u64;

    /// A message stamped with the sender's Lamport `clock` arrived at the
    /// node. The hook merges the stamp (`counter = max(counter, clock) + 1`),
    /// so the recorded receive is ordered after the matching send.
    fn on_recv_msg(
        &mut self,
        now: SimTime,
        from: NodeId,
        kind: &'static str,
        bytes: usize,
        correlation: Option<u64>,
        clock: u64,
    );

    /// A fault-plan action touching this node was applied (kill, restart,
    /// link block/unblock), described in the substrate's own words.
    fn on_fault(&mut self, now: SimTime, action: &str);

    /// [`FlightHook::on_fault`] for a mark another node's fate caused — a
    /// lost link (`"link-lost n2"`). `clock` is that node's
    /// [`FlightHook::lamport`]; a hook that keeps a clock merges it like a
    /// message stamp, so the mark is ordered after the other node's `kill`.
    fn on_fault_after(&mut self, now: SimTime, action: &str, clock: u64) {
        let _ = clock;
        self.on_fault(now, action);
    }

    /// The Lamport clock of the last event recorded (0 for a hook that
    /// keeps none).
    fn lamport(&self) -> u64 {
        0
    }
}

impl<M: Wire> SimNet<M> {
    /// Creates a simulator over the paper-calibrated [`SwitchedLan`] with
    /// the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_link(seed, SwitchedLan::paper_testbed())
    }

    /// Creates a simulator with a custom link model.
    pub fn with_link(seed: u64, link: impl LinkModel + 'static) -> Self {
        SimNet {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            link: Box::new(link),
            metrics: Metrics::new(),
            cancelled: HashSet::new(),
            blocked: HashSet::new(),
            degraded: HashMap::new(),
            stalled_until: HashMap::new(),
            slow: HashMap::new(),
            next_timer: 0,
            event_limit: 100_000_000,
            events_processed: 0,
            trace: None,
            hook: None,
            flight: Vec::new(),
        }
    }

    /// Installs an observability hook on the message layer. With no hook
    /// installed (the default) the hot path is unchanged: one `None`
    /// branch, no allocation.
    pub fn set_net_hook(&mut self, hook: Box<dyn NetHook>) {
        self.hook = Some(hook);
    }

    /// Removes the observability hook.
    pub fn clear_net_hook(&mut self) {
        self.hook = None;
    }

    /// Installs `node`'s flight recorder. With none installed (the default)
    /// messages carry Lamport clock 0 and the hot path pays one slot lookup.
    pub fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>) {
        let i = node.index();
        if self.flight.len() <= i {
            self.flight.resize_with(i + 1, || None);
        }
        self.flight[i] = Some(hook);
    }

    /// Adds a node running `actor`; its `on_start` hook is scheduled at the
    /// current virtual time.
    pub fn add_node(&mut self, actor: impl Actor<M> + Any) -> NodeId {
        self.add_boxed(Box::new(actor))
    }

    /// Adds an already-boxed node (the substrate-agnostic deployment path;
    /// see [`Spawner`](crate::Spawner)). [`SimNet::node`]'s downcasts still
    /// resolve to the concrete actor type inside the box.
    pub fn add_boxed(&mut self, actor: Box<dyn DynActor<M>>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            actor,
            up: true,
            epoch: 0,
        });
        self.queue.push(self.clock, EventKind::Start(id));
        id
    }

    /// Number of nodes (up or down).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `id` is currently up.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.nodes[id.index()].up
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Run metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics, e.g. to [`Metrics::reset`] between phases.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Caps the total number of events processed over the life of this
    /// simulator; exceeding it panics, catching protocol livelock in tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Starts recording every message into an in-memory log (see
    /// [`SimNet::trace`]). Tracing from mid-run is fine: earlier traffic is
    /// simply absent.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The messages recorded since [`SimNet::enable_trace`], in completion
    /// order (drops appear at their send time).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Clears the trace log (keeps tracing enabled).
    pub fn clear_trace(&mut self) {
        if let Some(t) = &mut self.trace {
            t.clear();
        }
    }

    /// Borrows the actor at `id`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the type the node was added with.
    pub fn node<T: Actor<M> + Any>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .actor
            .as_any()
            .downcast_ref::<T>()
            .expect("node downcast to wrong actor type")
    }

    /// Mutably borrows the actor at `id`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the type the node was added with.
    pub fn node_mut<T: Actor<M> + Any>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.index()]
            .actor
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node downcast to wrong actor type")
    }

    /// Schedules every action of a [`FaultPlan`].
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        for &(at, action) in &plan.actions {
            self.queue.push(at, EventKind::Fault(action));
        }
    }

    /// Kills a node at the current time, as a crash (sugar over a
    /// one-entry plan). Named like
    /// [`ThreadNet::kill_node`](crate::threadnet::ThreadNet::kill_node)
    /// and [`TcpNet::kill_node`](crate::tcpnet::TcpNet::kill_node) so
    /// substrate-generic code reads the same everywhere.
    pub fn kill_node(&mut self, node: NodeId) {
        self.queue
            .push(self.clock, EventKind::Fault(FaultAction::Crash(node)));
    }

    /// Restarts a killed node at the current time; its `on_restart` hook
    /// fires.
    pub fn restart_node(&mut self, node: NodeId) {
        self.queue
            .push(self.clock, EventKind::Fault(FaultAction::Restart(node)));
    }

    /// Blocks all traffic between `a` and `b` (both directions) from the
    /// current time, as a partition.
    pub fn block_link(&mut self, a: NodeId, b: NodeId) {
        self.queue
            .push(self.clock, EventKind::Fault(FaultAction::Block(a, b)));
    }

    /// Unblocks traffic between `a` and `b` at the current time.
    pub fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        self.queue
            .push(self.clock, EventKind::Fault(FaultAction::Unblock(a, b)));
    }

    /// Applies any single [`FaultAction`] — gray actions included — at the
    /// current time (sugar over a one-entry plan). This is the
    /// substrate-generic entry point for chaos drivers.
    pub fn apply_action(&mut self, action: FaultAction) {
        self.queue.push(self.clock, EventKind::Fault(action));
    }

    /// Tokens of the timers `node` has armed that will still fire: not
    /// cancelled, and not cleared by a crash since. Lets a test hold an
    /// actor to "at most one timer of this kind at any moment".
    pub fn pending_timers(&self, node: NodeId) -> Vec<u64> {
        let epoch = self.nodes[node.index()].epoch;
        self.queue
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Timer {
                    node: n,
                    id,
                    token,
                    epoch: e,
                } if n == node && e == epoch && !self.cancelled.contains(&id) => Some(token),
                _ => None,
            })
            .collect()
    }

    /// Delivers a message into the network "from outside" (used by test
    /// drivers); it is subject to the link model like any other message.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.process_send(from, to, msg);
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.events_processed += 1;
        assert!(
            self.events_processed <= self.event_limit,
            "event limit {} exceeded: protocol livelock?",
            self.event_limit
        );
        debug_assert!(ev.at >= self.clock, "event queue returned stale event");
        self.clock = ev.at;
        match ev.kind {
            EventKind::Start(id) => {
                if self.nodes[id.index()].up {
                    self.dispatch(id, Hook::Start);
                }
            }
            EventKind::Deliver {
                from,
                to,
                sent_at,
                clock,
                msg,
            } => {
                let up = self.nodes[to.index()].up;
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent {
                        sent_at,
                        delivered_at: up.then_some(ev.at),
                        from,
                        to,
                        kind: msg.kind(),
                        bytes: msg.wire_size(),
                        outcome: if up {
                            TraceOutcome::Delivered
                        } else {
                            TraceOutcome::DestinationDown
                        },
                    });
                }
                if up {
                    self.metrics.on_deliver();
                    if let Some(h) = self.flight.get_mut(to.index()).and_then(Option::as_mut) {
                        h.on_recv_msg(
                            ev.at,
                            from,
                            msg.kind(),
                            msg.wire_size(),
                            msg.correlation(),
                            clock,
                        );
                    }
                    self.dispatch(to, Hook::Message(from, msg));
                } else {
                    self.metrics.on_drop_down();
                }
            }
            EventKind::Timer {
                node,
                id,
                token,
                epoch,
            } => {
                if self.cancelled.remove(&id) {
                    return true;
                }
                let slot = &self.nodes[node.index()];
                if slot.up && slot.epoch == epoch {
                    self.dispatch(node, Hook::Timer(token));
                }
            }
            EventKind::LinkLost { from, to, clock } => {
                // A peer that is back before its loss was read has
                // re-dialed the link: the reader finds the replacement
                // socket waiting and has nothing to report.
                if self.nodes[to.index()].up && !self.nodes[from.index()].up {
                    if let Some(h) = self.flight.get_mut(to.index()).and_then(Option::as_mut) {
                        h.on_fault_after(ev.at, &FaultAction::link_lost_mark(from), clock);
                    }
                    self.dispatch(to, Hook::LinkLost(from));
                }
            }
            EventKind::Fault(action) => self.apply_fault(action),
        }
        true
    }

    /// Runs until no events remain. Returns the final virtual time.
    pub fn run_until_quiescent(&mut self) -> SimTime {
        while self.step() {}
        self.clock
    }

    /// Runs all events scheduled at or before `deadline`, then advances the
    /// clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.clock + d;
        self.run_until(deadline);
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::Crash(id) => {
                let slot = &mut self.nodes[id.index()];
                if !slot.up {
                    return;
                }
                slot.up = false;
                slot.epoch += 1;
            }
            FaultAction::Restart(id) => {
                let slot = &mut self.nodes[id.index()];
                if slot.up {
                    return;
                }
                slot.up = true;
            }
            FaultAction::Block(a, b) => {
                self.blocked.insert((a, b));
                self.blocked.insert((b, a));
            }
            FaultAction::Unblock(a, b) => {
                self.blocked.remove(&(a, b));
                self.blocked.remove(&(b, a));
            }
            FaultAction::Degrade(a, b, spec) if !spec.is_noop() => {
                self.degraded.insert((a, b), spec);
                self.degraded.insert((b, a), spec);
            }
            FaultAction::Degrade(a, b, _) | FaultAction::Restore(a, b) => {
                self.degraded.remove(&(a, b));
                self.degraded.remove(&(b, a));
            }
            FaultAction::Stall(node, d) => {
                self.stalled_until.insert(node, self.clock + d);
            }
            FaultAction::Slow(node, f) if f > 100 => {
                self.slow.insert(node, f);
            }
            FaultAction::Slow(node, _) => {
                self.slow.remove(&node);
            }
        }
        let (label, a, b) = action.mark();
        self.record_fault(a, &label);
        if let Some(b) = b {
            self.record_fault(b, &label);
        }
        match action {
            FaultAction::Restart(id) => self.dispatch(id, Hook::Restart),
            FaultAction::Crash(id) => self.close_links_of(id),
            _ => {}
        }
    }

    /// A crashed node's links close: every up peer it is not partitioned
    /// from is told one link latency later, and not before the last
    /// message the dead node has in flight to it — a closed socket reads
    /// EOF behind its last frame, which is what the live transports
    /// report. Block, degrade, stall and slow close nothing and tell
    /// nobody.
    fn close_links_of(&mut self, dead: NodeId) {
        let recorder = self.flight.get(dead.index()).and_then(Option::as_ref);
        let clock = recorder.map_or(0, |h| h.lamport());
        let mut last_frame = vec![SimTime::ZERO; self.nodes.len()];
        for ev in self.queue.iter() {
            if let EventKind::Deliver { from, to, .. } = ev.kind {
                if from == dead {
                    last_frame[to.index()] = last_frame[to.index()].max(ev.at);
                }
            }
        }
        for to in (0..self.nodes.len()).map(NodeId::from_index) {
            if to == dead || !self.nodes[to.index()].up || self.blocked.contains(&(dead, to)) {
                continue;
            }
            let eof = self.clock + self.link.latency(dead, to, 0, &mut self.rng);
            self.queue.push(
                eof.max(last_frame[to.index()]),
                EventKind::LinkLost {
                    from: dead,
                    to,
                    clock,
                },
            );
        }
    }

    fn record_fault(&mut self, node: NodeId, action: &str) {
        if let Some(h) = self.flight.get_mut(node.index()).and_then(Option::as_mut) {
            h.on_fault(self.clock, action);
        }
    }

    fn dispatch(&mut self, id: NodeId, hook: Hook<M>) {
        let mut ctx = Context {
            now: self.clock,
            id,
            next_timer: &mut self.next_timer,
            ops: Vec::new(),
            rng: &mut self.rng,
            injector: None,
        };
        let actor = &mut self.nodes[id.index()].actor;
        match hook {
            Hook::Start => actor.on_start(&mut ctx),
            Hook::Restart => actor.on_restart(&mut ctx),
            Hook::Message(from, msg) => actor.on_message(&mut ctx, from, msg),
            Hook::Timer(token) => actor.on_timer(&mut ctx, token),
            Hook::LinkLost(peer) => actor.on_link_lost(&mut ctx, peer),
        }
        let ops = ctx.ops;
        for op in ops {
            match op {
                Op::Send { to, msg } => self.process_send(id, to, msg),
                Op::SetTimer {
                    id: tid,
                    delay,
                    token,
                } => {
                    let epoch = self.nodes[id.index()].epoch;
                    self.queue.push(
                        self.clock + delay,
                        EventKind::Timer {
                            node: id,
                            id: tid,
                            token,
                            epoch,
                        },
                    );
                }
                Op::CancelTimer(tid) => {
                    self.cancelled.insert(tid);
                }
            }
        }
    }

    fn process_send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let size = msg.wire_size();
        self.metrics.on_send(msg.kind(), size);
        if let Some(h) = self.hook.as_mut() {
            h.on_send(self.clock, from, to, msg.kind(), size);
        }
        let clock = match self.flight.get_mut(from.index()).and_then(Option::as_mut) {
            Some(h) => h.on_send_msg(self.clock, to, msg.kind(), size, msg.correlation()),
            None => 0,
        };
        let record_drop = |trace: &mut Option<Vec<TraceEvent>>, outcome| {
            if let Some(t) = trace {
                t.push(TraceEvent {
                    sent_at: self.clock,
                    delivered_at: None,
                    from,
                    to,
                    kind: msg.kind(),
                    bytes: size,
                    outcome,
                });
            }
        };
        if self.blocked.contains(&(from, to)) {
            record_drop(&mut self.trace, TraceOutcome::Partitioned);
            self.metrics.on_drop_partition();
            if let Some(h) = self.hook.as_mut() {
                h.on_drop(self.clock, from, to, msg.kind(), TraceOutcome::Partitioned);
            }
            return;
        }
        if self.link.is_lost(from, to, &mut self.rng) {
            record_drop(&mut self.trace, TraceOutcome::Lost);
            self.metrics.on_lost();
            if let Some(h) = self.hook.as_mut() {
                h.on_drop(self.clock, from, to, msg.kind(), TraceOutcome::Lost);
            }
            return;
        }
        // Gray degradation: chaos loss and corruption drop the message
        // here (corruption as a counted decode error, the uniform
        // observable across substrates); the latency terms stack on top of
        // whatever the link model produces below, and duplication
        // schedules a second delivery of the same stamped message.
        let mut extra_us = 0u64;
        let mut dup_extra_us = None;
        if let Some(spec) = self.degraded.get(&(from, to)).copied() {
            if spec.loss_pct > 0 && self.rng.gen_range(0..100u32) < spec.loss_pct {
                record_drop(&mut self.trace, TraceOutcome::Lost);
                self.metrics.on_lost();
                if let Some(h) = self.hook.as_mut() {
                    h.on_drop(self.clock, from, to, msg.kind(), TraceOutcome::Lost);
                }
                return;
            }
            if spec.corrupt_pct > 0 && self.rng.gen_range(0..100u32) < spec.corrupt_pct {
                record_drop(&mut self.trace, TraceOutcome::Lost);
                self.metrics.on_decode_error();
                if let Some(h) = self.hook.as_mut() {
                    h.on_drop(self.clock, from, to, msg.kind(), TraceOutcome::Lost);
                }
                self.record_fault(to, &format!("decode-error {from} {to}"));
                return;
            }
            extra_us = spec.latency.as_micros();
            if spec.jitter > SimDuration::ZERO {
                extra_us += self.rng.gen_range(0..=spec.jitter.as_micros());
            }
            if spec.reorder_pct > 0 && self.rng.gen_range(0..100u32) < spec.reorder_pct {
                // Push the message past its successors: several jitter
                // bounds, with a floor so reordering works even when the
                // spec carries no jitter.
                extra_us += (3 * spec.jitter.as_micros()).max(500);
            }
            if spec.dup_pct > 0 && self.rng.gen_range(0..100u32) < spec.dup_pct {
                dup_extra_us = Some(spec.latency.as_micros().max(200));
            }
        }
        let latency = self.link.latency(from, to, size, &mut self.rng);
        let mut total_us = latency.as_micros();
        let factor = self
            .slow
            .get(&from)
            .copied()
            .unwrap_or(100)
            .max(self.slow.get(&to).copied().unwrap_or(100));
        if factor > 100 {
            total_us = total_us * factor as u64 / 100;
        }
        total_us += extra_us;
        let mut deliver_at = self.clock + SimDuration::from_micros(total_us);
        // A stalled sender's outbound traffic arrives only after the
        // stall ends (the node is alive — it still receives — which is
        // what makes this gray rather than a crash).
        if let Some(&until) = self.stalled_until.get(&from) {
            if until > self.clock {
                deliver_at = deliver_at.max(until);
            } else {
                self.stalled_until.remove(&from);
            }
        }
        let dup = dup_extra_us.map(|d| (deliver_at + SimDuration::from_micros(d), msg.clone()));
        self.queue.push(
            deliver_at,
            EventKind::Deliver {
                from,
                to,
                sent_at: self.clock,
                clock,
                msg,
            },
        );
        if let Some((dup_at, dup_msg)) = dup {
            self.queue.push(
                dup_at,
                EventKind::Deliver {
                    from,
                    to,
                    sent_at: self.clock,
                    clock,
                    msg: dup_msg,
                },
            );
        }
    }
}

enum Hook<M> {
    Start,
    Restart,
    Message(NodeId, M),
    Timer(u64),
    LinkLost(NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PerfectLink;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Note(&'static str),
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            64
        }
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "ping",
                Msg::Note(_) => "note",
            }
        }
    }

    /// Records everything it sees; echoes pings down to zero.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, Msg)>,
        started: u32,
        restarted: u32,
        timer_tokens: Vec<u64>,
    }

    impl Actor<Msg> for Recorder {
        fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.started += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.restarted += 1;
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.seen.push((ctx.now(), msg.clone()));
            if let Msg::Ping(n) = msg {
                if n > 0 {
                    ctx.send(from, Msg::Ping(n - 1));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, token: u64) {
            self.timer_tokens.push(token);
        }
    }

    /// Sends a configurable burst on start; arms/cancels timers.
    struct Driver {
        target: NodeId,
        pings: u32,
    }

    impl Actor<Msg> for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.target, Msg::Ping(self.pings));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                if n > 0 {
                    ctx.send(from, Msg::Ping(n - 1));
                }
            }
        }
    }

    #[test]
    fn ping_pong_counts_messages() {
        let mut net = SimNet::new(1);
        let rec = net.add_node(Recorder::default());
        let _drv = net.add_node(Driver {
            target: rec,
            pings: 5,
        });
        net.run_until_quiescent();
        // Ping(5)..Ping(0): 6 messages total
        assert_eq!(net.metrics().messages_sent(), 6);
        assert_eq!(net.metrics().messages_delivered(), 6);
        assert_eq!(net.metrics().sent_of_kind("ping"), 6);
        let rec = net.node::<Recorder>(rec);
        assert_eq!(rec.seen.len(), 3); // Ping(5), Ping(3), Ping(1)
        assert_eq!(rec.started, 1);
    }

    #[test]
    fn time_advances_monotonically_with_latency() {
        let mut net = SimNet::new(2);
        let rec = net.add_node(Recorder::default());
        let _drv = net.add_node(Driver {
            target: rec,
            pings: 4,
        });
        net.run_until_quiescent();
        let times: Vec<SimTime> = net
            .node::<Recorder>(rec)
            .seen
            .iter()
            .map(|(t, _)| *t)
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        assert!(net.now() > SimTime::ZERO);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut net = SimNet::new(seed);
            let rec = net.add_node(Recorder::default());
            let _ = net.add_node(Driver {
                target: rec,
                pings: 10,
            });
            net.run_until_quiescent();
            (net.now(), net.metrics().messages_sent())
        };
        assert_eq!(run(7), run(7));
        // different seed changes jitter, hence finishing time
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Actor<Msg> for TimerUser {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(5), 1);
                let t2 = ctx.set_timer(SimDuration::from_millis(10), 2);
                ctx.set_timer(SimDuration::from_millis(1), 3);
                ctx.cancel_timer(t2);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut net: SimNet<Msg> = SimNet::with_link(1, PerfectLink);
        let n = net.add_node(TimerUser { fired: Vec::new() });
        net.run_until_quiescent();
        assert_eq!(net.node::<TimerUser>(n).fired, vec![3, 1]);
    }

    #[test]
    fn crash_drops_messages_and_restart_resumes() {
        let mut net: SimNet<Msg> = SimNet::with_link(3, PerfectLink);
        let rec = net.add_node(Recorder::default());
        net.run_until_quiescent();

        net.kill_node(rec);
        net.run_until_quiescent();
        assert!(!net.is_up(rec));
        // messages to a down node are dropped at delivery
        net.inject(rec, rec, Msg::Note("while down"));
        net.run_until_quiescent();
        assert_eq!(net.metrics().messages_to_down_nodes(), 1);
        assert!(net.node::<Recorder>(rec).seen.is_empty());

        net.restart_node(rec);
        net.run_until_quiescent();
        assert!(net.is_up(rec));
        assert_eq!(net.node::<Recorder>(rec).restarted, 1);
        net.inject(rec, rec, Msg::Note("back"));
        net.run_until_quiescent();
        assert_eq!(net.node::<Recorder>(rec).seen.len(), 1);
    }

    #[test]
    fn timers_from_before_crash_do_not_fire_after_restart() {
        struct ArmsOnce;
        impl Actor<Msg> for ArmsOnce {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(100), 42);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        // Recorder at index 0 would record timer fires; we use epoch check
        let mut net: SimNet<Msg> = SimNet::with_link(3, PerfectLink);
        let rec = net.add_node(Recorder::default());
        // manually arm a timer through dispatch: simulate by crash/restart
        // sequence around a pending timer armed in on_start of Recorder?
        // Recorder arms no timers; use a scripted plan instead:
        let mut plan = FaultPlan::new();
        plan.crash_at(rec, SimTime::from_micros(10));
        plan.restart_at(rec, SimTime::from_micros(20));
        net.apply_faults(&plan);
        // Arm a timer before the crash by dispatching an injected message
        // that sets one? Recorder doesn't set timers; inject directly:
        // (cover the epoch logic from a dedicated actor instead)
        let armed = net.add_node(ArmsOnce);
        let mut plan2 = FaultPlan::new();
        plan2.crash_at(armed, SimTime::from_micros(10));
        plan2.restart_at(armed, SimTime::from_micros(20));
        net.apply_faults(&plan2);
        net.run_until_quiescent();
        // The 100ms timer of `armed` must not fire: epoch changed.
        // (Recorder's token list is the observable for timers; ArmsOnce has
        // none, so reaching quiescence without panic is the assertion — and
        // the engine would have dispatched on a stale epoch otherwise.)
        assert!(net.is_up(armed));
        assert_eq!(net.node::<Recorder>(rec).timer_tokens, Vec::<u64>::new());
    }

    #[test]
    fn partitions_block_and_heal() {
        let mut net: SimNet<Msg> = SimNet::with_link(5, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();

        let mut plan = FaultPlan::new();
        plan.block_at(a, b, SimTime::from_micros(0));
        net.apply_faults(&plan);
        net.run_until_quiescent();

        net.inject(a, b, Msg::Note("blocked"));
        net.run_until_quiescent();
        assert_eq!(net.metrics().messages_partitioned(), 1);
        assert!(net.node::<Recorder>(b).seen.is_empty());

        let mut heal = FaultPlan::new();
        heal.unblock_at(a, b, net.now());
        net.apply_faults(&heal);
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("healed"));
        net.run_until_quiescent();
        assert_eq!(net.node::<Recorder>(b).seen.len(), 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net: SimNet<Msg> = SimNet::with_link(1, PerfectLink);
        struct Beeper;
        impl Actor<Msg> for Beeper {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: u64) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        net.add_node(Beeper);
        net.run_until(SimTime::from_micros(10_500));
        assert_eq!(net.now(), SimTime::from_micros(10_500));
        // ~10 timer firings in 10.5 ms; queue still has the next one
        net.run_for(SimDuration::from_millis(5));
        assert_eq!(net.now(), SimTime::from_micros(15_500));
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_livelock() {
        struct Flood {
            peer: Option<NodeId>,
        }
        impl Actor<Msg> for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if let Some(p) = self.peer {
                    ctx.send(p, Msg::Ping(0));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _: Msg) {
                ctx.send(from, Msg::Ping(0));
            }
        }
        let mut net: SimNet<Msg> = SimNet::new(1);
        let a = net.add_node(Flood { peer: None });
        let _b = net.add_node(Flood { peer: Some(a) });
        net.set_event_limit(10_000);
        net.run_until_quiescent();
    }

    #[test]
    #[should_panic(expected = "wrong actor type")]
    fn node_downcast_checks_type() {
        let mut net: SimNet<Msg> = SimNet::new(1);
        let a = net.add_node(Recorder::default());
        let _: &Driver = net.node::<Driver>(a);
    }

    #[test]
    fn tracing_records_outcomes() {
        let mut net: SimNet<Msg> = SimNet::with_link(4, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();
        assert!(net.trace().is_empty(), "tracing off by default");

        net.enable_trace();
        net.inject(a, b, Msg::Note("one"));
        net.run_until_quiescent();
        net.kill_node(b);
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("two"));
        net.run_until_quiescent();

        let trace = net.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].outcome, TraceOutcome::Delivered);
        assert!(trace[0].delivered_at.is_some());
        assert_eq!(trace[0].kind, "note");
        assert_eq!(trace[1].outcome, TraceOutcome::DestinationDown);
        assert_eq!(trace[1].delivered_at, None);

        net.clear_trace();
        assert!(net.trace().is_empty());
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(NodeId(4).index(), 4);
    }

    use crate::faults::DegradeSpec;

    #[test]
    fn degrade_loss_drops_every_message_until_restored() {
        let mut net: SimNet<Msg> = SimNet::with_link(9, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();

        net.apply_action(FaultAction::Degrade(
            a,
            b,
            DegradeSpec {
                loss_pct: 100,
                ..DegradeSpec::default()
            },
        ));
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("lost"));
        // Degrade is symmetric, like Block.
        net.inject(b, a, Msg::Note("lost back"));
        net.run_until_quiescent();
        assert_eq!(net.metrics().messages_lost(), 2);
        assert!(net.node::<Recorder>(b).seen.is_empty());
        assert!(net.node::<Recorder>(a).seen.is_empty());

        net.apply_action(FaultAction::Restore(a, b));
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("through"));
        net.run_until_quiescent();
        assert_eq!(net.node::<Recorder>(b).seen.len(), 1);
    }

    #[test]
    fn degrade_dup_delivers_twice() {
        let mut net: SimNet<Msg> = SimNet::with_link(9, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();
        net.apply_action(FaultAction::Degrade(
            a,
            b,
            DegradeSpec {
                dup_pct: 100,
                ..DegradeSpec::default()
            },
        ));
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("twice"));
        net.run_until_quiescent();
        assert_eq!(net.node::<Recorder>(b).seen.len(), 2);
        assert_eq!(net.metrics().messages_delivered(), 2);
    }

    #[test]
    fn degrade_corrupt_counts_decode_errors_and_drops() {
        let mut net: SimNet<Msg> = SimNet::with_link(9, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();
        net.apply_action(FaultAction::Degrade(
            a,
            b,
            DegradeSpec {
                corrupt_pct: 100,
                ..DegradeSpec::default()
            },
        ));
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("garbled"));
        net.run_until_quiescent();
        assert_eq!(net.metrics().decode_errors(), 1);
        assert!(net.node::<Recorder>(b).seen.is_empty());
    }

    #[test]
    fn degrade_latency_and_slow_factor_stack_on_link_model() {
        // PerfectLink delivers at +0; chaos latency and the slow factor are
        // then the only delay terms, so arrival times are exact.
        let mut net: SimNet<Msg> = SimNet::with_link(9, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();
        net.apply_action(FaultAction::Degrade(
            a,
            b,
            DegradeSpec {
                latency: SimDuration::from_millis(2),
                ..DegradeSpec::default()
            },
        ));
        net.run_until_quiescent();
        let t0 = net.now();
        net.inject(a, b, Msg::Note("late"));
        net.run_until_quiescent();
        let seen = &net.node::<Recorder>(b).seen;
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, t0 + SimDuration::from_millis(2));

        // Slow multiplies the link-model latency, which is zero here, so
        // verify via a degraded extra latency on a slowed *sender*: the
        // chaos extra is additive, not multiplied.
        net.apply_action(FaultAction::Slow(a, 300));
        net.run_until_quiescent();
        let t1 = net.now();
        net.inject(a, b, Msg::Note("late again"));
        net.run_until_quiescent();
        let seen = &net.node::<Recorder>(b).seen;
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].0, t1 + SimDuration::from_millis(2));
        // Clearing the factor keeps the engine state tidy.
        net.apply_action(FaultAction::Slow(a, 100));
        net.run_until_quiescent();
    }

    #[test]
    fn stalled_sender_holds_outbound_until_stall_ends() {
        let mut net: SimNet<Msg> = SimNet::with_link(9, PerfectLink);
        let a = net.add_node(Recorder::default());
        let b = net.add_node(Recorder::default());
        net.run_until_quiescent();
        let t0 = net.now();
        net.apply_action(FaultAction::Stall(a, SimDuration::from_millis(10)));
        net.run_until_quiescent();
        net.inject(a, b, Msg::Note("held"));
        // The stalled node still *receives* — it is slow, not dead.
        net.inject(b, a, Msg::Note("inbound ok"));
        net.run_until_quiescent();
        let b_seen = &net.node::<Recorder>(b).seen;
        assert_eq!(b_seen.len(), 1);
        assert_eq!(b_seen[0].0, t0 + SimDuration::from_millis(10));
        assert_eq!(net.node::<Recorder>(a).seen.len(), 1);
        assert!(net.node::<Recorder>(a).seen[0].0 < t0 + SimDuration::from_millis(10));
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed| {
            let mut net: SimNet<Msg> = SimNet::new(seed);
            let rec = net.add_node(Recorder::default());
            let drv = net.add_node(Driver {
                target: rec,
                pings: 30,
            });
            net.apply_action(FaultAction::Degrade(
                rec,
                drv,
                DegradeSpec {
                    latency: SimDuration::from_micros(400),
                    jitter: SimDuration::from_micros(300),
                    loss_pct: 20,
                    dup_pct: 10,
                    reorder_pct: 10,
                    corrupt_pct: 5,
                },
            ));
            net.run_until_quiescent();
            (
                net.now(),
                net.metrics().messages_delivered(),
                net.metrics().messages_lost(),
                net.metrics().decode_errors(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}

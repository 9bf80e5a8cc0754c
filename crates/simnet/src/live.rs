//! The live runtime: real-time execution of [`Actor`]s, one thread per
//! node, over a pluggable [`Transport`].
//!
//! Everything a wall-clock substrate needs exists once, here: the node
//! loop and its timers, the builder, the send pipeline, the fault
//! controller, the running-net handle and the [`Spawner`] / [`Substrate`]
//! impls. A [`Transport`] supplies only the links — how a message crosses
//! from one node's thread to another's:
//! [`ChannelTransport`](crate::threadnet::ChannelTransport) hands it to
//! the destination's mailbox,
//! [`TcpTransport`](crate::tcpnet::TcpTransport) encodes it onto a
//! loopback socket.
//!
//! Every send, whatever the transport, runs one pipeline — partition
//! gate, down gate, gray-failure decision, then the link — and is
//! accounted by one function (`Hub::account`: metrics, net hook, flight
//! stamp), so a [`FaultPlan`] replayed by
//! [`Substrate::execute_plan`] produces the same counters on every
//! substrate. Faults are first-class: a node can be killed and later
//! restarted (its `on_restart` hook fires, its timers and the messages of
//! the down period are gone), link pairs can be blocked, and the gray
//! kinds (degrade/stall/slow) hold, duplicate, drop or corrupt messages
//! sender-side like the simulator's engine does.

use crate::chaos::{ChaosDecision, ChaosState, DelayPump};
use crate::engine::{
    Actor, Context, DynActor, FlightHook, NetHook, NodeId, Op, SelfInjector, TimerId, TraceOutcome,
};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::substrate::{FaultDriver, Spawner, Substrate};
use crate::time::{SimDuration, SimTime};
use crate::{FaultAction, FaultPlan, Wire};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{BinaryHeap, HashSet};
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-node flight recorders shared between sender threads (which stamp
/// outgoing messages with a Lamport clock) and node loops (which merge the
/// incoming stamp). Slots without a hook cost one `Option` check — the
/// always-on recorder is cheap and uninstalled nodes are free.
struct FlightTable {
    hooks: Vec<Option<Mutex<Box<dyn FlightHook + Send>>>>,
}

impl FlightTable {
    fn new(n: usize, installed: Vec<(NodeId, Box<dyn FlightHook + Send>)>) -> Self {
        let mut hooks: Vec<Option<Mutex<Box<dyn FlightHook + Send>>>> =
            (0..n).map(|_| None).collect();
        for (node, hook) in installed {
            if let Some(slot) = hooks.get_mut(node.index()) {
                *slot = Some(Mutex::new(hook));
            }
        }
        FlightTable { hooks }
    }

    fn hook(&self, node: NodeId) -> Option<&Mutex<Box<dyn FlightHook + Send>>> {
        self.hooks.get(node.index()).and_then(Option::as_ref)
    }

    fn on_fault(&self, node: NodeId, now: SimTime, action: &str) {
        if let Some(h) = self.hook(node) {
            h.lock().on_fault(now, action);
        }
    }
}

pub(crate) enum Ctl<M> {
    /// A delivered message: sender, payload, and the sender's Lamport stamp
    /// (0 when the sender records no flight data).
    Msg(NodeId, M, u64),
    /// The link from this node closed under the receiver; with the
    /// sender's Lamport clock at that moment.
    LinkLost(NodeId, u64),
    /// Crash the node: it drops messages and timers until restarted.
    Crash,
    /// Bring a crashed node back; its `on_restart` hook runs.
    Restart,
    /// Tear the node down for good; the thread exits and returns the actor.
    Shutdown,
}

/// Live fault state: which nodes are up, and which unordered link pairs
/// are blocked.
///
/// Checked sender-side on every send, mirroring how the simulator's engine
/// drops at the send event — a message to a down node or across a blocked
/// pair never reaches the destination's queue.
struct FaultState {
    up: Vec<AtomicBool>,
    /// Unordered blocked pairs, stored as (min, max).
    blocked: Mutex<HashSet<(u32, u32)>>,
    /// Cheap emptiness gate so the unblocked hot path never takes the lock.
    blocked_count: AtomicUsize,
}

impl FaultState {
    fn new(n: usize) -> Self {
        FaultState {
            up: (0..n).map(|_| AtomicBool::new(true)).collect(),
            blocked: Mutex::new(HashSet::new()),
            blocked_count: AtomicUsize::new(0),
        }
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.up
            .get(node.index())
            .map(|b| b.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Sets `node`'s gate and returns what it was, so a fault that changes
    /// nothing can be ignored like the engine ignores it. A node that does
    /// not exist is down and stays down.
    fn set_up(&self, node: NodeId, up: bool) -> bool {
        self.up
            .get(node.index())
            .map(|b| b.swap(up, Ordering::AcqRel))
            .unwrap_or(false)
    }

    fn pair(a: NodeId, b: NodeId) -> (u32, u32) {
        let (x, y) = (a.index() as u32, b.index() as u32);
        (x.min(y), x.max(y))
    }

    fn is_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.blocked_count.load(Ordering::Acquire) != 0
            && self.blocked.lock().contains(&Self::pair(a, b))
    }

    fn set_blocked(&self, a: NodeId, b: NodeId, blocked: bool) {
        let mut set = self.blocked.lock();
        let changed = if blocked {
            set.insert(Self::pair(a, b))
        } else {
            set.remove(&Self::pair(a, b))
        };
        if changed {
            self.blocked_count.store(set.len(), Ordering::Release);
        }
    }
}

/// What every thread of a live network shares, whatever the transport:
/// the nodes' mailboxes, the metrics, the fault gates, the installed hooks,
/// the clock origin and the gray-failure state.
///
/// A [`Transport`] gets the hub in every call and uses it for the two
/// things a link has to report: `Hub::account` when it knows how many
/// bytes a message takes on the link, `Hub::arrive` when the message has
/// reached the far end. Both are crate-private, which seals [`Transport`]:
/// a new transport is a new file in this crate.
pub struct Hub<M> {
    mailboxes: Vec<Sender<Ctl<M>>>,
    pub(crate) metrics: Mutex<Metrics>,
    faults: FaultState,
    hook: Option<Mutex<Box<dyn NetHook + Send>>>,
    flights: FlightTable,
    /// Wall-clock origin of every [`SimTime`] the network reports: actor
    /// contexts, hook timestamps and fault-plan offsets share this axis.
    epoch: Instant,
    pub(crate) chaos: ChaosState,
    pump: Arc<DelayPump>,
    pump_seq: AtomicU64,
}

impl<M: Wire> Hub<M> {
    pub(crate) fn new(
        n: usize,
        hook: Option<Box<dyn NetHook + Send>>,
        flights: Vec<(NodeId, Box<dyn FlightHook + Send>)>,
        chaos_seed: u64,
    ) -> (Arc<Self>, Vec<Receiver<Ctl<M>>>) {
        let (mailboxes, receivers) = (0..n).map(|_| unbounded()).unzip();
        let hub = Hub {
            mailboxes,
            metrics: Mutex::new(Metrics::new()),
            faults: FaultState::new(n),
            hook: hook.map(Mutex::new),
            flights: FlightTable::new(n, flights),
            epoch: Instant::now(),
            chaos: ChaosState::new(chaos_seed),
            pump: DelayPump::start(),
            pump_seq: AtomicU64::new(0),
        };
        (Arc::new(hub), receivers)
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.mailboxes.len()
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Whether `node` is up (a node that does not exist is not).
    pub(crate) fn is_up(&self, node: NodeId) -> bool {
        self.faults.is_up(node)
    }

    /// Accounts one send of `size` bytes — metrics, net hook, and `from`'s
    /// flight recorder, which stamps the message — and returns the Lamport
    /// clock to carry, or `None` when `from` records no flight data (the
    /// message then travels without one: no wall-clock read, no trailing
    /// varint on a TCP frame). The send is accounted whatever becomes of
    /// the message afterwards, matching the engine. An unhooked send costs
    /// the metrics lock and one slot load.
    pub(crate) fn account(&self, from: NodeId, to: NodeId, msg: &M, size: usize) -> Option<u64> {
        let kind = msg.kind();
        self.metrics.lock().on_send(kind, size);
        if let Some(hook) = &self.hook {
            hook.lock().on_send(self.now(), from, to, kind, size);
        }
        self.flights.hook(from).map(|h| {
            h.lock()
                .on_send_msg(self.now(), to, kind, size, msg.correlation())
        })
    }

    /// Puts a message that crossed its link into `to`'s mailbox and counts
    /// the delivery. `false` once the mailbox is gone (shutdown).
    pub(crate) fn arrive(&self, from: NodeId, to: NodeId, msg: M, clock: u64) -> bool {
        let sent = self
            .mailboxes
            .get(to.index())
            .is_some_and(|tx| tx.send(Ctl::Msg(from, msg, clock)).is_ok());
        if sent {
            self.metrics.lock().on_deliver();
        }
        sent
    }

    /// Tells `to` that the link from `from` closed under it (see
    /// [`Actor::on_link_lost`]). Gated like a message — a down `to` and a
    /// blocked pair hear nothing — but it is not one: no send is counted.
    pub(crate) fn link_lost(&self, from: NodeId, to: NodeId) {
        if self.is_up(to) && !self.faults.is_blocked(from, to) {
            let clock = self.flights.hook(from).map_or(0, |h| h.lock().lamport());
            self.ctl(to, Ctl::LinkLost(from, clock));
        }
    }

    /// A message that needs no link — a self-send, a driver injection, any
    /// message on the channel transport: accounted at `wire_size()` and
    /// handed straight to the mailbox.
    pub(crate) fn post(&self, from: NodeId, to: NodeId, msg: M) {
        let clock = self.account(from, to, &msg, msg.wire_size());
        self.arrive(from, to, msg, clock.unwrap_or(0));
    }

    /// [`Hub::post`] for a gray-degraded message: accounted now, in the
    /// mailbox after `delay`, `copies` times a beat apart.
    pub(crate) fn post_delayed(
        self: &Arc<Self>,
        from: NodeId,
        to: NodeId,
        msg: M,
        delay: Duration,
        copies: u32,
    ) {
        let clock = self.account(from, to, &msg, msg.wire_size()).unwrap_or(0);
        for i in 0..copies {
            let (hub, msg) = (Arc::clone(self), msg.clone());
            self.after(delay, i, move || {
                hub.arrive(from, to, msg, clock);
            });
        }
    }

    /// [`Hub::post`] for a message the chaos plane corrupts: with no byte
    /// stage to damage, it is a counted decode error at the receiver —
    /// the same observable as a bit-flipped TCP frame.
    pub(crate) fn post_corrupt(&self, from: NodeId, to: NodeId, msg: M) {
        self.account(from, to, &msg, msg.wire_size());
        self.metrics.lock().on_decode_error();
        self.tell_drop(from, to, msg.kind(), TraceOutcome::Lost);
        self.flag_decode_error(from, to);
    }

    /// Runs `deliver` on the chaos pump after `delay`, plus a beat per
    /// `copy` so a duplicate trails its original.
    pub(crate) fn after(
        &self,
        delay: Duration,
        copy: u32,
        deliver: impl FnOnce() + Send + 'static,
    ) {
        let seq = self.pump_seq.fetch_add(1, Ordering::Relaxed);
        let beat = delay + Duration::from_micros(200 * u64::from(copy));
        self.pump.after(beat, seq, Box::new(deliver));
    }

    /// Records in `to`'s flight ring that a frame from `from` failed to
    /// decode.
    pub(crate) fn flag_decode_error(&self, from: NodeId, to: NodeId) {
        self.flights
            .on_fault(to, self.now(), &format!("decode-error {from} {to}"));
    }

    fn tell_drop(&self, from: NodeId, to: NodeId, kind: &'static str, reason: TraceOutcome) {
        if let Some(hook) = &self.hook {
            hook.lock().on_drop(self.now(), from, to, kind, reason);
        }
    }

    /// Counts a message that was accounted but will never arrive, under
    /// the counter `reason` names, and reports the drop to the net hook.
    pub(crate) fn count_drop(
        &self,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        reason: TraceOutcome,
    ) {
        {
            let mut metrics = self.metrics.lock();
            match reason {
                TraceOutcome::Partitioned => metrics.on_drop_partition(),
                TraceOutcome::DestinationDown => metrics.on_drop_down(),
                TraceOutcome::Lost | TraceOutcome::Delivered => metrics.on_lost(),
            }
        }
        self.tell_drop(from, to, kind, reason);
    }

    /// A send that dies before any link: accounted, then dropped.
    fn dropped(&self, from: NodeId, to: NodeId, msg: &M, reason: TraceOutcome) {
        self.account(from, to, msg, msg.wire_size());
        self.count_drop(from, to, msg.kind(), reason);
    }

    /// A driver injection: accounted like any send and subject to the
    /// destination's up gate, as on the simulator; it crosses no link, so
    /// neither partitions nor gray failures touch it.
    fn inject(&self, from: NodeId, to: NodeId, msg: M) {
        if self.is_up(to) {
            self.post(from, to, msg);
        } else {
            self.dropped(from, to, &msg, TraceOutcome::DestinationDown);
        }
    }

    /// Writes `action`'s label into the flight ring of every node it
    /// touches.
    fn mark(&self, action: &FaultAction) {
        let (label, a, b) = action.mark();
        let now = self.now();
        self.flights.on_fault(a, now, &label);
        if let Some(b) = b {
            self.flights.on_fault(b, now, &label);
        }
    }

    fn ctl(&self, node: NodeId, ctl: Ctl<M>) {
        if let Some(tx) = self.mailboxes.get(node.index()) {
            let _ = tx.send(ctl);
        }
    }
}

/// The links of a live network: how a message gets from one node's thread
/// to another's. Implemented by
/// [`ChannelTransport`](crate::threadnet::ChannelTransport) and
/// [`TcpTransport`](crate::tcpnet::TcpTransport).
///
/// The runtime has already run the fault gates and the gray-failure
/// decision when it calls one of the `deliver*` methods, and `from != to`
/// always (a self-send needs no link). Each must call `Hub::account`
/// exactly once, with the size the message takes on the link, and see to
/// it that `Hub::arrive` runs at the far end.
pub trait Transport<M: Wire>: Send + Sync + Sized + 'static {
    /// Label for reports ([`Substrate::name`]).
    const NAME: &'static str;

    /// Opens every link among the hub's nodes.
    ///
    /// # Errors
    ///
    /// Whatever opening a link can fail with; nothing the transport
    /// started is left running when it returns an error.
    fn open(hub: &Arc<Hub<M>>) -> io::Result<Self>;

    /// Carries `msg` over the `from → to` link now.
    fn deliver(&self, hub: &Arc<Hub<M>>, from: NodeId, to: NodeId, msg: M);

    /// Carries `msg` after `delay`, `copies` times (gray latency, stall,
    /// slowdown, duplication).
    fn deliver_delayed(
        &self,
        hub: &Arc<Hub<M>>,
        from: NodeId,
        to: NodeId,
        msg: M,
        delay: Duration,
        copies: u32,
    );

    /// Carries `msg` damaged, so that the far end counts a decode error
    /// and hears nothing.
    fn deliver_corrupt(&self, hub: &Arc<Hub<M>>, from: NodeId, to: NodeId, msg: M);

    /// `node` was killed: sends to it are already gated. Whatever closes
    /// with it must end in `Hub::link_lost(node, peer)` for every peer,
    /// after the last message `node` got onto that link.
    fn on_kill(&self, hub: &Hub<M>, node: NodeId);

    /// `node` is about to come back: its gate opens when this returns.
    fn on_restart(&self, _hub: &Hub<M>, _node: NodeId) {}

    /// The node threads are gone; release the links.
    fn close(&self) {}
}

/// A hub and its links: the send pipeline and the fault controller, shared
/// by the node threads, the running-net handle and the fault drivers.
pub(crate) struct Switch<M: Wire, T> {
    pub(crate) hub: Arc<Hub<M>>,
    pub(crate) transport: T,
}

impl<M: Wire, T: Transport<M>> Switch<M, T> {
    /// The one send path: fault gates first, mirroring the engine's
    /// send-time drops — a blocked pair partitions the message, a down
    /// destination swallows it — then the gray-failure decision, then the
    /// link (or, for a self-send, the node's own mailbox). While nothing
    /// is blocked, down or degraded the gates cost three atomic loads.
    pub(crate) fn send(&self, from: NodeId, to: NodeId, msg: M) {
        let hub = &self.hub;
        if from != to && hub.faults.is_blocked(from, to) {
            return hub.dropped(from, to, &msg, TraceOutcome::Partitioned);
        }
        if !hub.is_up(to) {
            return hub.dropped(from, to, &msg, TraceOutcome::DestinationDown);
        }
        let local = from == to;
        match hub.chaos.decide(from.0, to.0) {
            ChaosDecision::Clean if local => hub.post(from, to, msg),
            ChaosDecision::Clean => self.transport.deliver(hub, from, to, msg),
            ChaosDecision::Drop => hub.dropped(from, to, &msg, TraceOutcome::Lost),
            ChaosDecision::Corrupt if local => hub.post_corrupt(from, to, msg),
            ChaosDecision::Corrupt => self.transport.deliver_corrupt(hub, from, to, msg),
            ChaosDecision::Deliver { delay, duplicate } => {
                let copies = if duplicate { 2 } else { 1 };
                if local {
                    hub.post_delayed(from, to, msg, delay, copies);
                } else {
                    self.transport
                        .deliver_delayed(hub, from, to, msg, delay, copies);
                }
            }
        }
    }

    /// Applies one [`FaultAction`] to the live network. Like the engine, a
    /// kill of a dead node or a restart of a live one does nothing.
    fn apply(&self, action: FaultAction) {
        let hub = &self.hub;
        match action {
            FaultAction::Crash(node) => {
                // Flip the sender-side gate first so in-flight sends start
                // dropping before the node even processes the crash marker.
                if !hub.faults.set_up(node, false) {
                    return;
                }
                hub.mark(&action);
                hub.ctl(node, Ctl::Crash);
                self.transport.on_kill(hub, node);
            }
            FaultAction::Restart(node) => {
                if hub.is_up(node) {
                    return;
                }
                self.transport.on_restart(hub, node);
                hub.faults.set_up(node, true);
                hub.mark(&action);
                hub.ctl(node, Ctl::Restart);
            }
            FaultAction::Block(a, b) => {
                hub.faults.set_blocked(a, b, true);
                hub.mark(&action);
            }
            FaultAction::Unblock(a, b) => {
                hub.faults.set_blocked(a, b, false);
                hub.mark(&action);
            }
            FaultAction::Degrade(..)
            | FaultAction::Restore(..)
            | FaultAction::Stall(..)
            | FaultAction::Slow(..) => {
                hub.chaos.apply(action);
                hub.mark(&action);
            }
        }
    }
}

struct PendingTimer {
    deadline: Instant,
    id: TimerId,
    token: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // invert: BinaryHeap is a max-heap, we want the earliest deadline
        other.deadline.cmp(&self.deadline)
    }
}

enum Hook<M> {
    Start,
    Restart,
    Message(NodeId, M),
    Timer(u64),
    LinkLost(NodeId),
}

/// What one node's thread keeps between hooks.
struct NodeLoop<M: Wire, T> {
    id: NodeId,
    net: Arc<Switch<M, T>>,
    /// Off-loop work (worker pools) re-enters the node through its own
    /// mailbox: a self-send respects the node's up/down gate, so
    /// completions racing a crash are dropped like any message.
    injector: SelfInjector<M>,
    rng: SmallRng,
    next_timer: u64,
    timers: BinaryHeap<PendingTimer>,
    cancelled: HashSet<TimerId>,
}

impl<M: Wire, T: Transport<M>> NodeLoop<M, T> {
    /// Runs one actor hook and carries out what it asked for.
    fn run_hook(&mut self, actor: &mut dyn Actor<M>, hook: Hook<M>) {
        let mut ctx = Context::detached(
            self.net.hub.now(),
            self.id,
            &mut self.next_timer,
            &mut self.rng,
            Some(&self.injector),
        );
        match hook {
            Hook::Start => actor.on_start(&mut ctx),
            Hook::Restart => actor.on_restart(&mut ctx),
            Hook::Message(from, m) => actor.on_message(&mut ctx, from, m),
            Hook::Timer(token) => actor.on_timer(&mut ctx, token),
            Hook::LinkLost(peer) => actor.on_link_lost(&mut ctx, peer),
        }
        let now = Instant::now();
        for op in ctx.take_ops() {
            match op {
                Op::Send { to, msg } => self.net.send(self.id, to, msg),
                Op::SetTimer { id, delay, token } => self.timers.push(PendingTimer {
                    deadline: now + Duration::from_micros(delay.as_micros()),
                    id,
                    token,
                }),
                Op::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }
}

fn run_node<M: Wire, T: Transport<M>>(
    actor: &mut dyn Actor<M>,
    id: NodeId,
    rx: Receiver<Ctl<M>>,
    net: Arc<Switch<M, T>>,
) {
    let mut node = NodeLoop {
        id,
        injector: SelfInjector::new(id, {
            let net = Arc::clone(&net);
            Arc::new(move |msg| net.send(id, id, msg))
        }),
        net,
        rng: SmallRng::seed_from_u64(0x5157_0000 + id.index() as u64),
        next_timer: 0,
        timers: BinaryHeap::new(),
        cancelled: HashSet::new(),
    };
    // Crash-stop state: while down the node drops messages and timers, the
    // same observable behavior as the engine's crashed nodes.
    let mut up = true;

    node.run_hook(actor, Hook::Start);
    loop {
        // Fire all due timers (none are pending while down: a crash clears
        // the heap and no hooks run to arm new ones).
        loop {
            let due = match node.timers.peek() {
                Some(t) if t.deadline <= Instant::now() => node.timers.pop().expect("peeked"),
                _ => break,
            };
            if !node.cancelled.remove(&due.id) {
                node.run_hook(actor, Hook::Timer(due.token));
            }
        }
        let timeout = node
            .timers
            .peek()
            .map(|t| t.deadline.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(Ctl::Msg(from, m, clock)) => {
                if up {
                    let hub = &node.net.hub;
                    if let Some(h) = hub.flights.hook(id) {
                        h.lock().on_recv_msg(
                            hub.now(),
                            from,
                            m.kind(),
                            m.wire_size(),
                            m.correlation(),
                            clock,
                        );
                    }
                    node.run_hook(actor, Hook::Message(from, m));
                }
                // else: the message raced the crash; a down node hears nothing.
            }
            Ok(Ctl::LinkLost(from, clock)) => {
                if up {
                    let hub = &node.net.hub;
                    if let Some(h) = hub.flights.hook(id) {
                        let mark = FaultAction::link_lost_mark(from);
                        h.lock().on_fault_after(hub.now(), &mark, clock);
                    }
                    node.run_hook(actor, Hook::LinkLost(from));
                }
            }
            Ok(Ctl::Crash) => {
                up = false;
                node.timers.clear();
                node.cancelled.clear();
            }
            Ok(Ctl::Restart) => {
                if !up {
                    up = true;
                    node.run_hook(actor, Hook::Restart);
                }
            }
            Ok(Ctl::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Collects actors before the links are opened and the threads spawned.
///
/// Node ids are assigned in registration order, matching
/// [`SimNet::add_node`](crate::SimNet::add_node), so the same wiring code
/// can target any of the three runtimes. Use it under its two names,
/// [`ThreadNetBuilder`](crate::threadnet::ThreadNetBuilder) and
/// [`TcpNetBuilder`](crate::tcpnet::TcpNetBuilder), which also carry the
/// transport's `start`.
pub struct LiveNetBuilder<M: Wire, T: Transport<M>> {
    actors: Vec<Box<dyn DynActor<M>>>,
    hook: Option<Box<dyn NetHook + Send>>,
    flights: Vec<(NodeId, Box<dyn FlightHook + Send>)>,
    chaos_seed: u64,
    transport: PhantomData<fn() -> T>,
}

impl<M: Wire, T: Transport<M>> Default for LiveNetBuilder<M, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Wire, T: Transport<M>> LiveNetBuilder<M, T> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        LiveNetBuilder {
            actors: Vec::new(),
            hook: None,
            flights: Vec::new(),
            chaos_seed: 0,
            transport: PhantomData,
        }
    }

    /// Seeds the gray-failure RNG, making chaos soaks reproducible: the
    /// same seed and plan produce the same per-message loss/dup/corrupt
    /// decisions (wall-clock interleavings still vary, as on any live
    /// substrate).
    pub fn set_chaos_seed(&mut self, seed: u64) {
        self.chaos_seed = seed;
    }

    /// Registers an actor and returns its future node id.
    pub fn add_node(&mut self, actor: impl Actor<M> + Any + 'static) -> NodeId {
        self.add_boxed(Box::new(actor))
    }

    /// Registers an already-boxed actor (the deployment-layer path; see
    /// [`Spawner`]). `shutdown` returns the inner concrete type either
    /// way, so `downcast_ref` keeps working.
    pub fn add_boxed(&mut self, actor: Box<dyn DynActor<M>>) -> NodeId {
        let id = NodeId::from_index(self.actors.len());
        self.actors.push(actor);
        id
    }

    /// Installs a network hook observing every send — link crossings,
    /// self-sends and injections alike — and every fault drop, with the
    /// same callbacks the in-process engine uses, so per-kind
    /// message/byte accounting (e.g. an obs recorder) works identically on
    /// every substrate. The hook is shared across sender threads behind a
    /// mutex; keep it cheap.
    pub fn set_net_hook(&mut self, hook: Box<dyn NetHook + Send>) {
        self.hook = Some(hook);
    }

    /// Installs `node`'s flight recorder (see [`FlightHook`]): sender
    /// threads ask it to stamp every outgoing message with a Lamport clock
    /// (on TCP carried as a trailing varint after the message payload, so
    /// frames without one decode with clock 0), and the node's loop hands
    /// it every delivery.
    pub fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>) {
        self.flights.push((node, hook));
    }

    /// Opens the links and spawns every registered actor on its own
    /// thread. Each actor's `on_start` runs before its first message is
    /// processed. No thread is left behind when the links fail to open.
    pub(crate) fn boot(self) -> io::Result<LiveNet<M, T>> {
        let (hub, receivers) =
            Hub::new(self.actors.len(), self.hook, self.flights, self.chaos_seed);
        let transport = T::open(&hub).inspect_err(|_| hub.pump.shutdown())?;
        let net = Arc::new(Switch { hub, transport });
        let handles = self
            .actors
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(i, (mut actor, rx))| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    run_node(&mut *actor, NodeId::from_index(i), rx, net);
                    actor.into_any()
                })
            })
            .collect();
        Ok(LiveNet {
            net,
            handles,
            drivers: Vec::new(),
        })
    }
}

/// A running real-time network of actors, one thread per node, over the
/// links of `T`. Known under its two names,
/// [`ThreadNet`](crate::threadnet::ThreadNet) and
/// [`TcpNet`](crate::tcpnet::TcpNet).
pub struct LiveNet<M: Wire, T: Transport<M>> {
    pub(crate) net: Arc<Switch<M, T>>,
    handles: Vec<JoinHandle<Box<dyn Any + Send>>>,
    drivers: Vec<FaultDriver>,
}

impl<M: Wire, T: Transport<M>> LiveNet<M, T> {
    /// Sends `msg` to `to` as if it came from `from`, straight into the
    /// destination's mailbox (driver injection, not a measured link hop).
    /// Accounted and hooked like any send, and dropped — counted
    /// `to_down` — when `to` is down, as on the simulator.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: M) {
        self.net.hub.inject(from, to, msg);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.net.hub.node_count()
    }

    /// Wall-clock time since the network started, on the same axis the
    /// node loops report to actors.
    pub fn now(&self) -> SimTime {
        self.net.hub.now()
    }

    /// A detached snapshot of the transport metrics so far (a plain-data
    /// copy, not a clone of the live registry).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.net.hub.metrics.lock().snapshot()
    }

    /// Kills one node, as a crash: sends to it start dropping immediately,
    /// its pending timers die, and it stays deaf until
    /// [`LiveNet::restart_node`]. On TCP **both halves of every socket
    /// touching it are shut down**, so peer writer threads blocked on its
    /// dead receive buffer error out instead of hanging. Killing a dead
    /// node does nothing. Named like
    /// [`SimNet::kill_node`](crate::SimNet::kill_node).
    pub fn kill_node(&self, node: NodeId) {
        self.net.apply(FaultAction::Crash(node));
    }

    /// Restarts a killed node: sends resume reaching it (on TCP over fresh
    /// socket pairs dialed to every live peer) and its `on_restart` hook
    /// runs, symmetric with [`LiveNet::kill_node`]. Restarting a live
    /// node does nothing.
    pub fn restart_node(&self, node: NodeId) {
        self.net.apply(FaultAction::Restart(node));
    }

    /// Blocks all traffic between `a` and `b` (both directions), as a
    /// partition: such sends are dropped sender-side, before any link
    /// work, and counted as partitioned.
    pub fn block_link(&self, a: NodeId, b: NodeId) {
        self.net.apply(FaultAction::Block(a, b));
    }

    /// Unblocks traffic between `a` and `b`.
    pub fn unblock_link(&self, a: NodeId, b: NodeId) {
        self.net.apply(FaultAction::Unblock(a, b));
    }

    /// Applies any [`FaultAction`] — including the gray kinds
    /// (degrade/restore/stall/slow) — immediately.
    pub fn apply_action(&self, action: FaultAction) {
        self.net.apply(action);
    }

    /// Replays `plan` against the live network in real time: a fault-driver
    /// thread sleeps until each action's wall-clock offset (measured from
    /// network start) and applies it. Multiple plans may be in flight; all
    /// drivers are stopped and joined by [`LiveNet::shutdown`].
    pub fn execute_plan(&mut self, plan: &FaultPlan) {
        let net = Arc::clone(&self.net);
        self.drivers.push(FaultDriver::spawn(
            plan,
            self.net.hub.epoch,
            Box::new(move |action| net.apply(action)),
        ));
    }

    /// Stops all node threads, draining queued messages first (the stop
    /// marker queues behind them), releases the links, and returns each
    /// actor in node order for inspection via `Box<dyn Any>`. Fault
    /// drivers are stopped first, so no action fires into a
    /// half-torn-down network.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any node or link thread.
    pub fn shutdown(self) -> Vec<Box<dyn Any + Send>> {
        for d in self.drivers {
            d.stop();
        }
        let hub = &self.net.hub;
        // Chaos-delayed deliveries still in the pump die with the network,
        // exactly like in-flight frames on a torn-down socket.
        hub.pump.shutdown();
        for node in 0..hub.node_count() {
            hub.ctl(NodeId::from_index(node), Ctl::Shutdown);
        }
        let actors = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        self.net.transport.close();
        actors
    }
}

impl<M: Wire, T: Transport<M>> Spawner<M> for LiveNetBuilder<M, T> {
    fn add_boxed(&mut self, actor: Box<dyn DynActor<M>>) -> NodeId {
        LiveNetBuilder::add_boxed(self, actor)
    }

    fn set_net_hook(&mut self, hook: Box<dyn NetHook + Send>) {
        LiveNetBuilder::set_net_hook(self, hook);
    }

    fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>) {
        LiveNetBuilder::set_flight_hook(self, node, hook);
    }
}

impl<M: Wire, T: Transport<M>> Substrate<M> for LiveNet<M, T> {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn node_count(&self) -> usize {
        LiveNet::node_count(self)
    }

    fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        LiveNet::inject(self, from, to, msg);
    }

    fn kill_node(&mut self, node: NodeId) {
        LiveNet::kill_node(self, node);
    }

    fn restart_node(&mut self, node: NodeId) {
        LiveNet::restart_node(self, node);
    }

    fn block_link(&mut self, a: NodeId, b: NodeId) {
        LiveNet::block_link(self, a, b);
    }

    fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        LiveNet::unblock_link(self, a, b);
    }

    fn apply_action(&mut self, action: FaultAction) {
        LiveNet::apply_action(self, action);
    }

    fn execute_plan(&mut self, plan: &FaultPlan) {
        LiveNet::execute_plan(self, plan);
    }

    fn advance(&mut self, d: SimDuration) {
        std::thread::sleep(Duration::from_micros(d.as_micros()));
    }

    fn now(&self) -> SimTime {
        LiveNet::now(self)
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        LiveNet::metrics_snapshot(self)
    }
}

/// The behaviours every live substrate owes its actors, written once over
/// any [`Transport`] and instantiated under the test names of
/// `threadnet::tests` and `tcpnet::tests`.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;
    use crate::DegradeSpec;
    use std::sync::atomic::AtomicU32;
    use whisper_wire::{Decode, Encode, Reader, WireError};

    /// One varint on the wire, so byte counts are the same with and
    /// without a byte stage.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct Ping(pub(crate) u32);
    impl Wire for Ping {
        fn wire_size(&self) -> usize {
            self.encoded_len()
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }
    impl Encode for Ping {
        fn encode_into(&self, out: &mut Vec<u8>) {
            self.0.encode_into(out);
        }
    }
    impl Decode for Ping {
        fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Ping(u32::decode_from(r)?))
        }
    }

    /// Counts what it hears and sends `Ping(n - 1)` back while `n > 0`.
    pub(crate) struct Echo {
        pub(crate) bounces: Arc<AtomicU32>,
    }
    impl Echo {
        pub(crate) fn new() -> (Echo, Arc<AtomicU32>) {
            let bounces = Arc::new(AtomicU32::new(0));
            (
                Echo {
                    bounces: Arc::clone(&bounces),
                },
                bounces,
            )
        }
    }
    impl Actor<Ping> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, msg: Ping) {
            self.bounces.fetch_add(1, Ordering::SeqCst);
            if msg.0 > 0 {
                ctx.send(from, Ping(msg.0 - 1));
            }
        }
    }

    pub(crate) fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn hits(counter: &AtomicU32) -> u32 {
        counter.load(Ordering::SeqCst)
    }

    type Net<T> = LiveNet<Ping, T>;

    /// Two echoes, `a` then `b`, with a seeded chaos plane.
    fn echo_pair<T: Transport<Ping>>() -> (Net<T>, [NodeId; 2], [Arc<AtomicU32>; 2]) {
        let mut b = LiveNetBuilder::<Ping, T>::new();
        b.set_chaos_seed(42);
        let (a, a_hits) = Echo::new();
        let (z, z_hits) = Echo::new();
        let nodes = [b.add_node(a), b.add_node(z)];
        (b.boot().expect("links open"), nodes, [a_hits, z_hits])
    }

    fn degrade(spec: DegradeSpec, [a, b]: [NodeId; 2]) -> FaultAction {
        FaultAction::Degrade(a, b, spec)
    }

    pub(crate) fn ping_pong<T: Transport<Ping>>() {
        let (net, [na, nb], [a_hits, b_hits]) = echo_pair::<T>();
        net.inject(na, nb, Ping(9));
        wait_until("ping-pong did not complete", || {
            hits(&a_hits) + hits(&b_hits) >= 10
        });
        let m = net.metrics_snapshot();
        net.shutdown();
        assert_eq!(hits(&a_hits) + hits(&b_hits), 10);
        assert_eq!(m.sent_of_kind("ping"), 10);
        // Byte accounting is the real encoded size: 1 varint byte per ping
        // here, not a hand-estimated constant.
        assert_eq!(m.bytes_sent(), 10);
    }

    pub(crate) fn timers_fire_in_real_time<T: Transport<Ping>>() {
        struct Beeper {
            beeps: Arc<AtomicU32>,
        }
        impl Actor<Ping> for Beeper {
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.set_timer(SimDuration::from_millis(5), 7);
                ctx.set_timer(SimDuration::from_millis(10), 7);
            }
            fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, _: &mut Context<'_, Ping>, token: u64) {
                assert_eq!(token, 7);
                self.beeps.fetch_add(1, Ordering::SeqCst);
            }
        }
        let beeps = Arc::new(AtomicU32::new(0));
        let mut b = LiveNetBuilder::<Ping, T>::new();
        b.add_node(Beeper {
            beeps: beeps.clone(),
        });
        let net = b.boot().expect("links open");
        wait_until("timers did not fire", || hits(&beeps) >= 2);
        net.shutdown();
        assert_eq!(hits(&beeps), 2);
    }

    pub(crate) fn shutdown_returns_actors_in_order<T: Transport<Ping>>() {
        let mut b = LiveNetBuilder::<Ping, T>::new();
        let counters: Vec<_> = (0..3)
            .map(|_| {
                let (echo, bounces) = Echo::new();
                b.add_node(echo);
                bounces
            })
            .collect();
        let net = b.boot().expect("links open");
        assert_eq!(net.node_count(), 3);
        let actors = net.shutdown();
        assert_eq!(actors.len(), 3);
        for (actor, counter) in actors.iter().zip(&counters) {
            let echo = actor.downcast_ref::<Echo>().expect("the concrete actor");
            assert!(Arc::ptr_eq(&echo.bounces, counter), "actors out of order");
        }
    }

    pub(crate) fn kill_drops_messages_and_restart_revives<T: Transport<Ping>>() {
        struct Marker {
            seen: Arc<AtomicU32>,
            restarts: Arc<AtomicU32>,
        }
        impl Actor<Ping> for Marker {
            fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {
                self.seen.fetch_add(1, Ordering::SeqCst);
            }
            fn on_restart(&mut self, _: &mut Context<'_, Ping>) {
                self.restarts.fetch_add(1, Ordering::SeqCst);
            }
        }
        let seen = Arc::new(AtomicU32::new(0));
        let restarts = Arc::new(AtomicU32::new(0));
        let mut b = LiveNetBuilder::<Ping, T>::new();
        let src = b.add_node(Echo::new().0);
        let dst = b.add_node(Marker {
            seen: seen.clone(),
            restarts: restarts.clone(),
        });
        let net = b.boot().expect("links open");

        net.inject(src, dst, Ping(0));
        wait_until("first ping not seen", || hits(&seen) >= 1);

        // The kill closes the node's gate before it returns, so the next
        // message is dropped there and then — nothing to wait for.
        net.kill_node(dst);
        net.inject(src, dst, Ping(0));
        assert_eq!(net.metrics_snapshot().to_down, 1);

        net.restart_node(dst);
        wait_until("on_restart did not fire", || hits(&restarts) >= 1);
        net.inject(src, dst, Ping(0));
        wait_until("revived node deaf", || hits(&seen) >= 2);
        // The mailbox is FIFO: had the down node been handed the middle
        // message, it would have been counted before this one.
        assert_eq!(hits(&seen), 2, "down node heard a message");
        net.shutdown();
    }

    pub(crate) fn blocked_pair_drops_sender_side<T: Transport<Ping>>() {
        let (net, [na, nb], [a_hits, _]) = echo_pair::<T>();
        net.block_link(na, nb);
        // The injected message reaches nb (an injection crosses no link),
        // but nb's reply crosses the blocked pair and is dropped.
        net.inject(na, nb, Ping(5));
        wait_until("no partitioned drop recorded", || {
            net.metrics_snapshot().partitioned >= 1
        });
        assert_eq!(hits(&a_hits), 0);
        net.unblock_link(na, nb);
        net.inject(nb, na, Ping(0));
        wait_until("unblocked pair still dropping", || hits(&a_hits) >= 1);
        net.shutdown();
    }

    pub(crate) fn chaos_degrade_drops_then_restore_heals<T: Transport<Ping>>() {
        let (net, pair @ [na, nb], [_, b_hits]) = echo_pair::<T>();
        let lossy = DegradeSpec {
            loss_pct: 100,
            ..DegradeSpec::default()
        };
        net.apply_action(degrade(lossy, pair));
        // An injection crosses no link; na's *reply* crosses the degraded
        // one and dies there.
        net.inject(nb, na, Ping(3));
        wait_until("chaos loss never counted", || {
            net.metrics_snapshot().lost >= 1
        });
        assert_eq!(hits(&b_hits), 0);

        net.apply_action(FaultAction::Restore(na, nb));
        net.inject(nb, na, Ping(3));
        wait_until("restored link never delivered", || hits(&b_hits) > 0);
        net.shutdown();
    }

    pub(crate) fn chaos_dup_delivers_twice<T: Transport<Ping>>() {
        let (net, pair @ [na, nb], [_, b_hits]) = echo_pair::<T>();
        let dup = DegradeSpec {
            dup_pct: 100,
            ..DegradeSpec::default()
        };
        net.apply_action(degrade(dup, pair));
        // na's reply Ping(0) is duplicated: nb hears it twice.
        net.inject(nb, na, Ping(1));
        wait_until("duplicate never delivered", || hits(&b_hits) >= 2);
        net.shutdown();
    }

    pub(crate) fn chaos_corrupt_counts_decode_error_and_link_survives<T: Transport<Ping>>() {
        let (net, pair @ [na, nb], [_, b_hits]) = echo_pair::<T>();
        let corrupt = DegradeSpec {
            corrupt_pct: 100,
            ..DegradeSpec::default()
        };
        net.apply_action(degrade(corrupt, pair));
        // na's reply crosses the degraded link damaged and fails to decode
        // at nb — counted, not fatal.
        net.inject(nb, na, Ping(1));
        wait_until("corruption never counted", || {
            net.metrics_snapshot().decode_errors >= 1
        });
        assert_eq!(hits(&b_hits), 0);

        // The same link keeps working once the degradation lifts (on TCP
        // the length prefix resynchronized the stream past the bad
        // payload).
        net.apply_action(FaultAction::Restore(na, nb));
        net.inject(nb, na, Ping(1));
        wait_until("link did not survive the corrupted frame", || {
            hits(&b_hits) >= 1
        });
        net.shutdown();
    }
}

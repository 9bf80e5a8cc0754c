//! Real TCP loopback transport for the same [`Actor`](crate::Actor)s.
//!
//! [`TcpNet`] is the [live runtime](crate::live) over [`TcpTransport`]:
//! each actor on its own thread exactly like
//! [`ThreadNet`](crate::threadnet::ThreadNet) — same node loop, same
//! timers, same send pipeline and fault controller — but every inter-node
//! message crosses a real TCP socket on `127.0.0.1`: the sender encodes to
//! bytes with [`whisper_wire::Encode`], writes a length-prefixed frame,
//! and a per-link reader thread decodes the frame back into a message for
//! the destination actor. Kernel socket buffers, syscalls, and the codec
//! are all on the hot path, which is what makes the measured RTT
//! comparable to the paper's LAN numbers rather than a channel-hop
//! artifact.
//!
//! What this module owns is the links. Topology is a full mesh: one TCP
//! connection per ordered node pair, established up front in
//! [`TcpNetBuilder::start`]. Self-sends and injections never touch a
//! socket (the runtime puts them in the node's mailbox).
//!
//! Faults are real here: killing a node shuts down **both halves** of
//! every socket touching it, so a peer writer blocked on the dead node's
//! full receive buffer gets an I/O error instead of hanging, and a restart
//! re-dials fresh socket pairs to every live peer before the node's
//! `on_restart` hook runs. Gray corruption flips real frame bytes, so the
//! real decoder chokes on them.
//!
//! Decoding is hardened end to end: a frame that fails to parse is a
//! counted, flight-recorded link fault, and one that is oversized or
//! truncated ends that link's current socket (the TCP analogue of a broken
//! peer) — neither panics the node.

use crate::engine::{NodeId, TraceOutcome};
use crate::live::{Hub, LiveNet, LiveNetBuilder, Transport};
use crate::metrics::Metrics;
use crate::Wire;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use whisper_wire::{
    decode_clocked, read_frame_into, write_frame_vectored, write_frames_vectored, Decode, Encode,
};

/// One outgoing link: the socket's write half plus a reusable encode
/// scratch buffer, bundled behind a single mutex so a steady-state send
/// takes one lock, encodes into the warm buffer, and writes the frame
/// with zero transient allocations.
struct Link {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// Most frames a link parks while its writer is busy. Beyond this,
/// telemetry is shed and protocol traffic waits for the writer
/// (backpressure), so a stalled socket bounds memory per link.
const LINK_QUEUE_CAP: usize = 64;

/// Read buffer per link socket: a 16 KiB envelope with its frame prefix,
/// or a whole burst of small frames, fits in one `read`.
const READ_BUF_BYTES: usize = 64 * 1024;

/// One ordered link's live socket state: the writer half used by the
/// sender, and a clone of the current reader socket kept so a kill can
/// shut the connection down from outside the reader thread. `None` means
/// the link is down (endpoint killed) until a restart re-dials it.
///
/// `queue` holds fully-encoded frames (trailing Lamport varint included)
/// from senders that found the writer busy; the current lock holder
/// drains it into a single vectored write (flat combining), so a
/// contended link coalesces frames instead of serializing syscalls.
struct LinkSlot {
    writer: Mutex<Option<Link>>,
    reader: Mutex<Option<TcpStream>>,
    queue: Mutex<VecDeque<Vec<u8>>>,
}

impl LinkSlot {
    /// The one way a frame reaches a link's socket. Writes the caller's
    /// frame — `own`, or with `None` the one it encoded into the link's
    /// scratch — behind the frames parked while the writer was last busy,
    /// all in one vectored write, preserving link FIFO; an idle link
    /// (empty queue) takes exactly the single-frame path. Then leaves
    /// through [`LinkSlot::drain_after`], like every holder of the writer
    /// must.
    ///
    /// A write error means the peer's link is gone (e.g. during
    /// shutdown), and a down link writes nothing: the frame was accounted
    /// when it was encoded and is simply lost, like on a real LAN.
    fn write_then_drain<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Option<Link>>,
        own: Option<&[u8]>,
        metrics: &Mutex<Metrics>,
    ) {
        if let Some(Link { stream, scratch }) = guard.as_mut() {
            let own = own.unwrap_or(scratch);
            let queued: Vec<Vec<u8>> = self.queue.lock().drain(..).collect();
            if queued.is_empty() {
                let _ = write_frame_vectored(stream, own);
            } else {
                let frames: Vec<&[u8]> = queued
                    .iter()
                    .map(Vec::as_slice)
                    .chain(std::iter::once(own))
                    .collect();
                let _ = write_frames_vectored(stream, &frames);
                metrics.lock().on_batch_flush(queued.len());
            }
        }
        self.drain_after(guard, metrics);
    }

    /// Flushes frames that peers queued while `guard` was held, then
    /// releases the writer. The release re-check loop is the flat-
    /// combining liveness protocol: a peer that enqueues just as the
    /// holder's last drain saw an empty queue will either observe the
    /// writer free (and take over the flush itself) or be covered by the
    /// holder re-acquiring here — no frame is stranded either way, as
    /// long as *every* holder releases the writer through this function.
    fn drain_after<'a>(
        &'a self,
        mut guard: MutexGuard<'a, Option<Link>>,
        metrics: &Mutex<Metrics>,
    ) {
        loop {
            loop {
                let batch: Vec<Vec<u8>> = self.queue.lock().drain(..).collect();
                if batch.is_empty() {
                    break;
                }
                // A down link discards the batch: the frames were already
                // accounted at enqueue time, matching a direct write that
                // fails mid-flight.
                if let Some(Link { stream, .. }) = guard.as_mut() {
                    let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
                    let _ = write_frames_vectored(stream, &refs);
                    metrics.lock().on_batch_flush(batch.len());
                }
            }
            drop(guard);
            if self.queue.lock().is_empty() {
                return;
            }
            match self.writer.try_lock() {
                Some(g) => guard = g,
                None => return, // the new holder drains behind itself
            }
        }
    }
}

/// The full mesh of ordered links, indexed `from * n + to` (diagonal
/// unused), shared between the senders, the fault controller and the
/// chaos pump.
struct LinkTable {
    n: usize,
    slots: Vec<LinkSlot>,
}

impl LinkTable {
    fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n * n);
        slots.resize_with(n * n, || LinkSlot {
            writer: Mutex::new(None),
            reader: Mutex::new(None),
            queue: Mutex::new(VecDeque::new()),
        });
        LinkTable { n, slots }
    }

    fn slot(&self, from: usize, to: usize) -> &LinkSlot {
        &self.slots[from * self.n + to]
    }

    /// Installs a fresh socket pair on the `from → to` link and returns
    /// the read half for the link's reader thread.
    fn dial(&self, from: usize, to: usize) -> io::Result<TcpStream> {
        let (writer, reader) = connect_pair()?;
        let slot = self.slot(from, to);
        *slot.reader.lock() = Some(reader.try_clone()?);
        *slot.writer.lock() = Some(Link {
            stream: writer,
            scratch: Vec::new(),
        });
        Ok(reader)
    }

    /// Writes an already-encoded `frame` on the `from → to` link, waiting
    /// for the writer if it is busy.
    fn write_frame(&self, from: NodeId, to: NodeId, frame: &[u8], metrics: &Mutex<Metrics>) {
        let slot = self.slot(from.index(), to.index());
        slot.write_then_drain(slot.writer.lock(), Some(frame), metrics);
    }
}

/// Connects one TCP socket pair on loopback.
///
/// Binding to port 0 and connecting to the assigned address completes
/// synchronously on loopback (the listener's backlog holds the connection
/// until `accept`), so no handshake threads are needed.
fn connect_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let writer = TcpStream::connect(addr)?;
    let (reader, _) = listener.accept()?;
    writer.set_nodelay(true)?;
    reader.set_nodelay(true)?;
    Ok((writer, reader))
}

/// Encodes `msg` into `frame` and accounts the send at its encoded length
/// — *before* the trailing Lamport varint, so byte accounting equals
/// `wire_size()` on every substrate without a second sizing pass; the
/// clock rides as framing overhead like the length prefix does. Unhooked
/// senders emit the pre-clock frame layout — no trailing varint, no
/// wall-clock read — which receivers decode with clock 0: exact, since a
/// sender with no ring has no events to order against.
fn encode_accounted<M: Wire + Encode>(
    hub: &Hub<M>,
    from: NodeId,
    to: NodeId,
    msg: &M,
    frame: &mut Vec<u8>,
) {
    frame.clear();
    msg.encode_into(frame);
    if let Some(clock) = hub.account(from, to, msg, frame.len()) {
        clock.encode_into(frame);
    }
}

/// [`encode_accounted`] into a frame of its own, for the paths where the
/// frame outlives the send call (parked behind a busy writer, held by the
/// chaos pump).
fn encode_owned<M: Wire + Encode>(hub: &Hub<M>, from: NodeId, to: NodeId, msg: &M) -> Vec<u8> {
    let mut frame = Vec::with_capacity(msg.wire_size() + 8);
    encode_accounted(hub, from, to, msg, &mut frame);
    frame
}

/// One link's reader thread: decodes frames off the link's current socket
/// into the destination's mailbox. Each socket it is handed is read to
/// EOF/error, `to` is told the link is lost, then the thread parks
/// waiting for a replacement (node restart); a disconnected control
/// channel ends the thread.
fn spawn_reader<M: Wire + Decode>(
    hub: Arc<Hub<M>>,
    from: NodeId,
    to: NodeId,
    sockets: Receiver<TcpStream>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // One payload buffer per link, reused across sockets.
        let mut payload = Vec::new();
        let mut next = sockets.recv().ok();
        while let Some(stream) = next {
            // One read buffer per socket, so a frame costs at most one
            // `read` (not one for the prefix and one for the payload) and
            // a burst one for all of it. Bytes of a killed socket's
            // unfinished frame die with its buffer: the replacement starts
            // on a frame boundary.
            let mut stream = BufReader::with_capacity(READ_BUF_BYTES, stream);
            while let Ok(true) = read_frame_into(&mut stream, &mut payload) {
                // A frame is the message encoding plus an optional
                // trailing Lamport varint; frames from before the clock
                // existed decode with clock 0.
                match decode_clocked::<M>(&payload) {
                    Ok((msg, clock)) => {
                        if !hub.arrive(from, to, msg, clock) {
                            return;
                        }
                    }
                    // Garbage on the wire is a counted, flight-recorded
                    // link fault — never a teardown. The length prefix has
                    // already advanced the stream past the bad payload, so
                    // the next frame parses cleanly; corruption injection
                    // is observable rather than fatal.
                    Err(_) => {
                        hub.metrics.lock().on_decode_error();
                        hub.flag_decode_error(from, to);
                    }
                }
            }
            // The socket ended — EOF after a kill, an error on an oversized
            // or truncated frame — and every frame it carried is in the
            // mailbox: `from` is gone as far as this link can tell. Unless
            // it was `to` that died: then `to` is still down, or a restart
            // has re-dialed the link, which it does before it lifts the
            // gate — so the gate is read first, the replacement second.
            let to_up = hub.is_up(to);
            next = match sockets.try_recv() {
                Ok(replacement) => Some(replacement),
                Err(TryRecvError::Disconnected) => None,
                Err(TryRecvError::Empty) => {
                    if to_up {
                        hub.link_lost(from, to);
                    }
                    sockets.recv().ok()
                }
            };
        }
    })
}

/// TCP-backed links: encode, frame, write to the link's socket; a reader
/// thread per link decodes at the far end.
pub struct TcpTransport {
    links: Arc<LinkTable>,
    /// Per ordered link, the channel feeding replacement sockets to that
    /// link's reader thread (`None` on the diagonal). Emptied by `close`,
    /// which is what ends the parked readers.
    reader_ctrl: Mutex<Vec<Option<Sender<TcpStream>>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Wire + Encode + Decode> Transport<M> for TcpTransport {
    const NAME: &'static str = "tcp";

    fn open(hub: &Arc<Hub<M>>) -> io::Result<Self> {
        let n = hub.node_count();
        let links = Arc::new(LinkTable::new(n));
        // Establish every ordered link before spawning anything, so a
        // socket failure leaves no threads behind.
        let mut initial = Vec::new();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    initial.push((from, to, links.dial(from, to)?));
                }
            }
        }
        let mut reader_ctrl: Vec<Option<Sender<TcpStream>>> = Vec::new();
        reader_ctrl.resize_with(n * n, || None);
        let mut readers = Vec::with_capacity(initial.len());
        for (from, to, reader) in initial {
            let (ctrl_tx, ctrl_rx) = unbounded();
            ctrl_tx.send(reader).expect("fresh channel");
            reader_ctrl[from * n + to] = Some(ctrl_tx);
            readers.push(spawn_reader(
                Arc::clone(hub),
                NodeId::from_index(from),
                NodeId::from_index(to),
                ctrl_rx,
            ));
        }
        Ok(TcpTransport {
            links,
            reader_ctrl: Mutex::new(reader_ctrl),
            readers: Mutex::new(readers),
        })
    }

    fn deliver(&self, hub: &Arc<Hub<M>>, from: NodeId, to: NodeId, msg: M) {
        let slot = self.links.slot(from.index(), to.index());
        let Some(mut guard) = slot.writer.try_lock() else {
            // Another thread is mid-write on this link: encode to an owned
            // frame and park it for the lock holder to flush in one
            // vectored write. The send is accounted here, at enqueue time,
            // exactly as a direct write would be.
            let mut frame = encode_owned(hub, from, to, &msg);
            let parked = {
                let mut q = slot.queue.lock();
                if q.len() < LINK_QUEUE_CAP {
                    q.push_back(std::mem::take(&mut frame));
                    true
                } else {
                    false
                }
            };
            if parked {
                // The holder may have finished its drain between our
                // failed try_lock and the push; re-check so the frame is
                // never stranded on an idle link.
                if let Some(guard) = slot.writer.try_lock() {
                    slot.drain_after(guard, &hub.metrics);
                }
            } else if msg.is_telemetry() {
                // Queue full: telemetry never head-of-line blocks protocol
                // traffic, so the frame is shed — counted as sent then
                // lost, the same accounting as the engine's loss model.
                // Pulse deltas are cumulative per emitter, so a shed frame
                // costs resolution, not correctness.
                hub.count_drop(from, to, msg.kind(), TraceOutcome::Lost);
            } else {
                // Protocol traffic must not be lost to contention: wait
                // for the writer (backpressure), then flush the backlog
                // and this frame in link order.
                hub.metrics.lock().on_backpressure_wait();
                self.links.write_frame(from, to, &frame, &hub.metrics);
            }
            return;
        };
        match guard.as_mut() {
            Some(link) => encode_accounted(hub, from, to, &msg, &mut link.scratch),
            // No live link (torn down, not yet re-dialed): the message is
            // lost but still accounted.
            None => {
                hub.account(from, to, &msg, msg.wire_size());
            }
        }
        slot.write_then_drain(guard, None, &hub.metrics);
    }

    fn deliver_delayed(
        &self,
        hub: &Arc<Hub<M>>,
        from: NodeId,
        to: NodeId,
        msg: M,
        delay: Duration,
        copies: u32,
    ) {
        // Delay and duplication park the finished frame on the pump.
        let frame = encode_owned(hub, from, to, &msg);
        for copy in 0..copies {
            let (links, net, frame) = (Arc::clone(&self.links), Arc::clone(hub), frame.clone());
            hub.after(delay, copy, move || {
                links.write_frame(from, to, &frame, &net.metrics);
            });
        }
    }

    fn deliver_corrupt(&self, hub: &Arc<Hub<M>>, from: NodeId, to: NodeId, msg: M) {
        // Corruption flips bits in the encoded frame so the receiver hits
        // a *real* decode error. Damage both ends of the payload: the
        // first byte carries the message tag, so the decode on the far
        // side fails rather than resynthesizing a different valid message.
        let mut frame = encode_owned(hub, from, to, &msg);
        if let Some(first) = frame.first_mut() {
            *first ^= 0xFF;
        }
        if frame.len() > 1 {
            // Only on multi-byte frames: on a 1-byte payload this would
            // re-flip the same byte back to valid.
            let last = frame.len() - 1;
            frame[last] ^= 0xFF;
        }
        self.links.write_frame(from, to, &frame, &hub.metrics);
    }

    fn on_kill(&self, _: &Hub<M>, node: NodeId) {
        // The readers at the far ends see EOF and report the loss.
        let n = self.links.n;
        let dead = node.index();
        if dead >= n {
            return;
        }
        for other in (0..n).filter(|&other| other != dead) {
            for (from, to) in [(dead, other), (other, dead)] {
                let slot = self.links.slot(from, to);
                // Shut the read half first: this resets the connection, so
                // a peer writer blocked on the dead node's full receive
                // buffer errors out and releases the writer lock — which
                // we are about to take.
                if let Some(sock) = slot.reader.lock().take() {
                    let _ = sock.shutdown(Shutdown::Both);
                }
                if let Some(link) = slot.writer.lock().take() {
                    let _ = link.stream.shutdown(Shutdown::Both);
                }
                // Parked frames were addressed to the dead incarnation;
                // dropping them keeps a later restart's fresh socket from
                // replaying stale traffic. They were accounted at enqueue.
                slot.queue.lock().clear();
            }
        }
    }

    fn on_restart(&self, hub: &Hub<M>, node: NodeId) {
        let n = self.links.n;
        let back = node.index();
        if back >= n {
            return;
        }
        let reader_ctrl = self.reader_ctrl.lock();
        // Links to still-down peers are re-dialed when *they* restart;
        // dialing them now would race their own teardown.
        for other in (0..n).filter(|&o| o != back && hub.is_up(NodeId::from_index(o))) {
            for (from, to) in [(back, other), (other, back)] {
                let Ok(reader) = self.links.dial(from, to) else {
                    continue;
                };
                if let Some(Some(ctrl)) = reader_ctrl.get(from * n + to) {
                    let _ = ctrl.send(reader);
                }
            }
        }
    }

    fn close(&self) {
        // The nodes are gone; close the read halves so reader threads see
        // EOF even if their peer's write half is still open somewhere,
        // then drop the control channels so parked readers exit too.
        for slot in &self.links.slots {
            if let Some(sock) = slot.reader.lock().take() {
                let _ = sock.shutdown(Shutdown::Both);
            }
        }
        self.reader_ctrl.lock().clear();
        for reader in self.readers.lock().drain(..) {
            reader.join().expect("link reader thread panicked");
        }
    }
}

/// Collects actors before opening sockets and spawning threads: the live
/// runtime's [`LiveNetBuilder`] over [`TcpTransport`].
pub type TcpNetBuilder<M> = LiveNetBuilder<M, TcpTransport>;

impl<M: Wire + Encode + Decode> TcpNetBuilder<M> {
    /// Opens the full mesh of loopback sockets, spawns one thread per actor
    /// plus one reader thread per incoming link, and returns the running
    /// network.
    ///
    /// # Errors
    ///
    /// Any socket error while binding/connecting the mesh; no threads have
    /// been spawned when an error is returned.
    pub fn start(self) -> io::Result<TcpNet<M>> {
        self.boot()
    }
}

/// A running network of actors connected by real TCP loopback sockets: the
/// live runtime's [`LiveNet`] over [`TcpTransport`].
///
/// # Examples
///
/// ```
/// use whisper_simnet::tcpnet::TcpNetBuilder;
/// use whisper_simnet::{Actor, Context, NodeId, Wire};
/// use whisper_wire::{Decode, Encode, Reader, WireError};
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// #[derive(Clone, Debug, PartialEq)]
/// struct Hit(u64);
/// impl Wire for Hit {
///     fn wire_size(&self) -> usize { self.encoded_len() }
/// }
/// impl Encode for Hit {
///     fn encode_into(&self, out: &mut Vec<u8>) { self.0.encode_into(out) }
/// }
/// impl Decode for Hit {
///     fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
///         Ok(Hit(u64::decode_from(r)?))
///     }
/// }
///
/// struct Forward { next: NodeId, hits: Arc<AtomicU32> }
/// impl Actor<Hit> for Forward {
///     fn on_message(&mut self, ctx: &mut Context<'_, Hit>, _: NodeId, msg: Hit) {
///         self.hits.fetch_add(1, Ordering::SeqCst);
///         if msg.0 > 0 { ctx.send(self.next, Hit(msg.0 - 1)); }
///     }
/// }
///
/// let hits = Arc::new(AtomicU32::new(0));
/// let mut b = TcpNetBuilder::new();
/// let a = b.add_node(Forward { next: NodeId::from_index(1), hits: hits.clone() });
/// let z = b.add_node(Forward { next: NodeId::from_index(0), hits: hits.clone() });
/// let net = b.start().unwrap();
/// net.inject(a, z, Hit(3)); // bounces over real sockets until the count hits 0
/// while hits.load(Ordering::SeqCst) < 4 { std::thread::yield_now(); }
/// net.shutdown();
/// ```
pub type TcpNet<M> = LiveNet<M, TcpTransport>;

#[cfg(test)]
mod tests {
    use super::TcpTransport as T;
    use super::*;
    use crate::engine::{Actor, Context};
    use crate::live::suite::{self, wait_until, Echo, Ping};
    use crate::live::Switch;
    use crate::{DegradeSpec, FaultAction, SimDuration};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    // The behaviours every live substrate owes, over real sockets.

    #[test]
    fn ping_pong_over_real_sockets() {
        suite::ping_pong::<T>();
    }

    #[test]
    fn timers_fire_on_tcp_runtime_too() {
        suite::timers_fire_in_real_time::<T>();
    }

    #[test]
    fn shutdown_joins_everything_and_returns_actors() {
        suite::shutdown_returns_actors_in_order::<T>();
    }

    #[test]
    fn kill_drops_messages_and_restart_revives() {
        suite::kill_drops_messages_and_restart_revives::<T>();
    }

    #[test]
    fn blocked_pair_drops_sender_side() {
        suite::blocked_pair_drops_sender_side::<T>();
    }

    #[test]
    fn chaos_degrade_drops_then_restore_heals() {
        suite::chaos_degrade_drops_then_restore_heals::<T>();
    }

    #[test]
    fn chaos_dup_delivers_frame_twice() {
        suite::chaos_dup_delivers_twice::<T>();
    }

    #[test]
    fn chaos_corrupt_counts_decode_error_and_link_survives() {
        suite::chaos_corrupt_counts_decode_error_and_link_survives::<T>();
    }

    // What only sockets have.

    #[test]
    fn three_node_relay_chain() {
        struct Relay {
            next: NodeId,
            seen: Arc<AtomicU32>,
        }
        impl Actor<Ping> for Relay {
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: NodeId, msg: Ping) {
                self.seen.fetch_add(1, Ordering::SeqCst);
                let Ping(n) = msg;
                if n > 0 {
                    ctx.send(self.next, Ping(n - 1));
                }
            }
        }
        let seen = Arc::new(AtomicU32::new(0));
        let mut b = TcpNetBuilder::new();
        let n0 = b.add_node(Relay {
            next: NodeId::from_index(1),
            seen: seen.clone(),
        });
        let _n1 = b.add_node(Relay {
            next: NodeId::from_index(2),
            seen: seen.clone(),
        });
        let _n2 = b.add_node(Relay {
            next: NodeId::from_index(0),
            seen: seen.clone(),
        });
        let net = b.start().unwrap();
        net.inject(n0, n0, Ping(8));
        let s = seen.clone();
        wait_until("relay chain did not complete", || {
            s.load(Ordering::SeqCst) >= 9
        });
        net.shutdown();
        assert_eq!(seen.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn scratch_buffer_reuse_has_no_cross_frame_bleed() {
        // Frames of wildly different sizes on the same link: the per-link
        // encode scratch and the reader's reused payload buffer must not
        // leak bytes from a long frame into a following short one.
        #[derive(Clone, Debug, PartialEq)]
        enum B {
            Go,
            Blob(Vec<u8>),
        }
        impl Wire for B {
            fn wire_size(&self) -> usize {
                self.encoded_len()
            }
            fn kind(&self) -> &'static str {
                "blob"
            }
        }
        impl Encode for B {
            fn encode_into(&self, out: &mut Vec<u8>) {
                match self {
                    B::Go => out.push(0),
                    B::Blob(data) => {
                        out.push(1);
                        data.encode_into(out);
                    }
                }
            }
        }
        impl Decode for B {
            fn decode_from(
                r: &mut whisper_wire::Reader<'_>,
            ) -> Result<Self, whisper_wire::WireError> {
                match r.u8()? {
                    0 => Ok(B::Go),
                    _ => Ok(B::Blob(Vec::<u8>::decode_from(r)?)),
                }
            }
        }

        fn payloads() -> Vec<Vec<u8>> {
            vec![
                vec![0xAA; 4096],
                vec![0xBB; 7],
                Vec::new(),
                vec![0xCC; 1024],
                vec![0xDD],
            ]
        }

        struct Burst {
            peer: NodeId,
        }
        impl Actor<B> for Burst {
            fn on_message(&mut self, ctx: &mut Context<'_, B>, _: NodeId, msg: B) {
                if msg == B::Go {
                    for p in payloads() {
                        ctx.send(self.peer, B::Blob(p));
                    }
                }
            }
        }
        struct Collect {
            got: Arc<Mutex<Vec<Vec<u8>>>>,
        }
        impl Actor<B> for Collect {
            fn on_message(&mut self, _: &mut Context<'_, B>, _: NodeId, msg: B) {
                if let B::Blob(data) = msg {
                    self.got.lock().push(data);
                }
            }
        }

        let got = Arc::new(Mutex::new(Vec::new()));
        let mut b = TcpNetBuilder::new();
        let receiver = NodeId::from_index(1);
        let sender = b.add_node(Burst { peer: receiver });
        b.add_node(Collect { got: got.clone() });
        let net = b.start().unwrap();
        net.inject(sender, sender, B::Go);
        let g = got.clone();
        wait_until("blobs did not all arrive", || {
            g.lock().len() >= payloads().len()
        });
        net.shutdown();
        assert_eq!(*got.lock(), payloads());
    }

    /// Builds a two-node switch by hand — no node threads, no readers —
    /// so tests can hold the 0 → 1 link's writer lock and force the
    /// contended paths deterministically. The returned reader is the far
    /// end of that link.
    fn hand_built_outbound<W: Wire + Encode + Decode>() -> (Switch<W, T>, TcpStream) {
        let (hub, _mailboxes) = Hub::new(2, None, Vec::new(), 0);
        let links = Arc::new(LinkTable::new(2));
        let reader = links.dial(0, 1).unwrap();
        let transport = TcpTransport {
            links,
            reader_ctrl: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
        };
        (Switch { hub, transport }, reader)
    }

    #[derive(Clone, Debug)]
    struct Pulse;
    impl Wire for Pulse {
        fn wire_size(&self) -> usize {
            self.encoded_len()
        }
        fn kind(&self) -> &'static str {
            "pulse-report"
        }
        fn is_telemetry(&self) -> bool {
            true
        }
    }
    impl Encode for Pulse {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.push(7);
        }
    }
    impl Decode for Pulse {
        fn decode_from(r: &mut whisper_wire::Reader<'_>) -> Result<Self, whisper_wire::WireError> {
            r.u8().map(|_| Pulse)
        }
    }

    #[test]
    fn telemetry_queues_on_contention_and_sheds_when_queue_fills() {
        let (out, _reader) = hand_built_outbound::<Pulse>();
        let from = NodeId::from_index(0);
        let to = NodeId::from_index(1);

        // Uncontended: the telemetry frame goes out on the socket.
        out.send(from, to, Pulse);
        {
            let m = out.hub.metrics.lock().snapshot();
            assert_eq!(m.sent_of_kind("pulse-report"), 1);
            assert_eq!(m.lost, 0);
        }

        // Contended with queue space: frames park in the link's outbound
        // queue instead of shedding, and send() never blocks.
        let guard = out.transport.links.slot(0, 1).writer.lock();
        for _ in 0..LINK_QUEUE_CAP {
            out.send(from, to, Pulse);
        }
        {
            let m = out.hub.metrics.lock().snapshot();
            assert_eq!(m.sent_of_kind("pulse-report"), 1 + LINK_QUEUE_CAP as u64);
            assert_eq!(m.lost, 0, "queued telemetry must not count as shed");
        }

        // Queue full: the frame is shed — counted as sent then lost, the
        // same accounting as the pre-batching try_lock shed path.
        out.send(from, to, Pulse);
        {
            let m = out.hub.metrics.lock().snapshot();
            assert_eq!(m.sent_of_kind("pulse-report"), 2 + LINK_QUEUE_CAP as u64);
            assert_eq!(m.lost, 1);
        }
        drop(guard);

        // The next direct send drains the backlog ahead of itself in one
        // vectored write.
        out.send(from, to, Pulse);
        let m = out.hub.metrics.lock().snapshot();
        assert_eq!(m.batch_flushes, 1);
        assert_eq!(m.frames_coalesced, LINK_QUEUE_CAP as u64);
        assert_eq!(m.lost, 1);
    }

    #[test]
    fn contended_frames_flush_in_link_order() {
        let (out, mut reader) = hand_built_outbound::<Ping>();
        let from = NodeId::from_index(0);
        let to = NodeId::from_index(1);

        // Park three protocol frames behind a held writer lock — none may
        // block or shed — then release and send a fourth directly.
        let guard = out.transport.links.slot(0, 1).writer.lock();
        for n in 0..3 {
            out.send(from, to, Ping(n));
        }
        {
            let m = out.hub.metrics.lock().snapshot();
            assert_eq!(m.sent_of_kind("ping"), 3);
            assert_eq!(m.lost, 0);
            assert_eq!(m.backpressure_waits, 0);
        }
        drop(guard);
        out.send(from, to, Ping(3));

        // The wire carries the queued frames first, then the direct one:
        // link FIFO survives batching.
        let mut payload = Vec::new();
        for expect in 0..4u32 {
            assert!(read_frame_into(&mut reader, &mut payload).unwrap());
            let (msg, _) = decode_clocked::<Ping>(&payload).unwrap();
            assert_eq!(msg, Ping(expect));
        }
        let m = out.hub.metrics.lock().snapshot();
        assert_eq!(m.batch_flushes, 1);
        assert_eq!(m.frames_coalesced, 3);
    }

    #[test]
    fn full_queue_applies_backpressure_to_protocol_traffic_without_loss() {
        let (out, mut reader) = hand_built_outbound::<Ping>();
        let out = Arc::new(out);
        let from = NodeId::from_index(0);
        let to = NodeId::from_index(1);

        let guard = out.transport.links.slot(0, 1).writer.lock();
        for n in 0..LINK_QUEUE_CAP as u32 {
            out.send(from, to, Ping(n));
        }
        // One more protocol frame from another thread: the queue is full,
        // so that sender must wait for the writer rather than shed. Only
        // release the lock once it has registered the backpressure wait,
        // so the blocking path is exercised deterministically.
        let o2 = Arc::clone(&out);
        let blocked = std::thread::spawn(move || {
            o2.send(from, to, Ping(LINK_QUEUE_CAP as u32));
        });
        let o3 = Arc::clone(&out);
        wait_until("sender never hit the full-queue backpressure path", || {
            o3.hub.metrics.lock().snapshot().backpressure_waits == 1
        });
        drop(guard);
        blocked.join().unwrap();

        let mut payload = Vec::new();
        for expect in 0..=LINK_QUEUE_CAP as u32 {
            assert!(read_frame_into(&mut reader, &mut payload).unwrap());
            let (msg, _) = decode_clocked::<Ping>(&payload).unwrap();
            assert_eq!(msg, Ping(expect));
        }
        let m = out.hub.metrics.lock().snapshot();
        assert_eq!(m.lost, 0, "protocol traffic must never shed");
        assert_eq!(m.backpressure_waits, 1);
        assert_eq!(m.sent_of_kind("ping"), LINK_QUEUE_CAP as u64 + 1);
    }

    #[test]
    fn kill_then_restart_re_dials_sockets() {
        let (a, a_hits) = Echo::new();
        let (z, b_hits) = Echo::new();
        let mut b = TcpNetBuilder::new();
        let na = b.add_node(a);
        let nb = b.add_node(z);
        let net = b.start().unwrap();
        let hits = |c: &AtomicU32| c.load(Ordering::SeqCst);

        // Round trip while healthy.
        net.inject(na, nb, Ping(1));
        wait_until("healthy ping-pong did not complete", || {
            hits(&a_hits) + hits(&b_hits) >= 2
        });

        // Kill b: its sockets are gone when the call returns, and traffic
        // to it drops sender-side instead of blocking.
        net.kill_node(nb);
        assert!(net.net.transport.links.slot(0, 1).writer.lock().is_none());
        let before = hits(&b_hits);
        net.inject(nb, na, Ping(1)); // a's reply finds the gate closed
        wait_until("reply to the dead node was not dropped", || {
            net.metrics_snapshot().to_down >= 1
        });

        // Restart b: fresh sockets are in place when the call returns,
        // on_restart fires, and traffic flows again over the re-dialed
        // links (inject to a, which pings b via socket).
        net.restart_node(nb);
        assert!(net.net.transport.links.slot(0, 1).writer.lock().is_some());
        net.inject(nb, na, Ping(1)); // a replies to b over the new link
        wait_until("restarted node never heard socket traffic", || {
            hits(&b_hits) > before
        });
        net.shutdown();
    }

    #[test]
    fn restart_of_a_live_node_leaves_its_sockets_alone() {
        let (net, kept) = keeper_net();
        // Half a frame sits in the 0 → 1 reader's buffer. A re-dial would
        // throw it away with the old socket; a restart that finds the
        // node up must not touch the link.
        let frame = framed(7..8);
        let (first, rest) = frame.split_at(frame.len() / 2);
        write_raw(&net, std::iter::once(first.to_vec()));
        net.restart_node(NodeId::from_index(1));
        write_raw(&net, std::iter::once(rest.to_vec()));
        wait_until("the frame split around the restart was lost", || {
            kept.lock().len() == 1
        });
        assert_eq!(*kept.lock(), [7]);
        net.shutdown();
    }

    #[test]
    fn delayed_writer_drains_what_was_parked_behind_it() {
        let (out, mut reader) = hand_built_outbound::<Ping>();
        let from = NodeId::from_index(0);
        let to = NodeId::from_index(1);
        reader
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // A gray-delayed frame sits on the pump, which will block on the
        // writer we hold; a clean frame sent meanwhile finds the writer
        // busy and parks, trusting the holder to drain behind itself.
        let guard = out.transport.links.slot(0, 1).writer.lock();
        let slow = DegradeSpec {
            latency: SimDuration::from_millis(1),
            ..DegradeSpec::default()
        };
        out.hub.chaos.apply(FaultAction::Degrade(from, to, slow));
        out.send(from, to, Ping(1));
        out.hub.chaos.apply(FaultAction::Restore(from, to));
        out.send(from, to, Ping(2));
        drop(guard);

        // The pump's write is the only writer left: it must flush the
        // parked frame too, or it is stranded until the next send.
        let mut payload = Vec::new();
        let mut got = Vec::new();
        for _ in 0..2 {
            assert!(
                read_frame_into(&mut reader, &mut payload).expect("a parked frame was stranded")
            );
            got.push(decode_clocked::<Ping>(&payload).unwrap().0);
        }
        assert_eq!(got, [Ping(2), Ping(1)], "parked frames go out first");
    }

    /// Node 1 of a two-node net keeps every ping it hears, and `LOST` for
    /// a link it is told is lost.
    struct Keep(Arc<Mutex<Vec<u32>>>);
    const LOST: u32 = u32::MAX;
    impl Actor<Ping> for Keep {
        fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, msg: Ping) {
            let Ping(n) = msg;
            self.0.lock().push(n);
        }
        fn on_link_lost(&mut self, _: &mut Context<'_, Ping>, _: NodeId) {
            self.0.lock().push(LOST);
        }
    }

    fn keeper_net() -> (TcpNet<Ping>, Arc<Mutex<Vec<u32>>>) {
        let kept = Arc::new(Mutex::new(Vec::new()));
        let mut b = TcpNetBuilder::new();
        b.add_node(Keep(Arc::new(Mutex::new(Vec::new()))));
        b.add_node(Keep(kept.clone()));
        (b.start().unwrap(), kept)
    }

    #[test]
    fn a_frame_that_ends_the_socket_loses_the_link_behind_its_last_good_frame() {
        for bad in [
            // a length prefix beyond MAX_FRAME_LEN
            u32::MAX.to_le_bytes().to_vec(),
            // a frame cut short: the writer goes away mid-payload
            framed(8..9)[..4].to_vec(),
        ] {
            let (net, kept) = keeper_net();
            let mut bytes = framed(7..8);
            bytes.extend_from_slice(&bad);
            write_raw(&net, std::iter::once(bytes));
            if bad.len() == 4 && bad != u32::MAX.to_le_bytes() {
                let slot = net.net.transport.links.slot(0, 1).writer.lock();
                let _ = slot.as_ref().expect("up").stream.shutdown(Shutdown::Write);
            }
            let k = kept.clone();
            wait_until("the broken socket was not reported", || k.lock().len() == 2);
            assert_eq!(*kept.lock(), [7, LOST]);
            // at shutdown every socket ends; nobody is left to be told
            net.shutdown();
            assert_eq!(*kept.lock(), [7, LOST]);
        }
    }

    #[test]
    fn a_node_restarted_at_once_is_not_told_its_live_peers_are_gone() {
        let (net, kept) = keeper_net();
        let node = NodeId::from_index(1);
        for round in 0..50 {
            net.kill_node(node);
            net.restart_node(node);
            // through the re-dialed link, behind whatever the old
            // socket's end might have queued
            write_raw(&net, std::iter::once(framed(round..round + 1)));
            let k = kept.clone();
            wait_until("the re-dialed link is deaf", || {
                k.lock().last() == Some(&round)
            });
        }
        net.shutdown();
        assert_eq!(*kept.lock(), (0..50).collect::<Vec<u32>>());
    }

    /// The frames of `pings`, back to back, as they travel on a link.
    fn framed(pings: std::ops::Range<u32>) -> Vec<u8> {
        let payloads: Vec<Vec<u8>> = pings.map(|n| Ping(n).encode()).collect();
        let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut bytes = Vec::new();
        write_frames_vectored(&mut bytes, &slices).unwrap();
        bytes
    }

    /// Writes raw bytes on the 0 → 1 link's current socket.
    fn write_raw(net: &TcpNet<Ping>, chunks: impl Iterator<Item = Vec<u8>>) {
        use std::io::Write;
        let mut slot = net.net.transport.links.slot(0, 1).writer.lock();
        let stream = &mut slot.as_mut().expect("link is up").stream;
        for chunk in chunks {
            stream.write_all(&chunk).unwrap();
        }
    }

    #[test]
    fn link_reader_frames_dripped_and_coalesced_bytes_alike() {
        let (net, kept) = keeper_net();
        // eight frames in one segment, then eight more a byte at a time
        // (nodelay: a segment each, give or take the kernel's coalescing)
        write_raw(&net, std::iter::once(framed(0..8)));
        write_raw(&net, framed(8..16).into_iter().map(|b| vec![b]));
        let k = kept.clone();
        wait_until("frames went missing in the buffered reader", || {
            k.lock().len() >= 16
        });
        assert_eq!(*kept.lock(), (0..16).collect::<Vec<u32>>());
        assert_eq!(net.metrics_snapshot().decode_errors, 0);
        net.shutdown();
    }

    #[test]
    fn restart_drops_what_the_old_socket_left_in_the_read_buffer() {
        let (net, kept) = keeper_net();
        // One whole frame and the first half of a second, in one segment:
        // the reader delivers the first and holds the half in its buffer.
        let mut bytes = framed(1..2);
        let second = framed(2_000_000..2_000_001);
        bytes.extend_from_slice(&second[..second.len() / 2]);
        write_raw(&net, std::iter::once(bytes));
        let k = kept.clone();
        wait_until("the whole frame never arrived", || k.lock().len() == 1);

        let node = NodeId::from_index(1);
        net.kill_node(node);
        net.restart_node(node);
        // The new socket starts on a frame boundary: a held-over half
        // frame would swallow this one or choke the decoder on it.
        write_raw(&net, std::iter::once(framed(3..4)));
        let k = kept.clone();
        wait_until("the frame on the new socket was misframed", || {
            k.lock().len() == 2
        });
        assert_eq!(*kept.lock(), [1, 3]);
        assert_eq!(net.metrics_snapshot().decode_errors, 0);
        net.shutdown();
    }

    #[test]
    fn killing_receiver_unblocks_stuck_writer() {
        // Wedge a writer for real: a garbage frame makes node 1's reader
        // park its socket (decode error), then a flood of frames fills the
        // kernel buffers until the write blocks while holding the link's
        // writer lock — the worst case for a kill, which must take that
        // same lock. Shutting the read half first is what breaks the
        // blocked write; without it this test hangs.
        let mut b = TcpNetBuilder::new();
        b.add_node(Echo::new().0);
        b.add_node(Echo::new().0);
        let net = b.start().unwrap();
        let links = Arc::clone(&net.net.transport.links);
        let done = Arc::new(AtomicU32::new(0));
        let d = done.clone();
        let writer_thread = std::thread::spawn(move || {
            let mut slot = links.slot(0, 1).writer.lock();
            if let Some(Link { stream, .. }) = slot.as_mut() {
                // 64 KiB of junk per frame: the first one kills the
                // reader's decode loop, the rest pile into the socket
                // until a write blocks, then errors when the kill shuts
                // the connection down.
                let junk = vec![0xFFu8; 64 * 1024];
                while write_frame_vectored(stream, &junk).is_ok() {}
            }
            drop(slot);
            d.fetch_add(1, Ordering::SeqCst);
        });
        // Let the writer wedge against full buffers, then kill the
        // receiver; the blocked write must error out promptly.
        std::thread::sleep(Duration::from_millis(100));
        net.kill_node(NodeId::from_index(1));
        let d = done.clone();
        wait_until("writer stayed blocked after receiver was killed", || {
            d.load(Ordering::SeqCst) >= 1
        });
        writer_thread.join().unwrap();
        net.shutdown();
    }
}

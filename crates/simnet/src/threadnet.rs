//! Real-time execution of [`Actor`](crate::Actor)s over OS threads and
//! channels.
//!
//! [`ThreadNet`] is the [live runtime](crate::live) over
//! [`ChannelTransport`]: each actor on its own thread, every message
//! handed straight to the destination's unbounded crossbeam mailbox;
//! timers are real-time deadlines. This gives wall-clock numbers for
//! Criterion benches from exactly the protocol code that the
//! deterministic [`SimNet`](crate::SimNet) exercises in tests — and the
//! same actor objects run unmodified over real sockets on
//! [`tcpnet::TcpNet`](crate::tcpnet::TcpNet), which differs from this
//! module only in its links.
//!
//! Builder, node loop, send pipeline, fault controller and handle are the
//! live runtime's; what this module owns is the transport below, the two
//! names and the infallible [`ThreadNetBuilder::start`].

use crate::engine::NodeId;
use crate::live::{Hub, LiveNet, LiveNetBuilder, Transport};
use crate::Wire;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Channel-backed links: a message crosses by being put into the
/// destination's mailbox, with no byte stage. Its size on the "link" is
/// its `wire_size()`, and a corrupted message is a counted decode error.
pub struct ChannelTransport;

impl<M: Wire> Transport<M> for ChannelTransport {
    const NAME: &'static str = "threadnet";

    fn open(_: &Arc<Hub<M>>) -> io::Result<Self> {
        Ok(ChannelTransport)
    }

    fn deliver(&self, hub: &Arc<Hub<M>>, from: NodeId, to: NodeId, msg: M) {
        hub.post(from, to, msg);
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
        hub.post_delayed(from, to, msg, delay, copies);
    }

    fn deliver_corrupt(&self, hub: &Arc<Hub<M>>, from: NodeId, to: NodeId, msg: M) {
        hub.post_corrupt(from, to, msg);
    }

    fn on_kill(&self, hub: &Hub<M>, node: NodeId) {
        // What the dead node has sent is in the mailboxes already; the
        // loss of its "links" queues behind it.
        for peer in (0..hub.node_count()).map(NodeId::from_index) {
            if peer != node {
                hub.link_lost(node, peer);
            }
        }
    }
}

/// Collects actors before spawning threads: the live runtime's
/// [`LiveNetBuilder`] over [`ChannelTransport`].
pub type ThreadNetBuilder<M> = LiveNetBuilder<M, ChannelTransport>;

impl<M: Wire> ThreadNetBuilder<M> {
    /// Spawns every registered actor on its own thread and returns the
    /// running network. Each actor's `on_start` runs before its first
    /// message is processed.
    pub fn start(self) -> ThreadNet<M> {
        self.boot().expect("channels always open")
    }
}

/// A running real-time network of actors on threads and channels: the
/// live runtime's [`LiveNet`] over [`ChannelTransport`].
///
/// # Examples
///
/// ```
/// use whisper_simnet::threadnet::ThreadNetBuilder;
/// use whisper_simnet::{Actor, Context, NodeId, Wire};
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// #[derive(Clone, Debug)]
/// struct Hit;
/// impl Wire for Hit { fn wire_size(&self) -> usize { 8 } }
///
/// struct Counter(Arc<AtomicU32>);
/// impl Actor<Hit> for Counter {
///     fn on_message(&mut self, _: &mut Context<'_, Hit>, _: NodeId, _: Hit) {
///         self.0.fetch_add(1, Ordering::SeqCst);
///     }
/// }
///
/// let hits = Arc::new(AtomicU32::new(0));
/// let mut b = ThreadNetBuilder::new();
/// let counter = b.add_node(Counter(hits.clone()));
/// let net = b.start();
/// net.inject(counter, counter, Hit);
/// let actors = net.shutdown();
/// assert_eq!(hits.load(Ordering::SeqCst), 1);
/// assert_eq!(actors.len(), 1);
/// ```
pub type ThreadNet<M> = LiveNet<M, ChannelTransport>;

#[cfg(test)]
mod tests {
    use super::ChannelTransport as T;
    use crate::live::suite;

    #[test]
    fn ping_pong_over_threads() {
        suite::ping_pong::<T>();
    }

    #[test]
    fn chaos_degrade_drops_then_restore_heals() {
        suite::chaos_degrade_drops_then_restore_heals::<T>();
    }

    #[test]
    fn chaos_dup_delivers_twice_and_corrupt_counts_decode_error() {
        suite::chaos_dup_delivers_twice::<T>();
        suite::chaos_corrupt_counts_decode_error_and_link_survives::<T>();
    }

    #[test]
    fn timers_fire_in_real_time() {
        suite::timers_fire_in_real_time::<T>();
    }

    #[test]
    fn shutdown_returns_actors_in_order() {
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
}

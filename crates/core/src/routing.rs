//! Relay routing: JXTA's relay service for firewalled peers.
//!
//! The paper (§5) credits JXTA with "transporting messages between peers,
//! either directly, or via relay peers capable of both enabling multi-hop
//! routing of messages, and traversing firewall or NAT equipment that
//! isolates peers from public networks". Whisper models that: the
//! [`Directory`] carries static relay routes, every actor sends through
//! [`send_routed`], and relays forward [`WhisperMsg::Relayed`] envelopes
//! with [`forward_relayed`]. A firewalled peer exchanges traffic only with
//! its relay; everyone else addresses it through that relay.

use crate::directory::Directory;
use crate::msg::WhisperMsg;
use whisper_p2p::PeerId;
use whisper_simnet::Context;

/// The relay that carries traffic between `me` and `to`, when they have no
/// link of their own: our own relay carries everything except traffic to
/// the relay itself; otherwise the destination's relay (if any) fronts it.
pub(crate) fn relay_between(directory: &Directory, me: PeerId, to: PeerId) -> Option<PeerId> {
    match directory.relay_of(me) {
        Some(r) if to != r => Some(r),
        _ => directory.relay_of(to).filter(|&r| r != me),
    }
}

/// Sends `msg` from peer `me` to peer `to`, wrapping it in a
/// [`WhisperMsg::Relayed`] envelope when either endpoint sits behind a
/// relay. Unroutable destinations are dropped silently, like datagrams.
pub(crate) fn send_routed(
    directory: &Directory,
    me: PeerId,
    ctx: &mut Context<'_, WhisperMsg>,
    to: PeerId,
    msg: WhisperMsg,
) {
    match relay_between(directory, me, to) {
        Some(relay) => {
            if let Some(node) = directory.node_of(relay) {
                ctx.send(
                    node,
                    WhisperMsg::Relayed {
                        dest: to,
                        origin: me,
                        inner: Box::new(msg),
                    },
                );
            }
        }
        None => {
            if let Some(node) = directory.node_of(to) {
                ctx.send(node, msg);
            }
        }
    }
}

/// Forwards a relayed envelope one hop closer to `dest` (called by the
/// relay). When `dest` itself sits behind another relay, the envelope is
/// handed to that relay; otherwise it is delivered directly.
pub(crate) fn forward_relayed(
    directory: &Directory,
    me: PeerId,
    ctx: &mut Context<'_, WhisperMsg>,
    dest: PeerId,
    origin: PeerId,
    inner: Box<WhisperMsg>,
) {
    let next = match directory.relay_of(dest) {
        Some(r) if r != me => r,
        _ => dest,
    };
    if let Some(node) = directory.node_of(next) {
        ctx.send(
            node,
            WhisperMsg::Relayed {
                dest,
                origin,
                inner,
            },
        );
    }
}

/// The receive-side counterpart: resolves a possibly-relayed message into
/// `(effective_sender_node, payload)` for `me`, or forwards it and returns
/// `None` when `me` is just a hop.
pub(crate) fn unwrap_or_forward(
    directory: &Directory,
    me: PeerId,
    ctx: &mut Context<'_, WhisperMsg>,
    from: whisper_simnet::NodeId,
    msg: WhisperMsg,
) -> Option<(whisper_simnet::NodeId, WhisperMsg)> {
    match msg {
        WhisperMsg::Relayed {
            dest,
            origin,
            inner,
        } => {
            if dest == me {
                let effective_from = directory.node_of(origin).unwrap_or(from);
                Some((effective_from, *inner))
            } else {
                forward_relayed(directory, me, ctx, dest, origin, inner);
                None
            }
        }
        other => Some((from, other)),
    }
}

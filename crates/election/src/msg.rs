//! Election wire messages, timer requests and surfaced events.

use whisper_p2p::PeerId;
use whisper_simnet::SimDuration;
use whisper_wire::{Decode, Encode, Reader, WireError};

/// A message of either election protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionMsg {
    /// Bully: "I am holding an election" — sent to higher-id peers.
    Election {
        /// The initiating peer.
        from: PeerId,
    },
    /// Bully: "I am alive and outrank you; stand down."
    Answer {
        /// The answering (higher-id) peer.
        from: PeerId,
    },
    /// Bully: victory announcement.
    Coordinator {
        /// The new coordinator.
        from: PeerId,
    },
    /// Ring: the election token accumulating candidate ids.
    RingElection {
        /// The peer that started this circulation.
        origin: PeerId,
        /// Ids collected so far.
        candidates: Vec<PeerId>,
    },
    /// Ring: the result announcement circulating once around the ring.
    RingCoordinator {
        /// The peer announcing the result.
        origin: PeerId,
        /// The elected coordinator.
        coordinator: PeerId,
    },
}

impl ElectionMsg {
    /// Exact serialized size in bytes: `self.encode().len()`.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    /// Metric label.
    pub fn kind(&self) -> &'static str {
        match self {
            ElectionMsg::Election { .. } => "election",
            ElectionMsg::Answer { .. } => "election-answer",
            ElectionMsg::Coordinator { .. } => "coordinator",
            ElectionMsg::RingElection { .. } => "ring-election",
            ElectionMsg::RingCoordinator { .. } => "ring-coordinator",
        }
    }
}

impl Encode for ElectionMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ElectionMsg::Election { from } => {
                out.push(0);
                from.encode_into(out);
            }
            ElectionMsg::Answer { from } => {
                out.push(1);
                from.encode_into(out);
            }
            ElectionMsg::Coordinator { from } => {
                out.push(2);
                from.encode_into(out);
            }
            ElectionMsg::RingElection { origin, candidates } => {
                out.push(3);
                origin.encode_into(out);
                candidates.encode_into(out);
            }
            ElectionMsg::RingCoordinator {
                origin,
                coordinator,
            } => {
                out.push(4);
                origin.encode_into(out);
                coordinator.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ElectionMsg::Election { from }
            | ElectionMsg::Answer { from }
            | ElectionMsg::Coordinator { from } => from.encoded_len(),
            ElectionMsg::RingElection { origin, candidates } => {
                origin.encoded_len() + candidates.encoded_len()
            }
            ElectionMsg::RingCoordinator {
                origin,
                coordinator,
            } => origin.encoded_len() + coordinator.encoded_len(),
        }
    }
}

impl Decode for ElectionMsg {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(ElectionMsg::Election {
                from: PeerId::decode_from(r)?,
            }),
            1 => Ok(ElectionMsg::Answer {
                from: PeerId::decode_from(r)?,
            }),
            2 => Ok(ElectionMsg::Coordinator {
                from: PeerId::decode_from(r)?,
            }),
            3 => Ok(ElectionMsg::RingElection {
                origin: PeerId::decode_from(r)?,
                candidates: Vec::decode_from(r)?,
            }),
            4 => Ok(ElectionMsg::RingCoordinator {
                origin: PeerId::decode_from(r)?,
                coordinator: PeerId::decode_from(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "ElectionMsg",
                tag,
            }),
        }
    }
}

/// A timer the hosting actor must arm on behalf of the state machine.
///
/// The token must be passed back verbatim via
/// [`ElectionProtocol::on_timer`](crate::ElectionProtocol::on_timer);
/// superseded timers are ignored internally, so the host never needs to
/// cancel anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Opaque token encoding the protocol phase and its epoch.
    pub token: u64,
    /// Delay after which the timer should fire.
    pub delay: SimDuration,
}

/// An event surfaced to the hosting actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectionEvent {
    /// A coordinator was agreed on (possibly this node itself).
    CoordinatorElected(PeerId),
    /// Bully: this node won without the answer wait, because every higher
    /// peer was already suspected (see `BullyNode::set_suspects`). Precedes
    /// the `CoordinatorElected` of the same victory.
    AnswerWaitSkipped,
}

/// Everything an election call wants the host to do.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Output {
    /// Messages to transmit.
    pub sends: Vec<(PeerId, ElectionMsg)>,
    /// Timers to arm.
    pub timers: Vec<TimerRequest>,
    /// Events to surface.
    pub events: Vec<ElectionEvent>,
}

impl Output {
    /// An empty output.
    pub fn none() -> Self {
        Output::default()
    }

    /// Merges another output into this one, preserving order.
    pub fn merge(&mut self, other: Output) {
        self.sends.extend(other.sends);
        self.timers.extend(other.timers);
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_kinds() {
        let e = ElectionMsg::Election {
            from: PeerId::new(1),
        };
        assert_eq!(e.kind(), "election");
        let ring = ElectionMsg::RingElection {
            origin: PeerId::new(1),
            candidates: vec![PeerId::new(1), PeerId::new(2)],
        };
        assert!(ring.wire_size() > e.wire_size());
        assert_eq!(ring.kind(), "ring-election");
    }

    #[test]
    fn wire_size_is_exact_and_messages_round_trip() {
        let msgs = [
            ElectionMsg::Election {
                from: PeerId::new(1),
            },
            ElectionMsg::Answer {
                from: PeerId::new(2),
            },
            ElectionMsg::Coordinator {
                from: PeerId::new(u64::MAX),
            },
            ElectionMsg::RingElection {
                origin: PeerId::new(1),
                candidates: vec![PeerId::new(1), PeerId::new(200), PeerId::new(3)],
            },
            ElectionMsg::RingCoordinator {
                origin: PeerId::new(1),
                coordinator: PeerId::new(9),
            },
        ];
        for m in msgs {
            assert_eq!(m.wire_size(), m.encode().len());
            assert_eq!(ElectionMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn truncated_election_bytes_error() {
        let bytes = ElectionMsg::RingElection {
            origin: PeerId::new(300),
            candidates: vec![PeerId::new(1)],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(ElectionMsg::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Output::none();
        a.sends.push((
            PeerId::new(1),
            ElectionMsg::Answer {
                from: PeerId::new(2),
            },
        ));
        let mut b = Output::none();
        b.events
            .push(ElectionEvent::CoordinatorElected(PeerId::new(2)));
        b.timers.push(TimerRequest {
            token: 9,
            delay: SimDuration::from_millis(1),
        });
        a.merge(b);
        assert_eq!(a.sends.len(), 1);
        assert_eq!(a.timers.len(), 1);
        assert_eq!(a.events.len(), 1);
    }
}

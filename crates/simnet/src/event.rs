//! The event queue: a time-ordered heap with FIFO tie-breaking.

use crate::engine::{NodeId, TimerId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::faults::FaultAction;

/// A scheduled occurrence.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Run a node's `on_start` hook.
    Start(NodeId),
    /// Deliver a message to a node.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// When the message left the sender.
        sent_at: SimTime,
        /// Lamport clock stamped by the sender's flight recorder
        /// (0 when the sender has none installed).
        clock: u64,
        /// The payload.
        msg: M,
    },
    /// Fire a timer on a node.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Which timer.
        id: TimerId,
        /// Protocol-chosen discriminator.
        token: u64,
        /// Crash epoch the timer was armed in; stale timers are ignored.
        epoch: u32,
    },
    /// Tell a node that the link from a crashed peer closed.
    LinkLost {
        /// The crashed node.
        from: NodeId,
        /// The node that is told.
        to: NodeId,
        /// Lamport clock of the crashed node's flight recorder at the
        /// crash (0 when it has none installed).
        clock: u64,
    },
    /// Apply an injected fault.
    Fault(FaultAction),
}

pub(crate) struct Event<M> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first and
        // equal times pop in insertion (seq) order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Time-ordered queue of pending events.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// The pending events, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Event<M>> {
        self.heap.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(n: u32) -> EventKind<u32> {
        EventKind::Deliver {
            from: NodeId(0),
            to: NodeId(0),
            sent_at: SimTime::ZERO,
            clock: 0,
            msg: n,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), deliver(3));
        q.push(SimTime::from_micros(10), deliver(1));
        q.push(SimTime::from_micros(20), deliver(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, [10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.push(t, deliver(i));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            if let EventKind::Deliver { msg, .. } = e.kind {
                got.push(msg);
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(7), deliver(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
    }
}

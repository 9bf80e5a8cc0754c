//! One FIFO deadline queue per actor instead of one timer per attempt.
//!
//! The proxy and the client both give every attempt the same fixed
//! timeout, so the order attempts are armed in *is* the order they come
//! due: a `VecDeque` is already sorted. One sweep timer serves the whole
//! queue. An attempt that finishes in time — the overwhelmingly common
//! case — never wakes the actor at all; its entry is dropped, unexamined
//! until then, the next time the sweep passes over it.

use std::collections::VecDeque;
use whisper_simnet::{Context, SimDuration, SimTime};

/// Deadlines of in-flight attempts, oldest first, behind at most one armed
/// timer.
pub(crate) struct DeadlineQueue {
    timeout: SimDuration,
    /// The owner's timer token for the sweep.
    token: u64,
    entries: VecDeque<(SimTime, u64, u32)>,
    /// A sweep timer is pending, or a sweep is running right now. Stays
    /// set across the whole sweep so an attempt armed from inside a
    /// timeout handler queues behind the older entries instead of arming
    /// a second timer past them.
    armed: bool,
}

impl DeadlineQueue {
    /// A queue whose every entry comes due `timeout` after it is pushed;
    /// the owner's `on_timer` sees `token` when the sweep is due.
    pub(crate) fn new(timeout: SimDuration, token: u64) -> Self {
        DeadlineQueue {
            timeout,
            token,
            entries: VecDeque::new(),
            armed: false,
        }
    }

    /// Gives `attempt` of `id` its deadline, `timeout` from now.
    pub(crate) fn push<M>(&mut self, ctx: &mut Context<'_, M>, id: u64, attempt: u32) {
        self.entries
            .push_back((ctx.now() + self.timeout, id, attempt));
        if !self.armed {
            self.arm(ctx);
        }
    }

    /// The sweep, called from the owner's `on_timer` until it returns
    /// `None`: yields the attempts that are due and still `live`, oldest
    /// first, discarding finished ones on the way, then arms the timer
    /// for the oldest live attempt that is not due yet.
    pub(crate) fn next_due<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        live: impl Fn(u64, u32) -> bool,
    ) -> Option<(u64, u32)> {
        while let Some(&(deadline, id, attempt)) = self.entries.front() {
            if live(id, attempt) {
                if deadline > ctx.now() {
                    break;
                }
                self.entries.pop_front();
                return Some((id, attempt));
            }
            self.entries.pop_front();
        }
        self.arm(ctx);
        None
    }

    /// Arms the sweep for the oldest entry, if any. Also the whole of
    /// crash recovery: a crash clears the node's timers but not this
    /// queue, so the owner's `on_restart` calls this to get the surviving
    /// attempts their timeouts back (overdue ones fire at once).
    pub(crate) fn arm<M>(&mut self, ctx: &mut Context<'_, M>) {
        self.armed = match self.entries.front() {
            Some(&(deadline, ..)) => {
                let wait = deadline.as_micros().saturating_sub(ctx.now().as_micros());
                ctx.set_timer(SimDuration::from_micros(wait), self.token);
                true
            }
            None => false,
        };
    }

    /// Entries not yet swept (finished attempts included).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

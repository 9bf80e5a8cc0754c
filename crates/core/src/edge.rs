//! The edge node of a booted deployment: the one place a harness stands
//! when it asks the cluster questions or sends it work.
//!
//! The edge is an actor that is **not** a peer — it stays out of the
//! directory, like a client — appended behind the scenario's nodes by
//! [`ScenarioWiring::boot`](crate::ScenarioWiring::boot). It collects the
//! [`WhisperMsg::ScopeResponse`]s and [`WhisperMsg::SoapResponse`]s that
//! come back over the same transport every other message uses; the
//! harness side ([`Booted`](crate::Booted)) injects the matching requests
//! from its node id and reads what arrived. Nothing is kept past its
//! reader: a poll is retired when [`Booted::poll`](crate::Booted::poll)
//! returns, a response is handed over when it is read, and whatever
//! arrives afterwards is counted and dropped.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::msg::WhisperMsg;
use whisper_obs::NodeSnapshot;
use whisper_simnet::{Actor, Context, NodeId, SimTime};

/// One answered request, as the edge saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Copies of the response that reached the edge before it was read —
    /// `1` unless something between the proxy and the edge duplicated it.
    pub copies: u32,
    /// The response envelope (of the first copy).
    pub envelope: String,
    /// When the first copy arrived, on the substrate's clock.
    pub at: SimTime,
}

/// The snapshots one scope poll brought back, sorted by node index, plus
/// how many targets were asked — so "everyone answered" is a property of
/// the poll and not a length check at every call site.
#[derive(Debug, Clone)]
pub struct Poll {
    asked: usize,
    snaps: Vec<(NodeId, NodeSnapshot)>,
}

impl Poll {
    /// Whether every target answered before the poll's timeout.
    pub fn complete(&self) -> bool {
        self.snaps.len() == self.asked
    }

    /// The coordinator the polled b-peers agree on: `Some(peer)` only when
    /// every target answered and every answer that carries an election
    /// view names the same coordinator. A silent target makes it `None` —
    /// half a group agreeing is not agreement.
    pub fn coordinator(&self) -> Option<u64> {
        if !self.complete() {
            return None;
        }
        let mut coords = self
            .snaps
            .iter()
            .filter_map(|(_, s)| s.election.as_ref())
            .map(|e| e.coordinator);
        let first = coords.next()??;
        coords.all(|c| c == Some(first)).then_some(first)
    }
}

impl Deref for Poll {
    type Target = [(NodeId, NodeSnapshot)];

    fn deref(&self) -> &Self::Target {
        &self.snaps
    }
}

/// What the edge actor and the harness share.
#[derive(Default)]
struct EdgeStore {
    /// The poll in progress: its scope request id and what came back so
    /// far. `None` between polls, so a late snapshot has nowhere to land.
    open_poll: Option<(u64, Vec<(NodeId, NodeSnapshot)>)>,
    /// Requests submitted and not yet answered.
    outstanding: HashSet<u64>,
    /// Answers not yet read.
    unread: HashMap<u64, Answer>,
    /// Distinct requests answered since boot (or the last `forget`).
    answered: u64,
    /// Arrivals nobody was waiting for any more: snapshots of a retired
    /// poll, copies of a response already read or forgotten.
    late: u64,
}

/// The edge actor: files what arrives into the shared store.
struct EdgeActor {
    store: Arc<Mutex<EdgeStore>>,
}

impl Actor<WhisperMsg> for EdgeActor {
    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        let mut store = self.store.lock().expect("edge store poisoned");
        match msg {
            WhisperMsg::ScopeResponse {
                request_id,
                snapshot,
            } => match &mut store.open_poll {
                Some((id, snaps)) if *id == request_id => snaps.push((from, *snapshot)),
                _ => store.late += 1,
            },
            WhisperMsg::SoapResponse {
                request_id,
                envelope,
            } => {
                if store.outstanding.remove(&request_id) {
                    store.answered += 1;
                    let first = Answer {
                        copies: 1,
                        envelope,
                        at: ctx.now(),
                    };
                    store.unread.insert(request_id, first);
                } else if let Some(answer) = store.unread.get_mut(&request_id) {
                    answer.copies += 1;
                } else {
                    store.late += 1;
                }
            }
            _ => {}
        }
    }
}

/// The harness half of the edge: its node id, the shared store, and the
/// id counter both request kinds draw from.
pub(crate) struct Edge {
    node: NodeId,
    store: Arc<Mutex<EdgeStore>>,
    next_id: u64,
}

impl Edge {
    /// Registers the edge actor as the next node of `spawner`.
    pub(crate) fn add_to(spawner: &mut impl whisper_simnet::Spawner<WhisperMsg>) -> Edge {
        let store = Arc::new(Mutex::new(EdgeStore::default()));
        let node = spawner.add(EdgeActor {
            store: Arc::clone(&store),
        });
        Edge {
            node,
            store,
            next_id: 1,
        }
    }

    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    fn store(&self) -> MutexGuard<'_, EdgeStore> {
        self.store.lock().expect("edge store poisoned")
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Opens a poll (retiring whatever an abandoned one left) and returns
    /// its scope request id.
    pub(crate) fn open_poll(&mut self) -> u64 {
        let id = self.fresh_id();
        self.store().open_poll = Some((id, Vec::new()));
        id
    }

    /// Snapshots the open poll has collected so far.
    pub(crate) fn poll_len(&self) -> usize {
        self.store().open_poll.as_ref().map_or(0, |(_, s)| s.len())
    }

    /// Retires the open poll and hands over what it collected.
    pub(crate) fn close_poll(&mut self, asked: usize) -> Poll {
        let (_, mut snaps) = self.store().open_poll.take().unwrap_or_default();
        snaps.sort_by_key(|(n, _)| n.index());
        Poll { asked, snaps }
    }

    /// Allocates a request id and starts waiting for its answer.
    pub(crate) fn expect_answer(&mut self) -> u64 {
        let id = self.fresh_id();
        self.store().outstanding.insert(id);
        id
    }

    /// Hands over (and forgets) the answer to `id`, when it is in.
    pub(crate) fn take_answer(&self, id: u64) -> Option<Answer> {
        self.store().unread.remove(&id)
    }

    pub(crate) fn answered(&self) -> u64 {
        self.store().answered
    }

    pub(crate) fn late(&self) -> u64 {
        self.store().late
    }

    /// Everything the store still holds, for the tests that check it
    /// retires what was read.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        let store = self.store();
        store.outstanding.len()
            + store.unread.len()
            + store.open_poll.as_ref().map_or(0, |(_, s)| s.len())
    }

    /// Drops every request waited for and every unread answer.
    pub(crate) fn forget(&mut self) {
        let mut store = self.store();
        store.outstanding.clear();
        store.unread.clear();
        store.answered = 0;
    }
}

//! Property: the proxy's one-sweep-timer deadline queue times attempts
//! out exactly like a timer per attempt would. Scripted b-peers answer,
//! redirect, stay silent, reply late or reply twice in random
//! interleavings over a zero-latency link, so an attempt's arrival time
//! at a peer *is* its forward time at the proxy, and every instant
//! below is an exact virtual-time equality:
//!
//! * an attempt nobody answers is followed by the next rung of the
//!   re-bind ladder (or the final fault) exactly `request_timeout` later;
//! * an attempt cut short by a late reply to an earlier one never fires
//!   (the `proxy.attempt_timeouts` count is exactly the attempts that
//!   were waited out; a binding moves at most once per such attempt);
//! * the engine never holds more than one armed sweep timer;
//! * once the load has drained the proxy holds no per-request state and
//!   the simulator goes idle within one `request_timeout`.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use whisper::{Directory, ProxyBacklog, ProxyConfig, SwsProxyActor, WhisperMsg};
use whisper_p2p::{Advertisement, GroupId, P2pMessage, PeerAdv, PeerId, SemanticAdv};
use whisper_simnet::{Actor, Context, NodeId, PerfectLink, SimDuration, SimNet, SimTime};
use whisper_soap::Envelope;
use whisper_xml::Element;

const PEERS: usize = 4;
const TIMEOUT: SimDuration = SimDuration::from_millis(1000);

fn group() -> GroupId {
    GroupId::new(1)
}

/// What a scripted peer does with one forwarded attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Act {
    Answer,
    /// Answer twice: the second copy is a duplicate response.
    Duplicate,
    /// Point at the next peer round-robin.
    Redirect,
    Silent,
    /// Answer this many microseconds after the proxy gave up on the
    /// attempt (always less than one more timeout).
    Late(u64),
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    request: u64,
    at: SimTime,
    act: Act,
}

#[derive(Default)]
struct Script {
    /// Per proxy request id: what its successive attempts meet.
    acts: HashMap<u64, VecDeque<Act>>,
    log: Vec<Arrival>,
}

struct ScriptedPeer {
    index: usize,
    proxy: NodeId,
    script: Arc<Mutex<Script>>,
    late: Vec<(u64, String)>,
}

impl ScriptedPeer {
    fn reply(&self, ctx: &mut Context<'_, WhisperMsg>, request_id: u64, envelope: String) {
        ctx.send(
            self.proxy,
            WhisperMsg::PeerResponse {
                request_id,
                envelope,
            },
        );
    }
}

impl Actor<WhisperMsg> for ScriptedPeer {
    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        let peer = PeerId::new(self.index as u64 + 1);
        let mut advs = vec![Advertisement::Peer(PeerAdv {
            peer,
            name: format!("scripted-{}", self.index),
            group: Some(group()),
        })];
        if self.index == 0 {
            let service = whisper_wsdl::samples::student_management();
            let op = service.operation("StudentInformation").expect("sample op");
            advs.push(Advertisement::Semantic(SemanticAdv {
                group: group(),
                name: "ScriptedGroup".into(),
                action: op.action.clone(),
                inputs: op.inputs.iter().map(|p| p.concept.clone()).collect(),
                outputs: op.outputs.iter().map(|p| p.concept.clone()).collect(),
                qos: None,
            }));
        }
        for adv in advs {
            ctx.send(
                self.proxy,
                WhisperMsg::P2p(P2pMessage::Publish {
                    adv,
                    lifetime: SimDuration::from_secs(3600),
                }),
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        // discovery queries go unanswered: a request that has worn out
        // every peer walks the rest of the ladder on timeouts alone
        let WhisperMsg::PeerRequest {
            request_id,
            envelope,
            ..
        } = msg
        else {
            return;
        };
        let act = {
            let mut script = self.script.lock().unwrap();
            let act = script
                .acts
                .get_mut(&request_id)
                .and_then(VecDeque::pop_front)
                .unwrap_or(Act::Answer);
            script.log.push(Arrival {
                request: request_id,
                at: ctx.now(),
                act,
            });
            act
        };
        match act {
            Act::Answer => self.reply(ctx, request_id, envelope),
            Act::Duplicate => {
                self.reply(ctx, request_id, envelope.clone());
                self.reply(ctx, request_id, envelope);
            }
            Act::Redirect => {
                let next = PeerId::new(((self.index + 1) % PEERS) as u64 + 1);
                ctx.send(
                    self.proxy,
                    WhisperMsg::PeerRedirect {
                        request_id,
                        coordinator: Some(next),
                    },
                );
            }
            Act::Silent => {}
            Act::Late(extra) => {
                self.late.push((request_id, envelope));
                ctx.set_timer(
                    TIMEOUT + SimDuration::from_micros(extra),
                    self.late.len() as u64 - 1,
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, token: u64) {
        let (request_id, envelope) = self.late[token as usize].clone();
        self.reply(ctx, request_id, envelope);
    }
}

/// The client end: sends request `i` at `send_at[i]` and keeps every
/// response with its arrival time.
struct Client {
    proxy: NodeId,
    envelope: String,
    send_at: Vec<SimDuration>,
    got: Vec<(u64, SimTime, bool)>,
}

impl Actor<WhisperMsg> for Client {
    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        for (id, at) in self.send_at.iter().enumerate() {
            ctx.set_timer(*at, id as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, id: u64) {
        ctx.send(
            self.proxy,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope: self.envelope.clone(),
            },
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        if let WhisperMsg::SoapResponse {
            request_id,
            envelope,
        } = msg
        {
            let fault = Envelope::parse(&envelope).map_or(true, |e| e.is_fault());
            self.got.push((request_id, ctx.now(), fault));
        }
    }
}

/// What the log says must have happened to one request.
struct Expected {
    done_at: SimTime,
    /// When the last message about the request reached the proxy.
    quiet_at: SimTime,
    fault: bool,
    waited_out: u64,
    surplus_replies: u64,
}

/// Replays one request's arrivals against the timeout rule.
fn expect(arrivals: &[Arrival]) -> Result<Expected, TestCaseError> {
    let mut late: Vec<SimTime> = Vec::new();
    let mut waited_out = 0;
    let mut surplus = 0;
    let mut iter = arrivals.iter().peekable();
    let mut done_at = None;
    while let Some(a) = iter.next() {
        let next_at = iter.peek().map(|n| n.at);
        match a.act {
            Act::Answer | Act::Duplicate => {
                surplus += u64::from(a.act == Act::Duplicate);
                prop_assert!(next_at.is_none(), "an answered request was forwarded again");
                done_at = Some((a.at, false));
            }
            Act::Redirect => {
                prop_assert_eq!(next_at, Some(a.at), "a redirect is followed at once");
            }
            Act::Silent | Act::Late(_) => {
                if let Act::Late(extra) = a.act {
                    late.push(a.at + TIMEOUT + SimDuration::from_micros(extra));
                }
                let deadline = a.at + TIMEOUT;
                let cut = late
                    .iter()
                    .copied()
                    .filter(|&l| l > a.at && l < deadline)
                    .min();
                if let Some(cut) = cut {
                    // a late reply to an earlier attempt answers the
                    // request; this attempt's deadline must stay quiet
                    prop_assert!(next_at.is_none(), "re-bound after being answered");
                    done_at = Some((cut, false));
                } else {
                    waited_out += 1;
                    match next_at {
                        Some(next) => prop_assert_eq!(
                            next,
                            deadline,
                            "re-bind exactly one request_timeout after the forward"
                        ),
                        // every peer worn out: a member query, then a
                        // group query, each waits one more timeout out
                        None => done_at = Some((deadline + TIMEOUT + TIMEOUT, true)),
                    }
                }
            }
        }
    }
    let (done_at, fault) = done_at.expect("every request ends");
    surplus += late.iter().filter(|&&l| l > done_at).count() as u64;
    Ok(Expected {
        done_at,
        quiet_at: late.iter().copied().fold(done_at, SimTime::max),
        fault,
        waited_out,
        surplus_replies: surplus,
    })
}

fn act() -> impl Strategy<Value = Act> {
    prop_oneof![
        Just(Act::Answer),
        Just(Act::Duplicate),
        Just(Act::Redirect),
        Just(Act::Silent),
        // odd, so a late reply never lands on a deadline's own instant
        (0u64..400_000).prop_map(|x| Act::Late(2 * x + 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_attempt_times_out_exactly_once_through_one_timer(
        seed in 0u64..1_000,
        // per request: the gap since the previous one (µs) and what its
        // attempts meet; at most 3 unanswered ones, so a peer is always
        // left to try, except for the all-silent request below
        requests in proptest::collection::vec(
            (1u64..700_000, proptest::collection::vec(act(), 0..5)),
            1..12,
        ),
        wear_out_one in any::<bool>(),
    ) {
        let script = Arc::new(Mutex::new(Script::default()));
        let mut send_at = Vec::new();
        let mut clock = SimDuration::from_millis(1); // advertisements land first
        for (id, (gap, acts)) in requests.into_iter().enumerate() {
            let mut acts: VecDeque<Act> = acts.into();
            let unanswered = |a: &Act| matches!(a, Act::Silent | Act::Late(_));
            while acts.iter().filter(|a| unanswered(a)).count() >= PEERS {
                let last = acts.iter().rposition(unanswered).expect("counted above");
                acts.remove(last);
            }
            if wear_out_one && id == 0 {
                acts = std::iter::repeat_n(Act::Silent, PEERS).collect();
            }
            script.lock().unwrap().acts.insert(id as u64, acts);
            // strictly increasing send times: the proxy numbers requests
            // in arrival order, so its ids equal the client's
            clock = clock + SimDuration::from_micros(gap);
            send_at.push(clock);
        }
        let total = send_at.len() as u64;

        let mut sim: SimNet<WhisperMsg> = SimNet::with_link(seed, PerfectLink);
        let proxy_node = NodeId::from_index(PEERS);
        for index in 0..PEERS {
            sim.add_node(ScriptedPeer {
                index,
                proxy: proxy_node,
                script: Arc::clone(&script),
                late: Vec::new(),
            });
        }
        let peer_of = |i: usize| PeerId::new(i as u64 + 1);
        let directory = Directory::new((0..=PEERS).map(|i| (peer_of(i), NodeId::from_index(i))));
        let mut proxy = SwsProxyActor::new(
            peer_of(PEERS),
            &whisper_wsdl::samples::student_management(),
            whisper_ontology::samples::university_ontology(),
            directory,
            ProxyConfig {
                request_timeout: TIMEOUT,
                ..ProxyConfig::default()
            },
        );
        for i in 0..PEERS {
            proxy.add_known_peer(peer_of(i));
        }
        let rec = whisper_obs::Recorder::new();
        proxy.set_recorder(rec.clone());
        assert_eq!(sim.add_node(proxy), proxy_node);
        let mut payload = Element::new("StudentInformation");
        payload.push_child(Element::with_text("StudentID", "u1004"));
        let client_node = sim.add_node(Client {
            proxy: proxy_node,
            envelope: Envelope::request(payload).to_xml_string(),
            send_at,
            got: Vec::new(),
        });

        // One event at a time to idle, holding the engine to the
        // one-sweep-timer rule after every one of them.
        while sim.step() {
            let sweeps = sim
                .pending_timers(proxy_node)
                .into_iter()
                .filter(|token| token & 0b11 == 1)
                .count();
            prop_assert!(sweeps <= 1, "{} sweep timers armed at {}", sweeps, sim.now());
        }
        let idle_at = sim.now();

        let log = std::mem::take(&mut script.lock().unwrap().log);
        let client = sim.node::<Client>(client_node);
        let mut waited_out = 0;
        let mut surplus = 0;
        let mut faults = 0;
        let mut quiet_at = SimTime::ZERO;
        for id in 0..total {
            let arrivals: Vec<Arrival> = log.iter().copied().filter(|a| a.request == id).collect();
            let want = expect(&arrivals)?;
            let got: Vec<_> = client.got.iter().filter(|g| g.0 == id).collect();
            prop_assert_eq!(got.len(), 1, "request {} answered exactly once", id);
            prop_assert_eq!((got[0].1, got[0].2), (want.done_at, want.fault), "request {}", id);
            waited_out += want.waited_out;
            surplus += want.surplus_replies;
            faults += u64::from(want.fault);
            quiet_at = quiet_at.max(want.quiet_at);
        }
        let proxy = sim.node::<SwsProxyActor>(proxy_node);
        let stats = proxy.stats();
        prop_assert_eq!(
            rec.counter("proxy.attempt_timeouts"),
            waited_out,
            "a deadline fired for a finished attempt"
        );
        prop_assert!(stats.rebinds <= waited_out, "a binding moved without a timeout");
        prop_assert_eq!(stats.duplicate_responses, surplus);
        prop_assert_eq!(stats.faults_generated, faults);
        prop_assert_eq!(proxy.backlog(), ProxyBacklog::default());
        prop_assert!(idle_at <= quiet_at + TIMEOUT, "idle at {}, quiet at {}", idle_at, quiet_at);
    }
}

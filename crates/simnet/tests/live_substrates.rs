//! One scenario, three substrates, the same counters and the same flight
//! marks: what the simulator, the channel transport and the TCP transport
//! must agree on, driven through [`Spawner`] and [`Substrate`] only.
//!
//! (The behaviours a live substrate owes its *actors* — ping-pong, timers,
//! shutdown order, kill/restart, partitions, the gray kinds — are one
//! generic suite next to the runtime, `live::suite`, instantiated for both
//! transports under the test names of `threadnet::tests` and
//! `tcpnet::tests`.)

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{
    Actor, Context, DegradeSpec, FaultAction, FaultPlan, FlightHook, MetricsSnapshot, NetHook,
    NodeId, SelfInjector, SimDuration, SimNet, SimTime, Spawner, Substrate, Wire,
};
use whisper_wire::{Decode, Encode, Reader, WireError};

#[derive(Clone, Debug, PartialEq)]
struct Ping(u32);
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

/// Wires the same nodes onto the simulator, threads and sockets, runs
/// `script` on each and returns what it reported, labelled by substrate.
fn on_every_substrate<P, R>(
    wire: impl Fn(&mut dyn Spawner<Ping>) -> P,
    script: impl Fn(&mut dyn Substrate<Ping>, P) -> R,
) -> Vec<(&'static str, R)> {
    let mut sim = SimNet::new(7);
    let probe = wire(&mut sim);
    let on_sim = script(&mut sim, probe);

    let mut builder = ThreadNetBuilder::new();
    let probe = wire(&mut builder);
    let mut threads = builder.start();
    let on_threads = script(&mut threads, probe);
    threads.shutdown();

    let mut builder = TcpNetBuilder::new();
    let probe = wire(&mut builder);
    let mut sockets = builder.start().expect("loopback mesh opens");
    let on_sockets = script(&mut sockets, probe);
    sockets.shutdown();

    vec![
        ("sim", on_sim),
        ("threadnet", on_threads),
        ("tcp", on_sockets),
    ]
}

/// Lets the substrate run, a millisecond of its own time per look, until
/// `done` — virtual time on the simulator, a poll on the live ones.
fn settle(net: &mut dyn Substrate<Ping>, what: &str, done: impl Fn(&MetricsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(&net.metrics_snapshot()) {
        assert!(Instant::now() < deadline, "{}: {what}", net.name());
        net.advance(SimDuration::from_millis(1));
    }
}

/// Hears everything, says nothing; counts its restarts, keeps the peers
/// whose links it was told are lost, and leaves its self-injector (live
/// substrates only) where the test can reach it.
#[derive(Clone, Default)]
struct Quiet {
    restarts: Arc<AtomicU32>,
    lost: Arc<Mutex<Vec<NodeId>>>,
    injector: Arc<Mutex<Option<SelfInjector<Ping>>>>,
}
impl Actor<Ping> for Quiet {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        *self.injector.lock().unwrap() = ctx.self_injector();
    }
    fn on_message(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: Ping) {}
    fn on_restart(&mut self, _: &mut Context<'_, Ping>) {
        self.restarts.fetch_add(1, Ordering::SeqCst);
    }
    fn on_link_lost(&mut self, _: &mut Context<'_, Ping>, peer: NodeId) {
        self.lost.lock().unwrap().push(peer);
    }
}

/// A node's flight ring, reduced to the fault marks written into it.
#[derive(Clone, Default)]
struct Marks(Arc<Mutex<Vec<String>>>);
impl FlightHook for Marks {
    fn on_send_msg(
        &mut self,
        _: SimTime,
        _: NodeId,
        _: &'static str,
        _: usize,
        _: Option<u64>,
    ) -> u64 {
        0
    }
    fn on_recv_msg(
        &mut self,
        _: SimTime,
        _: NodeId,
        _: &'static str,
        _: usize,
        _: Option<u64>,
        _: u64,
    ) {
    }
    fn on_fault(&mut self, _: SimTime, action: &str) {
        self.0.lock().unwrap().push(action.to_string());
    }
}

/// `n` quiet nodes, each with a ring.
fn quiet_nodes(spawner: &mut dyn Spawner<Ping>, n: usize) -> Vec<(NodeId, Quiet, Marks)> {
    (0..n)
        .map(|_| {
            let (actor, marks) = (Quiet::default(), Marks::default());
            let node = spawner.add_boxed(Box::new(actor.clone()));
            spawner.set_flight_hook(node, Box::new(marks.clone()));
            (node, actor, marks)
        })
        .collect()
}

struct CountSends(Arc<AtomicU32>);
impl NetHook for CountSends {
    fn on_send(&mut self, _: SimTime, _: NodeId, _: NodeId, _: &'static str, _: usize) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_killed_node_costs_the_same_counters_everywhere() {
    let reports = on_every_substrate(
        |spawner| {
            let sends = Arc::new(AtomicU32::new(0));
            spawner.set_net_hook(Box::new(CountSends(sends.clone())));
            (quiet_nodes(spawner, 2), sends)
        },
        |net, (nodes, sends)| {
            let (a, b) = (nodes[0].0, nodes[1].0);
            net.inject(a, b, Ping(1));
            settle(net, "first ping never arrived", |m| m.delivered == 1);

            net.kill_node(b);
            // An injection at a dead node...
            net.inject(a, b, Ping(2));
            settle(net, "injection at a dead node not dropped", |m| {
                m.to_down == 1
            });
            // ...and the dead node's own off-loop work coming home (a
            // worker pool's completion; the simulator has no off-loop, an
            // injection from itself is its equivalent).
            let home = nodes[1].1.injector.lock().unwrap().clone();
            match home {
                Some(injector) => injector.inject(Ping(3)),
                None => net.inject(b, b, Ping(3)),
            }
            settle(net, "self-send of a dead node not dropped", |m| {
                m.to_down == 2
            });

            net.restart_node(b);
            net.inject(a, b, Ping(4));
            settle(net, "revived node deaf", |m| m.delivered == 2);

            let m = net.metrics_snapshot();
            let counters = (m.sent, m.delivered, m.to_down, m.lost, m.partitioned);
            (
                counters,
                m.bytes_sent,
                m.by_kind,
                sends.load(Ordering::SeqCst),
            )
        },
    );
    for (substrate, report) in &reports {
        let expected = ((4, 2, 2, 0, 0), 4, vec![("ping".to_string(), 4)], 4);
        assert_eq!(*report, expected, "{substrate}");
    }
}

#[test]
fn a_second_kill_or_restart_changes_nothing_anywhere() {
    let reports = on_every_substrate(
        |spawner| quiet_nodes(spawner, 2),
        |net, nodes| {
            let (b, actor, marks) = &nodes[1];
            net.kill_node(*b);
            net.kill_node(*b);
            net.advance(SimDuration::from_millis(1));
            net.restart_node(*b);
            net.restart_node(*b);
            let deadline = Instant::now() + Duration::from_secs(10);
            while actor.restarts.load(Ordering::SeqCst) == 0 {
                assert!(Instant::now() < deadline, "{}: never restarted", net.name());
                net.advance(SimDuration::from_millis(1));
            }
            // A message through the revived node flushes whatever a
            // second restart marker would have queued behind the first.
            net.inject(nodes[0].0, *b, Ping(0));
            settle(net, "revived node deaf", |m| m.delivered == 1);
            let marks = marks.0.lock().unwrap().clone();
            (marks, actor.restarts.load(Ordering::SeqCst))
        },
    );
    for (substrate, (marks, restarts)) in &reports {
        assert_eq!(*marks, ["kill n1", "restart n1"], "{substrate}");
        assert_eq!(*restarts, 1, "{substrate}");
    }
}

#[test]
fn the_chaos_smoke_plan_leaves_the_same_marks_everywhere() {
    let plan = FaultPlan::parse_text(include_str!("../../../plans/chaos_smoke.plan"))
        .expect("the committed plan parses");
    let mut actions = plan.actions().to_vec();
    actions.sort_by_key(|&(at, _)| at);
    let reports = on_every_substrate(
        |spawner| quiet_nodes(spawner, 5),
        |net, nodes| {
            // The plan's order without its clock: the marks are what is
            // compared, and they do not depend on the gaps.
            for &(_, action) in &actions {
                net.apply_action(action);
            }
            net.advance(SimDuration::from_millis(1));
            // The kill's `link-lost` marks are evidence, not plan: they
            // land a link latency or a thread wake-up later (and not at
            // all once the restart has re-dialed), so they do depend on
            // the gaps; `a_kill_closes_links_and_nothing_else_does` holds
            // them to account.
            nodes
                .iter()
                .map(|(_, _, marks)| {
                    let mut marks = marks.0.lock().unwrap().clone();
                    marks.retain(|m| !m.starts_with("link-lost"));
                    marks
                })
                .collect::<Vec<_>>()
        },
    );
    let (_, on_sim) = &reports[0];
    assert_eq!(
        on_sim[2],
        [
            "degrade n3 n2",
            "degrade n0 n2",
            "degrade n1 n2",
            "stall n2",
            "kill n2",
            "restart n2"
        ]
    );
    assert!(
        on_sim[4].is_empty(),
        "the plan leaves the driver edge alone"
    );
    for (substrate, marks) in &reports[1..] {
        assert_eq!(marks, on_sim, "{substrate}");
    }
}

#[test]
fn a_kill_closes_links_and_nothing_else_does() {
    let reports = on_every_substrate(
        |spawner| quiet_nodes(spawner, 5),
        |net, nodes| {
            let [a, cut_off, down, victim] = [0, 2, 3, 4].map(|i| nodes[i].0);
            // Nothing that leaves a peer alive closes a link...
            net.apply_action(FaultAction::Degrade(
                a,
                victim,
                DegradeSpec {
                    latency: SimDuration::from_millis(1),
                    loss_pct: 20,
                    ..DegradeSpec::default()
                },
            ));
            net.apply_action(FaultAction::Stall(victim, SimDuration::from_millis(5)));
            net.apply_action(FaultAction::Slow(victim, 300));
            net.block_link(cut_off, victim);
            net.kill_node(down);
            // ...a kill does, for every peer that is up and not cut off
            // from the victim: a blocked pair and a down node hear nothing.
            let heard = |i: usize| nodes[i].1.lost.lock().unwrap().clone();
            let deadline = Instant::now() + Duration::from_secs(10);
            while heard(0).is_empty() || heard(1).is_empty() {
                assert!(Instant::now() < deadline, "{}: {:?}", net.name(), heard(0));
                net.advance(SimDuration::from_millis(1));
            }
            assert_eq!(
                heard(0),
                [down],
                "{}: gray faults closed a link",
                net.name()
            );
            net.kill_node(victim);
            while heard(0).len() < 2 || heard(1).len() < 2 {
                assert!(Instant::now() < deadline, "{}: {:?}", net.name(), heard(0));
                net.advance(SimDuration::from_millis(1));
            }
            // A beat for a signal that should not come, then the revived
            // nodes: what they missed while down stays missed.
            net.advance(SimDuration::from_millis(5));
            net.unblock_link(cut_off, victim);
            net.restart_node(down);
            net.restart_node(victim);
            let delivered = net.metrics_snapshot().delivered;
            net.inject(a, victim, Ping(0));
            settle(net, "revived victim deaf", |m| m.delivered > delivered);
            let lost: Vec<_> = (0..5).map(heard).collect();
            let marks = |i: usize| {
                let marks = nodes[i].2 .0.lock().unwrap();
                let lost = marks.iter().filter(|m| m.starts_with("link-lost"));
                lost.cloned().collect::<Vec<_>>()
            };
            (lost, marks(0), marks(2), net.metrics_snapshot().sent)
        },
    );
    for (substrate, (lost, marks, cut_off_marks, sent)) in &reports {
        let (down, victim) = (NodeId::from_index(3), NodeId::from_index(4));
        assert_eq!(lost[0], [down, victim], "{substrate}");
        assert_eq!(lost[1], [down, victim], "{substrate}");
        assert_eq!(lost[2], [down], "{substrate}: told across a blocked pair");
        assert!(lost[3].is_empty(), "{substrate}: a down node was told");
        assert_eq!(lost[4], [down], "{substrate}");
        assert_eq!(*marks, ["link-lost n3", "link-lost n4"], "{substrate}");
        assert_eq!(*cut_off_marks, ["link-lost n3"], "{substrate}");
        assert_eq!(*sent, 1, "{substrate}: a lost link was counted as a send");
    }
}

//! One booted deployment plus its generator node, on either runtime.
//!
//! The scenario is placed through the public `ScenarioWiring::wire` /
//! `Spawner` path; the generator is appended after it, like a client.
//! On `TcpNet` the driver thread blocks on channels while the node threads
//! work; on `SimNet` the driver *is* the only thread and steps the engine
//! until the generator reports.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::generator::{Command, Generator, PhaseLog, KICK};
use crate::inputs::Inputs;
use crate::workload::{Net, Watching, Workload};
use whisper::{ProxyStats, SwsProxyActor, Topology, WhisperMsg};
use whisper_obs::NodeSnapshot;
use whisper_simnet::tcpnet::{TcpNet, TcpNetBuilder};
use whisper_simnet::{MetricsSnapshot, NodeId, SimDuration, SimNet, SwitchedLan};

/// Pause between two scope polls while waiting for agreement.
const POLL_EVERY: Duration = Duration::from_millis(20);

/// How long a scope poll waits for its answers.
const POLL_TIMEOUT: Duration = Duration::from_secs(2);

enum Runtime {
    Tcp(TcpNet<WhisperMsg>),
    Sim(Box<SimNet<WhisperMsg>>),
}

/// A running deployment with its generator.
pub struct Cluster {
    runtime: Runtime,
    /// Where the scenario's actors landed.
    pub topology: Topology,
    generator: NodeId,
    commands: Sender<Command>,
    logs: Receiver<PhaseLog>,
    snapshots: Receiver<(u64, NodeId, NodeSnapshot)>,
    next_poll: u64,
    /// Engine events processed so far (simulator only).
    pub sim_events: u64,
}

/// What one boot cost, up to the first answered request.
#[derive(Debug, Clone, Copy)]
pub struct BootTimes {
    /// Boot start → all b-peers agree on a coordinator and the cold
    /// request is answered, wall clock.
    pub setup: Duration,
    /// Boot start → all b-peers agree, on the substrate's clock, in ms.
    pub settle_ms: f64,
    /// The cold request alone (no binding yet: discovery gather window,
    /// member lookup, bind), on the substrate's clock, in ms.
    pub cold_ms: f64,
}

impl Cluster {
    /// Boots `workload`'s scenario and waits until it is usable: b-peers
    /// agree on a coordinator and one cold request has been answered.
    ///
    /// # Panics
    ///
    /// Panics when sockets cannot be opened, the cluster does not settle
    /// within 15 s, or the cold request is not answered correctly — there
    /// is nothing to measure then.
    pub fn boot(
        workload: &Workload,
        inputs: &Arc<Inputs>,
        sim_seed: u64,
        watching: Watching,
    ) -> (Cluster, BootTimes) {
        let t0 = Instant::now();
        let (command_tx, command_rx) = channel();
        let (log_tx, log_rx) = channel();
        let (snap_tx, snap_rx) = channel();
        let wiring = workload.wiring(watching);
        let generator_for = |topology: &Topology| {
            Generator::new(
                topology.proxy,
                Arc::clone(inputs),
                command_rx,
                log_tx,
                snap_tx,
            )
        };
        let (runtime, topology, generator) = match workload.net {
            Net::Tcp => {
                let mut builder = TcpNetBuilder::new();
                let topology = wiring.wire(&mut builder).expect("well-formed scenario");
                let generator = builder.add_node(generator_for(&topology));
                let net = builder.start().expect("loopback sockets");
                (Runtime::Tcp(net), topology, generator)
            }
            Net::Sim => {
                let mut net = SimNet::with_link(sim_seed, SwitchedLan::paper_testbed());
                net.set_event_limit(u64::MAX);
                let topology = wiring.wire(&mut net).expect("well-formed scenario");
                let generator = net.add_node(generator_for(&topology));
                (Runtime::Sim(Box::new(net)), topology, generator)
            }
        };
        let mut cluster = Cluster {
            runtime,
            topology,
            generator,
            commands: command_tx,
            logs: log_rx,
            snapshots: snap_rx,
            next_poll: 1,
            sim_events: 0,
        };
        let bpeers = cluster.topology.all_bpeers();
        cluster
            .await_agreement(&bpeers, Duration::from_secs(15))
            .expect("b-peers agree on a coordinator after boot");
        let settle_ms = cluster.clock_ms();
        let cold = cluster.run_phase(Command::Single, Duration::from_secs(30));
        assert!(
            cold.failed() == 0 && cold.completions.len() == 1,
            "the cold request was not answered correctly: {cold:?}"
        );
        let cold_ms = match cluster.runtime {
            Runtime::Tcp(_) => cold.completions[0].latency_ns() as f64 / 1e6,
            Runtime::Sim(_) => cold.completions[0].virt_us as f64 / 1e3,
        };
        let times = BootTimes {
            setup: t0.elapsed(),
            settle_ms,
            cold_ms,
        };
        (cluster, times)
    }

    /// Milliseconds since boot on the substrate's clock.
    pub fn clock_ms(&self) -> f64 {
        match &self.runtime {
            Runtime::Tcp(net) => net.now().as_micros() as f64 / 1e3,
            Runtime::Sim(net) => net.now().as_micros() as f64 / 1e3,
        }
    }

    fn inject(&mut self, to: NodeId, msg: WhisperMsg) {
        match &mut self.runtime {
            Runtime::Tcp(net) => net.inject(self.generator, to, msg),
            Runtime::Sim(net) => net.inject(self.generator, to, msg),
        }
    }

    /// Hands `command` to the generator.
    pub fn command(&mut self, command: Command) {
        self.commands.send(command).expect("generator is alive");
        self.inject(
            self.generator,
            WhisperMsg::ScopeRequest { request_id: KICK },
        );
    }

    /// Waits for the running phase's log. When it does not come within
    /// `limit` (an answer was lost for good) the phase is closed by force
    /// and what is missing is counted as unanswered.
    pub fn await_log(&mut self, limit: Duration) -> PhaseLog {
        match &mut self.runtime {
            Runtime::Tcp(_) => match self.logs.recv_timeout(limit) {
                Ok(log) => log,
                Err(RecvTimeoutError::Timeout) => {
                    self.command(Command::Stop);
                    self.command(Command::Stop);
                    self.logs
                        .recv_timeout(Duration::from_secs(10))
                        .expect("generator closes a phase when told twice")
                }
                Err(RecvTimeoutError::Disconnected) => panic!("generator thread died"),
            },
            Runtime::Sim(net) => {
                let give_up = Instant::now() + limit;
                loop {
                    if let Ok(log) = self.logs.try_recv() {
                        return log;
                    }
                    // a batch of events between looks at the channel
                    for _ in 0..64 {
                        if net.step() {
                            self.sim_events += 1;
                        }
                    }
                    assert!(Instant::now() < give_up, "simulated phase never closed");
                }
            }
        }
    }

    /// One phase, start to log.
    pub fn run_phase(&mut self, command: Command, limit: Duration) -> PhaseLog {
        self.command(command);
        self.await_log(limit)
    }

    /// Lets `d` pass: sleeps on the live runtime, advances virtual time on
    /// the simulator.
    pub fn pass(&mut self, d: Duration) {
        match &mut self.runtime {
            Runtime::Tcp(_) => std::thread::sleep(d),
            Runtime::Sim(net) => net.run_for(SimDuration::from_micros(d.as_micros() as u64)),
        }
    }

    /// One scope poll: asks every target for its snapshot and returns the
    /// answers that arrived (killed nodes never answer), by node index.
    pub fn poll(&mut self, targets: &[NodeId]) -> Vec<(NodeId, NodeSnapshot)> {
        let request_id = self.next_poll;
        self.next_poll += 1;
        for &t in targets {
            self.inject(t, WhisperMsg::ScopeRequest { request_id });
        }
        let mut got = Vec::new();
        let give_up = Instant::now() + POLL_TIMEOUT;
        while got.len() < targets.len() {
            let answer = match &mut self.runtime {
                Runtime::Tcp(_) => self
                    .snapshots
                    .recv_timeout(give_up.saturating_duration_since(Instant::now()))
                    .ok(),
                Runtime::Sim(net) => {
                    // answers are a few link delays away; dead targets
                    // never answer, so give up after 5 virtual ms
                    let limit = net.now() + SimDuration::from_millis(5);
                    loop {
                        if let Ok(a) = self.snapshots.try_recv() {
                            break Some(a);
                        }
                        if net.now() >= limit || !net.step() {
                            break None;
                        }
                        self.sim_events += 1;
                    }
                }
            };
            match answer {
                Some((id, node, snapshot)) if id == request_id => got.push((node, snapshot)),
                Some(_) => {} // a late answer to an earlier poll
                None => break,
            }
        }
        got.sort_by_key(|(n, _)| n.index());
        got
    }

    /// Polls until every target answers and all name the same coordinator;
    /// returns that coordinator's peer id, or `None` after `limit`.
    pub fn await_agreement(&mut self, targets: &[NodeId], limit: Duration) -> Option<u64> {
        let give_up = Instant::now() + limit;
        loop {
            let snaps = self.poll(targets);
            if snaps.len() == targets.len() {
                if let Some(c) = agreed_coordinator(&snaps) {
                    return Some(c);
                }
            }
            if Instant::now() >= give_up {
                return None;
            }
            self.pass(POLL_EVERY);
        }
    }

    /// Crashes `node`.
    pub fn kill(&mut self, node: NodeId) {
        match &mut self.runtime {
            Runtime::Tcp(net) => net.kill_node(node),
            Runtime::Sim(net) => net.kill_node(node),
        }
    }

    /// Restarts a crashed node.
    pub fn restart(&mut self, node: NodeId) {
        match &mut self.runtime {
            Runtime::Tcp(net) => net.restart_node(node),
            Runtime::Sim(net) => net.restart_node(node),
        }
    }

    /// Transport counters so far.
    pub fn net_metrics(&self) -> MetricsSnapshot {
        match &self.runtime {
            Runtime::Tcp(net) => net.metrics_snapshot(),
            Runtime::Sim(net) => net.metrics().snapshot(),
        }
    }

    /// Stops the deployment (joining every thread it started) and returns
    /// the proxy's counters.
    pub fn shutdown(self) -> ProxyStats {
        let proxy = self.topology.proxy;
        match self.runtime {
            Runtime::Tcp(net) => net
                .shutdown()
                .into_iter()
                .nth(proxy.index())
                .and_then(|actor| actor.downcast::<SwsProxyActor>().ok())
                .map(|p| p.stats())
                .expect("the proxy node holds the proxy actor"),
            Runtime::Sim(net) => net.node::<SwsProxyActor>(proxy).stats(),
        }
    }
}

/// The coordinator every snapshot names, if they all name the same one.
pub fn agreed_coordinator(snapshots: &[(NodeId, NodeSnapshot)]) -> Option<u64> {
    let mut coordinators = snapshots.iter().map(|(_, s)| s.coordinator());
    let first = coordinators.next()??;
    coordinators.all(|c| c == Some(first)).then_some(first)
}

//! The substrate abstraction: one scenario, three runtimes.
//!
//! A *substrate* is anything that can run a set of [`Actor`]s and have
//! faults injected into it: the deterministic [`SimNet`] (virtual time,
//! discrete events), the threaded [`ThreadNet`] (real time, crossbeam
//! channels) and the socketed [`TcpNet`] (real time, loopback TCP). The
//! [`Substrate`] trait exposes the operations an experiment harness needs
//! — inject a message, kill/restart a node, block/unblock a link pair,
//! replay a whole [`FaultPlan`], advance time, read metrics — so
//! availability and failover experiments are written once and measured on
//! all three.
//!
//! Booting is symmetric: the [`Spawner`] trait is implemented by
//! [`SimNet`] itself and by the live runtime's one builder (under either
//! of its names), so scenario wiring
//! code can place boxed actors on any substrate without knowing which one
//! it is building (node ids are assigned in registration order
//! everywhere).
//!
//! On the simulator a plan's actions are discrete events at their virtual
//! times; on the real-time substrates [`Substrate::execute_plan`] spawns a
//! *fault driver* thread that sleeps until each action's wall-clock offset
//! and applies it to the live transport — crash gates and link blocks flip
//! sender-side, TCP sockets are shut down and re-dialed. The same plan
//! therefore produces the same ordered fault sequence everywhere, which is
//! what makes cross-substrate MTTR/availability numbers comparable.
//!
//! The impls of both traits for the two real-time substrates are one pair,
//! in [`live`](crate::live), generic over the transport.
//!
//! [`Actor`]: crate::Actor
//! [`SimNet`]: crate::SimNet
//! [`ThreadNet`]: crate::threadnet::ThreadNet
//! [`TcpNet`]: crate::tcpnet::TcpNet

use crate::engine::{DynActor, FlightHook, NetHook, NodeId, SimNet};
use crate::faults::{FaultAction, FaultPlan};
use crate::metrics::MetricsSnapshot;
use crate::time::{SimDuration, SimTime};
use crate::Wire;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use std::any::Any;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A place boxed actors can be registered before (or while) running —
/// [`SimNet`] directly, or the builder of the real-time substrates.
///
/// Scenario wiring code written against `Spawner` (see the deployment
/// layer in `whisper-core`) boots identically on all three runtimes.
pub trait Spawner<M: Wire> {
    /// Registers a boxed actor and returns its node id (assigned in
    /// registration order on every substrate).
    fn add_boxed(&mut self, actor: Box<dyn DynActor<M>>) -> NodeId;

    /// Installs a [`NetHook`] observing every transport send and drop.
    fn set_net_hook(&mut self, hook: Box<dyn NetHook + Send>);

    /// Installs `node`'s per-node [`FlightHook`]: the substrate asks it to
    /// stamp every outgoing message with a Lamport clock, hands it every
    /// delivery (with the sender's stamp) and every fault touching the
    /// node, so one flight recorder per node sees the same event story on
    /// all three runtimes.
    fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>);

    /// Registers an unboxed actor (sugar over [`Spawner::add_boxed`]).
    fn add(&mut self, actor: impl crate::Actor<M> + Any) -> NodeId
    where
        Self: Sized,
    {
        self.add_boxed(Box::new(actor))
    }
}

impl<M: Wire> Spawner<M> for SimNet<M> {
    fn add_boxed(&mut self, actor: Box<dyn DynActor<M>>) -> NodeId {
        SimNet::add_boxed(self, actor)
    }

    fn set_net_hook(&mut self, hook: Box<dyn NetHook + Send>) {
        SimNet::set_net_hook(self, hook);
    }

    fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>) {
        SimNet::set_flight_hook(self, node, hook);
    }
}

/// A running network of actors that an experiment can drive and break.
///
/// `SimNet` advances virtual time deterministically; `ThreadNet` and
/// `TcpNet` run in wall-clock time, where [`Substrate::advance`] simply
/// sleeps while the actor threads make progress on their own.
pub trait Substrate<M: Wire> {
    /// A short label for reports: `"sim"`, `"threadnet"`, `"tcp"`.
    fn name(&self) -> &'static str;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Sends `msg` to `to` as if it came from `from` (driver injection,
    /// not a measured transport hop).
    fn inject(&mut self, from: NodeId, to: NodeId, msg: M);

    /// Kills `node` as a crash: it stops hearing messages and timers until
    /// restarted.
    fn kill_node(&mut self, node: NodeId);

    /// Restarts a killed node; its `on_restart` hook fires.
    fn restart_node(&mut self, node: NodeId);

    /// Blocks all traffic between `a` and `b`, both directions.
    fn block_link(&mut self, a: NodeId, b: NodeId);

    /// Unblocks traffic between `a` and `b`.
    fn unblock_link(&mut self, a: NodeId, b: NodeId);

    /// Applies one [`FaultAction`] now — including the gray kinds
    /// (degrade/restore/stall/slow) that have no dedicated method.
    fn apply_action(&mut self, action: FaultAction);

    /// Schedules `plan` against this substrate: discrete events on the
    /// simulator, a real-time fault-driver thread on the live runtimes.
    /// Action times are measured from substrate start.
    fn execute_plan(&mut self, plan: &FaultPlan);

    /// Lets the scenario progress for `d`: advances virtual time on the
    /// simulator, sleeps wall-clock time on the live runtimes.
    fn advance(&mut self, d: SimDuration);

    /// Current time on this substrate's axis (virtual or since-start).
    fn now(&self) -> SimTime;

    /// A detached copy of the transport metrics so far.
    fn metrics_snapshot(&self) -> MetricsSnapshot;
}

impl<M: Wire> Substrate<M> for SimNet<M> {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn node_count(&self) -> usize {
        SimNet::node_count(self)
    }

    fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        SimNet::inject(self, from, to, msg);
    }

    fn kill_node(&mut self, node: NodeId) {
        SimNet::kill_node(self, node);
    }

    fn restart_node(&mut self, node: NodeId) {
        SimNet::restart_node(self, node);
    }

    fn block_link(&mut self, a: NodeId, b: NodeId) {
        SimNet::block_link(self, a, b);
    }

    fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        SimNet::unblock_link(self, a, b);
    }

    fn apply_action(&mut self, action: FaultAction) {
        SimNet::apply_action(self, action);
    }

    fn execute_plan(&mut self, plan: &FaultPlan) {
        SimNet::apply_faults(self, plan);
    }

    fn advance(&mut self, d: SimDuration) {
        SimNet::run_for(self, d);
    }

    fn now(&self) -> SimTime {
        SimNet::now(self)
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics().snapshot()
    }
}

/// A background thread replaying a [`FaultPlan`] against a live substrate
/// in wall-clock time. Created by the real-time substrates'
/// `execute_plan`; stopped and joined on shutdown so no action fires into
/// a half-torn-down network.
pub(crate) struct FaultDriver {
    stop: Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl FaultDriver {
    /// Spawns the driver. Actions run in time order (ties keep plan
    /// insertion order, matching the engine's event queue); each action's
    /// offset is measured from `epoch`, the substrate's start instant.
    /// Actions whose time has already passed fire immediately, in order.
    pub(crate) fn spawn(
        plan: &FaultPlan,
        epoch: Instant,
        apply: Box<dyn Fn(FaultAction) + Send>,
    ) -> FaultDriver {
        let mut actions: Vec<(SimTime, FaultAction)> = plan.actions().to_vec();
        actions.sort_by_key(|&(at, _)| at);
        let (stop_tx, stop_rx) = unbounded::<()>();
        let handle = std::thread::spawn(move || {
            for (at, action) in actions {
                let deadline = epoch + Duration::from_micros(at.as_micros());
                let now = Instant::now();
                if now < deadline {
                    match stop_rx.recv_timeout(deadline - now) {
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                }
                apply(action);
            }
        });
        FaultDriver {
            stop: stop_tx,
            handle: Some(handle),
        }
    }

    /// Stops the driver (remaining actions are abandoned) and joins its
    /// thread.
    pub(crate) fn stop(mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn driver_fires_actions_in_time_order() {
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let mut plan = FaultPlan::new();
        // Inserted out of order on purpose.
        plan.restart_at(n0, SimTime::from_micros(30_000));
        plan.crash_at(n0, SimTime::from_micros(10_000));
        plan.block_at(n0, n1, SimTime::from_micros(20_000));
        let fired = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&fired);
        let driver = FaultDriver::spawn(
            &plan,
            Instant::now(),
            Box::new(move |a| sink.lock().push(a)),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while fired.lock().len() < 3 {
            assert!(Instant::now() < deadline, "driver did not fire all actions");
            std::thread::sleep(Duration::from_millis(1));
        }
        driver.stop();
        let fired = fired.lock();
        assert_eq!(fired[0], FaultAction::Crash(n0));
        assert_eq!(fired[1], FaultAction::Block(n0, n1));
        assert_eq!(fired[2], FaultAction::Restart(n0));
    }

    #[test]
    fn driver_stop_abandons_pending_actions() {
        let n0 = NodeId::from_index(0);
        let mut plan = FaultPlan::new();
        plan.crash_at(n0, SimTime::from_micros(3_600_000_000));
        let fired = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&fired);
        let driver = FaultDriver::spawn(
            &plan,
            Instant::now(),
            Box::new(move |a| sink.lock().push(a)),
        );
        driver.stop();
        assert!(fired.lock().is_empty());
    }
}

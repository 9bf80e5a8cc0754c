//! Fault injection: scheduled crashes, restarts, partitions and gray
//! failures (lossy/duplicating/corrupting links, stalled and fail-slow
//! nodes).

use crate::engine::NodeId;
use crate::time::{SimDuration, SimTime};

/// Gray-degradation parameters for one link pair (applied to both
/// directions, like [`FaultAction::Block`]).
///
/// Percentages are whole percent in `0..=100`; the latency terms are
/// *added* to whatever the substrate's own link model produces. A
/// duplicated message is delivered twice; a reordered message is delayed
/// past its successors; a corrupted message is dropped and counted as a
/// decode error (on TCP the frame's bytes are actually flipped and the
/// receiver's decoder rejects them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradeSpec {
    /// Extra one-way latency added to every message.
    pub latency: SimDuration,
    /// Uniform random extra latency in `0..=jitter` per message.
    pub jitter: SimDuration,
    /// Percent of messages dropped outright.
    pub loss_pct: u32,
    /// Percent of messages delivered twice.
    pub dup_pct: u32,
    /// Percent of messages delayed past their successors (adds a multiple
    /// of the jitter bound on top of the normal delay).
    pub reorder_pct: u32,
    /// Percent of messages corrupted in flight (observable as per-link
    /// decode errors, never as garbage handed to an actor).
    pub corrupt_pct: u32,
}

impl DegradeSpec {
    /// Whether this spec degrades anything at all.
    pub fn is_noop(&self) -> bool {
        *self == DegradeSpec::default()
    }
}

/// One injected fault.
///
/// On the simulator these are discrete events executed at virtual time;
/// on the threaded and TCP runtimes a real-time fault driver replays them
/// against the live transport (see
/// [`Substrate::execute_plan`](crate::Substrate::execute_plan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash-stop a node: it stops receiving messages and timers.
    Crash(NodeId),
    /// Restart a crashed node; its `on_restart` hook runs.
    Restart(NodeId),
    /// Block traffic between two nodes in both directions.
    Block(NodeId, NodeId),
    /// Unblock traffic between two nodes.
    Unblock(NodeId, NodeId),
    /// Degrade the link pair between two nodes (both directions): added
    /// latency/jitter, probabilistic loss, duplication, reordering and
    /// corruption, per [`DegradeSpec`].
    Degrade(NodeId, NodeId, DegradeSpec),
    /// Restore a degraded link pair to its healthy behavior.
    Restore(NodeId, NodeId),
    /// Freeze a node's outbound traffic for the given duration: everything
    /// it sends during the stall arrives only after the stall ends. The
    /// node is alive (it still receives and processes), which is what
    /// distinguishes a gray stall from a crash.
    Stall(NodeId, SimDuration),
    /// Make a node fail-slow by the given factor, expressed in hundredths
    /// (200 = 2.00x). On the simulator the node's link latencies are
    /// multiplied; on the live substrates each outbound message is held
    /// for a proportional delay. `Slow(n, 100)` restores full speed.
    Slow(NodeId, u32),
}

impl FaultAction {
    /// What a substrate writes into the flight ring when it applies this
    /// action — `"kill n2"`, `"block n0 n3"`, `"degrade n0 n3"`, … — and
    /// the node(s) whose rings carry it. Incident tooling matches on these
    /// words, so every substrate takes them from here.
    pub(crate) fn mark(&self) -> (String, NodeId, Option<NodeId>) {
        let (verb, a, b) = match *self {
            FaultAction::Crash(n) => ("kill", n, None),
            FaultAction::Restart(n) => ("restart", n, None),
            FaultAction::Block(a, b) => ("block", a, Some(b)),
            FaultAction::Unblock(a, b) => ("unblock", a, Some(b)),
            FaultAction::Degrade(a, b, _) => ("degrade", a, Some(b)),
            FaultAction::Restore(a, b) => ("restore", a, Some(b)),
            FaultAction::Stall(n, _) => ("stall", n, None),
            FaultAction::Slow(n, _) => ("slow", n, None),
        };
        let label = match b {
            Some(b) => format!("{verb} {a} {b}"),
            None => format!("{verb} {a}"),
        };
        (label, a, b)
    }

    /// The flight-ring label of a lost link, `"link-lost n2"`, in the ring
    /// of the node that is told: not an injected action but what a `kill`
    /// does to the victim's peers.
    pub(crate) fn link_lost_mark(peer: NodeId) -> String {
        format!("link-lost {peer}")
    }
}

/// A schedule of faults to inject into a run on any substrate.
///
/// Build the plan up front, then install it with [`SimNet::apply_faults`]
/// (the engine executes each action at its virtual time) or replay it on a
/// live transport with
/// [`Substrate::execute_plan`](crate::Substrate::execute_plan), where a
/// fault-driver thread fires each action at the matching wall-clock
/// offset. This keeps experiments declarative and reproducible — the same
/// plan drives the simulator, the threaded runtime and real TCP sockets.
///
/// Plans round-trip through a line-oriented text form (see
/// [`FaultPlan::to_text`] / [`FaultPlan::parse_text`]), so experiment
/// binaries can load a chaos schedule from a file instead of hardcoding
/// it.
///
/// [`SimNet`]: crate::SimNet
/// [`SimNet::apply_faults`]: crate::SimNet::apply_faults
///
/// # Examples
///
/// ```
/// use whisper_simnet::{FaultPlan, SimTime};
/// # use whisper_simnet::{SimNet, Actor, Context, NodeId, Wire};
/// # #[derive(Clone, Debug)] struct M;
/// # impl Wire for M { fn wire_size(&self) -> usize { 1 } }
/// # struct A; impl Actor<M> for A {
/// #   fn on_message(&mut self, _: &mut Context<'_, M>, _: NodeId, _: M) {}
/// # }
/// # let mut net = SimNet::<M>::new(1);
/// # let coordinator = net.add_node(A);
/// let mut plan = FaultPlan::new();
/// plan.crash_at(coordinator, SimTime::from_micros(2_000_000));
/// plan.restart_at(coordinator, SimTime::from_micros(5_000_000));
/// net.apply_faults(&plan);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(crate) actions: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Crash `node` at time `at`.
    pub fn crash_at(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.actions.push((at, FaultAction::Crash(node)));
        self
    }

    /// Restart `node` at time `at`.
    pub fn restart_at(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.actions.push((at, FaultAction::Restart(node)));
        self
    }

    /// Block all traffic between `a` and `b` starting at `at`.
    pub fn block_at(&mut self, a: NodeId, b: NodeId, at: SimTime) -> &mut Self {
        self.actions.push((at, FaultAction::Block(a, b)));
        self
    }

    /// Unblock traffic between `a` and `b` at `at`.
    pub fn unblock_at(&mut self, a: NodeId, b: NodeId, at: SimTime) -> &mut Self {
        self.actions.push((at, FaultAction::Unblock(a, b)));
        self
    }

    /// Degrade the link pair between `a` and `b` from `at` per `spec`.
    pub fn degrade_at(
        &mut self,
        a: NodeId,
        b: NodeId,
        spec: DegradeSpec,
        at: SimTime,
    ) -> &mut Self {
        self.actions.push((at, FaultAction::Degrade(a, b, spec)));
        self
    }

    /// Restore the link pair between `a` and `b` at `at`.
    pub fn restore_at(&mut self, a: NodeId, b: NodeId, at: SimTime) -> &mut Self {
        self.actions.push((at, FaultAction::Restore(a, b)));
        self
    }

    /// Stall `node`'s outbound traffic for `duration` starting at `at`.
    pub fn stall_at(&mut self, node: NodeId, duration: SimDuration, at: SimTime) -> &mut Self {
        self.actions.push((at, FaultAction::Stall(node, duration)));
        self
    }

    /// Slow `node` by `factor_x100` hundredths (200 = 2x) from `at`;
    /// schedule `Slow(node, 100)` later to restore it.
    pub fn slow_at(&mut self, node: NodeId, factor_x100: u32, at: SimTime) -> &mut Self {
        self.actions
            .push((at, FaultAction::Slow(node, factor_x100)));
        self
    }

    /// Partition the nodes into two sides from `from` until `until`:
    /// every cross-side pair is blocked, then unblocked.
    pub fn partition_between(
        &mut self,
        side_a: &[NodeId],
        side_b: &[NodeId],
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        for &a in side_a {
            for &b in side_b {
                self.block_at(a, b, from);
                self.unblock_at(a, b, until);
            }
        }
        self
    }

    /// The scheduled actions, in insertion order (not sorted by time).
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.actions
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Renders the plan as its line-oriented text form, one action per
    /// line: `<time> <verb> <args...>`. The output parses back via
    /// [`FaultPlan::parse_text`] to an identical plan.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (at, action) in &self.actions {
            out.push_str(&fmt_duration(at.as_micros()));
            out.push(' ');
            match action {
                FaultAction::Crash(n) => out.push_str(&format!("crash {n}")),
                FaultAction::Restart(n) => out.push_str(&format!("restart {n}")),
                FaultAction::Block(a, b) => out.push_str(&format!("block {a} {b}")),
                FaultAction::Unblock(a, b) => out.push_str(&format!("unblock {a} {b}")),
                FaultAction::Degrade(a, b, s) => {
                    out.push_str(&format!(
                        "degrade {a} {b} latency={} jitter={} loss={} dup={} reorder={} corrupt={}",
                        fmt_duration(s.latency.as_micros()),
                        fmt_duration(s.jitter.as_micros()),
                        s.loss_pct,
                        s.dup_pct,
                        s.reorder_pct,
                        s.corrupt_pct,
                    ));
                }
                FaultAction::Restore(a, b) => out.push_str(&format!("restore {a} {b}")),
                FaultAction::Stall(n, d) => {
                    out.push_str(&format!("stall {n} {}", fmt_duration(d.as_micros())))
                }
                FaultAction::Slow(n, f) => out.push_str(&format!("slow {n} {}", fmt_factor(*f))),
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text form produced by [`FaultPlan::to_text`].
    ///
    /// One action per line: `<time> <verb> <args...>`. Times and durations
    /// accept `us`, `ms` and `s` suffixes (`250us`, `500ms`, `2s`); a bare
    /// number is microseconds. Blank lines and lines starting with `#` are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line and what was wrong
    /// with it.
    pub fn parse_text(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
            let mut parts = line.split_whitespace();
            let at = SimTime::from_micros(
                parse_duration(parts.next().expect("non-empty line"))
                    .ok_or_else(|| err("bad time"))?,
            );
            let verb = parts.next().ok_or_else(|| err("missing verb"))?;
            let node = |parts: &mut std::str::SplitWhitespace<'_>| -> Result<NodeId, String> {
                parse_node(parts.next().ok_or_else(|| err("missing node"))?)
                    .ok_or_else(|| err("bad node"))
            };
            let action = match verb {
                "crash" => FaultAction::Crash(node(&mut parts)?),
                "restart" => FaultAction::Restart(node(&mut parts)?),
                "block" => FaultAction::Block(node(&mut parts)?, node(&mut parts)?),
                "unblock" => FaultAction::Unblock(node(&mut parts)?, node(&mut parts)?),
                "restore" => FaultAction::Restore(node(&mut parts)?, node(&mut parts)?),
                "stall" => {
                    let n = node(&mut parts)?;
                    let d = parse_duration(parts.next().ok_or_else(|| err("missing duration"))?)
                        .ok_or_else(|| err("bad duration"))?;
                    FaultAction::Stall(n, SimDuration::from_micros(d))
                }
                "slow" => {
                    let n = node(&mut parts)?;
                    let f = parse_factor(parts.next().ok_or_else(|| err("missing factor"))?)
                        .ok_or_else(|| err("bad factor"))?;
                    FaultAction::Slow(n, f)
                }
                "degrade" => {
                    let a = node(&mut parts)?;
                    let b = node(&mut parts)?;
                    let mut spec = DegradeSpec::default();
                    for kv in parts.by_ref() {
                        let (key, value) =
                            kv.split_once('=').ok_or_else(|| err("bad key=value"))?;
                        let dur = || parse_duration(value).map(SimDuration::from_micros);
                        let pct = || value.parse::<u32>().ok().filter(|&p| p <= 100);
                        match key {
                            "latency" => spec.latency = dur().ok_or_else(|| err("bad latency"))?,
                            "jitter" => spec.jitter = dur().ok_or_else(|| err("bad jitter"))?,
                            "loss" => spec.loss_pct = pct().ok_or_else(|| err("bad loss"))?,
                            "dup" => spec.dup_pct = pct().ok_or_else(|| err("bad dup"))?,
                            "reorder" => {
                                spec.reorder_pct = pct().ok_or_else(|| err("bad reorder"))?
                            }
                            "corrupt" => {
                                spec.corrupt_pct = pct().ok_or_else(|| err("bad corrupt"))?
                            }
                            _ => return Err(err("unknown degrade key")),
                        }
                    }
                    FaultAction::Degrade(a, b, spec)
                }
                _ => return Err(err("unknown verb")),
            };
            if let Some(extra) = parts.next() {
                return Err(err(&format!("trailing token {extra:?}")));
            }
            plan.actions.push((at, action));
        }
        Ok(plan)
    }
}

/// Renders a duration in its cleanest unit: `2s`, `500ms`, `250us`.
fn fmt_duration(us: u64) -> String {
    if us == 0 {
        "0s".to_string()
    } else if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

/// Parses `2s` / `500ms` / `250us` / bare microseconds into microseconds.
fn parse_duration(s: &str) -> Option<u64> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (s, 1)
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Parses `n3` into a [`NodeId`].
fn parse_node(s: &str) -> Option<NodeId> {
    let digits = s.strip_prefix('n')?;
    Some(NodeId::from_index(digits.parse::<u32>().ok()? as usize))
}

/// Renders a slow factor in hundredths as a decimal: 250 → `2.5`.
fn fmt_factor(f: u32) -> String {
    if f.is_multiple_of(100) {
        format!("{}", f / 100)
    } else if f.is_multiple_of(10) {
        format!("{}.{}", f / 100, (f % 100) / 10)
    } else {
        format!("{}.{:02}", f / 100, f % 100)
    }
}

/// Parses a decimal slow factor with up to two fractional digits back into
/// hundredths: `2.5` → 250.
fn parse_factor(s: &str) -> Option<u32> {
    match s.split_once('.') {
        None => s.parse::<u32>().ok()?.checked_mul(100),
        Some((whole, frac)) => {
            if frac.is_empty() || frac.len() > 2 || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let scale = if frac.len() == 1 { 10 } else { 1 };
            let whole = whole.parse::<u32>().ok()?.checked_mul(100)?;
            Some(whole + frac.parse::<u32>().ok()? * scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_accumulate() {
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        let mut p = FaultPlan::new();
        assert!(p.is_empty());
        p.crash_at(n0, SimTime::from_micros(10))
            .restart_at(n0, SimTime::from_micros(20));
        p.partition_between(
            &[n0],
            &[n1, n2],
            SimTime::from_micros(5),
            SimTime::from_micros(50),
        );
        assert_eq!(p.len(), 2 + 4);
        assert!(matches!(p.actions[0].1, FaultAction::Crash(_)));
    }

    #[test]
    fn gray_builders_accumulate() {
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let spec = DegradeSpec {
            loss_pct: 5,
            ..DegradeSpec::default()
        };
        let mut p = FaultPlan::new();
        p.degrade_at(n0, n1, spec, SimTime::from_micros(10))
            .restore_at(n0, n1, SimTime::from_micros(20))
            .stall_at(n0, SimDuration::from_millis(5), SimTime::from_micros(30))
            .slow_at(n1, 250, SimTime::from_micros(40));
        assert_eq!(p.len(), 4);
        assert_eq!(p.actions[0].1, FaultAction::Degrade(n0, n1, spec));
        assert_eq!(p.actions[3].1, FaultAction::Slow(n1, 250));
    }

    fn full_plan() -> FaultPlan {
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let n4 = NodeId(4);
        let mut p = FaultPlan::new();
        p.crash_at(n4, SimTime::from_micros(2_000_000))
            .restart_at(n4, SimTime::from_micros(5_000_000))
            .block_at(n0, n1, SimTime::from_micros(1_500))
            .unblock_at(n0, n1, SimTime::from_micros(7_000))
            .degrade_at(
                n0,
                n4,
                DegradeSpec {
                    latency: SimDuration::from_millis(2),
                    jitter: SimDuration::from_micros(750),
                    loss_pct: 5,
                    dup_pct: 2,
                    reorder_pct: 3,
                    corrupt_pct: 1,
                },
                SimTime::from_micros(1_000_000),
            )
            .restore_at(n0, n4, SimTime::from_micros(6_000_000))
            .stall_at(
                n1,
                SimDuration::from_millis(300),
                SimTime::from_micros(2_500_000),
            )
            .slow_at(n1, 250, SimTime::from_micros(3_000_000))
            .slow_at(n1, 100, SimTime::from_micros(4_000_000));
        p
    }

    #[test]
    fn text_round_trips_every_action_kind() {
        let plan = full_plan();
        let text = plan.to_text();
        let parsed = FaultPlan::parse_text(&text).expect("rendered plan parses");
        assert_eq!(parsed.actions, plan.actions);
        // And the round trip is a fixed point.
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn parse_accepts_comments_blank_lines_and_unit_variety() {
        let text = "\
# warm-up, then break things
2s crash n3

500ms degrade n0 n1 loss=5 jitter=250us
750 stall n2 1500us
1s slow n2 1.75
";
        let plan = FaultPlan::parse_text(text).expect("hand-written plan parses");
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.actions[0],
            (
                SimTime::from_micros(2_000_000),
                FaultAction::Crash(NodeId(3))
            )
        );
        assert_eq!(
            plan.actions[1],
            (
                SimTime::from_micros(500_000),
                FaultAction::Degrade(
                    NodeId(0),
                    NodeId(1),
                    DegradeSpec {
                        loss_pct: 5,
                        jitter: SimDuration::from_micros(250),
                        ..DegradeSpec::default()
                    }
                )
            )
        );
        assert_eq!(
            plan.actions[2],
            (
                SimTime::from_micros(750),
                FaultAction::Stall(NodeId(2), SimDuration::from_micros(1500))
            )
        );
        assert_eq!(
            plan.actions[3],
            (
                SimTime::from_micros(1_000_000),
                FaultAction::Slow(NodeId(2), 175)
            )
        );
    }

    #[test]
    fn parse_rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("2s crush n3", "unknown verb"),
            ("abc crash n3", "bad time"),
            ("2s crash x3", "bad node"),
            ("2s crash", "missing node"),
            ("2s crash n3 n4", "trailing token"),
            ("2s degrade n0 n1 loss=500", "bad loss"),
            ("2s degrade n0 n1 zap=1", "unknown degrade key"),
            ("2s slow n1 1.234", "bad factor"),
        ] {
            let e = FaultPlan::parse_text(text).expect_err(text);
            assert!(e.contains(needle), "{text}: {e}");
            assert!(e.contains("line 1"), "{text}: {e}");
        }
    }

    #[test]
    fn marks_name_the_action_and_the_rings_that_carry_it() {
        let (n0, n3) = (NodeId(0), NodeId(3));
        let spec = DegradeSpec::default();
        let stall = SimDuration::from_millis(5);
        for (action, label, rings) in [
            (FaultAction::Crash(n3), "kill n3", (n3, None)),
            (FaultAction::Restart(n3), "restart n3", (n3, None)),
            (FaultAction::Block(n0, n3), "block n0 n3", (n0, Some(n3))),
            (
                FaultAction::Unblock(n0, n3),
                "unblock n0 n3",
                (n0, Some(n3)),
            ),
            (
                FaultAction::Degrade(n3, n0, spec),
                "degrade n3 n0",
                (n3, Some(n0)),
            ),
            (
                FaultAction::Restore(n3, n0),
                "restore n3 n0",
                (n3, Some(n0)),
            ),
            (FaultAction::Stall(n3, stall), "stall n3", (n3, None)),
            (FaultAction::Slow(n3, 250), "slow n3", (n3, None)),
        ] {
            let (got, a, b) = action.mark();
            assert_eq!((got.as_str(), (a, b)), (label, rings));
        }
    }

    #[test]
    fn factor_rendering_round_trips() {
        for f in [100u32, 150, 175, 200, 250, 101, 999] {
            assert_eq!(parse_factor(&fmt_factor(f)), Some(f), "factor {f}");
        }
    }
}

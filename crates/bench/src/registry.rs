//! The experiment registry behind the `whisper-bench` binary: one row per
//! experiment — name, title, flags, body — in the order EXPERIMENTS.md
//! numbers them. `whisper-bench <name>` runs one row, `whisper-bench all`
//! walks the rows marked [`Entry::in_all`], and `--help` prints the names;
//! there is no second list of experiments or of their parameters anywhere.

use std::io;
use std::process::ExitCode;

use whisper::{ClientActor, ScenarioWiring, StudentRegistry};
use whisper_obs::{Recorder, RequestId};
use whisper_simnet::{NodeId, SimDuration};

use crate::experiments::*;
use crate::obs;

/// One experiment the dispatcher can run.
pub struct Entry {
    /// What to type after `whisper-bench`.
    pub name: &'static str,
    /// The EXPERIMENTS.md number and what the experiment reproduces.
    pub title: &'static str,
    /// The flags the body parses, as shown in the usage text; empty when
    /// it takes none, and then the dispatcher passes none.
    pub flags: &'static str,
    /// Whether `all` runs it.
    pub in_all: bool,
    /// The body: prints its tables and writes them under
    /// `target/experiments/`. An `Err` is an output that could not be
    /// written; a non-zero exit code is the experiment's own verdict.
    pub run: fn(&[String]) -> io::Result<ExitCode>,
}

/// Every experiment, in E-order.
pub static REGISTRY: &[Entry] = &[
    Entry {
        name: "fig4_messages",
        title: "E1 / Figure 4: messages exchanged vs. number of b-peers",
        flags: "",
        in_all: true,
        run: fig4_messages,
    },
    Entry {
        name: "rtt_analysis",
        title: "E2 / RTT: ≈0.5 ms average, seconds during failover",
        flags: "",
        in_all: true,
        run: rtt_analysis,
    },
    Entry {
        name: "load_scalability",
        title: "E3 / throughput and latency under system load",
        flags: "",
        in_all: true,
        run: load_scalability,
    },
    Entry {
        name: "election_time",
        title: "E4 / election cost vs. group size",
        flags: "",
        in_all: true,
        run: election_time,
    },
    Entry {
        name: "availability",
        title: "E5 / availability from redundancy, and dynamic growth",
        flags: "",
        in_all: true,
        run: availability,
    },
    Entry {
        name: "discovery_quality",
        title: "E6 / semantic vs. syntactic discovery",
        flags: "",
        in_all: true,
        run: discovery_quality,
    },
    Entry {
        name: "qos_selection",
        title: "E7, E10 / QoS-aware selection, and a lying advertiser",
        flags: "",
        in_all: true,
        run: qos_selection,
    },
    Entry {
        name: "discovery_cost",
        title: "E8 / flooding vs. rendezvous discovery",
        flags: "",
        in_all: true,
        run: discovery_cost,
    },
    Entry {
        name: "failover_sensitivity",
        title: "E9 / which timeout dominates the worst-case RTT",
        flags: "",
        in_all: true,
        run: failover_sensitivity,
    },
    Entry {
        name: "relay_overhead",
        title: "E11 / firewalled b-peers behind the rendezvous relay",
        flags: "",
        in_all: true,
        run: relay_overhead,
    },
    Entry {
        name: "cluster_health",
        title: "E12 / the availability ledger watching coordinator kills",
        flags: "",
        in_all: true,
        run: cluster_health,
    },
    Entry {
        name: "trace_request",
        title: "one cold and one warm request as span trees",
        flags: "",
        in_all: false,
        run: trace_request,
    },
    Entry {
        name: "fault_matrix",
        title: "E14 / one deployment and fault plan on three substrates",
        flags: "[--plan FILE]",
        in_all: true,
        run: fault_matrix,
    },
    Entry {
        name: "postmortem",
        title: "E15 / SLO-triggered flight captures on three substrates",
        flags: "[--substrate sim|threadnet|tcp|all] [--jsonl]",
        in_all: true,
        run: postmortem,
    },
    Entry {
        name: "loadgen",
        title: "E16 / saturation matrix on real TCP loopback",
        flags: "[--smoke] [--peers N,N,..] [--rates R,R,..] [--windows W,W,..] \
                [--secs S] [--workers K]",
        in_all: false,
        run: loadgen,
    },
    Entry {
        name: "chaos",
        title: "E17 / gray-failure soak on OS threads and TCP loopback",
        flags: "[--seeds N] [--plan FILE]",
        in_all: false,
        run: chaos,
    },
    Entry {
        name: "all",
        title: "every experiment above that `all` marks, back to back",
        flags: "",
        in_all: false,
        run: all,
    },
];

/// The usage text: the command forms, then one experiment per line.
pub fn usage() -> String {
    let mut out = String::from("usage: whisper-bench <experiment>\n");
    for e in REGISTRY.iter().filter(|e| !e.flags.is_empty()) {
        out += &format!("       whisper-bench {} {}\n", e.name, e.flags);
    }
    out += "       whisper-bench --help\n\nexperiments:\n";
    for e in REGISTRY {
        out += &format!("  {:<22}{}\n", e.name, e.title);
    }
    out
}

/// Says what was wrong with the command line, prints the usage to stderr
/// and yields exit code 2.
fn usage_error(why: &str) -> ExitCode {
    eprintln!("{why}\n");
    eprint!("{}", usage());
    ExitCode::from(2)
}

/// `whisper-bench`'s whole behaviour, given its arguments: `--help` / `-h`
/// print the usage and exit 0; no argument, an unknown experiment or an
/// argument the experiment does not take print it to stderr and exit 2; an
/// output that could not be written is reported and exits 1; otherwise the
/// experiment's own exit code.
pub fn dispatch(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some((name, rest)) = args.split_first() else {
        return usage_error("which experiment?");
    };
    let Some(entry) = REGISTRY.iter().find(|e| e.name == name) else {
        return usage_error(&format!("unknown experiment {name:?}"));
    };
    if entry.flags.is_empty() && !rest.is_empty() {
        return usage_error(&format!("{name} takes no arguments"));
    }
    (entry.run)(rest).unwrap_or_else(|e| {
        eprintln!("whisper-bench {name}: {e}");
        ExitCode::FAILURE
    })
}

fn all(_: &[String]) -> io::Result<ExitCode> {
    let mut failed = Vec::new();
    for entry in REGISTRY.iter().filter(|e| e.in_all) {
        println!("=== {} ===\n", entry.title);
        if (entry.run)(&[])? != ExitCode::SUCCESS {
            failed.push(entry.name);
        }
        println!();
    }
    if !failed.is_empty() {
        eprintln!("FAIL: {}", failed.join(", "));
    }
    Ok(exit_by(failed.is_empty()))
}

/// An experiment's own verdict as its exit code.
fn exit_by(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints a traced run's per-phase span table and saves it, with the full
/// trace as JSON Lines, next to the experiment's CSV.
fn emit_trace(rec: &Recorder, phases: &str, jsonl: &str) -> io::Result<()> {
    obs::phase_table(rec, phases).emit()?;
    println!("jsonl: {}", obs::save_jsonl(rec, jsonl)?.display());
    Ok(())
}

fn fig4_messages(_: &[String]) -> io::Result<ExitCode> {
    let sizes = [2, 3, 4, 5, 6, 8, 9, 12, 16, 20, 24];
    println!("Figure 4: messages exchanged as the number of b-peers increases");
    println!("(startup 2 s, steady window 60 s, 20 requests; deterministic seed)\n");
    let params = fig4::Fig4Params::default();
    let mut rows = Vec::new();
    let mut traced = None;
    for &n in &sizes {
        let (row, rec) = fig4::run_point_traced(n, params);
        if n == 5 {
            traced = Some(rec);
        }
        rows.push(row);
    }
    fig4::table(&rows).emit()?;
    let points: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.bpeers as f64, r.steady_msgs as f64))
        .collect();
    println!(
        "\nlinearity of steady-state growth: R² = {:.5}",
        fig4::linear_r2(&points)
    );
    if let Some(rec) = traced {
        println!("\nRequest-phase spans at 5 b-peers\n");
        emit_trace(&rec, "fig4_phases", "fig4_messages")?;
    }
    Ok(ExitCode::SUCCESS)
}

fn rtt_analysis(_: &[String]) -> io::Result<ExitCode> {
    println!("RTT analysis (paper §5)\n");
    rtt::table(500, 300, 5, 11).emit()?;
    println!("\nFailover anatomy as spans (coordinator crash, 5 b-peers)\n");
    let (_, rec) = rtt::failover_traced(5, 11);
    emit_trace(&rec, "rtt_failover_phases", "rtt_failover")?;
    Ok(ExitCode::SUCCESS)
}

fn load_scalability(_: &[String]) -> io::Result<ExitCode> {
    let params = load::LoadParams::default();
    println!(
        "Load scalability: open-loop Poisson arrivals, {} ms service time, load sharing on\n",
        params.service_time.as_millis_f64()
    );
    let rows = load::run_sweep(
        &[1, 3, 5, 9],
        &[50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0],
        params,
    );
    load::table(&rows).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn election_time(_: &[String]) -> io::Result<ExitCode> {
    println!("Election cost vs. group size (lowest survivor initiates)\n");
    let rows = election::run_sweep(&[2, 3, 4, 6, 8, 12, 16, 24], 7);
    election::table(&rows).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn availability(_: &[String]) -> io::Result<ExitCode> {
    let params = availability::AvailabilityParams::default();
    println!(
        "Availability under churn: MTTF {:.0} s, MTTR {:.0} s, horizon {:.0} s, {} rps\n",
        params.mttf.as_secs_f64(),
        params.mttr.as_secs_f64(),
        params.horizon.as_secs_f64(),
        params.rps
    );
    let mut rows = Vec::new();
    let mut traced = None;
    for k in [1usize, 2, 3, 5, 7] {
        let (row, rec) = availability::run_point_traced(k, params);
        if k == 3 {
            traced = Some(rec);
        }
        rows.push(row);
    }
    availability::table(&rows).emit()?;
    if let Some(rec) = traced {
        println!("\nWhere the 3-replica run spent its time (span phases)\n");
        emit_trace(&rec, "availability_phases", "availability")?;
    }
    println!("\nDynamic growth: replicas joining a churning single-replica service\n");
    availability::growth_table(&availability::run_growth(params)).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn discovery_quality(_: &[String]) -> io::Result<ExitCode> {
    let params = discovery_quality::CorpusParams::default();
    println!(
        "Discovery quality over a corpus of {} advertisements ({}% relevant)\n",
        params.size,
        (params.relevant_fraction * 100.0) as u32
    );
    let (syn, sem) = discovery_quality::run(params);
    discovery_quality::table(syn, sem).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn qos_selection(_: &[String]) -> io::Result<ExitCode> {
    println!("QoS-aware selection across gold/silver/bronze groups\n");
    let rows = qos::run_all_seeds(qos::QosParams::default(), &[37, 38, 39, 40, 41]);
    qos::table(&rows).emit()?;
    println!("\nAdaptive selection vs. a lying advertiser:\n");
    qos::lying_advertiser_table(qos::QosParams::default()).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn discovery_cost(_: &[String]) -> io::Result<ExitCode> {
    println!("Discovery cost: flooding vs. rendezvous (2 b-peers per group)\n");
    let rows = discovery_cost::run_sweep(&[1, 2, 4, 8, 12], 2, 7);
    discovery_cost::table(&rows).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn failover_sensitivity(_: &[String]) -> io::Result<ExitCode> {
    println!("Failover-latency sensitivity (3 b-peers, coordinator crash mid-request)\n");
    let rows = failover_sensitivity::run_sweep(3, 19);
    failover_sensitivity::table(&rows).emit()?;
    Ok(ExitCode::SUCCESS)
}

fn relay_overhead(_: &[String]) -> io::Result<ExitCode> {
    println!("Relay overhead: direct vs firewalled b-peers (100 closed-loop requests)\n");
    let (direct, relayed) = relay_overhead::run_both(29);
    relay_overhead::table(&direct, &relayed).emit()?;
    Ok(ExitCode::SUCCESS)
}

/// Runs the deterministic simnet deployment with the availability ledger
/// attached, kills the coordinator several times, and prints what the
/// ledger recorded about each outage: detection latency, repair time (the
/// online-measured failover window) and the recovered availability.
fn cluster_health(_: &[String]) -> io::Result<ExitCode> {
    let params = cluster_health::ClusterHealthParams::default();
    println!(
        "Cluster health ledger: {} b-peers, {} coordinator kills, settle {:.0} s\n",
        params.n_bpeers,
        params.kills,
        params.settle.as_secs_f64()
    );
    let report = cluster_health::run(params);
    cluster_health::table(&report).emit()?;
    println!();
    cluster_health::summary_table(&report).emit()?;
    Ok(ExitCode::SUCCESS)
}

/// Prints one Whisper request as a per-request span tree (a flame view in
/// text) — first a cold request, whose critical path is
/// `proxy.discover → proxy.members → proxy.bind → proxy.invoke →
/// backend.execute`, then a warm one riding the cached binding — followed
/// by a per-phase time summary and the network's message counters. Exits
/// non-zero when either request went untraced, unanswered or faulted.
fn trace_request(_: &[String]) -> io::Result<ExitCode> {
    fn request_of(rec: &Recorder, client: NodeId, id: u64) -> Option<RequestId> {
        let label = format!("client{} #{id}", client.index());
        rec.requests()
            .into_iter()
            .find(|r| r.label == label)
            .map(|r| r.id)
    }

    let rec = Recorder::new();
    let wiring = ScenarioWiring {
        recorder: Some(rec.clone()),
        ..ScenarioWiring::student(3)
    };
    let mut rig = wiring.boot_sim(42).expect("well-formed");
    rig.net.run_for(SimDuration::from_secs(3));
    let client = rig.topology.clients[0];

    let cold = rig.submit_from(client, StudentRegistry::request("u1004"));
    rig.net.run_for(SimDuration::from_secs(1));
    let warm = rig.submit_from(client, StudentRegistry::request("u1007"));
    rig.net.run_for(SimDuration::from_secs(1));

    let outcomes = rig.net.node::<ClientActor>(client).outcomes();
    let mut ok = true;
    for (heading, id) in [
        ("cold request (discovery + bind + execute)", cold),
        ("warm request (cached binding)", warm),
    ] {
        println!("--- {heading} ---");
        match request_of(&rec, client, id) {
            Some(req) => print!("{}", rec.render_request(req)),
            None => {
                println!("  (not traced)");
                ok = false;
            }
        }
        let verdict = match outcomes.iter().find(|o| o.id == id) {
            Some(o) if o.fault => Some("answered with a fault"),
            Some(o) if o.completed_at.is_some() => None,
            _ => Some("not answered"),
        };
        if let Some(why) = verdict {
            println!("  ({why})");
            ok = false;
        }
        println!();
    }

    println!("--- where the time went (all spans) ---");
    println!(
        "{:<22} {:>6} {:>14} {:>14}",
        "phase", "count", "total", "mean"
    );
    for (name, count, total, mean) in rec.phase_summary() {
        println!(
            "{name:<22} {count:>6} {:>14} {:>14}",
            total.to_string(),
            mean.to_string()
        );
    }

    println!();
    println!("--- network counters ---");
    for (name, value) in &rec.export().counters {
        if name.starts_with("net.") {
            println!("{name:<28} {value:>8}");
        }
    }
    if !ok {
        eprintln!("FAIL: the cold and the warm request must both be traced and answered");
    }
    Ok(exit_by(ok))
}

/// Boots the same 5-peer scenario on all three substrates (virtual time,
/// OS threads, TCP loopback), kills and restarts the coordinator on each
/// via one [`FaultPlan`](whisper_simnet::FaultPlan), and exits non-zero
/// unless every substrate ends the horizon with an agreed coordinator,
/// exactly one recorded outage and a measured MTTR, held to the design
/// ([`substrate_matrix::crash_repair_window`]): the survivors are told the
/// dead coordinator's links closed and bury it at once — repair, counted
/// from the last beacon, takes at least one link latency and at most the
/// beacon's age (one `heartbeat_period`) plus an election hop. The
/// simulator's MTTR is virtual time, exact and repeatable, and is held to
/// that window; the wall-clock rows (threads, TCP) to four times its
/// ceiling.
///
/// With `--plan FILE` the built-in schedule is replaced by a plan loaded
/// from its text form, replayed identically on all three substrates.
/// Custom plans may inject any number of outages (or none — gray-only
/// plans), so the exactly-one-outage assertion is relaxed to "the service
/// is up when the books close".
fn fault_matrix(args: &[String]) -> io::Result<ExitCode> {
    let plan = match args {
        [] => None,
        [flag, path] if flag == "--plan" => {
            let plan = load_plan(path)?;
            println!("replaying {} actions from {path}", plan.actions().len());
            Some(plan)
        }
        _ => return Ok(usage_error("fault_matrix takes only --plan FILE")),
    };

    let tuning = substrate_matrix::MatrixTuning::default();
    match &plan {
        Some(_) => println!("Fault matrix: {} b-peers, custom plan\n", tuning.peers),
        None => println!(
            "Fault matrix: {} b-peers, kill coordinator at {:.1} s, restart {:.1} s later\n",
            tuning.peers,
            tuning.warmup.as_secs_f64(),
            tuning.outage.as_secs_f64()
        ),
    }
    let rows = substrate_matrix::run_matrix(&tuning, plan.as_ref());
    substrate_matrix::table(&rows).emit()?;

    let mut ok = rows.len() == 3;
    for r in &rows {
        // A custom plan may schedule any number of outages; the built-in
        // schedule must book exactly one with a measured repair.
        let recovered = match plan {
            Some(_) => r.recovered,
            None => r.recovered && r.failures == 1 && r.mttr.is_some(),
        };
        if !recovered {
            eprintln!(
                "FAIL {}: recovered={} failures={} mttr={:?}",
                r.substrate, r.recovered, r.failures, r.mttr
            );
            ok = false;
        }
        let (floor, ceiling) = substrate_matrix::crash_repair_window(&tuning.cluster, r.substrate);
        if plan.is_none() && r.mttr.is_some_and(|m| m < floor || m > ceiling) {
            eprintln!(
                "FAIL {}: mttr {:?} outside [{floor}, {ceiling}]: a crash is repaired when its \
                 links are reported closed, within the beacon's age and a hop",
                r.substrate, r.mttr
            );
            ok = false;
        }
    }
    if ok {
        println!("\nall substrates recovered");
    }
    Ok(exit_by(ok))
}

/// Boots the 5-peer student deployment on the requested substrate (all
/// three by default), replays the kill/restart plan against the
/// coordinator with the SLO engine watching the availability ledger, and
/// prints the flight capture each burn-rate alert sealed — a causally
/// ordered, cross-node incident timeline with the ledger's outage story,
/// and with `--jsonl` the same capture as JSON Lines — then the table.
/// Non-zero unless every leg fired exactly one alert and sealed exactly one
/// causally consistent capture telling the failover arc in happens-before
/// order: `kill` → `link-lost` → `lost-confirmed` → `skipped-suspect` →
/// `elected` → `announced` → proxy re-bind.
fn postmortem(args: &[String]) -> io::Result<ExitCode> {
    let (mut substrate, mut jsonl) = ("all", false);
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--jsonl" => jsonl = true,
            "--substrate" => match args.next() {
                Some(s @ ("sim" | "threadnet" | "tcp" | "all")) => substrate = s,
                _ => return Ok(usage_error("postmortem: --substrate sim|threadnet|tcp|all")),
            },
            _ => return Ok(usage_error("postmortem takes only --substrate and --jsonl")),
        }
    }
    let tuning = substrate_matrix::MatrixTuning::default();
    println!(
        "postmortem: {} b-peers + proxy + client, kill coordinator at {:.1} s, restart {:.1} s later\n",
        tuning.peers,
        tuning.warmup.as_secs_f64(),
        tuning.outage.as_secs_f64()
    );
    let rows = match substrate {
        "all" => postmortem::run_matrix(&tuning),
        leg => vec![postmortem::run_leg(leg, &tuning)],
    };
    for row in &rows {
        println!("--- {} ---", row.substrate);
        if row.report.is_empty() {
            println!("(no alert fired; nothing captured)");
        } else {
            println!("{}", row.report);
            if jsonl {
                println!("-- capture as JSONL --\n{}", row.jsonl);
            }
        }
    }
    postmortem::table(&rows).emit()?;
    let mut ok = true;
    for row in rows.iter().filter(|r| !r.accepted()) {
        eprintln!(
            "FAIL {}: alerts={} captures={} captures_ok={}",
            row.substrate,
            row.alerts_fired,
            row.captures.len(),
            row.captures_ok()
        );
        ok = false;
    }
    if ok {
        println!("\nevery kill produced one causally-ordered capture");
    }
    Ok(exit_by(ok))
}

/// Boots the student deployment on real TCP loopback (load-sharing on,
/// surge worker pools enabled) and drives it with open-loop rate sweeps
/// and closed-loop in-flight windows across replica counts, printing the
/// throughput–latency matrix, the saturation knee per replica count and
/// the closed-loop peak. Open-loop percentiles are
/// coordinated-omission-corrected (latency from the intended send time).
/// `--smoke` runs the short CI matrix.
fn loadgen(args: &[String]) -> io::Result<ExitCode> {
    let Some(params) = loadgen_params(args) else {
        return Ok(usage_error("loadgen: bad arguments"));
    };
    println!(
        "whisper-bench loadgen: replicas {:?}, {} workers/b-peer, open rates {:?} rps \
         ({}s each), closed windows {:?} ({} requests each)\n",
        params.peers,
        params.workers,
        params.rates,
        params.secs,
        params.windows,
        params.closed_total,
    );
    let rows = load_matrix::run_matrix(&params)
        .map_err(|e| io::Error::new(e.kind(), format!("load matrix failed: {e}")))?;
    load_matrix::table(&rows).emit()?;

    println!(
        "\nclosed-loop peak: {:.0} req/s",
        load_matrix::peak_rps(&rows)
    );
    for &p in &params.peers {
        match load_matrix::knee(&rows, p) {
            Some(k) => {
                let p99 = load_matrix::half_knee_p99_us(&rows, p)
                    .map(|us| format!("{:.2} ms", us as f64 / 1e3))
                    .unwrap_or_else(|| "-".into());
                println!("{p} replica(s): knee ≥ {k:.0} req/s, corrected p99 at half knee {p99}");
            }
            None => println!("{p} replica(s): saturated at every offered rate"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the seeded gray-failure soak (5 % loss, doubled latency,
/// duplication, corruption, one coordinator stall and one 51× slowdown) on
/// OS threads and on TCP loopback for `--seeds N` chaos seeds (3 by
/// default), then times the crash-rebind path against the fail-slow-rebind
/// path on the same deployment. `--plan FILE` replaces the built-in gray
/// schedule with a [`FaultPlan`](whisper_simnet::FaultPlan) in its text
/// form. Non-zero unless every soak answered every request exactly once
/// above the goodput floor with the gray incidents on the books, and the
/// fail-slow path was the faster recovery.
fn chaos(args: &[String]) -> io::Result<ExitCode> {
    let mut seeds = 3u64;
    let mut tuning = chaos_soak::ChaosTuning::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--seeds", Some(n)) => match n.parse() {
                Ok(n) if n > 0 => seeds = n,
                _ => return Ok(usage_error("chaos: --seeds needs a positive integer")),
            },
            ("--plan", Some(path)) => {
                let plan = load_plan(path)?;
                println!("replaying {} actions from {path}", plan.actions().len());
                tuning.plan = Some(plan);
            }
            _ => return Ok(usage_error("chaos takes only --seeds N and --plan FILE")),
        }
    }
    println!(
        "Chaos soak: {} b-peers, {} requests/soak, {} seeds, degrade {:?}\n",
        tuning.peers, tuning.requests, seeds, tuning.degrade
    );
    let mut rows = Vec::new();
    for seed in 0..seeds {
        rows.push(chaos_soak::run_soak_threadnet(&tuning, seed));
        rows.push(chaos_soak::run_soak_tcp(&tuning, seed));
    }
    chaos_soak::table(&rows).emit()?;

    let race = chaos_soak::race(&tuning);
    println!(
        "\nrebind race ({}): crash {} vs fail-slow {}",
        race.substrate, race.crash_recovery, race.fail_slow_recovery
    );
    let mut ok = true;
    for r in rows.iter().filter(|r| !r.accepted(&tuning)) {
        eprintln!(
            "FAIL {}: lost={} dup={} goodput={:.4} gray_events={} ledger_up={} \
             unowed_link_losses={}",
            r.substrate,
            r.lost,
            r.duplicated,
            r.goodput,
            r.gray_faults_recorded,
            r.ledger_up,
            r.unowed_link_losses
        );
        ok = false;
    }
    if race.fail_slow_recovery >= race.crash_recovery {
        eprintln!(
            "FAIL race: fail-slow rebind {} not faster than crash rebind {}",
            race.fail_slow_recovery, race.crash_recovery
        );
        ok = false;
    }
    if ok {
        println!("\nevery request answered exactly once on every substrate");
    }
    Ok(exit_by(ok))
}

/// `loadgen`'s flags over the full matrix; `None` on anything malformed.
fn loadgen_params(args: &[String]) -> Option<load_matrix::MatrixParams> {
    fn list<T: std::str::FromStr>(raw: &str) -> Option<Vec<T>> {
        raw.split(',').map(|s| s.trim().parse().ok()).collect()
    }
    let mut params = load_matrix::MatrixParams::full();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => params = load_matrix::MatrixParams::smoke(),
            "--peers" => params.peers = list(args.next()?)?,
            "--rates" => params.rates = list(args.next()?)?,
            "--windows" => params.windows = list(args.next()?)?,
            "--secs" => params.secs = args.next()?.parse().ok().filter(|&s| s > 0.0)?,
            "--workers" => params.workers = args.next()?.parse().ok()?,
            _ => return None,
        }
    }
    (!params.peers.is_empty() && !params.peers.contains(&0)).then_some(params)
}

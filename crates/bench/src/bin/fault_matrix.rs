//! Fault matrix: boot the same 5-peer scenario on all three substrates,
//! kill and restart the coordinator on each via one [`FaultPlan`], and
//! assert every runtime recovers.
//!
//! This is the CI smoke for the deployment layer: one [`Deployment`]
//! description, one fault schedule, three runtimes (virtual time, OS
//! threads, TCP loopback). The bin exits non-zero unless every substrate
//! ends the horizon with an agreed coordinator, exactly one recorded
//! outage, and a measured MTTR — so a regression in any substrate's
//! fault handling fails the job even before the numbers are compared.
//! The simulator's MTTR is virtual time, exact and repeatable, so it is
//! also held to the design
//! ([`substrate_matrix::crash_repair_window`]): the survivors are told the
//! dead coordinator's links closed and a beacon period of silence
//! confirms it — repair, counted from the last beacon, takes at least one
//! `heartbeat_period` and at most two plus an election hop; the successor
//! waits neither for the failure timeout nor for an answer from the peer
//! it has just buried. The wall-clock rows carry no time threshold.
//!
//! ```text
//! fault_matrix [--plan FILE]
//! ```
//!
//! With `--plan FILE` the built-in kill/restart schedule is replaced by a
//! [`FaultPlan`] loaded from its text form ([`FaultPlan::parse_text`]),
//! replayed identically on all three substrates. Custom plans may inject
//! any number of outages (or none — gray-only plans), so the
//! exactly-one-outage assertion is relaxed to "the service is up when the
//! books close".
//!
//! Per-substrate availability/MTTR/detection triples are merged into the
//! bench trajectory next to the experiment CSVs.
//!
//! [`Deployment`]: whisper::deploy::Deployment
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use std::process::ExitCode;

use whisper_bench::experiments::substrate_matrix::{self, MatrixTuning};
use whisper_bench::BenchSummary;
use whisper_simnet::FaultPlan;

fn main() -> ExitCode {
    let mut plan: Option<FaultPlan> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--plan" => {
                let path = match args.next() {
                    Some(p) => p,
                    None => {
                        eprintln!("--plan needs a file path");
                        return ExitCode::FAILURE;
                    }
                };
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match FaultPlan::parse_text(&text) {
                    Ok(p) => {
                        println!("replaying {} actions from {path}", p.actions().len());
                        plan = Some(p);
                    }
                    Err(e) => {
                        eprintln!("bad fault plan {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: fault_matrix [--plan FILE])");
                return ExitCode::FAILURE;
            }
        }
    }

    let tuning = MatrixTuning::default();
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
    let t = substrate_matrix::table(&rows);
    t.print();
    if let Ok(p) = t.save_csv() {
        println!("csv: {}", p.display());
    }

    let mut summary = BenchSummary::new();
    substrate_matrix::record(&mut summary, &rows);
    match summary.save_merged() {
        Ok(p) => println!("\nbench summary: {}", p.display()),
        Err(e) => eprintln!("\nbench summary not written: {e}"),
    }

    let mut ok = rows.len() == 3;
    let (floor, ceiling) = substrate_matrix::crash_repair_window(&tuning.cluster);
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
        if plan.is_none()
            && r.substrate == "sim"
            && r.mttr.is_some_and(|m| m < floor || m > ceiling)
        {
            eprintln!(
                "FAIL sim: mttr {:?} outside [{floor}, {ceiling}]: a crash is repaired one \
                 silent beacon period after its links closed, no sooner and no later",
                r.mttr
            );
            ok = false;
        }
    }
    if ok {
        println!("\nall substrates recovered");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! E17 chaos soak: gray-failure injection on the wall-clock substrates
//! against the fail-slow-aware resilience layer.
//!
//! Runs the seeded soak (5 % loss, doubled latency, duplication,
//! corruption, one coordinator stall and one 51× slowdown) on OS threads
//! and on real TCP loopback across several chaos seeds, then times the
//! crash-rebind path against the fail-slow-rebind path on the same
//! deployment. Exits non-zero unless every soak answered every request
//! exactly once above the goodput floor with the gray incidents on the
//! books, and the fail-slow path was the faster recovery.
//!
//! ```text
//! whisper-chaos [--seeds N] [--plan FILE]
//! ```
//!
//! `--plan FILE` replaces the built-in gray schedule with a
//! [`FaultPlan`] in its text form (see [`FaultPlan::parse_text`]), so a
//! chaos schedule can be replayed from a file on every substrate.
//!
//! [`FaultPlan`]: whisper_simnet::FaultPlan
//! [`FaultPlan::parse_text`]: whisper_simnet::FaultPlan::parse_text

use std::process::ExitCode;

use whisper_bench::experiments::chaos_soak::{self, ChaosTuning};
use whisper_bench::experiments::load_plan;

fn main() -> ExitCode {
    let mut seeds = 3u64;
    let mut tuning = ChaosTuning::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => seeds = n,
                    _ => {
                        eprintln!("--seeds needs a positive integer, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--plan" => {
                let Some(path) = args.next() else {
                    eprintln!("--plan needs a file path");
                    return ExitCode::FAILURE;
                };
                match load_plan(&path) {
                    Ok(plan) => {
                        println!("replaying {} actions from {path}", plan.actions().len());
                        tuning.plan = Some(plan);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} (usage: whisper-chaos [--seeds N] [--plan FILE])"
                );
                return ExitCode::FAILURE;
            }
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
    if let Err(e) = chaos_soak::table(&rows).emit() {
        eprintln!("whisper-chaos: {e}");
        return ExitCode::FAILURE;
    }

    let race = chaos_soak::race(&tuning);
    println!(
        "\nrebind race ({}): crash {} vs fail-slow {}",
        race.substrate, race.crash_recovery, race.fail_slow_recovery
    );

    let mut ok = true;
    for r in &rows {
        if !r.accepted(&tuning) {
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
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

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
//! Soak and race statistics are merged into the bench trajectory next to
//! the experiment CSVs.
//!
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use std::process::ExitCode;

use whisper_bench::experiments::chaos_soak::{self, ChaosTuning};
use whisper_bench::BenchSummary;
use whisper_simnet::FaultPlan;

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
                    Ok(plan) => {
                        println!("replaying {} actions from {path}", plan.actions().len());
                        tuning.plan = Some(plan);
                    }
                    Err(e) => {
                        eprintln!("bad fault plan {path}: {e}");
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
    let t = chaos_soak::table(&rows);
    t.print();
    if let Ok(p) = t.save_csv() {
        println!("csv: {}", p.display());
    }

    let race = chaos_soak::race(&tuning);
    println!(
        "\nrebind race ({}): crash {} vs fail-slow {}",
        race.substrate, race.crash_recovery, race.fail_slow_recovery
    );

    let mut summary = BenchSummary::new();
    chaos_soak::record(&mut summary, &rows, &[race]);
    match summary.save_merged() {
        Ok(p) => println!("\nbench summary: {}", p.display()),
        Err(e) => eprintln!("\nbench summary not written: {e}"),
    }

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

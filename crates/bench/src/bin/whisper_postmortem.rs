//! `whisper-postmortem` — boot a deployment, break it, read the story.
//!
//! Boots the 5-peer student-management deployment on any (or all) of the
//! three substrates, replays the standard kill/restart [`FaultPlan`]
//! against the coordinator with the SLO engine watching the availability
//! ledger, and prints the flight capture each burn-rate alert sealed: a
//! causally-ordered, cross-node incident timeline annotated with the
//! ledger's outage story, plus the same capture as JSONL for machines.
//!
//! ```text
//! whisper-postmortem [--substrate sim|threadnet|tcp|all] [--jsonl]
//! ```
//!
//! Exit is non-zero unless every requested leg fired exactly one
//! availability alert, sealed exactly one capture, and that capture is
//! causally consistent and tells the full failover arc in happens-before
//! order: `kill` → `link-lost` → `lost-confirmed` → `skipped-suspect` →
//! `elected` → `announced` → proxy re-bind.
//!
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use std::process::ExitCode;

use whisper_bench::experiments::postmortem::{self, PostmortemOutcome};
use whisper_bench::experiments::substrate_matrix::MatrixTuning;

struct Options {
    substrate: String,
    jsonl: bool,
}

fn usage() -> ! {
    eprintln!("usage: whisper-postmortem [--substrate sim|threadnet|tcp|all] [--jsonl]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        substrate: "all".into(),
        jsonl: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--substrate" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--substrate needs a value");
                    usage()
                });
                match v.as_str() {
                    "sim" | "threadnet" | "tcp" | "all" => opts.substrate = v,
                    _ => usage(),
                }
            }
            "--jsonl" => opts.jsonl = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// Runs the requested leg(s); `run_matrix` covers `all`.
fn run(substrate: &str, t: &MatrixTuning) -> Vec<PostmortemOutcome> {
    if substrate == "all" {
        return postmortem::run_matrix(t);
    }
    vec![postmortem::run_leg(substrate, t)]
}

fn main() -> ExitCode {
    let opts = parse_args();
    let tuning = MatrixTuning::default();
    println!(
        "postmortem: {} b-peers + proxy + client, kill coordinator at {:.1} s, restart {:.1} s later\n",
        tuning.peers,
        tuning.warmup.as_secs_f64(),
        tuning.outage.as_secs_f64()
    );

    let rows = run(&opts.substrate, &tuning);
    for row in &rows {
        println!("--- {} ---", row.substrate);
        if row.report.is_empty() {
            println!("(no alert fired; nothing captured)");
        } else {
            println!("{}", row.report);
            if opts.jsonl {
                println!("-- capture as JSONL --\n{}", row.jsonl);
            }
        }
    }
    postmortem::table(&rows).print();

    let mut ok = !rows.is_empty();
    for row in &rows {
        if !row.accepted() {
            eprintln!(
                "FAIL {}: alerts={} captures={} captures_ok={}",
                row.substrate,
                row.alerts_fired,
                row.captures.len(),
                row.captures_ok()
            );
            ok = false;
        }
    }
    if ok {
        println!("\nevery kill produced one causally-ordered capture");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

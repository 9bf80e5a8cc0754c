//! `whisper-bench` — runs the paper's evaluation, one experiment by name
//! or `all` of them; `--help` lists the names. The experiments and the
//! command line's contract are [`whisper_bench::registry`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    whisper_bench::registry::dispatch(&args)
}

//! The request-path benchmark of the Whisper reproduction.
//!
//! ```text
//! whisper-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//!     one workload in this process: prints every metric by name with unit,
//!     n, median and quartiles, then one JSON result line (the line the
//!     benchmark driver reads)
//! whisper-benchmark --seed <n> [--workload <name>] [--repeat <N>] [--trace] [--quick]
//!     every workload (or the named one) N times, each run in a fresh child
//!     process with seeds n, n+1, ...; then, per end-to-end metric and
//!     workload, each run's value, the spread, and PASS/FAIL against the
//!     bound in BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what the workloads and metrics mean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Duration;

use whisper_benchmark::inputs::Inputs;
use whisper_benchmark::layers::{self, Captured};
use whisper_benchmark::report::{Fingerprint, Report, END_TO_END, PER_LAYER};
use whisper_benchmark::workload::{self, Load, Workload, DEFAULT_SECONDS, WORKLOADS};
use whisper_benchmark::{affinity, failover, json, replay, stats, steady};

/// `--quick`: a smoke run that still emits every metric.
const QUICK_SECONDS: f64 = 2.0;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: Option<usize>,
    quick: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: whisper-benchmark --seed <u64> [--workload <{}>] [--seconds <s>] \
         [--trace [0|1]] [--repeat <N>] [--quick] [--out <dir>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value\n{}", args[*i - 1], usage()))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i)?.clone()),
            "--seed" => o.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value(&mut i)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: need a positive number")?
            }
            "--repeat" => {
                o.repeat = Some(
                    value(&mut i)?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--repeat: need a count of at least 1")?,
                )
            }
            "--out" => o.out = PathBuf::from(value(&mut i)?),
            "--quick" => o.quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.traced = false;
                    i += 1;
                }
                Some("1") => {
                    o.traced = true;
                    i += 1;
                }
                _ => o.traced = true,
            },
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if o.quick {
        o.seconds = QUICK_SECONDS;
    }
    if let Some(name) = &o.workload {
        if workload::by_name(name).is_none() {
            return Err(format!("unknown workload {name:?}\n{}", usage()));
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match (&options.workload, options.repeat) {
        (Some(name), None) => {
            let workload = workload::by_name(name).expect("checked by parse_args");
            run_one(workload, &options)
        }
        _ => run_children(&options),
    }
}

/// One workload, measured in this process.
fn run_one(declared: &Workload, o: &Options) -> ExitCode {
    let mut machine = Fingerprint::take();
    // before any thread is spawned: they all inherit the binding
    let mut turns = affinity::Turns::start();
    machine.bound_to = turns.processors().to_vec();
    let workload = Workload {
        boots: if o.quick { 1 } else { declared.boots },
        ..*declared
    };
    let failover = matches!(workload.load, Load::OpenWithKills { .. });
    let kills = if failover { failover::MAX_ROUNDS } else { 0 };
    let inputs = Arc::new(Inputs::generate(o.seed, workload.shape, kills));
    println!(
        "whisper-benchmark  workload {}  seed {}  seconds {}  {}",
        workload.name,
        o.seed,
        o.seconds,
        if o.traced { "traced run" } else { "timed run" }
    );
    println!("why: {}", workload.why);
    match turns.processors() {
        [] => println!("could not bind to one processor: expect wider spreads"),
        processors => println!("bound to one processor at a time, in turn: {processors:?}"),
    }

    let mut report = Report::default();
    // a traced run spends half its time on the workload itself and the
    // other half on the per-layer timings and the replay
    let load_seconds = if o.traced { o.seconds / 2.0 } else { o.seconds };
    let outcome = if failover {
        failover::run(&workload, &inputs, load_seconds, &mut report)
    } else {
        steady::run(
            &workload,
            &inputs,
            load_seconds,
            o.traced,
            &mut turns,
            &mut report,
        )
    };

    let mut replayed = None;
    if o.traced {
        let captured = Captured {
            operation: workload.operation(),
            request: inputs.templates[0].envelope.clone(),
            response: outcome.sample_response,
            advertisement: outcome.advertisement,
        };
        let slice = Duration::from_secs_f64(o.seconds / 8.0);
        layers::time_layers(&mut report, &captured, slice);
        layers::time_hops(&mut report, &captured, slice);
        layers::time_watching(&mut report, &workload, &inputs, slice);
        replayed = Some(replay::run(
            &mut report,
            &captured,
            &inputs.templates[0],
            outcome.reference_rtt_us,
            slice,
        ));
    }
    machine.finish();

    println!("{}", report.table(o.traced));
    if let Some((table, _)) = &replayed {
        println!("{table}");
    }
    println!(
        "attempted {}  failed {}  (wrong body or answered twice: {})",
        report.attempted, report.failed, report.violations
    );

    let mode = if o.traced { "traced" } else { "timed" };
    let record = report.record(
        workload.name,
        o.seed,
        o.seconds,
        o.traced,
        inputs.digest(),
        &machine,
    );
    let mut files = vec![(
        o.out
            .join(format!("result-{}-{}-{mode}.json", workload.name, o.seed)),
        record,
    )];
    if let Some((_, spans)) = replayed {
        files.push((o.out.join(format!("trace-{}.jsonl", workload.name)), spans));
    }
    for (path, content) in files {
        let written = std::fs::create_dir_all(&o.out).and_then(|()| std::fs::write(&path, content));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Any failed request is a failed run on the steady workloads; under
    // failover a late answer is expected, a wrong one never is.
    let set = if o.traced { PER_LAYER } else { END_TO_END };
    let all_finite = report.rows(set).iter().all(|(_, _, s)| s.value.is_finite());
    let correct = all_finite && report.violations == 0 && (failover || report.failed == 0);
    println!("{}", report.result_line(o.traced, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line of one child run.
struct ChildResult {
    workload: &'static str,
    values: Vec<(String, f64)>,
}

/// Every selected workload, `--repeat` times, each run in a fresh child
/// process; then the repeatability table.
fn run_children(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| o.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let repeat = o.repeat.unwrap_or(1);
    let mut results: Vec<ChildResult> = Vec::new();
    let mut all_ok = true;
    for run in 0..repeat as u64 {
        for w in &selected {
            let seed = o.seed.wrapping_add(run);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&o.out);
            if o.quick {
                child.arg("--quick");
            }
            println!("--- run {} of {repeat}: {} (seed {seed})", run + 1, w.name);
            match child.output() {
                Ok(output) => {
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    print!("{stdout}");
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    all_ok &= output.status.success();
                    match stdout.lines().last().map(json::parse) {
                        Some(Ok(line)) => results.push(ChildResult {
                            workload: w.name,
                            values: metric_values(&line),
                        }),
                        _ => {
                            eprintln!("{}: no result line", w.name);
                            all_ok = false;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if repeat > 1 {
        all_ok &= print_repeatability(&results, &selected, Path::new("BENCHMARK.json"));
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_values(line: &json::Value) -> Vec<(String, f64)> {
    line.get("metrics")
        .and_then(json::Value::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
fn declared_bounds(spec: &Path) -> Vec<(String, f64)> {
    std::fs::read_to_string(spec)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| {
            v.get("end_to_end")
                .and_then(json::Value::as_array)
                .map(<[_]>::to_vec)
        })
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Per metric and workload: each run's value, the spread between the
/// quartiles as a share of the median, and the verdict against the
/// declared bound. `setup_s` is reported but, like in the driver, its
/// spread is not judged. Returns whether everything judged passed.
fn print_repeatability(results: &[ChildResult], selected: &[&Workload], spec: &Path) -> bool {
    let bounds = declared_bounds(spec);
    if bounds.is_empty() {
        println!(
            "(no end-to-end bounds found in {}: spreads only)",
            spec.display()
        );
    }
    let mut all_pass = true;
    println!("\nrepeatability: spread = (q3 - q1) / median over the runs");
    println!(
        "{:<14} {:<28} {:>8} {:>7}  {:<5} values",
        "workload", "metric", "spread", "bound", ""
    );
    for w in selected {
        let runs: Vec<&ChildResult> = results.iter().filter(|r| r.workload == w.name).collect();
        let Some(first) = runs.first() else { continue };
        for (name, _) in &first.values {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            let spread = stats::spread(&values);
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let verdict = match bound {
                Some(_) if name == "setup_s" => "-",
                Some(b) if spread <= b => "PASS",
                Some(_) => {
                    all_pass = false;
                    "FAIL"
                }
                None => "",
            };
            let digits = if values.iter().all(|v| v.abs() < 1.0) {
                6
            } else {
                4
            };
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
            println!(
                "{:<14} {:<28} {:>7.2}% {:>7}  {:<5} {}",
                w.name,
                name,
                100.0 * spread,
                bound.map_or(String::new(), |b| format!("{:.0}%", 100.0 * b)),
                verdict,
                shown.join(" ")
            );
        }
    }
    all_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_args(&args(
            "--workload tcp-small --seed 42 --seconds 24 --trace 0",
        ))
        .expect("valid");
        assert_eq!(o.workload.as_deref(), Some("tcp-small"));
        assert_eq!((o.seed, o.seconds, o.traced), (42, 24.0, false));
        let o = parse_args(&args("--workload sim-logic --seed 7 --seconds 3 --trace 1"))
            .expect("valid");
        assert!(o.traced);
    }

    #[test]
    fn trace_is_also_a_bare_flag_and_quick_sets_the_seconds() {
        let o = parse_args(&args("--seed 7 --trace --repeat 5 --quick")).expect("valid");
        assert!(o.traced && o.quick);
        assert_eq!((o.repeat, o.seconds), (Some(5), QUICK_SECONDS));
        assert!(o.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload no-such --seed 1",
            "--seed x",
            "--seconds 0",
            "--repeat 0",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&args(line)).is_err(), "{line}");
        }
    }
}

//! The one experiment entry point, driven as a process: what `--help`
//! lists is what the docs name, bad command lines are usage errors, a
//! run through the binary writes the bytes the library renders, and `all`
//! is a walk of the registry.

use std::path::Path;
use std::process::{Command, Output};

use whisper_bench::experiments::discovery_cost;
use whisper_bench::registry::REGISTRY;

fn whisper_bench(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_whisper-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("the dispatcher runs")
}

fn registry_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

/// The experiment names a usage text lists: the first word of every line
/// after `experiments:`.
fn listed(usage: &str) -> Vec<&str> {
    let (_, list) = usage
        .split_once("experiments:\n")
        .expect("usage ends with the experiment list");
    list.lines()
        .map(|l| l.split_whitespace().next().expect("one name per line"))
        .collect()
}

/// The back-ticked first cells of the markdown table rows in `text`
/// (header and rule rows have none).
fn table_names(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|l| l.trim_start_matches("//!").trim().strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect()
}

#[test]
fn help_lists_exactly_the_registry_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = whisper_bench(&[flag], Path::new("."));
        assert_eq!(out.status.code(), Some(0));
        assert!(out.stderr.is_empty());
        let text = String::from_utf8(out.stdout).expect("utf-8");
        assert!(text.starts_with("usage: whisper-bench"), "{text}");
        assert_eq!(listed(&text), registry_names());
    }
    // after an experiment name too: it is never passed on as a flag
    let out = whisper_bench(&["loadgen", "--help"], Path::new("."));
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.starts_with(b"usage: whisper-bench"));
}

/// A doc that names a binary that no longer exists fails here.
#[test]
fn readme_and_crate_docs_name_exactly_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("../../README.md")).expect("README.md");
    let (_, section) = readme
        .split_once("## Reproducing the paper's evaluation")
        .expect("the README section");
    let section = section.split("\n##").next().expect("non-empty");
    assert_eq!(table_names(section), registry_names(), "README.md");

    let lib = std::fs::read_to_string(root.join("src/lib.rs")).expect("lib.rs");
    assert_eq!(table_names(&lib), registry_names(), "src/lib.rs");
}

#[test]
fn bad_command_lines_print_usage_to_stderr_and_exit_two() {
    for args in [
        &[][..],
        &["no_such_experiment"],
        &["--bogus"],
        &["cluster_health", "--plan", "x"],
        &["fault_matrix", "--bogus"],
        &["loadgen", "--secs", "0"],
    ] {
        let out = whisper_bench(args, Path::new("."));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let text = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(listed(&text), registry_names(), "{args:?}");
    }
}

#[test]
fn discovery_cost_through_the_binary_writes_the_library_s_bytes() {
    let cwd = std::env::temp_dir().join(format!("whisper-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp dir");

    let out = whisper_bench(&["discovery_cost"], &cwd);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let csv = cwd.join("target/experiments/discovery_cost.csv");
    let expected = discovery_cost::table(&discovery_cost::run_sweep(&[1, 2, 4, 8, 12], 2, 7));
    assert_eq!(
        std::fs::read_to_string(&csv).expect("the CSV was written"),
        expected.to_csv()
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains(&expected.render()), "{stdout}");
    assert!(stdout.ends_with("csv: target/experiments/discovery_cost.csv\n"));

    // An output that cannot be written is an error, not a silent exit 0.
    std::fs::remove_dir_all(cwd.join("target")).expect("cleanup");
    std::fs::write(cwd.join("target"), "in the way").expect("temp file");
    let out = whisper_bench(&["discovery_cost"], &cwd);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("discovery_cost.csv"), "{stderr}");

    std::fs::remove_dir_all(&cwd).expect("cleanup");
}

/// `all` is E1–E12, E14 and E15 — what `all_experiments` ran before the
/// registry — each once and in registry order, because it *is* the
/// registry filtered by one flag.
#[test]
fn all_walks_the_registry_rows_it_marks() {
    let in_all: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect();
    assert_eq!(
        in_all,
        [
            "fig4_messages",
            "rtt_analysis",
            "load_scalability",
            "election_time",
            "availability",
            "discovery_quality",
            "qos_selection",
            "discovery_cost",
            "failover_sensitivity",
            "relay_overhead",
            "cluster_health",
            "fault_matrix",
            "postmortem",
        ]
    );
    let mut names = registry_names();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), REGISTRY.len(), "a name is listed twice");
    // `all` does not run itself
    assert!(REGISTRY.iter().any(|e| e.name == "all" && !e.in_all));
}

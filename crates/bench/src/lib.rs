//! # whisper-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (section 5), plus the ablations its design implies.
//! Each experiment is a library module (so integration tests can pin its
//! behaviour) with a thin binary in `src/bin` that prints the table the
//! paper reports and saves a CSV under `target/experiments/`.
//!
//! | Binary | Paper artifact | Module |
//! |--------|----------------|--------|
//! | `fig4_messages` | Figure 4: messages vs. number of b-peers | [`experiments::fig4`] |
//! | `rtt_analysis` | §5 RTT: ≈0.5 ms average, multi-second worst case | [`experiments::rtt`] |
//! | `load_scalability` | §5 throughput/latency under system load | [`experiments::load`] |
//! | `election_time` | implied: election cost vs. group size | [`experiments::election`] |
//! | `availability` | §1/§4 claim: availability from redundancy | [`experiments::availability`] |
//! | `discovery_quality` | §4.3 claim: semantic vs. syntactic discovery | [`experiments::discovery_quality`] |
//! | `qos_selection` | §2.4 extension: QoS-aware peer selection | [`experiments::qos`] |
//! | `discovery_cost` | ablation: flooding vs. rendezvous discovery | [`experiments::discovery_cost`] |
//! | `cluster_health` | the availability ledger tracking coordinator kills | [`experiments::cluster_health`] |
//! | `whisper-loadgen` | E16: real-TCP saturation matrix (whisper-surge) | [`experiments::load_matrix`] |
//! | `whisper-chaos` | E17: gray-failure soak + fail-slow rebind race | [`experiments::chaos_soak`] |
//!
//! Run everything with `cargo run -p whisper-bench --bin all_experiments`.
//! `all_experiments`, `cluster_health`, `whisper-loadgen` and the
//! Criterion-style benches additionally merge headline statistics into
//! the machine-readable trajectory `target/experiments/BENCH_PR10.json`
//! ([`BenchSummary`]).
//!
//! Every live experiment drives one facade, [`whisper::Booted`]: a
//! scenario from [`cluster`] (or [`loadplane`], or an experiment's own)
//! booted on a substrate, polled, settled and fed through its edge node.
//! What lives here is what is per-experiment — the fast
//! [`ClusterTuning`], the student and pulse scenarios, the load shapes —
//! and the `whisper-top` binary shows the rig at work: a live TCP-loopback
//! deployment with in-band scope introspection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod exporter;
pub mod loadplane;
pub mod obs;
pub mod summary;
mod table;

pub use cluster::{ClusterTuning, PulseTuning};
pub use exporter::{render_prometheus, PulseExporter};
pub use loadplane::{LoadOutcome, LoadTuning};
pub use summary::{time_mean_us, BenchSummary};
pub use table::Table;

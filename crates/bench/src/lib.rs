//! # whisper-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (section 5), plus the ablations its design implies.
//! Each experiment is a library module (so integration tests can pin its
//! behaviour); the `whisper-bench` binary runs them by name from one
//! [`registry`] — `cargo run -p whisper-bench -- fig4_messages` prints the
//! table the paper reports and saves a CSV under `target/experiments/`,
//! `-- all` walks the registry, `-- --help` lists it.
//!
//! | Experiment | Paper artifact | Module |
//! |------------|----------------|--------|
//! | `fig4_messages` | Figure 4: messages vs. number of b-peers | [`experiments::fig4`] |
//! | `rtt_analysis` | §5 RTT: ≈0.5 ms average, multi-second worst case | [`experiments::rtt`] |
//! | `load_scalability` | §5 throughput/latency under system load | [`experiments::load`] |
//! | `election_time` | implied: election cost vs. group size | [`experiments::election`] |
//! | `availability` | §1/§4 claim: availability from redundancy | [`experiments::availability`] |
//! | `discovery_quality` | §4.3 claim: semantic vs. syntactic discovery | [`experiments::discovery_quality`] |
//! | `qos_selection` | §2.4 extension: QoS-aware peer selection | [`experiments::qos`] |
//! | `discovery_cost` | ablation: flooding vs. rendezvous discovery | [`experiments::discovery_cost`] |
//! | `failover_sensitivity` | ablation: which timeout dominates the worst-case RTT | [`experiments::failover_sensitivity`] |
//! | `relay_overhead` | §5: firewalled b-peers behind the rendezvous relay | [`experiments::relay_overhead`] |
//! | `cluster_health` | the availability ledger tracking coordinator kills | [`experiments::cluster_health`] |
//! | `trace_request` | one cold and one warm request as span trees | [`registry`] |
//! | `fault_matrix` | E14: one deployment and fault plan on three substrates | [`experiments::substrate_matrix`] |
//! | `postmortem` | E15: SLO-triggered flight captures on three substrates | [`experiments::postmortem`] |
//! | `loadgen` | E16: real-TCP saturation matrix (whisper-surge) | [`experiments::load_matrix`] |
//! | `all` | E1–E12, E14 and E15 back to back | [`registry`] |
//!
//! Four operator tools keep a binary of their own: `whisper-top`,
//! `whisper-pulse`, `whisper-postmortem` (E15's stories in full) and
//! `whisper-chaos` (E17, [`experiments::chaos_soak`]). How fast any of it
//! runs is judged elsewhere — by the `benchmark/` package and
//! `tools/ab.sh` — and recorded nowhere else.
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
pub mod registry;
mod table;

pub use cluster::{ClusterTuning, PulseTuning};
pub use exporter::{render_prometheus, PulseExporter};
pub use loadplane::{LoadOutcome, LoadTuning};
pub use table::Table;

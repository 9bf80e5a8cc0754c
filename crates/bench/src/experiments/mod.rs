//! Experiment implementations, one module per table/figure.

use whisper_simnet::FaultPlan;

pub mod availability;
pub mod chaos_soak;
pub mod cluster_health;
pub mod discovery_cost;
pub mod discovery_quality;
pub mod election;
pub mod failover_sensitivity;
pub mod fig4;
pub mod load;
pub mod load_matrix;
pub mod postmortem;
pub mod qos;
pub mod relay_overhead;
pub mod rtt;
pub mod substrate_matrix;

/// Reads a [`FaultPlan`] from its text form ([`FaultPlan::parse_text`]) in
/// the file at `path` — the `--plan FILE` of `fault_matrix` and
/// `whisper-chaos`.
///
/// # Errors
///
/// The file could not be read, or does not hold a fault plan; the message
/// names the file either way.
pub fn load_plan(path: &str) -> std::io::Result<FaultPlan> {
    use std::io::{Error, ErrorKind};
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::new(e.kind(), format!("cannot read {path}: {e}")))?;
    FaultPlan::parse_text(&text).map_err(|e| {
        Error::new(
            ErrorKind::InvalidData,
            format!("bad fault plan {path}: {e}"),
        )
    })
}

//! The request-path benchmark of the Whisper reproduction, as a library:
//! the `whisper-benchmark` binary is a command line over these modules, and
//! the package's self-tests reach them the same way.
//!
//! See `benchmark/README.md` for what the workloads and metrics mean.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod cluster;
pub mod failover;
pub mod generator;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod replay;
pub mod report;
pub mod stats;
pub mod steady;
pub mod workload;

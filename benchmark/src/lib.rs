//! The repository's benchmark: protected-vs-plain time to solution on six
//! workloads, with a per-layer budget traced at the solver trait seam.
//!
//! Everything here calls only the public API of the `abft-suite` umbrella
//! crate; nothing inside `crates/` is instrumented.  `README.md` records why
//! each workload exists and which metric each layer is expected to move.

pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

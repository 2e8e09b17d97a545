//! # abft-faultsim — fault injection campaigns
//!
//! The paper's claim is that the ABFT schemes protect the *whole* working set
//! of the solver from memory bit flips.  This crate validates that claim by
//! injecting faults (the software stand-in for the cosmic-ray upsets of §I)
//! into every protected region — independent bit flips, contiguous bursts,
//! and whole-chunk *erasures* of live solver state — and labelling what
//! happened with a [`FaultOutcome`]: corrected in place (a Detectable
//! Correctable Error), rebuilt from the XOR parity tier, detected and
//! aborted (a Detectable Uncorrectable Error), stopped by a bounds check,
//! masked, or a silent corruption — the failure mode ECC exists to prevent.
//!
//! A trial is [`Campaign::draw_trial`], which makes its random decisions
//! from its own ChaCha stream keyed by (campaign seed, trial index), then
//! [`Campaign::execute_draw`], the one executor, which runs and labels it.
//! Campaigns are therefore deterministic for any worker count or dispatch
//! order, every rate comes with a Wilson 95 % confidence interval
//! ([`CampaignStats::wilson_ci`]), and every statistic can be regenerated
//! exactly.  Around that seam:
//!
//! * [`engine`] — the streaming campaign engine: trials shard across the
//!   `abft-serve` job pool into lock-free per-worker accumulators
//!   (O(workers) memory, so a million-trial campaign is just wall-clock),
//!   with an adaptive [`StopRule`] whose sequential Wilson peeks stay valid
//!   under a Bonferroni spending correction.
//! * [`record`] — replayable failure capture: non-safe trials shrink through
//!   a deterministic minimizer into [`TrialRecord`]s, and a
//!   [`FailureCorpus`] serializes them for bit-for-bit
//!   [`Campaign::replay`].
//! * [`coverage`] — the fixed-seed coverage table every scheme × region ×
//!   injection model runs through, and the CI gate that compares it against
//!   the committed `BENCH_coverage.json` (the `coverage` binary).
//! * [`json`] — the dependency-free JSON reader/writer the corpus and the
//!   coverage table serialize with.

pub mod campaign;
pub mod coverage;
pub mod engine;
pub mod flip;
pub mod json;
pub mod outcome;
pub mod record;

pub use campaign::{
    Campaign, CampaignConfig, CampaignStats, InjectionKind, TrialDraw, TrialObservation, WILSON_Z95,
};
pub use engine::{
    normal_quantile, DriftHistogram, StopDecision, StopRule, StreamConfig, StreamReport,
};
pub use flip::{FaultSpec, FaultTarget, SolverVectorTarget};
pub use outcome::FaultOutcome;
pub use record::{FailureCorpus, ReplayOutcome, TrialRecord};

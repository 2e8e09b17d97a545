//! # abft-faultsim — fault injection campaigns
//!
//! The paper's claim is that the ABFT schemes protect the *whole* working set
//! of the solver from memory bit flips.  This crate validates that claim by
//! injecting faults (the software stand-in for the cosmic-ray upsets of §I)
//! into every protected region — independent bit flips, contiguous bursts,
//! and whole-chunk *erasures* of live solver state — and classifying what
//! happens:
//!
//! * [`FaultOutcome::Corrected`] — the fault was detected and repaired in
//!   place by the embedded ECC (a Detectable Correctable Error);
//! * [`FaultOutcome::DetectedRebuilt`] — the fault exceeded the embedded
//!   ECC but the lost chunk was rebuilt from the XOR parity tier and the
//!   solve completed with the right answer;
//! * [`FaultOutcome::DetectedAborted`] — the fault was detected but not
//!   repairable by either tier; the application is told instead of silently
//!   computing with bad data (a Detectable Uncorrectable Error);
//! * [`FaultOutcome::BoundsCaught`] — a range check (the cheap check used
//!   between full-check intervals, §VI-A-2) stopped an out-of-bounds access;
//! * [`FaultOutcome::Masked`] — the fault landed somewhere harmless (e.g. a
//!   reserved redundancy bit or an explicitly stored zero) and the solution
//!   is unaffected;
//! * [`FaultOutcome::SilentCorruption`] — the fault escaped detection and
//!   changed the answer: the failure mode ECC exists to prevent.
//!
//! Campaigns are deterministic for a given seed: every trial draws from its
//! own ChaCha stream keyed by (campaign seed, trial index), so the histogram
//! is identical for any worker count or dispatch order, and every rate comes
//! with a Wilson 95 % confidence interval
//! ([`CampaignStats::wilson_ci`]).  Every statistic can be regenerated
//! exactly.
//!
//! Three layers sit on top of the per-trial machinery:
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
//! * [`json`] — the dependency-free JSON reader/writer the corpus (and the
//!   bench crate) serialize with.

pub mod campaign;
pub mod engine;
pub mod flip;
pub mod json;
pub mod outcome;
pub mod record;

pub use campaign::{
    Campaign, CampaignConfig, CampaignStats, InjectionKind, TrialDraw, TrialObservation, WILSON_Z95,
};
pub use engine::{
    normal_quantile, CampaignAccumulator, DriftHistogram, StopDecision, StopRule, StreamConfig,
    StreamReport,
};
pub use flip::{FaultSpec, FaultTarget, SolverVectorTarget};
pub use outcome::FaultOutcome;
pub use record::{FailureCorpus, ReplayOutcome, TrialRecord};

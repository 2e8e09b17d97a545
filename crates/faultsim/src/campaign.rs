//! Fault-injection campaigns over the protected solvers.
//!
//! One trial = protect the TeaLeaf conduction system, inject a fault (bit
//! flips, a burst, or a whole-chunk erasure), run the solve, and classify
//! the outcome against a clean reference.  A campaign repeats this with
//! fresh random faults and accumulates an outcome histogram.
//!
//! A trial is two deterministic halves.  [`Campaign::draw_trial`] turns
//! (seed, trial index) into a concrete [`TrialDraw`] — every random
//! decision the trial will make — from the trial's **own** ChaCha stream,
//! so a trial never depends on which worker runs it or when.
//! [`Campaign::execute_draw`] is the one executor: it encodes the matrix,
//! applies the draw through the hook its kind needs (at-rest flips, a
//! poll-hook strike on a live CG vector — a bit flip or a chunk erased at
//! an iteration boundary, before the SpMV reads it — factor flips or an
//! erasing preconditioner), maps a failed run to an outcome in one
//! place, and labels every answer through one classifier whose per-kind
//! differences are the explicit rows of `Rules`.  The split is what makes
//! failures *replayable*: a captured draw re-executes bit for bit without
//! the RNG (see [`crate::record`]), and the minimizer shrinks draws by
//! re-executing candidates.  Campaigns run through the streaming engine in
//! [`crate::engine`] ([`Campaign::run_streaming`]), which folds outcomes
//! into per-worker accumulators (memory `O(workers)`, not `O(trials)`) and
//! supports adaptive early stopping.

use crate::flip::{FaultSpec, FaultTarget, SolverVectorTarget};
use crate::outcome::FaultOutcome;
use abft_core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, ProtectedMatrix, ProtectedVector,
    ProtectionConfig, StorageTier,
};
use abft_solvers::backends::{FullyProtected, MatrixProtected};
use abft_solvers::{
    cg_with_poll, ChebyshevBounds, FaultContext, Ilu0, LinearOperator, Method, Polynomial,
    PrecondKind, Preconditioner, Reliability, SolveOutcome, SolveStatus, Solver, SolverConfig,
    SolverError,
};
use abft_sparse::CsrMatrix;
use abft_tealeaf::{Deck, Simulation};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;

/// What one trial injects into the running solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// `flips_per_trial` independent uniformly random bit flips — the
    /// historical single/multi-bit-upset model.
    BitFlips,
    /// One contiguous burst of `flips_per_trial` bits inside one element
    /// (the error class CRC32C targets).
    Burst,
    /// Mid-solve whole-chunk erasure of dense solver-vector state: a chunk
    /// of the CG direction vector `p` is overwritten with garbage at an
    /// iteration boundary, via the solver's poll hook, before the SpMV
    /// reads it — a lost shard rather than a bit upset.  Requires
    /// `protection.vectors != None` and [`Method::Cg`]; recovery
    /// additionally requires the parity tier (`protection.parity`).
    ChunkErasure,
    /// Erasure of a whole row-pointer codeword group: every entry of an
    /// aligned 4-element span has half its bits flipped.
    RowPointerGroupErasure,
    /// `flips_per_trial` independent bit flips into the preconditioner's
    /// stored factors before the FT-PCG solve starts — the persistent-SDC
    /// model for the inner stage.  The trial runs the flexible inner-outer
    /// solver with the preconditioner built in the tier
    /// [`CampaignConfig::precond_reliability`] selects.
    PrecondFactorFlips,
    /// One contiguous burst of `flips_per_trial` bits inside a single
    /// stored preconditioner factor (multi-bit upset in the inner stage).
    PrecondFactorBurst,
    /// A transient burst written into the preconditioner's **output**
    /// vector mid-inner-apply — after the inner stage computed `z`, before
    /// the protected outer iteration screens it.  This strikes exactly the
    /// reliability boundary the bounded-norm sanity screen guards.
    InnerApplyBurst,
    /// `flips_per_trial` independent bit flips planted in one **live solver
    /// vector** (`x`, `r` or `p`) between two CG iterations, via the
    /// solver's poll hook — the upset strikes state the solver *owns*
    /// mid-solve rather than at-rest storage, so the next kernel that reads
    /// the vector runs the detect/correct/rebuild ladder on the live
    /// recurrence.  Requires `protection.vectors != None` and [`Method::Cg`].
    SolverVectorFlips,
    /// One contiguous burst of `flips_per_trial` bits inside a single
    /// element of a live solver vector, planted mid-iteration like
    /// [`InjectionKind::SolverVectorFlips`].
    SolverVectorBurst,
}

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Grid size of the TeaLeaf problem used for each trial.
    pub nx: usize,
    /// Grid size of the TeaLeaf problem used for each trial.
    pub ny: usize,
    /// Number of trials per (scheme, target) combination.
    pub trials: usize,
    /// Number of bit flips injected per trial.
    pub flips_per_trial: usize,
    /// Protection configuration template (the element/row-pointer/vector
    /// schemes are taken from here).
    pub protection: ProtectionConfig,
    /// Region to inject into.
    pub target: FaultTarget,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
    /// Relative solution error above which an undetected fault counts as a
    /// silent data corruption rather than as masked.
    pub sdc_threshold: f64,
    /// Iterative method run on the corrupted system (the generic solver
    /// layer makes every method injectable, not just CG).
    pub solver: Method,
    /// What each trial injects (bit flips, a burst, or an erasure).
    pub injection: InjectionKind,
    /// Which protected storage tier each trial encodes the matrix into.
    /// Matrix-side faults strike that tier's own redundancy layout (e.g.
    /// per-element row indexes under [`StorageTier::Coo`]).
    pub storage: StorageTier,
    /// Preconditioner used by the inner-apply injection kinds
    /// ([`InjectionKind::PrecondFactorFlips`] and friends); ignored by the
    /// other kinds.
    pub precond: PrecondKind,
    /// Reliability tier the preconditioner is built in for the inner-apply
    /// injection kinds: [`Reliability::Unreliable`] (the default) leaves the
    /// inner stage unchecked and relies on the outer screen,
    /// [`Reliability::Protected`] protects the factors themselves.
    pub precond_reliability: Reliability,
}

impl CampaignConfig {
    /// The ECC scheme guarding the region this campaign injects into — the
    /// `scheme` a captured [`crate::record::TrialRecord`] reports.
    pub fn active_scheme(&self) -> EccScheme {
        match self.injection {
            InjectionKind::BitFlips | InjectionKind::Burst => match self.target {
                FaultTarget::MatrixValues | FaultTarget::MatrixColumnIndices => {
                    self.protection.elements
                }
                FaultTarget::RowPointer => self.protection.row_pointer,
                FaultTarget::DenseVector => self.protection.vectors,
            },
            InjectionKind::RowPointerGroupErasure => self.protection.row_pointer,
            InjectionKind::ChunkErasure
            | InjectionKind::SolverVectorFlips
            | InjectionKind::SolverVectorBurst
            | InjectionKind::InnerApplyBurst => self.protection.vectors,
            // The factor store is built with the element scheme (when the
            // reliability tier protects it at all).
            InjectionKind::PrecondFactorFlips | InjectionKind::PrecondFactorBurst => {
                self.protection.elements
            }
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            nx: 16,
            ny: 16,
            trials: 100,
            flips_per_trial: 1,
            protection: ProtectionConfig::full(EccScheme::Secded64),
            target: FaultTarget::MatrixValues,
            seed: 0xABF7,
            sdc_threshold: 1e-9,
            solver: Method::Cg,
            injection: InjectionKind::BitFlips,
            storage: StorageTier::Csr,
            precond: PrecondKind::Ilu0,
            precond_reliability: Reliability::Unreliable,
        }
    }
}

/// Outcome histogram of a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Trials per outcome, indexed by `outcome as usize` — the order of
    /// [`FaultOutcome::ALL`], shared with the streaming accumulators.
    counts: [usize; FaultOutcome::ALL.len()],
}

impl CampaignStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: FaultOutcome) {
        self.add(outcome, 1);
    }

    /// Records `count` occurrences of `outcome` at once — the bulk entry
    /// point the streaming engine uses to fold a drained per-worker
    /// accumulator into a histogram.
    pub fn add(&mut self, outcome: FaultOutcome, count: usize) {
        self.counts[outcome as usize] += count;
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Count for one outcome.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.counts[outcome as usize]
    }

    /// Fraction of trials with this outcome.
    pub fn rate(&self, outcome: FaultOutcome) -> f64 {
        match self.trials() {
            0 => 0.0,
            trials => self.count(outcome) as f64 / trials as f64,
        }
    }

    /// Fraction of trials in which the protection either handled the fault or
    /// the fault was harmless (everything except silent corruption).
    pub fn safety_rate(&self) -> f64 {
        1.0 - self.rate(FaultOutcome::SilentCorruption)
    }

    /// Fraction of trials that still produced the correct answer
    /// (corrected, rebuilt from parity, or masked).
    pub fn recovery_rate(&self) -> f64 {
        FaultOutcome::ALL
            .into_iter()
            .filter(|o| o.is_recovered())
            .map(|o| self.rate(o))
            .sum()
    }

    /// Folds another histogram into this one (order-independent, so batch
    /// results can merge in any completion order).
    pub fn merge(&mut self, other: &CampaignStats) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Wilson 95 % score interval for the rate of `outcome` — the
    /// uncertainty attached to every streamed campaign count.  Returns the
    /// full `[0, 1]` interval when no trials were recorded.
    pub fn wilson_ci(&self, outcome: FaultOutcome) -> (f64, f64) {
        Self::wilson(self.count(outcome), self.trials())
    }

    /// Wilson 95 % score interval for `successes` out of `trials`.
    ///
    /// With `trials == 0` there is no data, so the interval degenerates to
    /// the whole probability axis `(0.0, 1.0)` — deliberately, because a
    /// vacuous claim must not tighten either bound.  Note the asymmetry
    /// against every `trials > 0` case (where both bounds are data-driven):
    /// callers that *render* intervals should show the degenerate case as
    /// "n/a" rather than as a seemingly measured 0–100 % row —
    /// [`CampaignStats::print_summary`] does.
    pub fn wilson(successes: usize, trials: usize) -> (f64, f64) {
        Self::wilson_with_z(successes, trials, WILSON_Z95)
    }

    /// Wilson score interval for `successes` out of `trials` at an explicit
    /// critical value `z`.  The streaming engine's sequential stop rule uses
    /// this with a spending-corrected `z` (wider than 95 %) so that peeking
    /// at batch boundaries keeps the overall error probability bounded;
    /// everything else uses the 95 % wrapper [`CampaignStats::wilson`].
    /// Returns the degenerate `(0.0, 1.0)` when `trials == 0`.
    pub fn wilson_with_z(successes: usize, trials: usize, z: f64) -> (f64, f64) {
        if trials == 0 {
            return (0.0, 1.0);
        }
        let n = trials as f64;
        let p = successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = p + z2 / (2.0 * n);
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            (((centre - half) / denom).max(0.0)),
            (((centre + half) / denom).min(1.0)),
        )
    }

    /// Renders the outcome histogram, one row per outcome with its count,
    /// rate and Wilson 95 % CI.  This is the body of the [`Display`]
    /// implementation.  With zero trials every row renders "n/a" instead of
    /// the misleading `0.0 %, CI [0.0, 100.0]` the raw degenerate interval
    /// would produce (see [`CampaignStats::wilson`]).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn print_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for outcome in FaultOutcome::ALL {
            if self.trials() == 0 {
                let _ = writeln!(
                    out,
                    "{:>30}: {:5} (  n/a  , 95 % CI n/a)",
                    outcome.label(),
                    0,
                );
                continue;
            }
            let (lo, hi) = self.wilson_ci(outcome);
            let _ = writeln!(
                out,
                "{:>30}: {:5} ({:5.1} %, 95 % CI [{:5.1}, {:5.1}])",
                outcome.label(),
                self.count(outcome),
                100.0 * self.rate(outcome),
                100.0 * lo,
                100.0 * hi,
            );
        }
        out
    }
}

/// 97.5th percentile of N(0,1) — the critical value of the two-sided 95 %
/// Wilson interval.
pub const WILSON_Z95: f64 = 1.959_963_984_540_054_f64;

impl std::fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.print_summary())
    }
}

/// What one executed trial reported back: the classified outcome plus the
/// residual-drift scalar the streaming engine buckets into its histogram.
#[derive(Debug, Clone, Copy)]
pub struct TrialObservation {
    /// The classified outcome.
    pub outcome: FaultOutcome,
    /// How far the returned answer drifted: the relative solution error
    /// against the clean reference for solve trials, the element-wise
    /// maximum relative error for at-rest vector-scrub trials, and the
    /// relative true residual for preconditioned trials (whose iteration
    /// path legitimately differs from the reference).  `NaN` when the trial
    /// produced no answer at all (aborted / fail-stopped) — the histogram
    /// buckets that separately.
    pub drift: f64,
}

/// The fully drawn, concrete injection plan of one trial — every random
/// decision [`Campaign::draw_trial`] made, and nothing else.  Executing the
/// same draw twice ([`Campaign::execute_draw`]) gives bit-identical trials,
/// which is what makes captured failures replayable and minimizable: the
/// shrinker edits the flip list of a draw and re-executes candidates, and
/// the failure corpus serializes draws verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialDraw {
    /// At-rest flips into protected storage ([`InjectionKind::BitFlips`],
    /// [`InjectionKind::Burst`], [`InjectionKind::RowPointerGroupErasure`]).
    Flips(FaultSpec),
    /// Mid-iteration flips into a live solver vector
    /// ([`InjectionKind::SolverVectorFlips`] / `SolverVectorBurst`).
    SolverVector {
        /// Which live vector of the CG recurrence is struck.
        vector: SolverVectorTarget,
        /// Zero-based iteration at (or past) which the flips land, once.
        strike_iteration: u64,
        /// `(element, bit)` flips applied to the struck vector.
        flips: Vec<(usize, u32)>,
    },
    /// Mid-iteration whole-chunk erasure ([`InjectionKind::ChunkErasure`]).
    ChunkErasure {
        /// Index of the erased chunk.
        chunk: usize,
        /// Chunk granularity in elements.
        chunk_words: usize,
        /// Zero-based iteration at (or past) which the erasure fires, once.
        strike_iteration: u64,
        /// Seed for the garbage pattern overwriting the chunk.
        garbage_seed: u64,
    },
    /// Pre-solve flips into the preconditioner's stored factors
    /// ([`InjectionKind::PrecondFactorFlips`] / `PrecondFactorBurst`): a
    /// list of `(factor index, bit)` pairs.
    PrecondFactors(Vec<(usize, u32)>),
    /// A transient burst into the inner apply's output
    /// ([`InjectionKind::InnerApplyBurst`]).
    InnerApplyBurst {
        /// Zero-based inner-apply call at (or past) which the burst fires.
        strike_apply: u64,
        /// Element of the output vector to corrupt.
        element: usize,
        /// First bit of the contiguous burst.
        start_bit: u32,
        /// Burst length in bits.
        length: u32,
    },
}

impl TrialDraw {
    /// The editable flip list of this draw, if it has one — the part the
    /// minimizer shrinks.  Strike timing and erasure geometry are left
    /// alone: a one-flip change to them changes the fault *class*, not its
    /// weight.
    pub fn flips(&self) -> Option<&[(usize, u32)]> {
        match self {
            TrialDraw::Flips(spec) => Some(&spec.flips),
            TrialDraw::SolverVector { flips, .. } => Some(flips),
            TrialDraw::PrecondFactors(flips) => Some(flips),
            TrialDraw::ChunkErasure { .. } | TrialDraw::InnerApplyBurst { .. } => None,
        }
    }

    /// A copy of this draw with its flip list replaced (identity for draws
    /// without one).  The minimizer's candidate generator.
    pub fn with_flips(&self, flips: Vec<(usize, u32)>) -> TrialDraw {
        let mut draw = self.clone();
        match &mut draw {
            TrialDraw::Flips(spec) => spec.flips = flips,
            TrialDraw::SolverVector { flips: f, .. } => *f = flips,
            TrialDraw::PrecondFactors(f) => *f = flips,
            TrialDraw::ChunkErasure { .. } | TrialDraw::InnerApplyBurst { .. } => {}
        }
        draw
    }

    /// Fault weight: the number of flipped bits (erasures count their
    /// geometry in elements/bits).
    pub fn weight(&self) -> usize {
        match self {
            TrialDraw::Flips(spec) => spec.flips.len(),
            TrialDraw::SolverVector { flips, .. } => flips.len(),
            TrialDraw::PrecondFactors(flips) => flips.len(),
            TrialDraw::ChunkErasure { chunk_words, .. } => *chunk_words,
            TrialDraw::InnerApplyBurst { length, .. } => *length as usize,
        }
    }

    /// How `Campaign::classify` labels a trial of this draw's kind — the
    /// only ways the kinds differ in labelling, one row each, written as
    /// the difference from a chunk-erasure trial.
    fn rules(&self) -> Rules {
        const BASE: Rules = Rules {
            metric: Metric::Reference,
            needs_convergence: false,
            answer_blind: false,
            counts_screen: false,
        };
        match self {
            TrialDraw::Flips(spec) if spec.target == FaultTarget::DenseVector => Rules {
                metric: Metric::Encoded,
                ..BASE
            },
            TrialDraw::Flips(_) => Rules {
                answer_blind: true,
                ..BASE
            },
            TrialDraw::ChunkErasure { .. } => BASE,
            TrialDraw::SolverVector { .. } => Rules {
                needs_convergence: true,
                ..BASE
            },
            TrialDraw::PrecondFactors(_) | TrialDraw::InnerApplyBurst { .. } => Rules {
                metric: Metric::Residual,
                needs_convergence: true,
                counts_screen: true,
                ..BASE
            },
        }
    }
}

/// How `Campaign::classify` judges one kind of trial.
#[derive(Debug, Clone, Copy)]
struct Rules {
    /// What the answer is measured against, and so what is "right".
    metric: Metric,
    /// A solve that ran out of iterations is a detected failure instead of
    /// an answer to judge.
    needs_convergence: bool,
    /// Any logged correction labels the trial `Corrected` without looking
    /// at the answer (at-rest matrix flips).
    answer_blind: bool,
    /// A trip of the outer bounded-norm screen labels a right answer
    /// `BoundsCaught` (the FT-PCG trials).
    counts_screen: bool,
}

/// What a trial's answer is measured against.
#[derive(Debug, Clone, Copy)]
enum Metric {
    /// `‖x − x_ref‖₂ / ‖x_ref‖₂` against the clean reference solve; right
    /// within `sdc_threshold`.
    Reference,
    /// Element-wise maximum relative error against the vector as encoded,
    /// before any flip; right within `sdc_threshold`.
    Encoded,
    /// The relative true residual `‖b − A x‖₂ / ‖b‖₂` against the pristine
    /// matrix.  FT-PCG declares convergence when the squared recurrence
    /// residual drops below the absolute tolerance, so a right answer is
    /// one whose squared true residual is within 1e6 × that tolerance
    /// (three orders of magnitude in the norm, for recurrence drift over a
    /// long solve).  Distance to the reference is the wrong metric here: a
    /// distorted but benign preconditioner legitimately changes the
    /// iteration path, so two right answers agree only up to
    /// conditioning-amplified rounding.
    Residual,
}

/// Tolerance on the absolute squared residual of every trial's solve.
const TOLERANCE: f64 = 1e-15;

/// A fault-injection campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    matrix: CsrMatrix,
    rhs: Vec<f64>,
    reference: Vec<f64>,
}

impl Campaign {
    /// Prepares the campaign: assembles the TeaLeaf system once and computes
    /// the clean reference solution.
    ///
    /// # Panics
    /// When the injection kind cannot run under the configuration: the
    /// live-vector strikes, chunk erasures and preconditioner faults run CG
    /// (the poll hook, FT-PCG), and the live-vector strikes and chunk
    /// erasures need protected vectors (unprotected live state cannot tell
    /// detection from luck).
    pub fn new(config: CampaignConfig) -> Self {
        use InjectionKind::*;
        let kind = config.injection;
        assert!(
            config.solver == Method::Cg
                || !matches!(
                    kind,
                    ChunkErasure
                        | SolverVectorFlips
                        | SolverVectorBurst
                        | PrecondFactorFlips
                        | PrecondFactorBurst
                        | InnerApplyBurst
                ),
            "{kind:?} trials run CG, not {:?}",
            config.solver
        );
        assert!(
            config.protection.vectors != EccScheme::None
                || !matches!(kind, ChunkErasure | SolverVectorFlips | SolverVectorBurst),
            "{kind:?} trials need protected vectors"
        );
        let simulation = Simulation::new(Deck::standard(config.nx, config.ny, 1));
        let (matrix, rhs) = simulation.assemble();
        let reference = Solver::cg()
            .max_iterations(simulation.deck().max_iters)
            .tolerance(simulation.deck().eps)
            .solve(&matrix, &rhs)
            .expect("plain reference solve cannot fault");
        assert!(reference.status.converged, "reference solve must converge");
        Campaign {
            config,
            matrix,
            rhs,
            reference: reference.solution,
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Makes every random decision of trial number `trial` — from the
    /// trial's own ChaCha stream, keyed by the campaign seed and the trial
    /// index — and returns the resulting concrete injection plan.  Pure:
    /// the same `(config, trial)` always yields the same draw, and the draw
    /// never depends on other trials.
    pub fn draw_trial(&self, trial: usize) -> TrialDraw {
        let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(self.config.seed, trial as u64));
        let kind = self.config.injection;
        // `flips_per_trial` (at least one) independent flips, or one burst
        // of that many bits, over `elements` elements of `target`.
        let count = self.config.flips_per_trial.max(1);
        let flips = |rng: &mut ChaCha8Rng, target: FaultTarget, elements, burst| {
            let length = (count as u32).min(target.element_bits());
            if burst {
                FaultSpec::random_burst(rng, target, elements, length)
            } else {
                FaultSpec::random(rng, target, elements, count)
            }
        };
        match kind {
            InjectionKind::BitFlips => TrialDraw::Flips(FaultSpec::random(
                &mut rng,
                self.config.target,
                self.target_elements(),
                self.config.flips_per_trial,
            )),
            InjectionKind::Burst => TrialDraw::Flips(flips(
                &mut rng,
                self.config.target,
                self.target_elements(),
                true,
            )),
            InjectionKind::RowPointerGroupErasure => TrialDraw::Flips(FaultSpec::erase_span(
                &mut rng,
                FaultTarget::RowPointer,
                self.matrix.rows(),
                4,
            )),
            InjectionKind::ChunkErasure => {
                let chunk_words = self
                    .config
                    .protection
                    .parity
                    .map(|p| p.chunk_words)
                    .unwrap_or(64);
                let chunks = self.rhs.len().div_ceil(chunk_words);
                TrialDraw::ChunkErasure {
                    chunk: rng.gen_range(0..chunks),
                    chunk_words,
                    strike_iteration: u64::from(rng.gen_range(1u32..4)),
                    garbage_seed: rng.gen_range(0..u64::MAX),
                }
            }
            InjectionKind::SolverVectorFlips | InjectionKind::SolverVectorBurst => {
                let vector = SolverVectorTarget::ALL[rng.gen_range(0..3usize)];
                let strike_iteration = u64::from(rng.gen_range(1u32..4));
                let burst = kind == InjectionKind::SolverVectorBurst;
                let n = self.rhs.len();
                TrialDraw::SolverVector {
                    vector,
                    strike_iteration,
                    flips: flips(&mut rng, FaultTarget::DenseVector, n, burst).flips,
                }
            }
            InjectionKind::PrecondFactorFlips | InjectionKind::PrecondFactorBurst => {
                // Factors are 64-bit values, like the dense-vector region.
                let (_, factors) = self
                    .preconditioner(&[])
                    .expect("both preconditioners always build on the SPD campaign system");
                let burst = kind == InjectionKind::PrecondFactorBurst;
                TrialDraw::PrecondFactors(
                    flips(&mut rng, FaultTarget::DenseVector, factors, burst).flips,
                )
            }
            InjectionKind::InnerApplyBurst => {
                let length = (count as u32).min(64);
                TrialDraw::InnerApplyBurst {
                    strike_apply: u64::from(rng.gen_range(1u32..4)),
                    element: rng.gen_range(0..self.rhs.len()),
                    start_bit: rng.gen_range(0..=(64 - length)),
                    length,
                }
            }
        }
    }

    /// Executes a concrete injection plan and classifies what survived —
    /// the only code that runs a trial.  Deterministic: the same draw
    /// always produces the same observation, which is what
    /// [`Campaign::replay`](crate::record) and the failure minimizer rely
    /// on.
    ///
    /// A run that fails is labelled here: a bounds check that stopped an
    /// out-of-range index is [`FaultOutcome::BoundsCaught`], any other
    /// error [`FaultOutcome::DetectedAborted`].  A run that returns an
    /// answer is labelled by the one classifier, under its kind's rules.
    pub fn execute_draw(&self, draw: &TrialDraw) -> TrialObservation {
        let run =
            AnyProtectedMatrix::encode(&self.matrix, &self.config.protection, self.config.storage)
                .map_err(SolverError::from)
                .and_then(|protected| self.strike(draw, protected));
        match run {
            Err(SolverError::Fault(AbftError::OutOfRange { .. })) => {
                aborted(FaultOutcome::BoundsCaught)
            }
            Err(_) => aborted(FaultOutcome::DetectedAborted),
            Ok(answer) => self.classify(draw.rules(), &answer),
        }
    }

    /// Applies `draw` through the hook its kind needs and runs the struck
    /// solve — for at-rest vector flips, the scrub — to its answer.
    fn strike(
        &self,
        draw: &TrialDraw,
        mut protected: AnyProtectedMatrix,
    ) -> Result<SolveOutcome, SolverError> {
        // Spectral bounds come from the *clean* matrix (TeaLeaf derives them
        // at assembly time, before any upset can strike): a corrupted copy
        // could yield arbitrarily bad bounds and stall the Chebyshev-type
        // methods.
        let solver = Solver::new(self.config.solver)
            .config(self.solver_config())
            .bounds(ChebyshevBounds::estimate_gershgorin(&self.matrix));
        let precond_solve = |precond: &dyn Preconditioner| {
            solver.solve_encoded(&protected, &self.rhs, Some(precond), &FaultLog::new())
        };
        match draw {
            TrialDraw::Flips(spec) if spec.target == FaultTarget::DenseVector => {
                let log = FaultLog::new();
                let mut vector = self.encoded_rhs();
                for &(element, bit) in &spec.flips {
                    vector.inject_bit_flip(element, bit);
                }
                vector.scrub(&log)?;
                Ok(SolveOutcome {
                    solution: vector.to_vec(),
                    // A scrub is not an iteration: it always completes.
                    status: SolveStatus {
                        converged: true,
                        iterations: 0,
                        initial_residual: 0.0,
                        final_residual: 0.0,
                    },
                    faults: log.snapshot(),
                })
            }
            TrialDraw::Flips(spec) => {
                for &(element, bit) in &spec.flips {
                    match spec.target {
                        FaultTarget::MatrixValues => protected.inject_value_bit_flip(element, bit),
                        FaultTarget::MatrixColumnIndices => {
                            protected.inject_col_bit_flip(element, bit)
                        }
                        FaultTarget::RowPointer => {
                            protected.inject_structure_bit_flip(element, bit)
                        }
                        FaultTarget::DenseVector => unreachable!("scrubbed above"),
                    }
                }
                solver.solve_operator(&MatrixProtected::new(&protected), &self.rhs)
            }
            TrialDraw::SolverVector {
                strike_iteration, ..
            }
            | TrialDraw::ChunkErasure {
                strike_iteration, ..
            } => {
                let op = FullyProtected::new(&protected);
                let log = FaultLog::new();
                let base = FaultContext::with_log(&log);
                let ctx = base.scoped_to(op.reduction_workspace());
                let mut fired = false;
                let b = op.vector_from(&self.rhs);
                let (mut x, status) =
                    cg_with_poll(&op, &b, &self.solver_config(), &ctx, |iteration, state| {
                        if fired || iteration < *strike_iteration {
                            return;
                        }
                        fired = true;
                        match draw {
                            TrialDraw::SolverVector { vector, flips, .. } => {
                                let struck = match vector {
                                    SolverVectorTarget::X => state.x,
                                    SolverVectorTarget::R => state.r,
                                    SolverVectorTarget::P => state.p,
                                };
                                for &(element, bit) in flips {
                                    struck.inject_bit_flip(element, bit);
                                }
                            }
                            TrialDraw::ChunkErasure {
                                chunk,
                                chunk_words,
                                garbage_seed,
                                ..
                            } => state
                                .p
                                .inject_chunk_erasure(*chunk_words, *chunk, *garbage_seed),
                            _ => unreachable!("only live-vector draws strike through the poll"),
                        }
                    })?;
                let solution = op.finish(&mut x, &ctx)?;
                Ok(SolveOutcome {
                    solution,
                    status,
                    faults: log.snapshot(),
                })
            }
            TrialDraw::PrecondFactors(flips) => precond_solve(&*self.preconditioner(flips)?.0),
            TrialDraw::InnerApplyBurst {
                strike_apply,
                element,
                start_bit,
                length,
            } => precond_solve(&InjectingPreconditioner {
                inner: &*self.preconditioner(&[])?.0,
                strike_apply: *strike_apply,
                element: *element,
                start_bit: *start_bit,
                length: *length,
                applies: Cell::new(0),
                fired: Cell::new(false),
            }),
        }
    }

    /// Labels a trial that returned an answer.  Every kind comes through
    /// here; `rules` carries the only ways the kinds differ.
    fn classify(&self, rules: Rules, answer: &SolveOutcome) -> TrialObservation {
        if rules.needs_convergence && !answer.status.converged {
            // The budget ran out loudly — a detected failure, never a
            // silent one.
            return aborted(FaultOutcome::DetectedAborted);
        }
        let (drift, right) = self.judge(rules.metric, &answer.solution);
        let faults = &answer.faults;
        let screened = rules.counts_screen && faults.bounds_violations.iter().sum::<u64>() > 0;
        let outcome = if rules.answer_blind && faults.total_corrected() > 0 {
            FaultOutcome::Corrected
        } else if !right {
            FaultOutcome::SilentCorruption
        } else if screened {
            FaultOutcome::BoundsCaught
        } else if faults.total_rebuilt() > 0 {
            FaultOutcome::DetectedRebuilt
        } else if faults.total_corrected() > 0 {
            FaultOutcome::Corrected
        } else {
            FaultOutcome::Masked
        };
        TrialObservation { outcome, drift }
    }

    /// How far `solution` drifted under `metric`, and whether it is still
    /// the right answer.
    fn judge(&self, metric: Metric, solution: &[f64]) -> (f64, bool) {
        let drift = match metric {
            Metric::Reference => relative_distance(&self.reference, solution),
            Metric::Encoded => max_relative_error(&self.encoded_rhs().to_vec(), solution),
            Metric::Residual => {
                let mut ax = vec![0.0; self.rhs.len()];
                abft_sparse::spmv::spmv_serial(&self.matrix, solution, &mut ax);
                let residual_sq: f64 = ax
                    .iter()
                    .zip(&self.rhs)
                    .map(|(a, b)| (b - a) * (b - a))
                    .sum();
                // Only a residual measurably over the line convicts.
                let right = residual_sq <= TOLERANCE * 1e6 || residual_sq.is_nan();
                return (relative_distance(&self.rhs, &ax), right);
            }
        };
        (drift, drift <= self.config.sdc_threshold)
    }

    /// The iteration budget of every trial's solve.  Jacobi needs a much
    /// larger one than the Krylov / Chebyshev methods; the cap stays tight
    /// for the others so stalled trials (e.g. an undetected corruption
    /// under no protection) don't burn 10x the iterations for nothing.
    fn solver_config(&self) -> SolverConfig {
        let max_iterations = match self.config.solver {
            Method::Jacobi => 20_000,
            _ => 2_000,
        };
        SolverConfig::new(max_iterations, TOLERANCE)
    }

    /// The right-hand side encoded as a protected vector under the
    /// campaign's vector scheme (deterministic, so the at-rest vector trial
    /// and its judge see the same clean words).
    fn encoded_rhs(&self) -> ProtectedVector {
        let ProtectionConfig {
            vectors,
            crc_backend,
            ..
        } = self.config.protection;
        ProtectedVector::from_slice(&self.rhs, vectors, crc_backend)
    }

    /// The configured preconditioner, built in its reliability tier with
    /// `flips` applied to its stored factors, and its factor count (the
    /// index domain of those flips).  Built concretely rather than through
    /// `PrecondKind::build`, so the factor-injection hook stays reachable.
    fn preconditioner(
        &self,
        flips: &[(usize, u32)],
    ) -> Result<(Box<dyn Preconditioner>, usize), SolverError> {
        let tier = self.config.precond_reliability;
        let ProtectionConfig {
            elements,
            crc_backend,
            ..
        } = self.config.protection;
        Ok(match self.config.precond {
            PrecondKind::Ilu0 => {
                let mut ilu = Ilu0::new(&self.matrix, tier, elements, crc_backend)?;
                for &(k, bit) in flips {
                    ilu.inject_factor_bit_flip(k, bit);
                }
                let count = ilu.factor_count();
                (Box::new(ilu), count)
            }
            PrecondKind::Polynomial(steps) => {
                let mut poly = Polynomial::new(&self.matrix, steps, tier, elements, crc_backend)?;
                for &(k, bit) in flips {
                    poly.inject_factor_bit_flip(k, bit);
                }
                let count = poly.factor_count();
                (Box::new(poly), count)
            }
        })
    }

    /// Number of elements in the configured target region — storage-aware,
    /// because the structural region differs per tier: the CSR row pointer
    /// has `rows + 1` entries while the COO tier carries one protected row
    /// index per stored element.  (For blocked CSR the first `rows + 1`
    /// concatenated per-block entries are targeted, a uniform subset valid
    /// for any realized block count.)
    fn target_elements(&self) -> usize {
        match self.config.target {
            FaultTarget::MatrixValues | FaultTarget::MatrixColumnIndices => self.matrix.nnz(),
            FaultTarget::RowPointer => match self.config.storage {
                StorageTier::Coo => self.matrix.nnz(),
                StorageTier::Csr | StorageTier::BlockedCsr(_) => self.matrix.rows() + 1,
            },
            FaultTarget::DenseVector => self.rhs.len(),
        }
    }
}

/// Observation of a trial that produced no answer at all (fail-stop,
/// screen trip, budget exhaustion): the drift is `NaN`, which the drift
/// histogram buckets separately from every measured magnitude.
fn aborted(outcome: FaultOutcome) -> TrialObservation {
    TrialObservation {
        outcome,
        drift: f64::NAN,
    }
}

/// `‖solution − reference‖₂ / ‖reference‖₂` (absolute when the reference
/// is zero).
fn relative_distance(reference: &[f64], solution: &[f64]) -> f64 {
    let norm: f64 = reference.iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff: f64 = solution
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    if norm == 0.0 {
        diff
    } else {
        diff / norm
    }
}

/// The largest element-wise relative error of `recovered` against `clean`
/// (absolute where `clean` is zero; `NaN` elements are skipped).
fn max_relative_error(clean: &[f64], recovered: &[f64]) -> f64 {
    clean
        .iter()
        .zip(recovered)
        .map(|(a, b)| {
            if *a == 0.0 {
                (a - b).abs()
            } else {
                ((a - b) / a).abs()
            }
        })
        .fold(0.0f64, f64::max)
}

/// SplitMix64-style mixing of (campaign seed, trial index) into an
/// independent stream key.  Trial `t`'s draws never depend on how many draws
/// earlier trials made, so the campaign histogram is identical for any
/// worker count, batch size, or dispatch order.
fn mix_seed(seed: u64, trial: u64) -> u64 {
    let mut z = seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wraps a preconditioner and writes one bit burst into the output vector
/// `z` the first time the apply counter reaches the strike point — after
/// the inner stage produced its answer, before the protected outer
/// iteration screens it.  Everything else delegates unchanged, so the
/// solve exercises the exact production reliability boundary.  The strike
/// fields mean what they mean in [`TrialDraw::InnerApplyBurst`].
struct InjectingPreconditioner<'a> {
    inner: &'a dyn Preconditioner,
    strike_apply: u64,
    element: usize,
    start_bit: u32,
    length: u32,
    applies: Cell<u64>,
    fired: Cell<bool>,
}

impl Preconditioner for InjectingPreconditioner<'_> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn apply(&self, r: &[f64], z: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        self.inner.apply(r, z, ctx)?;
        let call = self.applies.get();
        self.applies.set(call + 1);
        if !self.fired.get() && call >= self.strike_apply {
            self.fired.set(true);
            let mut bits = z[self.element].to_bits();
            for offset in 0..self.length {
                bits ^= 1u64 << (self.start_bit + offset);
            }
            z[self.element] = f64::from_bits(bits);
        }
        Ok(())
    }

    fn reliability(&self) -> Reliability {
        self.inner.reliability()
    }

    fn bound_hint(&self) -> Option<f64> {
        self.inner.bound_hint()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use abft_ecc::Crc32cBackend;

    fn config(scheme: EccScheme, target: FaultTarget, trials: usize) -> CampaignConfig {
        CampaignConfig {
            nx: 8,
            ny: 8,
            trials,
            flips_per_trial: 1,
            protection: ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16),
            target,
            seed: 42,
            ..CampaignConfig::default()
        }
    }

    /// Every trial of `config`, streamed.
    fn run(config: CampaignConfig) -> CampaignStats {
        Campaign::new(config)
            .run_streaming(&StreamConfig::default())
            .stats
    }

    #[test]
    fn secded_corrects_or_masks_every_single_flip() {
        for target in FaultTarget::ALL {
            let stats = run(config(EccScheme::Secded64, target, 40));
            assert_eq!(stats.trials(), 40);
            assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{target:?}");
            assert_eq!(
                stats.count(FaultOutcome::DetectedAborted),
                0,
                "{target:?}: single flips must be correctable"
            );
            assert!(stats.safety_rate() == 1.0);
            assert!(
                stats.count(FaultOutcome::Corrected) > 0,
                "{target:?}: expected at least some corrections"
            );
        }
    }

    #[test]
    fn sed_detects_single_flips_without_correcting() {
        let stats = run(config(EccScheme::Sed, FaultTarget::MatrixValues, 40));
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0);
        assert_eq!(stats.count(FaultOutcome::Corrected), 0);
        assert!(stats.count(FaultOutcome::DetectedAborted) > 0);
    }

    #[test]
    fn unprotected_runs_suffer_silent_corruptions() {
        let mut cfg = config(EccScheme::None, FaultTarget::MatrixValues, 60);
        cfg.protection = ProtectionConfig::unprotected();
        // Flip high-order exponent bits often enough to corrupt the answer.
        cfg.flips_per_trial = 3;
        let stats = run(cfg);
        assert!(
            stats.count(FaultOutcome::SilentCorruption) > 0,
            "without protection some flips must corrupt the solution: {stats}"
        );
        assert!(stats.safety_rate() < 1.0);
    }

    #[test]
    fn double_flips_are_detected_by_secded_not_corrected() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::MatrixValues, 40);
        cfg.flips_per_trial = 2;
        let stats = run(cfg);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0);
        // Two flips in the same codeword are uncorrectable; two flips in
        // different codewords are each corrected — both happen.
        assert!(
            stats.count(FaultOutcome::DetectedAborted) > 0
                || stats.count(FaultOutcome::Corrected) > 0
        );
    }

    #[test]
    fn trial_streams_are_independent_of_dispatch_order() {
        // Per-trial seeding: executing trials 0..n in any order, one at a
        // time, reproduces exactly the histogram the streamed run computes.
        let campaign = Campaign::new(config(EccScheme::Secded64, FaultTarget::MatrixValues, 20));
        let batched = campaign.run_streaming(&StreamConfig::default()).stats;
        let mut reversed = CampaignStats::default();
        for trial in (0..20).rev() {
            reversed.record(campaign.execute_draw(&campaign.draw_trial(trial)).outcome);
        }
        assert_eq!(batched, reversed);
    }

    #[test]
    fn chunk_erasure_with_parity_rebuilds_and_converges() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::DenseVector, 8);
        cfg.protection = cfg.protection.with_parity(abft_core::ParityConfig {
            stripe_chunks: 4,
            chunk_words: 16,
        });
        cfg.injection = InjectionKind::ChunkErasure;
        let stats = run(cfg);
        assert_eq!(stats.trials(), 8);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0);
        assert!(
            stats.count(FaultOutcome::DetectedRebuilt) > 0,
            "erasures must be rebuilt from parity: {stats}"
        );
        assert_eq!(stats.count(FaultOutcome::DetectedAborted), 0, "{stats}");
    }

    #[test]
    fn chunk_erasure_without_parity_aborts_instead_of_corrupting() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::DenseVector, 8);
        cfg.injection = InjectionKind::ChunkErasure;
        let stats = run(cfg);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{stats}");
        assert_eq!(stats.count(FaultOutcome::DetectedRebuilt), 0, "{stats}");
        assert!(
            stats.count(FaultOutcome::DetectedAborted) > 0,
            "without parity the erasure must surface as an abort: {stats}"
        );
    }

    #[test]
    #[should_panic(expected = "ChunkErasure trials run CG, not Chebyshev")]
    fn chunk_erasure_refuses_a_method_without_the_poll_hook() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::DenseVector, 1);
        cfg.injection = InjectionKind::ChunkErasure;
        cfg.solver = Method::Chebyshev;
        Campaign::new(cfg);
    }

    #[test]
    fn row_pointer_group_erasure_is_always_detected() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::RowPointer, 12);
        cfg.injection = InjectionKind::RowPointerGroupErasure;
        let stats = run(cfg);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{stats}");
        assert_eq!(stats.count(FaultOutcome::Corrected), 0, "{stats}");
        assert!(stats.safety_rate() == 1.0);
    }

    #[test]
    fn wilson_interval_brackets_the_rate() {
        let (lo, hi) = CampaignStats::wilson(99, 100);
        assert!(lo < 0.99 && 0.99 < hi);
        assert!(
            lo > 0.92,
            "99/100 should have a tight lower bound, got {lo}"
        );
        assert_eq!(CampaignStats::wilson(0, 0), (0.0, 1.0));
        let (lo, hi) = CampaignStats::wilson(0, 50);
        assert!(lo < 1e-12, "degenerate lower bound, got {lo}");
        assert!(hi < 0.12);
        let (lo, hi) = CampaignStats::wilson(50, 50);
        assert!(lo > 0.9);
        assert!(hi > 1.0 - 1e-12, "degenerate upper bound, got {hi}");
    }

    #[test]
    fn crc_handles_burst_errors() {
        let campaign = Campaign::new(config(EccScheme::Crc32c, FaultTarget::MatrixValues, 1));
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..20 {
            let spec = FaultSpec::random_burst(
                &mut rng,
                FaultTarget::MatrixValues,
                campaign.matrix.nnz(),
                5,
            );
            let outcome = campaign.execute_draw(&TrialDraw::Flips(spec)).outcome;
            assert!(
                outcome.is_safe(),
                "burst of 5 must at least be detected, got {outcome:?}"
            );
        }
    }

    #[test]
    fn every_solver_method_is_injectable() {
        // The generic solver layer means the campaign is no longer CG-only:
        // protected Chebyshev and PPCG absorb single flips just as well.
        for method in [Method::Jacobi, Method::Chebyshev, Method::Ppcg] {
            let mut cfg = config(EccScheme::Secded64, FaultTarget::MatrixValues, 12);
            cfg.solver = method;
            let stats = run(cfg);
            assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{method:?}");
            assert!(stats.count(FaultOutcome::Corrected) > 0, "{method:?}");
        }
    }

    #[test]
    fn storage_tiers_absorb_single_flips() {
        // The injection surface is storage-generic: the same campaign run
        // against the COO and blocked-CSR tiers strikes their own redundancy
        // layouts (per-element row indexes, per-block row pointers) and
        // SECDED still corrects every single flip.
        for storage in [StorageTier::Coo, StorageTier::BlockedCsr(4)] {
            for target in [
                FaultTarget::MatrixValues,
                FaultTarget::MatrixColumnIndices,
                FaultTarget::RowPointer,
            ] {
                let mut cfg = config(EccScheme::Secded64, target, 16);
                cfg.storage = storage;
                let stats = run(cfg);
                assert_eq!(stats.trials(), 16, "{storage:?} {target:?}");
                assert_eq!(
                    stats.count(FaultOutcome::SilentCorruption),
                    0,
                    "{storage:?} {target:?}"
                );
                assert_eq!(
                    stats.count(FaultOutcome::DetectedAborted),
                    0,
                    "{storage:?} {target:?}: single flips must be correctable"
                );
                assert!(
                    stats.count(FaultOutcome::Corrected) > 0,
                    "{storage:?} {target:?}: expected at least some corrections"
                );
            }
        }
    }

    #[test]
    fn selective_inner_apply_bursts_never_corrupt_silently() {
        // The selective-reliability claim at campaign scale: an unchecked
        // inner apply whose output is hit by an 8-bit burst costs
        // iterations or trips the outer screen, never the answer.
        let mut cfg = config(EccScheme::Secded64, FaultTarget::DenseVector, 24);
        cfg.injection = InjectionKind::InnerApplyBurst;
        cfg.flips_per_trial = 8;
        cfg.precond_reliability = Reliability::Unreliable;
        let stats = run(cfg);
        assert_eq!(stats.trials(), 24);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{stats}");
        assert_eq!(
            stats.count(FaultOutcome::DetectedAborted),
            0,
            "the unreliable inner tier never fail-stops: {stats}"
        );
    }

    #[test]
    fn protected_factor_flips_are_corrected_in_the_uniform_tier() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::DenseVector, 16);
        cfg.injection = InjectionKind::PrecondFactorFlips;
        cfg.precond_reliability = Reliability::Protected;
        let stats = run(cfg);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{stats}");
        assert_eq!(
            stats.count(FaultOutcome::DetectedAborted),
            0,
            "single factor flips must be SECDED-correctable: {stats}"
        );
        assert!(
            stats.count(FaultOutcome::Corrected) > 0,
            "expected the protected factor store to log corrections: {stats}"
        );
    }

    #[test]
    fn selective_factor_bursts_stay_safe_for_the_polynomial_fallback() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::DenseVector, 16);
        cfg.injection = InjectionKind::PrecondFactorBurst;
        cfg.flips_per_trial = 6;
        cfg.precond = PrecondKind::Polynomial(2);
        cfg.precond_reliability = Reliability::Unreliable;
        let stats = run(cfg);
        assert_eq!(stats.trials(), 16);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{stats}");
    }

    #[test]
    fn stats_bookkeeping() {
        let mut stats = CampaignStats::default();
        stats.record(FaultOutcome::Corrected);
        stats.record(FaultOutcome::Corrected);
        stats.record(FaultOutcome::SilentCorruption);
        assert_eq!(stats.trials(), 3);
        assert_eq!(stats.count(FaultOutcome::Corrected), 2);
        assert!((stats.rate(FaultOutcome::Corrected) - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.safety_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.recovery_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(stats.to_string().contains("corrected"));
        assert_eq!(CampaignStats::default().rate(FaultOutcome::Masked), 0.0);

        let mut other = CampaignStats::default();
        other.record(FaultOutcome::DetectedRebuilt);
        other.merge(&stats);
        assert_eq!(other.trials(), 4);
        assert_eq!(other.count(FaultOutcome::Corrected), 2);
        assert_eq!(other.count(FaultOutcome::DetectedRebuilt), 1);
        // A zero-count add leaves the histogram equal to one without it.
        other.add(FaultOutcome::Masked, 0);
        let mut again = stats.clone();
        again.record(FaultOutcome::DetectedRebuilt);
        assert_eq!(other, again);
    }
}

//! Fault-injection campaigns over the protected CG solver.
//!
//! One trial = build the TeaLeaf conduction system, protect it, inject a
//! fault (bit flips, a burst, or a whole-chunk erasure), run the solve, and
//! classify the outcome against a clean reference solution.  A campaign
//! repeats this with fresh random faults and accumulates an outcome
//! histogram per scheme.
//!
//! Every trial draws from its **own** ChaCha stream keyed by the campaign
//! seed and the trial index, so the histogram is identical for any worker
//! count or dispatch order; trials are dispatched to the shared worker pool
//! in batches whose local counts merge order-independently.
//!
//! A trial is split into two deterministic halves: [`Campaign::draw_trial`]
//! turns (seed, trial index) into a concrete [`TrialDraw`] — every random
//! decision the trial will make — and [`Campaign::execute_draw`] runs that
//! draw against the protected system.  The split is what makes failures
//! *replayable*: a captured draw re-executes bit for bit without the RNG
//! (see [`crate::record`]), and the minimizer shrinks draws by re-executing
//! candidates.  Campaigns at scale run through the streaming engine in
//! [`crate::engine`], which folds outcomes into per-worker accumulators
//! (memory `O(workers)`, not `O(trials)`) and supports adaptive early
//! stopping.

use crate::flip::{FaultSpec, FaultTarget, SolverVectorTarget};
use crate::outcome::FaultOutcome;
use abft_core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, ProtectedMatrix, ProtectedVector,
    ProtectionConfig, StorageTier,
};
use abft_solvers::backends::{FullyProtected, MatrixProtected};
use abft_solvers::{
    cg_with_poll, ChebyshevBounds, FaultContext, Ilu0, LinearOperator, Method, Polynomial,
    PrecondKind, Preconditioner, Reliability, SolveOutcome, Solver, SolverConfig, SolverError,
};
use abft_sparse::CsrMatrix;
use abft_tealeaf::assembly::{assemble_matrix, assemble_rhs, face_coefficients, Conductivity};
use abft_tealeaf::states::apply_states;
use abft_tealeaf::{Deck, Grid};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::collections::HashMap;

/// What one trial injects into the running solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// `flips_per_trial` independent uniformly random bit flips — the
    /// historical single/multi-bit-upset model.
    BitFlips,
    /// One contiguous burst of `flips_per_trial` bits inside one element
    /// (the error class CRC32C targets).
    Burst,
    /// Mid-iteration whole-chunk erasure of dense solver-vector state: a
    /// chunk of the CG direction vector is overwritten with garbage during
    /// an SpMV, modelling a lost shard rather than a bit upset.  Requires
    /// `protection.vectors != None`; recovery additionally requires the
    /// parity tier (`protection.parity`).
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
    counts: HashMap<FaultOutcome, usize>,
    trials: usize,
}

impl CampaignStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: FaultOutcome) {
        *self.counts.entry(outcome).or_default() += 1;
        self.trials += 1;
    }

    /// Records `count` occurrences of `outcome` at once — the bulk entry
    /// point the streaming engine uses to fold a drained per-worker
    /// accumulator into a histogram.  A zero count is a no-op (no empty
    /// entry is created, so histogram equality is unaffected).
    pub fn add(&mut self, outcome: FaultOutcome, count: usize) {
        if count == 0 {
            return;
        }
        *self.counts.entry(outcome).or_default() += count;
        self.trials += count;
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Count for one outcome.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.counts.get(&outcome).copied().unwrap_or(0)
    }

    /// Fraction of trials with this outcome.
    pub fn rate(&self, outcome: FaultOutcome) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / self.trials as f64
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
        for (outcome, count) in &other.counts {
            *self.counts.entry(*outcome).or_default() += count;
        }
        self.trials += other.trials;
    }

    /// Wilson 95 % score interval for the rate of `outcome` — the
    /// uncertainty attached to every streamed campaign count.  Returns the
    /// full `[0, 1]` interval when no trials were recorded.
    pub fn wilson_ci(&self, outcome: FaultOutcome) -> (f64, f64) {
        Self::wilson(self.count(outcome), self.trials)
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
            if self.trials == 0 {
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
}

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
    pub fn new(config: CampaignConfig) -> Self {
        let deck = Deck::standard(config.nx, config.ny, 1);
        let grid = Grid::new(deck.x_cells, deck.y_cells, deck.x_max, deck.y_max);
        let mut density = vec![1.0; grid.cells()];
        let mut energy = vec![1.0; grid.cells()];
        apply_states(&grid, &deck.states, &mut density, &mut energy);
        let coeffs = face_coefficients(&grid, &density, Conductivity::Reciprocal);
        let matrix = assemble_matrix(&grid, &coeffs, deck.dt_init);
        let rhs = assemble_rhs(&density, &energy);
        let reference = Solver::cg()
            .max_iterations(deck.max_iters)
            .tolerance(deck.eps)
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

    /// Runs all trials and returns the outcome histogram.
    ///
    /// Every trial derives its own ChaCha stream from the campaign seed and
    /// the trial index ([`Campaign::run_trial_indexed`]), so trial `t`'s
    /// faults never depend on how many random draws earlier trials made.
    /// Trials run through the streaming engine ([`crate::engine`]): waves of
    /// pool jobs stream their outcomes into per-worker accumulators whose
    /// counts merge order-independently — the totals are identical for any
    /// worker count, batch size, or completion order, and the outcome
    /// memory is `O(workers)` regardless of trial count.  No stop rule and
    /// no failure capture here; use [`Campaign::run_streaming`] for those.
    pub fn run(&self) -> CampaignStats {
        let stream = crate::engine::StreamConfig {
            stop: None,
            capture_limit: 0,
            ..crate::engine::StreamConfig::default()
        };
        self.run_streaming(&stream).stats
    }

    /// Runs trial number `trial` of this campaign: draws the fault from the
    /// trial's own ChaCha stream (keyed by campaign seed and trial index)
    /// and classifies the outcome.
    pub fn run_trial_indexed(&self, trial: usize) -> FaultOutcome {
        self.run_trial_observed(trial).outcome
    }

    /// Runs trial number `trial` and returns the full observation (outcome
    /// plus residual drift) — [`Campaign::draw_trial`] followed by
    /// [`Campaign::execute_draw`].
    pub fn run_trial_observed(&self, trial: usize) -> TrialObservation {
        self.execute_draw(&self.draw_trial(trial))
    }

    /// Makes every random decision of trial number `trial` — from the
    /// trial's own ChaCha stream, keyed by the campaign seed and the trial
    /// index — and returns the resulting concrete injection plan.  Pure:
    /// the same `(config, trial)` always yields the same draw, and the draw
    /// never depends on other trials.
    pub fn draw_trial(&self, trial: usize) -> TrialDraw {
        let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(self.config.seed, trial as u64));
        match self.config.injection {
            InjectionKind::BitFlips => TrialDraw::Flips(FaultSpec::random(
                &mut rng,
                self.config.target,
                self.target_elements(),
                self.config.flips_per_trial,
            )),
            InjectionKind::Burst => {
                let length = (self.config.flips_per_trial.max(1) as u32)
                    .min(self.config.target.element_bits());
                TrialDraw::Flips(FaultSpec::random_burst(
                    &mut rng,
                    self.config.target,
                    self.target_elements(),
                    length,
                ))
            }
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
            InjectionKind::SolverVectorFlips => {
                let vector = SolverVectorTarget::ALL[rng.gen_range(0..3usize)];
                let strike_iteration = u64::from(rng.gen_range(1u32..4));
                let n = self.rhs.len();
                let flips = (0..self.config.flips_per_trial.max(1))
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..64)))
                    .collect();
                TrialDraw::SolverVector {
                    vector,
                    strike_iteration,
                    flips,
                }
            }
            InjectionKind::SolverVectorBurst => {
                let vector = SolverVectorTarget::ALL[rng.gen_range(0..3usize)];
                let strike_iteration = u64::from(rng.gen_range(1u32..4));
                let length = (self.config.flips_per_trial.max(1) as u32).min(64);
                let element = rng.gen_range(0..self.rhs.len());
                let start = rng.gen_range(0..=(64 - length));
                TrialDraw::SolverVector {
                    vector,
                    strike_iteration,
                    flips: (start..start + length).map(|bit| (element, bit)).collect(),
                }
            }
            InjectionKind::PrecondFactorFlips => {
                let factor_count = self.precond_factor_count();
                let flips = (0..self.config.flips_per_trial.max(1))
                    .map(|_| (rng.gen_range(0..factor_count), rng.gen_range(0..64u32)))
                    .collect();
                TrialDraw::PrecondFactors(flips)
            }
            InjectionKind::PrecondFactorBurst => {
                let factor_count = self.precond_factor_count();
                let length = (self.config.flips_per_trial.max(1) as u32).min(64);
                let k = rng.gen_range(0..factor_count);
                let start = rng.gen_range(0..=(64 - length));
                TrialDraw::PrecondFactors((start..start + length).map(|bit| (k, bit)).collect())
            }
            InjectionKind::InnerApplyBurst => {
                let length = (self.config.flips_per_trial.max(1) as u32).min(64);
                TrialDraw::InnerApplyBurst {
                    strike_apply: u64::from(rng.gen_range(1u32..4)),
                    element: rng.gen_range(0..self.rhs.len()),
                    start_bit: rng.gen_range(0..=(64 - length)),
                    length,
                }
            }
        }
    }

    /// Executes a concrete injection plan and classifies what survived.
    /// Deterministic: the same draw always produces the same observation,
    /// which is what [`Campaign::replay`](crate::record) and the failure
    /// minimizer rely on.
    pub fn execute_draw(&self, draw: &TrialDraw) -> TrialObservation {
        match draw {
            TrialDraw::Flips(spec) => self.run_trial_drawn(spec),
            TrialDraw::SolverVector {
                vector,
                strike_iteration,
                flips,
            } => self.run_solver_vector_trial(*vector, *strike_iteration, flips),
            TrialDraw::ChunkErasure {
                chunk,
                chunk_words,
                strike_iteration,
                garbage_seed,
            } => {
                self.run_chunk_erasure_trial(*chunk, *chunk_words, *strike_iteration, *garbage_seed)
            }
            TrialDraw::PrecondFactors(flips) => self.run_precond_trial(flips, None),
            TrialDraw::InnerApplyBurst {
                strike_apply,
                element,
                start_bit,
                length,
            } => self.run_precond_trial(
                &[],
                Some(InjectingPreconditionerSpec {
                    strike_apply: *strike_apply,
                    element: *element,
                    start_bit: *start_bit,
                    length: *length,
                }),
            ),
        }
    }

    /// Number of stored factors of the configured preconditioner — the
    /// element space the factor-flip draws index into.  Builds a throwaway
    /// instance (the count is a property of the sparsity pattern, not of
    /// the trial).  Panics if the preconditioner cannot be built at all:
    /// campaign systems are SPD TeaLeaf assemblies, for which both kinds
    /// always build.
    fn precond_factor_count(&self) -> usize {
        let tier = self.config.precond_reliability;
        let scheme = self.config.protection.elements;
        let backend = self.config.protection.crc_backend;
        match self.config.precond {
            PrecondKind::Ilu0 => Ilu0::new(&self.matrix, tier, scheme, backend)
                .expect("ILU(0) always builds on the SPD campaign system")
                .factor_count(),
            PrecondKind::Polynomial(steps) => {
                Polynomial::new(&self.matrix, steps, tier, scheme, backend)
                    .expect("the polynomial preconditioner always builds")
                    .factor_count()
            }
        }
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

    /// Runs a single trial with the given fault specification.
    pub fn run_trial(&self, spec: &FaultSpec) -> FaultOutcome {
        self.run_trial_drawn(spec).outcome
    }

    fn run_trial_drawn(&self, spec: &FaultSpec) -> TrialObservation {
        match spec.target {
            FaultTarget::DenseVector => self.run_vector_trial(spec),
            _ => self.run_matrix_trial(spec),
        }
    }

    /// Injects a whole-chunk erasure into the solver's direction vector
    /// mid-iteration and lets the rebuild/retry ladder fight it out: the
    /// striking operator poisons one chunk during an SpMV, the solver's
    /// per-kernel retry asks the vector to rebuild from parity, and the
    /// outcome is classified by what survived ([`FaultOutcome::DetectedRebuilt`]
    /// when the rebuild let the solve converge to the right answer).
    fn run_chunk_erasure_trial(
        &self,
        chunk: usize,
        chunk_words: usize,
        strike_iteration: u64,
        garbage_seed: u64,
    ) -> TrialObservation {
        assert_ne!(
            self.config.protection.vectors,
            EccScheme::None,
            "chunk-erasure campaigns need protected vectors (the erasure must be detectable)"
        );
        let protected = match AnyProtectedMatrix::encode(
            &self.matrix,
            &self.config.protection,
            self.config.storage,
        ) {
            Ok(p) => p,
            Err(_) => return aborted(FaultOutcome::DetectedAborted),
        };
        let op = FullyProtected::new(&protected);
        let striking = InjectingOperator {
            inner: &op,
            strike_iteration,
            chunk,
            chunk_words,
            garbage_seed,
            fired: Cell::new(false),
        };
        let max_iterations = match self.config.solver {
            Method::Jacobi => 20_000,
            _ => 2_000,
        };
        let solver = Solver::new(self.config.solver)
            .max_iterations(max_iterations)
            .tolerance(1e-15)
            .bounds(ChebyshevBounds::estimate_gershgorin(&self.matrix));
        match solver.solve_operator(&striking, &self.rhs) {
            Err(SolverError::Fault(AbftError::OutOfRange { .. })) => {
                aborted(FaultOutcome::BoundsCaught)
            }
            Err(_) => aborted(FaultOutcome::DetectedAborted),
            Ok(outcome) => {
                let drift = self.relative_error(&outcome.solution);
                let correct = drift <= self.config.sdc_threshold;
                let classified = if outcome.faults.total_rebuilt() > 0 {
                    if correct {
                        FaultOutcome::DetectedRebuilt
                    } else {
                        FaultOutcome::SilentCorruption
                    }
                } else if outcome.faults.total_corrected() > 0 && correct {
                    FaultOutcome::Corrected
                } else if correct {
                    FaultOutcome::Masked
                } else {
                    FaultOutcome::SilentCorruption
                };
                TrialObservation {
                    outcome: classified,
                    drift,
                }
            }
        }
    }

    /// Plants flips in a live solver vector between two CG iterations (via
    /// the solver's poll hook) and classifies what the protection tier made
    /// of damage to state the solver *owns*: the very next kernel that
    /// reads the struck vector runs the detect/correct/rebuild ladder on
    /// the live recurrence.
    fn run_solver_vector_trial(
        &self,
        vector: SolverVectorTarget,
        strike_iteration: u64,
        flips: &[(usize, u32)],
    ) -> TrialObservation {
        assert_eq!(
            self.config.solver,
            Method::Cg,
            "solver-vector injection rides the CG poll hook, which needs Method::Cg"
        );
        assert_ne!(
            self.config.protection.vectors,
            EccScheme::None,
            "solver-vector campaigns need protected vectors (unprotected live state cannot \
             distinguish detection from luck)"
        );
        let protected = match AnyProtectedMatrix::encode(
            &self.matrix,
            &self.config.protection,
            self.config.storage,
        ) {
            Ok(p) => p,
            Err(_) => return aborted(FaultOutcome::DetectedAborted),
        };
        let op = FullyProtected::new(&protected);
        let log = FaultLog::new();
        let base = FaultContext::with_log(&log);
        let ctx = base.scoped_to(op.reduction_workspace());
        let b = op.vector_from(&self.rhs);
        let config = SolverConfig::new(2_000, 1e-15);
        let fired = Cell::new(false);
        let result = cg_with_poll(&op, &b, &config, &ctx, |iteration, state| {
            if !fired.get() && iteration >= strike_iteration {
                fired.set(true);
                let struck = match vector {
                    SolverVectorTarget::X => state.x,
                    SolverVectorTarget::R => state.r,
                    SolverVectorTarget::P => state.p,
                };
                for &(element, bit) in flips {
                    struck.inject_bit_flip(element, bit);
                }
            }
        });
        match result {
            Err(SolverError::Fault(AbftError::OutOfRange { .. })) => {
                aborted(FaultOutcome::BoundsCaught)
            }
            Err(_) => aborted(FaultOutcome::DetectedAborted),
            Ok((mut x, status)) => {
                let solution = match op.finish(&mut x, &ctx) {
                    Ok(s) => s,
                    Err(_) => return aborted(FaultOutcome::DetectedAborted),
                };
                if !status.converged {
                    // The budget ran out loudly — a detected failure, never
                    // a silent one.
                    return aborted(FaultOutcome::DetectedAborted);
                }
                let drift = self.relative_error(&solution);
                let correct = drift <= self.config.sdc_threshold;
                let faults = log.snapshot();
                let classified = if faults.total_rebuilt() > 0 {
                    if correct {
                        FaultOutcome::DetectedRebuilt
                    } else {
                        FaultOutcome::SilentCorruption
                    }
                } else if faults.total_corrected() > 0 && correct {
                    FaultOutcome::Corrected
                } else if correct {
                    FaultOutcome::Masked
                } else {
                    FaultOutcome::SilentCorruption
                };
                TrialObservation {
                    outcome: classified,
                    drift,
                }
            }
        }
    }

    /// True squared residual `‖b − A·x‖₂²` of a returned solution,
    /// recomputed with the pristine (never-injected) assembly-time matrix —
    /// the same quantity the solvers compare against their tolerance, so
    /// the preconditioned trials' certification check is in the solver's
    /// own units.
    fn true_residual_sq(&self, solution: &[f64]) -> f64 {
        let mut ax = vec![0.0; self.rhs.len()];
        abft_sparse::spmv::spmv_serial(&self.matrix, solution, &mut ax);
        ax.iter()
            .zip(&self.rhs)
            .map(|(a, b)| (b - a) * (b - a))
            .sum::<f64>()
    }

    /// Runs one inner-apply fault trial: builds the preconditioner in the
    /// configured reliability tier, injects the drawn fault into the inner
    /// stage (`flips` into the stored factors pre-solve, and/or a transient
    /// `strike` burst into the inner apply's output mid-solve), runs the
    /// flexible inner-outer FT-PCG solver, and classifies what survived.
    /// The selective claim under test: inner SDC may cost iterations or
    /// trip the outer screen ([`FaultOutcome::BoundsCaught`]), but never
    /// yields a wrong answer.
    fn run_precond_trial(
        &self,
        flips: &[(usize, u32)],
        strike: Option<InjectingPreconditionerSpec>,
    ) -> TrialObservation {
        assert_eq!(
            self.config.solver,
            Method::Cg,
            "preconditioned campaigns run FT-PCG, which needs Method::Cg"
        );
        let protected = match AnyProtectedMatrix::encode(
            &self.matrix,
            &self.config.protection,
            self.config.storage,
        ) {
            Ok(p) => p,
            Err(_) => return aborted(FaultOutcome::DetectedAborted),
        };
        let tier = self.config.precond_reliability;
        let scheme = self.config.protection.elements;
        let backend = self.config.protection.crc_backend;

        // Build concretely (not through `PrecondKind::build`) so the
        // factor-injection hooks stay reachable.
        enum Built {
            Ilu(Ilu0),
            Poly(Polynomial),
        }
        let mut built = match self.config.precond {
            PrecondKind::Ilu0 => match Ilu0::new(&self.matrix, tier, scheme, backend) {
                Ok(p) => Built::Ilu(p),
                Err(_) => return aborted(FaultOutcome::DetectedAborted),
            },
            PrecondKind::Polynomial(steps) => {
                match Polynomial::new(&self.matrix, steps, tier, scheme, backend) {
                    Ok(p) => Built::Poly(p),
                    Err(_) => return aborted(FaultOutcome::DetectedAborted),
                }
            }
        };
        for &(k, bit) in flips {
            match &mut built {
                Built::Ilu(p) => p.inject_factor_bit_flip(k, bit),
                Built::Poly(p) => p.inject_factor_bit_flip(k, bit),
            }
        }

        let inner: &dyn Preconditioner = match &built {
            Built::Ilu(p) => p,
            Built::Poly(p) => p,
        };
        let striking;
        let precond: &dyn Preconditioner = match strike {
            Some(spec) => {
                striking = InjectingPreconditioner {
                    inner,
                    spec,
                    applies: Cell::new(0),
                    fired: Cell::new(false),
                };
                &striking
            }
            None => inner,
        };

        let config = SolverConfig::new(2_000, 1e-15);
        let result = Solver::cg().config(config).solve_encoded(
            &protected,
            &self.rhs,
            Some(precond),
            &FaultLog::new(),
        );
        match result {
            Err(SolverError::Fault(AbftError::OutOfRange { .. })) => {
                aborted(FaultOutcome::BoundsCaught)
            }
            Err(_) => aborted(FaultOutcome::DetectedAborted),
            Ok(SolveOutcome {
                solution,
                status,
                faults,
            }) => {
                // FT-PCG declares convergence when the *squared* recurrence
                // residual drops below the absolute tolerance, so that is
                // exactly what a converged return certifies — recompute the
                // same quantity against the pristine operator and allow a
                // margin (1e6 squared = three orders of magnitude in the
                // norm) for recurrence drift over a long solve.  Genuine
                // corruption lands many orders above this line; honest
                // converged solves land well below it.
                //
                // The selective-reliability contract is residual-certified:
                // an inner fault may cost iterations (or stall the solve,
                // which the caller sees as `converged = false` — a detected
                // failure, never a silent one), but a *converged* return
                // whose true residual, recomputed against the pristine
                // operator, misses the certification is a silent
                // corruption.  Distance to a reference solution is the
                // wrong metric here: a distorted but benign preconditioner
                // legitimately changes the iteration path, so two correct
                // answers agree only up to conditioning-amplified rounding.
                if !status.converged {
                    return aborted(FaultOutcome::DetectedAborted);
                }
                let residual_sq = self.true_residual_sq(&solution);
                // Drift for preconditioned trials is the *relative true
                // residual* (distance to the reference solution is the
                // wrong metric here — see above).
                let b_norm: f64 = self.rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
                let drift = if b_norm == 0.0 {
                    residual_sq.sqrt()
                } else {
                    residual_sq.sqrt() / b_norm
                };
                if residual_sq > config.tolerance * 1e6 {
                    return TrialObservation {
                        outcome: FaultOutcome::SilentCorruption,
                        drift,
                    };
                }
                let screened: u64 = faults.bounds_violations.iter().sum();
                let classified = if screened > 0 {
                    FaultOutcome::BoundsCaught
                } else if faults.total_rebuilt() > 0 {
                    FaultOutcome::DetectedRebuilt
                } else if faults.total_corrected() > 0 {
                    FaultOutcome::Corrected
                } else {
                    FaultOutcome::Masked
                };
                TrialObservation {
                    outcome: classified,
                    drift,
                }
            }
        }
    }

    fn run_matrix_trial(&self, spec: &FaultSpec) -> TrialObservation {
        let mut protected = match AnyProtectedMatrix::encode(
            &self.matrix,
            &self.config.protection,
            self.config.storage,
        ) {
            Ok(p) => p,
            Err(_) => return aborted(FaultOutcome::DetectedAborted),
        };
        for &(element, bit) in &spec.flips {
            match spec.target {
                FaultTarget::MatrixValues => protected.inject_value_bit_flip(element, bit),
                FaultTarget::MatrixColumnIndices => protected.inject_col_bit_flip(element, bit),
                FaultTarget::RowPointer => protected.inject_structure_bit_flip(element, bit),
                FaultTarget::DenseVector => unreachable!(),
            }
        }
        // Jacobi needs a much larger iteration budget than the Krylov /
        // Chebyshev methods; keep the cap tight for the others so stalled
        // trials (e.g. an undetected corruption under no protection) don't
        // burn 10x the iterations for nothing.
        let max_iterations = match self.config.solver {
            Method::Jacobi => 20_000,
            _ => 2_000,
        };
        // Spectral bounds are estimated from the *clean* matrix (TeaLeaf
        // derives them at assembly time, before any upset can strike) — the
        // corrupted copy could yield arbitrarily bad bounds and stall the
        // Chebyshev-type methods.
        let solver = Solver::new(self.config.solver)
            .max_iterations(max_iterations)
            .tolerance(1e-15)
            .bounds(ChebyshevBounds::estimate_gershgorin(&self.matrix));
        match solver.solve_operator(&MatrixProtected::new(&protected), &self.rhs) {
            Err(SolverError::Fault(AbftError::OutOfRange { .. })) => {
                aborted(FaultOutcome::BoundsCaught)
            }
            Err(_) => aborted(FaultOutcome::DetectedAborted),
            Ok(outcome) => {
                let drift = self.relative_error(&outcome.solution);
                let classified = if outcome.faults.total_corrected() > 0 {
                    FaultOutcome::Corrected
                } else if drift <= self.config.sdc_threshold {
                    FaultOutcome::Masked
                } else {
                    FaultOutcome::SilentCorruption
                };
                TrialObservation {
                    outcome: classified,
                    drift,
                }
            }
        }
    }

    fn run_vector_trial(&self, spec: &FaultSpec) -> TrialObservation {
        let log = FaultLog::new();
        let scheme = self.config.protection.vectors;
        let backend = self.config.protection.crc_backend;
        let mut vector = ProtectedVector::from_slice(&self.rhs, scheme, backend);
        let clean: Vec<f64> = (0..vector.len()).map(|i| vector.get(i)).collect();
        for &(element, bit) in &spec.flips {
            vector.inject_bit_flip(element, bit);
        }
        match vector.scrub(&log) {
            Err(_) => aborted(FaultOutcome::DetectedAborted),
            Ok(_) => {
                let recovered: Vec<f64> = (0..vector.len()).map(|i| vector.get(i)).collect();
                let max_rel = clean
                    .iter()
                    .zip(&recovered)
                    .map(|(a, b)| {
                        if *a == 0.0 {
                            (a - b).abs()
                        } else {
                            ((a - b) / a).abs()
                        }
                    })
                    .fold(0.0f64, f64::max);
                let classified =
                    if log.total_corrected() > 0 && max_rel <= self.config.sdc_threshold {
                        FaultOutcome::Corrected
                    } else if max_rel <= self.config.sdc_threshold {
                        FaultOutcome::Masked
                    } else {
                        FaultOutcome::SilentCorruption
                    };
                TrialObservation {
                    outcome: classified,
                    drift: max_rel,
                }
            }
        }
    }

    fn relative_error(&self, solution: &[f64]) -> f64 {
        relative_distance(&self.reference, solution)
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

/// Wraps a protected operator and poisons one chunk of the *input* vector
/// the first time the solver applies it at (or past) the strike iteration —
/// the mid-iteration erasure of live solver state.  Everything else
/// delegates unchanged, so the solve is exactly the production stack with
/// one shard yanked out from under it.
struct InjectingOperator<'a, Op> {
    inner: &'a Op,
    strike_iteration: u64,
    chunk: usize,
    chunk_words: usize,
    garbage_seed: u64,
    fired: Cell<bool>,
}

impl<Op: LinearOperator<Vector = ProtectedVector>> LinearOperator for InjectingOperator<'_, Op> {
    type Vector = ProtectedVector;

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(
        &self,
        x: &mut ProtectedVector,
        y: &mut ProtectedVector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        if !self.fired.get() && iteration >= self.strike_iteration {
            self.fired.set(true);
            x.inject_chunk_erasure(self.chunk_words, self.chunk, self.garbage_seed);
        }
        self.inner.apply(x, y, iteration, ctx)
    }

    fn diagonal(&self, ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        self.inner.diagonal(ctx)
    }

    fn vector_from(&self, values: &[f64]) -> ProtectedVector {
        self.inner.vector_from(values)
    }

    fn zero_vector(&self, n: usize) -> ProtectedVector {
        self.inner.zero_vector(n)
    }

    fn bounds_hint(&self) -> Option<ChebyshevBounds> {
        self.inner.bounds_hint()
    }

    fn reduction_workspace(&self) -> Option<&std::cell::RefCell<abft_core::ReductionWorkspace>> {
        self.inner.reduction_workspace()
    }

    fn finish(
        &self,
        solution: &mut ProtectedVector,
        ctx: &FaultContext,
    ) -> Result<Vec<f64>, SolverError> {
        self.inner.finish(solution, ctx)
    }
}

/// Where and how [`InjectingPreconditioner`] strikes.
#[derive(Debug, Clone, Copy)]
struct InjectingPreconditionerSpec {
    /// Zero-based inner-apply call at (or past) which the burst fires once.
    strike_apply: u64,
    /// Element of the inner apply's output vector to corrupt.
    element: usize,
    /// First bit of the contiguous burst.
    start_bit: u32,
    /// Burst length in bits.
    length: u32,
}

/// Wraps a preconditioner and writes one bit burst into the output vector
/// `z` the first time the apply counter reaches the strike point — after
/// the inner stage produced its answer, before the protected outer
/// iteration screens it.  Everything else delegates unchanged, so the
/// solve exercises the exact production reliability boundary.
struct InjectingPreconditioner<'a> {
    inner: &'a dyn Preconditioner,
    spec: InjectingPreconditionerSpec,
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
        if !self.fired.get() && call >= self.spec.strike_apply {
            self.fired.set(true);
            let mut bits = z[self.spec.element].to_bits();
            for offset in 0..self.spec.length {
                bits ^= 1u64 << (self.spec.start_bit + offset);
            }
            z[self.spec.element] = f64::from_bits(bits);
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

    #[test]
    fn secded_corrects_or_masks_every_single_flip() {
        for target in FaultTarget::ALL {
            let campaign = Campaign::new(config(EccScheme::Secded64, target, 40));
            let stats = campaign.run();
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
        let campaign = Campaign::new(config(EccScheme::Sed, FaultTarget::MatrixValues, 40));
        let stats = campaign.run();
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
        let campaign = Campaign::new(cfg);
        let stats = campaign.run();
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
        let campaign = Campaign::new(cfg);
        let stats = campaign.run();
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
        // Per-trial seeding: running trials 0..n in any order, or one at a
        // time, reproduces exactly the histogram `run()` computes.
        let campaign = Campaign::new(config(EccScheme::Secded64, FaultTarget::MatrixValues, 20));
        let batched = campaign.run();
        let mut reversed = CampaignStats::default();
        for trial in (0..20).rev() {
            reversed.record(campaign.run_trial_indexed(trial));
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
        let stats = Campaign::new(cfg).run();
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
        let stats = Campaign::new(cfg).run();
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{stats}");
        assert_eq!(stats.count(FaultOutcome::DetectedRebuilt), 0, "{stats}");
        assert!(
            stats.count(FaultOutcome::DetectedAborted) > 0,
            "without parity the erasure must surface as an abort: {stats}"
        );
    }

    #[test]
    fn row_pointer_group_erasure_is_always_detected() {
        let mut cfg = config(EccScheme::Secded64, FaultTarget::RowPointer, 12);
        cfg.injection = InjectionKind::RowPointerGroupErasure;
        let stats = Campaign::new(cfg).run();
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
            let outcome = campaign.run_trial(&spec);
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
            let stats = Campaign::new(cfg).run();
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
                let stats = Campaign::new(cfg).run();
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
        let stats = Campaign::new(cfg).run();
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
        let stats = Campaign::new(cfg).run();
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
        let stats = Campaign::new(cfg).run();
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
    }
}

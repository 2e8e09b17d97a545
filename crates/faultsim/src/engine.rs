//! The streaming campaign engine: million-trial fault-injection campaigns
//! in `O(workers)` outcome memory, with adaptive early stopping.
//!
//! [`Campaign::run_streaming`] shards trials across the `abft-serve` job
//! pool in waves.  Each job executes its trials ([`Campaign::draw_trial`]
//! then [`Campaign::execute_draw`]) and folds their observations into one
//! of a fixed set of per-worker accumulators — running outcome counts and a
//! residual-drift histogram in relaxed atomics, no per-trial `Vec` anywhere —
//! so a `trials: 1_000_000` campaign differs from a 1 000-trial one only in
//! wall clock.  Because every trial draws from its own ChaCha stream keyed
//! by `(seed, trial index)` (see [`Campaign::draw_trial`]), the merged
//! totals are bitwise identical for any worker count, wave size, or
//! completion order.
//!
//! **Merge discipline.** Jobs write counters with relaxed atomics; the wave
//! barrier ([`abft_serve::submit_batch`]) completes every job's `Ticket`
//! handshake (a mutex release/acquire per job) before the caller reads, so
//! draining accumulators between waves is race-free and sees exactly the
//! trials dispatched so far.  Accumulator totals are sums of per-trial
//! `+1`s, and integer addition is commutative — which shard a trial lands
//! in cannot change any total.
//!
//! **Stop-rule validity.** A [`StopRule`] is evaluated only at wave
//! boundaries.  Peeking at a 95 % Wilson bound after every wave would
//! inflate the error probability (each look is another chance to cross by
//! luck), so the engine spends its error budget à la Bonferroni: with `K`
//! planned looks (`ceil(max_trials / batch)`) each look uses the critical
//! value `z = Φ⁻¹(1 − α/(2K))` — computed by [`normal_quantile`] — making
//! the probability that *any* look's corrected bound crosses a true-rate
//! boundary at most `α`.  `K` counts every wave the campaign could run, a
//! conservative overcount of the looks actually taken, so stopping early
//! never invalidates the bound.  The price is a modestly wider interval
//! (for `α = 0.05`, `K = 245`: `z ≈ 3.72` instead of `1.96`).

use crate::campaign::{Campaign, CampaignStats, TrialObservation, WILSON_Z95};
use crate::outcome::FaultOutcome;
use crate::record::TrialRecord;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of buckets in the residual-drift histogram: bucket 0 is "no
/// answer" (aborted trials, drift `NaN`), bucket 1 is drift ≤ 1e-16, then
/// one bucket per decade up to the ≥ 1e2 overflow bucket.
pub const DRIFT_BUCKETS: usize = 21;

/// A fixed-size histogram of how far returned answers drifted (see
/// [`TrialObservation::drift`]).  Logarithmic decade buckets: campaigns
/// care about "how many trials drifted past 1e-9", not about exact values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriftHistogram {
    buckets: [u64; DRIFT_BUCKETS],
}

impl DriftHistogram {
    /// The bucket a drift value falls into.
    pub fn bucket_of(drift: f64) -> usize {
        if !drift.is_finite() {
            return 0;
        }
        if drift <= 1e-16 {
            return 1;
        }
        if drift >= 1e2 {
            return DRIFT_BUCKETS - 1;
        }
        // Decades [1e-16, 1e2) map onto buckets 2..DRIFT_BUCKETS-1.
        let decade = drift.log10().floor() as i64;
        (2 + (decade + 16)) as usize
    }

    /// Records one drift value.
    pub fn record(&mut self, drift: f64) {
        self.buckets[Self::bucket_of(drift)] += 1;
    }

    /// Count in one bucket.
    pub fn count(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &DriftHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Human-readable bucket label (`"no answer"`, `"<=1e-16"`,
    /// `"[1e-9,1e-8)"`, `">=1e2"`).
    pub fn label(bucket: usize) -> String {
        match bucket {
            0 => "no answer".to_string(),
            1 => "<=1e-16".to_string(),
            b if b == DRIFT_BUCKETS - 1 => ">=1e2".to_string(),
            b => {
                let lo = b as i64 - 2 - 16;
                format!("[1e{},1e{})", lo, lo + 1)
            }
        }
    }
}

/// One worker's streaming outcome accumulator.  The hot path — outcome
/// counts and the drift histogram — is lock-free (relaxed atomic adds);
/// only the *capture* of non-safe trial indices takes a mutex, and that
/// path runs at most `capture_limit` times per campaign (safe trials never
/// touch it).  Memory is a fixed few hundred bytes per worker, independent
/// of trial count.
#[derive(Debug)]
pub(crate) struct CampaignAccumulator {
    counts: [AtomicU64; FaultOutcome::ALL.len()],
    drift: [AtomicU64; DRIFT_BUCKETS],
    captured: std::sync::Mutex<Vec<usize>>,
    capture_limit: usize,
    /// Cheap lock-avoidance gate for the capture path: once at least
    /// `capture_limit` non-safe trials have been seen, later ones skip the
    /// mutex entirely.
    capture_count: AtomicUsize,
}

impl CampaignAccumulator {
    /// A zeroed accumulator that will capture at most `capture_limit`
    /// non-safe trial indices.
    pub fn new(capture_limit: usize) -> Self {
        CampaignAccumulator {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            drift: std::array::from_fn(|_| AtomicU64::new(0)),
            captured: std::sync::Mutex::new(Vec::new()),
            capture_limit,
            capture_count: AtomicUsize::new(0),
        }
    }

    /// Folds one trial's observation in.  Lock-free except when the outcome
    /// is non-safe and the capture budget is not yet exhausted.
    pub fn record(&self, trial: usize, observation: TrialObservation) {
        self.counts[observation.outcome as usize].fetch_add(1, Ordering::Relaxed);
        self.drift[DriftHistogram::bucket_of(observation.drift)].fetch_add(1, Ordering::Relaxed);
        if !observation.outcome.is_safe()
            && self.capture_count.fetch_add(1, Ordering::Relaxed) < self.capture_limit
        {
            let mut captured = self.captured.lock().expect("capture list poisoned");
            if captured.len() < self.capture_limit {
                captured.push(trial);
            }
        }
    }

    /// Reads the accumulated counts into a [`CampaignStats`] histogram and
    /// a [`DriftHistogram`].  Callers must have a happens-before edge on
    /// the writers (the wave barrier provides it).
    pub fn snapshot(&self) -> (CampaignStats, DriftHistogram) {
        let mut stats = CampaignStats::default();
        for (index, outcome) in FaultOutcome::ALL.into_iter().enumerate() {
            stats.add(outcome, self.counts[index].load(Ordering::Relaxed) as usize);
        }
        let mut drift = DriftHistogram::default();
        for (bucket, count) in self.drift.iter().enumerate() {
            drift.buckets[bucket] = count.load(Ordering::Relaxed);
        }
        (stats, drift)
    }

    /// The captured non-safe trial indices (at most `capture_limit`).
    pub fn captured(&self) -> Vec<usize> {
        self.captured.lock().expect("capture list poisoned").clone()
    }
}

/// Merges every accumulator's outcome counts (a stop-rule peek; the final
/// drain also merges drift and captures).
fn merged_stats(accumulators: &[CampaignAccumulator]) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for accumulator in accumulators {
        let (s, _) = accumulator.snapshot();
        stats.merge(&s);
    }
    stats
}

/// Adaptive early-stopping rule for a streamed campaign, evaluated at wave
/// boundaries on the **safety rate** (1 − silent-corruption rate) with a
/// spending-corrected Wilson bound (see the module docs for the validity
/// argument).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Stop with [`StopDecision::TargetMet`] once the corrected Wilson
    /// *lower* bound on the safety rate reaches this target — the campaign
    /// has proven "at least this safe" and more trials add nothing.
    pub target_safety_lb: f64,
    /// Never evaluate the rule before this many trials have run (guards
    /// against tiny-sample stops in either direction).
    pub min_trials: usize,
    /// Total error-probability budget spent across all looks (Bonferroni).
    pub alpha: f64,
}

impl StopRule {
    /// A rule targeting the given safety-rate lower bound, with the
    /// defaults `min_trials = 1000` and `alpha = 0.05`.
    pub fn target(target_safety_lb: f64) -> Self {
        StopRule {
            target_safety_lb,
            min_trials: 1000,
            alpha: 0.05,
        }
    }
}

/// Why a streamed campaign stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopDecision {
    /// The corrected Wilson lower bound on the safety rate reached the
    /// target: the claim is proven, remaining trials were skipped.
    TargetMet,
    /// The corrected Wilson *upper* bound fell below the target: no number
    /// of further trials could rescue the claim, so the campaign aborted
    /// fast — the regression signal.
    Futile,
    /// All requested trials ran (no rule, or the rule never triggered).
    Exhausted,
}

/// How a streamed campaign is sharded and what it does along the way.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Trials per wave; the stop rule is evaluated at wave boundaries.
    pub batch: usize,
    /// Trials per pool job: large enough to amortise submission, small
    /// enough that jobs overlap on a few workers.
    pub trials_per_job: usize,
    /// At most this many non-safe trials are captured (and minimized into
    /// replayable [`TrialRecord`]s) across the whole campaign.  The default
    /// captures nothing.
    pub capture_limit: usize,
    /// Early-stopping rule, if any.
    pub stop: Option<StopRule>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch: 4096,
            trials_per_job: 16,
            capture_limit: 0,
            stop: None,
        }
    }
}

/// What a streamed campaign reports back.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The merged outcome histogram over every trial that ran.
    pub stats: CampaignStats,
    /// The merged residual-drift histogram.
    pub drift: DriftHistogram,
    /// Why the campaign stopped.
    pub decision: StopDecision,
    /// Trials actually executed (`<= max` requested when a rule fired).
    pub trials_run: usize,
    /// Wave boundaries at which the stop rule was actually evaluated.
    pub looks: usize,
    /// Planned looks `K` the error budget was spent over.
    pub planned_looks: usize,
    /// The spending-corrected critical value used at each look (the plain
    /// Wilson 95 % `z` when no rule was set).
    pub look_z: f64,
    /// Corrected Wilson lower bound on the safety rate at stop time.
    pub safety_lb: f64,
    /// Trial indices of captured non-safe outcomes (sorted, at most
    /// `capture_limit`).
    pub captured: Vec<usize>,
    /// Minimized, replayable records of the captured failures, one per
    /// entry of `captured`.
    pub records: Vec<TrialRecord>,
}

/// Inverse standard-normal CDF `Φ⁻¹(p)` by Acklam's rational approximation
/// (relative error below 1.2e-9 over the open unit interval) — enough to
/// turn a Bonferroni-spent tail probability into a critical value without
/// an external stats dependency.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile needs 0 < p < 1, got {p}"
    );
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Streams up to `trials` executions of `trial_fn` through the shared job
/// pool, folding observations into per-worker accumulators (see the module
/// docs).  `trial_fn(t)` must be a pure function of the trial index `t` —
/// that is what makes the totals independent of sharding.  Returns with
/// `records` empty; [`Campaign::run_streaming`] fills it.
pub(crate) fn run_stream<F>(trials: usize, config: &StreamConfig, trial_fn: F) -> StreamReport
where
    F: Fn(usize) -> TrialObservation + Send + Sync + 'static,
{
    let slots = abft_serve::workers();
    let trials_per_job = config.trials_per_job.max(1);
    let batch = config.batch.max(trials_per_job);
    let accumulators: Arc<Vec<CampaignAccumulator>> = Arc::new(
        (0..slots)
            .map(|_| CampaignAccumulator::new(config.capture_limit))
            .collect(),
    );
    let trial_fn = Arc::new(trial_fn);
    let planned_looks = trials.div_ceil(batch).max(1);
    let look_z = match config.stop {
        Some(rule) => normal_quantile(1.0 - rule.alpha / (2.0 * planned_looks as f64)),
        None => WILSON_Z95,
    };

    let mut dispatched = 0usize;
    let mut job_index = 0usize;
    let mut looks = 0usize;
    let mut decision = StopDecision::Exhausted;
    while dispatched < trials {
        let wave_end = (dispatched + batch).min(trials);
        let mut jobs = Vec::with_capacity(batch.div_ceil(trials_per_job));
        let mut lo = dispatched;
        while lo < wave_end {
            let hi = (lo + trials_per_job).min(wave_end);
            let accumulators = Arc::clone(&accumulators);
            let trial_fn = Arc::clone(&trial_fn);
            let slot = job_index % slots;
            jobs.push(move || {
                for trial in lo..hi {
                    accumulators[slot].record(trial, trial_fn(trial));
                }
            });
            job_index += 1;
            lo = hi;
        }
        abft_serve::submit_batch(jobs);
        dispatched = wave_end;

        if let Some(rule) = config.stop {
            if dispatched >= rule.min_trials {
                looks += 1;
                let stats = merged_stats(&accumulators);
                let safe = stats.trials() - stats.count(FaultOutcome::SilentCorruption);
                let (lb, ub) = CampaignStats::wilson_with_z(safe, stats.trials(), look_z);
                if lb >= rule.target_safety_lb {
                    decision = StopDecision::TargetMet;
                    break;
                }
                if ub < rule.target_safety_lb {
                    decision = StopDecision::Futile;
                    break;
                }
            }
        }
    }

    let mut stats = CampaignStats::default();
    let mut drift = DriftHistogram::default();
    let mut captured = Vec::new();
    for accumulator in accumulators.iter() {
        let (s, d) = accumulator.snapshot();
        stats.merge(&s);
        drift.merge(&d);
        captured.extend(accumulator.captured());
    }
    captured.sort_unstable();
    captured.truncate(config.capture_limit);
    let safe = stats.trials() - stats.count(FaultOutcome::SilentCorruption);
    let (safety_lb, _) = CampaignStats::wilson_with_z(safe, stats.trials(), look_z);
    StreamReport {
        trials_run: stats.trials(),
        stats,
        drift,
        decision,
        looks,
        planned_looks,
        look_z,
        safety_lb,
        captured,
        records: Vec::new(),
    }
}

impl Campaign {
    /// Runs this campaign through the streaming engine: up to
    /// `config().trials` trials sharded across the job pool in waves, with
    /// `stream.stop` evaluated at wave boundaries, and every captured
    /// non-safe trial minimized into a replayable [`TrialRecord`].
    pub fn run_streaming(&self, stream: &StreamConfig) -> StreamReport {
        let shared = Arc::new(self.clone());
        let worker = Arc::clone(&shared);
        let mut report = run_stream(self.config().trials, stream, move |trial| {
            worker.execute_draw(&worker.draw_trial(trial))
        });
        report.records = report
            .captured
            .iter()
            .map(|&trial| shared.minimize_trial(trial))
            .collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_histogram_buckets_cover_the_axis() {
        assert_eq!(DriftHistogram::bucket_of(f64::NAN), 0);
        assert_eq!(DriftHistogram::bucket_of(f64::INFINITY), 0);
        assert_eq!(DriftHistogram::bucket_of(0.0), 1);
        assert_eq!(DriftHistogram::bucket_of(1e-17), 1);
        assert_eq!(DriftHistogram::bucket_of(2e-16), 2);
        assert_eq!(DriftHistogram::bucket_of(5e-3), 15);
        assert_eq!(DriftHistogram::bucket_of(99.0), 19);
        assert_eq!(DriftHistogram::bucket_of(1e2), DRIFT_BUCKETS - 1);
        assert_eq!(DriftHistogram::bucket_of(1e300), DRIFT_BUCKETS - 1);
        assert_eq!(DriftHistogram::label(0), "no answer");
        assert_eq!(DriftHistogram::label(1), "<=1e-16");
        assert_eq!(DriftHistogram::label(15), "[1e-3,1e-2)");
        assert_eq!(DriftHistogram::label(DRIFT_BUCKETS - 1), ">=1e2");
        let mut h = DriftHistogram::default();
        h.record(5e-3);
        h.record(f64::NAN);
        let mut other = DriftHistogram::default();
        other.record(5e-3);
        h.merge(&other);
        assert_eq!(h.count(15), 2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn normal_quantile_matches_known_critical_values() {
        assert!((normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-7);
        assert!((normal_quantile(0.995) - 2.575_829_303_548_901).abs() < 1e-7);
        assert!((normal_quantile(0.5)).abs() < 1e-12);
        // Symmetry and deep-tail sanity.
        assert!((normal_quantile(0.025) + normal_quantile(0.975)).abs() < 1e-7);
        let deep = normal_quantile(1.0 - 0.05 / (2.0 * 245.0));
        assert!(deep > 3.4 && deep < 4.0, "Bonferroni z for K=245: {deep}");
        // More looks always widens the interval.
        assert!(normal_quantile(1.0 - 0.025 / 100.0) > normal_quantile(1.0 - 0.025 / 10.0));
    }

    #[test]
    fn accumulator_counts_are_sharding_independent() {
        let observations: Vec<TrialObservation> = (0..1000)
            .map(|t| TrialObservation {
                outcome: FaultOutcome::ALL[t % FaultOutcome::ALL.len()],
                drift: if t % 7 == 0 {
                    f64::NAN
                } else {
                    1e-12 * t as f64
                },
            })
            .collect();
        let sequential = CampaignAccumulator::new(64);
        for (t, &obs) in observations.iter().enumerate() {
            sequential.record(t, obs);
        }
        for shards in [1usize, 2, 8] {
            let accumulators: Vec<CampaignAccumulator> =
                (0..shards).map(|_| CampaignAccumulator::new(64)).collect();
            for (t, &obs) in observations.iter().enumerate() {
                accumulators[t % shards].record(t, obs);
            }
            let mut stats = CampaignStats::default();
            let mut drift = DriftHistogram::default();
            for accumulator in &accumulators {
                let (s, d) = accumulator.snapshot();
                stats.merge(&s);
                drift.merge(&d);
            }
            let (expected_stats, expected_drift) = sequential.snapshot();
            assert_eq!(stats, expected_stats, "{shards} shards");
            assert_eq!(drift, expected_drift, "{shards} shards");
        }
    }

    #[test]
    fn capture_respects_the_limit_and_skips_safe_trials() {
        let accumulator = CampaignAccumulator::new(3);
        for t in 0..100 {
            let outcome = if t % 2 == 0 {
                FaultOutcome::SilentCorruption
            } else {
                FaultOutcome::Corrected
            };
            accumulator.record(
                t,
                TrialObservation {
                    outcome,
                    drift: 1.0,
                },
            );
        }
        let captured = accumulator.captured();
        assert_eq!(captured.len(), 3);
        assert!(captured.iter().all(|t| t % 2 == 0));
    }
}

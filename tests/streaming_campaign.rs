//! Acceptance tests for the streaming campaign engine: O(workers) outcome
//! memory, sharding-independent counts, adaptive early stopping, and
//! capture → minimize → replay of non-safe trials.
//!
//! The whole binary runs under a peak-live-bytes tracking allocator so the
//! memory claim is pinned by an actual allocation measurement, not an
//! estimate; tests that measure memory serialize on a mutex so concurrent
//! tests cannot inflate each other's peaks.

use abft_suite::faultsim::{
    Campaign, CampaignConfig, CampaignStats, FailureCorpus, InjectionKind, StopDecision, StopRule,
    StreamConfig,
};
use abft_suite::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes right now (all threads).
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakTracking;

unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Serializes tests so one test's allocations cannot show up in another's
/// peak measurement.
static MEASURE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    MEASURE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` and returns how far the live heap grew above its starting
/// point while `f` ran.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = CURRENT.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let result = f();
    let peak = PEAK.load(Ordering::SeqCst);
    (result, peak.saturating_sub(baseline))
}

fn bitflip_campaign(trials: usize, seed: u64) -> Campaign {
    Campaign::new(CampaignConfig {
        nx: 8,
        ny: 8,
        trials,
        protection: ProtectionConfig::full(EccScheme::Secded64),
        target: FaultTarget::MatrixValues,
        injection: InjectionKind::BitFlips,
        flips_per_trial: 1,
        seed,
        ..CampaignConfig::default()
    })
}

/// An unprotected campaign whose silent-corruption rate is far from any
/// ambitious safety target — the futility and capture scenarios.
fn unprotected_campaign(trials: usize) -> Campaign {
    Campaign::new(CampaignConfig {
        nx: 8,
        ny: 8,
        trials,
        protection: ProtectionConfig::unprotected(),
        target: FaultTarget::MatrixValues,
        injection: InjectionKind::BitFlips,
        flips_per_trial: 3,
        seed: 0xBAD5EED,
        ..CampaignConfig::default()
    })
}

/// Outcome memory must not scale with trial count: a 10x larger campaign
/// may not grow the peak live heap beyond wave-bookkeeping noise.
#[test]
fn streamed_peak_memory_is_independent_of_trial_count() {
    let _guard = lock();
    let stream = StreamConfig::default();
    let small = bitflip_campaign(4_000, 0xABF7);
    let (report_small, peak_small) = peak_growth(|| small.run_streaming(&stream));
    assert_eq!(report_small.trials_run, 4_000);

    let large = bitflip_campaign(40_000, 0xABF7);
    let (report_large, peak_large) = peak_growth(|| large.run_streaming(&stream));
    assert_eq!(report_large.trials_run, 40_000);

    // Identical per-wave bookkeeping, 10x the trials: the peak may wobble
    // (allocator reuse, wave scheduling) but must not scale with trials.
    // 10x the trials with O(trials) state would blow far past this bound.
    assert!(
        peak_large < 2 * peak_small + (1 << 20),
        "peak grew with trial count: {peak_small} B at 4k trials, {peak_large} B at 40k"
    );

    // Sanity: the small prefix of the larger campaign agrees with the
    // small campaign (same seed, same per-trial streams).
    assert_eq!(report_small.stats.trials(), 4_000);
    assert!(report_large.stats.trials() == 40_000);
}

/// Early stopping: a protected campaign proves a modest safety target at
/// the first permitted look and skips the rest of a large trial budget.
#[test]
fn stop_rule_target_met_stops_before_max_trials() {
    let _guard = lock();
    let campaign = bitflip_campaign(50_000, 0xABF7);
    let stream = StreamConfig {
        stop: Some(StopRule {
            target_safety_lb: 0.9,
            min_trials: 1_000,
            alpha: 0.05,
        }),
        ..StreamConfig::default()
    };
    let report = campaign.run_streaming(&stream);
    assert_eq!(report.decision, StopDecision::TargetMet);
    assert!(
        report.trials_run < 50_000,
        "early stop should skip most of the budget, ran {}",
        report.trials_run
    );
    assert!(report.looks >= 1 && report.looks <= report.planned_looks);
    assert!(
        report.look_z > 1.96,
        "spending correction must widen the look, z = {}",
        report.look_z
    );
    assert!(report.safety_lb >= 0.9);
}

/// Futility stopping: when the safety rate is hopelessly below the target,
/// the corrected *upper* bound falls under it and the campaign aborts fast
/// instead of burning the full budget — the regression signal.
#[test]
fn stop_rule_futility_aborts_a_hopeless_campaign() {
    let _guard = lock();
    let campaign = unprotected_campaign(20_000);
    let stream = StreamConfig {
        batch: 512,
        stop: Some(StopRule {
            target_safety_lb: 0.999,
            min_trials: 200,
            alpha: 0.05,
        }),
        ..StreamConfig::default()
    };
    let report = campaign.run_streaming(&stream);
    assert_eq!(report.decision, StopDecision::Futile);
    assert!(
        report.trials_run <= 2_048,
        "futility should fire within a few waves, ran {}",
        report.trials_run
    );
    // The unprotected campaign must actually have leaked corruption.
    assert!(report.stats.count(FaultOutcome::SilentCorruption) > 0);
}

/// Every captured non-safe trial minimizes into a record that replays
/// bit-for-bit, and the corpus round-trips through FAILURES.json.
#[test]
fn captured_failures_minimize_and_replay_exactly() {
    let _guard = lock();
    let campaign = unprotected_campaign(400);
    let stream = StreamConfig {
        capture_limit: 4,
        ..StreamConfig::default()
    };
    let report = campaign.run_streaming(&stream);
    assert!(
        !report.records.is_empty(),
        "an unprotected 3-flip campaign over 400 trials must corrupt at least once"
    );
    assert!(report.records.len() <= 4);
    assert_eq!(report.captured.len(), report.records.len());

    for record in &report.records {
        assert!(
            !record.outcome.is_safe(),
            "only non-safe outcomes are captured"
        );
        assert!(record.minimized_weight <= record.original_weight);
        assert!(record.minimized_weight >= 1);
        // The minimized draw reproduces the recorded outcome on a freshly
        // built campaign (no shared state with the capturing run).
        let fresh = Campaign::new(record.config.clone());
        assert_eq!(fresh.execute_draw(&record.draw).outcome, record.outcome);
    }

    // FAILURES.json round trip, then a full replay of the parsed corpus.
    let corpus = FailureCorpus {
        records: report.records.clone(),
    };
    let path = std::env::temp_dir().join("abft_streaming_failures.json");
    corpus.save(&path).expect("save corpus");
    let reloaded = FailureCorpus::load(&path).expect("load corpus");
    assert_eq!(reloaded, corpus);
    let outcomes = Campaign::replay(&reloaded);
    assert_eq!(outcomes.len(), corpus.records.len());
    for outcome in &outcomes {
        assert!(outcome.matches(), "replay diverged: {outcome:?}");
    }
}

/// The drift histogram totals one entry per trial and keeps aborted trials
/// (no returned answer) in the dedicated bucket.
#[test]
fn drift_histogram_accounts_for_every_trial() {
    let _guard = lock();
    let campaign = bitflip_campaign(2_000, 0x0D1F7);
    let report = campaign.run_streaming(&StreamConfig::default());
    assert_eq!(report.drift.total(), 2_000);
}

/// The million-trial acceptance campaign: completes in O(workers) outcome
/// memory — pinned against a 20k-trial run of the same campaign — with
/// counts bitwise identical to a sequential pass over the seeded trial
/// stream at worker limits {1, 2, 8}.
#[test]
#[ignore = "million-trial acceptance campaign (minutes): run with cargo test -- --ignored"]
fn million_trial_campaign_is_memory_flat_and_sharding_independent() {
    let _guard = lock();
    let stream = StreamConfig::default();

    let pilot = bitflip_campaign(20_000, 0xABF7);
    let (_, peak_pilot) = peak_growth(|| pilot.run_streaming(&stream));

    let campaign = bitflip_campaign(1_000_000, 0xABF7);
    let mut reports = Vec::new();
    for workers in [1usize, 2, 8] {
        rayon::set_worker_limit(Some(workers));
        let (report, peak) = peak_growth(|| campaign.run_streaming(&stream));
        rayon::set_worker_limit(None);
        assert_eq!(report.trials_run, 1_000_000, "at {workers} workers");
        // 50x the trials of the pilot: the peak must stay flat (wave
        // bookkeeping plus per-worker accumulators only).
        assert!(
            peak < 2 * peak_pilot + (4 << 20),
            "peak scaled with trials at {workers} workers: pilot {peak_pilot} B, 1M {peak} B"
        );
        reports.push(report);
    }
    assert_eq!(reports[0].stats, reports[1].stats);
    assert_eq!(reports[1].stats, reports[2].stats);

    // Sequential fold over the same seeded stream — the ground truth the
    // sharded accumulators must reproduce exactly.
    let mut sequential = CampaignStats::default();
    for trial in 0..1_000_000 {
        sequential.record(campaign.execute_draw(&campaign.draw_trial(trial)).outcome);
    }
    assert_eq!(reports[0].stats, sequential);
    assert_eq!(sequential.trials(), 1_000_000);
}

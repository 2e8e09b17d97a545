//! Property tests for the Wilson score interval and the streaming
//! accumulator merge: the statistics every campaign claim rests on.

use abft_suite::faultsim::{Campaign, CampaignConfig, CampaignStats, InjectionKind, StreamConfig};
use abft_suite::prelude::*;

/// The lower bound must be monotone non-decreasing in the success count (at
/// fixed trials), and the upper bound likewise: observing one more success
/// can never make the plausible range *less* favourable.
#[test]
fn wilson_bounds_are_monotone_in_successes() {
    for trials in [1usize, 7, 100, 384, 10_000] {
        let mut previous = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for successes in 0..=trials {
            let (lo, hi) = CampaignStats::wilson(successes, trials);
            assert!(
                lo >= previous.0 && hi >= previous.1,
                "bounds regressed at {successes}/{trials}: {previous:?} -> {:?}",
                (lo, hi)
            );
            assert!(lo >= 0.0 && hi <= 1.0 && lo <= hi, "{successes}/{trials}");
            previous = (lo, hi);
        }
    }
}

/// The interval must contain the empirical rate strictly in its interior
/// (except at the clamped 0/n and n/n endpoints, where the empirical rate
/// sits on the clamped bound itself).
#[test]
fn wilson_interval_contains_the_empirical_rate() {
    for trials in [1usize, 3, 40, 384, 1_000_000] {
        for successes in [
            0,
            1,
            trials / 3,
            trials / 2,
            trials.saturating_sub(1),
            trials,
        ] {
            let successes = successes.min(trials);
            let p = successes as f64 / trials as f64;
            let (lo, hi) = CampaignStats::wilson(successes, trials);
            // At the 0/n and n/n endpoints the exact bound *equals* p and
            // floating-point rounding may leave it a few ulps inside.
            assert!(
                lo <= p + 1e-12 && p <= hi + 1e-12,
                "empirical rate {p} outside [{lo}, {hi}] at {successes}/{trials}"
            );
            if successes > 0 && successes < trials {
                assert!(
                    lo < p && p < hi,
                    "interior containment at {successes}/{trials}"
                );
            }
        }
    }
}

/// A wider critical value (more conservative look) must widen the interval
/// on both sides — the property the Bonferroni-spent stop rule relies on.
#[test]
fn wilson_interval_widens_with_z() {
    let (lo95, hi95) = CampaignStats::wilson_with_z(380, 384, 1.96);
    let (lo_spent, hi_spent) = CampaignStats::wilson_with_z(380, 384, 3.72);
    assert!(lo_spent < lo95);
    assert!(hi_spent > hi95);
}

/// With zero trials the interval is the deliberate degenerate `(0.0, 1.0)`
/// — no data tightens nothing — and the human-facing summary renders "n/a"
/// instead of dressing the vacuous interval up as a measured 0–100 % row.
#[test]
fn wilson_zero_trials_degenerates_and_renders_na() {
    assert_eq!(CampaignStats::wilson(0, 0), (0.0, 1.0));
    assert_eq!(CampaignStats::wilson_with_z(0, 0, 3.72), (0.0, 1.0));
    let empty = CampaignStats::default();
    assert_eq!(empty.wilson_ci(FaultOutcome::Corrected), (0.0, 1.0));
    let rendered = empty.print_summary();
    assert!(rendered.contains("n/a"), "{rendered}");
    assert!(!rendered.contains("100.0"), "{rendered}");
    // Any actual data immediately switches to measured rows.
    let mut one = CampaignStats::default();
    one.record(FaultOutcome::Corrected);
    assert!(!one.print_summary().contains("n/a"));
}

/// The tentpole's merge-discipline claim, end to end on a real campaign:
/// streamed per-worker accumulators at worker limits {1, 2, 8} all merge to
/// the same histogram a plain sequential pass over the seeded trial stream
/// produces.  Counts must be *identical* — per-trial ChaCha streams make
/// each trial's outcome a pure function of `(seed, trial)`, so sharding can
/// only reorder commutative integer adds.
#[test]
fn streamed_accumulators_match_sequential_pass_at_1_2_8_workers() {
    let campaign = Campaign::new(CampaignConfig {
        nx: 8,
        ny: 8,
        trials: 300,
        protection: ProtectionConfig::full(EccScheme::Secded64),
        target: FaultTarget::MatrixValues,
        injection: InjectionKind::BitFlips,
        flips_per_trial: 2,
        seed: 0x57A7,
        ..CampaignConfig::default()
    });

    let mut sequential = CampaignStats::default();
    for trial in 0..campaign.config().trials {
        sequential.record(campaign.execute_draw(&campaign.draw_trial(trial)).outcome);
    }
    assert_eq!(sequential.trials(), 300);

    let stream = StreamConfig {
        batch: 64,
        trials_per_job: 7, // deliberately not a divisor of the batch
        capture_limit: 0,
        stop: None,
    };
    for workers in [1usize, 2, 8] {
        rayon::set_worker_limit(Some(workers));
        let report = campaign.run_streaming(&stream);
        rayon::set_worker_limit(None);
        assert_eq!(
            report.stats, sequential,
            "streamed histogram diverged at {workers} workers"
        );
        assert_eq!(report.trials_run, 300);
    }
}

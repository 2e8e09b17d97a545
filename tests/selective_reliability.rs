//! Selective-reliability contract tests: the protected outer FT-PCG
//! iteration with an *unreliable* inner preconditioner tier must never
//! return a silently wrong answer, and routing a preconditioned solve
//! through the serving queue must be an efficiency decision only — the
//! answer bits are those of the standalone [`Solver`] solve for every
//! worker count.

use abft_suite::core::{AnyProtectedMatrix, ProtectionConfig, StorageTier};
use abft_suite::faultsim::InjectionKind;
use abft_suite::prelude::*;
use abft_suite::sparse::builders::poisson_2d_padded;

/// Acceptance campaign for the selective claim: 256 trials each striking
/// the unprotected inner stage (a multi-bit burst written into the
/// preconditioner's output mid-apply, after the inner stage computed `z`
/// and before the protected outer iteration screens it).  Inner SDC may
/// cost iterations, trip the bounded-norm screen, or stall the solve —
/// all *detected* outcomes — but must never yield a converged wrong
/// answer.
#[test]
#[ignore = "acceptance campaign (256 trials): run with cargo test -- --ignored"]
fn unreliable_inner_tier_never_corrupts_silently_over_256_trials() {
    let trials = 256;
    let stats = Campaign::new(CampaignConfig {
        nx: 10,
        ny: 10,
        trials,
        flips_per_trial: 8,
        protection: ProtectionConfig::full(EccScheme::Secded64),
        target: abft_suite::faultsim::FaultTarget::DenseVector,
        injection: InjectionKind::InnerApplyBurst,
        precond: PrecondKind::Ilu0,
        precond_reliability: Reliability::Unreliable,
        seed: 20170905,
        ..CampaignConfig::default()
    })
    .run_streaming(&StreamConfig::default())
    .stats;

    assert_eq!(stats.trials(), trials);
    assert_eq!(
        stats.count(FaultOutcome::SilentCorruption),
        0,
        "selective FT-PCG returned a silently corrupted converged answer: {stats}"
    );

    // Wilson 95% interval on the SDC rate: with 0/256 corruptions the
    // upper bound is ~1.48%, so the safety rate's lower bound is ~98.5%.
    let (_, sdc_upper) = stats.wilson_ci(FaultOutcome::SilentCorruption);
    let safety_lower = 1.0 - sdc_upper;
    println!(
        "selective inner-apply campaign: {trials} trials, 0 SDC, \
         safety rate ≥ {:.3}% (Wilson 95% lower bound)",
        safety_lower * 100.0
    );
    assert!(
        safety_lower > 0.98,
        "Wilson lower bound too weak for {trials} clean trials: {safety_lower}"
    );
}

/// The persistent-fault variant of the same claim: bit flips land in the
/// *stored factors* of an unreliable-tier preconditioner before the solve
/// starts, so every inner apply is corrupted, not just one.  The outer
/// iteration still owns correctness.
#[test]
fn corrupted_unreliable_factors_never_corrupt_silently() {
    for kind in [PrecondKind::Ilu0, PrecondKind::Polynomial(2)] {
        let stats = Campaign::new(CampaignConfig {
            nx: 10,
            ny: 10,
            trials: 64,
            flips_per_trial: 4,
            protection: ProtectionConfig::full(EccScheme::Secded64),
            target: abft_suite::faultsim::FaultTarget::DenseVector,
            injection: InjectionKind::PrecondFactorFlips,
            precond: kind,
            precond_reliability: Reliability::Unreliable,
            seed: 20170905,
            ..CampaignConfig::default()
        })
        .run_streaming(&StreamConfig::default())
        .stats;
        assert_eq!(
            stats.count(FaultOutcome::SilentCorruption),
            0,
            "{kind:?}: {stats}"
        );
    }
}

fn rhs_for(rows: usize, seed: usize) -> Vec<f64> {
    (0..rows)
        .map(|i| 1.0 + ((i * seed) % 13) as f64 * 0.25)
        .collect()
}

/// Runs the three preconditioned tenants through a `width`-worker queue
/// and returns each tenant's solution bits in canonical tenant order.
fn queue_solutions(
    matrix: &CsrMatrix,
    jobs: &[(PrecondKind, Reliability)],
    config: SolverConfig,
    width: usize,
) -> Vec<Vec<u64>> {
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let mut queue = SolveQueue::new(width);
    let id =
        queue.register(AnyProtectedMatrix::encode(matrix, &protection, StorageTier::Csr).unwrap());
    for (t, &(kind, policy)) in jobs.iter().enumerate() {
        queue.submit(
            JobSpec::new(format!("tenant-{t}"), id, rhs_for(matrix.rows(), t + 3))
                .with_config(config)
                .with_preconditioner(kind, policy),
        );
    }
    let outcomes = queue.drain();
    (0..jobs.len())
        .map(|t| {
            let name = format!("tenant-{t}");
            let o = outcomes.iter().find(|o| o.tenant == name).unwrap();
            assert_eq!(o.termination, Termination::Converged, "{name}");
            o.solution
                .as_ref()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

/// Batching through the queue is never a semantics decision: a
/// preconditioned job's answer is bit-for-bit the standalone [`Solver`]
/// solve against the same system, for worker counts 1, 2 and 8 alike.
#[test]
fn queue_ft_pcg_matches_standalone_solve_spec_bit_for_bit() {
    let matrix = poisson_2d_padded(24, 24);
    let config = SolverConfig::new(2_000, 1e-15);
    let jobs = [
        (PrecondKind::Ilu0, Reliability::Unreliable),
        (PrecondKind::Ilu0, Reliability::Protected),
        (PrecondKind::Polynomial(2), Reliability::Unreliable),
    ];

    let standalone: Vec<Vec<u64>> = jobs
        .iter()
        .enumerate()
        .map(|(t, &(kind, policy))| {
            let outcome = Solver::cg()
                .protection(ProtectionConfig::full(EccScheme::Secded64))
                .preconditioner(kind, policy)
                .config(config)
                .solve(&matrix, &rhs_for(matrix.rows(), t + 3))
                .unwrap();
            assert!(outcome.status.converged);
            outcome.solution.iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    for width in [1, 2, 8] {
        let queued = queue_solutions(&matrix, &jobs, config, width);
        assert_eq!(
            queued, standalone,
            "width-{width} queue diverged from the standalone solves"
        );
    }
}

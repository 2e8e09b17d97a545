//! Reproduces the §VI-B convergence claims as an integration test: storing
//! redundancy in the least-significant mantissa bits (and masking them to
//! zero during computation) changes the converged solution by a negligible
//! amount and costs at most a handful of extra iterations.

use abft_suite::prelude::*;
use abft_suite::tealeaf::Deck;

#[test]
fn masking_noise_keeps_solution_and_iterations_close() {
    let (matrix, rhs) = Simulation::new(Deck::standard(48, 48, 1)).assemble();
    let solver = Solver::cg().max_iterations(5000).tolerance(1e-15);
    let reference = solver.solve(&matrix, &rhs).expect("plain reference solve");
    let norm = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>().sqrt();
    let ref_norm = norm(&reference.solution);
    for scheme in EccScheme::ALL {
        let protection = ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::Hardware);
        let result = solver
            .protection(protection)
            .solve(&matrix, &rhs)
            .expect("protected solve");
        let solution_norm_difference_pct =
            100.0 * ((norm(&result.solution) - ref_norm) / ref_norm).abs();
        let iteration_increase_pct = 100.0
            * (result.status.iterations as f64 - reference.status.iterations as f64)
            / reference.status.iterations as f64;
        // Paper: norm within 2.0e-11 %, iteration increase < 1 %.  The grid
        // here is far smaller than the paper's 2048², so allow a slightly
        // looser iteration bound while keeping the solution-norm bound tight.
        assert!(
            solution_norm_difference_pct < 1e-8,
            "{scheme:?}: solution norm moved by {solution_norm_difference_pct} %"
        );
        assert!(
            iteration_increase_pct <= 3.0,
            "{scheme:?}: iteration count grew by {iteration_increase_pct} %"
        );
    }
}

#[test]
fn multi_step_simulation_summaries_agree_across_schemes() {
    let deck = Deck::standard(32, 32, 4);
    let baseline = Simulation::new(deck.clone()).run().unwrap();
    for scheme in EccScheme::ALL {
        let report = Simulation::new(deck.clone())
            .with_protection(ProtectionConfig::full(scheme))
            .run()
            .unwrap();
        let diff = report
            .final_summary
            .max_relative_difference(&baseline.final_summary);
        assert!(diff < 1e-9, "{scheme:?}: summary drifted by {diff}");
        let extra = report.total_iterations() as f64 / baseline.total_iterations() as f64 - 1.0;
        assert!(extra.abs() <= 0.02, "{scheme:?}: iteration change {extra}");
    }
}

#[test]
fn scheme_masking_bounds_are_ordered_as_expected() {
    use abft_suite::core::protected_vector::masking_relative_error_bound;
    // More reserved bits → more masking noise; SED reserves the fewest bits,
    // SECDED64 / CRC32C the most.
    let sed = masking_relative_error_bound(EccScheme::Sed);
    let secded128 = masking_relative_error_bound(EccScheme::Secded128);
    let secded64 = masking_relative_error_bound(EccScheme::Secded64);
    let crc = masking_relative_error_bound(EccScheme::Crc32c);
    assert!(sed < secded128);
    assert!(secded128 < secded64);
    assert_eq!(secded64, crc);
    // Even the worst case is far below the paper's quoted 2e-11 % threshold
    // relative to double precision.
    assert!(crc < 1e-12);
}

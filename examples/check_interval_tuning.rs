//! Less frequent correctness checking (§VI-A-2), i.e. Figures 6–8 in miniature.
//!
//! ```bash
//! cargo run --release --example check_interval_tuning -- [nx] [ny] [iters]
//! ```
//!
//! Protects the whole CSR matrix with each scheme and sweeps the integrity
//! check interval, printing the exact number of matrix integrity checks each
//! fixed-length CG solve performed.  The trade-off is detection latency: with
//! interval N an error can go unnoticed for up to N−1 CG iterations (bounds
//! checks still prevent out-of-range accesses in between).  What the saved
//! checks are worth in time to solution is the benchmark's to measure
//! (`benchmark/run.sh`), not this example's.

use abft_suite::core::Region;
use abft_suite::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let nx: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(192);
    let ny: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(192);
    let iters: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);

    let (matrix, rhs) = Simulation::new(Deck::standard(nx, ny, 1)).assemble();
    println!(
        "TeaLeaf {}x{} ({} non-zeros), {} CG iterations per solve\n",
        nx,
        ny,
        matrix.nnz(),
        iters
    );
    println!(
        "{:<12} {:>10} {:>16} {:>14} {:>22}",
        "scheme", "interval", "matrix checks", "checks/iter", "worst-case delay (iters)"
    );

    // Tolerance 0 disables early exit, so every solve runs exactly `iters`
    // iterations and the check counts are comparable across intervals.
    let solver = Solver::cg().max_iterations(iters).tolerance(0.0);
    for scheme in [EccScheme::Sed, EccScheme::Secded64, EccScheme::Crc32c] {
        for interval in [1u32, 2, 8, 32, 128] {
            let outcome = solver
                .protection(ProtectionConfig::matrix_only(scheme).with_check_interval(interval))
                .solve(&matrix, &rhs)
                .expect("clean solve");
            assert_eq!(outcome.status.iterations, iters);
            let checks = outcome.faults.region(Region::CsrElements).0
                + outcome.faults.region(Region::RowPointer).0;
            println!(
                "{:<12} {:>10} {:>16} {:>14.1} {:>22}",
                scheme.label(),
                interval,
                checks,
                checks as f64 / iters as f64,
                interval - 1
            );
        }
        println!();
    }
}

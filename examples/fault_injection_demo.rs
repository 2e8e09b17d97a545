//! Fault-injection demonstration: what each ECC scheme does with bit flips.
//!
//! ```bash
//! cargo run --release --example fault_injection_demo -- [trials]
//! ```
//!
//! Injects single bit flips into every protected region (matrix values,
//! column indices, row pointer, dense vectors) for every scheme and prints
//! the outcome histograms — the soundness half of the paper's claim, next to
//! the performance half shown by the benches.

use abft_suite::faultsim::{Campaign, CampaignConfig, FaultTarget, StreamConfig};
use abft_suite::prelude::*;

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);

    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        println!("=== scheme: {} ===", scheme.label());
        for target in FaultTarget::ALL {
            if scheme == EccScheme::None && target == FaultTarget::DenseVector {
                continue;
            }
            let config = CampaignConfig {
                nx: 16,
                ny: 16,
                trials,
                flips_per_trial: 1,
                protection: if scheme == EccScheme::None {
                    ProtectionConfig::unprotected()
                } else {
                    ProtectionConfig::full(scheme)
                },
                target,
                seed: 2017,
                ..CampaignConfig::default()
            };
            let stats = Campaign::new(config)
                .run_streaming(&StreamConfig::default())
                .stats;
            println!(
                "  target {:<24} safety {:>6.1} %",
                target.label(),
                100.0 * stats.safety_rate()
            );
            print!("{stats}");
        }
        println!();
    }

    println!("note: 'safety' counts every trial in which the fault was corrected,");
    println!("detected, contained by a bounds check, or had no effect on the answer.");
    println!("Only the unprotected configuration should ever show silent corruptions.");
}

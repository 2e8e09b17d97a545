//! Integration-level fault-injection campaigns: the "fully protecting"
//! claim of the paper's title, checked across schemes and regions.

use abft_suite::faultsim::{
    Campaign, CampaignConfig, CampaignStats, FaultOutcome, FaultTarget, StreamConfig,
};
use abft_suite::prelude::*;

fn campaign(scheme: EccScheme, target: FaultTarget, flips: usize, trials: usize) -> Campaign {
    Campaign::new(CampaignConfig {
        nx: 12,
        ny: 12,
        trials,
        flips_per_trial: flips,
        protection: if scheme == EccScheme::None {
            ProtectionConfig::unprotected()
        } else {
            ProtectionConfig::full(scheme)
        },
        target,
        seed: 20170905, // the paper's conference date, for reproducibility
        ..CampaignConfig::default()
    })
}

/// Every trial of `campaign`, streamed.
fn run(campaign: Campaign) -> CampaignStats {
    campaign.run_streaming(&StreamConfig::default()).stats
}

#[test]
fn no_scheme_ever_suffers_sdc_from_single_flips() {
    for scheme in EccScheme::ALL {
        for target in FaultTarget::ALL {
            let stats = run(campaign(scheme, target, 1, 30));
            assert_eq!(
                stats.count(FaultOutcome::SilentCorruption),
                0,
                "{scheme:?} / {target:?}"
            );
            assert_eq!(stats.trials(), 30);
        }
    }
}

#[test]
fn correcting_schemes_correct_and_sed_only_detects() {
    for target in [
        FaultTarget::MatrixValues,
        FaultTarget::MatrixColumnIndices,
        FaultTarget::RowPointer,
        FaultTarget::DenseVector,
    ] {
        let secded = run(campaign(EccScheme::Secded64, target, 1, 30));
        assert_eq!(
            secded.count(FaultOutcome::DetectedAborted),
            0,
            "{target:?}: SECDED must correct every single flip"
        );
        let sed = run(campaign(EccScheme::Sed, target, 1, 30));
        assert_eq!(
            sed.count(FaultOutcome::Corrected),
            0,
            "{target:?}: SED cannot correct"
        );
        // SED either detects the flip or the flip is harmless — never silent
        // corruption (parity catches every single flip).
        assert_eq!(sed.count(FaultOutcome::SilentCorruption), 0);
    }
}

#[test]
fn unprotected_baseline_shows_why_protection_matters() {
    let mut config = CampaignConfig {
        nx: 12,
        ny: 12,
        trials: 80,
        flips_per_trial: 2,
        protection: ProtectionConfig::unprotected(),
        target: FaultTarget::MatrixValues,
        seed: 99,
        ..CampaignConfig::default()
    };
    let unprotected = run(Campaign::new(config.clone()));
    assert!(
        unprotected.count(FaultOutcome::SilentCorruption) > 0,
        "unprotected flips must corrupt at least some runs"
    );

    config.protection = ProtectionConfig::full(EccScheme::Crc32c);
    let protected = run(Campaign::new(config));
    assert_eq!(protected.count(FaultOutcome::SilentCorruption), 0);
    assert!(protected.safety_rate() > unprotected.safety_rate());
}

#[test]
fn crc_protects_against_multi_bit_upsets() {
    // CRC32C detects every error of weight <= 5 inside its HD-6 window; with
    // 3 flips spread over the matrix it must never silently corrupt.
    let stats = run(campaign(
        EccScheme::Crc32c,
        FaultTarget::MatrixValues,
        3,
        40,
    ));
    assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0);
    assert!(stats.safety_rate() == 1.0);
}

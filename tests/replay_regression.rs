//! Replay regression: a committed corpus of minimized failure records
//! (`tests/fixtures/failures_seed.json`) must re-execute bit for bit on
//! every build.
//!
//! The corpus holds one record per historic failure class:
//!
//! * a padding-group DUE — two flips in a SECDED64 row-pointer codeword,
//!   detected but uncorrectable, so the solve fail-stops;
//! * a double-loss abort — a whole vector chunk erased with no parity tier
//!   to rebuild from;
//! * a preconditioner burst — an inner-apply burst in the unreliable tier
//!   caught by the outer iteration's bounded-norm screen.
//!
//! Each record embeds its full campaign configuration, so a behavioural
//! change anywhere in the detect/correct/screen ladder shows up as a
//! replay mismatch naming the exact trial.  Regenerate the fixture with
//! `cargo test --test replay_regression -- --ignored` after an
//! *intentional* classification change.

use abft_suite::faultsim::{Campaign, CampaignConfig, FailureCorpus, InjectionKind, TrialRecord};
use abft_suite::prelude::*;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/failures_seed.json")
}

/// The three scenario configurations the committed corpus was drawn from.
/// Shared by the regression test (to assert coverage) and the regenerator.
fn scenarios() -> Vec<(CampaignConfig, FaultOutcome)> {
    let base = CampaignConfig {
        nx: 8,
        ny: 8,
        trials: 400,
        seed: 0xF1C2,
        ..CampaignConfig::default()
    };
    vec![
        // Padding-group DUE: a double flip in one SECDED64 row-pointer
        // codeword is detectable but uncorrectable.
        (
            CampaignConfig {
                protection: ProtectionConfig::full(EccScheme::Secded64),
                target: FaultTarget::RowPointer,
                injection: InjectionKind::BitFlips,
                flips_per_trial: 2,
                ..base.clone()
            },
            FaultOutcome::DetectedAborted,
        ),
        // Double loss: a chunk erasure with no parity tier to rebuild from.
        (
            CampaignConfig {
                protection: ProtectionConfig::full(EccScheme::Secded64),
                target: FaultTarget::DenseVector,
                injection: InjectionKind::ChunkErasure,
                ..base.clone()
            },
            FaultOutcome::DetectedAborted,
        ),
        // Preconditioner burst at the reliability boundary, stopped by the
        // outer bounded-norm screen.
        (
            CampaignConfig {
                protection: ProtectionConfig::full(EccScheme::Secded64),
                target: FaultTarget::DenseVector,
                injection: InjectionKind::InnerApplyBurst,
                flips_per_trial: 8,
                precond_reliability: Reliability::Unreliable,
                ..base
            },
            FaultOutcome::BoundsCaught,
        ),
    ]
}

#[test]
fn committed_failure_corpus_replays_bit_for_bit() {
    let corpus = FailureCorpus::load(fixture_path()).expect("committed fixture must parse");
    assert_eq!(corpus.records.len(), scenarios().len());

    // The corpus must still cover each scenario class.
    for (record, (config, outcome)) in corpus.records.iter().zip(scenarios()) {
        assert_eq!(record.config, config, "scenario config drifted");
        assert_eq!(record.outcome, outcome, "scenario outcome drifted");
        assert!(record.minimized_weight <= record.original_weight);
    }

    let outcomes = Campaign::replay(&corpus);
    assert_eq!(outcomes.len(), corpus.records.len());
    for (outcome, record) in outcomes.iter().zip(&corpus.records) {
        assert!(
            outcome.matches(),
            "record for trial {} (kind {:?}, scheme {:?}) replayed as {:?}, recorded {:?}",
            record.trial,
            record.config.injection,
            record.scheme(),
            outcome.replayed,
            outcome.recorded,
        );
    }
}

/// The on-disk format is pinned byte for byte: loading the committed corpus
/// and writing it back (the exact bytes [`FailureCorpus::save`] writes) must
/// reproduce the file, so a renamed tag or a reordered field fails here.
#[test]
fn committed_failure_corpus_rewrites_byte_for_byte() {
    let committed = std::fs::read_to_string(fixture_path()).expect("committed fixture");
    let corpus = FailureCorpus::load(fixture_path()).expect("committed fixture must parse");
    assert_eq!(corpus.to_json().render() + "\n", committed);
}

/// Regenerates `tests/fixtures/failures_seed.json`: finds the first trial
/// of each scenario's seeded stream with the wanted outcome, minimizes it,
/// and writes the corpus.  Deterministic — rerunning on an unchanged build
/// reproduces the committed file byte for byte.
#[test]
#[ignore = "fixture regenerator: run after an intentional classification change"]
fn regenerate_failure_corpus_fixture() {
    let mut records: Vec<TrialRecord> = Vec::new();
    for (config, wanted) in scenarios() {
        let campaign = Campaign::new(config.clone());
        let trial = (0..config.trials)
            .find(|&trial| campaign.execute_draw(&campaign.draw_trial(trial)).outcome == wanted)
            .unwrap_or_else(|| panic!("no trial in {:?} produced {wanted:?}", config.injection));
        let record = campaign.minimize_trial(trial);
        assert_eq!(record.outcome, wanted);
        records.push(record);
    }
    let corpus = FailureCorpus { records };
    corpus.save(fixture_path()).expect("write fixture");
    // The freshly written fixture must round-trip and replay immediately.
    let reloaded = FailureCorpus::load(fixture_path()).unwrap();
    assert_eq!(reloaded, corpus);
    assert!(Campaign::replay(&reloaded).iter().all(|o| o.matches()));
}

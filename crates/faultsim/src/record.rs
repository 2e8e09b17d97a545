//! Replayable failure records: captured non-safe trials, deterministically
//! minimized, serialized to a JSON corpus, and re-executed bit for bit.
//!
//! When the streaming engine sees a non-safe outcome it keeps only the
//! trial *index*; [`Campaign::minimize_trial`] re-derives the trial's
//! [`TrialDraw`] from `(seed, index)` and shrinks it with a deterministic
//! minimizer:
//!
//! 1. **Bisect the flip count** — delta-debugging style: while either half
//!    of the flip list alone reproduces the recorded outcome, keep that
//!    half; a linear single-flip removal pass mops up small residues.
//! 2. **Bisect the bit positions** — for each surviving flip, binary-search
//!    the lowest bit index that still reproduces (low-order mantissa bits
//!    are "smaller" faults than exponent bits).
//!
//! Every candidate is verified by re-executing the edited draw
//! ([`Campaign::execute_draw`] is deterministic), and the final draw is
//! re-verified before it replaces the original, so a minimized record
//! *always* reproduces its outcome.  Records group into a
//! [`FailureCorpus`] (the `FAILURES.json` shape) that [`Campaign::replay`]
//! re-executes exactly; 64-bit integers are serialized as decimal strings
//! because the JSON number type is an `f64` (see [`crate::json`]).

use crate::campaign::{Campaign, CampaignConfig, InjectionKind, TrialDraw};
use crate::flip::{FaultSpec, FaultTarget, SolverVectorTarget};
use crate::json::Json;
use crate::outcome::FaultOutcome;
use abft_core::{Crc32cBackend, EccScheme, ParityConfig, ProtectionConfig, StorageTier};
use abft_solvers::{Method, PrecondKind, Reliability};
use std::path::Path;

/// One captured, minimized, replayable failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The full campaign configuration the trial ran under — everything
    /// needed to rebuild the system and re-execute the draw.
    pub config: CampaignConfig,
    /// Trial index within the campaign's seeded stream.
    pub trial: usize,
    /// The outcome the (minimized) draw reproduces.
    pub outcome: FaultOutcome,
    /// The minimized injection plan.
    pub draw: TrialDraw,
    /// Fault weight of the original draw, before shrinking.
    pub original_weight: usize,
    /// Fault weight of `draw` (`<= original_weight`).
    pub minimized_weight: usize,
}

impl TrialRecord {
    /// The campaign seed (the `seed` of the issue's
    /// `TrialRecord {seed, trial, kind, scheme, storage}` shape).
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The injection kind.
    pub fn kind(&self) -> InjectionKind {
        self.config.injection
    }

    /// The ECC scheme guarding the struck region.
    pub fn scheme(&self) -> EccScheme {
        self.config.active_scheme()
    }

    /// The protected matrix storage tier.
    pub fn storage(&self) -> StorageTier {
        self.config.storage
    }
}

/// Result of replaying one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The record's trial index.
    pub trial: usize,
    /// The outcome the record promised.
    pub recorded: FaultOutcome,
    /// The outcome the re-execution produced.
    pub replayed: FaultOutcome,
}

impl ReplayOutcome {
    /// Did the replay reproduce the recorded outcome exactly?
    pub fn matches(&self) -> bool {
        self.recorded == self.replayed
    }
}

impl Campaign {
    /// Re-derives trial `trial`'s draw, shrinks it with the deterministic
    /// minimizer (module docs), and returns the replayable record.
    pub fn minimize_trial(&self, trial: usize) -> TrialRecord {
        let draw = self.draw_trial(trial);
        let outcome = self.execute_draw(&draw).outcome;
        let original_weight = draw.weight();
        let minimized = match draw.flips() {
            Some(flips) if !flips.is_empty() => {
                let reproduce = |candidate: &[(usize, u32)]| {
                    self.execute_draw(&draw.with_flips(candidate.to_vec()))
                        .outcome
                        == outcome
                };
                let shrunk = shrink_flips(&reproduce, flips);
                draw.with_flips(shrunk)
            }
            // Draws without an editable flip list (chunk erasures,
            // inner-apply bursts) are recorded as drawn.
            _ => draw.clone(),
        };
        let minimized_weight = minimized.weight();
        TrialRecord {
            config: self.config().clone(),
            trial,
            outcome,
            draw: minimized,
            original_weight,
            minimized_weight,
        }
    }

    /// Re-executes every record of a corpus bit for bit and reports, per
    /// record, whether the recorded outcome was reproduced.  Consecutive
    /// records with the same configuration share one rebuilt campaign
    /// system (corpora are stored config-grouped).
    pub fn replay(corpus: &FailureCorpus) -> Vec<ReplayOutcome> {
        let mut cache: Option<(CampaignConfig, Campaign)> = None;
        corpus
            .records
            .iter()
            .map(|record| {
                let rebuild = match &cache {
                    Some((config, _)) => config != &record.config,
                    None => true,
                };
                if rebuild {
                    cache = Some((record.config.clone(), Campaign::new(record.config.clone())));
                }
                let (_, campaign) = cache.as_ref().expect("cache filled above");
                ReplayOutcome {
                    trial: record.trial,
                    recorded: record.outcome,
                    replayed: campaign.execute_draw(&record.draw).outcome,
                }
            })
            .collect()
    }
}

/// A candidate flip list handed to a minimizer probe.
type FlipList = [(usize, u32)];

/// Deterministic flip-list shrinker: bisect the count (keep whichever half
/// still reproduces), mop up small residues with single-flip removal, then
/// bisect each surviving flip's bit position toward bit 0.  `reproduce`
/// must be deterministic; every surviving edit has been verified by it.
fn shrink_flips(reproduce: &dyn Fn(&FlipList) -> bool, flips: &FlipList) -> Vec<(usize, u32)> {
    let mut current = flips.to_vec();
    // Phase 1: bisect the flip count.
    while current.len() > 1 {
        let mid = current.len() / 2;
        if reproduce(&current[..mid]) {
            current.truncate(mid);
        } else if reproduce(&current[mid..]) {
            current.drain(..mid);
        } else {
            break;
        }
    }
    // Residue pass: drop single flips while that still reproduces.  Only
    // for small lists — each probe is a full solve.
    if current.len() > 1 && current.len() <= 8 {
        let mut index = 0;
        while index < current.len() && current.len() > 1 {
            let mut candidate = current.clone();
            candidate.remove(index);
            if reproduce(&candidate) {
                current = candidate;
            } else {
                index += 1;
            }
        }
    }
    // Phase 2: bisect each surviving flip's bit position toward 0.
    for index in 0..current.len() {
        let original_bit = current[index].1;
        let mut lo = 0u32;
        let mut hi = original_bit;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut candidate = current.clone();
            candidate[index].1 = mid;
            if reproduce(&candidate) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if hi != original_bit {
            // `hi` was verified by the last successful probe of the search
            // (or equals original_bit when nothing lower reproduced), but
            // re-verify the combined list defensively before keeping it.
            let mut candidate = current.clone();
            candidate[index].1 = hi;
            if reproduce(&candidate) {
                current = candidate;
            }
        }
    }
    current
}

/// A serializable corpus of failure records — the `FAILURES.json` shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureCorpus {
    /// The records, in capture order (group records of one configuration
    /// together so [`Campaign::replay`] can reuse the rebuilt system).
    pub records: Vec<TrialRecord>,
}

impl FailureCorpus {
    /// Serializes the corpus.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", 1usize.into()),
            (
                "records",
                Json::Arr(self.records.iter().map(record_to_json).collect()),
            ),
        ])
    }

    /// Parses a corpus serialized by [`FailureCorpus::to_json`].
    pub fn from_json(doc: &Json) -> Result<FailureCorpus, String> {
        let records = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("corpus has no records array")?
            .iter()
            .map(record_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FailureCorpus { records })
    }

    /// Writes the corpus to `path` (pretty-printed, trailing newline).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render() + "\n")
    }

    /// Loads a corpus from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<FailureCorpus, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        Self::from_json(&Json::parse(&text)?)
    }
}

// --- tag helpers -----------------------------------------------------------
//
// Stable string tags for every enum in a record.  u64 values (seeds) are
// serialized as decimal strings: Json::Num is an f64 and cannot round-trip
// integers above 2^53.

fn u64_to_json(value: u64) -> Json {
    Json::Str(value.to_string())
}

fn u64_from_json(value: &Json, what: &str) -> Result<u64, String> {
    value
        .as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("{what}: expected a decimal-string u64, got {value:?}"))
}

fn usize_from_json(value: &Json, what: &str) -> Result<usize, String> {
    value
        .as_f64()
        .filter(|n| n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53))
        .map(|n| n as usize)
        .ok_or_else(|| format!("{what}: expected a non-negative integer, got {value:?}"))
}

fn scheme_tag(scheme: EccScheme) -> &'static str {
    match scheme {
        EccScheme::None => "none",
        EccScheme::Sed => "sed",
        EccScheme::Secded64 => "secded64",
        EccScheme::Secded128 => "secded128",
        EccScheme::Crc32c => "crc32c",
    }
}

fn scheme_from_tag(tag: &str) -> Result<EccScheme, String> {
    Ok(match tag {
        "none" => EccScheme::None,
        "sed" => EccScheme::Sed,
        "secded64" => EccScheme::Secded64,
        "secded128" => EccScheme::Secded128,
        "crc32c" => EccScheme::Crc32c,
        other => return Err(format!("unknown scheme tag {other:?}")),
    })
}

fn backend_tag(backend: Crc32cBackend) -> &'static str {
    match backend {
        Crc32cBackend::Naive => "naive",
        Crc32cBackend::SlicingBy4 => "slicing4",
        Crc32cBackend::SlicingBy8 => "slicing8",
        Crc32cBackend::SlicingBy16 => "slicing16",
        Crc32cBackend::Hardware => "hardware",
        Crc32cBackend::Auto => "auto",
    }
}

fn backend_from_tag(tag: &str) -> Result<Crc32cBackend, String> {
    Ok(match tag {
        "naive" => Crc32cBackend::Naive,
        "slicing4" => Crc32cBackend::SlicingBy4,
        "slicing8" => Crc32cBackend::SlicingBy8,
        "slicing16" => Crc32cBackend::SlicingBy16,
        "hardware" => Crc32cBackend::Hardware,
        "auto" => Crc32cBackend::Auto,
        other => return Err(format!("unknown CRC backend tag {other:?}")),
    })
}

fn target_tag(target: FaultTarget) -> &'static str {
    match target {
        FaultTarget::MatrixValues => "matrix_values",
        FaultTarget::MatrixColumnIndices => "matrix_col_indices",
        FaultTarget::RowPointer => "row_pointer",
        FaultTarget::DenseVector => "dense_vector",
    }
}

fn target_from_tag(tag: &str) -> Result<FaultTarget, String> {
    Ok(match tag {
        "matrix_values" => FaultTarget::MatrixValues,
        "matrix_col_indices" => FaultTarget::MatrixColumnIndices,
        "row_pointer" => FaultTarget::RowPointer,
        "dense_vector" => FaultTarget::DenseVector,
        other => return Err(format!("unknown target tag {other:?}")),
    })
}

fn method_tag(method: Method) -> &'static str {
    match method {
        Method::Cg => "cg",
        Method::Jacobi => "jacobi",
        Method::Chebyshev => "chebyshev",
        Method::Ppcg => "ppcg",
    }
}

fn method_from_tag(tag: &str) -> Result<Method, String> {
    Ok(match tag {
        "cg" => Method::Cg,
        "jacobi" => Method::Jacobi,
        "chebyshev" => Method::Chebyshev,
        "ppcg" => Method::Ppcg,
        other => return Err(format!("unknown method tag {other:?}")),
    })
}

fn injection_tag(kind: InjectionKind) -> &'static str {
    match kind {
        InjectionKind::BitFlips => "bit_flips",
        InjectionKind::Burst => "burst",
        InjectionKind::ChunkErasure => "chunk_erasure",
        InjectionKind::RowPointerGroupErasure => "row_pointer_group_erasure",
        InjectionKind::PrecondFactorFlips => "precond_factor_flips",
        InjectionKind::PrecondFactorBurst => "precond_factor_burst",
        InjectionKind::InnerApplyBurst => "inner_apply_burst",
        InjectionKind::SolverVectorFlips => "solver_vector_flips",
        InjectionKind::SolverVectorBurst => "solver_vector_burst",
    }
}

fn injection_from_tag(tag: &str) -> Result<InjectionKind, String> {
    Ok(match tag {
        "bit_flips" => InjectionKind::BitFlips,
        "burst" => InjectionKind::Burst,
        "chunk_erasure" => InjectionKind::ChunkErasure,
        "row_pointer_group_erasure" => InjectionKind::RowPointerGroupErasure,
        "precond_factor_flips" => InjectionKind::PrecondFactorFlips,
        "precond_factor_burst" => InjectionKind::PrecondFactorBurst,
        "inner_apply_burst" => InjectionKind::InnerApplyBurst,
        "solver_vector_flips" => InjectionKind::SolverVectorFlips,
        "solver_vector_burst" => InjectionKind::SolverVectorBurst,
        other => return Err(format!("unknown injection tag {other:?}")),
    })
}

fn storage_tag(storage: StorageTier) -> String {
    match storage {
        StorageTier::Csr => "csr".to_string(),
        StorageTier::Coo => "coo".to_string(),
        StorageTier::BlockedCsr(blocks) => format!("blocked_csr:{blocks}"),
    }
}

fn storage_from_tag(tag: &str) -> Result<StorageTier, String> {
    if let Some(blocks) = tag.strip_prefix("blocked_csr:") {
        return blocks
            .parse::<usize>()
            .map(StorageTier::BlockedCsr)
            .map_err(|e| format!("bad blocked_csr tag {tag:?}: {e}"));
    }
    Ok(match tag {
        "csr" => StorageTier::Csr,
        "coo" => StorageTier::Coo,
        other => return Err(format!("unknown storage tag {other:?}")),
    })
}

fn precond_tag(kind: PrecondKind) -> String {
    match kind {
        PrecondKind::Ilu0 => "ilu0".to_string(),
        PrecondKind::Polynomial(steps) => format!("polynomial:{steps}"),
    }
}

fn precond_from_tag(tag: &str) -> Result<PrecondKind, String> {
    if let Some(steps) = tag.strip_prefix("polynomial:") {
        return steps
            .parse::<usize>()
            .map(PrecondKind::Polynomial)
            .map_err(|e| format!("bad polynomial tag {tag:?}: {e}"));
    }
    match tag {
        "ilu0" => Ok(PrecondKind::Ilu0),
        other => Err(format!("unknown preconditioner tag {other:?}")),
    }
}

fn reliability_from_tag(tag: &str) -> Result<Reliability, String> {
    [Reliability::Protected, Reliability::Unreliable]
        .into_iter()
        .find(|reliability| reliability.label() == tag)
        .ok_or_else(|| format!("unknown reliability tag {tag:?}"))
}

fn outcome_tag(outcome: FaultOutcome) -> &'static str {
    match outcome {
        FaultOutcome::Corrected => "corrected",
        FaultOutcome::DetectedRebuilt => "detected_rebuilt",
        FaultOutcome::DetectedAborted => "detected_aborted",
        FaultOutcome::BoundsCaught => "bounds_caught",
        FaultOutcome::Masked => "masked",
        FaultOutcome::SilentCorruption => "silent_corruption",
    }
}

fn outcome_from_tag(tag: &str) -> Result<FaultOutcome, String> {
    Ok(match tag {
        "corrected" => FaultOutcome::Corrected,
        "detected_rebuilt" => FaultOutcome::DetectedRebuilt,
        "detected_aborted" => FaultOutcome::DetectedAborted,
        "bounds_caught" => FaultOutcome::BoundsCaught,
        "masked" => FaultOutcome::Masked,
        "silent_corruption" => FaultOutcome::SilentCorruption,
        other => return Err(format!("unknown outcome tag {other:?}")),
    })
}

fn flips_to_json(flips: &[(usize, u32)]) -> Json {
    Json::Arr(
        flips
            .iter()
            .map(|&(element, bit)| Json::Arr(vec![element.into(), Json::Num(bit as f64)]))
            .collect(),
    )
}

fn flips_from_json(value: &Json) -> Result<Vec<(usize, u32)>, String> {
    value
        .as_arr()
        .ok_or("flips: expected an array")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad flip pair")?;
            let element = usize_from_json(&pair[0], "flip element")?;
            let bit = usize_from_json(&pair[1], "flip bit")? as u32;
            Ok((element, bit))
        })
        .collect()
}

fn vector_tag(vector: SolverVectorTarget) -> &'static str {
    match vector {
        SolverVectorTarget::X => "x",
        SolverVectorTarget::R => "r",
        SolverVectorTarget::P => "p",
    }
}

fn vector_from_tag(tag: &str) -> Result<SolverVectorTarget, String> {
    Ok(match tag {
        "x" => SolverVectorTarget::X,
        "r" => SolverVectorTarget::R,
        "p" => SolverVectorTarget::P,
        other => return Err(format!("unknown solver-vector tag {other:?}")),
    })
}

fn draw_to_json(draw: &TrialDraw) -> Json {
    match draw {
        TrialDraw::Flips(spec) => Json::obj([
            ("type", "flips".into()),
            ("target", target_tag(spec.target).into()),
            ("flips", flips_to_json(&spec.flips)),
        ]),
        TrialDraw::SolverVector {
            vector,
            strike_iteration,
            flips,
        } => Json::obj([
            ("type", "solver_vector".into()),
            ("vector", vector_tag(*vector).into()),
            ("strike_iteration", u64_to_json(*strike_iteration)),
            ("flips", flips_to_json(flips)),
        ]),
        TrialDraw::ChunkErasure {
            chunk,
            chunk_words,
            strike_iteration,
            garbage_seed,
        } => Json::obj([
            ("type", "chunk_erasure".into()),
            ("chunk", (*chunk).into()),
            ("chunk_words", (*chunk_words).into()),
            ("strike_iteration", u64_to_json(*strike_iteration)),
            ("garbage_seed", u64_to_json(*garbage_seed)),
        ]),
        TrialDraw::PrecondFactors(flips) => Json::obj([
            ("type", "precond_factors".into()),
            ("flips", flips_to_json(flips)),
        ]),
        TrialDraw::InnerApplyBurst {
            strike_apply,
            element,
            start_bit,
            length,
        } => Json::obj([
            ("type", "inner_apply_burst".into()),
            ("strike_apply", u64_to_json(*strike_apply)),
            ("element", (*element).into()),
            ("start_bit", Json::Num(*start_bit as f64)),
            ("length", Json::Num(*length as f64)),
        ]),
    }
}

fn draw_from_json(value: &Json) -> Result<TrialDraw, String> {
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or("draw has no type")?;
    let field = |name: &str| {
        value
            .get(name)
            .ok_or_else(|| format!("draw missing {name}"))
    };
    Ok(match kind {
        "flips" => TrialDraw::Flips(FaultSpec {
            target: target_from_tag(field("target")?.as_str().ok_or("target not a string")?)?,
            flips: flips_from_json(field("flips")?)?,
        }),
        "solver_vector" => TrialDraw::SolverVector {
            vector: vector_from_tag(field("vector")?.as_str().ok_or("vector not a string")?)?,
            strike_iteration: u64_from_json(field("strike_iteration")?, "strike_iteration")?,
            flips: flips_from_json(field("flips")?)?,
        },
        "chunk_erasure" => TrialDraw::ChunkErasure {
            chunk: usize_from_json(field("chunk")?, "chunk")?,
            chunk_words: usize_from_json(field("chunk_words")?, "chunk_words")?,
            strike_iteration: u64_from_json(field("strike_iteration")?, "strike_iteration")?,
            garbage_seed: u64_from_json(field("garbage_seed")?, "garbage_seed")?,
        },
        "precond_factors" => TrialDraw::PrecondFactors(flips_from_json(field("flips")?)?),
        "inner_apply_burst" => TrialDraw::InnerApplyBurst {
            strike_apply: u64_from_json(field("strike_apply")?, "strike_apply")?,
            element: usize_from_json(field("element")?, "element")?,
            start_bit: usize_from_json(field("start_bit")?, "start_bit")? as u32,
            length: usize_from_json(field("length")?, "length")? as u32,
        },
        other => return Err(format!("unknown draw type {other:?}")),
    })
}

fn config_to_json(config: &CampaignConfig) -> Json {
    let protection = &config.protection;
    Json::obj([
        ("nx", config.nx.into()),
        ("ny", config.ny.into()),
        ("trials", config.trials.into()),
        ("flips_per_trial", config.flips_per_trial.into()),
        ("elements", scheme_tag(protection.elements).into()),
        ("row_pointer", scheme_tag(protection.row_pointer).into()),
        ("vectors", scheme_tag(protection.vectors).into()),
        (
            "check_interval",
            (protection.check_interval as usize).into(),
        ),
        ("crc_backend", backend_tag(protection.crc_backend).into()),
        ("parallel", protection.parallel.into()),
        (
            "parity",
            match protection.parity {
                Some(parity) => Json::obj([
                    ("stripe_chunks", parity.stripe_chunks.into()),
                    ("chunk_words", parity.chunk_words.into()),
                ]),
                None => Json::Null,
            },
        ),
        ("target", target_tag(config.target).into()),
        ("seed", u64_to_json(config.seed)),
        ("sdc_threshold", config.sdc_threshold.into()),
        ("solver", method_tag(config.solver).into()),
        ("injection", injection_tag(config.injection).into()),
        ("storage", storage_tag(config.storage).into()),
        ("precond", precond_tag(config.precond).into()),
        (
            "precond_reliability",
            config.precond_reliability.label().into(),
        ),
    ])
}

fn config_from_json(value: &Json) -> Result<CampaignConfig, String> {
    let str_field = |name: &str| {
        value
            .get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("config missing string field {name}"))
    };
    let num_field = |name: &str| {
        value
            .get(name)
            .ok_or_else(|| format!("config missing field {name}"))
            .and_then(|v| usize_from_json(v, name))
    };
    let parity = match value.get("parity") {
        None | Some(Json::Null) => None,
        Some(parity) => Some(ParityConfig {
            stripe_chunks: usize_from_json(
                parity
                    .get("stripe_chunks")
                    .ok_or("parity missing stripe_chunks")?,
                "stripe_chunks",
            )?,
            chunk_words: usize_from_json(
                parity
                    .get("chunk_words")
                    .ok_or("parity missing chunk_words")?,
                "chunk_words",
            )?,
        }),
    };
    let protection = ProtectionConfig {
        elements: scheme_from_tag(str_field("elements")?)?,
        row_pointer: scheme_from_tag(str_field("row_pointer")?)?,
        vectors: scheme_from_tag(str_field("vectors")?)?,
        check_interval: num_field("check_interval")? as u32,
        crc_backend: backend_from_tag(str_field("crc_backend")?)?,
        parallel: matches!(value.get("parallel"), Some(Json::Bool(true))),
        parity,
    };
    Ok(CampaignConfig {
        nx: num_field("nx")?,
        ny: num_field("ny")?,
        trials: num_field("trials")?,
        flips_per_trial: num_field("flips_per_trial")?,
        protection,
        target: target_from_tag(str_field("target")?)?,
        seed: u64_from_json(value.get("seed").ok_or("config missing seed")?, "seed")?,
        sdc_threshold: value
            .get("sdc_threshold")
            .and_then(Json::as_f64)
            .ok_or("config missing sdc_threshold")?,
        solver: method_from_tag(str_field("solver")?)?,
        injection: injection_from_tag(str_field("injection")?)?,
        storage: storage_from_tag(str_field("storage")?)?,
        precond: precond_from_tag(str_field("precond")?)?,
        precond_reliability: reliability_from_tag(str_field("precond_reliability")?)?,
    })
}

fn record_to_json(record: &TrialRecord) -> Json {
    Json::obj([
        ("config", config_to_json(&record.config)),
        ("trial", record.trial.into()),
        ("outcome", outcome_tag(record.outcome).into()),
        ("draw", draw_to_json(&record.draw)),
        ("original_weight", record.original_weight.into()),
        ("minimized_weight", record.minimized_weight.into()),
    ])
}

fn record_from_json(value: &Json) -> Result<TrialRecord, String> {
    Ok(TrialRecord {
        config: config_from_json(value.get("config").ok_or("record missing config")?)?,
        trial: usize_from_json(value.get("trial").ok_or("record missing trial")?, "trial")?,
        outcome: outcome_tag_lookup(value)?,
        draw: draw_from_json(value.get("draw").ok_or("record missing draw")?)?,
        original_weight: usize_from_json(
            value
                .get("original_weight")
                .ok_or("record missing original_weight")?,
            "original_weight",
        )?,
        minimized_weight: usize_from_json(
            value
                .get("minimized_weight")
                .ok_or("record missing minimized_weight")?,
            "minimized_weight",
        )?,
    })
}

fn outcome_tag_lookup(value: &Json) -> Result<FaultOutcome, String> {
    outcome_from_tag(
        value
            .get("outcome")
            .and_then(Json::as_str)
            .ok_or("record missing outcome")?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_flips_bisects_count_and_bits() {
        // Outcome is reproduced iff the candidate still contains the one
        // load-bearing flip (element 7, any bit >= 8).
        let reproduce =
            |candidate: &[(usize, u32)]| candidate.iter().any(|&(e, b)| e == 7 && b >= 8);
        let noisy = vec![(1, 3), (7, 62), (4, 10), (9, 51), (2, 0)];
        let shrunk = shrink_flips(&reproduce, &noisy);
        assert_eq!(
            shrunk,
            vec![(7, 8)],
            "count bisected to 1, bit bisected to 8"
        );

        // When every flip is load-bearing, nothing is dropped and bits
        // still shrink as far as the predicate allows.
        let all_needed = |candidate: &[(usize, u32)]| candidate.len() >= 2;
        let pair = vec![(3, 40), (5, 41)];
        let shrunk = shrink_flips(&all_needed, &pair);
        assert_eq!(shrunk, vec![(3, 0), (5, 0)]);
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let config = CampaignConfig {
            seed: 0xDEAD_BEEF_CAFE_F00D, // > 2^53: exercises the string path
            protection: ProtectionConfig::full(EccScheme::Secded64)
                .with_parity(ParityConfig {
                    stripe_chunks: 4,
                    chunk_words: 16,
                })
                .with_crc_backend(Crc32cBackend::SlicingBy16),
            storage: StorageTier::BlockedCsr(4),
            precond: PrecondKind::Polynomial(2),
            ..CampaignConfig::default()
        };
        let corpus = FailureCorpus {
            records: vec![
                TrialRecord {
                    config: config.clone(),
                    trial: 17,
                    outcome: FaultOutcome::DetectedAborted,
                    draw: TrialDraw::Flips(FaultSpec {
                        target: FaultTarget::RowPointer,
                        flips: vec![(256, 3), (256, 17)],
                    }),
                    original_weight: 4,
                    minimized_weight: 2,
                },
                TrialRecord {
                    config: config.clone(),
                    trial: 3,
                    outcome: FaultOutcome::SilentCorruption,
                    draw: TrialDraw::SolverVector {
                        vector: SolverVectorTarget::P,
                        strike_iteration: 2,
                        flips: vec![(9, 62)],
                    },
                    original_weight: 3,
                    minimized_weight: 1,
                },
                TrialRecord {
                    config: config.clone(),
                    trial: 8,
                    outcome: FaultOutcome::BoundsCaught,
                    draw: TrialDraw::ChunkErasure {
                        chunk: 2,
                        chunk_words: 16,
                        strike_iteration: 1,
                        garbage_seed: u64::MAX - 1, // not f64-representable
                    },
                    original_weight: 16,
                    minimized_weight: 16,
                },
                TrialRecord {
                    config,
                    trial: 21,
                    outcome: FaultOutcome::Masked,
                    draw: TrialDraw::InnerApplyBurst {
                        strike_apply: 1,
                        element: 5,
                        start_bit: 48,
                        length: 8,
                    },
                    original_weight: 8,
                    minimized_weight: 8,
                },
            ],
        };
        let parsed =
            FailureCorpus::from_json(&Json::parse(&corpus.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, corpus);
        // The u64s survived exactly.
        assert_eq!(parsed.records[0].seed(), 0xDEAD_BEEF_CAFE_F00D);
        match &parsed.records[2].draw {
            TrialDraw::ChunkErasure { garbage_seed, .. } => {
                assert_eq!(*garbage_seed, u64::MAX - 1)
            }
            other => panic!("wrong draw: {other:?}"),
        }
    }

    #[test]
    fn corpus_rejects_malformed_documents() {
        for bad in [
            r#"{"version": 1}"#,
            r#"{"records": [{}]}"#,
            r#"{"records": [{"trial": 0}]}"#,
        ] {
            assert!(
                FailureCorpus::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad} should fail"
            );
        }
    }
}

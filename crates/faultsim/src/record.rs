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
//! re-executes exactly through the one executor.  Every enum in a record is
//! written as a stable string tag from one `(value, tag)` table per enum,
//! read back through the same table; 64-bit integers are serialized as
//! decimal strings because the JSON number type is an `f64` (see
//! [`crate::json`]).

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
    /// The ECC scheme guarding the struck region.
    pub fn scheme(&self) -> EccScheme {
        self.config.active_scheme()
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

// --- serialization ---------------------------------------------------------
//
// Every enum in a record is written as a stable string tag, looked up in its
// one `(value, tag)` table by `tag` and `from_tag`.  u64 values (seeds) are
// serialized as decimal strings: Json::Num is an f64 and cannot round-trip
// integers above 2^53.

/// An enum written to the corpus as a stable string tag.  `TAGS` lists
/// every value once; the one variant of an enum that carries a count
/// (`StorageTier::BlockedCsr`, `PrecondKind::Polynomial`) is listed with
/// count 0 and written `tag:count`.
trait Tagged: Copy + PartialEq + 'static {
    /// What the tag names, for error messages.
    const WHAT: &'static str;
    /// `(value, tag)` for every value.
    const TAGS: &'static [(Self, &'static str)];

    /// The count this value carries, if its variant has one.
    fn count(self) -> Option<usize> {
        None
    }

    /// This value's variant carrying `count` instead.
    fn with_count(self, _count: usize) -> Self {
        self
    }
}

/// The tag written for `value`.
fn tag<T: Tagged>(value: T) -> Json {
    let bare = value.with_count(0);
    let (_, name) = T::TAGS
        .iter()
        .find(|(v, _)| *v == bare)
        .expect("every value has a tag");
    Json::Str(match value.count() {
        Some(count) => format!("{name}:{count}"),
        None => name.to_string(),
    })
}

/// The value a tag written by `tag` names.
fn from_tag<T: Tagged>(text: &str) -> Result<T, String> {
    let unknown = || format!("unknown {} tag {text:?}", T::WHAT);
    let (name, count) = match text.split_once(':') {
        Some((name, count)) => (name, Some(count.parse().map_err(|_| unknown())?)),
        None => (text, None),
    };
    T::TAGS
        .iter()
        .find(|(value, tag)| *tag == name && value.count().is_some() == count.is_some())
        .map(|&(value, _)| count.map_or(value, |count| value.with_count(count)))
        .ok_or_else(unknown)
}

/// Implements [`Tagged`] from a `value => tag` table, plus (after a `;`)
/// the enum's counted variant, if it has one.
macro_rules! tagged {
    ($ty:ty, $what:literal: $($value:expr => $tag:literal),+
        $(; $counted:path => $counted_tag:literal)? $(,)?) => {
        impl Tagged for $ty {
            const WHAT: &'static str = $what;
            const TAGS: &'static [(Self, &'static str)] =
                &[$(($value, $tag)),+ $(, ($counted(0), $counted_tag))?];
            $(
                fn count(self) -> Option<usize> {
                    match self {
                        $counted(count) => Some(count),
                        _ => None,
                    }
                }

                fn with_count(self, count: usize) -> Self {
                    match self {
                        $counted(_) => $counted(count),
                        fixed => fixed,
                    }
                }
            )?
        }
    };
}

tagged!(EccScheme, "scheme":
    EccScheme::None => "none",
    EccScheme::Sed => "sed",
    EccScheme::Secded64 => "secded64",
    EccScheme::Secded128 => "secded128",
    EccScheme::Crc32c => "crc32c",
);
tagged!(Crc32cBackend, "CRC backend":
    Crc32cBackend::Naive => "naive",
    Crc32cBackend::SlicingBy4 => "slicing4",
    Crc32cBackend::SlicingBy8 => "slicing8",
    Crc32cBackend::SlicingBy16 => "slicing16",
    Crc32cBackend::Hardware => "hardware",
    Crc32cBackend::Auto => "auto",
);
tagged!(FaultTarget, "target":
    FaultTarget::MatrixValues => "matrix_values",
    FaultTarget::MatrixColumnIndices => "matrix_col_indices",
    FaultTarget::RowPointer => "row_pointer",
    FaultTarget::DenseVector => "dense_vector",
);
tagged!(SolverVectorTarget, "solver-vector":
    SolverVectorTarget::X => "x",
    SolverVectorTarget::R => "r",
    SolverVectorTarget::P => "p",
);
tagged!(Method, "method":
    Method::Cg => "cg",
    Method::Jacobi => "jacobi",
    Method::Chebyshev => "chebyshev",
    Method::Ppcg => "ppcg",
);
tagged!(InjectionKind, "injection":
    InjectionKind::BitFlips => "bit_flips",
    InjectionKind::Burst => "burst",
    InjectionKind::ChunkErasure => "chunk_erasure",
    InjectionKind::RowPointerGroupErasure => "row_pointer_group_erasure",
    InjectionKind::PrecondFactorFlips => "precond_factor_flips",
    InjectionKind::PrecondFactorBurst => "precond_factor_burst",
    InjectionKind::InnerApplyBurst => "inner_apply_burst",
    InjectionKind::SolverVectorFlips => "solver_vector_flips",
    InjectionKind::SolverVectorBurst => "solver_vector_burst",
);
tagged!(Reliability, "reliability":
    Reliability::Protected => "uniform",
    Reliability::Unreliable => "selective",
);
tagged!(FaultOutcome, "outcome":
    FaultOutcome::Corrected => "corrected",
    FaultOutcome::DetectedRebuilt => "detected_rebuilt",
    FaultOutcome::DetectedAborted => "detected_aborted",
    FaultOutcome::BoundsCaught => "bounds_caught",
    FaultOutcome::Masked => "masked",
    FaultOutcome::SilentCorruption => "silent_corruption",
);

tagged!(StorageTier, "storage":
    StorageTier::Csr => "csr",
    StorageTier::Coo => "coo";
    StorageTier::BlockedCsr => "blocked_csr",
);
tagged!(PrecondKind, "preconditioner":
    PrecondKind::Ilu0 => "ilu0";
    PrecondKind::Polynomial => "polynomial",
);

fn u64_to_json(value: u64) -> Json {
    Json::Str(value.to_string())
}

fn usize_from_json(value: &Json, what: &str) -> Result<usize, String> {
    value
        .as_f64()
        .filter(|n| n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53))
        .map(|n| n as usize)
        .ok_or_else(|| format!("{what}: expected a non-negative integer, got {value:?}"))
}

/// Field `name` of the object `value`.
fn field<'a>(value: &'a Json, name: &str) -> Result<&'a Json, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing field {name}"))
}

fn usize_field(value: &Json, name: &str) -> Result<usize, String> {
    usize_from_json(field(value, name)?, name)
}

fn u64_field(value: &Json, name: &str) -> Result<u64, String> {
    let text = field(value, name)?;
    text.as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("{name}: expected a decimal-string u64, got {text:?}"))
}

fn str_field<'a>(value: &'a Json, name: &str) -> Result<&'a str, String> {
    field(value, name)?
        .as_str()
        .ok_or_else(|| format!("{name}: expected a string"))
}

fn tag_field<T: Tagged>(value: &Json, name: &str) -> Result<T, String> {
    from_tag(str_field(value, name)?)
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

fn draw_to_json(draw: &TrialDraw) -> Json {
    match draw {
        TrialDraw::Flips(spec) => Json::obj([
            ("type", "flips".into()),
            ("target", tag(spec.target)),
            ("flips", flips_to_json(&spec.flips)),
        ]),
        TrialDraw::SolverVector {
            vector,
            strike_iteration,
            flips,
        } => Json::obj([
            ("type", "solver_vector".into()),
            ("vector", tag(*vector)),
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
    let flips = || flips_from_json(field(value, "flips")?);
    Ok(match str_field(value, "type")? {
        "flips" => TrialDraw::Flips(FaultSpec {
            target: tag_field(value, "target")?,
            flips: flips()?,
        }),
        "solver_vector" => TrialDraw::SolverVector {
            vector: tag_field(value, "vector")?,
            strike_iteration: u64_field(value, "strike_iteration")?,
            flips: flips()?,
        },
        "chunk_erasure" => TrialDraw::ChunkErasure {
            chunk: usize_field(value, "chunk")?,
            chunk_words: usize_field(value, "chunk_words")?,
            strike_iteration: u64_field(value, "strike_iteration")?,
            garbage_seed: u64_field(value, "garbage_seed")?,
        },
        "precond_factors" => TrialDraw::PrecondFactors(flips()?),
        "inner_apply_burst" => TrialDraw::InnerApplyBurst {
            strike_apply: u64_field(value, "strike_apply")?,
            element: usize_field(value, "element")?,
            start_bit: usize_field(value, "start_bit")? as u32,
            length: usize_field(value, "length")? as u32,
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
        ("elements", tag(protection.elements)),
        ("row_pointer", tag(protection.row_pointer)),
        ("vectors", tag(protection.vectors)),
        (
            "check_interval",
            (protection.check_interval as usize).into(),
        ),
        ("crc_backend", tag(protection.crc_backend)),
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
        ("target", tag(config.target)),
        ("seed", u64_to_json(config.seed)),
        ("sdc_threshold", config.sdc_threshold.into()),
        ("solver", tag(config.solver)),
        ("injection", tag(config.injection)),
        ("storage", tag(config.storage)),
        ("precond", tag(config.precond)),
        ("precond_reliability", tag(config.precond_reliability)),
    ])
}

fn config_from_json(value: &Json) -> Result<CampaignConfig, String> {
    let parity = match value.get("parity") {
        None | Some(Json::Null) => None,
        Some(parity) => Some(ParityConfig {
            stripe_chunks: usize_field(parity, "stripe_chunks")?,
            chunk_words: usize_field(parity, "chunk_words")?,
        }),
    };
    let protection = ProtectionConfig {
        elements: tag_field(value, "elements")?,
        row_pointer: tag_field(value, "row_pointer")?,
        vectors: tag_field(value, "vectors")?,
        check_interval: usize_field(value, "check_interval")? as u32,
        crc_backend: tag_field(value, "crc_backend")?,
        parallel: matches!(value.get("parallel"), Some(Json::Bool(true))),
        parity,
    };
    Ok(CampaignConfig {
        nx: usize_field(value, "nx")?,
        ny: usize_field(value, "ny")?,
        trials: usize_field(value, "trials")?,
        flips_per_trial: usize_field(value, "flips_per_trial")?,
        protection,
        target: tag_field(value, "target")?,
        seed: u64_field(value, "seed")?,
        sdc_threshold: field(value, "sdc_threshold")?
            .as_f64()
            .ok_or("sdc_threshold: expected a number")?,
        solver: tag_field(value, "solver")?,
        injection: tag_field(value, "injection")?,
        storage: tag_field(value, "storage")?,
        precond: tag_field(value, "precond")?,
        precond_reliability: tag_field(value, "precond_reliability")?,
    })
}

fn record_to_json(record: &TrialRecord) -> Json {
    Json::obj([
        ("config", config_to_json(&record.config)),
        ("trial", record.trial.into()),
        ("outcome", tag(record.outcome)),
        ("draw", draw_to_json(&record.draw)),
        ("original_weight", record.original_weight.into()),
        ("minimized_weight", record.minimized_weight.into()),
    ])
}

fn record_from_json(value: &Json) -> Result<TrialRecord, String> {
    Ok(TrialRecord {
        config: config_from_json(field(value, "config")?)?,
        trial: usize_field(value, "trial")?,
        outcome: tag_field(value, "outcome")?,
        draw: draw_from_json(field(value, "draw")?)?,
        original_weight: usize_field(value, "original_weight")?,
        minimized_weight: usize_field(value, "minimized_weight")?,
    })
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

    /// Every value of every tagged enum appears in some record, the corpus
    /// round-trips, and the tags written for each value are pinned
    /// literally: a writer-side rename fails here.
    #[test]
    fn corpus_round_trips_through_json() {
        const KINDS: [InjectionKind; 9] = [
            InjectionKind::BitFlips,
            InjectionKind::Burst,
            InjectionKind::ChunkErasure,
            InjectionKind::RowPointerGroupErasure,
            InjectionKind::PrecondFactorFlips,
            InjectionKind::PrecondFactorBurst,
            InjectionKind::InnerApplyBurst,
            InjectionKind::SolverVectorFlips,
            InjectionKind::SolverVectorBurst,
        ];
        const SCHEMES: [EccScheme; 5] = [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ];
        const BACKENDS: [Crc32cBackend; 6] = [
            Crc32cBackend::Naive,
            Crc32cBackend::SlicingBy4,
            Crc32cBackend::SlicingBy8,
            Crc32cBackend::SlicingBy16,
            Crc32cBackend::Hardware,
            Crc32cBackend::Auto,
        ];
        const METHODS: [Method; 4] = [Method::Cg, Method::Jacobi, Method::Chebyshev, Method::Ppcg];
        const STORAGE: [StorageTier; 3] = [
            StorageTier::Csr,
            StorageTier::Coo,
            StorageTier::BlockedCsr(4),
        ];
        const PRECONDS: [PrecondKind; 2] = [PrecondKind::Ilu0, PrecondKind::Polynomial(2)];
        const RELIABILITY: [Reliability; 2] = [Reliability::Protected, Reliability::Unreliable];
        let draws = [
            TrialDraw::Flips(FaultSpec {
                target: FaultTarget::RowPointer,
                flips: vec![(256, 3), (256, 17)],
            }),
            TrialDraw::SolverVector {
                vector: SolverVectorTarget::X,
                strike_iteration: 2,
                flips: vec![(9, 62)],
            },
            TrialDraw::SolverVector {
                vector: SolverVectorTarget::R,
                strike_iteration: 3,
                flips: vec![(1, 0), (4, 5)],
            },
            TrialDraw::SolverVector {
                vector: SolverVectorTarget::P,
                strike_iteration: 1,
                flips: vec![],
            },
            TrialDraw::ChunkErasure {
                chunk: 2,
                chunk_words: 16,
                strike_iteration: 1,
                garbage_seed: u64::MAX - 1, // not f64-representable
            },
            TrialDraw::PrecondFactors(vec![(77, 63), (77, 64)]),
            TrialDraw::InnerApplyBurst {
                strike_apply: 1,
                element: 5,
                start_bit: 48,
                length: 8,
            },
        ];
        let records = (0..KINDS.len())
            .map(|i| {
                let protection = ProtectionConfig {
                    elements: SCHEMES[i % 5],
                    row_pointer: SCHEMES[(i + 1) % 5],
                    vectors: SCHEMES[(i + 2) % 5],
                    check_interval: 1 + i as u32,
                    crc_backend: BACKENDS[i % 6],
                    parallel: i % 2 == 0,
                    parity: (i % 2 == 1).then_some(ParityConfig {
                        stripe_chunks: 4,
                        chunk_words: 16 + i,
                    }),
                };
                TrialRecord {
                    config: CampaignConfig {
                        trials: 10 + i,
                        flips_per_trial: 1 + i,
                        // > 2^53: exercises the string path.
                        seed: 0xDEAD_BEEF_CAFE_F00D + i as u64,
                        sdc_threshold: 1e-9 * (1 + i) as f64,
                        protection,
                        target: FaultTarget::ALL[i % 4],
                        solver: METHODS[i % 4],
                        injection: KINDS[i],
                        storage: STORAGE[i % 3],
                        precond: PRECONDS[i % 2],
                        precond_reliability: RELIABILITY[i % 2],
                        ..CampaignConfig::default()
                    },
                    trial: 3 * i,
                    outcome: FaultOutcome::ALL[i % 6],
                    draw: draws[i % draws.len()].clone(),
                    original_weight: 4 + i,
                    minimized_weight: 1 + i,
                }
            })
            .collect();
        let corpus = FailureCorpus { records };
        let written = corpus.to_json();
        let parsed = FailureCorpus::from_json(&Json::parse(&written.render()).unwrap()).unwrap();
        assert_eq!(parsed, corpus);
        // The u64s survived exactly.
        assert_eq!(parsed.records[0].config.seed, 0xDEAD_BEEF_CAFE_F00D);
        match &parsed.records[4].draw {
            TrialDraw::ChunkErasure { garbage_seed, .. } => {
                assert_eq!(*garbage_seed, u64::MAX - 1)
            }
            other => panic!("wrong draw: {other:?}"),
        }

        // The first `expected.len()` records carry each enum's values in
        // declaration order, so their tags read back as the pinned list.
        let written = written.get("records").and_then(Json::as_arr).unwrap();
        let tags = |path: &[&str], expected: &[&str]| {
            let got: Vec<&str> = written[..expected.len()]
                .iter()
                .map(|record| {
                    path.iter()
                        .try_fold(record, |value, key| value.get(key))
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("no string at {path:?}"))
                })
                .collect();
            assert_eq!(got, expected, "{path:?}");
        };
        tags(
            &["config", "injection"],
            &[
                "bit_flips",
                "burst",
                "chunk_erasure",
                "row_pointer_group_erasure",
                "precond_factor_flips",
                "precond_factor_burst",
                "inner_apply_burst",
                "solver_vector_flips",
                "solver_vector_burst",
            ],
        );
        tags(
            &["config", "elements"],
            &["none", "sed", "secded64", "secded128", "crc32c"],
        );
        tags(
            &["config", "crc_backend"],
            &[
                "naive",
                "slicing4",
                "slicing8",
                "slicing16",
                "hardware",
                "auto",
            ],
        );
        tags(
            &["config", "solver"],
            &["cg", "jacobi", "chebyshev", "ppcg"],
        );
        tags(&["config", "storage"], &["csr", "coo", "blocked_csr:4"]);
        tags(&["config", "precond"], &["ilu0", "polynomial:2"]);
        tags(
            &["config", "precond_reliability"],
            &["uniform", "selective"],
        );
        tags(
            &["config", "target"],
            &[
                "matrix_values",
                "matrix_col_indices",
                "row_pointer",
                "dense_vector",
            ],
        );
        tags(
            &["outcome"],
            &[
                "corrected",
                "detected_rebuilt",
                "detected_aborted",
                "bounds_caught",
                "masked",
                "silent_corruption",
            ],
        );
        tags(
            &["draw", "type"],
            &[
                "flips",
                "solver_vector",
                "solver_vector",
                "solver_vector",
                "chunk_erasure",
                "precond_factors",
                "inner_apply_burst",
            ],
        );
        let vectors: Vec<&str> = written[1..4]
            .iter()
            .map(|record| {
                record
                    .get("draw")
                    .and_then(|draw| draw.get("vector"))
                    .and_then(Json::as_str)
                    .unwrap()
            })
            .collect();
        assert_eq!(vectors, ["x", "r", "p"]);
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

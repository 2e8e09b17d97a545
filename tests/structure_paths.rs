//! Every fault path through the row structure, pinned — the matrix-side
//! twin of the barrier fixture in `erasure_recovery.rs`.
//!
//! Three storage tiers (CSR, COO, blocked CSR) under every row-structure
//! scheme (and an unprotected row structure under CRC32C elements), with a
//! flip at the first, a middle and the last structure entry — one payload
//! bit, one redundancy bit, one spare bit where the layout has one, two
//! payload bits of one codeword, and the highest payload bit, which makes a
//! wild offset — each driven through a checked SpMV, an interval-skipped
//! SpMV, `verify_all`, `scrub` and `decode_checked`.  Each outcome — the
//! result, the full fault-log snapshot and the raw structure, column and
//! value words after the call (plus the product or the decoded matrix) — is
//! pinned in `fixtures/structure_paths.txt`.

use abft_suite::core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, FaultLogSnapshot, ProtectedMatrix,
    ProtectionConfig, SpmvWorkspace, StorageTier,
};
use abft_suite::solvers::decode_checked;
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::CsrMatrix;

const TIERS: [StorageTier; 3] = [
    StorageTier::Csr,
    StorageTier::Coo,
    StorageTier::BlockedCsr(3),
];

/// `(row-structure scheme, element scheme)`.
const SCHEMES: [(EccScheme, EccScheme); 5] = [
    (EccScheme::Sed, EccScheme::Sed),
    (EccScheme::Secded64, EccScheme::Secded64),
    (EccScheme::Secded128, EccScheme::Secded128),
    (EccScheme::Crc32c, EccScheme::Crc32c),
    (EccScheme::None, EccScheme::Crc32c),
];

/// Checks run every fourth iteration: iteration 0 is checked, 1 is not.
const CHECK_INTERVAL: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Flip {
    Clean,
    Payload,
    Redundancy,
    Spare,
    DoublePayload,
    Wild,
}

const FLIPS: [Flip; 5] = [
    Flip::Payload,
    Flip::Redundancy,
    Flip::Spare,
    Flip::DoublePayload,
    Flip::Wild,
];

const CALLS: [&str; 5] = ["spmv", "skipped", "verify", "scrub", "decode"];

/// What each bit of a stored row-structure word carries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Payload,
    Redundancy,
    Spare,
}

/// The role of `bit` in structure entry `local` (its index inside the
/// protected structure that holds it: a block's row pointer under blocked
/// CSR).  CSR row-pointer groups keep their code in the top nibbles of
/// consecutive entries, low nibble first; a COO row index carries its own
/// SECDED(24) code in bits 24–29.
fn role(tier: StorageTier, scheme: EccScheme, local: usize, bit: u32) -> Role {
    let payload_bits = match (scheme, tier) {
        (EccScheme::None, _) => 32,
        (EccScheme::Sed, _) => 31,
        (_, StorageTier::Coo) => 24,
        _ => 28,
    };
    if bit < payload_bits {
        return Role::Payload;
    }
    let code_bits = match (scheme, tier) {
        (EccScheme::Sed, _) => return Role::Redundancy,
        (_, StorageTier::Coo) => {
            return if bit < 30 {
                Role::Redundancy
            } else {
                Role::Spare
            }
        }
        (EccScheme::Secded64, _) => 7,
        (EccScheme::Secded128, _) => 8,
        _ => 32,
    };
    let nibble_bit = 4 * (local % scheme.row_pointer_group()) as u32 + bit - 28;
    if nibble_bit < code_bits {
        Role::Redundancy
    } else {
        Role::Spare
    }
}

/// The entry and bits `flip` sets in the codeword holding structure entry
/// `entry`, or `None` when the codeword has no such bit.  A payload flip
/// lands on `entry` itself; a redundancy or spare flip on the first entry
/// from `entry` on, inside its codeword, that carries such a bit (a
/// codeword's spare nibbles sit in its last entries).
fn flip_site(
    m: &AnyProtectedMatrix,
    scheme: EccScheme,
    entry: usize,
    flip: Flip,
) -> Option<(usize, Vec<u32>)> {
    let tier = m.tier();
    let (local, len) = local_entry(m, entry);
    let codeword = if tier == StorageTier::Coo {
        1
    } else {
        scheme.row_pointer_group()
    };
    let mut siblings = (local..len).take_while(|l| l / codeword == local / codeword);
    let mut first = |wanted| {
        siblings.find_map(|l| {
            let bit = (0..32).find(|&bit| role(tier, scheme, l, bit) == wanted)?;
            Some((entry + l - local, vec![bit]))
        })
    };
    match flip {
        Flip::Clean => Some((entry, Vec::new())),
        Flip::Payload => Some((entry, vec![2])),
        Flip::DoublePayload => Some((entry, vec![2, 9])),
        Flip::Redundancy => first(Role::Redundancy),
        Flip::Spare => first(Role::Spare),
        Flip::Wild => (0..32)
            .rev()
            .find(|&bit| role(tier, scheme, local, bit) == Role::Payload)
            .map(|bit| (entry, vec![bit])),
    }
}

/// Structure entry `entry`'s index inside the protected structure holding
/// it (a block's row pointer under blocked CSR), and that structure's
/// length.
fn local_entry(m: &AnyProtectedMatrix, entry: usize) -> (usize, usize) {
    match m {
        AnyProtectedMatrix::BlockedCsr(b) => {
            let mut offset = entry;
            for block in b.blocks() {
                if offset < block.structure_entries() {
                    return (offset, block.structure_entries());
                }
                offset -= block.structure_entries();
            }
            unreachable!("entry {entry} beyond the structure")
        }
        _ => (entry, m.structure_entries()),
    }
}

/// FNV-1a over 64-bit words.
fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for b in w.to_le_bytes() {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

fn fnv_csr(hash: &mut u64, m: &CsrMatrix) {
    fnv(hash, m.values().iter().map(|v| v.to_bits()));
    fnv(hash, m.col_indices().iter().map(|&c| c.into()));
    fnv(hash, m.row_pointer().iter().map(|&e| e.into()));
}

/// Hashes the raw structure, column and value words of `m`.
fn fnv_storage(hash: &mut u64, m: &AnyProtectedMatrix) {
    let mut csr = |m: &abft_suite::core::ProtectedCsr| {
        fnv(hash, m.row_pointer().raw().iter().map(|&e| e.into()));
        fnv(hash, m.raw_col_indices().iter().map(|&c| c.into()));
        fnv(hash, m.raw_values().iter().map(|v| v.to_bits()));
    };
    match m {
        AnyProtectedMatrix::Csr(m) => csr(m),
        AnyProtectedMatrix::BlockedCsr(b) => b.blocks().iter().for_each(csr),
        AnyProtectedMatrix::Coo(m) => {
            fnv(hash, m.raw_row_indices().iter().map(|&e| e.into()));
            fnv(hash, m.raw_col_indices().iter().map(|&c| c.into()));
            fnv(hash, m.raw_values().iter().map(|v| v.to_bits()));
        }
    }
}

fn result_code(result: Result<String, AbftError>) -> String {
    match result {
        Ok(code) => code,
        Err(AbftError::Uncorrectable { region, index }) => format!("due:{region:?}@{index}"),
        Err(AbftError::OutOfRange {
            region,
            index,
            value,
            limit,
        }) => format!("oob:{region:?}@{index}:{value}/{limit}"),
        Err(e) => format!("{e:?}"),
    }
}

fn snapshot_code(s: &FaultLogSnapshot) -> String {
    format!(
        "{:?}/{:?}/{:?}/{:?}/{:?}",
        s.checks, s.corrected, s.uncorrectable, s.bounds_violations, s.rebuilt
    )
}

/// Runs `call` on a copy of `m`: the result code, the fault log and the
/// hash of the output and of the storage afterwards.
fn run_call(m: &AnyProtectedMatrix, call: &str, x: &[f64]) -> (String, FaultLogSnapshot, u64) {
    let mut m = m.clone();
    let log = FaultLog::new();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut y = vec![0.0; m.rows()];
    let mut ws = SpmvWorkspace::new();
    let ok = |()| "ok".to_string();
    let result = match call {
        "spmv" | "skipped" => {
            let iteration = (call == "skipped") as u64;
            let result = m.spmv_with(x, &mut y, iteration, &log, &mut ws);
            fnv(&mut hash, y.iter().map(|v| v.to_bits()));
            result.map(ok)
        }
        "verify" => m.verify_all(&log).map(ok),
        "scrub" => m.scrub(&log).map(|n| format!("ok:{n}")),
        "decode" => decode_checked(&m, &log)
            .map(|plain| fnv_csr(&mut hash, &plain))
            .map(ok)
            .map_err(|e| e.fault().cloned().expect("a fault")),
        other => unreachable!("unknown call {other}"),
    };
    fnv_storage(&mut hash, &m);
    (result_code(result), log.snapshot(), hash)
}

/// One pinned line per tier × scheme × flip × entry × call:
/// `tier scheme flip@entry:bits call result checks/corrected/uncorrectable/bounds/rebuilt hash`.
fn structure_lines() -> Vec<String> {
    let plain = poisson_2d_padded(16, 16);
    let x: Vec<f64> = (0..plain.cols())
        .map(|i| 1.0 + (i as f64 * 0.37).sin())
        .collect();
    let mut lines = Vec::new();
    for tier in TIERS {
        for (structure, elements) in SCHEMES {
            let cfg = ProtectionConfig {
                elements,
                row_pointer: structure,
                ..ProtectionConfig::unprotected()
            }
            .with_check_interval(CHECK_INTERVAL);
            let clean = AnyProtectedMatrix::encode(&plain, &cfg, tier).unwrap();
            let entries = clean.structure_entries();
            let sites = [(Flip::Clean, 0)].into_iter().chain(
                FLIPS
                    .into_iter()
                    .flat_map(|flip| [0, entries / 2, entries - 1].map(|entry| (flip, entry))),
            );
            for (flip, entry) in sites {
                let Some((entry, bits)) = flip_site(&clean, structure, entry, flip) else {
                    continue;
                };
                let mut corrupt = clean.clone();
                for &bit in &bits {
                    corrupt.inject_structure_bit_flip(entry, bit);
                }
                let single_flip = bits.len() == 1;
                let bits: Vec<String> = bits.iter().map(u32::to_string).collect();
                let bits = bits.join(",");
                for call in CALLS {
                    // Parity cannot see an even flip count, and `to_csr`
                    // asserts (in debug builds) on the offsets it lets by.
                    let unseen = structure == EccScheme::Sed && flip == Flip::DoublePayload;
                    if call == "decode" && unseen {
                        continue;
                    }
                    let (code, faults, hash) = run_call(&corrupt, call, &x);
                    let line = format!(
                        "{tier} {structure:?}/{elements:?} {flip:?}@{entry}:{bits} {call} {code} {} {hash:016x}",
                        snapshot_code(&faults)
                    );
                    // A scrub repairs exactly the corrections it logs.
                    if let Some(repaired) = code.strip_prefix("ok:").filter(|_| single_flip) {
                        let repaired: u64 = repaired.parse().unwrap();
                        assert_eq!(repaired, faults.total_corrected(), "{line}");
                    }
                    lines.push(line);
                }
            }
        }
    }
    lines
}

fn structure_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/structure_paths.txt")
}

#[test]
fn structure_fault_paths_match_the_pinned_outcomes() {
    let pinned = std::fs::read_to_string(structure_fixture_path()).expect("structure fixture");
    let pinned: Vec<&str> = pinned.lines().collect();
    let actual = structure_lines();
    assert_eq!(actual.len(), pinned.len(), "structure case count changed");
    let diverged: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|(a, p)| a != p)
        .map(|(a, p)| format!("  pinned {p}\n  actual {a}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} structure outcomes diverged from the pinned ones:\n{}",
        diverged.len(),
        diverged[..diverged.len().min(12)].join("\n")
    );
}

/// Prints the table `structure_fault_paths_match_the_pinned_outcomes`
/// pins; to re-record it after a deliberate change, run with `--ignored
/// --nocapture` and keep the lines that start with a tier name.
#[test]
#[ignore = "prints the structure fixture"]
fn print_structure_paths() {
    for line in structure_lines() {
        println!("{line}");
    }
}

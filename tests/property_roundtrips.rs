//! Randomised property tests for the core data structures and codecs:
//! encode/decode round-trips, single-flip correction guarantees, and CSR
//! structural invariants, all over seeded random inputs.
//!
//! The cases mirror what a proptest harness would generate, driven by the
//! deterministic ChaCha8 generator so every failure is reproducible from the
//! fixed seed.

use abft_suite::core::row_pointer::ProtectedRowPointer;
use abft_suite::ecc::crc32c::{update_naive, update_slicing16};
use abft_suite::ecc::{Crc32c, Crc32cBackend, SECDED_118, SECDED_56, SECDED_64, SECDED_88};
use abft_suite::prelude::*;
use abft_suite::sparse::builders::pad_rows_to_min_entries;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 64;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x2017_ABF7)
}

fn random_bytes(rng: &mut ChaCha8Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

fn random_f64(rng: &mut ChaCha8Rng) -> f64 {
    // Uniform in [-1e6, 1e6), the range the proptest harness used.
    (rng.gen_range(0u64..1 << 53) as f64 / (1u64 << 53) as f64) * 2e6 - 1e6
}

const SCHEMES: [EccScheme; 4] = [
    EccScheme::Sed,
    EccScheme::Secded64,
    EccScheme::Secded128,
    EccScheme::Crc32c,
];

/// A random small COO matrix with a guaranteed non-zero diagonal, converted
/// to CSR and padded to at least 4 entries per row.
fn random_padded_matrix(rng: &mut ChaCha8Rng) -> CsrMatrix {
    let rows = rng.gen_range(4usize..12);
    let cols = rng.gen_range(4usize..12);
    let mut coo = CooMatrix::new(rows, cols);
    for i in 0..rows.min(cols) {
        coo.push(i, i, 0.5 + random_f64(rng).abs() % 4.5);
    }
    for _ in 0..rng.gen_range(0usize..40) {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        coo.push(r, c, random_f64(rng) % 10.0);
    }
    pad_rows_to_min_entries(&coo.to_csr().unwrap(), 4.min(cols))
}

#[test]
fn crc32c_backends_agree() {
    let mut rng = rng();
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..512);
        let data = random_bytes(&mut rng, len);
        let naive = !update_naive(!0, &data);
        let slicing = !update_slicing16(!0, &data);
        assert_eq!(naive, slicing);
        let hw = Crc32c::new(Crc32cBackend::Hardware).checksum(&data);
        assert_eq!(naive, hw);
    }
}

#[test]
fn crc32c_detects_low_weight_errors() {
    let mut rng = rng();
    let crc = Crc32c::auto();
    for _ in 0..CASES {
        // Codeword lengths 184..2048 bits lie inside the HD=6 window, so any
        // 1..=5 distinct flips must be detected.
        let len = rng.gen_range(23usize..256);
        let data = random_bytes(&mut rng, len);
        let reference = crc.checksum(&data);
        let mut flips = std::collections::HashSet::new();
        let weight = rng.gen_range(1usize..=5);
        while flips.len() < weight {
            flips.insert(rng.gen_range(0usize..23 * 8));
        }
        let mut corrupted = data.clone();
        for bit in &flips {
            corrupted[bit / 8] ^= 1 << (bit % 8);
        }
        assert_ne!(crc.checksum(&corrupted), reference, "weight {weight}");
    }
}

#[test]
fn secded_roundtrip_and_single_flip_correction() {
    let mut rng = rng();
    for _ in 0..CASES {
        let payload = [rng.next_u64(), rng.next_u64()];
        let flip = rng.gen_range(0usize..118);
        for (code, bits) in [
            (&SECDED_56, 56usize),
            (&SECDED_64, 64),
            (&SECDED_88, 88),
            (&SECDED_118, 118),
        ] {
            let mut data = payload.to_vec();
            // Mask to the code's width.
            for (w, word) in data.iter_mut().enumerate() {
                let low = bits.saturating_sub(w * 64).min(64);
                *word &= if low == 64 {
                    u64::MAX
                } else {
                    (1u64 << low) - 1
                };
            }
            let data = &data[..bits.div_ceil(64)];
            let red = code.encode(data);
            assert_eq!(
                code.check(data, red),
                abft_suite::ecc::DecodeOutcome::NoError
            );

            let bit = flip % bits;
            let mut corrupted = data.to_vec();
            corrupted[bit / 64] ^= 1u64 << (bit % 64);
            let outcome = code.check_and_correct(&mut corrupted, red);
            assert_eq!(outcome, abft_suite::ecc::DecodeOutcome::CorrectedData(bit));
            assert_eq!(&corrupted[..], data);
        }
    }
}

#[test]
fn coo_to_csr_preserves_entries() {
    let mut rng = rng();
    for _ in 0..CASES {
        let rows = rng.gen_range(1usize..10);
        let cols = rng.gen_range(1usize..10);
        let mut coo = CooMatrix::new(rows, cols);
        let mut dense = vec![vec![0.0f64; cols]; rows];
        for _ in 0..rng.gen_range(0usize..30) {
            let r = rng.gen_range(0..rows);
            let c = rng.gen_range(0..cols);
            let v = random_f64(&mut rng) % 5.0;
            coo.push(r, c, v);
            dense[r][c] += v;
        }
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.rows(), rows);
        assert_eq!(csr.cols(), cols);
        for (r, dense_row) in dense.iter().enumerate() {
            for (c, expect) in dense_row.iter().enumerate() {
                assert!((csr.get(r, c) - expect).abs() < 1e-12);
            }
        }
        // Row pointer is monotone and ends at nnz.
        let rp = csr.row_pointer();
        assert!(rp.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rp.last().unwrap() as usize, csr.nnz());
    }
}

#[test]
fn protected_csr_roundtrips_and_spmv_matches() {
    let mut rng = rng();
    for _ in 0..CASES {
        let matrix = random_padded_matrix(&mut rng);
        let scheme = SCHEMES[rng.gen_range(0usize..SCHEMES.len())];
        let rowptr_scheme = SCHEMES[rng.gen_range(0usize..SCHEMES.len())];
        let protection = ProtectionConfig {
            elements: scheme,
            row_pointer: rowptr_scheme,
            vectors: EccScheme::None,
            check_interval: 1,
            crc_backend: Crc32cBackend::Hardware,
            parallel: false,
            parity: None,
        };
        let protected = ProtectedCsr::from_csr(&matrix, &protection).unwrap();
        assert_eq!(protected.to_csr(), matrix);

        let x: Vec<f64> = (0..matrix.cols()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y_ref = vec![0.0; matrix.rows()];
        abft_suite::sparse::spmv::spmv_serial(&matrix, &x, &mut y_ref);
        let log = FaultLog::new();
        let mut y = vec![0.0; matrix.rows()];
        protected
            .spmv_with(&x[..], &mut y, 0, &log, &mut SpmvWorkspace::new())
            .unwrap();
        assert_eq!(y, y_ref);
        assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
    }
}

#[test]
fn protected_csr_single_flip_never_goes_unnoticed() {
    let mut rng = rng();
    for _ in 0..CASES {
        let matrix = random_padded_matrix(&mut rng);
        let scheme = SCHEMES[rng.gen_range(0usize..SCHEMES.len())];
        let protection = ProtectionConfig::matrix_only(scheme);
        let mut protected = ProtectedCsr::from_csr(&matrix, &protection).unwrap();
        let k = rng.gen_range(0..matrix.nnz());
        let bit = rng.gen_range(0u32..64);
        protected.inject_value_bit_flip(k, bit);
        let log = FaultLog::new();
        let result = protected.verify_all(&log);
        match scheme {
            EccScheme::Sed => {
                // Parity detects the flip (cannot correct it).
                assert!(result.is_err(), "({k},{bit})");
            }
            _ => {
                assert!(result.is_ok(), "{scheme:?} ({k},{bit})");
                assert_eq!(log.total_corrected(), 1, "{scheme:?} ({k},{bit})");
            }
        }
    }
}

#[test]
fn protected_vector_roundtrip_and_flip_handling() {
    let mut rng = rng();
    for _ in 0..CASES {
        let values: Vec<f64> = (0..rng.gen_range(1usize..40))
            .map(|_| random_f64(&mut rng))
            .collect();
        let scheme = SCHEMES[rng.gen_range(0usize..SCHEMES.len())];
        let v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::Hardware);
        let bound = abft_suite::core::protected_vector::masking_relative_error_bound(scheme);
        for (i, &orig) in values.iter().enumerate() {
            let rel = if orig == 0.0 {
                v.get(i).abs()
            } else {
                ((v.get(i) - orig) / orig).abs()
            };
            assert!(rel <= bound);
        }
        let log = FaultLog::new();
        v.check_all(&log).unwrap();
        assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);

        // A single flip anywhere is corrected (SECDED / CRC) or detected (SED).
        let mut corrupted = v.clone();
        corrupted.inject_bit_flip(rng.gen_range(0..values.len()), rng.gen_range(0u32..64));
        let result = corrupted.scrub(&log);
        if scheme == EccScheme::Sed {
            assert!(result.is_err());
        } else {
            assert_eq!(result.unwrap(), 1);
            assert_eq!(corrupted.raw(), v.raw());
        }
    }
}

/// Serialises a CSR matrix as a general coordinate Matrix Market file.
/// Rust's shortest-roundtrip float formatting guarantees the text parses
/// back to the exact same bit patterns.
fn to_mtx_general(m: &CsrMatrix) -> String {
    let mut out = String::from("%%MatrixMarket matrix coordinate real general\n");
    out.push_str(&format!("{} {} {}\n", m.rows(), m.cols(), m.nnz()));
    for row in 0..m.rows() {
        for (col, value) in m.row_entries(row) {
            out.push_str(&format!("{} {} {}\n", row + 1, col + 1, value));
        }
    }
    out
}

/// A random CSR matrix with strictly non-zero stored values (the Matrix
/// Market reader drops explicit zeros, so zero values would not round-trip).
fn random_nonzero_matrix(rng: &mut ChaCha8Rng) -> CsrMatrix {
    let rows = rng.gen_range(1usize..14);
    let cols = rng.gen_range(1usize..14);
    let mut coo = CooMatrix::new(rows, cols);
    let mut used = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0usize..50) {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        if !used.insert((r, c)) {
            continue;
        }
        let mut v = random_f64(rng) % 9.0;
        if v == 0.0 {
            v = 1.0;
        }
        coo.push(r, c, v);
    }
    coo.to_csr().unwrap()
}

#[test]
fn matrix_market_roundtrips_random_general_matrices() {
    let mut rng = rng();
    for _ in 0..CASES {
        let matrix = random_nonzero_matrix(&mut rng);
        let text = to_mtx_general(&matrix);
        let back = abft_suite::sparse::parse_matrix_market_str(&text).unwrap();
        assert_eq!(back, matrix, "parsed CSR must match the source bitwise");
    }
}

#[test]
fn matrix_market_roundtrips_random_symmetric_matrices() {
    let mut rng = rng();
    for _ in 0..CASES {
        // Random lower triangle (diagonal included) with non-zero values.
        let n = rng.gen_range(1usize..12);
        let mut lower: Vec<(usize, usize, f64)> = Vec::new();
        let mut used = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(1usize..30) {
            let r = rng.gen_range(0..n);
            let c = rng.gen_range(0..=r);
            if !used.insert((r, c)) {
                continue;
            }
            let mut v = random_f64(&mut rng) % 7.0;
            if v == 0.0 {
                v = 2.0;
            }
            lower.push((r, c, v));
        }
        let mut text = String::from("%%MatrixMarket matrix coordinate real symmetric\n");
        text.push_str(&format!("{n} {n} {}\n", lower.len()));
        for &(r, c, v) in &lower {
            text.push_str(&format!("{} {} {}\n", r + 1, c + 1, v));
        }
        let parsed = abft_suite::sparse::parse_matrix_market_str(&text).unwrap();

        // Reference: the explicitly mirrored matrix assembled through COO.
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in &lower {
            coo.push(r, c, v);
            if r != c {
                coo.push(c, r, v);
            }
        }
        assert_eq!(parsed, coo.to_csr().unwrap());
    }
}

#[test]
fn storage_tiers_agree_bitwise_on_random_matrices() {
    use abft_suite::core::{AnyProtectedMatrix, StorageTier};
    let mut rng = rng();
    for _ in 0..CASES {
        let matrix = random_padded_matrix(&mut rng);
        let scheme = SCHEMES[rng.gen_range(0usize..SCHEMES.len())];
        let cfg = ProtectionConfig::matrix_only(scheme);
        let x: Vec<f64> = (0..matrix.cols())
            .map(|_| random_f64(&mut rng) % 3.0)
            .collect();
        let log = FaultLog::new();
        let reference = AnyProtectedMatrix::encode(&matrix, &cfg, StorageTier::Csr).unwrap();
        let mut y_ref = vec![0.0; matrix.rows()];
        reference
            .spmv_with(&x[..], &mut y_ref, 0, &log, &mut SpmvWorkspace::new())
            .unwrap();
        let blocks = rng.gen_range(1usize..6);
        for tier in [StorageTier::Coo, StorageTier::BlockedCsr(blocks)] {
            let a = AnyProtectedMatrix::encode(&matrix, &cfg, tier).unwrap();
            let mut y = vec![0.0; matrix.rows()];
            a.spmv_with(&x[..], &mut y, 0, &log, &mut SpmvWorkspace::new())
                .unwrap();
            for (row, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{scheme:?} {tier:?} row {row}"
                );
            }
        }
        assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
    }
}

#[test]
fn protected_row_pointer_roundtrip_and_flip_handling() {
    let mut rng = rng();
    for _ in 0..CASES {
        // Build a valid row pointer from per-row counts.
        let mut row_ptr = vec![0u32];
        for _ in 0..rng.gen_range(1usize..50) {
            row_ptr.push(row_ptr.last().unwrap() + rng.gen_range(0u32..9));
        }
        let scheme = SCHEMES[rng.gen_range(0usize..SCHEMES.len())];
        let p =
            ProtectedRowPointer::encode(row_ptr.clone(), scheme, Crc32cBackend::Hardware).unwrap();
        assert_eq!(p.clone().into_plain(), row_ptr);
        let log = FaultLog::new();
        p.check_all(&log).unwrap();

        let mut corrupted = p.clone();
        corrupted.inject_bit_flip(rng.gen_range(0..row_ptr.len()), rng.gen_range(0u32..32));
        let result = corrupted.scrub(&log);
        if scheme == EccScheme::Sed {
            assert!(result.is_err());
        } else {
            result.unwrap();
            assert_eq!(corrupted.clone().into_plain(), row_ptr);
        }
    }
}

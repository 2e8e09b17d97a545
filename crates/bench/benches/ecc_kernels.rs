//! Microbenchmarks of the raw ECC kernels: parity,
//! SECDED encode/check, CRC32C software vs hardware throughput, and the cost
//! of a protected SpMV relative to the plain one.  These are the building
//! blocks behind the per-figure overheads.

use abft_core::{
    EccScheme, FaultLog, ProtectedCsr, ProtectedMatrix, ProtectedVector, ProtectionConfig,
};
use abft_ecc::sed::parity_u64;
use abft_ecc::{Crc32c, Crc32cBackend, SECDED_64, SECDED_88};
use abft_sparse::spmv::spmv_serial;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

fn ecc_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc_primitives");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let words: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();

    group.throughput(Throughput::Bytes((words.len() * 8) as u64));
    group.bench_function("parity_u64", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &w in &words {
                acc ^= parity_u64(std::hint::black_box(w));
            }
            acc
        })
    });
    group.bench_function("secded64_encode", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &w in &words {
                acc ^= SECDED_64.encode(&[std::hint::black_box(w)]);
            }
            acc
        })
    });
    group.bench_function("secded88_check", |b| {
        let encoded: Vec<(u64, u64, u16)> = words
            .iter()
            .map(|&w| {
                let payload = [w, w & 0xFF_FFFF];
                (payload[0], payload[1], SECDED_88.encode(&payload))
            })
            .collect();
        b.iter(|| {
            let mut clean = 0usize;
            for &(a, bpart, red) in &encoded {
                if SECDED_88.check(&[a, bpart], red) == abft_ecc::DecodeOutcome::NoError {
                    clean += 1;
                }
            }
            clean
        })
    });
    group.finish();

    let mut group = c.benchmark_group("crc32c_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let data: Vec<u8> = (0..65536u32).map(|i| (i * 2654435761) as u8).collect();
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("slicing_by_16", |b| {
        let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
        b.iter(|| crc.checksum(std::hint::black_box(&data)))
    });
    if abft_ecc::crc32c::hardware_available() {
        group.bench_function("hardware", |b| {
            let crc = Crc32c::new(Crc32cBackend::Hardware);
            b.iter(|| crc.checksum(std::hint::black_box(&data)))
        });
    }
    group.bench_function("naive", |b| {
        let crc = Crc32c::new(Crc32cBackend::Naive);
        b.iter(|| crc.checksum(std::hint::black_box(&data[..4096])))
    });
    group.finish();
}

fn protected_kernels(c: &mut Criterion) {
    let system = abft_bench::tealeaf_system(128, 128);
    let x: Vec<f64> = (0..system.matrix.cols())
        .map(|i| (i as f64 * 0.01).sin())
        .collect();
    let log = FaultLog::new();

    let mut group = c.benchmark_group("spmv_kernels");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.throughput(Throughput::Elements(system.matrix.nnz() as u64));
    group.bench_function("plain", |b| {
        let mut y = vec![0.0; system.matrix.rows()];
        b.iter(|| spmv_serial(&system.matrix, &x, &mut y))
    });
    for scheme in EccScheme::ALL {
        let protected = ProtectedCsr::from_csr(
            &system.matrix,
            &ProtectionConfig::matrix_only(scheme).with_crc_backend(Crc32cBackend::Hardware),
        )
        .unwrap();
        let mut y = vec![0.0; system.matrix.rows()];
        group.bench_function(format!("protected_{}", scheme.label()), |b| {
            b.iter(|| protected.spmv(&x[..], &mut y, 0, &log).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("vector_kernels");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    let values: Vec<f64> = (0..65536).map(|i| (i as f64 * 0.37).cos()).collect();
    group.throughput(Throughput::Elements(values.len() as u64));
    for scheme in EccScheme::ALL {
        let a = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::Hardware);
        let b_vec = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::Hardware);
        group.bench_function(format!("dot_{}", scheme.label()), |bench| {
            bench.iter(|| a.dot(&b_vec, &log).unwrap())
        });
        group.bench_function(format!("axpy_{}", scheme.label()), |bench| {
            let mut y = a.clone();
            bench.iter(|| y.axpy(1.0001, &b_vec, &log).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, ecc_primitives, protected_kernels);
criterion_main!(benches);

//! Criterion micro-bench: DBSCAN cost over point count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phasefold_cluster::{dbscan, DbscanParams};

fn blobs(n: usize) -> Vec<[f64; 2]> {
    (0..n)
        .map(|i| {
            let blob = (i % 4) as f64;
            let a = ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 10_000.0;
            let b = ((i as u64).wrapping_mul(0x9E3779B9) % 1000) as f64 / 10_000.0;
            [0.2 * blob + a, 0.2 * blob + b]
        })
        .collect()
}

/// The production shape: `n` points in three tight blobs on a 0.002 grid
/// (many exact duplicates), each blob narrower than ε = 0.02, so one range
/// query covers a whole blob — the case where a per-member rescan of the
/// neighbourhood goes quadratic.
fn dense_blobs(n: usize) -> Vec<[f64; 2]> {
    (0..n)
        .map(|i| {
            let blob = (i % 3) as f64;
            let a = ((i as u64).wrapping_mul(2654435761) % 7) as f64 * 0.002;
            let b = ((i as u64).wrapping_mul(0x9E3779B9) % 7) as f64 * 0.002;
            [0.03 * blob + a, 0.01 * blob + b]
        })
        .collect()
}

fn bench_dbscan(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbscan");
    for &n in &[500usize, 2000, 8000] {
        let pts = blobs(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| dbscan(&pts, &DbscanParams { eps: 0.05, min_pts: 4 }))
        });
    }
    let pts = dense_blobs(3000);
    group.bench_function("dense_3000", |b| {
        b.iter(|| dbscan(&pts, &DbscanParams { eps: 0.02, min_pts: 4 }))
    });
    group.finish();
}

criterion_group!(benches, bench_dbscan);
criterion_main!(benches);

//! Criterion micro-bench: kd-tree build + range query vs brute-force scan,
//! and the k-dist curve behind DBSCAN's ε on uniform points and on points
//! tied on one axis (as the bursts of an SPMD phase are: one instruction
//! count for every burst).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phasefold_cluster::KdTree;

fn points(n: usize) -> Vec<[f64; 2]> {
    (0..n)
        .map(|i| {
            let a = ((i as u64).wrapping_mul(2654435761) % 100_000) as f64 / 100_000.0;
            let b = ((i as u64).wrapping_mul(0x9E3779B9) % 100_000) as f64 / 100_000.0;
            [a, b]
        })
        .collect()
}

fn bench_kdtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_range_query");
    for &n in &[1000usize, 10_000] {
        let pts = points(n);
        let tree = KdTree::build(&pts);
        group.bench_with_input(BenchmarkId::new("kdtree", n), &n, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for q in pts.iter().step_by(97) {
                    total += tree.within(q, 0.02).len();
                }
                total
            })
        });
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
            b.iter(|| {
                let mut total = 0usize;
                for q in pts.iter().step_by(97) {
                    total += pts
                        .iter()
                        .filter(|p| {
                            let dx = p[0] - q[0];
                            let dy = p[1] - q[1];
                            (dx * dx + dy * dy).sqrt() <= 0.02
                        })
                        .count();
                }
                total
            })
        });
    }
    group.finish();
}

/// `points(n)` with the second coordinate replaced by one value, or by one
/// of two values 0.01 apart.
fn tied(n: usize, levels: u32) -> Vec<[f64; 2]> {
    points(n)
        .into_iter()
        .enumerate()
        .map(|(i, [a, _])| [a, 0.5 + f64::from(i as u32 % levels) * 0.01])
        .collect()
}

fn bench_k_dist(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree_k_dist");
    for &n in &[1000usize, 10_000] {
        for (shape, pts) in
            [("uniform", points(n)), ("y_constant", tied(n, 1)), ("y_two_valued", tied(n, 2))]
        {
            group.bench_with_input(BenchmarkId::new(shape, n), &n, |b, _| {
                b.iter(|| KdTree::k_dist(&pts, 4))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kdtree, bench_k_dist);
criterion_main!(benches);

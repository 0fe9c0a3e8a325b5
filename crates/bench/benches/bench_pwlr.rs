//! Criterion micro-bench: piece-wise linear regression fitting cost as a
//! function of scatter size and true segment count, plus the
//! fixed-breakpoint monotone refit that every non-instruction counter runs.
//!
//! n = 20 000 and n = 90 000 are the fold sizes of a `serve-cold` request
//! and of `phasefold simulate md --ranks 8`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use phasefold_regress::hinge::fit_hinge_monotone;
use phasefold_regress::{fit_pwlr, PwlrConfig};

fn scatter(n: usize, segments: usize) -> (Vec<f64>, Vec<f64>) {
    let slopes = [2.5, 0.5, 1.8, 0.2, 3.0, 0.9, 1.4, 0.6];
    let seg_len = 1.0 / segments as f64;
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut edges_y = vec![0.0f64];
    for s in 0..segments {
        edges_y.push(edges_y[s] + slopes[s % slopes.len()] * seg_len);
    }
    for i in 0..n {
        let x = (i as f64 + 0.5) / n as f64;
        let seg = ((x / seg_len) as usize).min(segments - 1);
        let y = edges_y[seg] + slopes[seg % slopes.len()] * (x - seg as f64 * seg_len);
        let noise = 0.01 * ((((i as u64).wrapping_mul(2654435761)) % 1000) as f64 / 500.0 - 1.0);
        xs.push(x);
        ys.push(y + noise);
    }
    (xs, ys)
}

fn bench_pwlr(c: &mut Criterion) {
    let mut group = c.benchmark_group("pwlr_fit");
    for &n in &[200usize, 1000, 5000, 20_000, 90_000] {
        for &segments in &[2usize, 4] {
            let (xs, ys) = scatter(n, segments);
            group.bench_with_input(
                BenchmarkId::new(format!("{segments}seg"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        fit_pwlr(black_box(&xs), black_box(&ys), None, &PwlrConfig::default())
                            .expect("fit")
                    })
                },
            );
        }
    }
    group.finish();
}

/// `refit_counter`'s call: a monotone hinge fit at fixed breakpoints (the
/// instruction profile's), four segments.
fn bench_refit(c: &mut Criterion) {
    let mut group = c.benchmark_group("monotone_refit");
    let breakpoints = [0.25, 0.5, 0.75];
    for &n in &[20_000usize, 90_000] {
        let (xs, ys) = scatter(n, 4);
        group.bench_with_input(BenchmarkId::new("4seg", n), &n, |b, _| {
            b.iter(|| {
                fit_hinge_monotone(black_box(&xs), black_box(&ys), None, &breakpoints, 0.0, 1.0)
                    .expect("refit")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pwlr, bench_refit);
criterion_main!(benches);

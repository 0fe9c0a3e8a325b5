//! Differential checks: fast kernel vs slow reference on the same input.
//!
//! Equality contracts, documented per check:
//!
//! | check            | contract |
//! |------------------|----------|
//! | segdp-exhaustive | SSE per segment count within `1e-6` relative (prefix sums vs direct moments round differently); returned breakpoints must describe a feasible partition whose direct SSE matches the reported one |
//! | dbscan-brute     | exact: cluster count and every label — components numbered by lowest-index core point, each border point owned by the lowest-numbered adjacent component, noise where no core point is within ε |
//! | suggest-eps      | bit-exact: every k-dist (the k-th smallest non-NaN distance, +∞ when there are fewer) and the ε read from them |
//! | fold-naive       | bit-exact on every folded point and mean; the two sides evaluate the same formula in the same order |
//! | muggeo-rowwise   | same number of refined breakpoints, each within `MUGGEO_PSI_ATOL·(hi−lo)` of the row-wise refinement (suffix sums vs row-wise Gram round differently; the update map is a contraction where Muggeo converges) |
//! | hinge-rowwise    | fitted values at every point within `HINGE_FIT_RTOL·(1 + max|y|)` and SSE within `HINGE_SSE_RTOL·(1 + Σw·y²)` of the row-wise fit, free and monotone (NNLS) alike |

use crate::generate::Case;
use crate::reference;
use crate::Divergence;
use phasefold_cluster::{cluster_bursts, dbscan, suggest_eps, DbscanParams, KdTree};
use phasefold_folding::fold_trace;
use phasefold_model::{burst::extract_bursts_checked, fault::FaultReport};
use phasefold_regress::breakpoints::{refine_breakpoints, RefineConfig};
use phasefold_regress::hinge::{fit_hinge, fit_hinge_monotone};
use phasefold_regress::segdp::segment_dp;
use rand::rngs::StdRng;
use rand::Rng;

/// Relative SSE tolerance for the segmented-least-squares comparison. The
/// production DP computes interval SSE from prefix-sum differences whose
/// rounding error scales with the raw (uncentered) moments, while the
/// reference centers first; agreement beyond ~1e-9 relative cannot be
/// expected, and 1e-6 leaves three orders of margin without masking any
/// structural mistake (choosing a wrong split changes SSE by orders more).
pub const SEGDP_SSE_RTOL: f64 = 1e-6;

fn sse_close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= SEGDP_SSE_RTOL * (1.0 + scale.abs())
}

/// Differential check: `regress::segdp::segment_dp` against the exhaustive
/// reference, on a random sorted instance drawn from `rng`.
pub fn check_segdp(rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    // Small n keeps the exhaustive side honest *and* fast.
    let n = rng.gen_range(4usize..22);
    let min_points = rng.gen_range(1usize..4);
    let max_segments = rng.gen_range(1usize..5);
    let mut xs: Vec<f64> = Vec::with_capacity(n);
    let mut x = 0.0f64;
    for _ in 0..n {
        x += rng.gen_range(0.01f64..1.0);
        xs.push(x);
    }
    // Piece-wise linear ground truth + noise, so optimal splits exist but
    // are not trivial.
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| {
            let base = if x < xs[n / 2] { 0.3 * x } else { 2.0 * x - 1.7 * xs[n / 2] };
            base + rng.gen_range(-0.05f64..0.05)
        })
        .collect();
    let weights: Option<Vec<f64>> = if rng.gen_bool(0.5) {
        Some((0..n).map(|_| rng.gen_range(0.1f64..2.0)).collect())
    } else {
        None
    };
    let w = weights.as_deref();

    let fast = segment_dp(&xs, &ys, w, max_segments, min_points);
    let slow = reference::exhaustive_segmentations(&xs, &ys, w, max_segments, min_points);
    let detail = compare_segdp(&xs, &ys, w, min_points, &fast, &slow)?;
    Some(Divergence { check: "segdp-exhaustive", seed, detail, repro: None })
}

/// Compares a production segmentation set against the exhaustive optimum;
/// `None` = agreement, `Some(detail)` = divergence.
pub fn compare_segdp(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    min_points: usize,
    fast: &[phasefold_regress::segdp::Segmentation],
    slow: &[(usize, f64)],
) -> Option<String> {
    if fast.len() != slow.len() {
        return Some(format!(
            "row count: fast returned {} segmentations, reference {} (n={}, min_points={})",
            fast.len(),
            slow.len(),
            xs.len(),
            min_points
        ));
    }
    for (row, &(m, ref_sse)) in fast.iter().zip(slow) {
        if row.num_segments != m {
            return Some(format!("row order: fast m={} where reference m={m}", row.num_segments));
        }
        if !ref_sse.is_finite() {
            continue; // infeasible row; DP reports inf as well or is absent
        }
        if !sse_close(row.sse, ref_sse, ref_sse) {
            return Some(format!(
                "m={m}: fast SSE {} vs exhaustive optimum {} (rtol {SEGDP_SSE_RTOL})",
                row.sse, ref_sse
            ));
        }
        // The breakpoints must describe a real partition achieving the
        // claimed SSE: strictly inside the x range, sorted, segments of at
        // least min_points, and the direct SSE of that partition equal to
        // the reported one.
        if row.breakpoints.len() + 1 != m {
            return Some(format!(
                "m={m}: {} breakpoints returned, expected {}",
                row.breakpoints.len(),
                m - 1
            ));
        }
        if row.breakpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Some(format!("m={m}: breakpoints not strictly increasing: {:?}", row.breakpoints));
        }
        let mut start = 0usize;
        let mut partition_sse = 0.0f64;
        for (b, &bp) in row.breakpoints.iter().enumerate() {
            let end = xs.partition_point(|&x| x < bp); // first index right of bp
            if end <= start || end - start < min_points {
                return Some(format!(
                    "m={m}: breakpoint {b} at {bp} yields segment [{start}, {end}) shorter than min_points={min_points}"
                ));
            }
            partition_sse += reference::line_sse_direct(xs, ys, weights, start, end - 1);
            start = end;
        }
        if xs.len() - start < min_points {
            return Some(format!(
                "m={m}: final segment [{start}, {}) shorter than min_points={min_points}",
                xs.len()
            ));
        }
        partition_sse += reference::line_sse_direct(xs, ys, weights, start, xs.len() - 1);
        if !sse_close(partition_sse, row.sse, ref_sse) {
            return Some(format!(
                "m={m}: reported SSE {} but the returned breakpoints achieve {} (rtol {SEGDP_SSE_RTOL})",
                row.sse, partition_sse
            ));
        }
    }
    None
}

/// Absolute breakpoint tolerance of the Muggeo comparison, as a fraction
/// of the domain width. Both sides solve the same `(2+2k)²` system and
/// differ only in how its entries are rounded: compensated suffix sums of
/// centred x against a row-by-row accumulation of raw x. On the folded
/// domain `[0, 1]` the refined breakpoints agreed within 1e-11 on 60 000
/// generated cases. On offset domains (|lo| up to 50) the row-wise side's
/// uncentred `[1, x]` block is ill-conditioned and the gap grew to ~1e-8.
/// 1e-7 keeps an order of margin over that and sits two orders below the
/// convergence tolerance (1e-5), so a mis-assembled entry, which moves ψ by
/// a whole Newton-like step, cannot hide under it.
pub const MUGGEO_PSI_ATOL: f64 = 1e-7;

/// Tolerance on the hinge fitted values at the data points, relative to
/// `1 + max|y|`. The fitted values are compared rather than the
/// coefficients because they are unique even where a segment holds no
/// point and its slope is not identifiable. The per-segment-sum Gram and
/// the row-wise Gram hold the same sums added in a different order; on
/// 60 000 generated cases the fitted values agreed within 1e-11, so 1e-8
/// leaves three orders of margin. A wrongly assembled entry moves the fit
/// by O(1).
pub const HINGE_FIT_RTOL: f64 = 1e-8;

/// Tolerance on the hinge SSE, relative to `1 + Σw·y²`. The SSE is
/// stationary at the optimum, so it agrees far tighter than the fit.
pub const HINGE_SSE_RTOL: f64 = 1e-9;

/// A random sorted breakpoint set inside `[lo, hi]`, separated by at least
/// a tenth of the domain from each other and from the edges.
fn separated_breakpoints(rng: &mut StdRng, lo: f64, hi: f64, k: usize) -> Vec<f64> {
    let span = hi - lo;
    let mut psi: Vec<f64> = Vec::with_capacity(k);
    for _ in 0..k {
        for _ in 0..32 {
            let p = lo + span * rng.gen_range(0.1f64..0.9);
            if psi.iter().all(|&q| (p - q).abs() >= 0.1 * span) {
                psi.push(p);
                break;
            }
        }
    }
    psi.sort_by(f64::total_cmp);
    psi
}

/// A noisy continuous PWL scatter over `[lo, hi]` with breaks at `truth`:
/// unsorted x, a few points slightly outside the domain, a few exact
/// duplicates, one point exactly at each of `ties` (where the strict
/// `x > ψ` convention decides its side), and optional weights.
fn pwl_scatter(
    rng: &mut StdRng,
    lo: f64,
    hi: f64,
    truth: &[f64],
    ties: &[f64],
    n: usize,
) -> (Vec<f64>, Vec<f64>, Option<Vec<f64>>) {
    let span = hi - lo;
    let slopes: Vec<f64> = (0..=truth.len())
        .map(|j| if j % 2 == 0 { rng.gen_range(1.5f64..3.0) } else { rng.gen_range(0.0f64..0.5) })
        .collect();
    let model = |x: f64| {
        let mut y = 0.0;
        let mut e = lo;
        for (j, &s) in slopes.iter().enumerate() {
            let end = truth.get(j).copied().unwrap_or(f64::INFINITY);
            y += s * (x.min(end) - e).max(0.0);
            e = end;
        }
        y
    };
    let noise = rng.gen_range(0.0f64..0.01) * span;
    let mut xs: Vec<f64> = (0..n).map(|_| lo + span * rng.gen_range(-0.02f64..1.02)).collect();
    for i in 0..n / 10 {
        xs[i] = xs[n - 1 - i]; // exact duplicates
    }
    for (x, &t) in xs[n / 2..].iter_mut().zip(ties) {
        *x = t;
    }
    let ys: Vec<f64> = xs.iter().map(|&x| model(x) + noise * rng.gen_range(-1.0f64..1.0)).collect();
    let weights = rng.gen_bool(0.5).then(|| (0..n).map(|_| rng.gen_range(0.1f64..2.0)).collect());
    (xs, ys, weights)
}

/// A random domain: the folded `[0, 1]` half of the time, else an offset
/// one, which exercises the centring of the Muggeo sums.
fn random_domain(rng: &mut StdRng) -> (f64, f64) {
    if rng.gen_bool(0.5) {
        (0.0, 1.0)
    } else {
        let lo = rng.gen_range(-50.0f64..50.0);
        (lo, lo + rng.gen_range(0.5f64..20.0))
    }
}

/// Differential check: `regress::breakpoints::refine_breakpoints` (suffix
/// sums) against the row-wise Muggeo iteration, on a noisy PWL scatter
/// with proposals perturbed off the true breaks.
pub fn check_muggeo(rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let (lo, hi) = random_domain(rng);
    let k = rng.gen_range(1usize..4);
    let truth = separated_breakpoints(rng, lo, hi, k);
    let n = rng.gen_range(100usize..400);
    let span = hi - lo;
    let proposal: Vec<f64> =
        truth.iter().map(|&p| p + span * rng.gen_range(-0.02f64..0.02)).collect();
    let (xs, ys, weights) = pwl_scatter(rng, lo, hi, &truth, &proposal, n);
    let config = RefineConfig {
        min_separation: 0.02 * span,
        max_step: 0.15 * span,
        tol: 1e-5 * span,
        ..RefineConfig::default()
    };
    let w = weights.as_deref();
    let fast = refine_breakpoints(&xs, &ys, w, &proposal, lo, hi, &config);
    let slow = reference::rowwise_muggeo(&xs, &ys, w, &proposal, lo, hi, &config);
    let detail = compare_breakpoints(&fast, &slow, MUGGEO_PSI_ATOL * span)?;
    Some(Divergence {
        check: "muggeo-rowwise",
        seed,
        detail: format!("{detail} (n={n}, domain [{lo}, {hi}], proposal {proposal:?})"),
        repro: None,
    })
}

/// `gap <= tol`, false for a NaN gap, so a NaN on either side diverges.
fn within(gap: f64, tol: f64) -> bool {
    gap <= tol
}

/// Compares two refined breakpoint sets; `None` = agreement within `atol`.
pub fn compare_breakpoints(fast: &[f64], slow: &[f64], atol: f64) -> Option<String> {
    if fast.len() != slow.len() {
        return Some(format!("breakpoint count: sums {fast:?} vs row-wise {slow:?}"));
    }
    let (j, gap) = fast
        .iter()
        .zip(slow)
        .map(|(a, b)| (a - b).abs())
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    (!within(gap, atol)).then(|| {
        let (a, b) = (fast[j], slow[j]);
        format!("breakpoint {j}: sums {a} vs row-wise {b} (|Δ| {gap:e} > {atol:e})")
    })
}

/// Differential check: `regress::hinge` fits (per-segment sums) against the
/// row-wise slope-space fits, free and monotone, at random breakpoints.
pub fn check_hinge(rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let (lo, hi) = random_domain(rng);
    let k = rng.gen_range(0usize..4);
    let truth = separated_breakpoints(rng, lo, hi, k);
    // Enough points per segment that the slopes are identifiable; the
    // degenerate layouts are covered by the regress proptests.
    let n = (k + 1) * rng.gen_range(20usize..100);
    // Fit at breakpoints near, not at, the truth: the monotone fit then
    // has to clamp some slopes now and then.
    let span = hi - lo;
    let bps: Vec<f64> = truth.iter().map(|&p| p + span * rng.gen_range(-0.05f64..0.05)).collect();
    let (xs, ys, weights) = pwl_scatter(rng, lo, hi, &truth, &bps, n);
    let w = weights.as_deref();
    let scale = 1.0 + (0..n).map(|i| w.map_or(1.0, |w| w[i]) * ys[i] * ys[i]).sum::<f64>();
    for monotone in [false, true] {
        let fast = if monotone {
            fit_hinge_monotone(&xs, &ys, w, &bps, lo, hi)
        } else {
            fit_hinge(&xs, &ys, w, &bps, lo, hi)
        };
        let slow = reference::rowwise_hinge(&xs, &ys, w, &bps, lo, hi, monotone);
        let detail = match (fast, slow) {
            (Ok(f), Some(s)) => compare_hinge(&f, &s, &xs, &ys, scale),
            (Err(_), None) => None, // both sides rejected the system
            (f, s) => {
                let slow = s.map_or("failed", |_| "ok");
                Some(format!("sums {:?} vs row-wise {slow}", f.err()))
            }
        };
        if let Some(detail) = detail {
            return Some(Divergence {
                check: "hinge-rowwise",
                seed,
                detail: format!("monotone={monotone}: {detail} (n={n}, breakpoints {bps:?})"),
                repro: None,
            });
        }
    }
    None
}

/// Compares two hinge fits at the same breakpoints by their fitted values
/// at `xs` and their SSE; `sse_scale` is `1 + Σw·y²`. `None` = agreement.
pub fn compare_hinge(
    fast: &phasefold_regress::HingeFit,
    slow: &phasefold_regress::HingeFit,
    xs: &[f64],
    ys: &[f64],
    sse_scale: f64,
) -> Option<String> {
    if fast.slopes.len() != slow.slopes.len() {
        return Some(format!("slope count {} vs {}", fast.slopes.len(), slow.slopes.len()));
    }
    let atol = HINGE_FIT_RTOL * (1.0 + ys.iter().fold(0.0f64, |m, y| m.max(y.abs())));
    for (i, &x) in xs.iter().enumerate() {
        let (a, b) = (fast.predict(x), slow.predict(x));
        if !within((a - b).abs(), atol) {
            return Some(format!(
                "fitted value at point {i} (x = {x}): sums {a} vs row-wise {b} (atol {atol:e}); \
                 sums slopes {:?}, row-wise {:?}",
                fast.slopes, slow.slopes
            ));
        }
    }
    if !within((fast.sse - slow.sse).abs(), HINGE_SSE_RTOL * sse_scale) {
        return Some(format!(
            "SSE: sums {} vs row-wise {} (rtol {HINGE_SSE_RTOL} of {sse_scale})",
            fast.sse, slow.sse
        ));
    }
    None
}

/// Differential check: kd-tree DBSCAN against the all-pairs reference, on
/// random points drawn from `rng`: either blob-plus-noise at a random ε,
/// or the production shape.
pub fn check_dbscan(rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let (points, eps, min_pts) =
        if rng.gen_bool(0.5) { blobs_and_noise(rng) } else { production_shape(rng) };
    let fast = dbscan(&points, &DbscanParams { eps, min_pts });
    let slow = reference::brute_dbscan(&points, eps, min_pts);
    let detail = compare_dbscan(&fast, &slow)?;
    Some(Divergence {
        check: "dbscan-brute",
        seed,
        detail: format!("{detail} (n={}, eps={eps}, min_pts={min_pts})", points.len()),
        repro: None,
    })
}

/// Loose blobs of varying spread plus scattered noise, at a random ε.
fn blobs_and_noise(rng: &mut StdRng) -> (Vec<[f64; 2]>, f64, usize) {
    let blobs = rng.gen_range(1usize..4);
    let mut points: Vec<[f64; 2]> = Vec::new();
    for _ in 0..blobs {
        let cx = rng.gen_range(0.0f64..1.0);
        let cy = rng.gen_range(0.0f64..1.0);
        let spread = rng.gen_range(0.005f64..0.08);
        for _ in 0..rng.gen_range(4usize..40) {
            points.push([
                cx + rng.gen_range(-spread..spread),
                cy + rng.gen_range(-spread..spread),
            ]);
        }
    }
    for _ in 0..rng.gen_range(0usize..12) {
        points.push([rng.gen_range(-0.5f64..1.5), rng.gen_range(-0.5f64..1.5)]);
    }
    (points, rng.gen_range(0.02f64..0.2), rng.gen_range(2usize..6))
}

/// The shape burst features take in production: a few tight blobs whose
/// coordinates are quantised (so many bursts coincide exactly), each
/// narrower than ε = 0.02 so one range query covers the whole blob, plus a
/// few stragglers; blobs may sit close enough to share border points.
fn production_shape(rng: &mut StdRng) -> (Vec<[f64; 2]>, f64, usize) {
    const QUANTUM: f64 = 0.002;
    let blobs = rng.gen_range(1usize..4);
    let mut points: Vec<[f64; 2]> = Vec::new();
    for _ in 0..blobs {
        let cx = rng.gen_range(0.0f64..0.2);
        let cy = rng.gen_range(0.0f64..0.2);
        for _ in 0..rng.gen_range(20usize..200) {
            let dx = f64::from(rng.gen_range(-3i32..4)) * QUANTUM;
            let dy = f64::from(rng.gen_range(-3i32..4)) * QUANTUM;
            points.push([cx + dx, cy + dy]);
        }
    }
    for _ in 0..rng.gen_range(0usize..8) {
        points.push([rng.gen_range(0.0f64..0.25), rng.gen_range(0.0f64..0.25)]);
    }
    (points, 0.02, rng.gen_range(1usize..9))
}

/// Compares a production DBSCAN result against the brute-force ground
/// truth label for label; `None` = identical.
pub fn compare_dbscan(
    fast: &phasefold_cluster::DbscanResult,
    slow: &reference::BruteDbscan,
) -> Option<String> {
    let n = slow.core.len();
    if fast.labels.len() != n {
        return Some(format!("label count {} != point count {n}", fast.labels.len()));
    }
    if fast.num_clusters != slow.num_components {
        return Some(format!(
            "cluster count: fast {} vs reference {}",
            fast.num_clusters, slow.num_components
        ));
    }
    let i = (0..n).find(|&i| fast.labels[i] != slow.owner[i])?;
    let kind = if slow.core[i] {
        "core"
    } else if slow.owner[i].is_some() {
        "border"
    } else {
        "noise"
    };
    Some(format!(
        "{kind} point {i}: fast label {:?} vs reference owner {:?}",
        fast.labels[i], slow.owner[i]
    ))
}

/// Differential check: `KdTree::k_dist` and `suggest_eps` against the
/// all-pairs reference. Half the cases take the production shape (one axis
/// constant or two-valued, quantised duplicates); the rest are the edges:
/// no more points than `k`, all points identical, non-finite coordinates.
pub fn check_suggest_eps(rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let min_pts = rng.gen_range(1usize..9);
    let points = if rng.gen_bool(0.5) {
        tied_axis(rng)
    } else {
        match rng.gen_range(0u32..3) {
            0 => (0..rng.gen_range(1..min_pts + 2))
                .map(|_| [rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0)])
                .collect(),
            1 => vec![[rng.gen_range(0.0f64..1.0), 0.5]; rng.gen_range(1usize..40)],
            _ => non_finite(rng),
        }
    };
    let quantile = if rng.gen_bool(0.5) { 0.90 } else { rng.gen_range(0.0f64..1.0) };
    let diverged = |detail: String| Divergence {
        check: "suggest-eps",
        seed,
        detail: format!("{detail} (n={}, min_pts={min_pts}, quantile={quantile})", points.len()),
        repro: None,
    };
    let fast = KdTree::k_dist(&points, min_pts);
    let slow = reference::brute_k_dist(&points, min_pts);
    if let Some(i) = (0..points.len()).find(|&i| fast[i].to_bits() != slow[i].to_bits()) {
        return Some(diverged(format!(
            "k-dist of point {i} {:?}: tree {} vs all-pairs {}",
            points[i], fast[i], slow[i]
        )));
    }
    let fast = suggest_eps(&points, min_pts, quantile);
    let slow = reference::brute_suggest_eps(&points, min_pts, quantile);
    (fast.to_bits() != slow.to_bits())
        .then(|| diverged(format!("eps: production {fast} vs reference {slow}")))
}

/// Burst features as SPMD phases give them: one axis takes one or two
/// values, the other is quantised so duplicates are common; which axis is
/// tied is drawn too.
fn tied_axis(rng: &mut StdRng) -> Vec<[f64; 2]> {
    const QUANTUM: f64 = 0.002;
    let tied = rng.gen_range(0.0f64..1.0);
    let gap = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.001f64..0.1) };
    let swap = rng.gen_bool(0.5);
    let base = rng.gen_range(0.0f64..1.0);
    (0..rng.gen_range(2usize..300))
        .map(|_| {
            let free = base + f64::from(rng.gen_range(0u32..60)) * QUANTUM;
            let fixed = if rng.gen_bool(0.5) { tied } else { tied + gap };
            if swap {
                [fixed, free]
            } else {
                [free, fixed]
            }
        })
        .collect()
}

/// Quantised points with NaN and ±∞ coordinates mixed in.
fn non_finite(rng: &mut StdRng) -> Vec<[f64; 2]> {
    let n = rng.gen_range(2usize..60);
    let mut coordinate = || match rng.gen_range(0u32..12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        c => f64::from(c) * 0.01,
    };
    (0..n).map(|_| [coordinate(), coordinate()]).collect()
}

/// Differential check: `folding::fold_trace` against the naive linear-scan
/// re-fold, on the case's trace. Bit-exact.
pub fn check_fold(case: &Case, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    let mut faults = FaultReport::new();
    let bursts = extract_bursts_checked(&case.trace, config.min_burst_duration, &mut faults);
    let clustering = cluster_bursts(&bursts, &config.cluster);
    let fast = fold_trace(&case.trace, &bursts, &clustering, &config.fold);
    let slow = reference::naive_refold(&case.trace, &bursts, &clustering, &config.fold);
    let detail = compare_folds(&fast, &slow)?;
    Some(Divergence { check: "fold-naive", seed, detail, repro: None })
}

/// Compares two fold outputs bit-exactly; `None` = identical.
pub fn compare_folds(
    fast: &[phasefold_folding::ClusterFold],
    slow: &[phasefold_folding::ClusterFold],
) -> Option<String> {
    if fast.len() != slow.len() {
        return Some(format!("fold count: fast {} vs reference {}", fast.len(), slow.len()));
    }
    for (f, s) in fast.iter().zip(slow) {
        if f.cluster != s.cluster {
            return Some(format!("cluster id {} vs {}", f.cluster, s.cluster));
        }
        if f.instances_used != s.instances_used || f.instances_pruned != s.instances_pruned {
            return Some(format!(
                "cluster {}: instances used/pruned {}/{} vs {}/{}",
                f.cluster, f.instances_used, f.instances_pruned, s.instances_used, s.instances_pruned
            ));
        }
        if f.samples != s.samples {
            return Some(format!("cluster {}: samples {} vs {}", f.cluster, f.samples, s.samples));
        }
        if f.mean_duration_s.to_bits() != s.mean_duration_s.to_bits() {
            return Some(format!(
                "cluster {}: mean duration {} vs {} (bit mismatch)",
                f.cluster, f.mean_duration_s, s.mean_duration_s
            ));
        }
        if f.stacks.len() != s.stacks.len() {
            return Some(format!(
                "cluster {}: stack count {} vs {}",
                f.cluster,
                f.stacks.len(),
                s.stacks.len()
            ));
        }
        for (k, (fp, sp)) in f.profiles.iter().zip(&s.profiles).enumerate() {
            if fp.mean_total.to_bits() != sp.mean_total.to_bits() {
                return Some(format!(
                    "cluster {} counter {k}: mean_total {} vs {}",
                    f.cluster, fp.mean_total, sp.mean_total
                ));
            }
            if fp.len() != sp.len() {
                return Some(format!(
                    "cluster {} counter {k}: {} points vs {}",
                    f.cluster,
                    fp.len(),
                    sp.len()
                ));
            }
            for (i, (a, b)) in fp.iter().zip(sp.iter()).enumerate() {
                if a.x.to_bits() != b.x.to_bits()
                    || a.y.to_bits() != b.y.to_bits()
                    || a.instance != b.instance
                {
                    return Some(format!(
                        "cluster {} counter {k} point {i}: ({}, {}, inst {}) vs ({}, {}, inst {})",
                        f.cluster, a.x, a.y, a.instance, b.x, b.y, b.instance
                    ));
                }
            }
        }
    }
    None
}

//! Property-based tests for the numerical core.

use proptest::prelude::*;

use phasefold_regress::breakpoints::{enforce_separation, refine_breakpoints, RefineConfig};
use phasefold_regress::grid::bin_series;
use phasefold_regress::hinge::{fit_hinge, fit_hinge_monotone};
use phasefold_regress::linalg::{nnls, Mat};
use phasefold_regress::pwlr::{fit_pwlr, PwlrConfig};
use phasefold_regress::segdp::{segment_dp, segment_dp_quadratic, Segmentation};
use phasefold_regress::stats::{mad, median, quantile, Moments};
use phasefold_verify::differential::{compare_breakpoints, compare_hinge, MUGGEO_PSI_ATOL};
use phasefold_verify::reference::{rowwise_hinge, rowwise_muggeo};

fn dense_grid(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
}

/// Arbitrary continuous PWL ground truth: 1-4 segments inside [0,1].
fn arb_pwl() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(0.1f64..0.9, 0..4),
        proptest::collection::vec(0.0f64..5.0, 4),
        0.0f64..1.0,
    )
        .prop_map(|(mut bps, slopes, intercept)| {
            bps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            bps.dedup_by(|a, b| (*a - *b).abs() < 0.05);
            let bps = enforce_separation(bps, 0.0, 1.0, 0.05);
            let slopes = slopes[..bps.len() + 1].to_vec();
            (bps, {
                let mut v = slopes;
                v.insert(0, intercept);
                v
            })
        })
}

/// Bit-level equality of two segmentation ladders: same segment counts, the
/// exact same SSE bits, the exact same breakpoint bits. This is the contract
/// the pruned branch-and-bound `segment_dp` makes against the quadratic
/// reference — not "close", identical.
fn same_segmentations(a: &[Segmentation], b: &[Segmentation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.num_segments == y.num_segments
                && x.sse.to_bits() == y.sse.to_bits()
                && x.breakpoints.len() == y.breakpoints.len()
                && x.breakpoints
                    .iter()
                    .zip(&y.breakpoints)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn eval_pwl(bps: &[f64], params: &[f64], x: f64) -> f64 {
    let intercept = params[0];
    let slopes = &params[1..];
    let mut y = intercept;
    let mut prev = 0.0f64;
    for (j, &s) in slopes.iter().enumerate() {
        let next = bps.get(j).copied().unwrap_or(1.0);
        let seg = (x.min(next) - prev).max(0.0);
        y += s * seg;
        prev = next;
        if x <= next {
            break;
        }
    }
    y
}

/// Continuous PWL truth on `[0, 1]` with strong kinks: slopes alternate
/// steep (2.5) and flat (0.3), so every Muggeo system is well posed.
fn kinked(bps: &[f64], x: f64) -> f64 {
    let mut y = 0.0;
    let mut e = 0.0;
    for j in 0..=bps.len() {
        let end = bps.get(j).copied().unwrap_or(f64::INFINITY);
        let s = if j % 2 == 0 { 2.5 } else { 0.3 };
        y += s * (x.min(end) - e).max(0.0);
        e = end;
        if x <= end {
            break;
        }
    }
    y
}

/// 1–3 breakpoints spread over `(0, 1)`, at least 0.15 apart.
fn arb_breaks() -> impl Strategy<Value = Vec<f64>> {
    (1usize..4, 0.0f64..1.0).prop_map(|(k, jitter)| {
        (1..=k).map(|j| j as f64 / (k + 1) as f64 + (jitter - 0.5) * 0.1).collect()
    })
}

/// Deterministic noise in `[-amp, amp]`.
fn noisy(ys: &mut [f64], amp: f64) {
    for (i, y) in ys.iter_mut().enumerate() {
        *y += amp * ((((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 500.0) - 1.0);
    }
}

fn refine_cfg(max_iters: usize) -> RefineConfig {
    RefineConfig { max_iters, min_separation: 0.02, ..RefineConfig::default() }
}

/// The sums path must agree with the row-wise oracle on this scatter: one
/// Muggeo step and the full refinement from `proposal`, and the free and
/// monotone hinge fits at `bps`, at the tolerances the verify checks state.
fn agrees_with_rowwise(
    xs: &[f64],
    ys: &[f64],
    w: Option<&[f64]>,
    proposal: &[f64],
    bps: &[f64],
) {
    for iters in [1, 12] {
        let cfg = refine_cfg(iters);
        let fast = refine_breakpoints(xs, ys, w, proposal, 0.0, 1.0, &cfg);
        let slow = rowwise_muggeo(xs, ys, w, proposal, 0.0, 1.0, &cfg);
        let gap = compare_breakpoints(&fast, &slow, MUGGEO_PSI_ATOL);
        assert!(gap.is_none(), "muggeo, {iters} iteration(s): {gap:?}");
    }
    hinge_agrees(xs, ys, w, bps);
}

/// The free and monotone hinge fits at `bps` agree with the row-wise ones.
fn hinge_agrees(xs: &[f64], ys: &[f64], w: Option<&[f64]>, bps: &[f64]) {
    let scale = 1.0 + (0..xs.len()).map(|i| w.map_or(1.0, |w| w[i]) * ys[i] * ys[i]).sum::<f64>();
    for monotone in [false, true] {
        let fast = if monotone {
            fit_hinge_monotone(xs, ys, w, bps, 0.0, 1.0)
        } else {
            fit_hinge(xs, ys, w, bps, 0.0, 1.0)
        };
        let slow = rowwise_hinge(xs, ys, w, bps, 0.0, 1.0, monotone);
        let (Ok(fast), Some(slow)) = (fast, slow) else {
            panic!("monotone={monotone}: a fit failed");
        };
        let gap = compare_hinge(&fast, &slow, xs, ys, scale);
        assert!(gap.is_none(), "hinge monotone={monotone}: {gap:?}");
    }
}

proptest! {
    // Sums path vs row-wise oracle: each case costs well under a
    // millisecond, so these run more cases than the block below.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Points exactly at a breakpoint, and many duplicate x: x lies on a
    /// 1/40 grid and the breakpoints (and proposals) are grid values, so
    /// the strict `x > ψ` convention decides where the tied points fall.
    #[test]
    fn sums_match_rowwise_on_ties_and_duplicates(
        ticks in proptest::collection::vec(0u32..41, 80..240),
        k in 1usize..4,
        amp in 0.0f64..0.01,
    ) {
        let bps: Vec<f64> = (1..=k).map(|j| (40 * j / (k + 1)) as f64 / 40.0).collect();
        let mut xs: Vec<f64> = ticks.iter().map(|&t| f64::from(t) / 40.0).collect();
        xs.extend(bps.iter().chain(&bps));
        let mut ys: Vec<f64> = xs.iter().map(|&x| kinked(&bps, x)).collect();
        noisy(&mut ys, amp);
        agrees_with_rowwise(&xs, &ys, None, &bps, &bps);
    }

    /// Every point at or left of the top breakpoint (some exactly on it):
    /// its hinge and indicator columns are exactly zero on both paths.
    #[test]
    fn sums_match_rowwise_with_an_empty_right_side(
        bps in arb_breaks(),
        n in 60usize..240,
        amp in 0.0f64..0.01,
    ) {
        let top = *bps.last().unwrap();
        // `min` keeps rounding from putting the last point one ulp right of
        // `top`, which would make the top hinge hang on a single point.
        let mut xs: Vec<f64> = (0..n).map(|i| (top * i as f64 / (n - 1) as f64).min(top)).collect();
        xs.extend([top; 3]);
        let mut ys: Vec<f64> = xs.iter().map(|&x| kinked(&bps, x)).collect();
        noisy(&mut ys, amp);
        agrees_with_rowwise(&xs, &ys, None, &bps, &bps);
    }

    /// Every point right of the lowest breakpoint: its indicator column is
    /// the negated intercept, so the Muggeo system is exactly singular and
    /// each path regularises its own rounding; only the output invariants
    /// can be required of it. The hinge fit stays well defined in its
    /// fitted values.
    #[test]
    fn empty_left_side_keeps_invariants(
        bps in arb_breaks(),
        n in 60usize..240,
        amp in 0.0f64..0.01,
    ) {
        let low = bps[0];
        let xs: Vec<f64> = (1..=n).map(|i| low + (1.0 - low) * i as f64 / n as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|&x| kinked(&bps, x)).collect();
        noisy(&mut ys, amp);
        let refined = refine_breakpoints(&xs, &ys, None, &bps, 0.0, 1.0, &refine_cfg(12));
        prop_assert!(refined.len() <= bps.len());
        prop_assert!(refined.iter().all(|&p| p.is_finite() && p > 0.0 && p < 1.0));
        prop_assert!(refined.windows(2).all(|w| w[1] - w[0] >= 0.02));
        hinge_agrees(&xs, &ys, None, &bps);
    }

    /// Points within 1e-9 of `lo` and `hi`, and points outside the domain,
    /// where the edge segments extrapolate.
    #[test]
    fn sums_match_rowwise_at_and_beyond_the_edges(
        bps in arb_breaks(),
        n in 60usize..240,
        outside in proptest::collection::vec(-0.1f64..0.1, 0..12),
        amp in 0.0f64..0.01,
    ) {
        let mut xs: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        xs.extend([0.0, 1e-9, -1e-9, 1.0, 1.0 - 1e-9, 1.0 + 1e-9]);
        xs.extend(outside.iter().map(|&d| if d < 0.0 { d } else { 1.0 + d }));
        // Left of the domain the first (steep) segment extrapolates.
        let mut ys: Vec<f64> =
            xs.iter().map(|&x| kinked(&bps, x.max(0.0)) + 2.5 * x.min(0.0)).collect();
        noisy(&mut ys, amp);
        let proposal: Vec<f64> = bps.iter().map(|b| b + 0.01).collect();
        agrees_with_rowwise(&xs, &ys, None, &proposal, &bps);
    }

    /// Per-point weights spanning two and a half decades.
    #[test]
    fn sums_match_rowwise_weighted(
        bps in arb_breaks(),
        ws in proptest::collection::vec(0.01f64..5.0, 60..240),
        shift in -0.02f64..0.02,
        amp in 0.0f64..0.01,
    ) {
        let n = ws.len();
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|&x| kinked(&bps, x)).collect();
        noisy(&mut ys, amp);
        let proposal: Vec<f64> = bps.iter().map(|b| b + shift).collect();
        agrees_with_rowwise(&xs, &ys, Some(&ws), &proposal, &bps);
    }

    /// `refine_breakpoints` sorts its input: a shuffled scatter refines to
    /// exactly the breakpoints of the sorted one, which agree with the
    /// row-wise oracle.
    #[test]
    fn refine_breakpoints_sorts_unsorted_input(
        bps in arb_breaks(),
        keys in proptest::collection::vec(0.0f64..1.0, 150..151),
        shift in -0.02f64..0.02,
    ) {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
        let n = order.len();
        let sorted_x: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let mut sorted_y: Vec<f64> = sorted_x.iter().map(|&x| kinked(&bps, x)).collect();
        noisy(&mut sorted_y, 0.004);
        let xs: Vec<f64> = order.iter().map(|&i| sorted_x[i]).collect();
        let ys: Vec<f64> = order.iter().map(|&i| sorted_y[i]).collect();
        let proposal: Vec<f64> = bps.iter().map(|b| b + shift).collect();
        let cfg = refine_cfg(12);
        let shuffled = refine_breakpoints(&xs, &ys, None, &proposal, 0.0, 1.0, &cfg);
        let sorted = refine_breakpoints(&sorted_x, &sorted_y, None, &proposal, 0.0, 1.0, &cfg);
        prop_assert_eq!(&shuffled, &sorted);
        agrees_with_rowwise(&xs, &ys, None, &proposal, &bps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With the true breakpoints given, the hinge fit reproduces an exact
    /// PWL function to numerical precision.
    #[test]
    fn hinge_recovers_exact_pwl((bps, params) in arb_pwl()) {
        let xs = dense_grid(120);
        let ys: Vec<f64> = xs.iter().map(|&x| eval_pwl(&bps, &params, x)).collect();
        let fit = fit_hinge(&xs, &ys, None, &bps, 0.0, 1.0).unwrap();
        for &x in &xs {
            prop_assert!((fit.predict(x) - eval_pwl(&bps, &params, x)).abs() < 1e-6);
        }
    }

    /// Monotone fits never report a negative slope, whatever the data.
    #[test]
    fn monotone_fit_is_monotone(
        ys in proptest::collection::vec(-1.0f64..1.0, 24..64),
        bp in 0.2f64..0.8,
    ) {
        let xs = dense_grid(ys.len());
        let fit = fit_hinge_monotone(&xs, &ys, None, &[bp], 0.0, 1.0).unwrap();
        prop_assert!(fit.slopes.iter().all(|&s| s >= 0.0));
    }

    /// The monotone fit can never beat the unconstrained fit on SSE.
    #[test]
    fn constrained_sse_dominates(
        ys in proptest::collection::vec(-1.0f64..1.0, 24..64),
        bp in 0.2f64..0.8,
    ) {
        let xs = dense_grid(ys.len());
        let free = fit_hinge(&xs, &ys, None, &[bp], 0.0, 1.0).unwrap();
        let mono = fit_hinge_monotone(&xs, &ys, None, &[bp], 0.0, 1.0).unwrap();
        prop_assert!(mono.sse >= free.sse - 1e-9 * free.sse.max(1.0));
    }

    /// DP segmentation SSE is non-increasing in the segment count.
    #[test]
    fn segdp_sse_monotone(ys in proptest::collection::vec(0.0f64..1.0, 20..80)) {
        let xs = dense_grid(ys.len());
        let segs = segment_dp(&xs, &ys, None, 5, 2);
        for w in segs.windows(2) {
            prop_assert!(w[1].sse <= w[0].sse + 1e-9);
        }
    }

    /// The pruned branch-and-bound DP is bit-identical to the quadratic
    /// reference on arbitrary unweighted data, across segment budgets.
    #[test]
    fn segdp_pruned_matches_quadratic(
        ys in proptest::collection::vec(-2.0f64..2.0, 12..90),
        max_segments in 1usize..6,
    ) {
        let xs = dense_grid(ys.len());
        let pruned = segment_dp(&xs, &ys, None, max_segments, 2);
        let quad = segment_dp_quadratic(&xs, &ys, None, max_segments, 2);
        prop_assert!(same_segmentations(&pruned, &quad),
            "pruned != quadratic: {pruned:?} vs {quad:?}");
    }

    /// Same bit-identity with per-point weights in play — the pruning bounds
    /// must account for weighted partial sums exactly.
    #[test]
    fn segdp_pruned_matches_quadratic_weighted(
        points in proptest::collection::vec((-2.0f64..2.0, 0.1f64..4.0), 12..70),
        max_segments in 1usize..5,
    ) {
        let ys: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ws: Vec<f64> = points.iter().map(|p| p.1).collect();
        let xs = dense_grid(ys.len());
        let pruned = segment_dp(&xs, &ys, Some(&ws), max_segments, 2);
        let quad = segment_dp_quadratic(&xs, &ys, Some(&ws), max_segments, 2);
        prop_assert!(same_segmentations(&pruned, &quad),
            "weighted pruned != quadratic: {pruned:?} vs {quad:?}");
    }

    /// Same bit-identity under a binding `min_points` constraint, which
    /// shrinks each row's feasible split range and exercises the block
    /// bounds at their clipped edges.
    #[test]
    fn segdp_pruned_matches_quadratic_min_points(
        ys in proptest::collection::vec(-2.0f64..2.0, 16..80),
        max_segments in 1usize..5,
        min_points in 1usize..8,
    ) {
        let xs = dense_grid(ys.len());
        let pruned = segment_dp(&xs, &ys, None, max_segments, min_points);
        let quad = segment_dp_quadratic(&xs, &ys, None, max_segments, min_points);
        prop_assert!(same_segmentations(&pruned, &quad),
            "min_points={min_points} pruned != quadratic: {pruned:?} vs {quad:?}");
    }

    /// NNLS output is entry-wise non-negative and at least as good as zero.
    #[test]
    fn nnls_nonnegative_and_useful(
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0f64..2.0, 3), 4..12),
        b in proptest::collection::vec(-2.0f64..2.0, 12),
    ) {
        let m = rows.len();
        let a = Mat::from_rows(&rows);
        let b = &b[..m];
        let x = nnls(&a, b, 200).unwrap();
        prop_assert!(x.iter().all(|&v| v >= 0.0));
        let res: f64 = a.mul_vec(&x).iter().zip(b).map(|(p, y)| (p - y) * (p - y)).sum();
        let res_zero: f64 = b.iter().map(|y| y * y).sum();
        prop_assert!(res <= res_zero + 1e-9);
    }

    /// Full PWLR respects monotonicity and reports sorted, in-domain
    /// breakpoints on arbitrary (noisy, even non-monotone) data.
    #[test]
    fn pwlr_output_invariants(ys in proptest::collection::vec(0.0f64..1.0, 40..120)) {
        let xs = dense_grid(ys.len());
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        prop_assert!(fit.slopes().iter().all(|&s| s >= 0.0));
        let bps = fit.breakpoints();
        for w in bps.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &b in bps {
            prop_assert!(b > 0.0 && b < 1.0);
        }
        prop_assert_eq!(fit.slopes().len(), bps.len() + 1);
    }

    /// Quantiles are bounded by the extremes; median is a 0.5 quantile.
    #[test]
    fn quantile_bounds(data in proptest::collection::vec(-100.0f64..100.0, 1..50), q in 0.0f64..1.0) {
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = quantile(&data, q).unwrap();
        prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
        prop_assert_eq!(median(&data), quantile(&data, 0.5));
    }

    /// MAD is non-negative and zero for constants.
    #[test]
    fn mad_properties(data in proptest::collection::vec(-10.0f64..10.0, 1..40), c in -5.0f64..5.0) {
        prop_assert!(mad(&data).unwrap() >= 0.0);
        let constant = vec![c; data.len()];
        prop_assert_eq!(mad(&constant), Some(0.0));
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn moments_merge_associative(
        a in proptest::collection::vec(-10.0f64..10.0, 0..30),
        b in proptest::collection::vec(-10.0f64..10.0, 0..30),
    ) {
        let mut whole = Moments::new();
        for &x in a.iter().chain(&b) { whole.push(x); }
        let mut ma = Moments::new();
        for &x in &a { ma.push(x); }
        let mut mb = Moments::new();
        for &x in &b { mb.push(x); }
        ma.merge(&mb);
        prop_assert_eq!(ma.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((ma.mean() - whole.mean()).abs() < 1e-9);
            prop_assert!((ma.variance() - whole.variance()).abs() < 1e-8);
        }
    }

    /// Binning conserves total weight and bin means stay within y range.
    #[test]
    fn binning_conserves_weight(
        points in proptest::collection::vec((0.0f64..1.0, -5.0f64..5.0), 1..100),
        n_bins in 1usize..30,
    ) {
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let b = bin_series(&xs, &ys, None, n_bins, 0.0, 1.0);
        let total: f64 = b.weight.iter().sum();
        prop_assert!((total - xs.len() as f64).abs() < 1e-9);
        let (ymin, ymax) = ys.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| (l.min(y), h.max(y)));
        for &m in &b.y {
            prop_assert!(m >= ymin - 1e-9 && m <= ymax + 1e-9);
        }
    }
}

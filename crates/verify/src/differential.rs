//! Differential checks: fast kernel vs slow reference on the same input.
//!
//! Equality contracts, documented per check:
//!
//! | check            | contract |
//! |------------------|----------|
//! | segdp-exhaustive | SSE per segment count within `1e-6` relative (prefix sums vs direct moments round differently); returned breakpoints must describe a feasible partition whose direct SSE matches the reported one |
//! | dbscan-brute     | exact: cluster count and every label — components numbered by lowest-index core point, each border point owned by the lowest-numbered adjacent component, noise where no core point is within ε |
//! | fold-naive       | bit-exact on every folded point and mean; the two sides evaluate the same formula in the same order |

use crate::generate::Case;
use crate::reference;
use crate::Divergence;
use phasefold_cluster::{cluster_bursts, dbscan, DbscanParams};
use phasefold_folding::fold_trace;
use phasefold_model::{burst::extract_bursts_checked, fault::FaultReport};
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

//! Deliberately slow, obviously-correct reference kernels.
//!
//! Each function here re-derives its answer from the mathematical
//! definition with the dumbest adequate algorithm — exhaustive recursion,
//! all-pairs distance scans, linear record walks, design matrices built row
//! by row — sharing no prefix tricks or pruning with the production
//! crates. The row-wise regression fits do reuse the production Cholesky
//! and NNLS solvers: what they check is how the system is assembled.
//! Asymptotic cost is irrelevant: these only ever see fuzz-sized inputs.

use phasefold_cluster::Clustering;
use phasefold_folding::{ClusterFold, FoldConfig, FoldedPoint, FoldedProfile};
use phasefold_model::{Burst, CounterKind, Record, Trace, NUM_COUNTERS};
use phasefold_regress::breakpoints::{enforce_separation, RefineConfig};
use phasefold_regress::linalg::{nnls, wls, Mat};
use phasefold_regress::HingeFit;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Exhaustive segmented least squares
// ---------------------------------------------------------------------------

/// Weighted least-squares SSE of one straight line fitted to the inclusive
/// point range `i..=j`, computed directly from means and residuals (no
/// prefix sums).
pub fn line_sse_direct(xs: &[f64], ys: &[f64], weights: Option<&[f64]>, i: usize, j: usize) -> f64 {
    let w = |k: usize| weights.map_or(1.0, |w| w[k]);
    let sw: f64 = (i..=j).map(w).sum();
    if sw <= 0.0 {
        return 0.0;
    }
    let mx: f64 = (i..=j).map(|k| w(k) * xs[k]).sum::<f64>() / sw;
    let my: f64 = (i..=j).map(|k| w(k) * ys[k]).sum::<f64>() / sw;
    let sxx: f64 = (i..=j).map(|k| w(k) * (xs[k] - mx) * (xs[k] - mx)).sum();
    let sxy: f64 = (i..=j).map(|k| w(k) * (xs[k] - mx) * (ys[k] - my)).sum();
    let slope = if sxx > 1e-300 { sxy / sxx } else { 0.0 };
    let sse: f64 = (i..=j)
        .map(|k| {
            let r = ys[k] - (my + slope * (xs[k] - mx));
            w(k) * r * r
        })
        .sum();
    sse.max(0.0)
}

/// Optimal SSE of covering `xs[start..]` with exactly `m` segments of at
/// least `min_points` points each, by exhaustive recursion over the first
/// segment's end. Returns `None` when infeasible.
fn best_sse_from(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    start: usize,
    m: usize,
    min_points: usize,
) -> Option<f64> {
    let n = xs.len();
    if m == 1 {
        return (n - start >= min_points).then(|| line_sse_direct(xs, ys, weights, start, n - 1));
    }
    let mut best: Option<f64> = None;
    // First segment covers start..=end; the rest recurses.
    for end in (start + min_points - 1)..n {
        let Some(tail) = best_sse_from(xs, ys, weights, end + 1, m - 1, min_points) else {
            continue;
        };
        let total = line_sse_direct(xs, ys, weights, start, end) + tail;
        if best.is_none_or(|b| total < b) {
            best = Some(total);
        }
    }
    best
}

/// Exhaustive optimum: `(m, best_sse)` for every reachable segment count
/// `m = 1..=m_max`, where `m_max` replicates the production row count
/// (`min(max_segments, max(n / min_points, 1))`).
pub fn exhaustive_segmentations(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    max_segments: usize,
    min_points: usize,
) -> Vec<(usize, f64)> {
    let n = xs.len();
    if n == 0 || max_segments == 0 {
        return Vec::new();
    }
    let min_points = min_points.max(1);
    let m_max = max_segments.min((n / min_points).max(1)).max(1);
    (1..=m_max)
        .map(|m| {
            let sse = best_sse_from(xs, ys, weights, 0, m, min_points).unwrap_or(f64::INFINITY);
            (m, sse)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Row-wise Muggeo refinement and hinge fits
// ---------------------------------------------------------------------------
//
// The production fits assemble their normal equations from suffix or
// per-segment sums. These build the n × p design matrix row by row, exactly
// as the definition reads, and hand it to the row-level solvers
// (`linalg::wls`, `linalg::nnls`, which form XᵀWX row by row). They share
// the Cholesky and NNLS cores with production: what is under test is the
// assembly of the system, not the factorisation.

/// Muggeo refinement with the design `[1, x, (x−ψ_j)₊ …, −I(x>ψ_j) …]`
/// rebuilt from the rows on every iteration. Same update, step clamp,
/// separation and stopping rules as `breakpoints::refine_breakpoints`;
/// the inputs need not be sorted.
pub fn rowwise_muggeo(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    config: &RefineConfig,
) -> Vec<f64> {
    let mut psi = enforce_separation(breakpoints.to_vec(), lo, hi, config.min_separation);
    if psi.is_empty() || xs.len() < 2 * psi.len() + 2 {
        return psi;
    }
    for _ in 0..config.max_iters {
        let k = psi.len();
        let mut design = Mat::zeros(xs.len(), 2 + 2 * k);
        for (i, &x) in xs.iter().enumerate() {
            let row = design.row_mut(i);
            row[0] = 1.0;
            row[1] = x;
            for (j, &p) in psi.iter().enumerate() {
                row[2 + j] = (x - p).max(0.0);
                row[2 + k + j] = if x > p { -1.0 } else { 0.0 };
            }
        }
        let Ok(beta) = wls(&design, ys, weights) else { break };
        let mut max_move: f64 = 0.0;
        let mut next = psi.clone();
        for j in 0..k {
            let (gamma, delta) = (beta[2 + j], beta[2 + k + j]);
            if gamma.abs() < 1e-12 {
                continue;
            }
            let step = (delta / gamma).clamp(-config.max_step, config.max_step);
            next[j] = (psi[j] + step).clamp(lo, hi);
            max_move = max_move.max(step.abs());
        }
        psi = enforce_separation(next, lo, hi, config.min_separation);
        if psi.is_empty() || max_move < config.tol {
            break;
        }
    }
    psi
}

/// Slope-space hinge fit with the design row `[1?, overlap_0(x), …]`,
/// `overlap_j(x) = clamp(x − e_j, lower_j, upper_j)` (edge segments
/// extrapolate), built row by row. `monotone` solves by NNLS over
/// `[+1, −1, slopes…]` on √w-scaled rows, otherwise by weighted least
/// squares; SSE and r² come from `HingeFit::predict` at every point.
/// `None` when the solver fails or there are too few points.
pub fn rowwise_hinge(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    monotone: bool,
) -> Option<HingeFit> {
    let k = breakpoints.len();
    let n = xs.len();
    if n < k + 2 {
        return None;
    }
    let mut edges = vec![lo];
    edges.extend_from_slice(breakpoints);
    edges.push(hi);
    let overlap = |x: f64, j: usize| {
        let upper = if j == k { f64::INFINITY } else { edges[j + 1] - edges[j] };
        let lower = if j == 0 { f64::NEG_INFINITY } else { 0.0 };
        (x - edges[j]).clamp(lower, upper)
    };
    let (intercept, slopes) = if monotone {
        let mut design = Mat::zeros(n, k + 3);
        let mut b = vec![0.0; n];
        for i in 0..n {
            let sw = weights.map_or(1.0, |w| w[i].max(0.0)).sqrt();
            let row = design.row_mut(i);
            row[0] = sw;
            row[1] = -sw;
            for j in 0..=k {
                row[2 + j] = sw * overlap(xs[i], j);
            }
            b[i] = sw * ys[i];
        }
        let sol = nnls(&design, &b, 50 * (k + 3)).ok()?;
        (sol[0] - sol[1], sol[2..].to_vec())
    } else {
        let mut design = Mat::zeros(n, k + 2);
        for (i, &x) in xs.iter().enumerate() {
            let row = design.row_mut(i);
            row[0] = 1.0;
            for j in 0..=k {
                row[1 + j] = overlap(x, j);
            }
        }
        let beta = wls(&design, ys, weights).ok()?;
        (beta[0], beta[1..].to_vec())
    };
    let mut fit = HingeFit {
        lo,
        hi,
        breakpoints: breakpoints.to_vec(),
        intercept,
        slopes,
        sse: 0.0,
        r2: 0.0,
        n,
    };
    let pred: Vec<f64> = xs.iter().map(|&x| fit.predict(x)).collect();
    fit.sse = (0..n)
        .map(|i| weights.map_or(1.0, |w| w[i]) * (pred[i] - ys[i]) * (pred[i] - ys[i]))
        .sum();
    fit.r2 = phasefold_regress::stats::r_squared(&pred, ys);
    Some(fit)
}

// ---------------------------------------------------------------------------
// Brute-force DBSCAN
// ---------------------------------------------------------------------------

/// Order-free DBSCAN ground truth under the production labelling
/// contract. Core points and the partition of core points into
/// density-connected components are canonical; components are numbered by
/// their lowest-index core point, and each *border* point (non-core within
/// ε of a core) is owned by the lowest-numbered adjacent component. Ester
/// et al. leave the border owner to visit order; `phasefold_cluster::dbscan`
/// pins it, so the oracle pins it too and the labels must match exactly.
#[derive(Debug, Clone)]
pub struct BruteDbscan {
    /// Is point `i` a core point (≥ `min_pts` neighbours within ε,
    /// self included)?
    pub core: Vec<bool>,
    /// Number of density-connected core components (= clusters).
    pub num_components: usize,
    /// Owning component of each point: its own component for a core point,
    /// the lowest-numbered adjacent component for a border point, `None`
    /// for noise.
    pub owner: Vec<Option<usize>>,
}

/// All-pairs O(n²) DBSCAN on 2-D points, matching the kd-tree path's
/// `dist ≤ ε` (inclusive) neighbourhood convention.
pub fn brute_dbscan(points: &[[f64; 2]], eps: f64, min_pts: usize) -> BruteDbscan {
    let n = points.len();
    let eps2 = eps * eps;
    let close = |a: usize, b: usize| {
        let dx = points[a][0] - points[b][0];
        let dy = points[a][1] - points[b][1];
        dx * dx + dy * dy <= eps2
    };
    let core: Vec<bool> = (0..n)
        .map(|i| (0..n).filter(|&j| close(i, j)).count() >= min_pts)
        .collect();

    // Connected components of the core-core ε-graph, by flood fill. Seeds
    // are taken in index order, so each component's id is the rank of its
    // lowest-index core point.
    let mut component: Vec<Option<usize>> = vec![None; n];
    let mut num_components = 0usize;
    for i in 0..n {
        if !core[i] || component[i].is_some() {
            continue;
        }
        let id = num_components;
        num_components += 1;
        let mut stack = vec![i];
        component[i] = Some(id);
        while let Some(p) = stack.pop() {
            for q in 0..n {
                if core[q] && component[q].is_none() && close(p, q) {
                    component[q] = Some(id);
                    stack.push(q);
                }
            }
        }
    }

    let owner: Vec<Option<usize>> = (0..n)
        .map(|i| {
            if core[i] {
                return component[i];
            }
            (0..n).filter(|&j| core[j] && close(i, j)).filter_map(|j| component[j]).min()
        })
        .collect();

    BruteDbscan { core, num_components, owner }
}

// ---------------------------------------------------------------------------
// Naive re-fold
// ---------------------------------------------------------------------------

/// Naive re-implementation of `folding::fold_trace`, straight from the
/// paper's definition: for every clustered burst, walk the rank's records
/// *linearly* (no binary search), take the samples inside `[start, end)`,
/// normalise time within the burst and counters against the burst totals,
/// prune duration outliers by the median/MAD rule, and pool.
///
/// The arithmetic deliberately mirrors the spec formulas term by term, so
/// the comparison against the production fold can demand **bit equality**
/// on every folded point (the production path computes the same expressions
/// in the same order; only its *search* structure is cleverer).
pub fn naive_refold(
    trace: &Trace,
    bursts: &[Burst],
    clustering: &Clustering,
    config: &FoldConfig,
) -> Vec<ClusterFold> {
    // (x, absolute counter readings, has_stack)
    type NaiveSample = (f64, Vec<(CounterKind, f64)>, bool);
    struct NaiveInstance {
        burst_index: usize,
        dur_s: f64,
        samples: Vec<NaiveSample>,
    }

    let mut out = Vec::new();
    for cluster in 0..clustering.num_clusters {
        // Collect instances in burst order.
        let mut instances: Vec<NaiveInstance> = Vec::new();
        for (i, burst) in bursts.iter().enumerate() {
            if clustering.labels[i] != Some(cluster) {
                continue;
            }
            let Some(stream) = trace.rank(burst.id.rank) else { continue };
            let mut samples = Vec::new();
            for record in stream.records() {
                let Record::Sample(s) = record else { continue };
                if s.time < burst.start || s.time >= burst.end {
                    continue;
                }
                // x = (t − start) / (end − start), clamped — the
                // definition of folding's normalised time axis.
                let span = (burst.end.0 - burst.start.0) as f64;
                let x = ((s.time.0.saturating_sub(burst.start.0)) as f64 / span).clamp(0.0, 1.0);
                let readings: Vec<(CounterKind, f64)> = s.counters.iter().collect();
                samples.push((x, readings, !s.callstack.is_empty()));
            }
            instances.push(NaiveInstance {
                burst_index: i,
                dur_s: burst.duration().as_secs_f64(),
                samples,
            });
        }

        // Median/MAD duration pruning, re-derived from the definition.
        let (kept, pruned_count) = if instances.len() < 4 {
            (instances, 0)
        } else {
            let mut durations: Vec<f64> = instances.iter().map(|i| i.dur_s).collect();
            durations.sort_by(f64::total_cmp);
            let median = durations[durations.len() / 2];
            let mut deviations: Vec<f64> = durations.iter().map(|d| (d - median).abs()).collect();
            deviations.sort_by(f64::total_cmp);
            let mad = deviations[deviations.len() / 2];
            let scale = mad.max(median * 1e-3);
            if scale <= 0.0 {
                (instances, 0)
            } else {
                let threshold = config.mad_k * scale;
                let before = instances.len();
                let kept: Vec<NaiveInstance> = instances
                    .into_iter()
                    .filter(|inst| (inst.dur_s - median).abs() <= threshold)
                    .collect();
                let pruned = before - kept.len();
                (kept, pruned)
            }
        };
        if kept.len() < config.min_instances {
            continue;
        }

        // Pool into per-counter profiles.
        let mut profiles: [FoldedProfile; NUM_COUNTERS] = Default::default();
        let mut stacks: Vec<(f64, Arc<phasefold_model::CallStack>)> = Vec::new();
        let mut total_dur = 0.0f64;
        let mut totals_sum = [0.0f64; NUM_COUNTERS];
        let mut samples = 0usize;
        for (ordinal, inst) in kept.iter().enumerate() {
            let burst = &bursts[inst.burst_index];
            total_dur += inst.dur_s;
            for (i, t) in totals_sum.iter_mut().enumerate() {
                *t += burst.counters.as_array()[i];
            }
            for (x, readings, has_stack) in &inst.samples {
                samples += 1;
                if *has_stack {
                    stacks.push((*x, Arc::new(phasefold_model::CallStack::empty())));
                }
                for (kind, absolute) in readings {
                    let total = burst.counters[*kind];
                    if total <= 0.0 {
                        continue;
                    }
                    // y = (reading − start) / total, clamped to [0, 1].
                    let y = ((absolute - burst.start_counters[*kind]) / total).clamp(0.0, 1.0);
                    profiles[kind.index()].push(FoldedPoint {
                        x: *x,
                        y,
                        instance: ordinal as u32,
                    });
                }
            }
        }
        let n = kept.len().max(1) as f64;
        for (i, p) in profiles.iter_mut().enumerate() {
            p.mean_total = totals_sum[i] / n;
        }
        out.push(ClusterFold {
            cluster,
            profiles,
            stacks,
            mean_duration_s: total_dur / n,
            instances_used: kept.len(),
            instances_pruned: pruned_count,
            samples,
        });
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_matches_hand_case() {
        // Two perfect lines meeting at x = 3.5: 2 segments fit exactly.
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| if x < 3.5 { x } else { 7.0 - x }).collect();
        let rows = exhaustive_segmentations(&xs, &ys, None, 3, 2);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1 > 1.0, "one line fits a tent poorly");
        assert!(rows[1].1 < 1e-18, "two segments fit exactly, got {}", rows[1].1);
    }

    #[test]
    fn brute_dbscan_matches_doc_example() {
        let mut points: Vec<[f64; 2]> = Vec::new();
        for i in 0..10 {
            points.push([0.1 + 0.001 * i as f64, 0.1]);
            points.push([0.9 + 0.001 * i as f64, 0.9]);
        }
        points.push([0.5, -3.0]);
        let brute = brute_dbscan(&points, 0.05, 3);
        assert_eq!(brute.num_components, 2);
        assert!(!brute.core[20]);
        assert!(brute.owner[20].is_none(), "outlier has no core neighbour");
        // Components are numbered by lowest-index core point: point 0
        // seeds component 0, point 1 component 1.
        assert_eq!(brute.owner[0], Some(0));
        assert_eq!(brute.owner[1], Some(1));
    }
}

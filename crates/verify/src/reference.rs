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
use phasefold_model::prv::{ParseFailure, MAX_DECLARED_RANKS};
use phasefold_model::{
    Burst, CallStack, CommKind, CounterKind, CounterSet, Fault, FaultPolicy, FaultReport,
    ModelError, PartialCounterSet, RankId, Record, RegionId, RegionKind, Sample, SourceRegistry,
    TimeNs, Trace, NUM_COUNTERS,
};
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
// Brute-force k-dist and ε heuristic
// ---------------------------------------------------------------------------

/// All-pairs k-dist curve: for each point, the `k`-th smallest Euclidean
/// distance to another point (`k` is raised to at least 1). NaN distances
/// are not distances to anything and are left out; a point with fewer
/// than `k` others at a non-NaN distance gets +∞.
pub fn brute_k_dist(points: &[[f64; 2]], k: usize) -> Vec<f64> {
    let k = k.max(1);
    (0..points.len())
        .map(|i| {
            let mut dists: Vec<f64> = (0..points.len())
                .filter(|&j| j != i)
                .map(|j| {
                    let dx = points[i][0] - points[j][0];
                    let dy = points[i][1] - points[j][1];
                    (dx * dx + dy * dy).sqrt()
                })
                .filter(|d| !d.is_nan())
                .collect();
            dists.sort_by(f64::total_cmp);
            dists.get(k - 1).copied().unwrap_or(f64::INFINITY)
        })
        .collect()
}

/// The ε heuristic from its definition: sort the finite k-dists (with
/// `k = min_pts`), read the `quantile` (clamped to `[0, 1]`, position
/// rounded down), and widen it by 5 %, floored at 1e-12. Fewer than two
/// points, or no finite k-dist, give 1.0.
pub fn brute_suggest_eps(points: &[[f64; 2]], min_pts: usize, quantile: f64) -> f64 {
    if points.len() < 2 {
        return 1.0;
    }
    let mut finite: Vec<f64> =
        brute_k_dist(points, min_pts).into_iter().filter(|d| d.is_finite()).collect();
    if finite.is_empty() {
        return 1.0;
    }
    finite.sort_by(f64::total_cmp);
    let pos = ((finite.len() - 1) as f64 * quantile.clamp(0.0, 1.0)) as usize;
    (finite[pos] * 1.05).max(1e-12)
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

// ---------------------------------------------------------------------------
// PRV parsing with the standard library's splitters
// ---------------------------------------------------------------------------
//
// `prv` scans each line's bytes for its fields, walks a sample's counters
// token once and parses each distinct call stack once per trace. These
// parse the way the format is defined instead: fields from
// `str::split_whitespace`, counter pairs from `split(',')` and
// `split_once(':')`, and a fresh stack for every sample. Errors are worded,
// numbered and ordered as the production parser must word, number and
// order them.

/// Inverse of the writer's percent-escaping (`%20`, `%25`, `%0A`, `%09`).
fn prv_unescape(token: &str) -> Result<String, String> {
    let mut out = String::with_capacity(token.len());
    let mut rest = token;
    while let Some(i) = rest.find('%') {
        out.push_str(&rest[..i]);
        let hex = rest.get(i + 1..i + 3).ok_or("truncated escape")?;
        let v = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
        out.push(v as char);
        rest = &rest[i + 3..];
    }
    out.push_str(rest);
    Ok(out)
}

struct PrvFields<'a> {
    line_no: usize,
    fields: std::str::SplitWhitespace<'a>,
}

impl<'a> PrvFields<'a> {
    fn err(&self, message: impl Into<String>) -> ModelError {
        ModelError::Parse { line: self.line_no, message: message.into() }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ModelError> {
        self.fields.next().ok_or_else(|| self.err(format!("missing field: {what}")))
    }

    fn next_num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, ModelError> {
        let f = self.next(what)?;
        f.parse().map_err(|_| self.err(format!("bad {what}: {f:?}")))
    }
}

/// `prv::parse_trace_with` from its definition: the first line must be the
/// magic header; `#RANKS` and `#REGION` lines declare the header until the
/// first body record freezes it, after which they are defects; body
/// records and unknown tags are defects that a lenient parse quarantines
/// with their line number; structural defects are fatal under both
/// policies.
pub fn prv_parse(input: &str, policy: FaultPolicy) -> Result<(Trace, FaultReport), ParseFailure> {
    let mut report = FaultReport::new();
    let lenient = policy == FaultPolicy::Lenient;
    let fail = |error| ParseFailure { policy, error };
    let mut lines = input.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(fail(ModelError::Parse { line: 1, message: "empty input".into() }));
    };
    if header.trim() != "#PHASEFOLD_TRACE v1" {
        return Err(fail(ModelError::Parse {
            line: 1,
            message: format!("bad header: {header:?}"),
        }));
    }
    let mut regions: Vec<(u32, RegionKind, String, String, u32)> = Vec::new();
    let mut n_ranks: Option<usize> = None;
    let mut trace: Option<Trace> = None;
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let mut p = PrvFields { line_no, fields: raw.split_whitespace() };
        let Ok(tag) = p.next("record tag") else { continue };
        // A defect of one line: quarantined when lenient, fatal otherwise.
        let mut defect = |e: ModelError, at_line: bool| {
            let fault = Fault::from(e.clone());
            report.push(if at_line { fault.at_line(line_no) } else { fault });
            if lenient {
                Ok(())
            } else {
                Err(fail(e))
            }
        };
        match tag {
            "#RANKS" | "#REGION" if trace.is_some() => {
                defect(p.err(format!("{tag} header after the first body record")), false)?;
            }
            "#RANKS" => {
                let n = p.next_num::<u32>("rank count").map_err(fail)? as usize;
                if n > MAX_DECLARED_RANKS || n > input.len() {
                    return Err(fail(p.err(format!(
                        "declared rank count {n} exceeds the allowed maximum \
                         (min of {MAX_DECLARED_RANKS} and the input size {})",
                        input.len()
                    ))));
                }
                n_ranks = Some(n);
            }
            "#REGION" => {
                let region = (|| {
                    let id = p.next_num::<u32>("region id")?;
                    let kind_tok = p.next("region kind")?;
                    let kind = RegionKind::from_tag(kind_tok.chars().next().unwrap_or('?'))
                        .ok_or_else(|| p.err(format!("bad region kind {kind_tok:?}")))?;
                    let name = prv_unescape(p.next("region name")?).map_err(|e| p.err(e))?;
                    let file = prv_unescape(p.next("region file")?).map_err(|e| p.err(e))?;
                    let line = p.next_num::<u32>("region line")?;
                    Ok((id, kind, name, file, line))
                })()
                .map_err(fail)?;
                regions.push(region);
            }
            "R" | "C" | "S" => {
                if trace.is_none() {
                    let ranks = n_ranks
                        .ok_or_else(|| p.err("missing #RANKS header"))
                        .map_err(fail)?;
                    trace = Some(prv_freeze(&mut regions, ranks).map_err(|(id, at)| {
                        fail(p.err(format!(
                            "region ids must be dense, found {id} at position {at}"
                        )))
                    })?);
                }
                let Some(trace) = trace.as_mut() else { continue };
                let pushed = prv_record_fields(&mut p, tag).and_then(|(rank, record)| {
                    trace.rank_mut(RankId(rank)).ok_or(ModelError::UnknownRank(rank))?.push(record)
                });
                if let Err(e) = pushed {
                    defect(e, true)?;
                }
            }
            other => defect(p.err(format!("unknown record tag {other:?}")), false)?,
        }
    }
    let trace = match trace {
        Some(trace) => trace,
        None => {
            let ranks = n_ranks.ok_or_else(|| {
                fail(ModelError::Parse { line: 1, message: "missing #RANKS header".into() })
            })?;
            // A header-only trace does not check that the ids are dense.
            regions.sort_by_key(|r| r.0);
            let mut registry = SourceRegistry::new();
            for (_, kind, name, file, line) in &regions {
                registry.intern(name, *kind, file, *line);
            }
            Trace::with_ranks(registry, ranks)
        }
    };
    Ok((trace, report))
}

/// The region table sorted by id, which must then read 0, 1, 2, …; the
/// first `(id, position)` that does not is the error.
fn prv_freeze(
    regions: &mut [(u32, RegionKind, String, String, u32)],
    ranks: usize,
) -> Result<Trace, (u32, usize)> {
    regions.sort_by_key(|r| r.0);
    let mut registry = SourceRegistry::new();
    for (at, (id, kind, name, file, line)) in regions.iter().enumerate() {
        if *id as usize != at {
            return Err((*id, at));
        }
        registry.intern(name, *kind, file, *line);
    }
    Ok(Trace::with_ranks(registry, ranks))
}

/// `prv::parse_record_line` from its definition.
pub fn prv_parse_record_line(line: &str, line_no: usize) -> Result<(RankId, Record), ModelError> {
    let mut p = PrvFields { line_no, fields: line.split_whitespace() };
    let tag = p.next("record tag")?;
    match tag {
        "R" | "C" | "S" => prv_record_fields(&mut p, tag).map(|(rank, r)| (RankId(rank), r)),
        other => Err(p.err(format!("unknown record tag {other:?}"))),
    }
}

/// The fields of one `R`/`C`/`S` line after its tag.
fn prv_record_fields(p: &mut PrvFields<'_>, tag: &str) -> Result<(u32, Record), ModelError> {
    let rank = p.next_num::<u32>("rank")?;
    let direction = |p: &PrvFields<'_>, dir: &str| match dir {
        "E" | "X" => Ok(dir == "E"),
        other => Err(p.err(format!("bad direction {other:?}"))),
    };
    let record = match tag {
        "R" => {
            let dir = p.next("direction")?;
            let time = TimeNs(p.next_num("time")?);
            let region = RegionId(p.next_num("region")?);
            if direction(p, dir)? {
                Record::RegionEnter { time, region }
            } else {
                Record::RegionExit { time, region }
            }
        }
        "C" => {
            let dir = p.next("direction")?;
            let time = TimeNs(p.next_num("time")?);
            let kind_tok = p.next("comm kind")?;
            let kind = CommKind::from_mnemonic(kind_tok)
                .ok_or_else(|| p.err(format!("bad comm kind {kind_tok:?}")))?;
            let mut values = [0.0; NUM_COUNTERS];
            for (i, v) in values.iter_mut().enumerate() {
                *v = p.next_num(&format!("counter[{i}]"))?;
            }
            let counters = CounterSet::from_array(values);
            if direction(p, dir)? {
                Record::CommEnter { time, kind, counters }
            } else {
                Record::CommExit { time, kind, counters }
            }
        }
        _ => {
            let time = TimeNs(p.next_num("time")?);
            let counters_tok = p.next("sample counters")?;
            let stack_tok = p.next("sample callstack")?;
            let mut counters = PartialCounterSet::EMPTY;
            if counters_tok != "-" {
                for pair in counters_tok.split(',') {
                    let (k, v) = pair
                        .split_once(':')
                        .ok_or_else(|| p.err(format!("bad counter pair {pair:?}")))?;
                    let kind = CounterKind::from_mnemonic(k)
                        .ok_or_else(|| p.err(format!("unknown counter {k:?}")))?;
                    let value: f64 =
                        v.parse().map_err(|_| p.err(format!("bad counter value {v:?}")))?;
                    counters.set(kind, value);
                }
            }
            let callstack = if stack_tok == "-" {
                CallStack::empty()
            } else {
                let (frames_tok, leaf_line) = match stack_tok.rsplit_once('@') {
                    Some((f, l)) => {
                        (f, l.parse().map_err(|_| p.err(format!("bad leaf line {l:?}")))?)
                    }
                    None => (stack_tok, 0),
                };
                let frames = frames_tok
                    .split(';')
                    .map(|f| f.parse().map(RegionId).map_err(|_| p.err(format!("bad frame id {f:?}"))))
                    .collect::<Result<Vec<_>, _>>()?;
                CallStack::new(frames, leaf_line)
            };
            Record::Sample(Sample { time, counters, callstack: Arc::new(callstack) })
        }
    };
    Ok((rank, record))
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

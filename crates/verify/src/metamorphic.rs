//! Metamorphic properties derived from the paper's math.
//!
//! | property | transformation | expected relation |
//! |----------|----------------|-------------------|
//! | threads-bit-identity | `threads ∈ {1, 2, 8}` | bit-identical analysis |
//! | time-shift | all record times `+Δ` | bit-identical analysis (every stage consumes time *differences*) |
//! | time-scale | all record times `×2ᵏ`, burst filter scaled alike | folded profiles bit-identical, mean durations scale exactly (power-of-two scaling commutes with f64 rounding) |
//! | dbscan-permutation | shuffle point order | same core set, same noise set, core partition equal up to relabeling (border ownership is visit-order-dependent by design) |
//! | fold-reorder | permute burst/label order | same point multiset per profile, same prune decisions; means agree to 1e-12 relative (summation order) |
//! | batch-online | same records, streamed per rank | same per-rank burst counts at every prefix, same fault tallies |
//! | checkpoint-roundtrip | checkpoint mid-stream, restore, finish both | bit-identical analysis digest (resume is exact) |
//! | reservoir-stream | same stream, folded points capped at [`RESERVOIR_CHECK_CAP`] | accounting exact; fitted instruction curves within RMS [`RESERVOIR_RMS_BOUND`] in normalized-progress units |
//! | fingerprint-roundtrip | analysis → `.pffp` frame → decode → re-encode | decoded fingerprint equals the original, re-encoded bytes are bit-identical |
//! | nan-no-panic | a share of the samples get NaN counter values, analysis with a bootstrap | NaN points are quarantined as faults; no stage panics (`task-panicked`) |

use crate::generate::Case;
use crate::Divergence;
use phasefold::{try_analyze_trace, Analysis, OnlineAnalyzer};
use phasefold_cluster::{cluster_bursts, dbscan, extract_features, DbscanParams};
use phasefold_folding::fold_trace;
use phasefold_model::{
    burst::extract_bursts_checked,
    fault::{FaultKind, FaultReport},
    Record, Sample, TimeNs, Trace,
};
use phasefold_regress::BootstrapConfig;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Rebuilds a trace with every record time mapped through `f`. The map
/// must be monotone; the per-rank push cannot fail then.
pub fn map_times(trace: &Trace, f: impl Fn(TimeNs) -> TimeNs) -> Trace {
    let mut out = Trace::with_ranks(trace.registry.clone(), trace.num_ranks());
    for (rank, stream) in trace.iter_ranks() {
        let Some(dst) = out.rank_mut(rank) else { continue };
        for record in stream.records() {
            let mapped = match record {
                Record::RegionEnter { time, region } => {
                    Record::RegionEnter { time: f(*time), region: *region }
                }
                Record::RegionExit { time, region } => {
                    Record::RegionExit { time: f(*time), region: *region }
                }
                Record::CommEnter { time, kind, counters } => {
                    Record::CommEnter { time: f(*time), kind: *kind, counters: *counters }
                }
                Record::CommExit { time, kind, counters } => {
                    Record::CommExit { time: f(*time), kind: *kind, counters: *counters }
                }
                Record::Sample(s) => Record::Sample(Sample {
                    time: f(s.time),
                    counters: s.counters,
                    callstack: s.callstack.clone(),
                }),
            };
            let _ = dst.push(mapped);
        }
    }
    out
}

/// Bit-faithful digest of everything an analysis asserts: burst counts,
/// labels, and the exact bits of every fitted quantity. Two analyses are
/// "the same result" iff their digests are equal strings.
pub fn digest_analysis(result: &Result<Analysis, phasefold::Fault>) -> String {
    let mut d = String::new();
    match result {
        Err(fault) => {
            let _ = write!(d, "ERR {:?} {}", fault.kind, fault.detail);
        }
        Ok(a) => {
            let _ = write!(
                d,
                "bursts={} clusters={} eps={:016x} spmd={:016x} labels={:?} faults={}",
                a.num_bursts,
                a.clustering.num_clusters,
                a.clustering.eps.to_bits(),
                a.clustering.spmd_score.to_bits(),
                a.clustering.labels,
                a.faults.len(),
            );
            for m in &a.models {
                let _ = write!(
                    d,
                    "|model c{} inst={}/{} samples={} dur={:016x} b0={:016x} sse={:016x} bps=",
                    m.cluster,
                    m.instances,
                    m.instances_pruned,
                    m.folded_samples,
                    m.mean_duration_s.to_bits(),
                    m.fit.fit.intercept.to_bits(),
                    m.fit.fit.sse.to_bits(),
                );
                for bp in m.fit.breakpoints() {
                    let _ = write!(d, "{:016x},", bp.to_bits());
                }
                let _ = write!(d, " slopes=");
                for s in m.fit.slopes() {
                    let _ = write!(d, "{:016x},", s.to_bits());
                }
                for phase in &m.phases {
                    let _ = write!(d, " p{}dur={:016x} rates=", phase.index, phase.duration_s.to_bits());
                    for (_, v) in phase.rates.iter() {
                        let _ = write!(d, "{:016x},", v.to_bits());
                    }
                }
            }
        }
    }
    d
}

/// Property: the analysis is bit-identical at any thread count.
pub fn check_threads(case: &Case, seed: u64) -> Option<Divergence> {
    let mut digests = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut config = case.config.to_analysis();
        config.threads = Some(threads);
        digests.push((threads, digest_analysis(&try_analyze_trace(&case.trace, &config))));
    }
    for (threads, digest) in &digests[1..] {
        if digest != &digests[0].1 {
            return Some(Divergence {
                check: "threads-bit-identity",
                seed,
                detail: format!(
                    "analysis differs between threads=1 and threads={threads}: {}",
                    first_difference(&digests[0].1, digest)
                ),
                repro: None,
            });
        }
    }
    None
}

/// Property: shifting every timestamp by a constant leaves the analysis
/// bit-identical — the pipeline consumes only time differences.
pub fn check_time_shift(case: &Case, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    let base = digest_analysis(&try_analyze_trace(&case.trace, &config));
    let shifted_trace = map_times(&case.trace, |t| TimeNs(t.0 + 7_777_777));
    let shifted = digest_analysis(&try_analyze_trace(&shifted_trace, &config));
    (base != shifted).then(|| Divergence {
        check: "time-shift",
        seed,
        detail: format!(
            "analysis changed under a +7.777ms uniform shift: {}",
            first_difference(&base, &shifted)
        ),
        repro: None,
    })
}

/// Property: scaling every timestamp by a power of two (and the burst
/// filter with it) leaves burst extraction, outlier pruning, and the
/// folded profiles bit-identical, and scales mean durations *exactly* —
/// multiplication by 2ᵏ commutes with f64 rounding.
///
/// Deliberately scoped to the folding layer: clustering consumes
/// `log₁₀(duration)`, which is only *approximately* shift-equivariant in
/// floating point, so label equality under scaling is not an invariant the
/// math promises. The base clustering is therefore reused on both sides.
pub fn check_time_scale(case: &Case, seed: u64) -> Option<Divergence> {
    const SCALE: u64 = 4;
    let config = case.config.to_analysis();
    let mut scaled_config = config.clone();
    scaled_config.min_burst_duration =
        phasefold_model::DurNs(config.min_burst_duration.0 * SCALE);

    let mut faults = FaultReport::new();
    let bursts = extract_bursts_checked(&case.trace, config.min_burst_duration, &mut faults);
    let scaled_trace = map_times(&case.trace, |t| TimeNs(t.0 * SCALE));
    let mut scaled_faults = FaultReport::new();
    let scaled_bursts =
        extract_bursts_checked(&scaled_trace, scaled_config.min_burst_duration, &mut scaled_faults);
    if bursts.len() != scaled_bursts.len() || faults.len() != scaled_faults.len() {
        return Some(Divergence {
            check: "time-scale",
            seed,
            detail: format!(
                "burst extraction changed under ×{SCALE}: {} bursts/{} faults vs {}/{}",
                bursts.len(),
                faults.len(),
                scaled_bursts.len(),
                scaled_faults.len()
            ),
            repro: None,
        });
    }

    let clustering = cluster_bursts(&bursts, &config.cluster);
    let base_folds = fold_trace(&case.trace, &bursts, &clustering, &config.fold);
    let scaled_folds = fold_trace(&scaled_trace, &scaled_bursts, &clustering, &config.fold);
    if base_folds.len() != scaled_folds.len() {
        return Some(Divergence {
            check: "time-scale",
            seed,
            detail: format!("fold count {} vs {}", base_folds.len(), scaled_folds.len()),
            repro: None,
        });
    }
    for (b, s) in base_folds.iter().zip(&scaled_folds) {
        if b.instances_used != s.instances_used || b.instances_pruned != s.instances_pruned {
            return Some(Divergence {
                check: "time-scale",
                seed,
                detail: format!(
                    "cluster {}: prune decisions changed under ×{SCALE}: {}/{} vs {}/{}",
                    b.cluster, b.instances_used, b.instances_pruned, s.instances_used, s.instances_pruned
                ),
                repro: None,
            });
        }
        if (b.mean_duration_s * SCALE as f64).to_bits() != s.mean_duration_s.to_bits() {
            return Some(Divergence {
                check: "time-scale",
                seed,
                detail: format!(
                    "cluster {}: mean duration did not scale exactly: {} × {SCALE} != {}",
                    b.cluster, b.mean_duration_s, s.mean_duration_s
                ),
                repro: None,
            });
        }
        for (k, (bp, sp)) in b.profiles.iter().zip(&s.profiles).enumerate() {
            if bp.len() != sp.len()
                || bp
                    .iter()
                    .zip(sp.iter())
                    .any(|(x, y)| x.x.to_bits() != y.x.to_bits() || x.y.to_bits() != y.y.to_bits())
            {
                return Some(Divergence {
                    check: "time-scale",
                    seed,
                    detail: format!(
                        "cluster {} counter {k}: folded profile changed under ×{SCALE} time scaling",
                        b.cluster
                    ),
                    repro: None,
                });
            }
        }
    }
    None
}

/// Property: DBSCAN under a permutation of the input points keeps the core
/// set, the noise set, and the core partition (up to relabeling). Runs on
/// the case's actual burst feature embedding.
pub fn check_dbscan_permutation(case: &Case, rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    let mut faults = FaultReport::new();
    let bursts = extract_bursts_checked(&case.trace, config.min_burst_duration, &mut faults);
    if bursts.len() < 2 {
        return None;
    }
    let features = extract_features(&bursts);
    let points = features.points;
    let clustering = cluster_bursts(&bursts, &config.cluster);
    let eps = clustering.eps;
    let min_pts = config.cluster.min_pts;

    // Fisher–Yates permutation from the seeded rng.
    let n = points.len();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0usize..i + 1));
    }
    let permuted: Vec<[f64; 2]> = perm.iter().map(|&i| points[i]).collect();

    let a = dbscan(&points, &DbscanParams { eps, min_pts });
    let b = dbscan(&permuted, &DbscanParams { eps, min_pts });

    // Geometric core set, computed order-free.
    let eps2 = eps * eps;
    let core: Vec<bool> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| {
                    let dx = points[i][0] - points[j][0];
                    let dy = points[i][1] - points[j][1];
                    dx * dx + dy * dy <= eps2
                })
                .count()
                >= min_pts
        })
        .collect();

    if a.num_clusters != b.num_clusters {
        return Some(Divergence {
            check: "dbscan-permutation",
            seed,
            detail: format!(
                "cluster count changed under permutation: {} vs {}",
                a.num_clusters, b.num_clusters
            ),
            repro: None,
        });
    }
    let mut label_map: HashMap<usize, usize> = HashMap::new();
    let mut label_map_rev: HashMap<usize, usize> = HashMap::new();
    for (pos, &orig) in perm.iter().enumerate() {
        let (la, lb) = (a.labels[orig], b.labels[pos]);
        if la.is_none() != lb.is_none() {
            return Some(Divergence {
                check: "dbscan-permutation",
                seed,
                detail: format!(
                    "noise status of point {orig} changed under permutation: {la:?} vs {lb:?}"
                ),
                repro: None,
            });
        }
        if !core[orig] {
            continue; // border ownership is legitimately order-dependent
        }
        let (Some(la), Some(lb)) = (la, lb) else {
            return Some(Divergence {
                check: "dbscan-permutation",
                seed,
                detail: format!("core point {orig} labelled noise ({la:?} / {lb:?})"),
                repro: None,
            });
        };
        if *label_map.entry(la).or_insert(lb) != lb || *label_map_rev.entry(lb).or_insert(la) != la
        {
            return Some(Divergence {
                check: "dbscan-permutation",
                seed,
                detail: format!(
                    "core partition not a bijection under permutation at point {orig} ({la} vs {lb})"
                ),
                repro: None,
            });
        }
    }
    None
}

/// Property: folding is equivariant under a permutation of the burst
/// order — same prune decisions, same per-profile point multiset, means
/// equal to 1e-12 relative (summation order differs).
pub fn check_fold_reorder(case: &Case, rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    let mut faults = FaultReport::new();
    let bursts = extract_bursts_checked(&case.trace, config.min_burst_duration, &mut faults);
    if bursts.len() < 2 {
        return None;
    }
    let clustering = cluster_bursts(&bursts, &config.cluster);
    let base = fold_trace(&case.trace, &bursts, &clustering, &config.fold);

    let n = bursts.len();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0usize..i + 1));
    }
    let permuted_bursts: Vec<_> = perm.iter().map(|&i| bursts[i].clone()).collect();
    let mut permuted_clustering = clustering.clone();
    permuted_clustering.labels = perm.iter().map(|&i| clustering.labels[i]).collect();
    let reordered = fold_trace(&case.trace, &permuted_bursts, &permuted_clustering, &config.fold);

    if base.len() != reordered.len() {
        return Some(Divergence {
            check: "fold-reorder",
            seed,
            detail: format!("fold count changed under reorder: {} vs {}", base.len(), reordered.len()),
            repro: None,
        });
    }
    let rel_close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
    for (b, r) in base.iter().zip(&reordered) {
        if b.cluster != r.cluster
            || b.instances_used != r.instances_used
            || b.instances_pruned != r.instances_pruned
            || b.samples != r.samples
        {
            return Some(Divergence {
                check: "fold-reorder",
                seed,
                detail: format!(
                    "cluster {}: shape changed under reorder ({}/{}/{} vs {}/{}/{})",
                    b.cluster,
                    b.instances_used,
                    b.instances_pruned,
                    b.samples,
                    r.instances_used,
                    r.instances_pruned,
                    r.samples
                ),
                repro: None,
            });
        }
        if !rel_close(b.mean_duration_s, r.mean_duration_s) {
            return Some(Divergence {
                check: "fold-reorder",
                seed,
                detail: format!(
                    "cluster {}: mean duration {} vs {} beyond summation-order tolerance",
                    b.cluster, b.mean_duration_s, r.mean_duration_s
                ),
                repro: None,
            });
        }
        for (k, (bp, rp)) in b.profiles.iter().zip(&r.profiles).enumerate() {
            if !rel_close(bp.mean_total, rp.mean_total) {
                return Some(Divergence {
                    check: "fold-reorder",
                    seed,
                    detail: format!(
                        "cluster {} counter {k}: mean_total {} vs {}",
                        b.cluster, bp.mean_total, rp.mean_total
                    ),
                    repro: None,
                });
            }
            // Point multiset: exact on (x, y) bits; instance ids are
            // renumbered by the permutation, so they are excluded.
            let mut pa: Vec<(u64, u64)> =
                bp.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
            let mut pb: Vec<(u64, u64)> =
                rp.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
            pa.sort_unstable();
            pb.sort_unstable();
            if pa != pb {
                return Some(Divergence {
                    check: "fold-reorder",
                    seed,
                    detail: format!(
                        "cluster {} counter {k}: folded point multiset changed under reorder ({} vs {} points)",
                        b.cluster,
                        pa.len(),
                        pb.len()
                    ),
                    repro: None,
                });
            }
        }
    }
    None
}

/// Property: streaming the same records into [`OnlineAnalyzer`] sees
/// exactly the bursts batch extraction sees, per rank and at every push
/// boundary, with the same fault tallies.
pub fn check_batch_online(case: &Case, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    // Batch side: per-rank checked extraction over the full trace.
    let mut batch_faults = FaultReport::new();
    let batch_bursts =
        extract_bursts_checked(&case.trace, config.min_burst_duration, &mut batch_faults);
    let mut batch_per_rank: HashMap<u32, usize> = HashMap::new();
    for b in &batch_bursts {
        *batch_per_rank.entry(b.id.rank.0).or_insert(0) += 1;
    }

    // Online side: push each rank's records in chunks.
    let mut online = OnlineAnalyzer::new(config, 8);
    for (rank, stream) in case.trace.iter_ranks() {
        for chunk in stream.records().chunks(5) {
            online.push_records(rank, chunk);
        }
    }
    for (rank, _) in case.trace.iter_ranks() {
        let batch = batch_per_rank.get(&rank.0).copied().unwrap_or(0);
        let seen = online.rank_bursts_seen(rank);
        if batch != seen {
            return Some(Divergence {
                check: "batch-online",
                seed,
                detail: format!(
                    "rank {}: batch extracted {batch} bursts, online saw {seen}",
                    rank.0
                ),
                repro: None,
            });
        }
    }
    if online.bursts_seen() != batch_bursts.len()
        || online.stream_faults().len() != batch_faults.len()
    {
        return Some(Divergence {
            check: "batch-online",
            seed,
            detail: format!(
                "totals: batch {} bursts/{} faults, online {} bursts/{} faults",
                batch_bursts.len(),
                batch_faults.len(),
                online.bursts_seen(),
                online.stream_faults().len()
            ),
            repro: None,
        });
    }
    None
}

/// Property: a session checkpointed mid-stream and restored finishes with
/// a bit-identical analysis to the session that never stopped. This is the
/// resume-exactness contract the serve daemon's durability layer leans on:
/// replaying records into a restored checkpoint must reproduce the
/// uninterrupted trajectory.
pub fn check_checkpoint_roundtrip(case: &Case, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    let mut uninterrupted = OnlineAnalyzer::new(config.clone(), 8).with_seed(seed);
    let mut front = OnlineAnalyzer::new(config.clone(), 8).with_seed(seed);
    for (rank, stream) in case.trace.iter_ranks() {
        let records = stream.records();
        let mid = records.len() / 2;
        for chunk in records[..mid].chunks(5) {
            uninterrupted.push_records(rank, chunk);
            front.push_records(rank, chunk);
        }
    }
    let bytes = front.encode_checkpoint();
    let mut resumed = match OnlineAnalyzer::restore_checkpoint(config, &bytes) {
        Ok(a) => a,
        Err(fault) => {
            return Some(Divergence {
                check: "checkpoint-roundtrip",
                seed,
                detail: format!("restore of a clean checkpoint failed: {fault}"),
                repro: None,
            })
        }
    };
    for (rank, stream) in case.trace.iter_ranks() {
        let records = stream.records();
        let mid = records.len() / 2;
        for chunk in records[mid..].chunks(5) {
            uninterrupted.push_records(rank, chunk);
            resumed.push_records(rank, chunk);
        }
    }
    let a = digest_analysis(&Ok(uninterrupted.snapshot()));
    let b = digest_analysis(&Ok(resumed.snapshot()));
    if a != b {
        return Some(Divergence {
            check: "checkpoint-roundtrip",
            seed,
            detail: format!("resumed digest diverged: {}", first_difference(&a, &b)),
            repro: None,
        });
    }
    None
}

/// Reservoir cap under which [`check_reservoir_stream`] holds its curve
/// bound. Smaller caps trade accuracy for memory and are outside the
/// verified envelope.
pub const RESERVOIR_CHECK_CAP: usize = 256;

/// RMS bound (normalized-progress units, i.e. the instruction profile's
/// own [0, 1] y-range) between the unbounded and reservoir-sampled fitted
/// curves over the fuzzer's spec space at [`RESERVOIR_CHECK_CAP`].
/// Calibrated: the worst observed RMS over 500 fuzz seeds at cap 256 is
/// 0.052 — the bound keeps ~50% headroom over that, and the dominant
/// error term is breakpoint placement sensitivity in the piece-wise fit,
/// not sample count (halving the cap barely moves it).
pub const RESERVOIR_RMS_BOUND: f64 = 0.08;

/// Property: capping per-stratum folded points with the deterministic
/// reservoir changes *accounting* not at all and the *fitted curves* by at
/// most [`RESERVOIR_RMS_BOUND`] RMS. This is the batch ↔ sampled-stream
/// equivalence bound documented in `core::online`.
pub fn check_reservoir_stream(case: &Case, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    let mut full = OnlineAnalyzer::new(config.clone(), 8).with_seed(seed).with_reservoir_cap(0);
    let mut capped = OnlineAnalyzer::new(config, 8)
        .with_seed(seed)
        .with_reservoir_cap(RESERVOIR_CHECK_CAP);
    for (rank, stream) in case.trace.iter_ranks() {
        for chunk in stream.records().chunks(7) {
            full.push_records(rank, chunk);
            capped.push_records(rank, chunk);
        }
    }
    // Accounting is exact for any cap: sampling drops points from the
    // folded profiles, never from the counts the analyzer asserts.
    if full.bursts_seen() != capped.bursts_seen()
        || full.noise_bursts() != capped.noise_bursts()
        || full.records_quarantined() != capped.records_quarantined()
        || full.stream_faults().len() != capped.stream_faults().len()
    {
        return Some(Divergence {
            check: "reservoir-stream",
            seed,
            detail: format!(
                "accounting diverged: full {}b/{}n/{}q/{}f vs capped {}b/{}n/{}q/{}f",
                full.bursts_seen(),
                full.noise_bursts(),
                full.records_quarantined(),
                full.stream_faults().len(),
                capped.bursts_seen(),
                capped.noise_bursts(),
                capped.records_quarantined(),
                capped.stream_faults().len(),
            ),
            repro: None,
        });
    }
    let a = full.snapshot();
    let b = capped.snapshot();
    // The clustering froze from the warm-up buffer, before any reservoir
    // was involved: structure must match exactly.
    if a.clustering.num_clusters != b.clustering.num_clusters {
        return Some(Divergence {
            check: "reservoir-stream",
            seed,
            detail: format!(
                "cluster count diverged: {} vs {}",
                a.clustering.num_clusters, b.clustering.num_clusters
            ),
            repro: None,
        });
    }
    for am in &a.models {
        let Some(bm) = b.models.iter().find(|m| m.cluster == am.cluster) else {
            return Some(Divergence {
                check: "reservoir-stream",
                seed,
                detail: format!("cluster {} modeled unbounded but not capped", am.cluster),
                repro: None,
            });
        };
        if am.instances != bm.instances || am.instances_pruned != bm.instances_pruned {
            return Some(Divergence {
                check: "reservoir-stream",
                seed,
                detail: format!(
                    "cluster {}: instance accounting diverged ({}/{} vs {}/{})",
                    am.cluster, am.instances, am.instances_pruned, bm.instances, bm.instances_pruned
                ),
                repro: None,
            });
        }
        // Curve proximity on a fixed grid of burst fractions. The fitted y
        // is normalized instruction progress, so the RMS is directly in
        // normalized-progress units.
        const GRID: usize = 64;
        let mut sq = 0.0;
        for i in 0..GRID {
            let x = (i as f64 + 0.5) / GRID as f64;
            let d = am.fit.fit.predict(x) - bm.fit.fit.predict(x);
            sq += d * d;
        }
        let rms = (sq / GRID as f64).sqrt();
        if !rms.is_finite() || rms > RESERVOIR_RMS_BOUND {
            return Some(Divergence {
                check: "reservoir-stream",
                seed,
                detail: format!(
                    "cluster {}: fitted curves {rms:.4} RMS apart (bound {RESERVOIR_RMS_BOUND}, \
                     cap {RESERVOIR_CHECK_CAP}, {} vs {} folded samples)",
                    am.cluster, am.folded_samples, bm.folded_samples
                ),
                repro: None,
            });
        }
    }
    None
}

/// Property: condensing an analysis into a fleet fingerprint and pushing
/// it through the `.pffp` wire frame is lossless — the decoded fingerprint
/// equals the original, and re-encoding it reproduces the exact bytes.
/// This is the storage contract the fleet store and `regress-check` lean
/// on: a baseline written by one build must read back bit-identically in
/// the next.
pub fn check_fingerprint_roundtrip(case: &Case, seed: u64) -> Option<Divergence> {
    let config = case.config.to_analysis();
    // Faulted analyses have no fingerprint to round-trip; other checks own
    // the fault-handling contracts.
    let analysis = try_analyze_trace(&case.trace, &config).ok()?;
    let fp = phasefold_fleet::Fingerprint::from_analysis(
        &analysis,
        &case.trace.registry,
        "verify-build",
        "verify-trace",
    );
    let bytes = fp.encode();
    let decoded = match phasefold_fleet::Fingerprint::decode(&bytes) {
        Ok(d) => d,
        Err(e) => {
            return Some(Divergence {
                check: "fingerprint-roundtrip",
                seed,
                detail: format!("decode of a fresh frame failed: {e}"),
                repro: None,
            })
        }
    };
    if decoded != fp {
        return Some(Divergence {
            check: "fingerprint-roundtrip",
            seed,
            detail: format!(
                "decoded fingerprint diverged: {} vs {} clusters, {} vs {} phases",
                decoded.clusters.len(),
                fp.clusters.len(),
                decoded.num_phases(),
                fp.num_phases()
            ),
            repro: None,
        });
    }
    let re = decoded.encode();
    if re != bytes {
        let pos = re.iter().zip(&bytes).position(|(a, b)| a != b).unwrap_or(bytes.len().min(re.len()));
        return Some(Divergence {
            check: "fingerprint-roundtrip",
            seed,
            detail: format!(
                "re-encoded frame differs at byte {pos} ({} vs {} bytes total)",
                re.len(),
                bytes.len()
            ),
            repro: None,
        });
    }
    None
}

/// Locates the first differing region of two digests, for readable
/// divergence details.
/// Share of the samples whose counter values [`check_nan_samples`] turns
/// to NaN — the rate of `phasefold chaos --nan 0.3`.
pub const NAN_SAMPLE_RATE: f64 = 0.3;

/// Property: NaN sample values end as faults, never as a panic. Every
/// counter value of a [`NAN_SAMPLE_RATE`] share of the samples becomes
/// NaN, and the analysis runs with a small bootstrap, the one stage that
/// re-reads the NaN-filtered structural data; no `task-panicked` fault may
/// come back, in the report or as the abort.
pub fn check_nan_samples(case: &Case, rng: &mut StdRng, seed: u64) -> Option<Divergence> {
    let mut trace = Trace::with_ranks(case.trace.registry.clone(), case.trace.num_ranks());
    let mut corrupted = 0usize;
    for (rank, stream) in case.trace.iter_ranks() {
        let Some(dst) = trace.rank_mut(rank) else { continue };
        for record in stream.records() {
            let mut record = record.clone();
            if let Record::Sample(s) = &mut record {
                if rng.gen_bool(NAN_SAMPLE_RATE) {
                    let kinds: Vec<_> = s.counters.iter().map(|(kind, _)| kind).collect();
                    for kind in kinds {
                        s.counters.set(kind, f64::NAN);
                    }
                    corrupted += 1;
                }
            }
            let _ = dst.push(record);
        }
    }
    let mut config = case.config.to_analysis();
    config.bootstrap = Some(BootstrapConfig { replicates: 8, ..BootstrapConfig::default() });
    let panicked = match try_analyze_trace(&trace, &config) {
        Ok(analysis) => {
            analysis.faults.faults.into_iter().find(|f| f.kind == FaultKind::TaskPanicked)
        }
        Err(fault) => (fault.kind == FaultKind::TaskPanicked).then_some(fault),
    };
    panicked.map(|fault| Divergence {
        check: "nan-no-panic",
        seed,
        detail: format!("{corrupted} samples NaN-corrupted: {fault}"),
        repro: None,
    })
}

fn first_difference(a: &str, b: &str) -> String {
    let pos = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let lo = pos.saturating_sub(20);
    let window = |s: &str| {
        let hi = (pos + 40).min(s.len());
        s.get(lo..hi).unwrap_or("<non-utf8 boundary>").to_string()
    };
    format!("...{}... vs ...{}...", window(a), window(b))
}

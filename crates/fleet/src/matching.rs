//! Phase-aware matching of two fingerprints and the regression verdict.
//!
//! Builds change more than performance between deploys: phases *shift*
//! (span drift from changed trip counts), *split* (the PWLR resolves an
//! extra breakpoint), and *merge* (two segments fuse when their rates
//! converge). A matcher that pairs phases by position alone reports every
//! such change as a phase appearing and another vanishing — useless for a
//! deploy gate. This module matches in falling order of evidence quality:
//!
//! 1. **Source identity** — same region *name + file* strings. Line
//!    numbers shift between builds and region ids are registry-local, so
//!    neither participates. The strongest signal: code identity.
//! 2. **Signature similarity** — counter-*mix* distance (log-ratio RMS of
//!    L1-normalized rate vectors) plus small position/width terms. The mix
//!    is invariant under uniform slowdown — a phase that got 30% slower is
//!    still the same phase — which is exactly the case a regression
//!    detector must not mis-read as "old phase vanished, new phase
//!    appeared".
//! 3. **Span overlap** — one-to-one only with *mutual* coverage ≥ 60%, so
//!    a blind overlap match cannot steal one half of a split.
//! 4. **Split/merge** — an unmatched phase whose span is covered ≥ 80% by
//!    two or more unmatched phases on the other side is reported as one
//!    split (or merge) verdict with summed durations, not as churn.
//!
//! Whatever remains is genuinely new or vanished and is surfaced as such.
//! The verdict applies the regression threshold only to phases carrying at
//! least `min_time_share` of baseline time — a 50% regression of a 0.1%
//! phase is noise, not a blocked deploy — plus one aggregate check over
//! the matched per-burst durations so death-by-many-small-cuts still
//! trips the gate.

use crate::fingerprint::{ClusterFingerprint, Fingerprint, PhaseFingerprint};
use phasefold_model::CounterKind;
use phasefold_obs::export::json_escape;

/// The evidence tier that paired a phase group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Same source region (name + file).
    Source,
    /// Counter-mix signature similarity.
    Signature,
    /// Span overlap (one-to-one, split or merge).
    Overlap,
}

impl MatchKind {
    /// Stable lower-case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            MatchKind::Source => "source",
            MatchKind::Signature => "signature",
            MatchKind::Overlap => "overlap",
        }
    }
}

/// Tunables of [`compare_fingerprints`].
#[derive(Debug, Clone, Copy)]
pub struct MatchConfig {
    /// Relative per-phase (and aggregate) duration growth that counts as
    /// a regression. The default (0.08) is calibrated by E21's threshold
    /// sweep: a real 10% slowdown measures as 10% ± run-to-run noise, so
    /// a gate at exactly 0.10 only catches the upper half of that
    /// distribution (recall 0.17). 0.08 is the largest threshold that
    /// recalls ≥ 90% of 10% slowdowns while keeping both the
    /// false-positive rate and recall on sub-threshold 5% drift at zero.
    pub regression_threshold: f64,
    /// Minimum share of baseline time a phase needs for its regression to
    /// gate; smaller phases are reported but never trip the verdict.
    pub min_time_share: f64,
    /// Maximum signature distance for a [`MatchKind::Signature`] pair.
    pub signature_cutoff: f64,
    /// Span-coverage fraction required to call a split or merge.
    pub split_coverage: f64,
}

impl Default for MatchConfig {
    fn default() -> MatchConfig {
        MatchConfig {
            regression_threshold: 0.08,
            min_time_share: 0.02,
            signature_cutoff: 0.45,
            split_coverage: 0.8,
        }
    }
}

/// How the matched phase sets relate structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchShape {
    /// One baseline phase matched one candidate phase.
    OneToOne,
    /// One baseline phase split into several candidate phases.
    Split,
    /// Several baseline phases merged into one candidate phase.
    Merge,
}

impl MatchShape {
    /// Stable lower-case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            MatchShape::OneToOne => "one_to_one",
            MatchShape::Split => "split",
            MatchShape::Merge => "merge",
        }
    }
}

/// The verdict on one matched phase (or split/merge group).
#[derive(Debug, Clone)]
pub struct PhaseVerdict {
    /// Baseline cluster id.
    pub cluster: usize,
    /// Candidate cluster id it matched.
    pub candidate_cluster: usize,
    /// Baseline phase indices in the group (one unless a merge).
    pub baseline_phases: Vec<usize>,
    /// Candidate phase indices in the group (one unless a split).
    pub candidate_phases: Vec<usize>,
    /// Evidence tier that produced the match.
    pub matched_by: MatchKind,
    /// Structural relation of the group.
    pub shape: MatchShape,
    /// Rendered source attribution (`name (file:line)`) of the baseline
    /// side, when it had one.
    pub source: Option<String>,
    /// Summed per-burst duration of the baseline side (seconds).
    pub duration_before_s: f64,
    /// Summed per-burst duration of the candidate side (seconds).
    pub duration_after_s: f64,
    /// Relative duration growth; `None` when the baseline duration is
    /// zero (explicitly not "no change").
    pub duration_change: Option<f64>,
    /// Duration-weighted IPC of the baseline side.
    pub ipc_before: f64,
    /// Duration-weighted IPC of the candidate side.
    pub ipc_after: f64,
    /// Duration-weighted L3 misses per kilo-instruction, baseline side.
    pub l3_mpki_before: f64,
    /// Duration-weighted L3 misses per kilo-instruction, candidate side.
    pub l3_mpki_after: f64,
    /// Share of total baseline application time this group carries.
    pub time_share: f64,
    /// True when `time_share` reaches the configured minimum.
    pub significant: bool,
    /// True when significant *and* grown past the threshold — this phase
    /// trips the gate.
    pub regressed: bool,
}

/// A phase present on only one side of the comparison.
#[derive(Debug, Clone)]
pub struct PhaseNote {
    /// Cluster id (baseline side for vanished, candidate side for new).
    pub cluster: usize,
    /// Phase index within the cluster.
    pub phase: usize,
    /// Per-burst duration of the phase (seconds).
    pub duration_s: f64,
    /// Rendered source attribution, when present.
    pub source: Option<String>,
    /// Share of that side's total application time.
    pub time_share: f64,
}

/// The full comparison verdict between two builds.
#[derive(Debug, Clone)]
pub struct CompareVerdict {
    /// Baseline build id.
    pub baseline_build: String,
    /// Candidate build id.
    pub candidate_build: String,
    /// Baseline trace identity.
    pub baseline_trace: String,
    /// Candidate trace identity.
    pub candidate_trace: String,
    /// Regression threshold the verdict was computed under.
    pub threshold: f64,
    /// Significance floor the verdict was computed under.
    pub min_time_share: f64,
    /// The gate: true when any significant phase (or the matched
    /// aggregate) grew past the threshold.
    pub regressed: bool,
    /// Total baseline application time (seconds).
    pub total_before_s: f64,
    /// Total candidate application time (seconds).
    pub total_after_s: f64,
    /// Relative growth of summed per-burst duration over matched phase
    /// groups; `None` when nothing matched or the baseline sum is zero.
    pub total_change: Option<f64>,
    /// Matched phase groups, baseline order.
    pub phases: Vec<PhaseVerdict>,
    /// Phases only the candidate has.
    pub new_phases: Vec<PhaseNote>,
    /// Phases only the baseline has.
    pub vanished_phases: Vec<PhaseNote>,
}

const EPS: f64 = 1e-12;

/// Overlap length of two spans.
fn overlap(a: &PhaseFingerprint, b: &PhaseFingerprint) -> f64 {
    (a.x1.min(b.x1) - a.x0.max(b.x0)).max(0.0)
}

/// True when both phases carry source attribution and it *disagrees* —
/// positive evidence they are different code, which the weaker signature
/// and overlap passes must never override.
fn sources_conflict(a: &PhaseFingerprint, b: &PhaseFingerprint) -> bool {
    match (&a.source, &b.source) {
        (Some(sa), Some(sb)) => sa.name != sb.name || sa.file != sb.file,
        _ => false,
    }
}

/// Duration-weighted ratio of two counters over a set of phases: total
/// `num` events over total `den` events, 0 when there are no `den` events.
fn weighted_ratio(phases: &[&PhaseFingerprint], num: CounterKind, den: CounterKind) -> f64 {
    let total = |k: CounterKind| -> f64 {
        phases.iter().map(|p| p.rates[k] * p.duration_s).sum()
    };
    let den = total(den);
    if den <= 0.0 {
        0.0
    } else {
        total(num) / den
    }
}

/// Duration-weighted IPC over a set of phases.
fn weighted_ipc(phases: &[&PhaseFingerprint]) -> f64 {
    weighted_ratio(phases, CounterKind::Instructions, CounterKind::Cycles)
}

/// Duration-weighted L3 misses per kilo-instruction over a set of phases.
fn weighted_l3_mpki(phases: &[&PhaseFingerprint]) -> f64 {
    1e3 * weighted_ratio(phases, CounterKind::L3Misses, CounterKind::Instructions)
}

/// Counter-mix distance: RMS of per-counter log-ratios between the two
/// L1-normalized rate vectors, plus small position and width terms. The
/// normalization makes the distance invariant under uniform slowdown.
fn signature_distance(a: &PhaseFingerprint, b: &PhaseFingerprint) -> f64 {
    let ra = a.rates.as_array();
    let rb = b.rates.as_array();
    let sa: f64 = ra.iter().sum();
    let sb: f64 = rb.iter().sum();
    if sa <= 0.0 || sb <= 0.0 {
        return f64::INFINITY;
    }
    let mut acc = 0.0;
    let mut n = 0usize;
    for i in 0..ra.len() {
        let pa = ra[i] / sa;
        let pb = rb[i] / sb;
        if pa > 1e-9 || pb > 1e-9 {
            let d = ((pa + EPS) / (pb + EPS)).ln();
            acc += d * d;
            n += 1;
        }
    }
    if n == 0 {
        return f64::INFINITY;
    }
    let mix = (acc / n as f64).sqrt();
    let position = 0.5 * (0.5 * (a.x0 + a.x1) - 0.5 * (b.x0 + b.x1)).abs();
    // Width is weighted harder than position: a phase that "matches"
    // something twice its width is usually one piece of a split/merge,
    // which the dedicated passes must get to see.
    let width = if a.span() > 0.0 && b.span() > 0.0 {
        0.75 * (a.span() / b.span()).ln().abs()
    } else {
        1.0
    };
    mix + position + width
}

/// Burst-signature distance between two clusters (mean duration +
/// per-burst instruction total, both in log space).
fn cluster_distance(a: &ClusterFingerprint, b: &ClusterFingerprint) -> f64 {
    let dur = ((a.mean_duration_s + EPS) / (b.mean_duration_s + EPS)).ln().abs();
    let ins = ((a.total_instructions + EPS) / (b.total_instructions + EPS)).ln().abs();
    dur + ins
}

/// Greedy one-to-one cluster pairing under a log-distance cutoff of 2.0.
fn match_clusters(b: &[ClusterFingerprint], c: &[ClusterFingerprint]) -> Vec<(usize, usize)> {
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for (i, bc) in b.iter().enumerate() {
        for (j, cc) in c.iter().enumerate() {
            let d = cluster_distance(bc, cc);
            if d <= 2.0 {
                edges.push((d, i, j));
            }
        }
    }
    edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    let mut used_b = vec![false; b.len()];
    let mut used_c = vec![false; c.len()];
    let mut pairs = Vec::new();
    for (_, i, j) in edges {
        if !used_b[i] && !used_c[j] {
            used_b[i] = true;
            used_c[j] = true;
            pairs.push((i, j));
        }
    }
    pairs.sort();
    pairs
}

/// One matched phase group before scoring.
struct Group {
    baseline: Vec<usize>,
    candidate: Vec<usize>,
    matched_by: MatchKind,
    shape: MatchShape,
}

/// Matches the phases of one cluster pair; `true` slots in the returned
/// masks are phases consumed by some group.
fn match_phases(
    b: &[PhaseFingerprint],
    c: &[PhaseFingerprint],
    config: &MatchConfig,
) -> (Vec<Group>, Vec<bool>, Vec<bool>) {
    let mut used_b = vec![false; b.len()];
    let mut used_c = vec![false; c.len()];
    let mut groups: Vec<Group> = Vec::new();

    // Pass 1: source identity (name + file). First-in-order wins a
    // conflicting claim, deterministically.
    for (bi, bp) in b.iter().enumerate() {
        let Some(bs) = &bp.source else { continue };
        let hit = c.iter().enumerate().find(|(ci, cp)| {
            !used_c[*ci]
                && cp
                    .source
                    .as_ref()
                    .is_some_and(|cs| cs.name == bs.name && cs.file == bs.file)
        });
        if let Some((ci, _)) = hit {
            used_b[bi] = true;
            used_c[ci] = true;
            groups.push(Group {
                baseline: vec![bi],
                candidate: vec![ci],
                matched_by: MatchKind::Source,
                shape: MatchShape::OneToOne,
            });
        }
    }

    // Pass 2: signature similarity.
    for (bi, bp) in b.iter().enumerate() {
        if used_b[bi] {
            continue;
        }
        let best = c
            .iter()
            .enumerate()
            .filter(|(ci, cp)| !used_c[*ci] && !sources_conflict(bp, cp))
            .map(|(ci, cp)| (signature_distance(bp, cp), ci))
            .min_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        if let Some((d, ci)) = best {
            if d <= config.signature_cutoff {
                used_b[bi] = true;
                used_c[ci] = true;
                groups.push(Group {
                    baseline: vec![bi],
                    candidate: vec![ci],
                    matched_by: MatchKind::Signature,
                    shape: MatchShape::OneToOne,
                });
            }
        }
    }

    // Pass 3: one-to-one span overlap, mutual coverage >= 60% — strict
    // enough that one half of a split cannot be claimed here.
    for (bi, bp) in b.iter().enumerate() {
        if used_b[bi] {
            continue;
        }
        let best = c
            .iter()
            .enumerate()
            .filter(|(ci, cp)| !used_c[*ci] && !sources_conflict(bp, cp))
            .map(|(ci, cp)| (overlap(bp, cp), ci))
            .max_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)));
        if let Some((ov, ci)) = best {
            let denom = bp.span().max(c[ci].span());
            if denom > 0.0 && ov / denom >= 0.6 {
                used_b[bi] = true;
                used_c[ci] = true;
                groups.push(Group {
                    baseline: vec![bi],
                    candidate: vec![ci],
                    matched_by: MatchKind::Overlap,
                    shape: MatchShape::OneToOne,
                });
            }
        }
    }

    // Pass 4: splits — an unmatched baseline phase covered by >= 2
    // unmatched candidate phases.
    for (bi, bp) in b.iter().enumerate() {
        if used_b[bi] || bp.span() <= 0.0 {
            continue;
        }
        let pieces: Vec<usize> = c
            .iter()
            .enumerate()
            .filter(|(ci, cp)| {
                !used_c[*ci]
                    && cp.span() > 0.0
                    && !sources_conflict(bp, cp)
                    && overlap(bp, cp) >= 0.5 * cp.span()
            })
            .map(|(ci, _)| ci)
            .collect();
        let covered: f64 = pieces.iter().map(|&ci| overlap(bp, &c[ci])).sum();
        if pieces.len() >= 2 && covered >= config.split_coverage * bp.span() {
            used_b[bi] = true;
            for &ci in &pieces {
                used_c[ci] = true;
            }
            groups.push(Group {
                baseline: vec![bi],
                candidate: pieces,
                matched_by: MatchKind::Overlap,
                shape: MatchShape::Split,
            });
        }
    }

    // Pass 5: merges — the mirror image.
    for (ci, cp) in c.iter().enumerate() {
        if used_c[ci] || cp.span() <= 0.0 {
            continue;
        }
        let pieces: Vec<usize> = b
            .iter()
            .enumerate()
            .filter(|(bi, bp)| {
                !used_b[*bi]
                    && bp.span() > 0.0
                    && !sources_conflict(cp, bp)
                    && overlap(cp, bp) >= 0.5 * bp.span()
            })
            .map(|(bi, _)| bi)
            .collect();
        let covered: f64 = pieces.iter().map(|&bi| overlap(cp, &b[bi])).sum();
        if pieces.len() >= 2 && covered >= config.split_coverage * cp.span() {
            used_c[ci] = true;
            for &bi in &pieces {
                used_b[bi] = true;
            }
            groups.push(Group {
                baseline: pieces,
                candidate: vec![ci],
                matched_by: MatchKind::Overlap,
                shape: MatchShape::Merge,
            });
        }
    }

    groups.sort_by_key(|g| g.baseline.first().copied().unwrap_or(usize::MAX));
    (groups, used_b, used_c)
}

/// Compares two fingerprints and renders the regression verdict.
pub fn compare_fingerprints(
    baseline: &Fingerprint,
    candidate: &Fingerprint,
    config: &MatchConfig,
) -> CompareVerdict {
    let total_before_s = baseline.total_time_s();
    let total_after_s = candidate.total_time_s();
    let pairs = match_clusters(&baseline.clusters, &candidate.clusters);

    let mut phases: Vec<PhaseVerdict> = Vec::new();
    let mut new_phases: Vec<PhaseNote> = Vec::new();
    let mut vanished_phases: Vec<PhaseNote> = Vec::new();
    // Aggregate over matched groups, in per-burst time weighted by
    // baseline instance counts so both sides are on the same footing even
    // when the runs had different iteration counts.
    let mut matched_before = 0.0;
    let mut matched_after = 0.0;

    let note = |cluster: &ClusterFingerprint, p: &PhaseFingerprint, total: f64| PhaseNote {
        cluster: cluster.cluster,
        phase: p.index,
        duration_s: p.duration_s,
        source: p.source.as_ref().map(|s| s.render()),
        time_share: if total > 0.0 {
            p.duration_s * cluster.instances as f64 / total
        } else {
            0.0
        },
    };

    for (bi, ci) in &pairs {
        let bc = &baseline.clusters[*bi];
        let cc = &candidate.clusters[*ci];
        let (groups, used_b, used_c) = match_phases(&bc.phases, &cc.phases, config);
        for g in groups {
            let bset: Vec<&PhaseFingerprint> = g.baseline.iter().map(|&i| &bc.phases[i]).collect();
            let cset: Vec<&PhaseFingerprint> =
                g.candidate.iter().map(|&i| &cc.phases[i]).collect();
            let duration_before_s: f64 = bset.iter().map(|p| p.duration_s).sum();
            let duration_after_s: f64 = cset.iter().map(|p| p.duration_s).sum();
            let duration_change = if duration_before_s <= 0.0 {
                None
            } else {
                Some(duration_after_s / duration_before_s - 1.0)
            };
            let time_share = if total_before_s > 0.0 {
                duration_before_s * bc.instances as f64 / total_before_s
            } else {
                0.0
            };
            let significant = time_share >= config.min_time_share;
            let regressed = significant
                && duration_change.is_some_and(|ch| ch >= config.regression_threshold);
            matched_before += duration_before_s * bc.instances as f64;
            matched_after += duration_after_s * bc.instances as f64;
            phases.push(PhaseVerdict {
                cluster: bc.cluster,
                candidate_cluster: cc.cluster,
                baseline_phases: g.baseline.iter().map(|&i| bc.phases[i].index).collect(),
                candidate_phases: g.candidate.iter().map(|&i| cc.phases[i].index).collect(),
                matched_by: g.matched_by,
                shape: g.shape,
                source: bset.iter().find_map(|p| p.source.as_ref().map(|s| s.render())),
                duration_before_s,
                duration_after_s,
                duration_change,
                ipc_before: weighted_ipc(&bset),
                ipc_after: weighted_ipc(&cset),
                l3_mpki_before: weighted_l3_mpki(&bset),
                l3_mpki_after: weighted_l3_mpki(&cset),
                time_share,
                significant,
                regressed,
            });
        }
        for (i, p) in bc.phases.iter().enumerate() {
            if !used_b[i] {
                vanished_phases.push(note(bc, p, total_before_s));
            }
        }
        for (i, p) in cc.phases.iter().enumerate() {
            if !used_c[i] {
                new_phases.push(note(cc, p, total_after_s));
            }
        }
    }

    // Phases of entirely unmatched clusters are one-sided by definition.
    for (i, bc) in baseline.clusters.iter().enumerate() {
        if !pairs.iter().any(|(bi, _)| *bi == i) {
            for p in &bc.phases {
                vanished_phases.push(note(bc, p, total_before_s));
            }
        }
    }
    for (j, cc) in candidate.clusters.iter().enumerate() {
        if !pairs.iter().any(|(_, cj)| *cj == j) {
            for p in &cc.phases {
                new_phases.push(note(cc, p, total_after_s));
            }
        }
    }

    let total_change =
        if matched_before > 0.0 { Some(matched_after / matched_before - 1.0) } else { None };
    let regressed = phases.iter().any(|p| p.regressed)
        || total_change.is_some_and(|ch| ch >= config.regression_threshold);

    CompareVerdict {
        baseline_build: baseline.build_id.clone(),
        candidate_build: candidate.build_id.clone(),
        baseline_trace: baseline.trace_id.clone(),
        candidate_trace: candidate.trace_id.clone(),
        threshold: config.regression_threshold,
        min_time_share: config.min_time_share,
        regressed,
        total_before_s,
        total_after_s,
        total_change,
        phases,
        new_phases,
        vanished_phases,
    }
}

// ---------------------------------------------------------------------------
// Rendering. `verdict_json` is the single source of the wire shape: both
// `POST /v1/compare` and `phasefold compare --json` / `regress-check --json`
// emit exactly these bytes.
// ---------------------------------------------------------------------------

/// A finite f64 as a JSON number; non-finite values become `null` (JSON
/// has no NaN/Inf).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(v) => num(v),
        None => "null".to_string(),
    }
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_string(),
    }
}

fn notes_json(notes: &[PhaseNote]) -> String {
    let items: Vec<String> = notes
        .iter()
        .map(|n| {
            format!(
                "{{\"cluster\":{},\"phase\":{},\"duration_s\":{},\"source\":{},\"time_share\":{}}}",
                n.cluster,
                n.phase,
                num(n.duration_s),
                opt_str(&n.source),
                num(n.time_share),
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Renders the verdict as the canonical JSON document.
pub fn verdict_json(v: &CompareVerdict) -> String {
    let phases: Vec<String> = v
        .phases
        .iter()
        .map(|p| {
            let bp: Vec<String> = p.baseline_phases.iter().map(|i| i.to_string()).collect();
            let cp: Vec<String> = p.candidate_phases.iter().map(|i| i.to_string()).collect();
            format!(
                concat!(
                    "{{\"cluster\":{},\"candidate_cluster\":{},",
                    "\"baseline_phases\":[{}],\"candidate_phases\":[{}],",
                    "\"matched_by\":\"{}\",\"shape\":\"{}\",\"source\":{},",
                    "\"duration_before_s\":{},\"duration_after_s\":{},",
                    "\"duration_change\":{},\"ipc_before\":{},\"ipc_after\":{},",
                    "\"l3_mpki_before\":{},\"l3_mpki_after\":{},",
                    "\"time_share\":{},\"significant\":{},\"regressed\":{}}}"
                ),
                p.cluster,
                p.candidate_cluster,
                bp.join(","),
                cp.join(","),
                p.matched_by.label(),
                p.shape.label(),
                opt_str(&p.source),
                num(p.duration_before_s),
                num(p.duration_after_s),
                opt_num(p.duration_change),
                num(p.ipc_before),
                num(p.ipc_after),
                num(p.l3_mpki_before),
                num(p.l3_mpki_after),
                num(p.time_share),
                p.significant,
                p.regressed,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"baseline\":\"{}\",\"candidate\":\"{}\",",
            "\"baseline_trace\":\"{}\",\"candidate_trace\":\"{}\",",
            "\"threshold\":{},\"min_time_share\":{},\"regressed\":{},",
            "\"total_before_s\":{},\"total_after_s\":{},\"total_change\":{},",
            "\"phases\":[{}],\"new_phases\":{},\"vanished_phases\":{}}}"
        ),
        json_escape(&v.baseline_build),
        json_escape(&v.candidate_build),
        json_escape(&v.baseline_trace),
        json_escape(&v.candidate_trace),
        num(v.threshold),
        num(v.min_time_share),
        v.regressed,
        num(v.total_before_s),
        num(v.total_after_s),
        opt_num(v.total_change),
        phases.join(","),
        notes_json(&v.new_phases),
        notes_json(&v.vanished_phases),
    )
}

fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:+.1}%", v * 100.0),
        None => "n/a".to_string(),
    }
}

/// Renders the verdict as a human-readable report.
pub fn render_verdict(v: &CompareVerdict) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "regression check: {} -> {} (trace {})\n",
        v.baseline_build, v.candidate_build, v.baseline_trace
    ));
    out.push_str(&format!(
        "  threshold {:.1}%  matched-time change {}  verdict: {}\n",
        v.threshold * 100.0,
        pct(v.total_change),
        if v.regressed { "REGRESSED" } else { "clean" }
    ));
    out.push_str(&format!(
        "  total time {:.6}s -> {:.6}s\n",
        v.total_before_s, v.total_after_s
    ));
    if !v.phases.is_empty() {
        out.push_str("  phases:\n");
        for p in &v.phases {
            let bp: Vec<String> = p.baseline_phases.iter().map(|i| i.to_string()).collect();
            let cp: Vec<String> = p.candidate_phases.iter().map(|i| i.to_string()).collect();
            out.push_str(&format!(
                "    c{} p[{}] -> c{} p[{}]  {:9}  {:>7}  ipc {:.2} -> {:.2}  \
                 l3mpki {:.2} -> {:.2}  share {:4.1}%  {}{}\n",
                p.cluster,
                bp.join(","),
                p.candidate_cluster,
                cp.join(","),
                format!("{}/{}", p.matched_by.label(), p.shape.label()),
                pct(p.duration_change),
                p.ipc_before,
                p.ipc_after,
                p.l3_mpki_before,
                p.l3_mpki_after,
                p.time_share * 100.0,
                p.source.as_deref().unwrap_or("-"),
                if p.regressed { "  [REGRESSED]" } else { "" },
            ));
        }
    }
    for (label, notes) in [("new", &v.new_phases), ("vanished", &v.vanished_phases)] {
        for n in notes.iter() {
            out.push_str(&format!(
                "  {} phase: c{} p{}  {:.6}s  share {:.1}%  {}\n",
                label,
                n.cluster,
                n.phase,
                n.duration_s,
                n.time_share * 100.0,
                n.source.as_deref().unwrap_or("-"),
            ));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fingerprint::SourceRef;
    use phasefold_model::{CounterKind, CounterSet};

    pub(crate) fn rates(ipc: f64) -> CounterSet {
        let clock = 2.5e9;
        let mut r = CounterSet::ZERO;
        r[CounterKind::Instructions] = ipc * clock;
        r[CounterKind::Cycles] = clock;
        r[CounterKind::Loads] = 0.3 * ipc * clock;
        r[CounterKind::Stores] = 0.1 * ipc * clock;
        r[CounterKind::Branches] = 0.15 * ipc * clock;
        r
    }

    fn phase(index: usize, x0: f64, x1: f64, ipc: f64, src: Option<&str>) -> PhaseFingerprint {
        PhaseFingerprint {
            index,
            x0,
            x1,
            duration_s: (x1 - x0) * 1e-3,
            rates: rates(ipc),
            source: src.map(|name| SourceRef {
                name: name.to_string(),
                file: "app.c".to_string(),
                line: 42,
                confidence: 0.9,
            }),
        }
    }

    fn fp(build: &str, phases: Vec<PhaseFingerprint>) -> Fingerprint {
        let total_instructions =
            phases.iter().map(|p| p.rates.as_array()[0] * p.duration_s).sum();
        Fingerprint {
            build_id: build.to_string(),
            trace_id: "t".to_string(),
            num_bursts: 100,
            clusters: vec![ClusterFingerprint {
                cluster: 0,
                instances: 100,
                mean_duration_s: phases.iter().map(|p| p.duration_s).sum(),
                total_instructions,
                breakpoints: Vec::new(),
                slopes: Vec::new(),
                phases,
            }],
        }
    }

    #[test]
    fn identical_builds_are_clean() {
        let a = fp("v1", vec![phase(0, 0.0, 0.5, 2.0, Some("k0")), phase(1, 0.5, 1.0, 0.8, None)]);
        let mut b = a.clone();
        b.build_id = "v2".to_string();
        let v = compare_fingerprints(&a, &b, &MatchConfig::default());
        assert!(!v.regressed, "{}", render_verdict(&v));
        assert_eq!(v.phases.len(), 2);
        assert!(v.new_phases.is_empty() && v.vanished_phases.is_empty());
        assert!(v.total_change.unwrap().abs() < 1e-9);
    }

    #[test]
    fn uniform_slowdown_still_matches_by_signature() {
        // No source attribution anywhere: the signature pass must carry a
        // 30% slowdown of the second phase without declaring churn.
        let a = fp("v1", vec![phase(0, 0.0, 0.5, 2.4, None), phase(1, 0.5, 1.0, 0.6, None)]);
        let mut slow = phase(1, 0.45, 1.0, 0.6 / 1.3, None);
        slow.duration_s = 0.55e-3 * 1.3;
        let b = fp("v2", vec![phase(0, 0.0, 0.45, 2.4, None), slow]);
        let v = compare_fingerprints(&a, &b, &MatchConfig::default());
        assert!(v.new_phases.is_empty(), "{}", render_verdict(&v));
        assert!(v.vanished_phases.is_empty(), "{}", render_verdict(&v));
        let slow_v = v.phases.iter().find(|p| p.baseline_phases == vec![1]).unwrap();
        assert!(slow_v.duration_change.unwrap() > 0.25);
        assert!(slow_v.regressed);
        assert!(v.regressed);
    }

    #[test]
    fn insignificant_regressions_do_not_gate() {
        // The tiny phase doubles but carries ~0.1% of time: reported, not
        // gating.
        let a = fp("v1", vec![phase(0, 0.0, 0.999, 2.0, Some("big")), phase(1, 0.999, 1.0, 1.0, Some("tiny"))]);
        let mut b = a.clone();
        b.build_id = "v2".to_string();
        b.clusters[0].phases[1].duration_s *= 2.0;
        let v = compare_fingerprints(&a, &b, &MatchConfig::default());
        let tiny = v.phases.iter().find(|p| p.source.as_deref() == Some("tiny (app.c:42)")).unwrap();
        assert!(tiny.duration_change.unwrap() > 0.9);
        assert!(!tiny.significant && !tiny.regressed);
        assert!(!v.regressed, "{}", render_verdict(&v));
    }

    #[test]
    fn json_is_well_formed_enough_to_eyeball() {
        let a = fp("v\"1", vec![phase(0, 0.0, 1.0, 2.0, Some("k\\0"))]);
        let mut b = a.clone();
        b.build_id = "v2".to_string();
        let v = compare_fingerprints(&a, &b, &MatchConfig::default());
        let json = verdict_json(&v);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"baseline\":\"v\\\"1\""));
        assert!(json.contains("\"source\":\"k\\\\0 (app.c:42)\""));
        assert!(json.contains("\"regressed\":false"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}

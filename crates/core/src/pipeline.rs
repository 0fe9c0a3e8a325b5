//! The end-to-end analysis pipeline: trace → bursts → clusters → folded
//! profiles → piece-wise linear fits → phases with metrics and source
//! attribution.
//!
//! The pipeline is fault-tolerant: degenerate folds, NaN-poisoned
//! counters, diverging fits and panicking tasks are *quarantined* —
//! recorded in [`Analysis::faults`] with kind + provenance — while every
//! healthy counter and fold still produces its model, bit-identical to a
//! clean run. [`try_analyze_trace`] layers the caller's [`FaultPolicy`] on
//! top: `Strict` turns the first `Error`-severity fault into an `Err`,
//! `Lenient` (the default) ships the partial result plus the report.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::config::AnalysisConfig;
use crate::metrics::PhaseMetrics;
use crate::phase::{ClusterPhaseModel, Phase};
use crate::srcmap::{attribute_span, span_histogram};
use phasefold_cluster::{cluster_bursts, Clustering};
use phasefold_folding::{fold_trace, ClusterFold};
use phasefold_model::{
    extract_bursts_checked, CounterKind, CounterSet, Fault, FaultKind, FaultPolicy, FaultReport,
    Severity, Trace, NUM_COUNTERS,
};
use phasefold_obs::Level;
use phasefold_regress::hinge::fit_hinge_monotone;
use phasefold_regress::{fit_pwlr, FitError, PwlrFit};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

/// The result of analysing one trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Structure detection outcome.
    pub clustering: Clustering,
    /// Total bursts analysed (after the minimum-duration filter).
    pub num_bursts: usize,
    /// One phase model per foldable cluster, ordered by descending total
    /// time (the most important cluster first).
    pub models: Vec<ClusterPhaseModel>,
    /// Everything that was quarantined on the way: degenerate folds,
    /// NaN-poisoned counters, diverging fits, isolated task panics. Empty
    /// on a clean run; deterministic (fold order, then counter order).
    pub faults: FaultReport,
}

impl Analysis {
    /// The model of the cluster the application spends most time in.
    pub fn dominant_model(&self) -> Option<&ClusterPhaseModel> {
        self.models.first()
    }

    /// Total phases across all models.
    pub fn total_phases(&self) -> usize {
        self.models.iter().map(|m| m.phases.len()).sum()
    }
}

/// Runs the full analysis over a trace.
pub fn analyze_trace(trace: &Trace, config: &AnalysisConfig) -> Analysis {
    let _sp = phasefold_obs::span!("pipeline.analyze_trace");
    let mut extraction_faults = FaultReport::new();
    let bursts = {
        let _sp = phasefold_obs::span!("pipeline.extract_bursts");
        extract_bursts_checked(trace, config.min_burst_duration, &mut extraction_faults)
    };
    phasefold_obs::gauge!("pipeline.bursts", bursts.len());
    phasefold_obs::log!(Level::Info, "analyze: {} bursts extracted", bursts.len());
    let clustering = {
        let _sp = phasefold_obs::span!("pipeline.cluster_bursts");
        cluster_bursts(&bursts, &config.cluster)
    };
    phasefold_obs::log!(
        Level::Info,
        "analyze: {} clusters at eps {:.4}",
        clustering.num_clusters,
        clustering.eps
    );
    let folds = {
        let _sp = phasefold_obs::span!("pipeline.fold_trace");
        fold_trace(trace, &bursts, &clustering, &config.fold)
    };
    phasefold_obs::gauge!("pipeline.folds", folds.len());
    let (mut models, model_faults) = {
        let _sp = phasefold_obs::span!("pipeline.build_models");
        build_models(&folds, config)
    };
    // Extraction-time quarantines come first: they happened first.
    let mut faults = extraction_faults;
    faults.extend(model_faults);
    sort_models_by_total_time(&mut models);
    phasefold_obs::gauge!("pipeline.models", models.len());
    phasefold_obs::gauge!("pipeline.faults", faults.len());
    phasefold_obs::log!(
        Level::Info,
        "analyze: {} models built, {} faults quarantined",
        models.len(),
        faults.len()
    );
    Analysis { clustering, num_bursts: bursts.len(), models, faults }
}

/// Runs the full analysis honouring `config.fault_policy`.
///
/// Under [`FaultPolicy::Lenient`] this always returns `Ok`: offending
/// counters/folds are quarantined and listed in [`Analysis::faults`].
/// Under [`FaultPolicy::Strict`] the first fault of `Error` severity or
/// worse (in the report's deterministic order) aborts the analysis and is
/// returned as the error; `Warning`-severity faults never abort.
pub fn try_analyze_trace(trace: &Trace, config: &AnalysisConfig) -> Result<Analysis, Fault> {
    let analysis = analyze_trace(trace, config);
    match config.fault_policy {
        FaultPolicy::Lenient => Ok(analysis),
        FaultPolicy::Strict => match analysis.faults.first_error() {
            Some(fault) => Err(fault.clone()),
            None => Ok(analysis),
        },
    }
}

/// Sorts models by descending total time. `f64::total_cmp` keeps the sort
/// well-defined on NaN durations (degenerate traces) instead of panicking;
/// NaN models sink to the end so [`Analysis::dominant_model`] stays
/// meaningful.
pub(crate) fn sort_models_by_total_time(models: &mut [ClusterPhaseModel]) {
    models.sort_by(|a, b| {
        let (ta, tb) = (a.total_time_s(), b.total_time_s());
        match (ta.is_nan(), tb.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
            (false, false) => tb.total_cmp(&ta),
        }
    });
}

/// Renders a `catch_unwind` payload to text: `&str`/`String` payloads
/// pass through, anything else becomes a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Converts an isolated panic into its `TaskPanicked` fault.
fn panic_fault(cluster: usize, stage: &str, message: &str) -> Fault {
    Fault::new(FaultKind::TaskPanicked, format!("{stage} panicked: {message}"))
        .in_cluster(cluster)
}

/// Builds one model per foldable cluster (in fold order, gaps removed),
/// together with every fault quarantined on the way.
///
/// The unit of work is the fold: [`build_model_checked`] fits its
/// structure, refits every counter on those breakpoints and assembles the
/// model, isolating each stage's panics, so the fault report follows fold
/// order. The folds are built one after another on the calling thread;
/// `config.threads` is not consulted.
fn build_models(
    folds: &[ClusterFold],
    config: &AnalysisConfig,
) -> (Vec<ClusterPhaseModel>, FaultReport) {
    let mut report = FaultReport::new();
    let models = folds
        .iter()
        .filter_map(|fold| build_model_checked(fold, config, &mut report.faults))
        .collect();
    (models, report)
}

/// Stage-1 output: the instruction-profile fit that defines the phase
/// structure, parked between the structural and assembly stages.
struct FoldStructure {
    /// The (possibly NaN-filtered) x/y data the structure was fitted on,
    /// with the instance id of each point, kept only when a bootstrap is
    /// configured — it is the sole consumer, and the profile itself
    /// already owns the unfiltered arrays.
    data: Option<(Vec<f64>, Vec<f64>, Vec<u64>)>,
    fit: PwlrFit,
    breakpoints: Vec<f64>,
}

/// Stage 1: fit the instruction profile (the expensive free-order PWLR).
///
/// `None` quarantines the whole fold; the reason (if it is a defect rather
/// than mere sparsity below the configured minimum on a healthy profile)
/// lands in `faults`.
fn fit_structure(
    fold: &ClusterFold,
    config: &AnalysisConfig,
    faults: &mut Vec<Fault>,
) -> Option<FoldStructure> {
    let _sp = phasefold_obs::span!("pipeline.fit_structure #c{}", fold.cluster);
    let instr = fold.profile(CounterKind::Instructions);
    if instr.is_empty() {
        faults.push(
            Fault::new(FaultKind::DegenerateFold, "cluster folded to zero samples")
                .in_cluster(fold.cluster)
                .on_counter(CounterKind::Instructions),
        );
        return None;
    }
    if instr.len() < config.min_folded_points {
        phasefold_obs::log!(
            Level::Debug,
            "cluster {}: {} folded points < {} minimum, skipped",
            fold.cluster,
            instr.len(),
            config.min_folded_points
        );
        faults.push(
            Fault::new(
                FaultKind::DegenerateFold,
                format!(
                    "only {} folded points, below the {} minimum",
                    instr.len(),
                    config.min_folded_points
                ),
            )
            .severity(Severity::Warning)
            .in_cluster(fold.cluster)
            .on_counter(CounterKind::Instructions),
        );
        return None;
    }
    // Point-level quarantine: non-finite samples are reported and removed,
    // and the structure is fitted on the healthy majority. Only when too
    // few finite points survive is the whole fold given up.
    let bad = instr.nonfinite_points();
    let filtered;
    let instr = if bad > 0 {
        faults.push(
            Fault::new(
                FaultKind::NanSamples,
                format!(
                    "{bad} of {} folded instruction points are not finite; \
                     fitting the finite remainder",
                    instr.len()
                ),
            )
            .in_cluster(fold.cluster)
            .on_counter(CounterKind::Instructions),
        );
        filtered = instr.finite_subset();
        if filtered.len() < config.min_folded_points {
            faults.push(
                Fault::new(
                    FaultKind::DegenerateFold,
                    format!(
                        "only {} finite folded points remain, below the {} minimum",
                        filtered.len(),
                        config.min_folded_points
                    ),
                )
                .in_cluster(fold.cluster)
                .on_counter(CounterKind::Instructions),
            );
            return None;
        }
        &filtered
    } else {
        instr
    };
    // SoA payoff: the profile hands out its x/y storage as borrowed slices;
    // the structural fit streams them with no gather and no copy.
    let (xs, ys) = instr.xy();
    let fit: PwlrFit = match fit_pwlr(xs, ys, None, &config.pwlr) {
        Ok(fit) => fit,
        Err(e) => {
            let kind = match e {
                FitError::NonFinite => FaultKind::NanSamples,
                _ => FaultKind::FitDiverged,
            };
            faults.push(
                Fault::new(kind, "structural piece-wise linear fit failed")
                    .in_cluster(fold.cluster)
                    .on_counter(CounterKind::Instructions)
                    .caused_by(format!("{e:?}")),
            );
            return None;
        }
    };
    let breakpoints = fit.breakpoints().to_vec();
    phasefold_obs::log!(
        Level::Debug,
        "cluster {}: structural fit with {} segments (r2 {:.4})",
        fold.cluster,
        fit.num_segments(),
        fit.fit.r2
    );
    // Only the bootstrap re-reads the fitted data; skip the copy otherwise.
    let data = config.bootstrap.as_ref().map(|_| (xs.to_vec(), ys.to_vec(), instr.instance_ids()));
    Some(FoldStructure { data, fit, breakpoints })
}

/// Stage 2: re-fit one non-instruction counter with the instruction
/// breakpoints held fixed — the structure is shared, only the per-phase
/// rates differ by counter.
///
/// Quarantined counters (NaN-poisoned profiles, diverging refits) come
/// back as all-zero slopes with a fault recorded; sparse profiles below
/// the folding minimum stay silently zero — that is expected multiplexing
/// behaviour, not a defect.
fn refit_counter(
    fold: &ClusterFold,
    kind: CounterKind,
    breakpoints: &[f64],
    num_segments: usize,
    config: &AnalysisConfig,
    faults: &mut Vec<Fault>,
) -> Vec<f64> {
    let _sp = phasefold_obs::span!("pipeline.refit_counter #c{} {}", fold.cluster, kind);
    let profile = fold.profile(kind);
    if profile.len() < config.min_folded_points {
        return vec![0.0; num_segments];
    }
    // Same point-level quarantine as the structural fit: report the
    // non-finite samples, refit on the finite remainder, and only zero the
    // counter when nothing usable is left (or the rescaling total itself
    // is poisoned — there is no physical rate without it).
    let bad = profile.nonfinite_points();
    let filtered;
    let profile = if bad > 0 || !profile.mean_total.is_finite() {
        faults.push(
            Fault::new(
                FaultKind::NanSamples,
                format!(
                    "{bad} of {} folded points are not finite (mean total {})",
                    profile.len(),
                    profile.mean_total
                ),
            )
            .in_cluster(fold.cluster)
            .on_counter(kind),
        );
        if !profile.mean_total.is_finite() {
            return vec![0.0; num_segments];
        }
        filtered = profile.finite_subset();
        if filtered.len() < config.min_folded_points {
            return vec![0.0; num_segments];
        }
        &filtered
    } else {
        profile
    };
    if profile.mean_total <= 0.0 {
        return vec![0.0; num_segments];
    }
    let (cxs, cys) = profile.xy();
    match fit_hinge_monotone(cxs, cys, None, breakpoints, 0.0, 1.0) {
        Ok(h) => h.slopes,
        Err(e) => {
            faults.push(
                Fault::new(FaultKind::FitDiverged, "fixed-breakpoint counter refit failed")
                    .in_cluster(fold.cluster)
                    .on_counter(kind)
                    .caused_by(format!("{e:?}")),
            );
            vec![0.0; num_segments]
        }
    }
}

/// Fits one cluster's folded profiles into a phase model, with each
/// stage's panics isolated and every quarantine recorded in `faults` in
/// (structure, counters-by-index, assembly) order.
pub(crate) fn build_model_checked(
    fold: &ClusterFold,
    config: &AnalysisConfig,
    faults: &mut Vec<Fault>,
) -> Option<ClusterPhaseModel> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut local = Vec::new();
        let structure = fit_structure(fold, config, &mut local);
        (structure, local)
    }));
    let structure = match outcome {
        Ok((structure, local)) => {
            faults.extend(local);
            structure?
        }
        Err(payload) => {
            faults.push(panic_fault(
                fold.cluster,
                "structural fit",
                &panic_message(&*payload),
            ));
            return None;
        }
    };
    let num_segments = structure.fit.num_segments();
    let mut per_counter_slopes: Vec<Vec<f64>> = vec![Vec::new(); NUM_COUNTERS];
    for kind in CounterKind::ALL {
        per_counter_slopes[kind.index()] = if kind == CounterKind::Instructions {
            structure.fit.slopes().to_vec()
        } else {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut local = Vec::new();
                let slopes = refit_counter(
                    fold,
                    kind,
                    &structure.breakpoints,
                    num_segments,
                    config,
                    &mut local,
                );
                (slopes, local)
            }));
            match outcome {
                Ok((slopes, local)) => {
                    faults.extend(local);
                    slopes
                }
                Err(payload) => {
                    faults.push(
                        panic_fault(
                            fold.cluster,
                            "counter refit",
                            &panic_message(&*payload),
                        )
                        .on_counter(kind),
                    );
                    vec![0.0; num_segments]
                }
            }
        };
    }
    match panic::catch_unwind(AssertUnwindSafe(|| {
        assemble_model(fold, structure, per_counter_slopes, config)
    })) {
        Ok(model) => Some(model),
        Err(payload) => {
            faults.push(panic_fault(
                fold.cluster,
                "model assembly",
                &panic_message(&*payload),
            ));
            None
        }
    }
}

/// Stage 3: spans, rates, source attribution, and the optional bootstrap.
fn assemble_model(
    fold: &ClusterFold,
    structure: FoldStructure,
    per_counter_slopes: Vec<Vec<f64>>,
    config: &AnalysisConfig,
) -> ClusterPhaseModel {
    let _sp = phasefold_obs::span!("pipeline.assemble_model #c{}", fold.cluster);
    let FoldStructure { data, fit, breakpoints: _ } = structure;
    let spans = fit.fit.segment_spans();
    let mut phases = Vec::with_capacity(spans.len());
    for (i, (x0, x1)) in spans.into_iter().enumerate() {
        let mut rates = CounterSet::ZERO;
        for kind in CounterKind::ALL {
            let slope = per_counter_slopes[kind.index()][i];
            rates[kind] = fold.slope_to_rate(kind, slope).max(0.0);
        }
        let metrics = PhaseMetrics::from_rates(&rates);
        let source = attribute_span(&fold.stacks, x0, x1);
        let source_histogram = span_histogram(&fold.stacks, x0, x1);
        phases.push(Phase {
            index: i,
            x0,
            x1,
            duration_s: (x1 - x0) * fold.mean_duration_s,
            rates,
            metrics,
            source,
            source_histogram,
        });
    }

    // Optional instance-level bootstrap on the structural (instruction)
    // profile.
    let bootstrap = config.bootstrap.as_ref().zip(data.as_ref()).and_then(|(bcfg, (xs, ys, ids))| {
        phasefold_regress::bootstrap_pwlr(
            xs,
            ys,
            ids,
            &config.pwlr,
            fit.num_segments(),
            bcfg,
        )
    });

    ClusterPhaseModel {
        cluster: fold.cluster,
        instances: fold.instances_used,
        instances_pruned: fold.instances_pruned,
        folded_samples: fold.samples,
        mean_duration_s: fold.mean_duration_s,
        phases,
        fit,
        bootstrap,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use phasefold_simapp::workloads::synthetic::{build, true_boundaries, SyntheticParams};
    use phasefold_simapp::{simulate, SimConfig};
    use phasefold_tracer::{trace_run, OverheadConfig, TracerConfig};

    fn analyzed(iterations: u64, ranks: usize) -> (Analysis, SyntheticParams) {
        let params = SyntheticParams { iterations, ..SyntheticParams::default() };
        let program = build(&params);
        let out = simulate(&program, &SimConfig { ranks, ..SimConfig::default() });
        let tracer = TracerConfig { overhead: OverheadConfig::FREE, ..TracerConfig::default() };
        let trace = trace_run(&program.registry, &out.timelines, &tracer);
        (analyze_trace(&trace, &AnalysisConfig::default()), params)
    }

    #[test]
    fn recovers_synthetic_three_phase_structure() {
        let (analysis, params) = analyzed(400, 4);
        assert_eq!(analysis.models.len(), 1);
        let model = analysis.dominant_model().unwrap();
        assert_eq!(model.phases.len(), 3, "fit: {:?}", model.fit.candidates);
        let truth = true_boundaries(&params);
        for (got, want) in model.breakpoints().iter().zip(&truth) {
            assert!((got - want).abs() < 0.03, "breakpoint {got} vs {want}");
        }
        assert!(model.r2() > 0.99, "r2 = {}", model.r2());
    }

    #[test]
    fn phase_rates_match_configured_ipc() {
        let (analysis, _params) = analyzed(400, 4);
        let model = analysis.dominant_model().unwrap();
        // Phase IPCs were configured as 2.4 / 0.6 / 1.5.
        let expect = [2.4, 0.6, 1.5];
        for (phase, want) in model.phases.iter().zip(&expect) {
            assert!(
                (phase.metrics.ipc - want).abs() < 0.15 * want,
                "phase {} ipc {} vs {}",
                phase.index,
                phase.metrics.ipc,
                want
            );
        }
    }

    #[test]
    fn phases_are_source_attributed() {
        let (analysis, _) = analyzed(400, 4);
        let model = analysis.dominant_model().unwrap();
        for (i, phase) in model.phases.iter().enumerate() {
            let src = phase.source.as_ref().unwrap_or_else(|| panic!("phase {i} unattributed"));
            assert!(src.confidence > 0.7, "phase {i} confidence {}", src.confidence);
        }
        // Distinct phases attribute to distinct kernels.
        let regions: Vec<_> = model
            .phases
            .iter()
            .map(|p| p.source.as_ref().unwrap().region)
            .collect();
        assert_ne!(regions[0], regions[1]);
        assert_ne!(regions[1], regions[2]);
    }

    #[test]
    fn phase_durations_sum_to_burst() {
        let (analysis, _) = analyzed(300, 2);
        let model = analysis.dominant_model().unwrap();
        let sum: f64 = model.phases.iter().map(|p| p.duration_s).sum();
        assert!((sum - model.mean_duration_s).abs() < 1e-9 * model.mean_duration_s);
    }

    #[test]
    fn too_little_data_yields_no_models() {
        let (analysis, _) = analyzed(5, 1);
        assert!(analysis.models.is_empty());
        assert!(analysis.total_phases() == 0);
    }

    #[test]
    fn deterministic() {
        let (a, _) = analyzed(100, 2);
        let (b, _) = analyzed(100, 2);
        assert_eq!(a.models.len(), b.models.len());
        for (ma, mb) in a.models.iter().zip(&b.models) {
            assert_eq!(ma.breakpoints(), mb.breakpoints());
        }
    }

    /// A 4-rank amg trace (seven clusters, three of them too sparse to
    /// fit) and the same trace with `phasefold_chaos` NaN-corrupting the
    /// samples of one kernel, parsed leniently.
    fn amg_clean_and_with_one_corrupted_kernel() -> (Trace, Trace) {
        use phasefold_chaos::{corrupt_trace_text, ChaosConfig};
        use phasefold_simapp::workloads::amg::{build as build_amg, AmgParams};
        let program = build_amg(&AmgParams::default());
        let out = simulate(&program, &SimConfig { ranks: 4, ..SimConfig::default() });
        let trace = trace_run(&program.registry, &out.timelines, &TracerConfig::default());
        let text = phasefold_model::prv::write_trace(&trace);
        let (victim, _) = trace
            .registry
            .iter()
            .find(|(_, r)| r.name == "vcycle/smooth_l1")
            .expect("amg has a level-1 smoother");
        let leaf = format!(";{}@", victim.0);
        let hit = |line: &str| line.starts_with("S ") && line.contains(&leaf);
        let victim_lines: String =
            text.lines().filter(|l| hit(l)).map(|l| format!("{l}\n")).collect();
        let chaos = ChaosConfig { nan: 0.3, ..ChaosConfig::clean(11) };
        let (corrupted, stats) = corrupt_trace_text(&victim_lines, &chaos);
        assert!(stats.nan_injected > 0, "{stats:?}");
        let mut corrupted = corrupted.lines();
        let text: String = text
            .lines()
            .map(|l| if hit(l) { corrupted.next().expect("one line per line") } else { l })
            .map(|l| format!("{l}\n"))
            .collect();
        (trace, phasefold_model::prv::parse_trace_lenient(&text).expect("readable").0)
    }

    #[test]
    fn a_corrupted_fold_leaves_the_other_folds_untouched() {
        // The corruption quarantines counters of one fold (error faults);
        // every other fold's model equals the clean run's bit for bit, and
        // the degenerate folds report the same warnings in fold order.
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // text is equal bits.
        let (clean, corrupted) = amg_clean_and_with_one_corrupted_kernel();
        let clean = analyze_trace(&clean, &AnalysisConfig::default());
        let dirty = analyze_trace(&corrupted, &AnalysisConfig::default());
        assert!(clean.clustering.num_clusters >= 3 && clean.models.len() >= 2);
        assert_eq!(clean.clustering.labels, dirty.clustering.labels);
        let mut victims: Vec<_> = dirty
            .faults
            .faults
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .filter_map(|f| f.provenance.cluster)
            .collect();
        victims.dedup();
        assert_eq!(victims.len(), 1, "{:?}", dirty.faults);
        let others = |a: &Analysis| {
            let models: Vec<_> = a.models.iter().filter(|m| m.cluster != victims[0]).collect();
            let warnings: Vec<_> =
                a.faults.faults.iter().filter(|f| f.severity == Severity::Warning).collect();
            format!("{models:?} {warnings:?}")
        };
        assert!(clean.faults.faults.iter().all(|f| f.severity == Severity::Warning));
        assert!(!clean.faults.is_empty(), "the sparse folds report warnings");
        assert!(others(&clean) == others(&dirty), "an untouched fold changed");
    }

    #[test]
    fn bootstrap_keeps_folds_whose_instruction_profile_had_nan_points() {
        // The structural fit drops the NaN points; the bootstrap must
        // resample the same filtered points with their own instance ids.
        let (_, corrupted) = amg_clean_and_with_one_corrupted_kernel();
        let plain = analyze_trace(&corrupted, &AnalysisConfig::default());
        assert!(
            plain.faults.faults.iter().any(|f| f.kind == FaultKind::NanSamples
                && f.provenance.counter == Some(CounterKind::Instructions)),
            "the corruption must reach the instruction profile: {:?}",
            plain.faults
        );
        let cfg = AnalysisConfig {
            bootstrap: Some(phasefold_regress::BootstrapConfig {
                replicates: 20,
                ..Default::default()
            }),
            ..AnalysisConfig::default()
        };
        let boot = analyze_trace(&corrupted, &cfg);
        assert!(
            boot.faults.faults.iter().all(|f| f.kind != FaultKind::TaskPanicked),
            "{:?}",
            boot.faults
        );
        let clusters = |a: &Analysis| a.models.iter().map(|m| m.cluster).collect::<Vec<_>>();
        assert_eq!(clusters(&boot), clusters(&plain));
        assert!(boot.models.iter().all(|m| m.bootstrap.is_some()));
    }

    #[test]
    fn panic_message_renders_any_payload() {
        let message = |payload: Box<dyn Any + Send>| panic_message(&*payload);
        assert_eq!(message(Box::new("static str")), "static str");
        assert_eq!(message(Box::new(String::from("owned"))), "owned");
        assert_eq!(message(Box::new(42_u32)), "<non-string panic payload>");
    }

    #[test]
    fn nan_total_time_sorts_last_without_panicking() {
        use crate::metrics::PhaseMetrics;
        use phasefold_regress::hinge::HingeFit;
        let model = |cluster: usize, mean_duration_s: f64| ClusterPhaseModel {
            cluster,
            instances: 10,
            instances_pruned: 0,
            folded_samples: 50,
            mean_duration_s,
            phases: vec![Phase {
                index: 0,
                x0: 0.0,
                x1: 1.0,
                duration_s: mean_duration_s,
                rates: CounterSet::ZERO,
                metrics: PhaseMetrics::from_rates(&CounterSet::ZERO),
                source: None,
                source_histogram: Vec::new(),
            }],
            fit: PwlrFit {
                fit: HingeFit {
                    lo: 0.0,
                    hi: 1.0,
                    breakpoints: Vec::new(),
                    intercept: 0.0,
                    slopes: vec![1.0],
                    sse: 0.0,
                    r2: 1.0,
                    n: 50,
                },
                score: 0.0,
                candidates: Vec::new(),
            },
            bootstrap: None,
        };
        let mut models =
            vec![model(0, 2e-3), model(1, f64::NAN), model(2, 5e-3), model(3, f64::NAN)];
        sort_models_by_total_time(&mut models);
        // Finite totals descending, NaN models deterministically last.
        assert_eq!(models[0].cluster, 2);
        assert_eq!(models[1].cluster, 0);
        assert!(models[2].total_time_s().is_nan());
        assert!(models[3].total_time_s().is_nan());
    }

    #[test]
    fn merged_identical_kernels_show_up_in_histogram() {
        // cg's axpy_x/axpy_r share a profile and merge into one phase; the
        // span histogram must still name both.
        use phasefold_simapp::workloads::cg::{build as build_cg, CgParams};
        let program = build_cg(&CgParams { iterations: 100, ..CgParams::default() });
        let out = phasefold_simapp::simulate(
            &program,
            &phasefold_simapp::SimConfig { ranks: 4, ..Default::default() },
        );
        let trace = trace_run(&program.registry, &out.timelines, &TracerConfig::default());
        let analysis = analyze_trace(&trace, &AnalysisConfig::default());
        let axpy_model = analysis
            .models
            .iter()
            .find(|m| {
                m.phases.iter().any(|p| {
                    p.source.as_ref().is_some_and(|s| {
                        trace.registry.name(s.region).contains("axpy")
                    })
                })
            })
            .expect("axpy cluster analysed");
        let merged = axpy_model
            .phases
            .iter()
            .find(|p| {
                p.source
                    .as_ref()
                    .is_some_and(|s| trace.registry.name(s.region).contains("axpy"))
            })
            .unwrap();
        let names: Vec<&str> = merged
            .source_histogram
            .iter()
            .map(|(r, _)| trace.registry.name(*r))
            .collect();
        assert!(
            names.contains(&"cg_solve/axpy_x") && names.contains(&"cg_solve/axpy_r"),
            "histogram {names:?}"
        );
        let share_sum: f64 = merged.source_histogram.iter().map(|(_, s)| s).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bootstrap_intervals_cover_detected_structure() {
        let params = SyntheticParams { iterations: 300, ..SyntheticParams::default() };
        let program = build(&params);
        let out = phasefold_simapp::simulate(
            &program,
            &phasefold_simapp::SimConfig { ranks: 4, ..Default::default() },
        );
        let tracer = TracerConfig { overhead: OverheadConfig::FREE, ..TracerConfig::default() };
        let trace = trace_run(&program.registry, &out.timelines, &tracer);
        let cfg = AnalysisConfig {
            bootstrap: Some(phasefold_regress::BootstrapConfig {
                replicates: 40,
                ..Default::default()
            }),
            ..AnalysisConfig::default()
        };
        let analysis = analyze_trace(&trace, &cfg);
        let model = analysis.dominant_model().expect("model");
        let boot = model.bootstrap.as_ref().expect("bootstrap ran");
        assert_eq!(boot.breakpoints.len(), model.breakpoints().len());
        assert_eq!(boot.slopes.len(), model.phases.len());
        for (bp, ci) in model.breakpoints().iter().zip(&boot.breakpoints) {
            assert!(ci.contains(*bp), "breakpoint {bp} outside {ci:?}");
            assert!(ci.width() < 0.1, "CI too wide: {ci:?}");
        }
        assert!(boot.order_stability > 0.7, "{}", boot.order_stability);
    }
}

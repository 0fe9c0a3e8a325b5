//! Robustness: the analysis must degrade gracefully — never panic — on
//! degenerate or adversarial traces (no communication, samples only,
//! unbalanced markers, single burst, zero-duration artifacts), and on
//! corrupted inputs the fault policy decides: `Lenient` quarantines the
//! damage into the analysis' `FaultReport` and keeps going, `Strict`
//! surfaces the first typed error.

use phasefold::{analyze_trace, try_analyze_trace, AnalysisConfig};
use phasefold_model::{
    prv, CallStack, CommKind, CounterKind, CounterSet, FaultKind, FaultPolicy, PartialCounterSet,
    RankId, Record, Sample, SourceRegistry, TimeNs, Trace,
};

fn counters(ins: f64) -> CounterSet {
    let mut c = CounterSet::ZERO;
    c[CounterKind::Instructions] = ins;
    c[CounterKind::Cycles] = ins * 2.0;
    c
}

fn sample(t: u64, ins: f64) -> Record {
    Record::Sample(Sample {
        time: TimeNs(t),
        counters: PartialCounterSet::from_full(&counters(ins)),
        callstack: CallStack::empty().into(),
    })
}

#[test]
fn empty_trace() {
    let trace = Trace::default();
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    assert_eq!(analysis.num_bursts, 0);
    assert!(analysis.models.is_empty());
}

#[test]
fn samples_only_no_communication() {
    let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
    let stream = trace.rank_mut(RankId(0)).unwrap();
    for i in 0..100u64 {
        stream.push(sample(i * 1_000_000, i as f64 * 1000.0)).unwrap();
    }
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    // No boundaries -> no bursts -> no models, but no panic either.
    assert_eq!(analysis.num_bursts, 0);
    assert!(analysis.models.is_empty());
}

#[test]
fn single_burst_is_not_enough_to_fold() {
    let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
    let stream = trace.rank_mut(RankId(0)).unwrap();
    stream
        .push(Record::CommExit { time: TimeNs(0), kind: CommKind::Wait, counters: counters(0.0) })
        .unwrap();
    stream.push(sample(500_000, 500.0)).unwrap();
    stream
        .push(Record::CommEnter {
            time: TimeNs(1_000_000),
            kind: CommKind::Wait,
            counters: counters(1000.0),
        })
        .unwrap();
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    assert_eq!(analysis.num_bursts, 1);
    assert!(analysis.models.is_empty());
}

#[test]
fn unbalanced_region_markers_are_tolerated() {
    let mut registry = SourceRegistry::new();
    let r0 = registry.intern("f", phasefold_model::RegionKind::Function, "f.c", 1);
    let mut trace = Trace::with_ranks(registry, 1);
    let stream = trace.rank_mut(RankId(0)).unwrap();
    // Exit without enter, then enter without exit, wrapped around bursts.
    stream
        .push(Record::RegionExit { time: TimeNs(0), region: r0 })
        .unwrap();
    for i in 0..40u64 {
        let t0 = 1_000_000 * (2 * i + 1);
        let t1 = 1_000_000 * (2 * i + 2);
        stream
            .push(Record::CommExit {
                time: TimeNs(t0),
                kind: CommKind::Collective,
                counters: counters(i as f64 * 1000.0),
            })
            .unwrap();
        stream.push(sample(t0 + 500_000, i as f64 * 1000.0 + 500.0)).unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(t1),
                kind: CommKind::Collective,
                counters: counters((i + 1) as f64 * 1000.0),
            })
            .unwrap();
    }
    stream
        .push(Record::RegionEnter { time: TimeNs(200_000_000), region: r0 })
        .unwrap();
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    assert_eq!(analysis.num_bursts, 40);
    // Identical 1 ms bursts with linear counters: one cluster, one phase.
    assert_eq!(analysis.models.len(), 1);
    assert_eq!(analysis.models[0].phases.len(), 1);
}

#[test]
fn counters_frozen_at_boundaries_yield_no_model_but_no_panic() {
    // Bursts whose counter totals are all zero (e.g. counters unavailable).
    let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
    let stream = trace.rank_mut(RankId(0)).unwrap();
    for i in 0..30u64 {
        let t0 = 1_000_000 * (2 * i);
        let t1 = 1_000_000 * (2 * i + 1);
        stream
            .push(Record::CommExit {
                time: TimeNs(t0),
                kind: CommKind::Collective,
                counters: CounterSet::ZERO,
            })
            .unwrap();
        stream
            .push(Record::Sample(Sample {
                time: TimeNs(t0 + 500_000),
                counters: PartialCounterSet::from_full(&CounterSet::ZERO),
                callstack: CallStack::empty().into(),
            }))
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(t1),
                kind: CommKind::Collective,
                counters: CounterSet::ZERO,
            })
            .unwrap();
    }
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    // Zero totals mean no foldable points -> no models.
    assert!(analysis.models.is_empty());
    assert_eq!(analysis.num_bursts, 30);
}

// ---------------------------------------------------------------------------
// Corrupted inputs and the fault policy
// ---------------------------------------------------------------------------

/// A realistic multi-phase trace in text form, the substrate the
/// corruption tests damage in controlled ways.
fn workload_text() -> String {
    use phasefold_simapp::workloads::synthetic::{build, SyntheticParams};
    let program = build(&SyntheticParams { iterations: 120, ..SyntheticParams::default() });
    let sim = phasefold_simapp::simulate(
        &program,
        &phasefold_simapp::SimConfig { ranks: 2, ..phasefold_simapp::SimConfig::default() },
    );
    let trace = phasefold_tracer::trace_run(
        &program.registry,
        &sim.timelines,
        &phasefold_tracer::TracerConfig::default(),
    );
    prv::write_trace(&trace)
}

/// Line index (0-based) of the `n`-th body line satisfying `pred`.
fn nth_body_line(text: &str, n: usize, pred: impl Fn(&str) -> bool) -> usize {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.starts_with('#') && pred(l))
        .map(|(i, _)| i)
        .nth(n)
        .expect("trace has enough matching body lines")
}

#[test]
fn truncated_line_lenient_partial_strict_error() {
    let text = workload_text();
    let idx = nth_body_line(&text, 3, |l| l.starts_with("S "));
    let mut lines: Vec<&str> = text.lines().collect();
    lines[idx] = "S 0"; // record cut mid-flush
    let corrupted = lines.join("\n");

    // Strict parsing rejects the trace at exactly that line.
    let err = prv::parse_trace(&corrupted).unwrap_err();
    assert!(matches!(err, phasefold_model::ModelError::Parse { line, .. } if line == idx + 1));

    // Lenient parsing quarantines the one record and the rest analyses.
    let (trace, report) = prv::parse_trace_lenient(&corrupted).unwrap();
    assert_eq!(report.len(), 1);
    let fault = &report.faults[0];
    assert_eq!(fault.kind, FaultKind::MalformedTrace);
    assert_eq!(fault.provenance.line, Some(idx + 1));
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    assert!(!analysis.models.is_empty(), "one lost sample must not kill the analysis");
}

#[test]
fn reversed_timestamps_are_quarantined_as_non_monotonic() {
    let text = workload_text();
    // Swap the timestamps of two consecutive rank-0 samples.
    let a = nth_body_line(&text, 5, |l| l.starts_with("S 0 "));
    let b = nth_body_line(&text, 6, |l| l.starts_with("S 0 "));
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut fa: Vec<String> = lines[a].split_whitespace().map(str::to_string).collect();
    let mut fb: Vec<String> = lines[b].split_whitespace().map(str::to_string).collect();
    std::mem::swap(&mut fa[2], &mut fb[2]);
    lines[a] = fa.join(" ");
    lines[b] = fb.join(" ");
    let corrupted = lines.join("\n");

    let err = prv::parse_trace(&corrupted).unwrap_err();
    assert!(matches!(err, phasefold_model::ModelError::OutOfOrder { .. }));

    let (trace, report) = prv::parse_trace_lenient(&corrupted).unwrap();
    assert!(
        report.of_kind(FaultKind::NonMonotonicTime).count() >= 1,
        "reversed timestamps must be reported: {}",
        report.render()
    );
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    assert!(!analysis.models.is_empty());
}

/// The acceptance-criteria golden test: poisoning every sampled Cycles
/// value must leave every *other* counter's result bit-identical to the
/// clean run, zero the Cycles rates, and name the quarantined counter.
#[test]
fn all_nan_cycles_counter_is_quarantined_others_bit_identical() {
    let text = workload_text();
    // Rewrite only the sampled CYC values; comm boundaries, timestamps and
    // every other counter stay untouched, so clustering and folding see
    // the exact same structure.
    let corrupted: String = text
        .lines()
        .map(|l| {
            if !l.starts_with("S ") {
                return format!("{l}\n");
            }
            let out: String = l
                .split(' ')
                .map(|tok| {
                    if !tok.contains("CYC:") {
                        return tok.to_string();
                    }
                    tok.split(',')
                        .map(|pair| match pair.split_once(':') {
                            Some(("CYC", _)) => "CYC:NaN".to_string(),
                            _ => pair.to_string(),
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join(" ");
            format!("{out}\n")
        })
        .collect();
    assert_ne!(corrupted, text, "the workload must sample Cycles");

    let clean_trace = prv::parse_trace(&text).unwrap();
    let (bad_trace, parse_report) = prv::parse_trace_lenient(&corrupted).unwrap();
    assert!(parse_report.is_empty(), "NaN is a value defect, not a parse defect");

    let config = AnalysisConfig::default();
    let clean = analyze_trace(&clean_trace, &config);
    let dirty = analyze_trace(&bad_trace, &config);

    // The damage is named, with full provenance.
    let nan_faults: Vec<_> = dirty.faults.of_kind(FaultKind::NanSamples).collect();
    assert!(!nan_faults.is_empty(), "report:\n{}", dirty.faults.render());
    for f in &nan_faults {
        assert_eq!(f.provenance.counter, Some(CounterKind::Cycles));
        assert!(f.provenance.cluster.is_some());
    }

    // Clean counters are bit-identical; the poisoned one degrades to zero.
    assert_eq!(clean.models.len(), dirty.models.len());
    for (cm, dm) in clean.models.iter().zip(&dirty.models) {
        assert_eq!(cm.breakpoints(), dm.breakpoints(), "structure must not move");
        assert_eq!(cm.phases.len(), dm.phases.len());
        for (cp, dp) in cm.phases.iter().zip(&dm.phases) {
            for kind in CounterKind::ALL {
                if kind == CounterKind::Cycles {
                    assert_eq!(dp.rates[kind], 0.0, "poisoned counter must be zeroed");
                } else {
                    assert_eq!(
                        cp.rates[kind].to_bits(),
                        dp.rates[kind].to_bits(),
                        "cluster {} {kind:?} rate must be bit-identical",
                        cm.cluster
                    );
                }
            }
        }
    }

    // Strict mode refuses the same trace with the same typed fault.
    let strict = AnalysisConfig { fault_policy: FaultPolicy::Strict, ..AnalysisConfig::default() };
    let err = try_analyze_trace(&bad_trace, &strict).unwrap_err();
    assert_eq!(err.kind, FaultKind::NanSamples);
    assert_eq!(err.provenance.counter, Some(CounterKind::Cycles));
}

#[test]
fn zero_sample_fold_is_a_degenerate_fold_fault() {
    // Comm boundaries with healthy counter totals but no samples between
    // them: the bursts cluster, but the fold has nothing to fit.
    let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
    let stream = trace.rank_mut(RankId(0)).unwrap();
    for i in 0..30u64 {
        let t0 = 1_000_000 * (2 * i);
        let t1 = 1_000_000 * (2 * i + 1);
        stream
            .push(Record::CommExit {
                time: TimeNs(t0),
                kind: CommKind::Collective,
                counters: counters(i as f64 * 1000.0),
            })
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(t1),
                kind: CommKind::Collective,
                counters: counters((i + 1) as f64 * 1000.0),
            })
            .unwrap();
    }

    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    assert!(analysis.models.is_empty());
    let degenerate: Vec<_> = analysis.faults.of_kind(FaultKind::DegenerateFold).collect();
    assert!(!degenerate.is_empty(), "report:\n{}", analysis.faults.render());
    assert!(degenerate[0].provenance.cluster.is_some());
    assert!(degenerate[0].detail.contains("zero samples"), "{}", degenerate[0]);

    let strict = AnalysisConfig { fault_policy: FaultPolicy::Strict, ..AnalysisConfig::default() };
    let err = try_analyze_trace(&trace, &strict).unwrap_err();
    assert_eq!(err.kind, FaultKind::DegenerateFold);
}

#[test]
fn many_ranks_few_records_each() {
    let mut trace = Trace::with_ranks(SourceRegistry::new(), 64);
    for r in 0..64u32 {
        let stream = trace.rank_mut(RankId(r)).unwrap();
        stream
            .push(Record::CommExit {
                time: TimeNs(0),
                kind: CommKind::Collective,
                counters: counters(0.0),
            })
            .unwrap();
        stream.push(sample(500_000, 500.0)).unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(1_000_000),
                kind: CommKind::Collective,
                counters: counters(1000.0),
            })
            .unwrap();
    }
    let analysis = analyze_trace(&trace, &AnalysisConfig::default());
    // 64 identical bursts pooled across ranks fold fine.
    assert_eq!(analysis.num_bursts, 64);
    assert_eq!(analysis.models.len(), 1);
    assert_eq!(analysis.models[0].instances, 64);
}

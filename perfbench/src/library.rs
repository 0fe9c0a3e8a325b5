//! In-process analysis through the crates' public functions:
//! `prv::parse_trace_lenient` → `analyze_trace` → `report::render_report`.
//!
//! A traced pass times the public calls itself and reads the model-building
//! stages, which have no public entry point, from the spans and counters
//! the pipeline already records (`phasefold_obs::snapshot()`).

use crate::inputs::Input;
use crate::load::ms;
use crate::Outcome;
use phasefold::report::render_report;
use phasefold::{analyze_trace, AnalysisConfig};
use phasefold_model::prv;
use phasefold_obs::export::aggregate_spans;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers must account for at least this share of the wall time.
const MIN_COVERAGE: f64 = 0.9;

/// Per-layer sums over the traces of a traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traces analysed.
    pub traces: usize,
    /// Summed wall time of parse → analyze → render, ms.
    pub wall_ms: f64,
    /// Summed span time by name (ms), plus the benchmark's own
    /// `bench.parse` and `bench.render` timings.
    pub spans_ms: BTreeMap<String, f64>,
    /// Summed counters by name, plus `bench.bursts`.
    pub counts: BTreeMap<String, f64>,
}

impl Layers {
    /// Mean span time per trace, ms.
    pub fn span(&self, name: &str) -> f64 {
        self.spans_ms.get(name).copied().unwrap_or(0.0) / self.traces.max(1) as f64
    }

    /// Mean count per trace.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.traces.max(1) as f64
    }

    /// Share of the wall time the named, non-overlapping stages account
    /// for: parse, the five pipeline stages, render.
    pub fn coverage(&self) -> f64 {
        let stages = [
            "bench.parse",
            "pipeline.extract_bursts",
            "pipeline.cluster_bursts",
            "pipeline.fold_trace",
            "pipeline.build_models",
            "bench.render",
        ];
        let covered: f64 = stages.iter().map(|s| self.spans_ms.get(*s).copied().unwrap_or(0.0)).sum();
        covered / self.wall_ms.max(f64::MIN_POSITIVE)
    }
}

/// Outcome of analysing a run of traces.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-trace wall times, ms.
    pub latencies_ms: Vec<f64>,
    /// Records analysed.
    pub records: usize,
    /// Summed per-trace wall time.
    pub busy: Duration,
    /// Reports that differed from the expected one.
    pub mismatches: usize,
}

/// Parses, analyses and renders one trace; returns the report and wall time.
pub fn analyze_once(text: &str, config: &AnalysisConfig) -> (String, Duration) {
    let t0 = Instant::now();
    let (trace, _) = prv::parse_trace_lenient(text).expect("generated traces parse");
    let report = render_report(&analyze_trace(&trace, config), &trace.registry);
    (report, t0.elapsed())
}

/// [`analyze_once`] on a thread of its own. Clustering, most of `batch`'s
/// cost, runs on the calling thread, and a long-lived thread keeps to one
/// core: on a shared machine whose two cores differ in speed, a run's
/// figures hung on the core its one thread landed on. A fresh thread per
/// analysis lets the scheduler place each one anew.
fn analyze_on_new_thread(text: &str, config: &AnalysisConfig) -> (String, Duration) {
    std::thread::scope(|s| s.spawn(|| analyze_once(text, config)).join())
        .expect("analysing a generated trace does not panic")
}

/// Cycles through `inputs` until `budget` is spent, each analysis on a new
/// thread, checking each report against `expected`.
pub fn run_pass(inputs: &[Input], expected: &[String], config: &AnalysisConfig, budget: Duration) -> Pass {
    let mut pass = Pass::default();
    let deadline = Instant::now() + budget;
    let mut i = 0;
    while Instant::now() < deadline || pass.latencies_ms.is_empty() {
        let input = &inputs[i % inputs.len()];
        let (report, wall) = analyze_on_new_thread(&input.text, config);
        pass.latencies_ms.push(ms(wall));
        pass.busy += wall;
        pass.records += input.records;
        if report != expected[i % inputs.len()] {
            pass.mismatches += 1;
        }
        i += 1;
    }
    pass
}

fn traced_once(text: &str, config: &AnalysisConfig, layers: &mut Layers) -> (String, Duration) {
    phasefold_obs::set_enabled(true);
    phasefold_obs::reset();
    let t0 = Instant::now();
    let (trace, _) = prv::parse_trace_lenient(text).expect("generated traces parse");
    let t1 = Instant::now();
    let analysis = analyze_trace(&trace, config);
    let t2 = Instant::now();
    let report = render_report(&analysis, &trace.registry);
    let t3 = Instant::now();
    phasefold_obs::set_enabled(false);
    let snap = phasefold_obs::snapshot();
    layers.traces += 1;
    layers.wall_ms += ms(t3 - t0);
    let mut add = |name: &str, v: f64| *layers.spans_ms.entry(name.to_string()).or_default() += v;
    add("bench.parse", ms(t1 - t0));
    add("bench.analyze", ms(t2 - t1));
    add("bench.render", ms(t3 - t2));
    for (name, agg) in aggregate_spans(&snap.spans) {
        add(&name, agg.total_ns as f64 / 1e6);
    }
    for (name, v) in snap.counters {
        *layers.counts.entry(name).or_default() += v as f64;
    }
    *layers.counts.entry("bench.bursts".into()).or_default() += analysis.num_bursts as f64;
    (report, t3 - t0)
}

/// The traced in-process run: for `budget`, each input is analysed once
/// untraced and once traced, back to back, so the tracing overhead compares
/// the same inputs under the same machine conditions. Fills the `model` …
/// `core` layer metrics and returns the number of mismatched reports.
pub fn measure_layers(o: &mut Outcome, inputs: &[Input], expected: &[String], budget: Duration) -> usize {
    let config = AnalysisConfig::default();
    let mut l = Layers::default();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut records = 0;
    let mut mismatches = 0;
    let deadline = Instant::now() + budget;
    let mut i = 0;
    while Instant::now() < deadline || l.traces == 0 {
        let (input, want) = (&inputs[i % inputs.len()], &expected[i % inputs.len()]);
        let (a, t_plain) = analyze_once(&input.text, &config);
        let (b, t_traced) = traced_once(&input.text, &config, &mut l);
        plain += t_plain;
        traced += t_traced;
        records += input.records;
        mismatches += usize::from(&a != want) + usize::from(&b != want);
        o.attempted += 2;
        i += 1;
    }
    let overhead = 100.0 * (1.0 - plain.as_secs_f64() / traced.as_secs_f64());
    let (plain_rps, traced_rps) = (records as f64 / plain.as_secs_f64(), records as f64 / traced.as_secs_f64());

    o.set("model.parse_ms", l.span("bench.parse"));
    o.set("model.extract_bursts_ms", l.span("pipeline.extract_bursts"));
    o.set("model.bursts", l.count("bench.bursts"));
    o.set("cluster.cluster_bursts_ms", l.span("pipeline.cluster_bursts"));
    o.set("cluster.neighbors_scanned", l.count("dbscan.neighbors_scanned"));
    o.set("cluster.kdtree_nodes_visited", l.count("kdtree.nodes_visited"));
    o.set("folding.fold_trace_ms", l.span("pipeline.fold_trace"));
    o.set("folding.samples", l.count("folding.samples"));
    o.set("regress.build_models_ms", l.span("pipeline.build_models"));
    o.set("regress.fit_pwlr_ms", l.span("regress.fit_pwlr"));
    o.set("regress.segdp_cells_evaluated", l.count("segdp.cells_evaluated"));
    o.set("regress.muggeo_iters", l.count("regress.muggeo_iters"));
    o.set("core.render_ms", l.span("bench.render"));
    o.set("core.pool_tasks_scheduled", l.count("pool.tasks_scheduled"));
    o.set("core.coverage", l.coverage());
    o.set("core.tracing_overhead", overhead);

    let wall = l.wall_ms / l.traces.max(1) as f64;
    o.note(format!("in-process layers over {} traced analyses, {wall:.3} ms per trace:", l.traces));
    for (label, span) in [
        ("  model    parse", "bench.parse"),
        ("  model    extract_bursts", "pipeline.extract_bursts"),
        ("  cluster  cluster_bursts", "pipeline.cluster_bursts"),
        ("  folding  fold_trace", "pipeline.fold_trace"),
        ("  regress  build_models", "pipeline.build_models"),
        ("  regress    of which fit_pwlr", "regress.fit_pwlr"),
        ("  core     render", "bench.render"),
    ] {
        let v = l.span(span);
        o.note(format!("{label:<32} {v:>10.3} ms {:>6.1} %", 100.0 * v / wall.max(f64::MIN_POSITIVE)));
    }
    o.note(format!(
        "  coverage {:.3}; records/s traced {traced_rps:.0} - untraced {plain_rps:.0} = {:.0} ({:.2} %, {} pairs)",
        l.coverage(),
        traced_rps - plain_rps,
        -overhead,
        l.traces
    ));
    if l.coverage() < MIN_COVERAGE {
        o.invalid = Some(format!("layer coverage {:.3} < {MIN_COVERAGE}: the layers miss part of the wall time", l.coverage()));
    }
    mismatches
}

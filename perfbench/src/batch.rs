//! `batch`: the library in-process. Each distinct trace goes through
//! `prv::parse_trace_lenient` → `analyze_trace` (auto threads) →
//! `report::render_report`. The traces have many short bursts and coarse
//! sampling, so clustering dominates.

use crate::inputs::{self, Input, Seeds, Spec};
use crate::library::{self, analyze_once};
use crate::{probe, stats, Args, Outcome};
use phasefold::AnalysisConfig;

/// The applications: 8 ranks, coarse 10 ms sampling, many short bursts.
const SPECS: [Spec; 3] = [
    Spec { app: "synthetic", ranks: 8, iterations: 400, period_ms: 10.0 },
    Spec { app: "cg", ranks: 8, iterations: 250, period_ms: 10.0 },
    Spec { app: "stencil", ranks: 8, iterations: 250, period_ms: 10.0 },
];

/// Distinct traces per application. Clustering cost depends on the data,
/// so many distinct traces keep a run's figures from hanging on a few.
const PER_APP: usize = 8;

/// Generates the batch traces from `seed`.
fn make_inputs(seed: u64, nproc: usize) -> Vec<Input> {
    let mut seeds = Seeds::new(seed, "batch");
    let jobs: Vec<(Spec, u64)> =
        (0..PER_APP * SPECS.len()).map(|i| (SPECS[i % SPECS.len()], seeds.next())).collect();
    inputs::par_map(&jobs, nproc, |(spec, s)| inputs::generate(spec, *s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let inputs = make_inputs(args.seed, args.nproc);
    // Reference reports, single-threaded: the auto-thread reports below
    // must equal them byte for byte.
    let sequential = AnalysisConfig { threads: Some(1), ..AnalysisConfig::default() };
    let expected: Vec<String> =
        inputs::par_map(&inputs, args.nproc, |i| inputs::expected_report(&i.text, &sequential));
    let bytes: usize = inputs.iter().map(|i| i.text.len()).sum();
    let records: usize = inputs.iter().map(|i| i.records).sum();
    o.note(format!("{} distinct traces ({PER_APP} per application), {records} records, {bytes} bytes", inputs.len()));

    // Warm-up: the first, untimed analysis of every trace, on this thread.
    // Its median is the set-up time; its reports are the thread-count
    // check; its median peak resident memory (the high-water mark is reset
    // before each analysis, so it reflects one trace, not the worst) is
    // `peak_rss_mb`. The timed pass runs each analysis on a new thread,
    // which lands in whichever malloc arena is free: per-analysis peaks
    // there varied by a quarter from run to run.
    let config = AnalysisConfig::default();
    let mut first = Vec::new();
    let mut peaks = Vec::new();
    for (input, want) in inputs.iter().zip(&expected) {
        probe::reset_peak_rss();
        let (report, wall) = analyze_once(&input.text, &config);
        peaks.push(probe::peak_rss_mb("self"));
        first.push(wall.as_secs_f64());
        o.attempted += 1;
        if &report != want {
            o.failed += 1;
            o.note(format!("MISMATCH: auto-thread report differs from threads=1 on {}", input.name));
        }
    }

    if args.trace {
        let mismatches = library::measure_layers(&mut o, &inputs, &expected, args.seconds);
        o.failed += mismatches as u64;
        o.absent_layers_are_zero();
        return Ok(o);
    }

    let pass = library::run_pass(&inputs, &expected, &config, args.seconds);
    o.attempted += pass.latencies_ms.len() as u64;
    o.failed += pass.mismatches as u64;

    let lat = stats::sorted(&pass.latencies_ms);
    o.note(crate::tail_note("per-trace latency", &lat));
    o.note(format!(
        "{} analyses, {} records in {:.3} s; warm-up peak resident {:.1} MiB median, {:.1} MiB max per analysis",
        lat.len(),
        pass.records,
        pass.busy.as_secs_f64(),
        stats::median(&peaks),
        peaks.iter().copied().fold(0.0, f64::max),
    ));
    o.set("setup_s", stats::median(&first));
    o.set("records_per_s", pass.records as f64 / pass.busy.as_secs_f64());
    o.set("p50_ms", stats::percentile(&lat, 50.0));
    o.set("tail_ms", crate::tail_value(&lat));
    o.set("sustained_rps", lat.len() as f64 / pass.busy.as_secs_f64());
    o.set("peak_rss_mb", stats::median(&peaks));
    Ok(o)
}

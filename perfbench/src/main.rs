//! `perfbench` — the phasefold benchmark.
//!
//! ```text
//! perfbench --workload <batch|serve-cold|serve-warm|stream-ingest>
//!           --seed <n> --seconds <s> --trace <0|1> --daemon <path to phasefold>
//!           [--commit <revision of the program under test>]
//! ```
//!
//! Every run makes its inputs from `--seed`, measures for about `--seconds`,
//! checks the program's outputs, prints a human-readable account, and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with no
//! tracing; with `--trace 1` they are the per-layer ones. `NOTES.md` says
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

mod batch;
mod daemon;
mod http;
mod inputs;
mod library;
mod load;
mod probe;
mod serve;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics with their units, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("sustained_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Printed beside the end-to-end metrics by the workloads that measure
/// them, but left out of the JSON result: `NOTES.md` says why.
pub const PRINTED_ONLY: [(&str, &str); 1] = [("snapshot_p50_ms", "ms")];

/// Per-layer metrics with their units, in print order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("model.parse_ms", "ms"),
    ("model.extract_bursts_ms", "ms"),
    ("model.bursts", "count"),
    ("cluster.cluster_bursts_ms", "ms"),
    ("cluster.neighbors_scanned", "count"),
    ("cluster.kdtree_nodes_visited", "count"),
    ("folding.fold_trace_ms", "ms"),
    ("folding.samples", "count"),
    ("regress.build_models_ms", "ms"),
    ("regress.fit_pwlr_ms", "ms"),
    ("regress.segdp_cells_evaluated", "count"),
    ("regress.muggeo_iters", "count"),
    ("core.render_ms", "ms"),
    ("core.pool_tasks_scheduled", "count"),
    ("core.coverage", "ratio"),
    ("core.tracing_overhead", "%"),
    ("serve.daemon_p50_ms", "ms"),
    ("serve.daemon_p99_ms", "ms"),
    ("serve.outside_handler_ms", "ms"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_rejections", "count"),
    ("serve.analyze_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("serve.cpu_ms_per_req", "ms"),
    ("fleet.compare_ms", "ms"),
    ("serve.stream_records_p50_ms", "ms"),
    ("serve.checkpoints_written", "count"),
    ("serve.wal_bytes_per_record", "bytes"),
    ("online.snapshot_ms", "ms"),
    ("online.bursts_streamed", "count"),
    ("serve.cpu_ms_per_krecord", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.cpu_share", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// The `phasefold` binary the daemon workloads spawn.
    pub daemon: PathBuf,
    /// Scratch directory for daemon state, emptied before and after a run.
    pub work: PathBuf,
    /// Load-generator threads and connections (and daemon workers).
    pub nproc: usize,
    /// Source revision of the program under test, as the caller names it.
    pub commit: String,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, traces, batches).
    pub attempted: u64,
    /// Of which failed: non-2xx, timeouts, refusals, output mismatches.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Set when the run is not a valid data point.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets every per-layer metric not measured to 0: the workload does
    /// not reach that layer, so it did no work there.
    pub fn absent_layers_are_zero(&mut self) {
        for (name, _) in PER_LAYER {
            self.metrics.entry(name).or_insert(0.0);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k.strip_prefix("--").ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse().map_err(|_| format!("--{k} must be a whole number"))
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: Duration::from_secs(num("seconds")?.max(1)),
        trace: num("trace")? == 1,
        daemon: PathBuf::from(get("daemon")?),
        work: PathBuf::from(".perfbench_work"),
        nproc,
        commit: kv.get("commit").cloned().unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: creating {}: {e}", args.work.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "serve-cold" => serve::run(&args, serve::Mode::Cold),
        "serve-warm" => serve::run(&args, serve::Mode::Warm),
        "stream-ingest" => stream::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    match result.and_then(|o| report(&args, o)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the human-readable account and the final JSON line; fails on an
/// invalid run or a missing metric.
fn report(args: &Args, o: Outcome) -> Result<(), String> {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} commit={} profile={} debug_assertions={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        args.trace as u8,
        args.nproc,
        args.commit,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg!(debug_assertions),
    );
    for line in &o.notes {
        println!("{line}");
    }
    if let Some(why) = &o.invalid {
        return Err(format!("invalid run: {why}"));
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for (name, unit) in wanted {
        let v = *o.metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() || (!args.trace && v <= 0.0) {
            return Err(format!("metric {name} = {v} is not a valid measurement"));
        }
        println!("{name:<32} {v:>16.6} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    if !args.trace {
        for (name, unit) in PRINTED_ONLY {
            if let Some(v) = o.metrics.get(name) {
                println!("{name:<32} {v:>16.6} {unit} (printed, not in the result)");
            }
        }
    }
    let failed_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    println!("{:<32} {failed_ratio:>16.6} ratio ({} of {})", "failed_ratio", o.failed, o.attempted);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        json.join(", ")
    );
    Ok(())
}

/// `value` printed with the tail's percentile and sample count.
pub fn tail_note(label: &str, sorted_ms: &[f64]) -> String {
    match stats::tail(sorted_ms) {
        Some(t) => format!(
            "{label}: p50 {:.3} ms, tail p{} {:.3} ms over {} samples",
            stats::percentile(sorted_ms, 50.0),
            t.percentile,
            t.value,
            t.samples
        ),
        None => format!(
            "{label}: p50 {:.3} ms; only {} samples, so no tail percentile qualifies",
            stats::percentile(sorted_ms, 50.0),
            sorted_ms.len()
        ),
    }
}

/// The tail value of ascending `sorted_ms`, NaN when too few samples.
pub fn tail_value(sorted_ms: &[f64]) -> f64 {
    stats::tail(sorted_ms).map_or(f64::NAN, |t| t.value)
}

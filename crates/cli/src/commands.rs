//! Command implementations.

use crate::args::{parse, Parsed};
use crate::CliError;
use phasefold::report::{render_report, suggest_optimization};
use phasefold::{analyze_trace, try_analyze_trace, AnalysisConfig};
use phasefold_fleet::{
    compare_fingerprints, render_verdict, verdict_json, CompareVerdict, Fingerprint, MatchConfig,
};
use phasefold_model::{prv, CounterKind, DurNs, FaultPolicy, RankId, TimeNs, Trace};
use phasefold_obs as obs;
use phasefold_simapp::workloads::{all_extended, amg, cg, fft, md, stencil, synthetic};
use phasefold_simapp::{simulate as sim_run, NoiseConfig, Program, SimConfig};
use phasefold_tracer::{trace_run, TracerConfig};
use std::fmt::Write as _;

/// Observability options shared by `analyze`, `compare`, and `selfcheck`.
const OBS_OPTIONS: [&str; 4] = ["log-level", "profile", "metrics", "prom"];

/// Parsed observability request: where exports go, and whether span/metric
/// recording was switched on for this command.
struct ObsRequest {
    profile: Option<String>,
    metrics: Option<String>,
    prom: Option<String>,
    recording: bool,
}

impl ObsRequest {
    /// Applies `--log-level`, and — if any exporter was requested (or
    /// `force` is set, as in `selfcheck`) — enables recording and clears
    /// data left over from earlier commands in this process.
    fn setup(p: &Parsed, force: bool) -> Result<ObsRequest, CliError> {
        if let Some(level) = p.get("log-level") {
            let level: obs::Level = level.parse().map_err(CliError::Usage)?;
            obs::set_log_level(level);
        }
        let profile = p.get("profile").map(str::to_string);
        let metrics = p.get("metrics").map(str::to_string);
        let prom = p.get("prom").map(str::to_string);
        let recording = force || profile.is_some() || metrics.is_some() || prom.is_some();
        if recording {
            obs::reset();
            obs::set_enabled(true);
            obs::span::set_lane_name("main");
        }
        Ok(ObsRequest { profile, metrics, prom, recording })
    }

    /// Stops recording and writes the requested export files. Returns the
    /// snapshot for commands that also render it (e.g. `selfcheck`).
    fn finish(&self) -> Result<Option<obs::Snapshot>, CliError> {
        if !self.recording {
            return Ok(None);
        }
        obs::set_enabled(false);
        let snap = obs::snapshot();
        if let Some(path) = &self.profile {
            std::fs::write(path, obs::export::chrome_trace_json(&snap))?;
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, obs::export::metrics_json(&snap))?;
        }
        if let Some(path) = &self.prom {
            std::fs::write(path, obs::export::prometheus_text(&snap))?;
        }
        Ok(Some(snap))
    }
}

/// `phasefold workloads`
pub fn workloads(argv: &[String], out: &mut String) -> Result<(), CliError> {
    parse(argv, &[], &[])?;
    let _ = writeln!(out, "{:<12} description", "name");
    for entry in all_extended() {
        let _ = writeln!(out, "{:<12} {}", entry.name, entry.description);
    }
    let _ = writeln!(
        out,
        "{:<12} {}",
        "synthetic", "parameterised multi-phase kernels with exact ground truth"
    );
    let _ = writeln!(
        out,
        "\noptimized variants (--optimized): cg (fused), stencil (blocked), md (reuse)"
    );
    Ok(())
}

/// Builds the requested workload program.
fn build_workload(
    name: &str,
    iterations: Option<u64>,
    optimized: bool,
) -> Result<Program, CliError> {
    let program = match name {
        "cg" => {
            let mut p = cg::CgParams { fused: optimized, ..cg::CgParams::default() };
            if let Some(it) = iterations {
                p.iterations = it;
            }
            cg::build(&p)
        }
        "stencil" => {
            let mut p = stencil::StencilParams {
                blocked: optimized,
                ..stencil::StencilParams::default()
            };
            if let Some(it) = iterations {
                p.steps = it.div_ceil(10) * 10;
            }
            stencil::build(&p)
        }
        "md" => {
            let mut p = md::MdParams::default();
            if optimized {
                p.rebuild_every = 80;
                p.decades = p.decades.div_ceil(4);
            }
            if let Some(it) = iterations {
                p.decades = (it / p.rebuild_every).max(1);
            }
            md::build(&p)
        }
        "amg" => {
            let mut p = amg::AmgParams::default();
            if let Some(it) = iterations {
                p.cycles = it;
            }
            amg::build(&p)
        }
        "fft" => {
            let mut p = fft::FftParams::default();
            if let Some(it) = iterations {
                p.steps = it;
            }
            fft::build(&p)
        }
        "synthetic" => {
            let mut p = synthetic::SyntheticParams::default();
            if let Some(it) = iterations {
                p.iterations = it;
            }
            synthetic::build(&p)
        }
        other => {
            return Err(CliError::Other(format!(
                "unknown workload {other:?}; run `phasefold workloads`"
            )))
        }
    };
    Ok(program)
}

/// `phasefold simulate`
pub fn simulate(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(
        argv,
        &["ranks", "seed", "noise", "period-ms", "imbalance", "iterations", "out"],
        &["optimized"],
    )?;
    let workload = p.positional(0, "workload name")?;
    let out_path = p
        .get("out")
        .ok_or_else(|| CliError::Usage("--out <file.prv> is required".into()))?
        .to_string();
    let ranks: usize = p.get_parsed("ranks", 8)?;
    let seed: u64 = p.get_parsed("seed", 0xF01D)?;
    let period_ms: f64 = p.get_parsed("period-ms", 10.0)?;
    let imbalance: f64 = p.get_parsed("imbalance", 0.0)?;
    let iterations: Option<u64> = match p.get("iterations") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad --iterations {v:?}")))?,
        ),
    };
    let noise = match p.get("noise").unwrap_or("quiet") {
        "none" => NoiseConfig::NONE,
        "quiet" => NoiseConfig::quiet(),
        "noisy" => NoiseConfig::noisy(),
        other => return Err(CliError::Usage(format!("bad --noise {other:?}"))),
    };

    let program = build_workload(workload, iterations, p.has_flag("optimized"))?;
    let sim_cfg = SimConfig {
        ranks,
        seed,
        noise,
        rank_speed_spread: imbalance,
        ..SimConfig::default()
    };
    let tracer_cfg = TracerConfig {
        sampling_period: DurNs::from_secs_f64(period_ms / 1e3),
        ..TracerConfig::default()
    };
    let sim = sim_run(&program, &sim_cfg);
    let trace = trace_run(&program.registry, &sim.timelines, &tracer_cfg);
    let text = prv::write_trace(&trace);
    std::fs::write(&out_path, &text)?;
    let _ = writeln!(
        out,
        "wrote {out_path}: workload `{}`, {} ranks, {} records, {} bytes, wall {:.3} s",
        program.name,
        trace.num_ranks(),
        trace.total_records(),
        text.len(),
        trace.end_time().as_secs_f64(),
    );
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let text = std::fs::read_to_string(path)?;
    Ok(prv::parse_trace(&text)?)
}

/// Parses `--threads N` (0 = auto) into [`AnalysisConfig::threads`],
/// which the analysis accepts and ignores.
fn threads_option(p: &crate::args::Parsed) -> Result<Option<usize>, CliError> {
    match p.get_parsed::<usize>("threads", 0)? {
        0 => Ok(None), // auto: use the machine's available parallelism
        n => Ok(Some(n)),
    }
}

/// Parses `--fault-policy lenient|strict` (default lenient).
fn fault_policy_option(p: &crate::args::Parsed) -> Result<FaultPolicy, CliError> {
    match p.get("fault-policy").unwrap_or("lenient") {
        "lenient" => Ok(FaultPolicy::Lenient),
        "strict" => Ok(FaultPolicy::Strict),
        other => Err(CliError::Usage(format!(
            "bad --fault-policy {other:?}; expected lenient or strict"
        ))),
    }
}

/// `phasefold analyze`
pub fn analyze(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(
        argv,
        &["threads", "fault-policy", "log-level", "profile", "metrics", "prom"],
        &["bootstrap", "markdown"],
    )?;
    let path = p.positional(0, "trace file")?;
    let policy = fault_policy_option(&p)?;
    let obs_req = ObsRequest::setup(&p, false)?;
    // Lenient parsing quarantines defective records and carries their
    // faults into the analysis report; strict parsing fails on the first.
    let text = std::fs::read_to_string(path)?;
    let (trace, parse_faults) = prv::parse_trace_with(&text, policy)?;
    let mut config = AnalysisConfig::default();
    config.threads = threads_option(&p)?;
    config.fault_policy = policy;
    if p.has_flag("bootstrap") {
        config.bootstrap = Some(phasefold_regress::BootstrapConfig::default());
    }
    let mut analysis = try_analyze_trace(&trace, &config)?;
    // Parse-stage faults come first: they happened first.
    let mut faults = parse_faults;
    faults.extend(std::mem::take(&mut analysis.faults));
    analysis.faults = faults;
    if p.has_flag("markdown") {
        out.push_str(&phasefold::report::render_markdown(&analysis, &trace.registry));
    } else {
        out.push_str(&render_report(&analysis, &trace.registry));
    }
    if let Some(hint) = suggest_optimization(&analysis, &trace.registry) {
        let _ = writeln!(out, "\nsuggested optimisation target:\n  {hint}");
    }
    obs_req.finish()?;
    Ok(())
}

/// `phasefold info`
pub fn info(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(argv, &[], &[])?;
    let path = p.positional(0, "trace file")?;
    let trace = load_trace(path)?;
    let stats = phasefold_model::trace_stats(&trace);
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(out, "regions:");
    for (_, r) in trace.registry.iter() {
        let _ = writeln!(out, "  [{}] {} @ {}", r.kind.tag(), r.name, r.location);
    }
    Ok(())
}

/// Parses `--threshold R` (relative duration growth that counts as a
/// regression; default [`MatchConfig::default`]'s). Must be a positive
/// finite ratio.
fn threshold_option(p: &crate::args::Parsed) -> Result<f64, CliError> {
    let t: f64 = p.get_parsed("threshold", MatchConfig::default().regression_threshold)?;
    if !(t.is_finite() && t > 0.0) {
        return Err(CliError::Usage(format!(
            "--threshold must be a positive relative growth (e.g. 0.1 = 10%), got {t}"
        )));
    }
    Ok(t)
}

/// `phasefold compare`: the phase-by-phase verdict of `regress-check`
/// (same matcher, same bytes under `--json`), reported rather than gated,
/// plus the whole-run compute time and speedup.
pub fn compare(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(
        argv,
        &["threads", "threshold", "log-level", "profile", "metrics", "prom"],
        &["json"],
    )?;
    let base_path = p.positional(0, "baseline (trace.prv or fingerprint.pffp)")?;
    let cand_path = p.positional(1, "candidate (trace.prv or fingerprint.pffp)")?;
    let threshold = threshold_option(&p)?;
    let obs_req = ObsRequest::setup(&p, false)?;
    let verdict = match_runs(&p, base_path, cand_path, threshold)?;
    if p.has_flag("json") {
        out.push_str(&verdict_json(&verdict));
        out.push('\n');
    } else {
        out.push_str(&render_verdict(&verdict));
        let (t_base, t_cand) = (verdict.total_before_s, verdict.total_after_s);
        if t_cand > 0.0 {
            let _ = writeln!(
                out,
                "\ncompute time: {t_base:.3} s -> {t_cand:.3} s (speedup {:.3}x)",
                t_base / t_cand
            );
        }
    }
    obs_req.finish()?;
    Ok(())
}

/// Fingerprints both runs and matches them under `threshold`: the shared
/// core of `compare` and `regress-check`, so both print the same verdict.
fn match_runs(
    p: &Parsed,
    base_path: &str,
    cand_path: &str,
    threshold: f64,
) -> Result<CompareVerdict, CliError> {
    let config = AnalysisConfig { threads: threads_option(p)?, ..AnalysisConfig::default() };
    let base = load_fingerprint(base_path, None, "default", &config)?;
    let cand = load_fingerprint(cand_path, None, "default", &config)?;
    let match_cfg = MatchConfig { regression_threshold: threshold, ..MatchConfig::default() };
    Ok(compare_fingerprints(&base, &cand, &match_cfg))
}

/// Loads a run artifact as a [`Fingerprint`]: a `.pffp` frame is decoded
/// directly, anything else is parsed as PRV text and analyzed. The file
/// path doubles as the build id unless `build` overrides it.
fn load_fingerprint(
    path: &str,
    build: Option<&str>,
    trace_id: &str,
    config: &AnalysisConfig,
) -> Result<Fingerprint, CliError> {
    let bytes = std::fs::read(path)?;
    if Fingerprint::sniff(&bytes) {
        let mut fp = Fingerprint::decode(&bytes)
            .map_err(|e| CliError::Other(format!("{path}: bad fingerprint: {e}")))?;
        if let Some(build) = build {
            fp.build_id = build.to_string();
        }
        return Ok(fp);
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| CliError::Other(format!("{path} is neither a .pffp frame nor UTF-8 PRV")))?;
    fingerprint_prv(&text, config, build.unwrap_or(path), trace_id)
}

/// Parses PRV text under the config's fault policy (as `analyze` and the
/// daemon do) and fingerprints the analysis. A trace too broken to read
/// at all is worded as `analyze` words it under the same policy.
fn fingerprint_prv(
    text: &str,
    config: &AnalysisConfig,
    build: &str,
    trace_id: &str,
) -> Result<Fingerprint, CliError> {
    let (trace, _) = prv::parse_trace_with(text, config.fault_policy)?;
    let analysis = try_analyze_trace(&trace, config)?;
    Ok(Fingerprint::from_analysis(&analysis, &trace.registry, build, trace_id))
}

/// `phasefold fingerprint`: condenses a trace into a versioned `.pffp`
/// phase fingerprint — the artifact CI stores per build for later
/// `regress-check` / `POST /v1/compare` runs.
pub fn fingerprint(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(
        argv,
        &["out", "build", "trace-id", "threads", "fault-policy"],
        &[],
    )?;
    let path = p.positional(0, "trace file")?;
    let out_path = p
        .get("out")
        .ok_or_else(|| CliError::Usage("--out <file.pffp> is required".into()))?
        .to_string();
    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    let build = p.get("build").map(str::to_string).unwrap_or(stem);
    let trace_id = p.get("trace-id").unwrap_or("default");
    let config = AnalysisConfig {
        threads: threads_option(&p)?,
        fault_policy: fault_policy_option(&p)?,
        ..AnalysisConfig::default()
    };
    let fp = fingerprint_prv(&std::fs::read_to_string(path)?, &config, &build, trace_id)?;
    let frame = fp.encode();
    std::fs::write(&out_path, &frame)?;
    let _ = writeln!(
        out,
        "wrote {out_path}: build `{}` trace `{}`, {} cluster(s), {} phase(s), {} bytes",
        fp.build_id,
        fp.trace_id,
        fp.clusters.len(),
        fp.num_phases(),
        frame.len(),
    );
    Ok(())
}

/// `phasefold regress-check`: compares two runs (each a PRV trace or a
/// `.pffp` fingerprint) and exits non-zero iff the candidate regressed by
/// at least `--threshold`. The CI gate face of the fleet matcher.
pub fn regress_check(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(argv, &["threshold", "threads"], &["json"])?;
    let base_path = p.positional(0, "baseline (trace.prv or fingerprint.pffp)")?;
    let cand_path = p.positional(1, "candidate (trace.prv or fingerprint.pffp)")?;
    let threshold = threshold_option(&p)?;
    let verdict = match_runs(&p, base_path, cand_path, threshold)?;
    if p.has_flag("json") {
        out.push_str(&verdict_json(&verdict));
        out.push('\n');
    } else {
        out.push_str(&render_verdict(&verdict));
    }
    if verdict.regressed {
        let regressed_phases = verdict.phases.iter().filter(|ph| ph.regressed).count();
        return Err(CliError::Other(format!(
            "regression detected: {regressed_phases} phase group(s) at or past the \
             {:.0}% threshold",
            100.0 * threshold
        )));
    }
    Ok(())
}

/// `phasefold selfcheck`: runs a canned synthetic workload through the
/// whole stack with observability enabled and prints stage timings and
/// kernel counters — the tool profiling itself.
pub fn selfcheck(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let mut option_names = vec!["threads", "iterations", "ranks"];
    option_names.extend(OBS_OPTIONS);
    let p = parse(argv, &option_names, &[])?;
    let threads = threads_option(&p)?;
    let iterations: u64 = p.get_parsed("iterations", 300)?;
    let ranks: usize = p.get_parsed("ranks", 4)?;
    let obs_req = ObsRequest::setup(&p, true)?;

    let t0 = std::time::Instant::now();
    let params = synthetic::SyntheticParams { iterations, ..synthetic::SyntheticParams::default() };
    let program = synthetic::build(&params);
    let sim = sim_run(&program, &SimConfig { ranks, ..SimConfig::default() });
    let trace = trace_run(&program.registry, &sim.timelines, &TracerConfig::default());
    let config = AnalysisConfig { threads, ..AnalysisConfig::default() };
    let analysis = analyze_trace(&trace, &config);
    let wall = t0.elapsed();

    let snap = obs_req.finish()?.expect("selfcheck always records");
    let _ = writeln!(out, "phasefold selfcheck");
    let _ = writeln!(out, "===================");
    let _ = writeln!(
        out,
        "workload: synthetic ({iterations} iterations, {ranks} ranks, {} records)",
        trace.total_records()
    );
    let _ = writeln!(out, "\nstage timings (spans):");
    out.push_str(&obs::export::summary_table(&snap));

    // Kernel roofline counters: how much work the hot loops actually did,
    // and how much the pruning/layout optimisations saved. These are the
    // numbers to watch when a kernel change claims a speedup.
    let counters: std::collections::BTreeMap<&str, u64> =
        snap.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let kc = |name: &str| counters.get(name).copied().unwrap_or(0);
    let _ = writeln!(out, "\nkernel counters:");
    let _ = writeln!(
        out,
        "  segdp:    {} DP cells evaluated, {} candidate blocks pruned",
        kc("segdp.cells_evaluated"),
        kc("segdp.blocks_pruned"),
    );
    let _ = writeln!(out, "  cholesky: {} panel factorisations", kc("cholesky.blocks"));
    let _ = writeln!(out, "  kdtree:   {} nodes visited", kc("kdtree.nodes_visited"));
    let _ = writeln!(
        out,
        "  dbscan:   {} range queries, {} neighbours scanned, {} core points",
        kc("dbscan.range_queries"),
        kc("dbscan.neighbors_scanned"),
        kc("dbscan.core_points"),
    );

    if analysis.models.is_empty() {
        return Err(CliError::Other(
            "selfcheck FAILED: canned workload produced no phase models".into(),
        ));
    }
    let _ = writeln!(
        out,
        "\nselfcheck OK: {} model(s), {} phase(s), wall {:.1} ms",
        analysis.models.len(),
        analysis.total_phases(),
        wall.as_secs_f64() * 1e3,
    );
    Ok(())
}

/// `phasefold chaos`: deterministically corrupts a trace file with the
/// seeded fault injectors — the CLI face of the fault-tolerance harness.
pub fn chaos(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(
        argv,
        &["seed", "rate", "drop", "truncate", "shuffle", "saturate", "nan", "out"],
        &[],
    )?;
    let path = p.positional(0, "trace file")?;
    let out_path = p
        .get("out")
        .ok_or_else(|| CliError::Usage("--out <file.prv> is required".into()))?
        .to_string();
    let seed: u64 = p.get_parsed("seed", 0xC4A05)?;
    let rate: f64 = p.get_parsed("rate", 0.0)?;
    let cfg = phasefold_chaos::ChaosConfig {
        seed,
        drop: p.get_parsed("drop", rate)?,
        truncate: p.get_parsed("truncate", rate)?,
        shuffle: p.get_parsed("shuffle", rate)?,
        saturate: p.get_parsed("saturate", rate)?,
        nan: p.get_parsed("nan", rate)?,
    };
    for (name, r) in [
        ("rate", rate),
        ("drop", cfg.drop),
        ("truncate", cfg.truncate),
        ("shuffle", cfg.shuffle),
        ("saturate", cfg.saturate),
        ("nan", cfg.nan),
    ] {
        if !(0.0..=1.0).contains(&r) {
            return Err(CliError::Usage(format!(
                "--{name} must be a probability in [0, 1], got {r}"
            )));
        }
    }
    let text = std::fs::read_to_string(path)?;
    let (corrupted, stats) = phasefold_chaos::corrupt_trace_text(&text, &cfg);
    std::fs::write(&out_path, &corrupted)?;
    let _ = writeln!(
        out,
        "wrote {out_path}: {} of {} body lines corrupted \
         (dropped {}, truncated {}, shuffled {}, saturated {}, nan {}) [seed {seed}]",
        stats.total(),
        stats.lines_seen,
        stats.dropped,
        stats.truncated,
        stats.shuffled,
        stats.saturated,
        stats.nan_injected,
    );
    Ok(())
}

/// `phasefold period`
pub fn period(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(argv, &["rank", "bins"], &[])?;
    let path = p.positional(0, "trace file")?;
    let rank: u32 = p.get_parsed("rank", 0)?;
    let bins: usize = p.get_parsed("bins", 512)?;
    let trace = load_trace(path)?;
    match phasefold::detect_trace_period(&trace, RankId(rank), bins, 0.3) {
        Some(tp) => {
            let _ = writeln!(
                out,
                "detected period: {} (strength {:.2})",
                tp.period, tp.strength
            );
            let _ = writeln!(
                out,
                "representative window: [{}, {}]",
                tp.window_start,
                tp.window_start + tp.window_len
            );
        }
        None => {
            let _ = writeln!(out, "no dominant period detected (aperiodic trace?)");
        }
    }
    Ok(())
}

/// `phasefold reconstruct`
pub fn reconstruct(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(argv, &["rank", "points"], &[])?;
    let path = p.positional(0, "trace file")?;
    let rank: usize = p.get_parsed("rank", 0)?;
    let points: usize = p.get_parsed("points", 1000)?;
    let trace = load_trace(path)?;
    let config = AnalysisConfig::default();
    let analysis = analyze_trace(&trace, &config);
    let recons = phasefold::reconstruct(&trace, &analysis, &config);
    let recon = recons
        .get(rank)
        .ok_or_else(|| CliError::Other(format!("trace has no rank {rank}")))?;
    let horizon = trace.end_time();
    let _ = writeln!(out, "t_s,mips");
    for i in 0..points {
        let t = TimeNs((horizon.0 as f64 * (i as f64 + 0.5) / points as f64) as u64);
        let rate = recon.rate_at(CounterKind::Instructions, t);
        let _ = writeln!(out, "{},{}", t.as_secs_f64(), rate / 1e6);
    }
    Ok(())
}

/// `phasefold serve`
pub fn serve(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(
        argv,
        &[
            "addr",
            "workers",
            "queue-depth",
            "cache-entries",
            "fault-policy",
            "max-connections",
            "max-stream-ranks",
            "port-file",
            "max-seconds",
            "access-log",
            "trace-sample-rate",
            "state-dir",
            "durability",
            "checkpoint-every",
            "max-sessions",
            "session-ttl",
            "fleet-dir",
            "fleet-max-fingerprints",
            "regress-threshold",
            "event-shards",
        ],
        &[],
    )?;
    let regress_threshold: f64 =
        p.get_parsed("regress-threshold", MatchConfig::default().regression_threshold)?;
    if !(regress_threshold.is_finite() && regress_threshold > 0.0) {
        return Err(CliError::Usage(format!(
            "--regress-threshold must be a positive relative growth, got {regress_threshold}"
        )));
    }
    let analysis =
        AnalysisConfig { fault_policy: fault_policy_option(&p)?, ..AnalysisConfig::default() };
    let trace_sample_rate: f64 = p.get_parsed("trace-sample-rate", 1.0)?;
    if !(0.0..=1.0).contains(&trace_sample_rate) {
        return Err(CliError::Usage(format!(
            "--trace-sample-rate must be in [0, 1], got {trace_sample_rate}"
        )));
    }
    let durability = match p.get("durability") {
        None => phasefold_serve::Durability::default(),
        Some(s) => phasefold_serve::Durability::parse(s).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown durability {s:?} (want none|checkpoint|wal)"
            ))
        })?,
    };
    let state_dir = p.get("state-dir").map(std::path::PathBuf::from);
    if durability != phasefold_serve::Durability::None && state_dir.is_none() {
        return Err(CliError::Usage(format!(
            "--durability {} requires --state-dir",
            durability.name()
        )));
    }
    let config = phasefold_serve::ServeConfig {
        addr: p.get("addr").unwrap_or("127.0.0.1:8191").to_string(),
        workers: p.get_parsed("workers", 2usize)?.max(1),
        queue_depth: p.get_parsed("queue-depth", 32usize)?.max(1),
        cache_entries: p.get_parsed("cache-entries", 64usize)?.max(1),
        analysis,
        max_connections: p.get_parsed("max-connections", 256usize)?.max(1),
        max_stream_ranks: p.get_parsed("max-stream-ranks", 1usize << 16)?.max(1),
        access_log: p.get("access-log").map(std::path::PathBuf::from),
        trace_sample_rate,
        state_dir,
        durability,
        checkpoint_every: p.get_parsed("checkpoint-every", 4096u64)?.max(1),
        max_sessions: p.get_parsed("max-sessions", 1024usize)?.max(1),
        session_ttl: std::time::Duration::from_secs(p.get_parsed("session-ttl", 0u64)?),
        fleet_dir: p.get("fleet-dir").map(std::path::PathBuf::from),
        fleet_max_fingerprints: p.get_parsed("fleet-max-fingerprints", 256usize)?.max(1),
        regress_threshold,
        // 0 = auto-size from available cores (see ServeConfig docs).
        event_shards: p.get_parsed("event-shards", 0usize)?,
        ..phasefold_serve::ServeConfig::default()
    };
    let max_seconds: u64 = p.get_parsed("max-seconds", 0)?; // 0 = run forever

    phasefold_serve::shutdown::install();
    let handle = phasefold_serve::serve(config)?;
    let addr = handle.addr();
    // The bound address (with any ephemeral port resolved) goes to the
    // port file first, so scripts can wait for it before connecting.
    if let Some(path) = p.get("port-file") {
        std::fs::write(path, format!("{addr}\n"))?;
    }
    let _ = writeln!(out, "phasefold-serve listening on {addr}");
    let _ = writeln!(out, "  POST /v1/analyze | POST /v1/streams/<id>/records");
    let _ = writeln!(out, "  GET /v1/streams/<id>/phases | GET /healthz | GET /metrics");

    let stats = if max_seconds == 0 {
        handle.join()
    } else {
        // Test/script hook: bounded lifetime without an external signal.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(max_seconds);
        let poll = std::time::Duration::from_millis(100);
        loop {
            if std::time::Instant::now() >= deadline {
                break handle.shutdown();
            }
            std::thread::sleep(poll);
        }
    };
    let _ = writeln!(
        out,
        "drained: requests={} rejected={} jobs_completed={} jobs_panicked={} clean={}",
        stats.requests, stats.rejected, stats.jobs_completed, stats.jobs_panicked, stats.clean
    );
    if !stats.clean {
        return Err(CliError::Other(format!(
            "non-graceful shutdown: {} connections and {} jobs still alive at exit",
            stats.connections_at_exit, stats.jobs_at_exit
        )));
    }
    Ok(())
}

/// `phasefold verify` — the differential/metamorphic correctness gate.
pub fn verify(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let p = parse(argv, &["seeds", "start", "corpus", "write-corpus"], &["no-shrink"])?;
    let seeds: u64 = p.get_parsed("seeds", 50)?;
    let start: u64 = p.get_parsed("start", 0)?;
    let shrink = !p.has_flag("no-shrink");

    if let Some(dir) = p.get("write-corpus") {
        let written = phasefold_verify::corpus::write_corpus(std::path::Path::new(dir))
            .map_err(|e| CliError::Other(format!("writing corpus to {dir}: {e}")))?;
        let _ = writeln!(out, "wrote {} corpus cases to {dir}:", written.len());
        for name in written {
            let _ = writeln!(out, "  {name}");
        }
        return Ok(());
    }

    let mut divergences = Vec::new();

    if let Some(dir) = p.get("corpus") {
        let (replayed, corpus_divergences) =
            phasefold_verify::corpus::replay_dir(std::path::Path::new(dir));
        let _ = writeln!(
            out,
            "corpus: replayed {replayed} case(s) from {dir}, {} divergence(s)",
            corpus_divergences.len()
        );
        if replayed == 0 && corpus_divergences.is_empty() {
            return Err(CliError::Other(format!("corpus {dir} contains no .case files")));
        }
        divergences.extend(corpus_divergences);
    }

    if seeds > 0 {
        let summary = phasefold_verify::run_seeds(start, seeds, shrink);
        let _ = writeln!(
            out,
            "fuzz: {} seed(s) [{start}..{}), {} generated bursts, {} divergence(s)",
            summary.seeds_run,
            start + seeds,
            summary.bursts,
            summary.divergences.len()
        );
        divergences.extend(summary.divergences);
    }

    if divergences.is_empty() {
        let _ = writeln!(out, "verify: OK");
        return Ok(());
    }
    for d in &divergences {
        let _ = writeln!(out, "DIVERGENCE {d}");
        if let Some(repro) = &d.repro {
            let _ = writeln!(out, "--- minimized repro (corpus format) ---");
            out.push_str(repro);
            let _ = writeln!(out, "--- end repro ---");
        }
    }
    Err(CliError::Other(format!("{} divergence(s) found", divergences.len())))
}

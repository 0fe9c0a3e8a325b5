//! Golden-file validation of the observability exporters, driven through
//! the real CLI: `--profile` must emit a valid Chrome-trace JSON array
//! covering every pipeline stage and the pool worker lanes, and enabling
//! the instrumentation must not change a single byte of the report.
//!
//! The JSON checker lives in `common/json.rs`: a deliberately small
//! recursive-descent parser (the workspace has no JSON dependency),
//! strict enough to reject malformed output, small enough to audit at a
//! glance. `debug_trace_golden.rs` runs the daemon's `/debug/trace/{id}`
//! replay through the same parser.

#[path = "common/json.rs"]
mod json;

use json::{parse_json, Json};
use phasefold_cli::run;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Serialises the tests: `--profile` toggles process-global obs state.
/// Guards recover from poisoning, so one failing test reports as one.
static OBS_LOCK: Mutex<()> = Mutex::new(());

// ----------------------------------------------------------------- helpers

fn argv(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn run_ok(v: &[&str]) -> String {
    let mut out = String::new();
    run(&argv(v), &mut out).unwrap_or_else(|e| panic!("command {v:?} failed: {e}"));
    out
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("phasefold-profile-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn simulate_trace(name: &str) -> String {
    let path = tmp(name);
    run_ok(&[
        "simulate", "synthetic", "--ranks", "2", "--iterations", "200", "--out", &path,
    ]);
    path
}

// ------------------------------------------------------------------- tests

#[test]
fn profile_is_valid_chrome_trace_covering_all_stages() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let trace = simulate_trace("golden.prv");
    let profile = tmp("golden_profile.json");
    let metrics = tmp("golden_metrics.json");
    // --parallel-threshold 0: the trace is small enough that the default
    // granularity floor would (correctly) bypass the pool, and this test
    // exists precisely to see the pool worker lanes in the profile.
    run_ok(&[
        "analyze", &trace, "--threads", "4", "--parallel-threshold", "0",
        "--profile", &profile, "--metrics", &metrics,
    ]);

    let doc = parse_json(&std::fs::read_to_string(&profile).unwrap());
    let Json::Arr(events) = &doc else {
        panic!("Chrome trace must be a top-level array");
    };
    assert!(events.len() > 10, "only {} trace events", events.len());

    let mut span_names = Vec::new();
    let mut lane_names = Vec::new();
    let mut last_ts_per_tid: BTreeMap<i64, f64> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event without ph");
        assert!(
            matches!(ph, "M" | "X" | "B" | "E"),
            "unexpected event phase {ph:?}"
        );
        let pid = ev.get("pid").and_then(Json::as_num).expect("event without pid");
        assert!(pid >= 0.0);
        match ph {
            "M" => {
                let meta = ev.get("name").and_then(Json::as_str).unwrap();
                if meta == "thread_name" {
                    let name = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .expect("thread_name without args.name");
                    lane_names.push(name.to_string());
                }
            }
            _ => {
                let name = ev.get("name").and_then(Json::as_str).expect("span without name");
                let ts = ev.get("ts").and_then(Json::as_num).expect("span without ts");
                let dur = ev.get("dur").and_then(Json::as_num).expect("span without dur");
                let tid = ev.get("tid").and_then(Json::as_num).expect("span without tid") as i64;
                assert!(ts >= 0.0 && dur >= 0.0, "negative time in {name}");
                // Export promises (lane, start) ordering for stable viewing.
                let last = last_ts_per_tid.entry(tid).or_insert(-1.0);
                assert!(ts >= *last, "{name}: ts {ts} out of order on tid {tid}");
                *last = ts;
                span_names.push(name.to_string());
            }
        }
    }

    // Every pipeline stage must be covered: fold, segment, fit, cluster,
    // plus the top-level orchestration spans.
    for stage in [
        "pipeline.analyze_trace",
        "pipeline.extract_bursts",
        "pipeline.cluster_bursts",
        "pipeline.fold_trace",
        "pipeline.build_models",
        "pipeline.fit_structure",
        "folding.fold_cluster",
        "regress.fit_pwlr",
        "regress.segment_dp",
        "cluster.dbscan",
    ] {
        assert!(
            span_names.iter().any(|n| n.starts_with(stage)),
            "no span covering stage {stage}; got {span_names:?}"
        );
    }
    // The main thread and at least one pool worker have named lanes.
    assert!(lane_names.iter().any(|n| n == "main"), "lanes: {lane_names:?}");
    assert!(
        lane_names.iter().any(|n| n.starts_with("pool-worker-")),
        "no per-worker pool lane in {lane_names:?}"
    );

    // The metrics dump is valid JSON too, with balanced pool counters.
    let m = parse_json(&std::fs::read_to_string(&metrics).unwrap());
    let counters = m.get("counters").expect("metrics without counters section");
    let scheduled = counters
        .get("pool.tasks_scheduled")
        .and_then(Json::as_num)
        .expect("missing pool.tasks_scheduled");
    let completed = counters
        .get("pool.tasks_completed")
        .and_then(Json::as_num)
        .expect("missing pool.tasks_completed");
    assert!(scheduled > 0.0);
    assert_eq!(scheduled, completed, "scheduled != completed in metrics dump");
    assert!(m.get("gauges").is_some() && m.get("spans").is_some());
}

#[test]
fn report_is_bit_identical_with_and_without_instrumentation() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let trace = simulate_trace("golden_identical.prv");
    let plain = run_ok(&["analyze", &trace]);
    let profiled = run_ok(&[
        "analyze",
        &trace,
        "--profile",
        &tmp("identical_profile.json"),
        "--metrics",
        &tmp("identical_metrics.json"),
        "--log-level",
        "off",
    ]);
    assert_eq!(
        plain, profiled,
        "enabling observability changed the analysis report"
    );
    // And again with the pool engaged (threshold 0 forces it on this
    // sub-threshold trace).
    let plain_par =
        run_ok(&["analyze", &trace, "--threads", "4", "--parallel-threshold", "0"]);
    let profiled_par = run_ok(&[
        "analyze", &trace, "--threads", "4", "--parallel-threshold", "0",
        "--profile", &tmp("identical_par.json"),
    ]);
    assert_eq!(plain_par, profiled_par);
    assert_eq!(plain, plain_par, "thread count changed the report");
}

#[test]
fn selfcheck_smoke() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let profile = tmp("selfcheck_profile.json");
    let out = run_ok(&["selfcheck", "--threads", "2", "--profile", &profile]);
    assert!(out.contains("phasefold selfcheck"), "{out}");
    assert!(out.contains("selfcheck OK"), "{out}");
    assert!(out.contains("pool"), "{out}");
    // Its profile export is valid Chrome-trace JSON as well.
    let doc = parse_json(&std::fs::read_to_string(&profile).unwrap());
    assert!(matches!(doc, Json::Arr(_)));
}

#[test]
fn prom_export_writes_exposition_text() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prom_path = tmp("selfcheck.prom");
    run_ok(&["selfcheck", "--threads", "2", "--prom", &prom_path]);
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(prom.lines().any(|l| l.starts_with("# TYPE ")), "{prom}");
    assert!(
        prom.lines().any(|l| l.starts_with("pool_tasks_scheduled ")),
        "pool counters missing from prom export:\n{prom}"
    );
}

//! # phasefold-cli
//!
//! Command-line front end over the `phasefold` workspace. Commands:
//!
//! ```text
//! phasefold workloads
//! phasefold simulate <workload> [--ranks N] [--seed S] [--noise none|quiet|noisy]
//!                     [--period-ms P] [--imbalance F] --out trace.prv
//! phasefold analyze <trace.prv> [--bootstrap] [--fault-policy lenient|strict]
//! phasefold chaos <trace.prv> --out corrupted.prv [--seed N] [--rate R]
//! phasefold compare <base> <cand> [--threshold R] [--json]
//! phasefold fingerprint <trace.prv> --out fp.pffp [--build ID]
//! phasefold regress-check <base> <cand> [--threshold R] [--json]
//! phasefold period <trace.prv> [--rank R] [--bins B]
//! phasefold reconstruct <trace.prv> [--rank R] [--points N]
//! phasefold serve [--addr H:P] [--workers N] [--queue-depth N] [--cache-dir D]
//! ```
//!
//! All output goes to the supplied writer (`String` in tests, stdout in the
//! binary), so every command is unit-testable end-to-end.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
mod commands;

use std::fmt;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage (unknown command/option, missing argument).
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Trace could not be parsed.
    Trace(phasefold_model::ModelError),
    /// A typed analysis fault surfaced under `--fault-policy strict`.
    Fault(phasefold_model::Fault),
    /// Anything else (workload unknown, analysis empty, …).
    Other(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Trace(e) => write!(f, "trace: {e}"),
            CliError::Fault(e) => write!(f, "fault: {e}"),
            CliError::Other(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

impl From<phasefold_model::ModelError> for CliError {
    fn from(e: phasefold_model::ModelError) -> CliError {
        CliError::Trace(e)
    }
}

impl From<phasefold_model::Fault> for CliError {
    fn from(e: phasefold_model::Fault) -> CliError {
        CliError::Fault(e)
    }
}

/// Process exit code for an error: `2` for usage errors (bad flags,
/// missing arguments — the caller's fault), `1` for everything else
/// (I/O, defective traces, analysis faults — the input's fault). Keeping
/// the mapping here, not in `main`, makes it unit-testable.
pub fn exit_code(error: &CliError) -> u8 {
    match error {
        CliError::Usage(_) => 2,
        CliError::Io(_) | CliError::Trace(_) | CliError::Fault(_) | CliError::Other(_) => 1,
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
usage: phasefold <command> [options]

commands:
  workloads                         list available simulated workloads
  simulate <workload> --out F.prv   simulate + trace a workload to a file
      [--ranks N] [--seed S] [--noise none|quiet|noisy]
      [--period-ms P] [--imbalance F] [--optimized]
  analyze <F.prv>                   phase analysis report of a trace
      [--bootstrap] [--markdown] [--threads N (0 = auto)]
      [--parallel-threshold N (folded samples; below it model building
       runs sequentially regardless of --threads; 0 = always parallel)]
      [--fault-policy lenient|strict]
      [--profile out.json] [--metrics out.json] [--prom out.prom]
      [--log-level L]
  chaos <F.prv> --out G.prv         deterministically corrupt a trace
      [--seed N] [--rate R (all corruptors)]
      [--drop R] [--truncate R] [--shuffle R] [--saturate R] [--nan R]
  info <F.prv>                      trace summary statistics + region table
  compare <base> <cand>             per-phase verdict between two runs plus
      the speedup; each argument is a PRV trace or a .pffp fingerprint
      [--json (the verdict regress-check --json and POST /v1/compare print)]
      [--threshold R (relative growth that counts as regression, 0.08)]
      [--threads N (0 = auto)] [--parallel-threshold N]
      [--profile out.json] [--metrics out.json] [--prom out.prom]
      [--log-level L]
  fingerprint <F.prv> --out G.pffp  condense a trace into a versioned
      phase fingerprint (the per-build artifact CI stores)
      [--build ID (default: trace file stem)] [--trace-id ID]
      [--threads N] [--parallel-threshold N]
      [--fault-policy lenient|strict]
  regress-check <base> <cand>       deploy gate: exits non-zero iff the
      candidate run regressed vs the baseline; each argument is a PRV
      trace or a .pffp fingerprint
      [--threshold R (default 0.08 = 8%)] [--json]
      [--threads N] [--parallel-threshold N]
  period <F.prv>                    detect the iterative period
      [--rank R] [--bins B]
  reconstruct <F.prv>               unfolded fine-grain rate timeline (CSV)
      [--rank R] [--points N]
  selfcheck                         profile the analysis stack on a canned
      workload: stage timings + pool utilization + kernel counters
      [--threads N] [--parallel-threshold N (default 0)] [--iterations N]
      [--ranks N]
      [--profile out.json] [--metrics out.json] [--prom out.prom]
      [--log-level L]
  serve                             analysis daemon (HTTP/1.1 on std::net)
      [--addr H:P (default 127.0.0.1:8191, port 0 = ephemeral)]
      [--threads N (0 = auto)] [--workers N] [--queue-depth N]
      [--cache-entries N] [--cache-dir DIR]
      [--fault-policy lenient|strict]
      [--port-file F (bound address is written here)]
      [--max-seconds S (0 = until SIGTERM/SIGINT or POST /admin/shutdown)]
      [--access-log F (structured JSON request log, append mode)]
      [--trace-sample-rate R (share of requests traced + logged, default 1)]
      [--state-dir DIR (session checkpoints + WALs; restored on start)]
      [--durability none|checkpoint|wal (what an ack promises, default none)]
      [--checkpoint-every N (accepted records between checkpoints, 4096)]
      [--max-sessions N (resident streaming sessions, 429 past it, 1024)]
      [--session-ttl S (evict sessions idle this many seconds, 0 = never)]
      [--fleet-dir DIR (versioned fingerprint store; enables
       POST /v1/fingerprints and POST /v1/compare)]
      [--fleet-max-fingerprints N (store eviction bound, 256)]
      [--regress-threshold R (default verdict threshold, 0.08)]
      [--event-shards N (event-loop shards, 0 = auto from cores)]
      [--cache-shards N (result-cache shards, 0 = auto from cores)]
  verify                            differential + metamorphic correctness
      gate: fuzz seeded random traces against slow reference kernels and
      paper-derived invariants; replay the minimized regression corpus
      [--seeds N (default 50, 0 = corpus only)] [--start S]
      [--corpus DIR (replay checked-in cases)] [--no-shrink]
      [--write-corpus DIR (regenerate the curated corpus, then exit)]

observability:
  --profile out.json    Chrome-trace/Perfetto span export of the run
                        (open in chrome://tracing or ui.perfetto.dev)
  --metrics out.json    JSON dump of pipeline counters/gauges/span stats
  --prom out.prom       Prometheus text exposition of the same snapshot
  --log-level L         stderr logging: off|error|warn|info|debug|trace

fault handling:
  --fault-policy lenient   quarantine defective records/folds, keep going,
                           append a fault report section (default)
  --fault-policy strict    abort on the first Error-severity fault
";

/// Runs one CLI invocation, writing human output into `out`.
pub fn run(argv: &[String], out: &mut String) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "workloads" => commands::workloads(rest, out),
        "simulate" => commands::simulate(rest, out),
        "analyze" => commands::analyze(rest, out),
        "chaos" => commands::chaos(rest, out),
        "info" => commands::info(rest, out),
        "compare" => commands::compare(rest, out),
        "fingerprint" => commands::fingerprint(rest, out),
        "regress-check" => commands::regress_check(rest, out),
        "period" => commands::period(rest, out),
        "reconstruct" => commands::reconstruct(rest, out),
        "selfcheck" => commands::selfcheck(rest, out),
        "serve" => commands::serve(rest, out),
        "verify" => commands::verify(rest, out),
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn run_ok(v: &[&str]) -> String {
        let mut out = String::new();
        run(&argv(v), &mut out).unwrap_or_else(|e| panic!("command {v:?} failed: {e}"));
        out
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("phasefold-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        let help = run_ok(&["help"]);
        assert!(help.contains("usage: phasefold"));
        let mut out = String::new();
        assert!(matches!(
            run(&argv(&["frobnicate"]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&argv(&[]), &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn workloads_lists_the_library() {
        let out = run_ok(&["workloads"]);
        for name in ["cg", "stencil", "md", "amg", "fft", "synthetic"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn simulate_then_analyze_roundtrip() {
        let path = tmp("cli_cg.prv");
        let out = run_ok(&[
            "simulate", "cg", "--ranks", "2", "--iterations", "60", "--out", &path,
        ]);
        assert!(out.contains("wrote"), "{out}");
        assert!(std::fs::metadata(&path).unwrap().len() > 1000);

        let report = run_ok(&["analyze", &path]);
        assert!(report.contains("phasefold analysis report"), "{report}");
        assert!(report.contains("cluster 0"));
        assert!(report.contains("cg_solve"));
    }

    #[test]
    fn analyze_with_bootstrap_prints_cis() {
        let path = tmp("cli_syn.prv");
        run_ok(&[
            "simulate", "synthetic", "--ranks", "2", "--iterations", "150", "--out", &path,
        ]);
        let report = run_ok(&["analyze", &path, "--bootstrap"]);
        assert!(report.contains("95% CI"), "{report}");
        assert!(report.contains("order stability"));
    }

    #[test]
    fn period_detects_iterative_structure() {
        let path = tmp("cli_md.prv");
        run_ok(&["simulate", "md", "--ranks", "2", "--out", &path]);
        let out = run_ok(&["period", &path]);
        assert!(
            out.contains("period") && (out.contains("ms") || out.contains("s")),
            "{out}"
        );
    }

    #[test]
    fn reconstruct_emits_csv() {
        let path = tmp("cli_syn2.prv");
        run_ok(&[
            "simulate", "synthetic", "--ranks", "2", "--iterations", "120", "--out", &path,
        ]);
        let out = run_ok(&["reconstruct", &path, "--points", "100"]);
        let mut lines = out.lines();
        assert_eq!(lines.next().unwrap(), "t_s,mips");
        let data: Vec<&str> = lines.collect();
        assert!(data.len() >= 100, "{} rows", data.len());
        for row in data.iter().take(5) {
            let mut parts = row.split(',');
            let _: f64 = parts.next().unwrap().parse().unwrap();
            let _: f64 = parts.next().unwrap().parse().unwrap();
        }
    }

    #[test]
    fn simulate_unknown_workload_fails() {
        let mut out = String::new();
        let err = run(
            &argv(&["simulate", "nonsense", "--out", &tmp("x.prv")]),
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Other(_)));
    }

    #[test]
    fn analyze_missing_file_fails() {
        let mut out = String::new();
        assert!(matches!(
            run(&argv(&["analyze", "/nonexistent/trace.prv"]), &mut out),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn simulate_optimized_variant() {
        let path = tmp("cli_st_opt.prv");
        let out = run_ok(&[
            "simulate", "stencil", "--ranks", "2", "--optimized", "--out", &path,
        ]);
        assert!(out.contains("stencil-blocked"), "{out}");
    }

    #[test]
    fn analyze_threads_flag_accepted_and_identical() {
        let path = tmp("cli_threads.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "120", "--out", &path]);
        let seq = run_ok(&["analyze", &path, "--threads", "1"]);
        let par = run_ok(&["analyze", &path, "--threads", "4"]);
        let auto = run_ok(&["analyze", &path, "--threads", "0"]);
        assert_eq!(seq, par, "thread count must not change the report");
        assert_eq!(seq, auto);
        let mut out = String::new();
        assert!(matches!(
            run(&argv(&["analyze", &path, "--threads", "lots"]), &mut out),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_markdown_output() {
        let path = tmp("cli_md_out.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "120", "--out", &path]);
        let md = run_ok(&["analyze", &path, "--markdown"]);
        assert!(md.starts_with("# phasefold analysis"), "{md}");
        assert!(md.contains("| phase |"));
    }

    #[test]
    fn info_summarises_trace() {
        let path = tmp("cli_info.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "50", "--out", &path]);
        let out = run_ok(&["info", &path]);
        assert!(out.contains("bursts:"), "{out}");
        assert!(out.contains("regions:"));
        assert!(out.contains("phase0"));
    }

    #[test]
    fn compare_two_runs() {
        let base = tmp("cli_cmp_base.prv");
        let opt = tmp("cli_cmp_opt.prv");
        run_ok(&["simulate", "stencil", "--ranks", "2", "--out", &base]);
        run_ok(&["simulate", "stencil", "--ranks", "2", "--optimized", "--out", &opt]);
        let out = run_ok(&["compare", &base, &opt]);
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("->"));
        // The fleet verdict, flux phase paired by source.
        assert!(out.contains("verdict: clean"), "{out}");
        assert!(out.lines().any(|l| l.contains("source/") && l.contains("flux")), "{out}");
        assert!(out.contains("l3mpki"), "{out}");
    }

    #[test]
    fn compare_json_is_regress_check_json_on_a_clean_pair() {
        let base = tmp("cli_same_base.prv");
        let same = tmp("cli_same_cand.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "150", "--out", &base]);
        run_ok(&[
            "simulate", "synthetic", "--ranks", "2", "--iterations", "150", "--seed", "99",
            "--out", &same,
        ]);
        let compare = run_ok(&["compare", &base, &same, "--json"]);
        let gate = run_ok(&["regress-check", &base, &same, "--json"]);
        assert!(compare.contains("\"regressed\":false"), "{compare}");
        assert_eq!(compare, gate);
    }

    #[test]
    fn exit_codes_distinguish_usage_from_runtime_failures() {
        assert_eq!(exit_code(&CliError::Usage("bad".into())), 2);
        assert_eq!(exit_code(&CliError::Other("nope".into())), 1);
        assert_eq!(
            exit_code(&CliError::Io(std::io::Error::from(std::io::ErrorKind::NotFound))),
            1
        );
        assert_eq!(
            exit_code(&CliError::Fault(phasefold_model::Fault::new(
                phasefold_model::FaultKind::NanSamples,
                "x"
            ))),
            1
        );
    }

    #[test]
    fn chaos_corrupts_deterministically() {
        let clean = tmp("cli_chaos_clean.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "80", "--out", &clean]);
        let a = tmp("cli_chaos_a.prv");
        let b = tmp("cli_chaos_b.prv");
        let msg =
            run_ok(&["chaos", &clean, "--rate", "0.2", "--seed", "7", "--out", &a]);
        assert!(msg.contains("body lines corrupted"), "{msg}");
        run_ok(&["chaos", &clean, "--rate", "0.2", "--seed", "7", "--out", &b]);
        let ta = std::fs::read_to_string(&a).unwrap();
        let tb = std::fs::read_to_string(&b).unwrap();
        assert_eq!(ta, tb, "same seed+rate must corrupt identically");
        assert_ne!(ta, std::fs::read_to_string(&clean).unwrap());

        // Bad probabilities are usage errors (exit code 2 territory).
        let mut out = String::new();
        let err = run(
            &argv(&["chaos", &clean, "--rate", "1.5", "--out", &b]),
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn fault_policy_governs_corrupted_trace_analysis() {
        let clean = tmp("cli_policy_clean.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "120", "--out", &clean]);
        let bad = tmp("cli_policy_bad.prv");
        run_ok(&["chaos", &clean, "--nan", "0.3", "--seed", "5", "--out", &bad]);

        // Lenient (default): analysis completes and surfaces the damage.
        let report = run_ok(&["analyze", &bad]);
        assert!(report.contains("phasefold analysis report"), "{report}");
        assert!(report.contains("fault report"), "{report}");

        // Strict: the first Error-severity fault aborts.
        let mut out = String::new();
        let err = run(&argv(&["analyze", &bad, "--fault-policy", "strict"]), &mut out)
            .unwrap_err();
        assert!(
            matches!(err, CliError::Fault(_) | CliError::Trace(_)),
            "strict must surface a typed fault, got {err:?}"
        );

        // Unknown policy value is a usage error.
        let err = run(
            &argv(&["analyze", &bad, "--fault-policy", "yolo"]),
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));

        // A clean trace analyses identically under both policies.
        let lenient = run_ok(&["analyze", &clean]);
        let strict = run_ok(&["analyze", &clean, "--fault-policy", "strict"]);
        assert_eq!(lenient, strict);
        assert!(!lenient.contains("fault report"));
    }

    #[test]
    fn compare_json_emits_machine_verdict() {
        let base = tmp("cli_cmpj_base.prv");
        let opt = tmp("cli_cmpj_opt.prv");
        run_ok(&["simulate", "stencil", "--ranks", "2", "--out", &base]);
        run_ok(&["simulate", "stencil", "--ranks", "2", "--optimized", "--out", &opt]);
        let out = run_ok(&["compare", &base, &opt, "--json"]);
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'), "{out}");
        assert!(out.contains("\"regressed\":"), "{out}");
        assert!(out.contains("\"phases\":["), "{out}");
        assert!(out.contains(&format!("\"baseline\":\"{base}\"")), "{out}");

        let mut sink = String::new();
        let err = run(&argv(&["compare", &base, &opt, "--threshold", "0"]), &mut sink)
            .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn fingerprint_then_regress_check_round_trip() {
        let base = tmp("cli_fp_base.prv");
        let same = tmp("cli_fp_same.prv");
        run_ok(&["simulate", "synthetic", "--ranks", "2", "--iterations", "150", "--out", &base]);
        run_ok(&[
            "simulate", "synthetic", "--ranks", "2", "--iterations", "150", "--seed", "99",
            "--out", &same,
        ]);

        // Condense the baseline once; the .pffp stands in for the trace.
        let fp = tmp("cli_fp_base.pffp");
        let msg = run_ok(&["fingerprint", &base, "--out", &fp, "--build", "v1"]);
        assert!(msg.contains("build `v1`"), "{msg}");
        assert!(std::fs::metadata(&fp).unwrap().len() > 0);

        // Same workload, different seed: no regression, exit 0, and the
        // .pffp baseline must behave exactly like the trace baseline.
        let clean = run_ok(&["regress-check", &base, &same]);
        assert!(clean.contains("verdict: clean"), "{clean}");
        let via_fp = run_ok(&["regress-check", &fp, &same]);
        assert!(via_fp.contains("verdict: clean"), "{via_fp}");

        // A regressed candidate (phase slowed 40%) must fail the gate
        // with the runtime exit code, not a usage error.
        let slow = tmp("cli_fp_slow.prv");
        run_ok(&[
            "simulate", "stencil", "--ranks", "2", "--optimized", "--out", &base,
        ]);
        run_ok(&["simulate", "stencil", "--ranks", "2", "--out", &slow]);
        let mut out = String::new();
        let err = run(&argv(&["regress-check", &base, &slow]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Other(_)), "expected gate failure, got {err:?}");
        assert_eq!(exit_code(&err), 1);
        assert!(out.contains("REGRESSED"), "{out}");

        // --json keeps the same verdict shape as the daemon endpoint.
        let mut json = String::new();
        let _ = run(&argv(&["regress-check", &base, &slow, "--json"]), &mut json);
        assert!(json.contains("\"regressed\":true"), "{json}");
    }

    #[test]
    fn simulate_with_imbalance_runs() {
        let path = tmp("cli_imb.prv");
        run_ok(&[
            "simulate", "synthetic", "--ranks", "4", "--iterations", "80", "--imbalance", "0.3",
            "--out", &path,
        ]);
        let report = run_ok(&["analyze", &path]);
        assert!(report.contains("cluster"), "{report}");
    }
}

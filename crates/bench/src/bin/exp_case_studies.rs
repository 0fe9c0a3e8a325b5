//! **E6 — Case studies** (tables): the paper's evaluation format — take
//! already-optimized applications, describe their phases, apply the small
//! transformation the analysis suggests, and measure the improvement.
//!
//! The companion ParCo'13 framework paper reports 10–30 % speedups from
//! changes of exactly this size; the shape to reproduce is "the analysis
//! names the right phase, the small change moves the named metric, and the
//! whole application gets meaningfully faster".
//!
//! ```text
//! cargo run --release -p phasefold-bench --bin exp_case_studies
//! ```

use phasefold::report::{render_report, suggest_optimization};
use phasefold::{run_study, AnalysisConfig, StudyOutput};
use phasefold_bench::{banner, fmt, pct, write_results, Table};
use phasefold_fleet::{compare_fingerprints, render_verdict, Fingerprint, MatchConfig};
use phasefold_simapp::workloads::{cg, md, stencil};
use phasefold_simapp::{Program, SimConfig};
use phasefold_tracer::TracerConfig;

fn study(program: &Program) -> StudyOutput {
    run_study(
        program,
        &SimConfig { ranks: 8, ..SimConfig::default() },
        &TracerConfig::default(),
        &AnalysisConfig::default(),
    )
}

fn compute_time(s: &StudyOutput) -> f64 {
    s.analysis.models.iter().map(|m| m.total_time_s()).sum()
}

struct Case {
    name: &'static str,
    transformation: &'static str,
    baseline: Program,
    optimized: Program,
}

fn main() {
    banner(
        "E6",
        "guided-optimisation case studies",
        "per-phase description → small transformation → speedup (claim band: 10-30 %)",
    );

    let cases = vec![
        Case {
            name: "cg",
            transformation: "fuse axpy_x+axpy_r+dot_rr into one pass",
            baseline: cg::build(&cg::CgParams::default()),
            optimized: cg::build(&cg::CgParams { fused: true, ..cg::CgParams::default() }),
        },
        Case {
            name: "stencil",
            transformation: "cache-block the flux kernel",
            baseline: stencil::build(&stencil::StencilParams::default()),
            optimized: stencil::build(&stencil::StencilParams {
                blocked: true,
                ..stencil::StencilParams::default()
            }),
        },
        Case {
            name: "md",
            transformation: "neighbour rebuild every 80 steps instead of 20",
            baseline: md::build(&md::MdParams::default()),
            optimized: md::build(&md::MdParams {
                decades: 2,
                rebuild_every: 80,
                ..md::MdParams::default()
            }),
        },
    ];

    let mut summary = Table::new(&[
        "app",
        "transformation",
        "hint_names_phase",
        "t_base_s",
        "t_opt_s",
        "speedup",
        "gain",
    ]);
    let mut detail = String::new();

    for case in cases {
        let base = study(&case.baseline);
        let opt = study(&case.optimized);
        let hint = suggest_optimization(&base.analysis, &base.trace.registry)
            .unwrap_or_else(|| "-".into());
        let t0 = compute_time(&base);
        let t1 = compute_time(&opt);

        println!("── case `{}` ──", case.name);
        println!("{}", render_report(&base.analysis, &base.trace.registry));
        println!("analysis hint: {hint}");
        println!("transformation applied: {}", case.transformation);
        println!(
            "compute time {t0:.3} s -> {t1:.3} s  (speedup {:.3}x)\n",
            t0 / t1
        );
        // Differential analysis: which phases moved, and how.
        let fingerprint = |s: &StudyOutput, build| {
            Fingerprint::from_analysis(&s.analysis, &s.trace.registry, build, case.name)
        };
        let verdict = compare_fingerprints(
            &fingerprint(&base, "baseline"),
            &fingerprint(&opt, "optimized"),
            &MatchConfig::default(),
        );
        println!("per-phase movement (baseline -> optimized):");
        println!("{}", render_verdict(&verdict));

        detail.push_str(&format!("=== {} baseline ===\n", case.name));
        detail.push_str(&render_report(&base.analysis, &base.trace.registry));
        detail.push_str(&format!("\n=== {} optimized ===\n", case.name));
        detail.push_str(&render_report(&opt.analysis, &opt.trace.registry));

        summary.row(vec![
            case.name.to_string(),
            case.transformation.to_string(),
            (!hint.is_empty() && hint != "-").to_string(),
            fmt(t0, 3),
            fmt(t1, 3),
            format!("{:.3}x", t0 / t1),
            pct((t0 - t1) / t0),
        ]);
    }

    println!("{}", summary.render_text());
    let path = write_results("e6_case_studies.csv", &summary.render_csv());
    write_results("e6_case_studies_reports.txt", &detail);
    println!("csv written to {}", path.display());
    println!(
        "\nexpected shape: each small transformation yields a high-single-digit to\n\
         ~35 % whole-application gain, and the analysis hint points at the phase\n\
         the transformation targets."
    );
}

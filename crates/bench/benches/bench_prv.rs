//! Criterion micro-bench: PRV parsing of three trace bodies built
//! in-process with the simulator and the tracer — a `C`-heavy cg trace
//! sampled every 10 ms (ten counter values per communication record), a
//! stencil trace sampled every 2 ms (`C` and `S` lines mixed) and an
//! `S`-heavy md trace sampled every millisecond.
//!
//! `prv_parse_lenient` parses each whole body; `prv_parse_record_line`
//! feeds the md body's record lines one at a time, as a streaming session
//! does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phasefold_model::{prv, DurNs};
use phasefold_simapp::workloads::{cg, md, stencil};
use phasefold_simapp::{simulate, Program, SimConfig};
use phasefold_tracer::{trace_run, TracerConfig};

fn body(program: &Program, period: DurNs) -> String {
    let sim = simulate(program, &SimConfig { ranks: 8, ..SimConfig::default() });
    let tracer = TracerConfig { sampling_period: period, ..TracerConfig::default() };
    prv::write_trace(&trace_run(&program.registry, &sim.timelines, &tracer))
}

fn bench_prv(c: &mut Criterion) {
    let cg = cg::build(&cg::CgParams { iterations: 250, ..Default::default() });
    let stencil = stencil::build(&stencil::StencilParams::default());
    let md = md::build(&md::MdParams::default());
    let bodies = [
        ("cg_c_heavy", body(&cg, DurNs::from_millis(10))),
        ("stencil_mixed", body(&stencil, DurNs::from_millis(2))),
        ("md_s_heavy", body(&md, DurNs::from_millis(1))),
    ];
    let mut group = c.benchmark_group("prv_parse_lenient");
    for (name, text) in &bodies {
        let lines = text.lines().count();
        group.bench_with_input(BenchmarkId::new(*name, lines), text, |b, text| {
            b.iter(|| {
                let (trace, _) = prv::parse_trace_lenient(text).expect("generated bodies parse");
                trace.total_records()
            })
        });
    }
    group.finish();

    let (_, md_text) = &bodies[2];
    let records: Vec<&str> = md_text.lines().filter(|l| !l.starts_with('#')).collect();
    let mut group = c.benchmark_group("prv_parse_record_line");
    group.bench_with_input(BenchmarkId::new("md_s_heavy", records.len()), &records, |b, lines| {
        b.iter(|| {
            lines
                .iter()
                .enumerate()
                .map(|(i, line)| prv::parse_record_line(line, i + 1).is_ok() as usize)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_prv);
criterion_main!(benches);

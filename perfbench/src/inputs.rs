//! Workload inputs, made from the benchmark seed with the simulator and
//! tracer. This is set-up: none of it is timed.

use phasefold::report::render_report;
use phasefold::{analyze_trace, AnalysisConfig};
use phasefold_model::{prv, DurNs};
use phasefold_simapp::workloads::{amg, cg, md, stencil, synthetic};
use phasefold_simapp::{simulate, Program, SimConfig};
use phasefold_tracer::{trace_run, TracerConfig};

/// One generated trace in PRV text form.
pub struct Input {
    /// Short description (`cg 8x400 @10ms`).
    pub name: String,
    /// The PRV bytes the program receives.
    pub text: String,
    /// Trace records (events and samples) in it.
    pub records: usize,
}

/// The shape of a trace to generate.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Simulated application: `synthetic`, `cg`, `stencil`, `md` or `amg`.
    pub app: &'static str,
    /// SPMD ranks.
    pub ranks: usize,
    /// Iterations (cg, synthetic), steps in tens (stencil), steps in
    /// decades of 20 (md) or V-cycles (amg).
    pub iterations: u64,
    /// Sampling period in milliseconds.
    pub period_ms: f64,
}

fn program(spec: &Spec) -> Program {
    match spec.app {
        "synthetic" => synthetic::build(&synthetic::SyntheticParams {
            iterations: spec.iterations,
            ..Default::default()
        }),
        "cg" => cg::build(&cg::CgParams { iterations: spec.iterations, ..Default::default() }),
        "stencil" => {
            let steps = spec.iterations.div_ceil(10) * 10;
            stencil::build(&stencil::StencilParams { steps, ..Default::default() })
        }
        "md" => {
            let p = md::MdParams::default();
            md::build(&md::MdParams { decades: (spec.iterations / p.rebuild_every).max(1), ..p })
        }
        "amg" => amg::build(&amg::AmgParams { cycles: spec.iterations, ..Default::default() }),
        other => panic!("unknown application {other}"),
    }
}

/// Simulates and traces `spec` with simulator seed `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Input {
    let program = program(spec);
    let sim = simulate(&program, &SimConfig { ranks: spec.ranks, seed, ..SimConfig::default() });
    let tracer = TracerConfig {
        sampling_period: DurNs::from_secs_f64(spec.period_ms / 1e3),
        ..TracerConfig::default()
    };
    let trace = trace_run(&program.registry, &sim.timelines, &tracer);
    Input {
        name: format!("{} {}x{} @{}ms", spec.app, spec.ranks, spec.iterations, spec.period_ms),
        text: prv::write_trace(&trace),
        records: trace.total_records(),
    }
}

/// The report the program must produce for `text`:
/// `render_report(analyze_trace(parse_trace_lenient(text)))` under `config`.
pub fn expected_report(text: &str, config: &AnalysisConfig) -> String {
    let (trace, _) = prv::parse_trace_lenient(text).expect("generated traces parse");
    render_report(&analyze_trace(&trace, config), &trace.registry)
}

/// Runs `f` over `items` on `threads` scoped threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> = items.iter().map(|_| Default::default()).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("every slot filled")).collect()
}

/// SplitMix64: derives independent per-input seeds from the benchmark seed.
pub struct Seeds(u64);

impl Seeds {
    /// A stream rooted at `seed` and a per-workload `salt`.
    pub fn new(seed: u64, salt: &str) -> Seeds {
        let h = salt.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        Seeds(seed ^ h)
    }

    /// The next seed.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

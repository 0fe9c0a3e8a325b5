//! `serve-cold` and `serve-warm`: the daemon under open-loop load over
//! loopback HTTP.
//!
//! * `serve-cold` cycles through a pool of distinct, densely sampled `md`
//!   and `amg` traces three times the daemon's result-cache size, so every
//!   analysis misses the memo and the cache and nothing coalesces; one
//!   request in eight compares the baseline trace against the fingerprint
//!   stored at set-up.
//! * `serve-warm` draws Zipf-weighted from a working set of a dozen
//!   mid-size traces, well under the cache size, so nearly every request
//!   hits.
//!
//! A run measures latency at a fixed reference rate and bisects a fixed
//! ladder of rates (5 % apart) for the highest one that keeps the tail
//! under the workload's latency limit with no growing backlog. The two
//! alternate in rounds — a reference slice, then a ladder probe — so both
//! figures span the whole run: the speed of a shared machine drifts over
//! seconds, and a figure measured in one block of the run would carry
//! whatever that block saw.

use crate::daemon::Daemon;
use crate::http::{self, Reply};
use crate::inputs::{self, Input, Seeds, Spec};
use crate::load::{self, Job, Run};
use crate::probe::{self, Prom};
use crate::{stats, Args, Outcome};
use phasefold::AnalysisConfig;
use std::time::{Duration, Instant};

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every request misses.
    Cold,
    /// Nearly every request hits.
    Warm,
}

/// Request classes, for per-class accounting.
const ANALYZE: usize = 0;
const COMPARE: usize = 1;

/// Fixed per-workload load parameters.
#[derive(Clone, Copy)]
struct Plan {
    /// Limit on the tail latency (from due time) a sustained rate must meet.
    limit_ms: f64,
    /// Rate at which `p50_ms` and `tail_ms` are measured.
    reference_rps: f64,
    /// Lowest ladder rung; rung k offers `base_rps · 1.05^k`.
    base_rps: f64,
    /// Rungs on the ladder.
    rungs: usize,
}

impl Mode {
    /// Load connections. The daemon pins each connection to an event-loop
    /// shard by a hash of its file descriptor, and cache hits are answered
    /// on that shard's thread: two connections share one shard in about
    /// half of all runs, which halves hit capacity. One connection keeps
    /// `serve-warm` off that coin toss. Misses run on the worker pool,
    /// where the shard does not matter, so `serve-cold` uses one
    /// connection per core.
    fn conns(self, nproc: usize) -> usize {
        match self {
            Mode::Cold => nproc,
            Mode::Warm => 1,
        }
    }

    fn plan(self) -> Plan {
        match self {
            Mode::Cold => Plan { limit_ms: 200.0, reference_rps: 20.0, base_rps: 5.0, rungs: 80 },
            // 24 req/s over the reference share of a 20 s run is 192
            // samples, so `tail_ms` is p90. At 50 req/s (400 samples, p95)
            // the tail sat where the scheduler hiccups of a shared machine
            // begin, and its run-to-run spread was 0.17.
            Mode::Warm => Plan { limit_ms: 25.0, reference_rps: 24.0, base_rps: 50.0, rungs: 80 },
        }
    }
}

/// Ladder step: one rung offers 5 % more than the one below.
const STEP: f64 = 1.05;

/// How long the generator waits for one answer.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Result-cache entries the daemon is started with.
const CACHE_ENTRIES: usize = 64;

const COLD_SPECS: [Spec; 4] = [
    Spec { app: "md", ranks: 2, iterations: 20, period_ms: 0.5 },
    Spec { app: "amg", ranks: 2, iterations: 6, period_ms: 0.5 },
    Spec { app: "md", ranks: 2, iterations: 40, period_ms: 1.0 },
    Spec { app: "amg", ranks: 2, iterations: 10, period_ms: 1.0 },
];

const WARM_SPECS: [Spec; 4] = [
    Spec { app: "cg", ranks: 4, iterations: 60, period_ms: 5.0 },
    Spec { app: "stencil", ranks: 4, iterations: 60, period_ms: 5.0 },
    Spec { app: "md", ranks: 2, iterations: 20, period_ms: 1.0 },
    Spec { app: "amg", ranks: 2, iterations: 6, period_ms: 1.0 },
];

/// Everything the load needs, made at set-up.
struct Bodies {
    /// Analyze bodies, with their expected reports.
    traces: Vec<Input>,
    expected: Vec<String>,
    /// Order in which analyze requests draw from `traces`.
    order: Vec<usize>,
    /// The compare body: the trace behind the stored baseline fingerprint.
    baseline: Input,
}

fn make_bodies(args: &Args, mode: Mode, budget_requests: usize) -> Bodies {
    let mut seeds = Seeds::new(args.seed, if mode == Mode::Cold { "serve-cold" } else { "serve-warm" });
    let (specs, n) = match mode {
        Mode::Cold => (&COLD_SPECS, 3 * CACHE_ENTRIES),
        Mode::Warm => (&WARM_SPECS, 12),
    };
    let jobs: Vec<(Spec, u64)> = (0..n).map(|i| (specs[i % specs.len()], seeds.next())).collect();
    let traces = inputs::par_map(&jobs, args.nproc, |(spec, s)| inputs::generate(spec, *s));
    // The daemon analyses with the default configuration; reports do not
    // depend on the thread count, so the reference runs one per core.
    let sequential = AnalysisConfig { threads: Some(1), ..AnalysisConfig::default() };
    let expected = inputs::par_map(&traces, args.nproc, |t| inputs::expected_report(&t.text, &sequential));
    let order = match mode {
        // Round-robin: a trace comes back only after 3x the cache size of
        // other traces, long after its cache entry was evicted.
        Mode::Cold => (0..budget_requests).map(|i| i % n).collect(),
        // Zipf-like: trace k is drawn with weight 1/(k+1).
        Mode::Warm => {
            let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k + 1) as f64).collect();
            let total: f64 = weights.iter().sum();
            (0..budget_requests)
                .map(|_| {
                    let mut u = (seeds.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
                    weights.iter().position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(n - 1)
                })
                .collect()
        }
    };
    let baseline = inputs::generate(&COLD_SPECS[0], seeds.next());
    Bodies { traces, expected, order, baseline }
}

/// One schedule segment: `rate` requests per second for `dur`, drawing
/// analyze bodies from `cursor` on.
fn schedule<'a>(
    mode: Mode,
    b: &'a Bodies,
    cursor: &mut usize,
    rate: f64,
    dur: Duration,
) -> Vec<Job<'a>> {
    let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
    load::even(n, rate, Duration::ZERO)
        .enumerate()
        .map(|(i, due)| {
            if mode == Mode::Cold && i % 8 == 7 {
                Job {
                    due,
                    method: "POST",
                    path: "/v1/compare?baseline=base".into(),
                    body: b.baseline.text.as_bytes(),
                    class: COMPARE,
                    expect: 0,
                }
            } else {
                let t = b.order[*cursor % b.order.len()];
                *cursor += 1;
                Job {
                    due,
                    method: "POST",
                    path: "/v1/analyze".into(),
                    body: b.traces[t].text.as_bytes(),
                    class: ANALYZE,
                    expect: t,
                }
            }
        })
        .collect()
}

/// The output check every 2xx answer must pass.
fn check(b: &Bodies) -> impl Fn(&Job<'_>, &Reply) -> bool + Sync + '_ {
    move |job, reply| match job.class {
        ANALYZE => reply.body == b.expected[job.expect].as_bytes(),
        _ => String::from_utf8_lossy(&reply.body).contains("\"regressed\":false"),
    }
}

/// Latency limit verdict for one ladder probe.
fn sustained(run: &Run, limit_ms: f64) -> bool {
    let sent: Vec<&load::Outcome> = run.outcomes.iter().filter(|o| o.sent).collect();
    if run.abandoned || sent.is_empty() || sent.iter().any(|o| !o.ok) {
        return false;
    }
    let lat = stats::sorted(&sent.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
    let tail = stats::tail(&lat).map_or(lat[lat.len() - 1], |t| t.value);
    // A growing backlog shows as the last quarter's latencies climbing.
    let last = stats::median(&sent[sent.len() * 3 / 4..].iter().map(|o| o.latency_ms).collect::<Vec<_>>());
    tail <= limit_ms && last <= limit_ms / 2.0
}

/// Per-class latencies (ms) of the sent jobs, from due time.
fn latencies(jobs: &[Job<'_>], run: &Run, class: usize, f: fn(&load::Outcome) -> f64) -> Vec<f64> {
    let v: Vec<f64> = jobs
        .iter()
        .zip(&run.outcomes)
        .filter(|(j, o)| j.class == class && o.sent)
        .map(|(_, o)| f(o))
        .collect();
    stats::sorted(&v)
}

/// Counts a run's attempts and failures into `o`.
fn account(o: &mut Outcome, run: &Run) {
    for out in run.outcomes.iter().filter(|x| x.sent) {
        o.attempted += 1;
        if !out.ok {
            o.failed += 1;
        }
    }
}

/// Records in the bodies of `jobs` that were answered correctly.
fn records_ok(jobs: &[Job<'_>], run: &Run, b: &Bodies) -> usize {
    jobs.iter()
        .zip(&run.outcomes)
        .filter(|(_, o)| o.ok)
        .map(|(j, _)| match j.class {
            ANALYZE => b.traces[j.expect].records,
            COMPARE => b.baseline.records,
            _ => 0,
        })
        .sum()
}

/// Starts the daemon three times and keeps the last; returns it with the
/// median time from spawn to the first `200 /healthz`.
pub fn start_daemon(args: &Args, flags: &[String], fresh: &dyn Fn(usize) -> Vec<String>) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..3 {
        let mut all = flags.to_vec();
        all.extend(fresh(i));
        let (d, t) = Daemon::start(&args.daemon, &args.work, &all)?;
        times.push(t.as_secs_f64());
        if i < 2 {
            d.stop()?;
        } else {
            kept = Some(d);
        }
    }
    let d = kept.ok_or("no daemon")?;
    Ok((d, stats::median(&times)))
}

/// The window of daemon counters a traced run reads.
pub struct Scrape {
    pub prom: Prom,
    pub spans: std::collections::BTreeMap<String, (u64, f64)>,
    pub daemon_cpu_ms: f64,
    pub gen_cpu_ms: f64,
    pub at: Instant,
}

/// Scrapes `/metrics` (JSON first, which drains the daemon's spans, then
/// Prometheus text) and both processes' CPU time.
pub fn scrape(d: &Daemon) -> Result<Scrape, String> {
    let json = http::once(d.addr, "GET", "/metrics", b"").map_err(|e| format!("scrape: {e}"))?;
    let prom = http::once(d.addr, "GET", "/metrics?format=prom", b"").map_err(|e| format!("scrape: {e}"))?;
    Ok(Scrape {
        prom: Prom::parse(&String::from_utf8_lossy(&prom.body)),
        spans: probe::span_totals(&String::from_utf8_lossy(&json.body)),
        daemon_cpu_ms: probe::cpu_ms(&d.pid()),
        gen_cpu_ms: probe::cpu_ms("self"),
        at: Instant::now(),
    })
}

impl Scrape {
    /// Mean duration of span `name` over the window ending at this scrape.
    pub fn span_mean_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(n, total)| total / n.max(1) as f64)
    }
}

/// Generator validity: the share of CPU it used and how late it sent.
pub fn gen_metrics(o: &mut Outcome, args: &Args, a: &Scrape, b: &Scrape, lag_sorted: &[f64]) {
    let wall_ms = (b.at - a.at).as_secs_f64() * 1e3;
    o.set("gen.lag_p99_ms", stats::percentile(lag_sorted, 99.0));
    o.set("gen.cpu_share", (b.gen_cpu_ms - a.gen_cpu_ms) / (wall_ms * args.nproc as f64));
}

/// A reference slice whose generator lag p99 exceeds this is measured
/// again, up to `TRIES` times in all, keeping the least late try.
const DISCARD_LAG_MS: f64 = 5.0;
const TRIES: usize = 4;

/// A run whose kept reference slices still lagged by more than this share
/// of the workload's latency limit (and `DISCARD_LAG_MS`) is invalid.
const MAX_LAG_SHARE: f64 = 0.1;

/// Reference slices of an untraced run, and the shares of `--seconds` the
/// reference rate and the ladder get.
const SLICES: usize = 8;
const REFERENCE_SHARE: f64 = 0.4;
const LADDER_SHARE: f64 = 0.5;

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let plan = mode.plan();
    let secs = args.seconds.as_secs_f64();
    let top_rps = plan.base_rps * STEP.powi(plan.rungs as i32 - 1);
    let bodies = make_bodies(args, mode, ((plan.reference_rps + top_rps) * secs) as usize + 64);

    let fleet = args.work.join("fleet");
    let flags = vec![
        "--workers".to_string(),
        args.nproc.to_string(),
        "--cache-entries".into(),
        CACHE_ENTRIES.to_string(),
        "--fleet-dir".into(),
        fleet.display().to_string(),
    ];
    let (d, setup_s) = start_daemon(args, &flags, &|_| Vec::new())?;
    o.note(format!("daemon: {} serve {}", args.daemon.display(), d.flags.join(" ")));
    let stored = http::once(d.addr, "POST", "/v1/fingerprints?build=base", bodies.baseline.text.as_bytes())
        .map_err(|e| format!("storing baseline: {e}"))?;
    if stored.status != 200 {
        return Err(format!("storing the baseline fingerprint answered {}", stored.status));
    }
    if mode == Mode::Warm {
        // Fill the cache: one (checked) miss per working-set trace.
        let mut conn = http::Conn::new(d.addr, Duration::from_secs(30));
        for (t, want) in bodies.traces.iter().zip(&bodies.expected) {
            let r = conn.request("POST", "/v1/analyze", t.text.as_bytes()).map_err(|e| e.to_string())?;
            o.attempted += 1;
            if r.status != 200 || r.body != want.as_bytes() {
                o.failed += 1;
            }
        }
    }
    let total_bytes: usize = bodies.traces.iter().map(|t| t.text.len()).sum();
    o.note(format!(
        "{} distinct traces, {:.0} KiB mean body",
        bodies.traces.len(),
        total_bytes as f64 / bodies.traces.len() as f64 / 1024.0
    ));

    let checker = check(&bodies);
    let mut drv = Driver {
        o,
        d: &d,
        conns: mode.conns(args.nproc),
        mode,
        plan,
        bodies: &bodies,
        cursor: 0,
        trace: args.trace,
        checker: &checker,
    };
    if args.trace {
        let slice = drv.reference(Duration::from_secs_f64(0.6 * secs))?;
        let after = scrape(&d)?;
        let before = slice.before.as_ref().ok_or("traced slice without a scrape")?;
        reference_notes(&mut drv.o, &plan, std::slice::from_ref(&slice));
        let o = &mut drv.o;
        daemon_layers(o, &slice.jobs, &slice.run, before, &after);
        gen_metrics(o, args, before, &after, &slice.lag_ms);
        let sample = &bodies.traces[..bodies.traces.len().min(16)];
        let expected = &bodies.expected[..sample.len()];
        o.failed += crate::library::measure_layers(o, sample, expected, args.seconds.mul_f64(0.4)) as u64;
        o.absent_layers_are_zero();
        let o = std::mem::take(o);
        d.stop()?;
        return Ok(o);
    }

    // Rounds of one reference slice and one ladder probe, until both the
    // reference time and the bisection are done.
    let slice_dur = Duration::from_secs_f64(REFERENCE_SHARE * secs / SLICES as f64);
    let probes = (plan.rungs as f64).log2().ceil();
    let probe_dur = Duration::from_secs_f64(LADDER_SHARE * secs / probes);
    let rate_of = |rung: usize| plan.base_rps * STEP.powi(rung as i32);
    let mut slices = Vec::new();
    let mut ladder = Bisect { lo: 0, hi: plan.rungs, missed_once: false, best: None };
    loop {
        let rung = ladder.next();
        if slices.len() >= SLICES && rung.is_none() {
            break;
        }
        if slices.len() < SLICES {
            slices.push(drv.reference(slice_dur)?);
        }
        if let Some(rung) = rung {
            let result = drv.probe(rung, rate_of(rung), probe_dur);
            ladder.record(rung, rate_of(rung), result);
        }
    }
    let (rate, (records, elapsed)) = match ladder.best {
        Some(b) => b,
        // Only the lowest rung was left: measure it so the figure is real.
        None => (plan.base_rps, drv.probe(0, plan.base_rps, probe_dur).unwrap_or((0, probe_dur))),
    };
    let lat = reference_notes(&mut drv.o, &plan, &slices);
    let mut o = std::mem::take(&mut drv.o);
    let rss = probe::peak_rss_mb(&d.pid());
    d.stop()?;
    o.note(format!("sustained {rate:.2} req/s under a {} ms tail limit", plan.limit_ms));
    o.set("setup_s", setup_s);
    o.set("records_per_s", records as f64 / elapsed.as_secs_f64());
    o.set("p50_ms", stats::percentile(&lat, 50.0));
    o.set("tail_ms", crate::tail_value(&lat));
    o.set("sustained_rps", rate);
    o.set("peak_rss_mb", rss);
    Ok(o)
}

/// Notes the reference-rate latencies pooled over `slices` and marks the
/// run invalid when the generator fell behind; returns the sorted analyze
/// latencies from due time.
fn reference_notes(o: &mut Outcome, plan: &Plan, slices: &[Slice<'_>]) -> Vec<f64> {
    let pooled = |class: usize| {
        let v: Vec<f64> = slices.iter().flat_map(|s| latencies(&s.jobs, &s.run, class, |x| x.latency_ms)).collect();
        stats::sorted(&v)
    };
    let lat = pooled(ANALYZE);
    let secs: f64 = slices.iter().map(|s| s.run.elapsed.as_secs_f64()).sum();
    o.note(format!("reference rate {} req/s for {secs:.1} s in {} slice(s):", plan.reference_rps, slices.len()));
    o.note(crate::tail_note("  analyze latency from due time", &lat));
    o.note(format!(
        "  analyze latency p90 {:.3} / p95 {:.3} / p98 {:.3} / p99 {:.3} ms",
        stats::percentile(&lat, 90.0),
        stats::percentile(&lat, 95.0),
        stats::percentile(&lat, 98.0),
        stats::percentile(&lat, 99.0)
    ));
    let compare = pooled(COMPARE);
    if !compare.is_empty() {
        o.note(crate::tail_note("  compare latency", &compare));
    }
    let lag = stats::sorted(&slices.iter().flat_map(|s| s.lag_ms.iter().copied()).collect::<Vec<_>>());
    let lag_p99 = stats::percentile(&lag, 99.0);
    o.note(format!("  generator lag p99 {lag_p99:.3} ms"));
    let max_lag_ms = (MAX_LAG_SHARE * plan.limit_ms).max(DISCARD_LAG_MS);
    if lag_p99 > max_lag_ms {
        o.invalid = Some(format!("generator lag p99 {lag_p99:.3} ms > {max_lag_ms} ms: it fell behind its schedule"));
    }
    lat
}

/// One reference slice: the jobs played, how they ran, the sorted
/// generator lag, and (traced runs) the daemon scrape taken before it.
struct Slice<'a> {
    jobs: Vec<Job<'a>>,
    run: Run,
    lag_ms: Vec<f64>,
    before: Option<Scrape>,
}

/// Bisection over the ladder's rungs. The lowest rung is assumed
/// sustainable and the one past the top is not; a probe that misses is
/// repeated once before its rung counts as missed, so one hiccup of a
/// shared machine does not cut the search short.
struct Bisect {
    lo: usize,
    hi: usize,
    missed_once: bool,
    /// Highest sustained rate, with the records answered correctly at it
    /// and the probe's elapsed time.
    best: Option<(f64, (usize, Duration))>,
}

impl Bisect {
    /// The rung to probe next; `None` once the search is done.
    fn next(&self) -> Option<usize> {
        (self.hi - self.lo > 1).then_some((self.lo + self.hi) / 2)
    }

    fn record(&mut self, rung: usize, rate: f64, result: Option<(usize, Duration)>) {
        match result {
            Some(measured) => {
                self.best = Some((rate, measured));
                self.lo = rung;
                self.missed_once = false;
            }
            None if !self.missed_once => self.missed_once = true,
            None => {
                self.hi = rung;
                self.missed_once = false;
            }
        }
    }
}

/// Plays load against one daemon and counts what it attempted.
struct Driver<'a, C> {
    o: Outcome,
    d: &'a Daemon,
    conns: usize,
    mode: Mode,
    plan: Plan,
    bodies: &'a Bodies,
    /// Next draw from `bodies.order`.
    cursor: usize,
    /// Scrape the daemon before each reference slice.
    trace: bool,
    checker: &'a C,
}

impl<'a, C: Fn(&Job<'_>, &Reply) -> bool + Sync> Driver<'a, C> {
    /// Offers the reference rate for `dur`. A try in which the generator
    /// fell behind its schedule is not a data point: the slice is measured
    /// again, and the least late try is kept.
    fn reference(&mut self, dur: Duration) -> Result<Slice<'a>, String> {
        let rate = self.plan.reference_rps;
        let mut kept: Option<Slice<'a>> = None;
        for _ in 0..TRIES {
            let before = if self.trace { Some(scrape(self.d)?) } else { None };
            let jobs = schedule(self.mode, self.bodies, &mut self.cursor, rate, dur);
            let run = load::open_loop(self.d.addr, self.conns, &jobs, None, TIMEOUT, self.checker);
            account(&mut self.o, &run);
            let lag_ms = stats::sorted(&run.outcomes.iter().filter(|x| x.sent).map(|x| x.lag_ms).collect::<Vec<_>>());
            let lag_p99 = stats::percentile(&lag_ms, 99.0);
            if kept.as_ref().is_none_or(|k| lag_p99 < stats::percentile(&k.lag_ms, 99.0)) {
                kept = Some(Slice { jobs, run, lag_ms, before });
            }
            if lag_p99 <= DISCARD_LAG_MS {
                break;
            }
            self.o.note(format!("reference slice measured again: generator lag p99 {lag_p99:.3} ms > {DISCARD_LAG_MS} ms"));
        }
        kept.ok_or_else(|| "no reference slice".to_string())
    }

    /// Offers `rate` for `dur`; returns the records answered correctly and
    /// the elapsed time when the rung is sustained.
    fn probe(&mut self, rung: usize, rate: f64, dur: Duration) -> Option<(usize, Duration)> {
        let jobs = schedule(self.mode, self.bodies, &mut self.cursor, rate, dur);
        let abandon = Duration::from_secs_f64(2.0 * self.plan.limit_ms / 1e3);
        let run = load::open_loop(self.d.addr, self.conns, &jobs, Some(abandon), TIMEOUT, self.checker);
        let pass = sustained(&run, self.plan.limit_ms);
        let lat = stats::sorted(&run.outcomes.iter().filter(|x| x.sent).map(|x| x.latency_ms).collect::<Vec<_>>());
        self.o.note(format!(
            "ladder rung {rung:>2} {rate:>8.2} req/s: {} of {} sent, {} ok, p50 {:.2} ms, tail {:.2} ms{} -> {}",
            run.outcomes.iter().filter(|x| x.sent).count(),
            jobs.len(),
            run.outcomes.iter().filter(|x| x.ok).count(),
            stats::percentile(&lat, 50.0),
            crate::tail_value(&lat),
            if run.abandoned { ", abandoned" } else { "" },
            if pass { "sustained" } else { "not sustained" }
        ));
        if pass {
            // Rates at or below the sustained one count towards attempts.
            account(&mut self.o, &run);
            Some((records_ok(&jobs, &run, self.bodies), run.elapsed))
        } else {
            // Above capacity, refusals and timeouts are the expected
            // overload answer; wrong answers still count as failures.
            for out in run.outcomes.iter().filter(|x| x.status / 100 == 2) {
                self.o.attempted += 1;
                self.o.failed += u64::from(!out.ok);
            }
            None
        }
    }
}

/// Daemon-side layer metrics over the reference window `a`..`b`.
fn daemon_layers(o: &mut Outcome, jobs: &[Job<'_>], run: &Run, a: &Scrape, b: &Scrape) {
    let lat = b.prom.hist_since(&a.prom, "serve_latency_analyze");
    let n = lat.count.max(1) as f64;
    let hits = b.prom.delta(&a.prom, "serve_cache_hits");
    let misses = b.prom.delta(&a.prom, "serve_cache_misses");
    let lookup = b.prom.hist_since(&a.prom, "serve_cache_lookup");
    let queue = b.prom.hist_since(&a.prom, "serve_queue_wait");
    let analyze = b.prom.hist_since(&a.prom, "serve_analyze_time");
    let compare = b.prom.hist_since(&a.prom, "serve_latency_compare");
    let client = latencies(jobs, run, ANALYZE, |x| x.service_ms);
    let requests: f64 = ["analyze", "compare"]
        .iter()
        .map(|e| b.prom.hist_since(&a.prom, &format!("serve_latency_{e}")).count as f64)
        .sum();
    // Per analyze request: the lookups it made, the queue wait of the
    // requests that missed the memo and queued, and the analyses it ran.
    let queued = (n - hits).max(0.0);
    let explained = (lookup.sum_ms() + queue.mean_ms() * queued + analyze.sum_ms()) / n;
    o.set("serve.daemon_p50_ms", lat.quantile_ms(0.5));
    o.set("serve.daemon_p99_ms", lat.quantile_ms(0.99));
    o.set("serve.outside_handler_ms", stats::percentile(&client, 50.0) - lat.quantile_ms(0.5));
    o.set("serve.cache_lookup_ms", lookup.mean_ms());
    o.set("serve.hit_ratio", hits / (hits + misses).max(1.0));
    o.set("serve.coalesced", b.prom.delta(&a.prom, "serve_analyze_coalesced"));
    o.set("serve.queue_wait_ms", queue.mean_ms());
    o.set("serve.queue_rejections", b.prom.delta(&a.prom, "serve_queue_rejections"));
    o.set("serve.analyze_ms", analyze.mean_ms());
    o.set("serve.residual_ms", lat.mean_ms() - explained);
    o.set("serve.cpu_ms_per_req", (b.daemon_cpu_ms - a.daemon_cpu_ms) / requests.max(1.0));
    o.set("fleet.compare_ms", compare.mean_ms());
    o.note(format!(
        "daemon, reference window: {} analyze requests, mean {:.3} ms = lookup {:.3} + queue {:.3} + analyze {:.3} + residual {:.3} (read, HTTP, parse, render, write)",
        lat.count,
        lat.mean_ms(),
        lookup.sum_ms() / n,
        queue.mean_ms() * queued / n,
        analyze.sum_ms() / n,
        lat.mean_ms() - explained,
    ));
}

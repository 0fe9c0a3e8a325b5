//! **E16 — Serving throughput and latency**: closed-loop load test of the
//! `phasefold-serve` daemon.
//!
//! At each concurrency level (1/4/16/64/256/1024 clients by default)
//! every client
//! runs a closed loop of `POST /v1/analyze` requests over a keep-alive
//! connection, cycling through a small set of distinct synthetic traces so
//! the first pass misses the daemon's result cache and later passes hit
//! it. `503` answers are backpressure, not failures: the client honours
//! `Retry-After` and retries, and the run *asserts* that every well-formed
//! request eventually lands — the "zero dropped requests" acceptance
//! criterion.
//!
//! Reported per level: throughput, p50/p99 latency, cache hit ratio, and
//! the retry count. Right after the *first* (lowest-concurrency) level
//! the generator also scrapes the daemon's own `/metrics` latency
//! histogram (`serve.latency.analyze`), so `BENCH_serve.json` carries
//! both the client-observed and the daemon-observed percentiles for that
//! level — `scripts/serve.sh` gates on their self-consistency. The
//! comparison is anchored at the lowest concurrency deliberately: with
//! more clients than cores, client stopwatches include CPU-contention
//! waits that the daemon's handler stopwatch legitimately never sees, so
//! only the uncontended closed loop measures the same thing twice.
//! Written as `BENCH_serve.json` (one scalar per line, greppable by
//! `scripts/serve.sh`) plus `results/e16_serve_load.csv`.
//!
//! ```text
//! cargo run --release -p phasefold-bench --bin exp_serve_load
//!     [out.json] [--addr H:P] [--requests N] [--levels 1,4,16,64,256,1024]
//! ```
//!
//! With `--addr` the generator drives an externally-booted daemon (the
//! `scripts/serve.sh` smoke path) and leaves its lifecycle alone;
//! otherwise it boots one in-process daemon per level and verifies a clean
//! drain after each.

use phasefold_bench::{banner, fmt, write_results, Table};
use phasefold_serve::{Client, ServeConfig};
use phasefold_simapp::workloads::synthetic::{build, SyntheticParams};
use phasefold_simapp::{simulate, SimConfig};
use phasefold_tracer::{trace_run, TracerConfig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
const DISTINCT_TRACES: usize = 4;

struct LevelResult {
    concurrency: usize,
    requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    hit_ratio: f64,
    retries: usize,
    drain_clean: bool,
}

fn make_traces() -> Vec<Arc<String>> {
    (0..DISTINCT_TRACES as u64)
        .map(|seed| {
            let program =
                build(&SyntheticParams { iterations: 120, ..SyntheticParams::default() });
            let out = simulate(&program, &SimConfig { ranks: 2, seed, ..SimConfig::default() });
            let trace = trace_run(&program.registry, &out.timelines, &TracerConfig::default());
            Arc::new(phasefold_model::prv::write_trace(&trace))
        })
        .collect()
}

/// Daemon-side latency as the daemon itself measured it.
struct DaemonLatency {
    p50_ms: f64,
    p99_ms: f64,
    count: u64,
}

/// Pulls one numeric field (`"name": 1.234`) out of a single-line JSON
/// histogram entry.
fn json_field(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": ")).nth(1)?;
    rest.split(|c: char| c == ',' || c == ' ' || c == '}')
        .next()?
        .parse()
        .ok()
}

/// Scrapes `GET /metrics` and extracts the daemon's own
/// `serve.latency.analyze` histogram (cumulative since daemon boot).
fn scrape_daemon_latency(addr: &str) -> Option<DaemonLatency> {
    let mut client = Client::connect(addr, Duration::from_secs(30)).ok()?;
    let resp = client.request("GET", "/metrics", &[], b"").ok()?;
    if resp.status != 200 {
        return None;
    }
    let text = resp.text();
    let line = text.lines().find(|l| l.contains("\"serve.latency.analyze\""))?;
    Some(DaemonLatency {
        p50_ms: json_field(line, "p50_ms")?,
        p99_ms: json_field(line, "p99_ms")?,
        count: json_field(line, "count")? as u64,
    })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Runs one closed-loop level against `addr`. Panics if any client drops a
/// request (exhausts its retry budget) — that is an acceptance failure,
/// not a data point.
fn run_level(
    addr: &str,
    concurrency: usize,
    total_requests: usize,
    traces: &[Arc<String>],
) -> (Vec<f64>, usize, usize, f64) {
    let hits = Arc::new(AtomicUsize::new(0));
    let retries = Arc::new(AtomicUsize::new(0));
    let per_client = total_requests.div_ceil(concurrency);
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..concurrency {
        let addr = addr.to_string();
        let traces: Vec<Arc<String>> = traces.to_vec();
        let hits = Arc::clone(&hits);
        let retries = Arc::clone(&retries);
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(per_client);
            let mut client =
                Client::connect(&addr, Duration::from_secs(120)).expect("connect to daemon");
            // One untimed warmup request per connection: the daemon's
            // accept + per-connection thread spawn would otherwise land
            // entirely in the first timed sample, and steady-state request
            // latency is the statistic every gate downstream consumes.
            let _ = client.request("GET", "/healthz", &[], b"");
            for r in 0..per_client {
                let body = &traces[(c + r) % traces.len()];
                let t0 = Instant::now();
                let mut landed = false;
                for _attempt in 0..500 {
                    let resp = match client.request("POST", "/v1/analyze", &[], body.as_bytes()) {
                        Ok(resp) => resp,
                        Err(_) => {
                            // Keep-alive connection was cut (e.g. timeout);
                            // reconnect and retry.
                            client = Client::connect(&addr, Duration::from_secs(120))
                                .expect("reconnect to daemon");
                            continue;
                        }
                    };
                    match resp.status {
                        200 => {
                            if resp.cache_hit() {
                                hits.fetch_add(1, Ordering::Relaxed);
                            }
                            landed = true;
                            break;
                        }
                        503 => {
                            retries.fetch_add(1, Ordering::Relaxed);
                            let backoff = resp
                                .header("retry-after")
                                .and_then(|v| v.parse::<u64>().ok())
                                .unwrap_or(1);
                            // Honour Retry-After but cap it: the hint is
                            // seconds-granular and the queue drains in ms.
                            std::thread::sleep(Duration::from_millis((backoff * 50).min(1000)));
                        }
                        other => panic!("unexpected status {other} from daemon"),
                    }
                }
                assert!(landed, "client {c} dropped a well-formed request after 500 attempts");
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            latencies
        }));
    }
    let mut latencies = Vec::with_capacity(total_requests);
    for h in handles {
        latencies.extend(h.join().expect("client thread panicked"));
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    (
        latencies,
        hits.load(Ordering::Relaxed),
        retries.load(Ordering::Relaxed),
        wall_ms,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = DEFAULT_OUT.to_string();
    let mut external_addr: Option<String> = None;
    let mut total_requests = 2048usize;
    let mut levels = vec![1usize, 4, 16, 64, 256, 1024];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                external_addr = Some(args.get(i + 1).expect("--addr needs a value").clone());
                i += 2;
            }
            "--requests" => {
                total_requests = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a number");
                i += 2;
            }
            "--levels" => {
                levels = args
                    .get(i + 1)
                    .expect("--levels needs a value")
                    .split(',')
                    .map(|v| v.parse().expect("bad level"))
                    .collect();
                i += 2;
            }
            other => {
                out_path = other.to_string();
                i += 1;
            }
        }
    }

    banner(
        "E16",
        "serving throughput/latency under closed-loop load",
        "BENCH_serve.json / results/e16_serve_load.csv (scripts/serve.sh gates)",
    );
    let traces = make_traces();
    println!(
        "{} distinct traces, {} requests per level, levels {:?}{}",
        traces.len(),
        total_requests,
        levels,
        external_addr.as_deref().map_or(String::new(), |a| format!(", external daemon {a}")),
    );

    let mut results = Vec::new();
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut daemon: Option<DaemonLatency> = None;
    for &concurrency in &levels {
        // Every client runs at least a few timed requests, so the level
        // measures steady-state keep-alive throughput and not the
        // connect storm (at c=1024 a 2048-request budget would give each
        // client two samples, half of them right behind the accept burst).
        let level_requests = total_requests.max(concurrency * 4);
        let want_scrape = daemon.is_none(); // first level only — see module doc
        let (latencies, hits, retries, wall_ms, drain_clean) = match &external_addr {
            Some(addr) => {
                let (l, h, r, w) = run_level(addr, concurrency, level_requests, &traces);
                if want_scrape {
                    daemon = scrape_daemon_latency(addr);
                }
                (l, h, r, w, true) // external daemon: lifecycle not ours
            }
            None => {
                let config = ServeConfig {
                    workers: std::thread::available_parallelism().map_or(2, |n| n.get()).min(8),
                    queue_depth: 32,
                    // Room for the widest level plus reconnect churn: the
                    // zero-drop criterion is about queue backpressure, not
                    // the connection cap.
                    max_connections: (levels.iter().copied().max().unwrap_or(64) * 2).max(256),
                    ..ServeConfig::default()
                };
                let handle = phasefold_serve::serve(config).expect("boot daemon");
                let addr = handle.addr().to_string();
                let (l, h, r, w) = run_level(&addr, concurrency, level_requests, &traces);
                if want_scrape {
                    // Scrape before the drain: the histogram registry is
                    // process-global but this daemon's samples are exactly
                    // this level's requests.
                    daemon = scrape_daemon_latency(&addr);
                }
                let stats = handle.shutdown();
                assert!(stats.clean, "daemon drain was not clean: {stats:?}");
                (l, h, r, w, stats.clean)
            }
        };
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let requests = latencies.len();
        all_latencies.extend_from_slice(&latencies);
        results.push(LevelResult {
            concurrency,
            requests,
            wall_ms,
            throughput_rps: requests as f64 / (wall_ms / 1e3),
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            hit_ratio: hits as f64 / requests as f64,
            retries,
            drain_clean,
        });
    }

    let mut table = Table::new(&[
        "concurrency",
        "requests",
        "wall_ms",
        "req_per_s",
        "p50_ms",
        "p99_ms",
        "hit_ratio",
        "retries_503",
    ]);
    for r in &results {
        table.row(vec![
            r.concurrency.to_string(),
            r.requests.to_string(),
            fmt(r.wall_ms, 1),
            fmt(r.throughput_rps, 1),
            fmt(r.p50_ms, 2),
            fmt(r.p99_ms, 2),
            fmt(r.hit_ratio, 3),
            r.retries.to_string(),
        ]);
    }
    println!("{}", table.render_text());
    let csv_path = write_results("e16_serve_load.csv", &table.render_csv());
    println!("csv written to {}", csv_path.display());

    // Machine-readable artifact, one scalar per line for shell gating.
    let overall_hits: f64 = results.iter().map(|r| r.hit_ratio * r.requests as f64).sum();
    let overall_requests: usize = results.iter().map(|r| r.requests).sum();
    let worst_p99 = results.iter().map(|r| r.p99_ms).fold(0.0f64, f64::max);
    let all_clean = results.iter().all(|r| r.drain_clean);
    all_latencies.sort_by(f64::total_cmp);
    let client_p50 = percentile(&all_latencies, 0.50);
    let client_p99 = percentile(&all_latencies, 0.99);
    let daemon = daemon.expect("daemon /metrics had no serve.latency.analyze histogram");
    let gate = &results[0]; // daemon was scraped right after this level
    println!(
        "self-consistency anchor (concurrency {}): client p50 {:.2} ms / p99 {:.2} ms, \
         daemon p50 {:.2} ms / p99 {:.2} ms over {} samples",
        gate.concurrency, gate.p50_ms, gate.p99_ms, daemon.p50_ms, daemon.p99_ms, daemon.count
    );
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"phasefold-bench-serve/1\",");
    let _ = writeln!(
        json,
        "  \"build_profile\": \"{}\",",
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    // On a single-core host every concurrency level shares one CPU, so
    // throughput cannot scale and the scaling gate must not pretend it
    // was measured (same convention as BENCH.json `parallel_measured`).
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"scaling_measured\": {},", host_cores > 1);
    let _ = writeln!(json, "  \"distinct_traces\": {DISTINCT_TRACES},");
    let _ = writeln!(json, "  \"requests_per_level\": {total_requests},");
    let _ = writeln!(json, "  \"overall_requests\": {overall_requests},");
    let _ = writeln!(json, "  \"dropped_requests\": 0,");
    let _ = writeln!(
        json,
        "  \"overall_hit_ratio\": {:.4},",
        overall_hits / overall_requests as f64
    );
    let _ = writeln!(json, "  \"worst_p99_ms\": {worst_p99:.3},");
    let _ = writeln!(json, "  \"client_p50_ms\": {client_p50:.3},");
    let _ = writeln!(json, "  \"client_p99_ms\": {client_p99:.3},");
    let _ = writeln!(json, "  \"gate_concurrency\": {},", gate.concurrency);
    let _ = writeln!(json, "  \"gate_client_p50_ms\": {:.3},", gate.p50_ms);
    let _ = writeln!(json, "  \"gate_client_p99_ms\": {:.3},", gate.p99_ms);
    let _ = writeln!(json, "  \"daemon_p50_ms\": {:.3},", daemon.p50_ms);
    let _ = writeln!(json, "  \"daemon_p99_ms\": {:.3},", daemon.p99_ms);
    let _ = writeln!(json, "  \"daemon_latency_count\": {},", daemon.count);
    let _ = writeln!(json, "  \"all_drains_clean\": {all_clean},");
    let _ = writeln!(json, "  \"levels\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"concurrency\": {}, \"requests\": {}, \"wall_ms\": {:.3}, \
             \"throughput_rps\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"hit_ratio\": {:.4}, \"retries_503\": {}, \"drain_clean\": {} }}{comma}",
            r.concurrency,
            r.requests,
            r.wall_ms,
            r.throughput_rps,
            r.p50_ms,
            r.p99_ms,
            r.hit_ratio,
            r.retries,
            r.drain_clean,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("json written to {out_path}");
}

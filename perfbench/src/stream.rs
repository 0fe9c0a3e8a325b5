//! `stream-ingest`: tracers streaming into the daemon, which runs with
//! `--durability wal` on a fresh `--state-dir`.
//!
//! A closed loop, because a tracer waits for each ack: one tracer streams
//! its trace into its own session as 40-record batches and reads the
//! session's phases after every 100 batches. When a trace runs out, the
//! tracer deletes the session and starts the next trace in a new one.
//!
//! One tracer, not one per core: stream requests are handled on the
//! event-loop shard the connection is pinned to (by a hash of its file
//! descriptor), and two tracers land on the same shard in about half of
//! all runs, which doubles ack latency. A single tracer measures the
//! ingest path without that coin toss.

use crate::daemon::Daemon;
use crate::http::Conn;
use crate::inputs::{self, Input, Seeds, Spec};
use crate::load::ms;
use crate::serve::{gen_metrics, scrape, start_daemon};
use crate::{probe, stats, Args, Outcome};
use std::path::Path;
use std::time::{Duration, Instant};

/// Records per batch.
const BATCH: usize = 40;
/// Batches between phase reads.
const READ_EVERY: usize = 100;

/// The applications whose traces the tracer streams, in turn.
const SPECS: [Spec; 2] = [
    Spec { app: "cg", ranks: 4, iterations: 150, period_ms: 2.0 },
    Spec { app: "stencil", ranks: 4, iterations: 150, period_ms: 2.0 },
];

/// Distinct traces. What a phases read costs depends on the structure its
/// session froze at warm-up; many distinct sessions keep a run's figures
/// from hanging on a few of them.
const TRACES: usize = 16;

/// Whether a `/phases` answer holds at least one model once the session
/// is warm (a session still warming up has none yet).
fn phases_ok(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    if !text.contains("\"warm\": true") {
        return true;
    }
    let models = text.split("\"num_models\": ").nth(1).and_then(|v| v.split([',', '\n', '}']).next());
    models.and_then(|m| m.trim().parse::<u64>().ok()).is_some_and(|m| m >= 1)
}

/// What one tracer connection saw.
#[derive(Default)]
struct Tracer {
    acks_ms: Vec<f64>,
    reads_ms: Vec<f64>,
    records: usize,
    /// Records acked into the session still open at the deadline.
    open_records: usize,
    attempted: u64,
    failed: u64,
}

/// Streams batches until `deadline`, cycling through `traces` with a new
/// session per pass; a session is deleted once its trace is complete.
fn tracer(d: &Daemon, traces: &[Vec<String>], deadline: Instant) -> Tracer {
    let mut t = Tracer::default();
    let mut conn = Conn::new(d.addr, Duration::from_secs(30));
    for session in 0.. {
        let batches = &traces[session % traces.len()];
        let sid = format!("tracer-{session}");
        t.open_records = 0;
        for (i, body) in batches.iter().enumerate() {
            if Instant::now() >= deadline {
                return t;
            }
            let t0 = Instant::now();
            let r = conn.request("POST", &format!("/v1/streams/{sid}/records"), body.as_bytes());
            t.attempted += 1;
            match r {
                Ok(r) if r.status == 200 => {
                    t.acks_ms.push(ms(t0.elapsed()));
                    t.records += body.lines().count();
                    t.open_records += body.lines().count();
                }
                _ => t.failed += 1,
            }
            if (i + 1) % READ_EVERY == 0 {
                let t0 = Instant::now();
                let r = conn.request("GET", &format!("/v1/streams/{sid}/phases"), b"");
                let elapsed = ms(t0.elapsed());
                t.attempted += 1;
                match r {
                    Ok(r) if r.status == 200 && phases_ok(&r.body) => t.reads_ms.push(elapsed),
                    _ => t.failed += 1,
                }
            }
        }
        t.attempted += 1;
        if !matches!(conn.request("DELETE", &format!("/v1/streams/{sid}"), b""), Ok(r) if r.status == 200) {
            t.failed += 1;
        }
    }
    t
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut seeds = Seeds::new(args.seed, "stream-ingest");
    let jobs: Vec<(Spec, u64)> = (0..TRACES).map(|i| (SPECS[i % SPECS.len()], seeds.next())).collect();
    let traces: Vec<Input> = inputs::par_map(&jobs, args.nproc, |(spec, s)| inputs::generate(spec, *s));
    // Each trace as record batches, headers dropped: a tracer streams records.
    let batched: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            let lines: Vec<&str> = t.text.lines().filter(|l| !l.starts_with('#')).collect();
            lines.chunks(BATCH).map(|c| c.join("\n") + "\n").collect()
        })
        .collect();
    let records_in: usize = traces.iter().map(|t| t.records).sum();
    o.note(format!("{} distinct traces ({} and {}), {records_in} records", traces.len(), SPECS[0].app, SPECS[1].app));

    let state = |i: usize| args.work.join(format!("state-{i}"));
    let flags = vec!["--workers".to_string(), args.nproc.to_string(), "--durability".into(), "wal".into()];
    let (d, setup_s) = start_daemon(args, &flags, &|i| vec!["--state-dir".into(), state(i).display().to_string()])?;
    o.note(format!("daemon: {} serve {}", args.daemon.display(), d.flags.join(" ")));

    let secs = if args.trace { args.seconds.mul_f64(0.6) } else { args.seconds };
    let before = if args.trace { Some(scrape(&d)?) } else { None };
    let t0 = Instant::now();
    let t = tracer(&d, &batched, t0 + secs);
    let wall = t0.elapsed();
    let after = if args.trace { Some(scrape(&d)?) } else { None };

    let (records, open_records) = (t.records, t.open_records);
    o.attempted += t.attempted;
    o.failed += t.failed;
    let acks = stats::sorted(&t.acks_ms);
    let reads = stats::sorted(&t.reads_ms);
    o.note(crate::tail_note("batch ack latency", &acks));
    o.note(crate::tail_note("phases read latency", &reads));
    o.note(format!("{records} records acked in {} batches over {:.3} s", acks.len(), wall.as_secs_f64()));

    if let (Some(a), Some(b)) = (before, after) {
        let acked = records.max(1) as f64;
        let lat = b.prom.hist_since(&a.prom, "serve_latency_stream_records");
        let requests = lat.count + b.prom.hist_since(&a.prom, "serve_latency_stream_phases").count;
        let cpu = b.daemon_cpu_ms - a.daemon_cpu_ms;
        o.set("serve.daemon_p50_ms", lat.quantile_ms(0.5));
        o.set("serve.daemon_p99_ms", lat.quantile_ms(0.99));
        o.set("serve.outside_handler_ms", stats::percentile(&acks, 50.0) - lat.quantile_ms(0.5));
        o.set("serve.stream_records_p50_ms", lat.quantile_ms(0.5));
        o.set("serve.checkpoints_written", b.prom.delta(&a.prom, "serve_checkpoints_written"));
        // Finished sessions were deleted: the state directory holds the
        // logs and checkpoints of the sessions still open.
        // `start_daemon` keeps the third of its three spawns.
        let wal_bytes_per_record = dir_bytes(&state(2)) as f64 / open_records.max(1) as f64;
        o.set("serve.wal_bytes_per_record", wal_bytes_per_record);
        o.set("online.snapshot_ms", b.span_mean_ms("online.snapshot"));
        o.set("online.bursts_streamed", b.prom.delta(&a.prom, "online_bursts_streamed"));
        o.set("serve.cpu_ms_per_krecord", cpu / acked * 1000.0);
        o.set("serve.cpu_ms_per_req", cpu / requests.max(1) as f64);
        // A closed loop has no schedule to fall behind.
        gen_metrics(&mut o, args, &a, &b, &[0.0]);
        o.note(format!(
            "daemon: ack p50 {:.3} ms in the handler, {:.3} ms at the client; {:.1} WAL bytes per record",
            lat.quantile_ms(0.5),
            stats::percentile(&acks, 50.0),
            wal_bytes_per_record
        ));
        d.stop()?;
        let expected: Vec<String> = traces
            .iter()
            .map(|t| inputs::expected_report(&t.text, &phasefold::AnalysisConfig::default()))
            .collect();
        o.failed += crate::library::measure_layers(&mut o, &traces, &expected, args.seconds.mul_f64(0.4)) as u64;
        o.absent_layers_are_zero();
        return Ok(o);
    }

    let rss = probe::peak_rss_mb(&d.pid());
    d.stop()?;
    o.set("setup_s", setup_s);
    o.set("records_per_s", records as f64 / wall.as_secs_f64());
    o.set("p50_ms", stats::percentile(&acks, 50.0));
    o.set("tail_ms", crate::tail_value(&acks));
    o.set("sustained_rps", acks.len() as f64 / wall.as_secs_f64());
    o.set("snapshot_p50_ms", stats::percentile(&reads, 50.0));
    o.set("peak_rss_mb", rss);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::phases_ok;

    #[test]
    fn phases_need_a_model_once_warm() {
        assert!(phases_ok(b"{\n\"warm\": false,\n\"num_models\": 0,\n}"));
        assert!(phases_ok(b"{\n\"warm\": true,\n\"num_models\": 2,\n\"num_phases\": 5\n}"));
        assert!(!phases_ok(b"{\n\"warm\": true,\n\"num_models\": 0,\n}"));
        assert!(!phases_ok(b"{\n\"warm\": true\n}"));
    }
}

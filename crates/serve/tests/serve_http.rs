//! End-to-end daemon tests: analyze round trips, cache behaviour over the
//! wire, streaming sessions, backpressure, concurrency, and graceful
//! drain.

mod common;

use common::{boot, test_config, trace_text, traced};
use phasefold_serve::{Client, ServeConfig};
use std::time::Duration;

#[test]
fn healthz_and_metrics_answer() {
    let (handle, addr) = boot(test_config());
    let health = phasefold_serve::one_shot(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\": \"ok\""));

    let metrics = phasefold_serve::one_shot(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("phasefold-serve-metrics/1"), "got: {text}");
    assert!(text.contains("\"cache_hits\""));

    let stats = handle.shutdown();
    assert!(stats.clean, "drain was not clean: {stats:?}");
    assert!(stats.requests >= 2);
}

#[test]
fn analyze_misses_then_hits_with_identical_bytes() {
    let (handle, addr) = boot(test_config());
    let body = trace_text(120, 2, 1);

    let mut client = Client::connect(&addr, Duration::from_secs(120)).unwrap();
    let cold = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
    assert_eq!(cold.status, 200, "cold analyze failed: {}", cold.text());
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert!(cold.text().contains("cluster"), "report missing content");

    let warm = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cache hit must be byte-identical to the cold run");

    // The cache is keyed by the body bytes: a trailing blank line is a
    // different body, so it misses, and analyzes to the same report.
    let padded = format!("{body}\n\n");
    let padded_cold = client.request("POST", "/v1/analyze", &[], padded.as_bytes()).unwrap();
    assert_eq!(padded_cold.status, 200);
    assert_eq!(padded_cold.header("x-cache"), Some("miss"));
    assert_eq!(cold.body, padded_cold.body);

    handle.shutdown();
}

#[test]
fn analyze_rejects_garbage_and_survives() {
    let (handle, addr) = boot(test_config());
    let bad = phasefold_serve::one_shot(&addr, "POST", "/v1/analyze", b"not a trace at all").unwrap();
    assert_eq!(bad.status, 422);

    // Strict policy turns a defective line into a 422 as well.
    let mut trace = trace_text(60, 1, 2);
    trace.push_str("R 0 bogus line\n");
    let strict = phasefold_serve::one_shot(
        &addr,
        "POST",
        "/v1/analyze?fault-policy=strict",
        trace.as_bytes(),
    )
    .unwrap();
    assert_eq!(strict.status, 422);

    // The daemon is still healthy afterwards.
    let health = phasefold_serve::one_shot(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn streaming_session_lifecycle() {
    let (handle, addr) = boot(test_config());
    let trace = traced(300, 2, 3);
    let mut client = Client::connect(&addr, Duration::from_secs(60)).unwrap();

    // Stream each rank's records in chunks of 200 lines, chunk-encoded the
    // way a live collector would.
    for (rank, stream) in trace.iter_ranks() {
        let lines: Vec<String> = stream
            .records()
            .iter()
            .map(|r| {
                // Reuse the canonical writer line format by serializing a
                // one-record mini trace and taking its body line.
                let mut t = phasefold_model::Trace::with_ranks(trace.registry.clone(), 8);
                t.rank_mut(rank).unwrap().push(r.clone()).unwrap();
                let text = phasefold_model::prv::write_trace(&t);
                text.lines()
                    .find(|l| !l.starts_with('#'))
                    .expect("record line")
                    .to_string()
            })
            .collect();
        for batch in lines.chunks(200) {
            let payload = batch.join("\n");
            let resp = client
                .request_chunked("POST", "/v1/streams/s1/records", &[payload.as_bytes()])
                .unwrap();
            assert_eq!(resp.status, 200, "push failed: {}", resp.text());
        }
    }

    let phases = client.request("GET", "/v1/streams/s1/phases", &[], b"").unwrap();
    assert_eq!(phases.status, 200);
    let text = phases.text();
    assert!(text.contains("\"warm\": true"), "session never warmed: {text}");
    assert!(text.contains("\"num_clusters\""));

    let health = phasefold_serve::one_shot(&addr, "GET", "/healthz", b"").unwrap();
    assert!(health.text().contains("\"sessions\": 1"));

    let deleted = client.request("DELETE", "/v1/streams/s1", &[], b"").unwrap();
    assert_eq!(deleted.status, 200);
    let gone = client.request("GET", "/v1/streams/s1/phases", &[], b"").unwrap();
    assert_eq!(gone.status, 404);
    handle.shutdown();
}

#[test]
fn analyze_rejects_hostile_rank_header() {
    // A tiny body declaring billions of ranks must be a 422, not a
    // multi-GiB allocation on the connection thread.
    let (handle, addr) = boot(test_config());
    for policy in ["", "?fault-policy=strict", "?fault-policy=lenient"] {
        let path = format!("/v1/analyze{policy}");
        let resp = phasefold_serve::one_shot(
            &addr,
            "POST",
            &path,
            b"#PHASEFOLD_TRACE v1\n#RANKS 4000000000\nR 0 E 1 0\n",
        )
        .unwrap();
        assert_eq!(resp.status, 422, "policy {policy:?}: {}", resp.text());
    }
    let health = phasefold_serve::one_shot(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn stream_rejects_hostile_rank_ids() {
    // `R 4294967295 E 1 0` must not make the session allocate 4 billion
    // per-rank buffers: lenient quarantines the line, strict answers 422.
    let (handle, addr) = boot(test_config());
    let mut client = Client::connect(&addr, Duration::from_secs(30)).unwrap();

    let lenient = client
        .request("POST", "/v1/streams/bigrank/records", &[], b"R 4294967295 E 1 0\n")
        .unwrap();
    assert_eq!(lenient.status, 200, "{}", lenient.text());
    assert!(lenient.text().contains("\"accepted\": 0"), "{}", lenient.text());
    assert!(lenient.text().contains("\"malformed\": 1"), "{}", lenient.text());

    let strict = client
        .request(
            "POST",
            "/v1/streams/bigrank-strict/records?fault-policy=strict",
            &[],
            b"R 4294967295 E 1 0\n",
        )
        .unwrap();
    assert_eq!(strict.status, 422, "{}", strict.text());
    assert!(strict.text().contains("rank cap"), "{}", strict.text());

    // The daemon is alive and a well-formed push still lands.
    let ok = client
        .request("POST", "/v1/streams/bigrank/records", &[], b"R 0 E 1 0\n")
        .unwrap();
    assert_eq!(ok.status, 200);
    assert!(ok.text().contains("\"accepted\": 1"), "{}", ok.text());
    handle.shutdown();
}

#[test]
fn stream_fault_policy_is_fixed_at_session_creation() {
    let (handle, addr) = boot(test_config());
    let mut client = Client::connect(&addr, Duration::from_secs(30)).unwrap();

    // Created lenient (the default) — a later explicit strict override
    // must be refused, not silently half-applied.
    let create = client
        .request("POST", "/v1/streams/pol/records", &[], b"R 0 E 1 0\n")
        .unwrap();
    assert_eq!(create.status, 200);
    let conflict = client
        .request(
            "POST",
            "/v1/streams/pol/records?fault-policy=strict",
            &[],
            b"R 0 E 2 0\n",
        )
        .unwrap();
    assert_eq!(conflict.status, 409, "{}", conflict.text());
    // Restating the session's own policy is not a conflict.
    let same = client
        .request(
            "POST",
            "/v1/streams/pol/records?fault-policy=lenient",
            &[],
            b"R 0 E 3 0\n",
        )
        .unwrap();
    assert_eq!(same.status, 200, "{}", same.text());

    // A strict session created with the override keeps rejecting
    // malformed lines even when a later request omits the override.
    let strict = client
        .request(
            "POST",
            "/v1/streams/pol-strict/records?fault-policy=strict",
            &[],
            b"R 0 E 1 0\n",
        )
        .unwrap();
    assert_eq!(strict.status, 200);
    let still_strict = client
        .request("POST", "/v1/streams/pol-strict/records", &[], b"R 0 bogus\n")
        .unwrap();
    assert_eq!(still_strict.status, 422, "{}", still_strict.text());
    handle.shutdown();
}

#[test]
fn full_queue_sheds_load_with_retry_after() {
    // One worker, one queue slot: the third concurrent analysis must see a
    // 503 with a Retry-After hint.
    let config = ServeConfig { workers: 1, queue_depth: 1, ..test_config() };
    let (handle, addr) = boot(config);

    let mut threads = Vec::new();
    for seed in 0..6u64 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let body = trace_text(150, 2, 100 + seed);
            let resp = phasefold_serve::one_shot(&addr, "POST", "/v1/analyze", body.as_bytes())
                .expect("request failed");
            (resp.status, resp.header("retry-after").map(str::to_string))
        }));
    }
    let outcomes: Vec<(u16, Option<String>)> =
        threads.into_iter().map(|t| t.join().expect("client thread")).collect();
    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(ok + shed, 6, "unexpected statuses: {outcomes:?}");
    assert!(ok >= 1, "no request succeeded");
    assert!(shed >= 1, "bounded queue never shed load: {outcomes:?}");
    for (status, retry) in &outcomes {
        if *status == 503 {
            assert_eq!(retry.as_deref(), Some("1"), "503 without Retry-After");
        }
    }
    handle.shutdown();
}

#[test]
fn sixty_four_concurrent_clients_with_retries_all_succeed() {
    // Acceptance: ≥64 concurrent clients, zero dropped well-formed
    // requests — 503s are backpressure, not drops, and retrying them must
    // always land.
    let config = ServeConfig { workers: 4, queue_depth: 8, ..test_config() };
    let (handle, addr) = boot(config);

    let mut threads = Vec::new();
    for i in 0..64u64 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            // 8 distinct traces across 64 clients: mostly cache traffic.
            let body = trace_text(100, 1, i % 8);
            for _attempt in 0..200 {
                let resp = phasefold_serve::one_shot(&addr, "POST", "/v1/analyze", body.as_bytes())
                    .expect("request failed");
                match resp.status {
                    200 => return true,
                    503 => std::thread::sleep(Duration::from_millis(50)),
                    other => panic!("unexpected status {other}: {}", resp.text()),
                }
            }
            false
        }));
    }
    let mut completed = 0;
    for t in threads {
        if t.join().expect("client thread") {
            completed += 1;
        }
    }
    assert_eq!(completed, 64, "dropped well-formed requests");
    let stats = handle.shutdown();
    assert!(stats.clean, "drain was not clean: {stats:?}");
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (handle, addr) = boot(test_config());
    // Kick off an analysis and request shutdown while it runs.
    let body = trace_text(400, 2, 42);
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            phasefold_serve::one_shot(&addr, "POST", "/v1/analyze", body.as_bytes())
                .expect("request failed")
        })
    };
    // Give the request a moment to get queued, then drain.
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.shutdown();
    let resp = worker.join().expect("client thread");
    assert!(
        resp.status == 200 || resp.status == 503,
        "in-flight request neither finished nor shed: {}",
        resp.status
    );
    assert!(stats.clean, "drain was not clean: {stats:?}");
    assert_eq!(stats.jobs_at_exit, 0);
    // The daemon is gone: new connections must fail.
    assert!(phasefold_serve::one_shot(&addr, "GET", "/healthz", b"").is_err());
}

#[test]
fn admin_shutdown_endpoint_drains() {
    let (handle, addr) = boot(test_config());
    let resp = phasefold_serve::one_shot(&addr, "POST", "/admin/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    let stats = handle.join();
    assert!(stats.clean, "drain was not clean: {stats:?}");
}

//! Integration tests for the serve-path telemetry: request ids, latency
//! histograms, Prometheus exposition, the access log, and the flight
//! recorder's `/debug/*` endpoints.

mod common;

use common::{boot, test_config, trace_text};
use phasefold_serve::{one_shot, Client};
use std::time::Duration;

#[test]
fn every_response_carries_a_request_id() {
    let (handle, addr) = boot(test_config());
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(client.last_request_id(), None);
    let first = client.request("GET", "/healthz", &[], b"").expect("healthz");
    let first_id = first.header("x-request-id").expect("request id header").to_string();
    assert!(first_id.parse::<u64>().expect("numeric id") > 0);
    assert_eq!(client.last_request_id(), Some(first_id.as_str()));
    // Ids are unique per request, even a 404.
    let second = client.request("GET", "/no/such/path", &[], b"").expect("404");
    assert_eq!(second.status, 404);
    let second_id = second.header("x-request-id").expect("404 has an id too");
    assert_ne!(first_id, second_id);
    assert_eq!(client.last_request_id(), Some(second_id));
    handle.shutdown();
}

#[test]
fn healthz_reports_uptime_and_request_totals() {
    let (handle, addr) = boot(test_config());
    let resp = one_shot(&addr, "GET", "/healthz", b"").expect("healthz");
    let text = resp.text();
    assert!(text.contains("\"uptime_seconds\":"), "{text}");
    assert!(text.contains("\"requests_total\": 1"), "{text}");
    handle.shutdown();
}

#[test]
fn latency_histograms_appear_in_metrics_json() {
    let (handle, addr) = boot(test_config());
    let body = trace_text(40, 2, 1);
    let resp = one_shot(&addr, "POST", "/v1/analyze", body.as_bytes()).expect("analyze");
    assert_eq!(resp.status, 200);
    let metrics = one_shot(&addr, "GET", "/metrics", b"").expect("metrics").text();
    let line = metrics
        .lines()
        .find(|l| l.contains("\"serve.latency.analyze\""))
        .expect("analyze latency histogram exported");
    assert!(line.contains("\"count\": "), "{line}");
    assert!(line.contains("\"p99_ms\": "), "{line}");
    for h in ["serve.queue_wait", "serve.analyze_time", "serve.cache_lookup"] {
        assert!(metrics.lines().any(|l| l.contains(&format!("\"{h}\""))), "missing {h}");
    }
    handle.shutdown();
}

#[test]
fn prometheus_exposition_renders_buckets_and_server_series() {
    let (handle, addr) = boot(test_config());
    let body = trace_text(40, 2, 2);
    assert_eq!(
        one_shot(&addr, "POST", "/v1/analyze", body.as_bytes()).expect("analyze").status,
        200
    );
    let resp = one_shot(&addr, "GET", "/metrics?format=prom", b"").expect("prom");
    assert_eq!(resp.status, 200);
    assert!(resp.header("content-type").is_some_and(|t| t.starts_with("text/plain")));
    let prom = resp.text();
    assert!(prom.contains("# TYPE serve_requests counter"), "{prom}");
    assert!(prom.contains("# TYPE serve_uptime_seconds gauge"), "{prom}");
    assert!(prom.contains("# TYPE serve_latency_analyze histogram"), "{prom}");
    assert!(prom.lines().any(|l| l.starts_with("serve_latency_analyze_bucket{le=\"+Inf\"}")));
    assert!(prom.lines().any(|l| l.starts_with("serve_latency_analyze_count ")));
    assert!(prom.lines().any(|l| l.starts_with("serve_latency_analyze_sum ")));
    // Unknown formats are rejected, not silently JSON.
    assert_eq!(one_shot(&addr, "GET", "/metrics?format=xml", b"").expect("xml").status, 400);
    handle.shutdown();
}

/// Each Prometheus family is exposed once, and the cache series are this
/// daemon's own counts (other daemons in the process do not leak in).
#[test]
fn prometheus_families_are_unique_and_cache_counts_are_per_daemon() {
    let (handle, addr) = boot(test_config());
    let body = trace_text(40, 2, 5);
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    for want in ["miss", "hit"] {
        let resp = client.request("POST", "/v1/analyze", &[], body.as_bytes()).expect("analyze");
        assert_eq!((resp.status, resp.header("x-cache")), (200, Some(want)));
    }
    let prom = client.request("GET", "/metrics?format=prom", &[], b"").expect("prom").text();
    let mut families: Vec<&str> =
        prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
    let exposed = families.len();
    families.sort_unstable();
    families.dedup();
    assert_eq!(families.len(), exposed, "a # TYPE family repeats:\n{prom}");
    for series in ["serve_cache_hits 1", "serve_cache_misses 1"] {
        assert_eq!(prom.lines().filter(|l| *l == series).count(), 1, "{series}:\n{prom}");
    }
    let json = client.request("GET", "/metrics", &[], b"").expect("metrics").text();
    for series in ["\"cache_hits\": 1,", "\"cache_misses\": 1,"] {
        assert!(json.lines().any(|l| l == series), "{series}:\n{json}");
    }
    handle.shutdown();
}

#[test]
fn debug_requests_lists_recent_and_slowest() {
    let (handle, addr) = boot(test_config());
    let body = trace_text(40, 2, 3);
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap().status, 200);
    assert_eq!(client.request("GET", "/healthz", &[], b"").unwrap().status, 200);
    let debug = client.request("GET", "/debug/requests", &[], b"").expect("debug");
    assert_eq!(debug.status, 200);
    let text = debug.text();
    assert!(text.contains("\"schema\": \"phasefold-serve-debug/1\""), "{text}");
    assert!(text.contains("\"endpoint\": \"analyze\""), "{text}");
    assert!(text.contains("\"endpoint\": \"healthz\""), "{text}");
    assert!(text.contains("\"spans_retained\":"), "{text}");
    handle.shutdown();
}

#[test]
fn debug_trace_replays_a_slow_request_across_threads() {
    let (handle, addr) = boot(test_config());
    let body = trace_text(60, 2, 4);
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    let resp = client.request("POST", "/v1/analyze", &[], body.as_bytes()).expect("analyze");
    assert_eq!(resp.status, 200);
    let id = client.last_request_id().expect("request id").to_string();

    let trace = client
        .request("GET", &format!("/debug/trace/{id}"), &[], b"")
        .expect("debug trace");
    assert_eq!(trace.status, 200, "{}", trace.text());
    let json = trace.text();
    assert!(json.trim_start().starts_with('['), "chrome-trace array: {json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    // Every span belongs to this request's trace id...
    assert!(json.contains(&format!("\"trace_id\":{id}")), "{json}");
    // ...and the tree crosses the connection/worker thread boundary: the
    // root request span and the analyze job span carry different tids.
    let tid_of = |name: &str| -> Option<String> {
        json.lines().find(|l| l.contains(name)).and_then(|l| {
            let rest = l.split("\"tid\":").nth(1)?;
            Some(rest.split(',').next()?.trim().to_string())
        })
    };
    let root_tid = tid_of("serve.request POST /v1/analyze").expect("root span exported");
    let job_tid = tid_of("serve.analyze_job").expect("job span exported");
    assert_ne!(root_tid, job_tid, "span tree must cross the queue/worker boundary");
    // The worker lane is named in the replay's metadata.
    assert!(json.contains("serve-worker-"), "{json}");

    // Bogus / unretained ids answer 4xx, never 5xx.
    assert_eq!(client.request("GET", "/debug/trace/abc", &[], b"").unwrap().status, 400);
    assert_eq!(
        client.request("GET", "/debug/trace/18446744073709551615", &[], b"").unwrap().status,
        404
    );
    handle.shutdown();
}

#[test]
fn access_log_records_sampled_requests_as_json_lines() {
    let dir = std::env::temp_dir().join(format!("phasefold-acclog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let log_path = dir.join("access.log");
    let config = phasefold_serve::ServeConfig {
        access_log: Some(log_path.clone()),
        ..test_config()
    };
    let (handle, addr) = boot(config);
    let body = trace_text(40, 2, 5);
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap().status, 200);
    let id = client.last_request_id().expect("id").to_string();
    handle.shutdown();
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let line = log
        .lines()
        .find(|l| l.contains(&format!("\"request_id\":{id}")))
        .expect("analyze request logged");
    assert!(line.contains("\"endpoint\":\"analyze\""), "{line}");
    assert!(line.contains("\"status\":200"), "{line}");
    assert!(line.contains("\"total_ms\":"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_sample_rate_still_answers_ids_but_keeps_no_traces() {
    let config = phasefold_serve::ServeConfig { trace_sample_rate: 0.0, ..test_config() };
    let (handle, addr) = boot(config);
    let body = trace_text(40, 2, 6);
    let mut client = Client::connect(&addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap().status, 200);
    let id = client.last_request_id().expect("id").to_string();
    // Unsampled → no span capture retained to replay.
    let resp = client.request("GET", &format!("/debug/trace/{id}"), &[], b"").unwrap();
    assert_eq!(resp.status, 404);
    // But the recent ring still has the summary.
    let debug = client.request("GET", "/debug/requests", &[], b"").unwrap().text();
    assert!(debug.contains(&format!("\"id\": {id}")), "{debug}");
    handle.shutdown();
}

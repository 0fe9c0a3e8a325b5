//! Event-loop behavior the blocking core could not deliver: prompt
//! drains with idle keep-alive clients attached, deterministic thread
//! teardown, and slow-writer isolation within a single shard.

mod common;

use common::{boot, test_config, trace_text};
use phasefold_serve::{Client, ServeConfig};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serialises this file's tests. Each boots its own daemon, and
/// `teardown_joins_every_serve_thread` counts every `serve-` thread in the
/// process, so a sibling's daemon must not be up while it counts.
/// Recovers from poisoning, so one failing test reports as one.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads of this process whose name starts with `prefix` (Linux).
fn threads_named(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
        })
        .count()
}

/// The drain must not wait out `read_timeout` on connections that are
/// merely parked between keep-alive requests: shutdown wakes the shards
/// and idle connections close on the next loop turn.
#[test]
fn drain_with_idle_keepalive_is_prompt() {
    let _serial = serial();
    let read_timeout = Duration::from_secs(10);
    let (handle, addr) = boot(ServeConfig { read_timeout, ..test_config() });

    // Park several idle keep-alive clients: each completes one request
    // and then sits on its open connection doing nothing.
    let mut parked = Vec::new();
    for _ in 0..4 {
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let res = client.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(res.status, 200);
        parked.push(client);
    }

    let t0 = Instant::now();
    let stats = handle.shutdown();
    let drained_in = t0.elapsed();

    assert!(stats.clean, "drain was not clean: {stats:?}");
    assert_eq!(stats.connections_at_exit, 0);
    // The whole point: far below the 10s read timeout (and the 15s
    // drain deadline). Generous bound for slow CI machines.
    assert!(
        drained_in < read_timeout / 2,
        "drain took {drained_in:?} with idle keep-alive connections parked"
    );
    drop(parked);
}

/// `run()` joins every shard thread before reporting: after `shutdown()`
/// returns, no serve thread may still be alive (the old core leaked
/// connection JoinHandles that were unfinished at drain time).
#[test]
fn teardown_joins_every_serve_thread() {
    let _serial = serial();
    let before = threads_named("serve-");
    let (handle, addr) = boot(test_config());
    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
    let body = trace_text(40, 2, 7);
    let res = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
    assert_eq!(res.status, 200);
    assert!(threads_named("serve-") > before, "daemon threads should be visible while up");

    let stats = handle.shutdown();
    assert!(stats.clean, "drain was not clean: {stats:?}");
    assert_eq!(
        threads_named("serve-"),
        before,
        "serve threads leaked past shutdown()"
    );
}

/// One shard, one stalled writer: a connection that sends half a request
/// and stops must not stall its shard siblings — the event loop keeps
/// serving the healthy connection on the same shard.
#[test]
fn slow_writer_cannot_stall_shard_siblings() {
    let _serial = serial();
    let (handle, addr) = boot(ServeConfig {
        event_shards: 1,
        read_timeout: Duration::from_secs(10),
        ..test_config()
    });

    // The stalled writer: half a request line, then silence.
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled.write_all(b"POST /v1/analyze HTTP/1.1\r\ncontent-le").unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Healthy traffic on the same (only) shard, including a full
    // analysis that round-trips through the job queue.
    let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
    let body = trace_text(40, 2, 11);
    let t0 = Instant::now();
    for i in 0..5 {
        let res = client.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(res.status, 200, "healthz #{i} failed behind a stalled writer");
    }
    let res = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
    assert_eq!(res.status, 200);
    let served_in = t0.elapsed();
    assert!(
        served_in < Duration::from_secs(5),
        "healthy connection took {served_in:?} behind a stalled shard sibling"
    );

    drop(stalled);
    let stats = handle.shutdown();
    assert!(stats.clean, "drain was not clean: {stats:?}");
}

/// Identical `/v1/analyze` bodies submitted concurrently coalesce into
/// one computation; every waiter still gets a full, correct report and
/// no response lies about being a cache hit.
#[test]
fn concurrent_identical_bodies_coalesce() {
    let _serial = serial();
    let (handle, addr) = boot(test_config());
    let body = trace_text(60, 2, 23);

    let mut joins = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        let body = body.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr, Duration::from_secs(30)).unwrap();
            let res = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
            (res.status, res.header("x-cache").map(str::to_string), res.body.len())
        }));
    }
    let results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let reference = results[0].2;
    for (status, x_cache, len) in &results {
        assert_eq!(*status, 200);
        assert_eq!(*len, reference, "coalesced waiters must get the same report");
        let tag = x_cache.as_deref().unwrap_or("");
        assert!(
            matches!(tag, "hit" | "miss" | "coalesced"),
            "unexpected x-cache tag {tag:?}"
        );
    }
    // Exactly one connection may claim the miss (the flight submitter).
    let misses = results.iter().filter(|(_, x, _)| x.as_deref() == Some("miss")).count();
    assert!(misses <= 1, "multiple responses claimed the same cache miss");

    // And a byte-identical warm repeat is a true cache hit (raw-body
    // memo: no re-parse, same bytes back).
    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    let warm = client.request("POST", "/v1/analyze", &[], body.as_bytes()).unwrap();
    assert_eq!(warm.status, 200);
    assert!(warm.cache_hit(), "byte-identical warm repeat should hit");
    assert_eq!(warm.body.len(), reference);

    handle.shutdown();
}

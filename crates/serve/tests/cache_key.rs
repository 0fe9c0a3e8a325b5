//! Properties of the `/v1/analyze` cache key, which is the body as it
//! arrived plus its fault policy: a re-serialized trace keeps its key, any
//! 1-byte change, any change of length and a change of policy each move
//! it, and a cache hit is byte-identical to the cold run it replaced —
//! over the wire, per policy.

mod common;

use proptest::prelude::*;

use phasefold::FaultPolicy;
use phasefold_model::{
    prv, CommKind, CounterSet, RankId, Record, RegionKind, SourceRegistry, TimeNs, Trace,
};
use phasefold_serve::cache::{BodyKey, Cached, ResultCache};
use phasefold_serve::Client;
use std::time::Duration;

fn arb_counter_set() -> impl Strategy<Value = CounterSet> {
    proptest::array::uniform10(0.0..1e12f64).prop_map(CounterSet::from_array)
}

/// Small traces of comm-delimited bursts across 1–3 ranks.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let streams = proptest::collection::vec(
        proptest::collection::vec((arb_counter_set(), arb_counter_set(), 1u64..1_000_000), 1..12),
        1..4,
    );
    streams.prop_map(|streams| {
        let mut registry = SourceRegistry::new();
        registry.intern("kernel", RegionKind::Kernel, "kernel.c", 10);
        let mut trace = Trace::with_ranks(registry, streams.len());
        for (r, bursts) in streams.into_iter().enumerate() {
            let stream = trace.rank_mut(RankId(r as u32)).expect("rank exists");
            let mut t = 0u64;
            for (enter, exit, dt) in bursts {
                t += dt;
                stream
                    .push(Record::CommExit {
                        time: TimeNs(t),
                        kind: CommKind::Collective,
                        counters: enter,
                    })
                    .expect("monotonic by construction");
                t += dt;
                stream
                    .push(Record::CommEnter {
                        time: TimeNs(t),
                        kind: CommKind::Collective,
                        counters: exit,
                    })
                    .expect("monotonic by construction");
            }
        }
        trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The canonical writer is a fixed point, so a client that parses and
    /// re-serializes a trace before posting it lands on the same key.
    #[test]
    fn canonicalization_is_stable(trace in arb_trace()) {
        let text = prv::write_trace(&trace);
        let (reparsed, faults) = prv::parse_trace_lenient(&text).expect("reparse failed");
        prop_assert_eq!(faults.faults.len(), 0);
        prop_assert_eq!(
            BodyKey::derive(text.as_bytes(), FaultPolicy::Lenient),
            BodyKey::derive(prv::write_trace(&reparsed).as_bytes(), FaultPolicy::Lenient),
        );
    }

    /// Changing any one byte of a trace body moves the key: both hashes
    /// change, so neither alone decides a hit.
    #[test]
    fn record_mutation_moves_the_key(
        trace in arb_trace(),
        pos in 0usize..1 << 20,
        flip in 1u8..255,
    ) {
        let text = prv::write_trace(&trace).into_bytes();
        let key = BodyKey::derive(&text, FaultPolicy::Lenient);
        prop_assert_eq!(key, BodyKey::derive(&text, FaultPolicy::Lenient));

        let mut mutated = text.clone();
        mutated[pos % text.len()] ^= flip;
        let moved = BodyKey::derive(&mutated, FaultPolicy::Lenient);
        prop_assert_ne!(key.raw, moved.raw);
        prop_assert_ne!(key.alt, moved.alt);
    }

    /// A change of length or of fault policy moves the key, even when the
    /// extra bytes parse to the same trace.
    #[test]
    fn policy_and_length_move_the_key(trace in arb_trace()) {
        let text = prv::write_trace(&trace);
        let key = BodyKey::derive(text.as_bytes(), FaultPolicy::Lenient);
        prop_assert_ne!(key, BodyKey::derive(text.as_bytes(), FaultPolicy::Strict));
        let padded = format!("{text}\n");
        prop_assert_ne!(key, BodyKey::derive(padded.as_bytes(), FaultPolicy::Lenient));
    }
}

/// Golden test: over the wire, a cache hit returns exactly the bytes the
/// cold run produced — and the same holds for the cache type itself.
#[test]
fn cache_hit_is_byte_identical_to_cold_run() {
    let cache = ResultCache::new(4);
    let key = BodyKey::derive(b"the trace body", FaultPolicy::Lenient);
    let report = "phasefold report\ncluster 0: 3 phases\n";
    let cached = Cached { report: report.into(), parse_quarantined: 2 };
    cache.insert(key, cached.clone());
    assert_eq!(cache.get(&key), Some(cached));

    let (handle, addr) = common::boot(common::test_config());
    let body = common::trace_text(120, 2, 9);
    let mut client = Client::connect(&addr, Duration::from_secs(120)).expect("connect");
    let cold = client
        .request("POST", "/v1/analyze", &[], body.as_bytes())
        .expect("cold request");
    assert_eq!(cold.status, 200, "cold analyze failed: {}", cold.text());
    assert!(!cold.cache_hit());
    let warm = client
        .request("POST", "/v1/analyze", &[], body.as_bytes())
        .expect("warm request");
    assert!(warm.cache_hit());
    assert_eq!(cold.body, warm.body);
    assert_eq!(cold.header("x-parse-quarantined"), warm.header("x-parse-quarantined"));
    handle.shutdown();
}

/// The same body under two fault policies is two cache entries: each
/// policy misses once, then hits with its own cold run's bytes.
#[test]
fn fault_policy_is_part_of_the_key_over_the_wire() {
    let (handle, addr) = common::boot(common::test_config());
    let body = common::trace_text(60, 2, 13);
    let mut client = Client::connect(&addr, Duration::from_secs(120)).expect("connect");
    let paths = ["/v1/analyze?fault-policy=strict", "/v1/analyze"];
    let mut cold = Vec::new();
    for path in paths {
        let resp = client.request("POST", path, &[], body.as_bytes()).expect("cold request");
        assert_eq!((resp.status, resp.header("x-cache")), (200, Some("miss")), "{path}");
        cold.push(resp);
    }
    for (path, cold) in paths.iter().zip(&cold) {
        let resp = client.request("POST", path, &[], body.as_bytes()).expect("warm request");
        assert_eq!((resp.status, resp.header("x-cache")), (200, Some("hit")), "{path}");
        assert_eq!(resp.body, cold.body, "{path}");
        assert_eq!(resp.header("x-parse-quarantined"), cold.header("x-parse-quarantined"));
    }
    handle.shutdown();
}

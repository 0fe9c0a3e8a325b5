//! Properties of the content address: canonicalization is stable (the same
//! trace always maps to the same key, whatever formatting it arrived in),
//! any semantic mutation — of a record or of a config field — moves the
//! key, and a cache hit is byte-identical to the cold run it replaced.

mod common;

use proptest::prelude::*;

use phasefold::AnalysisConfig;
use phasefold_model::{
    codec, prv, CommKind, CounterSet, RankId, Record, RegionKind, SourceRegistry, TimeNs, Trace,
};
use phasefold_serve::cache::{config_fingerprint, CacheKey, ResultCache, TraceWitness};
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

fn key_of(trace: &Trace, config: &AnalysisConfig) -> CacheKey {
    CacheKey::derive(&prv::write_trace(trace), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same trace always addresses the same entry, however the bytes
    /// arrived: re-parsing the canonical form — even decorated with extra
    /// whitespace and comments — lands on identical canonical bytes.
    #[test]
    fn canonicalization_is_stable(trace in arb_trace()) {
        let config = AnalysisConfig::default();
        let key = key_of(&trace, &config);
        prop_assert_eq!(key, key_of(&trace, &config));

        let text = prv::write_trace(&trace);
        let decorated = format!("{text}\n\n\n");
        let (reparsed, faults) = prv::parse_trace_lenient(&decorated).expect("reparse failed");
        prop_assert_eq!(faults.faults.len(), 0);
        prop_assert_eq!(key, key_of(&reparsed, &config));
    }

    /// Mutating any record moves the key: a timestamp bump and a counter
    /// perturbation must both change the canonical bytes.
    #[test]
    fn record_mutation_moves_the_key(trace in arb_trace(), bump in 1u64..1000) {
        let config = AnalysisConfig::default();
        let key = key_of(&trace, &config);

        // Timestamp mutation: push one extra record past the last time.
        let mut touched = trace.clone();
        let (last_rank, last_t) = touched
            .iter_ranks()
            .map(|(r, s)| (r, s.records().last().map_or(0, |rec| rec.time().0)))
            .max_by_key(|(_, t)| *t)
            .expect("non-empty trace");
        touched
            .rank_mut(last_rank)
            .expect("rank exists")
            .push(Record::CommEnter {
                time: TimeNs(last_t + bump),
                kind: CommKind::Wait,
                counters: CounterSet::from_array([1.0; 10]),
            })
            .expect("monotonic");
        prop_assert_ne!(key, key_of(&touched, &config));

        // Counter mutation: perturb the first comm record's counters.
        let mut perturbed = trace.clone();
        let first_rank = perturbed.iter_ranks().next().map(|(r, _)| r).expect("rank");
        let stream = perturbed.rank_mut(first_rank).expect("rank exists");
        let mut records: Vec<Record> = stream.records().to_vec();
        if let Some(Record::CommExit { counters, .. }) = records.first_mut() {
            let mut vals = [0.0f64; 10];
            for (i, v) in vals.iter_mut().enumerate() {
                *v = counters.as_array()[i] + 1.0;
            }
            *counters = CounterSet::from_array(vals);
        }
        let mut rebuilt = Trace::with_ranks(perturbed.registry.clone(), 3);
        let rb = rebuilt.rank_mut(first_rank).expect("rank exists");
        for r in records {
            rb.push(r).expect("monotonic");
        }
        prop_assert_ne!(
            codec::fnv1a64(prv::write_trace(&trace).as_bytes()),
            codec::fnv1a64(prv::write_trace(&rebuilt).as_bytes()),
        );
    }

    /// Config fields are part of the address; `threads` is not.
    #[test]
    fn config_mutation_moves_the_fingerprint(
        min_points in 5usize..200,
        min_burst_us in 1u64..500,
        threads in 1usize..16,
    ) {
        let base = AnalysisConfig::default();
        let fp = config_fingerprint(&base);

        let mut c = base.clone();
        c.min_folded_points = base.min_folded_points + min_points;
        prop_assert_ne!(fp, config_fingerprint(&c));

        let mut c = base.clone();
        c.min_burst_duration = phasefold_model::DurNs::from_micros(min_burst_us + 1000);
        prop_assert_ne!(fp, config_fingerprint(&c));

        let mut c = base.clone();
        c.fault_policy = phasefold::FaultPolicy::Strict;
        prop_assert_ne!(fp, config_fingerprint(&c));

        let mut c = base.clone();
        c.threads = Some(threads);
        prop_assert_eq!(fp, config_fingerprint(&c));
    }
}

/// Golden test: over the wire, a cache hit returns exactly the bytes the
/// cold run produced — and the same holds for the cache type itself.
#[test]
fn cache_hit_is_byte_identical_to_cold_run() {
    let mut cache = ResultCache::new(4, None).expect("memory-only cache");
    let key = CacheKey { trace: 0xabcd, config: 0x1234 };
    let report = "phasefold report\ncluster 0: 3 phases\n".to_string();
    let witness = TraceWitness::derive("the canonical trace bytes");
    cache.insert(key, witness, report.clone());
    assert_eq!(cache.get(&key, &witness).as_deref(), Some(report.as_str()));

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
    handle.shutdown();
}

//! Property-based round-trip tests for the `.prv`-like trace format.

use proptest::prelude::*;

use phasefold_model::{
    prv, CallStack, CommKind, CounterKind, CounterSet, PartialCounterSet, RankId, Record,
    RegionId, RegionKind, Sample, SourceRegistry, TimeNs, Trace, NUM_COUNTERS,
};

fn arb_counter_set() -> impl Strategy<Value = CounterSet> {
    proptest::array::uniform10(0.0..1e12f64).prop_map(CounterSet::from_array)
}

fn arb_partial_counters() -> impl Strategy<Value = PartialCounterSet> {
    proptest::collection::vec((0usize..NUM_COUNTERS, 0.0..1e12f64), 0..NUM_COUNTERS).prop_map(
        |pairs| {
            let mut p = PartialCounterSet::EMPTY;
            for (i, v) in pairs {
                p.set(CounterKind::from_index(i).unwrap(), v);
            }
            p
        },
    )
}

fn arb_comm_kind() -> impl Strategy<Value = CommKind> {
    prop_oneof![
        Just(CommKind::Send),
        Just(CommKind::Recv),
        Just(CommKind::Collective),
        Just(CommKind::Wait),
    ]
}

fn arb_callstack(max_region: u32) -> impl Strategy<Value = CallStack> {
    (
        proptest::collection::vec(0..max_region, 0..5),
        0u32..10_000,
    )
        .prop_map(|(frames, leaf_line)| {
            let frames: Vec<RegionId> = frames.into_iter().map(RegionId).collect();
            let leaf_line = if frames.is_empty() { 0 } else { leaf_line };
            CallStack::new(frames, leaf_line)
        })
}

/// Record payloads without timestamps; times are assigned monotonically.
#[derive(Debug, Clone)]
enum Payload {
    RegionEnter(u32),
    RegionExit(u32),
    CommEnter(CommKind, CounterSet),
    CommExit(CommKind, CounterSet),
    Sample(PartialCounterSet, CallStack),
}

fn arb_payload(max_region: u32) -> impl Strategy<Value = Payload> {
    prop_oneof![
        (0..max_region).prop_map(Payload::RegionEnter),
        (0..max_region).prop_map(Payload::RegionExit),
        (arb_comm_kind(), arb_counter_set()).prop_map(|(k, c)| Payload::CommEnter(k, c)),
        (arb_comm_kind(), arb_counter_set()).prop_map(|(k, c)| Payload::CommExit(k, c)),
        (arb_partial_counters(), arb_callstack(max_region))
            .prop_map(|(c, s)| Payload::Sample(c, s)),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    let max_region = 4u32;
    let regions = proptest::collection::vec(
        ("[a-z]{1,8}( [a-z]{1,4})?", "[a-z]{1,8}\\.(c|f90)", 1u32..5000),
        max_region as usize,
    );
    let streams = proptest::collection::vec(
        proptest::collection::vec((arb_payload(max_region), 1u64..1_000_000), 0..30),
        1..4,
    );
    (regions, streams).prop_map(move |(regions, streams)| {
        let mut registry = SourceRegistry::new();
        for (i, (name, file, line)) in regions.iter().enumerate() {
            // Ensure unique names so the registry stays dense.
            let name = format!("{name}_{i}");
            registry.intern(&name, RegionKind::Kernel, file, *line);
        }
        let mut trace = Trace::with_ranks(registry, streams.len());
        for (r, payloads) in streams.into_iter().enumerate() {
            let stream = trace.rank_mut(RankId(r as u32)).unwrap();
            let mut t = 0u64;
            for (payload, dt) in payloads {
                t += dt;
                let time = TimeNs(t);
                let record = match payload {
                    Payload::RegionEnter(id) => Record::RegionEnter { time, region: RegionId(id) },
                    Payload::RegionExit(id) => Record::RegionExit { time, region: RegionId(id) },
                    Payload::CommEnter(kind, counters) => {
                        Record::CommEnter { time, kind, counters }
                    }
                    Payload::CommExit(kind, counters) => Record::CommExit { time, kind, counters },
                    Payload::Sample(counters, callstack) => {
                        Record::Sample(Sample { time, counters, callstack: callstack.into() })
                    }
                };
                stream.push(record).unwrap();
            }
        }
        trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prv_roundtrip(trace in arb_trace()) {
        let text = prv::write_trace(&trace);
        let parsed = prv::parse_trace(&text).expect("parse back");
        prop_assert_eq!(parsed.num_ranks(), trace.num_ranks());
        prop_assert_eq!(parsed.registry.len(), trace.registry.len());
        for (id, info) in trace.registry.iter() {
            prop_assert_eq!(parsed.registry.get(id), Some(info));
        }
        for (rank, stream) in trace.iter_ranks() {
            prop_assert_eq!(parsed.rank(rank).unwrap().records(), stream.records());
        }
    }

    #[test]
    fn prv_write_is_idempotent(trace in arb_trace()) {
        let text1 = prv::write_trace(&trace);
        let text2 = prv::write_trace(&prv::parse_trace(&text1).unwrap());
        prop_assert_eq!(text1, text2);
    }
}

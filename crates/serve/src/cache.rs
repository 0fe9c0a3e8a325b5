//! The `/v1/analyze` result cache: one in-memory LRU behind one lock.
//!
//! Reports are keyed by the request body as it arrived: two independent
//! 64-bit hashes of the raw bytes, their length, and the fault policy the
//! body is parsed under ([`BodyKey`]). The daemon's [`phasefold::AnalysisConfig`]
//! is fixed for its whole life except the per-request fault policy, which
//! is part of the key, so no config fingerprint is needed. A body gets
//! another body's report only if both hashes, the length and the policy
//! all agree.
//!
//! The cache stores *rendered reports* (the exact bytes a cold run would
//! answer with) together with the parse quarantine count, so a hit never
//! parses the trace. Two bodies that differ only in formatting are two
//! keys: each misses once and gets the same report bytes. Nothing is
//! written to disk; the cache starts empty on every boot.

use crate::queue::lock_recover;
use phasefold::FaultPolicy;
use phasefold_model::codec::fnv1a64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A second, independent 64-bit FNV-1a with a different offset basis (the
/// low half of the 128-bit FNV basis) and a different odd multiplier (the
/// 32-bit FNV prime, zero-extended). Two bodies colliding under both
/// [`fnv1a64`] *and* this hash *and* having equal length is what the cache
/// treats as impossible in practice.
pub fn fnv1a64_alt(bytes: &[u8]) -> u64 {
    let mut h = 0x62b8_2175_6295_c58du64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0000_0100_0193);
    }
    h
}

/// Identity of a `/v1/analyze` body: the cache key, and the key under
/// which identical in-flight bodies are coalesced into one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BodyKey {
    /// [`fnv1a64`] of the raw body.
    pub raw: u64,
    /// [`fnv1a64_alt`] of the raw body.
    pub alt: u64,
    /// Body length in bytes.
    pub len: usize,
    /// The effective fault policy (`0` strict, `1` lenient).
    pub policy: u8,
}

impl BodyKey {
    /// Derives the key of `body` parsed under `policy`.
    pub fn derive(body: &[u8], policy: FaultPolicy) -> BodyKey {
        BodyKey {
            raw: fnv1a64(body),
            alt: fnv1a64_alt(body),
            len: body.len(),
            policy: match policy {
                FaultPolicy::Strict => 0,
                FaultPolicy::Lenient => 1,
            },
        }
    }
}

/// What a hit answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cached {
    /// The rendered report, byte-identical to the cold run's.
    pub report: Arc<str>,
    /// Lines the lenient parse quarantined (`x-parse-quarantined`).
    pub parse_quarantined: usize,
}

/// Cache hit/miss tallies of one daemon, all zero from boot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to analysis.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

struct Entry {
    cached: Cached,
    last_used: u64,
}

struct Lru {
    entries: HashMap<BodyKey, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// In-memory LRU of rendered reports.
pub struct ResultCache {
    lru: Mutex<Lru>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` reports.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(Lru {
                entries: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks `key` up, counting a hit or a miss.
    pub fn get(&self, key: &BodyKey) -> Option<Cached> {
        self.lookup(key, true)
    }

    /// Looks `key` up again without counting: the queued job's second
    /// look at a body whose miss was already counted, in case an earlier
    /// job for the same body finished in between.
    pub fn recheck(&self, key: &BodyKey) -> Option<Cached> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &BodyKey, count: bool) -> Option<Cached> {
        let mut lru = lock_recover(&self.lru);
        lru.tick += 1;
        let tick = lru.tick;
        let found = lru.entries.get_mut(key).map(|entry| {
            entry.last_used = tick;
            entry.cached.clone()
        });
        if count {
            match found {
                Some(_) => lru.stats.hits += 1,
                None => lru.stats.misses += 1,
            }
        }
        found
    }

    /// Inserts a rendered report, evicting the least-recently-used entry
    /// when full.
    pub fn insert(&self, key: BodyKey, cached: Cached) {
        let mut lru = lock_recover(&self.lru);
        lru.tick += 1;
        if lru.entries.len() >= self.capacity && !lru.entries.contains_key(&key) {
            let oldest = lru
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            if let Some(k) = oldest {
                lru.entries.remove(&k);
                lru.stats.evictions += 1;
            }
        }
        let last_used = lru.tick;
        lru.entries.insert(key, Entry { cached, last_used });
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        lock_recover(&self.lru).entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        lock_recover(&self.lru).stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // The primary hash is standard FNV-1a 64 (test vectors).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn cached(report: &str) -> Cached {
        Cached {
            report: report.into(),
            parse_quarantined: 0,
        }
    }

    fn k(i: u64) -> BodyKey {
        BodyKey {
            raw: i,
            alt: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            len: i as usize,
            policy: 1,
        }
    }

    fn report(hit: Option<Cached>) -> Option<String> {
        hit.map(|c| c.report.to_string())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(k(1), cached("one"));
        cache.insert(k(2), cached("two"));
        assert_eq!(report(cache.get(&k(1))).as_deref(), Some("one")); // touch 1
        cache.insert(k(3), cached("three")); // evicts 2
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k(2)).is_none());
        assert_eq!(report(cache.get(&k(1))).as_deref(), Some("one"));
        assert_eq!(report(cache.get(&k(3))).as_deref(), Some("three"));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 1
            }
        );
    }

    #[test]
    fn key_collision_is_a_verified_miss_not_a_wrong_report() {
        // Two bodies that collide under the primary 64-bit hash but not
        // under the second one (or the length, or the policy) are distinct
        // keys: the second must NOT be served the first one's report.
        let cache = ResultCache::new(4);
        let a = k(100);
        cache.insert(a, cached("report for body A"));
        for b in [
            BodyKey {
                alt: a.alt ^ 1,
                ..a
            },
            BodyKey {
                len: a.len + 1,
                ..a
            },
            BodyKey { policy: 0, ..a },
        ] {
            assert_eq!(cache.get(&b), None);
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 3,
                evictions: 0
            }
        );
        // The original owner still hits.
        assert_eq!(report(cache.get(&a)).as_deref(), Some("report for body A"));
    }

    #[test]
    fn recheck_counts_nothing() {
        let cache = ResultCache::new(4);
        assert!(cache.recheck(&k(1)).is_none());
        cache.insert(
            k(1),
            Cached {
                report: "r".into(),
                parse_quarantined: 3,
            },
        );
        assert_eq!(cache.recheck(&k(1)).map(|c| c.parse_quarantined), Some(3));
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn alt_hash_is_independent_of_primary() {
        // The two hashes must not be related by a fixed transformation;
        // spot-check that they differ on the same input and that the alt
        // hash separates near-identical inputs.
        assert_ne!(fnv1a64(b""), fnv1a64_alt(b""));
        assert_ne!(fnv1a64(b"abc"), fnv1a64_alt(b"abc"));
        assert_ne!(fnv1a64_alt(b"abc"), fnv1a64_alt(b"abd"));
    }
}

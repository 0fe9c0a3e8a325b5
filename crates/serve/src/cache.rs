//! Content-addressed result cache.
//!
//! A submitted trace is *canonicalized* — parsed and re-serialized through
//! [`phasefold_model::prv`], whose writer is byte-stable — so two
//! submissions that differ only in whitespace, trailing newlines, or
//! quarantined garbage lines still address the same cache entry. The key
//! combines the FNV-1a hash of those canonical bytes with a fingerprint of
//! every semantically relevant [`AnalysisConfig`] field; `threads` is
//! deliberately excluded because the analysis is bit-identical at any
//! thread count (asserted by the pipeline's golden tests).
//!
//! The cache stores *rendered reports* (the exact bytes a cold run would
//! answer with), in a small in-memory LRU, optionally spilled to disk under
//! a `--cache-dir` so repeated submissions survive a daemon restart.

use phasefold::AnalysisConfig;
use phasefold_model::codec::fnv1a64;
use std::collections::HashMap;
use std::path::PathBuf;

/// A second, independent 64-bit FNV-1a with a different offset basis (the
/// low half of the 128-bit FNV basis) and a different odd multiplier (the
/// 32-bit FNV prime, zero-extended). Two strings colliding under both
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

/// Collision witness for a cache entry: checked on every hit before a
/// stored report is served, because [`CacheKey`] addresses the trace by a
/// *single* 64-bit hash and a colliding trace must not silently receive
/// another trace's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceWitness {
    /// Length of the canonical trace bytes.
    pub len: u64,
    /// [`fnv1a64_alt`] of the canonical trace bytes.
    pub alt: u64,
}

impl TraceWitness {
    /// Derives the witness for canonical trace bytes.
    pub fn derive(canonical_trace: &str) -> TraceWitness {
        TraceWitness {
            len: canonical_trace.len() as u64,
            alt: fnv1a64_alt(canonical_trace.as_bytes()),
        }
    }
}

/// A content address: canonical-trace hash + config fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a of the canonicalized trace bytes.
    pub trace: u64,
    /// FNV-1a of the canonical config description.
    pub config: u64,
}

impl CacheKey {
    /// Derives the key for canonical trace bytes under a config.
    pub fn derive(canonical_trace: &str, config: &AnalysisConfig) -> CacheKey {
        CacheKey {
            trace: fnv1a64(canonical_trace.as_bytes()),
            config: config_fingerprint(config),
        }
    }

    /// Filesystem-safe hex form, used as the spill file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}-{:016x}", self.trace, self.config)
    }
}

/// Fingerprints the semantically relevant analysis configuration.
///
/// Built from the `Debug` rendering of the config with `threads`
/// normalized out: every other field (burst filter, clustering, folding,
/// PWLR, bootstrap, fault policy) changes the analysis output, so any
/// mutation must — and does — change the fingerprint. `Debug` for floats
/// is Rust's shortest-round-trip form, which is stable.
pub fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let mut canon = config.clone();
    canon.threads = None; // bit-identical at any thread count
    fnv1a64(format!("{canon:?}").as_bytes())
}

struct Entry {
    report: String,
    witness: TraceWitness,
    last_used: u64,
}

/// Cache hit/miss tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that fell through to analysis.
    pub misses: u64,
    /// Entries evicted from memory (still on disk when spill is on).
    pub evictions: u64,
    /// Key hits whose [`TraceWitness`] did not match — a 64-bit key
    /// collision (or corrupt spill file), answered as a miss. Also counted
    /// in `misses`.
    pub verify_failures: u64,
}

/// In-memory LRU of rendered reports with optional disk spill.
pub struct ResultCache {
    entries: HashMap<CacheKey, Entry>,
    capacity: usize,
    tick: u64,
    spill_dir: Option<PathBuf>,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `capacity` reports in memory, spilling to
    /// `spill_dir` when given (the directory is created eagerly so a bad
    /// path fails at startup, not mid-request).
    pub fn new(capacity: usize, spill_dir: Option<PathBuf>) -> std::io::Result<ResultCache> {
        if let Some(dir) = &spill_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ResultCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            spill_dir,
            stats: CacheStats::default(),
        })
    }

    fn spill_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.spill_dir.as_ref().map(|d| d.join(format!("{}.report", key.hex())))
    }

    /// Looks the key up in memory, then on disk. Disk hits are promoted
    /// back into memory.
    ///
    /// Every key hit is verified against `witness` before the stored
    /// report is served: a mismatch means the requesting trace merely
    /// *collides* with the stored one under the 64-bit key (or the spill
    /// file is corrupt), and is answered as a miss — counted both in
    /// `misses` and `verify_failures`.
    pub fn get(&mut self, key: &CacheKey, witness: &TraceWitness) -> Option<String> {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            if entry.witness == *witness {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                phasefold_obs::counter!("serve.cache_hits", 1);
                return Some(entry.report.clone());
            }
            // A colliding trace. The in-memory entry (and any spill file)
            // belongs to the *other* trace; don't consult disk — it was
            // written by the same insert and carries the same witness.
            return self.verify_miss();
        }
        if let Some(path) = self.spill_path(key) {
            if let Ok(raw) = std::fs::read_to_string(&path) {
                match parse_spill(&raw) {
                    Some((stored, report)) if stored == *witness => {
                        self.stats.hits += 1;
                        phasefold_obs::counter!("serve.cache_hits", 1);
                        let report = report.to_string();
                        self.insert_memory(*key, *witness, report.clone());
                        return Some(report);
                    }
                    // Witness mismatch, a v1/v2 file, or a truncated
                    // write: unverifiable, so a miss.
                    Some(_) | None => return self.verify_miss(),
                }
            }
        }
        self.stats.misses += 1;
        phasefold_obs::counter!("serve.cache_misses", 1);
        None
    }

    fn verify_miss(&mut self) -> Option<String> {
        self.stats.verify_failures += 1;
        self.stats.misses += 1;
        phasefold_obs::counter!("serve.cache_verify_failures", 1);
        phasefold_obs::counter!("serve.cache_misses", 1);
        None
    }

    /// Inserts a rendered report, evicting the least-recently-used entry
    /// when over capacity, and writing the spill file when enabled. A
    /// failed spill write is silently ignored: the disk layer is an
    /// optimisation, never a correctness dependency.
    pub fn insert(&mut self, key: CacheKey, witness: TraceWitness, report: String) {
        if let Some(path) = self.spill_path(&key) {
            let _ = std::fs::write(&path, render_spill(&witness, &report));
        }
        self.insert_memory(key, witness, report);
    }

    fn insert_memory(&mut self, key: CacheKey, witness: TraceWitness, report: String) {
        self.tick += 1;
        while self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match lru {
                Some(k) => {
                    self.entries.remove(&k);
                    self.stats.evictions += 1;
                    phasefold_obs::counter!("serve.cache_evictions", 1);
                }
                None => break,
            }
        }
        self.entries.insert(key, Entry { report, witness, last_used: self.tick });
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached in memory.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Spill file layout: a one-line header carrying the trace witness and
/// the report's byte length, then the raw report bytes. The witness makes
/// disk hits verifiable after a daemon restart, when the in-memory witness
/// is gone; the length makes a torn write (a daemon killed mid-spill)
/// detectable, since the file is written in place.
fn render_spill(witness: &TraceWitness, report: &str) -> String {
    format!(
        "phasefold-cache v3 {} {:016x} {}\n{report}",
        witness.len,
        witness.alt,
        report.len()
    )
}

fn parse_spill(raw: &str) -> Option<(TraceWitness, &str)> {
    let (header, report) = raw.split_once('\n')?;
    let mut parts = header.split(' ');
    if parts.next() != Some("phasefold-cache") || parts.next() != Some("v3") {
        return None;
    }
    let len = parts.next()?.parse::<u64>().ok()?;
    let alt = u64::from_str_radix(parts.next()?, 16).ok()?;
    let report_len = parts.next()?.parse::<usize>().ok()?;
    if parts.next().is_some() || report.len() != report_len {
        return None;
    }
    Some((TraceWitness { len, alt }, report))
}

/// The result cache split into independently locked shards, selected by
/// a mix of the cache key. Hot concurrent lookups from different event
/// shards and queue workers no longer serialize on one global LRU lock;
/// capacity is divided evenly across shards (LRU recency is therefore
/// per-shard, which is indistinguishable under hashed key placement).
/// All shards share one spill directory — spill file stems are the full
/// key, so there are no cross-shard collisions on disk.
pub struct ShardedCache {
    shards: Vec<std::sync::Mutex<ResultCache>>,
}

impl ShardedCache {
    /// Builds `shard_count` shards splitting `capacity` between them.
    /// The spill directory (when given) is created eagerly, like
    /// [`ResultCache::new`].
    pub fn new(
        capacity: usize,
        shard_count: usize,
        spill_dir: Option<PathBuf>,
    ) -> std::io::Result<ShardedCache> {
        let n = shard_count.max(1);
        let per_shard = capacity.div_ceil(n).max(1);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(std::sync::Mutex::new(ResultCache::new(per_shard, spill_dir.clone())?));
        }
        Ok(ShardedCache { shards })
    }

    fn shard(&self, key: &CacheKey) -> &std::sync::Mutex<ResultCache> {
        let mix = key
            .trace
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
            ^ key.config;
        let idx = (mix % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn lock(shard: &std::sync::Mutex<ResultCache>) -> std::sync::MutexGuard<'_, ResultCache> {
        shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Witness-verified lookup; see [`ResultCache::get`].
    pub fn get(&self, key: &CacheKey, witness: &TraceWitness) -> Option<String> {
        Self::lock(self.shard(key)).get(key, witness)
    }

    /// Inserts into the owning shard; see [`ResultCache::insert`].
    pub fn insert(&self, key: CacheKey, witness: TraceWitness, report: String) {
        Self::lock(self.shard(&key)).insert(key, witness, report);
    }

    /// Counters aggregated across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = Self::lock(shard).stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.verify_failures += s.verify_failures;
        }
        total
    }

    /// Total in-memory entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many shards the cache was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // The content address is standard FNV-1a 64 (test vectors).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn w(i: u64) -> TraceWitness {
        TraceWitness { len: i, alt: i.wrapping_mul(0x9e37_79b9_7f4a_7c15) }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2, None).unwrap();
        let k = |i: u64| CacheKey { trace: i, config: 0 };
        cache.insert(k(1), w(1), "one".into());
        cache.insert(k(2), w(2), "two".into());
        assert_eq!(cache.get(&k(1), &w(1)).as_deref(), Some("one")); // touch 1
        cache.insert(k(3), w(3), "three".into()); // evicts 2
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k(2), &w(2)).is_none());
        assert_eq!(cache.get(&k(1), &w(1)).as_deref(), Some("one"));
        assert_eq!(cache.get(&k(3), &w(3)).as_deref(), Some("three"));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn disk_spill_survives_memory_eviction() {
        let dir = std::env::temp_dir().join("phasefold-serve-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ResultCache::new(1, Some(dir.clone())).unwrap();
        let k = |i: u64| CacheKey { trace: i, config: 7 };
        cache.insert(k(1), w(1), "spilled report".into());
        cache.insert(k(2), w(2), "other".into()); // evicts 1 from memory
        assert_eq!(cache.len(), 1);
        // …but the spill file brings it back.
        assert_eq!(cache.get(&k(1), &w(1)).as_deref(), Some("spilled report"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_collision_is_a_verified_miss_not_a_wrong_report() {
        // Two *different* traces that collide under the 64-bit key: the
        // second must NOT be served the first one's report.
        let mut cache = ResultCache::new(4, None).unwrap();
        let key = CacheKey { trace: 0xdead_beef, config: 1 };
        cache.insert(key, w(100), "report for trace A".into());
        // Same key, different canonical bytes (different witness).
        assert_eq!(cache.get(&key, &w(200)), None);
        let stats = cache.stats();
        assert_eq!(stats.verify_failures, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        // The original owner still hits.
        assert_eq!(cache.get(&key, &w(100)).as_deref(), Some("report for trace A"));
    }

    #[test]
    fn disk_spill_collision_and_corruption_are_verified_misses() {
        let dir = std::env::temp_dir().join("phasefold-serve-cache-collide-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ResultCache::new(1, Some(dir.clone())).unwrap();
        let k = |i: u64| CacheKey { trace: i, config: 9 };
        cache.insert(k(1), w(1), "disk report".into());
        cache.insert(k(2), w(2), "evictor".into()); // pushes k(1) to disk only
        // Colliding trace hits the spill file but fails verification.
        assert_eq!(cache.get(&k(1), &w(42)), None);
        assert_eq!(cache.stats().verify_failures, 1);
        // A pre-witness (header-less) spill file is unverifiable: miss.
        std::fs::write(dir.join(k(3).hex() + ".report"), "legacy v1 body").unwrap();
        assert_eq!(cache.get(&k(3), &w(3)), None);
        assert_eq!(cache.stats().verify_failures, 2);
        // A v2 file has no report length, so tearing is undetectable: miss.
        let v2 = format!("phasefold-cache v2 {} {:016x}\nv2 body", w(4).len, w(4).alt);
        std::fs::write(dir.join(k(4).hex() + ".report"), v2).unwrap();
        assert_eq!(cache.get(&k(4), &w(4)), None);
        assert_eq!(cache.stats().verify_failures, 3);
        // A daemon killed mid-spill: valid header, report cut short: miss.
        let full = render_spill(&w(5), "FULL REPORT BODY");
        std::fs::write(dir.join(k(5).hex() + ".report"), &full[..full.len() - 6]).unwrap();
        assert_eq!(cache.get(&k(5), &w(5)), None);
        assert_eq!(cache.stats().verify_failures, 4);
        // The rightful owner of k(1) still gets its report back from disk.
        assert_eq!(cache.get(&k(1), &w(1)).as_deref(), Some("disk report"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_header_round_trips() {
        let witness = TraceWitness::derive("canonical bytes");
        let raw = render_spill(&witness, "body\nwith\nnewlines");
        let (parsed, body) = parse_spill(&raw).unwrap();
        assert_eq!(parsed, witness);
        assert_eq!(body, "body\nwith\nnewlines");
        assert!(parse_spill("no header here").is_none());
    }

    #[test]
    fn alt_hash_is_independent_of_primary() {
        // The two hashes must not be related by a fixed transformation;
        // spot-check that strings colliding in neither still differ and
        // the constants differ from the primary's.
        assert_ne!(fnv1a64(b""), fnv1a64_alt(b""));
        assert_ne!(fnv1a64(b"abc"), fnv1a64_alt(b"abc"));
        assert_ne!(fnv1a64_alt(b"abc"), fnv1a64_alt(b"abd"));
    }

    #[test]
    fn threads_do_not_change_the_fingerprint() {
        let a = AnalysisConfig { threads: Some(1), ..AnalysisConfig::default() };
        let b = AnalysisConfig { threads: Some(8), ..AnalysisConfig::default() };
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        let c = AnalysisConfig { min_folded_points: 31, ..AnalysisConfig::default() };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
    }

    #[test]
    fn sharded_cache_round_trips_and_aggregates_stats() {
        let cache = ShardedCache::new(64, 4, None).unwrap();
        assert_eq!(cache.shard_count(), 4);
        let config = AnalysisConfig::default();
        for i in 0..32 {
            let trace = format!("trace {i}");
            let key = CacheKey::derive(&trace, &config);
            let witness = TraceWitness::derive(&trace);
            assert!(cache.get(&key, &witness).is_none(), "cold lookup {i}");
            cache.insert(key, witness, format!("report {i}"));
            assert_eq!(cache.get(&key, &witness).as_deref(), Some(format!("report {i}").as_str()));
        }
        assert_eq!(cache.len(), 32);
        let stats = cache.stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 32);
        // A witness mismatch is refused by whichever shard owns the key.
        let key = CacheKey::derive("trace 0", &config);
        let wrong = TraceWitness::derive("something else");
        assert!(cache.get(&key, &wrong).is_none());
        assert_eq!(cache.stats().verify_failures, 1);
    }
}

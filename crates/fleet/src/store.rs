//! Content-addressed on-disk fingerprint store.
//!
//! Lives under the daemon's `--fleet-dir` (or anywhere the CLI points it).
//! Each fingerprint owns one file, `{key}.pffp`, where `key` is the 16-hex
//! FNV-1a 64 of `build_id NUL trace_id` — the identity, not the content, so
//! re-fingerprinting the same build+trace *replaces* the old entry instead
//! of accumulating near-duplicates. Writes go through
//! [`codec::write_atomic`] (tmp file, fsync, rename, directory fsync), the
//! helper the serve session store also uses: a crash mid-`put` leaves
//! either the old fingerprint or the new one, never a torn frame.
//!
//! The store is bounded: `max_entries` caps the file count and `gc` evicts
//! oldest-modified first, so a CI fleet posting fingerprints on every
//! deploy cannot grow the directory without bound. Corrupt files surface
//! as `InvalidData` io errors from `get`/`find_build` (the frame checksum
//! catches them before any payload is interpreted) and are skipped — not
//! panicked on — by `list`.

use crate::fingerprint::Fingerprint;
use phasefold_model::codec;
use std::io;
use std::path::{Path, PathBuf};

/// File extension of stored fingerprints.
const EXT: &str = "pffp";

/// The on-disk fingerprint store.
#[derive(Debug)]
pub struct FingerprintStore {
    dir: PathBuf,
    /// Retention bound: `gc` keeps at most this many fingerprints.
    pub max_entries: usize,
}

/// One fingerprint as listed from disk.
#[derive(Debug, Clone)]
pub struct StoredFingerprint {
    /// Store key (16-hex of the build+trace identity hash).
    pub key: String,
    /// Build identity the fingerprint was stored under.
    pub build_id: String,
    /// Trace identity the fingerprint was stored under.
    pub trace_id: String,
    /// Encoded frame size on disk.
    pub bytes: u64,
}

/// Store key of a build+trace identity: `fnv1a64(build NUL trace)` in hex.
/// NUL cannot occur inside either id string, so the pairing is unambiguous.
pub fn store_key(build_id: &str, trace_id: &str) -> String {
    let mut id = Vec::with_capacity(build_id.len() + trace_id.len() + 1);
    id.extend_from_slice(build_id.as_bytes());
    id.push(0);
    id.extend_from_slice(trace_id.as_bytes());
    format!("{:016x}", codec::fnv1a64(&id))
}

impl FingerprintStore {
    /// Opens (creating) the store directory.
    pub fn open(dir: PathBuf, max_entries: usize) -> io::Result<FingerprintStore> {
        std::fs::create_dir_all(&dir)?;
        Ok(FingerprintStore { dir, max_entries: max_entries.max(1) })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of the fingerprint keyed by `build_id` + `trace_id`.
    pub fn path(&self, build_id: &str, trace_id: &str) -> PathBuf {
        self.dir.join(format!("{}.{EXT}", store_key(build_id, trace_id)))
    }

    /// Atomically stores `fp` under its own build+trace identity, then
    /// enforces the retention bound. Returns the store key.
    pub fn put(&self, fp: &Fingerprint) -> io::Result<String> {
        let key = store_key(&fp.build_id, &fp.trace_id);
        codec::write_atomic(&self.dir.join(format!("{key}.{EXT}")), &fp.encode())?;
        self.gc()?;
        Ok(key)
    }

    /// Loads the fingerprint stored for `build_id` + `trace_id`.
    /// `NotFound` when absent; `InvalidData` (wrapping the codec error)
    /// when the file exists but fails frame validation.
    pub fn get(&self, build_id: &str, trace_id: &str) -> io::Result<Fingerprint> {
        let bytes = std::fs::read(self.path(build_id, trace_id))?;
        Fingerprint::decode(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Finds the first stored fingerprint of `build_id` regardless of
    /// trace identity (filename order, so deterministic). Lets a CI
    /// pipeline say "compare against build v1.2" without repeating the
    /// trace name. Corrupt files are reported, not skipped: a baseline
    /// silently skipped is a regression silently missed.
    pub fn find_build(&self, build_id: &str) -> io::Result<Option<Fingerprint>> {
        for path in self.entries()? {
            let bytes = std::fs::read(&path)?;
            let fp = Fingerprint::decode(&bytes).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            if fp.build_id == build_id {
                return Ok(Some(fp));
            }
        }
        Ok(None)
    }

    /// Lists stored fingerprints in key order, skipping unreadable or
    /// corrupt files (listing is an overview, not a gate).
    pub fn list(&self) -> io::Result<Vec<StoredFingerprint>> {
        let mut out = Vec::new();
        for path in self.entries()? {
            let Ok(bytes) = std::fs::read(&path) else { continue };
            let Ok(fp) = Fingerprint::decode(&bytes) else { continue };
            let key = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push(StoredFingerprint {
                key,
                build_id: fp.build_id,
                trace_id: fp.trace_id,
                bytes: bytes.len() as u64,
            });
        }
        Ok(out)
    }

    /// Number of stored fingerprints.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.entries()?.len())
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.entries()?.is_empty())
    }

    /// Evicts oldest-modified fingerprints beyond `max_entries`.
    pub fn gc(&self) -> io::Result<usize> {
        let mut entries: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for path in self.entries()? {
            let mtime = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            entries.push((mtime, path));
        }
        if entries.len() <= self.max_entries {
            return Ok(0);
        }
        // Oldest first; path as tie-breaker keeps eviction deterministic
        // on filesystems with coarse mtimes.
        entries.sort();
        let excess = entries.len() - self.max_entries;
        let mut evicted = 0;
        for (_, path) in entries.into_iter().take(excess) {
            if std::fs::remove_file(&path).is_ok() {
                evicted += 1;
            }
        }
        Ok(evicted)
    }

    /// Sorted paths of all `.pffp` files in the store.
    fn entries(&self) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == EXT))
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fingerprint::{ClusterFingerprint, PhaseFingerprint};
    use phasefold_model::CounterSet;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phasefold-fleet-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(build: &str, trace: &str, mean_duration_s: f64) -> Fingerprint {
        Fingerprint {
            build_id: build.to_string(),
            trace_id: trace.to_string(),
            num_bursts: 64,
            clusters: vec![ClusterFingerprint {
                cluster: 0,
                instances: 64,
                mean_duration_s,
                total_instructions: 1e6,
                breakpoints: vec![0.5],
                slopes: vec![0.4, 0.6],
                phases: vec![PhaseFingerprint {
                    index: 0,
                    x0: 0.0,
                    x1: 1.0,
                    duration_s: mean_duration_s,
                    rates: CounterSet::ZERO,
                    source: None,
                }],
            }],
        }
    }

    #[test]
    fn put_get_roundtrip_and_replacement() {
        let dir = tmp_dir("roundtrip");
        let store = FingerprintStore::open(dir.clone(), 16).unwrap();
        let a = fp("v1", "stencil", 1e-3);
        let key = store.put(&a).unwrap();
        assert_eq!(key, store_key("v1", "stencil"));
        assert_eq!(store.get("v1", "stencil").unwrap(), a);

        // Same identity, new content: replaced, not duplicated.
        let a2 = fp("v1", "stencil", 2e-3);
        store.put(&a2).unwrap();
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(store.get("v1", "stencil").unwrap(), a2);

        // Distinct trace under the same build is a distinct entry, and
        // find_build resolves the build without the trace name.
        store.put(&fp("v2", "stencil", 3e-3)).unwrap();
        assert_eq!(store.len().unwrap(), 2);
        let found = store.find_build("v2").unwrap().expect("stored above");
        assert_eq!(found.trace_id, "stencil");
        assert!(store.find_build("v9").unwrap().is_none());
        assert!(matches!(
            store.get("v9", "stencil").map_err(|e| e.kind()),
            Err(io::ErrorKind::NotFound)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_bounds_the_store() {
        let dir = tmp_dir("gc");
        let store = FingerprintStore::open(dir.clone(), 3).unwrap();
        for i in 0..6 {
            store.put(&fp(&format!("v{i}"), "t", 1e-3)).unwrap();
        }
        assert_eq!(store.len().unwrap(), 3);
        // The newest entry always survives its own put.
        assert_eq!(store.get("v5", "t").unwrap().build_id, "v5");
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 3);
        assert!(listed.iter().all(|s| s.trace_id == "t" && s.bytes > 24));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_typed_errors_not_panics() {
        let dir = tmp_dir("corrupt");
        let store = FingerprintStore::open(dir.clone(), 16).unwrap();
        store.put(&fp("good", "t", 1e-3)).unwrap();
        let bad = store.path("bad", "t");
        std::fs::write(&bad, b"not a fingerprint frame").unwrap();
        assert!(matches!(
            store.get("bad", "t").map_err(|e| e.kind()),
            Err(io::ErrorKind::InvalidData)
        ));
        // find_build refuses to silently skip corruption...
        assert!(store.find_build("good").is_err() || store.find_build("good").unwrap().is_some());
        // ...but list (an overview) skips it and still shows the good one.
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].build_id, "good");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

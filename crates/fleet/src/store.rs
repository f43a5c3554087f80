//! The sharded calibration store: per-plant (or per-cohort) monitors
//! behind a keyed, concurrency-safe cache with TPB persistence, bounded
//! LRU residency and hot reload.
//!
//! The paper's discrimination power comes from PCA models calibrated on
//! each plant's *own* normal operation; a fleet borrowing one monitor
//! fleet-wide washes per-unit behaviour out of the calibration and
//! inflates false alarms at scale. [`ModelStore`] maps a [`PlantKey`] to
//! a calibrated [`DualMspc`]:
//!
//! * **Persistence** — one `<key>.tpb` file per key under the store
//!   directory: a framed TPB file ([`temspc_persist::save_framed`])
//!   behind the store's own magic (`TESTORE`). The fixed 16-byte header
//!   carries a **generation** counter so freshness checks read 16
//!   bytes, not the whole model.
//! * **Bounded residency** — at most `capacity` models stay in memory;
//!   the least-recently-used entry is evicted (its file remains). Hits,
//!   misses, evictions and reloads feed the existing
//!   [`MetricsRegistry`] machinery, with per-key counters.
//! * **Hot reload** — every `get` compares the cached generation with
//!   the on-disk header; a re-calibrated model dropped into the store
//!   directory (generation bumped) is picked up without restarting the
//!   engine.
//! * **Calibrate-on-miss** — a key with no file self-populates through
//!   the pooled [`crate::calibrate::calibrate`] path using a seed
//!   derived deterministically from the key, so a cold store always
//!   produces the same models as a pre-seeded one.
//!
//! The store's mutex covers lookups *and* lazy calibrations: two workers
//! missing on the same key never calibrate twice — the second blocks and
//! then hits the freshly inserted model.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use temspc::{CalibrationConfig, DualMspc, MonitorConfig};
use temspc_persist::{FramedError, PersistError};

use crate::calibrate::{self, CalibrateError};
use crate::metrics::{Counter, Gauge, MetricsRegistry};

/// File magic + format version for store entries. Distinct from the
/// monitor (`TEMSPC`), capture (`TECAP`) and checkpoint (`TEFLEET`)
/// magics, so a store file can never be mistaken for any of them.
const MAGIC: &[u8; 8] = b"TESTORE\x01";

/// A key identifying one calibration in the store: a plant id or a
/// cohort of plants sharing normal-operation statistics.
///
/// Keys are restricted to `[A-Za-z0-9_-]` (max 64 bytes) because the key
/// *is* the file stem under the store directory — the restriction rules
/// out path traversal and cross-platform name surprises.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlantKey(String);

impl PlantKey {
    /// A validated key.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadKey`] for an empty, over-long, or
    /// non-`[A-Za-z0-9_-]` name.
    pub fn new(name: impl Into<String>) -> Result<Self, StoreError> {
        let name = name.into();
        let valid = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
        if valid {
            Ok(PlantKey(name))
        } else {
            Err(StoreError::BadKey(name))
        }
    }

    /// The key of calibration cohort `index` (`cohort_<index>`).
    pub fn cohort(index: usize) -> Self {
        PlantKey(format!("cohort_{index}"))
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The file name this key persists under.
    fn file_name(&self) -> String {
        format!("{}.tpb", self.0)
    }

    /// Deterministic seed offset of this key: cohort keys use their
    /// index directly (so `cohort_0` reproduces the un-sharded base
    /// seed), any other key hashes stably (FNV-1a).
    fn seed_offset(&self) -> u64 {
        if let Some(n) = self
            .0
            .strip_prefix("cohort_")
            .and_then(|s| s.parse::<u64>().ok())
        {
            return n;
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.0.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

impl std::fmt::Display for PlantKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Errors from the model store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// Encoding/decoding failure of a store entry payload.
    Format(PersistError),
    /// The file is not a store entry (bad magic/version) or is torn
    /// short of the fixed header.
    BadHeader,
    /// The key is not a valid store key (`[A-Za-z0-9_-]`, ≤ 64 bytes).
    BadKey(String),
    /// A store file's embedded key disagrees with its file name — the
    /// file was renamed or copied over another key.
    KeyMismatch {
        /// The key the file name implies.
        expected: String,
        /// The key recorded inside the file.
        found: String,
    },
    /// Lazily calibrating a missing key failed.
    Calibrate(CalibrateError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "model store i/o failure: {e}"),
            StoreError::Format(e) => write!(f, "model store format failure: {e}"),
            StoreError::BadHeader => write!(f, "not a model store entry (bad header)"),
            StoreError::BadKey(k) => write!(
                f,
                "'{k}' is not a valid store key (want 1-64 chars of [A-Za-z0-9_-])"
            ),
            StoreError::KeyMismatch { expected, found } => write!(
                f,
                "store file for key '{expected}' actually holds key '{found}'"
            ),
            StoreError::Calibrate(e) => write!(f, "calibrate-on-miss failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Format(e) => Some(e),
            StoreError::Calibrate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FramedError> for StoreError {
    fn from(e: FramedError) -> Self {
        match e {
            FramedError::Io(e) => StoreError::Io(e),
            FramedError::Format(e) => StoreError::Format(e),
            FramedError::BadHeader => StoreError::BadHeader,
        }
    }
}

impl From<CalibrateError> for StoreError {
    fn from(e: CalibrateError) -> Self {
        StoreError::Calibrate(e)
    }
}

/// Configuration of a model store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding one `<key>.tpb` per persisted calibration.
    pub dir: PathBuf,
    /// Maximum models resident in memory at once (≥ 1; the LRU entry is
    /// evicted beyond this — its file stays on disk).
    pub capacity: usize,
    /// Base calibration campaign for calibrate-on-miss; per-key
    /// campaigns derive their seed from it (see
    /// [`StoreConfig::calibration_for`]).
    pub calibration: CalibrationConfig,
    /// Monitor configuration for calibrate-on-miss fits.
    pub monitor: MonitorConfig,
    /// Seed distance between keys: key `k` calibrates with
    /// `base_seed + seed_stride × offset(k)`. Stride 0 gives every key
    /// the base seed — i.e. a single shared calibration, reproducing
    /// the un-sharded engine bit-for-bit.
    pub seed_stride: u64,
}

impl StoreConfig {
    /// A store under `dir` with the given calibrate-on-miss campaign
    /// and defaults for the rest (capacity 4, seed stride 10 000).
    pub fn new(dir: impl Into<PathBuf>, calibration: CalibrationConfig) -> Self {
        StoreConfig {
            dir: dir.into(),
            capacity: 4,
            calibration,
            monitor: MonitorConfig::default(),
            seed_stride: 10_000,
        }
    }

    /// The calibration campaign for `key`: the base campaign with the
    /// key's deterministic seed offset applied. Cohort 0 (offset 0)
    /// always equals the base campaign, so a single-key store
    /// reproduces the shared-monitor fleet exactly.
    pub fn calibration_for(&self, key: &PlantKey) -> CalibrationConfig {
        let mut cfg = self.calibration.clone();
        cfg.base_seed = cfg
            .base_seed
            .wrapping_add(self.seed_stride.wrapping_mul(key.seed_offset()));
        cfg
    }
}

/// A model resolved from the store, with the generation that scored it.
#[derive(Debug, Clone)]
pub struct ResolvedModel {
    /// The calibrated monitor (shared, cheap to clone).
    pub model: Arc<DualMspc>,
    /// Generation of the persisted entry this model came from (1 for a
    /// freshly calibrated key, bumped by every re-insert).
    pub generation: u64,
}

/// One resident cache entry.
struct CacheEntry {
    model: Arc<DualMspc>,
    generation: u64,
    /// LRU clock value of the last access.
    tick: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<PlantKey, CacheEntry>,
    tick: u64,
}

/// Store-level metric handles (per-key counters register lazily).
struct StoreMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    reloads: Counter,
    calibrations: Counter,
    resident: Gauge,
}

impl StoreMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        StoreMetrics {
            hits: registry.counter("model_store_hits_total", "store lookups served from memory"),
            misses: registry.counter(
                "model_store_misses_total",
                "store lookups that had to load or calibrate",
            ),
            evictions: registry.counter(
                "model_store_evictions_total",
                "models evicted from memory by the LRU bound",
            ),
            reloads: registry.counter(
                "model_store_reloads_total",
                "hot reloads after an on-disk generation bump",
            ),
            calibrations: registry.counter(
                "model_store_calibrations_total",
                "lazy calibrations of keys with no persisted model",
            ),
            resident: registry.gauge("model_store_resident_models", "models currently in memory"),
        }
    }
}

/// The keyed, concurrency-safe calibration store.
///
/// See the module docs for the design; the short version: `get` a
/// [`PlantKey`] and you receive the freshest calibrated monitor for it,
/// whether it was cached, persisted, or never existed before.
pub struct ModelStore {
    config: StoreConfig,
    inner: Mutex<Inner>,
    registry: MetricsRegistry,
    metrics: StoreMetrics,
}

impl ModelStore {
    /// A store over `config.dir` (created lazily on first save).
    pub fn new(config: StoreConfig) -> Self {
        let registry = MetricsRegistry::new();
        let metrics = StoreMetrics::register(&registry);
        ModelStore {
            config,
            inner: Mutex::new(Inner::default()),
            registry,
            metrics,
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The store's metrics (hit/miss/eviction/reload counters and the
    /// resident gauge, plus per-key counters), using the same registry
    /// machinery as the fleet engine.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Number of models currently resident in memory.
    pub fn resident(&self) -> usize {
        self.inner
            .lock()
            .expect("model store poisoned")
            .entries
            .len()
    }

    fn path_of(&self, key: &PlantKey) -> PathBuf {
        self.config.dir.join(key.file_name())
    }

    fn per_key(&self, family: &str, key: &PlantKey) -> Counter {
        // Prometheus metric names reject '-', the one key character
        // outside its alphabet.
        let suffix = key.as_str().replace('-', "_");
        self.registry
            .counter(&format!("model_store_key_{family}_total_{suffix}"), "")
    }

    /// The generation recorded in `key`'s on-disk header, or `None` when
    /// no file exists. Reads 16 bytes — cheap enough to call per plant.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadHeader`] for a torn or foreign file,
    /// [`StoreError::Io`] for filesystem failures.
    pub fn generation_on_disk(&self, key: &PlantKey) -> Result<Option<u64>, StoreError> {
        not_found_as_none(temspc_persist::read_generation(self.path_of(key), MAGIC))
    }

    /// Loads `key`'s persisted model, or `None` when no file exists.
    ///
    /// The payload is `(key, monitor)`: the key a file was saved under
    /// travels inside it, so a renamed file is caught as a mismatch.
    fn load_from_disk(&self, key: &PlantKey) -> Result<Option<(DualMspc, u64)>, StoreError> {
        let loaded =
            temspc_persist::load_framed_generation::<(String, DualMspc)>(self.path_of(key), MAGIC);
        let Some((generation, (found, monitor))) = not_found_as_none(loaded)? else {
            return Ok(None);
        };
        if found != key.as_str() {
            return Err(StoreError::KeyMismatch {
                expected: key.as_str().to_string(),
                found,
            });
        }
        Ok(Some((monitor, generation)))
    }

    /// Persists `model` for `key` at `generation`, atomically.
    fn save_to_disk(
        &self,
        key: &PlantKey,
        model: &DualMspc,
        generation: u64,
    ) -> Result<(), StoreError> {
        let entry = (key.as_str(), model);
        Ok(temspc_persist::save_framed(
            self.path_of(key),
            MAGIC,
            Some(generation),
            &entry,
        )?)
    }

    /// Caches `(model, generation)` under `key`, evicting the LRU entry
    /// beyond capacity. Caller holds the lock.
    fn cache(&self, inner: &mut Inner, key: &PlantKey, model: Arc<DualMspc>, generation: u64) {
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key.clone(),
            CacheEntry {
                model,
                generation,
                tick,
            },
        );
        let capacity = self.config.capacity.max(1);
        while inner.entries.len() > capacity {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty beyond capacity");
            inner.entries.remove(&victim);
            self.metrics.evictions.inc();
            self.per_key("evictions", &victim).inc();
        }
        self.metrics.resident.set(inner.entries.len() as f64);
    }

    /// Resolves `key` to its freshest calibrated model.
    ///
    /// Resolution order: memory (after a 16-byte freshness check against
    /// the on-disk generation — a bumped file hot-reloads), then disk,
    /// then a deterministic pooled calibration persisted at
    /// generation 1. If the file vanished underneath a cached entry the
    /// cached model keeps serving.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failures, torn/foreign files, or a
    /// failed calibrate-on-miss. Torn files are *not* silently
    /// recalibrated over — fix them explicitly (`temspc store calibrate`
    /// or delete the file).
    pub fn get(&self, key: &PlantKey) -> Result<ResolvedModel, StoreError> {
        let mut inner = self.inner.lock().expect("model store poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(key) {
            let disk = self.generation_on_disk(key)?;
            match disk {
                Some(gen) if gen != entry.generation => {
                    // Hot reload: someone bumped the file's generation.
                    let (model, generation) =
                        self.load_from_disk(key)?.expect("header peek saw the file");
                    self.metrics.reloads.inc();
                    let model = Arc::new(model);
                    self.cache(&mut inner, key, Arc::clone(&model), generation);
                    return Ok(ResolvedModel { model, generation });
                }
                _ => {
                    entry.tick = tick;
                    self.metrics.hits.inc();
                    self.per_key("hits", key).inc();
                    return Ok(ResolvedModel {
                        model: Arc::clone(&entry.model),
                        generation: entry.generation,
                    });
                }
            }
        }
        self.metrics.misses.inc();
        self.per_key("misses", key).inc();
        let (model, generation) = match self.load_from_disk(key)? {
            Some(found) => found,
            None => {
                // Calibrate-on-miss: deterministic per-key campaign, so
                // a cold store self-populates identically every time.
                let cfg = self.config.calibration_for(key);
                let model = calibrate::calibrate(&cfg, self.config.monitor)?;
                self.metrics.calibrations.inc();
                self.save_to_disk(key, &model, 1)?;
                (model, 1)
            }
        };
        let model = Arc::new(model);
        self.cache(&mut inner, key, Arc::clone(&model), generation);
        Ok(ResolvedModel { model, generation })
    }

    /// Inserts an externally calibrated `model` for `key`, persisting it
    /// at the next generation (on-disk generation + 1, or 1) and caching
    /// it. Other store handles over the same directory pick the new
    /// generation up on their next `get` (hot reload).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O or encoding failure.
    pub fn insert(&self, key: &PlantKey, model: DualMspc) -> Result<ResolvedModel, StoreError> {
        let mut inner = self.inner.lock().expect("model store poisoned");
        let generation = match self.generation_on_disk(key) {
            Ok(Some(gen)) => gen + 1,
            Ok(None) => 1,
            // A torn file is replaced rather than trusted for its
            // generation; start a fresh lineage above it.
            Err(StoreError::BadHeader) => 1,
            Err(e) => return Err(e),
        };
        self.save_to_disk(key, &model, generation)?;
        let model = Arc::new(model);
        self.cache(&mut inner, key, Arc::clone(&model), generation);
        Ok(ResolvedModel { model, generation })
    }

    /// Re-runs `key`'s deterministic calibration campaign and persists
    /// the result at a bumped generation — the hot-reload producer side.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Calibrate`] if the campaign fails, or the
    /// underlying persistence error.
    pub fn recalibrate(&self, key: &PlantKey) -> Result<ResolvedModel, StoreError> {
        let cfg = self.config.calibration_for(key);
        let model = calibrate::calibrate(&cfg, self.config.monitor)?;
        self.metrics.calibrations.inc();
        self.insert(key, model)
    }

    /// Drops `key` from memory (its file stays). Returns whether it was
    /// resident.
    pub fn evict(&self, key: &PlantKey) -> bool {
        let mut inner = self.inner.lock().expect("model store poisoned");
        let was = inner.entries.remove(key).is_some();
        if was {
            self.metrics.evictions.inc();
            self.per_key("evictions", key).inc();
            self.metrics.resident.set(inner.entries.len() as f64);
        }
        was
    }

    /// Removes `key` from memory *and* disk. Returns whether a file
    /// existed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn remove(&self, key: &PlantKey) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("model store poisoned");
        inner.entries.remove(key);
        self.metrics.resident.set(inner.entries.len() as f64);
        match std::fs::remove_file(self.path_of(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// The keys persisted in the store directory with their generations,
    /// sorted by key. Files that are not valid store entries are
    /// reported with generation `None` instead of failing the listing.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be read (a
    /// missing directory lists as empty).
    pub fn keys_on_disk(&self) -> Result<Vec<(PlantKey, Option<u64>)>, StoreError> {
        let entries = match std::fs::read_dir(&self.config.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut keys = Vec::new();
        for entry in entries {
            let name = entry?.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".tpb")) else {
                continue;
            };
            let Ok(key) = PlantKey::new(stem) else {
                continue;
            };
            let generation = self.generation_on_disk(&key).ok().flatten();
            keys.push((key, generation));
        }
        keys.sort();
        Ok(keys)
    }
}

/// Maps a missing store file to `None`, keeping every other outcome.
fn not_found_as_none<T>(result: Result<T, FramedError>) -> Result<Option<T>, StoreError> {
    match result {
        Ok(value) => Ok(Some(value)),
        Err(FramedError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("dir", &self.config.dir)
            .field("capacity", &self.config.capacity)
            .field("resident", &self.resident())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("temspc_store_unit_{test}"))
    }

    fn quick_calibration() -> CalibrationConfig {
        CalibrationConfig {
            runs: 2,
            duration_hours: 0.2,
            record_every: 10,
            base_seed: 300,
            threads: 0,
        }
    }

    #[test]
    fn keys_validate_and_derive_offsets() {
        assert!(PlantKey::new("cohort_3").is_ok());
        assert!(PlantKey::new("line-A_7").is_ok());
        assert!(PlantKey::new("").is_err());
        assert!(PlantKey::new("../escape").is_err());
        assert!(PlantKey::new("a b").is_err());
        assert_eq!(PlantKey::cohort(0).seed_offset(), 0);
        assert_eq!(PlantKey::cohort(5).seed_offset(), 5);
        // Non-cohort keys hash stably and differ from each other.
        let a = PlantKey::new("line-A").unwrap().seed_offset();
        let b = PlantKey::new("line-B").unwrap().seed_offset();
        assert_ne!(a, b);
        assert_eq!(a, PlantKey::new("line-A").unwrap().seed_offset());
    }

    #[test]
    fn cohort_zero_calibration_equals_base() {
        let config = StoreConfig::new(tmp("seed"), quick_calibration());
        assert_eq!(
            config.calibration_for(&PlantKey::cohort(0)),
            quick_calibration()
        );
        let c1 = config.calibration_for(&PlantKey::cohort(1));
        assert_eq!(c1.base_seed, quick_calibration().base_seed + 10_000);
    }

    #[test]
    fn missing_key_calibrates_persists_and_hits_after() {
        let dir = tmp("miss");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
        let key = PlantKey::cohort(0);
        let first = store.get(&key).unwrap();
        assert_eq!(first.generation, 1);
        let second = store.get(&key).unwrap();
        assert!(Arc::ptr_eq(&first.model, &second.model));
        let text = store.metrics().expose();
        assert!(text.contains("model_store_misses_total 1"));
        assert!(text.contains("model_store_hits_total 1"));
        assert!(text.contains("model_store_calibrations_total 1"));
        assert!(text.contains("model_store_key_hits_total_cohort_0 1"));
        // The model equals the pooled/sequential calibration bit-for-bit.
        let direct = DualMspc::calibrate(&quick_calibration()).unwrap();
        assert_eq!(
            direct.controller_model().limits().t2_99,
            first.model.controller_model().limits().t2_99
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_keeps_at_most_capacity_models() {
        let dir = tmp("lru");
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = StoreConfig::new(&dir, quick_calibration());
        config.capacity = 2;
        let store = ModelStore::new(config);
        let model = DualMspc::calibrate(&quick_calibration()).unwrap();
        for i in 0..3 {
            store.insert(&PlantKey::cohort(i), model.clone()).unwrap();
        }
        assert_eq!(store.resident(), 2);
        // cohort_0 was the least recently used.
        let resident = store.inner.lock().unwrap();
        assert!(!resident.entries.contains_key(&PlantKey::cohort(0)));
        drop(resident);
        let text = store.metrics().expose();
        assert!(text.contains("model_store_evictions_total 1"));
        assert!(text.contains("model_store_key_evictions_total_cohort_0 1"));
        assert!(text.contains("model_store_resident_models 2"));
        // The evicted key's file is still there; getting it is a miss,
        // not a recalibration.
        assert!(store.get(&PlantKey::cohort(0)).is_ok());
        assert!(store
            .metrics()
            .expose()
            .contains("model_store_calibrations_total 0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_bump_hot_reloads() {
        let dir = tmp("reload");
        let _ = std::fs::remove_dir_all(&dir);
        let reader = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
        let writer = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
        let key = PlantKey::cohort(0);
        assert_eq!(reader.get(&key).unwrap().generation, 1);
        // A second handle re-calibrates the key (simulating an offline
        // re-calibration dropped into the directory) ...
        assert_eq!(writer.recalibrate(&key).unwrap().generation, 2);
        // ... and the first handle picks it up without restarting.
        assert_eq!(reader.get(&key).unwrap().generation, 2);
        assert!(reader
            .metrics()
            .expose()
            .contains("model_store_reloads_total 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_and_torn_files_error_cleanly() {
        let dir = tmp("torn");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
        let key = PlantKey::new("broken").unwrap();
        for bytes in [&b""[..], &b"TESTO"[..], &b"WRONGMAGICANDMORE"[..]] {
            std::fs::write(dir.join("broken.tpb"), bytes).unwrap();
            assert!(matches!(store.get(&key), Err(StoreError::BadHeader)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_file_is_a_key_mismatch() {
        let dir = tmp("mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
        let model = DualMspc::calibrate(&quick_calibration()).unwrap();
        store.insert(&PlantKey::cohort(0), model).unwrap();
        std::fs::rename(dir.join("cohort_0.tpb"), dir.join("cohort_9.tpb")).unwrap();
        assert!(matches!(
            store.get(&PlantKey::cohort(9)),
            Err(StoreError::KeyMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_reports_keys_and_generations() {
        let dir = tmp("list");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new(StoreConfig::new(&dir, quick_calibration()));
        assert!(store.keys_on_disk().unwrap().is_empty());
        let model = DualMspc::calibrate(&quick_calibration()).unwrap();
        store.insert(&PlantKey::cohort(1), model.clone()).unwrap();
        store.insert(&PlantKey::cohort(0), model.clone()).unwrap();
        store.insert(&PlantKey::cohort(0), model).unwrap();
        std::fs::write(dir.join("torn.tpb"), b"XX").unwrap();
        let keys = store.keys_on_disk().unwrap();
        assert_eq!(
            keys,
            vec![
                (PlantKey::cohort(0), Some(2)),
                (PlantKey::cohort(1), Some(1)),
                (PlantKey::new("torn").unwrap(), None),
            ]
        );
        assert!(store.remove(&PlantKey::cohort(1)).unwrap());
        assert!(!store.remove(&PlantKey::cohort(1)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

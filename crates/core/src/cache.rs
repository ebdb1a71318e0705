//! Content-addressed scenario-result cache for incremental collection.
//!
//! The paper's Algorithm 1 re-executes the full VM-type × node-count ×
//! input grid on every invocation. The companion tool paper motivates
//! *appending to and reusing* prior data points instead of re-running
//! multi-hour cloud jobs; this module is that layer. Every scenario gets a
//! deterministic **fingerprint** — a stable hash over everything that can
//! change its simulated result:
//!
//! * the scenario itself (SKU, node count, processes per node, app inputs)
//!   and the application name,
//! * the experiment noise seed,
//! * the SKU-catalog/pricing revision ([`cloudsim::SkuCatalog::revision`]),
//! * the application setup/run script content,
//! * the app-model version constant ([`appmodel::MODEL_VERSION`]).
//!
//! The cache maps fingerprints to finished [`DataPoint`]s. A warm
//! collection consults it before provisioning anything: hits bypass the
//! batch/cloud simulators entirely and are merged id-ordered, so a warm
//! run's dataset is byte-identical to a cold run's. Whenever a fingerprint
//! input changes (a new seed, a price update, a model bump, an edited
//! script), the key changes and the stale entry is simply never found —
//! invalidation is automatic and needs no bookkeeping.
//!
//! Identity-only fields of a data point — its scenario id, tags, and
//! deployment name — are **not** fingerprinted: they do not influence the
//! simulation, and a cached point is re-stamped with the current values on
//! hit (see [`rehydrate_point`]). This is what lets a widened grid (which
//! shifts scenario ids) still reuse every already-known point.
//!
//! Persistence is an **indexed binary record log** under the CLI work
//! directory's `cache/` folder: a length-prefixed, checksummed append-only
//! log of `(fingerprint, point)` records plus a sibling
//! fingerprint → offset index (`<store>.idx`). Saving appends only the
//! records added since the last save — O(new entries), not O(store) — and
//! compacts via atomic segment rotation (write-temp-then-rename, log
//! before index) once superseded records outnumber live ones. Legacy
//! whole-file JSON stores are read transparently and keep saving as JSON
//! until converted with `cache migrate`. A torn log tail or damaged index
//! salvages every intact record and rebuilds on the next save — never a
//! cold run; only an unrecognizable store (no magic, unparsable JSON)
//! degrades to cold instead of erroring.
//!
//! Concurrency: fingerprinting and lookup happen once, up front, on the
//! coordinating thread; shard workers only ever see the miss list and
//! accumulate their results into per-shard output buffers. New entries are
//! inserted after the merge barrier, so the hot path takes no lock.

use crate::dataset::{DataPoint, PointFields};
use crate::error::ToolError;
use crate::scenario::{Scenario, ScenarioStatus};
use hpcadvisor_formats::{json, FormatError};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the on-disk cache schema. Files written by a different
/// schema are discarded wholesale (treated as a cold cache).
const STORE_VERSION: i64 = 1;

/// Magic prefix of a binary record log (8 bytes, version in the tail).
const LOG_MAGIC: &[u8; 8] = b"HPCAV001";

/// Magic prefix of the sidecar fingerprint → offset index.
const IDX_MAGIC: &[u8; 8] = b"HPCAIDX1";

/// Fixed byte size of one index record: 16-byte fingerprint + u64 offset.
const IDX_RECORD: usize = 24;

/// On-disk format of a persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// Length-prefixed binary record log with a sidecar index (default for
    /// new stores).
    #[default]
    Binary,
    /// Legacy whole-file pretty-printed JSON (rewritten in full per save).
    Json,
}

impl StoreFormat {
    /// Short human-readable name (`binary`, `json`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StoreFormat::Binary => "binary",
            StoreFormat::Json => "json",
        }
    }
}

/// FNV-1a-64 over a record payload — the per-record checksum that catches
/// torn or bit-rotted log writes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

/// Sidecar index path: the store path with `.idx` appended (not swapped,
/// so `scenario-cache.bin` and a migrated `scenario-cache.json` cannot
/// collide on one index name).
fn index_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".idx");
    PathBuf::from(os)
}

/// Appends one log record: `[u32 LE payload len][payload][u64 LE FNV-1a]`
/// where the payload is the 16-byte big-endian fingerprint followed by the
/// point's compact JSON. `json` is scratch space, reused across records.
fn encode_record(buf: &mut Vec<u8>, json: &mut String, fp: u128, point: &DataPoint) {
    json.clear();
    point.write_json(json::Slot::compact(json));
    buf.extend_from_slice(&((16 + json.len()) as u32).to_le_bytes());
    let payload = buf.len();
    buf.extend_from_slice(&fp.to_be_bytes());
    buf.extend_from_slice(json.as_bytes());
    let sum = fnv64(&buf[payload..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// What a binary-log scan recovered.
struct LogScan {
    entries: HashMap<u128, DataPoint>,
    /// Log offset of each live fingerprint's (last) record.
    offsets: HashMap<u128, u64>,
    /// Byte length of the valid log prefix.
    valid_len: u64,
    /// True when trailing bytes after the valid prefix had to be dropped
    /// (torn final write, or mid-log corruption truncating the scan).
    torn: bool,
    /// Superseded records encountered (same fingerprint written twice).
    dead: usize,
}

/// Walks a binary log, salvaging every intact record. Stops at the first
/// record that fails its length, checksum, or JSON decode — everything
/// before it is kept.
fn scan_log(bytes: &[u8]) -> LogScan {
    let mut entries = HashMap::new();
    let mut offsets = HashMap::new();
    let mut dead = 0usize;
    let mut pos = LOG_MAGIC.len();
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
            break;
        };
        let Some(sum_bytes) = bytes.get(pos + 4 + len..pos + 12 + len) else {
            break;
        };
        let sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if len < 16 || fnv64(payload) != sum {
            break;
        }
        let fp = u128::from_be_bytes(payload[..16].try_into().expect("16 bytes"));
        let Ok(text) = std::str::from_utf8(&payload[16..]) else {
            break;
        };
        let Ok(point) = DataPoint::from_json(text) else {
            break;
        };
        if entries.insert(fp, point).is_some() {
            dead += 1;
        }
        offsets.insert(fp, pos as u64);
        pos += 12 + len;
    }
    LogScan {
        entries,
        offsets,
        valid_len: pos as u64,
        torn: pos != bytes.len(),
        dead,
    }
}

/// Reads the sidecar index and reports whether it exactly matches the
/// offsets the log scan recovered. A missing, damaged, or stale index is
/// never fatal — the log is the source of truth — it just schedules an
/// index rebuild on the next save.
fn index_matches(path: &Path, offsets: &HashMap<u128, u64>) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return offsets.is_empty();
    };
    if !bytes.starts_with(IDX_MAGIC) || !(bytes.len() - IDX_MAGIC.len()).is_multiple_of(IDX_RECORD)
    {
        return false;
    }
    let records = &bytes[IDX_MAGIC.len()..];
    let mut seen: HashMap<u128, u64> = HashMap::with_capacity(records.len() / IDX_RECORD);
    for rec in records.chunks_exact(IDX_RECORD) {
        let fp = u128::from_be_bytes(rec[..16].try_into().expect("16 bytes"));
        let off = u64::from_le_bytes(rec[16..].try_into().expect("8 bytes"));
        seen.insert(fp, off);
    }
    seen == *offsets
}

/// How a collection run uses the scenario cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Consult the cache before running and store new results (default).
    #[default]
    ReadWrite,
    /// Consult the cache but never store anything new.
    ReadOnly,
    /// Ignore the cache entirely: every scenario runs cold.
    Off,
}

impl CachePolicy {
    /// True if lookups are allowed.
    pub fn reads(&self) -> bool {
        !matches!(self, CachePolicy::Off)
    }

    /// True if new results should be stored.
    pub fn writes(&self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }

    /// Short human-readable name (`read-write`, `read-only`, `off`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CachePolicy::ReadWrite => "read-write",
            CachePolicy::ReadOnly => "read-only",
            CachePolicy::Off => "off",
        }
    }
}

/// A 128-bit content fingerprint of one scenario execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Hex spelling used as the JSON store key (32 lowercase digits).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the hex spelling.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a hasher. FNV is not cryptographic, but the
/// cache only needs collision resistance across at most a few million
/// honest keys, where 128 bits is far beyond sufficient — and the hash is
/// bit-stable across platforms and Rust versions, unlike `DefaultHasher`.
#[derive(Debug, Clone)]
struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    fn new() -> Self {
        Fnv128 {
            state: Self::OFFSET,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u128).wrapping_mul(Self::PRIME);
        }
    }

    /// Writes a field followed by a separator byte, so adjacent fields
    /// cannot alias (`"ab" + "c"` vs `"a" + "bc"`).
    fn field(&mut self, bytes: &[u8]) {
        self.write(bytes);
        self.write(&[0x1f]);
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

/// Computes scenario fingerprints for one collection run. Construct once
/// per run (the collection-level inputs are folded in eagerly), then call
/// [`Fingerprinter::scenario`] per grid point.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    base: Fnv128,
}

impl Fingerprinter {
    /// Folds in every collection-level fingerprint input.
    pub fn new(appname: &str, script: &str, experiment_seed: u64, catalog_revision: u64) -> Self {
        let mut base = Fnv128::new();
        base.field(&appmodel::MODEL_VERSION.to_le_bytes());
        base.field(appname.as_bytes());
        base.field(script.as_bytes());
        base.field(&experiment_seed.to_le_bytes());
        base.field(&catalog_revision.to_le_bytes());
        Fingerprinter { base }
    }

    /// Folds the run's capacity class into the fingerprint. Dedicated is
    /// the implicit default and folds nothing, so fingerprints of ordinary
    /// runs are unchanged; spot results can never shadow dedicated ones
    /// (their eviction overhead makes them different measurements).
    pub fn with_capacity(mut self, capacity: cloudsim::Capacity) -> Self {
        if capacity != cloudsim::Capacity::Dedicated {
            self.base.field(capacity.as_str().as_bytes());
        }
        self
    }

    /// Fingerprints one scenario under this run's collection inputs.
    ///
    /// The placement region folds in last, and only when the scenario pins
    /// one: default-region scenarios keep their pre-placement fingerprints,
    /// so caches populated before multi-region grids existed stay warm.
    /// (No aliasing with the appinput pairs is possible — appinputs always
    /// contribute an even number of fields, the region exactly one.)
    pub fn scenario(&self, s: &Scenario) -> Fingerprint {
        let mut h = self.base.clone();
        h.field(s.sku.as_bytes());
        h.field(&s.nnodes.to_le_bytes());
        h.field(&s.ppn.to_le_bytes());
        for (k, v) in &s.appinputs {
            h.field(k.as_bytes());
            h.field(v.as_bytes());
        }
        if let Some(region) = &s.region {
            h.field(region.as_bytes());
        }
        Fingerprint(h.finish())
    }
}

/// Re-stamps a cached point with the identity-only fields of the current
/// run: scenario id, tags, and deployment. These are exactly the
/// [`DataPoint`] fields excluded from the fingerprint, so after this call
/// the point is byte-for-byte what a cold run of `scenario` would produce.
pub fn rehydrate_point(
    mut point: DataPoint,
    scenario: &Scenario,
    tags: &[(String, String)],
    deployment: &str,
) -> DataPoint {
    point.scenario_id = scenario.id;
    point.tags = tags.to_vec();
    point.deployment = deployment.to_string();
    point
}

/// Summary counters of a cache store (the CLI's `cache stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStoreStats {
    /// Entries currently held.
    pub entries: usize,
    /// Backing file, if the cache is persistent.
    pub path: Option<PathBuf>,
    /// True if the backing file was damaged: an unrecognizable store
    /// started cold, a torn binary log salvaged its intact prefix.
    pub recovered: bool,
    /// On-disk format of the backing store.
    pub format: StoreFormat,
}

/// The content-addressed scenario-result store.
///
/// In-memory by default; [`ScenarioCache::open`] binds it to a file.
/// New stores persist as an indexed binary record log
/// ([`StoreFormat::Binary`]): [`ScenarioCache::save`] appends only the
/// records added since the last save and rotates the segment atomically
/// (temp-then-rename, log before index) when compaction is due. Stores
/// holding legacy JSON keep the JSON whole-file format until
/// [`ScenarioCache::migrate_to_binary`] converts them in place.
#[derive(Debug, Default)]
pub struct ScenarioCache {
    entries: HashMap<u128, DataPoint>,
    path: Option<PathBuf>,
    recovered: bool,
    /// True when the in-memory entries differ from the backing file:
    /// [`ScenarioCache::save`] skips the rewrite entirely when clean, so a
    /// warm all-hits run never touches the store. Recovered opens start
    /// dirty — the next save heals the damaged file.
    dirty: bool,
    format: StoreFormat,
    /// Binary mode: log offset of every live fingerprint's record.
    offsets: HashMap<u128, u64>,
    /// Binary mode: byte length of the valid log prefix on disk.
    valid_len: u64,
    /// Binary mode: fingerprints inserted or changed since the last save —
    /// the records the next save appends.
    pending: Vec<u128>,
    /// Binary mode: superseded records in the on-disk log. Once they
    /// outnumber live entries, the next save compacts instead of appending.
    dead: usize,
    /// Binary mode: the next save must rewrite the whole segment (fresh
    /// or unrecognizable store, salvaged tail, clear, migration, or
    /// compaction due).
    rewrite_needed: bool,
    /// Binary mode: the sidecar index disagreed with the log (or was
    /// missing); the next save rebuilds it even without new entries.
    index_stale: bool,
}

impl ScenarioCache {
    /// An empty, purely in-memory cache (results live for the collector's
    /// lifetime only).
    pub fn in_memory() -> Self {
        ScenarioCache::default()
    }

    /// Opens a file-backed cache, sniffing the on-disk format. A missing
    /// file starts an empty binary store; a file opening with the binary
    /// magic loads the record log (salvaging every intact record if the
    /// tail is torn or the index disagrees — never cold); a file that
    /// parses as a legacy JSON store keeps the JSON format until migrated.
    /// Anything else starts cold as an empty binary store with the
    /// `recovered` flag set, which the next save heals — never an error,
    /// since a damaged cache must cost a re-run, not a failure.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        match std::fs::read(&path) {
            // Missing file: a fresh binary store.
            Err(_) => ScenarioCache {
                path: Some(path),
                rewrite_needed: true,
                ..ScenarioCache::default()
            },
            Ok(bytes) if bytes.starts_with(LOG_MAGIC) => {
                let scan = scan_log(&bytes);
                let index_stale = scan.torn || !index_matches(&index_path(&path), &scan.offsets);
                let dead_heavy = scan.dead > scan.entries.len();
                ScenarioCache {
                    entries: scan.entries,
                    path: Some(path),
                    recovered: scan.torn,
                    // A torn tail, stale index, or dead-heavy log heals on
                    // the next save even without new inserts.
                    dirty: scan.torn || index_stale || dead_heavy,
                    format: StoreFormat::Binary,
                    offsets: scan.offsets,
                    valid_len: scan.valid_len,
                    pending: Vec::new(),
                    dead: scan.dead,
                    rewrite_needed: scan.torn || dead_heavy,
                    index_stale,
                }
            }
            Ok(bytes) => match std::str::from_utf8(&bytes)
                .map_err(|_| ())
                .and_then(|text| parse_store(text).map_err(|_| ()))
            {
                Ok(entries) => ScenarioCache {
                    entries,
                    path: Some(path),
                    format: StoreFormat::Json,
                    ..ScenarioCache::default()
                },
                // Unrecognizable (a damaged magic, an empty or unparsable
                // file): start cold and heal into a binary store.
                Err(()) => ScenarioCache {
                    path: Some(path),
                    recovered: true,
                    dirty: true,
                    rewrite_needed: true,
                    ..ScenarioCache::default()
                },
            },
        }
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// True if a damaged backing file was discarded (unrecognizable store)
    /// or salvaged (torn binary log) on open.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// On-disk format the store persists as.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// Store summary for status displays.
    pub fn stats(&self) -> CacheStoreStats {
        CacheStoreStats {
            entries: self.entries.len(),
            path: self.path.clone(),
            recovered: self.recovered,
            format: self.format,
        }
    }

    /// Looks a fingerprint up, returning a clone of the stored point.
    pub fn lookup(&self, fp: Fingerprint) -> Option<DataPoint> {
        self.entries.get(&fp.0).cloned()
    }

    /// Stores a finished point. Only completed points are cacheable —
    /// failures may be transient (injected faults, quota) and must re-run.
    /// Points with a non-finite float are refused too: they have no JSON
    /// form, and one such record would end the log scan on the next open.
    /// A point identical to the stored one is a no-op that leaves the
    /// store clean, so redundant inserts never force a file rewrite.
    /// Returns whether the store changed.
    pub fn insert(&mut self, fp: Fingerprint, point: &DataPoint) -> bool {
        if point.status != ScenarioStatus::Completed || !point.is_finite() {
            return false;
        }
        if self.entries.get(&fp.0) == Some(point) {
            return false;
        }
        if self.entries.insert(fp.0, point.clone()).is_some() && self.offsets.contains_key(&fp.0) {
            // Superseding an on-disk record leaves it dead in the log; the
            // appended replacement wins on load (last record per key).
            self.dead += 1;
        }
        self.pending.push(fp.0);
        if self.dead > self.entries.len() {
            self.rewrite_needed = true;
        }
        self.dirty = true;
        true
    }

    /// Drops every entry (the CLI's `cache clear`). The backing file is
    /// rewritten empty on the next [`ScenarioCache::save`].
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.dirty = true;
            self.rewrite_needed = true;
        }
        self.entries.clear();
        self.pending.clear();
    }

    /// Converts a legacy JSON store to the indexed binary format in place
    /// (the CLI's `cache migrate`): the same path re-persists as a binary
    /// record log on the next [`ScenarioCache::save`], plus the sidecar
    /// index. Returns `false` (and changes nothing) when the store is
    /// already binary or purely in-memory.
    pub fn migrate_to_binary(&mut self) -> bool {
        if self.format == StoreFormat::Binary || self.path.is_none() {
            return false;
        }
        self.format = StoreFormat::Binary;
        self.rewrite_needed = true;
        self.dirty = true;
        true
    }

    /// True when the in-memory entries differ from the backing file.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Writes the store to its backing file (no-op for in-memory caches
    /// and for clean stores — an all-hits warm run rewrites nothing).
    ///
    /// Binary stores append only the records inserted since the last save
    /// (O(new entries)); a full segment rotation happens only on the first
    /// save, after `clear`/`migrate`, or when dead records outnumber live
    /// ones. Rotations and legacy-JSON saves go to a sibling temp file
    /// first and rename into place, so a crash mid-save leaves the old
    /// cache intact; the record log is always renamed before the index, so
    /// a crash between the two is caught as an index mismatch on reopen.
    pub fn save(&mut self) -> Result<(), ToolError> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        if !self.dirty {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        match self.format {
            StoreFormat::Json => self.save_json(&path)?,
            StoreFormat::Binary => {
                if self.rewrite_needed || !path.exists() {
                    self.rotate_segment(&path)?;
                } else {
                    self.append_segment(&path)?;
                }
            }
        }
        self.dirty = false;
        Ok(())
    }

    fn save_json(&mut self, path: &Path) -> Result<(), ToolError> {
        let mut keys: Vec<&u128> = self.entries.keys().collect();
        keys.sort_unstable();
        let mut text = String::new();
        let mut doc = json::Slot::pretty(&mut text).object();
        doc.key("version").int(STORE_VERSION);
        let mut entries = doc.key("entries").object();
        for k in keys {
            self.entries[k].write_json(entries.key(&Fingerprint(*k).to_hex()));
        }
        entries.end();
        doc.end();
        text.push('\n');
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Full rewrite: fresh log with one record per live entry in
    /// fingerprint order, then a fresh index. The log renames first —
    /// it is the source of truth and a crash before the index rename
    /// leaves a mismatched index, which reopen detects and rebuilds.
    fn rotate_segment(&mut self, path: &Path) -> Result<(), ToolError> {
        let mut keys: Vec<u128> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut log = Vec::with_capacity(LOG_MAGIC.len() + self.entries.len() * 128);
        log.extend_from_slice(LOG_MAGIC);
        self.offsets.clear();
        let mut json = String::new();
        for fp in &keys {
            self.offsets.insert(*fp, log.len() as u64);
            encode_record(&mut log, &mut json, *fp, &self.entries[fp]);
        }
        let tmp = path.with_extension("bin.tmp");
        std::fs::write(&tmp, &log)?;
        std::fs::rename(&tmp, path)?;
        self.write_index(path, &keys)?;
        self.valid_len = log.len() as u64;
        self.dead = 0;
        self.pending.clear();
        self.rewrite_needed = false;
        self.index_stale = false;
        self.recovered = false;
        Ok(())
    }

    /// Incremental save: append one record per pending insert to the log
    /// (after truncating any torn tail past `valid_len`), then extend the
    /// index with the matching offsets.
    fn append_segment(&mut self, path: &Path) -> Result<(), ToolError> {
        let mut fresh: Vec<u128> = std::mem::take(&mut self.pending);
        fresh.sort_unstable();
        fresh.dedup();
        let mut log = Vec::new();
        let mut json = String::new();
        let mut appended = Vec::with_capacity(fresh.len());
        for fp in fresh {
            let Some(point) = self.entries.get(&fp) else {
                continue; // inserted then cleared before a rotation; skip
            };
            self.offsets.insert(fp, self.valid_len + log.len() as u64);
            encode_record(&mut log, &mut json, fp, point);
            appended.push(fp);
        }
        if !log.is_empty() {
            use std::io::{Seek, SeekFrom, Write};
            let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
            // Truncate any torn tail past the salvage point before appending.
            file.set_len(self.valid_len)?;
            file.seek(SeekFrom::End(0))?;
            file.write_all(&log)?;
            file.flush()?;
            self.valid_len += log.len() as u64;
        }
        if self.index_stale {
            let mut keys: Vec<u128> = self.offsets.keys().copied().collect();
            keys.sort_unstable();
            self.write_index(path, &keys)?;
            self.index_stale = false;
        } else if !appended.is_empty() {
            use std::io::Write;
            let mut buf = Vec::with_capacity(appended.len() * IDX_RECORD);
            for fp in &appended {
                buf.extend_from_slice(&fp.to_be_bytes());
                buf.extend_from_slice(&self.offsets[fp].to_le_bytes());
            }
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(index_path(path))?;
            file.write_all(&buf)?;
            file.flush()?;
        }
        Ok(())
    }

    /// Rewrites the sidecar index from scratch (tmp + rename).
    fn write_index(&self, path: &Path, keys: &[u128]) -> Result<(), ToolError> {
        let mut idx = Vec::with_capacity(IDX_MAGIC.len() + keys.len() * IDX_RECORD);
        idx.extend_from_slice(IDX_MAGIC);
        for fp in keys {
            idx.extend_from_slice(&fp.to_be_bytes());
            idx.extend_from_slice(&self.offsets[fp].to_le_bytes());
        }
        let idx_file = index_path(path);
        let tmp = idx_file.with_extension("idx.tmp");
        std::fs::write(&tmp, &idx)?;
        std::fs::rename(&tmp, &idx_file)?;
        Ok(())
    }
}

/// A scenario cache shared by many sessions — the daemon's cross-tenant
/// dedup point. Clones are handles to the same store; every consult and
/// insert takes the internal lock, so concurrent jobs that ask about the
/// same scenarios pay for one simulation and hit on the rest.
///
/// The collector holds its cache through this type even when unshared (a
/// plain CLI run is simply a share group of one).
#[derive(Debug, Clone, Default)]
pub struct SharedScenarioCache {
    inner: Arc<Mutex<ScenarioCache>>,
}

impl SharedScenarioCache {
    /// Wraps an existing cache into a shareable handle.
    pub fn new(cache: ScenarioCache) -> Self {
        SharedScenarioCache {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    /// A shareable handle over an empty in-memory cache.
    pub fn in_memory() -> Self {
        SharedScenarioCache::new(ScenarioCache::in_memory())
    }

    /// Opens a file-backed cache (see [`ScenarioCache::open`]) behind a
    /// shareable handle.
    pub fn open(path: impl AsRef<Path>) -> Self {
        SharedScenarioCache::new(ScenarioCache::open(path))
    }

    /// Locks the underlying store for direct access.
    pub fn lock(&self) -> MutexGuard<'_, ScenarioCache> {
        self.inner.lock()
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// True if a damaged backing file was discarded on open.
    pub fn recovered(&self) -> bool {
        self.lock().recovered()
    }

    /// Store summary for status displays.
    pub fn stats(&self) -> CacheStoreStats {
        self.lock().stats()
    }

    /// Persists the underlying store (see [`ScenarioCache::save`]).
    pub fn save(&self) -> Result<(), ToolError> {
        self.lock().save()
    }
}

/// Reads a legacy JSON store: `{"version": 1, "entries": {hex: point}}`.
fn parse_store(text: &str) -> Result<HashMap<u128, DataPoint>, ToolError> {
    let mut r = json::Reader::new(text);
    if r.peek_token() != Some(b'{') {
        return Err(ToolError::Config(
            "cache store must be a JSON object".into(),
        ));
    }
    let mut version = None;
    let mut entries = None;
    r.object(|r, key| {
        match key {
            "version" => version = Some(r.value()?),
            "entries" => entries = read_store_entries(r)?,
            _ => drop(r.value()?),
        }
        Ok::<_, FormatError>(())
    })?;
    r.finish()?;
    let version = version
        .and_then(|v| v.as_int())
        .ok_or_else(|| ToolError::Config("cache store missing version".into()))?;
    if version != STORE_VERSION {
        return Err(ToolError::Config(format!(
            "cache store version {version} != {STORE_VERSION}"
        )));
    }
    let entries = entries.ok_or_else(|| ToolError::Config("cache store missing entries".into()))?;
    let mut out = HashMap::with_capacity(entries.len());
    for (key, point) in entries {
        let fp = Fingerprint::from_hex(&key)
            .ok_or_else(|| ToolError::Config(format!("bad cache key '{key}'")))?;
        out.insert(fp.0, point?);
    }
    Ok(out)
}

/// A legacy store's entries: (key, checked point) in first-seen key order.
type StoreEntries = Vec<(String, Result<DataPoint, ToolError>)>;

/// Reads the store's `entries` object; a repeated key takes its last
/// point. `None` when the value is not an object.
fn read_store_entries(r: &mut json::Reader<'_>) -> Result<Option<StoreEntries>, FormatError> {
    if r.peek_token() != Some(b'{') {
        r.value()?;
        return Ok(None);
    }
    let mut entries = StoreEntries::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    r.object(|r, key| {
        let point = PointFields::read(r)?.check();
        match seen.get(key) {
            Some(&i) => entries[i].1 = point,
            None => {
                seen.insert(key.to_string(), entries.len());
                entries.push((key.to_string(), point));
            }
        }
        Ok::<_, FormatError>(())
    })?;
    Ok(Some(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::oracle::{generated_points, point_to_value, value_to_point};
    use crate::dataset::point;
    use hpcadvisor_formats::{OrderedMap, Value};

    fn scenario(id: u32, sku: &str, nnodes: u32) -> Scenario {
        Scenario {
            id,
            sku: sku.into(),
            nnodes,
            ppn: 120,
            appinputs: vec![("BOXFACTOR".into(), "8".into())],
            region: None,
            status: ScenarioStatus::Pending,
        }
    }

    fn tempfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hpcadvisor-cache-test-{tag}-{}.json",
            std::process::id()
        ))
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let fpr = Fingerprinter::new("lammps", "script", 42, 7);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        assert_eq!(fpr.scenario(&s), fpr.scenario(&s), "deterministic");
        // Identity-only fields do not move the fingerprint...
        let mut renumbered = s.clone();
        renumbered.id = 99;
        assert_eq!(fpr.scenario(&s), fpr.scenario(&renumbered));
        // ...but every simulation input does.
        let mut other = s.clone();
        other.nnodes = 8;
        assert_ne!(fpr.scenario(&s), fpr.scenario(&other));
        let mut other = s.clone();
        other.appinputs[0].1 = "9".into();
        assert_ne!(fpr.scenario(&s), fpr.scenario(&other));
        for different in [
            Fingerprinter::new("wrf", "script", 42, 7),
            Fingerprinter::new("lammps", "other script", 42, 7),
            Fingerprinter::new("lammps", "script", 43, 7),
            Fingerprinter::new("lammps", "script", 42, 8),
            Fingerprinter::new("lammps", "script", 42, 7).with_capacity(cloudsim::Capacity::Spot),
        ] {
            assert_ne!(fpr.scenario(&s), different.scenario(&s));
        }
        // Dedicated is the implicit default: folding it changes nothing, so
        // pre-capacity cache entries stay addressable.
        let dedicated = Fingerprinter::new("lammps", "script", 42, 7)
            .with_capacity(cloudsim::Capacity::Dedicated);
        assert_eq!(fpr.scenario(&s), dedicated.scenario(&s));
    }

    #[test]
    fn region_folds_only_when_pinned() {
        let fpr = Fingerprinter::new("lammps", "script", 42, 7);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        // Placement moves the fingerprint: results from different regions
        // are different measurements and must not collide in the cache.
        let mut placed = s.clone();
        placed.region = Some("westeurope".into());
        assert_ne!(fpr.scenario(&s), fpr.scenario(&placed));
        let mut elsewhere = s.clone();
        elsewhere.region = Some("japaneast".into());
        assert_ne!(fpr.scenario(&placed), fpr.scenario(&elsewhere));
        // Back-compat: a region-less scenario folds nothing, so its
        // fingerprint is exactly what pre-placement versions computed —
        // existing caches stay warm.
        let mut unpinned = placed.clone();
        unpinned.region = None;
        assert_eq!(fpr.scenario(&s), fpr.scenario(&unpinned));
        // The region field cannot alias an appinput pair: a region never
        // collides with a scenario whose extra appinput spells the same
        // bytes, because pairs fold two fields and the region folds one.
        let mut inputish = s.clone();
        inputish.appinputs.push(("westeurope".into(), "".into()));
        assert_ne!(fpr.scenario(&placed), fpr.scenario(&inputish));
    }

    #[test]
    fn adjacent_fields_do_not_alias() {
        let a = Fingerprinter::new("ab", "c", 1, 1);
        let b = Fingerprinter::new("a", "bc", 1, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 1);
        assert_ne!(a.scenario(&s), b.scenario(&s));
    }

    #[test]
    fn hex_roundtrip() {
        let fpr = Fingerprinter::new("lammps", "s", 1, 2);
        let fp = fpr.scenario(&scenario(1, "Standard_HC44rs", 2));
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
    }

    #[test]
    fn store_roundtrip_and_policy_gates() {
        let path = tempfile("roundtrip");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(3, "Standard_HB120rs_v3", 4);
        let fp = fpr.scenario(&s);
        let mut cache = ScenarioCache::open(&path);
        assert!(cache.is_empty() && !cache.recovered());
        let p = point(3, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);
        assert!(cache.insert(fp, &p));
        cache.save().unwrap();

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.lookup(fp), Some(p.clone()));
        assert_eq!(
            warm.lookup(fpr.scenario(&scenario(3, "Standard_HC44rs", 4))),
            None
        );

        // Failed points never enter the cache, nor do points with a float
        // that has no JSON form.
        let mut cache = ScenarioCache::in_memory();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..3 {
                let mut q = p.clone();
                *[&mut q.exec_time_secs, &mut q.task_secs, &mut q.cost_dollars][field] = bad;
                assert!(!cache.insert(fp, &q), "{bad} in float {field}");
            }
        }
        let mut failed = p;
        failed.status = ScenarioStatus::Failed;
        assert!(!cache.insert(fp, &failed));
        assert!(cache.is_empty());
        assert!(cache.save().is_ok(), "in-memory save is a no-op");

        assert!(CachePolicy::ReadWrite.reads() && CachePolicy::ReadWrite.writes());
        assert!(CachePolicy::ReadOnly.reads() && !CachePolicy::ReadOnly.writes());
        assert!(!CachePolicy::Off.reads() && !CachePolicy::Off.writes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_or_truncated_store_recovers_cold() {
        for (tag, garbage) in [
            ("garbage", "this is not json"),
            ("truncated", "{\"version\": 1, \"entries\": {\"00"),
            ("wrong-version", "{\"version\": 999, \"entries\": {}}"),
            ("wrong-shape", "[1, 2, 3]"),
            (
                "bad-point",
                "{\"version\": 1, \"entries\": {\"0123456789abcdef0123456789abcdef\": {\"nope\": 1}}}",
            ),
        ] {
            let path = tempfile(tag);
            std::fs::write(&path, garbage).unwrap();
            let mut cache = ScenarioCache::open(&path);
            assert!(cache.is_empty(), "{tag}: damaged store starts cold");
            assert!(cache.recovered(), "{tag}: recovery is flagged");
            assert!(cache.is_dirty(), "{tag}: recovered stores save eagerly");
            // And saving over the damage produces a loadable binary store.
            cache.save().unwrap();
            let healed = ScenarioCache::open(&path);
            assert!(!healed.recovered(), "{tag}");
            assert_eq!(healed.format(), StoreFormat::Binary, "{tag}");
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(index_path(&path));
        }
    }

    #[test]
    fn clean_stores_skip_the_rewrite() {
        let path = tempfile("dirty");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        let fp = fpr.scenario(&s);
        let p = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);

        let mut cache = ScenarioCache::open(&path);
        assert!(!cache.is_dirty(), "fresh open is clean");
        assert!(cache.insert(fp, &p));
        assert!(cache.is_dirty());
        cache.save().unwrap();
        assert!(!cache.is_dirty(), "save clears the flag");
        let saved_at = std::fs::metadata(&path).unwrap().modified().unwrap();

        // Re-inserting the identical point keeps the store clean: the
        // warm path's post-merge insert loop must not force a rewrite.
        assert!(!cache.insert(fp, &p), "identical insert is a no-op");
        assert!(!cache.is_dirty());
        cache.save().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            saved_at,
            "clean save never touches the file"
        );

        // A genuinely different point under the same key dirties again.
        let mut newer = p.clone();
        newer.exec_time_secs += 1.0;
        assert!(cache.insert(fp, &newer));
        assert!(cache.is_dirty());

        // clear() on a non-empty store schedules an empty rewrite.
        cache.clear();
        assert!(cache.is_dirty());
        cache.save().unwrap();
        assert_eq!(ScenarioCache::open(&path).len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_handles_see_one_store() {
        let shared = SharedScenarioCache::in_memory();
        let clone = shared.clone();
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 4);
        let p = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);
        assert!(shared.lock().insert(fpr.scenario(&s), &p));
        assert_eq!(clone.len(), 1, "clones share the underlying store");
        assert!(!clone.is_empty());
        assert!(!clone.recovered());
        assert_eq!(clone.stats().entries, 1);
        assert!(clone.save().is_ok(), "in-memory save is a no-op");
    }

    #[test]
    fn new_stores_are_binary_with_a_sidecar_index() {
        let path = tempfile("binary-fresh");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.format(), StoreFormat::Binary);
        for id in 1..=3u32 {
            let s = scenario(id, "Standard_HB120rs_v3", id);
            let p = point(
                id,
                "lammps",
                "Standard_HB120rs_v3",
                id,
                120,
                10.0 + f64::from(id),
                0.05,
            );
            assert!(cache.insert(fpr.scenario(&s), &p));
        }
        cache.save().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(LOG_MAGIC), "log leads with the magic");
        let idx = std::fs::read(index_path(&path)).unwrap();
        assert!(idx.starts_with(IDX_MAGIC), "index leads with the magic");
        assert_eq!((idx.len() - IDX_MAGIC.len()) % IDX_RECORD, 0);
        assert_eq!((idx.len() - IDX_MAGIC.len()) / IDX_RECORD, 3);

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 3);
        assert!(!warm.recovered());
        assert!(!warm.is_dirty(), "clean binary open stays clean");
        assert_eq!(warm.stats().format, StoreFormat::Binary);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
    }

    #[test]
    fn binary_saves_append_instead_of_rewriting() {
        let path = tempfile("binary-append");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let mut cache = ScenarioCache::open(&path);
        let s1 = scenario(1, "Standard_HB120rs_v3", 2);
        let p1 = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        cache.insert(fpr.scenario(&s1), &p1);
        cache.save().unwrap();
        let before = std::fs::read(&path).unwrap();

        let s2 = scenario(2, "Standard_HC44rs", 4);
        let p2 = point(2, "lammps", "Standard_HC44rs", 4, 44, 14.0, 0.03);
        cache.insert(fpr.scenario(&s2), &p2);
        cache.save().unwrap();
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() > before.len());
        assert_eq!(
            &after[..before.len()],
            &before[..],
            "old log bytes untouched"
        );

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.lookup(fpr.scenario(&s2)), Some(p2));
        assert!(!warm.is_dirty(), "appended index matches the log");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
    }

    #[test]
    fn torn_log_tail_salvages_intact_records() {
        let path = tempfile("binary-torn");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let mut cache = ScenarioCache::open(&path);
        let mut fps = Vec::new();
        for id in 1..=3u32 {
            let s = scenario(id, "Standard_HB120rs_v3", id);
            let p = point(
                id,
                "lammps",
                "Standard_HB120rs_v3",
                id,
                120,
                10.0 + f64::from(id),
                0.05,
            );
            fps.push((fpr.scenario(&s), p.clone()));
            cache.insert(fpr.scenario(&s), &p);
        }
        cache.save().unwrap();

        // Tear the final record mid-write: drop the last 5 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let mut salvaged = ScenarioCache::open(&path);
        assert_eq!(salvaged.len(), 2, "intact prefix survives, not a cold run");
        assert!(salvaged.recovered(), "the torn tail is flagged");
        assert!(salvaged.is_dirty(), "salvage heals on the next save");
        // Rotation lays records out in fingerprint order; the torn record
        // is the highest fingerprint, the other two survive.
        fps.sort_by_key(|(fp, _)| *fp);
        for (fp, p) in &fps[..2] {
            assert_eq!(salvaged.lookup(*fp), Some(p.clone()));
        }
        salvaged.save().unwrap();
        let healed = ScenarioCache::open(&path);
        assert_eq!(healed.len(), 2);
        assert!(!healed.recovered() && !healed.is_dirty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
    }

    #[test]
    fn damaged_or_missing_index_rebuilds_from_the_log() {
        let path = tempfile("binary-idx");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 2);
        let p = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        let fp = fpr.scenario(&s);
        let mut cache = ScenarioCache::open(&path);
        cache.insert(fp, &p);
        cache.save().unwrap();

        for damage in ["missing", "garbage", "stale"] {
            match damage {
                "missing" => {
                    let _ = std::fs::remove_file(index_path(&path));
                }
                "garbage" => std::fs::write(index_path(&path), b"not an index").unwrap(),
                _ => {
                    // Valid framing, wrong offset.
                    let mut idx = Vec::new();
                    idx.extend_from_slice(IDX_MAGIC);
                    idx.extend_from_slice(&fp.0.to_be_bytes());
                    idx.extend_from_slice(&999u64.to_le_bytes());
                    std::fs::write(index_path(&path), &idx).unwrap();
                }
            }
            let mut opened = ScenarioCache::open(&path);
            assert_eq!(opened.len(), 1, "{damage}: the log is the truth");
            assert!(!opened.recovered(), "{damage}: no data was lost");
            assert!(
                opened.is_dirty(),
                "{damage}: the index rebuild is scheduled"
            );
            assert_eq!(opened.lookup(fp), Some(p.clone()), "{damage}");
            opened.save().unwrap();
            assert!(!ScenarioCache::open(&path).is_dirty(), "{damage}: rebuilt");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
    }

    #[test]
    fn dead_heavy_logs_compact_on_save() {
        let path = tempfile("binary-compact");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 2);
        let fp = fpr.scenario(&s);
        // Hand-write a log where the same key was superseded twice: two
        // dead records against one live one.
        let mut log = Vec::new();
        log.extend_from_slice(LOG_MAGIC);
        let mut last = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        for round in 0..3u32 {
            last = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
            last.exec_time_secs += f64::from(round);
            encode_record(&mut log, &mut String::new(), fp.0, &last);
        }
        std::fs::write(&path, &log).unwrap();

        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(fp), Some(last), "the last record wins");
        assert!(!cache.recovered(), "dead records are not data loss");
        assert!(cache.is_dirty(), "2 dead vs 1 live schedules compaction");
        cache.save().unwrap();
        let compacted = std::fs::read(&path).unwrap();
        assert!(
            compacted.len() < log.len(),
            "rotation drops the dead records"
        );
        let reopened = ScenarioCache::open(&path);
        assert_eq!(reopened.len(), 1);
        assert!(!reopened.is_dirty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
    }

    #[test]
    fn legacy_json_reads_and_migrates_byte_identically() {
        let path = tempfile("legacy-migrate");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let mut fps = Vec::new();
        // Hand-write a legacy JSON store, the format older releases saved.
        let mut entries = OrderedMap::new();
        for id in 1..=3u32 {
            let s = scenario(id, "Standard_HB120rs_v3", id);
            let p = point(
                id,
                "lammps",
                "Standard_HB120rs_v3",
                id,
                120,
                10.0 + f64::from(id),
                0.05,
            );
            let fp = fpr.scenario(&s);
            entries.insert(fp.to_hex(), point_to_value(&p));
            fps.push((fp, p));
        }
        let mut doc = OrderedMap::new();
        doc.insert("version", Value::Int(STORE_VERSION));
        doc.insert("entries", Value::Map(entries));
        std::fs::write(&path, json::to_string_pretty(&Value::Map(doc))).unwrap();

        // Transparent read: the store opens as JSON and keeps saving JSON.
        let mut cache = ScenarioCache::open(&path);
        assert_eq!(cache.format(), StoreFormat::Json);
        assert_eq!(cache.len(), 3);
        assert!(!cache.recovered());
        let s4 = scenario(4, "Standard_HC44rs", 4);
        let p4 = point(4, "lammps", "Standard_HC44rs", 4, 44, 14.0, 0.03);
        cache.insert(fpr.scenario(&s4), &p4);
        cache.save().unwrap();
        assert!(
            std::fs::read(&path).unwrap().starts_with(b"{"),
            "unmigrated stores stay JSON"
        );

        // Migration converts in place; every point survives bit-for-bit.
        let mut cache = ScenarioCache::open(&path);
        assert!(cache.migrate_to_binary());
        assert!(!cache.migrate_to_binary(), "second migrate is a no-op");
        cache.save().unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(LOG_MAGIC));
        let migrated = ScenarioCache::open(&path);
        assert_eq!(migrated.format(), StoreFormat::Binary);
        assert_eq!(migrated.len(), 4);
        for (fp, p) in &fps {
            assert_eq!(migrated.lookup(*fp), Some(p.clone()));
        }
        assert_eq!(migrated.lookup(fpr.scenario(&s4)), Some(p4));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(index_path(&path));
    }

    /// The tree encodings the direct codec replaced: the oracle.
    fn oracle_record(buf: &mut Vec<u8>, fp: u128, point: &DataPoint) {
        let mut payload = Vec::new();
        payload.extend_from_slice(&fp.to_be_bytes());
        payload.extend_from_slice(json::to_string(&point_to_value(point)).as_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&fnv64(&payload).to_le_bytes());
    }

    fn oracle_store(entries: &[(u128, DataPoint)]) -> String {
        let mut map = OrderedMap::new();
        for (fp, p) in entries {
            map.insert(Fingerprint(*fp).to_hex(), point_to_value(p));
        }
        let mut doc = OrderedMap::new();
        doc.insert("version", Value::Int(STORE_VERSION));
        doc.insert("entries", Value::Map(map));
        json::to_string_pretty(&Value::Map(doc))
    }

    fn oracle_parse_store(text: &str) -> Option<HashMap<u128, DataPoint>> {
        let doc = json::parse(text).ok()?;
        if doc.get("version")?.as_int()? != STORE_VERSION {
            return None;
        }
        let mut out = HashMap::new();
        for (key, value) in doc.get("entries")?.as_map()?.iter() {
            out.insert(Fingerprint::from_hex(key)?.0, value_to_point(value).ok()?);
        }
        Some(out)
    }

    #[test]
    fn records_and_legacy_stores_match_the_tree_oracle() {
        let entries: Vec<(u128, DataPoint)> = generated_points()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (0x5eed_u128 << 64 | i as u128, p))
            .collect();
        let (mut direct, mut tree, mut json) = (Vec::new(), Vec::new(), String::new());
        for (fp, p) in &entries {
            encode_record(&mut direct, &mut json, *fp, p);
            oracle_record(&mut tree, *fp, p);
        }
        assert!(direct == tree, "record bytes differ from the oracle's");

        // Legacy JSON saves write what the tree did, and read back alike.
        let path = tempfile("legacy-oracle");
        let mut cache = ScenarioCache {
            entries: entries.iter().cloned().collect(),
            path: Some(path.clone()),
            format: StoreFormat::Json,
            ..ScenarioCache::default()
        };
        cache.save_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, oracle_store(&entries));
        let _ = std::fs::remove_file(&path);
        let read = parse_store(&text).ok();
        assert_eq!(read.as_ref().map(HashMap::len), Some(entries.len()));
        assert_eq!(read, oracle_parse_store(&text));

        let one = oracle_store(&entries[..1]);
        let fp = Fingerprint(entries[0].0).to_hex();
        let body = one.trim_end();
        let body = &body[..body.len() - 1];
        for text in [
            one.replace("\"version\": 1", "\"version\": 2"),
            one.replace("\"version\": 1", "\"version\": \"1\""),
            format!("{body}, \"version\": 1}}"),
            format!("{body}, \"version\": 3}}"),
            format!("{body}, \"entries\": 5}}"),
            format!("{body}, \"entries\": {{}}}}"),
            format!("{{\"entries\": 5, {}", &one[1..]),
            one.replacen(&fp, "not-a-fingerprint", 1),
            one.replacen(&fp, &fp.to_uppercase(), 1),
            one.replacen(
                "\"entries\": {",
                &format!("\"entries\": {{\"{fp}\": 5, "),
                1,
            ),
            one.replacen(
                "\"entries\": {",
                &format!("\"entries\": {{\"{fp}\": {{}}, "),
                1,
            ),
            one.replacen("\"entries\": {", "\"entries\": {\"bad\": {}, ", 1),
            "{\"version\": 1}".to_string(),
            "[]".to_string(),
            "{".to_string(),
        ] {
            assert_eq!(parse_store(&text).ok(), oracle_parse_store(&text), "{text}");
        }
    }

    #[test]
    fn in_memory_stores_never_migrate() {
        let mut cache = ScenarioCache::in_memory();
        assert!(!cache.migrate_to_binary(), "nothing to persist");
    }

    #[test]
    fn rehydrate_restamps_identity_fields_only() {
        let mut stored = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 9.0, 0.04);
        stored.tags = vec![("version".into(), "old".into())];
        stored.deployment = "oldrg001".into();
        let s = scenario(42, "Standard_HB120rs_v3", 4);
        let tags = vec![("version".into(), "v2".into())];
        let out = rehydrate_point(stored.clone(), &s, &tags, "newrg001");
        assert_eq!(out.scenario_id, 42);
        assert_eq!(out.tags, tags);
        assert_eq!(out.deployment, "newrg001");
        assert_eq!(out.exec_time_secs, stored.exec_time_secs);
        assert_eq!(out.metrics, stored.metrics);
    }
}

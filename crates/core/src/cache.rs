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
//! hit (see `rehydrate_point`). This is what lets a widened grid (which
//! shifts scenario ids) still reuse every already-known point.
//!
//! Persistence is a **binary record log**, one file under the CLI work
//! directory's `cache/` folder: a 20-byte header, then length-prefixed,
//! checksummed `(fingerprint, point)` records. The header is the magic
//! `HPCAV003`, the app-model version ([`appmodel::MODEL_VERSION`], `u32`
//! LE) and the revision of the Azure HPC catalog (`u64` LE), the one
//! catalog a CLI run prices against. A file's records serve only when its
//! header is exactly today's: any other file (another model version or
//! catalog revision, an older store layout, garbage) opens empty with the
//! `recovered` flag set and is replaced by its first save, so records no
//! key can reach never outlive the model that wrote them. A record's point
//! has a fixed binary layout (`encode_point`) rather than JSON: the store
//! only reads back what it wrote, so a lookup is a run of bounds-checked
//! copies and an insert formats no floats. The store keeps the log's
//! bytes in memory, not decoded points: opening a store frames the records
//! and checks their checksums but decodes nothing, and a lookup decodes
//! only the record it returns. Saving appends only the records added since
//! the last save, not the whole store, and compacts via atomic
//! segment rotation (write-temp-then-rename) once superseded records
//! outnumber live ones. A torn log tail salvages every intact record and
//! is cut on the next save — never a cold run; a record whose checksum
//! holds but whose point does not decode is a miss, superseded when the
//! scenario re-runs. A damaged or foreign store degrades to cold instead
//! of erroring.
//!
//! The fingerprint folds the model version and the catalog revision too:
//! the run journal and the in-memory and daemon caches have no header, so
//! their keys must cover both.
//!
//! Concurrency: fingerprinting and lookup happen once, up front, on the
//! coordinating thread; shard workers only ever see the miss list and
//! accumulate their results into per-shard output buffers. New entries are
//! inserted after the merge barrier, so the hot path takes no lock.

use crate::dataset::DataPoint;
use crate::error::ToolError;
use crate::pairs::Pairs;
use crate::scenario::{Scenario, ScenarioStatus};
use cloudsim::{Capacity, Fnv64};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Magic prefix of a record log's header.
const LOG_MAGIC: &[u8; 8] = b"HPCAV003";

/// Byte length of a store header: the magic, the model version and the
/// catalog revision.
const HEADER_LEN: usize = 20;

/// A store header for records written by `model_version` against a
/// catalog at `revision`.
fn header(model_version: u32, revision: u64) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..8].copy_from_slice(LOG_MAGIC);
    h[8..12].copy_from_slice(&model_version.to_le_bytes());
    h[12..].copy_from_slice(&revision.to_le_bytes());
    h
}

/// The header this build writes, and the only one whose records it serves.
/// Built once: hashing the catalog for its revision costs tens of µs.
fn current_header() -> &'static [u8; HEADER_LEN] {
    static CURRENT: OnceLock<[u8; HEADER_LEN]> = OnceLock::new();
    CURRENT.get_or_init(|| {
        header(
            appmodel::MODEL_VERSION,
            cloudsim::SkuCatalog::azure_hpc().revision(),
        )
    })
}

/// FNV-1a-64 over a record payload — the per-record checksum that catches
/// torn or bit-rotted log writes.
fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().write(bytes).finish()
}

/// [`fnv64`] of four payloads at once. Each checksum is one serial chain
/// of multiplies; four independent chains side by side keep the
/// multiplier busy, about twice the throughput of one chain at a time.
fn fnv64_x4(parts: [&[u8]; 4]) -> [u64; 4] {
    let common = parts.iter().map(|p| p.len()).min().unwrap_or(0);
    let mut h = [Fnv64::OFFSET; 4];
    for i in 0..common {
        for (h, p) in h.iter_mut().zip(&parts) {
            *h = Fnv64::step(*h, p[i]);
        }
    }
    for (h, p) in h.iter_mut().zip(&parts) {
        *h = p[common..].iter().fold(*h, |h, &b| Fnv64::step(h, b));
    }
    h
}

/// Appends one log record: `[u32 LE payload len][payload][u64 LE FNV-1a]`
/// where the payload is the 16-byte big-endian fingerprint followed by
/// the encoded point.
fn push_record(log: &mut Vec<u8>, fp: u128, point: &DataPoint) {
    let start = log.len();
    log.extend_from_slice(&[0; 4]);
    log.extend_from_slice(&fp.to_be_bytes());
    encode_point(log, point);
    let len = (log.len() - start - 4) as u32;
    log[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let sum = fnv64(&log[start + 4..]);
    log.extend_from_slice(&sum.to_le_bytes());
}

/// The whole record starting at `off` in an already framed log.
fn record(log: &[u8], off: usize) -> &[u8] {
    let len = u32::from_le_bytes(log[off..off + 4].try_into().expect("4 bytes")) as usize;
    &log[off..off + 12 + len]
}

/// The encoded point of the record starting at `off`.
fn record_point(log: &[u8], off: usize) -> &[u8] {
    let rec = record(log, off);
    &rec[20..rec.len() - 8]
}

/// Every [`ScenarioStatus`], at the index of its byte in an encoded point.
const STATUSES: [ScenarioStatus; 5] = [
    ScenarioStatus::Pending,
    ScenarioStatus::Completed,
    ScenarioStatus::Failed,
    ScenarioStatus::Skipped,
    ScenarioStatus::TimedOut,
];

/// Every [`Capacity`], at the index of its byte in an encoded point.
const CAPACITIES: [Capacity; 2] = [Capacity::Dedicated, Capacity::Spot];

/// The byte that stands for `value`: its index in `all`.
fn byte_of<T: PartialEq>(all: &[T], value: &T) -> u8 {
    all.iter()
        .position(|v| v == value)
        .expect("every variant is listed") as u8
}

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_pairs(out: &mut Vec<u8>, pairs: &Pairs) {
    put_u32(out, pairs.len() as u32);
    for (k, v) in pairs {
        put_str(out, k);
        put_str(out, v);
    }
}

/// Appends a point's record encoding. Fields follow the JSON schema's
/// order: `scenario_id`, `appname`, `sku`, `nnodes`, `ppn`, `appinputs`,
/// the three floats, a status byte, a capacity byte, an optional
/// `region`, then `metrics`, `infra`, `tags` and `deployment`. Integers
/// are little-endian `u32`s, floats their `f64` bit patterns as `u64`s,
/// strings UTF-8 behind a `u32` byte length, string maps a `u32` count of
/// key-then-value strings, and the region a `0` byte when absent or a
/// `1` byte and the string.
fn encode_point(out: &mut Vec<u8>, p: &DataPoint) {
    put_u32(out, p.scenario_id);
    put_str(out, &p.appname);
    put_str(out, &p.sku);
    put_u32(out, p.nnodes);
    put_u32(out, p.ppn);
    put_pairs(out, &p.appinputs);
    for x in [p.exec_time_secs, p.task_secs, p.cost_dollars] {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out.push(byte_of(&STATUSES, &p.status));
    out.push(byte_of(&CAPACITIES, &p.capacity));
    match &p.region {
        None => out.push(0),
        Some(region) => {
            out.push(1);
            put_str(out, region);
        }
    }
    put_pairs(out, &p.metrics);
    put_pairs(out, &p.infra);
    put_pairs(out, &p.tags);
    put_str(out, &p.deployment);
}

/// The unread rest of an encoded point. Every read is bounds-checked and
/// gives `None` past the end.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let head = self.0.get(..n)?;
        self.0 = &self.0[n..];
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.array().map(|b| f64::from_bits(u64::from_le_bytes(b)))
    }

    fn text(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn str(&mut self) -> Option<String> {
        self.text().map(str::to_owned)
    }

    /// A string map. Every string is checked before anything is reserved,
    /// so a damaged count fails on the bytes it claims, and the map is
    /// then built in one reservation.
    fn pairs(&mut self) -> Option<Pairs> {
        let n = self.u32()? as usize;
        let mut strings = Fields(self.0);
        for _ in 0..2 * n {
            self.text()?;
        }
        // The strings' bytes, less their two length prefixes per pair.
        let text_len = strings.0.len() - self.0.len() - 8 * n;
        let mut pairs = Pairs::with_capacity(n, text_len);
        for _ in 0..n {
            pairs.set(strings.text()?, strings.text()?);
        }
        Some(pairs)
    }
}

/// Decodes what [`encode_point`] wrote. A short read, a string that is
/// not UTF-8, an unknown status or capacity byte, or bytes left over make
/// the record undecodable.
fn decode_point(bytes: &[u8]) -> Option<DataPoint> {
    let mut f = Fields(bytes);
    let point = DataPoint {
        scenario_id: f.u32()?,
        appname: f.str()?,
        sku: f.str()?,
        nnodes: f.u32()?,
        ppn: f.u32()?,
        appinputs: f.pairs()?,
        exec_time_secs: f.f64()?,
        task_secs: f.f64()?,
        cost_dollars: f.f64()?,
        status: *STATUSES.get(usize::from(f.u8()?))?,
        capacity: *CAPACITIES.get(usize::from(f.u8()?))?,
        region: match f.u8()? {
            0 => None,
            1 => Some(f.str()?),
            _ => return None,
        },
        metrics: f.pairs()?,
        infra: f.pairs()?,
        tags: f.pairs()?,
        deployment: f.str()?,
    };
    f.0.is_empty().then_some(point)
}

/// What a binary-log scan found.
struct LogScan {
    /// Log offset of each fingerprint's last record.
    latest: HashMap<u128, usize>,
    /// Byte length of the valid log prefix.
    valid_len: usize,
    /// Superseded records encountered (same fingerprint written twice).
    dead: usize,
}

/// Walks a binary log up to the first record whose length does not fit
/// or whose checksum fails; everything before it is kept. No record is
/// decoded.
fn scan_log(bytes: &[u8]) -> LogScan {
    // Frame first: the (start, end) of each record whose length fits.
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    while let Some(len) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        if len < 16 || bytes.len() - pos < 12 + len {
            break;
        }
        records.push((pos, pos + 12 + len));
        pos += 12 + len;
    }
    // Then check the checksums, four records at a time.
    let payload = |&(start, end): &(usize, usize)| &bytes[start + 4..end - 8];
    let mut intact = 0;
    'check: for group in records.chunks(4) {
        let sums = match <&[_; 4]>::try_from(group) {
            Ok(four) => fnv64_x4(four.each_ref().map(payload)),
            Err(_) => std::array::from_fn(|i| group.get(i).map_or(0, |r| fnv64(payload(r)))),
        };
        for (&(_, end), sum) in group.iter().zip(sums) {
            if sum.to_le_bytes() != bytes[end - 8..end] {
                break 'check;
            }
            intact += 1;
        }
    }
    records.truncate(intact);
    let mut latest = HashMap::with_capacity(records.len());
    let mut dead = 0usize;
    for &(start, _) in &records {
        let fp = u128::from_be_bytes(bytes[start + 4..start + 20].try_into().expect("16 bytes"));
        if latest.insert(fp, start).is_some() {
            dead += 1;
        }
    }
    LogScan {
        latest,
        valid_len: records.last().map_or(HEADER_LEN, |&(_, end)| end),
        dead,
    }
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
    pub(crate) fn reads(&self) -> bool {
        !matches!(self, CachePolicy::Off)
    }

    /// True if new results should be stored.
    pub(crate) fn writes(&self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }

    /// Short human-readable name (`read-write`, `read-only`, `off`).
    pub(crate) fn as_str(&self) -> &'static str {
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
    /// Hex spelling (32 lowercase digits), as the run journal keys its
    /// records.
    pub(crate) fn to_hex(self) -> String {
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
pub(crate) struct Fingerprinter {
    base: Fnv128,
}

impl Fingerprinter {
    /// Folds in every collection-level fingerprint input.
    pub(crate) fn new(
        appname: &str,
        script: &str,
        experiment_seed: u64,
        catalog_revision: u64,
    ) -> Self {
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
    pub(crate) fn with_capacity(mut self, capacity: cloudsim::Capacity) -> Self {
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
    pub(crate) fn scenario(&self, s: &Scenario) -> Fingerprint {
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
pub(crate) fn rehydrate_point(
    mut point: DataPoint,
    scenario: &Scenario,
    tags: &Pairs,
    deployment: &str,
) -> DataPoint {
    point.scenario_id = scenario.id;
    // A point stored by the same deployment already carries these values;
    // only a differing one is replaced, so a warm rerun copies nothing.
    if point.tags != *tags {
        point.tags = tags.clone();
    }
    if point.deployment != deployment {
        point.deployment = deployment.to_string();
    }
    point
}

/// The content-addressed scenario-result store.
///
/// In-memory by default; [`ScenarioCache::open`] binds it to a file, a
/// binary record log behind a header (see the module docs). The store
/// holds that log's bytes rather than decoded points: `log` is the file's
/// valid prefix followed by the records inserted since the last save, and
/// `latest` points every live fingerprint at its latest record. A lookup
/// decodes the one record it returns. [`ScenarioCache::save`] appends the
/// unsaved records, or rotates the whole segment atomically
/// (temp-then-rename) when compaction is due; after every save the log
/// mirrors the file.
#[derive(Default)]
pub struct ScenarioCache {
    /// The record log: the file's valid prefix, then unsaved records.
    log: Vec<u8>,
    /// Log offset of every live fingerprint's latest record.
    latest: HashMap<u128, usize>,
    /// Length of the log prefix that is on disk.
    saved: usize,
    path: Option<PathBuf>,
    recovered: bool,
    /// True when the in-memory log differs from the backing file:
    /// [`ScenarioCache::save`] skips the write entirely when clean, so a
    /// warm all-hits run never touches the store. Recovered opens start
    /// dirty — the next save heals the damaged file.
    dirty: bool,
    /// Superseded records in the on-disk log. Once they outnumber live
    /// entries, the next save compacts instead of appending.
    dead: usize,
    /// The next save must rewrite the whole segment (fresh or foreign
    /// store, salvaged tail, clear, or compaction due).
    rewrite_needed: bool,
}

/// Summarises the store: its log is megabytes of record bytes.
impl fmt::Debug for ScenarioCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioCache")
            .field("entries", &self.len())
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl ScenarioCache {
    /// An empty, purely in-memory cache (results live for the collector's
    /// lifetime only).
    pub(crate) fn in_memory() -> Self {
        ScenarioCache::default()
    }

    /// Opens a file-backed cache. A missing file starts an empty store. A
    /// file that starts with today's header (see the module docs) is read
    /// whole and its records framed and checksummed, but not decoded: a
    /// torn tail is dropped and every intact record salvaged — never cold.
    /// Any other file starts cold as an empty store with the `recovered`
    /// flag set, and the next save replaces it — never an error, since a
    /// damaged or foreign cache must cost a re-run, not a failure.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        let Ok(mut bytes) = std::fs::read(&path) else {
            return ScenarioCache {
                path: Some(path),
                rewrite_needed: true,
                ..ScenarioCache::default()
            };
        };
        if !bytes.starts_with(current_header()) {
            return ScenarioCache {
                path: Some(path),
                recovered: true,
                dirty: true,
                rewrite_needed: true,
                ..ScenarioCache::default()
            };
        }
        let scan = scan_log(&bytes);
        let torn = scan.valid_len != bytes.len();
        // A torn tail or a dead-heavy log heals on the next save even
        // without new inserts.
        let heal = torn || scan.dead > scan.latest.len();
        bytes.truncate(scan.valid_len);
        ScenarioCache {
            log: bytes,
            latest: scan.latest,
            saved: scan.valid_len,
            path: Some(path),
            recovered: torn,
            dirty: heal,
            dead: scan.dead,
            rewrite_needed: heal,
        }
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }

    /// True if the backing file was discarded (without today's header) or
    /// salvaged (torn log) on open.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Looks a fingerprint up, decoding its record into a fresh point. A
    /// record whose checksum held but whose point does not decode is a
    /// miss: the scenario re-runs and its insert supersedes the record.
    pub fn lookup(&self, fp: Fingerprint) -> Option<DataPoint> {
        let &off = self.latest.get(&fp.0)?;
        decode_point(record_point(&self.log, off))
    }

    /// Stores a finished point, encoding it straight into the log. Only
    /// completed points are cacheable — failures may be transient (injected
    /// faults, quota) and must re-run. Points with a non-finite float are
    /// refused too: they have no JSON form, so no dataset or journal could
    /// hold them. A point that encodes to the stored record's bytes is a
    /// no-op that leaves the store clean, so redundant inserts never force
    /// a file write. Returns whether the store changed.
    pub fn insert(&mut self, fp: Fingerprint, point: &DataPoint) -> bool {
        if point.status != ScenarioStatus::Completed || !point.is_finite() {
            return false;
        }
        let new = self.log.len();
        let old = self.latest.get(&fp.0).copied();
        push_record(&mut self.log, fp.0, point);
        if old.is_some_and(|off| record(&self.log, off) == &self.log[new..]) {
            self.log.truncate(new);
            return false;
        }
        if old.is_some_and(|off| off < self.saved) {
            // Superseding an on-disk record leaves it dead in the log; the
            // appended replacement wins on load (last record per key).
            self.dead += 1;
        }
        self.latest.insert(fp.0, new);
        if self.dead > self.latest.len() {
            self.rewrite_needed = true;
        }
        self.dirty = true;
        true
    }

    /// Drops every entry (the CLI's `cache clear`). The backing file is
    /// rewritten empty on the next [`ScenarioCache::save`].
    pub fn clear(&mut self) {
        if !self.latest.is_empty() {
            self.dirty = true;
            self.rewrite_needed = true;
        }
        self.latest.clear();
        self.log.truncate(self.saved);
    }

    /// True when the in-memory log differs from the backing file.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Writes the store to its backing file (no-op for in-memory caches
    /// and for clean stores — an all-hits warm run writes nothing).
    ///
    /// A save appends only the live records inserted since the last save,
    /// not the whole store; a full segment rotation happens only on the first
    /// save, after `clear`, for a foreign or damaged store, or when dead
    /// records outnumber live ones. Rotations go to a sibling temp file
    /// first and rename into place, so a crash mid-save leaves the old
    /// cache intact.
    pub fn save(&mut self) -> Result<(), ToolError> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        if !self.dirty {
            return Ok(());
        }
        if self.rewrite_needed || !path.exists() {
            self.rotate_segment(&path)?;
        } else {
            self.append_segment(&path)?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Full rewrite: today's header, then one record per live entry in
    /// fingerprint order.
    fn rotate_segment(&mut self, path: &Path) -> Result<(), ToolError> {
        let mut log = Vec::with_capacity(self.log.len());
        log.extend_from_slice(current_header());
        let copied = self.copy_records(|_| true, &mut log, 0);
        crate::replace(path, &log)?;
        self.latest = copied.into_iter().collect();
        self.saved = log.len();
        self.log = log;
        self.dead = 0;
        self.rewrite_needed = false;
        self.recovered = false;
        Ok(())
    }

    /// Incremental save: the live unsaved records, in fingerprint order,
    /// are appended to the file (after cutting it to the valid prefix) and
    /// replace the log's unsaved tail, superseded records and all.
    fn append_segment(&mut self, path: &Path) -> Result<(), ToolError> {
        use std::io::Write;
        let mut tail = Vec::new();
        let moved = self.copy_records(|off| off >= self.saved, &mut tail, self.saved);
        if !tail.is_empty() {
            let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
            file.set_len(self.saved as u64)?;
            file.write_all(&tail)?;
            file.flush()?;
        }
        self.latest.extend(moved);
        self.log.truncate(self.saved);
        self.log.extend_from_slice(&tail);
        self.saved = self.log.len();
        Ok(())
    }

    /// Copies the live records whose offset passes `pick`, in fingerprint
    /// order, to the end of `out`, and returns their fingerprints with the
    /// positions the copies will have once `out` sits at log offset `base`.
    fn copy_records(
        &self,
        pick: impl Fn(usize) -> bool,
        out: &mut Vec<u8>,
        base: usize,
    ) -> Vec<(u128, usize)> {
        let mut picked: Vec<(u128, usize)> = self
            .latest
            .iter()
            .filter(|&(_, &off)| pick(off))
            .map(|(&fp, &off)| (fp, off))
            .collect();
        picked.sort_unstable();
        for (_, off) in &mut picked {
            let rec = record(&self.log, *off);
            *off = base + out.len();
            out.extend_from_slice(rec);
        }
        picked
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
    pub(crate) fn new(cache: ScenarioCache) -> Self {
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

    /// True if the backing file was discarded or salvaged on open (see
    /// [`ScenarioCache::recovered`]).
    pub fn recovered(&self) -> bool {
        self.lock().recovered()
    }

    /// Persists the underlying store (see [`ScenarioCache::save`]).
    pub fn save(&self) -> Result<(), ToolError> {
        self.lock().save()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::oracle::generated_points;
    use crate::dataset::point;
    use hpcadvisor_formats::json;

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

    /// Every user's store is keyed by these values and headed by these
    /// bytes: a change here turns every existing cache cold.
    #[test]
    fn cache_key_values_are_pinned() {
        let catalog = cloudsim::SkuCatalog::azure_hpc();
        assert_eq!(catalog.revision(), 0xb22e_2f36_14c1_4c14);
        assert_eq!(
            current_header(),
            b"HPCAV003\x01\x00\x00\x00\x14\x4c\xc1\x14\x36\x2f\x2e\xb2"
        );
        let config = crate::config::UserConfig::example_openfoam();
        let scenarios = crate::scenario::generate_scenarios(&config, &catalog).unwrap();
        let script = crate::appscript::bundled_script(&config.appname).unwrap();
        let fpr = Fingerprinter::new(&config.appname, script, 42, catalog.revision());
        assert_eq!(
            fpr.scenario(&scenarios[0]).to_hex(),
            "1e7d6f7f08673a5cb3e620df48cead7c"
        );
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
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let fp = fpr.scenario(&scenario(1, "Standard_HB120rs_v3", 4));
        let p = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 12.5, 0.05);
        // What a fresh store holding `p` saves.
        let fresh = tempfile("recover-fresh");
        let _ = std::fs::remove_file(&fresh);
        let mut cache = ScenarioCache::open(&fresh);
        assert!(cache.insert(fp, &p));
        cache.save().unwrap();
        let saved = std::fs::read(&fresh).unwrap();
        let records = &saved[HEADER_LEN..];
        let with_header = |head: &[u8]| [head, records].concat();
        let revision = cloudsim::SkuCatalog::azure_hpc().revision();
        // The older logs' magics differ from today's in the last digit; the
        // first log's records held the point's compact JSON.
        let magic = |digit: u8| [&LOG_MAGIC[..7], &[digit]].concat();
        let mut payload = fp.0.to_be_bytes().to_vec();
        payload.extend_from_slice(compact_json(&p).as_bytes());
        let mut v1 = magic(b'1');
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&payload);
        v1.extend_from_slice(&fnv64(&payload).to_le_bytes());
        let json_store = format!(
            "{{\"version\": 1, \"entries\": {{\"{}\": {}}}}}",
            fp.to_hex(),
            compact_json(&p)
        );
        for (tag, damaged) in [
            ("garbage", b"this is not json".to_vec()),
            ("empty", Vec::new()),
            ("torn-header", saved[..HEADER_LEN - 1].to_vec()),
            (
                "next-model",
                with_header(&header(appmodel::MODEL_VERSION + 1, revision)),
            ),
            (
                "other-catalog",
                with_header(&header(appmodel::MODEL_VERSION, revision ^ 1)),
            ),
            ("log-v2", with_header(&magic(b'2'))),
            ("log-v1", v1),
            ("json-store", json_store.into_bytes()),
        ] {
            let path = tempfile(tag);
            std::fs::write(&path, &damaged).unwrap();
            let mut cache = ScenarioCache::open(&path);
            assert!(cache.is_empty(), "{tag}: the store starts cold");
            assert_eq!(cache.lookup(fp), None, "{tag}");
            assert!(cache.recovered(), "{tag}: recovery is flagged");
            assert!(cache.is_dirty(), "{tag}: recovered stores save eagerly");
            // The first save replaces the file with what a fresh store
            // writes.
            assert!(cache.insert(fp, &p));
            cache.save().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), saved, "{tag}");
            let healed = ScenarioCache::open(&path);
            assert!(!healed.recovered() && !healed.is_dirty(), "{tag}");
            assert_eq!(healed.lookup(fp), Some(p.clone()), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_file(&fresh);
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
        assert!(clone.save().is_ok(), "in-memory save is a no-op");
    }

    #[test]
    fn new_stores_are_one_binary_file() {
        let path = tempfile("binary-fresh");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let mut cache = ScenarioCache::open(&path);
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
        assert!(
            bytes.starts_with(current_header()),
            "log leads with the header"
        );
        assert_eq!(cache.log, bytes, "after a save the log mirrors the file");

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 3);
        assert!(!warm.recovered());
        assert!(!warm.is_dirty(), "clean binary open stays clean");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_saves_append_instead_of_rewriting() {
        let path = tempfile("binary-append");
        let _ = std::fs::remove_file(&path);
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
        assert_eq!(cache.log, after, "after a save the log mirrors the file");

        let warm = ScenarioCache::open(&path);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.lookup(fpr.scenario(&s2)), Some(p2));
        assert!(!warm.is_dirty(), "an appended log opens clean");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_log_tail_salvages_intact_records() {
        let path = tempfile("binary-torn");
        let _ = std::fs::remove_file(&path);
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
    }

    #[test]
    fn dead_heavy_logs_compact_on_save() {
        let path = tempfile("binary-compact");
        let _ = std::fs::remove_file(&path);
        let fpr = Fingerprinter::new("lammps", "s", 42, 1);
        let s = scenario(1, "Standard_HB120rs_v3", 2);
        let fp = fpr.scenario(&s);
        // Hand-write a log where the same key was superseded twice: two
        // dead records against one live one.
        let mut log = current_header().to_vec();
        let mut last = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        for round in 0..3u32 {
            last = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
            last.exec_time_secs += f64::from(round);
            push_record(&mut log, fp.0, &last);
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
    }

    fn encoded(p: &DataPoint) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_point(&mut bytes, p);
        bytes
    }

    fn compact_json(p: &DataPoint) -> String {
        let mut text = String::new();
        p.write_json(json::Slot::compact(&mut text));
        text
    }

    #[test]
    fn points_round_trip_through_the_record_codec() {
        for p in generated_points() {
            let mut bytes = encoded(&p);
            let back = decode_point(&bytes).expect("an encoded point decodes");
            assert_eq!(back, p);
            assert_eq!(encoded(&back), bytes, "floats keep their bit patterns");
            assert_eq!(compact_json(&back), compact_json(&p));
            for cut in 0..bytes.len() {
                assert_eq!(decode_point(&bytes[..cut]), None, "cut at {cut}");
            }
            bytes.push(0);
            assert_eq!(decode_point(&bytes), None, "a trailing byte");
        }
    }

    #[test]
    fn unknown_bytes_and_invalid_text_do_not_decode() {
        let p = point(1, "lammps", "Standard_HB120rs_v3", 2, 120, 11.0, 0.05);
        let bytes = encoded(&p);
        let first_difference = |q: DataPoint| {
            let other = encoded(&q);
            bytes.iter().zip(&other).position(|(a, b)| a != b).unwrap()
        };
        let status_at = first_difference(DataPoint {
            status: ScenarioStatus::Failed,
            ..p.clone()
        });
        let capacity_at = first_difference(DataPoint {
            capacity: Capacity::Spot,
            ..p.clone()
        });
        // The region flag follows the capacity byte.
        for (at, byte) in [
            (status_at, 5),
            (status_at, 0xff),
            (capacity_at, 2),
            (capacity_at + 1, 2),
        ] {
            let mut damaged = bytes.clone();
            damaged[at] = byte;
            assert_eq!(decode_point(&damaged), None, "byte {byte} at {at}");
        }
        // The appname's first byte, after the id and the length prefix.
        let mut damaged = bytes.clone();
        damaged[8] = 0xff;
        assert_eq!(decode_point(&damaged), None, "invalid UTF-8");
    }

    #[test]
    fn four_checksums_at_once_match_one_at_a_time() {
        let bytes: Vec<u8> = (0..600u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for lens in [
            [0, 0, 0, 0],
            [5, 0, 9, 3],
            [437, 440, 436, 600],
            [1, 2, 3, 4],
        ] {
            let parts = lens.map(|n| &bytes[600 - n..]);
            assert_eq!(fnv64_x4(parts), parts.map(fnv64), "{lens:?}");
        }
    }

    #[test]
    fn rehydrate_restamps_identity_fields_only() {
        let mut stored = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 9.0, 0.04);
        stored.tags = Pairs::from([("version", "old")]);
        stored.deployment = "oldrg001".into();
        let s = scenario(42, "Standard_HB120rs_v3", 4);
        let tags = Pairs::from([("version", "v2")]);
        let out = rehydrate_point(stored.clone(), &s, &tags, "newrg001");
        assert_eq!(out.scenario_id, 42);
        assert_eq!(out.tags, tags);
        assert_eq!(out.deployment, "newrg001");
        assert_eq!(out.exec_time_secs, stored.exec_time_secs);
        assert_eq!(out.metrics, stored.metrics);
    }
}

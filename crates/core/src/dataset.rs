//! The collected dataset and its filters.

use crate::error::ToolError;
use crate::pairs::Pairs;
use crate::scenario::ScenarioStatus;
use cloudsim::Capacity;
use hpcadvisor_formats::{json, FormatError, Value};
use std::collections::HashSet;
use std::sync::OnceLock;

/// One collected result row.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Scenario id this row came from.
    pub scenario_id: u32,
    /// Application name.
    pub appname: String,
    /// VM type.
    pub sku: String,
    /// Nodes used.
    pub nnodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Application inputs of the scenario.
    pub appinputs: Pairs,
    /// Application execution time in seconds (`APPEXECTIME` when the run
    /// script exported it, otherwise the whole task duration).
    pub exec_time_secs: f64,
    /// Whole batch-task duration in seconds (setup + app + teardown).
    pub task_secs: f64,
    /// Cost in USD for the application execution (VM price × nodes × time —
    /// the paper's cost column covers VMs only).
    pub cost_dollars: f64,
    /// Final status.
    pub status: ScenarioStatus,
    /// Extra `HPCADVISORVAR` metrics scraped from the task output.
    pub metrics: Pairs,
    /// Infrastructure utilizations scraped from monitoring
    /// (`cpu`/`membw`/`net`/`bottleneck`).
    pub infra: Pairs,
    /// Tags from the configuration.
    pub tags: Pairs,
    /// Deployment (resource group) the row was collected in.
    pub deployment: String,
    /// Capacity class the row was measured on. Spot rows carry the eviction
    /// overhead in their cost/time; the advisor compares the two classes.
    pub capacity: Capacity,
    /// Region the scenario actually ran in after placement (which may
    /// differ from the requested region when the collector failed over).
    /// `None` means the deployment's home region — the only case before
    /// multi-region placement existed, so it is omitted from JSON to keep
    /// old datasets byte-identical.
    pub region: Option<String>,
}

impl DataPoint {
    /// Looks up a scraped metric.
    pub fn metric(&self, key: &str) -> Option<&str> {
        self.metrics.get(key)
    }

    /// Looks up an infrastructure metric.
    pub fn infra_metric(&self, key: &str) -> Option<&str> {
        self.infra.get(key)
    }

    /// Short SKU spelling used in advice tables (`hb120rs_v3`).
    pub fn sku_short(&self) -> String {
        self.sku.to_ascii_lowercase().replace("standard_", "")
    }

    /// One-line id for the appinput combination (used to group series).
    pub fn input_key(&self) -> String {
        self.appinputs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Writes the point as a JSON object: the dataset file's schema, which
    /// run-journal lines share. `capacity` and `region` are written only
    /// when they are not the implicit default, so datasets from before
    /// those dimensions existed stay byte-identical. The text between the
    /// values is the slot layout's [`PointLiterals`].
    pub(crate) fn write_json(&self, slot: json::Slot<'_>) {
        let (out, layout) = slot.into_parts();
        let built;
        let lit = match PointLiterals::shared(layout) {
            Some(lit) => lit,
            None => {
                built = PointLiterals::new(layout);
                &built
            }
        };
        out.push_str(&lit.scenario_id);
        json::write_i64(out, i64::from(self.scenario_id));
        out.push_str(&lit.appname);
        json::write_str(out, &self.appname);
        out.push_str(&lit.sku);
        json::write_str(out, &self.sku);
        out.push_str(&lit.nnodes);
        json::write_i64(out, i64::from(self.nnodes));
        out.push_str(&lit.ppn);
        json::write_i64(out, i64::from(self.ppn));
        out.push_str(&lit.appinputs);
        lit.pairs.write(out, &self.appinputs);
        out.push_str(&lit.exec_time_secs);
        json::write_f64(out, self.exec_time_secs);
        out.push_str(&lit.task_secs);
        json::write_f64(out, self.task_secs);
        out.push_str(&lit.cost_dollars);
        json::write_f64(out, self.cost_dollars);
        out.push_str(&lit.status);
        json::write_str(out, self.status.as_str());
        if self.capacity != Capacity::Dedicated {
            out.push_str(&lit.capacity);
            json::write_str(out, self.capacity.as_str());
        }
        if let Some(region) = &self.region {
            out.push_str(&lit.region);
            json::write_str(out, region);
        }
        out.push_str(&lit.metrics);
        lit.pairs.write(out, &self.metrics);
        out.push_str(&lit.infra);
        lit.pairs.write(out, &self.infra);
        out.push_str(&lit.tags);
        lit.pairs.write(out, &self.tags);
        out.push_str(&lit.deployment);
        json::write_str(out, &self.deployment);
        out.push_str(&lit.close);
    }

    /// At least the length of what [`DataPoint::write_json`] writes with
    /// `lit`: exact but for the floats, which are bounded.
    fn json_max_len(&self, lit: &PointLiterals) -> usize {
        let mut len = lit.always
            + json::i64_len(i64::from(self.scenario_id))
            + json::str_len(&self.appname)
            + json::str_len(&self.sku)
            + json::i64_len(i64::from(self.nnodes))
            + json::i64_len(i64::from(self.ppn))
            + json::f64_max_len(self.exec_time_secs)
            + json::f64_max_len(self.task_secs)
            + json::f64_max_len(self.cost_dollars)
            + json::str_len(self.status.as_str())
            + json::str_len(&self.deployment);
        for pairs in [&self.appinputs, &self.metrics, &self.infra, &self.tags] {
            len += lit.pairs.json_len(pairs);
        }
        if self.capacity != Capacity::Dedicated {
            len += lit.capacity.len() + json::str_len(self.capacity.as_str());
        }
        if let Some(region) = &self.region {
            len += lit.region.len() + json::str_len(region);
        }
        len
    }

    /// Parses a point from a JSON document holding just that point (the
    /// reader tests' entry point; no store holds a lone point's JSON).
    #[cfg(test)]
    pub(crate) fn from_json(text: &str) -> Result<DataPoint, ToolError> {
        let mut r = json::Reader::new(text);
        let fields = PointFields::read(&mut r)?;
        r.finish()?;
        fields.check()
    }

    /// True when every float field is finite, i.e. writes as JSON.
    pub(crate) fn is_finite(&self) -> bool {
        self.exec_time_secs.is_finite()
            && self.task_secs.is_finite()
            && self.cost_dollars.is_finite()
    }
}

/// The text around a point's values in one layout. Each member's literal
/// holds the separator, the newline and indent, the quoted key, the colon
/// and the space, for example `",\n    \"task_secs\": "`. The literals come
/// from `json::Layout`, which has `json::Container` write them, so a point
/// written from them has the bytes the container would give it.
struct PointLiterals {
    scenario_id: String,
    appname: String,
    sku: String,
    nnodes: String,
    ppn: String,
    appinputs: String,
    exec_time_secs: String,
    task_secs: String,
    cost_dollars: String,
    status: String,
    capacity: String,
    region: String,
    metrics: String,
    infra: String,
    tags: String,
    deployment: String,
    close: String,
    /// The string maps, written as member values.
    pairs: PairLiterals,
    /// The length of the literals written around every point, that is all
    /// but `capacity` and `region`.
    always: usize,
}

impl PointLiterals {
    /// The tables of the two layouts a point is written in, compact and
    /// pretty as a dataset item, built once; `None` for other layouts.
    fn shared(layout: json::Layout) -> Option<&'static PointLiterals> {
        static COMPACT: OnceLock<PointLiterals> = OnceLock::new();
        static DATASET_ITEM: OnceLock<PointLiterals> = OnceLock::new();
        let table = if layout == json::Layout::COMPACT {
            &COMPACT
        } else if layout == DATASET_ITEM_LAYOUT {
            &DATASET_ITEM
        } else {
            return None;
        };
        Some(table.get_or_init(|| PointLiterals::new(layout)))
    }

    fn new(layout: json::Layout) -> Self {
        let member = |key| layout.member(false, key);
        let mut lit = PointLiterals {
            scenario_id: layout.member(true, "scenario_id"),
            appname: member("appname"),
            sku: member("sku"),
            nnodes: member("nnodes"),
            ppn: member("ppn"),
            appinputs: member("appinputs"),
            exec_time_secs: member("exec_time_secs"),
            task_secs: member("task_secs"),
            cost_dollars: member("cost_dollars"),
            status: member("status"),
            capacity: member("capacity"),
            region: member("region"),
            metrics: member("metrics"),
            infra: member("infra"),
            tags: member("tags"),
            deployment: member("deployment"),
            close: layout.close_object(),
            pairs: PairLiterals::new(layout.inner()),
            always: 0,
        };
        lit.always = [
            &lit.scenario_id,
            &lit.appname,
            &lit.sku,
            &lit.nnodes,
            &lit.ppn,
            &lit.appinputs,
            &lit.exec_time_secs,
            &lit.task_secs,
            &lit.cost_dollars,
            &lit.status,
            &lit.metrics,
            &lit.infra,
            &lit.tags,
            &lit.deployment,
            &lit.close,
        ]
        .iter()
        .map(|s| s.len())
        .sum();
        lit
    }
}

/// Where a dataset file's points sit: the items of a pretty array.
const DATASET_ITEM_LAYOUT: json::Layout = json::Layout::PRETTY.inner();

/// The text around a string map's members, for maps written at one layout.
struct PairLiterals {
    /// Before the first key: the `{`, then the newline and indent.
    first: String,
    /// Before any other key.
    next: String,
    colon: &'static str,
    close: String,
    empty: String,
}

impl PairLiterals {
    fn new(layout: json::Layout) -> Self {
        PairLiterals {
            first: layout.before_key(true),
            next: layout.before_key(false),
            colon: layout.colon(),
            close: layout.close_object(),
            empty: layout.empty_object(),
        }
    }

    /// Writes a string map as a JSON object.
    fn write(&self, out: &mut String, pairs: &Pairs) {
        if pairs.is_empty() {
            out.push_str(&self.empty);
            return;
        }
        for (i, (k, v)) in pairs.iter().enumerate() {
            out.push_str(if i == 0 { &self.first } else { &self.next });
            json::write_str(out, k);
            out.push_str(self.colon);
            json::write_str(out, v);
        }
        out.push_str(&self.close);
    }

    /// The length of what [`PairLiterals::write`] writes for `pairs`.
    fn json_len(&self, pairs: &Pairs) -> usize {
        let n = pairs.len();
        if n == 0 {
            return self.empty.len();
        }
        // One scan of the map's text counts every escape; each of its
        // 2n strings also takes two quotes, and `str_len` counted two.
        let strings = json::str_len(pairs.text()) + 4 * n - 2;
        self.first.len()
            + (n - 1) * self.next.len()
            + n * self.colon.len()
            + self.close.len()
            + strings
    }
}

/// Reads a JSON object of pairs. Non-string values become their plain
/// string form; a value that is not an object reads as no pairs.
fn read_pairs(r: &mut json::Reader<'_>) -> Result<Pairs, FormatError> {
    let mut pairs = Pairs::new();
    if r.peek_token() != Some(b'{') {
        r.value()?;
        return Ok(pairs);
    }
    r.object(|r, key| {
        let value = match r.value()? {
            Value::Str(s) => s,
            other => other.to_plain_string(),
        };
        pairs.set(key, &value);
        Ok::<_, FormatError>(())
    })?;
    Ok(pairs)
}

/// A point's JSON members as read, before they are checked. Reading and
/// checking are separate steps so that a repeated key replaces the earlier
/// value before either is judged: the last one wins, as in a parsed
/// [`Value`] map.
#[derive(Default)]
pub(crate) struct PointFields {
    /// False when the JSON value was not an object at all.
    object: bool,
    scenario_id: Option<Value>,
    appname: Option<Value>,
    sku: Option<Value>,
    nnodes: Option<Value>,
    ppn: Option<Value>,
    exec_time_secs: Option<Value>,
    task_secs: Option<Value>,
    cost_dollars: Option<Value>,
    status: Option<Value>,
    deployment: Option<Value>,
    capacity: Option<Value>,
    region: Option<Value>,
    appinputs: Pairs,
    metrics: Pairs,
    infra: Pairs,
    tags: Pairs,
}

impl PointFields {
    /// Reads the next JSON value as a point's members. Only malformed JSON
    /// is an error here; [`PointFields::check`] judges the members.
    pub(crate) fn read(r: &mut json::Reader<'_>) -> Result<PointFields, FormatError> {
        let mut f = PointFields::default();
        if r.peek_token() != Some(b'{') {
            r.value()?;
            return Ok(f);
        }
        f.object = true;
        r.object(|r, key| {
            let slot = match key {
                "scenario_id" => &mut f.scenario_id,
                "appname" => &mut f.appname,
                "sku" => &mut f.sku,
                "nnodes" => &mut f.nnodes,
                "ppn" => &mut f.ppn,
                "exec_time_secs" => &mut f.exec_time_secs,
                "task_secs" => &mut f.task_secs,
                "cost_dollars" => &mut f.cost_dollars,
                "status" => &mut f.status,
                "deployment" => &mut f.deployment,
                "capacity" => &mut f.capacity,
                "region" => &mut f.region,
                "appinputs" => return read_pairs(r).map(|p| f.appinputs = p),
                "metrics" => return read_pairs(r).map(|p| f.metrics = p),
                "infra" => return read_pairs(r).map(|p| f.infra = p),
                "tags" => return read_pairs(r).map(|p| f.tags = p),
                _ => return r.value().map(drop),
            };
            *slot = Some(r.value()?);
            Ok(())
        })?;
        Ok(f)
    }

    /// Builds the point: every required member present with its type
    /// (an integer is accepted for a float), `capacity` and `region`
    /// optional.
    pub(crate) fn check(self) -> Result<DataPoint, ToolError> {
        if !self.object {
            return Err(ToolError::Config("data point must be a JSON object".into()));
        }
        let status = string_member(self.status, "status")?;
        Ok(DataPoint {
            scenario_id: int_member(self.scenario_id, "scenario_id")? as u32,
            appname: string_member(self.appname, "appname")?,
            sku: string_member(self.sku, "sku")?,
            nnodes: int_member(self.nnodes, "nnodes")? as u32,
            ppn: int_member(self.ppn, "ppn")? as u32,
            appinputs: self.appinputs,
            exec_time_secs: float_member(self.exec_time_secs, "exec_time_secs")?,
            task_secs: float_member(self.task_secs, "task_secs")?,
            cost_dollars: float_member(self.cost_dollars, "cost_dollars")?,
            status: ScenarioStatus::parse(&status)
                .ok_or_else(|| ToolError::Config(format!("bad status '{status}'")))?,
            metrics: self.metrics,
            infra: self.infra,
            tags: self.tags,
            deployment: string_member(self.deployment, "deployment")?,
            capacity: match self.capacity {
                Some(Value::Str(s)) => Capacity::parse(&s)
                    .ok_or_else(|| ToolError::Config(format!("bad capacity '{s}'")))?,
                _ => Capacity::Dedicated,
            },
            region: match self.region {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            },
        })
    }
}

fn string_member(v: Option<Value>, key: &str) -> Result<String, ToolError> {
    match v {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(ToolError::Config(format!(
            "data point missing string '{key}'"
        ))),
    }
}

fn int_member(v: Option<Value>, key: &str) -> Result<i64, ToolError> {
    v.as_ref()
        .and_then(Value::as_int)
        .ok_or_else(|| ToolError::Config(format!("data point missing integer '{key}'")))
}

fn float_member(v: Option<Value>, key: &str) -> Result<f64, ToolError> {
    v.as_ref()
        .and_then(Value::as_f64)
        .ok_or_else(|| ToolError::Config(format!("data point missing number '{key}'")))
}

/// A filter over data points ("plot" and "advice" take a data filter in the
/// CLI — Table II).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFilter {
    /// Restrict to an application.
    pub appname: Option<String>,
    /// Restrict to a SKU (full or short spelling).
    pub sku: Option<String>,
    /// Required appinput values.
    pub appinputs: Vec<(String, String)>,
    /// Required tags.
    pub tags: Vec<(String, String)>,
    /// Include failed rows too (default: completed only).
    pub include_failed: bool,
    /// Restrict to one capacity class (`capacity=spot|dedicated`).
    pub capacity: Option<Capacity>,
    /// Restrict to one placement region (`region=westeurope`). Rows without
    /// a region (home-region rows of single-region runs) match no region
    /// filter; multi-region grids always stamp the placed region.
    pub region: Option<String>,
}

impl DataFilter {
    /// Matches everything completed.
    pub fn all() -> Self {
        DataFilter::default()
    }

    /// Parses the CLI filter syntax: comma-separated `key=value` pairs.
    /// Keys `appname` and `sku` are recognized directly; everything else is
    /// treated as an appinput requirement.
    pub fn parse(spec: &str) -> Result<Self, ToolError> {
        let mut f = DataFilter::default();
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let Some((k, v)) = part.split_once('=') else {
                return Err(ToolError::Config(format!(
                    "bad filter term '{part}': expected key=value"
                )));
            };
            let (k, v) = (k.trim(), v.trim());
            match k {
                "appname" => f.appname = Some(v.to_string()),
                "sku" => f.sku = Some(v.to_string()),
                "status" if v == "any" => f.include_failed = true,
                "capacity" => {
                    f.capacity = Some(Capacity::parse(v).ok_or_else(|| {
                        ToolError::Config(format!("bad capacity '{v}': expected spot or dedicated"))
                    })?)
                }
                "region" => f.region = Some(v.to_string()),
                "tag" => match v.split_once(':') {
                    Some((tk, tv)) => f.tags.push((tk.to_string(), tv.to_string())),
                    None => {
                        return Err(ToolError::Config("tag filter must be tag=key:value".into()))
                    }
                },
                _ => f.appinputs.push((k.to_string(), v.to_string())),
            }
        }
        Ok(f)
    }

    /// True if a point passes the filter.
    pub fn matches(&self, p: &DataPoint) -> bool {
        if !self.include_failed && p.status != ScenarioStatus::Completed {
            return false;
        }
        if let Some(app) = &self.appname {
            if !p.appname.eq_ignore_ascii_case(app) {
                return false;
            }
        }
        if let Some(sku) = &self.sku {
            let want = sku.to_ascii_lowercase().replace("standard_", "");
            if p.sku_short() != want {
                return false;
            }
        }
        for (k, v) in &self.appinputs {
            if p.appinputs.get(k) != Some(v.as_str()) {
                return false;
            }
        }
        for (k, v) in &self.tags {
            if p.tags.get(k) != Some(v.as_str()) {
                return false;
            }
        }
        if let Some(c) = self.capacity {
            if p.capacity != c {
                return false;
            }
        }
        if let Some(region) = &self.region {
            match &p.region {
                Some(r) if r.eq_ignore_ascii_case(region) => {}
                _ => return false,
            }
        }
        true
    }
}

/// The dataset: every collected row, in collection order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// All rows.
    pub points: Vec<DataPoint>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Appends a row.
    pub fn push(&mut self, point: DataPoint) {
        self.points.push(point);
    }

    /// Merges another dataset in, deduplicating by (scenario id, capacity):
    /// an incoming row whose key is already present *replaces* the existing
    /// row in place (fresher data wins, order is preserved). Cache-merge
    /// paths rely on this so a point can never be double-inserted; spot and
    /// dedicated measurements of the same scenario coexist as two rows.
    pub fn extend(&mut self, other: Dataset) {
        let mut by_id: std::collections::HashMap<(u32, Capacity), usize> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.scenario_id, p.capacity), i))
            .collect();
        for point in other.points {
            match by_id.get(&(point.scenario_id, point.capacity)) {
                Some(&i) => self.points[i] = point,
                None => {
                    by_id.insert((point.scenario_id, point.capacity), self.points.len());
                    self.points.push(point);
                }
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Rows passing a filter.
    pub fn filter(&self, f: &DataFilter) -> Vec<&DataPoint> {
        self.points.iter().filter(|p| f.matches(p)).collect()
    }

    /// Completed rows.
    pub fn completed(&self) -> Vec<&DataPoint> {
        self.filter(&DataFilter::all())
    }

    /// Distinct SKUs (short form) in filter-matching rows, in first-seen
    /// order.
    pub fn skus(&self, f: &DataFilter) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut out: Vec<String> = Vec::new();
        for p in self.filter(f) {
            let s = p.sku_short();
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
        out
    }

    /// Distinct appinput combinations in filter-matching rows.
    pub fn input_keys(&self, f: &DataFilter) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut out: Vec<String> = Vec::new();
        for p in self.filter(f) {
            let s = p.input_key();
            if seen.insert(s.clone()) {
                out.push(s);
            }
        }
        out
    }

    /// Serializes the dataset as pretty JSON. The buffer is sized up front
    /// from a bound on the text, which is exact but for the floats, so it
    /// never regrows.
    pub fn to_json(&self) -> String {
        let lit = PointLiterals::shared(DATASET_ITEM_LAYOUT).expect("a shared layout");
        // `[`, `\n  ` before the first item and `,\n  ` before each other
        // one, the closing `\n]` and the final newline: 4 bytes per item
        // and 3 more, which also counts the empty `[]\n`.
        let framing = 4 * self.points.len() + 3;
        let bound = framing
            + self
                .points
                .iter()
                .map(|p| p.json_max_len(lit))
                .sum::<usize>();
        let mut out = String::with_capacity(bound);
        let mut items = json::Slot::pretty(&mut out).array();
        for p in &self.points {
            p.write_json(items.item());
        }
        items.end();
        out.push('\n');
        debug_assert!(out.len() <= bound, "the size bound holds");
        out
    }

    /// Parses a stored dataset.
    pub fn from_json(text: &str) -> Result<Self, ToolError> {
        let mut r = json::Reader::new(text);
        if r.peek_token() != Some(b'[') {
            return Err(ToolError::Config("dataset must be a JSON array".into()));
        }
        let mut ds = Dataset::new();
        r.array(|r| {
            ds.push(PointFields::read(r)?.check()?);
            Ok::<_, ToolError>(())
        })?;
        r.finish()?;
        Ok(ds)
    }
}

/// Builds a test/example data point quickly.
pub fn point(
    scenario_id: u32,
    appname: &str,
    sku: &str,
    nnodes: u32,
    ppn: u32,
    exec_time_secs: f64,
    cost_dollars: f64,
) -> DataPoint {
    DataPoint {
        scenario_id,
        appname: appname.to_string(),
        sku: sku.to_string(),
        nnodes,
        ppn,
        appinputs: Pairs::new(),
        exec_time_secs,
        task_secs: exec_time_secs + 10.0,
        cost_dollars,
        status: ScenarioStatus::Completed,
        metrics: Pairs::new(),
        infra: Pairs::new(),
        tags: Pairs::new(),
        deployment: "test".to_string(),
        capacity: Capacity::Dedicated,
        region: None,
    }
}

/// The `Value`-tree conversions the direct codec replaced, kept as the
/// oracle its tests compare against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use hpcadvisor_formats::OrderedMap;

    fn pairs_to_value(pairs: &Pairs) -> Value {
        let mut m = OrderedMap::new();
        for (k, v) in pairs {
            m.insert(k, Value::str(v));
        }
        Value::Map(m)
    }

    fn value_to_pairs(v: Option<&Value>) -> Pairs {
        v.and_then(|v| v.as_map())
            .map(|m| m.iter().map(|(k, v)| (k, v.to_plain_string())).collect())
            .unwrap_or_default()
    }

    pub(crate) fn point_to_value(p: &DataPoint) -> Value {
        let mut m = OrderedMap::new();
        m.insert("scenario_id", Value::Int(p.scenario_id as i64));
        m.insert("appname", Value::str(&p.appname));
        m.insert("sku", Value::str(&p.sku));
        m.insert("nnodes", Value::Int(p.nnodes as i64));
        m.insert("ppn", Value::Int(p.ppn as i64));
        m.insert("appinputs", pairs_to_value(&p.appinputs));
        m.insert("exec_time_secs", Value::Float(p.exec_time_secs));
        m.insert("task_secs", Value::Float(p.task_secs));
        m.insert("cost_dollars", Value::Float(p.cost_dollars));
        m.insert("status", Value::str(p.status.as_str()));
        if p.capacity != Capacity::Dedicated {
            m.insert("capacity", Value::str(p.capacity.as_str()));
        }
        if let Some(region) = &p.region {
            m.insert("region", Value::str(region));
        }
        m.insert("metrics", pairs_to_value(&p.metrics));
        m.insert("infra", pairs_to_value(&p.infra));
        m.insert("tags", pairs_to_value(&p.tags));
        m.insert("deployment", Value::str(&p.deployment));
        Value::Map(m)
    }

    pub(crate) fn value_to_point(v: &Value) -> Result<DataPoint, ToolError> {
        let get_str = |k: &str| -> Result<String, ToolError> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(|s| s.to_string())
                .ok_or_else(|| ToolError::Config(format!("data point missing string '{k}'")))
        };
        let get_int = |k: &str| -> Result<i64, ToolError> {
            v.get(k)
                .and_then(|x| x.as_int())
                .ok_or_else(|| ToolError::Config(format!("data point missing integer '{k}'")))
        };
        let get_f64 = |k: &str| -> Result<f64, ToolError> {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| ToolError::Config(format!("data point missing number '{k}'")))
        };
        let status_str = get_str("status")?;
        Ok(DataPoint {
            scenario_id: get_int("scenario_id")? as u32,
            appname: get_str("appname")?,
            sku: get_str("sku")?,
            nnodes: get_int("nnodes")? as u32,
            ppn: get_int("ppn")? as u32,
            appinputs: value_to_pairs(v.get("appinputs")),
            exec_time_secs: get_f64("exec_time_secs")?,
            task_secs: get_f64("task_secs")?,
            cost_dollars: get_f64("cost_dollars")?,
            status: ScenarioStatus::parse(&status_str)
                .ok_or_else(|| ToolError::Config(format!("bad status '{status_str}'")))?,
            metrics: value_to_pairs(v.get("metrics")),
            infra: value_to_pairs(v.get("infra")),
            tags: value_to_pairs(v.get("tags")),
            deployment: get_str("deployment")?,
            capacity: match v.get("capacity").and_then(|x| x.as_str()) {
                Some(s) => Capacity::parse(s)
                    .ok_or_else(|| ToolError::Config(format!("bad capacity '{s}'")))?,
                None => Capacity::Dedicated,
            },
            region: v
                .get("region")
                .and_then(|x| x.as_str())
                .map(|s| s.to_string()),
        })
    }

    /// Strings that need every escaping rule: quotes, backslashes, control
    /// characters and non-ASCII text.
    const STRINGS: &[&str] = &[
        "",
        "plain",
        "quote\"d",
        "back\\slash",
        "tab\tnew\nline\rcr",
        "\u{0}\u{1}\u{8}\u{c}\u{1f}",
        "del\u{7f}",
        "h\u{e9}llo w\u{f6}rld",
        "\u{1f680} rocket",
        "/slash",
        "mixed \"\\\u{0}\u{e9}",
    ];

    /// Floats at the edges of the float rule.
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -3.5,
        0.1 + 0.2,
        1e-7,
        1e15,
        1e15 + 2.0,
        999_999_999_999_999.0,
        123_456.789,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        1e300,
        9_007_199_254_740_992.0,
    ];

    /// Points that cover every escape, every edge float, present and absent
    /// `capacity`/`region`, empty maps and maps built from repeated keys.
    /// Generated by a fixed xorshift sequence, so every run checks the same
    /// points.
    pub(crate) fn generated_points() -> Vec<DataPoint> {
        generate(600)
    }

    /// The first `n` points of [`generated_points`]' sequence.
    pub(crate) fn generate(n: u32) -> Vec<DataPoint> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let statuses = [
            ScenarioStatus::Pending,
            ScenarioStatus::Completed,
            ScenarioStatus::Failed,
            ScenarioStatus::Skipped,
            ScenarioStatus::TimedOut,
        ];
        (0..n)
            .map(|i| {
                let mut pairs = || -> Pairs {
                    (0..next(4))
                        .map(|_| {
                            // Keys come from a short list so they repeat.
                            let k = STRINGS[next(4)];
                            (k, STRINGS[next(STRINGS.len())])
                        })
                        .collect()
                };
                let appinputs = pairs();
                let metrics = pairs();
                let infra = pairs();
                let tags = pairs();
                DataPoint {
                    scenario_id: if i % 7 == 0 { u32::MAX - i } else { i },
                    appname: STRINGS[next(STRINGS.len())].to_string(),
                    sku: STRINGS[next(STRINGS.len())].to_string(),
                    nnodes: i % 17,
                    ppn: 120,
                    appinputs,
                    exec_time_secs: FLOATS[next(FLOATS.len())],
                    task_secs: FLOATS[next(FLOATS.len())],
                    cost_dollars: FLOATS[next(FLOATS.len())],
                    status: statuses[next(statuses.len())],
                    metrics,
                    infra,
                    tags,
                    deployment: STRINGS[next(STRINGS.len())].to_string(),
                    capacity: if next(2) == 0 {
                        Capacity::Dedicated
                    } else {
                        Capacity::Spot
                    },
                    region: (next(2) == 0).then(|| STRINGS[next(STRINGS.len())].to_string()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        let mut p1 = point(1, "lammps", "Standard_HB120rs_v3", 16, 120, 36.0, 0.576);
        p1.appinputs = Pairs::from([("BOXFACTOR", "30")]);
        p1.tags = Pairs::from([("version", "v1")]);
        ds.push(p1);
        let mut p2 = point(2, "lammps", "Standard_HC44rs", 16, 44, 60.0, 0.84);
        p2.appinputs = Pairs::from([("BOXFACTOR", "30")]);
        ds.push(p2);
        let mut p3 = point(3, "openfoam", "Standard_HB120rs_v3", 8, 120, 38.0, 0.304);
        p3.status = ScenarioStatus::Failed;
        ds.push(p3);
        ds
    }

    #[test]
    fn filter_by_app_sku_status() {
        let ds = sample();
        assert_eq!(ds.completed().len(), 2);
        let f = DataFilter {
            appname: Some("lammps".into()),
            ..DataFilter::all()
        };
        assert_eq!(ds.filter(&f).len(), 2);
        let f = DataFilter {
            sku: Some("hb120rs_v3".into()),
            ..DataFilter::all()
        };
        assert_eq!(ds.filter(&f).len(), 1);
        let f = DataFilter {
            include_failed: true,
            ..DataFilter::all()
        };
        assert_eq!(ds.filter(&f).len(), 3);
    }

    #[test]
    fn filter_parsing() {
        let f = DataFilter::parse("appname=lammps, sku=HB120rs_v3, BOXFACTOR=30, tag=version:v1")
            .unwrap();
        assert_eq!(f.appname.as_deref(), Some("lammps"));
        assert_eq!(f.sku.as_deref(), Some("HB120rs_v3"));
        assert_eq!(
            f.appinputs,
            vec![("BOXFACTOR".to_string(), "30".to_string())]
        );
        assert_eq!(f.tags, vec![("version".to_string(), "v1".to_string())]);
        let ds = sample();
        assert_eq!(ds.filter(&f).len(), 1);
        assert!(DataFilter::parse("no-equals-here").is_err());
        assert!(DataFilter::parse("tag=missingcolon").is_err());
        assert_eq!(DataFilter::parse("").unwrap(), DataFilter::all());
    }

    #[test]
    fn json_roundtrip() {
        let ds = sample();
        let text = ds.to_json();
        let back = Dataset::from_json(&text).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn json_roundtrip_covers_failed_and_partial_points() {
        let mut ds = Dataset::new();
        // A failed point with a failure metric but no infra data.
        let mut failed = point(7, "wrf", "Standard_HC44rs", 4, 44, 0.0, 0.0);
        failed.status = ScenarioStatus::Failed;
        failed.metrics = Pairs::from([("FAILREASON", "node fault")]);
        ds.push(failed);
        // A rich completed point exercising every optional field at once.
        let mut full = point(8, "lammps", "Standard_HB120rs_v3", 2, 120, 21.5, 0.11);
        full.appinputs = Pairs::from([("BOXFACTOR", "12")]);
        full.metrics = Pairs::from([("LAMMPSATOMS", "1000")]);
        full.infra = Pairs::from([("cpu", "0.93"), ("bottleneck", "compute")]);
        full.tags = Pairs::from([("team", "hpc")]);
        ds.push(full);
        let back = Dataset::from_json(&ds.to_json()).unwrap();
        assert_eq!(ds, back);
        // Serialization is deterministic: re-serializing is byte-identical.
        assert_eq!(ds.to_json(), back.to_json());
        // A point with optional maps entirely absent still parses (empty).
        let sparse = "[{\"scenario_id\": 1, \"appname\": \"a\", \"sku\": \"S\", \
             \"nnodes\": 1, \"ppn\": 4, \"exec_time_secs\": 1.5, \"task_secs\": 2.0, \
             \"cost_dollars\": 0.1, \"status\": \"completed\", \"deployment\": \"d\"}]";
        let ds = Dataset::from_json(sparse).unwrap();
        assert!(ds.points[0].appinputs.is_empty());
        assert!(ds.points[0].metrics.is_empty());
        assert!(ds.points[0].tags.is_empty());
    }

    #[test]
    fn extend_replaces_rows_sharing_a_scenario_id() {
        let mut ds = sample();
        let mut incoming = Dataset::new();
        // Same id as sample's failed row 3, now completed: must replace.
        incoming.push(point(
            3,
            "openfoam",
            "Standard_HB120rs_v3",
            8,
            120,
            39.0,
            0.31,
        ));
        incoming.push(point(
            9,
            "openfoam",
            "Standard_HB120rs_v3",
            16,
            120,
            25.0,
            0.4,
        ));
        ds.extend(incoming);
        assert_eq!(ds.len(), 4, "replacement does not grow the dataset");
        let ids: Vec<u32> = ds.points.iter().map(|p| p.scenario_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 9], "order is preserved");
        let row3 = ds.points.iter().find(|p| p.scenario_id == 3).unwrap();
        assert_eq!(row3.status, ScenarioStatus::Completed, "fresher row wins");
        // Extending with the same rows again is idempotent.
        let again: Dataset = Dataset {
            points: ds.points.clone(),
        };
        ds.extend(again);
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn capacity_dimension_roundtrips_and_filters() {
        let mut ds = Dataset::new();
        let dedicated = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 40.0, 0.5);
        let mut spot = dedicated.clone();
        spot.capacity = Capacity::Spot;
        spot.cost_dollars = 0.2;
        ds.push(dedicated.clone());
        // Same scenario id, different capacity: both rows coexist.
        let mut incoming = Dataset::new();
        incoming.push(spot.clone());
        ds.extend(incoming);
        assert_eq!(ds.len(), 2, "spot and dedicated rows coexist");
        // Spot rows carry the capacity key; dedicated rows stay implicit so
        // pre-capacity datasets remain byte-identical.
        let text = ds.to_json();
        assert_eq!(text.matches("\"capacity\"").count(), 1);
        let back = Dataset::from_json(&text).unwrap();
        assert_eq!(ds, back);
        // The filter splits the classes.
        let f = DataFilter::parse("capacity=spot").unwrap();
        let rows = ds.filter(&f);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].capacity, Capacity::Spot);
        assert!(DataFilter::parse("capacity=preemptible").is_err());
        // Re-extending with a fresher spot row replaces, not duplicates.
        let mut fresher = Dataset::new();
        let mut s2 = spot.clone();
        s2.cost_dollars = 0.25;
        fresher.push(s2);
        ds.extend(fresher);
        assert_eq!(ds.len(), 2);
        // CSV carries the capacity column.
        let csv = ds.to_csv();
        let rows = hpcadvisor_formats::csv::read(&csv).unwrap();
        let cap_idx = rows[0].iter().position(|h| h == "capacity").unwrap();
        assert_eq!(rows[1][cap_idx], "dedicated");
        assert_eq!(rows[2][cap_idx], "spot");
    }

    #[test]
    fn region_dimension_roundtrips_and_filters() {
        let mut ds = Dataset::new();
        let home = point(1, "lammps", "Standard_HB120rs_v3", 4, 120, 40.0, 0.5);
        let mut placed = point(2, "lammps", "Standard_HB120rs_v3", 4, 120, 41.0, 0.54);
        placed.region = Some("westeurope".into());
        ds.push(home.clone());
        ds.push(placed.clone());
        // Only the placed row carries the region key; home-region rows stay
        // implicit so pre-placement datasets remain byte-identical.
        let text = ds.to_json();
        assert_eq!(text.matches("\"region\"").count(), 1);
        let back = Dataset::from_json(&text).unwrap();
        assert_eq!(ds, back);
        // The filter selects placed rows case-insensitively; rows without a
        // region never match a region filter.
        let f = DataFilter::parse("region=WestEurope").unwrap();
        let rows = ds.filter(&f);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].scenario_id, 2);
        let none = ds.filter(&DataFilter::parse("region=japaneast").unwrap());
        assert!(none.is_empty());
        // CSV carries the region column, empty for home-region rows.
        let csv = ds.to_csv();
        let rows = hpcadvisor_formats::csv::read(&csv).unwrap();
        let idx = rows[0].iter().position(|h| h == "region").unwrap();
        assert_eq!(rows[1][idx], "");
        assert_eq!(rows[2][idx], "westeurope");
    }

    #[test]
    fn distinct_skus_and_inputs() {
        let ds = sample();
        assert_eq!(ds.skus(&DataFilter::all()), vec!["hb120rs_v3", "hc44rs"]);
        let f = DataFilter {
            appname: Some("lammps".into()),
            ..DataFilter::all()
        };
        assert_eq!(ds.input_keys(&f), vec!["BOXFACTOR=30"]);
    }

    #[test]
    fn metric_lookup() {
        let mut p = point(1, "a", "S", 1, 4, 1.0, 0.1);
        p.metrics = Pairs::from([("LAMMPSATOMS", "864000000")]);
        p.infra = Pairs::from([("bottleneck", "compute")]);
        assert_eq!(p.metric("LAMMPSATOMS"), Some("864000000"));
        assert_eq!(p.metric("NOPE"), None);
        assert_eq!(p.infra_metric("bottleneck"), Some("compute"));
        assert_eq!(p.sku_short(), "s");
    }
}

impl Dataset {
    /// Exports the dataset as CSV with one column per fixed field plus one
    /// column per appinput/metric key seen anywhere in the data (sparse
    /// cells stay empty) — the spreadsheet-friendly sibling of
    /// [`Dataset::to_json`].
    pub fn to_csv(&self) -> String {
        let mut input_keys: Vec<&str> = Vec::new();
        let mut metric_keys: Vec<&str> = Vec::new();
        for p in &self.points {
            for (k, _) in &p.appinputs {
                if !input_keys.contains(&k) {
                    input_keys.push(k);
                }
            }
            for (k, _) in &p.metrics {
                if !metric_keys.contains(&k) {
                    metric_keys.push(k);
                }
            }
        }
        let mut header: Vec<String> = [
            "scenario_id",
            "appname",
            "sku",
            "nnodes",
            "ppn",
            "exec_time_secs",
            "task_secs",
            "cost_dollars",
            "status",
            "capacity",
            "region",
            "deployment",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        header.extend(input_keys.iter().chain(&metric_keys).map(|k| k.to_string()));
        let mut rows = vec![header];
        for p in &self.points {
            let mut row = vec![
                p.scenario_id.to_string(),
                p.appname.clone(),
                p.sku.clone(),
                p.nnodes.to_string(),
                p.ppn.to_string(),
                format!("{}", p.exec_time_secs),
                format!("{}", p.task_secs),
                format!("{}", p.cost_dollars),
                p.status.as_str().to_string(),
                p.capacity.as_str().to_string(),
                p.region.clone().unwrap_or_default(),
                p.deployment.clone(),
            ];
            for k in &input_keys {
                row.push(p.appinputs.get(k).unwrap_or_default().to_string());
            }
            for k in &metric_keys {
                row.push(p.metric(k).unwrap_or_default().to_string());
            }
            rows.push(row);
        }
        hpcadvisor_formats::csv::write(&rows)
    }
}

#[cfg(test)]
mod codec_tests {
    use super::oracle::{generate, generated_points, point_to_value, value_to_point};
    use super::*;
    use hpcadvisor_formats::OrderedMap;

    fn compact(p: &DataPoint) -> String {
        let mut out = String::new();
        p.write_json(json::Slot::compact(&mut out));
        out
    }

    /// What the tree decoding gives for `text`.
    fn oracle_point(text: &str) -> Option<DataPoint> {
        value_to_point(&json::parse(text).ok()?).ok()
    }

    fn oracle_dataset(text: &str) -> Option<Dataset> {
        let doc = json::parse(text).ok()?;
        let points = doc
            .as_seq()?
            .iter()
            .map(value_to_point)
            .collect::<Result<_, _>>()
            .ok()?;
        Some(Dataset { points })
    }

    #[test]
    fn writer_matches_the_tree_oracle_byte_for_byte() {
        let mut points = generated_points();
        // A point whose every string map was built with a repeated key:
        // the first position and the last value are written.
        let mut repeated = points[1].clone();
        let twice = || -> Pairs {
            [("k", "first"), ("other", "x"), ("k", "last")]
                .into_iter()
                .collect()
        };
        repeated.appinputs = twice();
        repeated.metrics = twice();
        repeated.infra = twice();
        repeated.tags = twice();
        let text = compact(&repeated);
        assert_eq!(text.matches("{\"k\":\"last\",\"other\":\"x\"}").count(), 4);
        assert!(!text.contains("first"), "{text}");
        points.push(repeated);
        for p in &points {
            assert_eq!(compact(p), json::to_string(&point_to_value(p)));
        }
        let ds = Dataset { points };
        let tree = Value::Seq(ds.points.iter().map(point_to_value).collect());
        assert_eq!(ds.to_json(), json::to_string_pretty(&tree));
        assert_eq!(Dataset::new().to_json(), "[]\n");
        // The generator really covers what it claims to.
        let text = ds.to_json();
        for needle in [
            "\\\"",
            "\\\\",
            "\\u0000",
            "\\u001f",
            "\u{1f680}",
            "-0.0",
            "0.0000001",
        ] {
            assert!(text.contains(needle), "no {needle} in the generated points");
        }
        for key in ["\"capacity\"", "\"region\"", "\"tags\": {}"] {
            assert!(text.contains(key), "no {key} in the generated points");
        }
        assert!(ds.points.iter().any(|p| p.capacity == Capacity::Dedicated));
        assert!(ds.points.iter().any(|p| p.region.is_none()));
    }

    #[test]
    fn the_dataset_buffer_is_reserved_once() {
        let lit = PointLiterals::shared(DATASET_ITEM_LAYOUT).unwrap();
        // Every escape, edge float, map shape and optional member, with
        // the shortest and the longest point first and last.
        let mut points = generate(1200);
        points.sort_by_key(|p| compact(p).len());
        for ds in [
            Dataset { points },
            Dataset::new(),
            Dataset {
                points: vec![point(1, "a", "S", 1, 1, 1.0, 0.1)],
            },
        ] {
            let text = ds.to_json();
            let tree = Value::Seq(ds.points.iter().map(point_to_value).collect());
            assert_eq!(text, json::to_string_pretty(&tree));
            // The buffer still has the capacity it was reserved with, so it
            // never regrew.
            let bound =
                4 * ds.len() + 3 + ds.points.iter().map(|p| p.json_max_len(lit)).sum::<usize>();
            assert_eq!(text.capacity(), bound, "{} points", ds.len());
        }
        // Each point's bound covers it: a one-point dataset is the point
        // and 7 bytes of framing.
        for p in generate(1200) {
            let max_len = p.json_max_len(lit);
            let len = Dataset { points: vec![p] }.to_json().len() - 7;
            assert!(max_len >= len, "{max_len} < {len}");
        }
    }

    #[test]
    fn a_growing_id_does_not_regrow_the_buffer() {
        // The first point's one-digit id is the shortest of them all.
        let points = (1..=10_000)
            .map(|id| {
                let mut p = point(
                    id,
                    "openfoam",
                    "Standard_HC44rs",
                    1,
                    44,
                    1501.92,
                    1.3216896000000002,
                );
                p.task_secs = 1521.933600402;
                p.appinputs = Pairs::from([("mesh", "80 24 24")]);
                p.metrics = Pairs::from([("APPEXECTIME", "1501.92"), ("OFCELLS", "35942400")]);
                p
            })
            .collect();
        let text = Dataset { points }.to_json();
        assert!(
            text.capacity() as f64 <= text.len() as f64 * 1.1,
            "{} bytes of capacity for {} bytes of text",
            text.capacity(),
            text.len()
        );
    }

    #[test]
    fn reader_matches_the_tree_oracle_on_generated_points() {
        let ds = Dataset {
            points: generated_points(),
        };
        for p in &ds.points {
            let text = compact(p);
            let read = DataPoint::from_json(&text).ok();
            assert!(read.is_some(), "{text}");
            assert_eq!(read, oracle_point(&text), "{text}");
        }
        let text = ds.to_json();
        assert_eq!(Dataset::from_json(&text).ok(), oracle_dataset(&text));
    }

    /// The base point of the decoding variants, as a map to edit.
    fn base() -> OrderedMap {
        let mut p = point(7, "openfoam", "Standard_HB120rs_v3", 4, 120, 12.5, 0.25);
        p.appinputs = Pairs::from([("mesh", "40 16 16")]);
        p.metrics = Pairs::from([("APPEXECTIME", "12.5")]);
        match point_to_value(&p) {
            Value::Map(m) => m,
            _ => unreachable!(),
        }
    }

    fn text(m: OrderedMap) -> String {
        json::to_string(&Value::Map(m))
    }

    /// `base` with `members` spliced in at the front or the back.
    fn splice(front: bool, members: &str) -> String {
        let b = text(base());
        if front {
            format!("{{{members},{}", &b[1..])
        } else {
            format!("{},{members}}}", &b[..b.len() - 1])
        }
    }

    fn decoding_variants() -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = Vec::new();
        let mut add = |name: &str, text: String| v.push((name.to_string(), text));
        add("compact", text(base()));
        add("pretty", json::to_string_pretty(&Value::Map(base())));
        let reversed: OrderedMap = base()
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        add("reversed key order", text(reversed));
        add(
            "odd whitespace",
            text(base()).replace(',', " ,\n\t").replace(':', "\r: "),
        );
        add(
            "escaped key",
            text(base()).replace("\"appname\"", "\"app\\u006eame\""),
        );
        for front in [true, false] {
            let at = if front { "front" } else { "back" };
            add(
                &format!("unknown scalar at {at}"),
                splice(front, "\"zz\":5"),
            );
            add(
                &format!("unknown nested at {at}"),
                splice(
                    front,
                    "\"extra\":{\"deep\":[1,2,{\"x\":null}],\"s\":\"\\\"\"}",
                ),
            );
            add(
                &format!("repeated nnodes at {at}"),
                splice(front, "\"nnodes\":99"),
            );
            add(
                &format!("repeated bad nnodes at {at}"),
                splice(front, "\"nnodes\":\"x\""),
            );
            add(
                &format!("repeated point map at {at}"),
                splice(front, "\"metrics\":{\"a\":\"1\"}"),
            );
            add(
                &format!("repeated non-map at {at}"),
                splice(front, "\"appinputs\":5"),
            );
            add(
                &format!("repeated status at {at}"),
                splice(front, "\"status\":\"failed\""),
            );
            add(
                &format!("repeated capacity at {at}"),
                splice(front, "\"capacity\":\"bogus\""),
            );
        }
        add(
            "repeated map key",
            splice(false, "\"tags\":{\"a\":\"1\",\"b\":\"2\",\"a\":\"3\"}"),
        );
        let mut edit = |name: &str, key: &str, value: Option<&str>| {
            let mut m = base();
            match value {
                Some(json_text) => {
                    m.insert(key, json::parse(json_text).unwrap());
                }
                None => {
                    m.remove(key);
                }
            }
            add(name, text(m));
        };
        edit("int for a float", "exec_time_secs", Some("12"));
        edit("float for an int", "nnodes", Some("2.0"));
        edit(
            "overflowing int",
            "scenario_id",
            Some("99999999999999999999"),
        );
        edit("negative id", "scenario_id", Some("-1"));
        edit("id past u32", "ppn", Some("4294967297"));
        edit("string for a float", "task_secs", Some("\"1.0\""));
        edit(
            "non-string map values",
            "metrics",
            Some(
                "{\"n\":1,\"f\":2.50,\"b\":true,\"z\":null,\"arr\":[1,\"a\"],\"obj\":{\"k\":1.0}}",
            ),
        );
        edit("empty map", "infra", Some("{}"));
        edit("null map", "tags", Some("null"));
        edit("array map", "tags", Some("[1,2]"));
        edit("string map", "appinputs", Some("\"x\""));
        edit("spot", "capacity", Some("\"spot\""));
        edit("bad capacity", "capacity", Some("\"bogus\""));
        edit("non-string capacity", "capacity", Some("5"));
        edit("region", "region", Some("\"westeurope\""));
        edit("non-string region", "region", Some("7"));
        edit("null region", "region", Some("null"));
        edit("bad status", "status", Some("\"done\""));
        for key in [
            "scenario_id",
            "appname",
            "sku",
            "nnodes",
            "ppn",
            "appinputs",
            "exec_time_secs",
            "task_secs",
            "cost_dollars",
            "status",
            "metrics",
            "infra",
            "tags",
            "deployment",
        ] {
            edit(&format!("missing {key}"), key, None);
        }
        edit(
            "deep unknown",
            "extra",
            Some(&("[".repeat(100) + &"]".repeat(100))),
        );
        let b = text(base());
        add(
            "too deep unknown",
            splice(
                false,
                &format!("\"x\":{}{}", "[".repeat(200), "]".repeat(200)),
            ),
        );
        for other in ["[]", "5", "\"s\"", "null", "{}", ""] {
            add(&format!("non-point {other:?}"), other.to_string());
        }
        add("truncated", b[..b.len() - 3].to_string());
        add("trailing comma", splice(false, ""));
        add("trailing garbage", format!("{b} x"));
        add("two documents", format!("{b}{b}"));
        add("missing colon", b.replacen("\"sku\":", "\"sku\" ", 1));
        add(
            "unterminated string",
            b.replacen("\"openfoam\"", "\"openfoam", 1),
        );
        add("bad escape", b.replacen("openfoam", "open\\qfoam", 1));
        v
    }

    #[test]
    fn reader_accepts_and_rejects_exactly_what_the_oracle_does() {
        let mut accepted = 0;
        for (name, text) in decoding_variants() {
            let read = DataPoint::from_json(&text).ok();
            assert_eq!(read, oracle_point(&text), "{name}: {text}");
            accepted += usize::from(read.is_some());
            // The same point inside a dataset file.
            let doc = format!("[{text}]");
            assert_eq!(
                Dataset::from_json(&doc).ok(),
                oracle_dataset(&doc),
                "{name} in a dataset"
            );
        }
        // Both outcomes are exercised.
        assert!(accepted > 10, "only {accepted} variants decode");
        assert!(DataPoint::from_json(&splice(false, "\"nnodes\":\"x\"")).is_err());
        let last_wins = DataPoint::from_json(&splice(false, "\"nnodes\":99")).unwrap();
        assert_eq!(last_wins.nnodes, 99);
    }

    #[test]
    fn dataset_documents_decode_like_the_oracle() {
        let one = text(base());
        for doc in [
            "[]".to_string(),
            " [ ] ".to_string(),
            format!("[{one},{one}]"),
            format!("[{one},]"),
            format!("[{one}] ]"),
            format!("{{\"points\":[{one}]}}"),
            format!("[{one},5]"),
            "".to_string(),
        ] {
            assert_eq!(Dataset::from_json(&doc).ok(), oracle_dataset(&doc), "{doc}");
        }
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_export_has_sparse_columns() {
        let mut ds = Dataset::new();
        let mut p1 = point(1, "lammps", "Standard_HB120rs_v3", 16, 120, 36.0, 0.576);
        p1.appinputs = Pairs::from([("BOXFACTOR", "30")]);
        p1.metrics = Pairs::from([("LAMMPSATOMS", "864000000")]);
        ds.push(p1);
        let mut p2 = point(2, "openfoam", "Standard_HB120rs_v2", 8, 120, 38.0, 0.304);
        p2.appinputs = Pairs::from([("mesh", "40 16 16")]);
        ds.push(p2);
        let text = ds.to_csv();
        let rows = hpcadvisor_formats::csv::read(&text).unwrap();
        assert_eq!(rows.len(), 3);
        let header = &rows[0];
        assert!(header.contains(&"BOXFACTOR".to_string()));
        assert!(header.contains(&"mesh".to_string()));
        assert!(header.contains(&"LAMMPSATOMS".to_string()));
        // Row 2 (openfoam) has an empty BOXFACTOR cell.
        let bf_idx = header.iter().position(|h| h == "BOXFACTOR").unwrap();
        assert_eq!(rows[1][bf_idx], "30");
        assert_eq!(rows[2][bf_idx], "");
        // The quoted mesh value survives the round trip.
        let mesh_idx = header.iter().position(|h| h == "mesh").unwrap();
        assert_eq!(rows[2][mesh_idx], "40 16 16");
    }

    #[test]
    fn empty_dataset_csv_is_header_only() {
        let text = Dataset::new().to_csv();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("scenario_id,"));
    }
}

//! Scenario generation and the persistent task list.
//!
//! "The first step is to create the list of scenarios (or tasks) to be
//! executed based on the main configuration file. Here we take all the VM
//! types, number of nodes, processes per node, and application input
//! parameters to generate all combinations. This list is recorded and
//! stored in a JSON file. The list also contains the status of the task,
//! which can be pending, failed, or completed." — paper, Section III-C.

use crate::config::UserConfig;
use crate::error::ToolError;
use cloudsim::SkuCatalog;
use hpcadvisor_formats::{json, OrderedMap, Value};
use std::fmt::Write;

/// Task status as recorded in the scenario list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// Not yet executed.
    Pending,
    /// Executed successfully.
    Completed,
    /// Executed and failed (or could not run).
    Failed,
    /// Deliberately not executed: the run degraded gracefully (e.g. the
    /// SKU's quota was exhausted mid-run) and will re-attempt on the next
    /// collect. Unlike `Failed`, no execution evidence exists for the
    /// scenario.
    Skipped,
    /// Killed by the per-scenario deadline watchdog: the scenario hung or
    /// thrashed (e.g. eviction loops on spot capacity) past its wall-clock
    /// budget. Terminal like `Failed`, but the evidence is "ran out of
    /// time", not an execution error.
    TimedOut,
}

impl ScenarioStatus {
    /// The status string stored in the JSON task list.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScenarioStatus::Pending => "pending",
            ScenarioStatus::Completed => "completed",
            ScenarioStatus::Failed => "failed",
            ScenarioStatus::Skipped => "skipped",
            ScenarioStatus::TimedOut => "timedout",
        }
    }

    /// Parses a stored status string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pending" => Some(ScenarioStatus::Pending),
            "completed" => Some(ScenarioStatus::Completed),
            "failed" => Some(ScenarioStatus::Failed),
            "skipped" => Some(ScenarioStatus::Skipped),
            "timedout" => Some(ScenarioStatus::TimedOut),
            _ => None,
        }
    }
}

/// One point of the configuration grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable id (1-based position in the generated list).
    pub id: u32,
    /// VM type.
    pub sku: String,
    /// Number of nodes.
    pub nnodes: u32,
    /// Processes per node (from `ppr` % of the SKU's cores).
    pub ppn: u32,
    /// Application input assignment for this point.
    pub appinputs: Vec<(String, String)>,
    /// Requested placement region. `None` means the deployment's home
    /// region — the only case before multi-region grids existed, so it is
    /// omitted from the JSON task list to keep old lists byte-identical.
    pub region: Option<String>,
    /// Execution status.
    pub status: ScenarioStatus,
}

impl Scenario {
    /// Human-readable label, used as the batch task name:
    /// `{appname}-{short sku}-n{nnodes}-ppn{ppn}`, then `-{key}={value}` per
    /// input with spaces in the value as `_`, then `-{region}` if placed.
    /// Built in one allocation.
    pub fn label(&self, appname: &str) -> String {
        let inputs: usize = self
            .appinputs
            .iter()
            .map(|(k, v)| k.len() + v.len() + 2)
            .sum();
        let region = self.region.as_ref().map_or(0, |r| r.len() + 1);
        // Two u32s take at most 20 digits.
        let mut s = String::with_capacity(appname.len() + self.sku.len() + 26 + inputs + region);
        s.push_str(appname);
        s.push('-');
        push_short_sku(&mut s, &self.sku);
        let _ = write!(s, "-n{}-ppn{}", self.nnodes, self.ppn);
        for (k, v) in &self.appinputs {
            s.push('-');
            s.push_str(k);
            s.push('=');
            s.extend(v.chars().map(|c| if c == ' ' { '_' } else { c }));
        }
        if let Some(region) = &self.region {
            s.push('-');
            s.push_str(region);
        }
        s
    }

    /// Total MPI ranks.
    pub fn ranks(&self) -> u64 {
        self.nnodes as u64 * self.ppn as u64
    }
}

/// Appends `sku` lower-cased with every `standard_` removed (what
/// `sku.to_ascii_lowercase().replace("standard_", "")` returns), the SKU's
/// short form in task labels and pool names.
pub(crate) fn push_short_sku(out: &mut String, sku: &str) {
    const PREFIX: &str = "standard_";
    let mut rest = sku;
    while let Some(c) = rest.chars().next() {
        if rest
            .get(..PREFIX.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(PREFIX))
        {
            rest = &rest[PREFIX.len()..];
        } else {
            out.push(c.to_ascii_lowercase());
            rest = &rest[c.len_utf8()..];
        }
    }
}

/// Expands the configuration into the full scenario list.
///
/// The list is ordered SKU-major so Algorithm 1's pool reuse kicks in (one
/// pool per VM type), then by node count ascending (pool grows, never
/// shrinks, within one SKU — "the number of nodes ... is then incremented
/// in the pool").
pub fn generate_scenarios(
    config: &UserConfig,
    catalog: &SkuCatalog,
) -> Result<Vec<Scenario>, ToolError> {
    // An empty `regions` list is the legacy single-region grid: every
    // scenario carries `region: None` and runs in the deployment's home
    // region, keeping the task list (and everything fingerprinted from it)
    // byte-identical to pre-placement versions. A non-empty list multiplies
    // the grid, region-major inside each SKU so one pool per (SKU, region)
    // is reused across node counts.
    let region_catalog = cloudsim::RegionCatalog::azure();
    let mut placements: Vec<Option<&cloudsim::Region>> = Vec::new();
    if config.regions.is_empty() {
        placements.push(None);
    } else {
        for name in &config.regions {
            let region = region_catalog.get(name).ok_or_else(|| {
                ToolError::Config(format!(
                    "unknown region '{name}'; known regions: {}",
                    region_catalog.names().join(", ")
                ))
            })?;
            placements.push(Some(region));
        }
    }
    let mut out = Vec::new();
    let mut id = 1u32;
    let combos = input_combinations(&config.appinputs);
    for sku_name in &config.skus {
        let sku = catalog
            .get(sku_name)
            .ok_or_else(|| ToolError::Cloud(cloudsim::CloudError::UnknownSku(sku_name.clone())))?;
        let ppn = (sku.cores * config.ppr / 100).max(1);
        let mut nnodes = config.nnodes.clone();
        nnodes.sort_unstable();
        for placement in &placements {
            // (SKU, region) pairs the region does not offer are dropped up
            // front rather than generated and failed.
            if let Some(region) = placement {
                if !region.offers_family(&sku.family) {
                    continue;
                }
            }
            for n in &nnodes {
                for combo in &combos {
                    out.push(Scenario {
                        id,
                        sku: sku.name.clone(),
                        nnodes: *n,
                        ppn,
                        appinputs: combo.clone(),
                        region: placement.map(|r| r.name.clone()),
                        status: ScenarioStatus::Pending,
                    });
                    id += 1;
                }
            }
        }
    }
    Ok(out)
}

/// Cartesian product over the input sweep.
fn input_combinations(appinputs: &[(String, Vec<String>)]) -> Vec<Vec<(String, String)>> {
    let mut combos: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for (key, values) in appinputs {
        if values.is_empty() {
            continue;
        }
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for combo in &combos {
            for v in values {
                let mut c = combo.clone();
                c.push((key.clone(), v.clone()));
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

/// Serializes the scenario list to the tool's JSON task-list format.
pub fn to_json(scenarios: &[Scenario]) -> String {
    let items: Vec<Value> = scenarios
        .iter()
        .map(|s| {
            let mut m = OrderedMap::new();
            m.insert("id", Value::Int(s.id as i64));
            m.insert("sku", Value::str(&s.sku));
            m.insert("nnodes", Value::Int(s.nnodes as i64));
            m.insert("ppn", Value::Int(s.ppn as i64));
            let mut inputs = OrderedMap::new();
            for (k, v) in &s.appinputs {
                inputs.insert(k.clone(), Value::str(v));
            }
            m.insert("appinputs", Value::Map(inputs));
            // None (home region) is omitted so pre-placement task lists
            // stay byte-identical.
            if let Some(region) = &s.region {
                m.insert("region", Value::str(region));
            }
            m.insert("status", Value::str(s.status.as_str()));
            Value::Map(m)
        })
        .collect();
    json::to_string_pretty(&Value::Seq(items))
}

/// Parses a stored scenario list.
pub fn from_json(text: &str) -> Result<Vec<Scenario>, ToolError> {
    let doc = json::parse(text)?;
    let items = doc
        .as_seq()
        .ok_or_else(|| ToolError::Config("scenario list must be a JSON array".into()))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let get_int = |k: &str| -> Result<i64, ToolError> {
            item.get(k)
                .and_then(|v| v.as_int())
                .ok_or_else(|| ToolError::Config(format!("scenario missing integer '{k}'")))
        };
        let get_str = |k: &str| -> Result<String, ToolError> {
            item.get(k)
                .and_then(|v| v.as_str())
                .map(|s| s.to_string())
                .ok_or_else(|| ToolError::Config(format!("scenario missing string '{k}'")))
        };
        let mut appinputs = Vec::new();
        if let Some(m) = item.get("appinputs").and_then(|v| v.as_map()) {
            for (k, v) in m.iter() {
                appinputs.push((k.to_string(), v.to_plain_string()));
            }
        }
        let status_str = get_str("status")?;
        out.push(Scenario {
            id: get_int("id")? as u32,
            sku: get_str("sku")?,
            nnodes: get_int("nnodes")? as u32,
            ppn: get_int("ppn")? as u32,
            appinputs,
            region: item
                .get("region")
                .and_then(|v| v.as_str())
                .map(|s| s.to_string()),
            status: ScenarioStatus::parse(&status_str)
                .ok_or_else(|| ToolError::Config(format!("bad status '{status_str}'")))?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_expands_to_36_scenarios() {
        let config = UserConfig::example_openfoam();
        let catalog = SkuCatalog::azure_hpc();
        let scenarios = generate_scenarios(&config, &catalog).unwrap();
        assert_eq!(scenarios.len(), 36);
        // SKU-major ordering with ascending node counts inside each SKU.
        assert!(scenarios[..12].iter().all(|s| s.sku == "Standard_HC44rs"));
        let nodes: Vec<u32> = scenarios[..12].iter().map(|s| s.nnodes).collect();
        assert_eq!(nodes, vec![1, 1, 2, 2, 3, 3, 4, 4, 8, 8, 16, 16]);
        // ppn = 100% of cores.
        assert_eq!(scenarios[0].ppn, 44);
        assert_eq!(scenarios[12].ppn, 120);
        // Ids are stable 1..=36.
        assert_eq!(scenarios.first().unwrap().id, 1);
        assert_eq!(scenarios.last().unwrap().id, 36);
        assert!(scenarios
            .iter()
            .all(|s| s.status == ScenarioStatus::Pending));
    }

    #[test]
    fn ppr_scales_ppn() {
        let mut config = UserConfig::example_openfoam();
        config.ppr = 50;
        let catalog = SkuCatalog::azure_hpc();
        let scenarios = generate_scenarios(&config, &catalog).unwrap();
        assert_eq!(scenarios[0].ppn, 22, "50% of HC44rs' 44 cores");
        assert_eq!(scenarios[12].ppn, 60, "50% of 120 cores");
    }

    #[test]
    fn multi_parameter_cartesian_product() {
        let combos = input_combinations(&[
            ("a".into(), vec!["1".into(), "2".into()]),
            ("b".into(), vec!["x".into(), "y".into(), "z".into()]),
        ]);
        assert_eq!(combos.len(), 6);
        assert!(combos.contains(&vec![("a".into(), "2".into()), ("b".into(), "y".into())]));
    }

    #[test]
    fn unknown_sku_rejected() {
        let mut config = UserConfig::example_openfoam();
        config.skus.push("Standard_Bogus".into());
        let catalog = SkuCatalog::azure_hpc();
        assert!(generate_scenarios(&config, &catalog).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let config = UserConfig::example_openfoam();
        let catalog = SkuCatalog::azure_hpc();
        let mut scenarios = generate_scenarios(&config, &catalog).unwrap();
        scenarios[3].status = ScenarioStatus::Completed;
        scenarios[5].status = ScenarioStatus::Failed;
        let text = to_json(&scenarios);
        let back = from_json(&text).unwrap();
        assert_eq!(scenarios, back);
    }

    #[test]
    fn short_skus_drop_every_standard_in_any_case() {
        for sku in [
            "Standard_HB120rs_v3",
            "STANDARD_hc44RS",
            "hb120rs_v2",
            "",
            "Standard_",
            "xStandard_Standard_y",
            "standstandard_ard_",
            "Standard_Ünïcode_standard",
        ] {
            let mut short = String::new();
            push_short_sku(&mut short, sku);
            assert_eq!(
                short,
                sku.to_ascii_lowercase().replace("standard_", ""),
                "{sku}"
            );
        }
    }

    #[test]
    fn labels_are_informative() {
        let config = UserConfig::example_lammps();
        let catalog = SkuCatalog::azure_hpc();
        let scenarios = generate_scenarios(&config, &catalog).unwrap();
        let s = scenarios
            .iter()
            .find(|s| s.nnodes == 16 && s.sku.contains("v3"))
            .unwrap();
        assert_eq!(
            s.label("lammps"),
            "lammps-hb120rs_v3-n16-ppn120-BOXFACTOR=30"
        );
        assert_eq!(s.ranks(), 1920);
    }

    #[test]
    fn multi_region_grid_multiplies_filters_and_roundtrips() {
        let mut config = UserConfig::example_lammps_small();
        config.regions = vec!["southcentralus".into(), "westeurope".into()];
        let catalog = SkuCatalog::azure_hpc();
        let scenarios = generate_scenarios(&config, &catalog).unwrap();
        // 1 SKU × 3 node counts × 1 input × 2 regions.
        assert_eq!(scenarios.len(), 6);
        // Region-major inside the SKU: all southcentralus first.
        assert!(scenarios[..3]
            .iter()
            .all(|s| s.region.as_deref() == Some("southcentralus")));
        assert!(scenarios[3..]
            .iter()
            .all(|s| s.region.as_deref() == Some("westeurope")));
        // Ids stay stable 1..=6 and the region survives the JSON task list.
        let back = from_json(&to_json(&scenarios)).unwrap();
        assert_eq!(back, scenarios);
        // The region shows in the task label so logs disambiguate placements.
        assert!(scenarios[5].label("lammps").ends_with("-westeurope"));
        assert_eq!(
            scenarios[5].label("lammps"),
            "lammps-hb120rs_v3-n4-ppn120-BOXFACTOR=8-westeurope"
        );

        // A (SKU, region) pair the region does not offer is dropped up
        // front: japaneast lacks the HB (Naples) family entirely.
        let mut config = UserConfig::example_lammps_small();
        config.skus = vec!["Standard_HB60rs".into()];
        config.regions = vec!["southcentralus".into(), "japaneast".into()];
        let scenarios = generate_scenarios(&config, &catalog).unwrap();
        assert_eq!(scenarios.len(), 3, "japaneast offers no HB-family SKUs");
        assert!(scenarios
            .iter()
            .all(|s| s.region.as_deref() == Some("southcentralus")));
    }

    #[test]
    fn unknown_region_rejected_with_catalog_listing() {
        let mut config = UserConfig::example_lammps_small();
        config.regions = vec!["atlantis".into()];
        let catalog = SkuCatalog::azure_hpc();
        let err = generate_scenarios(&config, &catalog).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown region 'atlantis'"), "{msg}");
        assert!(msg.contains("southcentralus"), "lists the catalog: {msg}");
    }

    #[test]
    fn single_region_task_list_bytes_unchanged() {
        // The serialized task list of a region-less config must not contain
        // a region key at all — old lists and new ones are interchangeable.
        let config = UserConfig::example_lammps_small();
        let catalog = SkuCatalog::azure_hpc();
        let scenarios = generate_scenarios(&config, &catalog).unwrap();
        assert!(scenarios.iter().all(|s| s.region.is_none()));
        let text = to_json(&scenarios);
        assert!(!text.contains("\"region\""));
    }

    #[test]
    fn status_parse_roundtrip() {
        for s in [
            ScenarioStatus::Pending,
            ScenarioStatus::Completed,
            ScenarioStatus::Failed,
            ScenarioStatus::Skipped,
            ScenarioStatus::TimedOut,
        ] {
            assert_eq!(ScenarioStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(ScenarioStatus::parse("running"), None);
    }
}

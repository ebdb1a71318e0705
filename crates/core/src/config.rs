//! The main user configuration file (paper Listing 1).

use crate::error::ToolError;
use hpcadvisor_formats::{yaml, Value};

/// Parsed main configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct UserConfig {
    /// Cloud subscription ID or name.
    pub subscription: String,
    /// VM types (SKUs) to test.
    pub skus: Vec<String>,
    /// Prefix for resource-group names.
    pub(crate) rgprefix: String,
    /// URL of the application setup/run script.
    pub appsetupurl: String,
    /// Node counts to test.
    pub nnodes: Vec<u32>,
    /// Application name (selects the bundled script/model family).
    pub appname: String,
    /// Tags copied into every result row.
    pub tags: Vec<(String, String)>,
    /// Region to provision in.
    pub region: String,
    /// Candidate placement regions for the scenario grid. Empty (the
    /// default) keeps the legacy single-region behavior: everything runs in
    /// `region`. Non-empty, the grid is multiplied by these regions and
    /// their order is the failover order when a region faults mid-run.
    pub regions: Vec<String>,
    /// Whether to create a jumpbox VM.
    pub(crate) createjumpbox: bool,
    /// Percentage of each node's cores to use as processes-per-node.
    pub ppr: u32,
    /// Application input sweep: parameter → values.
    pub appinputs: Vec<(String, Vec<String>)>,
    /// Existing resource group containing a VPN (optional).
    pub(crate) vpnrg: Option<String>,
    /// Existing VNet name for the VPN (optional).
    pub(crate) vpnvnet: Option<String>,
    /// Whether to peer with the VPN VNet.
    pub(crate) peervpn: bool,
}

/// Emits one scalar for [`UserConfig::to_yaml`], quoting whenever the bare
/// spelling would re-parse as something other than the original string
/// (numbers, booleans, null, flow sequences, comments, key separators).
/// The in-tree YAML reader strips quotes without escape processing, so a
/// string containing a double quote is single-quoted instead.
fn yaml_scalar(s: &str) -> String {
    let needs_quotes = s.is_empty()
        || !matches!(yaml::parse(&format!("k: {s}")).ok().and_then(|d| d.get("k").cloned()),
            Some(Value::Str(back)) if back == s);
    if !needs_quotes {
        return s.to_string();
    }
    if s.contains('"') {
        format!("'{s}'")
    } else {
        format!("\"{s}\"")
    }
}

fn req_str(doc: &Value, key: &str) -> Result<String, ToolError> {
    match doc.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(Value::Int(i)) => Ok(i.to_string()),
        Some(other) => Err(ToolError::Config(format!(
            "field '{key}' must be a string, got {other:?}"
        ))),
        None => Err(ToolError::Config(format!("missing required field '{key}'"))),
    }
}

fn str_list(doc: &Value, key: &str) -> Result<Vec<String>, ToolError> {
    match doc.get(key) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                Value::Int(i) => Ok(i.to_string()),
                other => Err(ToolError::Config(format!(
                    "field '{key}' has non-string element {other:?}"
                ))),
            })
            .collect(),
        Some(Value::Str(s)) => Ok(vec![s.clone()]),
        Some(other) => Err(ToolError::Config(format!(
            "field '{key}' must be a list, got {other:?}"
        ))),
        None => Err(ToolError::Config(format!("missing required field '{key}'"))),
    }
}

impl UserConfig {
    /// Parses a Listing-1-style YAML document.
    pub fn from_yaml(text: &str) -> Result<Self, ToolError> {
        let doc = yaml::parse(text)?;
        if doc.as_map().is_none() {
            return Err(ToolError::Config("configuration must be a mapping".into()));
        }

        let nnodes: Vec<u32> = match doc.get("nnodes") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|v| {
                    v.as_int()
                        .filter(|n| *n > 0 && *n <= 10_000)
                        .map(|n| n as u32)
                        .ok_or_else(|| {
                            ToolError::Config(format!("nnodes element {v:?} must be 1..=10000"))
                        })
                })
                .collect::<Result<_, _>>()?,
            Some(Value::Int(n)) if *n > 0 => vec![*n as u32],
            _ => return Err(ToolError::Config("missing or invalid 'nnodes' list".into())),
        };
        if nnodes.is_empty() {
            return Err(ToolError::Config("'nnodes' list is empty".into()));
        }

        let skus = str_list(&doc, "skus")?;
        if skus.is_empty() {
            return Err(ToolError::Config("'skus' list is empty".into()));
        }

        let ppr = match doc.get("ppr") {
            None => 100,
            Some(v) => {
                let p = v
                    .as_int()
                    .filter(|p| (1..=100).contains(p))
                    .ok_or_else(|| ToolError::Config("'ppr' must be 1..=100".into()))?;
                p as u32
            }
        };

        let tags = match doc.get("tags") {
            None => Vec::new(),
            Some(Value::Map(m)) => m
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_plain_string()))
                .collect(),
            Some(other) => {
                return Err(ToolError::Config(format!(
                    "'tags' must be a mapping, got {other:?}"
                )))
            }
        };

        let appinputs = match doc.get("appinputs") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Map(m)) => m
                .iter()
                .map(|(k, v)| {
                    let values = match v {
                        // Duplicate YAML keys coalesce to a Seq — the sweep.
                        Value::Seq(items) => items.iter().map(|i| i.to_plain_string()).collect(),
                        scalar => vec![scalar.to_plain_string()],
                    };
                    (k.to_string(), values)
                })
                .collect(),
            Some(Value::Seq(entries)) => {
                // Alternative form: a list of single-key maps.
                let mut out: Vec<(String, Vec<String>)> = Vec::new();
                for e in entries {
                    let m = e.as_map().ok_or_else(|| {
                        ToolError::Config("'appinputs' list entries must be mappings".into())
                    })?;
                    for (k, v) in m.iter() {
                        match out.iter_mut().find(|(name, _)| name == k) {
                            Some((_, vals)) => vals.push(v.to_plain_string()),
                            None => out.push((k.to_string(), vec![v.to_plain_string()])),
                        }
                    }
                }
                out
            }
            Some(other) => {
                return Err(ToolError::Config(format!(
                    "'appinputs' must be a mapping, got {other:?}"
                )))
            }
        };

        let get_opt_str = |key: &str| -> Option<String> {
            doc.get(key).and_then(|v| v.as_str()).map(|s| s.to_string())
        };
        let get_bool =
            |key: &str| -> bool { doc.get(key).and_then(|v| v.as_bool()).unwrap_or(false) };

        Ok(UserConfig {
            subscription: req_str(&doc, "subscription")?,
            skus,
            rgprefix: req_str(&doc, "rgprefix")?,
            appsetupurl: req_str(&doc, "appsetupurl")?,
            nnodes,
            appname: req_str(&doc, "appname")?,
            tags,
            region: req_str(&doc, "region")?,
            regions: match doc.get("regions") {
                None | Some(Value::Null) => Vec::new(),
                Some(_) => str_list(&doc, "regions")?,
            },
            createjumpbox: get_bool("createjumpbox"),
            ppr,
            appinputs,
            vpnrg: get_opt_str("vpnrg"),
            vpnvnet: get_opt_str("vpnvnet"),
            peervpn: get_bool("peervpn"),
        })
    }

    /// Serializes back to a Listing-1-style YAML document that
    /// [`UserConfig::from_yaml`] parses to an equal value. The service
    /// journal uses this to persist admitted-but-unfinished requests so a
    /// restarted daemon can replay them; sweeps use the `appinputs`
    /// list-of-single-key-maps form so multi-value parameters survive.
    pub fn to_yaml(&self) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: &str| {
            out.push_str(k);
            out.push_str(": ");
            out.push_str(&yaml_scalar(v));
            out.push('\n');
        };
        kv("subscription", &self.subscription);
        kv("rgprefix", &self.rgprefix);
        kv("appsetupurl", &self.appsetupurl);
        kv("appname", &self.appname);
        kv("region", &self.region);
        if !self.regions.is_empty() {
            out.push_str("regions:\n");
            for r in &self.regions {
                out.push_str(&format!("- {}\n", yaml_scalar(r)));
            }
        }
        out.push_str(&format!("ppr: {}\n", self.ppr));
        if self.createjumpbox {
            out.push_str("createjumpbox: true\n");
        }
        if self.peervpn {
            out.push_str("peervpn: true\n");
        }
        if let Some(rg) = &self.vpnrg {
            out.push_str(&format!("vpnrg: {}\n", yaml_scalar(rg)));
        }
        if let Some(vnet) = &self.vpnvnet {
            out.push_str(&format!("vpnvnet: {}\n", yaml_scalar(vnet)));
        }
        out.push_str("skus:\n");
        for sku in &self.skus {
            out.push_str(&format!("- {}\n", yaml_scalar(sku)));
        }
        let nodes: Vec<String> = self.nnodes.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!("nnodes: [{}]\n", nodes.join(", ")));
        if !self.tags.is_empty() {
            out.push_str("tags:\n");
            for (k, v) in &self.tags {
                out.push_str(&format!("  {}: {}\n", yaml_scalar(k), yaml_scalar(v)));
            }
        }
        if !self.appinputs.is_empty() {
            out.push_str("appinputs:\n");
            for (k, values) in &self.appinputs {
                for v in values {
                    out.push_str(&format!("- {}: {}\n", yaml_scalar(k), yaml_scalar(v)));
                }
            }
        }
        out
    }

    /// Total number of scenarios this configuration expands to. With a
    /// multi-region `regions` list this is an upper bound: generation drops
    /// (SKU, region) pairs where the region does not offer the SKU's family.
    pub fn scenario_count(&self) -> usize {
        let input_combos: usize = self
            .appinputs
            .iter()
            .map(|(_, vs)| vs.len().max(1))
            .product();
        self.skus.len() * self.nnodes.len() * input_combos.max(1) * self.regions.len().max(1)
    }

    /// The paper's OpenFOAM Listing 1 configuration (3 SKUs × 6 node counts
    /// × 2 meshes = 36 scenarios).
    pub fn example_openfoam() -> Self {
        UserConfig::from_yaml(
            r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v2
- Standard_HB120rs_v3
rgprefix: hpcadvisortest1
appsetupurl: https://example.com/scripts/openfoam.sh
nnodes: [1, 2, 3, 4, 8, 16]
appname: openfoam
tags:
  version: v1
region: southcentralus
createjumpbox: true
ppr: 100
appinputs:
  mesh: "80 24 24"
  mesh: "60 16 16"
"#,
        )
        .expect("bundled example config parses")
    }

    /// The paper's Listing 3 experiment: OpenFOAM motorBike at
    /// BLOCKMESH_DIMENSIONS "40 16 16" (~8 M cells).
    pub fn example_openfoam_motorbike() -> Self {
        let mut c = Self::example_openfoam();
        c.appinputs = vec![("mesh".into(), vec!["40 16 16".into()])];
        c.nnodes = vec![1, 2, 3, 4, 8, 16];
        c
    }

    /// The paper's Listing 4 / Figures 2–5 experiment: LAMMPS LJ with the
    /// box multiplied ×30 (≈ 864 M atoms) on three InfiniBand SKUs up to
    /// 1,920 cores.
    pub fn example_lammps() -> Self {
        UserConfig::from_yaml(
            r#"
subscription: mysubscription
skus:
- Standard_HC44rs
- Standard_HB120rs_v2
- Standard_HB120rs_v3
rgprefix: hpcadvisorlammps
appsetupurl: https://example.com/scripts/lammps.sh
nnodes: [1, 2, 3, 4, 8, 16]
appname: lammps
tags:
  version: v1
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: "30"
"#,
        )
        .expect("bundled example config parses")
    }

    /// A small LAMMPS sweep for doctests and quick starts (1 SKU × 3 node
    /// counts × 1 input = 3 scenarios).
    pub fn example_lammps_small() -> Self {
        let mut c = Self::example_lammps();
        c.skus = vec!["Standard_HB120rs_v3".into()];
        c.nnodes = vec![1, 2, 4];
        c.appinputs = vec![("BOXFACTOR".into(), vec!["8".into()])];
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_yaml_round_trips_every_bundled_example() {
        for config in [
            UserConfig::example_openfoam(),
            UserConfig::example_openfoam_motorbike(),
            UserConfig::example_lammps(),
            UserConfig::example_lammps_small(),
        ] {
            let back = UserConfig::from_yaml(&config.to_yaml()).expect("emitted YAML parses");
            assert_eq!(back, config, "round-trip changed the config");
        }
    }

    #[test]
    fn to_yaml_quotes_hostile_scalars() {
        let mut config = UserConfig::example_lammps_small();
        config.tags = vec![
            ("plain".into(), "value".into()),
            ("numberish".into(), "42".into()),
            ("boolish".into(), "true".into()),
            ("commenty".into(), "a # b".into()),
            ("colony".into(), "a: b".into()),
            ("bracket".into(), "[1, 2]".into()),
            ("spacey".into(), "  padded  ".into()),
        ];
        config.appinputs = vec![("mesh".into(), vec!["80 24 24".into(), "60 16 16".into()])];
        let back = UserConfig::from_yaml(&config.to_yaml()).expect("quoted YAML parses");
        assert_eq!(back, config);
    }

    #[test]
    fn parses_listing1_fields() {
        let c = UserConfig::example_openfoam();
        assert_eq!(c.subscription, "mysubscription");
        assert_eq!(c.skus.len(), 3);
        assert_eq!(c.nnodes, vec![1, 2, 3, 4, 8, 16]);
        assert_eq!(c.appname, "openfoam");
        assert_eq!(c.region, "southcentralus");
        assert!(c.createjumpbox);
        assert_eq!(c.ppr, 100);
        assert_eq!(c.tags, vec![("version".to_string(), "v1".to_string())]);
        // The duplicated `mesh:` keys become a 2-value sweep.
        assert_eq!(
            c.appinputs,
            vec![(
                "mesh".to_string(),
                vec!["80 24 24".to_string(), "60 16 16".to_string()]
            )]
        );
        // 3 SKUs × 6 node counts × 2 meshes (the paper's 3x6x2).
        assert_eq!(c.scenario_count(), 36);
    }

    #[test]
    fn missing_fields_error() {
        assert!(UserConfig::from_yaml("subscription: s\n").is_err());
        let err = UserConfig::from_yaml("appname: x\nnnodes: [1]\nskus:\n- A\n").unwrap_err();
        assert!(err.to_string().contains("missing required field"));
    }

    #[test]
    fn invalid_values_error() {
        let base = |extra: &str| {
            format!(
                "subscription: s\nrgprefix: r\nappsetupurl: u\nappname: a\nregion: southcentralus\nskus:\n- A\n{extra}"
            )
        };
        assert!(UserConfig::from_yaml(&base("nnodes: [0]\n")).is_err());
        assert!(UserConfig::from_yaml(&base("nnodes: [1]\nppr: 150\n")).is_err());
        assert!(UserConfig::from_yaml(&base("nnodes: []\n")).is_err());
        assert!(UserConfig::from_yaml(&base("nnodes: [1]\n")).is_ok());
    }

    #[test]
    fn defaults() {
        let c = UserConfig::from_yaml(
            "subscription: s\nrgprefix: r\nappsetupurl: u\nappname: a\nregion: eastus\nskus:\n- A\nnnodes: [1]\n",
        )
        .unwrap();
        assert_eq!(c.ppr, 100);
        assert!(!c.createjumpbox);
        assert!(!c.peervpn);
        assert!(c.appinputs.is_empty());
        assert!(c.tags.is_empty());
        assert_eq!(c.scenario_count(), 1);
    }

    #[test]
    fn appinputs_list_form() {
        let c = UserConfig::from_yaml(
            "subscription: s\nrgprefix: r\nappsetupurl: u\nappname: a\nregion: eastus\nskus:\n- A\nnnodes: [1]\nappinputs:\n- mesh: \"a\"\n- mesh: \"b\"\n- steps: 100\n",
        )
        .unwrap();
        assert_eq!(
            c.appinputs,
            vec![
                ("mesh".to_string(), vec!["a".to_string(), "b".to_string()]),
                ("steps".to_string(), vec!["100".to_string()])
            ]
        );
        assert_eq!(c.scenario_count(), 2);
    }

    #[test]
    fn regions_list_round_trips_and_defaults_empty() {
        let c = UserConfig::from_yaml(
            "subscription: s\nrgprefix: r\nappsetupurl: u\nappname: a\nregion: southcentralus\nskus:\n- A\nnnodes: [1]\n",
        )
        .unwrap();
        assert!(c.regions.is_empty(), "no 'regions' key means single-region");
        let mut c = UserConfig::example_lammps_small();
        c.regions = vec!["southcentralus".into(), "westeurope".into()];
        let back = UserConfig::from_yaml(&c.to_yaml()).unwrap();
        assert_eq!(back, c);
        assert_eq!(c.scenario_count(), 6, "two regions double the 3-point grid");
    }

    #[test]
    fn vpn_options() {
        let c = UserConfig::from_yaml(
            "subscription: s\nrgprefix: r\nappsetupurl: u\nappname: a\nregion: eastus\nskus:\n- A\nnnodes: [1]\nvpnrg: corp-vpn\nvpnvnet: corp-vnet\npeervpn: true\n",
        )
        .unwrap();
        assert_eq!(c.vpnrg.as_deref(), Some("corp-vpn"));
        assert_eq!(c.vpnvnet.as_deref(), Some("corp-vnet"));
        assert!(c.peervpn);
    }
}

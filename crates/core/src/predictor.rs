//! Advice from historical data — the paper's opening vision:
//!
//! > "With a substantial database of historical executions and an
//! > application with a reduced set of input parameters that influence
//! > resource selection, it may be possible to generate this list of
//! > resource options **without the need for additional testing or
//! > execution**."
//!
//! [`HistoryPredictor`] learns a log-space multi-linear model of execution
//! time from previously collected data points and predicts unmeasured
//! configurations; [`advise_from_history`] turns a configuration grid plus
//! a historical dataset into a *predicted* Pareto front with **zero** cloud
//! executions. This is the "simple regression analysis" route the paper's
//! §III-F sketches (its references \[2], \[8], \[14] use heavier ML on the
//! same features: application inputs + instance characteristics).
//!
//! Model, per application:
//!
//! ```text
//! ln T = β₀ + β₁·ln(ranks) + β₂·ln(gflops/core) + β₃·ln(mem_bw)
//!        + Σₖ βₖ·ln(inputₖ)            (numeric appinputs, by key)
//! ```
//!
//! which captures power-law scaling in ranks, hardware speed and problem
//! size — exact for the workloads whose cost is a product of powers of
//! those quantities, and a good local approximation elsewhere.

use crate::advice::{Advice, AdviceRow, AdviceSort};
use crate::config::UserConfig;
use crate::dataset::{DataFilter, Dataset};
use crate::error::ToolError;
use crate::pairs::Pairs;
use crate::pareto::pareto_front;
use crate::regress::{multilinear_eval, multilinear_fit_ridge};
use crate::scenario::{generate_scenarios, Scenario};
use cloudsim::SkuCatalog;

/// A trained execution-time model for one application.
#[derive(Debug, Clone)]
pub struct HistoryPredictor {
    /// Input keys used as features, in feature order.
    input_keys: Vec<String>,
    /// Coefficients `[β₀, ranks, gflops, mem_bw, inputs…]`.
    beta: Vec<f64>,
    /// Training-set mean absolute relative error (in-sample).
    pub training_error: f64,
    /// Number of training rows.
    pub training_rows: usize,
}

/// Extracts numeric appinputs usable as features. Non-numeric inputs (like
/// OpenFOAM's `"40 16 16"` mesh string) contribute the product of their
/// numeric tokens — a reasonable magnitude proxy (cells ∝ x·y·z).
fn numeric_input(value: &str) -> Option<f64> {
    let tokens: Vec<f64> = value
        .split_whitespace()
        .filter_map(|t| t.parse::<f64>().ok())
        .collect();
    if tokens.is_empty() || tokens.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some(tokens.iter().product())
}

fn features_for<'a>(
    input_keys: &[String],
    catalog: &SkuCatalog,
    sku: &str,
    nnodes: u32,
    ppn: u32,
    appinputs: impl Iterator<Item = (&'a str, &'a str)> + Clone,
) -> Option<Vec<f64>> {
    let sku = catalog.get(sku)?;
    let ranks = nnodes as f64 * ppn as f64;
    let mut features = vec![ranks.ln(), sku.gflops_per_core.ln(), sku.mem_bw_gbs.ln()];
    for key in input_keys {
        let value = appinputs
            .clone()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .and_then(|(_, v)| numeric_input(v))?;
        features.push(value.ln());
    }
    Some(features)
}

impl HistoryPredictor {
    /// Trains a predictor for `appname` from the completed rows of a
    /// historical dataset. Needs at least `features + 2` usable rows.
    pub fn train(history: &Dataset, appname: &str) -> Result<HistoryPredictor, ToolError> {
        let catalog = SkuCatalog::azure_hpc();
        let filter = DataFilter {
            appname: Some(appname.to_string()),
            ..DataFilter::all()
        };
        let rows_src = history.filter(&filter);
        if rows_src.is_empty() {
            return Err(ToolError::NoData(format!(
                "no completed history for application '{appname}'"
            )));
        }
        // Feature keys: every appinput key with numeric values everywhere.
        let mut input_keys: Vec<String> = Vec::new();
        for p in &rows_src {
            for (k, v) in &p.appinputs {
                if numeric_input(v).is_some() && !input_keys.iter().any(|x| x == k) {
                    input_keys.push(k.to_string());
                }
            }
        }
        // Keys must be present in every row to be usable.
        input_keys.retain(|k| {
            rows_src.iter().all(|p| {
                p.appinputs
                    .iter()
                    .any(|(pk, pv)| pk.eq_ignore_ascii_case(k) && numeric_input(pv).is_some())
            })
        });

        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for p in &rows_src {
            if p.exec_time_secs <= 0.0 {
                continue;
            }
            if let Some(f) = features_for(
                &input_keys,
                &catalog,
                &p.sku,
                p.nnodes,
                p.ppn,
                p.appinputs.iter(),
            ) {
                rows.push((f, p.exec_time_secs.ln()));
            }
        }
        // A whisper of ridge keeps two-SKU histories (collinear hardware
        // features) solvable.
        let beta = multilinear_fit_ridge(&rows, 1e-6).ok_or_else(|| {
            ToolError::NoData(format!(
                "history for '{appname}' is too small or degenerate to fit ({} usable rows, {} features)",
                rows.len(),
                3 + input_keys.len()
            ))
        })?;
        let mut err_sum = 0.0;
        for (f, ln_t) in &rows {
            let predicted = multilinear_eval(&beta, f).exp();
            let actual = ln_t.exp();
            err_sum += (predicted - actual).abs() / actual;
        }
        Ok(HistoryPredictor {
            input_keys,
            training_error: err_sum / rows.len() as f64,
            training_rows: rows.len(),
            beta,
        })
    }

    /// Predicts execution time (seconds) for a configuration. `None` when
    /// the SKU is unknown or a required input is missing/non-numeric.
    pub(crate) fn predict(
        &self,
        sku: &str,
        nnodes: u32,
        ppn: u32,
        appinputs: &[(String, String)],
    ) -> Option<f64> {
        let catalog = SkuCatalog::azure_hpc();
        let inputs = appinputs.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let f = features_for(&self.input_keys, &catalog, sku, nnodes, ppn, inputs)?;
        Some(multilinear_eval(&self.beta, &f).exp())
    }
}

/// A scenario with its predicted execution time (s) and cost ($).
pub(crate) type ScenarioPrediction = (Scenario, f64, f64);

/// Predicted advice for a configuration grid using only historical data —
/// zero cloud executions. Returns the predicted Pareto front and the
/// per-scenario predictions it was computed from.
pub fn advise_from_history(
    config: &UserConfig,
    history: &Dataset,
) -> Result<(Advice, Vec<ScenarioPrediction>), ToolError> {
    let predictor = HistoryPredictor::train(history, &config.appname)?;
    let catalog = SkuCatalog::azure_hpc();
    let scenarios = generate_scenarios(config, &catalog)?;
    let mut predictions: Vec<(Scenario, f64, f64)> = Vec::new();
    for s in scenarios {
        let Some(time) = predictor.predict(&s.sku, s.nnodes, s.ppn, &s.appinputs) else {
            continue;
        };
        let Some(sku) = catalog.get(&s.sku) else {
            continue;
        };
        let cost = sku.price_per_hour * s.nnodes as f64 * time / 3600.0;
        predictions.push((s, time, cost));
    }
    if predictions.is_empty() {
        return Err(ToolError::NoData(
            "no scenario of the grid is predictable from this history".into(),
        ));
    }
    let objectives: Vec<(f64, f64)> = predictions.iter().map(|(_, t, c)| (*c, *t)).collect();
    let front = pareto_front(&objectives);
    let mut rows: Vec<AdviceRow> = front
        .into_iter()
        .map(|i| {
            let (s, t, c) = &predictions[i];
            AdviceRow {
                exec_time_secs: *t,
                cost_dollars: *c,
                nodes: s.nnodes,
                ppn: s.ppn,
                sku: s.sku.to_ascii_lowercase().replace("standard_", ""),
                appinputs: Pairs::from(s.appinputs.as_slice()),
                region: s.region.clone(),
            }
        })
        .collect();
    rows.sort_by(|a, b| a.exec_time_secs.total_cmp(&b.exec_time_secs));
    Ok((
        Advice {
            rows,
            sort: AdviceSort::ByTime,
            skipped_scenarios: 0,
            capacity_comparison: None,
            placement_comparison: None,
        },
        predictions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::front_regret;
    use crate::session::Session;

    /// History: LAMMPS boxes 12/16/20 at 2/4/8 nodes on two SKUs.
    fn history() -> Dataset {
        let mut c = UserConfig::example_lammps();
        c.skus = vec!["Standard_HB120rs_v3".into(), "Standard_HC44rs".into()];
        c.nnodes = vec![2, 4, 8];
        c.appinputs = vec![(
            "BOXFACTOR".into(),
            vec!["12".into(), "16".into(), "20".into()],
        )];
        let mut session = Session::create(c, 7).unwrap();
        session.collect().unwrap()
    }

    #[test]
    fn trains_and_fits_history_well() {
        let predictor = HistoryPredictor::train(&history(), "lammps").unwrap();
        assert_eq!(predictor.training_rows, 18);
        assert!(
            predictor.training_error < 0.10,
            "in-sample error {:.1}%",
            predictor.training_error * 100.0
        );
    }

    #[test]
    fn predicts_unseen_configuration() {
        // Ground truth for box 24 at 16 nodes (never in the history).
        let mut c = UserConfig::example_lammps();
        c.skus = vec!["Standard_HB120rs_v3".into()];
        c.nnodes = vec![16];
        c.appinputs = vec![("BOXFACTOR".into(), vec!["24".into()])];
        let mut session = Session::create(c, 7).unwrap();
        let truth = session.collect().unwrap().points[0].exec_time_secs;

        let predictor = HistoryPredictor::train(&history(), "lammps").unwrap();
        let predicted = predictor
            .predict(
                "Standard_HB120rs_v3",
                16,
                120,
                &[("BOXFACTOR".to_string(), "24".to_string())],
            )
            .unwrap();
        let rel = (predicted - truth).abs() / truth;
        assert!(
            rel < 0.30,
            "extrapolated prediction {predicted:.1}s vs truth {truth:.1}s ({:.0}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn advice_without_executions_matches_measured_front() {
        // The headline: advise a new sweep (box 14, incl. unseen 16-node
        // counts) purely from history…
        let mut target = UserConfig::example_lammps();
        target.skus = vec!["Standard_HB120rs_v3".into(), "Standard_HC44rs".into()];
        target.nnodes = vec![2, 4, 8, 16];
        target.appinputs = vec![("BOXFACTOR".into(), vec!["14".into()])];
        let (predicted_advice, predictions) = advise_from_history(&target, &history()).unwrap();
        assert!(!predicted_advice.rows.is_empty());
        assert_eq!(predictions.len(), 8, "all scenarios predictable");

        // …and compare with actually running it.
        let mut session = Session::create(target, 7).unwrap();
        let measured = session.collect().unwrap();
        let measured_advice = Advice::from_dataset(&measured, &DataFilter::all());
        let regret = front_regret(&measured_advice, &predicted_advice);
        assert!(
            regret < 0.35,
            "zero-execution advice regret {:.0}%:\npredicted:\n{}\nmeasured:\n{}",
            regret * 100.0,
            predicted_advice.render_text(),
            measured_advice.render_text()
        );
    }

    #[test]
    fn errors_without_usable_history() {
        assert!(HistoryPredictor::train(&Dataset::new(), "lammps").is_err());
        // History from a different app doesn't train a lammps model.
        let mut other = Dataset::new();
        other.push(crate::dataset::point(
            1,
            "wrf",
            "Standard_HB120rs_v3",
            2,
            120,
            10.0,
            0.1,
        ));
        assert!(HistoryPredictor::train(&other, "lammps").is_err());
    }

    #[test]
    fn mesh_strings_become_magnitude_features() {
        assert_eq!(numeric_input("40 16 16"), Some(40.0 * 16.0 * 16.0));
        assert_eq!(numeric_input("30"), Some(30.0));
        assert_eq!(numeric_input("abc"), None);
        assert_eq!(numeric_input("0 16 16"), None);
    }
}

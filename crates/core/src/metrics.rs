//! Derived metrics: the series behind the paper's four plot families.

use crate::dataset::{DataFilter, DataPoint, Dataset};

/// A per-SKU series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct SkuSeries {
    /// Short SKU name (legend label).
    pub sku: String,
    /// Points sorted by x.
    pub points: Vec<(f64, f64)>,
}

/// Groups filter-matching points by SKU — and, when the filtered data spans
/// more than one appinput combination, by `(SKU, inputs)` so sweeps over
/// different problem sizes never merge into one zigzag series. Maps each
/// point through `f`.
fn series_by_sku<F>(ds: &Dataset, filter: &DataFilter, f: F) -> Vec<SkuSeries>
where
    F: Fn(&DataPoint) -> (f64, f64),
{
    let multi_input = ds.input_keys(filter).len() > 1;
    let mut out: Vec<SkuSeries> = Vec::new();
    for p in ds.filter(filter) {
        let (x, y) = f(p);
        if !x.is_finite() || !y.is_finite() {
            continue;
        }
        let label = if multi_input {
            format!("{} [{}]", p.sku_short(), p.input_key())
        } else {
            p.sku_short()
        };
        match out.iter_mut().find(|s| s.sku == label) {
            Some(s) => s.points.push((x, y)),
            None => out.push(SkuSeries {
                sku: label,
                points: vec![(x, y)],
            }),
        }
    }
    for s in &mut out {
        s.points.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

/// Plot 1 — Execution Time vs. Number of Nodes (paper Fig. 2).
pub fn time_vs_nodes(ds: &Dataset, filter: &DataFilter) -> Vec<SkuSeries> {
    series_by_sku(ds, filter, |p| (p.nnodes as f64, p.exec_time_secs))
}

/// Plot 2 — Execution Time vs. Cost (paper Fig. 3).
pub fn time_vs_cost(ds: &Dataset, filter: &DataFilter) -> Vec<SkuSeries> {
    series_by_sku(ds, filter, |p| (p.cost_dollars, p.exec_time_secs))
}

/// Plot 3 — Speed-up vs. Number of Nodes (paper Fig. 4): how much faster
/// the multi-node execution is compared to the single-node one (or, when no
/// 1-node run exists, the smallest node count measured for that SKU).
pub fn speedup(ds: &Dataset, filter: &DataFilter) -> Vec<SkuSeries> {
    let time_series = time_vs_nodes(ds, filter);
    time_series
        .into_iter()
        .filter_map(|s| {
            // Average duplicates per node count first.
            let mut averaged: Vec<(f64, f64)> = Vec::new();
            for (x, y) in &s.points {
                match averaged.iter_mut().find(|(ax, _)| ax == x) {
                    Some((_, ay)) => *ay = (*ay + *y) / 2.0,
                    None => averaged.push((*x, *y)),
                }
            }
            // speedup(n) = T(base)/T(n) · base_nodes: with a 1-node baseline
            // this is exactly T(1)/T(n); with a larger smallest measurement
            // the baseline is assumed linear up to base_nodes, so the
            // baseline point sits at speedup = base_nodes.
            let (base_nodes, base_time) = *averaged.first()?;
            let points = averaged
                .iter()
                .map(|(n, t)| (*n, base_time / t * base_nodes))
                .collect();
            Some(SkuSeries { sku: s.sku, points })
        })
        .collect()
}

/// Plot 4 — Efficiency vs. Number of Nodes (paper Fig. 5): speed-up divided
/// by the node-count ratio. Values above 1 are superlinear (the paper
/// explicitly observes such a region).
pub fn efficiency(ds: &Dataset, filter: &DataFilter) -> Vec<SkuSeries> {
    speedup(ds, filter)
        .into_iter()
        .map(|s| SkuSeries {
            points: s.points.iter().map(|(n, su)| (*n, su / n)).collect(),
            sku: s.sku,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::point;
    use crate::pairs::Pairs;

    /// A dataset shaped like the paper's Listing 4 LAMMPS table.
    fn listing4_dataset() -> Dataset {
        let mut ds = Dataset::new();
        for (n, t, c) in [
            (3u32, 173.0, 0.519),
            (4, 132.0, 0.528),
            (8, 69.0, 0.552),
            (16, 36.0, 0.576),
        ] {
            ds.push(point(n, "lammps", "Standard_HB120rs_v3", n, 120, t, c));
        }
        for (n, t, c) in [
            (3u32, 260.0, 0.68),
            (4, 200.0, 0.70),
            (8, 105.0, 0.74),
            (16, 55.0, 0.77),
        ] {
            ds.push(point(100 + n, "lammps", "Standard_HC44rs", n, 44, t, c));
        }
        ds
    }

    #[test]
    fn time_vs_nodes_series() {
        let ds = listing4_dataset();
        let series = time_vs_nodes(&ds, &DataFilter::all());
        assert_eq!(series.len(), 2);
        let v3 = series.iter().find(|s| s.sku == "hb120rs_v3").unwrap();
        assert_eq!(
            v3.points,
            vec![(3.0, 173.0), (4.0, 132.0), (8.0, 69.0), (16.0, 36.0)]
        );
    }

    #[test]
    fn time_vs_cost_series() {
        let ds = listing4_dataset();
        let series = time_vs_cost(&ds, &DataFilter::all());
        let v3 = series.iter().find(|s| s.sku == "hb120rs_v3").unwrap();
        assert!((v3.points[0].0 - 0.519).abs() < 1e-9);
        assert!((v3.points[0].1 - 173.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_uses_smallest_node_count_as_baseline() {
        let ds = listing4_dataset();
        let series = speedup(&ds, &DataFilter::all());
        let v3 = series.iter().find(|s| s.sku == "hb120rs_v3").unwrap();
        // Baseline is 3 nodes: speedup(3) = 3 (plotted against the 1-node
        // ideal), speedup(16) = 3 × 173/36 ≈ 14.4.
        assert!((v3.points[0].1 - 3.0).abs() < 1e-9);
        let s16 = v3.points.last().unwrap().1;
        assert!((s16 - 3.0 * 173.0 / 36.0).abs() < 1e-9, "s16 {s16}");
    }

    #[test]
    fn efficiency_is_speedup_over_nodes() {
        let ds = listing4_dataset();
        let series = efficiency(&ds, &DataFilter::all());
        let v3 = series.iter().find(|s| s.sku == "hb120rs_v3").unwrap();
        assert!(
            (v3.points[0].1 - 1.0).abs() < 1e-9,
            "baseline efficiency is 1"
        );
        let e16 = v3.points.last().unwrap().1;
        assert!((e16 - (3.0 * 173.0 / 36.0) / 16.0).abs() < 1e-9);
        assert!(e16 < 1.0, "sublinear here");
    }

    #[test]
    fn superlinear_efficiency_detectable() {
        // T(1)=100, T(2)=40 ⇒ speedup 2.5, efficiency 1.25.
        let mut ds = Dataset::new();
        ds.push(point(1, "app", "S", 1, 8, 100.0, 1.0));
        ds.push(point(2, "app", "S", 2, 8, 40.0, 0.8));
        let eff = efficiency(&ds, &DataFilter::all());
        assert!((eff[0].points[1].1 - 1.25).abs() < 1e-9);
    }

    #[test]
    fn multi_input_sweeps_get_separate_series() {
        let mut ds = Dataset::new();
        for (id, n, t, input) in [
            (1u32, 2u32, 100.0, "16"),
            (2, 4, 55.0, "16"),
            (3, 2, 300.0, "24"),
            (4, 4, 160.0, "24"),
        ] {
            let mut p = point(id, "lammps", "Standard_HB120rs_v3", n, 120, t, 0.1);
            p.appinputs = Pairs::from([("BOXFACTOR", input)]);
            ds.push(p);
        }
        let series = time_vs_nodes(&ds, &DataFilter::all());
        assert_eq!(series.len(), 2, "one series per input combo: {series:?}");
        assert!(series.iter().any(|s| s.sku.contains("BOXFACTOR=16")));
        // Each series is monotone (no zigzag from merged sweeps).
        for s in &series {
            for w in s.points.windows(2) {
                assert!(w[1].1 < w[0].1, "{s:?}");
            }
        }
        // Filtering to one input drops the label decoration.
        let f = DataFilter::parse("BOXFACTOR=16").unwrap();
        let series = time_vs_nodes(&ds, &f);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].sku, "hb120rs_v3");
    }

    #[test]
    fn empty_filter_result() {
        let ds = listing4_dataset();
        let f = DataFilter {
            appname: Some("wrf".into()),
            ..DataFilter::all()
        };
        assert!(time_vs_nodes(&ds, &f).is_empty());
    }
}

//! Chart model shared by the SVG and ASCII backends.

/// How a series is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeriesKind {
    /// Connected line with point markers.
    Line,
    /// Markers only.
    Scatter,
    /// Line drawn in steps (used for the Pareto front).
    Step,
}

/// One data series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points; non-finite points are dropped at render time.
    pub points: Vec<(f64, f64)>,
    /// Drawing style.
    pub(crate) kind: SeriesKind,
}

impl Series {
    /// A line series.
    pub fn line(label: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.to_string(),
            points,
            kind: SeriesKind::Line,
        }
    }

    /// A scatter series.
    pub fn scatter(label: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.to_string(),
            points,
            kind: SeriesKind::Scatter,
        }
    }

    /// A step series.
    pub fn step(label: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.to_string(),
            points,
            kind: SeriesKind::Step,
        }
    }

    /// Points with non-finite coordinates removed, sorted by x.
    pub(crate) fn clean_points(&self) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        pts
    }
}

/// A chart: title, axes, series, optional horizontal reference line.
#[derive(Debug, Clone)]
pub struct Chart {
    /// Chart title.
    pub(crate) title: String,
    /// Optional subtitle (the tool lets users customize these).
    pub subtitle: Option<String>,
    /// X-axis label.
    pub(crate) xlabel: String,
    /// Y-axis label.
    pub(crate) ylabel: String,
    /// Data series.
    pub series: Vec<Series>,
    /// Horizontal reference value (e.g. efficiency = 1).
    pub href: Option<f64>,
    /// Force the y range to start at zero.
    pub(crate) y_from_zero: bool,
}

impl Chart {
    /// Creates an empty chart.
    pub fn new(title: &str, xlabel: &str, ylabel: &str) -> Self {
        Chart {
            title: title.to_string(),
            subtitle: None,
            xlabel: xlabel.to_string(),
            ylabel: ylabel.to_string(),
            series: Vec::new(),
            href: None,
            y_from_zero: true,
        }
    }

    /// Sets the subtitle.
    pub fn with_subtitle(mut self, subtitle: &str) -> Self {
        self.subtitle = Some(subtitle.to_string());
        self
    }

    /// Adds a series.
    pub fn add_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Adds a horizontal reference line.
    pub fn with_href(mut self, y: f64) -> Self {
        self.href = Some(y);
        self
    }

    /// Data bounds across all series (`(xmin, xmax, ymin, ymax)`).
    pub(crate) fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut xmin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for s in &self.series {
            for (x, y) in s.clean_points() {
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
        if let Some(h) = self.href {
            ymin = ymin.min(h);
            ymax = ymax.max(h);
        }
        if !xmin.is_finite() {
            (0.0, 1.0, 0.0, 1.0)
        } else {
            if self.y_from_zero {
                ymin = ymin.min(0.0);
            }
            // Degenerate ranges get a unit of padding.
            if xmin == xmax {
                xmax = xmin + 1.0;
            }
            if ymin == ymax {
                ymax = ymin + 1.0;
            }
            (xmin, xmax, ymin, ymax)
        }
    }

    /// Renders the chart as SVG text.
    pub fn to_svg(&self, width: u32, height: u32) -> String {
        crate::svg::render(self, width, height)
    }

    /// Renders the chart as ASCII art for terminals.
    pub fn to_ascii(&self, cols: usize, rows: usize) -> String {
        crate::ascii::render(self, cols, rows)
    }

    /// Exports the series as CSV (`series,x,y` rows with a header).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in s.clean_points() {
                // Labels are simple SKU names; quote defensively anyway.
                let label = if s.label.contains([',', '"', '\n']) {
                    format!("\"{}\"", s.label.replace('"', "\"\""))
                } else {
                    s.label.clone()
                };
                out.push_str(&format!("{label},{x},{y}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_and_padding() {
        let mut c = Chart::new("t", "x", "y");
        c.add_series(Series::line("a", vec![(1.0, 10.0), (4.0, 40.0)]));
        let (xmin, xmax, ymin, ymax) = c.bounds();
        assert_eq!((xmin, xmax), (1.0, 4.0));
        assert_eq!(ymin, 0.0, "y starts from zero by default");
        assert_eq!(ymax, 40.0);
    }

    #[test]
    fn empty_chart_has_unit_bounds() {
        let c = Chart::new("t", "x", "y");
        assert_eq!(c.bounds(), (0.0, 1.0, 0.0, 1.0));
    }

    #[test]
    fn non_finite_points_dropped() {
        let s = Series::line("a", vec![(1.0, f64::NAN), (2.0, 5.0), (f64::INFINITY, 1.0)]);
        assert_eq!(s.clean_points(), vec![(2.0, 5.0)]);
    }

    #[test]
    fn href_expands_bounds() {
        let mut c = Chart::new("t", "x", "y");
        c.add_series(Series::line("a", vec![(1.0, 0.5)]));
        let c = c.with_href(1.0);
        let (_, _, _, ymax) = c.bounds();
        assert!(ymax >= 1.0);
    }

    #[test]
    fn csv_export() {
        let mut c = Chart::new("t", "nodes", "secs");
        c.add_series(Series::line("hb120rs_v3", vec![(3.0, 173.0), (16.0, 36.0)]));
        let csv = c.to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert!(csv.contains("hb120rs_v3,3,173\n"));
    }
}

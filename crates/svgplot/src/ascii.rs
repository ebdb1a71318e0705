//! ASCII backend for terminal output.

use crate::axis::{format_tick, nice_ticks};
use crate::chart::Chart;

/// Marker characters per series.
const MARKERS: [char; 8] = ['o', '+', 'x', '*', '#', '@', '%', '&'];

/// Renders the chart as ASCII art (`cols` × `rows` plot area).
pub(crate) fn render(chart: &Chart, cols: usize, rows: usize) -> String {
    let cols = cols.max(20);
    let rows = rows.max(6);
    let (xmin, xmax, ymin, ymax) = chart.bounds();
    let xticks = nice_ticks(xmin, xmax, 5);
    let yticks = nice_ticks(ymin, ymax, 4);
    let (txmin, txmax) = (*xticks.first().unwrap(), *xticks.last().unwrap());
    let (tymin, tymax) = (*yticks.first().unwrap(), *yticks.last().unwrap());

    let mut grid = vec![vec![' '; cols]; rows];
    let to_col = |x: f64| (((x - txmin) / (txmax - txmin)) * (cols - 1) as f64).round() as i64;
    let to_row =
        |y: f64| ((1.0 - (y - tymin) / (tymax - tymin)) * (rows - 1) as f64).round() as i64;

    // Reference line first so data overdraws it.
    if let Some(href) = chart.href {
        let r = to_row(href);
        if (0..rows as i64).contains(&r) {
            for cell in &mut grid[r as usize] {
                *cell = '-';
            }
        }
    }

    for (i, series) in chart.series.iter().enumerate() {
        let marker = MARKERS[i % MARKERS.len()];
        let pts = series.clean_points();
        // Connect consecutive points with interpolated dots, then mark.
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let steps = 2 * cols;
            for s in 0..=steps {
                let t = s as f64 / steps as f64;
                let x = x0 + (x1 - x0) * t;
                let y = y0 + (y1 - y0) * t;
                let (r, c) = (to_row(y), to_col(x));
                if (0..rows as i64).contains(&r) && (0..cols as i64).contains(&c) {
                    let cell = &mut grid[r as usize][c as usize];
                    if *cell == ' ' || *cell == '-' {
                        *cell = '.';
                    }
                }
            }
        }
        for (x, y) in &pts {
            let (r, c) = (to_row(*y), to_col(*x));
            if (0..rows as i64).contains(&r) && (0..cols as i64).contains(&c) {
                grid[r as usize][c as usize] = marker;
            }
        }
    }

    let label_width = 10;
    let mut out = String::new();
    out.push_str(&format!("{}\n", chart.title));
    if let Some(sub) = &chart.subtitle {
        out.push_str(&format!("{sub}\n"));
    }
    for (r, row) in grid.iter().enumerate() {
        // Y labels at tick rows.
        let y_here = tymax - (tymax - tymin) * r as f64 / (rows - 1) as f64;
        let near_tick = yticks
            .iter()
            .find(|t| (to_row(**t) - r as i64).abs() == 0)
            .copied();
        let label = match near_tick {
            Some(t) => format_tick(t),
            None => {
                let _ = y_here;
                String::new()
            }
        };
        out.push_str(&format!("{label:>label_width$} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>label_width$} +{}\n", "", "-".repeat(cols)));
    // X tick labels.
    let mut xlabels = vec![' '; cols + 1];
    for &t in &xticks {
        let c = to_col(t);
        if (0..=cols as i64 - 1).contains(&c) {
            let s = format_tick(t);
            for (k, ch) in s.chars().enumerate() {
                let idx = c as usize + k;
                if idx < xlabels.len() {
                    xlabels[idx] = ch;
                }
            }
        }
    }
    out.push_str(&format!(
        "{:>label_width$}  {}\n",
        "",
        xlabels.iter().collect::<String>().trim_end()
    ));
    out.push_str(&format!("{:>label_width$}  {}\n", "", chart.xlabel));
    // Legend.
    for (i, s) in chart.series.iter().enumerate() {
        out.push_str(&format!(
            "{:>label_width$}  {} {}\n",
            "",
            MARKERS[i % MARKERS.len()],
            s.label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::chart::{Chart, Series};

    #[test]
    fn renders_and_contains_markers() {
        let mut c = Chart::new("Speedup", "nodes", "speedup");
        c.add_series(Series::line("v3", vec![(1.0, 1.0), (16.0, 12.0)]));
        c.add_series(Series::line("v2", vec![(1.0, 1.0), (16.0, 10.0)]));
        let text = c.to_ascii(60, 16);
        assert!(text.contains("Speedup"));
        assert!(text.contains('o'));
        assert!(text.contains('+'));
        assert!(text.contains("v3"));
        assert!(text.lines().count() > 16);
    }

    #[test]
    fn reference_line_drawn() {
        let mut chart = Chart::new("eff", "n", "e");
        chart.add_series(Series::line("s", vec![(1.0, 0.5), (4.0, 1.4)]));
        let chart = chart.with_href(1.0);
        let text = chart.to_ascii(40, 10);
        assert!(text.contains("----"));
    }

    #[test]
    fn empty_chart_does_not_panic() {
        let c = Chart::new("empty", "x", "y");
        let text = c.to_ascii(40, 10);
        assert!(text.contains("empty"));
    }
}

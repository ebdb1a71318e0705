//! SVG backend.

use crate::axis::{format_tick, nice_ticks};
use crate::chart::{Chart, SeriesKind};

/// Categorical palette (colour-blind-friendly, matplotlib-tab10-like).
pub(crate) const PALETTE: [&str; 8] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
];

const MARGIN_LEFT: f64 = 64.0;
const MARGIN_RIGHT: f64 = 16.0;
const MARGIN_TOP: f64 = 40.0;
const MARGIN_BOTTOM: f64 = 48.0;

pub(crate) fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a chart to SVG text.
pub(crate) fn render(chart: &Chart, width: u32, height: u32) -> String {
    let w = width as f64;
    let h = height as f64;
    let plot_w = (w - MARGIN_LEFT - MARGIN_RIGHT).max(10.0);
    let plot_h = (h - MARGIN_TOP - MARGIN_BOTTOM).max(10.0);
    let (xmin, xmax, ymin, ymax) = chart.bounds();
    let xticks = nice_ticks(xmin, xmax, 6);
    let yticks = nice_ticks(ymin, ymax, 6);
    let (txmin, txmax) = (*xticks.first().unwrap(), *xticks.last().unwrap());
    let (tymin, tymax) = (*yticks.first().unwrap(), *yticks.last().unwrap());
    let sx = move |x: f64| MARGIN_LEFT + (x - txmin) / (txmax - txmin) * plot_w;
    let sy = move |y: f64| MARGIN_TOP + plot_h - (y - tymin) / (tymax - tymin) * plot_h;

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" font-family=\"sans-serif\">\n"
    ));
    svg.push_str(&format!(
        "<rect width=\"{width}\" height=\"{height}\" fill=\"white\"/>\n"
    ));

    // Title and subtitle.
    svg.push_str(&format!(
        "<text x=\"{:.1}\" y=\"18\" text-anchor=\"middle\" font-size=\"14\" font-weight=\"bold\">{}</text>\n",
        w / 2.0,
        esc(&chart.title)
    ));
    if let Some(sub) = &chart.subtitle {
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"32\" text-anchor=\"middle\" font-size=\"11\" fill=\"#555\">{}</text>\n",
            w / 2.0,
            esc(sub)
        ));
    }

    // Grid + ticks.
    for &t in &yticks {
        let y = sy(t);
        svg.push_str(&format!(
            "<line x1=\"{MARGIN_LEFT:.1}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" stroke=\"#ddd\"/>\n",
            MARGIN_LEFT + plot_w
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" font-size=\"10\">{}</text>\n",
            MARGIN_LEFT - 6.0,
            y + 3.0,
            format_tick(t)
        ));
    }
    for &t in &xticks {
        let x = sx(t);
        svg.push_str(&format!(
            "<line x1=\"{x:.1}\" y1=\"{MARGIN_TOP:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#eee\"/>\n",
            MARGIN_TOP + plot_h
        ));
        svg.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"10\">{}</text>\n",
            MARGIN_TOP + plot_h + 16.0,
            format_tick(t)
        ));
    }

    // Axes.
    svg.push_str(&format!(
        "<line x1=\"{MARGIN_LEFT:.1}\" y1=\"{MARGIN_TOP:.1}\" x2=\"{MARGIN_LEFT:.1}\" y2=\"{:.1}\" stroke=\"black\"/>\n",
        MARGIN_TOP + plot_h
    ));
    svg.push_str(&format!(
        "<line x1=\"{MARGIN_LEFT:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"black\"/>\n",
        MARGIN_TOP + plot_h,
        MARGIN_LEFT + plot_w,
        MARGIN_TOP + plot_h
    ));

    // Axis labels.
    svg.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"12\">{}</text>\n",
        MARGIN_LEFT + plot_w / 2.0,
        h - 10.0,
        esc(&chart.xlabel)
    ));
    svg.push_str(&format!(
        "<text x=\"14\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"12\" \
         transform=\"rotate(-90 14 {:.1})\">{}</text>\n",
        MARGIN_TOP + plot_h / 2.0,
        MARGIN_TOP + plot_h / 2.0,
        esc(&chart.ylabel)
    ));

    // Reference line.
    if let Some(href) = chart.href {
        let y = sy(href);
        svg.push_str(&format!(
            "<line x1=\"{MARGIN_LEFT:.1}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" \
             stroke=\"#999\" stroke-dasharray=\"5,4\"/>\n",
            MARGIN_LEFT + plot_w
        ));
    }

    // Series.
    for (i, s) in chart.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let pts = s.clean_points();
        if pts.is_empty() {
            continue;
        }
        match s.kind {
            SeriesKind::Line => {
                let path: Vec<String> = pts
                    .iter()
                    .map(|(x, y)| format!("{:.1},{:.1}", sx(*x), sy(*y)))
                    .collect();
                svg.push_str(&format!(
                    "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\" points=\"{}\"/>\n",
                    path.join(" ")
                ));
            }
            SeriesKind::Step => {
                let mut d = String::new();
                for (j, (x, y)) in pts.iter().enumerate() {
                    if j == 0 {
                        d.push_str(&format!("M {:.1} {:.1}", sx(*x), sy(*y)));
                    } else {
                        let (px, _) = pts[j - 1];
                        let _ = px;
                        d.push_str(&format!(" H {:.1} V {:.1}", sx(*x), sy(*y)));
                    }
                }
                svg.push_str(&format!(
                    "<path fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\" d=\"{d}\"/>\n"
                ));
            }
            SeriesKind::Scatter => {}
        }
        for (x, y) in &pts {
            svg.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"/>\n",
                sx(*x),
                sy(*y)
            ));
        }
    }

    // Legend (top-right inside the plot area).
    let mut ly = MARGIN_TOP + 8.0;
    for (i, s) in chart.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let lx = MARGIN_LEFT + plot_w - 150.0;
        svg.push_str(&format!(
            "<rect x=\"{lx:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n",
            ly - 9.0
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{ly:.1}\" font-size=\"11\">{}</text>\n",
            lx + 14.0,
            esc(&s.label)
        ));
        ly += 16.0;
    }

    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use crate::chart::{Chart, Series};

    #[test]
    fn renders_basic_structure() {
        let mut c = Chart::new(
            "Execution Time vs Number of Nodes",
            "Number of nodes",
            "Seconds",
        );
        c.add_series(Series::line(
            "hb120rs_v3",
            vec![(3.0, 173.0), (4.0, 132.0), (8.0, 69.0), (16.0, 36.0)],
        ));
        let svg = c.to_svg(640, 480);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("Execution Time"));
        assert!(svg.contains("hb120rs_v3"));
        assert!(svg.contains("<polyline"));
        assert_eq!(svg.matches("<circle").count(), 4);
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut c = Chart::new("a<b & c", "x", "y");
        c.add_series(Series::scatter("s<1>", vec![(1.0, 1.0)]));
        let svg = c.to_svg(320, 240);
        assert!(svg.contains("a&lt;b &amp; c"));
        assert!(!svg.contains("s<1>"));
    }

    #[test]
    fn step_series_uses_path() {
        let mut c = Chart::new("pareto", "cost", "time");
        c.add_series(Series::step("front", vec![(0.18, 59.0), (0.54, 34.0)]));
        let svg = c.to_svg(320, 240);
        assert!(svg.contains("<path"));
    }

    #[test]
    fn reference_line_rendered() {
        let mut chart = Chart::new("eff", "nodes", "efficiency");
        chart.add_series(Series::line("s", vec![(1.0, 1.0), (8.0, 1.1)]));
        let chart = chart.with_href(1.0);
        let svg = chart.to_svg(320, 240);
        assert!(svg.contains("stroke-dasharray"));
    }
}

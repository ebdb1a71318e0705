//! Gantt-style timeline rendering (one row per lane, bars on a shared
//! seconds axis) — used by `hpcadvisor trace timeline` to draw a run
//! trace's per-pool boot/task/backoff spans.

use crate::axis::{format_tick, nice_ticks};
use crate::svg::{esc, PALETTE};

const MARGIN_LEFT: f64 = 120.0;
const MARGIN_RIGHT: f64 = 16.0;
const MARGIN_TOP: f64 = 52.0;
const MARGIN_BOTTOM: f64 = 48.0;
const ROW_H: f64 = 26.0;
const BAR_H: f64 = 16.0;

/// One bar (or, when `end <= start`, a zero-width instant marker) on a lane.
#[derive(Debug, Clone)]
pub struct GanttSpan {
    /// Start position in axis units (seconds).
    pub start: f64,
    /// End position; `end <= start` renders as a diamond marker instead of
    /// a bar.
    pub end: f64,
    /// Index into the chart's kind list (colour + legend entry).
    pub kind: usize,
    /// Tooltip text (`<title>` element on the bar).
    pub label: String,
}

/// One horizontal row of the chart.
#[derive(Debug, Clone)]
pub struct GanttLane {
    /// Row label, drawn left of the axis.
    pub label: String,
    /// Bars and markers on this row.
    pub spans: Vec<GanttSpan>,
}

/// A Gantt chart: named span kinds (the legend), lanes of spans, one shared
/// time axis starting at zero.
#[derive(Debug, Clone, Default)]
pub struct GanttChart {
    /// Chart title.
    pub(crate) title: String,
    /// Optional subtitle under the title.
    pub(crate) subtitle: Option<String>,
    /// Legend entries; a span's `kind` indexes this list (colours cycle
    /// through the shared palette).
    pub(crate) kinds: Vec<String>,
    /// Rows, drawn top to bottom.
    pub(crate) lanes: Vec<GanttLane>,
}

impl GanttChart {
    /// Creates an empty chart with a title.
    pub fn new(title: &str) -> Self {
        GanttChart {
            title: title.to_string(),
            ..GanttChart::default()
        }
    }

    /// Sets the subtitle.
    pub fn with_subtitle(mut self, subtitle: &str) -> Self {
        self.subtitle = Some(subtitle.to_string());
        self
    }

    /// Registers a span kind, returning its index (existing names are
    /// reused).
    pub fn kind(&mut self, name: &str) -> usize {
        if let Some(i) = self.kinds.iter().position(|k| k == name) {
            return i;
        }
        self.kinds.push(name.to_string());
        self.kinds.len() - 1
    }

    /// Appends a lane.
    pub fn add_lane(&mut self, lane: GanttLane) {
        self.lanes.push(lane);
    }

    /// The chart's natural pixel height for its lane count.
    pub(crate) fn natural_height(&self) -> u32 {
        (MARGIN_TOP + ROW_H * self.lanes.len().max(1) as f64 + MARGIN_BOTTOM) as u32
    }

    /// Renders to SVG text at the given width; height follows the lane
    /// count. Output is deterministic.
    pub fn to_svg(&self, width: u32) -> String {
        let w = width as f64;
        let height = self.natural_height();
        let h = height as f64;
        let plot_w = (w - MARGIN_LEFT - MARGIN_RIGHT).max(10.0);
        let plot_h = ROW_H * self.lanes.len().max(1) as f64;
        let xmax = self
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .map(|s| s.end.max(s.start))
            .fold(1.0f64, f64::max);
        let xticks = nice_ticks(0.0, xmax, 6);
        let txmax = *xticks.last().unwrap();
        let sx = move |x: f64| MARGIN_LEFT + x / txmax * plot_w;

        let mut svg = String::new();
        svg.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
             viewBox=\"0 0 {width} {height}\" font-family=\"sans-serif\">\n"
        ));
        svg.push_str(&format!(
            "<rect width=\"{width}\" height=\"{height}\" fill=\"white\"/>\n"
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"18\" text-anchor=\"middle\" font-size=\"14\" font-weight=\"bold\">{}</text>\n",
            w / 2.0,
            esc(&self.title)
        ));
        if let Some(sub) = &self.subtitle {
            svg.push_str(&format!(
                "<text x=\"{:.1}\" y=\"32\" text-anchor=\"middle\" font-size=\"11\" fill=\"#555\">{}</text>\n",
                w / 2.0,
                esc(sub)
            ));
        }

        // Legend: one horizontal row under the title.
        let mut lx = MARGIN_LEFT;
        for (i, name) in self.kinds.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            svg.push_str(&format!(
                "<rect x=\"{lx:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n",
                MARGIN_TOP - 16.0
            ));
            svg.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">{}</text>\n",
                lx + 14.0,
                MARGIN_TOP - 7.0,
                esc(name)
            ));
            lx += 14.0 + 7.0 * name.len() as f64 + 18.0;
        }

        // Ticks + grid.
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

        // Lanes: alternating background, label, spans.
        for (row, lane) in self.lanes.iter().enumerate() {
            let y0 = MARGIN_TOP + ROW_H * row as f64;
            if row % 2 == 1 {
                svg.push_str(&format!(
                    "<rect x=\"{MARGIN_LEFT:.1}\" y=\"{y0:.1}\" width=\"{plot_w:.1}\" height=\"{ROW_H:.1}\" fill=\"#f7f7f7\"/>\n"
                ));
            }
            svg.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" font-size=\"10\">{}</text>\n",
                MARGIN_LEFT - 6.0,
                y0 + ROW_H / 2.0 + 3.0,
                esc(&lane.label)
            ));
            let bar_y = y0 + (ROW_H - BAR_H) / 2.0;
            for span in &lane.spans {
                let color = PALETTE[span.kind % PALETTE.len()];
                let x0 = sx(span.start);
                if span.end > span.start {
                    let bw = (sx(span.end) - x0).max(1.0);
                    svg.push_str(&format!(
                        "<rect x=\"{x0:.1}\" y=\"{bar_y:.1}\" width=\"{bw:.1}\" height=\"{BAR_H:.1}\" \
                         fill=\"{color}\" fill-opacity=\"0.85\"><title>{}</title></rect>\n",
                        esc(&span.label)
                    ));
                } else {
                    // Instant event: a diamond marker.
                    let cy = y0 + ROW_H / 2.0;
                    svg.push_str(&format!(
                        "<path d=\"M {x0:.1} {:.1} L {:.1} {cy:.1} L {x0:.1} {:.1} L {:.1} {cy:.1} Z\" \
                         fill=\"{color}\"><title>{}</title></path>\n",
                        cy - 6.0,
                        x0 + 5.0,
                        cy + 6.0,
                        x0 - 5.0,
                        esc(&span.label)
                    ));
                }
            }
        }

        // Axis frame + label.
        svg.push_str(&format!(
            "<line x1=\"{MARGIN_LEFT:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"black\"/>\n",
            MARGIN_TOP + plot_h,
            MARGIN_LEFT + plot_w,
            MARGIN_TOP + plot_h
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"12\">Simulated seconds</text>\n",
            MARGIN_LEFT + plot_w / 2.0,
            h - 10.0
        ));

        svg.push_str("</svg>\n");
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GanttChart {
        let mut chart = GanttChart::new("run timeline").with_subtitle("36 scenarios");
        let boot = chart.kind("boot");
        let compute = chart.kind("compute");
        let evict = chart.kind("eviction");
        chart.add_lane(GanttLane {
            label: "shard0/pool-a".into(),
            spans: vec![
                GanttSpan {
                    start: 0.0,
                    end: 150.0,
                    kind: boot,
                    label: "boot 2 nodes".into(),
                },
                GanttSpan {
                    start: 150.0,
                    end: 400.0,
                    kind: compute,
                    label: "task x".into(),
                },
                GanttSpan {
                    start: 400.0,
                    end: 400.0,
                    kind: evict,
                    label: "evicted".into(),
                },
            ],
        });
        chart
    }

    #[test]
    fn renders_lanes_bars_and_markers() {
        let svg = sample().to_svg(800);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("shard0/pool-a"));
        assert!(svg.contains("run timeline"));
        // Two bars (boot, compute) with tooltips, one diamond marker.
        assert_eq!(svg.matches("<title>").count(), 3);
        assert!(svg.contains("<path d=\"M"), "instant marker rendered");
        assert!(svg.contains("Simulated seconds"));
    }

    #[test]
    fn kind_reuses_existing_names() {
        let mut chart = GanttChart::new("t");
        assert_eq!(chart.kind("a"), 0);
        assert_eq!(chart.kind("b"), 1);
        assert_eq!(chart.kind("a"), 0);
    }

    #[test]
    fn empty_chart_still_renders() {
        let svg = GanttChart::new("empty").to_svg(400);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }
}

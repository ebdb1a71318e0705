//! A small chart renderer for the tool's plots (paper Figures 2–6).
//!
//! HPCAdvisor generates four plot families (execution time vs. nodes,
//! execution time vs. cost, speed-up, efficiency) plus the Pareto-front
//! advice scatter. This crate renders them from scratch:
//!
//! * [`Chart`] → SVG text via [`Chart::to_svg`] — line/scatter/step series,
//!   nice-number axis ticks, legend, optional reference line (used for the
//!   "ideal speed-up" diagonal and the "efficiency = 1" rule);
//! * [`Chart::to_ascii`] — a terminal rendering for CLI use;
//! * CSV export of the underlying series via [`Chart::to_csv`].
//!
//! No external dependencies; output is deterministic.

mod ascii;
mod axis;
mod chart;
mod gantt;
mod svg;

pub use chart::{Chart, Series};
pub use gantt::{GanttChart, GanttLane, GanttSpan};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::axis::nice_ticks;
    use proptest::prelude::*;

    proptest! {
        /// Tick generation always covers the data range and is sorted.
        #[test]
        fn ticks_cover_range(lo in -1e6f64..1e6, span in 1e-3f64..1e6) {
            let hi = lo + span;
            let ticks = nice_ticks(lo, hi, 6);
            prop_assert!(ticks.len() >= 2);
            prop_assert!(ticks.first().unwrap() <= &lo);
            prop_assert!(ticks.last().unwrap() >= &hi);
            for w in ticks.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        /// SVG rendering never panics and always yields well-formed framing
        /// for arbitrary finite data.
        #[test]
        fn svg_total(points in proptest::collection::vec((0.0f64..1e5, 0.0f64..1e5), 1..40)) {
            let mut chart = Chart::new("t", "x", "y");
            chart.add_series(Series::line("s", points));
            let svg = chart.to_svg(640, 480);
            prop_assert!(svg.starts_with("<svg"));
            prop_assert!(svg.trim_end().ends_with("</svg>"));
        }
    }
}

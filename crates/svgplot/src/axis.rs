//! Axis tick generation ("nice numbers").

/// Returns sorted tick positions covering `[lo, hi]` using 1/2/5 × 10ᵏ
/// steps, aiming for roughly `target` ticks.
pub(crate) fn nice_ticks(lo: f64, hi: f64, target: usize) -> Vec<f64> {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let raw_step = span / target.max(2) as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    } * mag;
    let start = (lo / step).floor() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    // Guard against float drift producing infinite loops.
    for _ in 0..1000 {
        ticks.push(t);
        if t >= hi {
            break;
        }
        t += step;
    }
    ticks
}

/// Formats a tick label compactly (drops trailing zeros, SI-free).
pub(crate) fn format_tick(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let abs = v.abs();
    if !(1e-3..1e6).contains(&abs) {
        format!("{v:.1e}")
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else if abs >= 100.0 {
        format!("{v:.0}")
    } else if abs >= 1.0 {
        let s = format!("{v:.2}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        let s = format!("{v:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_for_simple_range() {
        let t = nice_ticks(0.0, 100.0, 5);
        assert!(t.contains(&0.0));
        assert!(*t.last().unwrap() >= 100.0);
        // Steps are 1/2/5 multiples.
        let step = t[1] - t[0];
        assert!((step - 20.0).abs() < 1e-9, "step {step}");
    }

    #[test]
    fn ticks_handle_reversed_and_tiny_ranges() {
        let t = nice_ticks(10.0, 0.0, 5);
        assert!(t.first().unwrap() <= &0.0);
        let t = nice_ticks(5.0, 5.0, 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(0.0), "0");
        assert_eq!(format_tick(16.0), "16");
        assert_eq!(format_tick(0.544), "0.544");
        assert_eq!(format_tick(1.5), "1.5");
        assert_eq!(format_tick(250.0), "250");
        assert!(format_tick(2.5e7).contains('e'));
    }
}

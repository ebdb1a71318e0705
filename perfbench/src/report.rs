//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` declares the same names and units; the smoke test
//! keeps the two in step.

use crate::stats::Summary;

/// End-to-end metrics: what a user of the advisor waits on. Printed by the
/// untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("time_to_advice_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). Counts come
/// from the program's own sim trace and repeat exactly; times come from
/// spans around the benchmark's calls and from the layer probes. A layer a
/// workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("taskshell.tasks", "count"),
    ("taskshell.parse_us", "us"),
    ("taskshell.task_us", "us"),
    ("taskshell.vfs_clone_us", "us"),
    ("taskshell.share", "ratio"),
    ("appmodel.run_us", "us"),
    ("appmodel.share", "ratio"),
    ("batchsim.task_us", "us"),
    ("batchsim.evictions", "count"),
    ("batchsim.share", "ratio"),
    ("cloudsim.provisions", "count"),
    ("cloudsim.pool_resizes", "count"),
    ("cloudsim.fault_rolls", "count"),
    ("cloudsim.faults_fired", "count"),
    ("cloudsim.call_us", "us"),
    ("cloudsim.share", "ratio"),
    ("collect.wall_s", "s"),
    ("collect.chunks", "count"),
    ("collect.busy_frac", "ratio"),
    ("collect.useful_ratio", "ratio"),
    ("collect.retries", "count"),
    ("collector.self_s", "s"),
    ("collector.share", "ratio"),
    ("placement.failovers", "count"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("journal.append_us", "us"),
    ("cache.open_ms", "ms"),
    ("cache.save_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.store_bytes", "B"),
    ("advice.ms", "ms"),
    ("session.build_ms", "ms"),
    ("formats.dataset_json_ms", "ms"),
    ("formats.dataset_json_bytes", "B"),
    ("wire.frames_per_job", "count"),
    ("wire.bytes_per_job", "B"),
    ("wire.decode_us", "us"),
    ("serve.first_frame_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.refusals", "count"),
    ("serve.job_p99_ms", "ms"),
    ("telemetry.events", "count"),
    ("telemetry.overhead_ratio", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// One measured value with its sample count and, for timings, quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
    pub quartiles: Option<(f64, f64)>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted in timed reps: scenarios for sweeps, requests
    /// for the daemon.
    pub attempted: u64,
    /// Attempted operations that did not succeed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed before the metrics (the traced run's
    /// breakdown).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a single value (a count, or a time measured once).
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        unit_of(name);
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            n,
            quartiles: None,
        });
    }

    /// Records the median of `samples`, with its quartiles; nothing when
    /// there are no samples.
    pub fn sample(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.set(name, s.median, s.n);
            if let Some(m) = self.metrics.last_mut() {
                m.quartiles = Some((s.q1, s.q3));
            }
        }
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Renders the run: notes, one `workload metric value unit (n=…)` line per
/// reported metric, mismatches, and the JSON result as the last line. The
/// reported set is [`END_TO_END`] untraced and [`PER_LAYER`] traced; a
/// missing or non-finite metric counts as a mismatch.
pub fn render(workload: &str, trace: bool, outcome: &mut Outcome) -> String {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = String::new();
    for note in &outcome.notes {
        out.push_str(note);
        out.push('\n');
    }
    let mut json_metrics = Vec::new();
    for (name, unit) in wanted {
        let Some(m) = outcome.metrics.iter().find(|m| m.name == *name).cloned() else {
            outcome
                .mismatches
                .push(format!("metric {name} was not measured"));
            continue;
        };
        if !m.value.is_finite() {
            outcome
                .mismatches
                .push(format!("metric {name} is not finite: {}", m.value));
            continue;
        }
        let spread = match m.quartiles {
            Some((q1, q3)) => format!(" q1={q1} q3={q3}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{workload} {name} {} {unit} (n={}{spread})\n",
            m.value, m.n
        ));
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    for m in &outcome.mismatches {
        out.push_str(&format!("{workload} MISMATCH {m}\n"));
    }
    out.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        outcome.mismatches.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics.join(", ")
    ));
    out
}

/// 64-bit FNV-1a of `bytes`: the dataset digest the output checks pin.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    /// glibc: sets one allocator parameter; returns 1 on success.
    fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// glibc's `M_MMAP_THRESHOLD` parameter.
const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;

/// Fixes glibc's mmap threshold at its usual starting value, 128 KiB.
/// Left dynamic, the threshold follows the sizes of freed buffers, and the
/// order in which randomly seeded hash maps free theirs decided per process
/// whether the warm rerun's reps peaked at 79 or 83 MiB. The shipped CLI
/// keeps the dynamic threshold; BENCHMARK.md ("The fixed mmap threshold")
/// records what fixing it changes. Call before any thread starts.
pub fn fix_mmap_threshold() -> Result<(), String> {
    // SAFETY: mallopt takes two integers and changes a setting under the
    // allocator's own lock; nothing else has started allocating in
    // parallel yet.
    match unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } {
        1 => Ok(()),
        _ => Err("cannot fix the allocator's mmap threshold".into()),
    }
}

/// Starts a peak-RSS window: hands memory freed by earlier reps back to the
/// operating system, then resets the high-water mark to the current RSS.
/// Without the trim, a rep's window would start from whatever freed memory
/// earlier reps, or the warm rerun's pre-fill, left with the allocator, so
/// a rep would begin less like the fresh process a CLI run is.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim takes no pointers and only walks the allocator's
    // own free lists under the allocator's locks, so any thread may call it
    // at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB since the last
/// [`reset_peak_rss`] (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} declared twice");
            assert!(n.len() <= 64);
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn render_reports_missing_metrics_as_mismatches() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.sample("setup_s", &[0.5, 0.25, 1.0]);
        let text = render("w", false, &mut o);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0,"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(text.contains("w setup_s 0.5 s (n=3"));
        assert!(text.contains("metric time_to_advice_s was not measured"));
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

//! The traced run's per-layer breakdown of the `core.collect` span.
//!
//! A layer's self time inside the collect is estimated as its call count
//! (from the program's sim trace) times its per-call cost (from the
//! probes). Whatever the estimates do not cover is the collector's own
//! time, `core.collector.self_s`, so the rows always add up to the span.
//! With several workers the span counts once per worker thread.

use crate::probes::ProbeTimes;
use crate::report::Outcome;
use crate::spans::{totals, Span};
use crate::Run;
use hpcadvisor_core::TraceSummary;

/// Estimated self seconds per layer within one collect.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// The `core.collect` span in thread-seconds: wall × workers.
    pub span_s: f64,
    pub tasks: u64,
    pub provisions: u64,
    pub taskshell_s: f64,
    pub appmodel_s: f64,
    pub batchsim_s: f64,
    pub cloudsim_s: f64,
    /// The remainder: `span_s` minus every estimate above.
    pub collector_s: f64,
}

impl Layers {
    /// Splits a collect of `wall_s` seconds on `workers` threads.
    pub fn estimate(
        probe: &ProbeTimes,
        trace: &TraceSummary,
        wall_s: f64,
        workers: usize,
    ) -> Layers {
        let tasks = trace.tasks;
        let per_task = |us: f64| tasks as f64 * us / 1e6;
        let mut l = Layers {
            span_s: wall_s * workers.max(1) as f64,
            tasks,
            provisions: trace.provisions,
            taskshell_s: per_task(probe.task_us + 2.0 * probe.vfs_clone_us),
            appmodel_s: per_task(probe.appmodel_us),
            batchsim_s: per_task(probe.batchsim_task_us),
            cloudsim_s: trace.provisions as f64 * probe.cloudsim_call_us / 1e6,
            collector_s: 0.0,
        };
        l.collector_s = l.span_s - l.taskshell_s - l.appmodel_s - l.batchsim_s - l.cloudsim_s;
        l
    }

    fn share(&self, s: f64) -> f64 {
        if self.span_s > 0.0 {
            s / self.span_s
        } else {
            0.0
        }
    }

    /// Records the probe times and the estimated shares as metrics.
    pub fn record(&self, probe: &ProbeTimes, out: &mut Outcome) {
        out.set("taskshell.parse_us", probe.parse_us, 1);
        out.set("taskshell.task_us", probe.task_us, 1);
        out.set("taskshell.vfs_clone_us", probe.vfs_clone_us, 1);
        out.set("taskshell.share", self.share(self.taskshell_s), 1);
        out.set("appmodel.run_us", probe.appmodel_us, 1);
        out.set("appmodel.share", self.share(self.appmodel_s), 1);
        out.set("batchsim.task_us", probe.batchsim_task_us, 1);
        out.set("batchsim.share", self.share(self.batchsim_s), 1);
        out.set("cloudsim.call_us", probe.cloudsim_call_us, 1);
        out.set("cloudsim.share", self.share(self.cloudsim_s), 1);
        out.set("collector.self_s", self.collector_s, 1);
        out.set("collector.share", self.share(self.collector_s), 1);
        out.set("journal.append_us", probe.journal_append_us, 1);
        out.set("cache.save_ms", probe.cache_save_ms, 1);
    }

    /// The simulation layers' combined share: what "the collect is
    /// dominated by simtime/batchsim/appmodel" claims is the larger part.
    /// The sim clock and event queue run inside batchsim and cloudsim.
    pub fn simulation_share(&self) -> f64 {
        self.share(self.batchsim_s + self.cloudsim_s + self.appmodel_s)
    }
}

/// The breakdown table: the benchmark's own spans, then the estimated
/// layers inside one `core.collect`, then the verdict on the
/// "dominated by" claim.
pub fn render(run: &Run, spans: &[Span], layers: &Layers, reps: usize) -> Vec<String> {
    let mut lines = vec![
        format!(
            "breakdown {} (seed {}, {reps} timed reps; spans in milliseconds)",
            run.workload.name(),
            run.seed
        ),
        format!(
            "  {:<28} {:>8} {:>12} {:>12}",
            "span", "count", "ms/call", "self ms/call"
        ),
    ];
    for (name, count, total_ns, self_ns) in totals(spans) {
        let per_call = |ns: u64| ns as f64 / 1e6 / count as f64;
        lines.push(format!(
            "  {:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            count,
            per_call(total_ns),
            per_call(self_ns)
        ));
    }
    if layers.span_s > 0.0 {
        lines.push(format!(
            "  layers inside one core.collect ({:.3} thread-seconds):",
            layers.span_s
        ));
        lines.push(format!(
            "  {:<28} {:>8} {:>12} {:>12} {:>8}",
            "layer", "calls", "us/call", "self_s", "share"
        ));
        let per_call = |s: f64, n: u64| {
            if n > 0 {
                format!("{:.2}", s * 1e6 / n as f64)
            } else {
                "-".to_string()
            }
        };
        for (name, calls, s) in [
            ("taskshell", layers.tasks, layers.taskshell_s),
            ("appmodel", layers.tasks, layers.appmodel_s),
            ("batchsim", layers.tasks, layers.batchsim_s),
            ("cloudsim", layers.provisions, layers.cloudsim_s),
            ("core.collector.self_s", 0, layers.collector_s),
        ] {
            lines.push(format!(
                "  {:<28} {:>8} {:>12} {:>12.4} {:>7.1}%",
                name,
                if calls > 0 {
                    calls.to_string()
                } else {
                    "-".into()
                },
                per_call(s, calls),
                s,
                100.0 * layers.share(s)
            ));
        }
        let sim = layers.simulation_share();
        lines.push(format!(
            "  claim \"collect is dominated by simtime/batchsim/appmodel\": {} \
             (simulation layers {:.1}%, taskshell {:.1}%, collector {:.1}%)",
            if sim > 0.5 { "HOLDS" } else { "REFUTED" },
            100.0 * sim,
            100.0 * layers.share(layers.taskshell_s),
            100.0 * layers.share(layers.collector_s)
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_add_up_to_the_collect_span() {
        let probe = ProbeTimes {
            task_us: 80.0,
            vfs_clone_us: 5.0,
            appmodel_us: 2.0,
            batchsim_task_us: 10.0,
            cloudsim_call_us: 4.0,
            ..ProbeTimes::default()
        };
        let trace = TraceSummary {
            tasks: 1000,
            provisions: 50,
            ..TraceSummary::default()
        };
        let l = Layers::estimate(&probe, &trace, 0.5, 2);
        assert_eq!(l.span_s, 1.0);
        assert!((l.taskshell_s - 0.09).abs() < 1e-12);
        assert!((l.cloudsim_s - 0.0002).abs() < 1e-12);
        let sum = l.taskshell_s + l.appmodel_s + l.batchsim_s + l.cloudsim_s + l.collector_s;
        assert!((sum - l.span_s).abs() < 1e-12);
        assert!(l.simulation_share() < 0.5);
    }
}

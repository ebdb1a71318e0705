//! Compares the paper's §III-F smart-sampling strategies against the
//! full-grid baseline: how many scenario executions each strategy saves and
//! how close its Pareto front stays to the ground truth.
//!
//! Run with: `cargo run --example smart_sampling`

use hpcadvisor::prelude::*;

fn config() -> UserConfig {
    let mut c = UserConfig::example_lammps();
    // Two box factors make the sweep big enough for sampling to matter:
    // 3 SKUs × 6 node counts × 2 inputs = 36 scenarios.
    c.appinputs = vec![("BOXFACTOR".into(), vec!["16".into(), "24".into()])];
    c
}

fn main() -> Result<(), ToolError> {
    // Ground truth: run everything.
    let mut full_session = Session::create(config(), 42)?;
    let plan = CollectPlan::new();
    let (full_run, full_report) = run_sampled(&mut full_session, &plan, &mut FullGrid::new())?;
    let reference = Advice::from_dataset(&full_run.dataset, &DataFilter::all());
    let full_cost = full_session.total_cloud_cost();
    println!(
        "full grid: {} scenarios executed, cloud spend ${:.2}, front size {}\n",
        full_report.executed,
        full_cost,
        reference.rows.len()
    );

    println!(
        "{:<22} {:>9} {:>8} {:>11} {:>12} {:>9}",
        "strategy", "executed", "saved", "front-sim", "regret", "spend($)"
    );
    let strategies: Vec<Box<dyn Sampler>> = vec![
        Box::new(AggressiveDiscard::new(0.15)),
        Box::new(FixedPerfFactor::new(0.10)),
        Box::new(BottleneckAware::new(0.55, 0.25)),
    ];
    for mut sampler in strategies {
        let mut session = Session::create(config(), 42)?;
        let (run, report) = run_sampled(&mut session, &plan, sampler.as_mut())?;
        let sampled = Advice::from_dataset(&run.dataset, &DataFilter::all());
        println!(
            "{:<22} {:>6}/{:<2} {:>7.0}% {:>11.2} {:>11.1}% {:>9.2}",
            report.strategy,
            report.executed,
            report.total,
            report.savings() * 100.0,
            front_similarity(&reference, &sampled),
            front_regret(&reference, &sampled) * 100.0,
            session.total_cloud_cost(),
        );
    }

    println!(
        "\nfront-sim: Jaccard similarity of (sku, nodes) sets vs. the full front (1.0 = identical)"
    );
    println!("regret: how much slower/costlier the sampled front's best points are vs. full grid");
    Ok(())
}

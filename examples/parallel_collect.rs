//! Parallel data collection with the plan-based Collect API.
//!
//! Splits the paper's Listing-1 grid (3 SKUs × 6 node counts × 2 mesh
//! inputs = 36 scenarios) into per-VM-type chunks — each SKU owns an
//! independent pool in Algorithm 1 — and runs the chunks on 4 worker
//! threads. The merged dataset is byte-identical to what the serial
//! `session.collect()` produces, which this example verifies.
//!
//! Run with: `cargo run --example parallel_collect`

use hpcadvisor::prelude::*;

fn main() -> Result<(), ToolError> {
    // Serial baseline: the one-call API.
    let mut serial_session = Session::create(UserConfig::example_openfoam(), 42)?;
    let serial = serial_session.collect()?;

    // The same grid under a plan: per-SKU chunks, 4 workers, and a full
    // report (outcomes, per-pool billing, executor stats) instead of a
    // bare dataset.
    let mut session = Session::create(UserConfig::example_openfoam(), 42)?;
    let report = session.collect_with(&CollectPlan::new().workers(4))?;

    print!("{}", report.render_text());
    assert_eq!(
        report.dataset.to_json(),
        serial.to_json(),
        "parallel collection must be byte-identical to serial"
    );
    println!(
        "parallel dataset matches the serial run ({} rows)",
        report.dataset.len()
    );

    // The report still converts into a plain dataset for the advice table.
    let advice = Advice::from_dataset(&report.into_dataset(), &DataFilter::all());
    println!("{}", advice.render_text());
    Ok(())
}

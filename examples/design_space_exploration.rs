//! Design-space exploration in the style of the paper's Fig 2: sweep CiM
//! array sizes and DAC resolutions on a real workload — at full-system
//! scope, where the co-design effect lives — and find the co-optimized
//! design through the `cimloop::dse` explorer.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use cimloop::dse::{DesignSpace, EvalScope, Explorer};
use cimloop::macros::{macro_c, OutputCombine};
use cimloop::system::StorageScenario;
use cimloop::workload::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = models::resnet18();
    // Keep the example snappy: a representative slice of the network.
    let subset = cimloop::workload::Workload::new("resnet18_subset", net.layers()[4..10].to_vec())?;

    // The Fig 2 axes: array size × DAC resolution, over the ReRAM macro
    // with direct ADC readout, frozen at its published calibration.
    let space = DesignSpace::new()
        .variant(
            "c",
            macro_c().frozen()?.with_output_combine(OutputCombine::None),
        )
        .square_arrays([128, 256, 512])
        .dac_bits([1, 2, 4]);

    // System scope: macro-only sweeps mislead (Fig 2a) — the DRAM traffic
    // a larger array avoids is invisible without the system around it.
    let explorer = Explorer::new()
        .with_scope(EvalScope::System(StorageScenario::AllTensorsFromDram))
        .with_threads(1);

    // explore_with streams every report as it finishes (the front itself
    // retains only non-dominated designs); collect them for the table.
    let rows = std::sync::Mutex::new(Vec::new());
    let exploration = explorer.explore_with(&space, &subset, |report| {
        rows.lock().expect("rows poisoned").push((
            report.point.id(),
            report.point.rows(),
            report.point.dac_bits(),
            report.energy_per_mac * 1e12,
            report.tops_per_watt,
        ));
    })?;
    let mut rows = rows.into_inner().expect("rows poisoned");
    rows.sort_by_key(|&(id, ..)| id);

    println!("array    DAC bits   energy/MAC (pJ)   TOPS/W   on front");
    let mut best: Option<(u64, u32, f64)> = None;
    for &(_, size, dac_bits, pj, tops_w) in &rows {
        let on_front = exploration_contains(&exploration, size, dac_bits);
        println!(
            "{size:>4}x{size:<4}   {dac_bits:<8} {pj:>12.3}   {tops_w:>8.4}   {}",
            if on_front { "yes" } else { "-" }
        );
        if best.map(|(_, _, e)| pj < e).unwrap_or(true) {
            best = Some((size, dac_bits, pj));
        }
    }

    let (size, dac, pj) = best.expect("at least one config");
    println!("\ngrid optimum: {size}x{size} array, {dac}-bit DAC ({pj:.3} pJ/MAC)");
    println!("(the paper's Fig 2b: array size and DAC resolution must be chosen together)");

    // The Fig 2b conclusion, asserted as this reproduction establishes it
    // (see results/fig02b.tsv, where co-optimizing ties optimizing the
    // architecture alone): the optimum lives at the largest array —
    // optimizing circuits alone, at the Fig 2a macro-optimal 128×128
    // array, cannot reach it — and the paper's co-optimized point
    // (512×512, 1-bit DAC) ties the grid optimum within 2% and sits on
    // the Pareto front. In this DRAM-dominated system the circuits axis
    // is muted, so the architecture axis is what must move with it.
    let pj_of = |r: u64, d: u32| {
        rows.iter()
            .find(|&&(_, size, dac_bits, ..)| size == r && dac_bits == d)
            .map(|&(_, _, _, pj, _)| pj)
            .expect("grid covers the corner")
    };
    assert_eq!(size, 512, "grid optimum should use the largest array");
    let co_opt = pj_of(512, 1);
    assert!(
        co_opt <= pj * 1.02,
        "the paper's co-optimized point should tie the grid optimum within 2%"
    );
    assert!(
        co_opt < pj_of(128, 1) && co_opt < pj_of(128, 4),
        "co-optimization must beat optimizing circuits alone at the macro-optimal array"
    );
    assert!(
        exploration_contains(&exploration, 512, 1),
        "the co-optimized design must be Pareto-optimal"
    );
    println!(
        "verified: co-optimized point matches Fig 2b (front holds {} of {} designs)",
        exploration.front.len(),
        exploration.evaluated
    );
    Ok(())
}

fn exploration_contains(exploration: &cimloop::dse::Exploration, rows: u64, dac_bits: u32) -> bool {
    exploration
        .front
        .members()
        .iter()
        .any(|m| m.value.point.rows() == rows && m.value.point.dac_bits() == dac_bits)
}

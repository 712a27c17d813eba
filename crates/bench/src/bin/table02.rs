//! Table II: modeling speed in (mappings × layers)/second.
//!
//! The value-exact simulator (NeuroSim substitute) simulates every data
//! value, one core, one mapping. The statistical model amortizes
//! data-value-dependent calculation over mappings (Algorithm 1), so its
//! per-mapping rate rises by orders of magnitude with more mappings, and
//! parallelizes across cores.
//!
//! The measured rates go to stdout only. The deterministic record of the
//! same runs (seeded event counts, energies, table counts) is
//! `results/table02.tsv`, written by
//! `cimloop evaluate examples/specs/table02.yaml`.

#![forbid(unsafe_code)]

use std::time::Instant;

use cimloop_bench::{fmt, ExperimentTable};
use cimloop_core::{fanout, CoreError};
use cimloop_macros::base_macro;
use cimloop_map::Mapper;
use cimloop_sim::{simulate_layer, ExactConfig};
use cimloop_system::NetworkEngine;
use cimloop_workload::models;

fn main() {
    let m = base_macro();
    let evaluator = m.evaluator().expect("evaluator");
    let rep = m.representation();
    let net = models::resnet18();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut table = ExperimentTable::new(
        "table02_speed",
        "modeling speed, (mappings x layers)/second (ResNet18)",
        &["model", "cores", "1 mapping", "5000 mappings"],
    );

    // --- Value-exact baseline (full fidelity), one core, one mapping. ---
    // Simulate the three final layers at full fidelity and report the rate.
    let exact_layers: Vec<_> = net.layers().iter().rev().take(3).collect();
    let start = Instant::now();
    let mut events = 0u64;
    for layer in &exact_layers {
        let report = simulate_layer(&m, layer, &ExactConfig::full()).expect("exact");
        events += report.cell_events();
    }
    let exact_elapsed = start.elapsed().as_secs_f64();
    let exact_rate = exact_layers.len() as f64 / exact_elapsed;
    println!(
        "  value-exact: {} cell events in {:.2}s ({:.1} Mevents/s)",
        events,
        exact_elapsed,
        events as f64 / exact_elapsed / 1e6
    );
    table.row(vec![
        "Value-exact (NeuroSim-substitute)".to_owned(),
        "1".to_owned(),
        fmt(exact_rate),
        "-".to_owned(),
    ]);

    // --- Statistical model, 1 core. ---
    let eval_layers: Vec<_> = net.layers().iter().collect();
    let rate_1core_1map = {
        let start = Instant::now();
        let mut n = 0u64;
        for layer in &eval_layers {
            let report = evaluator.evaluate_layer(layer, &rep).expect("eval");
            assert!(report.energy_total() > 0.0);
            n += 1;
        }
        n as f64 / start.elapsed().as_secs_f64()
    };

    let mappings_per_layer = 5000usize;
    let rate_1core_many = {
        let start = Instant::now();
        let mut evaluated = 0u64;
        for layer in eval_layers.iter().take(4) {
            let table_ = evaluator.action_energies(layer, &rep).expect("energies");
            let shape = evaluator.shape_for(layer, &rep).expect("shape");
            // Streaming search: candidates are evaluated as they are
            // generated against the one amortized table — no per-candidate
            // mapping clones are materialized.
            Mapper::default()
                .stream(
                    evaluator.hierarchy(),
                    shape,
                    mappings_per_layer,
                    |mapping| {
                        let report = evaluator
                            .evaluate_mapping(layer, &rep, &table_, mapping)
                            .expect("mapping eval");
                        assert!(report.energy_total() > 0.0);
                        evaluated += 1;
                        true
                    },
                )
                .expect("mappings");
        }
        evaluated as f64 / start.elapsed().as_secs_f64()
    };
    table.row(vec![
        "CiMLoop statistical".to_owned(),
        "1".to_owned(),
        fmt(rate_1core_1map),
        fmt(rate_1core_many),
    ]);

    // --- Statistical model, all cores (parallel over layers for one
    // mapping, over mappings for many). ---
    let rate_multi_1map = {
        let start = Instant::now();
        let reports = fanout::try_map(eval_layers.len(), cores, |i| {
            evaluator.evaluate_layer(eval_layers[i], &rep)
        })
        .expect("eval");
        assert!(reports.iter().all(|r| r.energy_total() > 0.0));
        reports.len() as f64 / start.elapsed().as_secs_f64()
    };
    let rate_multi = {
        let start = Instant::now();
        let mut evaluated = 0usize;
        for layer in eval_layers.iter().take(4) {
            let table_ = evaluator.action_energies(layer, &rep).expect("energies");
            let shape = evaluator.shape_for(layer, &rep).expect("shape");
            let mappings = Mapper::default()
                .enumerate(evaluator.hierarchy(), shape, mappings_per_layer)
                .expect("mappings");
            fanout::try_map(mappings.len(), cores, |i| {
                let report = evaluator.evaluate_mapping(layer, &rep, &table_, &mappings[i])?;
                assert!(report.energy_total() > 0.0);
                Ok::<_, CoreError>(())
            })
            .expect("mapping eval");
            evaluated += mappings.len();
        }
        evaluated as f64 / start.elapsed().as_secs_f64()
    };
    table.row(vec![
        "CiMLoop statistical".to_owned(),
        cores.to_string(),
        fmt(rate_multi_1map),
        fmt(rate_multi),
    ]);

    // --- Amortized engine: whole-network sweep with energy-table cache
    // and parallel layer fan-out, on a repeated-layer zoo network (ViT's
    // unrolled encoder). The network-scale face of the amortization claim.
    let unrolled = models::vit_base().unrolled();
    let engine_rate = {
        let engine = NetworkEngine::new(&evaluator);
        let start = Instant::now();
        let report = engine
            .evaluate_network(&unrolled, &rep)
            .expect("network sweep");
        assert!(report.energy_total() > 0.0);
        let rate = unrolled.layers().len() as f64 / start.elapsed().as_secs_f64();
        println!(
            "  engine: {} layers, {} tables computed / {} reused",
            unrolled.layers().len(),
            engine.cache().misses(),
            engine.cache().hits()
        );
        rate
    };
    table.row(vec![
        "CiMLoop engine (table cache, ViT unrolled)".to_owned(),
        cores.to_string(),
        fmt(engine_rate),
        "-".to_owned(),
    ]);
    // Measured rates: stdout only (never a golden).
    table.finish_stdout();

    println!(
        "  paper (Xeon Gold 6444Y): NeuroSim 0.07; CiMLoop 0.28/83 (1 core), 2.25/1076 (16 cores)"
    );
    println!(
        "  shape reproduced: {}",
        if rate_1core_many > 50.0 * exact_rate && rate_1core_many > 10.0 * rate_1core_1map {
            "YES (orders of magnitude over value-exact; amortization over mappings)"
        } else {
            "PARTIAL"
        }
    );
}

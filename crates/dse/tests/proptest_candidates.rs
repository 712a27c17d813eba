//! `DesignSpace::candidates` against a reference implementation of the
//! staged pre-pass it replaced: build every design, keep the ones the
//! filter admits, keep the shard's positions, then drop every design
//! whose full configuration (compared as derived `Debug` text, noise
//! stripped for the noise-blind rule) equals an earlier kept one's. The
//! index-level pass must return the same ids and the same pruned count
//! on random spaces with duplicate axis values, identical variants and
//! variants that carry their own noise.

use std::collections::BTreeSet;

use cimloop_dse::{Dedup, DesignPoint, DesignSpace, Shard};
use cimloop_macros::{base_macro, ArrayMacro, OutputCombine};
use cimloop_noise::NoiseSpec;
use proptest::prelude::*;

fn variant_pool() -> Vec<(&'static str, ArrayMacro)> {
    let base = base_macro().uncalibrated();
    vec![
        ("base", base.clone()),
        // Identical to `base` under another name: every design is a twin.
        ("twin", base.clone()),
        (
            "noisy",
            base.clone()
                .with_noise(NoiseSpec::new().with_read_noise(0.01)),
        ),
        ("adc4", base.clone().with_adc_bits(4)),
        (
            "accum",
            base.with_output_combine(OutputCombine::AnalogAccumulator),
        ),
    ]
}

fn noise_pool() -> [NoiseSpec; 4] {
    [
        NoiseSpec::ideal(),
        NoiseSpec::new().with_cell_variation(0.05),
        NoiseSpec::new().with_cell_variation(0.1),
        NoiseSpec::new().with_read_noise(0.01),
    ]
}

/// Axis picks are indices into small value pools, so duplicates occur.
#[derive(Debug, Clone)]
struct SpaceDraw {
    variants: Vec<usize>,
    sizes: Vec<u64>,
    dacs: Vec<u32>,
    adcs: Vec<u32>,
    cells: Vec<u32>,
    noises: Vec<usize>,
    filter: usize,
}

fn arb_space() -> impl Strategy<Value = SpaceDraw> {
    (
        prop::collection::vec(0usize..5, 1..4),
        prop::collection::vec(prop_oneof![Just(16u64), Just(32u64)], 0..3),
        prop::collection::vec(1u32..3, 0..3),
        prop::collection::vec(prop_oneof![Just(4u32), Just(8u32)], 0..3),
        prop::collection::vec(1u32..3, 0..2),
        prop::collection::vec(0usize..4, 0..5),
        0usize..3,
    )
        .prop_map(
            |(variants, sizes, dacs, adcs, cells, noises, filter)| SpaceDraw {
                variants,
                sizes,
                dacs,
                adcs,
                cells,
                noises,
                filter,
            },
        )
}

fn build(draw: &SpaceDraw) -> DesignSpace {
    let pool = variant_pool();
    let noises = noise_pool();
    let mut space = DesignSpace::new();
    for &v in &draw.variants {
        let (name, m) = &pool[v];
        space = space.variant(*name, m.clone());
    }
    space = space
        .square_arrays(draw.sizes.iter().copied())
        .dac_bits(draw.dacs.iter().copied())
        .adc_bits(draw.adcs.iter().copied())
        .cell_bits(draw.cells.iter().copied())
        .noise_specs(draw.noises.iter().map(|&i| noises[i]));
    match draw.filter {
        1 => space.filter(|p| p.id() % 5 != 2),
        2 => space.filter(|p| p.adc_bits() >= 5 || p.noise().is_ideal()),
        _ => space,
    }
}

fn arb_shard() -> impl Strategy<Value = Option<Shard>> {
    prop_oneof![
        Just(None),
        (1usize..5)
            .prop_flat_map(|count| (0..count, Just(count)))
            .prop_map(|(index, count)| Some(Shard::new(index, count).unwrap())),
    ]
}

fn arb_dedup() -> impl Strategy<Value = Dedup> {
    prop_oneof![
        Just(Dedup::Off),
        Just(Dedup::WithNoise),
        Just(Dedup::NoiseBlind),
    ]
}

/// The pre-pass as it ran before index-level collapse: materialize,
/// filter, shard, then keep the first design of each configuration.
fn oracle(space: &DesignSpace, shard: Option<Shard>, dedup: Dedup) -> (Vec<u64>, usize) {
    let mut candidates: Vec<DesignPoint> = (0..space.grid_len() as u64)
        .filter_map(|id| space.point_at(id))
        .filter(|p| space.admits(p))
        .collect();
    if let Some(shard) = shard {
        candidates = candidates
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % shard.count() == shard.index())
            .map(|(_, p)| p)
            .collect();
    }
    let mut pruned = 0;
    if dedup != Dedup::Off {
        let mut seen = BTreeSet::new();
        candidates.retain(|p| {
            let m = p.cim_macro();
            let key = if dedup == Dedup::WithNoise {
                format!("{m:?}")
            } else {
                format!("{:?}", m.clone().with_noise(NoiseSpec::ideal()))
            };
            if seen.insert(key) {
                true
            } else {
                pruned += 1;
                false
            }
        });
    }
    (candidates.iter().map(DesignPoint::id).collect(), pruned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn candidates_match_the_materialize_then_dedup_oracle(
        draw in arb_space(),
        shard in arb_shard(),
        dedup in arb_dedup(),
    ) {
        let space = build(&draw);
        let (kept, pruned) = space.candidates(shard, dedup);
        let ids: Vec<u64> = kept.iter().map(DesignPoint::id).collect();
        let (want_ids, want_pruned) = oracle(&space, shard, dedup);
        prop_assert_eq!(&ids, &want_ids, "kept ids for {:?} {:?} {:?}", draw, shard, dedup);
        prop_assert_eq!(pruned, want_pruned, "pruned count for {:?} {:?} {:?}", draw, shard, dedup);
        // Kept points are the same designs `point_at` builds.
        for point in &kept {
            let fresh = space.point_at(point.id()).unwrap();
            prop_assert_eq!(point.label(), fresh.label());
            prop_assert_eq!(
                point.cim_macro().config_bytes(true),
                fresh.cim_macro().config_bytes(true)
            );
        }
    }
}

#[test]
fn noise_blind_collapse_keeps_one_design_per_configuration() {
    let noises = noise_pool();
    let space = DesignSpace::new()
        .variant("base", base_macro().uncalibrated())
        .variant("twin", base_macro().uncalibrated())
        .adc_bits([4, 8, 4])
        .noise_specs(noises);
    let (kept, pruned) = space.candidates(None, Dedup::NoiseBlind);
    let ids: Vec<u64> = kept.iter().map(DesignPoint::id).collect();
    // Two distinct configurations (ADC 4 and 8 bits); the repeated ADC
    // value and the identical variant are twins of the first two tuples.
    assert_eq!(ids, vec![0, 4]);
    assert_eq!(pruned, space.grid_len() - 2);
    let (kept, pruned) = space.candidates(None, Dedup::WithNoise);
    assert_eq!(kept.len(), 8, "one design per (ADC bits, noise spec)");
    assert_eq!(pruned, space.grid_len() - 8);
    assert_eq!(space.candidates(None, Dedup::Off).0.len(), space.grid_len());
}

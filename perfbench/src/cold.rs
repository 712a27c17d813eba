//! `cold_resnet18` and `cold_vit_repeated`: whole networks on frozen
//! Macro C, each timed evaluation on a fresh two-thread `NetworkEngine`
//! (fresh cache), as in the paper's Table II.

use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

use cimloop_core::{
    EnergyTableCache, Evaluator, LayerReport, Pipeline, Representation, StatsSignature, ValueStats,
};
use cimloop_macros::macro_c;
use cimloop_system::NetworkEngine;
use cimloop_workload::{models, Workload};

use crate::measure::{check_count, check_digest, median, named_digest, peak_rss_mb, Rng, Summary};
use crate::report::{Metric, Outcome};
use crate::trace::{by_name, Tracer};
use crate::{SETUP_REPS, THREADS};

/// Support cap of the column-sum convolution inside `ValueStats::compute`
/// (`SUM_SUPPORT` there). The `stats.convolve_n` probe repeats the
/// convolution with it and checks the result bit for bit, so a drift
/// between the two fails loudly.
const SUM_SUPPORT: usize = 512;

type Replayed = (Vec<LayerReport>, Vec<Arc<ValueStats>>);

/// The two cold networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// ResNet18: 21 layers, every value signature distinct.
    Resnet18,
    /// ViT-base unrolled: 338 layers over 8 distinct value signatures.
    VitRepeated,
}

impl Net {
    fn workload_name(self) -> &'static str {
        match self {
            Net::Resnet18 => "cold_resnet18",
            Net::VitRepeated => "cold_vit_repeated",
        }
    }

    fn network(self) -> Workload {
        match self {
            Net::Resnet18 => models::resnet18(),
            Net::VitRepeated => models::vit_base().unrolled(),
        }
    }

    /// Digest of every layer's energy, latency and cycle count, in
    /// layer-name order (see [`layer_digest`]).
    fn pinned_digest(self) -> u64 {
        match self {
            Net::Resnet18 => 0x730c_f384_7045_b1b1,
            Net::VitRepeated => 0x4705_03fd_38ee_1290,
        }
    }

    /// Distinct value-statistics entries of one evaluation.
    fn pinned_distinct(self) -> u64 {
        match self {
            Net::Resnet18 => 21,
            Net::VitRepeated => 8,
        }
    }
}

/// Frozen Macro C's evaluator: the cold workloads' set-up product.
pub struct Model {
    evaluator: Evaluator,
    rep: Representation,
}

/// Freezes Macro C's calibration and builds its evaluator.
pub fn build_model() -> Result<Model, Box<dyn Error>> {
    let m = macro_c().frozen()?;
    Ok(Model {
        evaluator: m.evaluator()?,
        rep: m.representation(),
    })
}

/// The order-independent digest of a network's layer reports.
fn layer_digest<'a>(reports: impl IntoIterator<Item = &'a LayerReport>) -> u64 {
    let records: Vec<(String, Vec<u64>)> = reports
        .into_iter()
        .map(|r| {
            (
                r.layer_name().to_owned(),
                vec![
                    r.energy_total().to_bits(),
                    r.latency().to_bits(),
                    r.cycles(),
                ],
            )
        })
        .collect();
    named_digest(&records)
}

/// `net` with its layers in a seeded random order.
fn permuted(net: &Workload, rng: &mut Rng) -> Result<Workload, Box<dyn Error>> {
    let mut layers = net.layers().to_vec();
    rng.shuffle(&mut layers);
    Ok(Workload::new(net.name(), layers)?)
}

/// One evaluation on a fresh engine.
struct Evaluation {
    wall_s: f64,
    /// Layer digest, layer count and distinct statistics entries against
    /// their pinned values.
    check: Result<(), String>,
    /// Distinct statistics entries the engine's cache ended with.
    distinct: u64,
    /// Statistics misses beyond the distinct entries: fills that two
    /// threads computed for the same key.
    duplicate_fills: u64,
}

fn evaluate(net: Net, model: &Model, input: &Workload) -> Evaluation {
    let start = Instant::now();
    let engine = NetworkEngine::new(&model.evaluator).with_threads(THREADS);
    let result = engine.evaluate_network(input, &model.rep);
    let wall_s = start.elapsed().as_secs_f64();
    let distinct = engine.cache().stats_len() as u64;
    let check = match result {
        Ok(report) => check_digest(
            net.workload_name(),
            layer_digest(report.layers().iter().map(|(_, r)| r)),
            net.pinned_digest(),
        )
        .and_then(|()| {
            check_count(
                "layers",
                report.layers().len() as u64,
                input.layers().len() as u64,
            )
        })
        .and_then(|()| check_count("core.stats_distinct", distinct, net.pinned_distinct())),
        Err(e) => Err(format!("{}: {e}", net.workload_name())),
    };
    Evaluation {
        wall_s,
        check,
        distinct,
        duplicate_fills: engine.cache().stats_misses() - distinct,
    }
}

/// The untraced workload: set-up, then fresh-engine evaluations of
/// seeded layer permutations for `seconds`.
pub fn run(net: Net, seed: u64, seconds: f64) -> Result<Outcome, Box<dyn Error>> {
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let model = build_model()?;
        let network = net.network();
        setup.push(start.elapsed().as_secs_f64());
        built = Some((model, network));
    }
    let (model, network) = built.expect("SETUP_REPS > 0");
    let layers = network.layers().len() as f64;

    let mut out = Outcome::default();
    let mut rng = Rng::new(seed);
    let mut walls = Vec::new();
    let mut duplicate_fills = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let e = evaluate(net, &model, &permuted(&network, &mut rng)?);
        out.check(e.check);
        walls.push(e.wall_s);
        duplicate_fills.push(e.duplicate_fills as f64);
    }

    let w = net.workload_name();
    let setup = Summary::of(&setup).expect("set-up ran");
    let wall = Summary::of(&walls).expect("evaluations ran");
    let rss = peak_rss_mb(None).ok_or("cannot read peak RSS")?;
    out.metrics = vec![
        Metric::median("setup_s", "s", setup).alias(format!("{w}.setup_s")),
        Metric::median("throughput_per_s", "1/s", wall.rate(layers))
            .alias(format!("{w}.layer_evals_per_s")),
        Metric::single("peak_rss_mb", "MB", rss).alias(format!("{w}.peak_rss_mb")),
    ];
    out.note(Metric::median(format!("{w}.evaluation_ms"), "ms", wall.scaled(1e3)).line());
    out.note(format!(
        "  {w}: {} layers per evaluation, {THREADS} threads; value-statistics duplicate fills per \
         evaluation: median {}",
        layers,
        median(&duplicate_fills).unwrap_or(0.0)
    ));
    Ok(out)
}

/// The layer-by-layer replay of one evaluation through the public calls
/// `NetworkEngine` makes (`Evaluator::evaluate_layer_cached` split into
/// value statistics, energy table, mapping and dataflow), sequential on
/// a fresh cache. Value statistics are computed into the cache's stats
/// level first, so the table span times `action_energies_cached` with
/// that level pre-filled. Returns the layer reports and each distinct
/// statistics entry once.
fn replay(
    model: &Model,
    input: &Workload,
    tracer: &Tracer,
    root: Option<u64>,
) -> Result<Replayed, Box<dyn Error>> {
    let ev = &model.evaluator;
    let rep = &model.rep;
    let rows = ev.reduction_rows();
    let cache = EnergyTableCache::new();
    let mut distinct = Vec::new();
    let mut reports = Vec::new();
    for (i, layer) in input.layers().iter().enumerate() {
        let op = i as u64;
        let report = tracer.span("cold.layer", root, op, |id| {
            let mut fresh = false;
            let stats =
                cache.stats_or_try_insert_with(StatsSignature::new(rows, layer, rep), || {
                    fresh = true;
                    tracer.span("core.value_stats", Some(id), op, |_| {
                        ValueStats::compute(layer, rep, rows)
                    })
                })?;
            if fresh {
                distinct.push(stats);
            }
            let table = tracer.span("core.table", Some(id), op, |_| {
                ev.action_energies_cached(layer, rep, &cache)
            })?;
            let mapping =
                tracer.span("map.map_layer", Some(id), op, |_| ev.map_layer(layer, rep))?;
            tracer.span("map.dataflow", Some(id), op, |_| {
                ev.evaluate_mapping(layer, rep, &table, &mapping)
            })
        })?;
        reports.push(report);
    }
    Ok((reports, distinct))
}

/// Per-layer probes that are not steps of the replay: operand
/// distributions and encodings (sub-steps of `ValueStats::compute`),
/// the noise analysis, and (ResNet18) the column-sum convolution.
fn probes(
    net: Net,
    model: &Model,
    input: &Workload,
    distinct: &[Arc<ValueStats>],
    tracer: &Tracer,
    root: u64,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let rep = &model.rep;
    for (i, layer) in input.layers().iter().enumerate() {
        let op = i as u64;
        let (input_pmf, weight_pmf) = tracer.span("workload.pmf", Some(root), op, |_| {
            Ok::<_, Box<dyn Error>>((layer.input_pmf()?, layer.weight_pmf()?))
        })?;
        tracer.span("core.encode", Some(root), op, |_| {
            rep.input_encoding()
                .encode(&input_pmf, layer.input_bits(), layer.input_signed())?;
            rep.weight_encoding()
                .encode(&weight_pmf, layer.weight_bits(), layer.weight_signed())
        })?;
    }
    let ev = &model.evaluator;
    for (k, stats) in distinct.iter().enumerate() {
        let op = k as u64;
        tracer.span("noise.analysis", Some(root), op, |_| {
            Pipeline::from_stats(ev.hierarchy(), stats.clone())
                .noise_analysis(&ev.noise(), ev.output_adc_bits())
        });
        if net == Net::Resnet18 {
            let sum = tracer.span("stats.convolve_n", Some(root), op, |_| {
                stats
                    .input_slice()
                    .pmf()
                    .product(stats.weight_slice().pmf())
                    .coarsen(SUM_SUPPORT)
                    .convolve_n(stats.reduction_rows(), SUM_SUPPORT)
            });
            let bits = |p: &cimloop_stats::Pmf| -> Vec<u64> {
                p.support()
                    .iter()
                    .chain(p.probs())
                    .map(|v| v.to_bits())
                    .collect()
            };
            out.check(if bits(&sum) == bits(stats.sum()) {
                Ok(())
            } else {
                Err(format!(
                    "stats.convolve_n: distinct entry {k} differs from ValueStats::sum"
                ))
            });
        }
    }
    Ok(())
}

/// The traced section: untraced engine evaluations (wall time, distinct
/// entries, duplicate fills), the replay untraced and traced (tracing
/// overhead), and the probes.
pub fn trace(
    net: Net,
    model: &Model,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    const ENGINE_RUNS: usize = 3;
    let w = net.workload_name();
    let network = net.network();
    let mut rng = Rng::new(seed);
    let mut walls = Vec::new();
    let mut fills = Vec::new();
    let mut distinct = 0;
    for _ in 0..ENGINE_RUNS {
        let e = evaluate(net, model, &permuted(&network, &mut rng)?);
        out.check(e.check);
        walls.push(e.wall_s);
        fills.push(e.duplicate_fills as f64);
        distinct = e.distinct;
    }

    let input = permuted(&network, &mut rng)?;
    let start = Instant::now();
    let (reports, _) = replay(model, &input, &Tracer::new(false), None)?;
    let untraced = start.elapsed().as_secs_f64();
    out.check(check_digest(w, layer_digest(&reports), net.pinned_digest()));

    let (root, traced) = tracer.span(&format!("section.{w}"), None, 0, |root| {
        let start = Instant::now();
        let (reports, entries) = tracer.span("cold.replay", Some(root), 0, |id| {
            replay(model, &input, tracer, Some(id))
        })?;
        let traced = start.elapsed().as_secs_f64();
        out.check(check_digest(w, layer_digest(&reports), net.pinned_digest()));
        tracer.span("cold.probes", Some(root), 0, |id| {
            probes(net, model, &input, &entries, tracer, id, out)
        })?;
        Ok::<_, Box<dyn Error>>((root, traced))
    })?;

    let agg = by_name(&tracer.spans(), root);
    let total = |name: &str| agg.get(name).map_or(0.0, |s| s.total_ms());
    let stats = agg
        .get("core.value_stats")
        .ok_or("no value statistics computed")?;
    let wall = median(&walls).expect("ENGINE_RUNS > 0");
    let mut metrics = vec![
        Metric::median(
            format!("core.value_stats_ms.{w}"),
            "ms",
            Summary::of(&stats.durations_ms).expect("a span was recorded"),
        ),
        Metric::single(
            format!("core.value_stats_total_ms.{w}"),
            "ms",
            stats.total_ms(),
        ),
        Metric::single(
            format!("core.value_stats_calls.{w}"),
            "count",
            stats.calls as f64,
        ),
        Metric::single(format!("core.stats_distinct.{w}"), "count", distinct as f64),
        Metric::median(
            format!("core.stats_duplicate_fills.{w}"),
            "count",
            Summary::of(&fills).expect("ENGINE_RUNS > 0"),
        ),
        // Busy time is the replay's layer spans: each layer's engine work,
        // sequential, with every statistics entry computed once.
        Metric::single(
            format!("system.parallel_efficiency.{w}"),
            "ratio",
            total("cold.layer") / 1e3 / (THREADS as f64 * wall),
        ),
    ];
    for (metric, span) in [
        ("core.table_ms", "core.table"),
        ("map.map_layer_ms", "map.map_layer"),
        ("map.dataflow_ms", "map.dataflow"),
        ("workload.pmf_ms", "workload.pmf"),
        ("core.encode_ms", "core.encode"),
        ("noise.analysis_ms", "noise.analysis"),
    ] {
        metrics.push(Metric::single(format!("{metric}.{w}"), "ms", total(span)));
    }
    if net == Net::Resnet18 {
        metrics.push(Metric::single(
            "stats.convolve_n_ms",
            "ms",
            total("stats.convolve_n"),
        ));
    }
    let target = format!("{w}.layer_evals_per_s");
    out.metrics
        .extend(metrics.into_iter().map(|m| m.moves(target.as_str())));
    out.note(format!(
        "  {w}: replay traced {:.3} ms - untraced {:.3} ms = tracing overhead {:.3} ms; \
         engine ({THREADS} threads, untraced) median {:.3} ms",
        traced * 1e3,
        untraced * 1e3,
        (traced - untraced) * 1e3,
        wall * 1e3
    ));
    Ok(())
}

//! `dse_staged`: the staged, ADC-coverage `Explorer::sweep` over the
//! production-scale grid (115,200 candidates on one matched MVM).

use std::collections::BTreeSet;
use std::error::Error;
use std::time::Instant;

use cimloop_bench::{scale_design_space, scale_workload};
use cimloop_core::EnergyTableCache;
use cimloop_dse::{
    accuracy_proxy, summarize, AccuracyObjective, DesignReport, DesignSpace, Explorer, ParetoFront,
    SweepPlan,
};
use cimloop_workload::Workload;

use crate::measure::{check_count, check_digest, peak_rss_mb, Fnv, Summary};
use crate::report::{Metric, Outcome};
use crate::trace::{by_name, Tracer};
use crate::THREADS;

const CANDIDATES: u64 = 115_200;
const EVALUATED: u64 = 96;
const PRUNED: u64 = 115_104;
const FRONT: u64 = 34;
/// Digest of the front: each member's id with its energy, latency, area
/// and accuracy proxy, in id order.
const FRONT_DIGEST: u64 = 0xdaee_7256_d8c9_a5a2;

/// What one sweep disposed of, and its front.
struct Swept {
    evaluated: u64,
    screened: u64,
    pruned: u64,
    front: ParetoFront<DesignReport>,
}

fn front_digest(front: &ParetoFront<DesignReport>) -> u64 {
    let mut h = Fnv::default();
    for m in front.members() {
        h.u64(m.id)
            .u64(m.value.energy_total.to_bits())
            .u64(m.value.latency.to_bits())
            .u64(m.value.area_mm2.to_bits())
            .u64(m.value.accuracy_proxy.to_bits());
    }
    h.finish()
}

fn check(swept: &Swept) -> Result<(), String> {
    check_count("dse.evaluated", swept.evaluated, EVALUATED)
        .and_then(|()| check_count("dse.pruned", swept.pruned, PRUNED))
        .and_then(|()| {
            check_count(
                "dse.candidates",
                swept.evaluated + swept.screened + swept.pruned,
                CANDIDATES,
            )
        })
        .and_then(|()| check_count("dse.front_size", swept.front.len() as u64, FRONT))
        .and_then(|()| check_digest("dse front", front_digest(&swept.front), FRONT_DIGEST))
}

fn plan() -> SweepPlan {
    SweepPlan {
        staged: true,
        ..SweepPlan::new()
    }
}

/// One staged sweep on a fresh explorer (fresh cache).
fn sweep(space: &DesignSpace, net: &Workload) -> Result<Swept, Box<dyn Error>> {
    let e = Explorer::with_adc_coverage_accuracy()
        .with_threads(THREADS)
        .sweep(space, net, &plan())?;
    if !e.completed {
        return Err("the staged sweep stopped before the end of the grid".into());
    }
    Ok(Swept {
        evaluated: e.evaluated as u64,
        screened: e.screened as u64,
        pruned: e.pruned as u64,
        front: e.front,
    })
}

/// The untraced workload: space build as set-up, then sweeps for
/// `seconds`. The grid is fixed; the seed only labels the run.
pub fn run(seconds: f64) -> Result<Outcome, Box<dyn Error>> {
    // One space build takes a few microseconds, and the host runs in
    // faster and slower spells of a few milliseconds each. A median over a
    // short window lands in whichever spell it hits, so the builds span
    // about 0.2 s.
    const SPACE_BUILDS: usize = 40_001;
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SPACE_BUILDS {
        let start = Instant::now();
        let space = scale_design_space(false);
        let net = scale_workload();
        setup.push(start.elapsed().as_secs_f64());
        built = Some((space, net));
    }
    let (space, net) = built.expect("SPACE_BUILDS > 0");

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let swept = sweep(&space, &net);
        walls.push(t.elapsed().as_secs_f64());
        out.check(swept.map_err(|e| e.to_string()).and_then(|s| check(&s)));
    }

    let wall = Summary::of(&walls).expect("sweeps ran");
    let rss = peak_rss_mb(None).ok_or("cannot read peak RSS")?;
    out.metrics = vec![
        Metric::median("setup_s", "s", Summary::of(&setup).expect("set-up ran"))
            .alias("dse_staged.setup_s"),
        Metric::median("throughput_per_s", "1/s", wall.rate(CANDIDATES as f64))
            .alias("dse_staged.candidates_per_s"),
        Metric::single("peak_rss_mb", "MB", rss).alias("dse_staged.peak_rss_mb"),
    ];
    out.note(Metric::median("dse_staged.sweep_ms", "ms", wall.scaled(1e3)).line());
    out.note(format!(
        "  dse_staged: {CANDIDATES} candidates per sweep -> {EVALUATED} evaluated, {PRUNED} \
         pruned, front of {FRONT}; {THREADS} threads"
    ));
    Ok(out)
}

/// The staged sweep replayed through public calls, sequentially:
/// `DesignSpace::designs`, `ArrayMacro::config_fingerprint` dedup,
/// then per representative `ArrayMacro::evaluator`, the cheap screens
/// and `Evaluator::evaluate_cached`.
fn replay(
    space: &DesignSpace,
    net: &Workload,
    tracer: &Tracer,
    root: Option<u64>,
) -> Result<Swept, Box<dyn Error>> {
    let candidates = tracer.span("dse.designs", root, 0, |_| space.designs());
    let mut pruned = 0u64;
    let reps = tracer.span("macros.config_fingerprint", root, 0, |_| {
        let mut seen = BTreeSet::new();
        let mut reps = Vec::new();
        for p in &candidates {
            // ADC coverage is noise-blind: the class key omits noise.
            if seen.insert(p.cim_macro().config_fingerprint(false)) {
                reps.push(p);
            } else {
                pruned += 1;
            }
        }
        reps
    });
    let cache = EnergyTableCache::new();
    let mut front = ParetoFront::new();
    let (mut evaluated, mut screened) = (0u64, 0u64);
    for p in reps {
        let op = p.id();
        tracer.span(
            "dse.candidate",
            root,
            op,
            |id| -> Result<(), Box<dyn Error>> {
                let m = p.cim_macro();
                let evaluator =
                    tracer.span("macros.evaluator_build", Some(id), op, |_| m.evaluator())?;
                let over_area = space
                    .area_cap()
                    .is_some_and(|cap| evaluator.cheap_metrics().area_mm2 > cap);
                let under_coverage = space
                    .coverage_floor()
                    .is_some_and(|floor| accuracy_proxy(m) < floor);
                if over_area || under_coverage {
                    screened += 1;
                    return Ok(());
                }
                let run = tracer.span("dse.evaluate", Some(id), op, |_| {
                    evaluator.evaluate_cached(net, &m.representation(), &cache)
                })?;
                let report = summarize(p, &evaluator, &run);
                front.insert(
                    p.id(),
                    report.objectives_for(AccuracyObjective::AdcCoverage),
                    report,
                );
                evaluated += 1;
                Ok(())
            },
        )?;
    }
    Ok(Swept {
        evaluated,
        screened,
        pruned,
        front,
    })
}

/// The traced section: one untraced sweep, then the replay untraced and
/// traced.
pub fn trace(tracer: &Tracer, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let space = scale_design_space(false);
    let net = scale_workload();

    let t = Instant::now();
    let swept = sweep(&space, &net);
    let sweep_wall = t.elapsed().as_secs_f64();
    out.check(swept.map_err(|e| e.to_string()).and_then(|s| check(&s)));

    let t = Instant::now();
    let swept = replay(&space, &net, &Tracer::new(false), None)?;
    let untraced = t.elapsed().as_secs_f64();
    out.check(check(&swept));

    let t = Instant::now();
    let (root, swept) = tracer.span("section.dse_staged", None, 0, |id| {
        replay(&space, &net, tracer, Some(id)).map(|s| (id, s))
    })?;
    let traced = t.elapsed().as_secs_f64();
    out.check(check(&swept));

    let agg = by_name(&tracer.spans(), root);
    let total = |name: &str| agg.get(name).map_or(0.0, |s| s.total_ms());
    let builds = agg
        .get("macros.evaluator_build")
        .ok_or("no evaluator built")?;
    let timed = [
        Metric::single("dse.designs_ms", "ms", total("dse.designs")),
        Metric::single(
            "macros.config_fingerprint_us",
            "us",
            total("macros.config_fingerprint") * 1e3 / CANDIDATES as f64,
        ),
        Metric::median(
            "macros.evaluator_build_ms",
            "ms",
            Summary::of(&builds.durations_ms).expect("a span was recorded"),
        ),
        Metric::single("dse.evaluate_ms", "ms", total("dse.evaluate")),
    ];
    let counts = [
        Metric::single("dse.evaluated", "count", swept.evaluated as f64),
        Metric::single("dse.pruned", "count", swept.pruned as f64),
        Metric::single("dse.front_size", "count", swept.front.len() as f64),
    ];
    out.metrics.extend(
        timed
            .into_iter()
            .map(|m| m.moves("dse_staged.candidates_per_s"))
            .chain(
                counts
                    .into_iter()
                    .map(|m| m.moves("exact; checked against 96 / 115104 / 34")),
            ),
    );
    out.note(format!(
        "  dse_staged: replay traced {:.3} ms - untraced {:.3} ms = tracing overhead {:.3} ms; \
         Explorer::sweep ({THREADS} threads, untraced) {:.3} ms",
        traced * 1e3,
        untraced * 1e3,
        (traced - untraced) * 1e3,
        sweep_wall * 1e3
    ));
    Ok(())
}

//! `serve_mixed`: a real `cimloop serve` child process under two
//! closed-loop client connections cycling a weighted mix of the
//! committed specs, every response checked against its golden TSV.

use std::error::Error;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use cimloop_cli::serve::client::{Client, Response};
use cimloop_cli::{resolve, run_scenario_with, RunContext};
use cimloop_dse::{DesignSpace, TASK_ACCURACY_TRIALS};
use cimloop_macros::{macro_a, macro_c};
use cimloop_sim::{mc_workload, McConfig};
use cimloop_spec::ScenarioDoc;

use crate::measure::{
    check_golden, median, peak_rss_mb, tail_percentile, Rng, ServeStats, Summary,
};
use crate::report::{Metric, Outcome};
use crate::trace::{by_name, Tracer};
use crate::{SETUP_REPS, THREADS};

/// A committed spec and the golden table its response must equal.
struct Kind {
    spec: &'static str,
    table: &'static str,
}

const KINDS: [Kind; 5] = [
    Kind {
        spec: "custom_macro",
        table: "scenario_custom",
    },
    Kind {
        spec: "fig09_noise",
        table: "fig09_noise",
    },
    Kind {
        spec: "dse_grid",
        table: "dse_grid",
    },
    Kind {
        spec: "dse_accuracy",
        table: "dse_accuracy",
    },
    Kind {
        spec: "fig12",
        table: "fig12",
    },
];
const DSE_ACCURACY: usize = 3;

/// One client cycle, as indices into [`KINDS`]: weights 1:1:1:3:1, which
/// puts the latency median inside the `dse_accuracy` band and p99 inside
/// the `fig12` band.
const MIX: [usize; 7] = [0, 1, 2, 3, 3, 3, 4];

const P50: &str = "serve_mixed.latency_p50_ms";
const CALIBRATION_MOVES: &str = "serve_mixed.latency_p99_ms, requests_per_s; cold_*.setup_s";

/// Repetitions of each traced call whose median is reported.
const TRACE_REPS: usize = 5;
const PARSE_REPS: usize = 20;

/// One timed request: its kind, latency in seconds and check.
type Sample = (usize, f64, Result<(), String>);

/// The specs' text and their goldens' bytes, read from the checkout.
struct Inputs {
    specs: Vec<String>,
    goldens: Vec<Vec<u8>>,
}

fn load_inputs(root: &Path) -> Result<Inputs, Box<dyn Error>> {
    let mut inputs = Inputs {
        specs: Vec::new(),
        goldens: Vec::new(),
    };
    for kind in &KINDS {
        let spec = root
            .join("examples/specs")
            .join(format!("{}.yaml", kind.spec));
        let golden = root.join("results").join(format!("{}.tsv", kind.table));
        inputs
            .specs
            .push(std::fs::read_to_string(&spec).map_err(|e| format!("{}: {e}", spec.display()))?);
        inputs
            .goldens
            .push(std::fs::read(&golden).map_err(|e| format!("{}: {e}", golden.display()))?);
    }
    Ok(inputs)
}

/// A running `cimloop serve` child. Dropping it kills the child if it
/// is still running and waits for it.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and waits for its
    /// "listening" line.
    fn spawn(bin: &Path) -> Result<Daemon, Box<dyn Error>> {
        let mut child = Command::new(bin)
            .args(["serve", "127.0.0.1:0", "--workers", &THREADS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                return Err("cimloop serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("cimloop-serve listening on ") {
                daemon.addr = addr.to_owned();
                break;
            }
        }
        // The daemon keeps printing (sweep progress); a full pipe would
        // block it, so the rest of its output is read and dropped.
        daemon.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stdout.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        Ok(daemon)
    }

    fn connect(&self) -> std::io::Result<Client> {
        Client::connect(self.addr.as_str())
    }

    fn stats(&self) -> Result<ServeStats, Box<dyn Error>> {
        match self.connect()?.stats()? {
            Response::Ok { body, .. } => Ok(ServeStats::parse(&String::from_utf8_lossy(&body))?),
            Response::Err(message) => Err(format!("STATS: {message}").into()),
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the daemon to exit and waits until it has.
    fn shutdown(mut self) -> Result<(), Box<dyn Error>> {
        self.connect()?.shutdown()?;
        let status = self.child.wait()?;
        if let Some(drain) = self.drain.take() {
            drain.join().map_err(|_| "daemon output reader panicked")?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("cimloop serve exited with {status}").into())
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One served request of `kind`, checked against its golden.
fn request(client: &mut Client, inputs: &Inputs, kind: usize) -> Result<(), String> {
    let k = &KINDS[kind];
    match client.run(&inputs.specs[kind]) {
        Ok(Response::Ok { name, body }) => {
            check_golden(k.table, &inputs.goldens[kind], &name, &body)
        }
        Ok(Response::Err(message)) => Err(format!("{}: ERR {message}", k.spec)),
        Err(e) => Err(format!("{}: {e}", k.spec)),
    }
}

/// One pass over every kind on one connection (the warm-up).
fn warm(daemon: &Daemon, inputs: &Inputs, out: &mut Outcome) -> Result<(), Box<dyn Error>> {
    let mut client = daemon.connect()?;
    for kind in 0..KINDS.len() {
        out.check(request(&mut client, inputs, kind));
    }
    Ok(())
}

/// One client's closed loop over [`MIX`] until `seconds` after `start`,
/// each cycle in a fresh seeded order. A fixed order would lock the two
/// clients into one phase, and which heavy requests overlap would then
/// depend on the seed. Returns `(kind, latency s, check)` per request
/// and the time its last response arrived.
fn client_loop(
    daemon: &Daemon,
    inputs: &Inputs,
    seed: u64,
    start: Instant,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let mut rng = Rng::new(seed);
    let mut samples = Vec::new();
    match daemon.connect() {
        Ok(mut client) => 'load: loop {
            let mut order = MIX;
            rng.shuffle(&mut order);
            for kind in order {
                if start.elapsed().as_secs_f64() >= seconds {
                    break 'load;
                }
                let t = Instant::now();
                let check = request(&mut client, inputs, kind);
                samples.push((kind, t.elapsed().as_secs_f64(), check));
            }
        },
        Err(e) => samples.push((0, 0.0, Err(format!("connect: {e}")))),
    }
    (samples, start.elapsed().as_secs_f64())
}

/// The untraced workload: set-up (spawn to "listening", plus one warm
/// pass) several times, then both clients for `seconds` on the last
/// daemon.
pub fn run(bin: &Path, root: &Path, seed: u64, seconds: f64) -> Result<Outcome, Box<dyn Error>> {
    let inputs = load_inputs(root)?;
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous)?;
        }
        let start = Instant::now();
        let d = Daemon::spawn(bin)?;
        warm(&d, &inputs, &mut out)?;
        setup.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("SETUP_REPS > 0");

    let mut seeds = Rng::new(seed);
    let client_seeds: Vec<u64> = (0..THREADS).map(|_| seeds.next_u64()).collect();
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = client_seeds
            .iter()
            .map(|&s| {
                let (daemon, inputs) = (&daemon, &inputs);
                scope.spawn(move || client_loop(daemon, inputs, s, start, seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = results.iter().map(|r| r.1).fold(0.0, f64::max);
    let mut latencies = Vec::new();
    let mut per_kind = vec![Vec::new(); KINDS.len()];
    for (samples, _) in results {
        for (kind, latency, check) in samples {
            out.check(check);
            latencies.push(latency * 1e3);
            per_kind[kind].push(latency * 1e3);
        }
    }
    let rss = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's peak RSS")?;
    let stats = daemon.stats()?;
    daemon.shutdown()?;

    let latency = Summary::of(&latencies).ok_or("no request completed")?;
    let rate = latencies.len() as f64 / window;
    out.metrics = vec![
        Metric::median("setup_s", "s", Summary::of(&setup).expect("set-up ran"))
            .alias("serve_mixed.setup_s"),
        Metric::single("throughput_per_s", "1/s", rate).alias("serve_mixed.requests_per_s"),
        Metric::single("peak_rss_mb", "MB", rss).alias("serve_mixed.peak_rss_mb"),
    ];
    out.note(Metric::median(P50, "ms", latency).line());
    out.note(match tail_percentile(&latencies, 99.0) {
        Some(p99) => format!(
            "  serve_mixed.latency_p99_ms {p99:.6} ms (n={})",
            latencies.len()
        ),
        None => format!(
            "  serve_mixed.latency_p99_ms not reported: fewer than 10 of {} samples lie beyond p99",
            latencies.len()
        ),
    });
    for (kind, samples) in KINDS.iter().zip(&per_kind) {
        if let Some(s) = Summary::of(samples) {
            out.note(format!(
                "  serve_mixed latency of {:<13} median {:.3} ms (n={}, q1 {:.3}, q3 {:.3})",
                kind.spec, s.median, s.n, s.q1, s.q3
            ));
        }
    }
    out.note(format!(
        "  serve_mixed: {} clients x {} s; {} timed requests; daemon table hit ratio {:.4}, {} \
         jobs run, {} failed",
        THREADS,
        seconds,
        latencies.len(),
        stats.table_hit_ratio().unwrap_or(0.0),
        stats.jobs_run,
        stats.jobs_failed
    ));
    Ok(out)
}

/// The traced section: macro calibration, spec parsing, direct
/// `run_scenario_with` on a warm context (untraced and traced), the
/// Monte-Carlo task accuracy of each `dse_accuracy` design, and served
/// latency on one connection for the serve overhead and table hit ratio.
pub fn trace(
    bin: &Path,
    root: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let inputs = load_inputs(root)?;
    let section = tracer.span("section.serve_mixed", None, 0, |root| {
        traced_calls(bin, &inputs, tracer, root, out).map(|calls| (root, calls))
    });
    let (section, (direct_untraced, direct_traced, stats)) = section?;

    let agg = by_name(&tracer.spans(), section);
    let med = |name: &str| -> Result<Summary, Box<dyn Error>> {
        let s = agg.get(name).ok_or_else(|| format!("no `{name}` span"))?;
        Ok(Summary::of(&s.durations_ms).expect("a span was recorded"))
    };
    let mut overhead = Vec::new();
    for kind in &KINDS {
        out.metrics.push(
            Metric::median(
                format!("spec.parse_ms.{}", kind.spec),
                "ms",
                med(&format!("spec.parse.{}", kind.spec))?,
            )
            .moves(P50),
        );
        let direct = med(&format!("cli.run_scenario.{}", kind.spec))?;
        out.metrics.push(
            Metric::median(format!("cli.run_scenario_ms.{}", kind.spec), "ms", direct)
                .moves("serve_mixed.latency_p50_ms, latency_p99_ms"),
        );
        let (direct, served) = (
            direct.median,
            med(&format!("cli.served.{}", kind.spec))?.median,
        );
        out.note(format!(
            "  serve_mixed: {:<13} served {served:.3} ms, direct {direct:.3} ms (medians of {TRACE_REPS})",
            kind.spec
        ));
        overhead.push(served - direct);
    }
    out.metrics.extend([
        Metric::single(
            "cli.serve_overhead_ms",
            "ms",
            // The median over kinds: the heavy kinds' run-to-run noise is
            // larger than the framing cost being measured.
            median(&overhead).expect("five kinds"),
        )
        .moves(P50),
        Metric::median(
            "macros.calibrate_ms.macro_a",
            "ms",
            med("macros.calibrate.macro_a")?,
        )
        .moves(CALIBRATION_MOVES),
        Metric::median(
            "macros.calibrate_ms.macro_c",
            "ms",
            med("macros.calibrate.macro_c")?,
        )
        .moves(CALIBRATION_MOVES),
        Metric::median("sim.mc_workload_ms", "ms", med("sim.mc_workload")?).moves(P50),
        Metric::single(
            "core.table_hit_ratio",
            "ratio",
            stats
                .table_hit_ratio()
                .ok_or("the daemon looked up no table")?,
        )
        .moves("serve_mixed.requests_per_s"),
    ]);
    out.note(format!(
        "  serve_mixed: direct pass traced {:.3} ms - untraced {:.3} ms = tracing overhead {:.3} ms",
        direct_traced * 1e3,
        direct_untraced * 1e3,
        (direct_traced - direct_untraced) * 1e3
    ));
    Ok(())
}

/// The calls of [`trace`], under the section span `root`. Returns the
/// median untraced and traced direct-pass wall times and the daemon's
/// `STATS` after the served passes.
fn traced_calls(
    bin: &Path,
    inputs: &Inputs,
    tracer: &Tracer,
    root: u64,
    out: &mut Outcome,
) -> Result<(f64, f64, ServeStats), Box<dyn Error>> {
    for r in 0..TRACE_REPS as u64 {
        tracer.span("macros.calibrate.macro_a", Some(root), r, |_| {
            macro_a().frozen()
        })?;
        tracer.span("macros.calibrate.macro_c", Some(root), r, |_| {
            macro_c().frozen()
        })?;
    }

    let mut docs = Vec::new();
    for (k, kind) in KINDS.iter().enumerate() {
        let name = format!("spec.parse.{}", kind.spec);
        let mut doc = None;
        for r in 0..PARSE_REPS as u64 {
            doc = Some(tracer.span(&name, Some(root), r, |_| {
                ScenarioDoc::parse(&inputs.specs[k])
            })?);
        }
        docs.push(doc.expect("PARSE_REPS > 0"));
    }

    // Direct calls on one warm context: the served path minus framing
    // and queueing.
    let ctx = RunContext::new();
    let direct = |t: &Tracer, pass: u64, out: &mut Outcome| {
        let start = Instant::now();
        for (k, kind) in KINDS.iter().enumerate() {
            let name = format!("cli.run_scenario.{}", kind.spec);
            let table = t.span(&name, Some(root), pass, |_| {
                run_scenario_with(&docs[k], &ctx)
            });
            out.check(match table {
                Ok(table) => check_golden(
                    kind.table,
                    &inputs.goldens[k],
                    table.name(),
                    table.to_tsv().as_bytes(),
                ),
                Err(e) => Err(format!("{}: {e}", kind.spec)),
            });
        }
        start.elapsed().as_secs_f64()
    };
    let off = Tracer::new(false);
    direct(&off, 0, out);
    let untraced: Vec<f64> = (0..TRACE_REPS as u64)
        .map(|p| direct(&off, p, out))
        .collect();
    let traced: Vec<f64> = (0..TRACE_REPS as u64)
        .map(|p| direct(tracer, p, out))
        .collect();

    let doc = &docs[DSE_ACCURACY];
    let mut space = DesignSpace::new();
    for (i, arch) in doc.architectures().iter().enumerate() {
        let name = arch
            .settings
            .str("name")
            .map_or(format!("design{i}"), str::to_owned);
        space = space.variant(name, resolve::architecture(doc, arch)?);
    }
    if let Some(section) = doc.section("Space") {
        space = space.with_section(section)?;
    }
    let net = resolve::workload(doc)?;
    for p in space.designs() {
        let run = tracer.span("sim.mc_workload", Some(root), p.id(), |_| {
            mc_workload(p.cim_macro(), &net, &McConfig::new(TASK_ACCURACY_TRIALS))
        })?;
        out.check(if (0.0..=1.0).contains(&run.task_accuracy) {
            Ok(())
        } else {
            Err(format!(
                "task accuracy {} outside [0, 1]",
                run.task_accuracy
            ))
        });
    }

    let daemon = Daemon::spawn(bin)?;
    warm(&daemon, inputs, out)?;
    let mut client = daemon.connect()?;
    for r in 0..TRACE_REPS as u64 {
        for (k, kind) in KINDS.iter().enumerate() {
            let name = format!("cli.served.{}", kind.spec);
            let check = tracer.span(&name, Some(root), r, |_| request(&mut client, inputs, k));
            out.check(check);
        }
    }
    drop(client);
    let stats = daemon.stats()?;
    daemon.shutdown()?;
    Ok((
        median(&untraced).expect("TRACE_REPS > 0"),
        median(&traced).expect("TRACE_REPS > 0"),
        stats,
    ))
}

//! The CiMLoop workspace benchmark: host time of four workloads, end to
//! end (`--trace 0`) or broken down per layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <cold_resnet18|cold_vit_repeated|dse_staged|serve_mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1> --cimloop <path to the cimloop binary>
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds both binaries first.
//! Every run checks every output it times; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod cold;
mod dse;
mod measure;
mod report;
mod serve;
mod trace;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cold::Net;
use report::Outcome;
use trace::Tracer;

/// Worker threads and client connections: the benchmark host has two
/// cores.
pub const THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 4] = [
    "cold_resnet18",
    "cold_vit_repeated",
    "dse_staged",
    "serve_mixed",
];

const USAGE: &str = "usage: perfbench --workload <cold_resnet18|cold_vit_repeated|dse_staged|\
serve_mixed|all> --seed <n> --seconds <s> --trace <0|1> --cimloop <path>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cimloop: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cimloop = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--cimloop" => cimloop = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cimloop: cimloop.ok_or("--cimloop is required")?,
    })
}

/// The untraced run of one workload.
fn run_workload(args: &Args, root: &Path) -> Result<Outcome, Box<dyn Error>> {
    match args.workload.as_str() {
        "cold_resnet18" => cold::run(Net::Resnet18, args.seed, args.seconds),
        "cold_vit_repeated" => cold::run(Net::VitRepeated, args.seed, args.seconds),
        "dse_staged" => dse::run(args.seconds),
        "serve_mixed" => serve::run(&args.cimloop, root, args.seed, args.seconds),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// The traced run: every workload's section, so that each per-layer
/// metric is measured on the workload it belongs to, whichever workload
/// was named. Spans go to one JSON file under the build directory. The
/// serve section runs first: its direct calls are compared with the
/// daemon's, and they should not run on a heap the larger sections have
/// already churned.
fn run_traced(args: &Args, root: &Path) -> Result<Outcome, Box<dyn Error>> {
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    serve::trace(&args.cimloop, root, &tracer, &mut out)?;
    dse::trace(&tracer, &mut out)?;
    let model = cold::build_model()?;
    cold::trace(Net::Resnet18, &model, args.seed, &tracer, &mut out)?;
    cold::trace(Net::VitRepeated, &model, args.seed, &tracer, &mut out)?;

    let spans = tracer.spans();
    out.note(format!(
        "  {} spans; self time by span name (ms):",
        spans.len()
    ));
    for root_span in spans.iter().filter(|s| s.parent.is_none()) {
        for (name, s) in trace::by_name(&spans, root_span.id) {
            out.note(format!(
                "    {:<28} {:<36} calls {:>6}  total {:>12.3}  self {:>12.3}",
                root_span.name,
                name,
                s.calls,
                s.total_ms(),
                s.self_ms()
            ));
        }
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let path = target
        .join("perfbench-trace")
        .join(format!("{}-seed{}.json", args.workload, args.seed));
    tracer.write_json(&path)?;
    out.note(format!("  spans written to {}", path.display()));
    Ok(out)
}

/// `--workload all`: each workload in its own child process, one after
/// the other, so that each reports its own peak memory.
fn run_all(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        child_args[at + 1] = w.to_owned();
        let status = Command::new(&exe).args(&child_args).status()?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        });
    }
    // Specs and goldens are read relative to the checkout root, which is
    // where the benchmark runs from.
    let root = PathBuf::from(".");
    println!(
        "perfbench workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS
    );
    let result = if args.trace {
        run_traced(&args, &root)
    } else {
        run_workload(&args, &root)
    };
    match result {
        Ok(out) => {
            for m in &out.metrics {
                println!("{}", m.line());
            }
            for note in &out.notes {
                println!("{note}");
            }
            println!(
                "  {}.failed_frac {} (failed {} of {} checked operations)",
                args.workload,
                out.tally.failed_frac().unwrap_or(1.0),
                out.tally.failed,
                out.tally.attempted
            );
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

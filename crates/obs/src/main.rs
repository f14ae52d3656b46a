//! `btgs-obs` — export observability artifacts from the scatternet engine.
//!
//! ```text
//! cargo run --release -p btgs-obs -- --trace chain --out trace.json \
//!     [--telemetry telemetry.json] [--threads N] [--seconds N] [--fine]
//! ```
//!
//! `--trace` runs one sanitizer-corpus scenario (`chain`, `ring` or
//! `mesh`) with the deterministic trace layer on and writes a
//! Chrome/Perfetto-loadable trace JSON (`chrome://tracing` or
//! <https://ui.perfetto.dev>); `--telemetry` additionally writes the
//! engine [`TelemetryReport`](btgs_piconet::TelemetryReport) as JSON
//! (the grid wire encoding).

#![forbid(unsafe_code)]

use btgs_core::{sanitizer_corpus, PollerKind, ScatternetScenario};
use btgs_des::SimTime;
use btgs_obs::perfetto_trace_json;
use btgs_piconet::ObsConfig;
use std::process::ExitCode;

const USAGE: &str = "usage: btgs-obs --trace {chain|ring|mesh} --out PATH \
                     [--telemetry PATH] [--threads N] [--seconds N] [--fine]";

struct Args {
    trace: Option<String>,
    out: Option<String>,
    telemetry: Option<String>,
    threads: usize,
    seconds: u64,
    fine: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: None,
        out: None,
        telemetry: None,
        threads: 1,
        seconds: 2,
        fine: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--trace" => args.trace = Some(value("--trace")?),
            "--out" => args.out = Some(value("--out")?),
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--fine" => args.fine = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.trace.is_none() {
        return Err(format!("--trace is required\n{USAGE}"));
    }
    Ok(args)
}

fn run_trace(args: &Args) -> Result<(), String> {
    let label = args.trace.as_deref().expect("checked by parse_args");
    let out = args
        .out
        .as_deref()
        .ok_or_else(|| format!("--trace needs --out PATH\n{USAGE}"))?;
    let (_, params) = sanitizer_corpus()
        .into_iter()
        .find(|(l, _)| *l == label)
        .ok_or_else(|| format!("unknown corpus scenario {label} (chain|ring|mesh)"))?;
    let piconets = params.piconets as usize;
    let sim = ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .map_err(|e| format!("building {label}: {e}"))?
        .with_threads(args.threads);
    let cfg = ObsConfig {
        fine_events: args.fine,
        ..ObsConfig::default()
    };
    let run = sim
        .run_observed(SimTime::from_secs(args.seconds), cfg)
        .map_err(|e| format!("running {label}: {e}"))?;

    let json = perfetto_trace_json(&run.trace, piconets);
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "{label}: {} trace records ({} dropped), {} events -> {out}",
        run.trace.records.len(),
        run.trace.dropped,
        run.report.events_processed,
    );
    if let Some(path) = args.telemetry.as_deref() {
        let json = btgs_grid::wire::telemetry_to_json(&run.telemetry);
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{label}: telemetry -> {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run_trace(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

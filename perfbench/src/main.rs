//! The CoIC benchmark.
//!
//! `coic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Workloads: `ar_recognition` and `arena_models` (live loopback cloud
//! and edge under open-loop traffic) and `paper_figures` (the
//! simulator's reduced Fig 2a/2b grids). With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it runs the traced pass and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object, and the process exits non-zero when any
//! output check failed.

mod figures;
mod live;
mod report;
#[cfg(test)]
mod selftest;
mod trace;
mod workloads;

use workloads::LiveKind;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Run one workload.
fn run(args: &Args) -> Result<report::Outcome, String> {
    let live = match args.workload.as_str() {
        "ar_recognition" => LiveKind::ArRecognition,
        "arena_models" => LiveKind::ArenaModels,
        "paper_figures" if args.trace => {
            return Ok(figures::run_traced(&figures::GRID, args.seed, args.seconds))
        }
        "paper_figures" => return Ok(figures::run_e2e(&figures::GRID, args.seed, args.seconds)),
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(if args.trace {
        trace::run_live(live, args.seed, args.seconds)
    } else {
        live::run_e2e(live, args.seed, args.seconds)
    })
}

fn main() {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            outcome.print_table("metrics");
            println!("{}", outcome.json_line());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("coic-perfbench: {e}");
            eprintln!(
                "usage: coic-perfbench --workload <ar_recognition|arena_models|paper_figures> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    }
}

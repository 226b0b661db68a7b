//! # coic-cli
//!
//! Command-line front end for the CoIC reproduction. Subcommands:
//!
//! ```text
//! coic trace gen   --app safedriving|arena|vrvideo|flashcrowd --out trace.csv [...]
//! coic trace info  --in trace.csv
//! coic sim         --in trace.csv [--mode coic|origin] [network flags]
//!                  [--trace-out t.jsonl] [--metrics-out m.txt]
//! coic live        --in trace.csv [--seed N] [--driver threads|evloop]
//!                  [--trace-out t.jsonl] [--metrics-out m.txt]
//! coic compare     --in trace.csv [network flags]
//! coic obs report  [--trace t.jsonl] [--metrics m.txt]
//! coic model gen   --size-bytes N --seed N --out model.cmf
//! coic model info  --in model.cmf
//! coic model render --in model.cmf --out render.pgm [--size 256]
//! coic hash        --in any-file
//! coic pano gen    --frame N --out pano.pgm [--height 256]
//! coic pano crop   --frame N --yaw R --pitch R --out view.pgm
//! coic bench       [--quick] [--seed N] [--runs N] [--out BENCH_edge.json]
//! coic bench --load [--load-clients N] [--conns N,N,..] [--out BENCH_live.json]
//! coic lint        [--root DIR] [--rules FILE]
//! coic analyze trace --trace t.jsonl --metrics m.txt [--invariants FILE]
//! ```
//!
//! All subcommand logic lives in this library so it is unit-testable; the
//! binary is a thin `main`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};

/// Top-level dispatch: returns the text to print, or an error message.
pub fn run(raw: Vec<String>) -> Result<String, String> {
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(USAGE.to_string());
    }
    // Boolean switches are declared per subcommand (every other flag
    // takes a value, and `--flag` with no value stays an error there).
    let switches: &[&str] = match raw.first().map(String::as_str) {
        Some("bench") => &["quick", "load"],
        _ => &[],
    };
    let args = Args::parse_with_switches(raw, switches).map_err(|e| e.to_string())?;
    if let Some(flags) = accepted_flags(&args.command.join(" ")) {
        args.reject_unknown(&flags).map_err(|e| e.to_string())?;
    }
    let cmd: Vec<&str> = args.command.iter().map(|s| s.as_str()).collect();
    match cmd.as_slice() {
        ["trace", "gen"] => commands::trace_gen(&args),
        ["trace", "info"] => commands::trace_info(&args),
        ["sim"] => commands::sim(&args),
        ["live"] => commands::live(&args),
        ["compare"] => commands::compare(&args),
        ["obs", "report"] => commands::obs_report(&args),
        ["model", "gen"] => commands::model_gen(&args),
        ["model", "info"] => commands::model_info(&args),
        ["model", "render"] => commands::model_render(&args),
        ["hash"] => commands::hash(&args),
        ["pano", "gen"] => commands::pano_gen(&args),
        ["pano", "crop"] => commands::pano_crop(&args),
        ["bench"] => commands::bench(&args),
        ["lint"] => commands::lint(&args),
        ["analyze", "trace"] => commands::analyze_trace(&args),
        [] | ["help"] => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {:?}\n\n{USAGE}", other.join(" ")).into()),
    }
    .map_err(|e: Box<dyn std::error::Error>| e.to_string())
}

/// `USAGE` blocks, one per command line: the header's command words (a
/// `coic a|b` header names both `a` and `b`) and the text of the block.
fn usage_blocks() -> Vec<(Vec<String>, String)> {
    let mut blocks: Vec<(Vec<String>, String)> = Vec::new();
    for line in USAGE.lines() {
        if let Some(rest) = line.strip_prefix("  coic ") {
            let words: Vec<&str> = rest
                .split_whitespace()
                .take_while(|w| !w.starts_with(['-', '[']))
                .collect();
            let names = words.join(" ").split('|').map(String::from).collect();
            blocks.push((names, String::new()));
        }
        if let Some((_, text)) = blocks.last_mut() {
            text.push_str(line);
        }
    }
    blocks
}

/// The flags (switches included) `coic <command>` accepts: every `--flag`
/// in its `USAGE` blocks, so `USAGE` is the one list of them. `None` for
/// an unknown command. The dispatcher rejects every other flag.
fn accepted_flags(command: &str) -> Option<Vec<String>> {
    let blocks: Vec<String> = usage_blocks()
        .into_iter()
        .filter(|(names, _)| names.iter().any(|n| n == command))
        .map(|(_, text)| text)
        .collect();
    let flags = blocks.iter().flat_map(|text| {
        text.split("--").skip(1).map(|f| {
            f.chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect()
        })
    });
    (!blocks.is_empty()).then(|| flags.collect())
}

/// Usage text. A block headed `coic a|b` lists flags both commands take.
pub const USAGE: &str = "\
coic — cooperative edge caching for mobile immersive computing

USAGE:
  coic trace gen    --app safedriving|arena|vrvideo|flashcrowd --out FILE
                    [--users N] [--requests N] [--seed N] [--zipf S]
                    [--pool N] [--model-kb N] [--frames N]
                    [--rate X] [--burst-x X] [--burst-start-ms N]
                    [--burst-ms N] [--hot N] [--horizon-ms N]
                    [--zones N] [--shared F] [--models N]
                    [--skew-frames N] [--stagger-ms N]
  coic trace info   --in FILE
  coic sim|compare  --in FILE [--mode coic|origin] [--access-mbps X]
                    [--wan-mbps X] [--clients N] [--edges N]
                    [--peer-fanout K] [--replicate N]
                    [--prefetch N] [--seed N]
                    [--index linear|lsh|mp-lsh] [--threshold X]
                    [--origin-fallback 0|1] [--open-loop 0|1]
                    [--lookup-ms N] [--admission N]
                    [--admission-aimd 0|1] [--admission-queue N]
                    [--admission-age-ms N] [--latency-target-ms N]
                    [--retry-after-ms N] [--brownout 0|1]
                    [--edge-down MS@EDGE[,MS@EDGE...]]
  coic sim          [--canonical 0|1] [--trace-out FILE] [--metrics-out FILE]
  coic live         --in FILE [--seed N] [--driver threads|evloop]
                    [--index linear|lsh|mp-lsh]
                    [--trace-out FILE] [--metrics-out FILE]
  coic obs report   [--trace FILE] [--metrics FILE]
  coic model gen    --size-bytes N --out FILE [--seed N]
  coic model info   --in FILE
  coic model render --in FILE --out FILE.pgm [--size N]
  coic hash         --in FILE
  coic pano gen     --frame N --out FILE.pgm [--height N]
  coic pano crop    --frame N --yaw R --pitch R --out FILE.pgm
                    [--fov R] [--width N] [--height N]
  coic bench        [--quick] [--seed N] [--runs N] [--out BENCH_edge.json]
                    [--trace-out FILE] [--metrics-out FILE]
                    (thread grid: 1/4/16, matching EXPERIMENTS.md)
  coic bench --load [--load-clients N] [--load-reqs N] [--conns N,N,...]
                    [--drivers threads,evloop] [--seed N]
                    [--out BENCH_live.json] [--ledger-out FILE]
                    (live-scale harness: N simulated clients multiplexed
                     over each connection-pool size, per IO driver)
  coic lint         [--root DIR] [--rules FILE]
  coic analyze trace --trace FILE --metrics FILE
                    [--invariants FILE] [--root DIR]";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The flags a command's handler in `commands.rs` reads through
    /// `args.get/num/require/num_required/switch`, following the helpers
    /// it passes `args` to.
    fn read_flags(handler: &str) -> BTreeSet<String> {
        let src = include_str!("commands.rs");
        let src = &src[..src.find("#[cfg(test)]").unwrap_or(src.len())];
        let mut bodies: Vec<(String, String)> = Vec::new();
        for chunk in src
            .split("\nfn ")
            .flat_map(|c| c.split("\npub fn "))
            .skip(1)
        {
            let name: String = chunk.chars().take_while(|&c| c != '(').collect();
            let flat: String = chunk.chars().filter(|c| !c.is_whitespace()).collect();
            bodies.push((name, flat));
        }
        let mut todo = vec![handler.to_string()];
        let mut seen = BTreeSet::new();
        let mut flags = BTreeSet::new();
        while let Some(f) = todo.pop() {
            let Some((_, body)) = bodies.iter().find(|(n, _)| *n == f) else {
                panic!("no fn {f} in commands.rs");
            };
            if !seen.insert(f) {
                continue;
            }
            for m in ["get", "num", "require", "num_required", "switch"] {
                for rest in body.split(&format!("args.{m}(\"")).skip(1) {
                    flags.insert(rest[..rest.find('"').expect("closing quote")].to_string());
                }
            }
            for (callee, _) in &bodies {
                if body.contains(&format!("{callee}(args")) {
                    todo.push(callee.clone());
                }
            }
        }
        flags
    }

    #[test]
    fn every_flag_a_command_reads_is_in_its_usage_block() {
        let commands: BTreeSet<String> = usage_blocks().into_iter().flat_map(|(n, _)| n).collect();
        assert_eq!(commands.len(), 15, "{commands:?}");
        for command in commands {
            let accepted: BTreeSet<String> = accepted_flags(&command)
                .expect("a USAGE command")
                .into_iter()
                .collect();
            let read = read_flags(&command.replace(' ', "_"));
            assert_eq!(
                read, accepted,
                "flags `coic {command}` reads vs its USAGE block"
            );
        }
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let run_with = |line: &str| run(line.split_whitespace().map(String::from).collect());
        for (line, flag) in [
            ("sim --in a.csv --edges 2 --peer-lokup 1", "--peer-lokup"),
            ("sim --in a.csv --edges 2 --peer-lookup 1", "--peer-lookup"),
            ("compare --in a.csv --canonical 1", "--canonical"),
            ("bench --quick --bogus 3", "--bogus"),
        ] {
            let err = run_with(line).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag {flag}")),
                "{line}: {err}"
            );
        }
        assert!(run_with("trace info --in /nonexistent/x.csv")
            .unwrap_err()
            .contains("No such file"));
    }
}

//! Self-test of the benchmark: every workload at tiny size, in both
//! modes, must finish without an error and print every metric that
//! `BENCHMARK.json` names; and a flipped byte of expected content must
//! be caught.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::figures::{self, Grid};
use crate::live::{self, open_loop, Class, Env};
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::trace;
use crate::workloads::{Expect, LiveKind};
use bytes::Bytes;
use coic_obs::Telemetry;

/// One Fig 2a cell of 20 requests and one Fig 2b cell of 100 kB models.
const TINY_GRID: Grid = Grid {
    fig2a_cells: &[7],
    fig2a_requests: 20,
    fig2b_sizes: &[100_000],
};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/")
}

/// The run passed every check and its result line carries every metric
/// of its list, each also named in `BENCHMARK.json`.
fn assert_complete(name: &str, out: &Outcome) {
    assert!(out.correct, "{name}: output check failed");
    assert_eq!(out.failed, 0, "{name}: failed requests");
    assert!(out.attempted > 0, "{name}: nothing attempted");
    let line = out.json_line();
    let spec = benchmark_json();
    for (metric, unit) in out.names {
        assert!(
            line.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{name}: {metric} missing from {line}"
        );
        assert!(
            spec.contains(&format!("\"name\": \"{metric}\", \"unit\": \"{unit}\"")),
            "{name}: {metric} ({unit}) not declared in BENCHMARK.json"
        );
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let spec = benchmark_json();
    let declared = spec.matches("\"name\": ").count();
    // Workload names plus every metric.
    assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn live_workloads_run_clean_and_report_every_metric() {
    for kind in [LiveKind::ArRecognition, LiveKind::ArenaModels] {
        assert_complete(kind.name(), &live::run_e2e(kind, 7, 0.6));
        assert_complete(kind.name(), &trace::run_live(kind, 7, 0.6));
    }
}

#[test]
fn paper_figures_runs_clean_and_reports_every_metric() {
    assert_complete("paper_figures", &figures::run_e2e(&TINY_GRID, 7, 0.1));
    assert_complete("paper_figures", &figures::run_traced(&TINY_GRID, 7, 0.1));
}

#[test]
fn a_flipped_content_byte_is_an_error() {
    let mut stream = LiveKind::ArenaModels.generate(7, 0.3);
    let victim = stream.requests.len() / 2;
    let Expect::Model(bytes) = &stream.requests[victim].expect else {
        panic!("arena requests expect model bytes");
    };
    let mut flipped = bytes.to_vec();
    let at = flipped.len() / 3;
    flipped[at] ^= 0x01;
    stream.requests[victim].expect = Expect::Model(Bytes::from(flipped));

    let mut env = Env::spawn(&stream, 7, Telemetry::disabled());
    let open = open_loop(&mut env, &stream.requests, false, None);
    assert_eq!(open.recs[victim].class, Class::Wrong);
    assert_eq!(open.failed(), 1, "only the flipped request fails");
}

//! The `paper_figures` workload: a reduced Fig 2a grid (network
//! conditions) and Fig 2b grid (model sizes), each cell run under origin
//! and CoIC through `simrun::compare`.
//!
//! It is the only workload that runs the simulator (`simrun`,
//! `netsim::sim`/`link`, `services::EdgeService`). Its wall time goes to
//! SHA-256, CMF encode and SimNet; its modelled reductions are
//! deterministic for a given seed, which the run checks by repeating
//! every cell.

use crate::report::{
    median, p50_p95, rss_growth_mb, status_kb, us, Outcome, END_TO_END, PER_LAYER,
};
use crate::trace::{write_spans, Span};
use coic_bench::{base_config, fig2a_trace, render_trace, FIG2A_CONDITIONS};
use coic_core::simrun::{compare, SimConfig};
use coic_core::ModelLibrary;
use coic_vision::{ObjectClass, SceneGenerator, SimNet, ViewParams};
use coic_workload::{Request, RequestKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// The grid a run sweeps.
pub struct Grid {
    /// Fig 2a cells: indices into `FIG2A_CONDITIONS`.
    pub(crate) fig2a_cells: &'static [usize],
    /// Recognition requests per Fig 2a cell.
    pub(crate) fig2a_requests: usize,
    /// Fig 2b model sizes, bytes.
    pub(crate) fig2b_sizes: &'static [u64],
}

/// The benchmark's grid: the fastest and slowest WAN at 400 Mbit/s
/// access plus the slowest pair overall (the full figure has 8
/// conditions), at 600 requests a cell (the figure uses 200; more
/// requests steady the reduction across seeds); and the 1, 2 and 4 MB
/// models of the full 1–64 MB sweep.
pub const GRID: Grid = Grid {
    fig2a_cells: &[0, 3, 7],
    fig2a_requests: 600,
    fig2b_sizes: &[1_000_000, 2_000_000, 4_000_000],
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Requests in the warm-up simulation that ends each set-up.
const WARMUP_REQUESTS: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fig {
    A,
    B,
}

/// One grid cell: a trace under one configuration.
struct Cell {
    fig: Fig,
    trace: Vec<Request>,
    cfg: SimConfig,
}

/// What one run of a cell produced: the numbers that must repeat
/// exactly, plus its wall time.
#[derive(Clone, Copy, PartialEq)]
struct CellResult {
    reduction_bits: u64,
    coic_hits: u64,
    coic_cloud_trips: u64,
    coic_completed: usize,
    origin_completed: usize,
    failed: u64,
    accuracy_bits: Option<u64>,
}

fn build_cells(grid: &Grid, seed: u64) -> Vec<Cell> {
    let trace = fig2a_trace(grid.fig2a_requests, seed);
    let mut cells: Vec<Cell> = grid
        .fig2a_cells
        .iter()
        .map(|&i| Cell {
            fig: Fig::A,
            trace: trace.clone(),
            cfg: FIG2A_CONDITIONS[i].apply(&base_config()),
        })
        .collect();
    for &size in grid.fig2b_sizes {
        let mut cfg = base_config();
        cfg.num_clients = 1;
        cells.push(Cell {
            fig: Fig::B,
            trace: render_trace(1, 8, size, 48, seed.wrapping_add(size / 1_000_000)),
            cfg,
        });
    }
    cells
}

fn distinct_keys(trace: &[Request]) -> usize {
    trace
        .iter()
        .map(|r| match r.kind {
            RequestKind::Recognition { class, .. } => class as u64,
            RequestKind::RenderLoad { model_id, .. } => model_id,
            RequestKind::Panorama { frame_id } => frame_id,
        })
        .collect::<HashSet<u64>>()
        .len()
}

/// Run one cell, returning its result and wall seconds.
fn run_cell(cell: &Cell) -> (CellResult, f64) {
    let t = Instant::now();
    let (origin, coic, reduction) = compare(&cell.trace, &cell.cfg);
    let secs = t.elapsed().as_secs_f64();
    (
        CellResult {
            reduction_bits: reduction.to_bits(),
            coic_hits: coic.edge_hits + coic.peer_hits,
            coic_cloud_trips: coic.cloud_trips,
            coic_completed: coic.completed,
            origin_completed: origin.completed,
            failed: origin.failed + coic.failed,
            accuracy_bits: coic.accuracy.map(f64::to_bits),
        },
        secs,
    )
}

/// Every cell of the grid, in passes: at least two, so each cell's
/// determinism is checked, and more while another pass fits in `secs`.
struct Passes {
    /// Per cell, the first pass's result.
    first: Vec<CellResult>,
    /// Wall seconds of each pass over the whole grid.
    pass_secs: Vec<f64>,
    /// Simulated requests (origin and CoIC legs) per wall second.
    req_per_s: f64,
    /// Cells whose outputs failed a check, and cells run.
    failed: u64,
    attempted: u64,
}

fn run_passes(cells: &[Cell], secs: f64, mut spans: Option<&mut Vec<Span>>) -> Passes {
    let start = Instant::now();
    let mut first: Vec<CellResult> = Vec::new();
    let mut pass_secs: Vec<f64> = Vec::new();
    let (mut simulated, mut failed, mut attempted) = (0u64, 0u64, 0u64);
    while pass_secs.len() < 2
        || start.elapsed().as_secs_f64() + pass_secs.last().copied().unwrap_or(0.0) <= secs
    {
        let pass_start = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            let began = start.elapsed().as_nanos() as u64;
            let (result, took) = run_cell(cell);
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(Span {
                    name: "sim.cell",
                    req: i as u64,
                    parent: None,
                    start_ns: began,
                    end_ns: began + (took * 1e9) as u64,
                });
            }
            let n = cell.trace.len();
            let ok = result.coic_completed == n
                && result.origin_completed == n
                && result.failed == 0
                && f64::from_bits(result.reduction_bits).is_finite()
                && first.get(i).is_none_or(|f| *f == result);
            if pass_secs.is_empty() {
                first.push(result);
            }
            failed += u64::from(!ok);
            attempted += 1;
            simulated += 2 * n as u64;
        }
        pass_secs.push(pass_start.elapsed().as_secs_f64());
    }
    Passes {
        first,
        pass_secs,
        req_per_s: simulated as f64 / start.elapsed().as_secs_f64(),
        failed,
        attempted,
    }
}

/// A small simulation run before measuring, so page faults and first-use
/// costs land in set-up.
fn warm_up(seed: u64) {
    let trace = fig2a_trace(WARMUP_REQUESTS, seed.wrapping_add(1));
    std::hint::black_box(compare(&trace, &base_config()));
}

/// The end-to-end run.
pub fn run_e2e(grid: &Grid, seed: u64, secs: f64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cells = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        cells = build_cells(grid, seed);
        warm_up(seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    let baseline_kb = status_kb("VmRSS");
    let passes = run_passes(&cells, secs, None);
    let rss_mb = rss_growth_mb(baseline_kb);

    let max_reduction = |fig: Fig| {
        cells
            .iter()
            .zip(&passes.first)
            .filter(|(c, _)| c.fig == fig)
            .map(|(_, r)| f64::from_bits(r.reduction_bits))
            .fold(f64::MIN, f64::max)
    };
    let hits: u64 = passes.first.iter().map(|r| r.coic_hits).sum();
    let trips: u64 = passes.first.iter().map(|r| r.coic_cloud_trips).sum();
    let keys: usize = cells.iter().map(|c| distinct_keys(&c.trace)).sum();
    let accuracies: Vec<f64> = passes
        .first
        .iter()
        .filter_map(|r| r.accuracy_bits.map(f64::from_bits))
        .collect();
    let mut pass_ms: Vec<f64> = passes.pass_secs.iter().map(|s| s * 1e3).collect();
    let (p50, p95) = p50_p95(&mut pass_ms);
    eprintln!(
        "paper_figures: {} cells × {} passes, {:.0} simulated req/s",
        cells.len(),
        passes.pass_secs.len(),
        passes.req_per_s
    );
    Outcome {
        correct: passes.failed == 0,
        attempted: passes.attempted,
        failed: passes.failed,
        values: vec![
            ("p50_ms", p50),
            ("p95_ms", p95),
            ("capacity_rps", passes.req_per_s),
            (
                "verified_ratio",
                (passes.attempted - passes.failed) as f64 / passes.attempted as f64,
            ),
            ("hit_ratio", hits as f64 / (hits + trips).max(1) as f64),
            ("cloud_fetches_per_key", trips as f64 / keys.max(1) as f64),
            (
                "recog_accuracy",
                accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64,
            ),
            ("rss_mb", rss_mb),
            ("setup_s", median(&mut setups)),
            ("sim_req_per_s", passes.req_per_s),
            ("fig2a_reduction_pct", max_reduction(Fig::A)),
            ("fig2b_reduction_pct", max_reduction(Fig::B)),
        ],
        names: &END_TO_END,
    }
}

/// The traced run: an untraced and a traced pass set of `secs / 2`
/// each, then the layers the simulator's wall time goes to, timed on
/// the grid's own inputs.
pub fn run_traced(grid: &Grid, seed: u64, secs: f64) -> Outcome {
    let cells = build_cells(grid, seed);
    warm_up(seed);
    let plain = run_passes(&cells, secs / 2.0, None);
    let mut spans = Vec::new();
    let traced = run_passes(&cells, secs / 2.0, Some(&mut spans));

    // Vision: the Fig 2a trace's camera frames, as the simulated client
    // prepares them.
    let gen = SceneGenerator::new(64);
    let net = SimNet::default_net();
    let (mut observe, mut extract) = (Vec::new(), Vec::new());
    for r in &cells[0].trace {
        if let RequestKind::Recognition { class, view_seed } = r.kind {
            let mut rng = StdRng::seed_from_u64(view_seed);
            let view = ViewParams::jittered(&mut rng, 0.08, 4.0);
            let t = Instant::now();
            let image = gen.observe(ObjectClass(class), &view, &mut rng);
            observe.push(us(t.elapsed()));
            let t = Instant::now();
            std::hint::black_box(net.extract(&image));
            extract.push(us(t.elapsed()));
        }
    }
    // Content: every Fig 2b model built on a cold library, then hashed.
    let library = ModelLibrary::new();
    let (mut build_ms, mut hashed, mut hash_secs) = (Vec::new(), 0usize, 0.0f64);
    for cell in cells.iter().filter(|c| c.fig == Fig::B) {
        let mut models: Vec<(u64, u64)> = cell
            .trace
            .iter()
            .filter_map(|r| match r.kind {
                RequestKind::RenderLoad {
                    model_id,
                    size_bytes,
                } => Some((model_id, size_bytes)),
                _ => None,
            })
            .collect();
        models.sort_unstable();
        models.dedup();
        for (id, size) in models {
            let t = Instant::now();
            let (bytes, _) = library.get(id, size);
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(coic_cache::Digest::of(&bytes));
            hash_secs += t.elapsed().as_secs_f64();
            hashed += bytes.len();
        }
    }
    write_spans(&format!("paper_figures-seed{seed}-spans.jsonl"), &spans, 1);
    let mut cell_s: Vec<f64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values: vec![
            ("sim.cell_s", median(&mut cell_s)),
            ("vision.observe_us", median(&mut observe)),
            ("vision.extract_us", median(&mut extract)),
            ("content.model_build_ms", median(&mut build_ms)),
            (
                "digest.sha256_mbps",
                hashed as f64 / 1e6 / hash_secs.max(1e-9),
            ),
            (
                "obs.overhead_pct",
                100.0 * (plain.req_per_s / traced.req_per_s - 1.0),
            ),
        ],
        names: &PER_LAYER,
    }
}

//! The `coic bench` performance harness.
//!
//! Three layers of measurement, emitted as one canonical `BENCH_edge.json`:
//!
//! 1. **Exact-cache microbenchmarks** — the sharded wrappers
//!    ([`coic_cache::sharded`]) against the single-mutex baseline
//!    ([`coic_cache::concurrent`]) on identical workloads: exact lookups
//!    over ~4 KiB payloads with a Zipf-skewed key stream, plus exact
//!    inserts, each at 1/4/16 threads. Lookups go through each wrapper's
//!    production read path: the mutex wrapper clones the payload under its
//!    lock, the sharded wrapper hands out an `Arc` from a shard read lock
//!    — that asymmetry *is* the design difference being measured.
//! 2. **Approx (descriptor) microbenchmarks** — the snapshot ANN index
//!    ([`coic_cache::snapshot`], `mp-lsh` family) against the
//!    mutex baseline (one [`ApproxCache`] behind a lock, `linear` and
//!    classic `lsh` indexes), on identical query streams:
//!    `approx_lookup/*` is read-only steady state, `approx_mixed/*`
//!    interleaves one fresh insert every [`INSERT_EVERY`] ops so the write
//!    side — journal appends and the periodic batch rebuild — is paid
//!    inside the timed region.
//! 3. **Loopback edge end-to-end** — a real [`spawn_edge`]/[`spawn_cloud`]
//!    pair with M concurrent [`NetClient`]s re-requesting a shared
//!    panorama pool; per-request wall latencies and the edge's merged
//!    cache hit ratio.
//!
//! Every cell reports p50/p95/p99 per-op nanoseconds, throughput and hit
//! ratio. Two derived ratios are machine-speed-independent (both sides of
//! each run on the same box in the same process) and regression-gated:
//! `speedup_sharded_vs_mutex` (exact lookups at the highest thread count)
//! and `speedup_snapshot_vs_mutex` (the default snapshot family over the
//! mutex LSH baseline). [`check_approx_gate`] additionally enforces the
//! snapshot-index acceptance claim per thread count — see DESIGN.md §14.
//!
//! [`spawn_edge`]: coic_core::netrun::spawn_edge
//! [`spawn_cloud`]: coic_core::netrun::spawn_cloud
//! [`NetClient`]: coic_core::netrun::NetClient

use crate::json::{self, num, obj, s, Json};
use coic_cache::approx::ApproxCache;
use coic_cache::{
    Digest, ExactCache, IndexKind, PolicyKind, ShardedExactCache, SharedApproxCache,
    SharedExactCache, SnapshotApproxCache, DEFAULT_REBUILD_BATCH,
};
use coic_core::compute::ComputeConfig;
use coic_core::content::{ModelLibrary, PanoLibrary};
use coic_core::netrun::{spawn_cloud, spawn_edge_with, NetClient, NetConfig};
use coic_core::services::{ClientConfig, EdgeConfig};
use coic_obs::Telemetry;
use coic_vision::{FeatureVec, ObjectClass};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Payload size for exact-cache cells: the ballpark of a small 3D model
/// or encoded panorama tile, big enough that cloning under a lock hurts.
const PAYLOAD_BYTES: usize = 4096;

/// Shards used by the sharded cells (the live default).
const BENCH_SHARDS: usize = coic_cache::DEFAULT_SHARDS;

/// One measured cell of the benchmark grid.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload label, e.g. `exact_lookup/sharded`.
    pub workload: String,
    /// NN index for approximate cells — `linear`/`lsh` for the mutex
    /// baseline, `mp-lsh` for the snapshot index — `-` otherwise.
    pub index: String,
    /// Concurrent worker threads (or clients, for the edge cell).
    pub threads: usize,
    /// Total operations measured.
    pub ops: u64,
    /// Median per-op latency, ns.
    pub p50_ns: u64,
    /// 95th percentile per-op latency, ns.
    pub p95_ns: u64,
    /// 99th percentile per-op latency, ns.
    pub p99_ns: u64,
    /// Operations per wall-clock second across all threads.
    pub throughput_ops_per_sec: f64,
    /// Fraction of lookups that hit (1.0 for insert-only cells).
    pub hit_ratio: f64,
}

/// A full benchmark run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema tag (`coic-bench/v1`).
    pub schema: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
    pub git_rev: String,
    /// Seed every random stream derives from.
    pub seed: u64,
    /// Whether this was a `--quick` run (smaller op counts).
    pub quick: bool,
    /// All measured cells.
    pub results: Vec<CellResult>,
    /// Exact-lookup throughput, sharded over mutex, at the highest thread
    /// count — the regression-gated number.
    pub speedup_sharded_vs_mutex: f64,
    /// Approx-lookup throughput at the highest thread count: the
    /// *default* snapshot ANN family (mp-lsh) over the mutex LSH
    /// baseline. Must stay above 1.0 or the snapshot refactor has lost
    /// its reason to exist.
    pub speedup_snapshot_vs_mutex: f64,
}

/// Thread counts each microbench cell sweeps.
pub const THREAD_STEPS: [usize; 3] = [1, 4, 16];

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Repetitions per microbench cell; the best (highest-throughput) one is
/// reported. External noise — scheduler preemption, a neighbouring VM —
/// only ever *subtracts* throughput, so best-of-N converges to the
/// machine's real capability and is far more run-to-run stable than any
/// single repetition.
const CELL_REPEATS: usize = 5;

/// Run `ops_per_thread` timed operations on each of `threads` workers,
/// [`CELL_REPEATS`] times, keeping the best repetition.
/// `op(thread_idx, i)` returns whether the operation counts as a hit.
fn run_cell<F>(
    workload: &str,
    index: &str,
    threads: usize,
    ops_per_thread: u64,
    op: F,
) -> CellResult
where
    F: Fn(usize, u64) -> bool + Sync,
{
    (0..CELL_REPEATS)
        .map(|_| measure_once(workload, index, threads, ops_per_thread, &op))
        .max_by(|a, b| {
            a.throughput_ops_per_sec
                .total_cmp(&b.throughput_ops_per_sec)
        })
        .expect("CELL_REPEATS > 0")
}

/// One timed repetition of a cell (percentiles over all per-op latencies).
fn measure_once<F>(
    workload: &str,
    index: &str,
    threads: usize,
    ops_per_thread: u64,
    op: F,
) -> CellResult
where
    F: Fn(usize, u64) -> bool + Sync,
{
    let started = Instant::now();
    let mut all_samples: Vec<u64> = Vec::with_capacity(threads * ops_per_thread as usize);
    let mut hits = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                scope.spawn(move || {
                    // Untimed warm-up: fault in pages, warm branch
                    // predictors and the allocator before measuring.
                    for i in 0..(ops_per_thread / 10).min(512) {
                        let _ = op(t, i);
                    }
                    let mut samples = Vec::with_capacity(ops_per_thread as usize);
                    let mut hits = 0u64;
                    for i in 0..ops_per_thread {
                        let t0 = Instant::now();
                        if op(t, i) {
                            hits += 1;
                        }
                        samples.push(t0.elapsed().as_nanos() as u64);
                    }
                    (samples, hits)
                })
            })
            .collect();
        for h in handles {
            let (samples, h_hits) = h.join().expect("bench worker panicked");
            all_samples.extend(samples);
            hits += h_hits;
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    all_samples.sort_unstable();
    let ops = all_samples.len() as u64;
    CellResult {
        workload: workload.to_string(),
        index: index.to_string(),
        threads,
        ops,
        p50_ns: percentile(&all_samples, 0.50),
        p95_ns: percentile(&all_samples, 0.95),
        p99_ns: percentile(&all_samples, 0.99),
        throughput_ops_per_sec: if elapsed > 0.0 {
            ops as f64 / elapsed
        } else {
            0.0
        },
        hit_ratio: if ops == 0 {
            0.0
        } else {
            hits as f64 / ops as f64
        },
    }
}

/// Zipf-flavoured key index in `0..n`: quadratic skew toward low indexes
/// (a cheap stand-in with the property that matters — a hot head and a
/// long tail), deterministic per thread/seed.
fn skewed_index(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.random();
    ((u * u) * n as f64) as usize
}

fn payload(tag: usize) -> Vec<u8> {
    vec![(tag % 251) as u8; PAYLOAD_BYTES]
}

fn key(tag: usize) -> Digest {
    Digest::of(&(tag as u64).to_le_bytes())
}

/// Per-thread Zipf-skewed probe digests, generated *before* the timed
/// region: the measured op must be only the cache call, not the RNG and
/// SHA-256 work of producing the probe. ~10% of probes target absent keys
/// so the miss path is exercised too.
fn probe_streams(seed: u64, threads: usize, ops: u64, n_keys: usize) -> Vec<Vec<Digest>> {
    (0..threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64) << 32));
            (0..ops)
                .map(|_| key(skewed_index(&mut rng, n_keys + n_keys / 8)))
                .collect()
        })
        .collect()
}

/// Exact-lookup cells: mutex baseline vs sharded, byte-identical Zipf key
/// streams for both variants.
fn exact_lookup_cells(quick: bool, seed: u64, results: &mut Vec<CellResult>) {
    let n_keys = if quick { 256 } else { 1024 };
    let ops = if quick { 12_000 } else { 40_000 };
    let capacity = (n_keys * (PAYLOAD_BYTES + 64)) as u64 * 2;

    for &threads in &THREAD_STEPS {
        let probes = probe_streams(seed, threads, ops, n_keys);

        // Mutex baseline: deep clone of the payload under the lock.
        let mutex: SharedExactCache<Vec<u8>> =
            SharedExactCache::new(ExactCache::new(capacity, PolicyKind::Lru, None));
        for i in 0..n_keys {
            mutex.insert(key(i), payload(i), PAYLOAD_BYTES as u64, 0);
        }
        results.push(run_cell("exact_lookup/mutex", "-", threads, ops, |t, i| {
            mutex.lookup(&probes[t][i as usize], 1).is_some()
        }));

        // Sharded: Arc handed out from a shard read lock, no payload copy.
        let sharded: ShardedExactCache<Vec<u8>> =
            ShardedExactCache::new(capacity, PolicyKind::Lru, None, BENCH_SHARDS);
        for i in 0..n_keys {
            sharded.insert(key(i), payload(i), PAYLOAD_BYTES as u64, 0);
        }
        results.push(run_cell(
            "exact_lookup/sharded",
            "-",
            threads,
            ops,
            |t, i| sharded.lookup(&probes[t][i as usize], 1).is_some(),
        ));
    }
}

/// Exact-insert cells: every thread writes its own key range.
fn exact_insert_cells(quick: bool, results: &mut Vec<CellResult>) {
    let ops = if quick { 1_000 } else { 5_000 };
    // Capacity bounded well below the write volume so eviction runs too.
    let capacity = 4 * 1024 * 1024;

    for &threads in &THREAD_STEPS {
        let mutex: SharedExactCache<Vec<u8>> =
            SharedExactCache::new(ExactCache::new(capacity, PolicyKind::Lru, None));
        results.push(run_cell("exact_insert/mutex", "-", threads, ops, |t, i| {
            let tag = t * 1_000_000 + i as usize;
            mutex.insert(key(tag), payload(tag), PAYLOAD_BYTES as u64, i);
            true
        }));

        let sharded: ShardedExactCache<Vec<u8>> =
            ShardedExactCache::new(capacity, PolicyKind::Lru, None, BENCH_SHARDS);
        results.push(run_cell(
            "exact_insert/sharded",
            "-",
            threads,
            ops,
            |t, i| {
                let tag = t * 1_000_000 + i as usize;
                sharded.insert(key(tag), payload(tag), PAYLOAD_BYTES as u64, i);
                true
            },
        ));
    }
}

/// Descriptor vectors modelling dense DNN embeddings: one deterministic
/// unit direction per cluster plus a small single-coordinate jitter
/// standing in for sensor noise between co-located queries. Random unit
/// directions in `dim` dimensions sit ~√2 apart — far outside the hit
/// threshold — while jitter stays well inside it, so cluster identity
/// decides hit/miss exactly. (An earlier 2-hot lattice generator made
/// most pairwise distances tie, which no real embedding space does.)
fn descriptor(dim: usize, cluster: usize, jitter: f32) -> FeatureVec {
    let mut rng = StdRng::seed_from_u64(0xDE5C_0000 ^ cluster as u64);
    let mut v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    for x in &mut v {
        *x /= norm;
    }
    v[cluster % dim] += jitter;
    FeatureVec::new(v)
}

/// Per-thread query descriptors, generated before the timed region (same
/// rationale as [`probe_streams`]).
fn query_streams(
    seed: u64,
    threads: usize,
    ops: u64,
    dim: usize,
    n_desc: usize,
) -> Vec<Vec<FeatureVec>> {
    (0..threads)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64) << 32));
            (0..ops)
                .map(|_| {
                    let cluster = skewed_index(&mut rng, n_desc + n_desc / 8);
                    descriptor(dim, cluster, rng.random_range(-0.05f32..0.05))
                })
                .collect()
        })
        .collect()
}

/// Index kinds the mutex baseline cells run: the linear scan (the hit
/// ratio ground truth) and the classic incremental LSH (the strongest
/// pre-snapshot production path).
const MUTEX_INDEXES: [IndexKind; 2] = [IndexKind::Linear, IndexKind::Lsh { tables: 8, bits: 8 }];

/// The ANN family the snapshot cells run and the beats-mutex gate
/// holds: the production default (what `EdgeConfig` selects when
/// `--index` names the snapshot family without parameters).
const SNAPSHOT_INDEX: IndexKind = IndexKind::DEFAULT_MPLSH;

/// Dimensions shared by every approx cell.
struct ApproxParams {
    dim: usize,
    n_desc: usize,
    ops: u64,
    threshold: f32,
    capacity: u64,
}

impl ApproxParams {
    fn new(quick: bool, ops: u64, ops_quick: u64) -> ApproxParams {
        ApproxParams {
            dim: 32,
            n_desc: if quick { 128 } else { 512 },
            ops: if quick { ops_quick } else { ops },
            threshold: 0.3,
            capacity: 16 * 1024 * 1024,
        }
    }

    fn mutex_cache(&self, kind: IndexKind) -> SharedApproxCache<u64> {
        let cache = SharedApproxCache::new(ApproxCache::new(
            self.capacity,
            PolicyKind::Lru,
            self.threshold,
            kind,
            self.dim,
        ));
        for i in 0..self.n_desc {
            cache.insert(descriptor(self.dim, i, 0.0), i as u64, 256, 0);
        }
        cache
    }

    fn snapshot_cache(&self, kind: IndexKind) -> SnapshotApproxCache<u64> {
        let cache = SnapshotApproxCache::new(
            self.capacity,
            self.threshold,
            kind.ann_family(),
            self.dim,
            DEFAULT_REBUILD_BATCH,
        );
        for i in 0..self.n_desc {
            cache.insert(descriptor(self.dim, i, 0.0), i as u64, 256, 0);
        }
        // Fold the prefill journal so lookups measure steady state.
        cache.maintain(0);
        cache
    }
}

/// Approximate-lookup cells (read-only steady state): the mutex baseline
/// (`linear`, `lsh`) vs the snapshot ANN index (`mp-lsh`) on
/// byte-identical query streams. Snapshot index telemetry is published to
/// `tel`, so `coic bench --metrics-out` + `coic obs report` show the
/// probe/rebuild behaviour behind these numbers.
fn approx_lookup_cells(quick: bool, seed: u64, tel: &Telemetry, results: &mut Vec<CellResult>) {
    let p = ApproxParams::new(quick, 12_000, 4_000);
    approx_lookup_cells_with(&p, seed, tel, results, &THREAD_STEPS);
}

fn approx_lookup_cells_with(
    p: &ApproxParams,
    seed: u64,
    tel: &Telemetry,
    results: &mut Vec<CellResult>,
    thread_steps: &[usize],
) {
    for &threads in thread_steps {
        let queries = query_streams(seed, threads, p.ops, p.dim, p.n_desc);

        for kind in MUTEX_INDEXES {
            let mutex = p.mutex_cache(kind);
            results.push(run_cell(
                "approx_lookup/mutex",
                kind.label(),
                threads,
                p.ops,
                |t, i| mutex.lookup(&queries[t][i as usize], 1).is_some(),
            ));
        }

        let snap = p.snapshot_cache(SNAPSHOT_INDEX);
        results.push(run_cell(
            "approx_lookup/snapshot",
            SNAPSHOT_INDEX.label(),
            threads,
            p.ops,
            |t, i| snap.lookup(&queries[t][i as usize], 1).is_hit(),
        ));
        snap.index_telemetry().publish(tel.registry());
    }
}

/// One insert per this many ops in the mixed cells: a ~3% write rate, the
/// shape of a warm edge absorbing new descriptors while serving lookups.
pub const INSERT_EVERY: u64 = 32;

/// Mixed insert-while-lookup cells. Fresh descriptors use clusters beyond
/// every query's range, so an insert never turns a later miss into a hit
/// and the hit ratio stays comparable across variants. The snapshot cells
/// pay their batch rebuild (every [`DEFAULT_REBUILD_BATCH`] journaled
/// inserts) inside the timed region — that cost is the honest price of
/// the lock-free read path and exactly what this workload exists to
/// measure.
fn approx_mixed_cells(quick: bool, seed: u64, tel: &Telemetry, results: &mut Vec<CellResult>) {
    let p = ApproxParams::new(quick, 8_000, 2_000);
    approx_mixed_cells_with(&p, seed, tel, results, &THREAD_STEPS);
}

fn approx_mixed_cells_with(
    p: &ApproxParams,
    seed: u64,
    tel: &Telemetry,
    results: &mut Vec<CellResult>,
    thread_steps: &[usize],
) {
    for &threads in thread_steps {
        let queries = query_streams(seed ^ 0xA55A, threads, p.ops, p.dim, p.n_desc);
        // Disjoint from the query cluster range [0, n_desc + n_desc/8).
        let fresh_base = 2 * p.n_desc;

        let mutex = p.mutex_cache(IndexKind::Lsh { tables: 8, bits: 8 });
        results.push(run_cell(
            "approx_mixed/mutex",
            "lsh",
            threads,
            p.ops,
            |t, i| {
                if i % INSERT_EVERY == 0 {
                    let c = fresh_base + t * p.ops as usize + i as usize;
                    mutex.insert(descriptor(p.dim, c, 0.0), c as u64, 256, i);
                    true
                } else {
                    mutex.lookup(&queries[t][i as usize], i).is_some()
                }
            },
        ));

        let snap = p.snapshot_cache(SNAPSHOT_INDEX);
        results.push(run_cell(
            "approx_mixed/snapshot",
            SNAPSHOT_INDEX.label(),
            threads,
            p.ops,
            |t, i| {
                if i % INSERT_EVERY == 0 {
                    let c = fresh_base + t * p.ops as usize + i as usize;
                    snap.insert(descriptor(p.dim, c, 0.0), c as u64, 256, i);
                    true
                } else {
                    snap.lookup(&queries[t][i as usize], i).is_hit()
                }
            },
        ));
        snap.index_telemetry().publish(tel.registry());
    }
}

/// End-to-end loopback cell: M concurrent clients against one live edge
/// re-requesting a shared panorama pool (the VR co-watching shape).
fn edge_e2e_cell(quick: bool, seed: u64, tel: &Telemetry, results: &mut Vec<CellResult>) {
    use coic_workload::{Request, RequestKind, UserId, ZoneId};

    let clients = if quick { 4 } else { 8 };
    let reqs_per_client = if quick { 30 } else { 100 };
    let frame_pool = 16u64;

    let models = Arc::new(ModelLibrary::new());
    let panos = Arc::new(PanoLibrary::new(64));
    let compute = ComputeConfig::default();
    let classes: Vec<_> = (0..3).map(ObjectClass).collect();
    let cloud = spawn_cloud(&classes, 64, compute, models.clone(), panos.clone(), seed)
        .expect("cloud spawn");
    let net = NetConfig::builder().telemetry(tel.clone()).build();
    let edge = spawn_edge_with(cloud.addr(), &EdgeConfig::default(), net.clone(), None)
        .expect("edge spawn");

    let started = Instant::now();
    let mut all_samples: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (models, panos) = (models.clone(), panos.clone());
                let (edge_addr, net, tel) = (edge.addr(), net.clone(), tel.clone());
                scope.spawn(move || {
                    let mut client = NetClient::connect_with(
                        edge_addr,
                        None,
                        net,
                        ClientConfig::default(),
                        compute,
                        models,
                        panos,
                    )
                    .expect("client connect");
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xEDE0 ^ c as u64);
                    let mut samples = Vec::with_capacity(reqs_per_client);
                    for _ in 0..reqs_per_client {
                        let frame_id = skewed_index(&mut rng, frame_pool as usize) as u64;
                        let req = Request {
                            user: UserId(c as u32),
                            zone: ZoneId(0),
                            at_ns: 0,
                            kind: RequestKind::Panorama { frame_id },
                        };
                        let out = client.execute(&req).expect("live request");
                        samples.push(out.elapsed.as_nanos() as u64);
                    }
                    client.publish_metrics(tel.registry());
                    samples
                })
            })
            .collect();
        for h in handles {
            all_samples.extend(h.join().expect("bench client panicked"));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    all_samples.sort_unstable();
    let ops = all_samples.len() as u64;
    results.push(CellResult {
        workload: "edge_e2e/panorama".to_string(),
        index: "-".to_string(),
        threads: clients,
        ops,
        p50_ns: percentile(&all_samples, 0.50),
        p95_ns: percentile(&all_samples, 0.95),
        p99_ns: percentile(&all_samples, 0.99),
        throughput_ops_per_sec: if elapsed > 0.0 {
            ops as f64 / elapsed
        } else {
            0.0
        },
        hit_ratio: edge.cache_hit_ratio(),
    });
    edge.publish_metrics(tel.registry());
}

pub(crate) fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Throughput of a cell by (workload, threads); 0.0 when absent.
fn cell_throughput(results: &[CellResult], workload: &str, threads: usize) -> f64 {
    results
        .iter()
        .find(|c| c.workload == workload && c.threads == threads)
        .map(|c| c.throughput_ops_per_sec)
        .unwrap_or(0.0)
}

/// Full (workload, index, threads) cell lookup, for the approx grids
/// where one workload spans several index labels.
fn find_cell<'a>(
    results: &'a [CellResult],
    workload: &str,
    index: &str,
    threads: usize,
) -> Option<&'a CellResult> {
    results
        .iter()
        .find(|c| c.workload == workload && c.index == index && c.threads == threads)
}

/// Default-family snapshot-vs-mutex approx-lookup throughput ratio at
/// the top thread count: the [`SNAPSHOT_INDEX`] cell over the
/// mutex LSH baseline. 0.0 when either cell is absent.
fn snapshot_speedup(results: &[CellResult]) -> f64 {
    let top = *THREAD_STEPS.last().expect("non-empty steps");
    let mutex = find_cell(results, "approx_lookup/mutex", "lsh", top)
        .map(|c| c.throughput_ops_per_sec)
        .unwrap_or(0.0);
    if mutex <= 0.0 {
        return 0.0;
    }
    find_cell(
        results,
        "approx_lookup/snapshot",
        SNAPSHOT_INDEX.label(),
        top,
    )
    .map(|c| c.throughput_ops_per_sec)
    .unwrap_or(0.0)
        / mutex
}

/// Run the full benchmark grid. `quick` shrinks op counts for CI smoke
/// runs; `seed` drives every random stream, so two runs with the same seed
/// measure identical workloads.
pub fn run_bench(quick: bool, seed: u64) -> BenchReport {
    run_bench_with(quick, seed, &Telemetry::disabled())
}

/// [`run_bench`] with an explicit telemetry handle: the loopback edge
/// cell runs under `tel`, so `coic bench --trace-out/--metrics-out` can
/// export the same event vocabulary and registry keys the simulator and
/// live stack emit.
pub fn run_bench_with(quick: bool, seed: u64, tel: &Telemetry) -> BenchReport {
    let mut results = Vec::new();
    exact_lookup_cells(quick, seed, &mut results);
    exact_insert_cells(quick, &mut results);
    approx_lookup_cells(quick, seed, tel, &mut results);
    approx_mixed_cells(quick, seed, tel, &mut results);
    edge_e2e_cell(quick, seed, tel, &mut results);

    let top = *THREAD_STEPS.last().expect("non-empty steps");
    let mutex_tput = cell_throughput(&results, "exact_lookup/mutex", top);
    let sharded_tput = cell_throughput(&results, "exact_lookup/sharded", top);
    let speedup = if mutex_tput > 0.0 {
        sharded_tput / mutex_tput
    } else {
        0.0
    };
    let snap_speedup = snapshot_speedup(&results);
    BenchReport {
        schema: "coic-bench/v1".to_string(),
        git_rev: git_rev(),
        seed,
        quick,
        results,
        speedup_sharded_vs_mutex: speedup,
        speedup_snapshot_vs_mutex: snap_speedup,
    }
}

impl BenchReport {
    /// Canonical JSON form (sorted keys, fixed float precision).
    pub fn to_json(&self) -> Json {
        let results: Vec<Json> = self
            .results
            .iter()
            .map(|c| {
                obj(vec![
                    ("workload", s(&c.workload)),
                    ("index", s(&c.index)),
                    ("threads", num(c.threads as f64)),
                    ("ops", num(c.ops as f64)),
                    ("p50_ns", num(c.p50_ns as f64)),
                    ("p95_ns", num(c.p95_ns as f64)),
                    ("p99_ns", num(c.p99_ns as f64)),
                    ("throughput_ops_per_sec", num(c.throughput_ops_per_sec)),
                    ("hit_ratio", num(c.hit_ratio)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", s(&self.schema)),
            ("git_rev", s(&self.git_rev)),
            ("seed", num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
            ("results", Json::Arr(results)),
            (
                "derived",
                obj(vec![
                    (
                        "speedup_sharded_vs_mutex",
                        num(self.speedup_sharded_vs_mutex),
                    ),
                    (
                        "speedup_snapshot_vs_mutex",
                        num(self.speedup_snapshot_vs_mutex),
                    ),
                ]),
            ),
        ])
    }

    /// Parse a report back from its JSON form (used by the regression
    /// checker; unknown fields are ignored).
    pub fn from_json(v: &Json) -> Result<BenchReport, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != "coic-bench/v1" {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let results = v
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("missing results")?
            .iter()
            .map(|c| {
                let f = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("result missing numeric '{k}'"))
                };
                Ok(CellResult {
                    workload: c
                        .get("workload")
                        .and_then(Json::as_str)
                        .ok_or("result missing workload")?
                        .to_string(),
                    index: c
                        .get("index")
                        .and_then(Json::as_str)
                        .unwrap_or("-")
                        .to_string(),
                    threads: f("threads")? as usize,
                    ops: f("ops")? as u64,
                    p50_ns: f("p50_ns")? as u64,
                    p95_ns: f("p95_ns")? as u64,
                    p99_ns: f("p99_ns")? as u64,
                    throughput_ops_per_sec: f("throughput_ops_per_sec")?,
                    hit_ratio: f("hit_ratio")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            schema: schema.to_string(),
            git_rev: v
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            seed: v.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            quick: matches!(v.get("quick"), Some(Json::Bool(true))),
            speedup_sharded_vs_mutex: v
                .get("derived")
                .and_then(|d| d.get("speedup_sharded_vs_mutex"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            speedup_snapshot_vs_mutex: v
                .get("derived")
                .and_then(|d| d.get("speedup_snapshot_vs_mutex"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            results,
        })
    }

    /// Write the canonical JSON (plus trailing newline) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = self.to_json().to_canonical();
        text.push('\n');
        std::fs::write(path, text)
    }

    /// Load a report from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&json::parse(&text)?)
    }
}

/// Conservative per-cell merge of several runs of the same grid: minimum
/// throughput, maximum latency percentiles, minimum speedup. Used when
/// refreshing `bench/baseline.json` (`coic bench --runs N`) so the
/// committed envelope reflects the worst honest run rather than one lucky
/// one — a fresh CI run then regresses only if it falls a full tolerance
/// band below anything observed while baselining.
pub fn conservative_merge(reports: Vec<BenchReport>) -> BenchReport {
    let mut reports = reports.into_iter();
    let mut merged = reports.next().expect("at least one report");
    for r in reports {
        for cell in &mut merged.results {
            let Some(other) = r.results.iter().find(|c| {
                c.workload == cell.workload && c.index == cell.index && c.threads == cell.threads
            }) else {
                continue;
            };
            cell.p50_ns = cell.p50_ns.max(other.p50_ns);
            cell.p95_ns = cell.p95_ns.max(other.p95_ns);
            cell.p99_ns = cell.p99_ns.max(other.p99_ns);
            cell.throughput_ops_per_sec = cell
                .throughput_ops_per_sec
                .min(other.throughput_ops_per_sec);
        }
        merged.speedup_sharded_vs_mutex = merged
            .speedup_sharded_vs_mutex
            .min(r.speedup_sharded_vs_mutex);
        merged.speedup_snapshot_vs_mutex = merged
            .speedup_snapshot_vs_mutex
            .min(r.speedup_snapshot_vs_mutex);
    }
    // Recompute the headline speedups from the merged cells: the ratio of
    // the two envelope minima is steadier than the worst single-run ratio
    // (which compounds one run's unluckiest mutex sample with its
    // unluckiest sharded sample).
    let top = *THREAD_STEPS.last().expect("non-empty steps");
    let m = cell_throughput(&merged.results, "exact_lookup/mutex", top);
    let s = cell_throughput(&merged.results, "exact_lookup/sharded", top);
    if m > 0.0 && s > 0.0 {
        merged.speedup_sharded_vs_mutex = s / m;
    }
    let snap = snapshot_speedup(&merged.results);
    if snap > 0.0 && snap.is_finite() {
        merged.speedup_snapshot_vs_mutex = snap;
    }
    merged
}

/// Outcome of comparing a fresh run against a committed baseline.
#[derive(Debug, Default)]
pub struct RegressionReport {
    /// Human-readable regression lines (empty = pass).
    pub failures: Vec<String>,
    /// Informational comparison lines.
    pub notes: Vec<String>,
}

/// Compare `current` against `baseline` with a tolerance band,
/// direction-aware: only *worse* results fail (slower p50, lower
/// throughput, lower speedup ratio). `min_speedup` additionally gates the
/// machine-independent sharded-vs-mutex ratio. Cells present in only one
/// report are noted, not failed (grids may grow between PRs).
///
/// Host-speed normalisation: shared runners are sometimes *uniformly*
/// slower than the baseline host (CPU steal, thermal caps, a noisy
/// neighbour). The median throughput ratio across all matched cells
/// estimates that global factor, and only slowdown beyond it counts
/// against a cell — a regression is a cell that got worse *relative to
/// the rest of the grid*. The factor is clamped at 1.0 so a
/// faster-than-baseline host never raises the bar.
pub fn check_regression(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
    min_speedup: f64,
) -> RegressionReport {
    let mut report = RegressionReport::default();
    let mut pairs = Vec::new();
    for base in &baseline.results {
        match current.results.iter().find(|c| {
            c.workload == base.workload && c.index == base.index && c.threads == base.threads
        }) {
            Some(cur) => pairs.push((base, cur)),
            None => report.notes.push(format!(
                "cell {}[{}]@{}t missing from current run",
                base.workload, base.index, base.threads
            )),
        }
    }
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|(b, _)| b.throughput_ops_per_sec > 0.0)
        .map(|(b, c)| c.throughput_ops_per_sec / b.throughput_ops_per_sec)
        .collect();
    ratios.sort_by(f64::total_cmp);
    // With too few cells the median is not robust (it could *be* the one
    // regressed cell); skip normalisation for tiny grids.
    let host_factor = if ratios.len() < 5 {
        1.0
    } else {
        ratios[ratios.len() / 2].min(1.0)
    };
    if host_factor < 1.0 {
        report.notes.push(format!(
            "host-speed factor {host_factor:.2} (median cell ratio; grid-wide slowdown discounted)"
        ));
    }
    for (base, cur) in pairs {
        let label = format!("{}[{}]@{}t", base.workload, base.index, base.threads);
        if base.throughput_ops_per_sec > 0.0 {
            let ratio = cur.throughput_ops_per_sec / base.throughput_ops_per_sec / host_factor;
            if ratio < 1.0 - tolerance {
                report.failures.push(format!(
                    "{label}: throughput {:.0} ops/s vs baseline {:.0} ({:.1}% relative drop > {:.0}% tolerance)",
                    cur.throughput_ops_per_sec,
                    base.throughput_ops_per_sec,
                    (1.0 - ratio) * 100.0,
                    tolerance * 100.0
                ));
            } else {
                report
                    .notes
                    .push(format!("{label}: throughput ratio {ratio:.2} ok"));
            }
        }
        // Per-op latency percentiles are noisier than aggregate
        // throughput (one scheduler burst moves the median), so p50 gets
        // double the throughput band.
        if base.p50_ns > 0 {
            let ratio = cur.p50_ns as f64 * host_factor / base.p50_ns as f64;
            if ratio > 1.0 + 2.0 * tolerance {
                report.failures.push(format!(
                    "{label}: p50 {} ns vs baseline {} ns ({:.1}% relative slowdown > {:.0}% p50 tolerance)",
                    cur.p50_ns,
                    base.p50_ns,
                    (ratio - 1.0) * 100.0,
                    2.0 * tolerance * 100.0
                ));
            }
        }
    }
    if current.speedup_sharded_vs_mutex < min_speedup {
        report.failures.push(format!(
            "sharded-vs-mutex speedup {:.2} below required {min_speedup:.2}",
            current.speedup_sharded_vs_mutex
        ));
    } else {
        report.notes.push(format!(
            "sharded-vs-mutex speedup {:.2} (required {min_speedup:.2})",
            current.speedup_sharded_vs_mutex
        ));
    }
    report
}

/// Absolute hit-ratio tolerance for the snapshot family against the
/// linear scan (0.5%, per the acceptance criterion). The band absorbs
/// the family's residual recall noise on satisficed lookups.
pub const APPROX_HIT_RATIO_TOLERANCE: f64 = 0.005;

/// The snapshot-index acceptance gate: at *every* thread count, the
/// snapshot family ([`SNAPSHOT_INDEX`]) must beat the mutex LSH baseline
/// on both p95 latency and throughput, and match the linear scan's hit
/// ratio within [`APPROX_HIT_RATIO_TOLERANCE`]. Unlike [`check_regression`] this
/// compares cells *within one report* — both sides ran on the same host
/// in the same process, so no tolerance band or host normalisation
/// applies and the comparison is strict.
pub fn check_approx_gate(report: &BenchReport) -> RegressionReport {
    let mut out = RegressionReport::default();
    for &threads in &THREAD_STEPS {
        let Some(mutex) = find_cell(&report.results, "approx_lookup/mutex", "lsh", threads) else {
            out.notes.push(format!(
                "approx_lookup/mutex[lsh]@{threads}t absent; approx gate skipped at this step"
            ));
            continue;
        };
        let label = SNAPSHOT_INDEX.label();
        let cell = format!("approx_lookup/snapshot[{label}]@{threads}t");
        let Some(snap) = find_cell(&report.results, "approx_lookup/snapshot", label, threads)
        else {
            out.failures
                .push(format!("{cell}: cell missing from report"));
            continue;
        };
        let before = out.failures.len();
        if snap.p95_ns >= mutex.p95_ns {
            out.failures.push(format!(
                "{cell}: p95 {} ns does not beat mutex baseline {} ns",
                snap.p95_ns, mutex.p95_ns
            ));
        }
        if snap.throughput_ops_per_sec <= mutex.throughput_ops_per_sec {
            out.failures.push(format!(
                "{cell}: throughput {:.0} ops/s does not beat mutex baseline {:.0}",
                snap.throughput_ops_per_sec, mutex.throughput_ops_per_sec
            ));
        }
        // An index whose hit ratio drifts from the linear scan is
        // returning wrong answers, whatever its speed.
        if let Some(linear) = find_cell(&report.results, "approx_lookup/mutex", "linear", threads) {
            let delta = (snap.hit_ratio - linear.hit_ratio).abs();
            if delta > APPROX_HIT_RATIO_TOLERANCE {
                out.failures.push(format!(
                    "{cell}: hit ratio {:.4} deviates from linear scan {:.4} by {:.4} (> {:.3})",
                    snap.hit_ratio, linear.hit_ratio, delta, APPROX_HIT_RATIO_TOLERANCE
                ));
            }
        }
        if out.failures.len() == before {
            out.notes.push(format!(
                "{cell}: ok (p95 {} vs mutex {} ns, {:.0} vs {:.0} ops/s, hit ratio {:.4})",
                snap.p95_ns,
                mutex.p95_ns,
                snap.throughput_ops_per_sec,
                mutex.throughput_ops_per_sec,
                snap.hit_ratio
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, threads: usize, tput: f64, p50: u64) -> CellResult {
        CellResult {
            workload: workload.to_string(),
            index: "-".to_string(),
            threads,
            ops: 100,
            p50_ns: p50,
            p95_ns: p50 * 2,
            p99_ns: p50 * 3,
            throughput_ops_per_sec: tput,
            hit_ratio: 0.9,
        }
    }

    fn report(cells: Vec<CellResult>, speedup: f64) -> BenchReport {
        BenchReport {
            schema: "coic-bench/v1".to_string(),
            git_rev: "test".to_string(),
            seed: 7,
            quick: true,
            results: cells,
            speedup_sharded_vs_mutex: speedup,
            speedup_snapshot_vs_mutex: 1.8,
        }
    }

    fn approx_cell(
        workload: &str,
        index: &str,
        threads: usize,
        tput: f64,
        p95: u64,
        hit: f64,
    ) -> CellResult {
        CellResult {
            workload: workload.to_string(),
            index: index.to_string(),
            threads,
            ops: 100,
            p50_ns: p95 / 2,
            p95_ns: p95,
            p99_ns: p95 * 2,
            throughput_ops_per_sec: tput,
            hit_ratio: hit,
        }
    }

    /// A synthetic grid where the snapshot family cleanly beats the
    /// mutex baseline at every thread count.
    fn passing_approx_grid() -> Vec<CellResult> {
        let mut cells = Vec::new();
        for &t in &THREAD_STEPS {
            cells.push(approx_cell(
                "approx_lookup/mutex",
                "linear",
                t,
                500.0,
                4000,
                0.90,
            ));
            cells.push(approx_cell(
                "approx_lookup/mutex",
                "lsh",
                t,
                1000.0,
                2000,
                0.88,
            ));
            cells.push(approx_cell(
                "approx_lookup/snapshot",
                "mp-lsh",
                t,
                1500.0,
                1200,
                0.90,
            ));
        }
        cells
    }

    #[test]
    fn report_json_roundtrip() {
        let r = report(vec![cell("exact_lookup/sharded", 16, 1e6, 500)], 2.5);
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.results.len(), 1);
        assert_eq!(back.results[0].workload, "exact_lookup/sharded");
        assert_eq!(back.results[0].p50_ns, 500);
        assert!((back.speedup_sharded_vs_mutex - 2.5).abs() < 1e-9);
        assert!((back.speedup_snapshot_vs_mutex - 1.8).abs() < 1e-9);
        // Canonical: serializing twice is byte-identical.
        assert_eq!(r.to_json().to_canonical(), back.to_json().to_canonical());
    }

    #[test]
    fn approx_gate_passes_a_clean_grid() {
        let r = report(passing_approx_grid(), 2.0);
        let verdict = check_approx_gate(&r);
        assert!(
            verdict.failures.is_empty(),
            "failures: {:?}",
            verdict.failures
        );
        // One note per thread count.
        assert_eq!(verdict.notes.len(), THREAD_STEPS.len());
    }

    #[test]
    fn approx_gate_fails_on_slower_snapshot_or_recall_loss() {
        // p95 regression of the gated default family at one thread count
        // fails.
        let mut cells = passing_approx_grid();
        cells
            .iter_mut()
            .find(|c| {
                c.workload == "approx_lookup/snapshot" && c.index == "mp-lsh" && c.threads == 4
            })
            .unwrap()
            .p95_ns = 3000;
        let verdict = check_approx_gate(&report(cells, 2.0));
        assert_eq!(verdict.failures.len(), 1);
        assert!(
            verdict.failures[0].contains("mp-lsh"),
            "{:?}",
            verdict.failures
        );
        assert!(
            verdict.failures[0].contains("p95"),
            "{:?}",
            verdict.failures
        );

        // Only p95 and throughput gate perf: a p99 tail behind the
        // mutex baseline's does not fail.
        let mut cells = passing_approx_grid();
        cells
            .iter_mut()
            .find(|c| {
                c.workload == "approx_lookup/snapshot" && c.index == "mp-lsh" && c.threads == 4
            })
            .unwrap()
            .p99_ns = 40_000;
        let verdict = check_approx_gate(&report(cells, 2.0));
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);

        // Hit ratio drifting more than the tolerance from linear fails.
        let mut cells = passing_approx_grid();
        cells
            .iter_mut()
            .find(|c| {
                c.workload == "approx_lookup/snapshot" && c.index == "mp-lsh" && c.threads == 16
            })
            .unwrap()
            .hit_ratio = 0.89;
        let verdict = check_approx_gate(&report(cells, 2.0));
        assert_eq!(verdict.failures.len(), 1);
        assert!(
            verdict.failures[0].contains("hit ratio"),
            "{:?}",
            verdict.failures
        );

        // A missing snapshot cell is a failure, not a silent skip.
        let cells: Vec<_> = passing_approx_grid()
            .into_iter()
            .filter(|c| !(c.index == "mp-lsh" && c.threads == 1))
            .collect();
        let verdict = check_approx_gate(&report(cells, 2.0));
        assert_eq!(verdict.failures.len(), 1);
        assert!(
            verdict.failures[0].contains("missing"),
            "{:?}",
            verdict.failures
        );
    }

    #[test]
    fn regression_is_direction_aware() {
        let base = report(vec![cell("a", 4, 1000.0, 100)], 2.0);
        // Faster than baseline: never a failure.
        let better = report(vec![cell("a", 4, 2000.0, 50)], 3.0);
        assert!(check_regression(&base, &better, 0.25, 1.2)
            .failures
            .is_empty());
        // 50% throughput drop: fails at 25% tolerance.
        let worse = report(vec![cell("a", 4, 500.0, 100)], 2.0);
        let r = check_regression(&base, &worse, 0.25, 1.2);
        assert_eq!(r.failures.len(), 1);
        // p50 doubled: fails.
        let slower = report(vec![cell("a", 4, 1000.0, 200)], 2.0);
        assert_eq!(
            check_regression(&base, &slower, 0.25, 1.2).failures.len(),
            1
        );
        // Within band: passes.
        let close_run = report(vec![cell("a", 4, 900.0, 110)], 2.0);
        assert!(check_regression(&base, &close_run, 0.25, 1.2)
            .failures
            .is_empty());
    }

    #[test]
    fn speedup_gate_fails_below_minimum() {
        let base = report(vec![], 2.0);
        let cur = report(vec![], 1.05);
        let r = check_regression(&base, &cur, 0.25, 1.2);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("speedup"));
    }

    #[test]
    fn missing_cells_are_notes_not_failures() {
        let base = report(vec![cell("gone", 1, 100.0, 10)], 2.0);
        let cur = report(vec![], 2.0);
        let r = check_regression(&base, &cur, 0.25, 1.2);
        assert!(r.failures.is_empty());
        assert!(r.notes.iter().any(|n| n.contains("missing")));
    }

    #[test]
    fn uniform_host_slowdown_is_not_a_regression() {
        // Six cells all ~35% slower: a grid-wide host effect, discounted
        // by the median normalisation — no failures.
        let names = ["a", "b", "c", "d", "e", "f"];
        let base = report(names.iter().map(|n| cell(n, 4, 1000.0, 100)).collect(), 2.0);
        let slow_host = report(names.iter().map(|n| cell(n, 4, 650.0, 154)).collect(), 2.0);
        let r = check_regression(&base, &slow_host, 0.25, 1.2);
        assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("host-speed factor")));
        // But one cell dropping 40% while the rest hold still fails.
        let mut cells: Vec<_> = names.iter().map(|n| cell(n, 4, 1000.0, 100)).collect();
        cells[2].throughput_ops_per_sec = 600.0;
        let one_bad = report(cells, 2.0);
        let r = check_regression(&base, &one_bad, 0.25, 1.2);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].starts_with("c[-]@4t"));
    }

    #[test]
    fn conservative_merge_takes_worst_of_each_cell() {
        let a = report(vec![cell("a", 4, 1000.0, 100)], 2.5);
        let b = report(vec![cell("a", 4, 800.0, 140)], 2.1);
        let c = report(vec![cell("a", 4, 1200.0, 90)], 3.0);
        let m = conservative_merge(vec![a, b, c]);
        assert_eq!(m.results.len(), 1);
        assert!((m.results[0].throughput_ops_per_sec - 800.0).abs() < 1e-9);
        assert_eq!(m.results[0].p50_ns, 140);
        assert!((m.speedup_sharded_vs_mutex - 2.1).abs() < 1e-9);
        // A fresh run matching any of the originals passes the gate.
        let fresh = report(vec![cell("a", 4, 820.0, 135)], 2.4);
        assert!(check_regression(&m, &fresh, 0.25, 1.2).failures.is_empty());
    }

    #[test]
    fn tiny_bench_grid_runs_and_gates() {
        // A micro-sized real run: exercises the actual measurement path
        // (threads, percentiles, schema) without CI-scale op counts.
        let mut results = Vec::new();
        super::exact_lookup_cells(true, 3, &mut results);
        assert_eq!(results.len(), 2 * THREAD_STEPS.len());
        for c in &results {
            assert!(c.ops > 0);
            assert!(c.p50_ns <= c.p95_ns && c.p95_ns <= c.p99_ns);
            assert!(c.throughput_ops_per_sec > 0.0);
            assert!(c.hit_ratio > 0.5, "zipf stream should mostly hit");
        }
        // The design claim, at microbench scale: sharded lookups beat the
        // clone-under-mutex baseline at the top thread count.
        let top = *THREAD_STEPS.last().unwrap();
        let m = cell_throughput(&results, "exact_lookup/mutex", top);
        let sh = cell_throughput(&results, "exact_lookup/sharded", top);
        assert!(
            sh > m,
            "sharded ({sh:.0} ops/s) should out-run mutex ({m:.0} ops/s)"
        );
    }

    /// A grid small enough for debug-build unit tests. Timing numbers
    /// from it are meaningless (the perf half of the acceptance gate
    /// runs on release builds via `coic bench` + `bench_check`); what
    /// these tests pin is the *correctness* half — hit-ratio parity with
    /// the linear scan — plus cell structure and telemetry.
    fn tiny_params() -> ApproxParams {
        ApproxParams {
            dim: 16,
            n_desc: 48,
            ops: 400,
            threshold: 0.3,
            capacity: 16 * 1024 * 1024,
        }
    }

    #[test]
    fn approx_grid_matches_linear_hit_ratio() {
        // The recall half of the acceptance claim, exercised for real:
        // the snapshot families make the same hit/miss decisions as the
        // linear scan (the no-false-miss radius makes this exact, the
        // gate allows [`APPROX_HIT_RATIO_TOLERANCE`]).
        let tel = Telemetry::new();
        let mut results = Vec::new();
        super::approx_lookup_cells_with(&tiny_params(), 3, &tel, &mut results, &[2]);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|c| c.ops > 0));
        let linear =
            find_cell(&results, "approx_lookup/mutex", "linear", 2).expect("linear baseline cell");
        assert!(
            linear.hit_ratio > 0.5,
            "zipf descriptor stream should mostly hit"
        );
        let c = find_cell(
            &results,
            "approx_lookup/snapshot",
            SNAPSHOT_INDEX.label(),
            2,
        )
        .expect("snapshot cell");
        assert!(
            (c.hit_ratio - linear.hit_ratio).abs() <= APPROX_HIT_RATIO_TOLERANCE,
            "{}[{}] hit ratio {} deviates from linear {}",
            c.workload,
            c.index,
            c.hit_ratio,
            linear.hit_ratio
        );
        // The snapshot cells published index telemetry while running.
        assert!(tel.registry().counter("index.lookup") > 0);
        assert!(tel.registry().counter("index.rebuild") > 0);
    }

    #[test]
    fn approx_mixed_grid_runs() {
        let tel = Telemetry::new();
        let mut results = Vec::new();
        super::approx_mixed_cells_with(&tiny_params(), 3, &tel, &mut results, &[2]);
        assert_eq!(results.len(), 2);
        for c in &results {
            assert!(c.ops > 0);
            assert!(c.p50_ns <= c.p95_ns && c.p95_ns <= c.p99_ns);
            assert!(c.throughput_ops_per_sec > 0.0);
        }
        // Inserts during the timed region leave a journal behind; the
        // telemetry published at cell teardown must reflect that work.
        assert!(tel.registry().counter("index.folded") > 0);
    }
}

//! Seeded inputs for the two live workloads.
//!
//! Everything the program is sent is generated here, before any timing:
//! camera frames, descriptors, encoded query frames, the arrival
//! schedule, and the expected answer of every request. The generator
//! keeps its own content library, so expected model bytes never come
//! from the cloud under test.

use crate::report::{mix, us};
use bytes::Bytes;
use coic_core::{FeatureDescriptor, ModelLibrary, Msg, TaskRequest};
use coic_vision::{ObjectClass, SceneGenerator, SimNet, ViewParams};
use coic_workload::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Client connections every live run uses:
/// one per core of the 2-vCPU reference machine, fixed so a parent and
/// its change see the same fan-in.
pub const CONNS: usize = 2;

/// Camera frame side: 64×64 one-byte pixels, a 4 KB image hint.
const IMAGE_SIDE: u32 = 64;

/// Landmarks in view at any moment of the recognition stream.
const AR_WINDOW: u64 = 24;

/// Requests between one landmark leaving the window and the next
/// entering it. New landmarks arrive at a fixed share of requests, so
/// the cloud-fetch share stays level over a run of any length instead
/// of decaying as a fixed pool warms (with `fig2a_trace`'s 100
/// landmarks it falls from 12% to 1.8% of requests between 2k and 20k).
const AR_NEW_LANDMARK_EVERY: u64 = 240;

/// Vantage points per landmark: each request photographs its landmark
/// from one of these, so new views keep arriving while a landmark is in
/// the window, and one rendered frame serves many requests (rendering
/// costs about 1 ms a frame).
const AR_VIEWS: u64 = 12;

/// Viewpoint jitter and sensor noise of co-located users, as in
/// `ClientConfig::default()`.
const ANGLE_SPREAD: f64 = 0.08;
const NOISE_SIGMA: f64 = 4.0;

/// Size of one avatar model.
pub const MODEL_BYTES: u64 = 1_000_000;

/// Avatar models already in play, loaded with Zipf popularity.
const ARENA_PALETTE: usize = 32;

/// Zipf skew over the palette (as in `render_trace`).
const ARENA_ZIPF_S: f64 = 0.9;

/// Players in the arena; a joining player's cold model is requested by
/// every one of them at the same instant. The edge serves one request
/// per connection at a time, so two of them meet in the single flight
/// and the rest queue behind; more players only lengthen that queue and
/// put the run's p50 among queued 1 MB replies.
const ARENA_PLAYERS: u64 = 4;

/// Seconds between two players joining.
const ARENA_JOIN_EVERY_S: f64 = 2.0;

/// The live workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveKind {
    /// Fig 2a task: recognition queries carrying DNN descriptors.
    ArRecognition,
    /// Fig 2b task: 1 MB avatar model loads by content hash.
    ArenaModels,
}

/// What a correct reply must carry.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A recognition label; the value is the ground-truth class, used
    /// for scoring (a wrong label is a miss-recognition, not an error).
    Label(u32),
    /// These exact model bytes.
    Model(Bytes),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request id carried in the query and expected in the reply.
    pub req_id: u64,
    /// When the request is due, ns after the start of the schedule.
    pub due_ns: u64,
    /// The content key: landmark class or model id.
    pub key: u64,
    /// The encoded `Msg::Query`.
    pub frame: Bytes,
    /// The expected answer.
    pub expect: Expect,
}

/// A workload's full input set plus the cost of producing it.
pub struct Stream {
    /// The measured requests, in due order.
    pub requests: Vec<Request>,
    /// One warm-up request per connection, sent during set-up.
    pub warmup: Vec<Request>,
    /// Every class the cloud's recognizer must know.
    pub classes: Vec<ObjectClass>,
    /// `SceneGenerator::observe` per camera frame, µs.
    pub observe_us: Vec<f64>,
    /// `SimNet::extract` per camera frame, µs.
    pub extract_us: Vec<f64>,
    /// `ModelLibrary::get` on a cold library per model, ms.
    pub model_build_ms: Vec<f64>,
    /// `Digest::of` throughput over the model bytes, MB/s.
    pub sha256_mbps: Option<f64>,
}

impl LiveKind {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            LiveKind::ArRecognition => "ar_recognition",
            LiveKind::ArenaModels => "arena_models",
        }
    }

    /// Offered open-loop rate, requests per second. Fixed numbers, set
    /// once at about half the capacity the benchmark measured on the
    /// commit that introduced it, so a parent and its change always get
    /// the same load.
    pub fn offered_rps(self) -> f64 {
        match self {
            LiveKind::ArRecognition => 2000.0,
            LiveKind::ArenaModels => 25.0,
        }
    }

    /// Whether the open loop runs the polled client: one thread per
    /// connection that yields in a loop between rounds, so no vCPU halts
    /// and no client thread waits to be woken. Recognition replies take
    /// about 0.1 ms and leave the CPUs mostly idle, and on the reference
    /// VM waking a halted vCPU stalled for 1–15 ms in phases of tens of
    /// seconds: those stalls swung recognition p95 from 0.3 to 7 ms
    /// between runs. Model loads keep the CPUs busy with payload CRC, and
    /// yielding threads would take CPU share from them, so that workload
    /// runs the threaded client.
    pub fn polled(self) -> bool {
        match self {
            LiveKind::ArRecognition => true,
            LiveKind::ArenaModels => false,
        }
    }

    /// Generate the inputs for an open-loop phase of `secs` seconds.
    pub fn generate(self, seed: u64, secs: f64) -> Stream {
        match self {
            LiveKind::ArRecognition => ar_stream(seed, secs),
            LiveKind::ArenaModels => arena_stream(seed, secs),
        }
    }
}

/// Poisson arrivals over `[0, secs)` given their count: `n` uniform
/// times, sorted, in ns. Fixing the count and the span (rather than
/// drawing exponential gaps) keeps every seed's schedule exactly `secs`
/// long.
fn poisson_schedule(seed: u64, secs: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xa441));
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.random_range(0.0..secs) * 1e9) as u64)
        .collect();
    due.sort_unstable();
    due
}

/// The recognition stream. Request `i` photographs landmark
/// `i / AR_NEW_LANDMARK_EVERY + r` (r uniform in the window) from one of
/// its `AR_VIEWS` vantage points. Landmark ids are offset by the seed, so
/// every seed photographs different landmarks; the warm-up requests look
/// at one landmark the stream never visits.
fn ar_stream(seed: u64, secs: f64) -> Stream {
    let rate = LiveKind::ArRecognition.offered_rps();
    let n = ((rate * secs).ceil() as u64).max(1);
    let base = (mix(seed, u64::MAX) % 1_000_000) as u32 * 1000;
    let landmarks = n / AR_NEW_LANDMARK_EVERY + AR_WINDOW;
    let warm_landmark = landmarks;

    // Render every (landmark, view) once, timing the vision layers.
    let jobs: Vec<u64> = (0..(landmarks + 1) * AR_VIEWS).collect();
    let views = parallel_map(&jobs, |&j| {
        thread_local! {
            static TOOLS: (SceneGenerator, SimNet) =
                (SceneGenerator::new(IMAGE_SIDE), SimNet::default_net());
        }
        TOOLS.with(|(gen, net)| {
            let mut rng = StdRng::seed_from_u64(mix(seed, j));
            let view = ViewParams::jittered(&mut rng, ANGLE_SPREAD, NOISE_SIGMA);
            let class = ObjectClass(base + (j / AR_VIEWS) as u32);
            let t = Instant::now();
            let image = gen.observe(class, &view, &mut rng);
            let observe_us = us(t.elapsed());
            let t = Instant::now();
            let descriptor = FeatureDescriptor::Dnn(net.extract(&image));
            (image, descriptor, observe_us, us(t.elapsed()))
        })
    });
    let query = |req_id: u64, landmark: u64, view: u64| {
        let (image, descriptor, _, _) = &views[(landmark * AR_VIEWS + view) as usize];
        let class = base + landmark as u32;
        Request {
            req_id,
            due_ns: 0,
            key: class as u64,
            frame: Msg::Query {
                req_id,
                descriptor: descriptor.clone(),
                hint: Some(TaskRequest::Recognition {
                    image: image.clone(),
                }),
            }
            .encode(),
            expect: Expect::Label(class),
        }
    };
    let requests = poisson_schedule(seed, secs, n as usize)
        .into_iter()
        .zip(0..n)
        .map(|(due_ns, i)| {
            let r = mix(seed ^ 0x1a4d, i);
            let landmark = i / AR_NEW_LANDMARK_EVERY + r % AR_WINDOW;
            Request {
                due_ns,
                ..query(i, landmark, (r >> 32) % AR_VIEWS)
            }
        })
        .collect();
    Stream {
        requests,
        warmup: (0..CONNS as u64)
            .map(|k| query(n + k, warm_landmark, k))
            .collect(),
        classes: (0..=landmarks)
            .map(|l| ObjectClass(base + l as u32))
            .collect(),
        observe_us: views.iter().map(|v| v.2).collect(),
        extract_us: views.iter().map(|v| v.3).collect(),
        model_build_ms: Vec::new(),
        sha256_mbps: None,
    }
}

/// The arena stream: Poisson model loads, Zipf over the palette, plus a
/// join every `ARENA_JOIN_EVERY_S` whose cold model every player loads at
/// once.
fn arena_stream(seed: u64, secs: f64) -> Stream {
    let rate = LiveKind::ArenaModels.offered_rps();
    let n = ((rate * secs).ceil() as usize).max(1);
    let base = (mix(seed, u64::MAX) % 1_000_000) * 1000;
    let due = poisson_schedule(seed, secs, n);
    let zipf = Zipf::new(ARENA_PALETTE, ARENA_ZIPF_S);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x2b));

    // (due_ns, model id), joins interleaved by due time.
    let mut loads: Vec<(u64, u64)> = due
        .iter()
        .map(|&d| (d, base + zipf.sample(&mut rng) as u64))
        .collect();
    let joins = (secs / ARENA_JOIN_EVERY_S).floor() as u64;
    for j in 1..=joins {
        let at = (j as f64 * ARENA_JOIN_EVERY_S * 1e9) as u64;
        let model = base + ARENA_PALETTE as u64 + j;
        loads.extend((0..ARENA_PLAYERS).map(|_| (at, model)));
    }
    loads.sort_by_key(|&(d, _)| d);

    // The generator's own library: expected bytes and digests.
    let library = ModelLibrary::new();
    let mut model_build_ms = Vec::new();
    let mut hashed_bytes = 0usize;
    let mut hash_secs = 0.0;
    // The warm-up model is one the stream never loads.
    let warm_model = base + ARENA_PALETTE as u64 + joins + 1;
    let mut ids: Vec<u64> = loads.iter().map(|&(_, m)| m).collect();
    ids.push(warm_model);
    ids.sort_unstable();
    ids.dedup();
    for &id in &ids {
        let t = Instant::now();
        let (bytes, _) = library.get(id, MODEL_BYTES);
        model_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(coic_cache::Digest::of(&bytes));
        hash_secs += t.elapsed().as_secs_f64();
        hashed_bytes += bytes.len();
    }
    let request = |req_id: u64, due_ns: u64, model_id: u64| {
        let (bytes, digest) = library.get(model_id, MODEL_BYTES);
        Request {
            req_id,
            due_ns,
            key: model_id,
            frame: Msg::Query {
                req_id,
                descriptor: FeatureDescriptor::ModelHash(digest),
                hint: Some(TaskRequest::RenderLoad {
                    model_id,
                    size_bytes: MODEL_BYTES,
                }),
            }
            .encode(),
            expect: Expect::Model(bytes),
        }
    };
    let requests: Vec<Request> = loads
        .iter()
        .enumerate()
        .map(|(i, &(d, m))| request(i as u64, d, m))
        .collect();
    let m = requests.len() as u64;
    let warmup = (0..CONNS as u64)
        .map(|k| request(m + k, 0, warm_model))
        .collect();
    Stream {
        requests,
        warmup,
        // The recognizer is never asked; one class keeps cloud start-up
        // cheap.
        classes: vec![ObjectClass(0)],
        observe_us: Vec::new(),
        extract_us: Vec::new(),
        model_build_ms,
        sha256_mbps: Some(hashed_bytes as f64 / 1e6 / hash_secs.max(1e-9)),
    }
}

/// Map `f` over `items` on `CONNS` threads, keeping order.
fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(CONNS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let f = &f;
                s.spawn(move || c.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("input generator panicked"))
            .collect()
    })
}

//! The traced run of a live workload: client-side spans around every
//! call the benchmark makes, the program's own event counts, and an
//! in-process replay of the same request stream through each layer's
//! public function.
//!
//! Every number here is measured from outside the program: spans wrap
//! calls into public functions, counts come from public accessors.
//! Spans are kept in memory; at the end the spans of every
//! `SPAN_FILE_EVERY`-th request are written to `.bench_out/`.

use crate::live::{open_loop, Class, Env, OpenLoop};
use crate::report::{median, Outcome, PER_LAYER};
use crate::workloads::{LiveKind, Request, Stream};
use coic_cache::DEFAULT_SHARDS;
use coic_core::compute::ComputeConfig;
use coic_core::netrun::NetConfig;
use coic_core::services::{CloudService, EdgeConfig};
use coic_core::{
    FeatureDescriptor, ModelLibrary, Msg, PanoLibrary, SharedEdgeService, TaskRequest,
};
use coic_netsim::rt::{crc32, encode_frame, FrameConn, FrameDecoder};
use coic_obs::Telemetry;
use coic_vision::SceneGenerator;
use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The span file keeps the requests whose id is a multiple of this (all
/// of a recognition run would be about 90 MB); metrics use every span.
const SPAN_FILE_EVERY: u64 = 16;

/// One timed call: a span at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or stage name.
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Name of the enclosing span (`None` for a request's root).
    pub parent: Option<&'static str>,
    /// Start, ns after the recorder's epoch.
    pub start_ns: u64,
    /// End, ns after the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder shared by the client's sending and reading
/// threads.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Client-side CRC verify + decode of each received frame, µs.
    recv_verify_us: Mutex<Vec<f64>>,
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            recv_verify_us: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span lock").push(span);
    }

    /// The client sent `req` from `start` to `end` (`FrameConn::send`, or
    /// `encode_frame` and the polled client's socket write).
    pub fn send(&self, req: &Request, start: Instant, end: Instant) {
        self.record("client.send", req.req_id, Some("edge.rtt"), start, end);
    }

    /// The client got `req`'s reply `frame`: record the request's root
    /// span and its children, then time the client's CRC verify and
    /// decode of the frame.
    pub fn reply(
        &self,
        req: &Request,
        frame: &[u8],
        due: Instant,
        sent: Instant,
        received: Instant,
        verified: Instant,
    ) {
        let id = req.req_id;
        self.record("request", id, None, due, verified);
        self.record("loadgen.lag", id, Some("request"), due, sent);
        self.record("edge.rtt", id, Some("request"), sent, received);
        self.record("client.verify", id, Some("request"), received, verified);
        let t = Instant::now();
        std::hint::black_box(crc32(frame));
        let decoded = Msg::decode(frame);
        std::hint::black_box(&decoded);
        let took = t.elapsed().as_secs_f64() * 1e6;
        self.recv_verify_us.lock().expect("span lock").push(took);
    }

    /// All spans, plus a derived `client.wait` per request: the part of
    /// `edge.rtt` after the send returned.
    fn finish(self) -> (Vec<Span>, Vec<f64>) {
        let mut spans = self.spans.into_inner().expect("span lock");
        let send_end: HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.name == "client.send")
            .map(|s| (s.req, s.end_ns))
            .collect();
        let waits: Vec<Span> = spans
            .iter()
            .filter(|s| s.name == "edge.rtt")
            .filter_map(|s| {
                send_end.get(&s.req).map(|&start_ns| Span {
                    name: "client.wait",
                    req: s.req,
                    parent: Some("edge.rtt"),
                    start_ns,
                    end_ns: s.end_ns,
                })
            })
            .collect();
        spans.extend(waits);
        (spans, self.recv_verify_us.into_inner().expect("span lock"))
    }
}

/// Per request, the summed duration (µs) of the spans named `name`.
fn per_request_us(spans: &[Span], name: &str) -> HashMap<u64, f64> {
    let mut out: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.req).or_default() += s.us();
    }
    out
}

/// Median over requests of [`per_request_us`]; `None` if no request has
/// such a span.
fn median_us(spans: &[Span], name: &str) -> Option<f64> {
    let mut v: Vec<f64> = per_request_us(spans, name).into_values().collect();
    (!v.is_empty()).then(|| median(&mut v))
}

/// Replay the request stream in-process through each layer's public
/// function, in the order the edge calls them, recording one span per
/// call. Frames crossing a socket are encoded with `encode_frame` and
/// decoded with a `FrameDecoder`, as the two ends of the connection
/// would. Returns the CRC-32 throughput over the reply payloads, MB/s.
fn replay(stream: &Stream, seed: u64, cloud_addr: SocketAddr, spans: &Spans) -> f64 {
    let service = SharedEdgeService::new(&EdgeConfig::default(), DEFAULT_SHARDS);
    let cloud = CloudService::new(
        &stream.classes,
        &SceneGenerator::new(64),
        ComputeConfig::default(),
        Arc::new(ModelLibrary::new()),
        Arc::new(PanoLibrary::new(64)),
        seed,
    );
    let connect_timeout = NetConfig::default().connect_timeout;
    let (mut crc_bytes, mut crc_secs) = (0usize, 0.0f64);

    // Frame `payload` on one end and decode it on the other.
    let wire = |req: u64, payload: &[u8]| -> bytes::Bytes {
        let t = Instant::now();
        let frame = encode_frame(payload).expect("frame fits");
        let t1 = Instant::now();
        spans.record("rt.frame_encode", req, Some("replay.request"), t, t1);
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        let out = dec
            .next_frame()
            .expect("frame decodes")
            .expect("complete frame");
        spans.record(
            "rt.frame_decode",
            req,
            Some("replay.request"),
            t1,
            Instant::now(),
        );
        out
    };
    let encode = |req: u64, msg: &Msg| -> bytes::Bytes {
        let t = Instant::now();
        let out = msg.encode();
        spans.record(
            "protocol.encode",
            req,
            Some("replay.request"),
            t,
            Instant::now(),
        );
        out
    };
    let decode = |req: u64, bytes: &[u8]| -> Msg {
        let t = Instant::now();
        let msg = Msg::decode(bytes).expect("replayed frame decodes");
        spans.record(
            "protocol.decode",
            req,
            Some("replay.request"),
            t,
            Instant::now(),
        );
        msg
    };

    for r in stream.warmup.iter().chain(&stream.requests) {
        let id = r.req_id;
        let begin = Instant::now();
        let now_ns = spans.ns(begin);
        let query = wire(id, &r.frame);
        let Msg::Query {
            req_id,
            descriptor,
            hint,
        } = decode(id, &query)
        else {
            panic!("generated frame is not a query");
        };
        let t = Instant::now();
        let found = service.lookup(&descriptor, now_ns).into_value();
        let lookup = match descriptor {
            FeatureDescriptor::Dnn(_) => "edge_cache.lookup_approx",
            _ => "edge_cache.lookup_exact",
        };
        spans.record(lookup, id, Some("replay.request"), t, Instant::now());
        let reply = match found {
            Some(result) => Msg::Hit { req_id, result },
            None => {
                let task = hint.expect("generated queries carry their task");
                let t = Instant::now();
                let conn = FrameConn::connect_timeout(&cloud_addr, connect_timeout)
                    .expect("connect to cloud");
                spans.record(
                    "cloud.connect",
                    id,
                    Some("replay.request"),
                    t,
                    Instant::now(),
                );
                drop(conn);
                let forward = wire(id, &encode(id, &Msg::Forward { req_id, task }));
                let Msg::Forward { task, .. } = decode(id, &forward) else {
                    panic!("forward round-trips");
                };
                let t = Instant::now();
                let (result, _) = cloud.execute(&task);
                let execute = match task {
                    TaskRequest::Recognition { .. } => "cloud.execute_recognition",
                    _ => "cloud.execute_model",
                };
                spans.record(execute, id, Some("replay.request"), t, Instant::now());
                let back = wire(id, &encode(id, &Msg::CloudReply { req_id, result }));
                let Msg::CloudReply { result, .. } = decode(id, &back) else {
                    panic!("cloud reply round-trips");
                };
                let t = Instant::now();
                service.insert(&descriptor, &result, now_ns);
                spans.record(
                    "edge_cache.insert",
                    id,
                    Some("replay.request"),
                    t,
                    Instant::now(),
                );
                Msg::Result { req_id, result }
            }
        };
        let payload = encode(id, &reply);
        wire(id, &payload);
        spans.record("replay.request", id, None, begin, Instant::now());

        let t = Instant::now();
        std::hint::black_box(crc32(&payload));
        crc_secs += t.elapsed().as_secs_f64();
        crc_bytes += payload.len();
    }
    crc_bytes as f64 / 1e6 / crc_secs.max(1e-9)
}

/// Write the spans of every `every`-th request as JSON lines to
/// `.bench_out/<name>`.
pub fn write_spans(name: &str, spans: &[Span], every: u64) {
    let dir = std::path::Path::new(".bench_out");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(dir.join(name))?);
        for s in spans.iter().filter(|s| s.req % every == 0) {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.req,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("could not write spans: {e}");
    }
}

/// The traced run of a live workload: an untraced and a traced open-loop
/// pass of `secs / 2` each over the same inputs, each on a fresh cloud
/// and edge, then the in-process replay.
pub fn run_live(kind: LiveKind, seed: u64, secs: f64) -> Outcome {
    let stream = kind.generate(seed, secs / 2.0);

    let mut env = Env::spawn(&stream, seed, Telemetry::disabled());
    let plain = open_loop(&mut env, &stream.requests, kind.polled(), None);
    drop(env);

    let telemetry = Telemetry::new();
    let recorder = Spans::new();
    let mut env = Env::spawn(&stream, seed, telemetry.clone());
    let traced = open_loop(&mut env, &stream.requests, kind.polled(), Some(&recorder));
    let recog = env.edge.recog_cache_metrics();
    let exact = env.edge.exact_cache_metrics();
    let index = env.edge.index_telemetry();
    let robust = env.edge.robustness().snapshot();
    let crc_mbps = replay(&stream, seed, env.cloud.addr(), &recorder);
    drop(env);
    let (spans, mut recv_verify) = recorder.finish();
    write_spans(
        &format!("{}-seed{seed}-spans.jsonl", kind.name()),
        &spans,
        SPAN_FILE_EVERY,
    );

    let events = telemetry.trace().events();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count() as f64;
    let rtt_by = |class: Class| -> Option<f64> {
        let mut v: Vec<f64> = traced
            .recs
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.rtt_ns as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| median(&mut v))
    };
    let rtt = per_request_us(&spans, "edge.rtt");
    let mut residual: Vec<f64> = per_request_us(&spans, "replay.request")
        .into_iter()
        .filter_map(|(req, sum)| rtt.get(&req).map(|r| r - sum))
        .collect();
    let p50 = |o: &OpenLoop| o.windowed_p50_p95().0;

    let mut values: Vec<(&'static str, f64)> = vec![
        ("rt.crc32_mbps", crc_mbps),
        ("cache.hits", (recog.hits + exact.hits) as f64),
        ("cache.misses", (recog.misses + exact.misses) as f64),
        (
            "cache.insertions",
            (recog.insertions + exact.insertions) as f64,
        ),
        (
            "cache.evictions",
            (recog.evictions + exact.evictions) as f64,
        ),
        ("flight.queued", count("flight.queued")),
        ("cloud.forward", count("cloud.forward")),
        ("robustness.timeouts", robust.timeouts as f64),
        (
            "robustness.unavailable_replies",
            robust.unavailable_replies as f64,
        ),
        (
            "obs.overhead_pct",
            100.0 * (p50(&traced) / p50(&plain) - 1.0),
        ),
        ("loadgen.lag_p95_ms", plain.lag_p95_ms()),
        ("loadgen.backlog_max", plain.backlog_max as f64),
    ];
    for (span, metric) in [
        ("rt.frame_encode", "rt.frame_encode_us"),
        ("rt.frame_decode", "rt.frame_decode_us"),
        ("protocol.encode", "protocol.encode_us"),
        ("protocol.decode", "protocol.decode_us"),
        ("edge_cache.lookup_approx", "edge_cache.lookup_approx_us"),
        ("edge_cache.lookup_exact", "edge_cache.lookup_exact_us"),
        ("edge_cache.insert", "edge_cache.insert_us"),
        ("cloud.connect", "cloud.connect_us"),
        ("cloud.execute_recognition", "cloud.execute_recognition_us"),
        ("cloud.execute_model", "cloud.execute_model_us"),
        ("client.send", "rt.send_us"),
        ("client.wait", "client.wait_us"),
        ("replay.request", "replay.edge_sum_us"),
    ] {
        if let Some(v) = median_us(&spans, span) {
            values.push((metric, v));
        }
    }
    if !recv_verify.is_empty() {
        values.push(("rt.recv_verify_us", median(&mut recv_verify)));
    }
    if let Some(v) = rtt_by(Class::Hit) {
        values.push(("edge.rtt_hit_us", v));
    }
    if let Some(v) = rtt_by(Class::Cloud) {
        values.push(("edge.rtt_miss_us", v));
    }
    if !residual.is_empty() {
        values.push(("edge.residual_us", median(&mut residual)));
    }
    if index.lookups > 0 {
        values.push((
            "index.probes_per_lookup",
            index.probe_count as f64 / index.lookups as f64,
        ));
        values.push(("index.rebuilds", index.rebuilds as f64));
    }
    let mut observe = stream.observe_us.clone();
    let mut extract = stream.extract_us.clone();
    if !observe.is_empty() {
        values.push(("vision.observe_us", median(&mut observe)));
        values.push(("vision.extract_us", median(&mut extract)));
    }
    if let Some(v) = stream.sha256_mbps {
        values.push(("digest.sha256_mbps", v));
    }
    let mut build = stream.model_build_ms.clone();
    if !build.is_empty() {
        values.push(("content.model_build_ms", median(&mut build)));
    }
    plain.validity_warnings(kind.name());

    let attempted = 2 * stream.requests.len() as u64;
    let failed = plain.failed() + traced.failed();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        names: &PER_LAYER,
    }
}

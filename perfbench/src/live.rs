//! The live workloads: a loopback cloud and edge in this process, driven
//! by seeded open-loop traffic and a closed-loop capacity phase.
//!
//! Open loop: every request is sent at its due time, and each reply is
//! received, verified and timed, either by one polling thread per
//! connection or by a pacer plus one blocking reader per connection (see
//! `open_loop`). Latency runs from the *due* time, so a stall that
//! delays later sends is charged to them. Replies on one connection come
//! back in send order (the edge serves a connection on one thread), so
//! the client knows which request the next reply must answer.

use crate::report::{
    self, first_decile, median, ninth_decile, p50_p95, percentile, status_kb, Outcome, END_TO_END,
};
use crate::trace::Spans;
use crate::workloads::{Expect, LiveKind, Request, Stream, CONNS};
use coic_core::compute::ComputeConfig;
use coic_core::netrun::{spawn_cloud, spawn_edge_with, CloudHandle, EdgeHandle, NetConfig};
use coic_core::services::EdgeConfig;
use coic_core::{ModelLibrary, Msg, PanoLibrary, TaskResult};
use coic_netsim::rt::{encode_frame, FrameConn, FrameDecoder};
use coic_obs::Telemetry;
use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a reader waits for one reply before the request (and every
/// later one on that connection) counts as hung.
const REPLY_DEADLINE: Duration = Duration::from_secs(5);

/// Outstanding requests per connection in the closed-loop phase.
const CAPACITY_WINDOW: usize = 4;

/// Closed-loop replies are counted per bucket of this many seconds, and
/// buckets are summed into slices of at least `SLICE_MIN_S` seconds and
/// `SLICE_MIN_REPLIES` replies (at the phase's mean rate).
const BUCKET_S: f64 = 0.01;
const SLICE_MIN_S: f64 = 0.25;
const SLICE_MIN_REPLIES: f64 = 200.0;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Latency percentiles are taken per window of consecutive requests and
/// the first decile over windows is reported. On a shared VM the same
/// run switches for seconds at a time between a quiet state and states
/// where every reply pays 30–60% more in scheduling, or stalls for
/// milliseconds, and how much of a run each state takes varies from run
/// to run: a median or mean over windows follows that share. Interference
/// only ever adds time, so the quietest windows read the program's own
/// cost best; the first decile reads the quiet state whenever it fills a
/// tenth of the run, and a change to the request path moves every window,
/// so it moves the first decile too. A window holds at least `MIN_WINDOW`
/// requests (so its p95 has fifty or more samples beyond it; a shorter
/// run is one window), and a run has at most `MAX_WINDOWS` of them.
const MIN_WINDOW: usize = 1000;
const MAX_WINDOWS: usize = 32;

/// Open-loop requests due in the first second are checked but not timed:
/// latency there runs high while the fresh edge's caches and index fill.
/// At most a quarter of a short run is set aside this way.
const WARMUP_NS: u64 = 1_000_000_000;

/// A request's outcome, read from its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Msg::Hit` with the expected answer: served from the edge cache.
    Hit,
    /// `Msg::Result` with the expected answer: fetched from the cloud.
    Cloud,
    /// `Msg::Unavailable`.
    Unavailable,
    /// `Msg::Overloaded`.
    Overloaded,
    /// No reply before the deadline, or the connection failed.
    Hung,
    /// A reply with the wrong request id, kind or bytes.
    Wrong,
}

impl Class {
    /// Replies that carry a verified answer.
    pub fn verified(self) -> bool {
        matches!(self, Class::Hit | Class::Cloud)
    }
}

/// Classify a reply frame against the request it must answer. The
/// second value scores a recognition label against ground truth.
pub fn check(frame: &[u8], req: &Request) -> (Class, Option<bool>) {
    let (class, req_id, result) = match Msg::decode(frame) {
        Ok(Msg::Hit { req_id, result }) => (Class::Hit, req_id, Some(result)),
        Ok(Msg::Result { req_id, result }) => (Class::Cloud, req_id, Some(result)),
        Ok(Msg::Unavailable { req_id }) => (Class::Unavailable, req_id, None),
        Ok(Msg::Overloaded { req_id, .. }) => (Class::Overloaded, req_id, None),
        _ => return (Class::Wrong, None),
    };
    if req_id != req.req_id {
        return (Class::Wrong, None);
    }
    match (result, &req.expect) {
        (None, _) => (class, None),
        (Some(TaskResult::Recognition(r)), Expect::Label(truth)) => {
            (class, Some(r.label == *truth))
        }
        (Some(TaskResult::Model(bytes)), Expect::Model(expected)) if bytes == *expected => {
            (class, None)
        }
        _ => (Class::Wrong, None),
    }
}

/// A running cloud and edge plus the benchmark's client connections.
pub struct Env {
    /// The cloud (kept for the capacity phase and the replay's connects).
    pub cloud: CloudHandle,
    /// The edge under test.
    pub edge: EdgeHandle,
    conns: Vec<FrameConn>,
    /// The same sockets as `conns`, for the polled client.
    raw: Vec<TcpStream>,
}

impl Env {
    /// Spawn cloud and edge with the shipped configuration (plus
    /// `telemetry`), connect, and send the warm-up requests.
    pub fn spawn(stream: &Stream, seed: u64, telemetry: Telemetry) -> Env {
        let cloud = spawn_cloud(
            &stream.classes,
            64,
            ComputeConfig::default(),
            Arc::new(ModelLibrary::new()),
            Arc::new(PanoLibrary::new(64)),
            seed,
        )
        .expect("spawn loopback cloud");
        Env::with_cloud(cloud, stream, telemetry)
    }

    /// A fresh edge (cold caches) in front of an existing cloud.
    pub fn with_cloud(cloud: CloudHandle, stream: &Stream, telemetry: Telemetry) -> Env {
        let net = NetConfig {
            telemetry,
            ..NetConfig::default()
        };
        let edge = spawn_edge_with(cloud.addr(), &EdgeConfig::default(), net, None)
            .expect("spawn loopback edge");
        let raw: Vec<TcpStream> = (0..CONNS)
            .map(|_| TcpStream::connect(edge.addr()).expect("connect to edge"))
            .collect();
        let conns: Vec<FrameConn> = raw
            .iter()
            .map(|s| {
                let c = FrameConn::new(s.try_clone().expect("clone connection"))
                    .expect("frame connection");
                c.set_read_deadline(Some(REPLY_DEADLINE))
                    .expect("set deadline");
                c
            })
            .collect();
        let mut env = Env {
            cloud,
            edge,
            conns,
            raw,
        };
        for (conn, req) in env.conns.iter_mut().zip(&stream.warmup) {
            conn.send(&req.frame).expect("send warm-up request");
            let reply = conn.recv().expect("warm-up reply");
            let (class, _) = check(&reply, req);
            assert!(class.verified(), "warm-up request got {class:?}");
        }
        env
    }
}

/// One request's record from an open-loop pass.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Outcome class.
    pub class: Class,
    /// Due time → verified reply, ns.
    pub latency_ns: u64,
    /// Due time → send start, ns.
    pub lag_ns: u64,
    /// Send start → reply received, ns (the edge seen as a black box,
    /// including the client's send and receive calls).
    pub rtt_ns: u64,
    /// Recognition label correct?
    pub label_ok: Option<bool>,
}

/// Everything an open-loop pass measured.
pub struct OpenLoop {
    /// Per request, in stream order.
    pub recs: Vec<Rec>,
    /// Schedule start → last reply, s.
    pub wall_s: f64,
    /// Largest number of requests sent but not yet answered, sampled at
    /// each send.
    pub backlog_max: u64,
    /// Mean backlog over the first and the last quarter of the sends.
    pub backlog_first_last: (f64, f64),
    /// Requests before this index are the warm-up: checked, not timed.
    pub timed_from: usize,
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Drive `reqs` open-loop over the environment's connections. With
/// `polled` (see `LiveKind::polled`), one client thread per connection
/// sends each of its requests at its due time and reads its connection
/// without blocking, yielding in a loop between rounds
/// (`polled_client`): no client thread sleeps or waits to be woken, and
/// no vCPU halts. Without, a sleeping pacer and one blocking reader per
/// connection (`threaded_client`) leave the CPUs to the edge. With
/// `spans`, record the client-side spans of every request.
pub fn open_loop(env: &mut Env, reqs: &[Request], polled: bool, spans: Option<&Spans>) -> OpenLoop {
    let t0 = Instant::now() + Duration::from_millis(20);
    let (recs, last_reply, backlog) = if polled {
        polled_client(env, reqs, t0, spans)
    } else {
        threaded_client(env, reqs, t0, spans)
    };
    let q = backlog.len() / 4;
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
    OpenLoop {
        recs,
        wall_s: last_reply.saturating_duration_since(t0).as_secs_f64(),
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        backlog_first_last: (mean(&backlog[..q]), mean(&backlog[backlog.len() - q..])),
        timed_from: reqs
            .partition_point(|r| r.due_ns < WARMUP_NS)
            .min(reqs.len() / 4),
    }
}

/// Per request its record, then the last reply's time, then the backlog
/// (requests sent but not yet answered) sampled at each send.
type ClientRun = (Vec<Rec>, Instant, Vec<u64>);

/// The open loop with a sleeping pacer (the calling thread) and one
/// blocking reader thread per connection.
fn threaded_client(
    env: &mut Env,
    reqs: &[Request],
    t0: Instant,
    spans: Option<&Spans>,
) -> ClientRun {
    let n = env.conns.len();
    let readers: Vec<FrameConn> = env
        .conns
        .iter()
        .map(|c| c.try_clone().expect("clone connection"))
        .collect();
    // Send start of each request, ns after t0, plus one (0 = not sent).
    let sent_at: Vec<AtomicU64> = reqs.iter().map(|_| AtomicU64::new(0)).collect();
    let done = AtomicU64::new(0);
    let mut backlog = Vec::with_capacity(reqs.len());

    let (recs, last_reply) = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(k, mut conn)| {
                let (sent_at, done) = (&sent_at, &done);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut mine = (k..reqs.len()).step_by(n);
                    while let Some(i) = mine.next() {
                        let req = &reqs[i];
                        let due = t0 + Duration::from_nanos(req.due_ns);
                        match conn.recv() {
                            Ok(frame) => {
                                let received = Instant::now();
                                let (class, label_ok) = check(&frame, req);
                                let verified = Instant::now();
                                done.fetch_add(1, Ordering::SeqCst);
                                let sent = t0
                                    + Duration::from_nanos(
                                        sent_at[i].load(Ordering::SeqCst).saturating_sub(1),
                                    );
                                if let Some(spans) = spans {
                                    spans.reply(req, &frame, due, sent, received, verified);
                                }
                                out.push((
                                    i,
                                    Rec::answered(class, label_ok, due, sent, received, verified),
                                    verified,
                                ));
                            }
                            Err(_) => {
                                for j in std::iter::once(i).chain(mine.by_ref()) {
                                    out.push((j, Rec::hung(), Instant::now()));
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();

        for (i, req) in reqs.iter().enumerate() {
            let due = t0 + Duration::from_nanos(req.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            sent_at[i].store(ns_between(t0, start) + 1, Ordering::SeqCst);
            backlog.push((i as u64).saturating_sub(done.load(Ordering::SeqCst)));
            let conn = &mut env.conns[i % n];
            if conn.send(&req.frame).is_err() {
                // Unblocks this connection's reader, which then counts
                // the rest of its requests as hung.
                conn.shutdown();
            }
            if let Some(spans) = spans {
                spans.send(req, start, Instant::now());
            }
        }

        let replies: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reply reader panicked"))
            .collect();
        let mut recs = vec![Rec::hung(); reqs.len()];
        let mut last = t0;
        for reader in replies {
            for (i, rec, at) in reader {
                recs[i] = rec;
                last = last.max(at);
            }
        }
        (recs, last)
    });
    (recs, last_reply, backlog)
}

/// One connection of the polled client.
struct Polled {
    stream: TcpStream,
    /// Encoded frames not yet written, from `written` on.
    out: Vec<u8>,
    written: usize,
    decoder: FrameDecoder,
    /// Requests sent and not yet answered, in send order, with their
    /// send start.
    waiting: VecDeque<(usize, Instant)>,
    /// The connection failed or timed out; its requests count as hung.
    dead: bool,
}

impl Polled {
    /// Write what the socket takes now. False once the connection failed.
    fn flush(&mut self) -> bool {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        true
    }

    /// Drop the connection: every request still waiting stays hung.
    fn kill(&mut self) {
        self.dead = true;
        self.waiting.clear();
        self.out.clear();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The open loop with one thread per connection. Each sends its share of
/// the requests when they are due and reads its connection without
/// blocking, yielding when a round found nothing to do.
fn polled_client(env: &Env, reqs: &[Request], t0: Instant, spans: Option<&Spans>) -> ClientRun {
    let n = env.raw.len();
    let done = AtomicU64::new(0);
    let per_conn: Vec<PolledRun> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .raw
            .iter()
            .enumerate()
            .map(|(k, raw)| {
                let stream = raw.try_clone().expect("clone connection");
                let done = &done;
                s.spawn(move || {
                    poll_connection(stream, reqs, (k..reqs.len()).step_by(n), t0, spans, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("polled client panicked"))
            .collect()
    });
    let mut recs = vec![Rec::hung(); reqs.len()];
    let mut last = t0;
    let mut backlog = Vec::with_capacity(reqs.len());
    for (answered, at, sends) in per_conn {
        for (i, rec) in answered {
            recs[i] = rec;
        }
        last = last.max(at);
        backlog.extend(sends);
    }
    backlog.sort_unstable();
    (recs, last, backlog.into_iter().map(|(_, b)| b).collect())
}

/// One polled connection's answered requests, its last reply's time, and
/// (request, backlog) at each of its sends.
type PolledRun = (Vec<(usize, Rec)>, Instant, Vec<(usize, u64)>);

/// Drive the requests `mine` over one connection (see `polled_client`).
/// `done` counts replies over all connections, for the backlog.
fn poll_connection(
    stream: TcpStream,
    reqs: &[Request],
    mine: impl Iterator<Item = usize>,
    t0: Instant,
    spans: Option<&Spans>,
    done: &AtomicU64,
) -> PolledRun {
    stream.set_nonblocking(true).expect("nonblocking socket");
    let mut c = Polled {
        stream,
        out: Vec::new(),
        written: 0,
        decoder: FrameDecoder::new(),
        waiting: VecDeque::new(),
        dead: false,
    };
    let mut mine = mine.peekable();
    let (mut answered, mut sends) = (Vec::new(), Vec::new());
    let mut last = t0;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let mut busy = false;
        let start = Instant::now();
        if let Some(i) = mine.next_if(|&i| start >= t0 + Duration::from_nanos(reqs[i].due_ns)) {
            busy = true;
            sends.push((i, (i as u64).saturating_sub(done.load(Ordering::SeqCst))));
            if !c.dead {
                match encode_frame(&reqs[i].frame) {
                    Ok(frame) => {
                        c.out.extend_from_slice(&frame);
                        c.waiting.push_back((i, start));
                        if !c.flush() {
                            c.kill();
                        }
                    }
                    Err(_) => c.kill(),
                }
            }
            if let Some(spans) = spans {
                spans.send(&reqs[i], start, Instant::now());
            }
        }
        if !c.dead && !c.flush() {
            c.kill();
        }
        let got = if c.dead {
            0
        } else {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    c.kill();
                    0
                }
                Ok(got) => got,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted =>
                {
                    if c.waiting
                        .front()
                        .is_some_and(|&(_, sent)| sent.elapsed() > REPLY_DEADLINE)
                    {
                        c.kill();
                    }
                    0
                }
                Err(_) => {
                    c.kill();
                    0
                }
            }
        };
        if got > 0 {
            busy = true;
            let received = Instant::now();
            c.decoder.push(&buf[..got]);
            loop {
                let frame = match c.decoder.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        c.kill();
                        break;
                    }
                };
                let Some((i, sent)) = c.waiting.pop_front() else {
                    // A reply nobody asked for.
                    c.kill();
                    break;
                };
                let req = &reqs[i];
                let (class, label_ok) = check(&frame, req);
                let verified = Instant::now();
                done.fetch_add(1, Ordering::SeqCst);
                let due = t0 + Duration::from_nanos(req.due_ns);
                if let Some(spans) = spans {
                    spans.reply(req, &frame, due, sent, received, verified);
                }
                answered.push((
                    i,
                    Rec::answered(class, label_ok, due, sent, received, verified),
                ));
                last = last.max(verified);
            }
        }
        if mine.peek().is_none() && (c.dead || c.waiting.is_empty()) {
            break;
        }
        if !busy {
            std::thread::yield_now();
        }
    }
    let _ = c.stream.set_nonblocking(false);
    (answered, last, sends)
}

impl Rec {
    fn answered(
        class: Class,
        label_ok: Option<bool>,
        due: Instant,
        sent: Instant,
        received: Instant,
        verified: Instant,
    ) -> Rec {
        Rec {
            class,
            latency_ns: ns_between(due, verified),
            lag_ns: ns_between(due, sent),
            rtt_ns: ns_between(sent, received),
            label_ok,
        }
    }

    fn hung() -> Rec {
        Rec {
            class: Class::Hung,
            latency_ns: 0,
            lag_ns: 0,
            rtt_ns: 0,
            label_ok: None,
        }
    }
}

impl OpenLoop {
    /// Latencies (ms) of the requests in `class`.
    fn latencies_ms(&self, class: Class) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect()
    }

    /// First decile over windows of consecutive timed requests of each
    /// window's (p50, p95) latency of verified replies, ms.
    pub fn windowed_p50_p95(&self) -> (f64, f64) {
        let timed = &self.recs[self.timed_from..];
        let windows = (timed.len() / MIN_WINDOW).clamp(1, MAX_WINDOWS);
        let size = timed.len().div_ceil(windows).max(1);
        let (mut p50s, mut p95s): (Vec<f64>, Vec<f64>) = timed
            .chunks(size)
            .map(|w| {
                let mut lat: Vec<f64> = w
                    .iter()
                    .filter(|r| r.class.verified())
                    .map(|r| r.latency_ns as f64 / 1e6)
                    .collect();
                p50_p95(&mut lat)
            })
            .unzip();
        (first_decile(&mut p50s), first_decile(&mut p95s))
    }

    /// Count of requests in `class`.
    pub fn count(&self, class: Class) -> u64 {
        self.recs.iter().filter(|r| r.class == class).count() as u64
    }

    /// Requests without a verified reply.
    pub fn failed(&self) -> u64 {
        self.recs.iter().filter(|r| !r.class.verified()).count() as u64
    }

    /// p95 of the generator's lag behind its schedule, ms.
    pub fn lag_p95_ms(&self) -> f64 {
        let mut lags: Vec<f64> = self
            .recs
            .iter()
            .filter(|r| r.class != Class::Hung)
            .map(|r| r.lag_ns as f64 / 1e6)
            .collect();
        lags.sort_by(f64::total_cmp);
        percentile(&lags, 0.95)
    }

    /// Warn on standard error when the pass is not a valid open-loop
    /// measurement: the generator ran later than a typical request takes
    /// (p95 lag above p50 latency), or the backlog grew over the run.
    pub fn validity_warnings(&self, name: &str) {
        let lag = self.lag_p95_ms();
        let mut latencies: Vec<f64> = self.recs[self.timed_from..]
            .iter()
            .filter(|r| r.class.verified())
            .map(|r| r.latency_ns as f64 / 1e6)
            .collect();
        let p50 = median(&mut latencies);
        if lag > p50 {
            eprintln!(
                "WARNING {name}: generator p95 lag {lag:.3} ms exceeds p50 latency {p50:.3} ms"
            );
        }
        let (first, last) = self.backlog_first_last;
        if last > 2.0 * first + 4.0 {
            eprintln!(
                "WARNING {name}: backlog grew from {first:.1} to {last:.1} outstanding requests"
            );
        }
    }
}

/// Result of the closed-loop capacity phase.
pub struct Capacity {
    /// Requests sent.
    pub attempted: u64,
    /// Requests without a verified reply.
    pub failed: u64,
    /// Verified replies per second.
    pub rps: f64,
}

/// One closed-loop pass: each connection keeps `CAPACITY_WINDOW`
/// requests outstanding, taking its share of `reqs` in order, until
/// `stop` or the requests run out. Returns (sent, verified, failed,
/// busy seconds, verified replies in each whole `BUCKET_S` of the
/// pass).
fn closed_loop_pass(
    env: &mut Env,
    reqs: &[Request],
    stop: Instant,
) -> (u64, u64, u64, f64, Vec<u64>) {
    let n = env.conns.len();
    let start = Instant::now();
    let per_conn: Vec<(u64, u64, u64, Instant, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || {
                    let mut mine = (k..reqs.len()).step_by(n);
                    let mut inflight = std::collections::VecDeque::new();
                    let (mut sent, mut ok, mut bad) = (0u64, 0u64, 0u64);
                    let mut buckets: Vec<u64> = Vec::new();
                    loop {
                        while inflight.len() < CAPACITY_WINDOW && Instant::now() < stop {
                            let Some(i) = mine.next() else { break };
                            sent += 1;
                            if conn.send(&reqs[i].frame).is_err() {
                                bad += 1;
                                continue;
                            }
                            inflight.push_back(i);
                        }
                        let Some(i) = inflight.pop_front() else { break };
                        match conn.recv() {
                            Ok(frame) if check(&frame, &reqs[i]).0.verified() => {
                                ok += 1;
                                let b = (start.elapsed().as_secs_f64() / BUCKET_S) as usize;
                                if buckets.len() <= b {
                                    buckets.resize(b + 1, 0);
                                }
                                buckets[b] += 1;
                            }
                            Ok(_) => bad += 1,
                            Err(_) => {
                                bad += 1 + inflight.len() as u64;
                                break;
                            }
                        }
                    }
                    (sent, ok, bad, Instant::now(), buckets)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity driver panicked"))
            .collect()
    });
    let end = per_conn.iter().map(|c| c.3).max().unwrap_or(start);
    let busy = end.duration_since(start).as_secs_f64();
    let buckets = (0..(busy / BUCKET_S) as usize)
        .map(|k| per_conn.iter().filter_map(|c| c.4.get(k)).sum())
        .collect();
    (
        per_conn.iter().map(|c| c.0).sum(),
        per_conn.iter().map(|c| c.1).sum(),
        per_conn.iter().map(|c| c.2).sum(),
        busy,
        buckets,
    )
}

/// The capacity phase: closed-loop passes over the stream, each on a
/// fresh edge in front of `cloud` so every pass starts cold and sees the
/// open loop's miss mix, until `secs` of closed-loop time have passed.
/// Capacity is the ninth decile over the passes' whole slices of each
/// slice's verified replies per second, for the reason latency reads the
/// first decile (see `MIN_WINDOW`); a phase too short for one whole slice
/// reports verified replies over busy time.
pub fn capacity(cloud: CloudHandle, stream: &Stream, secs: f64) -> Capacity {
    let mut cloud = Some(cloud);
    let (mut attempted, mut verified, mut failed, mut busy) = (0, 0, 0, 0.0);
    let mut passes: Vec<Vec<u64>> = Vec::new();
    while busy < secs {
        let mut env = Env::with_cloud(
            cloud.take().expect("cloud returned by the last pass"),
            stream,
            Telemetry::disabled(),
        );
        let stop = Instant::now() + Duration::from_secs_f64(secs - busy);
        let (s, v, f, b, buckets) = closed_loop_pass(&mut env, &stream.requests, stop);
        (attempted, verified, failed, busy) = (attempted + s, verified + v, failed + f, busy + b);
        passes.push(buckets);
        cloud = Some(env.cloud);
    }
    let mean_rps = verified as f64 / busy.max(1e-9);
    let slice_s = SLICE_MIN_S.max(SLICE_MIN_REPLIES / mean_rps.max(1e-9));
    let per_slice = ((slice_s / BUCKET_S).ceil() as usize).max(1);
    let mut slice_rps: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.chunks_exact(per_slice))
        .map(|c| c.iter().sum::<u64>() as f64 / (per_slice as f64 * BUCKET_S))
        .collect();
    let rps = if slice_rps.is_empty() {
        mean_rps
    } else {
        ninth_decile(&mut slice_rps)
    };
    Capacity {
        attempted,
        failed,
        rps,
    }
}

/// Share of latency a hit saves against a cloud fetch, % (median vs
/// median): the live counterpart of the paper's reductions.
fn hit_saving_pct(open: &OpenLoop) -> Option<f64> {
    let mut hit = open.latencies_ms(Class::Hit);
    let mut cloud = open.latencies_ms(Class::Cloud);
    if hit.is_empty() || cloud.is_empty() {
        return None;
    }
    Some(100.0 * (1.0 - median(&mut hit) / median(&mut cloud)))
}

/// The end-to-end run of a live workload: two thirds of `secs` open
/// loop at the fixed offered rate, then a third closed loop over the
/// same inputs.
pub fn run_e2e(kind: LiveKind, seed: u64, secs: f64) -> Outcome {
    let stream = kind.generate(seed, secs * 2.0 / 3.0);
    let baseline_kb = status_kb("VmRSS");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS {
        drop(env.take());
        let t = Instant::now();
        env = Some(Env::spawn(&stream, seed, Telemetry::disabled()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let open = open_loop(&mut env, &stream.requests, kind.polled(), None);
    open.validity_warnings(kind.name());

    let Env {
        cloud,
        edge,
        conns,
        raw,
    } = env;
    drop((edge, conns, raw));
    let cap = capacity(cloud, &stream, secs / 3.0);
    let rss_mb = report::rss_growth_mb(baseline_kb);

    let (p50, p95) = open.windowed_p50_p95();
    let hits = open.count(Class::Hit);
    let clouds = open.count(Class::Cloud);
    let keys: HashSet<u64> = stream.requests.iter().map(|r| r.key).collect();
    let scored: Vec<bool> = open.recs.iter().filter_map(|r| r.label_ok).collect();
    let accuracy = if scored.is_empty() {
        // Model loads: replies whose bytes equal the expected model,
        // over replies that carried an answer.
        let wrong = open.count(Class::Wrong);
        (hits + clouds) as f64 / (hits + clouds + wrong).max(1) as f64
    } else {
        scored.iter().filter(|&&ok| ok).count() as f64 / scored.len() as f64
    };
    let attempted = stream.requests.len() as u64 + cap.attempted;
    let failed = open.failed() + cap.failed;
    let saving = hit_saving_pct(&open);
    let mut values = vec![
        ("p50_ms", p50),
        ("p95_ms", p95),
        ("capacity_rps", cap.rps),
        (
            "verified_ratio",
            (attempted - failed) as f64 / attempted as f64,
        ),
        ("hit_ratio", hits as f64 / (hits + clouds).max(1) as f64),
        ("cloud_fetches_per_key", clouds as f64 / keys.len() as f64),
        ("recog_accuracy", accuracy),
        ("rss_mb", rss_mb),
        ("setup_s", median(&mut setups)),
        (
            "sim_req_per_s",
            (hits + clouds) as f64 / open.wall_s.max(1e-9),
        ),
    ];
    if let Some(saving) = saving {
        values.push(("fig2a_reduction_pct", saving));
        values.push(("fig2b_reduction_pct", saving));
    }
    let by_class = [
        ("hit", hits),
        ("cloud", clouds),
        ("unavailable", open.count(Class::Unavailable)),
        ("overloaded", open.count(Class::Overloaded)),
        ("hung", open.count(Class::Hung)),
        ("wrong", open.count(Class::Wrong)),
    ];
    eprintln!(
        "{}: {} requests at {} req/s, outcome classes {:?}, lag p95 {:.3} ms, \
         capacity phase {} sent, peak RSS {} MB",
        kind.name(),
        stream.requests.len(),
        kind.offered_rps(),
        by_class,
        open.lag_p95_ms(),
        cap.attempted,
        status_kb("VmHWM") / 1024
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        names: &END_TO_END,
    }
}

//! Metric names, the result line, and the small statistics the
//! workloads share.

use std::time::Duration;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 12] = [
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("capacity_rps", "req/s"),
    ("verified_ratio", "ratio"),
    ("hit_ratio", "ratio"),
    ("cloud_fetches_per_key", "ratio"),
    ("recog_accuracy", "ratio"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("fig2a_reduction_pct", "%"),
    ("fig2b_reduction_pct", "%"),
];

/// Per-layer metrics of the traced run, in the order `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("rt.crc32_mbps", "MB/s"),
    ("rt.frame_encode_us", "us"),
    ("rt.frame_decode_us", "us"),
    ("rt.send_us", "us"),
    ("rt.recv_verify_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("edge.rtt_hit_us", "us"),
    ("edge.rtt_miss_us", "us"),
    ("edge_cache.lookup_approx_us", "us"),
    ("edge_cache.lookup_exact_us", "us"),
    ("index.probes_per_lookup", "count"),
    ("edge_cache.insert_us", "us"),
    ("index.rebuilds", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cloud.connect_us", "us"),
    ("cloud.execute_recognition_us", "us"),
    ("cloud.execute_model_us", "us"),
    ("flight.queued", "count"),
    ("cloud.forward", "count"),
    ("robustness.timeouts", "count"),
    ("robustness.unavailable_replies", "count"),
    ("edge.residual_us", "us"),
    ("vision.extract_us", "us"),
    ("vision.observe_us", "us"),
    ("digest.sha256_mbps", "MB/s"),
    ("content.model_build_ms", "ms"),
    ("sim.cell_s", "s"),
    ("obs.overhead_pct", "%"),
    ("loadgen.lag_p95_ms", "ms"),
    ("client.wait_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("replay.edge_sum_us", "us"),
];

/// One run's result: what the last line of standard output carries.
pub struct Outcome {
    /// Every output check passed and no request failed.
    pub correct: bool,
    /// Requests (or simulated grid cells) attempted.
    pub attempted: u64,
    /// Of those, how many failed a check or got no valid reply.
    pub failed: u64,
    /// Measured values by name; a name missing here is not applicable
    /// to the workload.
    pub values: Vec<(&'static str, f64)>,
    /// Which metric list this run reports.
    pub names: &'static [(&'static str, &'static str)],
}

impl Outcome {
    fn value_of(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line. Metrics that do not apply to the workload are
    /// reported as 0 (the table on standard error marks them `n/a`).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .names
            .iter()
            .map(|&(name, unit)| {
                let v = self.value_of(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table of every metric, on standard error.
    pub fn print_table(&self, title: &str) {
        eprintln!("== {title}");
        for &(name, unit) in self.names {
            match self.value_of(name) {
                Some(v) => eprintln!("  {name:<32} {v:>16.4} {unit}"),
                None => eprintln!("  {name:<32} {:>16} {unit}", "n/a"),
            }
        }
        eprintln!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// A finite float as JSON, keeping every digit Rust's shortest
/// round-trip form gives.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1); 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort a sample in place and return its median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// Sort a sample in place and return its first decile (nearest rank).
pub fn first_decile(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.1)
}

/// Sort a sample in place and return its ninth decile (nearest rank).
pub fn ninth_decile(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.9)
}

/// Sort a sample in place and return `(p50, p95)`.
pub fn p50_p95(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    (percentile(v, 0.5), percentile(v, 0.95))
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A `/proc/self/status` field in kilobytes (`VmRSS`, `VmHWM`).
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident-memory growth, MB, from `baseline_kb` to the process's peak.
pub fn rss_growth_mb(baseline_kb: u64) -> f64 {
    status_kb("VmHWM").saturating_sub(baseline_kb) as f64 / 1024.0
}

/// SplitMix64: a per-index seed, so any thread can derive input `i`
/// without sharing an RNG.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

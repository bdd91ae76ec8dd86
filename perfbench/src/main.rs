//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <node-zipf|backbone-ingest|replicated-query> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed before anything is timed. Each
//! workload then repeats fixed passes — fresh state, the same inputs,
//! every output checked — until `--seconds` have passed and every
//! latency distribution holds enough samples for its p99. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! correctness check ends the run with a nonzero exit code.
//!
//! See `perfbench/README.md` for what each workload and metric means.

mod daemon;
mod stats;
mod tap;
mod zipf;

use std::time::{Duration, Instant};

use stats::Metrics;

/// Samples a latency distribution needs before its p99 is reported
/// (ten beyond it).
const MIN_SAMPLES: usize = 1000;
/// A run that cannot gather them in this long fails.
const MAX_RUN: Duration = Duration::from_secs(120);

/// Every per-layer metric, in output order, with its unit. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("hash.ns_per_item", "ns"),
    ("sparse.insert_ns_per_item", "ns"),
    ("sparse.bytes_per_key", "B"),
    ("sparse.dense_keys", "count"),
    ("sparse.index_max_probe", "count"),
    ("sparse.scan_ms", "ms"),
    ("codec.decode_us_per_frame", "us"),
    ("window.absorb_us_per_frame", "us"),
    ("journal.encode_us_per_frame", "us"),
    ("journal.append_us_per_frame", "us"),
    ("server.residual_us_per_frame", "us"),
    ("window.replay_us_per_record", "us"),
    ("replica.lag_max", "count"),
    ("replica.attach_ms", "ms"),
    ("query.connect_us", "us"),
    ("query.reply_us.topk", "us"),
    ("query.reply_us.summary", "us"),
    ("query.reply_us.estimate", "us"),
    ("net.write_block_us", "us"),
    ("net.wire_bytes_per_frame", "B"),
    ("agent.session_s", "s"),
    ("agent.retransmits", "count"),
    ("agent.busy_backoffs", "count"),
    ("server.backpressure_events", "count"),
    ("server.busy_rejections", "count"),
    ("server.drain_ms", "ms"),
    ("server.start_ms", "ms"),
    ("journal.snapshots", "count"),
    ("loadgen.gen_s", "s"),
    ("loadgen.late_max_ms", "ms"),
    ("contention.write_p50_us", "us"),
    ("contention.read_p50_us", "us"),
    ("write_p75_us", "us"),
    ("write_p90_us", "us"),
    ("write_p99_us", "us"),
    ("read_p90_us", "us"),
    ("read_p99_us", "us"),
    ("samples.write", "count"),
    ("samples.read", "count"),
];

/// Parsed command line.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl RunArgs {
    /// Whether the pass loop may stop: the measuring time is up and the
    /// thinner latency distribution holds `samples` ≥ [`MIN_SAMPLES`].
    pub fn done(&self, start: Instant, samples: usize) -> bool {
        let t = start.elapsed();
        (t >= self.seconds && samples >= MIN_SAMPLES) || t >= MAX_RUN
    }
}

/// Raw end-to-end samples a workload gathered.
#[derive(Debug, Default)]
pub struct E2e {
    /// Set-up time of each pass, seconds.
    pub setup_s: Vec<f64>,
    /// Work completed per second, one value per pass.
    pub throughput: Vec<f64>,
    /// Write latencies, microseconds.
    pub writes_us: Vec<f64>,
    /// Read latencies, microseconds.
    pub reads_us: Vec<f64>,
}

/// Per-layer values a traced run measured, by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64)>);

/// What a workload run returns.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: E2e,
    pub layers: Layers,
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(o: &Outcome) -> Result<Metrics, String> {
    let e = &o.e2e;
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&e.setup_s), "s");
    m.put("throughput_per_s", stats::median(&e.throughput), "1/s");
    m.put(
        "write_p50_us",
        stats::quantile("write latency", &e.writes_us, 0.5)?,
        "us",
    );
    for (q, name) in [(0.5, "read_p50_us"), (0.75, "read_p75_us")] {
        m.put(name, stats::quantile("read latency", &e.reads_us, q)?, "us");
    }
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "ok_ratio",
        1.0 - o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );
    Ok(m)
}

fn per_layer(o: &Outcome) -> Result<Metrics, String> {
    if let Some((name, _)) = o
        .layers
        .0
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
    {
        return Err(format!("unlisted per-layer metric {name}"));
    }
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "write_p75_us" => stats::quantile("write latency", &o.e2e.writes_us, 0.75)?,
            "write_p90_us" => stats::quantile("write latency", &o.e2e.writes_us, 0.9)?,
            "write_p99_us" => stats::quantile("write latency", &o.e2e.writes_us, 0.99)?,
            "read_p90_us" => stats::quantile("read latency", &o.e2e.reads_us, 0.9)?,
            "read_p99_us" => stats::quantile("read latency", &o.e2e.reads_us, 0.99)?,
            "samples.write" => o.e2e.writes_us.len() as f64,
            "samples.read" => o.e2e.reads_us.len() as f64,
            _ => o
                .layers
                .0
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        };
        m.put(name, value, unit);
    }
    Ok(m)
}

fn parse(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn run(argv: &[String]) -> Result<(Outcome, bool), String> {
    let (workload, args) = parse(argv)?;
    let outcome = match workload.as_str() {
        "node-zipf" => zipf::run(&args)?,
        "backbone-ingest" => daemon::run(&daemon::BACKBONE, &args)?,
        "replicated-query" => daemon::run(&daemon::REPLICATED, &args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    Ok((outcome, args.trace))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Results depend on both; recorded beside every run.
    eprintln!(
        "perfbench: available_parallelism={} kernels={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sbitmap_bitvec::kernels::active_path()
    );
    let result = run(&argv).and_then(|(o, trace)| {
        let e2e = end_to_end(&o)?;
        let metrics = if trace {
            // The traced run's own end-to-end view, against which the
            // untraced runs give the tracing overhead.
            eprintln!(
                "traced end-to-end: {}",
                stats::result_line(true, o.attempted, o.failed, &e2e)
            );
            per_layer(&o)?
        } else {
            e2e
        };
        Ok(stats::result_line(true, o.attempted, o.failed, &metrics))
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

//! Minimal flag parsing (no external dependencies).

/// Parsed `--flag value` options plus the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Target cardinality range `[1, N]`.
    pub n_max: u64,
    /// Target RRMSE, mutually exclusive with `memory_bits`.
    pub error: Option<f64>,
    /// Explicit memory budget in bits.
    pub memory_bits: Option<usize>,
    /// Sketch name for `count` (default "s-bitmap").
    pub sketch: String,
    /// Hash family for the S-bitmap ("splitmix64", "xxh64", "murmur3",
    /// "carter-wegman").
    pub hash: String,
    /// Hash seed.
    pub seed: u64,
    /// Cardinality for `simulate`.
    pub n: Option<u64>,
    /// Replicates for `simulate`.
    pub reps: usize,
    /// Backbone links for `bench-ingest`.
    pub links: usize,
    /// Per-case time budget in milliseconds for `bench-ingest`.
    pub budget_ms: u64,
    /// Cap on `(link, flow)` pairs per iteration for `bench-ingest`.
    pub pairs: usize,
    /// Max worker threads for the concurrent lanes of `bench-ingest`.
    pub threads: usize,
    /// Output path (`bench-ingest`/`bench-collect` JSON report,
    /// `checkpoint`/`merge` checkpoint file).
    pub out: String,
    /// Node shards for `collect` / max shards for `bench-collect`.
    pub shards: usize,
    /// `bench-fleet` regression gate: fail unless arena batched ingest is
    /// at least this many times faster than the legacy batched path.
    pub assert_min_speedup: Option<f64>,
    /// Workload generator for `bench-fleet` ("backbone", "zipf", "all").
    pub generator: String,
    /// Distinct keys for the `bench-fleet` Zipf lanes.
    pub keys: usize,
    /// `bench-fleet` memory gate: fail if the sparse fleet's peak-RSS
    /// delta exceeds this fraction of the dense arena's on the Zipf
    /// workload.
    pub assert_max_rss_ratio: Option<f64>,
    /// `bench-fleet` throughput gate: fail if sparse Zipf ingest costs
    /// more than this many times the dense arena per item.
    pub assert_max_slowdown: Option<f64>,
    /// Sliding-window span in epochs for `window` / `bench-window`.
    pub window: usize,
    /// Epochs to simulate for `window`.
    pub epochs: usize,
    /// Wire rounds per epoch for the v3 delta lane
    /// (`bench-collect`/`bench-daemon`/`agent`).
    pub rounds: usize,
    /// `bench-collect` regression gate: fail unless the v3 delta lane
    /// ships at least this many times fewer bytes than the same-cadence
    /// full-frame lane.
    pub assert_min_wire_reduction: Option<f64>,
    /// `bench-window` regression gate: fail if W=8 windowed ingest costs
    /// more than this many times the plain arena per item.
    pub assert_max_overhead: Option<f64>,
    /// `bench-window` regression gate: fail unless the fused W=8 window
    /// query is at least this many times faster than the in-run naive
    /// three-pass reference lane.
    pub assert_min_query_speedup: Option<f64>,
    /// Durability directory for `serve` (empty disables journaling).
    pub data_dir: String,
    /// Snapshot cadence in absorbed frames for `serve` (0 disables
    /// periodic snapshots; the journal still covers every frame).
    pub snapshot_every: u64,
    /// `bench-daemon` regression gate: fail if the journaled loopback
    /// lane costs more than this many times the clean loopback lane.
    pub assert_max_journal_overhead: Option<f64>,
    /// `bench-daemon` regression gate: fail if the replicated loopback
    /// lane costs more than this many times the clean loopback lane.
    pub assert_max_replication_overhead: Option<f64>,
    /// Primary address for `serve`: non-empty starts the daemon as a
    /// standby following that collector's record stream.
    pub standby_of: String,
    /// Ordered collector address list (comma-separated) for `agent`:
    /// the agent fails over down the list when the current collector
    /// refuses or times out.
    pub peers: Vec<String>,
    /// Fencing term the collector starts in (`serve`); recovery adopts
    /// the highest journaled term when it is larger.
    pub initial_term: u64,
    /// Collector address (`HOST:PORT`) for `agent` / `query`.
    pub connect: String,
    /// Ingest listener address for `serve`.
    pub listen: String,
    /// Query listener address for `serve`.
    pub query_listen: String,
    /// Credit window `serve` advertises to agents.
    pub credits: u32,
    /// Per-connection read deadline in milliseconds for
    /// `serve`/`agent`/`query`.
    pub deadline_ms: u64,
    /// Agent identity override for `agent` (defaults to shard + 1).
    pub agent_id: Option<u64>,
    /// Node shard index for `agent`.
    pub shard: usize,
    /// Link key for `query estimate` / `query fill`.
    pub key: Option<u64>,
    /// Row count for `query top`.
    pub top: usize,
    /// Positional arguments (checkpoint file paths for `restore`/`merge`,
    /// the request kind for `query`).
    pub paths: Vec<String>,
}

impl Options {
    fn defaults() -> Self {
        Self {
            n_max: 1_000_000,
            error: None,
            memory_bits: None,
            sketch: "s-bitmap".to_string(),
            hash: "splitmix64".to_string(),
            seed: 42,
            n: None,
            reps: 1000,
            links: 150,
            budget_ms: 300,
            pairs: 2_000_000,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get().min(8)),
            out: String::new(),
            shards: 4,
            assert_min_speedup: None,
            generator: "backbone".to_string(),
            keys: 1_200_000,
            assert_max_rss_ratio: None,
            assert_max_slowdown: None,
            window: 8,
            epochs: 12,
            rounds: 8,
            assert_min_wire_reduction: None,
            assert_max_overhead: None,
            assert_min_query_speedup: None,
            data_dir: String::new(),
            snapshot_every: 1_024,
            assert_max_journal_overhead: None,
            assert_max_replication_overhead: None,
            standby_of: String::new(),
            peers: Vec::new(),
            initial_term: 1,
            connect: String::new(),
            listen: "127.0.0.1:7171".to_string(),
            query_listen: "127.0.0.1:7172".to_string(),
            credits: 4,
            deadline_ms: 50,
            agent_id: None,
            shard: 0,
            key: None,
            top: 10,
            paths: Vec::new(),
        }
    }
}

/// Parse `argv` after the subcommand.
///
/// # Errors
///
/// Unknown flags, missing values, or unparseable numbers.
pub fn parse(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options::defaults();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--n-max" => {
                opts.n_max = parse_num(value(i)?).map_err(|e| format!("--n-max: {e}"))?;
                i += 2;
            }
            "--error" => {
                opts.error = Some(value(i)?.parse().map_err(|e| format!("--error: {e}"))?);
                i += 2;
            }
            "--memory-bits" => {
                opts.memory_bits =
                    Some(parse_num(value(i)?).map_err(|e| format!("--memory-bits: {e}"))? as usize);
                i += 2;
            }
            "--sketch" => {
                opts.sketch = value(i)?.to_string();
                i += 2;
            }
            "--hash" => {
                opts.hash = value(i)?.to_string();
                i += 2;
            }
            "--seed" => {
                opts.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--n" => {
                opts.n = Some(parse_num(value(i)?).map_err(|e| format!("--n: {e}"))?);
                i += 2;
            }
            "--reps" => {
                opts.reps = value(i)?.parse().map_err(|e| format!("--reps: {e}"))?;
                i += 2;
            }
            "--links" => {
                opts.links = parse_num(value(i)?).map_err(|e| format!("--links: {e}"))? as usize;
                i += 2;
            }
            "--budget-ms" => {
                opts.budget_ms = parse_num(value(i)?).map_err(|e| format!("--budget-ms: {e}"))?;
                i += 2;
            }
            "--pairs" => {
                opts.pairs = parse_num(value(i)?).map_err(|e| format!("--pairs: {e}"))? as usize;
                i += 2;
            }
            "--threads" => {
                opts.threads =
                    parse_num(value(i)?).map_err(|e| format!("--threads: {e}"))? as usize;
                i += 2;
            }
            "--out" => {
                opts.out = value(i)?.to_string();
                i += 2;
            }
            "--shards" => {
                opts.shards = parse_num(value(i)?).map_err(|e| format!("--shards: {e}"))? as usize;
                i += 2;
            }
            "--assert-min-speedup" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-min-speedup: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--assert-min-speedup must be positive, got {v}"));
                }
                opts.assert_min_speedup = Some(v);
                i += 2;
            }
            "--generator" => {
                let v = value(i)?;
                if !matches!(v, "backbone" | "zipf" | "all") {
                    return Err(format!(
                        "--generator must be backbone, zipf or all, got `{v}`"
                    ));
                }
                opts.generator = v.to_string();
                i += 2;
            }
            "--keys" => {
                let v = parse_num(value(i)?).map_err(|e| format!("--keys: {e}"))? as usize;
                if v == 0 {
                    return Err("--keys must be at least 1".into());
                }
                opts.keys = v;
                i += 2;
            }
            "--assert-max-rss-ratio" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-max-rss-ratio: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--assert-max-rss-ratio must be positive, got {v}"));
                }
                opts.assert_max_rss_ratio = Some(v);
                i += 2;
            }
            "--assert-max-slowdown" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-max-slowdown: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--assert-max-slowdown must be positive, got {v}"));
                }
                opts.assert_max_slowdown = Some(v);
                i += 2;
            }
            "--window" => {
                opts.window = parse_num(value(i)?).map_err(|e| format!("--window: {e}"))? as usize;
                i += 2;
            }
            "--epochs" => {
                opts.epochs = parse_num(value(i)?).map_err(|e| format!("--epochs: {e}"))? as usize;
                i += 2;
            }
            "--rounds" => {
                let v = parse_num(value(i)?).map_err(|e| format!("--rounds: {e}"))? as usize;
                if v == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                opts.rounds = v;
                i += 2;
            }
            "--assert-min-wire-reduction" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-min-wire-reduction: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!(
                        "--assert-min-wire-reduction must be positive, got {v}"
                    ));
                }
                opts.assert_min_wire_reduction = Some(v);
                i += 2;
            }
            "--assert-max-overhead" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-max-overhead: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--assert-max-overhead must be positive, got {v}"));
                }
                opts.assert_max_overhead = Some(v);
                i += 2;
            }
            "--assert-min-query-speedup" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-min-query-speedup: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!(
                        "--assert-min-query-speedup must be positive, got {v}"
                    ));
                }
                opts.assert_min_query_speedup = Some(v);
                i += 2;
            }
            "--data-dir" => {
                opts.data_dir = value(i)?.to_string();
                i += 2;
            }
            "--snapshot-every" => {
                opts.snapshot_every =
                    parse_num(value(i)?).map_err(|e| format!("--snapshot-every: {e}"))?;
                i += 2;
            }
            "--assert-max-journal-overhead" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-max-journal-overhead: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!(
                        "--assert-max-journal-overhead must be positive, got {v}"
                    ));
                }
                opts.assert_max_journal_overhead = Some(v);
                i += 2;
            }
            "--assert-max-replication-overhead" => {
                let v: f64 = value(i)?
                    .parse()
                    .map_err(|e| format!("--assert-max-replication-overhead: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!(
                        "--assert-max-replication-overhead must be positive, got {v}"
                    ));
                }
                opts.assert_max_replication_overhead = Some(v);
                i += 2;
            }
            "--standby-of" => {
                opts.standby_of = value(i)?.to_string();
                i += 2;
            }
            "--peers" => {
                opts.peers = value(i)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if opts.peers.is_empty() {
                    return Err("--peers needs at least one HOST:PORT".into());
                }
                i += 2;
            }
            "--initial-term" => {
                let v = parse_num(value(i)?).map_err(|e| format!("--initial-term: {e}"))?;
                if v == 0 {
                    return Err("--initial-term must be at least 1".into());
                }
                opts.initial_term = v;
                i += 2;
            }
            "--connect" => {
                opts.connect = value(i)?.to_string();
                i += 2;
            }
            "--listen" => {
                opts.listen = value(i)?.to_string();
                i += 2;
            }
            "--query-listen" => {
                opts.query_listen = value(i)?.to_string();
                i += 2;
            }
            "--credits" => {
                let v = parse_num(value(i)?).map_err(|e| format!("--credits: {e}"))?;
                if v == 0 || v > u64::from(u32::MAX) {
                    return Err(format!("--credits must be in [1, 2^32), got {v}"));
                }
                opts.credits = v as u32;
                i += 2;
            }
            "--deadline-ms" => {
                let v = parse_num(value(i)?).map_err(|e| format!("--deadline-ms: {e}"))?;
                if v == 0 {
                    return Err("--deadline-ms must be at least 1".into());
                }
                opts.deadline_ms = v;
                i += 2;
            }
            "--agent-id" => {
                opts.agent_id = Some(parse_num(value(i)?).map_err(|e| format!("--agent-id: {e}"))?);
                i += 2;
            }
            "--shard" => {
                opts.shard = parse_num(value(i)?).map_err(|e| format!("--shard: {e}"))? as usize;
                i += 2;
            }
            "--key" => {
                opts.key = Some(parse_num(value(i)?).map_err(|e| format!("--key: {e}"))?);
                i += 2;
            }
            "--top" => {
                opts.top = parse_num(value(i)?).map_err(|e| format!("--top: {e}"))? as usize;
                i += 2;
            }
            other if !other.starts_with('-') => {
                // Positional argument: a checkpoint file path.
                opts.paths.push(other.to_string());
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.error.is_some() && opts.memory_bits.is_some() {
        return Err("--error and --memory-bits are mutually exclusive".into());
    }
    if let Some(e) = opts.error {
        if !(e > 0.0 && e < 1.0) {
            return Err(format!("--error must be in (0, 1), got {e}"));
        }
    }
    Ok(opts)
}

/// Accept plain integers plus `k`/`m` suffixes and scientific notation
/// ("1e6", "64k", "1.5m").
fn parse_num(s: &str) -> Result<u64, String> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix('k') {
        (d, 1_000.0)
    } else if let Some(d) = lower.strip_suffix('m') {
        (d, 1_000_000.0)
    } else {
        (lower.as_str(), 1.0)
    };
    let base: f64 = digits.parse().map_err(|_| format!("not a number: {s}"))?;
    let v = base * mult;
    if !(v >= 0.0 && v <= u64::MAX as f64) {
        return Err(format!("out of range: {s}"));
    }
    Ok(v.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.n_max, 1_000_000);
        assert_eq!(o.sketch, "s-bitmap");
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn parses_suffixes_and_scientific() {
        let o = parse(&args("--n-max 1.5m --memory-bits 64k")).unwrap();
        assert_eq!(o.n_max, 1_500_000);
        assert_eq!(o.memory_bits, Some(64_000));
        let o = parse(&args("--n-max 1e6")).unwrap();
        assert_eq!(o.n_max, 1_000_000);
    }

    #[test]
    fn rejects_conflicting_sizing() {
        assert!(parse(&args("--error 0.01 --memory-bits 4000")).is_err());
    }

    #[test]
    fn rejects_bad_error() {
        assert!(parse(&args("--error 1.5")).is_err());
        assert!(parse(&args("--error 0")).is_err());
    }

    #[test]
    fn parses_hash_flag() {
        let o = parse(&args("--hash murmur3")).unwrap();
        assert_eq!(o.hash, "murmur3");
        assert_eq!(parse(&[]).unwrap().hash, "splitmix64");
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&args("--bogus 3")).is_err());
    }

    #[test]
    fn collects_positional_paths_and_shards() {
        let o = parse(&args("a.ckpt b.ckpt --shards 8 c.ckpt")).unwrap();
        assert_eq!(o.paths, vec!["a.ckpt", "b.ckpt", "c.ckpt"]);
        assert_eq!(o.shards, 8);
        assert!(parse(&[]).unwrap().paths.is_empty());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&args("--n-max")).is_err());
    }

    #[test]
    fn parses_window_flags() {
        let o = parse(&args("--window 4 --epochs 9 --assert-max-overhead 1.5")).unwrap();
        assert_eq!(o.window, 4);
        assert_eq!(o.epochs, 9);
        assert_eq!(o.assert_max_overhead, Some(1.5));
        let d = parse(&[]).unwrap();
        assert_eq!(d.window, 8);
        assert_eq!(d.epochs, 12);
        assert_eq!(d.assert_max_overhead, None);
        assert!(parse(&args("--assert-max-overhead 0")).is_err());
        assert!(parse(&args("--assert-max-overhead nah")).is_err());
    }

    #[test]
    fn parses_assert_min_query_speedup() {
        let o = parse(&args("--assert-min-query-speedup 1.5")).unwrap();
        assert_eq!(o.assert_min_query_speedup, Some(1.5));
        assert_eq!(parse(&[]).unwrap().assert_min_query_speedup, None);
        assert!(parse(&args("--assert-min-query-speedup 0")).is_err());
        assert!(parse(&args("--assert-min-query-speedup -1")).is_err());
        assert!(parse(&args("--assert-min-query-speedup nah")).is_err());
    }

    #[test]
    fn parses_daemon_flags() {
        let o = parse(&args(
            "--connect 10.0.0.2:7171 --listen 0.0.0.0:7171 --query-listen 0.0.0.0:7172 \
             --credits 8 --deadline-ms 20 --agent-id 9 --shard 2 --key 17 --top 5",
        ))
        .unwrap();
        assert_eq!(o.connect, "10.0.0.2:7171");
        assert_eq!(o.listen, "0.0.0.0:7171");
        assert_eq!(o.query_listen, "0.0.0.0:7172");
        assert_eq!(o.credits, 8);
        assert_eq!(o.deadline_ms, 20);
        assert_eq!(o.agent_id, Some(9));
        assert_eq!(o.shard, 2);
        assert_eq!(o.key, Some(17));
        assert_eq!(o.top, 5);
        let d = parse(&[]).unwrap();
        assert!(d.connect.is_empty());
        assert_eq!(d.listen, "127.0.0.1:7171");
        assert_eq!(d.query_listen, "127.0.0.1:7172");
        assert_eq!(d.credits, 4);
        assert_eq!(d.deadline_ms, 50);
        assert_eq!(d.agent_id, None);
        assert_eq!(d.shard, 0);
        assert_eq!(d.key, None);
        assert_eq!(d.top, 10);
        assert!(parse(&args("--credits 0")).is_err());
        assert!(parse(&args("--deadline-ms 0")).is_err());
        assert!(parse(&args("--key nah")).is_err());
    }

    #[test]
    fn parses_rounds_and_wire_reduction_gate() {
        let o = parse(&args("--rounds 4 --assert-min-wire-reduction 5.0")).unwrap();
        assert_eq!(o.rounds, 4);
        assert_eq!(o.assert_min_wire_reduction, Some(5.0));
        let d = parse(&[]).unwrap();
        assert_eq!(d.rounds, 8);
        assert_eq!(d.assert_min_wire_reduction, None);
        assert!(parse(&args("--rounds 0")).is_err());
        assert!(parse(&args("--assert-min-wire-reduction 0")).is_err());
        assert!(parse(&args("--assert-min-wire-reduction nah")).is_err());
    }

    #[test]
    fn parses_durability_flags() {
        let o = parse(&args(
            "--data-dir /var/lib/sbitmapd --snapshot-every 64 \
             --assert-max-journal-overhead 1.25",
        ))
        .unwrap();
        assert_eq!(o.data_dir, "/var/lib/sbitmapd");
        assert_eq!(o.snapshot_every, 64);
        assert_eq!(o.assert_max_journal_overhead, Some(1.25));
        let d = parse(&[]).unwrap();
        assert!(d.data_dir.is_empty());
        assert_eq!(d.snapshot_every, 1_024);
        assert_eq!(d.assert_max_journal_overhead, None);
        // 0 is legal for --snapshot-every: it disables snapshots while
        // keeping the journal.
        assert_eq!(
            parse(&args("--snapshot-every 0")).unwrap().snapshot_every,
            0
        );
        assert!(parse(&args("--assert-max-journal-overhead 0")).is_err());
        assert!(parse(&args("--assert-max-journal-overhead nah")).is_err());
        assert!(parse(&args("--data-dir")).is_err());
    }

    #[test]
    fn parses_replication_flags() {
        let o = parse(&args(
            "--standby-of 10.0.0.1:7171 --peers 10.0.0.1:7171,10.0.0.2:7171 \
             --initial-term 3 --assert-max-replication-overhead 1.3",
        ))
        .unwrap();
        assert_eq!(o.standby_of, "10.0.0.1:7171");
        assert_eq!(o.peers, vec!["10.0.0.1:7171", "10.0.0.2:7171"]);
        assert_eq!(o.initial_term, 3);
        assert_eq!(o.assert_max_replication_overhead, Some(1.3));
        let d = parse(&[]).unwrap();
        assert!(d.standby_of.is_empty());
        assert!(d.peers.is_empty());
        assert_eq!(d.initial_term, 1);
        assert_eq!(d.assert_max_replication_overhead, None);
        assert!(parse(&args("--peers ,")).is_err());
        assert!(parse(&args("--initial-term 0")).is_err());
        assert!(parse(&args("--assert-max-replication-overhead 0")).is_err());
        assert!(parse(&args("--assert-max-replication-overhead nah")).is_err());
    }

    #[test]
    fn parses_assert_min_speedup() {
        let o = parse(&args("--assert-min-speedup 1.5")).unwrap();
        assert_eq!(o.assert_min_speedup, Some(1.5));
        assert_eq!(parse(&[]).unwrap().assert_min_speedup, None);
        assert!(parse(&args("--assert-min-speedup 0")).is_err());
        assert!(parse(&args("--assert-min-speedup nah")).is_err());
    }

    #[test]
    fn parses_zipf_fleet_flags() {
        let o = parse(&args(
            "--generator zipf --keys 1.2m --assert-max-rss-ratio 0.25 --assert-max-slowdown 1.5",
        ))
        .unwrap();
        assert_eq!(o.generator, "zipf");
        assert_eq!(o.keys, 1_200_000);
        assert_eq!(o.assert_max_rss_ratio, Some(0.25));
        assert_eq!(o.assert_max_slowdown, Some(1.5));
        let d = parse(&[]).unwrap();
        assert_eq!(d.generator, "backbone");
        assert_eq!(d.keys, 1_200_000);
        assert_eq!(d.assert_max_rss_ratio, None);
        assert_eq!(d.assert_max_slowdown, None);
        assert!(parse(&args("--generator uniform")).is_err());
        assert!(parse(&args("--keys 0")).is_err());
        assert!(parse(&args("--assert-max-rss-ratio 0")).is_err());
        assert!(parse(&args("--assert-max-rss-ratio nah")).is_err());
        assert!(parse(&args("--assert-max-slowdown 0")).is_err());
        assert!(parse(&args("--assert-max-slowdown nah")).is_err());
    }
}

//! The collector-pipeline benchmark: node→collector throughput as the
//! shard count scales, plus the windowed wire-cost comparison.
//!
//! The shard lanes run [`sbitmap_stream::collector::run_pipeline`]
//! end-to-end — per-link sketch builds, checkpoint encode, channel
//! transfer, checksum verify + decode, and the mergeable-sketch fold —
//! over the same [`sbitmap_stream::BackboneSnapshot`] workload, with
//! 1, 2, 4, … node shards. Items/second counts the *flows ingested*, so
//! the lanes are directly comparable to the ingest bench.
//!
//! The `windowed_delta` lane times the sliding-window workload shipping
//! v3 delta-chain frames. Each node's frame source also cuts a full v2
//! checkpoint per round at the same cadence; those are counted, not
//! shipped, so one run yields both byte totals. Before any timing, the
//! delta pipeline's per-link estimates, truths and quantile summary must
//! be **bit-identical** to the one-full-frame-per-epoch reference
//! ([`run_windowed_pipeline`]) — the bench refuses to time a compressed
//! lane that changes answers. The byte counts land in the report header
//! (`bytes_on_wire_full` / `bytes_on_wire_v3` / `wire_reduction`);
//! results serialize to `BENCH_collect.json`.

use sbitmap_stream::collector::{run_pipeline, PipelineConfig};
use sbitmap_stream::{
    run_windowed_pipeline, run_windowed_pipeline_v3, BackboneSnapshot, WindowedPipelineConfig,
};

use crate::harness::{Bench, Measurement};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    /// Backbone links to simulate.
    pub links: usize,
    /// Largest shard count; lanes run 1, 2, 4, … up to this.
    pub max_shards: usize,
    /// Per-case wall-clock budget in milliseconds.
    pub budget_ms: u64,
    /// Workload seed.
    pub seed: u64,
    /// Sliding-window width (epochs) for the wire-cost lanes.
    pub window: usize,
    /// Epochs the windowed lanes run.
    pub epochs: usize,
    /// Wire rounds per epoch for the windowed lane — both encodings are
    /// cut at this cadence, so the comparison is byte-for-byte fair.
    pub rounds: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        Self {
            links: 150,
            max_shards: std::thread::available_parallelism().map_or(4, |p| p.get().min(8)),
            budget_ms: 300,
            seed: 0xc011,
            window: 4,
            epochs: 6,
            rounds: 8,
        }
    }
}

impl CollectConfig {
    /// A cheap configuration for CI smoke runs (~1 s wall clock total).
    pub fn smoke() -> Self {
        Self {
            links: 20,
            max_shards: 2,
            budget_ms: 60,
            epochs: 4,
            ..Self::default()
        }
    }

    fn pipeline(&self, shards: usize) -> PipelineConfig {
        PipelineConfig {
            links: self.links.max(1),
            shards,
            seed: self.seed,
            ..PipelineConfig::default()
        }
    }

    fn windowed(&self) -> WindowedPipelineConfig {
        let defaults = PipelineConfig::default();
        WindowedPipelineConfig {
            links: self.links.max(1),
            shards: 2,
            n_max: defaults.n_max,
            m_bits: defaults.m_bits,
            window: self.window.max(2),
            epochs: self.epochs.max(1),
            rounds: self.rounds.max(1),
            seed: self.seed,
        }
    }
}

/// Wire-cost figures from the windowed full-vs-delta comparison.
#[derive(Debug, Clone)]
pub struct WireStats {
    /// Bytes of the same-cadence full v2 checkpoints (one per round).
    pub bytes_full: usize,
    /// Bytes shipped by the v3 delta lane.
    pub bytes_v3: usize,
    /// Frames of each encoding (`shards × epochs × rounds`).
    pub frames: usize,
    /// `bytes_full / bytes_v3`.
    pub reduction: f64,
}

/// Everything one collect-bench invocation produced.
#[derive(Debug, Clone)]
pub struct CollectRun {
    /// Timed lanes: shard scaling plus the windowed delta lane.
    pub results: Vec<Measurement>,
    /// Byte counts from the verified full-vs-delta comparison.
    pub wire: WireStats,
}

/// Run the shard-scaling comparison and the windowed wire-cost lanes.
///
/// # Panics
///
/// If the v3 delta lane's estimates, truths or quantile summaries
/// diverge from [`run_windowed_pipeline`] — the bench refuses to time
/// an encoding that changes answers.
pub fn run(cfg: &CollectConfig) -> CollectRun {
    let bench = Bench::with_budget_ms(cfg.budget_ms);
    // The flow total is a property of (links, seed): read it off the
    // snapshot directly so every lane can convert time to items/sec
    // without paying for a warm-up pipeline run.
    let total_flows: u64 = BackboneSnapshot::with_links(cfg.links.max(1), cfg.seed)
        .counts()
        .iter()
        .sum();
    let mut results = Vec::new();
    let mut shards = 1usize;
    while shards <= cfg.max_shards.max(1) {
        let name = format!("collect_s{shards}");
        let pipeline_cfg = cfg.pipeline(shards);
        results.push(bench.run(&name, total_flows, || {
            run_pipeline(&pipeline_cfg).expect("pipeline").checkpoints
        }));
        shards *= 2;
    }

    // Equivalence gate before timing the delta lane.
    let wcfg = cfg.windowed();
    let reference = run_windowed_pipeline(&wcfg).expect("windowed reference");
    let v3 = run_windowed_pipeline_v3(&wcfg).expect("windowed delta lane");
    for (f, d) in reference.links.iter().zip(&v3.links) {
        assert!(
            f.link == d.link && f.truth == d.truth && f.estimate == d.estimate,
            "refusing to benchmark: link {} diverges between the reference \
             ({} / {}) and the delta lane ({} / {})",
            f.link,
            f.truth,
            f.estimate,
            d.truth,
            d.estimate
        );
    }
    assert_eq!(
        reference.estimate_quantiles, v3.estimate_quantiles,
        "refusing to benchmark: quantile summaries diverge between encodings"
    );
    let wire = WireStats {
        bytes_full: v3.bytes_full,
        bytes_v3: v3.bytes_shipped,
        frames: v3.checkpoints,
        reduction: v3.bytes_full as f64 / (v3.bytes_shipped.max(1)) as f64,
    };

    let frames = wire.frames as u64;
    results.push(bench.run("windowed_delta", frames, || {
        run_windowed_pipeline_v3(&wcfg)
            .expect("windowed delta lane")
            .checkpoints
    }));
    CollectRun { results, wire }
}

/// Render a [`CollectRun`] (plus workload metadata) as the
/// `BENCH_collect.json` document.
pub fn report_json(cfg: &CollectConfig, run: &CollectRun) -> String {
    let results = &run.results;
    let single = results.iter().find(|m| m.name == "collect_s1");
    let best = results
        .iter()
        .filter(|m| m.name.starts_with("collect_s"))
        .max_by(|a, b| a.items_per_sec().total_cmp(&b.items_per_sec()));
    let speedup = match (single, best) {
        (Some(s), Some(b)) if s.items_per_sec() > 0.0 => b.items_per_sec() / s.items_per_sec(),
        _ => 0.0,
    };
    let defaults = PipelineConfig::default();
    crate::harness::to_json(
        "collect",
        &[
            ("generator", "backbone".to_string()),
            ("links", cfg.links.to_string()),
            ("n_max", defaults.n_max.to_string()),
            ("m_bits", defaults.m_bits.to_string()),
            ("hll_registers", defaults.hll_registers.to_string()),
            ("seed", cfg.seed.to_string()),
            ("window", cfg.window.to_string()),
            ("epochs", cfg.epochs.to_string()),
            ("rounds", cfg.rounds.to_string()),
            ("frames_on_wire", run.wire.frames.to_string()),
            ("bytes_on_wire_full", run.wire.bytes_full.to_string()),
            ("bytes_on_wire_v3", run.wire.bytes_v3.to_string()),
            ("wire_reduction", format!("{:.3}", run.wire.reduction)),
            ("multi_shard_vs_single_speedup", format!("{speedup:.3}")),
        ],
        results,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_lanes_and_json() {
        let cfg = CollectConfig {
            links: 8,
            max_shards: 2,
            budget_ms: 5,
            seed: 3,
            window: 3,
            epochs: 3,
            rounds: 2,
        };
        let run = run(&cfg);
        let names: Vec<&str> = run.results.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["collect_s1", "collect_s2", "windowed_delta"]);
        assert!(run.results.iter().all(|m| m.items > 0));
        assert!(
            run.wire.bytes_v3 < run.wire.bytes_full,
            "delta lane must ship fewer bytes ({} vs {})",
            run.wire.bytes_v3,
            run.wire.bytes_full
        );
        assert_eq!(run.wire.frames, 2 * cfg.epochs * cfg.rounds);
        let json = report_json(&cfg, &run);
        assert!(json.contains("\"bench\": \"collect\""));
        assert!(json.contains("multi_shard_vs_single_speedup"));
        assert!(json.contains("bytes_on_wire_v3"));
        assert!(json.contains("wire_reduction"));
        assert!(json.contains("windowed_delta"));
    }
}

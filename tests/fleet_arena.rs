//! Property tests locking the fleet storage flavors together: the
//! arena-packed fleet must be *bit-identical* (per-key bitmap words and
//! fill) and *checkpoint-byte-identical* to the HashMap fleet over
//! seeded random `(key, item)` streams — including the saturation and
//! restore paths.
//!
//! This workspace builds offline, so instead of proptest these
//! properties run over deterministic randomized cases drawn from the
//! in-tree [`sbitmap::hash::rng`] generators: every case is reproducible
//! from its loop index, and a failure message names the case that broke.

use sbitmap::core::Checkpoint;
use sbitmap::hash::rng::{Rng, SplitMix64};
use sbitmap::{FleetArena, SketchFleet};

/// Deterministic per-case RNG.
fn rng(case: u64) -> SplitMix64 {
    SplitMix64::new(0xf1ee_7000_0000_0000 ^ case)
}

/// A seeded random `(key, item)` stream: keys mix dense (link-index
/// shaped) and sparse (hashed ids), items repeat so duplicate filtering
/// is exercised.
fn stream(g: &mut SplitMix64, len: usize, key_space: u64, item_space: u64) -> Vec<(u64, u64)> {
    (0..len)
        .map(|_| {
            let key = if g.next_below(8) == 0 {
                // Sparse outlier: a high hashed key.
                g.next_u64() | (1 << 60)
            } else {
                g.next_below(key_space)
            };
            (key, g.next_below(item_space))
        })
        .collect()
}

#[test]
fn arena_is_bit_identical_to_hashmap_fleet_over_random_streams() {
    for case in 0..12u64 {
        let mut g = rng(case);
        let pairs = stream(&mut g, 8_000, 24, 2_000);
        let seed = g.next_u64();
        let mut fleet: SketchFleet = SketchFleet::new(50_000, 2_000, seed).unwrap();
        let mut arena: FleetArena = FleetArena::new(50_000, 2_000, seed).unwrap();
        // Mixed feeding: batches into the arena, pairwise into the
        // HashMap fleet — grouping must be invisible.
        for chunk in pairs.chunks(1_500) {
            arena.insert_batch(chunk);
            for &(k, item) in chunk {
                fleet.insert_u64(k, item);
            }
        }
        assert_eq!(arena.len(), fleet.len(), "case {case}: key count");
        for (key, sketch) in fleet.sketches() {
            assert_eq!(
                arena.fill(key),
                Some(sketch.fill()),
                "case {case}: fill for key {key}"
            );
            let exported = arena.export_sketch(key).unwrap();
            assert_eq!(
                exported.bitmap().words(),
                sketch.bitmap().words(),
                "case {case}: bitmap words for key {key}"
            );
        }
        assert_eq!(
            arena.checkpoint(),
            fleet.checkpoint(),
            "case {case}: checkpoint bytes"
        );
    }
}

#[test]
fn saturation_path_stays_identical_and_restorable() {
    // A tiny configuration saturates quickly: the clamped tail of the
    // rate schedule and the truncated estimator must behave identically
    // in both flavors, and checkpoints of saturated fleets must
    // round-trip through either restore path.
    for case in 0..6u64 {
        let mut g = rng(case ^ 0x5a7);
        let pairs = stream(&mut g, 20_000, 4, u64::MAX);
        let seed = g.next_u64();
        let mut fleet: SketchFleet = SketchFleet::new(1_000, 120, seed).unwrap();
        let mut arena: FleetArena = FleetArena::new(1_000, 120, seed).unwrap();
        fleet.insert_batch(&pairs);
        arena.insert_batch(&pairs);
        assert!(
            !arena.saturated_keys().is_empty(),
            "case {case}: workload must actually saturate"
        );
        assert_eq!(
            arena.saturated_keys(),
            fleet.saturated_keys(),
            "case {case}"
        );
        let bytes = arena.checkpoint();
        assert_eq!(bytes, fleet.checkpoint(), "case {case}");
        // Cross-restore and keep feeding: the flavors must continue in
        // lockstep from restored state.
        let mut fleet2: SketchFleet = Checkpoint::restore(&bytes).unwrap();
        let mut arena2: FleetArena = Checkpoint::restore(&bytes).unwrap();
        let more = stream(&mut g, 2_000, 4, u64::MAX);
        fleet2.insert_batch(&more);
        arena2.insert_batch(&more);
        assert_eq!(
            arena2.checkpoint(),
            fleet2.checkpoint(),
            "case {case}: post-restore divergence"
        );
    }
}

#[test]
fn empty_and_single_key_edge_cases_round_trip() {
    let mut arena: FleetArena = FleetArena::new(50_000, 2_000, 3).unwrap();
    let fleet: SketchFleet = SketchFleet::new(50_000, 2_000, 3).unwrap();
    assert_eq!(arena.checkpoint(), fleet.checkpoint(), "empty fleets");
    arena.insert_batch(&[(9, 1)]);
    let mut fleet = fleet;
    fleet.insert_batch(&[(9, 1)]);
    assert_eq!(arena.checkpoint(), fleet.checkpoint(), "single pair");
    let restored: FleetArena = Checkpoint::restore(&arena.checkpoint()).unwrap();
    assert_eq!(restored.len(), 1);
    assert_eq!(restored.fill(9), arena.fill(9));
}

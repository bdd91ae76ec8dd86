//! Backward-compatibility lock for the checkpoint wire format.
//!
//! The hex strings below are *frozen v1 checkpoints* produced by the
//! original S-bitmap-only codec (before the tagged v2 format existed).
//! The v2 decoder must read them bit-identically, forever: measurement
//! nodes in the field may run old encoders long after the collector has
//! upgraded. If one of these tests fails, the decoder broke v1
//! compatibility — fix the decoder, never regenerate the vectors.

use std::sync::Arc;

use sbitmap::core::codec::{self, peek_kind, CounterKind};
use sbitmap::core::{AbsorbOutcome, FleetDeltaFrame, SBitmapError};
use sbitmap::{Checkpoint, DistinctCounter, FleetArena, RateSchedule, SBitmap, WindowedFleet};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// v1 checkpoint of `SBitmap::with_memory(10_000, 256, 42)` after
/// inserting `0..500u64` — fill 106.
const GOLDEN_V1_M256: &str = "53424d500110270000000000000001000000000000200000002a000000000000006a00000000000000351688e0a15c00b6e854d093aa1b0357a16c6270a908938270d0e20a27148fbe8292ce67e0f2e3f3";

/// v1 checkpoint of `SBitmap::with_memory(1_000, 63, 7)` after inserting
/// `0..80u64` — fill 20, non-word-multiple `m`.
const GOLDEN_V1_M63: &str = "53424d5001e8030000000000003f0000000000000020000000070000000000000014000000000000000a85045820aa0d61994505f3ceb78a83";

#[test]
fn golden_v1_m256_decodes_bit_identically() {
    let bytes = unhex(GOLDEN_V1_M256);
    let (version, kind) = peek_kind(&bytes).unwrap();
    assert_eq!(version, 1);
    assert_eq!(kind, CounterKind::SBitmap);

    let sketch: SBitmap = codec::decode(&bytes).unwrap();
    assert_eq!(sketch.dims().n_max(), 10_000);
    assert_eq!(sketch.dims().m(), 256);
    assert_eq!(sketch.seed(), 42);
    assert_eq!(sketch.fill(), 106);
    // Exact f64 equality: the estimate is a pure function of the decoded
    // state, recorded when the vector was frozen.
    assert_eq!(sketch.estimate(), 549.312_870_555_323_1);

    // The decoded state is the same state the original encoder saw:
    // rebuilding the sketch from scratch reproduces it bit for bit.
    let mut rebuilt = SBitmap::with_memory(10_000, 256, 42).unwrap();
    for i in 0..500u64 {
        rebuilt.insert_u64(i);
    }
    assert_eq!(sketch.bitmap(), rebuilt.bitmap());
    assert_eq!(sketch.fill(), rebuilt.fill());
}

#[test]
fn golden_v1_m63_decodes_bit_identically() {
    let bytes = unhex(GOLDEN_V1_M63);
    let sketch: SBitmap = codec::decode(&bytes).unwrap();
    assert_eq!(sketch.dims().n_max(), 1_000);
    assert_eq!(sketch.dims().m(), 63, "non-word-multiple m");
    assert_eq!(sketch.seed(), 7);
    assert_eq!(sketch.fill(), 20);
    assert_eq!(sketch.estimate(), 53.977_649_977_398_89);

    let mut rebuilt = SBitmap::with_memory(1_000, 63, 7).unwrap();
    for i in 0..80u64 {
        rebuilt.insert_u64(i);
    }
    assert_eq!(sketch.bitmap(), rebuilt.bitmap());
}

#[test]
fn golden_v1_reencodes_as_equivalent_v2() {
    // Upgrading a v1 checkpoint: decode, re-encode (v2), decode again —
    // state and future behaviour must be unchanged.
    let v1: SBitmap = codec::decode(&unhex(GOLDEN_V1_M256)).unwrap();
    let v2_bytes = v1.checkpoint();
    let (version, _) = peek_kind(&v2_bytes).unwrap();
    assert_eq!(version, 2, "new encodes are always v2");
    // v2 is one byte longer than v1: the kind tag.
    assert_eq!(v2_bytes.len(), unhex(GOLDEN_V1_M256).len() + 1);

    let mut v2: SBitmap = codec::decode(&v2_bytes).unwrap();
    let mut v1 = v1;
    assert_eq!(v2.bitmap(), v1.bitmap());
    assert_eq!(v2.fill(), v1.fill());
    for i in 500..2_000u64 {
        v1.insert_u64(i);
        v2.insert_u64(i);
    }
    assert_eq!(v2.fill(), v1.fill(), "identical evolution after restore");
    assert_eq!(v2.bitmap(), v1.bitmap());
}

#[test]
fn golden_v1_corruption_is_still_detected() {
    let bytes = unhex(GOLDEN_V1_M63);
    for pos in [0usize, 4, 6, 20, 41, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[pos] ^= 1;
        assert!(
            codec::decode::<sbitmap::hash::SplitMix64Hasher>(&bad).is_err(),
            "v1 corruption at byte {pos} accepted"
        );
    }
    assert!(codec::decode::<sbitmap::hash::SplitMix64Hasher>(&bytes[..30]).is_err());
}

// ---------------------------------------------------------------------
// v2 fleet checkpoints (tags 9 and 10) — frozen when wire v3 landed
// ---------------------------------------------------------------------
//
// The v3 delta frames ride *alongside* the v2 checkpoint kinds: a
// collector must keep reading full fleet (tag 9) and windowed-fleet
// (tag 10) frames forever, because full `Batch` frames, ring
// checkpoints and journal snapshots still carry them. The vectors were produced by [`rebuilt_fleet`] /
// [`rebuilt_ring`] below at the moment v3 landed; if decoding them
// fails, fix the decoder — never regenerate the vectors.

/// v2 tag-9 checkpoint of the [`rebuilt_fleet`] arena.
const GOLDEN_V2_FLEET: &str = "53424d50020988130000000000002c01000000000000200000000900000000000000030000000000000003000000000000002100000000000000440020000050510000004001820200002000408410020086000080340020810200480000010000000b000000000000001b00000000000000000180000000000102000430804000000040003305001400000404228000000000810000030000002a00000000000000220000000000000000a0020000000020000840010202100002200001024000008802002c09900898006004000900000041760e1910c6b62d";

/// v2 tag-10 checkpoint of the [`rebuilt_ring`] two-epoch window.
const GOLDEN_V2_RING: &str = "53424d50020a88130000000000002c01000000000000200000000900000000000000020000000000000001000000000000000000000000000000000000000000000002000000000000000000000000000000030000000000000003000000000000002100000000000000440020000050510000004001820200002000408410020086000080340020810200480000010000000b000000000000001b00000000000000000180000000000102000430804000000040003305001400000404228000000000810000030000002a00000000000000220000000000000000a0020000000020000840010202100002200001024000008802002c0990089800600400090000000100000000000000030000000000000003000000000000002100000000000000440020000050510000004001820200002000408410020086000080340020810200480000010000000b000000000000001b00000000000000000180000000000102000430804000000040003305001400000404228000000000810000030000002a00000000000000220000000000000000a0020000000020000840010202100002200001024000008802002c0990089800600400090000006ede910cda2e2d5d";

/// The exact construction the tag-9/10 vectors were frozen from.
fn rebuilt_fleet() -> FleetArena {
    let schedule = Arc::new(RateSchedule::from_memory(5_000, 300).unwrap());
    let mut fleet: FleetArena = FleetArena::with_schedule(schedule, 9);
    for key in [3u64, 11, 42] {
        fleet.touch(key);
        for item in 0..40u64 {
            fleet.insert_u64(key, key * 1_000 + item);
        }
    }
    fleet
}

fn rebuilt_ring() -> WindowedFleet {
    let fleet = rebuilt_fleet();
    let mut ring: WindowedFleet =
        WindowedFleet::with_schedule(fleet.schedule().clone(), 9, 2).unwrap();
    ring.absorb_epoch(0, &fleet).unwrap();
    ring.advance_to(1).unwrap();
    ring.absorb_epoch(1, &fleet).unwrap();
    ring
}

#[test]
fn golden_v2_fleet_tag9_decodes_bit_identically() {
    let bytes = unhex(GOLDEN_V2_FLEET);
    let (version, kind) = peek_kind(&bytes).unwrap();
    assert_eq!(version, 2);
    assert_eq!(kind, CounterKind::SketchFleet);

    let fleet: FleetArena = Checkpoint::restore(&bytes).unwrap();
    assert_eq!(fleet.keys_sorted(), vec![3, 11, 42]);
    assert_eq!(fleet.schedule().dims().n_max(), 5_000);
    assert_eq!(fleet.schedule().dims().m(), 300);
    assert_eq!(fleet.seed(), 9);
    // Exact f64 equality: estimates are pure functions of the decoded
    // state, recorded when the vector was frozen.
    assert_eq!(fleet.fill(3), Some(33));
    assert_eq!(fleet.estimate(3), Some(45.439_429_688_653_73));
    assert_eq!(fleet.fill(11), Some(27));
    assert_eq!(fleet.estimate(11), Some(34.997_461_597_223_01));
    assert_eq!(fleet.fill(42), Some(34));
    assert_eq!(fleet.estimate(42), Some(47.294_933_432_440_85));

    // The decoded state is the state the encoder saw, and today's
    // encoder still emits the exact frozen bytes.
    assert_eq!(fleet.checkpoint(), bytes);
    assert_eq!(rebuilt_fleet().checkpoint(), bytes);
}

#[test]
fn golden_v2_ring_tag10_decodes_bit_identically() {
    let bytes = unhex(GOLDEN_V2_RING);
    let (version, kind) = peek_kind(&bytes).unwrap();
    assert_eq!(version, 2);
    assert_eq!(kind, CounterKind::WindowedFleet);

    let ring: WindowedFleet = Checkpoint::restore(&bytes).unwrap();
    assert_eq!(ring.keys_sorted(), vec![3, 11, 42]);
    assert_eq!(ring.estimate(3), Some(45.439_429_688_653_73));
    assert_eq!(ring.estimate(11), Some(34.997_461_597_223_01));
    assert_eq!(ring.estimate(42), Some(47.294_933_432_440_85));

    assert_eq!(ring.checkpoint(), bytes);
    assert_eq!(rebuilt_ring().checkpoint(), bytes);
}

// ---------------------------------------------------------------------
// v3 delta chain — frozen wire frames, replayed hostile
// ---------------------------------------------------------------------
//
// One shard's three-round chain for epoch 0 (round 0 is the baseline
// reset), frozen from [`rebuilt_chain`]. The chain must keep decoding
// forever, and absorbing it — in order, out of order, with duplicates —
// must converge to the frozen tag-10 ring checkpoint, which is also
// exactly what the uncompressed full-frame absorb produces.

const GOLDEN_V3_ROUND0: &str = "53424d50030bd00700000000000082000000000000002000000009000000000000000000000000000000000000000300000000000000010000000000000010000000010308010e1504030602040a170402040b050000000000000011000000010101032202010110050f03020102100d040900000000000000130000000109070b020905020a0411010603040101081606f1f3268282e33f37";
const GOLDEN_V3_ROUND1: &str = "53424d50030bd007000000000000820000000000000020000000090000000000000000000000000000000100000003000000000000000100000000000000140000000107090302060f01030207010c02010c0803020a1005000000000000001100000001000406020a0103120412030701040c0c0a09000000000000000e000000010c0e06030b120703042201030b020d8ff0ce237d4931";
const GOLDEN_V3_ROUND2: &str = "53424d50030bd0070000000000008200000000000000200000000900000000000000000000000000000002000000030000000000000001000000000000000e000000010008010614021a0a04080a16040605000000000000000d000000010e0401010c0e0e0b04080c0f0f09000000000000000b0000000105080a011101090e18100aea2c60a25d7e7138";

/// The tag-10 checkpoint of a fresh two-epoch ring after absorbing the
/// whole chain (equivalently: one full-frame absorb of the source
/// arena's final state).
const GOLDEN_V3_RESULT: &str = "53424d50020ad0070000000000008200000000000000200000000900000000000000020000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000030000000000000001000000000000003200000000000000899b290c28ccc9d1d43228c889262087000000000000000005000000000000002f000000000000003754dc04815e0118a5b8bea080421821000000000000000009000000000000002c000000000000002032812d496e88088374481e10021b840300000000000000c7cfed4a7866f0ec";

const CHAIN_KEYS: [u64; 3] = [1, 5, 9];

fn chain_schedule() -> Arc<RateSchedule> {
    // m = 130: a non-word-multiple stride, so the chain also locks the
    // tail-word handling of the run coder.
    Arc::new(RateSchedule::from_memory(2_000, 130).unwrap())
}

/// The exact construction the v3 vectors were frozen from: three ingest
/// bursts into one arena, a frame per round carrying the XOR of each
/// key's words against the previous round's snapshot (round 0 carries a
/// record for every key — the baseline reset). Returns the frames and
/// the arena's final state.
fn rebuilt_chain() -> (Vec<FleetDeltaFrame>, FleetArena) {
    let schedule = chain_schedule();
    let dims = *schedule.dims();
    let sampling_bits = schedule.split().sampling_bits();
    let stride = dims.m().div_ceil(64);
    let mut arena: FleetArena = FleetArena::with_schedule(schedule, 9);
    for key in CHAIN_KEYS {
        arena.touch(key);
    }
    let mut prev = vec![vec![0u64; stride]; CHAIN_KEYS.len()];
    let mut frames = Vec::new();
    for round in 0..3u32 {
        for key in CHAIN_KEYS {
            for item in 0..(25 * (u64::from(round) + 1)) {
                arena.insert_u64(key, key * 10_000 + u64::from(round) * 1_000 + item);
            }
        }
        let mut frame = FleetDeltaFrame::new(dims.n_max(), dims.m(), sampling_bits, 9, 0, round);
        for (i, key) in CHAIN_KEYS.into_iter().enumerate() {
            let words = arena.slot_words(key).unwrap();
            let delta: Vec<u64> = words.iter().zip(&prev[i]).map(|(w, p)| w ^ p).collect();
            if round == 0 || delta.iter().any(|&w| w != 0) {
                frame.push(key, &delta);
            }
            prev[i].copy_from_slice(words);
        }
        frames.push(frame);
    }
    (frames, arena)
}

fn chain_frames() -> Vec<FleetDeltaFrame> {
    [GOLDEN_V3_ROUND0, GOLDEN_V3_ROUND1, GOLDEN_V3_ROUND2]
        .iter()
        .map(|hex| FleetDeltaFrame::decode(&unhex(hex)).unwrap())
        .collect()
}

#[test]
fn golden_v3_chain_decodes_and_reencodes_bit_identically() {
    for (round, hex) in [GOLDEN_V3_ROUND0, GOLDEN_V3_ROUND1, GOLDEN_V3_ROUND2]
        .iter()
        .enumerate()
    {
        let bytes = unhex(hex);
        let (version, kind) = peek_kind(&bytes).unwrap();
        assert_eq!(version, 3);
        assert_eq!(kind, CounterKind::FleetDelta);
        let frame = FleetDeltaFrame::decode(&bytes).unwrap();
        assert_eq!(frame.epoch, 0);
        assert_eq!(frame.round, round as u32);
        assert_eq!(frame.m, 130);
        assert_eq!(frame.is_baseline(), round == 0);
        assert_eq!(
            frame.records.iter().map(|r| r.key).collect::<Vec<_>>(),
            CHAIN_KEYS,
            "every round of this chain touches every key"
        );
        assert_eq!(frame.encode(), bytes, "re-encode emits the frozen bytes");
    }
    // Today's encoder still produces the exact frozen chain.
    let (frames, _) = rebuilt_chain();
    for (frame, hex) in frames
        .iter()
        .zip([GOLDEN_V3_ROUND0, GOLDEN_V3_ROUND1, GOLDEN_V3_ROUND2])
    {
        assert_eq!(frame.encode(), unhex(hex));
    }
}

#[test]
fn golden_v3_chain_absorbs_bit_identically_to_the_uncompressed_path() {
    let frames = chain_frames();
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(chain_schedule(), 9, 2).unwrap();
    for f in &frames {
        assert_eq!(
            ring.absorb_delta_from(77, f).unwrap(),
            AbsorbOutcome::Absorbed
        );
    }
    assert_eq!(ring.checkpoint(), unhex(GOLDEN_V3_RESULT));
    assert_eq!(ring.estimate(1), Some(169.728_287_912_780_4));
    assert_eq!(ring.estimate(5), Some(146.888_386_434_446_4));
    assert_eq!(ring.estimate(9), Some(126.742_541_464_977_04));

    // The uncompressed pipeline — one full v2 frame of the source
    // arena's final state — lands on the identical ring bytes.
    let (_, arena) = rebuilt_chain();
    let mut full: WindowedFleet = WindowedFleet::with_schedule(chain_schedule(), 9, 2).unwrap();
    assert_eq!(
        full.absorb_epoch_from(77, 0, &arena).unwrap(),
        AbsorbOutcome::Absorbed
    );
    assert_eq!(full.checkpoint(), unhex(GOLDEN_V3_RESULT));
}

#[test]
fn golden_v3_chain_survives_duplication_and_reorder() {
    let frames = chain_frames();
    let mut ring: WindowedFleet = WindowedFleet::with_schedule(chain_schedule(), 9, 2).unwrap();

    // A delta ahead of its baseline is a typed refusal, not corruption.
    match ring.absorb_delta_from(77, &frames[2]) {
        Err(SBitmapError::MissingBaseline { epoch: 0, round: 2 }) => {}
        other => panic!("expected MissingBaseline, got {other:?}"),
    }

    // At-least-once, out-of-order replay: baseline, then the rounds
    // reversed, then everything again as duplicates.
    assert_eq!(
        ring.absorb_delta_from(77, &frames[0]).unwrap(),
        AbsorbOutcome::Absorbed
    );
    assert_eq!(
        ring.absorb_delta_from(77, &frames[2]).unwrap(),
        AbsorbOutcome::Absorbed
    );
    assert_eq!(
        ring.absorb_delta_from(77, &frames[1]).unwrap(),
        AbsorbOutcome::Absorbed
    );
    for f in &frames {
        assert_eq!(
            ring.absorb_delta_from(77, f).unwrap(),
            AbsorbOutcome::Duplicate
        );
    }
    assert_eq!(ring.checkpoint(), unhex(GOLDEN_V3_RESULT));
}

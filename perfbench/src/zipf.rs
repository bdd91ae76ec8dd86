//! `node-zipf`: the paper's per-flow case on one node, in-process.
//!
//! A coverage pass puts every one of [`KEYS`] flow keys in the fleet,
//! then Zipf(1.1) key draws with a running item counter pile distinct
//! items onto the hot keys. The fleet state is far larger than the
//! caches, so hashing, the bitmap kernels and the sparse router, index
//! and size-class promotions do the work; no network or daemon runs.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sbitmap_core::fleet::sketch_seed;
use sbitmap_core::{DistinctCounter, RateSchedule, SBitmap, SparseFleet};
use sbitmap_hash::rng::{Rng, Xoshiro256StarStar};
use sbitmap_hash::{for_each_hash_u64, FromSeed, SplitMix64Hasher};
use sbitmap_stream::{distinct_items, zipf_stream};

use crate::stats;
use crate::{E2e, Layers, Outcome, RunArgs};

/// Distinct flow keys.
const KEYS: u64 = 1_200_000;
/// Per-key design range and bits, as in the repository's Zipf lanes.
const N_MAX: u64 = 100_000;
const M_BITS: usize = 4_000;
const ALPHA: f64 = 1.1;
/// Pairs per `insert_batch` call — the router's own block, so the
/// chunking adds no router passes. One call is one write sample.
const WRITE_BATCH: usize = 32 * 1024;
/// Point reads per read sample, and read samples per pass; every read
/// of a pass asks for different keys.
const READ_KEYS: usize = 1024;
const READS_PER_PASS: usize = 100;
/// Keys whose estimates are checked against standalone sketches.
const CHECK_KEYS: usize = 64;
const TOP: usize = 100;
/// Fleet constructions timed per pass; the pass's set-up time is their
/// median. One construction takes well under a millisecond, so a single
/// timing would mostly measure the allocator after the previous pass
/// freed its fleet.
const SETUP_REPS: usize = 32;

struct Inputs {
    pairs: Vec<(u64, u64)>,
    read_keys: Vec<u64>,
    /// `(key, its items in stream order)` for the correctness sample.
    check: Vec<(u64, Vec<u64>)>,
}

fn generate(seed: u64) -> Inputs {
    let extra = KEYS * 7 / 3;
    let (draws, _) = zipf_stream(seed, KEYS, extra, ALPHA);
    let mut pairs = Vec::with_capacity((KEYS + extra) as usize);
    pairs.extend(distinct_items(seed, KEYS).zip(0u64..));
    let mut item = KEYS;
    pairs.extend(draws.into_iter().map(|key| {
        item += 1;
        (key, item)
    }));
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x5eed_2eed);
    let mut pick = |n: usize| -> Vec<u64> {
        (0..n)
            .map(|_| pairs[(rng.next_u64() % pairs.len() as u64) as usize].0)
            .collect()
    };
    let read_keys = pick(READ_KEYS * READS_PER_PASS);
    // Pair-weighted picks favour hot keys, so the check covers keys
    // deep in the larger size classes as well as the one-item tail.
    let mut check: HashMap<u64, Vec<u64>> = pick(CHECK_KEYS)
        .into_iter()
        .map(|k| (k, Vec::new()))
        .collect();
    for &(key, item) in &pairs {
        if let Some(items) = check.get_mut(&key) {
            items.push(item);
        }
    }
    let mut check: Vec<(u64, Vec<u64>)> = check.into_iter().collect();
    check.sort_unstable_by_key(|&(k, _)| k);
    Inputs {
        pairs,
        read_keys,
        check,
    }
}

/// One pass's measurements. The fleet itself is dropped with the pass,
/// so passes never hold two fleets at once.
struct Pass {
    setup_s: f64,
    items_per_s: f64,
    scan_ms: f64,
    bytes_per_key: f64,
    dense_keys: usize,
    index_max_probe: usize,
}

fn one_pass(
    seed: u64,
    inputs: &Inputs,
    reference: &[(u64, f64)],
    writes_us: &mut Vec<f64>,
    reads_us: &mut Vec<f64>,
) -> Result<Pass, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let schedule =
            Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).map_err(|e| e.to_string())?);
        let built: SparseFleet = SparseFleet::with_schedule(schedule, seed);
        setups.push(t.elapsed().as_secs_f64());
        fleet = Some(black_box(built));
    }
    let setup_s = stats::median(&setups);
    let mut fleet = fleet.ok_or("no fleet was built")?;

    let mut busy = 0.0;
    for chunk in inputs.pairs.chunks(WRITE_BATCH) {
        let t = Instant::now();
        black_box(fleet.insert_batch(black_box(chunk)));
        let s = t.elapsed().as_secs_f64();
        busy += s;
        writes_us.push(s * 1e6);
    }

    let t = Instant::now();
    let mut rows: Vec<(u64, f64)> = fleet.estimates().collect();
    rows.select_nth_unstable_by(TOP, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate(TOP);
    rows.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let scan_ms = t.elapsed().as_secs_f64() * 1e3;
    if rows.iter().any(|&(k, e)| fleet.estimate(k) != Some(e)) {
        return Err("top-100 rows disagree with point estimates".into());
    }

    for keys in inputs.read_keys.chunks(READ_KEYS) {
        let t = Instant::now();
        let mut acc = 0.0;
        for &k in keys {
            acc += fleet.estimate(black_box(k)).unwrap_or(f64::NAN);
        }
        black_box(acc);
        reads_us.push(t.elapsed().as_secs_f64() * 1e6);
        if acc.is_nan() {
            return Err("a read key is missing from the fleet".into());
        }
    }
    check_pass(seed, &fleet, KEYS as usize, reference)?;
    Ok(Pass {
        setup_s,
        items_per_s: inputs.pairs.len() as f64 / busy,
        scan_ms,
        bytes_per_key: fleet.allocated_bytes() as f64 / fleet.len() as f64,
        dense_keys: fleet.class_histogram().last().copied().unwrap_or(0),
        index_max_probe: fleet.index_max_probe(),
    })
}

/// The correctness gate: every sampled key's estimate equals that of a
/// standalone S-bitmap with the key's hasher, fed the same items.
fn check_pass(
    seed: u64,
    fleet: &SparseFleet,
    keys: usize,
    reference: &[(u64, f64)],
) -> Result<(), String> {
    if fleet.len() != keys {
        return Err(format!("fleet holds {} of {keys} keys", fleet.len()));
    }
    for &(key, want) in reference {
        let got = fleet.estimate(key);
        if got != Some(want) {
            return Err(format!(
                "key {key:#x}: fleet estimate {got:?}, standalone sketch {want} (seed {seed})"
            ));
        }
    }
    Ok(())
}

fn standalone_estimates(seed: u64, inputs: &Inputs) -> Result<Vec<(u64, f64)>, String> {
    let schedule = Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).map_err(|e| e.to_string())?);
    Ok(inputs
        .check
        .iter()
        .map(|(key, items)| {
            let mut sketch = SBitmap::with_shared_schedule(
                schedule.clone(),
                SplitMix64Hasher::from_seed(sketch_seed(seed, *key)),
            );
            for &item in items {
                sketch.insert_u64(item);
            }
            (*key, sketch.estimate())
        })
        .collect())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let t = Instant::now();
    let inputs = generate(args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    let reference = standalone_estimates(args.seed, &inputs)?;

    let mut e2e = E2e::default();
    let mut scans = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while !args.done(start, e2e.writes_us.len().min(e2e.reads_us.len())) {
        let pass = one_pass(
            args.seed,
            &inputs,
            &reference,
            &mut e2e.writes_us,
            &mut e2e.reads_us,
        )?;
        e2e.setup_s.push(pass.setup_s);
        e2e.throughput.push(pass.items_per_s);
        scans.push(pass.scan_ms);
        last = Some(pass);
    }
    let last = last.ok_or("no pass ran")?;

    let mut layers = Layers::default();
    if args.trace {
        let items: Vec<u64> = inputs.pairs.iter().map(|&(_, item)| item).collect();
        let hasher = SplitMix64Hasher::from_seed(sketch_seed(args.seed, 0));
        let t = Instant::now();
        let mut sink = 0u64;
        for_each_hash_u64(&hasher, black_box(&items), |h| sink ^= h);
        black_box(sink);
        let hash_ns = t.elapsed().as_secs_f64() * 1e9 / items.len() as f64;
        layers.0 = vec![
            ("hash.ns_per_item", hash_ns),
            // The sparse layer's own share of an inserted pair: the
            // median pass's insert time less the hashing measured over
            // the same items.
            (
                "sparse.insert_ns_per_item",
                1e9 / stats::median(&e2e.throughput) - hash_ns,
            ),
            ("sparse.bytes_per_key", last.bytes_per_key),
            ("sparse.dense_keys", last.dense_keys as f64),
            ("sparse.index_max_probe", last.index_max_probe as f64),
            ("sparse.scan_ms", stats::median(&scans)),
            ("loadgen.gen_s", gen_s),
        ];
    }
    Ok(Outcome {
        attempted: (e2e.writes_us.len() + e2e.reads_us.len()) as u64,
        failed: 0,
        e2e,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_refuses_an_estimate_off_by_one_ulp() {
        let seed = 3;
        let pairs: Vec<(u64, u64)> = (0..4000u64).map(|i| (i % 5, i)).collect();
        let check = (0..5u64)
            .map(|k| (k, pairs.iter().filter(|p| p.0 == k).map(|p| p.1).collect()))
            .collect();
        let inputs = Inputs {
            pairs,
            read_keys: Vec::new(),
            check,
        };
        let schedule = Arc::new(RateSchedule::from_memory(N_MAX, M_BITS).unwrap());
        let mut fleet: SparseFleet = SparseFleet::with_schedule(schedule, seed);
        fleet.insert_batch(&inputs.pairs);
        let mut want = standalone_estimates(seed, &inputs).unwrap();
        check_pass(seed, &fleet, 5, &want).unwrap();
        assert!(check_pass(seed, &fleet, 6, &want).is_err());
        want[2].1 = f64::from_bits(want[2].1.to_bits() + 1);
        let err = check_pass(seed, &fleet, 5, &want).unwrap_err();
        assert!(err.contains("standalone sketch"), "{err}");
    }
}

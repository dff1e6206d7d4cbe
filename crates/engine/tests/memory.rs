//! The WorkerLog regression test: **steady-state engine memory must
//! not grow with submissions**.
//!
//! The engine once accumulated a `(seq, key)` pair per submitted
//! function into per-worker logs that were only collected at `finish` —
//! 24 bytes per function, linear in stream length, unbounded for
//! streams larger than RAM and flatly contradicting the streaming
//! design. The fix streams the log out per chunk (4 bytes per function
//! when labels are tracked) and drops it entirely in census-only mode
//! (`EngineConfig::track_labels = false`).
//!
//! This test wraps the system allocator in a live-byte counter (the
//! shared `facepoint-testsupport` harness, same as
//! `crates/core/tests/zero_alloc.rs`) and streams
//! waves of functions through a census-only engine: after a warm-up
//! wave grows every buffer to its high-water mark, the live-byte count
//! must stay flat across arbitrarily many further waves. A second
//! phase proves the harness has teeth: with `track_labels` on, the same
//! stream *does* grow the heap (the label log is real), at roughly
//! 4 bytes per function.
//!
//! The default stream is sized for the debug-mode test suite; CI's
//! release stress job scales it to 10⁶ functions via
//! `MEMORY_STREAM=1000000`.
//!
//! The library crates all keep `#![forbid(unsafe_code)]`; the harness's
//! `unsafe` lives in `facepoint-testsupport`, where it only delegates
//! to `std`'s `System` allocator and keeps a byte counter.

use facepoint_engine::{Engine, EngineConfig};
use facepoint_testsupport::{live_bytes, CountingAllocator};
use facepoint_truth::TruthTable;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A small palette of distinct functions, cycled to build streams of
/// any length: repeats keep the class store (the state that *should*
/// stay bounded by distinct classes, not stream length) small, so any
/// per-submission growth stands out.
fn palette() -> Vec<TruthTable> {
    let mut fns = vec![
        TruthTable::parity(5),
        TruthTable::majority(5),
        TruthTable::zero(5).unwrap(),
        TruthTable::one(5).unwrap(),
    ];
    for k in 0..28u64 {
        fns.push(
            TruthTable::from_fn(5, |m| {
                (m ^ (m >> 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ k) % 5 < 2
            })
            .unwrap(),
        );
    }
    fns
}

/// Streams `count` palette functions through one `submit_batch` call,
/// so the configured chunk size shapes every dispatched chunk.
fn stream(engine: &Engine, palette: &[TruthTable], count: usize) {
    engine.submit_batch((0..count).map(|i| palette[i % palette.len()].clone()));
    assert!(
        engine.drain(Duration::from_secs(600)),
        "engine failed to drain"
    );
}

// One #[test] on purpose: the byte counter is process-global, so a
// second test on a parallel harness thread would bleed its allocations
// into this one's measured window.
#[test]
fn steady_state_memory_is_flat_without_label_tracking() {
    let total = std::env::var("MEMORY_STREAM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(120_000);
    let warmup = (total / 6).max(1_000);
    let waves = 4;
    let per_wave = total / waves;
    let palette = palette();

    // --- census-only: flat ------------------------------------------
    let engine = Engine::builder()
        .config(EngineConfig {
            workers: 2,
            chunk_size: 64,
            shards: 16,
            track_labels: false,
            cache_capacity: 0, // every submission takes the full queue path
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    // Warm-up: grow chunk buffers, deques, shard maps and kernel
    // scratch to their high-water marks.
    stream(&engine, &palette, warmup);
    let baseline = live_bytes();
    let mut peak_growth = 0i64;
    for wave in 0..waves {
        stream(&engine, &palette, per_wave);
        let growth = live_bytes() - baseline;
        peak_growth = peak_growth.max(growth);
        println!(
            "census-only wave {wave}: {per_wave} fns, live-byte growth {growth} B \
             (peak {peak_growth} B)"
        );
    }
    // Flat = bounded by noise (allocator bookkeeping, hash-map
    // rounding), not by stream length. 256 KiB over hundreds of
    // thousands of submissions is < 1 byte per function; the broken
    // WorkerLog grew 24 bytes per function (tens of megabytes here).
    assert!(
        peak_growth < 256 * 1024,
        "steady-state memory grew {peak_growth} B over {} submissions — \
         the engine is accumulating per-submission state again",
        waves * per_wave,
    );
    let report = engine.finish();
    assert_eq!(
        report.stats.functions_processed,
        (warmup + waves * per_wave) as u64
    );
    assert_eq!(report.census.len(), report.stats.num_classes);

    // --- label tracking: grows, and by about 4 B/fn, proving the
    // --- harness measures what it claims ----------------------------
    let tracked_stream = (total / 2).max(10_000);
    let tracked = Engine::builder()
        .config(EngineConfig {
            workers: 2,
            chunk_size: 64,
            shards: 16,
            track_labels: true,
            cache_capacity: 0,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    stream(&tracked, &palette, 1_000);
    let tracked_baseline = live_bytes();
    stream(&tracked, &palette, tracked_stream);
    let tracked_growth = live_bytes() - tracked_baseline;
    println!("label-tracking: {tracked_stream} fns grew {tracked_growth} B");
    assert!(
        tracked_growth >= 2 * tracked_stream as i64,
        "label tracking grew only {tracked_growth} B over {tracked_stream} \
         submissions; the counting harness is not measuring engine state"
    );
    // …but far below the 24 B/fn of the old WorkerLog (4 B/fn for the
    // label array, doubled for amortized Vec growth headroom).
    assert!(
        tracked_growth <= 10 * tracked_stream as i64,
        "label tracking grew {tracked_growth} B over {tracked_stream} \
         submissions — more than the streamed order log should cost"
    );
    drop(tracked.finish());
}

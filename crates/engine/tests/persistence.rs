//! Durable-store integration tests: journal round-trips, torn-write
//! truncation at every byte offset of the tail record, and
//! checkpoint-compaction equivalence — the property suite behind the
//! kill-then-recover guarantee (the SIGKILL harness itself lives in
//! `recovery_gauntlet.rs`).

use facepoint_bench::random_workload;
use facepoint_core::wire::{FrameStream, Record};
use facepoint_core::{signature_key, Classifier};
use facepoint_engine::{Engine, EngineConfig, PersistConfig, SyncPolicy};
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("facepoint-persistence-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable config tuned for deterministic tests: one worker and
/// chunk-per-function keep the journal order equal to submission
/// order; no fsyncs keeps the suite fast.
fn durable_cfg(dir: &Path, checkpoint_interval: u64) -> EngineConfig {
    EngineConfig {
        workers: 1,
        shards: 1,
        chunk_size: 1,
        persist: Some(PersistConfig {
            dir: dir.to_path_buf(),
            checkpoint_interval,
            sync: SyncPolicy::Never,
        }),
        ..EngineConfig::default()
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

#[test]
fn open_finish_recover_roundtrip() {
    let dir = test_dir("roundtrip");
    let fns = random_workload(5, 300, 11);
    let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
    let engine = Engine::builder()
        .config(EngineConfig::default())
        .persist(&dir)
        .build()
        .unwrap();
    assert_eq!(engine.recovery().unwrap().classes, 0);
    engine.submit_batch(fns);
    let report = engine.finish();
    assert_eq!(report.classification.num_classes(), expected.num_classes());
    let durability = report
        .stats
        .durability
        .expect("durable run reports journal stats");
    assert_eq!(durability.journal_records, 300);
    assert!(durability.checkpoints > 0, "finish checkpoints every shard");

    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.set, SignatureSet::all());
    assert_eq!(snap.classes.len(), expected.num_classes());
    assert_eq!(snap.members(), 300);
    // After a clean finish, recovery reads checkpoints only.
    assert_eq!(snap.report.log_records, 0, "{}", snap.report);
    assert_eq!(snap.report.truncated_bytes, 0);
    // Every recovered class matches the one-shot partition exactly.
    let expected_by_key: HashMap<u128, (usize, &TruthTable)> = expected
        .classes()
        .iter()
        .map(|c| {
            (
                signature_key(c.representative(), SignatureSet::all()),
                (c.size(), c.representative()),
            )
        })
        .collect();
    for class in &snap.classes {
        let (size, rep) = expected_by_key
            .get(&class.key)
            .expect("recovered class unknown to the classifier");
        assert_eq!(class.size, *size);
        assert_eq!(&&class.representative, rep);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_accumulates_and_warms_dedup_cache() {
    let dir = test_dir("reopen");
    let fns = random_workload(4, 120, 99);
    let cfg = || EngineConfig {
        cache_capacity: 1 << 12,
        persist: Some(PersistConfig {
            dir: dir.clone(),
            checkpoint_interval: 64,
            sync: SyncPolicy::Never,
        }),
        ..EngineConfig::default()
    };
    let first = Engine::builder()
        .config(cfg())
        .persist(&dir)
        .build()
        .unwrap();
    first.submit_batch(fns.clone());
    let first_report = first.finish();

    let second = Engine::builder()
        .config(cfg())
        .persist(&dir)
        .build()
        .unwrap();
    let recovered = second.recovery().unwrap().clone();
    assert_eq!(recovered.members, 120);
    assert_eq!(recovered.classes, first_report.classification.num_classes());
    second.submit_batch(fns.clone());
    let second_report = second.finish();
    // Same stream, same grouping — and the recovered census carried
    // over: every repeated function hit the primed memo cache.
    assert_eq!(
        second_report.classification.labels(),
        first_report.classification.labels()
    );
    assert_eq!(second_report.stats.recovered_members, 120);
    assert_eq!(second_report.stats.functions_processed, 240);
    assert!(
        second_report.stats.dedup_hits > 0,
        "recovered representatives prime the dedup fast path: {}",
        second_report.stats
    );
    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.members(), 240);
    for class in &snap.classes {
        assert_eq!(class.size % 2, 0, "every class doubled");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flush_writes_epoch_barriers() {
    let dir = test_dir("epochs");
    let engine = Engine::builder()
        .config(EngineConfig {
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 0,
                sync: SyncPolicy::Barrier,
            }),
            ..EngineConfig::default()
        })
        .persist(&dir)
        .build()
        .unwrap();
    for f in random_workload(4, 50, 3) {
        engine.submit(f);
    }
    engine.flush(); // epoch 1: covers whatever the workers journaled so far
                    // Quiesce, then submit one more member: barrier 2 now
                    // deterministically has at least one record to cover.
                    // (Racing the first barrier against the workers made
                    // this test flaky: on a slow or single-core machine all
                    // 50 records could land *before* marker 1, leaving
                    // barrier 2 nothing to stamp.)
    assert!(
        engine.drain(std::time::Duration::from_secs(30)),
        "engine failed to drain"
    );
    engine.submit(TruthTable::parity(4));
    assert!(
        engine.drain(std::time::Duration::from_secs(30)),
        "engine failed to drain"
    );
    engine.flush();
    // A further flush with nothing new is a no-op on disk: idle flush
    // loops must not grow the logs.
    let bytes_after_covering = engine.stats().durability.unwrap().journal_bytes;
    engine.flush();
    let stats = engine.stats();
    let durability = stats.durability.expect("durable engine");
    assert_eq!(durability.epochs, 3, "barriers issued");
    assert_eq!(
        durability.journal_bytes, bytes_after_covering,
        "idle barrier wrote bytes"
    );
    assert!(durability.fsyncs > 0, "barrier policy fsyncs on flush");
    drop(engine);
    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.members(), 51);
    // The last barrier that covered data is the newest marker on disk:
    // epoch 2 stamped the post-drain member; the idle epoch 3 skipped
    // every shard.
    assert_eq!(snap.report.last_epoch, 2);

    // Epoch numbering resumes (stays monotonic) across a reopen.
    let engine = Engine::builder()
        .config(EngineConfig {
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 0,
                sync: SyncPolicy::Barrier,
            }),
            ..EngineConfig::default()
        })
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit(TruthTable::majority(3));
    // Drain first, so the next barrier covers the new member
    // deterministically (epoch 3); a second, idle barrier (4) writes no
    // marker.
    assert!(
        engine.drain(std::time::Duration::from_secs(30)),
        "engine failed to drain"
    );
    engine.flush();
    engine.flush();
    drop(engine);
    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.report.last_epoch, 3, "epochs resume after reopen");

    // A clean finish() compacts every log away, but the epoch survives
    // in the checkpoint headers — numbering never regresses.
    let engine = Engine::builder()
        .config(EngineConfig {
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 0,
                sync: SyncPolicy::Barrier,
            }),
            ..EngineConfig::default()
        })
        .persist(&dir)
        .build()
        .unwrap();
    engine.finish();
    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.report.log_records, 0, "finish compacted the logs");
    assert_eq!(
        snap.report.last_epoch, 3,
        "epoch numbering survives a clean restart"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_writer_is_refused_while_store_is_open() {
    let dir = test_dir("locked");
    let first = Engine::builder()
        .config(EngineConfig::default())
        .persist(&dir)
        .build()
        .unwrap();
    let err = Engine::builder()
        .config(EngineConfig::default())
        .persist(&dir)
        .build()
        .map(|_| ())
        .expect_err("two live writers on one store must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    // Releasing the first engine releases the lock.
    drop(first);
    let reopened = Engine::builder()
        .config(EngineConfig::default())
        .persist(&dir)
        .build();
    assert!(reopened.is_ok(), "{:?}", reopened.err());
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_without_store_is_not_found() {
    let dir = test_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = Engine::recover(&dir).expect_err("no manifest");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_always_survives_unclean_drop() {
    let dir = test_dir("always");
    let fns = random_workload(4, 40, 17);
    let engine = Engine::builder()
        .config(EngineConfig {
            workers: 1,
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 16,
                sync: SyncPolicy::Always,
            }),
            ..EngineConfig::default()
        })
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit_batch(fns);
    engine.flush();
    // Wait for the pipeline to drain, then drop without finish(): no
    // final checkpoint, recovery replays checkpoints + tail logs.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.snapshot().functions_processed < 40 {
        assert!(
            std::time::Instant::now() < deadline,
            "engine failed to drain"
        );
        std::thread::yield_now();
    }
    drop(engine);
    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.members(), 40);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Producers and epoch barriers share one durable engine by reference:
/// scoped threads call `submit_batch` and `flush` concurrently on the
/// same `&Engine`, with no engine-level lock serializing the barriers
/// against each other or against ingestion. The engine is then dropped
/// without `finish`, so only the journals and their barriers carry the
/// census to disk.
#[test]
fn concurrent_producers_and_barriers_share_one_durable_engine() {
    const PRODUCERS: usize = 4;
    const BATCHES: usize = 6;
    let dir = test_dir("shared");
    let engine = Engine::builder()
        .config(EngineConfig {
            workers: 2,
            shards: 4,
            chunk_size: 8,
            cache_capacity: 1 << 10,
            persist: Some(PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: 64,
                sync: SyncPolicy::Barrier,
            }),
            ..EngineConfig::default()
        })
        .persist(&dir)
        .build()
        .unwrap();
    // Every producer streams its own tables plus a shared run, so the
    // threads also race each other through the dedup fast path.
    let shared = random_workload(5, 30, 0x5A);
    let streams: Vec<Vec<TruthTable>> = (0..PRODUCERS)
        .map(|p| {
            let mut fns = random_workload(5, 90, 0x5B + p as u64);
            fns.extend(shared.iter().cloned());
            fns
        })
        .collect();
    std::thread::scope(|s| {
        for stream in &streams {
            let engine = &engine;
            s.spawn(move || {
                for batch in stream.chunks(stream.len().div_ceil(BATCHES)) {
                    engine.submit_batch(batch.iter().cloned());
                    engine.flush();
                }
            });
        }
    });
    assert!(
        engine.drain(std::time::Duration::from_secs(30)),
        "engine failed to drain"
    );
    engine.flush();
    let durability = engine.stats().durability.expect("durable engine");
    assert_eq!(
        durability.epochs,
        (PRODUCERS * BATCHES + 1) as u64,
        "every flush is one barrier"
    );
    drop(engine);

    let all: Vec<TruthTable> = streams.into_iter().flatten().collect();
    let expected = Classifier::new(SignatureSet::all()).classify(all.clone());
    let snap = Engine::recover(&dir).unwrap();
    assert_eq!(snap.members(), all.len() as u64);
    let mut recovered: Vec<usize> = snap.classes.iter().map(|c| c.size).collect();
    let mut sizes: Vec<usize> = expected.classes().iter().map(|c| c.size()).collect();
    recovered.sort_unstable();
    sizes.sort_unstable();
    assert_eq!(recovered, sizes, "recovered partition differs");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Strategy for arbitrary journal records: class entries with any
/// key/rep_seq/count and a table of arity 0..=6, bumps, and epoch
/// markers.
fn arb_record() -> impl Strategy<Value = Record> {
    (
        0u8..3,
        any::<u128>(),
        any::<u64>(),
        1u64..=1 << 40,
        (0usize..=6, any::<u64>()),
    )
        .prop_map(|(kind, key, rep_seq, count, (n, bits))| match kind {
            0 => {
                let masked = if n >= 6 {
                    bits
                } else {
                    bits & ((1u64 << (1 << n)) - 1)
                };
                Record::Class {
                    key,
                    rep_seq,
                    count,
                    representative: TruthTable::from_u64(n, masked).unwrap(),
                }
            }
            1 => Record::Bump { key },
            _ => Record::Epoch { epoch: rep_seq },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Segment round-trip: any sequence of records encodes to a byte
    /// stream that decodes back to exactly the same sequence.
    #[test]
    fn segment_roundtrip(records in proptest::collection::vec(arb_record(), 0..40)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut stream = FrameStream::new(&buf);
        let mut got = Vec::new();
        while let Some(r) = stream.next_record().unwrap() {
            got.push(r);
        }
        prop_assert_eq!(got, records);
    }

    /// Torn-write tolerance: corrupting ANY single byte of the tail
    /// record of a shard log truncates recovery to exactly the prefix
    /// before it — never an error, never a wrong class.
    #[test]
    fn torn_tail_truncates_to_prefix(count in 4usize..=10, seed in any::<u64>()) {
        let dir = test_dir("torn-prop");
        let fns = random_workload(4, count, seed);
        let engine = Engine::builder().config(durable_cfg(&dir, 0)).build().unwrap();
        engine.submit_batch(fns.iter().cloned());
        // Drain, then drop WITHOUT finish so no checkpoint supersedes
        // the log (single worker: log order == submission order).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.snapshot().functions_processed < count as u64 {
            prop_assert!(std::time::Instant::now() < deadline, "engine failed to drain");
            std::thread::yield_now();
        }
        drop(engine);

        // What a prefix of one fewer member classifies to.
        let prefix = Classifier::new(SignatureSet::all())
            .classify(fns[..count - 1].iter().cloned());

        let log = dir.join("shard-0000.log.0");
        let clean = std::fs::read(&log).unwrap();
        // Find where the tail frame starts.
        let tail_start = {
            let mut s = FrameStream::new(&clean);
            let mut start = 0;
            loop {
                let before = s.offset();
                match s.next_record().unwrap() {
                    Some(_) => start = before,
                    None => break,
                }
            }
            start
        };
        prop_assert!(tail_start < clean.len());
        for offset in tail_start..clean.len() {
            let mangled = test_dir("torn-prop-mangled");
            copy_dir(&dir, &mangled);
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x40;
            std::fs::write(mangled.join("shard-0000.log.0"), &bytes).unwrap();
            let snap = Engine::recover(&mangled).unwrap();
            prop_assert_eq!(snap.members(), count as u64 - 1, "offset {}", offset);
            prop_assert_eq!(snap.classes.len(), prefix.num_classes(), "offset {}", offset);
            prop_assert_eq!(snap.report.torn_shards, 1);
            prop_assert!(snap.report.truncated_bytes > 0);
            std::fs::remove_dir_all(&mangled).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Compaction changes the files, never the state: a store driven
    /// with compaction after every few records recovers to exactly the
    /// same census as one that never compacts — and both match the
    /// one-shot classifier.
    #[test]
    fn checkpoint_compaction_equivalence(
        count in 1usize..=60,
        interval in 1u64..=7,
        seed in any::<u64>(),
    ) {
        let compacted_dir = test_dir("ckpt-eq-compact");
        let plain_dir = test_dir("ckpt-eq-plain");
        let fns = random_workload(4, count, seed);
        for (dir, ckpt) in [(&compacted_dir, interval), (&plain_dir, 0)] {
            let engine = Engine::builder().config(durable_cfg(dir, ckpt)).build().unwrap();
            engine.submit_batch(fns.iter().cloned());
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while engine.snapshot().functions_processed < count as u64 {
                prop_assert!(std::time::Instant::now() < deadline, "engine failed to drain");
                std::thread::yield_now();
            }
            drop(engine); // no finish: the compacted dir keeps ckpt + tail
        }
        let compacted = Engine::recover(&compacted_dir).unwrap();
        let plain = Engine::recover(&plain_dir).unwrap();
        prop_assert!(compacted.report.checkpoint_classes > 0 || count < interval as usize);
        let view = |snap: &facepoint_engine::RecoveredSnapshot| {
            let mut v: Vec<(u128, usize, TruthTable)> = snap
                .classes
                .iter()
                .map(|c| (c.key, c.size, c.representative.clone()))
                .collect();
            v.sort_by_key(|entry| entry.0);
            v
        };
        prop_assert_eq!(view(&compacted), view(&plain));
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        prop_assert_eq!(compacted.classes.len(), expected.num_classes());
        prop_assert_eq!(compacted.members(), count as u64);
        std::fs::remove_dir_all(&compacted_dir).unwrap();
        std::fs::remove_dir_all(&plain_dir).unwrap();
    }
}

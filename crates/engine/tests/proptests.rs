//! Property-based tests of the engine's streaming API: how functions
//! are fed in (one at a time, batched, chunk sizing, worker count) must
//! never change the partition.

use facepoint_bench::transform_closure_workload;
use facepoint_core::Classifier;
use facepoint_engine::{Engine, EngineConfig};
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use proptest::prelude::*;

/// Strategy: a mixed workload with planted equivalent copies.
fn arb_workload() -> impl Strategy<Value = Vec<TruthTable>> {
    (2usize..=5, 1usize..=10, any::<u64>()).prop_map(|(n, groups, seed)| {
        transform_closure_workload(n, groups, 1 + (seed as usize % 4), seed)
    })
}

fn arb_set() -> impl Strategy<Value = SignatureSet> {
    prop_oneof![
        Just(SignatureSet::OIV),
        Just(SignatureSet::OCV1 | SignatureSet::OSV),
        Just(SignatureSet::OIV | SignatureSet::OSV | SignatureSet::OSDV),
        Just(SignatureSet::all()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn submit_equals_submit_batch(
        fns in arb_workload(),
        set in arb_set(),
        workers in 1usize..=4,
        chunk in 1usize..=32,
    ) {
        let one_by_one = Engine::builder().config(EngineConfig {
            set,
            workers,
            chunk_size: chunk,
            ..EngineConfig::default()
        }).build().unwrap();
        for f in fns.iter().cloned() {
            one_by_one.submit(f);
        }
        let a = one_by_one.finish().classification;

        let batched = Engine::builder().config(EngineConfig {
            set,
            workers,
            chunk_size: chunk,
            ..EngineConfig::default()
        }).build().unwrap();
        batched.submit_batch(fns.clone());
        let b = batched.finish().classification;

        prop_assert_eq!(a.labels(), b.labels());
        prop_assert_eq!(a.num_classes(), b.num_classes());
    }

    #[test]
    fn engine_equals_classifier(
        fns in arb_workload(),
        set in arb_set(),
        workers in 1usize..=4,
    ) {
        let expected = Classifier::new(set).classify(fns.clone());
        let engine = Engine::builder().config(EngineConfig {
            set,
            workers,
            chunk_size: 5,
            ..EngineConfig::default()
        }).build().unwrap();
        engine.submit_batch(fns);
        let got = engine.finish().classification;
        prop_assert_eq!(got.labels(), expected.labels());
    }

    #[test]
    fn submission_numbers_are_dense(fns in arb_workload()) {
        let engine = Engine::new(SignatureSet::all());
        for (expected_seq, f) in fns.iter().cloned().enumerate() {
            prop_assert_eq!(engine.submit(f), expected_seq as u64);
        }
        let report = engine.finish();
        prop_assert_eq!(report.classification.num_functions(), fns.len());
    }

    /// Tiny chunks spread consecutive functions over 1, 2 and 8
    /// workers, which finish them in any order — the partition must be
    /// identical to the one-shot classifier whatever the schedule.
    #[test]
    fn stealing_pools_match_classifier_under_forced_steals(
        fns in arb_workload(),
        set in arb_set(),
        chunk in 1usize..=4,
    ) {
        let expected = Classifier::new(set).classify(fns.clone());
        for workers in [1usize, 2, 8] {
            let engine = Engine::builder().config(EngineConfig {
                set,
                workers,
                chunk_size: chunk,
                ..EngineConfig::default()
            }).build().unwrap();
            engine.submit_batch(fns.clone());
            let got = engine.finish().classification;
            prop_assert_eq!(
                got.labels(),
                expected.labels(),
                "{} workers, chunk {}",
                workers, chunk
            );
            prop_assert_eq!(got.num_classes(), expected.num_classes());
        }
    }

    /// Eight workers with persistence on: the journal (appended under
    /// the shard lock, whatever worker got the chunk) must still
    /// replay to exactly the partition's census after the engine is
    /// gone.
    #[test]
    fn stolen_chunks_keep_the_journal_replayable(
        fns in arb_workload(),
        chunk in 1usize..=4,
        interval in 1u64..=16,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "facepoint-steal-replay-{}-{interval}-{chunk}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let engine = Engine::builder().config(EngineConfig {
            workers: 8,
            chunk_size: chunk,
            shards: 4,
            persist: Some(facepoint_engine::PersistConfig {
                dir: dir.clone(),
                checkpoint_interval: interval,
                sync: facepoint_engine::SyncPolicy::Never,
            }),
            ..EngineConfig::default()
        }).persist(&dir).build().expect("open durable engine");
        engine.submit_batch(fns.clone());
        let report = engine.finish();
        prop_assert_eq!(report.classification.labels(), expected.labels());
        // Replay from disk alone: same classes, same sizes.
        let snap = Engine::recover(&dir).expect("recover");
        prop_assert_eq!(snap.classes.len(), expected.num_classes());
        prop_assert_eq!(snap.members(), fns.len() as u64);
        let mut expected_sizes: Vec<usize> =
            expected.classes().iter().map(|c| c.size()).collect();
        expected_sizes.sort_unstable();
        let mut got_sizes: Vec<usize> = snap.classes.iter().map(|c| c.size).collect();
        got_sizes.sort_unstable();
        prop_assert_eq!(got_sizes, expected_sizes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The two resolution tiers differ only by splitting: a certified
    /// run on the same stream (including under weak signature sets
    /// chosen to force digest collisions) partitions exactly like the
    /// ground-truth classifier, and every certified class stays inside
    /// one digest bucket — certified never merges what digest
    /// separated, at 1, 2 and 8 workers alike.
    #[test]
    fn certified_splits_digest_buckets_never_merges(
        fns in arb_workload(),
        set in arb_set(),
        chunk in 1usize..=8,
    ) {
        let exact = facepoint_exact::exact_classify(&fns);
        for workers in [1usize, 2, 8] {
            let run = |resolution: facepoint_engine::Resolution| {
                let engine = Engine::builder().config(
                    EngineConfig::builder()
                        .set(set)
                        .workers(workers)
                        .chunk_size(chunk)
                        .resolution(resolution)
                        .build(),
                ).build().unwrap();
                engine.submit_batch(fns.clone());
                engine.finish().classification
            };
            let digest = run(facepoint_engine::Resolution::Digest);
            let certified = run(facepoint_engine::Resolution::Certified);

            // Certified is exact: same partition as the ground truth
            // (labels normalized to first-occurrence order).
            let normalized = facepoint_exact::ClassLabels::from_keys(
                certified.labels().iter().copied(),
            );
            prop_assert_eq!(
                normalized.labels(),
                exact.labels(),
                "workers={}", workers
            );

            // Pure refinement: a certified class never spans two
            // digest buckets, so certified can only split.
            prop_assert!(certified.num_classes() >= digest.num_classes());
            for i in 0..fns.len() {
                for j in i + 1..fns.len() {
                    if certified.label(i) == certified.label(j) {
                        prop_assert_eq!(
                            digest.label(i),
                            digest.label(j),
                            "certified merged digest buckets at {} {} ({} workers)",
                            i, j, workers
                        );
                    }
                }
            }
        }
    }
}

//! Cross-checks of the certified resolution tier against the exact
//! classifier: exhaustively over every function at small arity,
//! statistically above, across worker counts — plus the durable-store
//! roundtrip (a re-fed recovered stream adds no class), the past-budget
//! path through the digest buckets and the matcher, and the cross-mode
//! reopen refusal.

use facepoint_bench::{random_workload, transform_closure_workload};
use facepoint_core::wire::{Record, WIRE_VERSION};
use facepoint_engine::{certified_key, Engine, EngineConfig, EngineReport, Resolution};
use facepoint_exact::{
    certified_canonical, certified_canonical_with_witness, exact_classify, ClassLabels,
};
use facepoint_sig::SignatureSet;
use facepoint_truth::{NpnTransform, TruthTable};
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;

fn certified_cfg(workers: usize) -> EngineConfig {
    EngineConfig::builder()
        .workers(workers)
        .chunk_size(16)
        // The memo cache would dedup repeated tables before resolution;
        // off, so every member is a miss and takes the walk (and, past
        // the walk's budget, the bucket-and-matcher path).
        .cache_capacity(0)
        .certified()
        .build()
}

/// Streams `fns` through a certified engine and returns the report plus
/// the engine's labels normalized to first-occurrence order (the order
/// [`exact_classify`] reports).
fn certified_run(fns: &[TruthTable], workers: usize) -> (ClassLabels, EngineReport) {
    let engine = Engine::builder()
        .config(certified_cfg(workers))
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    let labels = ClassLabels::from_keys(report.classification.labels().iter().copied());
    (labels, report)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("facepoint-certified-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every function of up to three variables: the certified census is the
/// known class ladder (2, 4, 14) and the partition is exactly the
/// ground-truth classifier's, at one and at eight workers.
#[test]
fn exhaustive_small_arity_census_is_proved() {
    for (n, expected_classes) in [(1usize, 2usize), (2, 4), (3, 14)] {
        let fns: Vec<TruthTable> = (0..1u64 << (1usize << n))
            .map(|bits| TruthTable::from_u64(n, bits).unwrap())
            .collect();
        let expected = exact_classify(&fns);
        assert_eq!(
            expected.num_classes(),
            expected_classes,
            "oracle drifted at n={n}"
        );
        for workers in [1usize, 8] {
            let (labels, report) = certified_run(&fns, workers);
            assert_eq!(
                labels.labels(),
                expected.labels(),
                "n={n} workers={workers}"
            );
            assert_eq!(report.stats.num_classes, expected_classes);
            assert_eq!(report.stats.resolution, Resolution::Certified);
        }
    }
}

/// All 65 536 four-variable functions resolve to the paper's 222
/// classes, every stored key is the digest of its proved
/// representative, and the partition matches [`exact_classify`].
#[test]
fn exhaustive_n4_census_matches_exact_classifier() {
    let fns: Vec<TruthTable> = (0..1u64 << 16)
        .map(|bits| TruthTable::from_u64(4, bits).unwrap())
        .collect();
    let expected = exact_classify(&fns);
    assert_eq!(expected.num_classes(), 222, "oracle drifted at n=4");
    for workers in [1usize, 8] {
        let (labels, report) = certified_run(&fns, workers);
        assert_eq!(labels.labels(), expected.labels(), "workers={workers}");
        assert_eq!(report.stats.num_classes, 222);
        let mut members = 0u64;
        for class in &report.census {
            assert_eq!(
                certified_key(&class.representative),
                class.key,
                "stored key is not its representative's digest"
            );
            members += class.size as u64;
        }
        assert_eq!(members, fns.len() as u64);
    }
}

/// Statistical cross-check above exhaustive reach: planted equivalence
/// groups plus distinct random tables at n = 5..8, across 1, 2 and 8
/// workers, always equal to the exact classifier's partition.
#[test]
fn statistical_cross_check_matches_exact_classifier() {
    for n in 5..=8 {
        let mut fns = transform_closure_workload(n, 10, 5, 0x5EED ^ n as u64);
        fns.extend(random_workload(n, 60, 0xFACE ^ n as u64));
        let expected = exact_classify(&fns);
        for workers in [1usize, 2, 8] {
            let (labels, report) = certified_run(&fns, workers);
            assert_eq!(
                labels.labels(),
                expected.labels(),
                "n={n} workers={workers}"
            );
            assert_eq!(report.stats.num_classes, expected.num_classes());
            // Every function here is within the walk's budget, so with
            // the cache off each one is a miss keyed by its label alone:
            // one walk per function, at any worker count, and neither
            // the matcher nor a capped label.
            let stats = &report.stats;
            assert_eq!(
                stats.canon_walks,
                fns.len() as u64,
                "n={n} workers={workers}"
            );
            assert_eq!(stats.canon_matches, 0, "n={n} workers={workers}");
            assert_eq!(stats.canon_fallbacks, 0, "n={n} workers={workers}");
        }
    }
}

/// [`Engine::canon`] answers every query with a witness that really
/// maps the query onto the returned representative, whose digest is
/// the returned key.
#[test]
fn canon_answers_carry_valid_witnesses() {
    let fns = transform_closure_workload(4, 6, 5, 0x0C41);
    let engine = Engine::builder().config(certified_cfg(2)).build().unwrap();
    engine.submit_batch(fns.iter().cloned());
    // Drain before querying so every class is in the store.
    assert!(engine.drain(std::time::Duration::from_secs(30)));
    for f in &fns {
        let answer = engine.canon(f);
        assert_eq!(answer.witness.apply(f), answer.entry.representative);
        assert_eq!(
            certified_key(&answer.entry.representative),
            answer.entry.key
        );
        assert!(answer.entry.size >= 1, "class missing from the store");
    }
    engine.finish();
}

/// Durable certified roundtrip: the snapshot reports the certified
/// tier and the same census through the shared render path; after a
/// reopen, every member's walk reproduces its stored label, so
/// resubmitting the identical stream adds no class and never reaches
/// the resolver.
#[test]
fn certified_store_persists_and_primes_the_resolver() {
    let dir = scratch_dir("roundtrip");
    let fns = transform_closure_workload(5, 8, 6, 0xD1CE);
    let expected = exact_classify(&fns);

    let engine = Engine::builder()
        .config(certified_cfg(2))
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let first = engine.finish();
    assert_eq!(first.stats.num_classes, expected.num_classes());
    assert_eq!(first.stats.canon_walks, fns.len() as u64);

    let snap = Engine::recover(&dir).expect("recover certified store");
    assert_eq!(snap.resolution, Resolution::Certified);
    assert_eq!(snap.set, SignatureSet::all());
    assert_eq!(snap.classes.len(), expected.num_classes());
    assert_eq!(snap.members(), fns.len() as u64);
    assert_eq!(
        snap.census_view().render_top(usize::MAX),
        first.census_view().render_top(usize::MAX),
        "snapshot and report disagree through the shared render path"
    );

    let engine = Engine::builder()
        .config(certified_cfg(2))
        .persist(&dir)
        .build()
        .unwrap();
    assert_eq!(engine.recovery().unwrap().members, fns.len() as u64);
    engine.submit_batch(fns.iter().cloned());
    let second = engine.finish();
    assert_eq!(second.stats.canon_walks, fns.len() as u64);
    assert_eq!(second.stats.canon_fallbacks, 0);
    assert_eq!(second.stats.canon_matches, 0);
    assert_eq!(
        second.stats.num_classes,
        expected.num_classes(),
        "the re-fed recovered stream added a class"
    );

    let cumulative = Engine::recover(&dir).expect("post-finish recover");
    assert_eq!(cumulative.members(), 2 * fns.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shipped configuration: `facepoint serve --certified` runs with
/// the memo cache **on**, so repeated tables take the dedup fast paths
/// (the submit-time batched peek, the worker's per-entry cache probe)
/// — both of which insert *raw* member tables. With chunks of one table
/// and eight workers, duplicates routinely classify out of chunk
/// order, which once let such an insert steal the representative slot
/// on a lower seq (`seq < rep_seq`), replacing the proved canonical
/// table and — after a reopen primed the resolver with the raw table —
/// permanently splitting the class. Every stored representative must
/// satisfy `certified_key(rep) == key` and be its own canonical form,
/// after `finish` and after a durable reopen alike.
#[test]
fn dedup_cache_never_steals_certified_representatives() {
    fn cached_cfg() -> EngineConfig {
        EngineConfig::builder()
            .workers(8)
            // One table per chunk: maximal cross-worker reordering, so
            // lower-seq duplicates race higher-seq canonical inserts.
            .chunk_size(1)
            .cache_capacity(1 << 12)
            .certified()
            .build()
    }
    fn assert_proved(census: &[facepoint_engine::ClassSummary]) {
        for class in census {
            assert_eq!(
                certified_key(&class.representative),
                class.key,
                "stored key is not its representative's digest"
            );
            let (canon, _) = certified_canonical(&class.representative);
            assert_eq!(
                canon, class.representative,
                "stored representative is not canonical — a dedup insert stole the slot"
            );
        }
    }

    let dir = scratch_dir("dedup-cache");
    let base = transform_closure_workload(4, 6, 5, 0xCAFE);
    let expected = exact_classify(&base);
    // Duplicate-heavy stream: the same tables over and over, so later
    // rounds hit the cache while earlier chunks may still be queued.
    let mut fns = Vec::new();
    for _ in 0..8 {
        fns.extend(base.iter().cloned());
    }

    let engine = Engine::builder()
        .config(cached_cfg())
        .persist(&dir)
        .build()
        .unwrap();
    // A second producer thread's duplicates race this one's through
    // the batched hit path.
    std::thread::scope(|s| {
        s.spawn(|| engine.submit_batch(base.iter().cloned()));
        engine.submit_batch(fns.iter().cloned());
    });
    let first = engine.finish();
    assert_eq!(first.stats.num_classes, expected.num_classes());
    assert!(
        first.stats.cache_hits + first.stats.dedup_hits > 0,
        "no duplicate ever hit the cache — the fast paths went unexercised"
    );
    assert_proved(&first.census);

    // The reopened store primes the cache from the stored
    // representatives, and every member's walk reproduces its stored
    // label; had a raw table been journaled as one, the identical
    // re-feed would split its class.
    let snap = Engine::recover(&dir).expect("recover certified store");
    for class in &snap.classes {
        assert_eq!(certified_key(&class.representative), class.key);
    }
    let engine = Engine::builder()
        .config(cached_cfg())
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    let second = engine.finish();
    assert_eq!(
        second.stats.num_classes,
        expected.num_classes(),
        "reopen split a certified class"
    );
    assert_eq!(
        second.stats.canon_fallbacks, 0,
        "a recovered class was created again"
    );
    assert_proved(&second.census);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `(x0⊕x5)(x1⊕x6)(x2⊕x7)(x3⊕x8)(x4⊕x9)` (`or = false`) or its OR
/// form: XOR pairs whose walk exceeds the budget at n = 10.
fn xor_pairs(or: bool) -> TruthTable {
    TruthTable::from_fn(10, |m| {
        let pairs = (m ^ (m >> 5)) & 0x1f;
        if or {
            pairs != 0
        } else {
            pairs == 0x1f
        }
    })
    .unwrap()
}

/// Functions past the walk's budget take the digest-bucket and matcher
/// path, everything else is keyed by its label alone, and the two
/// paths never split a class. A durable engine ingests a within-budget
/// transform closure at n = 5..8 plus parity(16), its complement and
/// random transforms of the n = 10 XOR pairs in AND and OR form; the
/// partition is the exact classifier's, the counters split by path,
/// `CANON` of a past-budget member answers its census class, and after
/// a reopen the recovery-primed buckets match every past-budget member
/// again instead of creating its class twice.
#[test]
fn past_budget_classes_take_the_bucket_path_and_survive_a_reopen() {
    let mut within = Vec::new();
    for n in 5..=8 {
        within.extend(transform_closure_workload(n, 4, 3, 0xB0D6 ^ n as u64));
    }
    let parity = TruthTable::parity(16);
    let mut past = vec![parity.negated(), parity];
    let mut rng = StdRng::seed_from_u64(0x5EED_B0D6);
    for or in [false, true] {
        let f = xor_pairs(or);
        for _ in 0..4 {
            past.push(NpnTransform::random(10, &mut rng).apply(&f));
        }
    }
    for f in &within {
        assert!(certified_canonical_with_witness(f).invariant, "f = {f}");
    }
    for f in &past {
        assert!(!certified_canonical_with_witness(f).invariant, "f = {f}");
    }
    let mut fns = within.clone();
    fns.extend(past.iter().cloned());
    let expected = exact_classify(&fns);
    let past_classes = expected.labels()[within.len()..]
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;

    let dir = scratch_dir("past-budget");
    let open = || {
        Engine::builder()
            .config(certified_cfg(1))
            .persist(&dir)
            .build()
            .unwrap()
    };
    let engine = open();
    engine.submit_batch(fns.iter().cloned());
    assert!(engine.drain(std::time::Duration::from_secs(120)));
    let census = engine.top_classes(usize::MAX);
    for f in &past {
        let answer = engine.canon(f);
        assert_eq!(answer.witness.apply(f), answer.entry.representative);
        assert!(answer.entry.size >= 1, "past-budget class missing: f = {f}");
        let class = census
            .iter()
            .find(|c| c.key == answer.entry.key)
            .expect("CANON answered a key outside the census");
        assert_eq!(class.representative, answer.entry.representative);
    }
    let first = engine.finish();
    let labels = ClassLabels::from_keys(first.classification.labels().iter().copied());
    assert_eq!(labels.labels(), expected.labels());
    assert_eq!(first.stats.num_classes, expected.num_classes());
    let stats = &first.stats;
    assert_eq!(stats.canon_walks, within.len() as u64);
    assert_eq!(stats.canon_fallbacks, past_classes);
    assert_eq!(stats.canon_matches, past.len() as u64 - past_classes);

    let engine = open();
    engine.submit_batch(fns.iter().cloned());
    let second = engine.finish();
    assert_eq!(
        second.stats.num_classes,
        expected.num_classes(),
        "the re-fed stream added a class"
    );
    assert_eq!(second.stats.canon_walks, within.len() as u64);
    assert_eq!(second.stats.canon_fallbacks, 0);
    assert_eq!(
        second.stats.canon_matches,
        past.len() as u64,
        "recovery did not prime the past-budget buckets"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store journaled under one resolution refuses to reopen under the
/// other — certified keys are representative digests, digest keys are
/// signature digests, and silently mixing them would corrupt the
/// census.
#[test]
fn cross_mode_reopen_is_refused() {
    let digest_cfg = EngineConfig::builder().workers(1).build();
    for (first, second) in [
        (digest_cfg.clone(), certified_cfg(1)),
        (certified_cfg(1), digest_cfg),
    ] {
        let dir = scratch_dir(if first.resolution == Resolution::Digest {
            "digest-first"
        } else {
            "certified-first"
        });
        let engine = Engine::builder()
            .config(first)
            .persist(&dir)
            .build()
            .unwrap();
        engine.submit(TruthTable::majority(3));
        engine.finish();
        let err = match Engine::builder().config(second).persist(&dir).build() {
            Ok(_) => panic!("cross-mode reopen must be refused"),
            Err(err) => err,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A store written under the retired `certified:` marker keys its
    // classes by labels of the old canonical form: reopening and
    // recovering both refuse it, like a cross-mode reopen.
    let dir = scratch_dir("certified-v1");
    let engine = Engine::builder()
        .config(certified_cfg(1))
        .persist(&dir)
        .build()
        .unwrap();
    engine.submit(TruthTable::majority(3));
    engine.finish();
    let shards = Engine::recover(&dir).unwrap().report.shards;
    let mut manifest = Vec::new();
    Record::Manifest {
        version: WIRE_VERSION,
        shards: shards as u32,
        set: format!("certified:{}", certified_cfg(1).set),
    }
    .encode(&mut manifest);
    std::fs::write(dir.join("store.meta"), manifest).unwrap();
    let err = match Engine::builder()
        .config(certified_cfg(1))
        .persist(&dir)
        .build()
    {
        Ok(_) => panic!("a certified: store must be refused"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let err = Engine::recover(&dir).expect_err("a certified: store must not recover");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Store keys on disk are `certified_key` digests, so the derivation
/// must stay byte-for-byte stable: these literals were computed by the
/// implementation that hashed a collected `Vec` of the arity word and
/// the table words.
#[test]
fn certified_key_digests_are_pinned() {
    for (table, key) in [
        (
            TruthTable::majority(3),
            0xe37b_67c5_f016_43ac_05e4_5a44_2c17_3e66_u128,
        ),
        (
            TruthTable::from_hex(6, "6996966996696996").unwrap(),
            0x5399_3068_f0e4_9690_39f7_cac9_bbaf_f4c3,
        ),
        (
            TruthTable::parity(8),
            0xf117_274b_36d5_39ac_9aed_fa23_953d_8cc5,
        ),
    ] {
        assert_eq!(certified_key(&table), key, "{table}");
    }
}

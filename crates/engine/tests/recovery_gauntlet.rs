//! The recovery gauntlet: stream tens of thousands of tables through a
//! durable engine in a **child process**, SIGKILL it mid-stream at a
//! different point each round, then prove the kill-then-recover
//! property:
//!
//! 1. `Engine::recover` succeeds for *any* kill point;
//! 2. the recovered snapshot is a prefix-consistent subset of the
//!    one-shot `Classifier` partition (every class known, every count
//!    bounded, every representative a member of its class);
//! 3. reopening the store and re-submitting the full stream converges
//!    to exactly the one-shot result.
//!
//! The child is this same test binary re-executed with
//! `FACEPOINT_GAUNTLET_CHILD` set (keep this file to a single `#[test]`
//! so the re-exec never races another test). CI scales the stream up
//! via `GAUNTLET_STREAM` / `GAUNTLET_ROUNDS`, and re-runs the whole
//! gauntlet at the certified resolution tier via `GAUNTLET_CERTIFIED`
//! (kill points then land on proved-class journal records and the
//! expectations come from the exact classifier).

use facepoint_bench::random_workload;
use facepoint_core::{signature_key, Classifier};
use facepoint_engine::{
    certified_key, Engine, EngineConfig, PersistConfig, Resolution, SyncPolicy,
};
use facepoint_exact::{certified_canonical, exact_classify, ClassLabels};
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

const CHILD_ENV: &str = "FACEPOINT_GAUNTLET_CHILD";
const DIR_ENV: &str = "FACEPOINT_GAUNTLET_DIR";
const SYNC_ENV: &str = "FACEPOINT_GAUNTLET_SYNC";
const STREAM_ENV: &str = "GAUNTLET_STREAM";
const ROUNDS_ENV: &str = "GAUNTLET_ROUNDS";
/// Worker count of the child (default 2). CI's 8-worker stress job
/// sets 8 so SIGKILLs land while eight workers insert concurrently.
const WORKERS_ENV: &str = "GAUNTLET_WORKERS";
/// When set, the whole gauntlet (child stream, recovery, convergence)
/// runs at [`Resolution::Certified`]: kill points land on proved-class
/// journal records and the expectations come from the exact classifier
/// instead of the signature digest. CI's certified job sets it.
const CERTIFIED_ENV: &str = "GAUNTLET_CERTIFIED";

fn resolution() -> Resolution {
    if std::env::var(CERTIFIED_ENV).is_ok() {
        Resolution::Certified
    } else {
        Resolution::Digest
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The deterministic gauntlet stream: two thirds fresh random tables,
/// one third repeats of earlier submissions — so the journal carries
/// creations, bumps *and* dedup-fast-path inserts.
fn gauntlet_stream(total: usize) -> Vec<TruthTable> {
    let fresh = random_workload(6, (2 * total).div_ceil(3).max(1), 0xFACE);
    let mut out: Vec<TruthTable> = Vec::with_capacity(total);
    let mut next_fresh = 0;
    for i in 0..total {
        if i % 3 == 2 {
            out.push(out[i / 2].clone());
        } else {
            out.push(fresh[next_fresh % fresh.len()].clone());
            next_fresh += 1;
        }
    }
    out
}

fn child_cfg(dir: PathBuf, sync: SyncPolicy) -> EngineConfig {
    EngineConfig {
        workers: env_usize(WORKERS_ENV, 2),
        resolution: resolution(),
        chunk_size: 64,
        cache_capacity: 1 << 14, // exercise the dedup fast path's journal writes
        persist: Some(PersistConfig {
            // Low per-shard interval: with 64 shards, compactions start
            // a few thousand records in, so kills land on them too.
            dir,
            checkpoint_interval: 64,
            sync,
        }),
        ..EngineConfig::default()
    }
}

/// The child: stream with persistence on until killed. Throttled just
/// enough that a SIGKILL lands mid-stream even on fast machines.
fn child_main() -> ! {
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("child needs a store dir"));
    let total = env_usize(STREAM_ENV, 8_000);
    let sync = match std::env::var(SYNC_ENV).as_deref() {
        Ok("always") => SyncPolicy::Always,
        _ => SyncPolicy::Barrier,
    };
    let engine = Engine::builder()
        .config(child_cfg(dir.clone(), sync))
        .persist(&dir)
        .build()
        .expect("child open");
    for (i, f) in gauntlet_stream(total).into_iter().enumerate() {
        engine.submit(f);
        if i % 256 == 255 {
            engine.flush(); // epoch barrier: fsync what's classified
        }
        if i % 64 == 0 {
            std::thread::sleep(Duration::from_micros(150));
        }
    }
    engine.finish();
    std::process::exit(0);
}

#[test]
fn kill_then_recover_converges() {
    if std::env::var(CHILD_ENV).is_ok() {
        child_main();
    }
    let total = env_usize(STREAM_ENV, 8_000);
    let rounds = env_usize(ROUNDS_ENV, 3);
    let certified = resolution() == Resolution::Certified;
    let fns = gauntlet_stream(total);
    // The expected partition and the store-key → class-size map, under
    // the active resolution: digest keys come from the one-shot
    // classifier, certified keys from each class's proved canonical
    // representative (orbit-invariant at n = 6: the exact walk always
    // completes, no fallback labeling exists).
    let (expected_labels, expected_by_key): (Vec<usize>, HashMap<u128, usize>) = if certified {
        let labels = exact_classify(&fns);
        let mut key_of_label: HashMap<usize, u128> = HashMap::new();
        let mut sizes: HashMap<u128, usize> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            let key = *key_of_label
                .entry(labels.label(i))
                .or_insert_with(|| certified_key(&certified_canonical(f).0));
            *sizes.entry(key).or_insert(0) += 1;
        }
        (labels.labels().to_vec(), sizes)
    } else {
        let expected = Classifier::new(SignatureSet::all()).classify(fns.clone());
        let by_key = expected
            .classes()
            .iter()
            .map(|c| {
                (
                    signature_key(c.representative(), SignatureSet::all()),
                    c.size(),
                )
            })
            .collect();
        (expected.labels().to_vec(), by_key)
    };
    let num_expected = expected_by_key.len();

    for round in 0..rounds {
        let dir =
            std::env::temp_dir().join(format!("facepoint-gauntlet-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sync = if round % 2 == 0 { "barrier" } else { "always" };
        let mut child = std::process::Command::new(std::env::current_exe().unwrap())
            .env(CHILD_ENV, "1")
            .env(DIR_ENV, &dir)
            .env(STREAM_ENV, total.to_string())
            .env(SYNC_ENV, sync)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn gauntlet child");
        // A different kill point every round (the assertions must hold
        // for any of them, including "child already finished").
        std::thread::sleep(Duration::from_millis(20 + 60 * round as u64));
        child.kill().expect("SIGKILL the child"); // SIGKILL on unix
        let _ = child.wait();

        // 1. Recovery always succeeds, whatever the kill cut through.
        let snap = Engine::recover(&dir)
            .unwrap_or_else(|e| panic!("round {round} ({sync}): recover failed: {e}"));

        // 2. Prefix-consistent subset of the one-shot partition.
        assert!(snap.members() <= total as u64, "round {round}");
        assert_eq!(snap.resolution, resolution(), "round {round}");
        for class in &snap.classes {
            let exp_size = expected_by_key.get(&class.key).unwrap_or_else(|| {
                panic!(
                    "round {round}: recovered class {:032x} unknown to the classifier",
                    class.key
                )
            });
            assert!(
                class.size <= *exp_size,
                "round {round}: class {:032x} overcounted: {} > {}",
                class.key,
                class.size,
                exp_size
            );
            // The representative really is a member of its class: its
            // key under the active resolution is the stored key.
            let rep_key = if certified {
                certified_key(&certified_canonical(&class.representative).0)
            } else {
                signature_key(&class.representative, SignatureSet::all())
            };
            assert_eq!(
                rep_key, class.key,
                "round {round}: representative outside its class"
            );
        }

        // 3. Reopen, re-submit the full stream: the partition converges
        // to the one-shot result and the census accumulates exactly.
        let engine = Engine::builder()
            .config(child_cfg(dir.clone(), SyncPolicy::Barrier))
            .persist(&dir)
            .build()
            .expect("reopen");
        let recovered_members = engine.recovery().unwrap().members;
        assert_eq!(recovered_members, snap.members(), "round {round}");
        engine.submit_batch(fns.iter().cloned());
        let report = engine.finish();
        if certified {
            // Certified label ids depend on recovered-class ordering;
            // compare the partitions in first-occurrence order.
            let normalized = ClassLabels::from_keys(report.classification.labels().iter().copied());
            assert_eq!(
                normalized.labels(),
                &expected_labels[..],
                "round {round}: resubmitted stream grouped differently"
            );
        } else {
            assert_eq!(
                report.classification.labels(),
                &expected_labels[..],
                "round {round}: resubmitted stream grouped differently"
            );
        }
        assert_eq!(
            report.classification.num_classes(),
            num_expected,
            "round {round}"
        );

        let final_snap = Engine::recover(&dir).expect("post-finish recover");
        assert_eq!(final_snap.classes.len(), num_expected, "round {round}");
        assert_eq!(
            final_snap.members(),
            recovered_members + total as u64,
            "round {round}: cumulative census drifted"
        );
        let recovered_sizes: HashMap<u128, usize> =
            snap.classes.iter().map(|c| (c.key, c.size)).collect();
        for class in &final_snap.classes {
            let before = recovered_sizes.get(&class.key).copied().unwrap_or(0);
            let exp_size = expected_by_key[&class.key];
            assert_eq!(
                class.size,
                before + exp_size,
                "round {round}: class {:032x} count is not recovered + resubmitted",
                class.key
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        println!(
            "round {round} ({sync}): killed with {} members durable; {}",
            recovered_members, snap.report
        );
    }
}

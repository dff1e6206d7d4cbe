//! Per-connection submit fairness: one connection streaming a huge
//! `SUBMIT-BATCH` must not starve another connection's observation
//! requests.
//!
//! Connections share the engine with no lock around it: the batch
//! blocks on the engine's bounded ingest queue while observation
//! requests run alongside it, and their latency must stay bounded
//! *while the batch is still in flight*.
//!
//! The batch is sized by a quick on-machine calibration so the busy
//! window is seconds long on any hardware, and the latency bound is a
//! small fraction of it.

use facepoint_engine::{Engine, EngineConfig};
use facepoint_serve::{Client, Server, ServerConfig};
use facepoint_truth::TruthTable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the busy window should last (the batch is sized to this).
const TARGET_BUSY: Duration = Duration::from_secs(5);
/// Observation latency bound while the batch is in flight — far below
/// the busy window, far above any scheduler noise.
const LATENCY_BOUND: Duration = Duration::from_secs(2);

fn tables(n: usize, count: usize) -> Vec<TruthTable> {
    // Cycle a modest pool of distinct tables out to `count`: generation
    // stays cheap however large the calibrated batch gets (the engine
    // runs with the memo cache off, so repeats still cost full keying).
    let pool = facepoint_bench::random_workload(n, count.min(2048), 0xFA1C);
    (0..count).map(|i| pool[i % pool.len()].clone()).collect()
}

/// Classification rate of this machine/build (debug vs release differ
/// ~30×), measured on a throwaway single-worker engine.
fn calibrate_fns_per_sec(sample: &[TruthTable]) -> f64 {
    let engine = Engine::builder()
        .config(EngineConfig {
            workers: 1,
            chunk_size: 32,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    let start = Instant::now();
    engine.submit_batch(sample.iter().cloned());
    assert!(engine.drain(Duration::from_secs(120)));
    let rate = sample.len() as f64 / start.elapsed().as_secs_f64();
    drop(engine.finish());
    rate.max(1.0)
}

#[test]
fn big_batch_does_not_starve_observers() {
    let n = 9;
    let sample = tables(n, 96);
    let rate = calibrate_fns_per_sec(&sample);
    let batch_len = ((rate * TARGET_BUSY.as_secs_f64()) as usize).clamp(256, 200_000);
    let fns = tables(n, batch_len);
    let lines: Vec<String> = fns
        .iter()
        .map(|f| format!("{}:{}", f.num_vars(), f.to_hex()))
        .collect();

    // One worker: the batch submitter spends almost the whole busy
    // window blocked on queue backpressure — exactly the state that
    // used to be spent holding the engine lock.
    let engine = Engine::builder()
        .config(EngineConfig {
            workers: 1,
            chunk_size: 32,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());

    let batch_done = Arc::new(AtomicBool::new(false));
    let ingester = {
        let batch_done = Arc::clone(&batch_done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let (first, count) = client
                .submit_batch(lines.iter().map(String::as_str))
                .unwrap();
            batch_done.store(true, Ordering::SeqCst);
            client.quit().unwrap();
            (first, count)
        })
    };

    // The observer: poll SNAPSHOT and STATS while the batch streams,
    // recording the worst latency seen before the batch completed.
    let mut observer = Client::connect(addr).unwrap();
    let mut polls_during_batch = 0u32;
    let mut worst = Duration::ZERO;
    let mut saw_backlog = false;
    let deadline = Instant::now() + Duration::from_secs(120);
    while !batch_done.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "batch never completed");
        let start = Instant::now();
        let snap = observer.snapshot().unwrap();
        observer.stats().unwrap();
        let latency = start.elapsed();
        // Only polls that ran strictly before the batch finished count
        // against the bound (the final overlapping poll is fine too —
        // the server answered it mid-batch either way).
        if !batch_done.load(Ordering::SeqCst) {
            polls_during_batch += 1;
            worst = worst.max(latency);
            saw_backlog |= snap.backlog > 0;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let (first, count) = ingester.join().unwrap();
    assert_eq!(first, 0);
    assert_eq!(count, fns.len() as u64);

    // The batch was genuinely in flight while we observed…
    assert!(
        polls_during_batch >= 3,
        "only {polls_during_batch} observation rounds overlapped the batch — \
         the busy window was too short to measure ({batch_len} tables)"
    );
    assert!(
        saw_backlog,
        "no poll ever saw backlog; the batch never contended with the observer"
    );
    // …and never starved the observer: the old engine-lock path parked
    // these requests for the whole busy window (≈{TARGET_BUSY:?}).
    assert!(
        worst <= LATENCY_BOUND,
        "observation latency reached {worst:?} while a {batch_len}-table batch \
         was streaming (bound {LATENCY_BOUND:?})"
    );

    // Everything lands; clean shutdown.
    let snap = observer.wait_drained(Duration::from_secs(120)).unwrap();
    assert_eq!(snap.processed, fns.len() as u64);
    assert_eq!(snap.backlog, 0);
    observer.quit().unwrap();
    shutdown.shutdown();
    let report = run.join().unwrap().unwrap().unwrap();
    assert_eq!(report.stats.functions_processed, fns.len() as u64);
}

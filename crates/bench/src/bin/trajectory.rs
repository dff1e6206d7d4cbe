//! Writes the machine-readable performance trajectory:
//! `BENCH_signatures.json` (single-thread `signature_key` throughput,
//! kernel vs. two-pass reference, on balanced tables for n = 6..11) and
//! `BENCH_engine.json` (end-to-end engine throughput, in-memory
//! **and** with the durable journal on, so the durability tax is a
//! recorded number, not a guess, plus the certified tier over the same
//! stream), both at the repo root by default.
//!
//! ```text
//! cargo run --release -p facepoint-bench --bin trajectory [-- --out DIR] [--quick]
//! ```
//!
//! `--quick` shrinks the sweep (n = 6..8, shorter budgets) for the CI
//! smoke job; `check_bench` validates the emitted schema and compares
//! against the committed baselines.
//!
//! The JSON is hand-serialized (no serde in the offline build) and
//! append-friendly: each run produces one self-contained file that
//! future PRs diff against to catch regressions.
#![forbid(unsafe_code)]

use facepoint_bench::{arg_value, balanced_workload, random_workload};
use facepoint_core::{fnv128, SignatureKernel};
use facepoint_engine::{Engine, EngineConfig, PersistConfig, Resolution};
use facepoint_sig::{msv_reference, SignatureSet};
use facepoint_truth::TruthTable;
use std::time::{Duration, Instant};

/// Repeats `work` over `fns` until at least `budget` has elapsed and
/// returns functions/second.
fn throughput(fns: &[TruthTable], budget: Duration, mut work: impl FnMut(&TruthTable)) -> f64 {
    // Warm-up pass (grows scratch buffers, faults in the tables).
    for f in fns {
        work(f);
    }
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < budget {
        for f in fns {
            work(f);
        }
        done += fns.len() as u64;
    }
    done as f64 / start.elapsed().as_secs_f64()
}

fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// One engine pass over `fns`, optionally journaling into `persist`,
/// at the requested resolution tier; returns (functions/second,
/// classes, chunk-latency [p50, p90, p99, max] in nanoseconds from
/// the engine's own telemetry).
fn engine_pass(
    fns: &[TruthTable],
    set: SignatureSet,
    persist: Option<PersistConfig>,
    resolution: Resolution,
) -> (f64, usize, [u64; 4]) {
    let engine = Engine::builder()
        .config(
            EngineConfig::builder()
                .set(set)
                .persist(persist)
                .resolution(resolution)
                .build(),
        )
        .build()
        .unwrap();
    // The registry (and this histogram handle) outlive `finish`, so
    // the latency distribution survives the engine teardown.
    let chunk_latency = engine.telemetry().histogram("engine_chunk_classify_nanos");
    engine.submit_batch(fns.iter().cloned());
    let report = engine.finish();
    let lat = chunk_latency.snapshot();
    (
        report.stats.throughput(),
        report.classification.num_classes(),
        [lat.p50(), lat.p90(), lat.p99(), lat.max],
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = arg_value(&args, "--out").unwrap_or_else(|| ".".to_string());
    std::fs::create_dir_all(&out_dir).expect("create --out directory");
    let quick = args.iter().any(|a| a == "--quick");
    let budget = Duration::from_millis(if quick { 150 } else { 600 });
    let max_n = if quick { 8 } else { 11 };
    let set = SignatureSet::all();

    // --- signature_key: kernel vs reference, balanced tables ---------
    let mut sig_rows = String::new();
    for n in 6..=max_n {
        let count = (2048 >> (n - 6)).max(32);
        let fns = balanced_workload(n, count, 0x5EED ^ n as u64);
        let mut kernel = SignatureKernel::new(set);
        let kernel_fps = throughput(&fns, budget, |f| {
            std::hint::black_box(kernel.key(f));
        });
        let reference_fps = throughput(&fns, budget, |f| {
            std::hint::black_box(fnv128(msv_reference(f, set).as_words()));
        });
        let speedup = kernel_fps / reference_fps;
        println!(
            "signatures n={n}: kernel {kernel_fps:.0} fn/s, \
             reference {reference_fps:.0} fn/s, speedup {speedup:.2}x"
        );
        if !sig_rows.is_empty() {
            sig_rows.push_str(",\n");
        }
        sig_rows.push_str(&format!(
            "    {{\"n\": {n}, \"functions\": {count}, \
             \"kernel_fns_per_sec\": {kernel_fps:.1}, \
             \"reference_fns_per_sec\": {reference_fps:.1}, \
             \"speedup\": {speedup:.3}}}"
        ));
    }
    let sig_json = format!(
        "{{\n  \"bench\": \"signature_key\",\n  \"set\": \"{set}\",\n  \
         \"workload\": \"balanced random tables, single thread\",\n  \
         \"baseline\": \"reference = two-pass msv_reference + fnv128, \
         the pre-kernel signature_key algorithm\",\n  \
         \"unix_time\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        unix_time(),
        sig_rows
    );
    let sig_path = format!("{out_dir}/BENCH_signatures.json");
    std::fs::write(&sig_path, sig_json).expect("write BENCH_signatures.json");
    println!("wrote {sig_path}");

    // --- engine: end-to-end streaming throughput, in-memory vs
    // --- journaled (default sync policy: fsync at epoch barriers) ----
    let workers = EngineConfig::default().resolved_workers();
    let mut eng_rows = String::new();
    for n in 6..=max_n {
        // Full-size streams even under --quick: the journal ratio is a
        // steady-state figure, and short streams overweight the fixed
        // costs (shard-file creation, final checkpoint). --quick saves
        // its time by dropping n = 9..10 instead.
        let count = (16384 >> (n - 6)).max(512);
        let fns = random_workload(n, count, 0xE61E ^ n as u64);
        let (mem_fps, classes, [p50, p90, p99, max]) =
            engine_pass(&fns, set, None, Resolution::Digest);
        let journal_dir =
            std::env::temp_dir().join(format!("facepoint-trajectory-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let (journal_fps, journal_classes, _) = engine_pass(
            &fns,
            set,
            Some(PersistConfig::new(&journal_dir)),
            Resolution::Digest,
        );
        let _ = std::fs::remove_dir_all(&journal_dir);
        assert_eq!(classes, journal_classes, "journaling changed the partition");
        let ratio = journal_fps / mem_fps;
        println!(
            "engine n={n}: {mem_fps:.0} fn/s in-memory, {journal_fps:.0} fn/s \
             journaled ({:.0}% of in-memory) over {count} functions ({workers} workers); \
             chunk latency p50 {p50} / p99 {p99} ns",
            ratio * 100.0
        );
        // The certified tier over the same workload and config, at
        // every arity: every class proved. check_bench floors the
        // certified/digest ratio on each row.
        let (cert_fps, cert_classes, _) = engine_pass(&fns, set, None, Resolution::Certified);
        assert!(
            cert_classes >= classes,
            "certified resolution merged digest buckets"
        );
        let cert_ratio = cert_fps / mem_fps;
        println!(
            "engine n={n} certified: {cert_fps:.0} fn/s ({:.0}% of digest), \
             {cert_classes} proved classes",
            cert_ratio * 100.0
        );
        if !eng_rows.is_empty() {
            eng_rows.push_str(",\n");
        }
        eng_rows.push_str(&format!(
            "    {{\"n\": {n}, \"functions\": {count}, \"workers\": {workers}, \
             \"fns_per_sec\": {mem_fps:.1}, \"classes\": {classes}, \
             \"journaled_fns_per_sec\": {journal_fps:.1}, \
             \"journal_ratio\": {ratio:.3}, \
             \"chunk_p50_nanos\": {p50}, \"chunk_p90_nanos\": {p90}, \
             \"chunk_p99_nanos\": {p99}, \"chunk_max_nanos\": {max}, \
             \"certified_fns_per_sec\": {cert_fps:.1}, \
             \"certified_classes\": {cert_classes}, \
             \"certified_ratio\": {cert_ratio:.3}}}"
        ));
    }
    let eng_json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"set\": \"{set}\",\n  \
         \"workload\": \"distinct random tables, default engine config; \
         journaled = durable store on, default sync policy (fsync at \
         epoch barriers); certified_* = the same workload at \
         resolution certified (every class proved)\",\n  \
         \"unix_time\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        unix_time(),
        eng_rows
    );
    let eng_path = format!("{out_dir}/BENCH_engine.json");
    std::fs::write(&eng_path, eng_json).expect("write BENCH_engine.json");
    println!("wrote {eng_path}");
}

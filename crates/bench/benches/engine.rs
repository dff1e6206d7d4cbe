//! Criterion benchmarks of the streaming engine: multi-worker scaling
//! against the one-shot classifier on random and AIG-cut workloads,
//! plus the memo cache on repeat-heavy traffic.
//!
//! The paper's scalability argument is that signature-hash
//! classification parallelizes embarrassingly; this bench puts a number
//! on it (expect near-linear scaling until memory bandwidth wins).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use facepoint_bench::random_workload;
use facepoint_core::Classifier;
use facepoint_engine::{Engine, EngineConfig, PersistConfig, SyncPolicy};
use facepoint_sig::SignatureSet;
use facepoint_truth::TruthTable;
use std::hint::black_box;

fn engine_classes(fns: &[TruthTable], workers: usize, cache_capacity: usize) -> usize {
    let engine = Engine::builder()
        .config(EngineConfig {
            workers,
            cache_capacity,
            ..EngineConfig::default()
        })
        .build()
        .unwrap();
    engine.submit_batch(fns.iter().cloned());
    engine.finish().classification.num_classes()
}

fn bench_engine_scaling_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling_random");
    group.sample_size(10);
    let fns = random_workload(7, 4000, 0xE16);
    group.throughput(Throughput::Elements(fns.len() as u64));
    group.bench_with_input(BenchmarkId::new("classifier", "1"), &fns, |b, fns| {
        let classifier = Classifier::new(SignatureSet::all());
        b.iter(|| black_box(classifier.classify(fns.clone()).num_classes()))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("engine", workers), &fns, |b, fns| {
            b.iter(|| black_box(engine_classes(fns, workers, 0)))
        });
    }
    group.finish();
}

fn bench_engine_scaling_cuts(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling_cuts");
    group.sample_size(10);
    let fns = facepoint_aig::cut_workload(6, 4000);
    group.throughput(Throughput::Elements(fns.len() as u64));
    group.bench_with_input(BenchmarkId::new("classifier", "1"), &fns, |b, fns| {
        let classifier = Classifier::new(SignatureSet::all());
        b.iter(|| black_box(classifier.classify(fns.clone()).num_classes()))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("engine", workers), &fns, |b, fns| {
            b.iter(|| black_box(engine_classes(fns, workers, 0)))
        });
    }
    group.finish();
}

fn bench_journaled_ingest(c: &mut Criterion) {
    // The durability tax: same stream, same config, with the per-shard
    // journal off / on (default barrier policy) / fsync-per-record.
    // The stream is large enough that per-iteration store setup and
    // final checkpoint (64 shard files either way) stay amortized —
    // this measures ingest, not file churn.
    let mut group = c.benchmark_group("engine_journaled_ingest");
    group.sample_size(10);
    let fns = random_workload(7, 8000, 0xD15C);
    group.throughput(Throughput::Elements(fns.len() as u64));
    let variants: [(&str, Option<SyncPolicy>); 3] = [
        ("memory", None),
        ("journal-barrier", Some(SyncPolicy::Barrier)),
        ("journal-always", Some(SyncPolicy::Always)),
    ];
    for (name, sync) in variants {
        group.bench_with_input(BenchmarkId::new(name, 4), &fns, |b, fns| {
            b.iter(|| {
                let persist = sync.map(|sync| {
                    let dir = std::env::temp_dir()
                        .join(format!("facepoint-bench-journal-{}", std::process::id()));
                    let _ = std::fs::remove_dir_all(&dir);
                    PersistConfig {
                        dir,
                        checkpoint_interval: 8192,
                        sync,
                    }
                });
                let dir = persist.as_ref().map(|p| p.dir.clone());
                let engine = Engine::builder()
                    .config(EngineConfig {
                        workers: 4,
                        persist,
                        ..EngineConfig::default()
                    })
                    .build()
                    .unwrap();
                engine.submit_batch(fns.iter().cloned());
                let classes = black_box(engine.finish().classification.num_classes());
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                classes
            })
        });
    }
    group.finish();
}

fn bench_ingest_contention(c: &mut Criterion) {
    // The ingest queue under deliberate pressure: one-function chunks
    // put a queue operation on every submission, so this measures the
    // ingest path itself.
    let mut group = c.benchmark_group("engine_ingest_contention");
    group.sample_size(10);
    let fns = facepoint_bench::balanced_workload(8, 2048, 0xC0E);
    group.throughput(Throughput::Elements(fns.len() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("queue", workers), &fns, |b, fns| {
            b.iter(|| {
                let engine = Engine::builder()
                    .config(EngineConfig {
                        workers,
                        chunk_size: 1,
                        ..EngineConfig::default()
                    })
                    .build()
                    .unwrap();
                engine.submit_batch(fns.iter().cloned());
                black_box(engine.finish().classification.num_classes())
            })
        });
    }
    group.finish();
}

fn bench_memo_cache_on_repeat_traffic(c: &mut Criterion) {
    // Cut streams repeat functions; replaying the same harvest three
    // times models steady-state traffic over a slowly-changing design.
    let mut group = c.benchmark_group("engine_memo_cache");
    group.sample_size(10);
    let harvest = facepoint_aig::cut_workload(6, 2000);
    let mut fns = harvest.clone();
    fns.extend(harvest.iter().cloned());
    fns.extend(harvest.iter().cloned());
    group.throughput(Throughput::Elements(fns.len() as u64));
    for (name, cache) in [("uncached", 0usize), ("cached", 1 << 16)] {
        group.bench_with_input(BenchmarkId::new(name, 4), &fns, |b, fns| {
            b.iter(|| black_box(engine_classes(fns, 4, cache)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_engine_scaling_random,
    bench_engine_scaling_cuts,
    bench_ingest_contention,
    bench_journaled_ingest,
    bench_memo_cache_on_repeat_traffic
}
criterion_main!(benches);

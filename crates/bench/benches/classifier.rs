//! Criterion benchmarks of end-to-end classification throughput:
//! signature sets against each other and against the baselines — the
//! micro-benchmark behind Table III's runtime columns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use facepoint_bench::random_workload;
use facepoint_core::Classifier;
use facepoint_exact::baselines::{CanonicalClassifier, Huang13, Petkovska16, Zhou20};
use facepoint_sig::SignatureSet;
use std::hint::black_box;

fn bench_signature_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier_sets");
    let fns = random_workload(6, 2000, 0xABCD);
    group.throughput(Throughput::Elements(fns.len() as u64));
    for (name, set) in SignatureSet::table2_columns() {
        group.bench_with_input(BenchmarkId::new("set", name), &fns, |b, fns| {
            let classifier = Classifier::new(set);
            b.iter(|| black_box(classifier.classify(fns.clone()).num_classes()))
        });
    }
    group.finish();
}

fn bench_vs_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier_vs_baselines");
    group.sample_size(10);
    let fns = random_workload(6, 1000, 0xBEEF);
    group.throughput(Throughput::Elements(fns.len() as u64));
    group.bench_function("ours_all", |b| {
        let ours = Classifier::new(SignatureSet::all());
        b.iter(|| black_box(ours.classify(fns.clone()).num_classes()))
    });
    group.bench_function("huang13", |b| {
        b.iter(|| black_box(Huang13.classify(&fns).num_classes()))
    });
    group.bench_function("petkovska16", |b| {
        let p = Petkovska16::default();
        b.iter(|| black_box(p.classify(&fns).num_classes()))
    });
    group.bench_function("zhou20", |b| {
        let z = Zhou20::default();
        b.iter(|| black_box(z.classify(&fns).num_classes()))
    });
    group.finish();
}

fn bench_hierarchical(c: &mut Criterion) {
    // Ablation: flat vs staged (lazy) signature computation. Random
    // workloads separate early (hierarchical wins); transform-closure
    // workloads keep buckets fat (flat wins) — the trade-off documented
    // on `Classifier::classify_hierarchical`.
    let mut group = c.benchmark_group("classifier_hierarchical");
    group.sample_size(10);
    let random = random_workload(8, 1500, 0xD1A1u64);
    let closure: Vec<facepoint_truth::TruthTable> = {
        use facepoint_truth::{NpnTransform, TruthTable};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xC105);
        let mut fns = Vec::new();
        for _ in 0..75 {
            let f = TruthTable::random(8, &mut rng).unwrap();
            for _ in 0..20 {
                fns.push(NpnTransform::random(8, &mut rng).apply(&f));
            }
        }
        fns
    };
    for (name, fns) in [("random", &random), ("closure", &closure)] {
        group.bench_with_input(BenchmarkId::new("flat", name), fns, |b, fns| {
            let c = Classifier::new(SignatureSet::all());
            b.iter(|| black_box(c.classify(fns.clone()).num_classes()))
        });
        group.bench_with_input(BenchmarkId::new("staged", name), fns, |b, fns| {
            let c = Classifier::new(SignatureSet::all());
            b.iter(|| black_box(c.classify_hierarchical(fns.clone()).num_classes()))
        });
    }
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier_threads");
    group.sample_size(10);
    let fns = random_workload(9, 2000, 0xCAFE);
    group.throughput(Throughput::Elements(fns.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let classifier = Classifier::new(SignatureSet::all()).with_threads(t);
            b.iter(|| black_box(classifier.classify(fns.clone()).num_classes()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_signature_sets,
    bench_vs_baselines,
    bench_hierarchical,
    bench_parallel_scaling
}
criterion_main!(benches);

//! Criterion micro-benchmarks: cost of each signature-vector family as a
//! function of arity.
//!
//! Supports the paper's claim that the classifier needs "only bitwise
//! operations and hash" — the per-function cost is polynomial in `n` and
//! linear in the table size, with OSDV the most expensive family. The
//! kernel-versus-reference comparison is the `trajectory` binary's job
//! (`BENCH_signatures.json`, floored by `check_bench`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use facepoint_bench::random_workload;
use facepoint_sig::{msv, ocv1, ocv2, oiv, osdv, osv_histogram, SignatureSet};
use std::hint::black_box;

fn bench_signatures(c: &mut Criterion) {
    let mut group = c.benchmark_group("signatures");
    for n in [4usize, 6, 8, 10] {
        let fns = random_workload(n, 64, 0x5EED);
        group.bench_with_input(BenchmarkId::new("ocv1", n), &fns, |b, fns| {
            b.iter(|| {
                for f in fns {
                    black_box(ocv1(f));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("ocv2", n), &fns, |b, fns| {
            b.iter(|| {
                for f in fns {
                    black_box(ocv2(f));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("oiv", n), &fns, |b, fns| {
            b.iter(|| {
                for f in fns {
                    black_box(oiv(f));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("osv", n), &fns, |b, fns| {
            b.iter(|| {
                for f in fns {
                    black_box(osv_histogram(f));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("osdv", n), &fns, |b, fns| {
            b.iter(|| {
                for f in fns {
                    black_box(osdv(f));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("msv_all", n), &fns, |b, fns| {
            b.iter(|| {
                for f in fns {
                    black_box(msv(f, SignatureSet::all()));
                }
            })
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
    targets = bench_signatures
}
criterion_main!(benches);

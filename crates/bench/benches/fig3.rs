//! Criterion bench for the Fig. 3 pipeline: evaluating the five
//! homogeneous VGG16 baselines plus the manual heterogeneous split.

use autohet::prelude::*;
use autohet_dnn::zoo;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let model = zoo::vgg16();
    let cfg = AccelConfig::default();
    c.bench_function("fig3/homogeneous_reports_vgg16", |b| {
        b.iter(|| {
            black_box(homogeneous_reports(&EvalEngine::new(
                black_box(&model).clone(),
                cfg,
            )))
        })
    });
    c.bench_function("fig3/manual_hetero_vgg16", |b| {
        b.iter(|| black_box(manual_hetero_vgg16(black_box(&model), &cfg)))
    });
    c.bench_function("fig3/full_table", |b| {
        b.iter(|| black_box(autohet_bench::fig3()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig3
}
criterion_main!(benches);

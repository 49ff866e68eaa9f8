//! Criterion bench for the Fig. 9 pipeline at reduced scale: the full
//! AutoHet search (hybrid candidates + tile sharing) on a small model,
//! plus homogeneous evaluation of the real workloads.

use autohet::prelude::*;
use autohet_bench::ReproConfig;
use autohet_dnn::zoo;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig9(c: &mut Criterion) {
    let rc = ReproConfig {
        episodes: 10,
        seed: 1,
    };
    let micro = zoo::micro_cnn();
    c.bench_function("fig9/autohet_search_micro_10ep", |b| {
        b.iter(|| black_box(autohet_bench::autohet_full(black_box(&micro), &rc)))
    });
    let cfg = AccelConfig::default();
    for model in [zoo::alexnet(), zoo::vgg16()] {
        c.bench_function(&format!("fig9/homogeneous_sweep_{}", model.name), |b| {
            b.iter(|| {
                black_box(homogeneous_reports(&EvalEngine::new(
                    black_box(&model).clone(),
                    cfg,
                )))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig9
}
criterion_main!(benches);

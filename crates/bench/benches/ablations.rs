//! Criterion benches for the beyond-paper design-choice studies
//! (DESIGN.md §6): ADC-resolution sweep, rectangle-height families,
//! multi-model sharing, and the search comparators' non-RL members.

use autohet::prelude::*;
use autohet::studies::{adc_resolution_sweep, multi_model_sharing_study, rxb_height_study};
use autohet_dnn::zoo;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_studies(c: &mut Criterion) {
    let vgg = zoo::vgg16();
    let strategy = vec![XbarShape::new(576, 512); vgg.layers.len()];
    c.bench_function("ablations/adc_resolution_sweep_vgg16", |b| {
        b.iter(|| {
            black_box(adc_resolution_sweep(
                black_box(&vgg),
                &strategy,
                &[6, 8, 10, 12],
            ))
        })
    });
    c.bench_function("ablations/rxb_height_study_vgg16", |b| {
        b.iter(|| black_box(rxb_height_study(black_box(&vgg), 64)))
    });
    let models = vec![zoo::alexnet(), zoo::lenet5(), zoo::micro_cnn()];
    c.bench_function("ablations/multi_model_sharing", |b| {
        b.iter(|| {
            black_box(multi_model_sharing_study(
                black_box(&models),
                XbarShape::new(72, 64),
                4,
            ))
        })
    });
    c.bench_function("ablations/annealing_micro_50it", |b| {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let acfg = AnnealingConfig {
            iterations: 50,
            seed: 1,
            ..AnnealingConfig::default()
        };
        b.iter(|| {
            black_box(annealing_search(
                &EvalEngine::new(m.clone(), cfg),
                &paper_hybrid_candidates(),
                &acfg,
            ))
        })
    });
    c.bench_function("ablations/greedy_rue_resnet152", |b| {
        let m = zoo::resnet152();
        let cfg = AccelConfig::default();
        b.iter(|| {
            black_box(greedy_layerwise_rue(
                &EvalEngine::new(black_box(&m).clone(), cfg),
                &paper_hybrid_candidates(),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_studies
}
criterion_main!(benches);

//! Criterion bench for the memoized evaluation engine (the search hot
//! path): cold vs warm engine against direct `evaluate`, the parallel
//! vs serial exhaustive driver on the 4-layer test model, and the
//! observability overhead contract — the disabled tracer must add <1%
//! to the warm-compose path (`tracer_off` vs the uninstrumented
//! baseline above it; `tracer_on` shows the cost of actually recording).

use autohet::prelude::*;
use autohet_dnn::zoo;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_eval_cache(c: &mut Criterion) {
    let vgg = zoo::vgg16();
    let cfg = AccelConfig::default().with_tile_sharing();
    let cands = paper_hybrid_candidates();
    // A heterogeneous strategy exercising every candidate shape.
    let strategy: Vec<XbarShape> = (0..vgg.layers.len())
        .map(|i| cands[i % cands.len()])
        .collect();

    c.bench_function("eval_cache/direct_evaluate_vgg16", |b| {
        b.iter(|| black_box(evaluate(black_box(&vgg), black_box(&strategy), &cfg)))
    });
    c.bench_function("eval_cache/engine_cold_vgg16", |b| {
        b.iter(|| {
            let engine = EvalEngine::new(vgg.clone(), cfg);
            black_box(engine.evaluate_fresh(black_box(&strategy)))
        })
    });
    let warm = EvalEngine::new(vgg.clone(), cfg);
    warm.evaluate_fresh(&strategy);
    c.bench_function("eval_cache/engine_warm_compose_vgg16", |b| {
        // Layer memo warm, strategy cache bypassed: the steady-state cost
        // of evaluating a *new* strategy mid-search.
        b.iter(|| black_box(warm.evaluate_fresh(black_box(&strategy))))
    });
    c.bench_function("eval_cache/engine_warm_strategy_hit_vgg16", |b| {
        b.iter(|| black_box(warm.evaluate(black_box(&strategy))))
    });

    // Observability overhead: identical workload to engine_warm_compose,
    // with the tracer explicitly disabled (the no-op default everywhere
    // outside obs_dump) and then enabled. The off/compose delta is the
    // contract checked in EXPERIMENTS.md (<1%).
    let tracer = autohet_obs::trace::global();
    tracer.disable();
    c.bench_function("eval_cache/engine_warm_compose_tracer_off", |b| {
        b.iter(|| black_box(warm.evaluate_fresh(black_box(&strategy))))
    });
    tracer.enable(1 << 16);
    c.bench_function("eval_cache/engine_warm_compose_tracer_on", |b| {
        b.iter(|| black_box(warm.evaluate_fresh(black_box(&strategy))))
    });
    tracer.disable();
    tracer.drain();

    let micro = zoo::micro_cnn();
    let plain = AccelConfig::default();
    c.bench_function("eval_cache/exhaustive_serial_micro", |b| {
        b.iter(|| {
            black_box(exhaustive_search_serial(
                &EvalEngine::new(black_box(&micro).clone(), plain),
                &cands,
                1_000,
            ))
        })
    });
    c.bench_function("eval_cache/exhaustive_parallel_micro", |b| {
        b.iter(|| {
            black_box(exhaustive_search(
                &EvalEngine::new(black_box(&micro).clone(), plain),
                &cands,
                1_000,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_eval_cache
}
criterion_main!(benches);

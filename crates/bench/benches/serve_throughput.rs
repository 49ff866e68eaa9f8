//! Serving-simulator throughput: simulated requests processed per
//! wallclock second through the global-FIFO event loop.

use autohet_accel::AccelConfig;
use autohet_dnn::zoo;
use autohet_serve::{run_serving, BurstSpec, Deployment, ServeConfig, TenantSpec, Workload};
use autohet_xbar::XbarShape;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn fleet() -> Vec<TenantSpec> {
    let cfg = AccelConfig::default();
    let lenet = zoo::lenet5();
    let micro = zoo::micro_cnn();
    let d_lenet = Deployment::compile(
        "lenet",
        &lenet,
        &vec![XbarShape::square(128); lenet.layers.len()],
        &cfg,
    );
    let d_micro = Deployment::compile(
        "micro",
        &micro,
        &vec![XbarShape::square(64); micro.layers.len()],
        &cfg,
    );
    let lenet_rate = 0.9 * d_lenet.max_rate_rps();
    let micro_rate = 0.5 * d_micro.max_rate_rps();
    let lenet_slo = (5.0 * d_lenet.pipeline.fill_ns) as u64;
    let micro_slo = (5.0 * d_micro.pipeline.fill_ns) as u64;
    vec![
        TenantSpec::new("lenet", d_lenet, lenet_rate, lenet_slo).with_burst(BurstSpec {
            period_ns: 5_000_000,
            burst_ns: 1_000_000,
            factor: 4.0,
        }),
        TenantSpec::new("micro", d_micro, micro_rate, micro_slo),
    ]
}

fn bench_serve_throughput(c: &mut Criterion) {
    let tenants = fleet();
    let wl = Workload {
        seed: 42,
        horizon_ns: 20_000_000,
    };
    let cfg = ServeConfig {
        replicas: 4,
        ..ServeConfig::default()
    };
    let requests = {
        let r = run_serving(&tenants, &wl, &cfg);
        r.total_completed + r.total_rejected
    };
    let mut g = c.benchmark_group("serve_throughput");
    g.throughput(Throughput::Elements(requests));
    g.bench_function("event_loop", |b| {
        b.iter(|| run_serving(black_box(&tenants), &wl, &cfg))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve_throughput
}
criterion_main!(benches);

//! Golden pins of the global-FIFO serving front, `run_serving`.
//!
//! Each case records a 64-bit FNV-1a digest of the full `Debug` rendering
//! of its `ServingReport` (which prints every float in round-trip form, so
//! any moved decision, counter, percentile or window shows). The cases
//! cover the plain path, weighted bursty tenants with telemetry windows,
//! shedding, failover with and without retry headroom, the drift breaker
//! in each of its outcomes (remap, never tripping, failed recovery), the
//! failure and health couplings together, and an empty workload.
//! `run_serving` must keep reproducing these values bit for bit, whatever
//! scheduler implements it.

use autohet::prelude::*;
use autohet_dnn::zoo;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(r: &ServingReport) -> u64 {
    fnv(format!("{r:?}").into_bytes())
}

fn deployment(model: autohet_dnn::Model, side: u32) -> Deployment {
    let strategy = vec![XbarShape::square(side); model.layers.len()];
    Deployment::compile(&model.name, &model, &strategy, &AccelConfig::default())
}

/// One LeNet tenant at `load` × single-replica capacity.
fn lenet_at(load: f64, slo_mult: f64) -> TenantSpec {
    let d = deployment(zoo::lenet5(), 128);
    let rate = load * d.max_rate_rps();
    let slo = (slo_mult * d.pipeline.fill_ns) as u64;
    TenantSpec::new("lenet", d, rate, slo.max(1))
}

/// A horizon long enough for about `n_requests` at `rate_rps`.
fn wl(seed: u64, n_requests: f64, rate_rps: f64) -> Workload {
    Workload {
        seed,
        horizon_ns: (n_requests / rate_rps * 1e9) as u64,
    }
}

/// Three tenants with weights 1/2/4 on two models, the middle one bursty.
fn weighted_trio() -> Vec<TenantSpec> {
    let lenet = deployment(zoo::lenet5(), 128);
    let micro = deployment(zoo::micro_cnn(), 64);
    let slo = |d: &Deployment| (6.0 * d.pipeline.fill_ns) as u64;
    vec![
        TenantSpec::new("a", lenet.clone(), 0.3 * lenet.max_rate_rps(), slo(&lenet)),
        TenantSpec::new("b", micro.clone(), 0.4 * micro.max_rate_rps(), slo(&micro))
            .with_weight(2)
            .with_burst(BurstSpec {
                period_ns: 4_000_000,
                burst_ns: 1_000_000,
                factor: 4.0,
            }),
        TenantSpec::new("c", lenet.clone(), 0.5 * lenet.max_rate_rps(), slo(&lenet)).with_weight(4),
    ]
}

fn flaky(seed: u64) -> FailureSpec {
    FailureSpec {
        mtbf_ns: 2_000_000,
        mttr_ns: 400_000,
        seed,
    }
}

fn drifting(trip_milli: u64, remap: bool) -> HealthSpec {
    HealthSpec {
        err_ppm_per_ms: 30_000,
        trip_milli,
        remap,
        ..HealthSpec::default()
    }
}

fn kinds(r: &ServingReport, kind: HealthEventKind) -> usize {
    r.health_events.iter().filter(|e| e.kind == kind).count()
}

fn killed(r: &ServingReport) -> u64 {
    r.tenants.iter().map(|t| t.killed_batches).sum()
}

/// The pinned cases: label, report, and the digest it must hash to.
fn cases() -> Vec<(&'static str, ServingReport, u64)> {
    let one = vec![lenet_at(0.6, 10.0)];
    let one_wl = wl(42, 2_000.0, one[0].rate_rps);
    let trio = weighted_trio();
    let trio_rate: f64 = trio.iter().map(|t| t.rate_rps).sum();
    let trio_wl = wl(11, 3_000.0, trio_rate);
    let hot = vec![lenet_at(3.0, 10.0)];
    let pair = vec![lenet_at(0.7, 10.0), lenet_at(0.3, 10.0)];
    let pair_wl = wl(5, 2_000.0, pair[0].rate_rps + pair[1].rate_rps);
    let drift_wl = wl(7, 2_000.0, one[0].rate_rps);
    let mut idle = lenet_at(0.5, 10.0);
    idle.rate_rps = 0.0;
    let d = ServeConfig::default;
    vec![
        (
            "one tenant, default config",
            run_serving(&one, &one_wl, &d()),
            0x3886_e2a2_885d_e1df,
        ),
        (
            "weighted bursty trio, 2 replicas, 8 windows",
            run_serving(
                &trio,
                &trio_wl,
                &ServeConfig {
                    replicas: 2,
                    telemetry_windows: 8,
                    ..d()
                },
            ),
            0x8d03_e966_5d19_8619,
        ),
        (
            "overload sheds at queue_depth 16",
            run_serving(
                &hot,
                &wl(9, 3_000.0, hot[0].rate_rps),
                &ServeConfig {
                    queue_depth: 16,
                    ..d()
                },
            ),
            0x4daa_93b4_0346_0715,
        ),
        (
            "flaky failures, 2 replicas, windows",
            run_serving(
                &pair,
                &pair_wl,
                &ServeConfig {
                    replicas: 2,
                    failures: Some(flaky(17)),
                    telemetry_windows: 6,
                    ..d()
                },
            ),
            0x44fe_4d95_3d14_b7ef,
        ),
        (
            "failures with no retry deadline",
            run_serving(
                &pair,
                &pair_wl,
                &ServeConfig {
                    failures: Some(flaky(17)),
                    retry_deadline_ns: 0,
                    ..d()
                },
            ),
            0xba59_0ac6_e7eb_3076,
        ),
        (
            "health with remap",
            run_serving(
                &one,
                &drift_wl,
                &ServeConfig {
                    health: Some(drifting(60, true)),
                    ..d()
                },
            ),
            0xa902_1e74_a9d4_ebd8,
        ),
        (
            "health that never trips",
            run_serving(
                &one,
                &drift_wl,
                &ServeConfig {
                    health: Some(drifting(1001, false)),
                    ..d()
                },
            ),
            0x04e2_8cd0_ff28_06ba,
        ),
        (
            "hopeless recalibration without remap",
            run_serving(
                &one,
                &drift_wl,
                &ServeConfig {
                    health: Some(HealthSpec {
                        recal_success_milli: 0,
                        ..drifting(60, false)
                    }),
                    ..d()
                },
            ),
            0x8989_8d65_1866_8cf1,
        ),
        (
            "failures and health, 3 replicas, windows",
            run_serving(
                &trio,
                &trio_wl,
                &ServeConfig {
                    replicas: 3,
                    failures: Some(flaky(23)),
                    health: Some(drifting(60, true)),
                    telemetry_windows: 10,
                    ..d()
                },
            ),
            0xef7d_c6fa_40a4_53c0,
        ),
        (
            "empty workload",
            run_serving(
                &[idle],
                &Workload {
                    seed: 0,
                    horizon_ns: 1_000_000,
                },
                &ServeConfig {
                    telemetry_windows: 4,
                    ..d()
                },
            ),
            0x9120_b6e1_3eb2_8fb8,
        ),
    ]
}

#[test]
fn run_serving_reproduces_the_pinned_reports() {
    let mut moved = Vec::new();
    for (label, report, want) in cases() {
        let got = digest(&report);
        if got != want {
            moved.push(format!("{label}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(moved.is_empty(), "golden pins moved:\n{}", moved.join("\n"));
}

/// The pins are only worth their digests if each case reaches the path
/// it is named after.
#[test]
fn each_case_exercises_its_path() {
    let cases = cases();
    let r = |i: usize| &cases[i].1;
    assert!(r(0).total_completed > 1_000);
    assert_eq!(r(1).windows.len(), 8);
    assert!(r(1).tenants.iter().all(|t| t.completed > 0));
    assert!(r(2).total_rejected > 0);
    assert!(killed(r(3)) > 0 && r(3).total_retried > 0);
    assert!(r(3).windows.iter().any(|w| w.downtime_ns > 0));
    assert!(killed(r(4)) > 0 && r(4).total_failed > 0 && r(4).total_retried == 0);
    assert!(kinds(r(5), HealthEventKind::Trip) > 0);
    assert!(kinds(r(5), HealthEventKind::Recal) + kinds(r(5), HealthEventKind::Remap) > 0);
    assert!(r(6).total_errored > 0 && r(6).health_events.is_empty());
    assert!(kinds(r(7), HealthEventKind::RecoveryFailed) > 0);
    assert!(killed(r(8)) > 0 && kinds(r(8), HealthEventKind::Trip) > 0);
    assert_eq!(r(8).windows.len(), 10);
    assert_eq!(r(9).total_completed, 0);
    assert_eq!(r(9).windows.len(), 4);
}

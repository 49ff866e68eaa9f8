//! Golden pins of the serving scheduler's reports and alert timelines.
//!
//! Each report case records a 64-bit FNV-1a digest of an explicit
//! rendering of a fixed field list — every field the report and its
//! tenant stats had when the pin was taken, in declaration order, each in
//! its `Debug` form (which prints every float in round-trip form, so any
//! moved decision, counter, percentile or window shows). Naming the fields
//! keeps a pin stable when the report type gains a field.
//!
//! The `run_serving` cases cover the plain path, weighted bursty tenants
//! with telemetry windows, shedding, failover with and without retry
//! headroom, the drift breaker in each of its outcomes (remap, never
//! tripping, failed recovery), the failure and health couplings together,
//! and an empty workload. The `run_sharded` cases cover one DRR shard,
//! four shards with stealing, autoscaling and a strategy swap, and the
//! linear-scan scheduler. Two alert timelines are pinned by the digest of
//! their JSONL export: a FIFO run with health events and windows, and an
//! autoscaled sharded run. Every value must keep reproducing bit for bit,
//! whatever code assembles the reports.

use autohet::prelude::*;
use autohet_dnn::zoo;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `Debug` forms of the listed values, joined by `|`.
macro_rules! fields {
    ($($f:expr),* $(,)?) => {
        [$(format!("{:?}", $f)),*].join("|")
    };
}

/// The pinned fields of a `run_serving` report.
fn digest(r: &ServingReport) -> u64 {
    let tenants: Vec<String> = r
        .tenants
        .iter()
        .map(|t| {
            fields!(
                t.name,
                t.submitted,
                t.completed,
                t.rejected,
                t.failed,
                t.retried,
                t.degraded_completed,
                t.errored,
                t.killed_batches,
                t.batches,
                t.p50_ns,
                t.p95_ns,
                t.p99_ns,
                t.max_ns,
                t.mean_ns,
                t.slo_ns,
                t.slo_attainment,
                t.throughput_rps,
                t.energy_nj,
                t.peak_queue_depth,
                t.mean_queue_depth,
                t.weight,
                t.attained_service_ns,
                t.histogram,
            )
        })
        .collect();
    let text = fields!(
        r.seed,
        r.horizon_ns,
        r.makespan_ns,
        r.replicas,
        r.batches,
        r.mean_batch_size,
        r.total_completed,
        r.total_rejected,
        r.total_failed,
        r.total_retried,
        r.total_errored,
        r.replica_downtime_ns,
        r.replica_trips,
        r.replica_recals,
        r.replica_remaps,
        r.replica_recovery_ns,
        r.total_energy_nj,
        r.aggregate_throughput_rps,
        r.fairness_index,
        tenants,
        r.windows,
        r.health_events,
    );
    fnv(text.into_bytes())
}

/// The pinned fields of a `run_sharded` report.
fn shard_digest(r: &ServingReport) -> u64 {
    let tenants: Vec<String> = r
        .tenants
        .iter()
        .map(|t| {
            fields!(
                t.name,
                t.weight,
                t.shard,
                t.submitted,
                t.completed,
                t.rejected,
                t.batches,
                t.p50_ns,
                t.p95_ns,
                t.p99_ns,
                t.max_ns,
                t.mean_ns,
                t.slo_ns,
                t.slo_attainment,
                t.throughput_rps,
                t.energy_nj,
                t.attained_service_ns,
                t.peak_queue_depth,
                t.mean_queue_depth,
                t.swapped,
                t.histogram,
            )
        })
        .collect();
    let text = fields!(
        r.seed,
        r.horizon_ns,
        r.makespan_ns,
        r.shards,
        r.epochs,
        r.replicas,
        r.replicas_final,
        r.replicas_peak,
        r.batches,
        r.mean_batch_size,
        r.total_submitted,
        r.total_completed,
        r.total_rejected,
        r.total_energy_nj,
        r.aggregate_throughput_rps,
        r.fairness_index,
        tenants,
        r.shard_stats,
        r.windows,
        r.epoch_signals,
        r.scale_events,
        r.steal_events,
        r.swap_events,
    );
    fnv(text.into_bytes())
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
            0x1250_93a5_3b80_9e74,
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
            0xb212_5717_921b_5382,
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
            0x292a_d742_735a_92ac,
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
            0x1596_5456_e12d_6a5a,
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
            0xfe66_1661_246d_8109,
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
            0x0dc2_4c24_aadd_bb1b,
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
            0x2242_528f_dafd_a239,
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
            0xa553_d751_bfe9_51c0,
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
            0x264e_e6a1_2661_8b25,
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
            0xdb5f_b666_6de3_8899,
        ),
    ]
}

/// Eight tenants on two models with weights 1–4, every third one bursty,
/// and tenant 0 ramping up eightfold with an alternative strategy to
/// swap onto.
fn shard_fleet() -> Vec<TenantSpec> {
    let lenet = deployment(zoo::lenet5(), 128);
    let micro = deployment(zoo::micro_cnn(), 128);
    let alt = deployment(zoo::lenet5(), 256);
    (0..8)
        .map(|i| {
            let d = if i % 2 == 0 { &lenet } else { &micro };
            let rate = 0.3 * d.max_rate_rps() * (1.0 + (i % 3) as f64 * 0.5);
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            let mut t = TenantSpec::new(&format!("t{i}"), d.clone(), rate, slo)
                .with_weight(1 + (i % 4) as u64);
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: 20_000_000,
                    burst_ns: 5_000_000,
                    factor: 5.0,
                });
            }
            if i == 0 {
                t = t
                    .with_ramp(RampSpec {
                        start_ns: 20_000_000,
                        end_ns: 50_000_000,
                        to_factor: 8.0,
                    })
                    .with_alt(alt.clone());
            }
            t
        })
        .collect()
}

fn shard_wl() -> Workload {
    Workload {
        seed: 29,
        horizon_ns: 80_000_000,
    }
}

fn autoscale() -> AutoscaleSpec {
    AutoscaleSpec {
        high_depth: 6.0,
        low_depth: 1.0,
        max_replicas: 12,
        cooldown_epochs: 0,
        ..AutoscaleSpec::default()
    }
}

/// Four shards with stealing, autoscaling and a strategy swap.
fn coupled() -> ShardConfig {
    ShardConfig {
        shards: 4,
        epochs: 20,
        queue_depth: 256,
        steal: Some(StealSpec {
            min_victim_backlog: 4,
            max_thief_backlog: 1,
        }),
        autoscale: Some(autoscale()),
        swap: Some(SwapSpec {
            share_factor: 1.5,
            min_epoch_requests: 16,
            remap_ns: 2_000_000,
        }),
        ..ShardConfig::default()
    }
}

/// The pinned sharded cases: label, report, and the digest it must hash
/// to.
fn shard_cases() -> Vec<(&'static str, ServingReport, u64)> {
    let fleet = shard_fleet();
    let wl = shard_wl();
    vec![
        (
            "one DRR shard",
            run_sharded(
                &fleet,
                &wl,
                &ShardConfig {
                    replicas_per_shard: 2,
                    queue_depth: 32,
                    ..ShardConfig::default()
                },
            ),
            0xa3bc_abc6_cc6e_16a3,
        ),
        (
            "four shards, steal + autoscale + swap",
            run_sharded(&fleet, &wl, &coupled()),
            0x4af3_bfed_5df0_99ba,
        ),
        (
            "linear scan, three shards with stealing",
            run_sharded(
                &fleet,
                &wl,
                &ShardConfig {
                    shards: 3,
                    replicas_per_shard: 2,
                    epochs: 10,
                    mode: SelectMode::LinearScan,
                    steal: coupled().steal,
                    ..ShardConfig::default()
                },
            ),
            0x7fc9_63ec_f9ca_9fd5,
        ),
    ]
}

#[test]
fn run_sharded_reproduces_the_pinned_reports() {
    let mut moved = Vec::new();
    for (label, report, want) in shard_cases() {
        let got = shard_digest(&report);
        if got != want {
            moved.push(format!("{label}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(moved.is_empty(), "golden pins moved:\n{}", moved.join("\n"));
}

#[test]
fn alert_timelines_reproduce_their_pins() {
    let acfg = ServeAlertConfig::default();
    let fifo = &cases()[8].1;
    let sharded = run_sharded(&shard_fleet(), &shard_wl(), &coupled());
    let timelines = [
        (
            "FIFO failures and health",
            alert_timeline(fifo, &acfg, None),
            0x2ba5_7ea9_ce23_43d5,
        ),
        (
            "autoscaled shards",
            alert_timeline(&sharded, &acfg, Some(&autoscale())),
            0xb5c3_8cf9_0ca6_1f6f,
        ),
    ];
    let mut moved = Vec::new();
    for (label, timeline, want) in &timelines {
        let got = fnv(timeline.to_jsonl().into_bytes());
        if got != *want {
            moved.push(format!("{label}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(moved.is_empty(), "golden pins moved:\n{}", moved.join("\n"));
    let fifo_rules: Vec<&str> = timelines[0].1.events.iter().map(|e| &e.rule[..]).collect();
    assert!(fifo_rules.iter().any(|r| r.starts_with("health.")));
    assert!(fifo_rules.contains(&"serve.downtime"));
    let shard_rules: Vec<&str> = timelines[1].1.events.iter().map(|e| &e.rule[..]).collect();
    assert!(shard_rules.contains(&"serve.scale_up"));
    assert!(shard_rules.iter().any(|r| r.starts_with("scale.")));
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

#[test]
fn each_sharded_case_exercises_its_path() {
    let cases = shard_cases();
    let r = |i: usize| &cases[i].1;
    assert!(r(0).total_rejected > 0 && r(0).total_completed > 400);
    assert!(!r(1).steal_events.is_empty());
    assert!(r(1).scale_events.iter().any(|e| e.up));
    assert_eq!(r(1).swap_events.len(), 1);
    assert!(r(1).tenants[0].swapped);
    assert!(!r(2).steal_events.is_empty());
    for (_, report, _) in &cases {
        assert_eq!(report.lost_requests(), 0);
    }
}

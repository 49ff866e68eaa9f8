//! The two serving workloads, on one 120-tenant fleet.
//!
//! The fleet is the serve-scale day (three compiled deployments, weights
//! cycling 1/2/4/8, every third tenant with a rush-hour burst) with its
//! ~1.2M requests served as `SHIFTS` shifts of `SHIFT_NS` simulated time
//! each, every shift with its own arrival seed and its own rush. Packing
//! the day into 200 s keeps the eight replicas near capacity, so queueing,
//! DRR and stealing have work to do; cutting it into shifts times it as
//! many short library calls, each a sample of the round's median costs.
//! Tenants that pay for a larger share also send more traffic (rate grows
//! with weight), and the `gid % shards` partition puts all tenants of one
//! weight on the same shards, so eight shards start unbalanced and the
//! epoch barriers must steal.
//!
//! - `serve_day`: `run_sharded` at 1 shard × 8 replicas (heap mode) and
//!   `run_sharded_threaded` at 8 shards with stealing on 2 threads.
//! - `serve_faults`: the global-FIFO `run_serving` over 8 replicas with
//!   an outage process and the drift circuit breaker on, beside the same
//!   fleet on healthy replicas.

use crate::bench::{mix, timed, timed_on, Arm, Bench, Cost, Digest, Rates, Timers};
use autohet::prelude::*;
use autohet_dnn::zoo;
use autohet_serve::{merge_arrivals, FailurePlan};
use std::time::Instant;

const TENANTS: usize = 120;
/// Simulated length of one shift.
const SHIFT_NS: u64 = 25_000_000_000;
/// Shifts per round: one round serves the whole day.
const SHIFTS: usize = 8;
/// Requests of the whole day, summed over tenants and shifts (expected).
const DAY_REQUESTS: f64 = 1_200_000.0;
const REPLICAS: usize = 8;
const THREADS: usize = 2;

fn fleet() -> Vec<TenantSpec> {
    let cfg = AccelConfig::default();
    let lenet = zoo::lenet5();
    let micro = zoo::micro_cnn();
    let compile = |name: &str, model: &autohet_dnn::Model, side: u32| {
        Deployment::compile(
            name,
            model,
            &vec![XbarShape::square(side); model.layers.len()],
            &cfg,
        )
    };
    let deployments = [
        compile("lenet/sq128", &lenet, 128),
        compile("micro/sq64", &micro, 64),
        compile("micro/sq128", &micro, 128),
    ];
    let day_s = SHIFTS as f64 * SHIFT_NS as f64 / 1e9;
    let rate = DAY_REQUESTS / day_s / TENANTS as f64;
    (0..TENANTS)
        .map(|i| {
            let d = deployments[i % deployments.len()].clone();
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            // Rate factors 0.4/0.8/1.2/1.6 for weights 1/2/4/8 (mean 1).
            let share = 0.4 * (1 + i % 4) as f64;
            let mut t = TenantSpec::new(&format!("tenant-{i:03}"), d, rate * share, slo)
                .with_weight(1 << (i % 4));
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: SHIFT_NS,
                    burst_ns: SHIFT_NS / 6,
                    factor: 3.0,
                });
            }
            t
        })
        .collect()
}

/// The day's shifts, each with an arrival seed drawn from `seed`.
fn shifts(seed: u64) -> Vec<Workload> {
    (0..SHIFTS as u64)
        .map(|k| Workload {
            seed: mix(seed ^ (k << 32)),
            horizon_ns: SHIFT_NS,
        })
        .collect()
}

/// Requests completed within their SLO ÷ submitted, over all tenants
/// (shed, failed and drift-errored requests are misses).
fn slo_attainment(tenants: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (met, submitted) = tenants.fold((0.0, 0u64), |(met, sub), (n, slo)| {
        (met + slo * n as f64, sub + n)
    });
    met / submitted as f64
}

/// The highest per-tenant p99 latency [ms].
fn worst_p99_ms(p99s: impl Iterator<Item = u64>) -> f64 {
    p99s.max().unwrap_or(0) as f64 / 1e6
}

fn shard_slo<'a>(rs: impl Iterator<Item = &'a ShardServingReport>) -> f64 {
    slo_attainment(
        rs.flat_map(|r| &r.tenants)
            .map(|t| (t.submitted, t.slo_attainment)),
    )
}

fn shard_p99_ms<'a>(rs: impl Iterator<Item = &'a ShardServingReport>) -> f64 {
    worst_p99_ms(rs.flat_map(|r| &r.tenants).map(|t| t.p99_ns))
}

fn fifo_slo<'a>(rs: impl Iterator<Item = &'a ServingReport>) -> f64 {
    slo_attainment(
        rs.flat_map(|r| &r.tenants)
            .map(|t| (t.submitted, t.slo_attainment)),
    )
}

fn fifo_p99_ms<'a>(rs: impl Iterator<Item = &'a ServingReport>) -> f64 {
    worst_p99_ms(rs.flat_map(|r| &r.tenants).map(|t| t.p99_ns))
}

/// A per-replica counter summed over the fleet.
fn total(per_replica: &[u64]) -> u64 {
    per_replica.iter().sum()
}

fn submitted(r: &ServingReport) -> u64 {
    r.tenants.iter().map(|t| t.submitted).sum()
}

/// Mean wall time of one untraced round (both arms).
fn wall_per_round(costs: &[Vec<Vec<Cost>>; 2]) -> f64 {
    costs
        .iter()
        .flatten()
        .flatten()
        .map(|c| c.wall)
        .sum::<f64>()
        / costs[0].len() as f64
}

/// Batch-weighted mean batch size over reports given as
/// `(batches, mean_batch_size)`.
fn mean_batch_size(reports: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (requests, batches) = reports.fold((0.0, 0u64), |(req, bat), (n, mean)| {
        (req + mean * n as f64, bat + n)
    });
    requests / batches as f64
}

fn one_shard() -> ShardConfig {
    ShardConfig {
        shards: 1,
        replicas_per_shard: REPLICAS,
        ..ShardConfig::default()
    }
}

fn eight_shards() -> ShardConfig {
    ShardConfig {
        shards: REPLICAS,
        replicas_per_shard: 1,
        epochs: 64,
        steal: Some(StealSpec {
            min_victim_backlog: 8,
            max_thief_backlog: 0,
        }),
        ..ShardConfig::default()
    }
}

pub fn run_day(b: &mut Bench) {
    let tenants = b.setup(fleet);
    let day = shifts(b.seed);
    let (heap1, eight) = (one_shard(), eight_shards());

    // Per arm, per round, the cost of each shift.
    let mut costs: [Vec<Vec<Cost>>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Vec<(ShardServingReport, ShardServingReport)>> = None;
    b.rounds(1, |b, _| {
        let mut round = [Vec::with_capacity(SHIFTS), Vec::with_capacity(SHIFTS)];
        let reports: Vec<_> = day
            .iter()
            .map(|wl| {
                let (one, cost) = timed(|| run_sharded(&tenants, wl, &heap1));
                round[0].push(cost);
                let (threaded, cost) = timed_on(THREADS, || {
                    run_sharded_threaded(&tenants, wl, &eight, THREADS)
                });
                round[1].push(cost);
                (one, threaded)
            })
            .collect();
        for (arm, c) in round.into_iter().enumerate() {
            costs[arm].push(c);
        }
        match &first {
            Some(f) => b.check(reports == *f, "a repeated serving day is bit-identical"),
            None => {
                for (wl, (one, threaded)) in day.iter().zip(&reports) {
                    b.check(one.lost_requests() == 0, "heap1 loses no request");
                    let sequential = run_sharded(&tenants, wl, &eight);
                    b.check(
                        *threaded == sequential && threaded.lost_requests() == 0,
                        "threaded == sequential at 8 shards, no request lost",
                    );
                    b.check(
                        !threaded.steal_events.is_empty(),
                        "every 8-shard shift steals",
                    );
                }
                first = Some(reports);
            }
        }
    });
    let untraced_round_s = wall_per_round(&costs);
    let Some(reports) = first else { return };
    let mut digest = Digest::new();
    digest.add(&reports);
    b.digest(digest.value());
    let ones = || reports.iter().map(|(one, _)| one);
    let threads = || reports.iter().map(|(_, threaded)| threaded);
    let requests = |rs: &mut dyn Iterator<Item = &ShardServingReport>| {
        rs.map(|r| r.total_submitted).sum::<u64>() as f64
    };

    if !b.trace {
        b.arms(
            Arm {
                rate_name: "requests_per_s.heap1",
                rates: Rates::of_rounds(requests(&mut ones()), &costs[0]),
                quality_name: "slo_attainment.heap1",
                quality: shard_slo(ones()),
            },
            Arm {
                rate_name: "requests_per_s.threaded8",
                rates: Rates::of_rounds(requests(&mut threads()), &costs[1]),
                quality_name: "slo_attainment.threaded8",
                quality: shard_slo(threads()),
            },
        );
        b.extra("sim_p99_ms.heap1", shard_p99_ms(ones()), "ms");
        b.extra("sim_p99_ms.threaded8", shard_p99_ms(threads()), "ms");
        return;
    }

    let mut t = Timers::default();
    let t0 = Instant::now();
    let traced_rounds = b.rounds(1, |b, _| {
        for (wl, (one, threaded)) in day.iter().zip(&reports) {
            t.time("serve.arrivals_s", || merge_arrivals(&tenants, wl));
            let single = t.time("serve.run_s.heap1", || run_sharded(&tenants, wl, &heap1));
            let sequential = t.time("serve.run_s.seq8", || run_sharded(&tenants, wl, &eight));
            let parallel = t.time("serve.run_s.threaded8", || {
                run_sharded_threaded(&tenants, wl, &eight, THREADS)
            });
            b.check(single == *one, "traced heap1 run matches");
            b.check(
                parallel == sequential && parallel == *threaded,
                "traced 8-shard runs match",
            );
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let n = traced_rounds as f64;
    let layers = [
        "serve.arrivals_s",
        "serve.run_s.heap1",
        "serve.run_s.seq8",
        "serve.run_s.threaded8",
    ];
    for name in layers {
        b.layer(name, t.get(name) / n);
    }
    b.layer(
        "serve.thread_speedup",
        t.get("serve.run_s.seq8") / t.get("serve.run_s.threaded8"),
    );
    let sum = |f: fn(&ShardServingReport) -> u64| threads().map(f).sum::<u64>() as f64;
    b.layer("serve.batches", sum(|r| r.batches));
    b.layer(
        "serve.mean_batch_size",
        mean_batch_size(threads().map(|r| (r.batches, r.mean_batch_size))),
    );
    b.layer("serve.steals", sum(|r| r.steal_events.len() as u64));
    b.layer("serve.rejected", sum(|r| r.total_rejected));
    b.layer("unattributed_share", (wall - t.sum(&layers)) / wall);
    let traced_round_s = t.sum(&["serve.run_s.heap1", "serve.run_s.threaded8"]) / n;
    b.layer("trace_overhead", traced_round_s / untraced_round_s - 1.0);
}

/// The faulted configuration of shift `k`, with its own outage and
/// drift seeds.
fn faulted_config(seed: u64, k: usize) -> ServeConfig {
    let seed = seed ^ ((k as u64) << 32);
    ServeConfig {
        replicas: REPLICAS,
        failures: Some(FailureSpec {
            mtbf_ns: 2_000_000_000,
            mttr_ns: 100_000_000,
            seed: mix(seed ^ 0xFA11),
        }),
        health: Some(HealthSpec {
            err_ppm_per_ms: 10,
            seed: mix(seed ^ 0x4EA1),
            ..HealthSpec::default()
        }),
        ..ServeConfig::default()
    }
}

pub fn run_faults(b: &mut Bench) {
    let tenants = b.setup(fleet);
    let day = shifts(b.seed);
    let faulted: Vec<ServeConfig> = (0..SHIFTS).map(|k| faulted_config(b.seed, k)).collect();
    let clean = ServeConfig {
        replicas: REPLICAS,
        ..ServeConfig::default()
    };

    // Per arm, per round, the cost of each shift.
    let mut costs: [Vec<Vec<Cost>>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Vec<(ServingReport, ServingReport)>> = None;
    b.rounds(1, |b, _| {
        let mut round = [Vec::with_capacity(SHIFTS), Vec::with_capacity(SHIFTS)];
        let reports: Vec<_> = day
            .iter()
            .zip(&faulted)
            .map(|(wl, cfg)| {
                let (hit, cost) = timed(|| run_serving(&tenants, wl, cfg));
                round[0].push(cost);
                let (healthy, cost) = timed(|| run_serving(&tenants, wl, &clean));
                round[1].push(cost);
                (hit, healthy)
            })
            .collect();
        for (arm, c) in round.into_iter().enumerate() {
            costs[arm].push(c);
        }
        match &first {
            Some(f) => b.check(reports == *f, "a repeated serving day is bit-identical"),
            None => {
                check_faulted(b, &reports, &faulted);
                for (_, healthy) in &reports {
                    let clean_run = healthy.total_failed == 0
                        && healthy.total_errored == 0
                        && healthy.replica_trips.iter().all(|&n| n == 0);
                    b.check(
                        clean_run && accounted(healthy),
                        "healthy replicas serve every request",
                    );
                }
                first = Some(reports);
            }
        }
    });
    let untraced_round_s = wall_per_round(&costs);
    let Some(reports) = first else { return };
    let mut digest = Digest::new();
    digest.add(&reports);
    b.digest(digest.value());
    let hits = || reports.iter().map(|(hit, _)| hit);
    let healthies = || reports.iter().map(|(_, healthy)| healthy);

    if !b.trace {
        b.arms(
            Arm {
                rate_name: "requests_per_s.fifo",
                rates: Rates::of_rounds(hits().map(submitted).sum::<u64>() as f64, &costs[0]),
                quality_name: "slo_attainment.fifo",
                quality: fifo_slo(hits()),
            },
            Arm {
                rate_name: "requests_per_s.fifo_clean",
                rates: Rates::of_rounds(healthies().map(submitted).sum::<u64>() as f64, &costs[1]),
                quality_name: "slo_attainment.fifo_clean",
                quality: fifo_slo(healthies()),
            },
        );
        b.extra("sim_p99_ms.fifo", fifo_p99_ms(hits()), "ms");
        b.extra("sim_p99_ms.fifo_clean", fifo_p99_ms(healthies()), "ms");
        return;
    }

    let mut t = Timers::default();
    let t0 = Instant::now();
    let traced_rounds = b.rounds(1, |b, _| {
        for ((wl, cfg), (hit, healthy)) in day.iter().zip(&faulted).zip(&reports) {
            t.time("serve.arrivals_s", || merge_arrivals(&tenants, wl));
            let again = t.time("serve.run_s.fifo", || run_serving(&tenants, wl, cfg));
            let again_clean = t.time("serve.run_s.fifo_clean", || {
                run_serving(&tenants, wl, &clean)
            });
            b.check(
                again == *hit && again_clean == *healthy,
                "traced FIFO runs match",
            );
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let n = traced_rounds as f64;
    let layers = [
        "serve.arrivals_s",
        "serve.run_s.fifo",
        "serve.run_s.fifo_clean",
    ];
    for name in layers {
        b.layer(name, t.get(name) / n);
    }
    let sum = |f: fn(&ServingReport) -> u64| hits().map(f).sum::<u64>() as f64;
    b.layer("serve.batches", sum(|r| r.batches));
    b.layer(
        "serve.mean_batch_size",
        mean_batch_size(hits().map(|r| (r.batches, r.mean_batch_size))),
    );
    b.layer("serve.rejected", sum(|r| r.total_rejected));
    b.layer("serve.retried", sum(|r| r.total_retried));
    b.layer("serve.failed", sum(|r| r.total_failed));
    b.layer("serve.errored", sum(|r| r.total_errored));
    b.layer("serve.trips", sum(|r| total(&r.replica_trips)));
    b.layer("serve.recals", sum(|r| total(&r.replica_recals)));
    b.layer("serve.remaps", sum(|r| total(&r.replica_remaps)));
    b.layer("unattributed_share", (wall - t.sum(&layers)) / wall);
    let traced_round_s = t.sum(&["serve.run_s.fifo", "serve.run_s.fifo_clean"]) / n;
    b.layer("trace_overhead", traced_round_s / untraced_round_s - 1.0);
}

/// Every submitted request completed, was shed, or failed.
fn accounted(r: &ServingReport) -> bool {
    r.tenants
        .iter()
        .all(|t| t.submitted == t.completed + t.rejected + t.failed)
}

/// The faulted day exercised failover, retry, the breaker,
/// recalibration and remap, with trips well below one per batch.
fn check_faulted(b: &mut Bench, reports: &[(ServingReport, ServingReport)], cfgs: &[ServeConfig]) {
    let mut outages = 0;
    for cfg in cfgs {
        let spec = cfg.failures.expect("faulted config has failures");
        outages += FailurePlan::generate(&spec, cfg.replicas, SHIFT_NS).total_outages();
    }
    let hits = || reports.iter().map(|(hit, _)| hit);
    let sum = |f: fn(&ServingReport) -> u64| hits().map(f).sum::<u64>();
    let (retried, batches) = (sum(|r| r.total_retried), sum(|r| r.batches));
    let trips = sum(|r| total(&r.replica_trips));
    let recals = sum(|r| total(&r.replica_recals));
    let remaps = sum(|r| total(&r.replica_remaps));
    b.check(
        hits().all(accounted),
        "the faulted day accounts for every request",
    );
    b.check(
        outages > 0 && retried > 0,
        &format!("outages ({outages}) kill batches and retry requests ({retried})"),
    );
    b.check(
        trips > 0 && recals > 0 && remaps > 0,
        &format!("breaker trips ({trips}), recalibrates ({recals}) and remaps ({remaps})"),
    );
    b.check(
        (trips as f64) < 0.05 * batches as f64,
        &format!("{trips} trips over {batches} batches"),
    );
}

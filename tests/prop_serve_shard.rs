//! Property-based contracts of the sharded serving runtime
//! (DESIGN.md §14):
//!
//! - the heap-mode scheduler is **bit-identical** to the linear-scan
//!   reference for any shard count, fleet shape, and coupling config
//!   (stealing, autoscaling, strategy swap all enabled);
//! - the epoch-parallel threaded driver replays the sequential one bit
//!   for bit at any thread count;
//! - deficit round-robin starves no backlogged tenant, and attained
//!   service tracks weights (weighted Jain index stays high) under
//!   sustained overload;
//! - a drifting-mix swap never loses a request: every admitted request
//!   completes or is rejected at admission, under any seed;
//! - a golden seeded run pins the exact totals, so any cross-platform
//!   or refactoring drift in the recurrence fails loudly.

use autohet::prelude::*;
use proptest::prelude::*;

fn micro() -> Deployment {
    let m = autohet_dnn::zoo::micro_cnn();
    Deployment::compile(
        "micro",
        &m,
        &vec![XbarShape::square(128); m.layers.len()],
        &AccelConfig::default(),
    )
}

fn lenet() -> Deployment {
    let m = autohet_dnn::zoo::lenet5();
    Deployment::compile(
        "lenet",
        &m,
        &vec![XbarShape::square(128); m.layers.len()],
        &AccelConfig::default(),
    )
}

/// A mixed fleet: alternating deployments, cycling weights, every third
/// tenant bursty — the same shape the shard unit tests use.
fn mixed_fleet(n: usize, load: f64) -> Vec<TenantSpec> {
    let d_micro = micro();
    let d_lenet = lenet();
    (0..n)
        .map(|i| {
            let d = if i % 2 == 0 {
                d_micro.clone()
            } else {
                d_lenet.clone()
            };
            let rate = load * d.max_rate_rps() / n as f64;
            let slo = (8.0 * d.pipeline.fill_ns) as u64;
            let mut t =
                TenantSpec::new(&format!("t{i}"), d, rate, slo).with_weight(1 + (i % 4) as u64);
            if i % 3 == 0 {
                t = t.with_burst(BurstSpec {
                    period_ns: 12_000_000,
                    burst_ns: 3_000_000,
                    factor: 4.0,
                });
            }
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole identity: heap-mode scheduling (lazy-deletion heaps
    // everywhere) makes exactly the decisions of the linear-scan
    // reference, for any shard count and with every barrier mechanism
    // switched on.
    #[test]
    fn heap_mode_matches_the_scan_reference(
        seed in any::<u64>(),
        shards in 1usize..=6,
        n_tenants in 2usize..=9,
        load_pct in 40u32..=160,
    ) {
        let tenants = mixed_fleet(n_tenants, load_pct as f64 / 100.0);
        let wl = Workload { seed, horizon_ns: 40_000_000 };
        let cfg = ShardConfig {
            shards,
            epochs: 10,
            queue_depth: 32,
            steal: Some(StealSpec { min_victim_backlog: 4, max_thief_backlog: 1 }),
            autoscale: Some(AutoscaleSpec {
                high_depth: 6.0,
                low_depth: 1.0,
                cooldown_epochs: 0,
                ..AutoscaleSpec::default()
            }),
            ..ShardConfig::default()
        };
        let heap = run_sharded(&tenants, &wl, &cfg);
        let scan = run_sharded(&tenants, &wl, &ShardConfig { mode: SelectMode::LinearScan, ..cfg });
        prop_assert_eq!(heap, scan);
    }

    // The epoch-parallel driver is a pure re-schedule of the same
    // shard-local work: any thread count replays the sequential run.
    #[test]
    fn threaded_driver_is_bit_identical(
        seed in any::<u64>(),
        shards in 1usize..=5,
        threads in 1usize..=4,
    ) {
        let tenants = mixed_fleet(6, 1.1);
        let wl = Workload { seed, horizon_ns: 30_000_000 };
        let cfg = ShardConfig {
            shards,
            epochs: 8,
            steal: Some(StealSpec::default()),
            ..ShardConfig::default()
        };
        let seq = run_sharded(&tenants, &wl, &cfg);
        let par = run_sharded_threaded(&tenants, &wl, &cfg, threads);
        prop_assert_eq!(seq, par);
    }

    // DRR fairness under sustained overload with a bounded queue: no
    // backlogged tenant starves, and attained service per unit weight
    // stays near-uniform (weighted Jain index).
    #[test]
    fn drr_shares_service_by_weight_without_starvation(
        seed in any::<u64>(),
        w1 in 1u64..=8,
        w2 in 1u64..=8,
    ) {
        let d = micro();
        let rate = 2.5 * d.max_rate_rps();
        let slo = (6.0 * d.pipeline.fill_ns) as u64;
        let tenants: Vec<TenantSpec> = [1, w1, w2]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                TenantSpec::new(&format!("t{i}"), d.clone(), rate, slo).with_weight(w)
            })
            .collect();
        let wl = Workload { seed, horizon_ns: 50_000_000 };
        let cfg = ShardConfig {
            shards: 1,
            queue_depth: 12,
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        prop_assert!(r.total_rejected > 0, "overload must shed load");
        for t in &r.tenants {
            prop_assert!(t.completed > 0, "tenant {} starved", t.name);
        }
        let x = r
            .tenants
            .iter()
            .map(|t| t.attained_service_ns as f64 / t.weight as f64);
        prop_assert!(
            jain_index(x) > 0.75,
            "weighted attained service diverged: {:?}",
            r.tenants
                .iter()
                .map(|t| (t.weight, t.attained_service_ns))
                .collect::<Vec<_>>()
        );
    }

    // The online swap drains in-flight work before remapping: whatever
    // the seed, no admitted request is ever lost, and the heap/scan
    // identity survives the remap pause.
    #[test]
    fn strategy_swap_never_loses_requests(
        seed in any::<u64>(),
        to_factor in 4u32..=10,
    ) {
        let base = lenet();
        let m = autohet_dnn::zoo::lenet5();
        let alt = Deployment::compile(
            "lenet/wide",
            &m,
            &vec![XbarShape::new(256, 128); m.layers.len()],
            &AccelConfig::default(),
        );
        let d_micro = micro();
        let slo = (12.0 * base.pipeline.fill_ns) as u64;
        let tenants = vec![
            TenantSpec::new("drifter", base, 0.2 * d_micro.max_rate_rps(), slo)
                .with_ramp(RampSpec {
                    start_ns: 10_000_000,
                    end_ns: 30_000_000,
                    to_factor: to_factor as f64,
                })
                .with_alt(alt),
            TenantSpec::new("steady", d_micro.clone(), 0.4 * d_micro.max_rate_rps(), slo),
        ];
        let wl = Workload { seed, horizon_ns: 60_000_000 };
        let cfg = ShardConfig {
            shards: 2,
            epochs: 12,
            queue_depth: 4096,
            swap: Some(SwapSpec {
                share_factor: 1.5,
                min_epoch_requests: 16,
                remap_ns: 2_000_000,
            }),
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        prop_assert_eq!(r.lost_requests(), 0);
        let scan = run_sharded(&tenants, &wl, &ShardConfig { mode: SelectMode::LinearScan, ..cfg });
        prop_assert_eq!(r, scan);
    }
}

/// Golden run: one fixed fleet and seed, exact totals pinned. Any change
/// to the recurrence, the DRR walk, the heaps' tie-breaks, or the
/// arrival streams shows up here as a loud diff.
#[test]
fn golden_sharded_run_is_pinned() {
    let tenants = mixed_fleet(6, 1.2);
    let wl = Workload {
        seed: 7,
        horizon_ns: 40_000_000,
    };
    let cfg = ShardConfig {
        shards: 3,
        epochs: 10,
        queue_depth: 32,
        steal: Some(StealSpec {
            min_victim_backlog: 4,
            max_thief_backlog: 1,
        }),
        ..ShardConfig::default()
    };
    let r = run_sharded(&tenants, &wl, &cfg);
    let scan = ShardConfig {
        mode: SelectMode::LinearScan,
        ..cfg
    };
    assert_eq!(r, run_sharded(&tenants, &wl, &scan));
    assert_eq!(r, run_sharded_threaded(&tenants, &wl, &cfg, 3));
    assert_eq!(r.lost_requests(), 0);
    assert_eq!(
        (
            r.total_submitted,
            r.total_completed,
            r.total_rejected,
            r.batches
        ),
        golden_totals(),
        "recurrence drift: if this change is intentional, update golden_totals()"
    );
}

/// The pinned totals of [`golden_sharded_run_is_pinned`]: kept in one
/// place so a legitimate recurrence change updates a single line.
fn golden_totals() -> (u64, u64, u64, u64) {
    (87, 87, 0, 63)
}

//! Bridges from the serving report to the `autohet-obs` substrate, one
//! function per job: per-window telemetry as a [`Series`] table
//! ([`window_series`]), run totals mirrored into a metrics [`Registry`]
//! ([`publish_report`]), and the report's window stream and events
//! evaluated through the deterministic alert engine
//! ([`alert_timeline`]). Each works on a report of either pick rule.

use crate::report::ServingReport;
use crate::shard::{autoscale_rules, AutoscaleSpec};
use autohet_obs::alert::{AlertEngine, AlertRule, AlertTimeline, BurnRateRule, ThresholdRule};
use autohet_obs::{Registry, Series};

/// Column schema of [`window_series`] (name, unit), kept in one place so
/// docs and exporters cannot drift apart.
pub const WINDOW_COLUMNS: [(&str, &str); 14] = [
    ("window", ""),
    ("start", "ns"),
    ("end", "ns"),
    ("submitted", "req"),
    ("rejected", "req"),
    ("completed", "req"),
    ("batches", ""),
    ("mean_batch_size", "req"),
    ("batch_occupancy", ""),
    ("slo_attainment", ""),
    ("mean_queue_depth", "req"),
    ("peak_queue_depth", "req"),
    ("downtime", "ns"),
    ("fairness", ""),
];

/// The report's per-window telemetry as a time-series table (one row per
/// window, columns per [`WINDOW_COLUMNS`]). Empty when the run was
/// configured without telemetry windows.
pub fn window_series(report: &ServingReport) -> Series {
    let mut s = Series::new("serving_windows", &WINDOW_COLUMNS);
    for w in &report.windows {
        s.push(vec![
            w.index as f64,
            w.start_ns as f64,
            w.end_ns as f64,
            w.submitted as f64,
            w.rejected as f64,
            w.completed as f64,
            w.batches as f64,
            w.mean_batch_size,
            w.batch_occupancy,
            w.slo_attainment,
            w.mean_queue_depth,
            w.peak_queue_depth as f64,
            w.downtime_ns as f64,
            w.fairness_index,
        ]);
    }
    s
}

/// Mirror a serving run's totals into `registry` under `prefix`:
/// counters for request accounting, batches and steal/scale/swap events,
/// gauges for shards and final replicas, and the merged latency
/// distribution as a `{prefix}.latency_ns` histogram (same log₂ binning
/// on both sides).
pub fn publish_report(report: &ServingReport, registry: &Registry, prefix: &str) {
    let c = |name: &str, v: u64| registry.counter(&format!("{prefix}.{name}")).add(v);
    let scale = |up: bool| report.scale_events.iter().filter(|e| e.up == up).count() as u64;
    c("submitted", report.total_submitted);
    c("completed", report.total_completed);
    c("rejected", report.total_rejected);
    c("failed", report.total_failed);
    c("retried", report.total_retried);
    c("batches", report.batches);
    c("steals", report.steal_events.len() as u64);
    c("swaps", report.swap_events.len() as u64);
    c("scale_ups", scale(true));
    c("scale_downs", scale(false));
    let g = |name: &str, v: usize| registry.gauge(&format!("{prefix}.{name}")).set(v as i64);
    g("shards", report.shards);
    g("replicas", report.replicas_final);
    registry
        .histogram(&format!("{prefix}.latency_ns"))
        .merge_bins(&report.overall_histogram().bins);
}

/// Alert rules evaluated over a serving run's per-window telemetry (see
/// [`alert_timeline`]). The configuration lives outside
/// [`ServeConfig`](crate::sim::ServeConfig) (which stays `Copy + Eq`):
/// alerting is a post-hoc, read-only pass over the report, so it cannot
/// perturb the simulation by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeAlertConfig {
    /// SLO attainment target per window; the burn-rate rule watches the
    /// error fraction `1 − slo_attainment` against budget `1 − target`.
    pub slo_target: f64,
    /// Burn-rate multiple that fires the SLO rule.
    pub burn_factor: f64,
    /// Fast burn window [telemetry windows].
    pub short_windows: usize,
    /// Slow burn window [telemetry windows].
    pub long_windows: usize,
    /// Mean aggregate queue depth above which the saturation rule trips.
    pub queue_depth_limit: f64,
    /// Clean windows before a firing rule resolves.
    pub clear_windows: usize,
}

impl Default for ServeAlertConfig {
    fn default() -> Self {
        ServeAlertConfig {
            slo_target: 0.95,
            burn_factor: 2.0,
            short_windows: 1,
            long_windows: 4,
            queue_depth_limit: 32.0,
            clear_windows: 2,
        }
    }
}

/// Names of the rules [`alert_timeline`] installs.
pub const SLO_BURN_RULE: &str = "serve.slo_burn";
/// See [`SLO_BURN_RULE`].
pub const QUEUE_SATURATION_RULE: &str = "serve.queue_saturation";
/// See [`SLO_BURN_RULE`].
pub const DOWNTIME_RULE: &str = "serve.downtime";

/// Evaluate a serving report through the deterministic alert engine and
/// return the resulting timeline.
///
/// Each [`WindowStats`](crate::report::WindowStats) is observed at its
/// `end_ns` with its SLO error fraction (the burn-rate rule), its
/// time-weighted mean aggregate queue depth (the saturation rule) and its
/// replica downtime (the downtime rule, which fires only on downtime
/// above 0), together with the window's [`EpochSignal`]. With an
/// `autoscale` spec the *exact* autoscaler rules replay over those
/// signals — the runtime recorded its own inputs, so the replay's
/// pending → firing → resolved transitions match what the autoscaler
/// acted on, barrier for barrier. Every recorded event lands on the same
/// timeline as an annotation: health transitions (`health.trip`,
/// `health.recal`, …, valued by replica id), `scale.up`/`scale.down`
/// (active replicas after), `steal` and `swap` (tenant id). Because the
/// evaluation runs over the finished report on simulated time only, the
/// timeline is bit-identical across runs, and producing it cannot change
/// the report.
///
/// [`EpochSignal`]: crate::shard::EpochSignal
pub fn alert_timeline(
    report: &ServingReport,
    cfg: &ServeAlertConfig,
    autoscale: Option<&AutoscaleSpec>,
) -> AlertTimeline {
    let mut engine = AlertEngine::new()
        .with_rule(AlertRule::BurnRate(
            BurnRateRule::new(SLO_BURN_RULE, "err_frac", cfg.slo_target, cfg.burn_factor)
                .windows(cfg.short_windows, cfg.long_windows)
                .clear_samples(cfg.clear_windows),
        ))
        .with_rule(AlertRule::Threshold(
            ThresholdRule::above(
                QUEUE_SATURATION_RULE,
                "mean_queue_depth",
                cfg.queue_depth_limit,
            )
            .clear_samples(cfg.clear_windows),
        ))
        .with_rule(AlertRule::Threshold(
            ThresholdRule::above(DOWNTIME_RULE, "downtime_ns", 0.0)
                .clear_samples(cfg.clear_windows),
        ));
    for rule in autoscale.map(autoscale_rules).unwrap_or_default() {
        engine.add_rule(rule);
    }
    for (i, w) in report.windows.iter().enumerate() {
        let mut signals = vec![
            ("err_frac", 1.0 - w.slo_attainment),
            ("mean_queue_depth", w.mean_queue_depth),
            ("downtime_ns", w.downtime_ns as f64),
        ];
        if let Some(sig) = report.epoch_signals.get(i) {
            signals.push(("epoch_queue_depth", sig.mean_queue_depth));
            signals.push(("epoch_slo", sig.slo_attainment));
        }
        engine.observe(w.end_ns, &signals);
    }
    for e in &report.health_events {
        let label = format!("health.{}", e.kind.label());
        engine.annotate(e.t_ns, &label, e.replica as f64);
    }
    for e in &report.scale_events {
        let label = if e.up { "scale.up" } else { "scale.down" };
        engine.annotate(e.t_ns, label, e.active_after as f64);
    }
    for e in &report.steal_events {
        engine.annotate(e.t_ns, "steal", e.tenant as f64);
    }
    for e in &report.swap_events {
        engine.annotate(e.t_ns, "swap", e.tenant as f64);
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::sim::{run_serving, ServeConfig};
    use crate::workload::{TenantSpec, Workload};
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn report(windows: usize) -> ServingReport {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        let d = Deployment::compile("lenet", &m, &strategy, &AccelConfig::default());
        let rate = 0.7 * d.max_rate_rps();
        let slo = (8.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("lenet", d, rate, slo)];
        let wl = Workload {
            seed: 7,
            horizon_ns: (1_000.0 / rate * 1e9) as u64,
        };
        let cfg = ServeConfig {
            telemetry_windows: windows,
            ..ServeConfig::default()
        };
        run_serving(&tenants, &wl, &cfg)
    }

    #[test]
    fn windows_partition_the_run() {
        let r = report(8);
        assert_eq!(r.windows.len(), 8);
        // Window accounting conserves the run totals.
        let submitted: u64 = r.windows.iter().map(|w| w.submitted).sum();
        let rejected: u64 = r.windows.iter().map(|w| w.rejected).sum();
        let completed: u64 = r.windows.iter().map(|w| w.completed).sum();
        let batches: u64 = r.windows.iter().map(|w| w.batches).sum();
        assert_eq!(submitted, r.tenants[0].submitted);
        assert_eq!(rejected, r.total_rejected);
        assert_eq!(completed, r.total_completed);
        assert_eq!(batches, r.batches);
        // Window histograms merge to the overall distribution.
        let mut merged = crate::report::LatencyHistogram::new();
        for w in &r.windows {
            merged.merge(&w.histogram);
        }
        assert_eq!(merged, r.overall_histogram());
        // Windows tile [0, horizon) contiguously.
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert_eq!(w.end_ns - w.start_ns, r.windows[0].end_ns);
            if i > 0 {
                assert_eq!(w.start_ns, r.windows[i - 1].end_ns);
            }
            assert!(w.slo_attainment >= 0.0 && w.slo_attainment <= 1.0);
            assert!(w.batch_occupancy >= 0.0 && w.batch_occupancy <= 1.0);
            assert!(w.mean_queue_depth >= 0.0);
        }
    }

    #[test]
    fn window_telemetry_does_not_perturb_the_rest_of_the_report() {
        let off = report(0);
        let on = report(8);
        assert!(off.windows.is_empty());
        assert_eq!(off.tenants, on.tenants);
        assert_eq!(off.batches, on.batches);
        assert_eq!(off.makespan_ns, on.makespan_ns);
        assert_eq!(off.total_energy_nj, on.total_energy_nj);
    }

    #[test]
    fn series_has_one_row_per_window() {
        let r = report(6);
        let s = window_series(&r);
        assert_eq!(s.len(), 6);
        assert_eq!(s.columns.len(), WINDOW_COLUMNS.len());
        let csv = s.to_csv();
        assert!(csv.starts_with("window,start[ns],end[ns],"));
        assert_eq!(csv.lines().count(), 7);
        assert_eq!(s.to_jsonl().lines().count(), 6);
    }

    #[test]
    fn publish_mirrors_totals_and_latencies() {
        let r = report(4);
        let reg = Registry::new();
        publish_report(&r, &reg, "serve");
        assert_eq!(reg.counter("serve.completed").get(), r.total_completed);
        assert_eq!(reg.counter("serve.batches").get(), r.batches);
        assert_eq!(reg.gauge("serve.replicas").get(), r.replicas as i64);
        assert_eq!(reg.counter("serve.submitted").get(), r.total_submitted);
        let h = reg.histogram("serve.latency_ns");
        assert_eq!(h.count(), r.total_completed);
        assert_eq!(h.bins(), r.overall_histogram().bins);
    }

    /// A report skeleton with hand-written windows, for driving the alert
    /// rules through exact signal sequences.
    fn synthetic_report(windows: Vec<crate::report::WindowStats>) -> ServingReport {
        ServingReport {
            seed: 0,
            horizon_ns: windows.len() as u64 * 1_000,
            makespan_ns: windows.len() as u64 * 1_000,
            shards: 1,
            epochs: windows.len(),
            replicas: 1,
            replicas_final: 1,
            replicas_peak: 1,
            batches: 0,
            mean_batch_size: 0.0,
            total_submitted: 0,
            total_completed: 0,
            total_rejected: 0,
            total_failed: 0,
            total_retried: 0,
            total_errored: 0,
            replica_downtime_ns: vec![0],
            replica_trips: vec![0],
            replica_recals: vec![0],
            replica_remaps: vec![0],
            replica_recovery_ns: vec![0],
            total_energy_nj: 0.0,
            aggregate_throughput_rps: 0.0,
            fairness_index: 1.0,
            tenants: Vec::new(),
            shard_stats: Vec::new(),
            windows,
            epoch_signals: Vec::new(),
            health_events: Vec::new(),
            scale_events: Vec::new(),
            steal_events: Vec::new(),
            swap_events: Vec::new(),
        }
    }

    fn win(index: usize, slo_attainment: f64, depth: f64) -> crate::report::WindowStats {
        crate::report::WindowStats {
            index,
            start_ns: index as u64 * 1_000,
            end_ns: (index as u64 + 1) * 1_000,
            submitted: 10,
            rejected: 0,
            completed: 10,
            batches: 2,
            mean_batch_size: 5.0,
            batch_occupancy: 0.6,
            slo_attainment,
            mean_queue_depth: depth,
            peak_queue_depth: depth.ceil() as u64,
            downtime_ns: 0,
            fairness_index: 1.0,
            histogram: crate::report::LatencyHistogram::new(),
        }
    }

    #[test]
    fn slo_burn_fires_under_sustained_violation_and_resolves() {
        // Healthy, then four windows at 60% attainment (err 0.4, budget
        // 0.05 → burn 8 ≥ 2), then healthy again.
        let mut windows = vec![win(0, 1.0, 1.0), win(1, 1.0, 1.0)];
        for i in 2..6 {
            windows.push(win(i, 0.6, 1.0));
        }
        for i in 6..10 {
            windows.push(win(i, 1.0, 1.0));
        }
        let t = alert_timeline(
            &synthetic_report(windows),
            &ServeAlertConfig::default(),
            None,
        );
        let slo = t.for_rule(SLO_BURN_RULE);
        let kinds: Vec<&str> = slo.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["firing", "resolved"]);
        // Fired at the end of the first bad window, resolved two clean
        // windows after the violation stopped.
        assert_eq!(slo[0].t_ns, 3_000);
        assert!(slo[1].t_ns > slo[0].t_ns);
        // Queue depth stayed calm: no saturation events.
        assert!(t.for_rule(QUEUE_SATURATION_RULE).is_empty());
    }

    #[test]
    fn queue_saturation_rule_watches_mean_depth() {
        let windows = vec![
            win(0, 1.0, 2.0),
            win(1, 1.0, 50.0),
            win(2, 1.0, 40.0),
            win(3, 1.0, 1.0),
            win(4, 1.0, 1.0),
        ];
        let t = alert_timeline(
            &synthetic_report(windows),
            &ServeAlertConfig::default(),
            None,
        );
        let sat = t.for_rule(QUEUE_SATURATION_RULE);
        let kinds: Vec<&str> = sat.iter().map(|e| e.kind.label()).collect();
        assert_eq!(kinds, ["firing", "resolved"]);
        assert_eq!(sat[0].t_ns, 2_000);
        assert_eq!(sat[0].value, 50.0);
        assert_eq!(sat[1].t_ns, 5_000);
    }

    #[test]
    fn health_events_become_annotations_on_the_timeline() {
        use crate::sim::{HealthEvent, HealthEventKind};
        let mut r = synthetic_report(vec![win(0, 1.0, 1.0)]);
        r.health_events = vec![
            HealthEvent {
                t_ns: 400,
                replica: 2,
                kind: HealthEventKind::Trip,
            },
            HealthEvent {
                t_ns: 700,
                replica: 2,
                kind: HealthEventKind::Recal,
            },
        ];
        let t = alert_timeline(&r, &ServeAlertConfig::default(), None);
        let trips = t.for_rule("health.trip");
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].t_ns, 400);
        assert_eq!(trips[0].value, 2.0);
        assert_eq!(t.for_rule("health.recal").len(), 1);
        // Annotations sort into the timeline before the window sample.
        assert_eq!(t.events[0].t_ns, 400);
    }

    #[test]
    fn real_run_alert_timeline_is_deterministic_and_records_recovery() {
        use crate::sim::HealthSpec;
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        let d = Deployment::compile("lenet", &m, &strategy, &AccelConfig::default());
        let rate = 0.7 * d.max_rate_rps();
        let slo = (8.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("lenet", d, rate, slo)];
        let wl = Workload {
            seed: 7,
            horizon_ns: (2_000.0 / rate * 1e9) as u64,
        };
        let cfg = ServeConfig {
            replicas: 2,
            telemetry_windows: 8,
            health: Some(HealthSpec {
                err_ppm_per_ms: 30_000,
                ..HealthSpec::default()
            }),
            ..ServeConfig::default()
        };
        let acfg = ServeAlertConfig::default();
        let single = run_serving(&tenants, &wl, &cfg);
        assert!(
            !single.health_events.is_empty(),
            "drift config too tame to produce health events"
        );
        let t1 = alert_timeline(&single, &acfg, None);
        let t2 = alert_timeline(&run_serving(&tenants, &wl, &cfg), &acfg, None);
        assert_eq!(t1, t2, "identical runs must yield identical timelines");
        assert!(!t1.for_rule("health.trip").is_empty());
        // Timestamps are sorted.
        assert!(t1.events.windows(2).all(|p| p[0].t_ns <= p[1].t_ns));
    }
}

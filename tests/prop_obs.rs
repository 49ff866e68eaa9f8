//! Property-based bit-identity of the observability layer (proptest):
//! enabling the global tracer must not change a single bit of any
//! evaluation, search, or serving result. Spans only *observe* — the
//! recorder sits outside every simulated quantity, so results with the
//! recorder on and off are compared with exact equality, not tolerance.

use autohet::prelude::*;
use autohet_dnn::{Dataset, ModelBuilder};
use autohet_rl::DdpgConfig;
use proptest::prelude::*;
use std::sync::Mutex;

/// The tracer is process-wide, so the three properties below must not
/// interleave their enable/disable windows.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

/// A small but non-degenerate model for the search/serving properties.
fn small_model() -> autohet_dnn::Model {
    ModelBuilder::new("prop-obs-net", Dataset::Mnist)
        .conv(8, 3)
        .conv(16, 3)
        .fc(64)
        .fc(10)
        .build()
}

/// Run `f` twice — recorder off, then recorder on — and return both
/// results for exact comparison. Always leaves the tracer disabled and
/// drained.
fn with_and_without_tracer<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let tracer = autohet_obs::trace::global();
    tracer.disable();
    tracer.drain();
    let off = f();
    tracer.enable(4096);
    let on = f();
    tracer.disable();
    // The instrumented paths must actually have recorded something,
    // otherwise this file tests nothing.
    let events = tracer.drain();
    assert!(!events.is_empty(), "tracer enabled but no spans recorded");
    (off, on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // engine.evaluate / engine.compose spans leave the report untouched.
    #[test]
    fn evaluation_is_bit_identical_with_the_recorder_on(
        pick in prop::collection::vec(0usize..5, 4),
        shared in any::<bool>(),
    ) {
        let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = small_model();
        let cfg = if shared {
            AccelConfig::default().with_tile_sharing()
        } else {
            AccelConfig::default()
        };
        let cands = paper_hybrid_candidates();
        let strategy: Vec<XbarShape> =
            pick.iter().map(|&i| cands[i % cands.len()]).collect();
        let (off, on) = with_and_without_tracer(|| {
            EvalEngine::new(model.clone(), cfg).evaluate(&strategy)
        });
        prop_assert_eq!(&off, &on);
        // The instrumented engine path and the direct evaluation agree.
        prop_assert_eq!(off, evaluate(&model, &strategy, &cfg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // A full DDPG search under span recording: same strategy, same
    // report, same per-episode history (including cache-hit rates —
    // each run gets a fresh engine, so the deltas line up too).
    #[test]
    fn rl_search_is_bit_identical_with_the_recorder_on(seed in 0u64..1_000) {
        let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = small_model();
        let cfg = AccelConfig::default().with_tile_sharing();
        let cands = paper_hybrid_candidates();
        let scfg = RlSearchConfig {
            episodes: 8,
            ddpg: DdpgConfig {
                seed,
                hidden: 16,
                batch: 16,
                ..DdpgConfig::default()
            },
            train_steps: 2,
            ..RlSearchConfig::default()
        };
        let (off, on) = with_and_without_tracer(|| rl_search(&model, &cands, &cfg, &scfg));
        prop_assert_eq!(off.best_strategy, on.best_strategy);
        prop_assert_eq!(off.best_report, on.best_report);
        prop_assert_eq!(off.history, on.history);
        prop_assert_eq!(off.timing.cache, on.timing.cache);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A serving run — including the per-window telemetry, which lives in
    // the simulated accounting, not the recorder — is unchanged by the
    // tracer.
    #[test]
    fn serving_is_bit_identical_with_the_recorder_on(
        seed in 0u64..1_000_000,
        windows in 0usize..6,
    ) {
        let _g = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = small_model();
        let strategy = vec![XbarShape::square(64); model.layers.len()];
        let d = Deployment::compile("prop-obs", &model, &strategy, &AccelConfig::default());
        let rate = 0.8 * d.max_rate_rps();
        let slo = (6.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("prop-obs", d, rate, slo)];
        let wl = Workload {
            seed,
            horizon_ns: (200.0 / rate * 1e9) as u64,
        };
        let cfg = ServeConfig {
            telemetry_windows: windows,
            ..ServeConfig::default()
        };
        let (off, on) = with_and_without_tracer(|| run_serving(&tenants, &wl, &cfg));
        prop_assert_eq!(off, on);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The alert engine is a post-hoc pass over the report: evaluating it
    // must not perturb the serving results, and the timeline itself must
    // be deterministic across repeated runs, even with drift + recovery
    // emitting health annotations onto it.
    #[test]
    fn alert_timeline_is_deterministic(
        seed in 0u64..1_000_000,
        drift in any::<bool>(),
    ) {
        let model = small_model();
        let strategy = vec![XbarShape::square(64); model.layers.len()];
        let d = Deployment::compile("prop-obs", &model, &strategy, &AccelConfig::default());
        let rate = 0.8 * d.max_rate_rps();
        let slo = (6.0 * d.pipeline.fill_ns) as u64;
        let tenants = vec![TenantSpec::new("prop-obs", d, rate, slo)];
        let wl = Workload {
            seed,
            horizon_ns: (200.0 / rate * 1e9) as u64,
        };
        let cfg = ServeConfig {
            replicas: 2,
            telemetry_windows: 6,
            health: drift.then(|| HealthSpec {
                err_ppm_per_ms: 30_000,
                ..HealthSpec::default()
            }),
            ..ServeConfig::default()
        };
        let acfg = ServeAlertConfig::default();
        let plain = run_serving(&tenants, &wl, &cfg);
        // Evaluating the timeline reads the report; the report must be
        // exactly the one an alert-free consumer would see.
        let t1 = alert_timeline(&plain, &acfg, None);
        prop_assert_eq!(&plain, &run_serving(&tenants, &wl, &cfg));
        // Identical runs land every alert and health annotation on the
        // same simulated-time instants.
        prop_assert_eq!(&t1, &alert_timeline(&run_serving(&tenants, &wl, &cfg), &acfg, None));
        // Timeline events are emitted in simulated-time order.
        prop_assert!(t1.events.windows(2).all(|p| p[0].t_ns <= p[1].t_ns));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Tapping the vectorized search — streaming every episode row through
    // a sink and feeding a reward-stall detector — must not change a bit
    // of the outcome, and must stream exactly one row per episode.
    #[test]
    fn tapped_vec_search_is_bit_identical(seed in 0u64..1_000) {
        let model = small_model();
        let cfg = AccelConfig::default().with_tile_sharing();
        let cands = paper_hybrid_candidates();
        let scfg = RlSearchConfig {
            episodes: 8,
            ddpg: DdpgConfig {
                seed,
                hidden: 16,
                batch: 16,
                ..DdpgConfig::default()
            },
            train_steps: 2,
            ..RlSearchConfig::default()
        };
        let lanes = 2;
        let engine = || std::sync::Arc::new(EvalEngine::new(model.clone(), cfg));
        let (plain, _) = rl_search_vec_with_stats(&model, &cands, &cfg, &scfg, lanes, engine());
        let sink = autohet_obs::MemorySink::new();
        let mut stream = EpisodeStream::new("prop", Box::new(sink.clone()));
        let mut stall = StallDetector::new(3, 1e-9);
        let mut tap = SearchTap {
            episodes: Some(&mut stream),
            stall: Some(&mut stall),
        };
        let (tapped, _) =
            rl_search_vec_tapped(&model, &cands, &cfg, &scfg, lanes, engine(), &mut tap);
        prop_assert_eq!(plain.best_strategy, tapped.best_strategy);
        prop_assert_eq!(plain.best_report, tapped.best_report);
        // Every history field but the cache hit rate must match bit for
        // bit. The two lanes evaluate via `par_map` on one shared engine,
        // so whether both miss on a key they look up together or one hits
        // depends on thread interleaving: the hit rate is a measurement,
        // only range-checked.
        let bits = |h: &EpisodeRecord| {
            assert!((0.0..=1.0).contains(&h.cache_hit_rate));
            let fields = [h.rue, h.reward, h.utilization, h.energy_nj];
            (h.episode, fields.map(f64::to_bits))
        };
        let plain_bits: Vec<_> = plain.history.iter().map(bits).collect();
        let tapped_bits: Vec<_> = tapped.history.iter().map(bits).collect();
        prop_assert_eq!(plain_bits, tapped_bits);
        stream.flush();
        prop_assert_eq!(sink.lines().len(), plain.history.len());
    }
}

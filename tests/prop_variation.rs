//! Property-based contracts of the device-variation subsystem
//! (DESIGN.md §11): the packed variation MVM must be **bit-identical**
//! to the retained scalar-variation reference for every shape / seed /
//! operation-unit size / ADC resolution, the Monte-Carlo robustness
//! oracle must be a pure function of its seeds, and NSGA-II fronts must
//! honour their dominance invariants.

use autohet::pareto::dominates_min;
use autohet::prelude::*;
use autohet::robust::NsgaConfig;
use autohet_accel::robustness::layer_noise;
use autohet_dnn::Layer;
use autohet_xbar::{Adc, CostParams, Crossbar, VariedCrossbar, XbarShape};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A programmed 1-bit-cell crossbar of arbitrary geometry with one
/// sampled variation draw, an input vector, and an ADC resolution.
/// Shapes run up to the paper's 108×64 bit-serial configuration and unit
/// sizes over every supported S_ou.
fn arb_varied() -> impl Strategy<Value = (Crossbar, VariedCrossbar, Vec<u8>, u32)> {
    (
        1usize..=108,
        1usize..=64,
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        2u32..=12,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(rows, cols, s_ou, adc_bits, weight_seed, draw_seed)| {
            let mut rng = SmallRng::seed_from_u64(weight_seed);
            let weights: Vec<Vec<i32>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(-127..=127)).collect())
                .collect();
            let shape = XbarShape::new(rows.next_power_of_two().max(4) as u32, cols as u32);
            let xb = Crossbar::program(shape, &weights, 8);
            let model = VariationModel {
                s_ou,
                ..VariationModel::hypermetric()
            };
            let varied = VariedCrossbar::sample(&xb, &model, draw_seed);
            let input: Vec<u8> = (0..rows).map(|_| rng.gen()).collect();
            (xb, varied, input, adc_bits)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Packed LUT fast path == scalar per-threshold reference, bit for
    // bit, across shapes, seeds, unit sizes and saturating ADCs.
    #[test]
    fn packed_variation_mvm_matches_scalar_reference(
        (_xb, varied, input, adc_bits) in arb_varied(),
    ) {
        let adc = Adc::new(adc_bits);
        prop_assert_eq!(varied.mvm(&input, &adc), varied.mvm_scalar(&input, &adc));
    }

    // Sampling is a pure function of (crossbar, model, seed).
    #[test]
    fn variation_sampling_is_seed_deterministic(
        (xb, varied, input, adc_bits) in arb_varied(),
        other_seed in any::<u64>(),
    ) {
        let again = VariedCrossbar::sample(&xb, varied.model(), 0xD5AA_11CE);
        let twice = VariedCrossbar::sample(&xb, varied.model(), 0xD5AA_11CE);
        let adc = Adc::new(adc_bits);
        prop_assert_eq!(again.mvm(&input, &adc), twice.mvm(&input, &adc));
        // And an ideal draw reproduces the noise-free crossbar exactly,
        // whatever the seed.
        let exact = VariedCrossbar::sample(&xb, &VariationModel {
            s_ou: varied.model().s_ou,
            ..VariationModel::ideal()
        }, other_seed);
        prop_assert_eq!(exact.mvm(&input, &adc), xb.mvm(&input, &adc));
    }

    // The Monte-Carlo noise oracle is deterministic in its config and
    // independent of evaluation order or engine sharing.
    #[test]
    fn layer_noise_is_seed_deterministic(
        cin in 1usize..=6,
        cout in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let layer = Layer::conv(0, cin, cout, 3, 1, 1, 8);
        let cfg = NoiseEvalConfig {
            draws: 2,
            probes: 2,
            seed,
            ..NoiseEvalConfig::default()
        };
        let cost = CostParams::default();
        let shape = XbarShape::new(72, 64);
        let a = layer_noise(&layer, shape, &cost, &cfg);
        let b = layer_noise(&layer, shape, &cost, &cfg);
        prop_assert_eq!(a.mean_dev.to_bits(), b.mean_dev.to_bits());
        prop_assert_eq!(a.worst_dev.to_bits(), b.worst_dev.to_bits());
        prop_assert_eq!(a.exact_rate.to_bits(), b.exact_rate.to_bits());
        prop_assert_eq!(a.argmax_rate.to_bits(), b.argmax_rate.to_bits());
    }
}

fn quick_nsga() -> NsgaConfig {
    NsgaConfig {
        population: 8,
        generations: 2,
        seed: 5,
        ..NsgaConfig::default()
    }
}

fn quick_noise(scale: f64) -> NoiseEvalConfig {
    NoiseEvalConfig {
        variation: VariationModel::hypermetric().with_deviation_scale(scale),
        draws: 2,
        probes: 2,
        ..NoiseEvalConfig::default()
    }
}

/// No member of a final NSGA front may dominate another, whatever the
/// noise level; duplicated strategies never survive deduplication.
#[test]
fn nsga_front_members_are_mutually_non_dominated() {
    let m = autohet_dnn::zoo::micro_cnn();
    for scale in [1.0, 0.5] {
        let out = nsga_search(
            &EvalEngine::new(m.clone(), AccelConfig::default()).with_noise(quick_noise(scale)),
            &paper_hybrid_candidates(),
            &quick_nsga(),
        );
        assert!(!out.front.is_empty());
        for a in &out.front {
            for b in &out.front {
                assert!(
                    !dominates_min(&a.objectives(), &b.objectives())
                        || a.objectives() == b.objectives(),
                    "front member dominated at scale {scale}"
                );
            }
        }
        for (i, a) in out.front.iter().enumerate() {
            for b in &out.front[i + 1..] {
                assert_ne!(a.strategy, b.strategy, "duplicate strategy on front");
            }
        }
    }
}

/// Tightening the device deviations can only shrink the front's noise
/// axis: the best (and worst) front noise deviation is non-increasing as
/// the lognormal sigmas scale down, and a zero-deviation model collapses
/// the axis to exactly 0 (where the 3-objective front degenerates to the
/// 2-objective energy × latency trade-off).
#[test]
fn fronts_shrink_monotonically_under_tighter_noise() {
    let m = autohet_dnn::zoo::micro_cnn();
    let run = |scale: f64| {
        nsga_search(
            &EvalEngine::new(m.clone(), AccelConfig::default()).with_noise(quick_noise(scale)),
            &paper_hybrid_candidates(),
            &quick_nsga(),
        )
    };
    let fronts: Vec<_> = [1.0, 0.5, 0.0].iter().map(|&s| run(s)).collect();
    let worst = |o: &RobustSearchOutcome| o.front.iter().map(|p| p.noise_dev).fold(0.0, f64::max);
    let best = |o: &RobustSearchOutcome| {
        o.front
            .iter()
            .map(|p| p.noise_dev)
            .fold(f64::INFINITY, f64::min)
    };
    for w in fronts.windows(2) {
        assert!(
            worst(&w[1]) <= worst(&w[0]) + 1e-12,
            "worst front noise rose under tighter deviations"
        );
        assert!(
            best(&w[1]) <= best(&w[0]) + 1e-12,
            "best front noise rose under tighter deviations"
        );
    }
    for p in &fronts[2].front {
        assert_eq!(p.noise_dev, 0.0);
        assert_eq!(p.accuracy_proxy, 1.0);
    }
}

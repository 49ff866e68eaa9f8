//! Multi-model co-search (extension, DESIGN.md §6).
//!
//! §3.4 notes that tiles freed by sharing "become available for other
//! layers in the DNN model *or other models*". This module takes that to
//! its conclusion: several DNNs deployed on one accelerator are searched
//! *jointly* — the layer walk concatenates every model's layers, and the
//! tile-shared allocator packs all of them into one tile pool (Algorithm 1
//! groups by crossbar shape, so cross-model sharing falls out of the same
//! mechanism). Latency semantics: the models run sequentially on the
//! shared hardware, so leakage is charged over the combined runtime.

use crate::homogeneous::best_homogeneous;
use crate::search::rl::{rl_search_vec_with_stats, RlSearchConfig};
use autohet_accel::{AccelConfig, EvalEngine, EvalReport};
use autohet_dnn::{Dataset, Model};
use autohet_xbar::XbarShape;
use std::sync::Arc;

/// Concatenate several models into one "super-model" whose layers are the
/// inputs' layers re-indexed in order. Returns the model plus each input's
/// layer offset. The super-model is mapping-only (no inference pipeline).
pub fn concat_models(models: &[Model]) -> (Model, Vec<usize>) {
    assert!(!models.is_empty());
    let mut layers = Vec::new();
    let mut offsets = Vec::with_capacity(models.len());
    let mut name = String::new();
    for m in models {
        offsets.push(layers.len());
        for l in &m.layers {
            let mut l = *l;
            l.index = layers.len();
            layers.push(l);
        }
        if !name.is_empty() {
            name.push('+');
        }
        name.push_str(&m.name);
    }
    (
        Model {
            name,
            // Geometry bookkeeping only; per-layer `in_size` is already
            // baked into each layer.
            dataset: models[0].dataset,
            layers,
            stages: Vec::new(),
        },
        offsets,
    )
}

/// Split a super-model strategy back into per-model strategies.
pub fn split_strategy(
    strategy: &[XbarShape],
    models: &[Model],
    offsets: &[usize],
) -> Vec<Vec<XbarShape>> {
    models
        .iter()
        .zip(offsets)
        .map(|(m, &o)| strategy[o..o + m.layers.len()].to_vec())
        .collect()
}

/// Result of a joint search.
#[derive(Debug, Clone)]
pub struct CoSearchOutcome {
    /// Per-model strategies (indexed like the input models).
    pub strategies: Vec<Vec<XbarShape>>,
    /// Joint hardware report (shared tile pool, sequential execution).
    pub joint: EvalReport,
}

/// Jointly search strategies for several models sharing one accelerator.
/// The per-model best-homogeneous configuration (stitched together) is
/// evaluated as a floor, so co-search can only improve on deploying each
/// model's naive best side by side.
pub fn co_search(
    models: &[Model],
    candidates: &[XbarShape],
    cfg: &AccelConfig,
    scfg: &RlSearchConfig,
) -> CoSearchOutcome {
    let shared = cfg.with_tile_sharing();
    let (joint_model, offsets) = concat_models(models);
    let engine = Arc::new(EvalEngine::new(joint_model.clone(), shared));

    let (outcome, _) = rl_search_vec_with_stats(
        &joint_model,
        candidates,
        &shared,
        scfg,
        1,
        Arc::clone(&engine),
    );

    // Floor: each model on its own best homogeneous shape, co-located.
    let mut stitched = Vec::with_capacity(joint_model.layers.len());
    for m in models {
        let (shape, _) = best_homogeneous(&EvalEngine::new(m.clone(), *cfg));
        stitched.extend(std::iter::repeat(shape).take(m.layers.len()));
    }
    let floor = engine.evaluate(&stitched);

    let (best_strategy, joint) = if floor.rue() > outcome.best_report.rue() {
        (stitched, floor)
    } else {
        (outcome.best_strategy, outcome.best_report)
    };

    CoSearchOutcome {
        strategies: split_strategy(&best_strategy, models, &offsets),
        joint,
    }
}

/// Sanity helper for tests/examples: a deterministic pair of small models
/// with distinct datasets.
pub fn demo_pair() -> Vec<Model> {
    let a = autohet_dnn::zoo::micro_cnn();
    let b = autohet_dnn::zoo::test_cnn();
    debug_assert_ne!(a.dataset, Dataset::ImageNet);
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;
    use autohet_accel::evaluate;
    use autohet_rl::DdpgConfig;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    fn quick() -> RlSearchConfig {
        RlSearchConfig {
            episodes: 40,
            ddpg: DdpgConfig {
                seed: 19,
                hidden: 32,
                batch: 32,
                ..DdpgConfig::default()
            },
            train_steps: 4,
            ..RlSearchConfig::default()
        }
    }

    #[test]
    fn concat_reindexes_layers() {
        let models = demo_pair();
        let (joint, offsets) = concat_models(&models);
        assert_eq!(offsets, vec![0, models[0].layers.len()]);
        assert_eq!(
            joint.layers.len(),
            models[0].layers.len() + models[1].layers.len()
        );
        for (i, l) in joint.layers.iter().enumerate() {
            assert_eq!(l.index, i);
        }
        assert_eq!(joint.name, "MicroCNN+TestCNN");
    }

    #[test]
    fn split_round_trips() {
        let models = demo_pair();
        let (joint, offsets) = concat_models(&models);
        let strategy: Vec<XbarShape> = (0..joint.layers.len())
            .map(|i| paper_hybrid_candidates()[i % 5])
            .collect();
        let split = split_strategy(&strategy, &models, &offsets);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].len(), models[0].layers.len());
        let rejoined: Vec<XbarShape> = split.concat();
        assert_eq!(rejoined, strategy);
    }

    #[test]
    fn co_search_beats_side_by_side_best_homogeneous() {
        let models = demo_pair();
        let cfg = AccelConfig::default();
        let outcome = co_search(&models, &paper_hybrid_candidates(), &cfg, &quick());
        // Floor logic guarantees ≥ stitched best-homo.
        let (joint_model, _) = concat_models(&models);
        let mut stitched = Vec::new();
        for m in &models {
            let (shape, _) = best_homogeneous(&EvalEngine::new(m.clone(), cfg));
            stitched.extend(std::iter::repeat(shape).take(m.layers.len()));
        }
        let floor = evaluate(&joint_model, &stitched, &cfg.with_tile_sharing());
        assert!(outcome.joint.rue() >= floor.rue());
        assert_eq!(outcome.strategies.len(), 2);
    }

    #[test]
    fn joint_pool_never_needs_more_tiles_than_separate_pools() {
        let models = demo_pair();
        let shared = AccelConfig::default().with_tile_sharing();
        let shape = XbarShape::new(72, 64);
        let (joint_model, _) = concat_models(&models);
        let joint = evaluate(
            &joint_model,
            &vec![shape; joint_model.layers.len()],
            &shared,
        );
        let separate: u64 = models
            .iter()
            .map(|m| evaluate(m, &vec![shape; m.layers.len()], &shared).tiles)
            .sum();
        assert!(joint.tiles <= separate);
    }
}

//! Multi-tenant deployment: two DNNs co-resident on one heterogeneous
//! accelerator (extension of §3.4's "other models" remark).
//!
//! Jointly searches crossbar strategies for both models with a shared
//! tile pool, compares against deploying each model's best homogeneous
//! configuration side by side, and persists the winning strategies.
//!
//! ```sh
//! cargo run --release -p autohet --example multi_tenant
//! ```

use autohet::multi_model::{co_search, concat_models};
use autohet::persist::{load_strategy, save_strategy};
use autohet::prelude::*;
use autohet_rl::DdpgConfig;

fn main() {
    let models = vec![autohet_dnn::zoo::alexnet(), autohet_dnn::zoo::lenet5()];
    let cfg = AccelConfig::default();
    let scfg = RlSearchConfig {
        episodes: 120,
        ddpg: DdpgConfig {
            seed: 3,
            ..DdpgConfig::default()
        },
        ..RlSearchConfig::default()
    };

    println!(
        "co-searching {} + {} on one accelerator ({} episodes)...\n",
        models[0].name, models[1].name, scfg.episodes
    );
    let outcome = co_search(&models, &paper_hybrid_candidates(), &cfg, &scfg);

    // Side-by-side baseline for comparison.
    let (joint_model, _) = concat_models(&models);
    let mut stitched = Vec::new();
    for m in &models {
        let (shape, _) = best_homogeneous(&EvalEngine::new(m.clone(), cfg));
        println!("  {} best homogeneous: {shape}", m.name);
        stitched.extend(std::iter::repeat(shape).take(m.layers.len()));
    }
    let baseline = evaluate(&joint_model, &stitched, &cfg.with_tile_sharing());

    println!(
        "\n{:>22} {:>10} {:>8} {:>12}",
        "deployment", "RUE", "util %", "tiles"
    );
    println!(
        "{:>22} {:>10.3e} {:>8.1} {:>12}",
        "side-by-side homo",
        baseline.rue(),
        baseline.utilization_pct(),
        baseline.tiles
    );
    println!(
        "{:>22} {:>10.3e} {:>8.1} {:>12}",
        "co-searched hetero",
        outcome.joint.rue(),
        outcome.joint.utilization_pct(),
        outcome.joint.tiles
    );
    println!(
        "\njoint RUE improvement: {:.2}x",
        outcome.joint.rue() / baseline.rue()
    );

    // Persist per-model strategies (the paper's search-once workflow).
    let dir = std::env::temp_dir();
    for (m, strategy) in models.iter().zip(&outcome.strategies) {
        let path = dir.join(format!("autohet_{}.strategy", m.name.to_lowercase()));
        save_strategy(
            &path,
            strategy,
            &format!("{} ({} layers)", m.name, m.layers.len()),
        )
        .expect("write strategy");
        let reloaded = load_strategy(&path).expect("read strategy");
        assert_eq!(&reloaded, strategy);
        println!("saved {} -> {}", m.name, path.display());
    }
}

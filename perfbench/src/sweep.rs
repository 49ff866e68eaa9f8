//! `eval_sweep`: seeded sets of distinct strategies through the engine's
//! evaluation paths, the only workload where `accel` composition and the
//! `xbar` variation kernels do most of the work.
//!
//! - Arm `a`: ResNet152 (156 layers) through `EvalEngine::evaluate` and
//!   `evaluate_faulted` — allocation, Algorithm 1 sharing, repair and
//!   compose.
//! - Arm `b`: micro-CNN on a cold engine with noise and drift, through
//!   `evaluate_noisy` and `evaluate_degraded` over an epoch grid × the
//!   three recovery arms — Monte-Carlo variation sampling and the packed
//!   MVM.

use crate::bench::{mix, timed, Arm, Bench, Cost, Digest, Rates, Timers};
use autohet::prelude::*;
use autohet_accel::{
    allocate_tile_based, apply_tile_sharing, layer_noise, repair_allocation, LayerNoise,
};
use autohet_dnn::{zoo, Model};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

const RESNET_STRATEGIES: usize = 96;
const MICRO_STRATEGIES: usize = 64;
const EPOCHS_H: [f64; 3] = [0.0, 2_000.0, 20_000.0];
const FAULTS: FaultRates = FaultRates {
    dead_xbar: 0.02,
    degraded_adc: 0.02,
    adc_bits_lost: 2,
};

struct Setup {
    resnet: Model,
    micro: Model,
    cfg: AccelConfig,
    /// ResNet152 strategies with their fault-map seeds.
    big: Vec<(Vec<XbarShape>, u64)>,
    small: Vec<Vec<XbarShape>>,
}

/// `n` distinct strategies for `model` over `candidates`, drawn from `seed`.
fn strategies(model: &Model, candidates: &[XbarShape], n: usize, seed: u64) -> Vec<Vec<XbarShape>> {
    let layers = model.layers.len();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut draw = seed;
    while out.len() < n {
        let s: Vec<XbarShape> = (0..layers)
            .map(|_| {
                draw = mix(draw);
                candidates[(draw % candidates.len() as u64) as usize]
            })
            .collect();
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    out
}

impl Setup {
    fn build(seed: u64) -> Setup {
        let resnet = zoo::resnet152();
        let micro = zoo::micro_cnn();
        let big = strategies(
            &resnet,
            &paper_hybrid_candidates(),
            RESNET_STRATEGIES,
            mix(seed ^ 0xB16),
        )
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, mix(seed ^ (i as u64) << 20)))
        .collect();
        let small = strategies(
            &micro,
            &all_candidates(),
            MICRO_STRATEGIES,
            mix(seed ^ 0x5A11),
        );
        Setup {
            resnet,
            micro,
            cfg: AccelConfig::default().with_tile_sharing(),
            big,
            small,
        }
    }

    fn noisy_engine(&self) -> EvalEngine {
        EvalEngine::new(self.micro.clone(), self.cfg)
            .with_noise(NoiseEvalConfig::default())
            .with_drift(DriftEvalConfig::default())
    }
}

/// Every simulated output of one round.
#[derive(Debug, PartialEq)]
struct Outputs {
    ideal: Vec<EvalReport>,
    faulted: Vec<FaultedEvalReport>,
    noisy: Vec<NoisyEvalReport>,
    /// In (epoch, recovery arm, strategy) order.
    degraded: Vec<DegradedEvalReport>,
}

impl Outputs {
    fn fidelity(&self) -> f64 {
        self.faulted.iter().map(|f| f.fidelity).sum::<f64>() / self.faulted.len() as f64
    }

    fn accuracy_proxy(&self) -> f64 {
        self.degraded.iter().map(|d| d.accuracy_proxy).sum::<f64>() / self.degraded.len() as f64
    }
}

/// Evaluations timed per chunk, so a burst of host noise spoils one
/// chunk time rather than a whole round.
const CHUNK: usize = 16;

/// Map `f` over `items`, pushing the cost of every `CHUNK` calls.
fn timed_chunks<T, R>(items: &[T], costs: &mut Vec<Cost>, mut f: impl FnMut(&T) -> R) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    for chunk in items.chunks(CHUNK) {
        let (results, cost) = timed(|| chunk.iter().map(&mut f).collect::<Vec<R>>());
        out.extend(results);
        costs.push(cost);
    }
    out
}

pub fn run(b: &mut Bench) {
    let seed = b.seed;
    let s = b.setup(move || Setup::build(seed));
    let policy = RepairPolicy::default();

    // Chunk times per arm, per round, in a fixed chunk order.
    let mut chunk_costs: [Vec<Vec<Cost>>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<Outputs> = None;
    let mut untraced = 0.0;
    let degraded_grid: Vec<(f64, RecoveryPolicy, &Vec<XbarShape>)> = EPOCHS_H
        .iter()
        .flat_map(|&h| RecoveryPolicy::ALL.map(|arm| (h, arm)))
        .flat_map(|(h, arm)| s.small.iter().map(move |st| (h, arm, st)))
        .collect();
    let rounds = b.rounds(1, |b, _| {
        let mut costs = [Vec::new(), Vec::new()];
        let engine = EvalEngine::new(s.resnet.clone(), s.cfg);
        let ideal = timed_chunks(&s.big, &mut costs[0], |(st, _)| engine.evaluate(st));
        let faulted = timed_chunks(&s.big, &mut costs[0], |(st, fs)| {
            engine.evaluate_faulted(st, *fs, FAULTS, &policy)
        });

        let noisy_engine = s.noisy_engine();
        b.check(
            noisy_engine.stats() == EngineStats::default(),
            "noise slices are computed on a cold engine",
        );
        let noisy = timed_chunks(&s.small, &mut costs[1], |st| {
            noisy_engine.evaluate_noisy(st)
        });
        let degraded = timed_chunks(&degraded_grid, &mut costs[1], |&(h, arm, st)| {
            noisy_engine.evaluate_degraded(st, h, arm)
        });
        b.count((ideal.len() + faulted.len() + noisy.len() + degraded.len()) as u64);
        for (arm, c) in costs.into_iter().enumerate() {
            untraced += c.iter().map(|c| c.wall).sum::<f64>();
            chunk_costs[arm].push(c);
        }

        let out = Outputs {
            ideal,
            faulted,
            noisy,
            degraded,
        };
        match &first {
            Some(f) => b.check(out == *f, "a repeated sweep is bit-identical"),
            None => {
                for ((st, _), report) in s.big.iter().zip(&out.ideal) {
                    b.check(
                        *report == autohet_accel::evaluate(&s.resnet, st, &s.cfg),
                        "EvalEngine::evaluate == accel::evaluate",
                    );
                }
                // Epoch 0 comes first, one block per recovery arm. Only
                // the provisioned spares of a repairing arm (their area)
                // may tell the report apart from the healthy one.
                let arms = RecoveryPolicy::ALL
                    .iter()
                    .flat_map(|&arm| s.small.iter().map(move |st| (arm, st)));
                for (d, (arm, st)) in out.degraded.iter().zip(arms) {
                    let healthy = noisy_engine.evaluate(st);
                    let eval = if arm.repairs() {
                        EvalReport {
                            area_um2: healthy.area_um2,
                            ..d.eval.clone()
                        }
                    } else {
                        d.eval.clone()
                    };
                    b.check(
                        eval == healthy && d.repair.is_clean() && d.fidelity == 1.0,
                        "evaluate_degraded at t = 0 == evaluate",
                    );
                }
                first = Some(out);
            }
        }
    });
    let Some(out) = first else { return };
    let mut digest = Digest::new();
    digest.add(&out);
    b.digest(digest.value());

    if !b.trace {
        b.arms(
            Arm {
                rate_name: "evals_per_s",
                rates: Rates::of_rounds((2 * s.big.len()) as f64, &chunk_costs[0]),
                quality_name: "fault_fidelity",
                quality: out.fidelity(),
            },
            Arm {
                rate_name: "noisy_evals_per_s",
                rates: Rates::of_rounds(
                    (s.small.len() + degraded_grid.len()) as f64,
                    &chunk_costs[1],
                ),
                quality_name: "accuracy_proxy",
                quality: out.accuracy_proxy(),
            },
        );
        return;
    }

    let mut t = Timers::default();
    let mut noise_calls = 0usize;
    let t0 = Instant::now();
    let traced_rounds = b.rounds(1, |b, _| {
        let engine = EvalEngine::new(s.resnet.clone(), s.cfg);
        for (st, fs) in &s.big {
            t.time("accel.evaluate_s", || engine.evaluate(st));
            t.time("accel.direct_evaluate_s", || {
                autohet_accel::evaluate(&s.resnet, st, &s.cfg)
            });
            // The steps of `evaluate_faulted` one by one.
            let mut alloc = t.time("accel.alloc_s", || {
                allocate_tile_based(&s.resnet, st, s.cfg.pes_per_tile)
            });
            t.time("accel.sharing_s", || apply_tile_sharing(&mut alloc));
            let capacities: Vec<u32> = alloc.tiles.iter().map(|tile| tile.capacity).collect();
            let faults = t.time("accel.fault_sample_s", || {
                FaultMap::sample(*fs, FAULTS, &capacities, policy.spares_per_tile)
            });
            t.time("accel.repair_s", || {
                repair_allocation(&mut alloc, &faults, &policy)
            });
            t.time("accel.evaluate_faulted_s", || {
                engine.evaluate_faulted(st, *fs, FAULTS, &policy)
            });
        }

        let noisy_engine = s.noisy_engine();
        let noisy: Vec<NoisyEvalReport> = s
            .small
            .iter()
            .map(|st| t.time("accel.evaluate_noisy_s", || noisy_engine.evaluate_noisy(st)))
            .collect();
        for &h in &EPOCHS_H {
            for arm in RecoveryPolicy::ALL {
                for st in &s.small {
                    t.time("accel.evaluate_degraded_s", || {
                        noisy_engine.evaluate_degraded(st, h, arm)
                    });
                }
            }
        }
        // The Monte-Carlo slices `evaluate_noisy` memoizes, called
        // directly once per distinct (layer, shape) pair.
        let noise_cfg = NoiseEvalConfig::default();
        let mut slices: BTreeMap<(usize, XbarShape), LayerNoise> = BTreeMap::new();
        for st in &s.small {
            for (k, &shape) in st.iter().enumerate() {
                slices.entry((k, shape)).or_insert_with(|| {
                    noise_calls += 1;
                    t.time("accel.layer_noise_s", || {
                        layer_noise(&s.micro.layers[k], shape, &s.cfg.cost, &noise_cfg)
                    })
                });
            }
        }
        let same = s.small.iter().zip(&noisy).all(|(st, n)| {
            st.iter()
                .enumerate()
                .all(|(k, &shape)| n.robustness.per_layer[k] == slices[&(k, shape)])
        });
        b.check(same, "evaluate_noisy slices == layer_noise");
    });
    let wall = t0.elapsed().as_secs_f64();
    let n = traced_rounds as f64;
    let layers = [
        "accel.evaluate_s",
        "accel.direct_evaluate_s",
        "accel.alloc_s",
        "accel.sharing_s",
        "accel.fault_sample_s",
        "accel.repair_s",
        "accel.evaluate_faulted_s",
        "accel.evaluate_noisy_s",
        "accel.evaluate_degraded_s",
        "accel.layer_noise_s",
    ];
    for name in layers {
        b.layer(name, t.get(name) / n);
    }
    let direct = t.get("accel.direct_evaluate_s");
    b.layer("accel.memo_speedup", direct / t.get("accel.evaluate_s"));
    b.layer(
        "accel.compose_s",
        (direct - t.sum(&["accel.alloc_s", "accel.sharing_s"])) / n,
    );
    b.layer("accel.layer_noise_calls", noise_calls as f64 / n);
    b.layer("unattributed_share", (wall - t.sum(&layers)) / wall);
    let traced = t.sum(&[
        "accel.evaluate_s",
        "accel.evaluate_faulted_s",
        "accel.evaluate_noisy_s",
        "accel.evaluate_degraded_s",
    ]) / n;
    b.layer("trace_overhead", traced / (untraced / rounds as f64) - 1.0);
}

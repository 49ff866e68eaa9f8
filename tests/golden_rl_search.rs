//! Golden pins of the DDPG search on micro-CNN.
//!
//! Each case records a 64-bit FNV-1a digest of the episode history (every
//! field as raw bits, cache hit rate included), the winning strategy, and
//! a digest of the winning report's full `Debug` rendering (which prints
//! every float in round-trip form). The values were taken from the
//! original sequential driver; `rl_search` must keep reproducing them bit
//! for bit, whatever loop implements it.

use autohet::prelude::*;
use autohet_rl::DdpgConfig;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn history_digest(o: &SearchOutcome) -> u64 {
    fnv(o.history.iter().flat_map(|h| {
        [
            h.episode as u64,
            h.rue.to_bits(),
            h.reward.to_bits(),
            h.utilization.to_bits(),
            h.energy_nj.to_bits(),
            h.cache_hit_rate.to_bits(),
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

fn report_digest(o: &SearchOutcome) -> u64 {
    fnv(format!("{:?}", o.best_report).into_bytes())
}

fn strategy(o: &SearchOutcome) -> Vec<(u32, u32)> {
    o.best_strategy.iter().map(|s| (s.rows, s.cols)).collect()
}

/// The unit tests' quick configuration: at 24 episodes the warm-up
/// horizon is `min(60, 24 / 3) = 8`, so the pins cross from uniform
/// warm-up actions into actor-driven ones.
fn quick_cfg(seed: u64, episodes: usize) -> RlSearchConfig {
    RlSearchConfig {
        episodes,
        ddpg: DdpgConfig {
            seed,
            batch: 32,
            hidden: 32,
            ..DdpgConfig::default()
        },
        train_steps: 4,
        ..RlSearchConfig::default()
    }
}

fn run(scfg: &RlSearchConfig) -> SearchOutcome {
    let m = autohet_dnn::zoo::micro_cnn();
    rl_search(
        &m,
        &paper_hybrid_candidates(),
        &AccelConfig::default(),
        scfg,
    )
}

fn check(label: &str, o: &SearchOutcome, history: u64, best: &[(u32, u32)], report: u64) {
    let got = (history_digest(o), strategy(o), report_digest(o));
    assert_eq!(
        got,
        (history, best.to_vec(), report),
        "{label}: golden pin moved (history digest, best strategy, report digest)"
    );
}

#[test]
fn rl_search_reproduces_the_pinned_seeds() {
    for &(seed, history, best, report) in PINS {
        let o = run(&quick_cfg(seed, 24));
        assert_eq!(o.history.len(), 24);
        check(&format!("seed {seed}"), &o, history, best, report);
    }
}

#[test]
fn noise_penalized_rl_search_reproduces_its_pin() {
    let scfg = RlSearchConfig {
        noise_penalty: 2.0,
        ..quick_cfg(7, 18)
    };
    let (history, best, report) = NOISE_PIN;
    check("noise_penalty 2.0", &run(&scfg), history, best, report);
}

/// `(seed, history digest, best strategy, report digest)`.
type Pin = (u64, u64, &'static [(u32, u32)], u64);

/// micro-CNN's four layers all settle on 32×32 under the default config.
const ALL_32: &[(u32, u32)] = &[(32, 32); 4];

const PINS: &[Pin] = &[
    (0, 10469617603321270168, ALL_32, 10103190566622015213),
    (7, 12698644004436743561, ALL_32, 10103190566622015213),
    (42, 13427206055439154672, ALL_32, 10103190566622015213),
];

const NOISE_PIN: (u64, &[(u32, u32)], u64) = (12654171987940351558, ALL_32, 10103190566622015213);

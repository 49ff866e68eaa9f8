//! Exhaustive oracle: enumerate every `Cᴺ` strategy for small models.
//!
//! Used to measure the RL agent's optimality gap — the paper argues the
//! `Cᴺ` space makes manual/exhaustive search impractical (§2.2.3), which
//! is true at VGG16 scale (5¹⁶ ≈ 1.5×10¹¹); on 4-layer test models the
//! oracle is cheap and pins down the true optimum.
//!
//! The enumeration walks a little-endian odometer over candidate indices
//! (`idx[0]` increments first). [`exhaustive_search`] chunks the odometer
//! range across `crossbeam::thread::scope` workers sharing one memoized
//! [`EvalEngine`]; ties merge earliest-index-first, so the parallel result
//! is exactly the serial one.

use autohet_accel::{EvalEngine, EvalReport};
use autohet_xbar::XbarShape;

/// Enumerate all strategies on chunked scoped-thread workers sharing
/// `engine` (panics if the space exceeds `limit` evaluations; default
/// callers pass ~1e5). Returns the RUE-optimal one — identical to
/// [`exhaustive_search_serial`].
pub fn exhaustive_search(
    engine: &EvalEngine,
    candidates: &[XbarShape],
    limit: u64,
) -> (Vec<XbarShape>, EvalReport) {
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(4);
    enumerate(engine, candidates, limit, workers)
}

/// Single-threaded enumeration, kept as the reference implementation (and
/// the serial arm of the `eval_cache` bench).
pub fn exhaustive_search_serial(
    engine: &EvalEngine,
    candidates: &[XbarShape],
    limit: u64,
) -> (Vec<XbarShape>, EvalReport) {
    enumerate(engine, candidates, limit, 1)
}

/// Enumeration core: the odometer range split over at most `workers`
/// chunks.
fn enumerate(
    engine: &EvalEngine,
    candidates: &[XbarShape],
    limit: u64,
    workers: usize,
) -> (Vec<XbarShape>, EvalReport) {
    assert!(!candidates.is_empty());
    let n = engine.model().layers.len();
    let c = candidates.len();
    let space = (c as u64).checked_pow(n as u32).unwrap_or(u64::MAX);
    assert!(
        space <= limit,
        "search space {space} exceeds limit {limit} (use rl_search instead)"
    );

    let workers = workers.min(space.max(1) as usize);
    if workers <= 1 {
        return best_in_range(engine, candidates, 0, space).expect("space >= 1");
    }

    let chunk = space.div_ceil(workers as u64);
    let mut results: Vec<Option<(Vec<XbarShape>, EvalReport)>> = Vec::with_capacity(workers);
    results.resize_with(workers, || None);
    crossbeam::thread::scope(|s| {
        for (wi, slot) in results.iter_mut().enumerate() {
            let start = wi as u64 * chunk;
            let end = (start + chunk).min(space);
            if start >= end {
                continue;
            }
            s.spawn(move |_| {
                *slot = best_in_range(engine, candidates, start, end);
            });
        }
    })
    .expect("exhaustive search worker panicked");

    // Merge in chunk order with a strict `>`: on exact RUE ties the
    // earliest odometer index wins, matching the serial loop.
    let mut best: Option<(Vec<XbarShape>, EvalReport)> = None;
    for r in results.into_iter().flatten() {
        if best.as_ref().map_or(true, |(_, b)| r.1.rue() > b.rue()) {
            best = Some(r);
        }
    }
    best.expect("space >= 1")
}

/// Best strategy over odometer indices `[start, end)`. Reuses one scratch
/// strategy buffer across the whole range, cloning only on a new best.
fn best_in_range(
    engine: &EvalEngine,
    candidates: &[XbarShape],
    start: u64,
    end: u64,
) -> Option<(Vec<XbarShape>, EvalReport)> {
    let n = engine.model().layers.len();
    let c = candidates.len() as u64;

    // Decode `start` into little-endian odometer digits.
    let mut idx = vec![0usize; n];
    let mut rem = start;
    for digit in idx.iter_mut() {
        *digit = (rem % c) as usize;
        rem /= c;
    }
    let mut scratch: Vec<XbarShape> = idx.iter().map(|&i| candidates[i]).collect();

    let mut best: Option<(Vec<XbarShape>, EvalReport)> = None;
    for _ in start..end {
        let report = engine.evaluate_fresh(&scratch);
        if best.as_ref().map_or(true, |(_, b)| report.rue() > b.rue()) {
            best = Some((scratch.clone(), report));
        }
        // Odometer increment, updating the scratch buffer in place.
        let mut pos = 0;
        while pos < n {
            idx[pos] += 1;
            if (idx[pos] as u64) < c {
                scratch[pos] = candidates[idx[pos]];
                break;
            }
            idx[pos] = 0;
            scratch[pos] = candidates[0];
            pos += 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::random::random_search;
    use autohet_accel::{evaluate, AccelConfig};
    use autohet_dnn::zoo;
    use autohet_xbar::geometry::paper_hybrid_candidates;

    #[test]
    fn oracle_dominates_random_search() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let (_, oracle) = exhaustive_search(&EvalEngine::new(m.clone(), cfg), &cands, 1_000);
        let (_, rand) = random_search(&EvalEngine::new(m.clone(), cfg), &cands, 50, 1);
        assert!(oracle.rue() >= rand.rue());
    }

    #[test]
    fn oracle_beats_every_single_shape() {
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = paper_hybrid_candidates();
        let (_, oracle) = exhaustive_search(&EvalEngine::new(m.clone(), cfg), &cands, 1_000);
        for &s in &cands {
            let homo = evaluate(&m, &vec![s; m.layers.len()], &cfg);
            assert!(oracle.rue() >= homo.rue());
        }
    }

    #[test]
    #[should_panic]
    fn refuses_oversized_spaces() {
        let m = zoo::vgg16();
        let cands = paper_hybrid_candidates();
        let _ = exhaustive_search(
            &EvalEngine::new(m.clone(), AccelConfig::default()),
            &cands,
            10_000,
        );
    }

    #[test]
    fn two_candidate_space_enumerates_fully() {
        // 2⁴ = 16 strategies; the best must at least match both
        // homogeneous corners.
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = vec![XbarShape::square(32), XbarShape::square(256)];
        let (_, best) = exhaustive_search(&EvalEngine::new(m.clone(), cfg), &cands, 100);
        for &s in &cands {
            let homo = evaluate(&m, &vec![s; m.layers.len()], &cfg);
            assert!(best.rue() >= homo.rue());
        }
    }

    #[test]
    fn parallel_and_serial_agree_exactly() {
        let m = zoo::micro_cnn();
        let cands = paper_hybrid_candidates();
        for cfg in [
            AccelConfig::default(),
            AccelConfig::default().with_tile_sharing(),
        ] {
            let (sp, rp) = exhaustive_search(&EvalEngine::new(m.clone(), cfg), &cands, 1_000);
            let (ss, rs) =
                exhaustive_search_serial(&EvalEngine::new(m.clone(), cfg), &cands, 1_000);
            assert_eq!(sp, ss);
            assert_eq!(rp, rs);
        }
    }

    #[test]
    fn chunked_ranges_cover_the_space_exactly_once() {
        // Splitting [0, space) at arbitrary boundaries and merging must
        // reproduce the full-range best.
        let m = zoo::micro_cnn();
        let cfg = AccelConfig::default();
        let cands = vec![
            XbarShape::square(32),
            XbarShape::square(64),
            XbarShape::square(256),
        ];
        let engine = EvalEngine::new(m.clone(), cfg);
        let space = (cands.len() as u64).pow(m.layers.len() as u32);
        let full = best_in_range(&engine, &cands, 0, space).unwrap();
        for split in [1, 7, space / 2, space - 1] {
            let lo = best_in_range(&engine, &cands, 0, split).unwrap();
            let hi = best_in_range(&engine, &cands, split, space).unwrap();
            let merged = if hi.1.rue() > lo.1.rue() { hi } else { lo };
            assert_eq!(merged.0, full.0);
            assert_eq!(merged.1, full.1);
        }
    }
}

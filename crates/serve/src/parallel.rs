//! The parallel serving driver: the sharded runtime's epochs stepped on
//! `crossbeam` scoped workers. [`run_serving`](crate::run_serving) stays
//! the single global-FIFO driver; parallelism lives only here, where
//! shards are independent between barriers.

use crate::shard::{ShardConfig, ShardServingReport, ShardedSim};
use crate::workload::{TenantSpec, Workload};

/// Epoch-parallel driver for the sharded runtime: between barriers each
/// shard touches only its own state, so shards step concurrently on
/// `threads` crossbeam workers; every barrier (settle → steal →
/// autoscale → swap) runs single-threaded. The schedule of decisions is
/// *identical* to [`run_sharded`](crate::run_sharded) — shard stepping
/// is independent and barrier order is fixed — so the report is
/// bit-identical to both sequential drivers (asserted by tests and the
/// cross-driver proptests).
pub fn run_sharded_threaded(
    tenants: &[TenantSpec],
    wl: &Workload,
    cfg: &ShardConfig,
    threads: usize,
) -> ShardServingReport {
    let _span = autohet_obs::trace::span("serve.run_sharded_threaded");
    let threads = threads.max(1);
    let mut sim = ShardedSim::new(tenants, wl, cfg);
    let ends = sim.epoch_ends();
    let chunk = sim.shards.len().div_ceil(threads);
    let step_all = |shards: &mut [crate::shard::Shard], e_end: u64| {
        crossbeam::thread::scope(|s| {
            for group in shards.chunks_mut(chunk) {
                s.spawn(move |_| {
                    for sh in group {
                        sh.step(tenants, e_end);
                    }
                });
            }
        })
        .expect("shard worker panicked");
    };
    for (e, &end) in ends.iter().enumerate() {
        step_all(&mut sim.shards, end);
        sim.barrier(e, end);
    }
    step_all(&mut sim.shards, u64::MAX);
    sim.finish()
}

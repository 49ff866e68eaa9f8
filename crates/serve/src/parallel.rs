//! The parallel serving driver: the sharded runtime's epochs stepped on
//! `crossbeam` scoped workers. [`run_serving`](crate::run_serving) runs
//! one shard, so parallelism lives only here, where shards are
//! independent between barriers.

use crate::report::ServingReport;
use crate::shard::{ShardConfig, ShardedSim};
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
) -> ServingReport {
    let _span = autohet_obs::trace::span("serve.run_sharded_threaded");
    let chunk = cfg.shards.div_ceil(threads.max(1));
    let mut sim = ShardedSim::new(tenants, wl, cfg);
    sim.run_with(|shards, e_end| {
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
    });
    sim.finish(true)
}

//! Serving observability types: the log₂ latency histogram, per-tenant
//! latency/SLO/energy statistics, per-window telemetry, and the one
//! [`ServingReport`] every serving run returns. The scheduler in
//! [`shard`](crate::shard) fills them from its streaming accounting,
//! under either pick rule.

use crate::shard::{EpochSignal, ScaleEvent, ShardStats, StealEvent, SwapEvent};
use crate::sim::HealthEvent;
use serde::{Deserialize, Serialize};

/// Number of power-of-two latency bins (covers the full `u64` range).
const HIST_BINS: usize = 64;

/// Fixed log₂-binned latency histogram: bin `i` counts latencies in
/// `[2^i, 2^(i+1))` ns (bin 0 also absorbs 0 ns).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Per-bin request counts.
    pub bins: Vec<u64>,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            bins: vec![0; HIST_BINS],
        }
    }

    /// Record one request latency \[ns\].
    pub fn record(&mut self, latency_ns: u64) {
        let bin = if latency_ns <= 1 {
            0
        } else {
            (latency_ns.ilog2() as usize).min(HIST_BINS - 1)
        };
        self.bins[bin] += 1;
    }

    /// Total recorded requests.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Fold another histogram's counts into this one (bin-wise sum) —
    /// how per-window telemetry aggregates into run-level distributions.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Nearest-rank quantile estimate: the inclusive upper bound of the
    /// bin holding the rank-⌈q·n⌉ latency (so the true latency is ≤ the
    /// returned value). Returns 0 for an empty histogram; `q` is clamped
    /// to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        autohet_obs::metrics::quantile_from_bins(&self.bins, q)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Serving statistics for one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant label (from [`TenantSpec`](crate::workload::TenantSpec)).
    pub name: String,
    /// Arrivals generated for this tenant (admitted + shed).
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Requests dropped because an instance failure interrupted them past
    /// their retry deadline.
    pub failed: u64,
    /// Retry events: requests returned to the queue by killed batches
    /// (one request can retry more than once).
    pub retried: u64,
    /// Completed requests that survived at least one instance failure —
    /// served, but through the degraded (retry) path.
    pub degraded_completed: u64,
    /// Completed requests whose result was corrupted by conductance
    /// drift (see [`HealthSpec`](crate::sim::HealthSpec)); they count as
    /// SLO violations.
    #[serde(default)]
    pub errored: u64,
    /// Batches killed mid-service by an instance failure.
    pub killed_batches: u64,
    /// Batches dispatched for this tenant (completed ones only).
    pub batches: u64,
    /// Latency percentiles over completed requests \[ns\]: exact
    /// nearest-rank under the FIFO pick, the log₂ histogram's bin upper
    /// bounds under DRR.
    pub p50_ns: u64,
    /// 95th percentile latency \[ns\].
    pub p95_ns: u64,
    /// 99th percentile latency \[ns\].
    pub p99_ns: u64,
    /// Worst completed-request latency \[ns\].
    pub max_ns: u64,
    /// Mean latency over completed requests \[ns\].
    pub mean_ns: f64,
    /// The tenant's latency objective \[ns\].
    pub slo_ns: u64,
    /// Fraction of *submitted* requests completed within the SLO (shed,
    /// failed, and drift-errored requests count as violations); 1.0 for
    /// an idle tenant.
    pub slo_attainment: f64,
    /// Completed requests per second of virtual time.
    pub throughput_rps: f64,
    /// Total inference energy charged to this tenant \[nJ\].
    pub energy_nj: f64,
    /// Largest waiting-queue depth observed.
    pub peak_queue_depth: u64,
    /// Time-weighted mean waiting-queue depth over the run.
    pub mean_queue_depth: f64,
    /// Fair-share weight from the spec (at least 1). DRR schedules by
    /// it; the FIFO pick does not, but the fairness indices divide
    /// attained service by it under both.
    #[serde(default)]
    pub weight: u64,
    /// Busy replica-time this tenant's completed batches consumed \[ns\]
    /// — the "attained service" the fairness index is computed over.
    #[serde(default)]
    pub attained_service_ns: u64,
    /// Shard owning the tenant at the end of the run.
    #[serde(default)]
    pub shard: usize,
    /// Whether the tenant ended the run on its alternative strategy.
    #[serde(default)]
    pub swapped: bool,
    /// Log₂-binned latency distribution.
    pub histogram: LatencyHistogram,
}

/// Telemetry aggregated over one time window of a serving run (see
/// [`ServeConfig::telemetry_windows`]). Windows tile `[0, horizon)`
/// equally; the last window additionally absorbs the drain tail past the
/// horizon. Submission-side columns (`submitted`, `rejected`,
/// `peak_queue_depth`) bucket by arrival time; completion-side columns
/// (`completed`, `batches`, latency, SLO) bucket by batch completion
/// time.
///
/// [`ServeConfig::telemetry_windows`]: crate::sim::ServeConfig::telemetry_windows
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window index (0-based).
    pub index: usize,
    /// Window start \[ns\].
    pub start_ns: u64,
    /// Nominal window end \[ns\] (exclusive; the last window also covers
    /// the drain past this instant).
    pub end_ns: u64,
    /// Arrivals generated in the window, all tenants.
    pub submitted: u64,
    /// Arrivals shed by admission control in the window.
    pub rejected: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Batches completed in the window.
    pub batches: u64,
    /// Mean requests per completed batch (0.0 for an idle window).
    pub mean_batch_size: f64,
    /// Mean batch fill as a fraction of `max_batch`.
    pub batch_occupancy: f64,
    /// Fraction of the window's completed requests that met their
    /// tenant's SLO; 1.0 for a window with no completions.
    pub slo_attainment: f64,
    /// Time-weighted aggregate queue depth (all tenants) over the window.
    pub mean_queue_depth: f64,
    /// Largest aggregate queued-request count observed in the window.
    pub peak_queue_depth: u64,
    /// Replica downtime overlapping the window, summed over replicas \[ns\].
    pub downtime_ns: u64,
    /// Jain's fairness index over per-tenant attained service per unit
    /// weight within the window (tenants idle in the window are
    /// excluded; 1.0 when at most one tenant was active).
    #[serde(default)]
    pub fairness_index: f64,
    /// Latency distribution of the window's completed requests.
    pub histogram: LatencyHistogram,
}

/// Aggregate outcome of one serving simulation, under either pick rule.
/// Couplings a run did not use leave their fields zero or empty: the
/// sharded runtime has no failures or health monitor, and the FIFO front
/// neither steals, scales nor swaps. The scheduler drivers (linear-scan
/// reference, heap mode, epoch-parallel) produce bit-identical values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Workload master seed.
    pub seed: u64,
    /// Arrival-generation horizon \[ns\].
    pub horizon_ns: u64,
    /// Virtual time at which the last batch completed (≥ horizon).
    pub makespan_ns: u64,
    /// Shard-local schedulers.
    #[serde(default)]
    pub shards: usize,
    /// Epoch barriers per horizon.
    #[serde(default)]
    pub epochs: usize,
    /// Replicas the run started with, over all shards.
    pub replicas: usize,
    /// Active replicas at the end of the run.
    #[serde(default)]
    pub replicas_final: usize,
    /// Peak concurrently-active replicas (autoscaling high-water mark).
    #[serde(default)]
    pub replicas_peak: usize,
    /// Total batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Arrivals across all tenants (admitted + shed).
    #[serde(default)]
    pub total_submitted: u64,
    /// Completed requests across all tenants.
    pub total_completed: u64,
    /// Shed requests across all tenants.
    pub total_rejected: u64,
    /// Failure-dropped requests across all tenants.
    pub total_failed: u64,
    /// Retry events across all tenants.
    pub total_retried: u64,
    /// Drift-errored completions across all tenants.
    #[serde(default)]
    pub total_errored: u64,
    /// Per-replica downtime within `[0, makespan_ns)` \[ns\]. This and
    /// the other per-replica vectors hold one entry per initial replica,
    /// shard-major.
    pub replica_downtime_ns: Vec<u64>,
    /// Per-replica circuit-breaker trips (health monitoring).
    #[serde(default)]
    pub replica_trips: Vec<u64>,
    /// Per-replica successful online recalibrations.
    #[serde(default)]
    pub replica_recals: Vec<u64>,
    /// Per-replica remap escalations.
    #[serde(default)]
    pub replica_remaps: Vec<u64>,
    /// Per-replica time spent paused in drift recovery \[ns\].
    #[serde(default)]
    pub replica_recovery_ns: Vec<u64>,
    /// Total inference energy \[nJ\].
    pub total_energy_nj: f64,
    /// Completed requests per second of virtual time, all tenants.
    pub aggregate_throughput_rps: f64,
    /// Jain's fairness index over per-tenant attained service per unit
    /// weight (idle tenants excluded; 1.0 = perfectly proportional).
    #[serde(default)]
    pub fairness_index: f64,
    /// Per-tenant breakdown, in tenant declaration order.
    pub tenants: Vec<TenantStats>,
    /// Per-shard summary, in shard order.
    #[serde(default)]
    pub shard_stats: Vec<ShardStats>,
    /// Per-window telemetry, one window per epoch; empty when the FIFO
    /// front runs with `telemetry_windows == 0`.
    #[serde(default)]
    pub windows: Vec<WindowStats>,
    /// The autoscaler's per-epoch input signals (recorded even when
    /// autoscaling is off — they are the epoch telemetry); dropped with
    /// the windows.
    #[serde(default)]
    pub epoch_signals: Vec<EpochSignal>,
    /// Timestamped replica-health transitions (trips, recals, remaps,
    /// failed recoveries) in recurrence order — the raw material of the
    /// alert timeline. Empty without a
    /// [`HealthSpec`](crate::sim::HealthSpec).
    #[serde(default)]
    pub health_events: Vec<HealthEvent>,
    /// Autoscaling actions, in barrier order.
    #[serde(default)]
    pub scale_events: Vec<ScaleEvent>,
    /// Whole-tenant migrations between shards, in barrier order.
    #[serde(default)]
    pub steal_events: Vec<StealEvent>,
    /// Online strategy swaps, in barrier order.
    #[serde(default)]
    pub swap_events: Vec<SwapEvent>,
}

impl ServingReport {
    /// Requests neither completed, rejected nor failed — 0 after a full
    /// drain; the zero-lost-requests guarantee the swap and failure
    /// tests pin down.
    pub fn lost_requests(&self) -> u64 {
        self.total_submitted - self.total_completed - self.total_rejected - self.total_failed
    }

    /// Fraction of completed requests whose results were clean (not
    /// drift-errored); 1.0 when nothing completed. The serving factor of
    /// the lifetime campaign's accuracy axis.
    pub fn clean_fraction(&self) -> f64 {
        if self.total_completed == 0 {
            1.0
        } else {
            (self.total_completed - self.total_errored) as f64 / self.total_completed as f64
        }
    }

    /// The whole run's latency distribution: every tenant's histogram
    /// merged into one.
    pub fn overall_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for t in &self.tenants {
            h.merge(&t.histogram);
        }
        h
    }
}

/// Jain's fairness index `J = (Σx)² / (n·Σx²)` over the non-zero
/// allocation samples `x`: 1.0 when every sample is equal (perfect
/// proportional fairness), approaching `1/n` when one sample dominates.
/// Returns 1.0 for an empty or all-zero input (nothing to be unfair
/// about).
pub fn jain_index<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut n = 0usize;
    let mut sum = 0.0f64;
    let mut sq = 0.0f64;
    for x in xs {
        n += 1;
        sum += x;
        sq += x * x;
    }
    if n == 0 || sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub(crate) fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_are_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        h.record(u64::MAX);
        assert_eq!(h.bins[0], 2); // 0 and 1
        assert_eq!(h.bins[1], 2); // 2 and 3
        assert_eq!(h.bins[10], 1); // 1024
        assert_eq!(h.bins[63], 1); // u64::MAX
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(1000); // bin 9 = [512, 1024)
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1023);
        }
    }

    #[test]
    fn all_equal_samples_collapse_to_one_bin() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(5_000); // bin 12 = [4096, 8192)
        }
        assert_eq!(h.quantile(0.5), 8191);
        assert_eq!(h.quantile(0.999), 8191);
        // Quantiles are upper bounds and out-of-range q is clamped.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for l in [10u64, 100, 1_000, 10_000] {
            h.record(l);
        }
        assert!(h.quantile(0.5) >= 100);
        assert!(h.quantile(1.0) >= 10_000);
        assert!(h.quantile(0.25) >= 10);
        // Monotone in q.
        assert!(h.quantile(0.25) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn merge_sums_bins_and_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        a.record(1000);
        b.record(1000);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.bins[3], 1); // 10
        assert_eq!(a.bins[9], 2); // both 1000s
        assert_eq!(a.bins[63], 1);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}

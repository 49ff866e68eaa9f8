//! The serving scheduler: shard-local schedulers with two pick rules,
//! work stealing, telemetry-driven autoscaling, online strategy swap,
//! and replica failure and drift-health couplings — all deterministic in
//! simulated time.
//!
//! # Architecture
//!
//! Tenants are partitioned across `shards` shard-local schedulers
//! (`gid % shards`). Each shard owns its tenants' arrival streams,
//! queues, and a [`ReplicaPool`] of local replicas; it advances its own
//! clock by one ingest-before-dispatch recurrence: the earliest-free
//! replica takes the next dispatchable batch, and arrivals at or before
//! that instant join their queues first. Which tenant's batch it takes
//! is the pick rule:
//!
//! - **DRR** ([`run_sharded`]): deficit round-robin over a [`DrrRing`]
//!   of backlogged tenants, so attained service follows the tenant
//!   weights;
//! - **FIFO** ([`run_serving`](crate::run_serving)): among the tenants
//!   dispatchable at that instant, the oldest head request wins (ties:
//!   lowest tenant id). The FIFO front runs one shard and adds the
//!   replica couplings of [`ServeConfig`](crate::ServeConfig): the
//!   [`FailurePlan`] is consulted before every dispatch and kills
//!   batches an outage interrupts, and every completed batch passes the
//!   drift health monitor.
//!
//! Both pick rules end in the one [`ServingReport`], assembled from the
//! same streaming accounting; the pick rule chooses only its latency
//! percentiles (exact nearest-rank under FIFO, log₂-histogram quantiles
//! under DRR).
//!
//! The simulated horizon is cut into `epochs` equal windows. *Within* an
//! epoch shards are fully independent — that is what makes the
//! epoch-parallel driver embarrassingly parallel — and every coupling
//! mechanism between shards runs at the deterministic epoch barrier, in
//! a fixed order:
//!
//! 1. **settle** — every shard's queue-depth integral is settled to the
//!    barrier instant;
//! 2. **steal** — idle shards (backlog ≤ `max_thief_backlog`, a replica
//!    free by the barrier) steal the most backlogged tenant from the
//!    most backlogged shards (backlog ≥ `min_victim_backlog`), one
//!    whole-tenant migration per thief: queue, arrival cursor, deficit
//!    and statistics move atomically, so no request is lost or reordered
//!    within its tenant;
//! 3. **autoscale** — an [`AlertEngine`] consumes the epoch's mean
//!    queue depth and SLO attainment (the same pending → firing →
//!    resolved hysteresis discipline as `obs::alert`) and adds a replica
//!    to the most backlogged shard or retires the highest-id replica of
//!    the least backlogged one, within bounds and a cooldown;
//! 4. **swap** — a tenant with an [`alt_deployment`] whose share of the
//!    epoch's arrivals drifted past `share_factor ×` its long-run share
//!    is remapped onto the alternative strategy (ARAS-style): the
//!    owning shard's earliest-free replica takes a `remap_ns` pause
//!    starting no earlier than the barrier, so in-flight batches drain
//!    first, and the switch applies to every subsequent batch.
//!
//! # Determinism
//!
//! Everything is integer arithmetic on pre-generated arrival streams.
//! Within an epoch a shard touches only its own state; barrier steps
//! iterate shards and tenants in ascending id order. Consequently the
//! epoch-parallel driver is *bit-identical* to the sequential one — the
//! only nondeterminism a thread schedule could introduce is the order
//! in which independent shards are stepped, and shard state composes
//! commutatively at the barrier. The linear-scan reference
//! ([`SelectMode::LinearScan`]) makes every choice by an O(tenants)
//! or O(replicas) scan; heap mode makes the same choices through
//! lazy-deletion heaps ([`ReplicaPool`], [`StampedHeap`]) with the
//! scan's tie-breaks, so every driver produces identical reports under
//! either pick rule.
//!
//! [`alt_deployment`]: crate::workload::TenantSpec::alt_deployment

use crate::drr::{DrrAccess, DrrRing};
use crate::failure::FailurePlan;
use crate::ready::{ReplicaPool, StampedHeap};
use crate::report::{
    jain_index, percentile, LatencyHistogram, ServingReport, TenantStats, WindowStats,
};
use crate::sim::{HealthEvent, HealthSpec, ReplicaHealth};
use crate::workload::{tenant_arrivals, TenantSpec, Workload};
use autohet_obs::alert::{AlertEngine, AlertRule, ThresholdRule};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Alert-rule name the autoscaler fires to add replicas.
pub const SCALE_UP_RULE: &str = "serve.scale_up";
/// Alert-rule name the autoscaler fires to drain replicas.
pub const SCALE_DOWN_RULE: &str = "serve.scale_down";
/// Alert-rule name for the SLO-floor scale-up trigger.
pub const SCALE_SLO_RULE: &str = "serve.scale_slo";

/// How the scheduler finds minima: plain linear scans (the reference),
/// or lazy-deletion heaps with the scans' tie-breaks. Both modes make
/// identical decisions under either pick rule; they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectMode {
    /// O(tenants)/O(replicas) scans per event — the reference.
    LinearScan,
    /// O(log) lazy-deletion heaps with the scan's exact tie-breaks.
    Heap,
}

/// Work-stealing policy evaluated at every epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealSpec {
    /// A shard is a victim when its backlog is at least this many
    /// queued requests.
    pub min_victim_backlog: usize,
    /// A shard is a thief when its backlog is at most this many queued
    /// requests (and one of its replicas is free by the barrier).
    pub max_thief_backlog: usize,
}

impl Default for StealSpec {
    fn default() -> Self {
        StealSpec {
            min_victim_backlog: 16,
            max_thief_backlog: 0,
        }
    }
}

/// Telemetry-driven replica autoscaling, evaluated at epoch barriers
/// through an [`AlertEngine`] with threshold hysteresis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleSpec {
    /// Scale up when the epoch mean queue depth exceeds this.
    pub high_depth: f64,
    /// Scale down when the epoch mean queue depth drops below this.
    pub low_depth: f64,
    /// Scale up when epoch SLO attainment drops below this (0 disables).
    pub slo_floor: f64,
    /// Consecutive breaching epochs before a rule fires.
    pub for_epochs: usize,
    /// Consecutive clean epochs before a firing rule resolves.
    pub clear_epochs: usize,
    /// Total active replicas never drops below this.
    pub min_replicas: usize,
    /// Total active replicas never exceeds this.
    pub max_replicas: usize,
    /// Barriers to wait after a scaling action before the next one.
    pub cooldown_epochs: usize,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        AutoscaleSpec {
            high_depth: 8.0,
            low_depth: 1.0,
            slo_floor: 0.0,
            for_epochs: 2,
            clear_epochs: 2,
            min_replicas: 1,
            max_replicas: 64,
            cooldown_epochs: 1,
        }
    }
}

/// Online strategy-swap policy: remap a tenant onto its
/// `alt_deployment` when its epoch arrival share drifts past
/// `share_factor ×` its long-run (rate-derived) share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapSpec {
    /// Drift threshold as a multiple of the tenant's baseline share.
    pub share_factor: f64,
    /// Epochs with fewer total arrivals than this are too noisy to act
    /// on.
    pub min_epoch_requests: u64,
    /// Pause charged to the owning shard's earliest-free replica while
    /// the new strategy is programmed (in-flight batches drain first).
    pub remap_ns: u64,
}

impl Default for SwapSpec {
    fn default() -> Self {
        SwapSpec {
            share_factor: 2.0,
            min_epoch_requests: 64,
            remap_ns: 1_500_000,
        }
    }
}

/// Configuration of the sharded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Shard-local schedulers; tenants partition as `gid % shards`.
    pub shards: usize,
    /// Replicas each shard starts with.
    pub replicas_per_shard: usize,
    /// Max requests per dispatched batch.
    pub max_batch: usize,
    /// A head request waits at most this long for its batch to fill.
    pub batch_window_ns: u64,
    /// Per-tenant admission bound (arrivals beyond it are rejected).
    pub queue_depth: usize,
    /// Epoch barriers per horizon; also the telemetry window count.
    pub epochs: usize,
    /// DRR quantum: deficit granted per turn is `quantum × weight`.
    pub quantum: u64,
    /// Scheduler implementation (identical decisions either way).
    pub mode: SelectMode,
    /// Work stealing at epoch barriers.
    pub steal: Option<StealSpec>,
    /// Telemetry-driven replica autoscaling.
    pub autoscale: Option<AutoscaleSpec>,
    /// Online strategy swap on workload-mix drift.
    pub swap: Option<SwapSpec>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            replicas_per_shard: 1,
            max_batch: 8,
            batch_window_ns: 1_000_000,
            queue_depth: 64,
            epochs: 16,
            quantum: 1,
            mode: SelectMode::Heap,
            steal: None,
            autoscale: None,
            swap: None,
        }
    }
}

impl ShardConfig {
    fn validate(&self) {
        assert!(self.shards >= 1, "at least one shard");
        assert!(self.replicas_per_shard >= 1, "at least one replica/shard");
        assert!(self.max_batch >= 1, "zero max_batch");
        assert!(self.queue_depth >= 1, "zero queue_depth");
        assert!(self.epochs >= 1, "at least one epoch");
        assert!(self.quantum >= 1, "zero quantum");
    }
}

/// One autoscaling action on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Epoch index of the barrier.
    pub epoch: usize,
    /// `true` = replica added, `false` = replica retired.
    pub up: bool,
    /// Shard the replica belongs to.
    pub shard: usize,
    /// Shard-local replica id.
    pub replica: usize,
    /// Total active replicas after the action.
    pub active_after: usize,
}

/// One whole-tenant migration between shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealEvent {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Epoch index of the barrier.
    pub epoch: usize,
    /// Migrated tenant (global index).
    pub tenant: usize,
    pub from_shard: usize,
    pub to_shard: usize,
    /// Queued requests that moved with the tenant.
    pub moved_requests: usize,
}

/// One online strategy swap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapEvent {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Epoch index of the barrier.
    pub epoch: usize,
    /// Swapped tenant (global index).
    pub tenant: usize,
    /// Shard owning the tenant at swap time.
    pub shard: usize,
    /// Shard-local replica that took the remap pause.
    pub replica: usize,
    /// The tenant's arrival share in the triggering epoch.
    pub share: f64,
    /// The tenant's long-run (rate-derived) share.
    pub base_share: f64,
}

/// The autoscaler's input signals for one epoch, recorded verbatim so
/// the post-hoc alert timeline replays *exactly* what the runtime saw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochSignal {
    /// Barrier instant \[ns\].
    pub t_ns: u64,
    /// Mean queue depth over the epoch (area / span).
    pub mean_queue_depth: f64,
    /// SLO attainment over the epoch's completions.
    pub slo_attainment: f64,
    /// Total queued requests across shards at the barrier.
    pub backlog: u64,
}

/// Per-shard summary of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    pub shard: usize,
    /// Tenants owned at the end of the run.
    pub tenants: usize,
    pub replicas_active: usize,
    /// Replicas ever created on this shard (including retired).
    pub replicas_total: usize,
    pub dispatched_batches: u64,
    pub steals_in: u64,
    pub steals_out: u64,
    /// Last completion on this shard \[ns\].
    pub makespan_ns: u64,
}

/// The name the benchmark (`perfbench/`) gives the sharded runtime's
/// report, which is the one [`ServingReport`]. Deleted with the next
/// change to the benchmark.
pub type ShardServingReport = ServingReport;

/// The epoch/window grid: `n` windows of `len` ns, the last one
/// absorbing the remainder and the drain tail.
#[derive(Debug, Clone, Copy)]
struct WinGrid {
    len: u64,
    n: usize,
}

impl WinGrid {
    fn new(horizon_ns: u64, epochs: usize) -> Self {
        WinGrid {
            len: (horizon_ns / epochs as u64).max(1),
            n: epochs,
        }
    }

    fn window_of(self, t: u64) -> usize {
        ((t / self.len) as usize).min(self.n - 1)
    }

    fn start_of(self, w: usize) -> u64 {
        w as u64 * self.len
    }

    fn end_of(self, w: usize, horizon_ns: u64) -> u64 {
        if w + 1 == self.n {
            horizon_ns
        } else {
            (w as u64 + 1) * self.len
        }
    }
}

/// One queued (or in-flight) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Req {
    /// Original arrival timestamp \[ns\] — latency and retry deadlines are
    /// always measured from here, across any number of retries.
    arrival_ns: u64,
    /// Times this request was returned to its queue by a killed batch.
    retries: u32,
}

/// Everything that travels with a tenant when it migrates between
/// shards: queue, arrival stream position, DRR deficit, and all
/// accounting. `stamp` versions the tenant's ready-heap entries.
#[derive(Debug, Clone)]
struct TenantState {
    gid: usize,
    weight: u64,
    slo_ns: u64,
    arrivals: Vec<u64>,
    cursor: usize,
    /// Queued (admitted, undispatched) requests in arrival order.
    queue: VecDeque<Req>,
    deficit: u64,
    stamp: u64,
    swapped: bool,
    submitted: u64,
    rejected: u64,
    completed: u64,
    met: u64,
    batches: u64,
    /// Requests dropped past their retry deadline by a killed batch.
    failed: u64,
    /// Requests returned to the queue by killed batches.
    retried: u64,
    /// Completed requests that had been retried at least once.
    degraded: u64,
    /// Completed requests with a drift-corrupted result.
    errored: u64,
    killed_batches: u64,
    attained_ns: u64,
    energy_nj: f64,
    lat_sum: u128,
    max_lat: u64,
    hist: LatencyHistogram,
    /// Every completed request's latency — kept under the FIFO pick only,
    /// whose report states exact nearest-rank percentiles.
    latencies: Vec<u64>,
    peak_depth: usize,
    depth_area: u128,
    last_event: u64,
    /// Per-epoch arrivals (travels with the tenant; sums are global).
    win_submitted: Vec<u64>,
    /// Per-epoch attained service, keyed by completion window.
    win_attained: Vec<u64>,
}

impl TenantState {
    fn new(gid: usize, spec: &TenantSpec, wl: &Workload, n_win: usize) -> Self {
        TenantState {
            gid,
            weight: spec.weight.max(1),
            slo_ns: spec.slo_ns,
            arrivals: tenant_arrivals(gid, spec, wl),
            cursor: 0,
            queue: VecDeque::new(),
            deficit: 0,
            stamp: 0,
            swapped: false,
            submitted: 0,
            rejected: 0,
            completed: 0,
            met: 0,
            batches: 0,
            failed: 0,
            retried: 0,
            degraded: 0,
            errored: 0,
            killed_batches: 0,
            attained_ns: 0,
            energy_nj: 0.0,
            lat_sum: 0,
            max_lat: 0,
            hist: LatencyHistogram::new(),
            latencies: Vec::new(),
            peak_depth: 0,
            depth_area: 0,
            last_event: 0,
            win_submitted: vec![0; n_win],
            win_attained: vec![0; n_win],
        }
    }

    fn mean_ns(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.lat_sum as f64 / self.completed as f64
        }
    }

    /// Time-weighted mean queue depth over `[0, makespan)`.
    fn mean_depth(&self, makespan: u64) -> f64 {
        self.depth_area as f64 / makespan.max(1) as f64
    }

    /// Fraction of submitted requests completed clean within the SLO;
    /// 1.0 for an idle tenant.
    fn slo_attainment(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.met as f64 / self.submitted as f64
        }
    }
}

/// Earliest instant the tenant's head batch may dispatch: head arrival
/// plus the batching window, or as soon as a full batch is queued.
fn tenant_ready(queue: &VecDeque<Req>, window_ns: u64, max_batch: usize) -> Option<u64> {
    let head = queue.front()?.arrival_ns;
    let mut ready = head.saturating_add(window_ns);
    if queue.len() >= max_batch {
        ready = ready.min(queue[max_batch - 1].arrival_ns);
    }
    Some(ready)
}

/// The tenants a shard owns, slotted by gid: O(1) lookup, iteration in
/// ascending gid order, and a migration moves one box.
#[derive(Debug, Clone)]
struct TenantSlots {
    slots: Vec<Option<Box<TenantState>>>,
    owned: usize,
}

impl TenantSlots {
    fn new(n: usize) -> Self {
        TenantSlots {
            slots: (0..n).map(|_| None).collect(),
            owned: 0,
        }
    }

    fn get(&self, gid: usize) -> Option<&TenantState> {
        self.slots[gid].as_deref()
    }

    fn get_mut(&mut self, gid: usize) -> &mut TenantState {
        self.slots[gid]
            .as_deref_mut()
            .expect("tenant not on this shard")
    }

    fn insert(&mut self, t: Box<TenantState>) {
        let gid = t.gid;
        debug_assert!(self.slots[gid].is_none());
        self.slots[gid] = Some(t);
        self.owned += 1;
    }

    fn remove(&mut self, gid: usize) -> Box<TenantState> {
        self.owned -= 1;
        self.slots[gid].take().expect("tenant not on this shard")
    }

    fn len(&self) -> usize {
        self.owned
    }

    fn iter(&self) -> impl Iterator<Item = &TenantState> {
        self.slots.iter().filter_map(|t| t.as_deref())
    }
}

impl std::ops::Index<usize> for TenantSlots {
    type Output = TenantState;

    fn index(&self, gid: usize) -> &TenantState {
        self.get(gid).expect("tenant not on this shard")
    }
}

/// [`DrrAccess`] view over a shard's tenant map (split borrow: the ring
/// and the map are disjoint fields).
struct TenantView<'a> {
    tenants: &'a mut TenantSlots,
    window_ns: u64,
    max_batch: usize,
}

impl DrrAccess for TenantView<'_> {
    fn ready_ns(&self, gid: usize) -> u64 {
        let t = &self.tenants[gid];
        tenant_ready(&t.queue, self.window_ns, self.max_batch).unwrap_or(u64::MAX)
    }

    fn cost(&self, gid: usize) -> u64 {
        self.tenants[gid].queue.len().min(self.max_batch).max(1) as u64
    }

    fn weight(&self, gid: usize) -> u64 {
        self.tenants[gid].weight
    }

    fn deficit(&self, gid: usize) -> u64 {
        self.tenants[gid].deficit
    }

    fn set_deficit(&mut self, gid: usize, v: u64) {
        self.tenants.get_mut(gid).deficit = v;
    }
}

/// Which backlogged tenant a dispatch serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    /// Deficit round-robin over the ring of backlogged tenants.
    Drr,
    /// Oldest head request among the tenants ready at the dispatch
    /// instant, ties to the lowest gid.
    Fifo,
}

/// One shard-local scheduler. Between barriers it touches nothing
/// outside itself, which is the entire parallelism argument.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    id: usize,
    mode: SelectMode,
    pick: Pick,
    grid: WinGrid,
    max_batch: usize,
    window_ns: u64,
    queue_depth: usize,
    quantum: u64,
    tenants: TenantSlots,
    ring: DrrRing,
    /// Heap mode: min-heap over (ready_ns, gid), stamp-validated.
    ready: StampedHeap,
    /// Heap mode, FIFO pick: backlogged tenants by (head arrival, gid),
    /// and the subset holding a full batch; stamp-validated.
    heads: StampedHeap,
    full_heads: StampedHeap,
    /// Heap mode: min-heap over (next arrival, gid), cursor-validated.
    arr_heap: BinaryHeap<Reverse<(u64, usize)>>,
    replicas: ReplicaPool,
    /// Replica outage schedule (FIFO front only).
    plan: Option<FailurePlan>,
    /// Age limit for retrying the requests of a killed batch \[ns\].
    retry_deadline_ns: u64,
    /// Drift health monitoring (FIFO front only).
    health_spec: Option<HealthSpec>,
    health: Vec<ReplicaHealth>,
    health_events: Vec<HealthEvent>,
    total_queued: usize,
    last_depth_event: u64,
    makespan: u64,
    /// Batches dispatched, killed ones included — the next dispatch's
    /// index.
    dispatched: u64,
    steals_in: u64,
    steals_out: u64,
    win_submitted: Vec<u64>,
    win_rejected: Vec<u64>,
    win_completed: Vec<u64>,
    win_met: Vec<u64>,
    win_batches: Vec<u64>,
    win_depth_area: Vec<u128>,
    win_peak: Vec<usize>,
    win_hist: Vec<LatencyHistogram>,
}

impl Shard {
    fn new(id: usize, cfg: &ShardConfig, grid: WinGrid, n_tenants: usize) -> Self {
        Shard {
            id,
            mode: cfg.mode,
            pick: Pick::Drr,
            grid,
            max_batch: cfg.max_batch,
            window_ns: cfg.batch_window_ns,
            queue_depth: cfg.queue_depth,
            quantum: cfg.quantum,
            tenants: TenantSlots::new(n_tenants),
            ring: DrrRing::new(),
            ready: StampedHeap::new(),
            heads: StampedHeap::new(),
            full_heads: StampedHeap::new(),
            arr_heap: BinaryHeap::new(),
            replicas: ReplicaPool::new(cfg.replicas_per_shard),
            plan: None,
            retry_deadline_ns: 0,
            health_spec: None,
            health: vec![ReplicaHealth::default(); cfg.replicas_per_shard],
            health_events: Vec::new(),
            total_queued: 0,
            last_depth_event: 0,
            makespan: 0,
            dispatched: 0,
            steals_in: 0,
            steals_out: 0,
            win_submitted: vec![0; grid.n],
            win_rejected: vec![0; grid.n],
            win_completed: vec![0; grid.n],
            win_met: vec![0; grid.n],
            win_batches: vec![0; grid.n],
            win_depth_area: vec![0; grid.n],
            win_peak: vec![0; grid.n],
            win_hist: vec![LatencyHistogram::new(); grid.n],
        }
    }

    fn heap_mode(&self) -> bool {
        self.mode == SelectMode::Heap
    }

    /// The earliest unconsumed arrival `(time, gid)` over owned tenants.
    fn next_arrival(&mut self) -> Option<(u64, usize)> {
        match self.mode {
            SelectMode::LinearScan => self
                .tenants
                .iter()
                .filter(|t| t.cursor < t.arrivals.len())
                .map(|t| (t.arrivals[t.cursor], t.gid))
                .min(),
            SelectMode::Heap => loop {
                let &Reverse((t, g)) = self.arr_heap.peek()?;
                match self.tenants.get(g) {
                    Some(ts) if ts.cursor < ts.arrivals.len() && ts.arrivals[ts.cursor] == t => {
                        return Some((t, g));
                    }
                    _ => {
                        self.arr_heap.pop();
                    }
                }
            },
        }
    }

    /// The earliest instant any backlogged tenant's batch may dispatch.
    fn ready_min(&mut self) -> Option<u64> {
        if self.total_queued == 0 {
            return None;
        }
        let (window_ns, max_batch) = (self.window_ns, self.max_batch);
        match self.mode {
            SelectMode::LinearScan => self
                .tenants
                .iter()
                .filter_map(|t| tenant_ready(&t.queue, window_ns, max_batch))
                .min(),
            SelectMode::Heap => {
                let tenants = &self.tenants;
                self.ready
                    .peek_valid(|g| tenants.get(g).map(|t| t.stamp).unwrap_or(u64::MAX))
                    .map(|(r, _)| r)
            }
        }
    }

    /// The next dispatch `(instant, replica)` — `max` of the earliest
    /// free replica and the earliest ready batch (the per-tenant
    /// `max(ready, free)` minimized over tenants distributes to this).
    fn next_dispatch(&mut self) -> Option<(u64, usize)> {
        let (fmin, rid) = self.min_free()?;
        let ready = self.ready_min()?;
        Some((ready.max(fmin), rid))
    }

    /// The tenant a dispatch at `at` serves under the shard's pick rule.
    fn pick_tenant(&mut self, at: u64) -> usize {
        let (window_ns, max_batch) = (self.window_ns, self.max_batch);
        match (self.pick, self.mode) {
            (Pick::Drr, _) => {
                let mut view = TenantView {
                    tenants: &mut self.tenants,
                    window_ns,
                    max_batch,
                };
                self.ring.select(&mut view, at, self.quantum)
            }
            (Pick::Fifo, SelectMode::LinearScan) => {
                self.tenants
                    .iter()
                    .filter(|t| {
                        tenant_ready(&t.queue, window_ns, max_batch).is_some_and(|r| r <= at)
                    })
                    .map(|t| (t.queue[0].arrival_ns, t.gid))
                    .min()
                    .expect("FIFO pick at a non-dispatchable instant")
                    .1
            }
            (Pick::Fifo, SelectMode::Heap) => {
                let tenants = &self.tenants;
                let stamp = |g| tenants.get(g).map(|t| t.stamp).unwrap_or(u64::MAX);
                let (_, g) = self
                    .heads
                    .peek_valid(stamp)
                    .expect("FIFO pick with no backlog");
                let ready = |g| tenant_ready(&tenants[g].queue, window_ns, max_batch);
                if ready(g).expect("a valid entry has a head") <= at {
                    return g;
                }
                // The oldest head is not ready, so it waits on its window:
                // every tenant without a full batch has a later head and
                // waits longer. Each full batch is ready (every queued
                // arrival precedes the pending dispatch), so the pick is
                // the oldest full one.
                let (_, g) = self
                    .full_heads
                    .peek_valid(stamp)
                    .expect("FIFO pick at a non-dispatchable instant");
                debug_assert!(ready(g).is_some_and(|r| r <= at));
                g
            }
        }
    }

    /// Re-key tenant `gid` after its queue changed: its heap entries go
    /// stale, and a backlogged tenant gets fresh ones.
    fn rekey(&mut self, gid: usize) {
        let (window_ns, max_batch, heap) = (self.window_ns, self.max_batch, self.heap_mode());
        let t = self.tenants.get_mut(gid);
        t.stamp += 1;
        if !heap || t.queue.is_empty() {
            return;
        }
        let stamp = t.stamp;
        self.ready.push(
            tenant_ready(&t.queue, window_ns, max_batch).expect("backlogged"),
            gid,
            stamp,
        );
        if self.pick == Pick::Fifo {
            let head = t.queue[0].arrival_ns;
            self.heads.push(head, gid, stamp);
            if t.queue.len() >= max_batch {
                self.full_heads.push(head, gid, stamp);
            }
        }
    }

    /// Add the span `[from, to)` at queue depth `depth` to the window
    /// depth integrals, split at window boundaries.
    fn add_depth_span(&mut self, depth: u128, from: u64, to: u64) {
        let mut t = from;
        while depth > 0 && t < to {
            let w = self.grid.window_of(t);
            let end = if w + 1 == self.grid.n {
                to
            } else {
                self.grid.start_of(w + 1).min(to)
            };
            self.win_depth_area[w] += depth * (end - t) as u128;
            t = end;
        }
    }

    /// Settle the shard-wide depth integral `[last_depth_event, now)` at
    /// the current backlog — the DRR pick's window integral. Within an
    /// epoch, spans never cross a window boundary (windows *are* epochs
    /// and barriers settle); drain-tail spans all land in the last
    /// window. The FIFO pick integrates per tenant instead (see
    /// [`track_depth`](Self::track_depth)).
    fn settle_depth(&mut self, now: u64) {
        let from = self.last_depth_event;
        if self.pick == Pick::Fifo || now <= from {
            return;
        }
        self.add_depth_span(self.total_queued as u128, from, now);
        self.last_depth_event = now;
    }

    /// Advance tenant `gid`'s queue-depth integral to `now` at its
    /// current depth (before its queue changes), and the window integral
    /// with it. Under the FIFO pick the window integral is the sum of
    /// these per-tenant spans: a killed batch is requeued at its failure
    /// edge, ahead of the shard clock, so per-tenant event times are not
    /// shard-wide monotone there.
    fn track_depth(&mut self, gid: usize, now: u64) {
        let t = self.tenants.get_mut(gid);
        let (from, depth) = (t.last_event, t.queue.len() as u128);
        t.depth_area += depth * now.saturating_sub(from) as u128;
        t.last_event = now;
        match self.pick {
            Pick::Fifo => self.add_depth_span(depth, from, now),
            Pick::Drr => self.settle_depth(now),
        }
    }

    /// Consume tenant `gid`'s next arrival: admission control, queue
    /// push, ring/heap maintenance, depth accounting.
    fn ingest(&mut self, gid: usize) {
        let heap = self.heap_mode();
        if heap {
            // The validated top entry is this arrival; replace it with
            // the tenant's next one.
            self.arr_heap.pop();
        }
        let t = self.tenants.get_mut(gid);
        let at = t.arrivals[t.cursor];
        t.cursor += 1;
        let next = (t.cursor < t.arrivals.len()).then(|| t.arrivals[t.cursor]);
        t.submitted += 1;
        let w = self.grid.window_of(at);
        t.win_submitted[w] += 1;
        self.win_submitted[w] += 1;
        if t.queue.len() >= self.queue_depth {
            t.rejected += 1;
            self.win_rejected[w] += 1;
        } else {
            self.track_depth(gid, at);
            let t = self.tenants.get_mut(gid);
            t.queue.push_back(Req {
                arrival_ns: at,
                retries: 0,
            });
            t.peak_depth = t.peak_depth.max(t.queue.len());
            let was_empty = t.queue.len() == 1;
            if was_empty && self.pick == Pick::Drr {
                self.ring.push(gid);
            }
            if was_empty || t.queue.len() == self.max_batch {
                // The tenant's ready instant changed (appeared, or
                // dropped to "batch full").
                self.rekey(gid);
            }
            self.total_queued += 1;
            self.win_peak[w] = self.win_peak[w].max(self.total_queued);
        }
        if heap {
            if let Some(nt) = next {
                self.arr_heap.push(Reverse((nt, gid)));
            }
        }
    }

    /// Dispatch one batch on replica `rid` at instant `at`: the pick
    /// rule selects the tenant and the batch drains. A batch an outage
    /// cuts short is killed and requeued; a completed one passes the
    /// health monitor and its accounting streams into the tenant and
    /// window accumulators.
    fn dispatch(&mut self, specs: &[TenantSpec], rid: usize, at: u64) {
        let (window_ns, max_batch) = (self.window_ns, self.max_batch);
        let gid = self.pick_tenant(at);
        let index = self.dispatched;
        self.dispatched += 1;
        self.track_depth(gid, at);
        let t = self.tenants.get_mut(gid);
        let n = t.queue.len().min(max_batch);
        let batch: Vec<Req> = t.queue.drain(..n).collect();
        let emptied = t.queue.is_empty();
        let dep = if t.swapped {
            specs[gid]
                .alt_deployment
                .as_ref()
                .expect("swapped without alt")
        } else {
            &specs[gid].deployment
        };
        self.total_queued -= n;
        if self.pick == Pick::Drr {
            let mut view = TenantView {
                tenants: &mut self.tenants,
                window_ns,
                max_batch,
            };
            self.ring.served(&mut view, gid, emptied);
        }
        let service = dep.service_ns(n);
        let completion = at + service;
        if let Some(o) = self
            .plan
            .as_ref()
            .and_then(|p| p.outage_in(rid, at, completion))
        {
            self.replicas.set_free(rid, o.up_ns);
            self.requeue(gid, batch, o.down_ns);
            return;
        }
        self.rekey(gid);
        let (errored, free) = match &self.health_spec {
            Some(spec) => self.health[rid].complete_batch(
                spec,
                rid,
                index,
                at,
                n,
                completion,
                &mut self.health_events,
            ),
            None => (Vec::new(), completion),
        };
        let w = self.grid.window_of(completion);
        let exact = self.pick == Pick::Fifo;
        let t = self.tenants.get_mut(gid);
        t.completed += n as u64;
        t.batches += 1;
        t.attained_ns += service;
        t.win_attained[w] += service;
        t.energy_nj += n as f64 * dep.energy_per_request_nj();
        for (i, req) in batch.iter().enumerate() {
            let l = completion - req.arrival_ns;
            let err = errored.get(i).copied().unwrap_or(false);
            t.hist.record(l);
            t.lat_sum += l as u128;
            t.max_lat = t.max_lat.max(l);
            if exact {
                t.latencies.push(l);
            }
            t.degraded += (req.retries > 0) as u64;
            t.errored += err as u64;
            if l <= t.slo_ns && !err {
                t.met += 1;
                self.win_met[w] += 1;
            }
            self.win_hist[w].record(l);
        }
        self.win_completed[w] += n as u64;
        self.win_batches[w] += 1;
        self.replicas.set_free(rid, free);
        self.makespan = self.makespan.max(completion);
    }

    /// Return a killed batch's requests to the head of their queue (they
    /// are the oldest outstanding requests, so FIFO order by arrival is
    /// preserved): a request is retried while its age at `killed_ns` is
    /// within the retry deadline, and dropped as failed otherwise.
    /// Retried requests keep their original arrival time, so their
    /// eventual latency spans the failure.
    fn requeue(&mut self, gid: usize, batch: Vec<Req>, killed_ns: u64) {
        self.track_depth(gid, killed_ns);
        let deadline = self.retry_deadline_ns;
        let t = self.tenants.get_mut(gid);
        t.killed_batches += 1;
        let before = t.queue.len();
        for req in batch.into_iter().rev() {
            if killed_ns.saturating_sub(req.arrival_ns) <= deadline {
                t.retried += 1;
                t.queue.push_front(Req {
                    retries: req.retries + 1,
                    ..req
                });
            } else {
                t.failed += 1;
            }
        }
        t.peak_depth = t.peak_depth.max(t.queue.len());
        self.total_queued += t.queue.len() - before;
        let w = self.grid.window_of(killed_ns);
        self.win_peak[w] = self.win_peak[w].max(self.total_queued);
        self.rekey(gid);
    }

    /// Run the shard's recurrence up to (exclusive) `e_end`: arrivals at
    /// or before the pending dispatch instant are ingested first (they
    /// join the batch). `u64::MAX` drains everything. With an outage
    /// plan, a replica down at its free instant or at the dispatch
    /// instant waits out the outage and the turn passes on.
    pub(crate) fn step(&mut self, specs: &[TenantSpec], e_end: u64) {
        let down = |plan: &Option<FailurePlan>, r: usize, t: u64| {
            plan.as_ref().and_then(|p| p.down_until(r, t))
        };
        loop {
            if self.plan.is_some() {
                if let Some((f, r)) = self.min_free() {
                    if let Some(up) = down(&self.plan, r, f) {
                        self.replicas.set_free(r, up);
                        continue;
                    }
                }
            }
            let na = self.next_arrival();
            let disp = self.next_dispatch();
            if let Some((t, gid)) = na {
                let take = match disp {
                    Some((at, _)) if at < e_end => t <= at,
                    _ => t < e_end,
                };
                if take {
                    self.ingest(gid);
                    continue;
                }
            }
            match disp {
                Some((at, rid)) if at < e_end => match down(&self.plan, rid, at) {
                    Some(up) => self.replicas.set_free(rid, up),
                    None => self.dispatch(specs, rid, at),
                },
                _ => break,
            }
        }
    }

    /// Detach tenant `gid` for migration. Its shard-side heap entries go
    /// stale via the ownership check / stamp bump.
    fn remove_tenant(&mut self, gid: usize) -> Box<TenantState> {
        let mut t = self.tenants.remove(gid);
        self.ring.remove(gid);
        self.total_queued -= t.queue.len();
        t.stamp += 1;
        t
    }

    /// Attach a migrated tenant.
    fn add_tenant(&mut self, t: Box<TenantState>) {
        let gid = t.gid;
        self.total_queued += t.queue.len();
        if !t.queue.is_empty() && self.pick == Pick::Drr {
            self.ring.push(gid);
        }
        if self.heap_mode() && t.cursor < t.arrivals.len() {
            self.arr_heap.push(Reverse((t.arrivals[t.cursor], gid)));
        }
        self.tenants.insert(t);
        self.rekey(gid);
    }

    /// Earliest-free active replica (mode-consistent tie-break).
    fn min_free(&mut self) -> Option<(u64, usize)> {
        match self.mode {
            SelectMode::LinearScan => self.replicas.scan_min(),
            SelectMode::Heap => self.replicas.peek_min(),
        }
    }
}

/// The assembled sharded simulation: shards plus barrier state. Public
/// within the crate so the epoch-parallel driver in [`crate::parallel`]
/// can step shards concurrently.
pub(crate) struct ShardedSim<'a> {
    specs: &'a [TenantSpec],
    wl: Workload,
    cfg: ShardConfig,
    grid: WinGrid,
    shards: Vec<Shard>,
    engine: Option<AlertEngine>,
    base_share: Vec<f64>,
    cooldown: usize,
    total_active: usize,
    peak_active: usize,
    scale_events: Vec<ScaleEvent>,
    steal_events: Vec<StealEvent>,
    swap_events: Vec<SwapEvent>,
    epoch_signals: Vec<EpochSignal>,
}

/// The autoscaler's alert rules — shared with the post-hoc timeline in
/// [`crate::telemetry`] so both evaluate the identical discipline.
pub(crate) fn autoscale_rules(spec: &AutoscaleSpec) -> Vec<AlertRule> {
    vec![
        AlertRule::Threshold(
            ThresholdRule::above(SCALE_UP_RULE, "epoch_queue_depth", spec.high_depth)
                .for_samples(spec.for_epochs)
                .clear_samples(spec.clear_epochs),
        ),
        AlertRule::Threshold(
            ThresholdRule::below(SCALE_DOWN_RULE, "epoch_queue_depth", spec.low_depth)
                .for_samples(spec.for_epochs)
                .clear_samples(spec.clear_epochs),
        ),
        AlertRule::Threshold(
            ThresholdRule::below(SCALE_SLO_RULE, "epoch_slo", spec.slo_floor)
                .for_samples(spec.for_epochs)
                .clear_samples(spec.clear_epochs),
        ),
    ]
}

/// An [`AlertEngine`] loaded with the autoscaler's rules.
pub(crate) fn autoscale_engine(spec: &AutoscaleSpec) -> AlertEngine {
    let mut e = AlertEngine::new();
    for r in autoscale_rules(spec) {
        e.add_rule(r);
    }
    e
}

impl<'a> ShardedSim<'a> {
    pub(crate) fn new(specs: &'a [TenantSpec], wl: &Workload, cfg: &ShardConfig) -> Self {
        cfg.validate();
        let grid = WinGrid::new(wl.horizon_ns, cfg.epochs);
        let mut shards: Vec<Shard> = (0..cfg.shards)
            .map(|s| Shard::new(s, cfg, grid, specs.len()))
            .collect();
        for (gid, spec) in specs.iter().enumerate() {
            let t = Box::new(TenantState::new(gid, spec, wl, grid.n));
            shards[gid % cfg.shards].add_tenant(t);
        }
        let total_rate: f64 = specs.iter().map(|s| s.rate_rps).sum();
        let base_share = specs
            .iter()
            .map(|s| {
                if total_rate > 0.0 {
                    s.rate_rps / total_rate
                } else {
                    0.0
                }
            })
            .collect();
        let total_active = cfg.shards * cfg.replicas_per_shard;
        ShardedSim {
            specs,
            wl: *wl,
            cfg: *cfg,
            grid,
            shards,
            engine: cfg.autoscale.as_ref().map(autoscale_engine),
            base_share,
            cooldown: 0,
            total_active,
            peak_active: total_active,
            scale_events: Vec::new(),
            steal_events: Vec::new(),
            swap_events: Vec::new(),
            epoch_signals: Vec::new(),
        }
    }

    /// Switch the (single) shard to the FIFO pick with the replica
    /// couplings of the global-FIFO front: the outage `plan` with its
    /// retry deadline, and drift `health` monitoring.
    pub(crate) fn with_fifo(
        mut self,
        plan: FailurePlan,
        retry_deadline_ns: u64,
        health: Option<HealthSpec>,
    ) -> Self {
        assert_eq!(self.shards.len(), 1, "the FIFO pick runs on one shard");
        let sh = &mut self.shards[0];
        debug_assert_eq!(sh.total_queued, 0);
        sh.pick = Pick::Fifo;
        sh.plan = Some(plan);
        sh.retry_deadline_ns = retry_deadline_ns;
        sh.health_spec = health;
        self
    }

    /// Run the simulation: `step_all` advances every shard to each
    /// barrier instant (epoch `e` ends at `(e+1)·win_len`, the last at
    /// the horizon), the barrier runs, and a final step drains. The
    /// sequential and epoch-parallel drivers differ only in `step_all`.
    pub(crate) fn run_with(&mut self, mut step_all: impl FnMut(&mut [Shard], u64)) {
        for e in 0..self.cfg.epochs {
            let end = self.grid.end_of(e, self.wl.horizon_ns);
            step_all(&mut self.shards, end);
            self.barrier(e, end);
        }
        step_all(&mut self.shards, u64::MAX);
    }

    /// [`run_with`](Self::run_with) stepping the shards one after another.
    pub(crate) fn run(&mut self) {
        let specs = self.specs;
        self.run_with(|shards, end| {
            for sh in shards {
                sh.step(specs, end);
            }
        });
    }

    /// The epoch barrier: settle → steal → autoscale → swap, each in a
    /// fixed deterministic order.
    fn barrier(&mut self, epoch: usize, t_end: u64) {
        for sh in &mut self.shards {
            sh.settle_depth(t_end);
        }
        if self.cfg.steal.is_some() {
            self.steal(epoch, t_end);
        }
        let sig = self.epoch_signal(epoch, t_end);
        self.epoch_signals.push(sig);
        if self.cfg.autoscale.is_some() {
            self.autoscale(epoch, t_end, sig);
        }
        if self.cfg.swap.is_some() {
            self.swap(epoch, t_end);
        }
    }

    fn epoch_signal(&self, epoch: usize, t_end: u64) -> EpochSignal {
        let start = self.grid.start_of(epoch);
        let span = (t_end - start).max(1);
        let area: u128 = self.shards.iter().map(|s| s.win_depth_area[epoch]).sum();
        let completed: u64 = self.shards.iter().map(|s| s.win_completed[epoch]).sum();
        let met: u64 = self.shards.iter().map(|s| s.win_met[epoch]).sum();
        EpochSignal {
            t_ns: t_end,
            mean_queue_depth: area as f64 / span as f64,
            slo_attainment: if completed == 0 {
                1.0
            } else {
                met as f64 / completed as f64
            },
            backlog: self.shards.iter().map(|s| s.total_queued as u64).sum(),
        }
    }

    /// Work stealing: pair idle thieves with backlogged victims
    /// (ascending thief id; victims by descending backlog, ties to the
    /// lower id) and migrate each victim's most backlogged tenant.
    fn steal(&mut self, epoch: usize, t_end: u64) {
        let spec = self.cfg.steal.unwrap();
        let mut thieves: Vec<usize> = Vec::new();
        let mut victims: Vec<(usize, usize)> = Vec::new(); // (backlog, id)
        for s in 0..self.shards.len() {
            let backlog = self.shards[s].total_queued;
            let idle_replica = self.shards[s].min_free().is_some_and(|(f, _)| f <= t_end);
            if backlog <= spec.max_thief_backlog && idle_replica {
                thieves.push(s);
            } else if backlog >= spec.min_victim_backlog && self.shards[s].tenants.len() >= 2 {
                victims.push((backlog, s));
            }
        }
        victims.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (&thief, &(_, victim)) in thieves.iter().zip(victims.iter()) {
            // Most backlogged tenant, ties to the lowest gid (slot
            // iteration is ascending, strict `>` keeps the first max).
            let Some((gid, moved)) = self.shards[victim]
                .tenants
                .iter()
                .map(|t| (t.queue.len(), t.gid))
                .fold(None, |best: Option<(usize, usize)>, (len, g)| match best {
                    Some((bl, bg)) if bl >= len => Some((bl, bg)),
                    _ => Some((len, g)),
                })
                .map(|(len, g)| (g, len))
            else {
                continue;
            };
            if moved == 0 {
                continue;
            }
            let t = self.shards[victim].remove_tenant(gid);
            self.shards[thief].add_tenant(t);
            self.shards[victim].steals_out += 1;
            self.shards[thief].steals_in += 1;
            self.steal_events.push(StealEvent {
                t_ns: t_end,
                epoch,
                tenant: gid,
                from_shard: victim,
                to_shard: thief,
                moved_requests: moved,
            });
        }
    }

    fn autoscale(&mut self, epoch: usize, t_end: u64, sig: EpochSignal) {
        let spec = self.cfg.autoscale.unwrap();
        let engine = self.engine.as_mut().unwrap();
        engine.observe(
            t_end,
            &[
                ("epoch_queue_depth", sig.mean_queue_depth),
                ("epoch_slo", sig.slo_attainment),
            ],
        );
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        let up = engine.is_firing(SCALE_UP_RULE) || engine.is_firing(SCALE_SLO_RULE);
        let down = engine.is_firing(SCALE_DOWN_RULE);
        if up && self.total_active < spec.max_replicas {
            // Most backlogged shard gets the replica (ties → lowest id).
            let sid = (0..self.shards.len())
                .max_by_key(|&s| (self.shards[s].total_queued, Reverse(s)))
                .unwrap();
            let rid = self.shards[sid].replicas.add(t_end);
            self.total_active += 1;
            self.peak_active = self.peak_active.max(self.total_active);
            self.cooldown = spec.cooldown_epochs;
            self.scale_events.push(ScaleEvent {
                t_ns: t_end,
                epoch,
                up: true,
                shard: sid,
                replica: rid,
                active_after: self.total_active,
            });
        } else if down && !up && self.total_active > spec.min_replicas {
            // Least backlogged shard that keeps ≥ 1 replica drains its
            // highest-id active replica (in-flight work still completes:
            // retirement only stops future dispatches).
            let Some(sid) = (0..self.shards.len())
                .filter(|&s| self.shards[s].replicas.active() >= 2)
                .min_by_key(|&s| (self.shards[s].total_queued, s))
            else {
                return;
            };
            let rid = *self.shards[sid].replicas.active_ids().last().unwrap();
            self.shards[sid].replicas.retire(rid);
            self.total_active -= 1;
            self.cooldown = spec.cooldown_epochs;
            self.scale_events.push(ScaleEvent {
                t_ns: t_end,
                epoch,
                up: false,
                shard: sid,
                replica: rid,
                active_after: self.total_active,
            });
        }
    }

    /// Online strategy swap: one-way, per tenant, when the epoch share
    /// drifts past the threshold. The remap pause starts at the barrier
    /// (or when the chosen replica's in-flight batch drains, whichever
    /// is later), so no request is lost: queued work simply waits.
    fn swap(&mut self, epoch: usize, t_end: u64) {
        let spec = self.cfg.swap.unwrap();
        let total: u64 = self.shards.iter().map(|s| s.win_submitted[epoch]).sum();
        if total < spec.min_epoch_requests {
            return;
        }
        for gid in 0..self.specs.len() {
            if self.specs[gid].alt_deployment.is_none() {
                continue;
            }
            let owner = (0..self.shards.len())
                .find(|&s| self.shards[s].tenants.get(gid).is_some())
                .expect("tenant owned by no shard");
            let t = &self.shards[owner].tenants[gid];
            if t.swapped {
                continue;
            }
            let share = t.win_submitted[epoch] as f64 / total as f64;
            let base = self.base_share[gid];
            if share <= spec.share_factor * base {
                continue;
            }
            let sh = &mut self.shards[owner];
            sh.tenants.get_mut(gid).swapped = true;
            let (free, rid) = sh.min_free().expect("shard without active replica");
            sh.replicas.set_free(rid, free.max(t_end) + spec.remap_ns);
            self.swap_events.push(SwapEvent {
                t_ns: t_end,
                epoch,
                tenant: gid,
                shard: owner,
                replica: rid,
                share,
                base_share: base,
            });
        }
    }

    /// `n` per second of the simulated span `[0, makespan)` (0 for an
    /// empty span).
    fn per_s(n: u64, makespan: u64) -> f64 {
        let span_s = makespan as f64 * 1e-9;
        if span_s > 0.0 {
            n as f64 / span_s
        } else {
            0.0
        }
    }

    /// Last completion over all shards, never before the horizon.
    fn makespan(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.makespan)
            .max()
            .unwrap_or(0)
            .max(self.wl.horizon_ns)
    }

    /// Collect the tenants back out of their final shards, in gid order,
    /// with the shard owning each.
    fn take_tenants(&mut self) -> (Vec<TenantState>, Vec<usize>) {
        let n = self.specs.len();
        let mut owners: Vec<usize> = vec![0; n];
        let mut states: Vec<Option<TenantState>> = (0..n).map(|_| None).collect();
        for sh in &mut self.shards {
            for t in sh.tenants.slots.iter_mut().filter_map(Option::take) {
                let gid = t.gid;
                owners[gid] = sh.id;
                states[gid] = Some(*t);
            }
        }
        let states = states
            .into_iter()
            .map(|t| t.expect("tenant owned by no shard"));
        (states.collect(), owners)
    }

    /// Jain's index over attained service per unit weight of the tenants
    /// that submitted anything.
    fn fairness(states: &[TenantState]) -> f64 {
        jain_index(
            states
                .iter()
                .filter(|t| t.submitted > 0)
                .map(|t| t.attained_ns as f64 / t.weight as f64),
        )
    }

    /// One [`WindowStats`] per epoch, summed over shards. Downtime comes
    /// from the outage plan (0 without one).
    fn windows(&self, states: &[TenantState], makespan: u64) -> Vec<WindowStats> {
        (0..self.grid.n)
            .map(|w| {
                let start_ns = self.grid.start_of(w);
                let end_ns = start_ns + self.grid.len;
                // The last window runs to the makespan: its depth integral
                // and downtime include the drain tail.
                let covered_to = if w + 1 == self.grid.n {
                    makespan.max(end_ns)
                } else {
                    end_ns
                };
                let span = (covered_to - start_ns).max(1);
                let sum = |f: &dyn Fn(&Shard) -> u64| -> u64 { self.shards.iter().map(f).sum() };
                let submitted = sum(&|s| s.win_submitted[w]);
                let rejected = sum(&|s| s.win_rejected[w]);
                let completed = sum(&|s| s.win_completed[w]);
                let met = sum(&|s| s.win_met[w]);
                let batches = sum(&|s| s.win_batches[w]);
                let area: u128 = self.shards.iter().map(|s| s.win_depth_area[w]).sum();
                let mut hist = LatencyHistogram::new();
                for s in &self.shards {
                    hist.merge(&s.win_hist[w]);
                }
                let replicas = self.cfg.replicas_per_shard;
                WindowStats {
                    index: w,
                    start_ns,
                    end_ns,
                    submitted,
                    rejected,
                    completed,
                    batches,
                    mean_batch_size: if batches == 0 {
                        0.0
                    } else {
                        completed as f64 / batches as f64
                    },
                    batch_occupancy: if batches == 0 {
                        0.0
                    } else {
                        completed as f64 / (batches * self.cfg.max_batch as u64) as f64
                    },
                    slo_attainment: if completed == 0 {
                        1.0
                    } else {
                        met as f64 / completed as f64
                    },
                    mean_queue_depth: area as f64 / span as f64,
                    // Sum of per-shard peaks: an upper bound on the
                    // global instantaneous backlog peak (shard clocks
                    // are not aligned within an epoch).
                    peak_queue_depth: self.shards.iter().map(|s| s.win_peak[w] as u64).sum(),
                    downtime_ns: sum(&|s| match &s.plan {
                        Some(p) => (0..replicas)
                            .map(|r| p.downtime_in(r, start_ns, covered_to))
                            .sum(),
                        None => 0,
                    }),
                    fairness_index: jain_index(
                        states
                            .iter()
                            .filter(|t| t.win_attained[w] > 0)
                            .map(|t| t.win_attained[w] as f64 / t.weight as f64),
                    ),
                    histogram: hist,
                }
            })
            .collect()
    }

    /// Assemble the run's report (consumes the sim), with the telemetry
    /// windows and epoch signals when `keep_windows`. The pick rule
    /// chooses the latency percentiles: exact nearest-rank under FIFO,
    /// histogram quantiles under DRR.
    pub(crate) fn finish(mut self, keep_windows: bool) -> ServingReport {
        let makespan = self.makespan();
        let (mut states, owners) = self.take_tenants();
        let (windows, epoch_signals) = if keep_windows {
            (self.windows(&states, makespan), self.epoch_signals)
        } else {
            (Vec::new(), Vec::new())
        };
        let exact = self.shards[0].pick == Pick::Fifo;
        let tenants: Vec<TenantStats> = states
            .iter_mut()
            .map(|t| {
                let lat = &mut t.latencies;
                lat.sort_unstable();
                let pct = |q| {
                    if exact {
                        percentile(lat, q)
                    } else {
                        t.hist.quantile(q)
                    }
                };
                TenantStats {
                    name: self.specs[t.gid].name.clone(),
                    submitted: t.submitted,
                    completed: t.completed,
                    rejected: t.rejected,
                    failed: t.failed,
                    retried: t.retried,
                    degraded_completed: t.degraded,
                    errored: t.errored,
                    killed_batches: t.killed_batches,
                    batches: t.batches,
                    p50_ns: pct(0.50),
                    p95_ns: pct(0.95),
                    p99_ns: pct(0.99),
                    max_ns: t.max_lat,
                    mean_ns: t.mean_ns(),
                    slo_ns: t.slo_ns,
                    slo_attainment: t.slo_attainment(),
                    throughput_rps: Self::per_s(t.completed, makespan),
                    energy_nj: t.energy_nj,
                    peak_queue_depth: t.peak_depth as u64,
                    mean_queue_depth: t.mean_depth(makespan),
                    weight: t.weight,
                    attained_service_ns: t.attained_ns,
                    shard: owners[t.gid],
                    swapped: t.swapped,
                    histogram: t.hist.clone(),
                }
            })
            .collect();
        let total = |f: fn(&TenantStats) -> u64| tenants.iter().map(f).sum::<u64>();
        let (batches, total_completed) = (total(|t| t.batches), total(|t| t.completed));
        let replicas = self.cfg.replicas_per_shard;
        let per_replica = |f: &dyn Fn(&Shard, usize) -> u64| -> Vec<u64> {
            let shards = self.shards.iter();
            shards
                .flat_map(|s| (0..replicas).map(move |r| f(s, r)))
                .collect()
        };
        let health = |f: fn(&ReplicaHealth) -> u64| per_replica(&|s, r| f(&s.health[r]));
        ServingReport {
            seed: self.wl.seed,
            horizon_ns: self.wl.horizon_ns,
            makespan_ns: makespan,
            shards: self.cfg.shards,
            epochs: self.cfg.epochs,
            replicas: self.cfg.shards * replicas,
            replicas_final: self.total_active,
            replicas_peak: self.peak_active,
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                total_completed as f64 / batches as f64
            },
            total_submitted: total(|t| t.submitted),
            total_completed,
            total_rejected: total(|t| t.rejected),
            total_failed: total(|t| t.failed),
            total_retried: total(|t| t.retried),
            total_errored: total(|t| t.errored),
            replica_downtime_ns: per_replica(&|s, r| {
                s.plan.as_ref().map_or(0, |p| p.downtime_ns(r, makespan))
            }),
            replica_trips: health(|h| h.trips),
            replica_recals: health(|h| h.recals),
            replica_remaps: health(|h| h.remaps),
            replica_recovery_ns: health(|h| h.recovery_ns),
            total_energy_nj: tenants.iter().map(|t| t.energy_nj).sum(),
            aggregate_throughput_rps: Self::per_s(total_completed, makespan),
            fairness_index: Self::fairness(&states),
            tenants,
            shard_stats: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    shard: s.id,
                    tenants: owners.iter().filter(|&&o| o == s.id).count(),
                    replicas_active: s.replicas.active(),
                    replicas_total: s.replicas.len(),
                    dispatched_batches: s.dispatched,
                    steals_in: s.steals_in,
                    steals_out: s.steals_out,
                    makespan_ns: s.makespan,
                })
                .collect(),
            windows,
            epoch_signals,
            health_events: self
                .shards
                .iter_mut()
                .flat_map(|s| std::mem::take(&mut s.health_events))
                .collect(),
            scale_events: self.scale_events,
            steal_events: self.steal_events,
            swap_events: self.swap_events,
        }
    }
}

/// The sharded serving runtime (heap-mode scheduler unless the config
/// says otherwise): step every shard to each barrier, run the barrier,
/// then drain. The epoch-parallel driver in [`crate::parallel`] replays
/// exactly this schedule with shards stepped concurrently between
/// barriers.
pub fn run_sharded(tenants: &[TenantSpec], wl: &Workload, cfg: &ShardConfig) -> ServingReport {
    let _span = autohet_obs::trace::span("serve.run_sharded");
    let mut sim = ShardedSim::new(tenants, wl, cfg);
    sim.run();
    sim.finish(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::workload::{BurstSpec, RampSpec};
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn deployment(model: autohet_dnn::Model, shape: XbarShape) -> Deployment {
        let strategy = vec![shape; model.layers.len()];
        Deployment::compile(&model.name, &model, &strategy, &AccelConfig::default())
    }

    fn fleet(n: usize) -> Vec<TenantSpec> {
        let lenet = deployment(zoo::lenet5(), XbarShape::square(128));
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        (0..n)
            .map(|i| {
                let dep = if i % 2 == 0 {
                    lenet.clone()
                } else {
                    micro.clone()
                };
                let rate = 0.25 * dep.max_rate_rps() * (1.0 + (i % 3) as f64 * 0.5);
                let slo = (8.0 * dep.pipeline.fill_ns) as u64;
                let mut spec = TenantSpec::new(&format!("t{i}"), dep, rate, slo)
                    .with_weight(1 + (i % 4) as u64);
                if i % 5 == 0 {
                    spec = spec.with_burst(BurstSpec {
                        period_ns: 30_000_000,
                        burst_ns: 6_000_000,
                        factor: 5.0,
                    });
                }
                spec
            })
            .collect()
    }

    fn scan_mode(cfg: ShardConfig) -> ShardConfig {
        ShardConfig {
            mode: SelectMode::LinearScan,
            ..cfg
        }
    }

    #[test]
    fn heap_mode_is_bit_identical_to_the_linear_scan_reference() {
        let tenants = fleet(9);
        let wl = Workload {
            seed: 77,
            horizon_ns: 60_000_000,
        };
        for shards in [1usize, 2, 3, 8] {
            let cfg = ShardConfig {
                shards,
                replicas_per_shard: 2,
                epochs: 12,
                steal: Some(StealSpec::default()),
                ..ShardConfig::default()
            };
            let heap = run_sharded(&tenants, &wl, &cfg);
            let scan = run_sharded(&tenants, &wl, &scan_mode(cfg));
            assert_eq!(heap, scan, "shards={shards}");
        }
    }

    /// The linear-scan oracle for the FIFO pick and its replica
    /// couplings: an overloaded fleet (full batches, shedding) under
    /// outages, retries and every drift-breaker outcome.
    #[test]
    fn fifo_heap_mode_is_bit_identical_to_the_linear_scan_reference() {
        use crate::failure::FailureSpec;
        use crate::sim::{serve_fifo, HealthSpec, ServeConfig};
        let tenants = fleet(7);
        let wl = Workload {
            seed: 13,
            horizon_ns: 40_000_000,
        };
        let flaky = |seed| {
            Some(FailureSpec {
                mtbf_ns: 2_000_000,
                mttr_ns: 400_000,
                seed,
            })
        };
        let drift = |trip_milli, remap, recal_success_milli| {
            Some(HealthSpec {
                err_ppm_per_ms: 30_000,
                trip_milli,
                remap,
                recal_success_milli,
                ..HealthSpec::default()
            })
        };
        let base = ServeConfig {
            replicas: 2,
            queue_depth: 12,
            telemetry_windows: 8,
            ..ServeConfig::default()
        };
        let cases = [
            ServeConfig {
                failures: flaky(17),
                ..base
            },
            ServeConfig {
                failures: flaky(5),
                retry_deadline_ns: 0,
                ..base
            },
            ServeConfig {
                health: drift(60, true, 800),
                ..base
            },
            ServeConfig {
                health: drift(60, false, 0),
                ..base
            },
            ServeConfig {
                replicas: 3,
                failures: flaky(23),
                health: drift(60, true, 800),
                ..base
            },
            ServeConfig {
                max_batch: 3,
                queue_depth: 8,
                failures: flaky(9),
                health: drift(1001, false, 800),
                ..base
            },
        ];
        for (i, cfg) in cases.iter().enumerate() {
            let heap = serve_fifo(&tenants, &wl, cfg, SelectMode::Heap);
            let scan = serve_fifo(&tenants, &wl, cfg, SelectMode::LinearScan);
            assert!(heap.total_rejected > 0, "case {i} must overload the fleet");
            if cfg.failures.is_some() {
                assert!(
                    heap.tenants.iter().any(|t| t.killed_batches > 0),
                    "case {i}"
                );
            }
            if cfg.health.is_some() {
                assert!(heap.total_errored > 0, "case {i}");
            }
            assert_eq!(heap, scan, "case {i}");
        }
    }

    #[test]
    fn every_admitted_request_completes() {
        let tenants = fleet(7);
        let wl = Workload {
            seed: 5,
            horizon_ns: 50_000_000,
        };
        let cfg = ShardConfig {
            shards: 3,
            queue_depth: 4, // force rejections too
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert!(r.total_submitted > 0);
        assert_eq!(r.lost_requests(), 0);
        for t in &r.tenants {
            assert_eq!(t.submitted, t.completed + t.rejected, "{}", t.name);
        }
    }

    #[test]
    fn stealing_migrates_tenants_and_preserves_totals() {
        let tenants = fleet(8);
        let wl = Workload {
            seed: 11,
            horizon_ns: 80_000_000,
        };
        let base = ShardConfig {
            shards: 4,
            epochs: 20,
            ..ShardConfig::default()
        };
        let with_steal = ShardConfig {
            steal: Some(StealSpec {
                min_victim_backlog: 4,
                max_thief_backlog: 1,
            }),
            ..base
        };
        let stolen = run_sharded(&tenants, &wl, &with_steal);
        assert!(
            !stolen.steal_events.is_empty(),
            "expected at least one migration under an imbalanced fleet"
        );
        assert_eq!(stolen.lost_requests(), 0);
        // Submission totals are workload-determined, identical with and
        // without stealing; only queueing (and thus completion times)
        // may differ.
        let plain = run_sharded(&tenants, &wl, &base);
        assert_eq!(plain.total_submitted, stolen.total_submitted);
    }

    #[test]
    fn autoscaler_adds_replicas_under_burst_and_drains_after() {
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        let rate = 0.9 * micro.max_rate_rps();
        let slo = (10.0 * micro.pipeline.fill_ns) as u64;
        // One tenant slams the single replica during a mid-run burst.
        let tenants = vec![TenantSpec::new("hot", micro, rate, slo)
            .with_burst(BurstSpec {
                period_ns: 200_000_000,
                burst_ns: 60_000_000,
                factor: 6.0,
            })
            .with_weight(2)];
        let wl = Workload {
            seed: 9,
            horizon_ns: 200_000_000,
        };
        let cfg = ShardConfig {
            shards: 1,
            epochs: 40,
            queue_depth: 512,
            autoscale: Some(AutoscaleSpec {
                high_depth: 12.0,
                // Post-burst batching keeps ~1 request in flight even
                // over-provisioned, so the drain threshold sits above it.
                low_depth: 2.0,
                for_epochs: 2,
                clear_epochs: 2,
                min_replicas: 1,
                max_replicas: 8,
                cooldown_epochs: 0,
                ..AutoscaleSpec::default()
            }),
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        let ups = r.scale_events.iter().filter(|e| e.up).count();
        let downs = r.scale_events.iter().filter(|e| !e.up).count();
        assert!(ups >= 1, "no scale-up under engineered burst");
        assert!(downs >= 1, "no drain after the burst passed");
        assert!(r.replicas_peak > r.replicas);
        assert_eq!(r.lost_requests(), 0);
        // Identical decisions in the reference mode.
        let scan = run_sharded(&tenants, &wl, &scan_mode(cfg));
        assert_eq!(r, scan);
    }

    #[test]
    fn drifting_mix_triggers_swap_with_zero_lost_requests() {
        let lenet = deployment(zoo::lenet5(), XbarShape::square(128));
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        let alt = deployment(zoo::lenet5(), XbarShape::new(256, 128));
        let slo = (12.0 * lenet.pipeline.fill_ns) as u64;
        let base_rate = 0.2 * lenet.max_rate_rps();
        let tenants = vec![
            TenantSpec::new("drifter", lenet, base_rate, slo)
                .with_ramp(RampSpec {
                    start_ns: 20_000_000,
                    end_ns: 60_000_000,
                    to_factor: 8.0,
                })
                .with_alt(alt),
            TenantSpec::new("steady", micro.clone(), 0.4 * micro.max_rate_rps(), slo),
        ];
        let wl = Workload {
            seed: 21,
            horizon_ns: 120_000_000,
        };
        let cfg = ShardConfig {
            shards: 2,
            epochs: 24,
            queue_depth: 4096,
            swap: Some(SwapSpec {
                share_factor: 1.5,
                min_epoch_requests: 16,
                remap_ns: 2_000_000,
            }),
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert_eq!(r.swap_events.len(), 1, "expected exactly one swap");
        assert!(r.tenants[0].swapped);
        assert!(!r.tenants[1].swapped);
        assert_eq!(r.lost_requests(), 0, "swap must not lose requests");
        // The swap epoch comes after the drift onset.
        assert!(r.swap_events[0].t_ns > 20_000_000);
        // Bit-identical under the reference scheduler.
        let scan = run_sharded(&tenants, &wl, &scan_mode(cfg));
        assert_eq!(r, scan);
    }

    #[test]
    fn weights_shift_attained_service_under_contention() {
        // Two identical tenants driving sustained overload against a
        // bounded queue (so excess load is shed, not merely delayed),
        // weights 1 vs 4: attained service splits along the weights.
        let micro = deployment(zoo::micro_cnn(), XbarShape::square(128));
        let rate = 3.0 * micro.max_rate_rps();
        let slo = (6.0 * micro.pipeline.fill_ns) as u64;
        let tenants = vec![
            TenantSpec::new("light", micro.clone(), rate, slo).with_weight(1),
            TenantSpec::new("heavy", micro.clone(), rate, slo).with_weight(4),
        ];
        let wl = Workload {
            seed: 3,
            horizon_ns: 60_000_000,
        };
        let cfg = ShardConfig {
            shards: 1,
            queue_depth: 16,
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert!(r.total_rejected > 0, "scenario must actually shed load");
        let light = r.tenants[0].attained_service_ns as f64;
        let heavy = r.tenants[1].attained_service_ns as f64;
        assert!(
            heavy > 2.0 * light,
            "weight-4 tenant attained {heavy} vs weight-1 {light}"
        );
        assert!(r.fairness_index > 0.8, "weighted Jain {}", r.fairness_index);
    }

    #[test]
    fn windows_line_up_with_epochs_and_conserve_counts() {
        let tenants = fleet(5);
        let wl = Workload {
            seed: 42,
            horizon_ns: 30_000_000,
        };
        let cfg = ShardConfig {
            shards: 2,
            epochs: 6,
            ..ShardConfig::default()
        };
        let r = run_sharded(&tenants, &wl, &cfg);
        assert_eq!(r.windows.len(), 6);
        assert_eq!(r.epoch_signals.len(), 6);
        let sub: u64 = r.windows.iter().map(|w| w.submitted).sum();
        let comp: u64 = r.windows.iter().map(|w| w.completed).sum();
        assert_eq!(sub, r.total_submitted);
        assert_eq!(comp, r.total_completed);
        for w in &r.windows {
            assert!(w.fairness_index >= 0.0 && w.fairness_index <= 1.0);
        }
    }
}

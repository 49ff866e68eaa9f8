//! The discrete-event serving core and its single-threaded driver.
//!
//! The simulation is expressed as a recurrence rather than an explicit
//! event heap: [`SimCore::next_batch`] is called with the free time of
//! the earliest-free replica and returns the next dispatched batch,
//! internally ingesting every arrival (admission or shedding) that
//! precedes the dispatch. Because free times are non-decreasing across
//! calls, candidate dispatch times only improve as arrivals are ingested,
//! and ingestion is gated by the current best candidate, the resulting
//! event order is causally consistent; [`run_serving`] evaluates the
//! recurrence on one thread.

use crate::failure::FailurePlan;
use crate::ready::ReplicaPool;
use crate::report::{assemble_report, ServingReport};
use crate::workload::{merge_arrivals, Arrival, TenantSpec, Workload};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Online replica-health monitoring and drift recovery — the serving half
/// of the lifetime-resilience layer (DESIGN.md §12).
///
/// With a `HealthSpec` configured, every replica carries a drift clock:
/// the probability that a served request returns a corrupted result grows
/// linearly with the time since the replica was last recalibrated
/// (`err_ppm_per_ms`, capped at `err_cap_ppm`). Per-request error
/// decisions are keyed, order-free rolls on `(seed, replica, batch index,
/// position)`, so they do not depend on execution order.
///
/// The monitor folds each completed batch's error fraction into a
/// per-replica EWMA (`ewma_alpha_milli`); when the EWMA reaches
/// `trip_milli` the circuit breaker trips and the replica goes through
/// the online recovery cascade *while serving sheds to the healthy
/// replicas*: up to `max_retries` recalibration attempts (each pausing
/// the replica `recalibrate_ns` plus an exponentially growing backoff),
/// then — if `remap` is set — a remap escalation (`remap_ns`) that always
/// succeeds. A successful recovery resets the drift clock and the EWMA; a
/// failed one (recalibrate-only arm out of retries) only re-arms the
/// breaker, so drift keeps eroding accuracy.
///
/// All fields are integers so [`ServeConfig`] stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSpec {
    /// Per-request error probability growth: ppm per millisecond since
    /// the replica's last successful recalibration.
    pub err_ppm_per_ms: u64,
    /// Ceiling on the per-request error probability [ppm].
    pub err_cap_ppm: u64,
    /// EWMA weight on the newest batch's error fraction (1..=1000).
    pub ewma_alpha_milli: u64,
    /// Circuit-breaker threshold on the EWMA [milli]; a value above 1000
    /// can never be reached, disabling recovery entirely.
    pub trip_milli: u64,
    /// Replica pause per recalibration attempt [ns].
    pub recalibrate_ns: u64,
    /// Per-attempt recalibration success probability [milli].
    pub recal_success_milli: u64,
    /// Bounded recalibration attempts per trip.
    pub max_retries: u32,
    /// Extra pause before each attempt [ns], doubling per attempt.
    pub backoff_base_ns: u64,
    /// Replica pause for the remap escalation [ns].
    pub remap_ns: u64,
    /// Escalate to a remap (always succeeds) when retries are exhausted.
    pub remap: bool,
    /// Seed of the error/recovery rolls (independent of workload seed).
    pub seed: u64,
}

impl Default for HealthSpec {
    fn default() -> Self {
        HealthSpec {
            err_ppm_per_ms: 2_000,
            err_cap_ppm: 500_000,
            ewma_alpha_milli: 250,
            trip_milli: 60,
            recalibrate_ns: 300_000,
            recal_success_milli: 800,
            max_retries: 3,
            backoff_base_ns: 100_000,
            remap_ns: 1_500_000,
            remap: true,
            seed: 0x4EA1,
        }
    }
}

impl HealthSpec {
    pub(crate) fn validate(&self) {
        assert!(
            (1..=1000).contains(&self.ewma_alpha_milli),
            "EWMA weight must be in 1..=1000 milli"
        );
        assert!(
            self.recal_success_milli <= 1000,
            "success probability above 1"
        );
        assert!(self.err_cap_ppm <= 1_000_000, "error cap above 1");
    }
}

/// Per-replica online health state (all integer and recurrence-ordered,
/// so it evolves identically on every run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplicaHealth {
    /// Instant of the last successful recalibration/remap [ns].
    pub last_recal_ns: u64,
    /// Error-rate EWMA [milli].
    pub ewma_milli: u64,
    /// Circuit-breaker trips.
    pub trips: u64,
    /// Successful recalibrations.
    pub recals: u64,
    /// Remap escalations.
    pub remaps: u64,
    /// Total time spent paused in recovery [ns].
    pub recovery_ns: u64,
}

/// What happened in one replica-health transition (see [`HealthEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthEventKind {
    /// The error-EWMA circuit breaker tripped.
    Trip,
    /// An online recalibration attempt succeeded.
    Recal,
    /// Recovery escalated to a remap (always succeeds).
    Remap,
    /// Recalibration ran out of retries with no remap escalation.
    RecoveryFailed,
}

impl HealthEventKind {
    /// Lower-case label used by exporters and alert annotations.
    pub fn label(&self) -> &'static str {
        match self {
            HealthEventKind::Trip => "trip",
            HealthEventKind::Recal => "recal",
            HealthEventKind::Remap => "remap",
            HealthEventKind::RecoveryFailed => "recovery_failed",
        }
    }
}

/// One timestamped replica-health transition. Recorded inside
/// [`SimCore::apply_health`] at a fixed point of the scheduling
/// recurrence, so the event sequence is bit-identical across runs.
/// Trips carry the batch completion instant; recovery outcomes carry the
/// instant the replica came back (or gave up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Simulated instant of the transition [ns].
    pub t_ns: u64,
    /// Replica the transition happened on.
    pub replica: usize,
    /// Transition kind.
    pub kind: HealthEventKind,
}

/// Keyed order-free roll (splitmix64-style), the same discipline as the
/// crossbar fault sampler: a pure function of its keys, so error and
/// recovery decisions do not depend on evaluation order.
fn health_roll(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scheduler knobs for one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of identical accelerator instances.
    pub replicas: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Maximum time the oldest queued request waits before its tenant
    /// becomes dispatchable regardless of batch fill [ns].
    pub batch_window_ns: u64,
    /// Per-tenant bound on waiting requests; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Instance failure/recovery process; `None` models ideal replicas.
    pub failures: Option<crate::failure::FailureSpec>,
    /// A request interrupted by an instance failure is retried on a
    /// surviving replica only while its age is within this deadline;
    /// older interrupted requests are dropped as failed [ns].
    pub retry_deadline_ns: u64,
    /// Number of equal time windows over `[0, horizon)` to aggregate
    /// per-window telemetry into ([`WindowStats`] on the report); 0
    /// disables window telemetry. The windows are part of the simulated
    /// accounting (not the tracer), so the rest of the report is
    /// unaffected by this knob.
    ///
    /// [`WindowStats`]: crate::report::WindowStats
    #[serde(default)]
    pub telemetry_windows: usize,
    /// Online replica-health monitoring and drift recovery; `None`
    /// models drift-free replicas (no errors, no breaker).
    #[serde(default)]
    pub health: Option<HealthSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            replicas: 1,
            max_batch: 8,
            batch_window_ns: 1_000_000,
            queue_depth: 64,
            failures: None,
            retry_deadline_ns: 100_000_000,
            telemetry_windows: 0,
            health: None,
        }
    }
}

impl ServeConfig {
    pub(crate) fn validate(&self) {
        assert!(self.replicas >= 1, "need at least one replica");
        assert!(self.max_batch >= 1, "need at least one request per batch");
        assert!(self.queue_depth >= 1, "need queue space for one request");
        if let Some(f) = &self.failures {
            f.validate();
        }
        if let Some(h) = &self.health {
            h.validate();
        }
    }

    /// The outage schedule this configuration implies for `wl`.
    pub(crate) fn failure_plan(&self, wl: &Workload) -> FailurePlan {
        match &self.failures {
            Some(spec) => FailurePlan::generate(spec, self.replicas, wl.horizon_ns),
            None => FailurePlan::none(self.replicas),
        }
    }
}

/// One queued (or in-flight) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Req {
    /// Original arrival timestamp [ns] — latency and retry deadlines are
    /// always measured from here, across any number of retries.
    pub arrival_ns: u64,
    /// Times this request was returned to its queue by a killed batch.
    pub retries: u32,
}

/// A batch the scheduler decided to dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BatchJob {
    /// Dispatch sequence number (0-based, gap-free).
    pub index: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Dispatch timestamp [ns].
    pub start_ns: u64,
    /// Requests in the batch, FIFO order by arrival.
    pub requests: Vec<Req>,
}

/// A completed batch with everything report assembly needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BatchResult {
    pub index: usize,
    pub tenant: usize,
    pub completion_ns: u64,
    pub requests: Vec<Req>,
    /// Per-request drift-error flags, parallel to `requests`; empty when
    /// no request in the batch errored (the canonical all-clean encoding,
    /// so reports are identical whether health modeling is off or merely
    /// produced no errors).
    pub errored: Vec<bool>,
    pub energy_nj: f64,
    /// Busy replica-time the batch consumed (dispatch → completion) —
    /// the "attained service" the fairness index aggregates.
    pub service_ns: u64,
}

/// Queue/admission state shared by both execution modes.
pub(crate) struct SimCore {
    arrivals: Vec<Arrival>,
    cursor: usize,
    window_ns: u64,
    max_batch: usize,
    depth_bound: usize,
    queues: Vec<VecDeque<Req>>,
    next_index: usize,
    pub submitted: Vec<u64>,
    pub rejected: Vec<u64>,
    pub retried: Vec<u64>,
    pub failed: Vec<u64>,
    pub killed_batches: Vec<u64>,
    pub peak_depth: Vec<usize>,
    depth_area: Vec<u128>,
    last_event: Vec<u64>,
    // Per-window telemetry (empty when cfg.telemetry_windows == 0). The
    // accumulators are maintained inside the scheduling recurrence, so
    // both execution modes produce identical window accounting.
    win_len: u64,
    total_queued: usize,
    pub win_submitted: Vec<u64>,
    pub win_rejected: Vec<u64>,
    pub win_depth_area: Vec<u128>,
    pub win_peak_depth: Vec<usize>,
    // Online health monitoring (inert when `health_spec` is `None`). The
    // state is per replica but lives here so both execution modes mutate
    // it at the same point of the scheduling recurrence, under the lock.
    health_spec: Option<HealthSpec>,
    pub health: Vec<ReplicaHealth>,
    /// Timestamped health transitions in recurrence order (empty without
    /// a `HealthSpec` or when the breaker never trips).
    pub health_events: Vec<HealthEvent>,
}

impl SimCore {
    pub fn new(
        n_tenants: usize,
        arrivals: Vec<Arrival>,
        cfg: &ServeConfig,
        horizon_ns: u64,
    ) -> Self {
        let n_win = cfg.telemetry_windows;
        SimCore {
            arrivals,
            cursor: 0,
            window_ns: cfg.batch_window_ns,
            max_batch: cfg.max_batch,
            depth_bound: cfg.queue_depth,
            queues: vec![VecDeque::new(); n_tenants],
            next_index: 0,
            submitted: vec![0; n_tenants],
            rejected: vec![0; n_tenants],
            retried: vec![0; n_tenants],
            failed: vec![0; n_tenants],
            killed_batches: vec![0; n_tenants],
            peak_depth: vec![0; n_tenants],
            depth_area: vec![0; n_tenants],
            last_event: vec![0; n_tenants],
            win_len: if n_win == 0 {
                0
            } else {
                (horizon_ns / n_win as u64).max(1)
            },
            total_queued: 0,
            win_submitted: vec![0; n_win],
            win_rejected: vec![0; n_win],
            win_depth_area: vec![0; n_win],
            win_peak_depth: vec![0; n_win],
            health_spec: cfg.health,
            health: vec![ReplicaHealth::default(); cfg.replicas],
            health_events: Vec::new(),
        }
    }

    /// Health bookkeeping for a batch completing on `replica` at
    /// `completion_ns`: decide the per-request drift errors, fold the
    /// batch error fraction into the replica's EWMA, and — if the circuit
    /// breaker trips — run the bounded recalibrate → remap recovery.
    /// Returns the per-request error flags (empty when all clean) and the
    /// instant the replica is next free (≥ `completion_ns`; recovery
    /// pauses extend it, shedding load to the healthy replicas).
    ///
    /// Everything here is a pure function of the spec and this replica's
    /// own completion sequence (error rolls are keyed on batch index and
    /// position, recovery rolls on the trip count), so both execution
    /// drivers evolve identical health state.
    pub fn apply_health(
        &mut self,
        replica: usize,
        job: &BatchJob,
        completion_ns: u64,
    ) -> (Vec<bool>, u64) {
        let Some(spec) = self.health_spec else {
            return (Vec::new(), completion_ns);
        };
        let h = &mut self.health[replica];
        let elapsed_ns = job.start_ns.saturating_sub(h.last_recal_ns);
        let p_ppm = ((spec.err_ppm_per_ms as u128 * elapsed_ns as u128) / 1_000_000)
            .min(spec.err_cap_ppm as u128) as u64;
        let mut errored = vec![false; job.requests.len()];
        let mut errors = 0u64;
        if p_ppm > 0 {
            for (i, e) in errored.iter_mut().enumerate() {
                if health_roll(spec.seed, replica as u64, job.index as u64, i as u64) % 1_000_000
                    < p_ppm
                {
                    *e = true;
                    errors += 1;
                }
            }
        }
        if errors == 0 {
            errored = Vec::new();
        }
        let batch_milli = errors * 1000 / job.requests.len().max(1) as u64;
        h.ewma_milli = (spec.ewma_alpha_milli * batch_milli
            + (1000 - spec.ewma_alpha_milli) * h.ewma_milli)
            / 1000;
        if h.ewma_milli < spec.trip_milli {
            return (errored, completion_ns);
        }
        // Circuit breaker: take the replica out of service and recover.
        h.trips += 1;
        self.health_events.push(HealthEvent {
            t_ns: completion_ns,
            replica,
            kind: HealthEventKind::Trip,
        });
        let mut t = completion_ns;
        for attempt in 0..spec.max_retries {
            t += spec.recalibrate_ns + (spec.backoff_base_ns << attempt.min(20));
            let roll = health_roll(
                spec.seed ^ 0x5EA1ED,
                replica as u64,
                h.trips,
                attempt as u64,
            ) % 1000;
            if roll < spec.recal_success_milli {
                h.recals += 1;
                h.last_recal_ns = t;
                h.ewma_milli = 0;
                h.recovery_ns += t - completion_ns;
                self.health_events.push(HealthEvent {
                    t_ns: t,
                    replica,
                    kind: HealthEventKind::Recal,
                });
                return (errored, t);
            }
        }
        if spec.remap {
            t += spec.remap_ns;
            h.remaps += 1;
            h.last_recal_ns = t;
            h.ewma_milli = 0;
            h.recovery_ns += t - completion_ns;
            self.health_events.push(HealthEvent {
                t_ns: t,
                replica,
                kind: HealthEventKind::Remap,
            });
            return (errored, t);
        }
        // Out of retries with no remap escalation: the breaker re-arms
        // but the drift clock keeps running — accuracy keeps eroding.
        h.ewma_milli = 0;
        h.recovery_ns += t - completion_ns;
        self.health_events.push(HealthEvent {
            t_ns: t,
            replica,
            kind: HealthEventKind::RecoveryFailed,
        });
        (errored, t)
    }

    /// Telemetry window containing instant `t` (the last window absorbs
    /// everything past the nominal horizon — the drain tail).
    pub fn window_of(&self, t_ns: u64) -> usize {
        debug_assert!(self.win_len > 0);
        ((t_ns / self.win_len) as usize).min(self.win_submitted.len() - 1)
    }

    /// Nominal length of one telemetry window [ns] (0 when disabled).
    pub fn window_len_ns(&self) -> u64 {
        self.win_len
    }

    /// Add `depth × dt` of aggregate queue depth over `[from, to)` to the
    /// per-window depth integrals, splitting across window boundaries.
    fn add_depth_span(&mut self, depth: u128, from: u64, to: u64) {
        if self.win_submitted.is_empty() || to <= from {
            return;
        }
        let last = self.win_submitted.len() - 1;
        let mut t = from;
        while t < to {
            let w = self.window_of(t);
            let end = if w == last {
                to
            } else {
                ((w as u64 + 1) * self.win_len).min(to)
            };
            self.win_depth_area[w] += depth * (end - t) as u128;
            t = end;
        }
    }

    /// Record that the aggregate queued-request count changed at `t`.
    fn note_total_depth(&mut self, t_ns: u64) {
        if self.win_submitted.is_empty() {
            return;
        }
        let w = self.window_of(t_ns);
        if self.total_queued > self.win_peak_depth[w] {
            self.win_peak_depth[w] = self.total_queued;
        }
    }

    /// Earliest dispatch `(at, head_arrival, tenant)` for tenant `t`
    /// given the earliest replica free time, if `t` has queued work.
    fn candidate(&self, t: usize, free_ns: u64) -> Option<(u64, u64, usize)> {
        let q = &self.queues[t];
        let head = q.front()?.arrival_ns;
        let mut ready = head.saturating_add(self.window_ns);
        if q.len() >= self.max_batch {
            // The batch filled when its max_batch-th request arrived.
            ready = ready.min(q[self.max_batch - 1].arrival_ns);
        }
        Some((ready.max(free_ns), head, t))
    }

    /// Best dispatch over all tenants: min (time, head age, tenant id).
    fn best_candidate(&self, free_ns: u64) -> Option<(u64, u64, usize)> {
        (0..self.queues.len())
            .filter_map(|t| self.candidate(t, free_ns))
            .min()
    }

    /// Advance the time-weighted queue-depth integral for tenant `t` up
    /// to `now` (per-tenant event times are monotone).
    fn track_depth(&mut self, t: usize, now: u64) {
        let dt = now.saturating_sub(self.last_event[t]);
        let depth = self.queues[t].len() as u128;
        self.depth_area[t] += depth * dt as u128;
        let (from, to) = (self.last_event[t], now);
        self.add_depth_span(depth, from, to);
        self.last_event[t] = now;
    }

    /// Admit or shed one arrival.
    fn ingest(&mut self, a: Arrival) {
        self.submitted[a.tenant] += 1;
        if !self.win_submitted.is_empty() {
            let w = self.window_of(a.time_ns);
            self.win_submitted[w] += 1;
            if self.queues[a.tenant].len() >= self.depth_bound {
                self.win_rejected[w] += 1;
            }
        }
        if self.queues[a.tenant].len() >= self.depth_bound {
            self.rejected[a.tenant] += 1;
            return;
        }
        self.track_depth(a.tenant, a.time_ns);
        self.queues[a.tenant].push_back(Req {
            arrival_ns: a.time_ns,
            retries: 0,
        });
        self.total_queued += 1;
        self.note_total_depth(a.time_ns);
        let depth = self.queues[a.tenant].len();
        if depth > self.peak_depth[a.tenant] {
            self.peak_depth[a.tenant] = depth;
        }
    }

    /// Ingest arrivals up to the next dispatch and return its time without
    /// draining any queue — the failure-aware drivers use this to check
    /// replica availability *at the dispatch instant* before committing.
    /// A subsequent [`next_batch`](Self::next_batch) with the same
    /// `free_ns` returns exactly the peeked batch. Idempotent at
    /// exhaustion.
    pub fn peek_dispatch(&mut self, free_ns: u64) -> Option<u64> {
        loop {
            let best = self.best_candidate(free_ns);
            let next = self.arrivals.get(self.cursor).copied();
            match (best, next) {
                (None, None) => return None,
                (None, Some(a)) => {
                    self.cursor += 1;
                    self.ingest(a);
                }
                (Some((at, _, _)), next) => {
                    if let Some(a) = next {
                        // Arrivals at the dispatch instant join first.
                        if a.time_ns <= at {
                            self.cursor += 1;
                            self.ingest(a);
                            continue;
                        }
                    }
                    return Some(at);
                }
            }
        }
    }

    /// The scheduling recurrence: given the minimum replica free time,
    /// ingest arrivals up to the next dispatch and return that batch, or
    /// `None` once the workload is drained. Idempotent at exhaustion.
    pub fn next_batch(&mut self, free_ns: u64) -> Option<BatchJob> {
        self.peek_dispatch(free_ns)?;
        let (at, _, t) = self
            .best_candidate(free_ns)
            .expect("peeked dispatch vanished");
        let n = self.queues[t].len().min(self.max_batch);
        self.track_depth(t, at);
        let requests: Vec<Req> = self.queues[t].drain(..n).collect();
        self.total_queued -= n;
        let index = self.next_index;
        self.next_index += 1;
        Some(BatchJob {
            index,
            tenant: t,
            start_ns: at,
            requests,
        })
    }

    /// Return a killed batch's requests to the head of their queue (they
    /// are the oldest outstanding requests, so FIFO order by arrival is
    /// preserved): a request is retried while its age at `killed_ns` is
    /// within `deadline_ns`, and dropped as failed otherwise. Retried
    /// requests keep their original arrival time, so their eventual
    /// latency spans the failure.
    pub fn requeue(&mut self, job: BatchJob, killed_ns: u64, deadline_ns: u64) {
        let t = job.tenant;
        self.killed_batches[t] += 1;
        self.track_depth(t, killed_ns);
        for req in job.requests.into_iter().rev() {
            if killed_ns.saturating_sub(req.arrival_ns) <= deadline_ns {
                self.retried[t] += 1;
                self.queues[t].push_front(Req {
                    arrival_ns: req.arrival_ns,
                    retries: req.retries + 1,
                });
                self.total_queued += 1;
            } else {
                self.failed[t] += 1;
            }
        }
        self.note_total_depth(killed_ns);
        let depth = self.queues[t].len();
        if depth > self.peak_depth[t] {
            self.peak_depth[t] = depth;
        }
    }

    /// Mean waiting-queue depth for tenant `t` over `[0, makespan_ns]`.
    pub fn mean_depth(&self, t: usize, makespan_ns: u64) -> f64 {
        if makespan_ns == 0 {
            return 0.0;
        }
        self.depth_area[t] as f64 / makespan_ns as f64
    }
}

/// Turn a dispatched batch into its completed result.
pub(crate) fn finish_batch(
    spec: &TenantSpec,
    job: BatchJob,
    completion_ns: u64,
    errored: Vec<bool>,
) -> BatchResult {
    let n = job.requests.len();
    BatchResult {
        index: job.index,
        tenant: job.tenant,
        completion_ns,
        service_ns: completion_ns.saturating_sub(job.start_ns),
        requests: job.requests,
        errored,
        energy_nj: n as f64 * spec.deployment.energy_per_request_nj(),
    }
}

/// Run the serving simulation on a single thread.
///
/// Same (tenants, workload, config) ⇒ bit-identical [`ServingReport`].
///
/// With `cfg.failures` set, the loop additionally consults the replica
/// outage schedule at every step: a replica that is down at its would-be
/// dispatch instant fails over (its free time jumps to the recovery edge
/// and the turn passes to survivors), and a batch whose service window an
/// outage cuts short is killed at the failure edge, its requests retried
/// within the deadline or dropped as failed. Outages and service times
/// are both known at dispatch, so every batch's fate is resolved
/// synchronously.
pub fn run_serving(tenants: &[TenantSpec], wl: &Workload, cfg: &ServeConfig) -> ServingReport {
    let _span = autohet_obs::trace::span("serve.run");
    cfg.validate();
    let plan = cfg.failure_plan(wl);
    let mut core = SimCore::new(
        tenants.len(),
        merge_arrivals(tenants, wl),
        cfg,
        wl.horizon_ns,
    );
    // Heap-backed replica free-list: O(log R) per update instead of the
    // old `argmin_replica` O(R) scan, with the scan's exact lowest-id
    // tie-break — decisions are unchanged bit for bit.
    let mut pool = ReplicaPool::new(cfg.replicas);
    let mut batches = Vec::new();
    loop {
        let (f, r) = pool.peek_min().expect("at least one replica");
        // Down at the earliest free instant: wait out the outage.
        if let Some(up) = plan.down_until(r, f) {
            pool.set_free(r, up);
            continue;
        }
        let Some(at) = core.peek_dispatch(f) else {
            break;
        };
        // Down at the dispatch instant: fail over without touching queues.
        if let Some(up) = plan.down_until(r, at) {
            pool.set_free(r, up);
            continue;
        }
        let job = core.next_batch(f).expect("peeked batch vanished");
        let spec = &tenants[job.tenant];
        let completion = job.start_ns + spec.deployment.service_ns(job.requests.len());
        match plan.outage_in(r, job.start_ns, completion) {
            Some(o) => {
                pool.set_free(r, o.up_ns);
                core.requeue(job, o.down_ns, cfg.retry_deadline_ns);
            }
            None => {
                let (errored, next_free) = core.apply_health(r, &job, completion);
                pool.set_free(r, next_free);
                batches.push(finish_batch(spec, job, completion, errored));
            }
        }
    }
    assemble_report(tenants, wl, cfg, &core, &batches, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use autohet_accel::AccelConfig;
    use autohet_dnn::zoo;
    use autohet_xbar::XbarShape;

    fn lenet_deployment() -> Deployment {
        let m = zoo::lenet5();
        let strategy = vec![XbarShape::square(128); m.layers.len()];
        Deployment::compile("lenet", &m, &strategy, &AccelConfig::default())
    }

    /// One tenant at `load` × single-replica capacity.
    fn tenant_at_load(load: f64, slo_mult: f64) -> TenantSpec {
        let d = lenet_deployment();
        let rate = load * d.max_rate_rps();
        let slo = (slo_mult * d.pipeline.fill_ns) as u64;
        TenantSpec::new("lenet", d, rate, slo.max(1))
    }

    fn wl(seed: u64, n_requests: f64, rate_rps: f64) -> Workload {
        Workload {
            seed,
            horizon_ns: (n_requests / rate_rps * 1e9) as u64,
        }
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 2_000.0, t[0].rate_rps);
        let cfg = ServeConfig::default();
        assert_eq!(run_serving(&t, &w, &cfg), run_serving(&t, &w, &cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let rate = t[0].rate_rps;
        let a = run_serving(&t, &wl(1, 1_000.0, rate), &ServeConfig::default());
        let b = run_serving(&t, &wl(2, 1_000.0, rate), &ServeConfig::default());
        assert_ne!(a, b);
    }

    #[test]
    fn conservation_completed_plus_rejected_is_submitted() {
        // Overload so shedding actually happens.
        let t = vec![tenant_at_load(3.0, 10.0)];
        let w = wl(9, 3_000.0, t[0].rate_rps);
        let cfg = ServeConfig {
            queue_depth: 16,
            ..ServeConfig::default()
        };
        let r = run_serving(&t, &w, &cfg);
        let s = &r.tenants[0];
        assert!(s.rejected > 0, "overload should shed");
        assert_eq!(s.completed + s.rejected, s.submitted);
        assert_eq!(r.total_completed + r.total_rejected, s.submitted);
        assert_eq!(s.histogram.count(), s.completed);
    }

    #[test]
    fn max_batch_one_disables_batching() {
        let t = vec![tenant_at_load(0.5, 10.0)];
        let w = wl(4, 500.0, t[0].rate_rps);
        let cfg = ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        };
        let r = run_serving(&t, &w, &cfg);
        assert_eq!(r.batches, r.total_completed);
        assert!((r.mean_batch_size - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overload_forms_larger_batches_than_light_load() {
        let make = |load: f64| {
            let t = vec![tenant_at_load(load, 10.0)];
            let w = wl(8, 2_000.0, t[0].rate_rps);
            run_serving(&t, &w, &ServeConfig::default())
        };
        let light = make(0.05);
        let heavy = make(2.0);
        assert!(heavy.mean_batch_size > light.mean_batch_size);
        assert!(heavy.mean_batch_size > 2.0, "{}", heavy.mean_batch_size);
    }

    #[test]
    fn latency_stats_are_ordered_and_bounded_below_by_service() {
        let t = vec![tenant_at_load(0.7, 10.0)];
        let w = wl(13, 2_000.0, t[0].rate_rps);
        let r = run_serving(&t, &w, &ServeConfig::default());
        let s = &r.tenants[0];
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
        // A request can't finish faster than a single-sample service.
        assert!(s.p50_ns >= t[0].deployment.service_ns(1));
        assert!(s.mean_ns > 0.0);
        assert!(s.peak_queue_depth >= 1);
        assert!(s.mean_queue_depth >= 0.0);
    }

    #[test]
    fn second_replica_relieves_an_overloaded_tenant() {
        let t = vec![tenant_at_load(1.5, 4.0)];
        let w = wl(21, 3_000.0, t[0].rate_rps);
        let one = run_serving(&t, &w, &ServeConfig::default());
        let two = run_serving(
            &t,
            &w,
            &ServeConfig {
                replicas: 2,
                ..ServeConfig::default()
            },
        );
        assert!(two.tenants[0].p99_ns < one.tenants[0].p99_ns);
        assert!(two.tenants[0].slo_attainment > one.tenants[0].slo_attainment);
        assert!(two.makespan_ns <= one.makespan_ns);
    }

    #[test]
    fn generous_slo_is_met_under_light_load() {
        let t = vec![tenant_at_load(0.1, 1_000.0)];
        let w = wl(2, 300.0, t[0].rate_rps);
        let r = run_serving(&t, &w, &ServeConfig::default());
        assert_eq!(r.tenants[0].rejected, 0);
        assert!((r.tenants[0].slo_attainment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let mut spec = tenant_at_load(0.5, 10.0);
        spec.rate_rps = 0.0;
        let w = Workload {
            seed: 0,
            horizon_ns: 1_000_000,
        };
        let r = run_serving(&[spec], &w, &ServeConfig::default());
        assert_eq!(r.total_completed, 0);
        assert_eq!(r.batches, 0);
        assert_eq!(r.tenants[0].p99_ns, 0);
        assert_eq!(r.makespan_ns, w.horizon_ns);
        assert!((r.tenants[0].slo_attainment - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_tenants_share_capacity_fairly_by_arrival_order() {
        let a = tenant_at_load(0.4, 10.0);
        let b = tenant_at_load(0.4, 10.0);
        let w = wl(31, 2_000.0, a.rate_rps + b.rate_rps);
        let r = run_serving(&[a, b], &w, &ServeConfig::default());
        assert_eq!(r.tenants.len(), 2);
        // Symmetric tenants under a shared replica: both make progress.
        assert!(r.tenants[0].completed > 0);
        assert!(r.tenants[1].completed > 0);
    }

    /// A failure spec aggressive enough to kill batches mid-service.
    fn flaky(seed: u64) -> crate::failure::FailureSpec {
        crate::failure::FailureSpec {
            mtbf_ns: 2_000_000,
            mttr_ns: 400_000,
            seed,
        }
    }

    #[test]
    fn failure_free_runs_report_zero_failure_accounting() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 1_000.0, t[0].rate_rps);
        let r = run_serving(&t, &w, &ServeConfig::default());
        let s = &r.tenants[0];
        assert_eq!(s.failed, 0);
        assert_eq!(s.retried, 0);
        assert_eq!(s.degraded_completed, 0);
        assert_eq!(s.killed_batches, 0);
        assert_eq!(r.total_failed, 0);
        assert_eq!(r.total_retried, 0);
        assert!(r.replica_downtime_ns.iter().all(|&d| d == 0));
    }

    #[test]
    fn failures_cause_kills_retries_and_conserve_requests() {
        let t = vec![tenant_at_load(0.7, 10.0), tenant_at_load(0.3, 10.0)];
        let w = wl(5, 2_000.0, t[0].rate_rps + t[1].rate_rps);
        let cfg = ServeConfig {
            replicas: 2,
            failures: Some(flaky(17)),
            ..ServeConfig::default()
        };
        let r = run_serving(&t, &w, &cfg);
        let killed: u64 = r.tenants.iter().map(|s| s.killed_batches).sum();
        assert!(killed > 0, "aggressive failures should kill batches");
        assert!(r.total_retried > 0);
        assert!(r.replica_downtime_ns.iter().any(|&d| d > 0));
        for s in &r.tenants {
            assert_eq!(
                s.completed + s.rejected + s.failed,
                s.submitted,
                "request conservation for {}",
                s.name
            );
            assert!(s.degraded_completed <= s.completed);
        }
        // Retried-but-completed requests surface as degraded service.
        let degraded: u64 = r.tenants.iter().map(|s| s.degraded_completed).sum();
        assert!(degraded > 0);
    }

    #[test]
    fn zero_retry_deadline_drops_every_killed_request() {
        let t = vec![tenant_at_load(0.7, 10.0)];
        let w = wl(5, 1_500.0, t[0].rate_rps);
        let cfg = ServeConfig {
            failures: Some(flaky(17)),
            retry_deadline_ns: 0,
            ..ServeConfig::default()
        };
        let r = run_serving(&t, &w, &cfg);
        let s = &r.tenants[0];
        assert!(s.killed_batches > 0);
        assert!(s.failed > 0, "no deadline headroom: kills become failures");
        assert_eq!(s.retried, 0);
        assert_eq!(s.degraded_completed, 0);
        assert_eq!(s.completed + s.rejected + s.failed, s.submitted);
    }

    #[test]
    fn failure_runs_are_deterministic_and_seed_sensitive() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(8, 1_000.0, t[0].rate_rps);
        let mk = |seed| ServeConfig {
            replicas: 2,
            failures: Some(flaky(seed)),
            ..ServeConfig::default()
        };
        let a = run_serving(&t, &w, &mk(1));
        let b = run_serving(&t, &w, &mk(1));
        let c = run_serving(&t, &w, &mk(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// A drift spec strong enough to corrupt results within the short
    /// test horizons (serving horizons are tens of milliseconds, so the
    /// per-ms growth must be steep to matter).
    fn drifting(trip_milli: u64, remap: bool) -> HealthSpec {
        HealthSpec {
            err_ppm_per_ms: 30_000,
            trip_milli,
            remap,
            ..HealthSpec::default()
        }
    }

    #[test]
    fn zero_drift_health_is_indistinguishable_from_disabled() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(42, 1_500.0, t[0].rate_rps);
        let off = run_serving(&t, &w, &ServeConfig::default());
        let on = run_serving(
            &t,
            &w,
            &ServeConfig {
                health: Some(HealthSpec {
                    err_ppm_per_ms: 0,
                    ..HealthSpec::default()
                }),
                ..ServeConfig::default()
            },
        );
        assert_eq!(off, on, "a drift-free monitor must not perturb the run");
    }

    #[test]
    fn unchecked_drift_erodes_accuracy_and_slo_attainment() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 2_000.0, t[0].rate_rps);
        let clean = run_serving(&t, &w, &ServeConfig::default());
        let r = run_serving(
            &t,
            &w,
            &ServeConfig {
                // Breaker threshold above 1000 milli: can never trip.
                health: Some(drifting(1001, false)),
                ..ServeConfig::default()
            },
        );
        let s = &r.tenants[0];
        assert!(s.errored > 0, "steep drift must corrupt results");
        assert!(s.errored <= s.completed);
        assert_eq!(s.completed + s.rejected, s.submitted);
        assert!(s.slo_attainment < clean.tenants[0].slo_attainment);
        assert!(r.clean_fraction() < 1.0);
        assert!(r.replica_trips.iter().all(|&n| n == 0));
        assert_eq!(r.total_errored, s.errored);
    }

    #[test]
    fn recovery_trips_the_breaker_and_restores_accuracy() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 2_000.0, t[0].rate_rps);
        let cfg = |spec| ServeConfig {
            health: Some(spec),
            ..ServeConfig::default()
        };
        let unchecked = run_serving(&t, &w, &cfg(drifting(1001, false)));
        let recovered = run_serving(&t, &w, &cfg(drifting(60, true)));
        assert!(
            recovered.replica_trips.iter().sum::<u64>() > 0,
            "the breaker must trip under steep drift"
        );
        let repairs: u64 = recovered.replica_recals.iter().sum::<u64>()
            + recovered.replica_remaps.iter().sum::<u64>();
        assert!(repairs > 0, "trips must lead to recoveries");
        assert!(recovered.replica_recovery_ns.iter().sum::<u64>() > 0);
        assert!(recovered.total_errored < unchecked.total_errored);
        assert!(recovered.clean_fraction() > unchecked.clean_fraction());
        assert!(
            recovered.tenants[0].slo_attainment > unchecked.tenants[0].slo_attainment,
            "recovery pauses must cost less than unchecked corruption"
        );
    }

    #[test]
    fn hopeless_recalibration_escalates_to_remap() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(7, 1_500.0, t[0].rate_rps);
        let r = run_serving(
            &t,
            &w,
            &ServeConfig {
                health: Some(HealthSpec {
                    recal_success_milli: 0,
                    max_retries: 2,
                    ..drifting(60, true)
                }),
                ..ServeConfig::default()
            },
        );
        let trips: u64 = r.replica_trips.iter().sum();
        assert!(trips > 0);
        assert_eq!(r.replica_recals.iter().sum::<u64>(), 0);
        assert_eq!(r.replica_remaps.iter().sum::<u64>(), trips);
    }

    #[test]
    fn health_runs_are_deterministic_and_seed_sensitive() {
        let t = vec![tenant_at_load(0.6, 10.0)];
        let w = wl(8, 1_000.0, t[0].rate_rps);
        let mk = |seed| ServeConfig {
            health: Some(HealthSpec {
                seed,
                ..drifting(60, true)
            }),
            ..ServeConfig::default()
        };
        let a = run_serving(&t, &w, &mk(1));
        let b = run_serving(&t, &w, &mk(1));
        let c = run_serving(&t, &w, &mk(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn failures_never_improve_service() {
        let t = vec![tenant_at_load(0.8, 6.0)];
        let w = wl(3, 2_000.0, t[0].rate_rps);
        let healthy = run_serving(&t, &w, &ServeConfig::default());
        let failing = run_serving(
            &t,
            &w,
            &ServeConfig {
                failures: Some(flaky(9)),
                ..ServeConfig::default()
            },
        );
        assert!(failing.tenants[0].slo_attainment <= healthy.tenants[0].slo_attainment);
        assert!(failing.makespan_ns >= healthy.makespan_ns);
        assert!(failing.total_completed <= healthy.total_completed);
    }
}

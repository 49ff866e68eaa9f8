//! # autohet-serve — deterministic multi-tenant inference serving
//!
//! The search crates answer *"what accelerator should we build?"*; this
//! crate answers *"how does that accelerator behave as a service?"*. It
//! simulates an inference-serving deployment — per-tenant request queues,
//! batching, admission control, replicated accelerator instances — on top
//! of the analytical cost model: a [`Deployment`] compiles a
//! (model, strategy, [`AccelConfig`](autohet_accel::AccelConfig)) triple
//! into batch service times (via
//! [`PipelineReport`](autohet_accel::PipelineReport)) and per-request
//! energy (via [`EvalReport`](autohet_accel::EvalReport)).
//!
//! ## Model
//!
//! - **Time** is integer nanoseconds (`u64`) of virtual time; nothing
//!   depends on wall clocks, so every run is exactly reproducible.
//! - **Arrivals** are open-loop Poisson processes, one seeded
//!   [`SmallRng`](rand::rngs::SmallRng) stream per tenant, optionally
//!   modulated by a periodic [`BurstSpec`].
//! - **Queues** are per-tenant FIFO. An arrival that finds its tenant's
//!   queue at the configured depth bound is *shed* (counted as rejected).
//! - **Batching**: a tenant's queue becomes dispatchable when it holds
//!   `max_batch` requests or its oldest request has waited
//!   `batch_window_ns`. A dispatch drains up to `max_batch` requests into
//!   one batch; batch latency is the pipeline's
//!   `fill + (n − 1) × bottleneck` law.
//! - **Replicas** are identical accelerator instances. Each batch goes to
//!   the earliest-free replica (ties: lowest replica id). Which
//!   dispatchable tenant it serves is the scheduler's *pick rule*:
//!   global FIFO in [`run_serving`] (the oldest head request wins, ties
//!   to the lowest tenant id), weighted deficit round-robin in
//!   [`run_sharded`].
//! - **Failures** (optional, [`run_serving`]): replica instances fail
//!   and recover on a seeded alternating renewal schedule
//!   ([`FailureSpec`] → [`FailurePlan`]). A down replica is skipped at
//!   dispatch time (failover to survivors); a batch interrupted
//!   mid-service is killed and its requests retried — back at the queue
//!   front, keeping FIFO by arrival — unless their retry deadline has
//!   passed, in which case they count as failed. Completed requests that
//!   survived a kill are reported per tenant as `degraded_completed`.
//! - **Drift & recovery** (optional, [`run_serving`]): with a
//!   [`HealthSpec`] configured, each replica accumulates conductance
//!   drift — per-request result corruption whose probability grows with
//!   the time since the last recalibration. An online monitor EWMAs each replica's batch error
//!   fraction and trips a circuit breaker, taking the replica through
//!   bounded recalibration retries (exponential backoff) and an optional
//!   remap escalation while load sheds to the healthy replicas. Errored
//!   completions are reported per tenant and count as SLO violations.
//!
//! ## Determinism
//!
//! There is one scheduler ([`shard`]): a recurrence in which "the
//! replica with the minimum free time takes the next dispatchable batch".
//! It is evaluated on integer simulated time over pre-generated arrival
//! and outage streams, so the same (tenants, workload, config) always
//! yields a bit-identical report (asserted by tests and golden pins).
//! [`run_serving`] runs it on one thread; parallel serving is the
//! sharded runtime's job ([`run_sharded_threaded`], below).
//!
//! ## Simplifications
//!
//! Host-side overheads (RPC, pre/post-processing) are out of scope; a
//! request's energy is its deployment's single-inference energy; weights
//! for all tenants are assumed resident (ReRAM weight programming is a
//! deploy-time cost, §4.5 of the paper).
//!
//! ## The sharded runtime
//!
//! [`run_sharded`] runs the same scheduler at the scale of hundreds of
//! tenants and millions of requests: tenants partition across
//! shard-local schedulers with their own queues, clocks, and replica
//! pools; the pick rule is deficit round-robin over per-tenant weights
//! ([`TenantSpec::weight`]); and all cross-shard coupling — work
//! stealing, telemetry-driven replica autoscaling, online strategy swap
//! on workload-mix drift — happens at deterministic epoch barriers.
//! [`run_serving`] is the same scheduler at one shard with the FIFO pick
//! and the failure and health couplings, its epochs doubling as the
//! telemetry windows. The heap-mode scheduler, the linear-scan reference
//! ([`SelectMode::LinearScan`]), and the epoch-parallel driver
//! ([`run_sharded_threaded`]) are bit-identical; see [`shard`] for the
//! architecture and determinism argument.
//!
//! ## One report
//!
//! Every entry point returns a [`ServingReport`]: per-tenant
//! [`TenantStats`], per-window [`WindowStats`] and per-shard
//! [`ShardStats`], with the health, scale, steal and swap events of the
//! couplings the run used (the others stay zero or empty). The
//! [`telemetry`] bridges take it whichever pick rule produced it:
//! [`window_series`], [`publish_report`] and [`alert_timeline`].

pub mod deploy;
pub mod drr;
pub mod failure;
pub mod parallel;
pub mod ready;
pub mod report;
pub mod shard;
pub mod sim;
pub mod telemetry;
pub mod workload;

pub use deploy::Deployment;
pub use drr::{DrrAccess, DrrRing};
pub use failure::{FailurePlan, FailureSpec, Outage};
pub use parallel::run_sharded_threaded;
pub use ready::{ReplicaPool, StampedHeap};
pub use report::{jain_index, LatencyHistogram, ServingReport, TenantStats, WindowStats};
pub use shard::{
    run_sharded, AutoscaleSpec, EpochSignal, ScaleEvent, SelectMode, ShardConfig,
    ShardServingReport, ShardStats, StealEvent, StealSpec, SwapEvent, SwapSpec,
};
pub use sim::{run_serving, HealthEvent, HealthEventKind, HealthSpec, ServeConfig};
pub use telemetry::{alert_timeline, publish_report, window_series, ServeAlertConfig};
pub use workload::{
    merge_arrivals, tenant_arrivals, Arrival, BurstSpec, RampSpec, TenantSpec, Workload,
};

//! The workload executor facade.
//!
//! Executes closed-loop multi-session workloads against the simulated
//! machine — 1 host CPU plus K co-processors, each with its own column
//! cache, operator heap and host link. Operators run for real on the
//! host (results are correct); all timing, transfer, contention and
//! memory behaviour is simulated:
//!
//! * per-device FIFO ready queues with worker slots (bounded only when
//!   the policy chops — Section 5),
//! * input transfers over the per-device FIFO interconnect, with each
//!   co-processor's column cache consulted for base columns,
//! * staged co-processor heap allocation (Section 2.5.1: operators cannot
//!   pre-declare their footprint and allocate in several steps), so an
//!   operator can abort mid-flight, wasting the time it already spent
//!   (Figure 20's metric),
//! * abort handling: the failed operator restarts on the CPU; whether its
//!   successors follow depends on the placement strategy (Figure 8).
//!
//! This module is the thin public surface; the runtime itself is layered
//! (see `event_loop`, `device_rt`, `transfer`, `memory`, `admission` and
//! DESIGN.md §11 for the module map).

use crate::error::EngineError;
use crate::estimate;
use crate::exec::costmodel::{CostModelKind, ModelUpdate};
use crate::exec::device_rt::DeviceSet;
use crate::exec::event_loop::{Sim, Submission, TaskTable};
use crate::exec::memory::HeapSet;
use crate::exec::metrics::{QueryOutcome, RunMetrics, StagingStats};
use crate::exec::policy::PlacementPolicy;
use crate::parallel::ParallelCtx;
use crate::plan::PlanNode;
use robustq_sim::{
    CacheKey, CacheSet, CostModel as SimCostModel, EventQueue, FaultPlan, Interconnect,
    PerDevice, RetryPolicy, SimConfig, VirtualTime,
};
use robustq_storage::{ColumnId, Database, DbEpoch};
use robustq_trace::Tracer;
use std::collections::VecDeque;

/// Options controlling one workload run.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Keep full query results in the outcomes (tests); otherwise only
    /// row counts and checksums are retained.
    pub capture_results: bool,
    /// Run the policy's data-placement background job every N completed
    /// queries (0 = never). Mirrors the periodic job of Section 3.2.
    pub placement_update_period: usize,
    /// Maximum queries admitted concurrently (admission control — the
    /// reference mechanism of Section 6.2.2). `usize::MAX` = unbounded.
    pub max_concurrent_queries: usize,
    /// Columns pinned into every co-processor cache before the run
    /// starts, free of charge (the paper pre-loads access structures
    /// before benchmarks — Section 6.1).
    pub preload: Vec<ColumnId>,
    /// Real-CPU parallelism for the hot kernels (selection, join probe,
    /// aggregation). Affects wall-clock only: parallel results are
    /// bit-identical to serial, and *virtual* time comes from the cost
    /// model either way. Defaults to serial.
    pub parallel: ParallelCtx,
    /// Deterministic fault injection (chaos testing, DESIGN.md §8). The
    /// executor clones the plan at run start; with the default
    /// [`FaultPlan::disabled`] the fault layer is provably zero-cost —
    /// no generator draws, bit-identical runs.
    pub fault: FaultPlan,
    /// Recovery policy for transient transfer faults: bounded
    /// retry-with-backoff in virtual time.
    pub retry: RetryPolicy,
    /// Structured tracing (DESIGN.md §10). The default disabled tracer is
    /// a single-branch no-op: no allocations, byte-identical runs. Enable
    /// with [`Tracer::new`] and keep a clone to read the events back.
    pub tracer: Tracer,
    /// Intra-operator sharding (DESIGN.md §12): split qualifying leaf
    /// scans into this many device-shards at admission, merged by a
    /// CPU-side barrier task. `0` disables sharding (the default — task
    /// graphs are byte-identical to earlier releases). Values are clamped
    /// to the co-processor count at admission, so `usize::MAX` means
    /// "one shard per co-processor".
    pub shard_ways: usize,
    /// Minimum estimated input bytes before a scan is worth sharding;
    /// smaller scans stay whole (fan-out overhead would dominate).
    pub shard_min_bytes: f64,
    /// Admission-queue depth cap (open-loop overload protection,
    /// DESIGN.md §13): a query arriving while the queue holds this many
    /// waiters is shed immediately. `usize::MAX` (the default) never
    /// sheds.
    pub queue_cap: usize,
    /// Admission timeout: a query that waited in the admission queue at
    /// least this long is shed when it reaches the queue head instead of
    /// executing. [`VirtualTime::ZERO`] (the default) disables the
    /// timeout.
    pub admission_timeout: VirtualTime,
    /// Which learned cost model the placement policy should estimate
    /// with ([`CostModelKind::Static`] by default — bit-identical to
    /// pre-trait behaviour). Forwarded to
    /// [`PlacementPolicy::set_cost_model`] once per run.
    pub cost_model: CostModelKind,
    /// Chunked out-of-core staging: operators whose device footprint
    /// exceeds the heap are partitioned into chunks that transfer,
    /// execute and evict in sequence instead of aborting to the CPU
    /// (DESIGN.md §15). Disabled by default — the staged-allocation
    /// abort path of Section 2.5.1 is part of the golden behaviour.
    pub chunked_staging: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            capture_results: false,
            placement_update_period: 1,
            max_concurrent_queries: usize::MAX,
            preload: Vec::new(),
            parallel: ParallelCtx::serial(),
            fault: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
            shard_ways: 0,
            shard_min_bytes: 0.0,
            queue_cap: usize::MAX,
            admission_timeout: VirtualTime::ZERO,
            cost_model: CostModelKind::Static,
            chunked_staging: false,
        }
    }
}

/// One scheduled open-loop submission: at virtual-time `at`, virtual
/// session `session` submits `plan` as its `seq`-th query. Build
/// schedules with the `robustq-serve` arrival generators, or by hand.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Submission instant.
    pub at: VirtualTime,
    /// Issuing virtual session (a label — open-loop sessions hold no
    /// state, so pools of 10⁵⁻⁶ sessions cost nothing).
    pub session: u32,
    /// Position within the session's stream.
    pub seq: u32,
    /// The query plan.
    pub plan: PlanNode,
}

/// How a standing query's window advances per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Consecutive disjoint windows: tick `k` covers the feed rows that
    /// arrived in `(k·period, (k+1)·period]`.
    Tumbling,
    /// Overlapping windows: tick `k` covers the rows that arrived in
    /// `((k+1)·period − length, (k+1)·period]`.
    Sliding {
        /// Window length in virtual time (≥ the period for overlap).
        length: VirtualTime,
    },
}

/// A query registered once and re-executed per window tick against the
/// feed-table rows its window covers (DESIGN.md §16). Every tick goes
/// through ordinary admission control; its results are bit-identical to
/// running the same plan one-shot against a static snapshot of the
/// window's rows.
#[derive(Debug, Clone)]
pub struct StandingQuery {
    /// Virtual session the ticks report under. Use ids above the arrival
    /// sessions' so per-session metrics separate cleanly.
    pub session: u32,
    /// The registered plan.
    pub plan: PlanNode,
    /// Name of the fed table the window ranges over; scans of every
    /// other table read in full (static dimensions).
    pub table: String,
    /// Tumbling or sliding window.
    pub kind: WindowKind,
    /// Tick period in virtual time.
    pub period: VirtualTime,
    /// Number of ticks to fire.
    pub ticks: u32,
}

/// One scheduled feed commit: the append that the database committed
/// under `epoch` becomes visible at virtual instant `at`.
#[derive(Debug, Clone, Copy)]
pub struct FeedEvent {
    /// Commit instant.
    pub at: VirtualTime,
    /// Epoch of the (pre-built) append this event replays.
    pub epoch: DbEpoch,
}

/// The feed arrival process of a streaming run: a time-sorted replay
/// schedule over a database whose appends are already built. Epochs not
/// scheduled (below every scheduled epoch of their table) count as
/// pre-run history.
#[derive(Debug, Clone, Default)]
pub struct FeedSchedule {
    /// Scheduled commits, sorted by `at`.
    pub events: Vec<FeedEvent>,
}

/// Result of a workload run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregated run metrics.
    pub metrics: RunMetrics,
    /// One entry per executed query, in completion order.
    pub outcomes: Vec<QueryOutcome>,
    /// Predicted-vs-actual cost-model samples, one per completed
    /// operator observed by a model-backed policy, in completion order.
    /// Empty for model-free policies.
    pub model_samples: Vec<ModelUpdate>,
    /// Chunked-staging counters (all zero unless
    /// [`ExecOptions::chunked_staging`] engaged).
    pub staging: StagingStats,
}

/// The workload executor: a database plus a machine configuration.
pub struct Executor<'a> {
    db: &'a Database,
    config: SimConfig,
}

impl<'a> Executor<'a> {
    /// An executor over `db` and the given machine.
    pub fn new(db: &'a Database, config: SimConfig) -> Self {
        Executor { db, config }
    }

    /// The database queries run against.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The simulated machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Execute `sessions` (each a queue of queries, run closed-loop) under
    /// `policy`, starting from cold co-processor caches.
    pub fn run(
        &self,
        sessions: Vec<Vec<PlanNode>>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
    ) -> Result<RunOutcome, EngineError> {
        let mut caches =
            CacheSet::for_topology(&self.config.topology, self.config.cache_policy);
        self.run_with_cache(sessions, policy, opts, &mut caches)
    }

    /// Like [`Executor::run`] but continuing from (and updating) existing
    /// caches — this is how warm-up runs leave the column caches warm for
    /// the measured run, matching the paper's procedure of running each
    /// workload twice before measuring (Section 6.1).
    pub fn run_with_cache(
        &self,
        sessions: Vec<Vec<PlanNode>>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
        caches: &mut CacheSet,
    ) -> Result<RunOutcome, EngineError> {
        self.run_inner(
            sessions,
            Vec::new(),
            FeedSchedule::default(),
            Vec::new(),
            policy,
            opts,
            caches,
        )
    }

    /// Execute an open-loop arrival schedule (DESIGN.md §13): each
    /// [`Arrival`] submits its plan at its virtual-time instant,
    /// independent of how earlier queries are progressing. Overload is
    /// handled by [`ExecOptions::queue_cap`] /
    /// [`ExecOptions::admission_timeout`] shedding; the run completes
    /// when every arrival either finished or was shed. Starts from cold
    /// co-processor caches.
    pub fn run_open_loop(
        &self,
        arrivals: Vec<Arrival>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
    ) -> Result<RunOutcome, EngineError> {
        let mut caches =
            CacheSet::for_topology(&self.config.topology, self.config.cache_policy);
        self.run_open_loop_with_cache(arrivals, policy, opts, &mut caches)
    }

    /// Like [`Executor::run_open_loop`] but continuing from (and
    /// updating) existing caches, so warm-up runs carry over — mirroring
    /// [`Executor::run_with_cache`].
    ///
    /// Arrivals must be sorted by `at`; same-instant arrivals submit in
    /// schedule order.
    pub fn run_open_loop_with_cache(
        &self,
        arrivals: Vec<Arrival>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
        caches: &mut CacheSet,
    ) -> Result<RunOutcome, EngineError> {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival schedule must be sorted by time"
        );
        self.run_inner(
            Vec::new(),
            arrivals,
            FeedSchedule::default(),
            Vec::new(),
            policy,
            opts,
            caches,
        )
    }

    /// Execute a streaming run: an open-loop arrival schedule interleaved
    /// with a feed replay, plus standing queries fired per window tick
    /// (DESIGN.md §16). The database must already contain every scheduled
    /// append (build it, then replay it); `Ev`-level append events only
    /// flip epochs and cache residency in virtual time. Starts from cold
    /// co-processor caches.
    pub fn run_streaming(
        &self,
        arrivals: Vec<Arrival>,
        feed: FeedSchedule,
        standing: Vec<StandingQuery>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
    ) -> Result<RunOutcome, EngineError> {
        let mut caches =
            CacheSet::for_topology(&self.config.topology, self.config.cache_policy);
        self.run_streaming_with_cache(arrivals, feed, standing, policy, opts, &mut caches)
    }

    /// Like [`Executor::run_streaming`] but continuing from (and
    /// updating) existing caches.
    pub fn run_streaming_with_cache(
        &self,
        arrivals: Vec<Arrival>,
        feed: FeedSchedule,
        standing: Vec<StandingQuery>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
        caches: &mut CacheSet,
    ) -> Result<RunOutcome, EngineError> {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival schedule must be sorted by time"
        );
        debug_assert!(
            feed.events.windows(2).all(|w| w[0].at <= w[1].at),
            "feed schedule must be sorted by time"
        );
        self.run_inner(Vec::new(), arrivals, feed, standing, policy, opts, caches)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner(
        &self,
        sessions: Vec<Vec<PlanNode>>,
        arrivals: Vec<Arrival>,
        feed: FeedSchedule,
        standing: Vec<StandingQuery>,
        policy: &mut dyn PlacementPolicy,
        opts: &ExecOptions,
        caches: &mut CacheSet,
    ) -> Result<RunOutcome, EngineError> {
        let feed_rt = crate::exec::feed::build_feed(self.db, &feed, &standing)?;
        if !opts.preload.is_empty() {
            for (_, cache) in caches.iter_mut() {
                let mut budget = cache.capacity();
                let mut pins = Vec::new();
                for &col in &opts.preload {
                    let bytes = self.db.column_size(col);
                    // Pin at the column's *initial* epoch so preloaded
                    // residency survives until the first append touches
                    // it. Batch runs have an empty epoch table — the key
                    // degenerates to the classic epoch-0 encoding.
                    let epoch =
                        feed_rt.col_epochs.get(col.index()).copied().unwrap_or(0);
                    if bytes <= budget {
                        budget -= bytes;
                        pins.push((CacheKey::column_at(col.0, epoch), bytes));
                    }
                }
                cache.set_pinned(&pins);
            }
        }
        let total_queries: usize = sessions.iter().map(Vec::len).sum::<usize>()
            + arrivals.len()
            + standing.iter().map(|s| s.ticks as usize).sum::<usize>();
        let session_count = sessions.len();
        let device_count = self.config.topology.device_count();
        let mut sim = Sim {
            db: self.db,
            config: &self.config,
            policy,
            opts,
            cost: SimCostModel::new(self.config.cost.clone()),
            caches,
            heaps: HeapSet::for_topology(&self.config.topology),
            link: Interconnect::for_topology(&self.config.topology),
            fault: opts.fault.clone(),
            query_faults: Vec::new(),
            events: EventQueue::new(),
            tasks: TaskTable::default(),
            queries: Vec::new(),
            devices: DeviceSet::new(device_count),
            sessions: sessions.into_iter().map(VecDeque::from).collect(),
            session_seq: vec![0; session_count],
            arrivals: arrivals
                .into_iter()
                .map(|a| {
                    Some(Submission {
                        session: a.session as usize,
                        seq: a.seq as usize,
                        plan: a.plan,
                        submit: a.at,
                        window: None,
                        standing: None,
                    })
                })
                .collect(),
            admission_queue: VecDeque::new(),
            feed: feed_rt,
            active_queries: 0,
            completed_since_update: 0,
            metrics: RunMetrics {
                // Topology-sized so reports always print every device,
                // busy or not (and K = 1 output keeps its exact shape).
                device_busy: PerDevice::splat(VirtualTime::ZERO, device_count),
                ops_completed: PerDevice::splat(0, device_count),
                ..RunMetrics::default()
            },
            outcomes: Vec::new(),
            model_samples: Vec::new(),
            staging: StagingStats::default(),
            now: VirtualTime::ZERO,
            tracer: opts.tracer.clone(),
        };
        sim.run(total_queries)
    }
}

/// Postorder `(input_bytes, output_bytes)` estimates aligned with
/// [`crate::exec::task::flatten`]'s task order.
pub(crate) fn postorder_estimates(plan: &PlanNode, db: &Database) -> Vec<(f64, f64)> {
    fn rec(node: &PlanNode, db: &Database, out: &mut Vec<(f64, f64)>) {
        for c in node.children() {
            rec(c, db, out);
        }
        let e = estimate::estimate(node, db);
        out.push((estimate::estimate_input_bytes(node, db), e.bytes));
    }
    let mut out = Vec::new();
    rec(plan, db, &mut out);
    out
}

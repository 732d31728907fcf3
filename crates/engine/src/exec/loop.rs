//! The discrete-event core: simulation state and the event loop.
//!
//! [`Sim`] owns the whole per-run state — task graph, device runtimes,
//! heaps, caches, links, fault plan, metrics and tracer — and drains the
//! event queue until the workload completes. The surrounding layers
//! contribute focused `impl Sim` blocks:
//!
//! * `device_rt` — per-device ready queues, worker slots and the
//!   processor-sharing compute sets,
//! * `transfer` — interconnect staging and cache consults,
//! * `memory` — staged heap allocation, aborts and completions,
//! * `admission` — session lifecycle and admission control.

use crate::batch::LazyChunk;
use crate::error::EngineError;
use crate::exec::costmodel::ModelUpdate;
use crate::exec::device_rt::DeviceSet;
use crate::exec::executor::{ExecOptions, RunOutcome};
use crate::exec::memory::HeapSet;
use crate::exec::metrics::{FaultCounters, QueryOutcome, RunMetrics, StagingStats};
use crate::exec::policy::{PlacementPolicy, TaskInfo};
use crate::exec::task::TaskNode;
use crate::plan::PlanNode;
use robustq_sim::{
    CacheSet, CostModel as SimCostModel, DeviceId, Direction, EventQueue, FaultPlan,
    Interconnect, SimConfig, VirtualTime,
};
use robustq_storage::{ColumnId, Database};
use robustq_trace::Tracer;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Pending,
    Queued,
    Running,
    Done,
}

pub(crate) struct TaskState {
    pub(crate) node: TaskNode,
    pub(crate) query: usize,
    /// Children / parent as *global* task indices.
    pub(crate) children: Vec<usize>,
    pub(crate) parent: Option<usize>,
    pub(crate) pending_children: usize,
    pub(crate) annotation: Option<DeviceId>,
    pub(crate) forced_cpu: bool,
    pub(crate) epoch: u32,
    pub(crate) status: Status,
    pub(crate) device: Option<DeviceId>,
    /// When the task last entered a ready queue (trace queue-wait).
    pub(crate) queued_at: VirtualTime,
    pub(crate) start_time: VirtualTime,
    pub(crate) kernel_duration: VirtualTime,
    pub(crate) bytes_in: u64,
    pub(crate) est_bytes_in: u64,
    pub(crate) est_bytes_out: u64,
    /// Remaining solo-execution nanoseconds (processor sharing).
    pub(crate) remaining_ns: f64,
    /// Pending allocation-stage thresholds, ascending: a stage fires when
    /// `remaining_ns` drops to the popped (largest) threshold.
    pub(crate) milestones: Vec<f64>,
    /// Bytes allocated per remaining stage.
    pub(crate) stage_bytes: u64,
    /// Non-zero while the operator runs as a chunked out-of-core staging
    /// pipeline: the number of partitions its input/output stream in.
    pub(crate) staged_chunks: u32,
    pub(crate) base_columns: Vec<ColumnId>,
    /// The kernel result, kept lazy (base + selection vector) until a
    /// pipeline breaker or the query root forces materialization. Logical
    /// `num_rows`/`byte_size` are identical either way, so all simulated
    /// timing below is unaffected.
    pub(crate) output: Option<LazyChunk>,
    pub(crate) output_bytes: u64,
    pub(crate) output_rows: u64,
    pub(crate) output_device: Option<DeviceId>,
    pub(crate) load_contribution: VirtualTime,
}

/// The run's task table, indexed by global task id (children before
/// parents within a query, queries in admission order).
///
/// A query's tasks are retired when the query completes: nothing reads
/// them afterwards, so host memory tracks the tasks in flight rather than
/// every task the run has admitted. Ids are never reused, so trace task
/// ids are the same as with a table that keeps everything.
#[derive(Default)]
pub(crate) struct TaskTable(Vec<Option<Box<TaskState>>>);

impl TaskTable {
    /// Number of task ids handed out so far (retired ones included).
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Admit a task under the next id.
    pub(crate) fn push(&mut self, task: TaskState) {
        self.0.push(Some(Box::new(task)));
    }

    /// The task behind `id`, unless its query already completed.
    pub(crate) fn get(&self, id: usize) -> Option<&TaskState> {
        self.0.get(id).and_then(|t| t.as_deref())
    }

    /// Free the tasks of a completed query.
    pub(crate) fn retire(&mut self, ids: std::ops::RangeInclusive<usize>) {
        for t in &mut self.0[ids] {
            *t = None;
        }
    }
}

impl std::ops::Index<usize> for TaskTable {
    type Output = TaskState;
    fn index(&self, id: usize) -> &TaskState {
        self.0[id].as_deref().expect("task of a query still in flight")
    }
}

impl std::ops::IndexMut<usize> for TaskTable {
    fn index_mut(&mut self, id: usize) -> &mut TaskState {
        self.0[id].as_deref_mut().expect("task of a query still in flight")
    }
}

/// The feed-table row range a windowed query execution scans:
/// `[lo, hi)` of the table at registration index `table`. Scans of any
/// other table (static dimensions) read in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueryWindow {
    /// Registration index of the windowed (fed) table.
    pub(crate) table: u32,
    /// First feed-table row in the window.
    pub(crate) lo: u64,
    /// One past the last feed-table row in the window.
    pub(crate) hi: u64,
}

pub(crate) struct QueryState {
    pub(crate) session: usize,
    pub(crate) seq: usize,
    pub(crate) root: usize,
    /// First global task index of this query's graph (recurring-slot
    /// arithmetic: `task - first_task` identifies "the same operator"
    /// across window ticks of a standing query).
    pub(crate) first_task: usize,
    /// The window this execution scans, for standing-query ticks.
    pub(crate) window: Option<QueryWindow>,
    /// Standing-query registration index, if this execution is a tick.
    pub(crate) standing: Option<u32>,
    /// When the session issued the query (queueing for admission counts
    /// toward latency — the paper's admission-control comparison measures
    /// response time from submission).
    pub(crate) submit_time: VirtualTime,
    /// When admission control let the query start executing
    /// (`admit_time - submit_time` is the admission wait).
    pub(crate) admit_time: VirtualTime,
}

/// One query waiting for admission: who submitted it, its position in
/// that session's stream, the plan and the submission instant.
pub(crate) struct Submission {
    pub(crate) session: usize,
    pub(crate) seq: usize,
    pub(crate) plan: PlanNode,
    pub(crate) submit: VirtualTime,
    /// Feed-table window, for standing-query ticks (`seq` is the tick).
    pub(crate) window: Option<QueryWindow>,
    /// Standing-query registration index, for standing-query ticks.
    pub(crate) standing: Option<u32>,
}

pub(crate) enum Ev {
    /// Transfers finished; the operator joins its device's compute set.
    ComputeStart { task: usize, epoch: u32 },
    /// Re-evaluate a device's compute set (next completion or
    /// allocation-stage crossing under processor sharing).
    DeviceTick { device: DeviceId, version: u64 },
    QueryDone { query: usize },
    /// An open-loop arrival fires: the indexed entry of `Sim::arrivals`
    /// is submitted for admission (DESIGN.md §13).
    Arrive { arrival: usize },
    /// A feed append batch commits: the indexed entry of
    /// `Sim::feed.appends` bumps column epochs and invalidates stale
    /// cache residency (the data itself is pre-built; see `exec::feed`).
    Append { index: usize },
    /// A standing query's window closes: the indexed entry of
    /// `Sim::feed.fires` is submitted for admission.
    WindowFire { fire: usize },
}

pub(crate) struct Sim<'a, 'p> {
    pub(crate) db: &'a Database,
    pub(crate) config: &'a SimConfig,
    pub(crate) policy: &'p mut dyn PlacementPolicy,
    pub(crate) opts: &'a ExecOptions,
    pub(crate) cost: SimCostModel,
    /// One column cache per co-processor (caller-owned: warm across runs).
    pub(crate) caches: &'a mut CacheSet,
    /// One operator heap per co-processor.
    pub(crate) heaps: HeapSet,
    /// One host link per co-processor.
    pub(crate) link: Interconnect,
    pub(crate) fault: FaultPlan,
    /// Per-query fault counters, indexed by query id.
    pub(crate) query_faults: Vec<FaultCounters>,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) tasks: TaskTable,
    pub(crate) queries: Vec<QueryState>,
    /// Per-device ready queues, worker slots and compute sets.
    pub(crate) devices: DeviceSet,
    pub(crate) sessions: Vec<VecDeque<PlanNode>>,
    /// Next per-session sequence number (submission order within the
    /// session, closed- and open-loop alike).
    pub(crate) session_seq: Vec<usize>,
    /// Open-loop arrival schedule, indexed by [`Ev::Arrive`]; entries are
    /// taken when their event fires. Empty in closed-loop runs.
    pub(crate) arrivals: Vec<Option<Submission>>,
    pub(crate) admission_queue: VecDeque<Submission>,
    /// Feed replay and standing-query state (empty for batch runs).
    pub(crate) feed: crate::exec::feed::FeedRt,
    pub(crate) active_queries: usize,
    pub(crate) completed_since_update: usize,
    pub(crate) metrics: RunMetrics,
    pub(crate) outcomes: Vec<QueryOutcome>,
    /// Predicted-vs-actual samples from the policy's cost model, in
    /// operator-completion order (side data: not part of `RunMetrics`).
    pub(crate) model_samples: Vec<ModelUpdate>,
    /// Chunked-staging counters (side data: not part of `RunMetrics`).
    pub(crate) staging: StagingStats,
    pub(crate) now: VirtualTime,
    pub(crate) tracer: Tracer,
}

impl Sim<'_, '_> {
    /// Tolerance for floating-point progress comparisons (nanoseconds).
    pub(crate) const EPS_NS: f64 = 1.0;

    pub(crate) fn run(&mut self, total_queries: usize) -> Result<RunOutcome, EngineError> {
        // The caches may be warm from a previous run on the same handle;
        // metrics report this run's probes only (matching the trace).
        let (base_hits, base_misses) = self.cache_hit_miss();
        let trace_mark = self.tracer.mark();
        // Pick the cost model before anything executes; policies keep
        // their learned state when the kind is unchanged (warm-up →
        // measured run continuity).
        self.policy.set_cost_model(self.opts.cost_model);
        // Initial data placement from whatever statistics already exist
        // (the paper pre-loads access structures before each benchmark,
        // Section 6.1) — free of charge, like `ExecOptions::preload`.
        let _ = self.policy.update_data_placement(
            self.db,
            self.caches,
            &self.feed.col_epochs,
        );

        // Kick off. Closed loop: the first query of every session is a
        // candidate. Open loop: every arrival is scheduled at its instant
        // (the heap keeps insertion order at equal timestamps, so
        // same-instant arrivals submit in schedule order). Feed appends
        // are pushed before window fires so a window closing at the very
        // instant of an append observes the post-append epoch.
        for s in 0..self.sessions.len() {
            if let Some(plan) = self.sessions[s].pop_front() {
                let seq = self.session_seq[s];
                self.session_seq[s] += 1;
                self.submit_query(Submission {
                    session: s,
                    seq,
                    plan,
                    submit: self.now,
                    window: None,
                    standing: None,
                });
            }
        }
        for i in 0..self.feed.appends.len() {
            self.events.push(self.feed.appends[i].at, Ev::Append { index: i });
        }
        for i in 0..self.feed.fires.len() {
            self.events.push(self.feed.fires[i].at, Ev::WindowFire { fire: i });
        }
        for (i, slot) in self.arrivals.iter().enumerate() {
            if let Some(sub) = slot {
                self.events.push(sub.submit, Ev::Arrive { arrival: i });
            }
        }
        self.process_admissions()?;

        while let Some((t, ev)) = self.events.pop() {
            self.now = t;
            match ev {
                Ev::ComputeStart { task, epoch } => self.on_compute_start(task, epoch)?,
                Ev::DeviceTick { device, version } => {
                    self.on_device_tick(device, version)?
                }
                Ev::QueryDone { query } => self.on_query_done(query)?,
                Ev::Arrive { arrival } => self.on_arrive(arrival)?,
                Ev::Append { index } => self.on_append(index),
                Ev::WindowFire { fire } => self.on_window_fire(fire)?,
            }
            #[cfg(debug_assertions)]
            self.audit();
        }

        if self.outcomes.len() + self.metrics.shed as usize != total_queries {
            return Err(EngineError::Stalled {
                completed: self.outcomes.len(),
                total: total_queries,
            });
        }
        self.metrics.queries = self.outcomes.len();
        let (hits, misses) = self.cache_hit_miss();
        self.metrics.cache_hits = hits - base_hits;
        self.metrics.cache_misses = misses - base_misses;
        self.metrics.gpu_heap_peak = self.heaps.peak_max();
        self.metrics.gpu_heap_leaked = self.heaps.used_total();
        self.metrics.fault_stats = *self.fault.stats();
        self.metrics.link_h2d = self.link.total_stats(Direction::HostToDevice);
        self.metrics.link_d2h = self.link.total_stats(Direction::DeviceToHost);
        debug_assert_eq!(
            self.heaps.used_total(),
            0,
            "device heaps must drain once every query completed"
        );
        // Cross-check: the metrics re-derived from this run's event
        // stream must match the incrementally maintained counters. Only
        // possible with tracing enabled and no dropped events.
        #[cfg(debug_assertions)]
        if let Some(events) = self.tracer.events_since(trace_mark) {
            debug_assert_eq!(
                RunMetrics::from_events(&events),
                self.metrics,
                "trace-derived metrics diverge from legacy counters"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = trace_mark;
        Ok(RunOutcome {
            metrics: self.metrics.clone(),
            outcomes: std::mem::take(&mut self.outcomes),
            model_samples: std::mem::take(&mut self.model_samples),
            staging: self.staging,
        })
    }

    /// Cache hits/misses summed over every co-processor cache.
    pub(crate) fn cache_hit_miss(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for (_, cache) in self.caches.iter() {
            let (h, m) = cache.hit_miss();
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    pub(crate) fn task_info(&self, task: usize, compile_time: bool) -> TaskInfo {
        let t = &self.tasks[task];
        let children_devices = if compile_time {
            Vec::new()
        } else {
            t.children
                .iter()
                .filter_map(|&c| self.tasks[c].output_device)
                .collect()
        };
        let children_bytes = t
            .children
            .iter()
            .map(|&c| {
                if compile_time {
                    self.tasks[c].est_bytes_out
                } else {
                    self.tasks[c].output_bytes
                }
            })
            .collect();
        let q = &self.queries[t.query];
        TaskInfo {
            query: t.query,
            task,
            op_class: t.node.op.op_class(),
            base_columns: t.base_columns.clone(),
            bytes_in: if compile_time { t.est_bytes_in } else { t.bytes_in },
            bytes_out_estimate: t.est_bytes_out,
            children_devices,
            children_bytes,
            children_tasks: t.children.clone(),
            was_aborted: t.forced_cpu,
            shard: t.node.op.shard_spec(),
            recurring: q.standing.map(|s| (s, (task - q.first_task) as u32)),
        }
    }

    /// Heap, cache and link accounting invariants, re-checked after
    /// every simulation event in debug builds (tests and chaos runs) —
    /// per co-processor, so a K-device fleet is audited device by device.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self) {
        for (device, heap) in self.heaps.iter() {
            assert_eq!(
                heap.used(),
                heap.accounted_bytes(),
                "{device}: heap conservation: used must equal the sum of live tags"
            );
            assert!(heap.used() <= heap.capacity(), "{device}: heap overcommitted");
        }
        for (device, cache) in self.caches.iter() {
            assert_eq!(
                cache.used(),
                cache.accounted_bytes(),
                "{device}: cache accounting: used must equal the sum of resident entries"
            );
            assert!(
                cache.used() <= cache.capacity(),
                "{device}: cache overcommitted"
            );
        }
        for device in self.config.topology.coprocessors() {
            for dir in [Direction::HostToDevice, Direction::DeviceToHost] {
                let s = self.link.stats(device, dir);
                assert!(
                    s.transfers > 0 || (s.bytes == 0 && s.busy_time == VirtualTime::ZERO),
                    "{device}: link stats: traffic without transfers"
                );
                // Each transfer advances busy_until by at least its
                // service time, so the FIFO horizon dominates accumulated
                // service.
                assert!(
                    self.link.busy_until(device, dir) >= s.busy_time,
                    "{device}: link busy_until fell behind accumulated service time"
                );
            }
        }
    }
}

/// Construct a compile-time/run-time [`PolicyCtx`] from `$sim`'s fields.
///
/// A macro instead of a `&self` method so the borrows stay field-precise:
/// the context borrows `caches`/`heaps`/`devices` while the caller holds
/// `policy` mutably, which a whole-`Sim` borrow would forbid. Free heap
/// bytes report `u64::MAX` for the CPU's unbounded host memory.
macro_rules! policy_ctx {
    ($sim:expr) => {
        PolicyCtx {
            db: $sim.db,
            topology: &$sim.config.topology,
            caches: &*$sim.caches,
            queued_work: $sim.devices.load_table(),
            running: $sim.devices.running_table(),
            heap_free: PerDevice::from_fn($sim.config.topology.device_count(), |d| {
                if d.is_coprocessor() {
                    $sim.heaps.device(d).free_bytes()
                } else {
                    u64::MAX
                }
            }),
            now: $sim.now,
            col_epochs: &$sim.feed.col_epochs,
        }
    };
}
pub(crate) use policy_ctx;

//! Session lifecycle and admission control.
//!
//! Sessions run closed-loop — each submits its next query when the
//! previous one completes — or open-loop, where a pre-computed arrival
//! schedule submits queries at fixed virtual-time instants regardless of
//! progress (DESIGN.md §13). Admission control (the reference mechanism
//! of Section 6.2.2) bounds how many queries execute concurrently;
//! queries waiting for admission accrue latency from their submission
//! instant. Under overload the queue-depth cap and admission timeout
//! shed submissions instead of queueing unboundedly. Admission is also
//! where the placement policy speaks: a compile-time `plan_query` pass
//! at admission, and `place_ready` for every task the pass left
//! unannotated.

use crate::error::EngineError;
use crate::exec::event_loop::{
    policy_ctx, QueryState, QueryWindow, Sim, Status, Submission, TaskState,
};
use crate::exec::metrics::{FaultCounters, QueryOutcome};
use crate::exec::policy::{PolicyCtx, TaskInfo};
use crate::exec::task::{flatten, ShardSpec, TaskNode, TaskOp};
use robustq_sim::{DeviceId, Direction, PerDevice, VirtualTime};
use robustq_storage::ColumnId;
use robustq_trace::{EstVec, PlacePhase, ShedReason, TraceEvent, TransferKind};

/// Rewrite a flattened task graph for intra-operator sharding: every leaf
/// scan whose estimated input is at least `min_bytes` becomes `ways`
/// [`TaskOp::ScanShard`] tasks plus one [`TaskOp::MergeShards`] barrier
/// that takes the scan's place in the graph. The rewrite preserves the
/// postorder invariants (children before parents, root last) and leaves
/// estimates aligned: shards get `1/ways` of the scan's input estimate,
/// the merge consumes and reproduces the scan's output estimate.
pub(crate) fn expand_shards(
    nodes: Vec<TaskNode>,
    estimates: Vec<(f64, f64)>,
    ways: usize,
    min_bytes: f64,
) -> (Vec<TaskNode>, Vec<(f64, f64)>) {
    if ways < 2 {
        return (nodes, estimates);
    }
    let mut out: Vec<TaskNode> = Vec::with_capacity(nodes.len());
    let mut est: Vec<(f64, f64)> = Vec::with_capacity(nodes.len());
    // New index of each old node (the merge barrier stands in for a
    // sharded scan).
    let mut remap: Vec<usize> = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        let e = estimates[i];
        let shardable = node.children.is_empty()
            && matches!(node.op, TaskOp::Scan { .. })
            && e.0 >= min_bytes;
        if !shardable {
            remap.push(out.len());
            out.push(node.clone());
            est.push(e);
            continue;
        }
        let TaskOp::Scan { table, columns, predicate } = node.op.clone() else {
            unreachable!("shardable implies scan");
        };
        let first = out.len();
        for index in 0..ways {
            out.push(TaskNode {
                op: TaskOp::ScanShard {
                    table: table.clone(),
                    columns: columns.clone(),
                    predicate: predicate.clone(),
                    shard: ShardSpec { index: index as u32, of: ways as u32 },
                },
                children: Vec::new(),
                parent: None, // set just below
            });
            est.push((e.0 / ways as f64, e.1 / ways as f64));
        }
        let merge = out.len();
        out.push(TaskNode {
            op: TaskOp::MergeShards { columns },
            children: (first..merge).collect(),
            parent: node.parent, // remapped in the fix-up pass
        });
        for shard in &mut out[first..merge] {
            shard.parent = Some(merge);
        }
        est.push((e.1, e.1));
        remap.push(merge);
    }
    // Fix up edges that still point into the old graph. Shard nodes and
    // merge children are already final; everything else goes through
    // `remap`.
    for (i, node) in nodes.iter().enumerate() {
        let n = remap[i];
        if !matches!(out[n].op, TaskOp::MergeShards { .. }) {
            out[n].children = node.children.iter().map(|&c| remap[c]).collect();
        }
        out[n].parent = node.parent.map(|p| remap[p]);
    }
    (out, est)
}

impl Sim<'_, '_> {
    /// Offer a submission to the admission queue, shedding it on the spot
    /// when the queue is at its depth cap (open-loop overload protection,
    /// DESIGN.md §13). Default options (`queue_cap == usize::MAX`) never
    /// shed, keeping closed-loop runs byte-identical to earlier releases.
    pub(crate) fn submit_query(&mut self, sub: Submission) {
        if self.admission_queue.len() >= self.opts.queue_cap {
            self.shed(sub, ShedReason::QueueFull);
        } else {
            self.admission_queue.push_back(sub);
        }
    }

    /// Drop a submission: count it, trace it, and — closed loop only —
    /// let the issuing session offer its next query anyway, so a shed
    /// never deadlocks a session's remaining stream.
    fn shed(&mut self, sub: Submission, reason: ShedReason) {
        self.metrics.shed += 1;
        self.tracer.emit(TraceEvent::QueryShed {
            session: sub.session as u32,
            seq: sub.seq as u32,
            submit: sub.submit,
            reason,
            at: self.now,
        });
        if let Some(plan) =
            self.sessions.get_mut(sub.session).and_then(|s| s.pop_front())
        {
            let seq = self.session_seq[sub.session];
            self.session_seq[sub.session] += 1;
            self.submit_query(Submission {
                session: sub.session,
                seq,
                plan,
                submit: self.now,
                window: None,
                standing: None,
            });
        }
    }

    /// An open-loop arrival fires: take the scheduled submission and
    /// offer it for admission.
    pub(crate) fn on_arrive(&mut self, arrival: usize) -> Result<(), EngineError> {
        let sub = self.arrivals[arrival].take().expect("arrival fires once");
        debug_assert_eq!(sub.submit, self.now);
        self.submit_query(sub);
        self.process_admissions()
    }

    pub(crate) fn process_admissions(&mut self) -> Result<(), EngineError> {
        while self.active_queries < self.opts.max_concurrent_queries {
            let Some(sub) = self.admission_queue.pop_front() else {
                break;
            };
            // Lazy admission timeout: a query that waited too long is
            // shed the moment it reaches the head of the queue — its
            // client would have given up on the response anyway.
            if self.opts.admission_timeout > VirtualTime::ZERO
                && self.now.saturating_sub(sub.submit) >= self.opts.admission_timeout
            {
                self.shed(sub, ShedReason::Timeout);
                continue;
            }
            self.admit_query(sub)?;
        }
        Ok(())
    }

    pub(crate) fn admit_query(&mut self, sub: Submission) -> Result<(), EngineError> {
        let Submission { session, seq, plan, submit: submit_time, window, standing } =
            sub;
        let query = self.queries.len();
        let base = self.tasks.len();
        let nodes = flatten(&plan);
        let mut estimates =
            crate::exec::executor::postorder_estimates(&plan, self.db);
        debug_assert_eq!(nodes.len(), estimates.len());
        // Windowed ticks scan only the window's slice of the feed table:
        // scale the leaf estimates so sharding and compile-time placement
        // see the pruned input, not the whole (ever-growing) table.
        if let Some(w) = window {
            let frac = self.window_fraction(w);
            for (node, est) in nodes.iter().zip(estimates.iter_mut()) {
                let windowed_leaf = matches!(
                    &node.op,
                    TaskOp::Scan { table, .. }
                        if self.db.table_position(table) == Some(w.table as usize)
                );
                if windowed_leaf {
                    est.0 *= frac;
                    est.1 *= frac;
                }
            }
        }
        // Intra-operator sharding (DESIGN.md §12): qualifying leaf scans
        // fan out across the co-processor fleet. One shard per
        // co-processor at most — with fewer than two there is nothing to
        // spread, and the graph stays byte-identical to sharding off.
        let ways = self
            .opts
            .shard_ways
            .min(self.config.topology.device_count().saturating_sub(1));
        let (nodes, estimates) =
            expand_shards(nodes, estimates, ways, self.opts.shard_min_bytes);
        let shard_fanouts: Vec<(usize, u32)> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, TaskOp::MergeShards { .. }))
            .map(|(i, n)| (base + i, n.children.len() as u32))
            .collect();

        for (node, est) in nodes.into_iter().zip(estimates) {
            let base_columns = match node.op.scan_access() {
                Some((table, cols)) => cols
                    .iter()
                    .map(|c| {
                        self.db
                            .require_column_id(table, c)
                            .map_err(|e| EngineError::Storage(e.to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            };
            let children: Vec<usize> = node.children.iter().map(|&c| base + c).collect();
            let parent = node.parent.map(|p| base + p);
            let pending = children.len();
            self.tasks.push(TaskState {
                node,
                query,
                children,
                parent,
                pending_children: pending,
                annotation: None,
                forced_cpu: false,
                epoch: 0,
                status: Status::Pending,
                device: None,
                queued_at: VirtualTime::ZERO,
                start_time: VirtualTime::ZERO,
                kernel_duration: VirtualTime::ZERO,
                bytes_in: 0,
                est_bytes_in: est.0 as u64,
                est_bytes_out: est.1 as u64,
                remaining_ns: 0.0,
                milestones: Vec::new(),
                stage_bytes: 0,
                staged_chunks: 0,
                base_columns,
                output: None,
                output_bytes: 0,
                output_rows: 0,
                output_device: None,
                load_contribution: VirtualTime::ZERO,
            });
        }
        let root = self.tasks.len() - 1;
        self.queries.push(QueryState {
            session,
            seq,
            root,
            first_task: base,
            window,
            standing,
            submit_time,
            admit_time: self.now,
        });
        self.query_faults.push(FaultCounters::default());
        self.active_queries += 1;
        self.tracer.emit(TraceEvent::QuerySubmit {
            query: query as u32,
            session: session as u32,
            seq: seq as u32,
            at: submit_time,
        });
        if let (Some(s), Some(w)) = (standing, window) {
            // Emitted at admission, once the execution has a query id.
            self.tracer.emit(TraceEvent::WindowFire {
                standing: s,
                tick: seq as u32,
                query: query as u32,
                lo: w.lo,
                hi: w.hi,
                at: submit_time,
            });
        }
        for (merge, shards) in shard_fanouts {
            self.tracer.emit(TraceEvent::ShardFanout {
                query: query as u32,
                task: merge as u32,
                shards,
                at: submit_time,
            });
        }

        // Compile-time placement pass.
        let infos: Vec<TaskInfo> =
            (base..=root).map(|t| self.task_info(t, true)).collect();
        let ctx = policy_ctx!(self);
        let annotations = self.policy.plan_query(&infos, &ctx);
        debug_assert_eq!(annotations.len(), infos.len());
        for (t, a) in (base..=root).zip(annotations) {
            if let Some(p) = a {
                self.tracer.emit(TraceEvent::Placement {
                    query: query as u32,
                    task: t as u32,
                    op: self.tasks[t].node.op.op_class(),
                    phase: PlacePhase::Compile,
                    est: EstVec::from_per_device(&p.est),
                    chosen: p.device,
                    reason: p.reason,
                    at: self.now,
                });
                self.tasks[t].annotation = Some(p.device);
            }
        }

        // Leaves enter the operator stream immediately.
        for t in base..=root {
            if self.tasks[t].children.is_empty() {
                self.make_ready(t)?;
            }
        }
        Ok(())
    }

    /// Fraction of the windowed table a tick actually reads, via segment
    /// pruning: only segments overlapping `[lo, hi)` are touched, and of
    /// those only the overlapping rows. (Segments partition the row
    /// space, so this equals the row fraction — but walking the segment
    /// list is what a real column store would do, and keeps the figure
    /// honest if segment layout ever gains gaps.)
    pub(crate) fn window_fraction(&self, w: QueryWindow) -> f64 {
        let table = &self.db.tables()[w.table as usize];
        let rows = table.num_rows();
        if rows == 0 {
            return 1.0;
        }
        let (lo, hi) = (w.lo as usize, w.hi as usize);
        let overlap: usize = table
            .segments_overlapping(lo, hi)
            .map(|s| s.rows().end.min(hi).saturating_sub(s.rows().start.max(lo)))
            .sum();
        overlap as f64 / rows as f64
    }

    pub(crate) fn exact_bytes_in(&self, task: usize) -> u64 {
        let t = &self.tasks[task];
        if t.children.is_empty() {
            // A windowed tick's feed-table scan reads only the window's
            // slice of each base column (segment pruning).
            let win_frac = match (t.node.op.scan_access(), self.queries[t.query].window)
            {
                (Some((table, _)), Some(w))
                    if self.db.table_position(table) == Some(w.table as usize) =>
                {
                    self.window_fraction(w)
                }
                _ => 1.0,
            };
            let full: u64 =
                t.base_columns.iter().map(|&c| self.db.column_size(c)).sum();
            let full = (full as f64 * win_frac) as u64;
            // A shard reads only its row-range slice of each base column.
            match t.node.op.shard_spec() {
                Some(s) => (full as f64 * s.fraction()) as u64,
                None => full,
            }
        } else {
            t.children.iter().map(|&c| self.tasks[c].output_bytes).sum()
        }
    }

    pub(crate) fn make_ready(&mut self, task: usize) -> Result<(), EngineError> {
        self.tasks[task].bytes_in = self.exact_bytes_in(task);
        let device = if self.tasks[task].forced_cpu {
            DeviceId::Cpu
        } else if let Some(d) = self.tasks[task].annotation {
            d
        } else {
            let info = self.task_info(task, false);
            let ctx = policy_ctx!(self);
            let placed = self.policy.place_ready(&info, &ctx);
            self.tracer.emit(TraceEvent::Placement {
                query: self.tasks[task].query as u32,
                task: task as u32,
                op: self.tasks[task].node.op.op_class(),
                phase: PlacePhase::Ready,
                est: EstVec::from_per_device(&placed.est),
                chosen: placed.device,
                reason: placed.reason,
                at: self.now,
            });
            placed.device
        };
        self.enqueue(task, device);
        self.dispatch(device)?;
        Ok(())
    }

    pub(crate) fn on_query_done(&mut self, query: usize) -> Result<(), EngineError> {
        let q = &self.queries[query];
        let root = q.root;
        let first_task = q.first_task;
        let session = q.session;
        let seq = q.seq;
        let submit_time = q.submit_time;
        let admit_time = q.admit_time;
        let latency = self.now - submit_time;
        self.metrics.makespan = self.metrics.makespan.max(self.now);
        let output =
            self.tasks[root].output.take().expect("root output present").materialize();
        self.tracer.emit(TraceEvent::QueryDone {
            query: query as u32,
            session: session as u32,
            seq: seq as u32,
            submit: submit_time,
            admit: admit_time,
            end: self.now,
            rows: output.num_rows() as u64,
        });
        self.outcomes.push(QueryOutcome {
            session,
            seq,
            latency,
            admit_wait: admit_time.saturating_sub(submit_time),
            rows: output.num_rows(),
            checksum: output.checksum(),
            faults: self.query_faults[query],
            result: self.opts.capture_results.then_some(output),
        });
        self.tasks.retire(first_task..=root);
        self.active_queries -= 1;

        // Periodic data-placement background job (Section 3.2). The
        // policy may re-pin any co-processor cache; each newly cached
        // column crosses that device's host link.
        self.completed_since_update += 1;
        if self.opts.placement_update_period > 0
            && self.completed_since_update >= self.opts.placement_update_period
        {
            self.completed_since_update = 0;
            let new_keys = self.policy.update_data_placement(
                self.db,
                self.caches,
                &self.feed.col_epochs,
            );
            for (device, key) in new_keys {
                // Partition keys home a byte-range slice of the column;
                // whole-column keys move it in full.
                let full = self.db.column_size(ColumnId(key.column_id()));
                let bytes = match key.partition_of() {
                    Some((index, of)) => robustq_sim::partition_bytes(full, index, of),
                    None => full,
                };
                // Background placement transfers are durable and not
                // attributed to any one query.
                self.xfer(
                    self.now,
                    device,
                    Direction::HostToDevice,
                    TransferKind::Placement,
                    bytes,
                    None,
                    false,
                );
                self.tracer.emit(TraceEvent::CacheInsert {
                    device,
                    key,
                    bytes,
                    at: self.now,
                });
            }
        }

        // Closed loop: the session submits its next query. Open-loop
        // sessions are virtual (no queue) — `get_mut` is a no-op there.
        if let Some(plan) = self.sessions.get_mut(session).and_then(|s| s.pop_front()) {
            let seq = self.session_seq[session];
            self.session_seq[session] += 1;
            self.submit_query(Submission {
                session,
                seq,
                plan,
                submit: self.now,
                window: None,
                standing: None,
            });
        }
        self.process_admissions()?;
        Ok(())
    }
}

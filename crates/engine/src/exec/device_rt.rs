//! Per-device runtime state: ready queues, worker slots and the
//! processor-sharing compute sets.
//!
//! Each device of the topology gets one [`DeviceRt`]; the executor's
//! dispatch/advance/settle/reschedule cycle below is what turns the
//! discrete-event queue into per-device operator streams. `n` operators
//! computing concurrently on one device each progress at rate `1/n`
//! (processor sharing), which is how worker-slot contention stretches
//! kernel times without simulating schedulers.

use crate::error::EngineError;
use crate::exec::event_loop::{Ev, Sim, Status};
use robustq_sim::{
    partition_bytes, DeviceId, DeviceKind, Direction, PerDevice, VirtualTime,
};
use robustq_trace::{TraceEvent, TransferKind};
use std::collections::VecDeque;

/// One device's scheduling state.
#[derive(Debug, Default)]
pub(crate) struct DeviceRt {
    /// FIFO ready queue of task ids waiting for a worker slot.
    pub(crate) queue: VecDeque<usize>,
    /// Operators holding a worker slot (transferring or computing).
    pub(crate) running: usize,
    /// Estimated outstanding work (the policy's load signal).
    pub(crate) load: VirtualTime,
    /// Tasks currently *computing* (slot holders doing transfers are not
    /// in here yet); all of them share the device.
    pub(crate) compute: Vec<usize>,
    /// When `compute` progress was last applied.
    pub(crate) last_update: VirtualTime,
    /// Invalidates stale `DeviceTick` events.
    pub(crate) tick_version: u64,
}

/// The per-device runtime table, one entry per topology device.
#[derive(Debug)]
pub(crate) struct DeviceSet {
    rts: Vec<DeviceRt>,
}

impl DeviceSet {
    pub(crate) fn new(devices: usize) -> Self {
        DeviceSet { rts: (0..devices).map(|_| DeviceRt::default()).collect() }
    }

    pub(crate) fn rt(&self, device: DeviceId) -> &DeviceRt {
        &self.rts[device.index()]
    }

    pub(crate) fn rt_mut(&mut self, device: DeviceId) -> &mut DeviceRt {
        &mut self.rts[device.index()]
    }

    /// Snapshot of per-device queued work for the policy context.
    pub(crate) fn load_table(&self) -> PerDevice<VirtualTime> {
        PerDevice::from_fn(self.rts.len(), |d| self.rts[d.index()].load)
    }

    /// Snapshot of per-device running operators for the policy context.
    pub(crate) fn running_table(&self) -> PerDevice<usize> {
        PerDevice::from_fn(self.rts.len(), |d| self.rts[d.index()].running)
    }
}

impl Sim<'_, '_> {
    /// Positional byte volume of a shard merge, if `task` is one.
    ///
    /// Shards hand the merge selection vectors (~4 B/row — the same rule
    /// `d2h_consume_bytes` applies to scan outputs), and the merge
    /// concatenates positions without touching payload bytes. Its kernel
    /// cost is therefore charged on positions; `bytes_in`/`output_bytes`
    /// keep reporting the logical payload for downstream accounting.
    pub(crate) fn merge_positional_bytes(&self, task: usize) -> Option<u64> {
        let t = &self.tasks[task];
        matches!(t.node.op, crate::exec::task::TaskOp::MergeShards { .. }).then(|| {
            t.children.iter().map(|&c| self.tasks[c].output_rows * 4).sum()
        })
    }

    pub(crate) fn enqueue(&mut self, task: usize, device: DeviceId) {
        let now = self.now;
        let pos = self.merge_positional_bytes(task);
        let t = &mut self.tasks[task];
        t.device = Some(device);
        t.status = Status::Queued;
        t.queued_at = now;
        let (cost_in, cost_out) = match pos {
            Some(p) => (p.min(t.bytes_in), p.min(t.est_bytes_out)),
            None => (t.bytes_in, t.est_bytes_out),
        };
        let est = self.cost.duration(
            t.node.op.op_class(),
            device.kind(),
            cost_in,
            cost_out,
        );
        t.load_contribution = est;
        let rt = self.devices.rt_mut(device);
        rt.load += est;
        rt.queue.push_back(task);
    }

    pub(crate) fn slots(&self, device: DeviceId) -> usize {
        self.policy
            .worker_slots(device, self.config.spec(device).worker_slots)
    }

    pub(crate) fn dispatch(&mut self, device: DeviceId) -> Result<(), EngineError> {
        while self.devices.rt(device).running < self.slots(device) {
            let Some(task) = self.devices.rt_mut(device).queue.pop_front() else {
                break;
            };
            let contribution = self.tasks[task].load_contribution;
            let rt = self.devices.rt_mut(device);
            rt.load = rt.load.saturating_sub(contribution);
            self.start_task(task, device)?;
        }
        Ok(())
    }

    pub(crate) fn start_task(&mut self, task: usize, device: DeviceId) -> Result<(), EngineError> {
        let now = self.now;
        self.devices.rt_mut(device).running += 1;
        {
            let t = &mut self.tasks[task];
            t.status = Status::Running;
            t.start_time = now;
            t.device = Some(device);
        }

        // Compute the kernel result eagerly (host side); reuse a result
        // computed before an abort. Child outputs *move* into the kernel:
        // nothing reads them once the parent's result exists, and an
        // aborted parent restarts from its own retained result.
        if self.tasks[task].output.is_none() {
            let mut children_chunks = Vec::with_capacity(self.tasks[task].children.len());
            for i in 0..self.tasks[task].children.len() {
                let c = self.tasks[task].children[i];
                let out = self.tasks[c].output.take().ok_or_else(|| {
                    EngineError::Internal("child output missing".to_string())
                })?;
                children_chunks.push(out);
            }
            // A standing-query tick scans only its window's rows of the
            // fed table; batch queries (window `None`) take the plain
            // path, byte-identical to earlier releases.
            let window = self.queries[self.tasks[task].query].window.map(|w| {
                let name = self.db.tables()[w.table as usize].name();
                (name, w.lo as usize, w.hi as usize)
            });
            let out = self
                .tasks[task]
                .node
                .op
                .execute_windowed(&children_chunks, self.db, self.opts.parallel, window)
                .map_err(EngineError::Kernel)?;
            self.tasks[task].output_bytes = out.byte_size();
            self.tasks[task].output_rows = out.num_rows() as u64;
            self.tasks[task].output = Some(out);
        }
        let bytes_in = self.tasks[task].bytes_in;
        let bytes_out = self.tasks[task].output_bytes;
        let class = self.tasks[task].node.op.op_class();
        // Kernel-cost volume: positional for shard merges, payload else.
        let (cost_in, cost_out) = match self.merge_positional_bytes(task) {
            Some(p) => (p.min(bytes_in), p.min(bytes_out)),
            None => (bytes_in, bytes_out),
        };

        // Record base-column accesses (the counters driving LFU placement).
        for &col in &self.tasks[task].base_columns.clone() {
            self.db.stats().record_access(col.index());
        }

        let mut ready_at = now;
        if device.is_coprocessor() {
            let query = self.tasks[task].query;
            // Inputs resident on a *sibling* co-processor first return to
            // the host over that device's link; they then transfer in with
            // the other host-resident inputs below (there is no
            // peer-to-peer path in the simulated machine).
            for &c in &self.tasks[task].children.clone() {
                if self.tasks[c]
                    .output_device
                    .is_some_and(|d| d.is_coprocessor() && d != device)
                {
                    let end = self.pull_child_to_host(c, query, now);
                    ready_at = ready_at.max(end);
                }
            }
            // Working memory: staged allocation of footprint + retained
            // result, plus any host-resident inputs copied in.
            let mut input_transfer_bytes = 0u64;
            // A merge consumes its shards' position lists, not payloads,
            // so its h2d input transfers are positional too.
            let positional =
                matches!(self.tasks[task].node.op, crate::exec::task::TaskOp::MergeShards { .. });
            for &c in &self.tasks[task].children.clone() {
                if self.tasks[c].output_device == Some(DeviceId::Cpu) {
                    let b = self.tasks[c].output_bytes;
                    input_transfer_bytes +=
                        if positional { (self.tasks[c].output_rows * 4).min(b) } else { b };
                }
            }
            let footprint = self.cost.gpu_working_footprint(class, cost_in, cost_out)
                + bytes_out;
            // Larger-than-heap operators: with chunked staging enabled
            // they partition and stream instead of walking into a
            // guaranteed mid-flight abort (DESIGN.md §15).
            if self.opts.chunked_staging
                && input_transfer_bytes + footprint > self.heaps.device(device).capacity()
            {
                return self.start_staged_task(
                    task,
                    device,
                    input_transfer_bytes,
                    cost_in,
                    cost_out,
                );
            }
            // Operators allocate incrementally (Section 2.5.1): a small
            // upfront slice (input buffers), then three growth stages
            // mid-execution — which is what makes mid-flight aborts, and
            // the wasted time of Figure 20, possible.
            let stage = footprint * 3 / 10;
            let tag = Self::working_tag(task);
            let mut injected = false;
            let ok = self
                .alloc_or_inject(device, tag, input_transfer_bytes, 0, query, &mut injected)
                && self.alloc_or_inject(
                    device,
                    tag,
                    footprint - 3 * stage,
                    0,
                    query,
                    &mut injected,
                );
            if !ok {
                self.abort_task(task, injected)?;
                return Ok(());
            }

            // Base columns: probe the device's cache, transfer on miss. A
            // permanent transfer fault aborts the operator to the CPU,
            // exactly like a failed allocation.
            match self.stage_base_columns(task, device, now)? {
                Some(end) => ready_at = ready_at.max(end),
                None => return Ok(()), // aborted inside
            }
            // Host-resident intermediate inputs cross the bus.
            if input_transfer_bytes > 0 {
                match self.xfer(
                    now,
                    device,
                    robustq_sim::Direction::HostToDevice,
                    TransferKind::Input,
                    input_transfer_bytes,
                    Some(query),
                    true,
                ) {
                    Some(end) => ready_at = ready_at.max(end),
                    None => {
                        self.abort_task(task, true)?;
                        return Ok(());
                    }
                }
            }

            let duration =
                self.cost.duration(class, DeviceKind::CoProcessor, cost_in, cost_out);
            let solo = duration.as_nanos() as f64;
            let t = &mut self.tasks[task];
            t.kernel_duration = duration;
            t.remaining_ns = solo;
            // Remaining-time thresholds for the three later allocation
            // stages, ascending so the largest is popped first.
            t.milestones = vec![0.25 * solo, 0.5 * solo, 0.75 * solo];
            t.stage_bytes = stage;
            let epoch = t.epoch;
            self.events.push(ready_at, Ev::ComputeStart { task, epoch });
        } else {
            // CPU: pull any co-processor-resident inputs back to the
            // host. These transfers are durable — the CPU is the fallback
            // device, so its inputs must always arrive.
            let query = self.tasks[task].query;
            for &c in &self.tasks[task].children.clone() {
                if self.tasks[c].output_device.is_some_and(DeviceId::is_coprocessor) {
                    let end = self.pull_child_to_host(c, query, now);
                    ready_at = ready_at.max(end);
                }
            }
            let duration = self.cost.duration(class, DeviceKind::Cpu, cost_in, cost_out);
            let t = &mut self.tasks[task];
            t.kernel_duration = duration;
            t.remaining_ns = duration.as_nanos() as f64;
            t.milestones = Vec::new();
            t.stage_bytes = 0;
            let epoch = t.epoch;
            self.events.push(ready_at, Ev::ComputeStart { task, epoch });
        }
        Ok(())
    }

    /// Upper bound on staging fan-out; per-chunk launch overhead makes
    /// finer partitions pointless long before this.
    const MAX_STAGE_CHUNKS: u32 = 4096;

    /// Worst-case (first-chunk) device bytes of an `n`-way staged
    /// execution: the chunk's input slice, its working footprint and its
    /// retained chunk result. `partition_bytes` hands remainders to the
    /// low chunks, so chunk 0 dominates.
    fn staged_chunk_bytes(
        &self,
        class: robustq_sim::OpClass,
        total_in: u64,
        cost_in: u64,
        cost_out: u64,
        bytes_out: u64,
        n: u32,
    ) -> u64 {
        let w = self.cost.gpu_working_footprint(
            class,
            partition_bytes(cost_in, 0, n),
            partition_bytes(cost_out, 0, n),
        );
        partition_bytes(total_in, 0, n) + w + partition_bytes(bytes_out, 0, n)
    }

    /// Chunked out-of-core execution of a larger-than-heap operator:
    /// partition → transfer → execute → evict over the device's existing
    /// link machinery (DESIGN.md §15).
    ///
    /// The operator takes one fixed working allocation sized for a single
    /// chunk, streams its input in chunk-sized slices over the host link
    /// (compute starts when the first chunk lands; later chunks overlap
    /// compute behind it on the FIFO), runs for the sum of per-chunk
    /// kernel durations, and at completion streams each chunk's result
    /// back to the host (`complete_task`'s evict phase). Base columns
    /// travel inside the chunk stream and bypass the column cache — a
    /// working set that outgrows the heap would only thrash it. The CPU
    /// fallback remains for the case where even one chunk cannot fit.
    fn start_staged_task(
        &mut self,
        task: usize,
        device: DeviceId,
        host_input_bytes: u64,
        cost_in: u64,
        cost_out: u64,
    ) -> Result<(), EngineError> {
        let now = self.now;
        let query = self.tasks[task].query;
        let class = self.tasks[task].node.op.op_class();
        let bytes_out = self.tasks[task].output_bytes;
        let shard = self.tasks[task].node.op.shard_spec();
        let base_bytes: u64 = self.tasks[task]
            .base_columns
            .clone()
            .iter()
            .map(|&col| {
                let full = self.db.column_size(col);
                match shard {
                    Some(s) => partition_bytes(full, s.index, s.of),
                    None => full,
                }
            })
            .sum();
        let total_in = host_input_bytes + base_bytes;
        let cap = self.heaps.device(device).capacity();
        let chunks = (2..=Self::MAX_STAGE_CHUNKS).find(|&n| {
            self.staged_chunk_bytes(class, total_in, cost_in, cost_out, bytes_out, n) <= cap
        });
        let Some(chunks) = chunks else {
            // Even one chunk cannot fit the device heap: the CPU is the
            // only remaining route.
            self.staging.oversize_fallbacks += 1;
            return self.abort_task(task, false);
        };
        let chunk_total =
            self.staged_chunk_bytes(class, total_in, cost_in, cost_out, bytes_out, chunks);
        let tag = Self::working_tag(task);
        let mut injected = false;
        if !self.alloc_or_inject(device, tag, chunk_total, 0, query, &mut injected) {
            // The chunk-sized set fits an *empty* heap but not the
            // current occupancy — ordinary contention abort.
            return self.abort_task(task, injected);
        }
        self.tracer.emit(TraceEvent::OpStaged {
            query: query as u32,
            task: task as u32,
            device,
            chunks,
            chunk_bytes: chunk_total,
            at: now,
        });

        // Transfer phase: chunk slices stream back-to-back over the host
        // link; compute may begin once the first slice arrived.
        let mut ready_at = now;
        let mut duration = VirtualTime::ZERO;
        for i in 0..chunks {
            let cin = partition_bytes(total_in, i, chunks);
            if cin > 0 {
                match self.xfer(
                    now,
                    device,
                    Direction::HostToDevice,
                    TransferKind::Input,
                    cin,
                    Some(query),
                    true,
                ) {
                    Some(end) => {
                        if i == 0 {
                            ready_at = ready_at.max(end);
                        }
                    }
                    None => {
                        return self.abort_task(task, true);
                    }
                }
            }
            // Execute phase is costed per chunk: each slice pays its own
            // launch overhead, so the adaptive model sees the real
            // (overhead-heavier) staged throughput.
            duration += self.cost.duration(
                class,
                DeviceKind::CoProcessor,
                partition_bytes(cost_in, i, chunks),
                partition_bytes(cost_out, i, chunks),
            );
        }

        let t = &mut self.tasks[task];
        t.kernel_duration = duration;
        t.remaining_ns = duration.as_nanos() as f64;
        // One fixed chunk-sized allocation: no growth stages, no
        // mid-flight heap aborts.
        t.milestones = Vec::new();
        t.stage_bytes = 0;
        t.staged_chunks = chunks;
        let epoch = t.epoch;
        self.events.push(ready_at, Ev::ComputeStart { task, epoch });
        Ok(())
    }

    pub(crate) fn on_compute_start(&mut self, task: usize, epoch: u32) -> Result<(), EngineError> {
        let live = self.tasks.get(task);
        if live.is_none_or(|t| t.epoch != epoch || t.status != Status::Running) {
            return Ok(());
        }
        let device = self.tasks[task].device.expect("computing task is placed");
        let query = self.tasks[task].query;
        let class = self.tasks[task].node.op.op_class();
        if self.fault.abort_kernel(class, device) {
            // Injected kernel fault: surfaces as an ordinary abort.
            self.note_injected(Some(query), robustq_trace::FaultKind::KernelAbort, self.now);
            self.abort_task(task, true)?;
            return Ok(());
        }
        if let Some(until) = self.fault.stall_until(device, self.now) {
            // The worker slot is stalled: the kernel launch is deferred
            // to the end of the window, in virtual time.
            let wait = until - self.now;
            self.note_injected(
                Some(query),
                robustq_trace::FaultKind::Stall { wait },
                self.now,
            );
            self.note_injected_wasted(Some(query), wait);
            self.events.push(until, Ev::ComputeStart { task, epoch });
            return Ok(());
        }
        self.advance(device);
        self.devices.rt_mut(device).compute.push(task);
        self.reschedule(device);
        Ok(())
    }

    pub(crate) fn on_device_tick(
        &mut self,
        device: DeviceId,
        version: u64,
    ) -> Result<(), EngineError> {
        if self.devices.rt(device).tick_version != version {
            return Ok(());
        }
        self.advance(device);
        self.settle(device)?;
        self.reschedule(device);
        Ok(())
    }

    /// Progress every computing task on `device` up to `self.now`:
    /// `n` concurrent tasks each run at rate `1/n` (processor sharing).
    pub(crate) fn advance(&mut self, device: DeviceId) {
        let rt = self.devices.rt_mut(device);
        let dt = self.now.saturating_sub(rt.last_update);
        rt.last_update = self.now;
        let n = rt.compute.len();
        if n == 0 || dt == VirtualTime::ZERO {
            return;
        }
        let dec = dt.as_nanos() as f64 / n as f64;
        for &t in &self.devices.rt(device).compute {
            self.tasks[t].remaining_ns -= dec;
        }
    }

    /// Process every due allocation stage and completion on `device`.
    pub(crate) fn settle(&mut self, device: DeviceId) -> Result<(), EngineError> {
        loop {
            // Next due action in deterministic compute-set order.
            let mut action: Option<(usize, bool)> = None; // (task, is_completion)
            for &t in &self.devices.rt(device).compute {
                let rem = self.tasks[t].remaining_ns;
                if rem <= Self::EPS_NS {
                    action = Some((t, true));
                    break;
                }
                if let Some(&thr) = self.tasks[t].milestones.last() {
                    if rem <= thr + Self::EPS_NS {
                        action = Some((t, false));
                        break;
                    }
                }
            }
            let Some((t, done)) = action else {
                return Ok(());
            };
            if done {
                self.devices.rt_mut(device).compute.retain(|&x| x != t);
                self.complete_task(t)?;
            } else {
                self.tasks[t].milestones.pop();
                let bytes = self.tasks[t].stage_bytes;
                // Growth stages are numbered 1..=3 after the pop.
                let stage = (3 - self.tasks[t].milestones.len()) as u32;
                let query = self.tasks[t].query;
                let mut injected = false;
                if !self.alloc_or_inject(
                    device,
                    Self::working_tag(t),
                    bytes,
                    stage,
                    query,
                    &mut injected,
                ) {
                    // Mid-flight out-of-memory: the heap-contention abort.
                    self.devices.rt_mut(device).compute.retain(|&x| x != t);
                    self.abort_task(t, injected)?;
                }
            }
        }
    }

    /// Re-arm the device's next tick: the earliest completion or
    /// allocation-stage crossing under the current sharing factor.
    pub(crate) fn reschedule(&mut self, device: DeviceId) {
        self.devices.rt_mut(device).tick_version += 1;
        let rt = self.devices.rt(device);
        let n = rt.compute.len();
        if n == 0 {
            return;
        }
        let mut min_dt = f64::INFINITY;
        for &t in &rt.compute {
            let rem = self.tasks[t].remaining_ns;
            let target = self.tasks[t].milestones.last().copied().unwrap_or(0.0);
            min_dt = min_dt.min((rem - target).max(0.0));
        }
        let dt = (min_dt * n as f64).ceil().max(1.0) as u64;
        let version = rt.tick_version;
        self.events.push(
            self.now + VirtualTime::from_nanos(dt),
            Ev::DeviceTick { device, version },
        );
    }
}

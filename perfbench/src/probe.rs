//! Host-time probes placed around calls into the engine's public API.
//!
//! Nothing here reaches inside the program: every number is the wall
//! clock between entering and leaving a public function, or a count
//! read back from what that function returned.

use robustq_engine::{
    CostModelKind, ModelUpdate, PlaceReason, Placement, PlacementPolicy, PolicyCtx, TaskInfo,
};
use robustq_sim::{CacheKey, CacheSet, DeviceId, OpClass, VirtualTime};
use robustq_storage::Database;
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn since_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// On-CPU time of the calling thread in nanoseconds, from
/// `/proc/thread-self/schedstat`. Unlike the wall clock it leaves out
/// time the thread waited for a CPU and, in a guest that accounts steal
/// time, time the hypervisor ran other guests on its virtual CPU. The
/// kernel brings the figure up to date at every scheduler tick, so a
/// reading may lag by one tick (4 ms at 250 Hz). Panics where the file
/// is missing: the benchmark needs Linux.
pub fn thread_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("reading /proc/thread-self/schedstat");
    stat.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("on-CPU time in /proc/thread-self/schedstat")
}

/// A fixed reference kernel that shares no code with the program: sort
/// 200 000 pseudo-random integers, then fold 60 000 of them into an
/// ordered map. On a shared host the speed at which this process runs
/// drifts by tens of percent from one minute to the next; the kernel's
/// time follows much of that drift, so the benchmark times it beside the
/// set-ups and runs and rescales `setup_s` and `host_qps` by it.
pub struct RefKernel {
    /// Allocated once and faulted in by the first pass (during set-up),
    /// so later passes do not move the peak resident set.
    buf: Vec<u64>,
}

impl RefKernel {
    const LEN: usize = 200_000;

    pub fn new() -> Self {
        RefKernel {
            buf: Vec::with_capacity(Self::LEN),
        }
    }

    /// One pass; returns its wall-clock duration in milliseconds.
    pub fn pass_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 7;
        self.buf.clear();
        self.buf.extend((0..Self::LEN).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        self.buf.sort_unstable();
        let mut m = std::collections::BTreeMap::new();
        for (i, k) in self.buf.iter().take(60_000).enumerate() {
            *m.entry(k % 20_011).or_insert(0u64) += i as u64;
        }
        std::hint::black_box(&m);
        since_ns(t) as f64 / 1e6
    }
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `f`, adding its wall-clock duration to `acc`.
pub fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += since_ns(t);
    out
}

/// Host time and call counts spent inside the placement policy
/// (the `robustq-core` layer), plus the reasons it gave.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyClock {
    /// `plan_query` + `place_ready` calls.
    pub place_calls: u64,
    pub place_ns: u64,
    /// `update_data_placement` calls.
    pub update_calls: u64,
    pub update_ns: u64,
    /// `observe` calls.
    pub observe_calls: u64,
    pub observe_ns: u64,
    /// Placements returned, and how many of them replayed a memoized
    /// standing-query decision. Counted whether or not timing is on.
    pub placements: u64,
    pub recurring: u64,
}

impl PolicyClock {
    /// All host time spent inside the policy.
    pub fn total_ns(&self) -> u64 {
        self.place_ns + self.update_ns + self.observe_ns
    }

    /// Add another run's clock to this one.
    pub fn absorb(&mut self, other: &PolicyClock) {
        self.place_calls += other.place_calls;
        self.place_ns += other.place_ns;
        self.update_calls += other.update_calls;
        self.update_ns += other.update_ns;
        self.observe_calls += other.observe_calls;
        self.observe_ns += other.observe_ns;
        self.placements += other.placements;
        self.recurring += other.recurring;
    }

    fn count(&mut self, p: &Placement) {
        self.placements += 1;
        if p.reason == PlaceReason::Recurring {
            self.recurring += 1;
        }
    }
}

/// A delegating [`PlacementPolicy`] that times every call into the
/// wrapped strategy. With `timing` off it only counts placements, so
/// end-to-end runs pay no clock reads per operator.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    timing: bool,
    pub clock: PolicyClock,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn PlacementPolicy>, timing: bool) -> Self {
        TimedPolicy {
            inner,
            timing,
            clock: PolicyClock::default(),
        }
    }

    fn call<T>(timing: bool, calls: &mut u64, ns: &mut u64, f: impl FnOnce() -> T) -> T {
        if !timing {
            return f();
        }
        *calls += 1;
        timed(ns, f)
    }
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan_query(&mut self, tasks: &[TaskInfo], ctx: &PolicyCtx) -> Vec<Option<Placement>> {
        let c = &mut self.clock;
        let inner = &mut self.inner;
        let out = Self::call(self.timing, &mut c.place_calls, &mut c.place_ns, || {
            inner.plan_query(tasks, ctx)
        });
        out.iter().flatten().for_each(|p| c.count(p));
        out
    }

    fn place_ready(&mut self, task: &TaskInfo, ctx: &PolicyCtx) -> Placement {
        let c = &mut self.clock;
        let inner = &mut self.inner;
        let out = Self::call(self.timing, &mut c.place_calls, &mut c.place_ns, || {
            inner.place_ready(task, ctx)
        });
        c.count(&out);
        out
    }

    fn worker_slots(&self, device: DeviceId, spec_slots: usize) -> usize {
        self.inner.worker_slots(device, spec_slots)
    }

    fn caches_on_miss(&self) -> bool {
        self.inner.caches_on_miss()
    }

    fn set_cost_model(&mut self, kind: CostModelKind) {
        self.inner.set_cost_model(kind)
    }

    fn observe(
        &mut self,
        op_class: OpClass,
        device: DeviceId,
        bytes_in: u64,
        bytes_out: u64,
        kernel: VirtualTime,
        span: VirtualTime,
    ) -> Option<ModelUpdate> {
        let c = &mut self.clock;
        let inner = &mut self.inner;
        Self::call(self.timing, &mut c.observe_calls, &mut c.observe_ns, || {
            inner.observe(op_class, device, bytes_in, bytes_out, kernel, span)
        })
    }

    fn update_data_placement(
        &mut self,
        db: &Database,
        caches: &mut CacheSet,
        epochs: &[u64],
    ) -> Vec<(DeviceId, CacheKey)> {
        let c = &mut self.clock;
        let inner = &mut self.inner;
        Self::call(self.timing, &mut c.update_calls, &mut c.update_ns, || {
            inner.update_data_placement(db, caches, epochs)
        })
    }
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set of this process in MiB since the last
/// [`reset_peak_rss`], from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

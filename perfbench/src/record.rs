//! What one timed run of a workload produces: a virtual-clock record
//! that must repeat exactly for a seed, and a host-clock split by layer.

use crate::probe::{since_ns, thread_cpu_ns, PolicyClock, TimedPolicy};
use robustq_engine::exec::metrics::QueryOutcome;
use robustq_engine::{EngineError, ExecOptions, ModelUpdate, RunMetrics, RunOutcome};
use robustq_sim::{DeviceId, VirtualTime};
use robustq_trace::{chrome_trace_json, lint_chrome_trace, MetricsRegistry, Tracer};
use std::time::Instant;

/// Simulator counters summed over a run's measured executor calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTotals {
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub transfer_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Σ co-processor busy time, and Σ K × makespan it is a share of.
    pub coproc_busy_ns: u64,
    pub coproc_span_ns: u64,
    pub heap_peak: u64,
    pub aborts: u64,
    pub wasted_ns: u64,
    pub staged_ops: u64,
}

impl SimTotals {
    /// Add one measured executor call on a machine with `k` co-processors.
    pub fn absorb(&mut self, out: &RunOutcome, k: usize) {
        let m = &out.metrics;
        self.h2d_bytes += m.h2d_bytes;
        self.d2h_bytes += m.d2h_bytes;
        self.transfer_ns += m.total_transfer_time().as_nanos();
        self.cache_hits += m.cache_hits;
        self.cache_misses += m.cache_misses;
        self.coproc_busy_ns += m
            .device_busy
            .iter()
            .filter(|(d, _)| *d != DeviceId::Cpu)
            .map(|(_, t)| t.as_nanos())
            .sum::<u64>();
        self.coproc_span_ns += k as u64 * m.makespan.as_nanos();
        self.heap_peak = self.heap_peak.max(m.gpu_heap_peak);
        self.aborts += m.aborts;
        self.wasted_ns += m.wasted_time.as_nanos();
        self.staged_ops += out.staging.staged_ops;
    }
}

/// The virtual-clock results of one run. Deterministic for a seed: two
/// runs, traced or not, at any kernel worker count, compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virtual {
    /// Queries offered to the measured runs, and how they ended.
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    /// Completed queries whose result differed from the reference, and
    /// those equal to it only within the f64 tolerance.
    pub errors: u64,
    pub inexact: u64,
    /// Latency of ad-hoc / closed queries (the `vlat_*` population).
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    pub makespan_ns: u64,
    pub goodput_qps: f64,
    /// Highest ladder rate meeting the latency limit (open loop only).
    pub sustained_qps: f64,
    /// Window ticks (streaming only).
    pub ticks_offered: u64,
    pub ticks_done: u64,
    pub tick_p50_ns: u64,
    pub tick_p95_ns: u64,
    pub admit_wait_p99_ns: u64,
    /// Operators completed in every executor call of the run, warm-up
    /// included (the work behind `engine.run_ms`).
    pub ops: u64,
    pub sim: SimTotals,
    /// Median relative cost-model error over the measured runs.
    pub est_err_p50: f64,
}

/// Trace-derived numbers of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    pub events: u64,
    pub dropped: u64,
    pub export_ns: u64,
    pub registry_ns: u64,
    pub appends: u64,
    pub epoch_seals: u64,
    pub cache_evictions: u64,
    pub shard_fanouts: u64,
}

/// Largest share of a timed run's host time the benchmark's own work
/// between layer calls (`glue_ns`) may take. Above it, time is being
/// spent outside the timed calls and the layer split no longer
/// describes the run, so the run fails.
pub const GLUE_MAX_SHARE: f64 = 0.02;

/// Host wall-clock of one timed run, split by the layer whose public
/// call the time was spent in. `glue_ns` is the benchmark's own work
/// between those calls (checking results is excluded from the run).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSplit {
    pub total_ns: u64,
    /// On-CPU time of the driver thread over the same span as
    /// `total_ns` ([`thread_cpu_ns`]): the run's cost without the time
    /// a shared host kept the thread off its CPU.
    pub cpu_ns: u64,
    /// `robustq_sql::plan_sql`.
    pub sql_ns: u64,
    pub sql_calls: u64,
    /// Arrival scheduling plus mix and literal sampling.
    pub serve_ns: u64,
    /// Inside `Executor::run*` calls, policy callbacks included.
    pub engine_ns: u64,
    /// Inside the placement policy (a subset of `engine_ns`).
    pub policy: PolicyClock,
    /// Queries the simulator processed: warm-up and measured, shed
    /// arrivals and window ticks included.
    pub processed: u64,
}

impl HostSplit {
    pub fn core_ns(&self) -> u64 {
        self.policy.total_ns()
    }

    pub fn engine_self_ns(&self) -> u64 {
        self.engine_ns - self.core_ns()
    }

    pub fn glue_ns(&self) -> u64 {
        self.total_ns
            .checked_sub(self.sql_ns + self.serve_ns + self.engine_ns)
            .expect("layer timers nest inside the run timer")
    }

    /// `glue_ns` as a share of `total_ns`.
    pub fn glue_share(&self) -> f64 {
        self.glue_ns() as f64 / self.total_ns.max(1) as f64
    }
}

/// One timed run of a workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub virt: Virtual,
    pub host: HostSplit,
    pub trace: Option<TraceStats>,
}

/// How to run: kernel parallelism, per-call policy timing, tracing.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workers: usize,
    pub instrument: bool,
    pub trace: bool,
}

/// Accumulates the host split and trace checks while a workload drives
/// the executor.
pub struct Meter {
    host: HostSplit,
    trace: Option<TraceStats>,
    samples: Vec<ModelUpdate>,
    start: Instant,
    cpu_start: u64,
}

impl Meter {
    /// Start the run timer.
    pub fn start(opts: &RunOpts) -> Self {
        Meter {
            host: HostSplit::default(),
            trace: opts.trace.then(TraceStats::default),
            samples: Vec::new(),
            cpu_start: thread_cpu_ns(),
            start: Instant::now(),
        }
    }

    /// Time one `plan_sql`-level call.
    pub fn sql<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.host.sql_calls += 1;
        crate::probe::timed(&mut self.host.sql_ns, f)
    }

    /// Time one scheduling / sampling step.
    pub fn serve<T>(&mut self, f: impl FnOnce() -> T) -> T {
        crate::probe::timed(&mut self.host.serve_ns, f)
    }

    /// Run `f` with the run timer paused: work that checks the run
    /// rather than performs it.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, cpu) = (Instant::now(), thread_cpu_ns());
        let out = f();
        self.start += t.elapsed();
        self.cpu_start += thread_cpu_ns() - cpu;
        out
    }

    /// Time one executor call that is not measured (warm-up).
    pub fn warmup(
        &mut self,
        policy: &mut TimedPolicy,
        f: impl FnOnce(&mut TimedPolicy) -> Result<RunOutcome, EngineError>,
    ) -> Result<RunOutcome, String> {
        let out = crate::probe::timed(&mut self.host.engine_ns, || f(policy))
            .map_err(|e| format!("warm-up run failed: {e}"))?;
        self.host.processed += out.metrics.queries as u64 + out.metrics.shed;
        Ok(out)
    }

    /// Time one measured executor call. `opts` gets a fresh tracer when
    /// this is a traced run; the trace is then checked (no drops, counters
    /// re-derive exactly, Chrome export lints) outside the timed region.
    pub fn measured(
        &mut self,
        opts: &mut ExecOptions,
        policy: &mut TimedPolicy,
        f: impl FnOnce(&mut TimedPolicy, &ExecOptions) -> Result<RunOutcome, EngineError>,
    ) -> Result<RunOutcome, String> {
        // Size the ring so a long run never drops events.
        opts.tracer = if self.trace.is_some() {
            Tracer::with_capacity(1 << 24)
        } else {
            Tracer::disabled()
        };
        let t = Instant::now();
        let out = f(policy, opts).map_err(|e| format!("measured run failed: {e}"))?;
        self.host.engine_ns += since_ns(t);
        self.host.processed += out.metrics.queries as u64 + out.metrics.shed;
        self.samples.extend_from_slice(&out.model_samples);
        if let Some(mut stats) = self.trace.take() {
            // Trace post-processing is reported on its own.
            self.untimed(|| check_trace(&mut stats, &opts.tracer, &out.metrics))?;
            self.trace = Some(stats);
        }
        Ok(out)
    }

    /// Stop the run timer and fold in the policy clock.
    pub fn finish(
        mut self,
        policy: &PolicyClock,
    ) -> (HostSplit, Option<TraceStats>, Vec<ModelUpdate>) {
        self.host.total_ns = since_ns(self.start);
        self.host.cpu_ns = thread_cpu_ns() - self.cpu_start;
        self.host.policy = *policy;
        (self.host, self.trace, self.samples)
    }
}

fn check_trace(
    stats: &mut TraceStats,
    tracer: &Tracer,
    metrics: &RunMetrics,
) -> Result<(), String> {
    let data = tracer.take();
    if data.dropped > 0 {
        return Err(format!("trace ring dropped {} events", data.dropped));
    }
    stats.events += data.events.len() as u64;
    stats.dropped += data.dropped;
    if RunMetrics::from_events(&data.events) != *metrics {
        return Err("RunMetrics::from_events disagrees with the run's metrics".into());
    }
    let t = Instant::now();
    let chrome = chrome_trace_json(&data.events);
    stats.export_ns += since_ns(t);
    lint_chrome_trace(&chrome).map_err(|e| format!("Chrome trace fails lint: {e}"))?;
    let t = Instant::now();
    let registry = MetricsRegistry::from_events(&data.events);
    stats.registry_ns += since_ns(t);
    stats.appends += registry.counter("appends");
    stats.epoch_seals += registry.counter("epoch_seals");
    stats.cache_evictions += registry.counter("cache_evictions");
    stats.shard_fanouts += registry.counter("shard_fanouts");
    Ok(())
}

/// Nearest-rank percentile, `0 < p <= 100`; zero for no samples.
pub fn percentile(mut v: Vec<u64>, p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile of outcome latencies.
pub fn latency_percentile(outcomes: &[&QueryOutcome], p: f64) -> u64 {
    percentile(outcomes.iter().map(|o| o.latency.as_nanos()).collect(), p)
}

/// Median of the cost-model relative errors (zero without samples).
pub fn est_err_p50(samples: &[ModelUpdate]) -> f64 {
    let mut e: Vec<f64> = samples.iter().map(ModelUpdate::relative_error).collect();
    if e.is_empty() {
        return 0.0;
    }
    e.sort_by(f64::total_cmp);
    e[e.len().div_ceil(2) - 1]
}

/// Completed queries per virtual second over `makespan`.
pub fn per_virtual_second(count: u64, makespan: VirtualTime) -> f64 {
    let secs = makespan.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

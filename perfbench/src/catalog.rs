//! Every metric the benchmark reports: name, clock, unit, direction.
//!
//! `BENCHMARK.json` lists the same names; a self-test keeps the two in
//! step. Metrics that do not apply to a workload (no window ticks, no
//! rate ladder, no appends) read 0 there.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The host: what running the engine costs, on the wall clock or
    /// (`host_qps`) as the driver thread's on-CPU time.
    Host,
    /// The simulator's virtual clock: deterministic for a seed.
    Virtual,
    /// A count or a ratio of counts (deterministic).
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub clock: Clock,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    clock: Clock,
    unit: &'static str,
    higher_is_better: bool,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        clock,
        unit,
        higher_is_better,
        about,
    }
}

use Clock::{Count, Host, Virtual};

/// End-to-end metrics, measured with tracing off (`--trace 0`).
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    m("setup_s", Host, "s", false, "set-up: data generation, catalog build, template planning (median of 15), rescaled to a host on which the reference kernel takes 15 ms"),
    m("host_qps", Host, "1/s", true, "queries the simulator processed (warm-up, measured, shed, ticks) per on-CPU second of the driver thread, rescaled to a host on which the reference kernel takes 15 ms"),
    m("peak_rss_mb", Host, "MiB", false, "peak resident memory over the timed runs (VmHWM, reset after set-up, references and warm-up)"),
    m("vlat_p50_ms", Virtual, "ms", false, "median latency of ad-hoc/closed queries, submission to completion"),
    m("vlat_p99_ms", Virtual, "ms", false, "99th-percentile latency of ad-hoc/closed queries"),
    m("vmakespan_ms", Virtual, "ms", false, "makespan of the measured run (adhoc: the reference rung)"),
    m("vgoodput_qps", Virtual, "1/s", true, "completed queries per virtual second of the measured run"),
];

/// Per-layer metrics, from the traced run (`--trace 1`). Host times are
/// medians over repetitions; per-call times are each repetition's mean.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    m("sustained_qps", Virtual, "1/s", true, "adhoc: highest ladder rate with p99 <= 1 ms and no shed query"),
    m("shed_frac", Count, "ratio", false, "shed / offered queries"),
    m("error_frac", Count, "ratio", false, "queries errored or differing from the reference / offered"),
    m("f64_close_frac", Count, "ratio", false, "results equal to the reference only within 1e-9 relative on f64 values / offered"),
    m("tick_p50_ms", Virtual, "ms", false, "stream: median window-tick latency"),
    m("tick_p95_ms", Virtual, "ms", false, "stream: 95th-percentile window-tick latency"),
    m("tick_done_frac", Count, "ratio", true, "stream: completed / offered window ticks"),
    m("host.run_ms", Host, "ms", false, "host time of the timed run, policy timers on"),
    m("host.cpu_qps", Host, "1/s", true, "host_qps of the policy-timed runs before rescaling"),
    m("host.ref_kernel_ms", Host, "ms", false, "median time of one reference-kernel pass during the runs (host_qps rescales by it)"),
    m("sql.plan_us", Host, "us", false, "host time per plan_sql call (set-up calls where the timed run plans none)"),
    m("sql.plan_share", Host, "ratio", false, "plan_sql share of the timed run's host time"),
    m("storage.gen_ms", Host, "ms", false, "SsbGenerator::generate / SsbStreamGen::build"),
    m("storage.appends", Count, "count", false, "feed appends replayed (trace registry)"),
    m("storage.epoch_seals", Count, "count", false, "segments sealed by appends (trace registry)"),
    m("serve.schedule_ms", Host, "ms", false, "arrival scheduling plus mix and literal sampling"),
    m("serve.share", Host, "ratio", false, "serve share of the timed run's host time"),
    m("core.place_calls", Count, "count", false, "plan_query + place_ready calls"),
    m("core.place_us", Host, "us", false, "host time per placement call"),
    m("core.update_calls", Count, "count", false, "update_data_placement calls"),
    m("core.update_ms", Host, "ms", false, "host time in update_data_placement"),
    m("core.observe_us", Host, "us", false, "host time per observe call"),
    m("core.recurring_frac", Count, "ratio", false, "placements replaying a memoized standing-query decision"),
    m("core.est_err_p50", Count, "ratio", false, "median relative cost-model error (model_samples)"),
    m("core.share", Host, "ratio", false, "placement-policy share of the timed run's host time"),
    m("engine.run_ms", Host, "ms", false, "host time inside Executor::run* minus policy callbacks"),
    m("engine.ops", Count, "count", false, "operators completed, warm-up included"),
    m("engine.host_ns_per_op", Host, "ns", false, "engine.run_ms per completed operator"),
    m("engine.kernel_us", Host, "us", false, "mean host time per template of execute_plan_fused, standalone"),
    m("engine.admit_wait_p99_ms", Virtual, "ms", false, "99th-percentile admission wait"),
    m("engine.aborts", Count, "count", false, "co-processor operator aborts"),
    m("engine.wasted_ms", Virtual, "ms", false, "device time lost to aborts"),
    m("engine.staged_ops", Count, "count", false, "operators staged through the device in chunks"),
    m("engine.shard_fanouts", Count, "count", false, "sharded scan fan-outs (trace registry)"),
    m("engine.share", Host, "ratio", false, "engine self share of the timed run's host time"),
    m("sim.h2d_mb", Count, "MiB", false, "host-to-device bytes moved"),
    m("sim.d2h_mb", Count, "MiB", false, "device-to-host bytes moved"),
    m("sim.transfer_ms", Virtual, "ms", false, "link service time, both directions"),
    m("sim.cache_hit_rate", Count, "ratio", true, "co-processor column-cache hits / probes"),
    m("sim.cache_evictions", Count, "count", false, "column-cache evictions (trace registry)"),
    m("sim.coproc_busy_frac", Virtual, "ratio", true, "co-processor operator busy time / (K x makespan); above 1 when operators share a device"),
    m("sim.heap_peak_mb", Count, "MiB", false, "co-processor heap high-water mark"),
    m("trace.events", Count, "count", false, "trace events recorded"),
    m("trace.dropped", Count, "count", false, "trace events dropped (must be 0)"),
    m("trace.overhead_frac", Host, "ratio", false, "traced / untraced host time - 1"),
    m("trace.export_ms", Host, "ms", false, "chrome_trace_json"),
    m("trace.registry_ms", Host, "ms", false, "MetricsRegistry::from_events"),
    m("glue.ms", Host, "ms", false, "the benchmark's own work inside the timed run"),
    m("glue.share", Host, "ratio", false, "glue share of the timed run's host time"),
];

//! The benchmark command.
//!
//! ```text
//! perfbench --workload <ssb-closed|ssb-adhoc|ssb-stream> [--seed N] [--seconds S]
//!           [--trace 0|1]
//! perfbench --list                       # every metric: name, clock, unit
//! ```
//!
//! Sets the workload up 15 times (`setup_s` is the median), runs it
//! once untimed to warm the process, then repeats timed runs for
//! `--seconds` and reports medians. `setup_s` and `host_qps` are
//! rescaled to a host of fixed speed by a reference kernel timed beside
//! the set-ups and runs (`probe::RefKernel`). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` pairs an untraced and a traced run per
//! repetition, both with policy timers on, and reports the per-layer
//! split. Every run's results are checked against reference results, its
//! virtual-clock record must equal the first run's exactly and the
//! benchmark's own share of its host time must stay within
//! `GLUE_MAX_SHARE`. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

use robustq_engine::exec::pipeline::execute_plan_fused;
use robustq_engine::ParallelCtx;
use robustq_perfbench::catalog::{Metric, END_TO_END, PER_LAYER};
use robustq_perfbench::probe::{peak_rss_mib, reset_peak_rss, since_ns, RefKernel};
use robustq_perfbench::record::{RunOpts, RunResult, Virtual, GLUE_MAX_SHARE};
use robustq_perfbench::workload::{self, Size, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 15;
const MIN_REPS: usize = 3;
const KERNEL_PASSES: usize = 5;
/// Reference-kernel passes timed before each timed run.
const REF_PASSES: usize = 2;
/// Median time of one reference-kernel pass on the host the baseline
/// was measured on: `setup_s` and `host_qps` are rescaled to a host
/// this fast.
const REF_KERNEL_MS: f64 = 15.0;
const DEFAULT_SEED: u64 = 1;
/// Kernel workers. Serial: on a shared host two workers measured no
/// faster and noisier, and virtual results are identical at any count
/// (pinned by the self-tests).
const WORKERS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number =
            |name: &str, v: String| v.parse::<u64>().map_err(|e| format!("{name} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--list" => {
                list();
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(Some(args))
}

fn list() {
    for (set, metrics) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        for m in metrics {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "{:<26} {:<10} {:<8} {:<7} {:<6} {}",
                m.name,
                set,
                m.clock.name(),
                m.unit,
                better,
                m.about
            );
        }
    }
}

/// Median of `v` (the lower middle for even lengths).
fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const MS: f64 = 1e6;

/// The run-level checks every run must pass; returns the failures.
fn failures(v: &Virtual) -> u64 {
    let accounting = u64::from(v.offered != v.completed + v.shed);
    v.errors + accounting
}

/// Repeats `step` until `seconds` have passed (at least [`MIN_REPS`]).
fn repeat(seconds: u64, mut step: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let budget = Duration::from_secs(seconds);
    let t = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || t.elapsed() < budget {
        step()?;
        reps += 1;
    }
    Ok(())
}

struct Tally {
    baseline: Virtual,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, r: &RunResult) -> Result<(), String> {
        if r.virt != self.baseline {
            return Err(format!(
                "virtual-clock record drifted between runs of one seed:\n{:?}\n{:?}",
                self.baseline, r.virt
            ));
        }
        if r.host.glue_share() > GLUE_MAX_SHARE {
            return Err(format!(
                "the benchmark's own work took {:.2} % of a run's host time (limit {} %)",
                100.0 * r.host.glue_share(),
                100.0 * GLUE_MAX_SHARE
            ));
        }
        self.attempted += r.virt.offered;
        self.failed += failures(&r.virt);
        Ok(())
    }
}

fn end_to_end(
    w: &dyn Workload,
    args: &Args,
    tally: &mut Tally,
    kernel: &mut RefKernel,
    setup_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let opts = RunOpts {
        workers: WORKERS,
        instrument: false,
        trace: false,
    };
    let mut qps = Vec::new();
    let mut ref_ms = Vec::new();
    // The peak covers the timed runs only: not the set-ups, the
    // reference results or the warm-up run before them.
    reset_peak_rss()?;
    repeat(args.seconds, || {
        ref_ms.extend((0..REF_PASSES).map(|_| kernel.pass_ms()));
        let r = w.run(&opts)?;
        tally.check(&r)?;
        qps.push(r.host.processed as f64 / (r.host.cpu_ns as f64 / 1e9));
        Ok(())
    })?;
    let peak_rss_mb = peak_rss_mib()?;
    let (cpu_qps, ref_ms) = (median(qps), median(ref_ms));
    eprintln!("perfbench: {cpu_qps:.1} queries per on-CPU second; reference kernel {ref_ms:.3} ms");
    let v = &tally.baseline;
    Ok(BTreeMap::from([
        ("setup_s", setup_s),
        // Rescaled by how fast the host ran the reference kernel
        // meanwhile, so the shared host's drift cancels.
        ("host_qps", cpu_qps * ref_ms / REF_KERNEL_MS),
        ("peak_rss_mb", peak_rss_mb),
        ("vlat_p50_ms", v.lat_p50_ns as f64 / MS),
        ("vlat_p99_ms", v.lat_p99_ns as f64 / MS),
        ("vmakespan_ms", v.makespan_ns as f64 / MS),
        ("vgoodput_qps", v.goodput_qps),
    ]))
}

fn per_layer(
    w: &dyn Workload,
    args: &Args,
    tally: &mut Tally,
    kernel: &mut RefKernel,
    gen_ms: f64,
    setup_plan_us: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let plain = RunOpts {
        workers: WORKERS,
        instrument: true,
        trace: false,
    };
    let traced = RunOpts {
        trace: true,
        ..plain
    };
    let mut runs: Vec<(RunResult, RunResult)> = Vec::new();
    let mut ref_ms = Vec::new();
    repeat(args.seconds, || {
        ref_ms.extend((0..REF_PASSES).map(|_| kernel.pass_ms()));
        let a = w.run(&plain)?;
        tally.check(&a)?;
        let b = w.run(&traced)?;
        tally.check(&b)?;
        runs.push((a, b));
        Ok(())
    })?;
    let med = |f: &dyn Fn(&RunResult, &RunResult) -> f64| {
        median(runs.iter().map(|(a, b)| f(a, b)).collect())
    };
    let share =
        |part: fn(&RunResult) -> u64| med(&|a, _| ratio(part(a) as f64, a.host.total_ns as f64));

    let (db, plans) = w.kernels();
    let ctx = ParallelCtx::serial().with_workers(WORKERS);
    let mut kernel_us = Vec::new();
    for _ in 0..KERNEL_PASSES {
        let t = Instant::now();
        for p in &plans {
            std::hint::black_box(execute_plan_fused(p, db, ctx)?);
        }
        kernel_us.push(since_ns(t) as f64 / 1e3 / plans.len() as f64);
    }

    let v = &tally.baseline;
    let first = &runs[0].1;
    let trace = first.trace.expect("traced runs carry trace stats");
    let p = &first.host.policy;
    let sql_us = if first.host.sql_calls > 0 {
        med(&|a, _| a.host.sql_ns as f64 / a.host.sql_calls as f64 / 1e3)
    } else {
        setup_plan_us
    };
    let offered = v.offered as f64;
    Ok(BTreeMap::from([
        ("sustained_qps", v.sustained_qps),
        ("shed_frac", ratio(v.shed as f64, offered)),
        ("error_frac", ratio(v.errors as f64, offered)),
        ("f64_close_frac", ratio(v.inexact as f64, offered)),
        ("tick_p50_ms", v.tick_p50_ns as f64 / MS),
        ("tick_p95_ms", v.tick_p95_ns as f64 / MS),
        (
            "tick_done_frac",
            ratio(v.ticks_done as f64, v.ticks_offered as f64),
        ),
        ("host.run_ms", med(&|a, _| a.host.total_ns as f64 / MS)),
        (
            "host.cpu_qps",
            med(&|a, _| a.host.processed as f64 / (a.host.cpu_ns as f64 / 1e9)),
        ),
        ("host.ref_kernel_ms", median(ref_ms)),
        ("sql.plan_us", sql_us),
        ("sql.plan_share", share(|r| r.host.sql_ns)),
        ("storage.gen_ms", gen_ms),
        ("storage.appends", trace.appends as f64),
        ("storage.epoch_seals", trace.epoch_seals as f64),
        (
            "serve.schedule_ms",
            med(&|a, _| a.host.serve_ns as f64 / MS),
        ),
        ("serve.share", share(|r| r.host.serve_ns)),
        ("core.place_calls", p.place_calls as f64),
        (
            "core.place_us",
            med(&|a, _| {
                ratio(
                    a.host.policy.place_ns as f64,
                    a.host.policy.place_calls as f64,
                ) / 1e3
            }),
        ),
        ("core.update_calls", p.update_calls as f64),
        (
            "core.update_ms",
            med(&|a, _| a.host.policy.update_ns as f64 / MS),
        ),
        (
            "core.observe_us",
            med(&|a, _| {
                ratio(
                    a.host.policy.observe_ns as f64,
                    a.host.policy.observe_calls as f64,
                ) / 1e3
            }),
        ),
        (
            "core.recurring_frac",
            ratio(p.recurring as f64, p.placements as f64),
        ),
        ("core.est_err_p50", v.est_err_p50),
        ("core.share", share(|r| r.host.core_ns())),
        (
            "engine.run_ms",
            med(&|a, _| a.host.engine_self_ns() as f64 / MS),
        ),
        ("engine.ops", v.ops as f64),
        (
            "engine.host_ns_per_op",
            med(&|a, _| ratio(a.host.engine_self_ns() as f64, v.ops as f64)),
        ),
        ("engine.kernel_us", median(kernel_us)),
        ("engine.admit_wait_p99_ms", v.admit_wait_p99_ns as f64 / MS),
        ("engine.aborts", v.sim.aborts as f64),
        ("engine.wasted_ms", v.sim.wasted_ns as f64 / MS),
        ("engine.staged_ops", v.sim.staged_ops as f64),
        ("engine.shard_fanouts", trace.shard_fanouts as f64),
        ("engine.share", share(|r| r.host.engine_self_ns())),
        ("sim.h2d_mb", v.sim.h2d_bytes as f64 / (1 << 20) as f64),
        ("sim.d2h_mb", v.sim.d2h_bytes as f64 / (1 << 20) as f64),
        ("sim.transfer_ms", v.sim.transfer_ns as f64 / MS),
        (
            "sim.cache_hit_rate",
            ratio(
                v.sim.cache_hits as f64,
                (v.sim.cache_hits + v.sim.cache_misses) as f64,
            ),
        ),
        ("sim.cache_evictions", trace.cache_evictions as f64),
        (
            "sim.coproc_busy_frac",
            ratio(v.sim.coproc_busy_ns as f64, v.sim.coproc_span_ns as f64),
        ),
        (
            "sim.heap_peak_mb",
            v.sim.heap_peak as f64 / (1 << 20) as f64,
        ),
        ("trace.events", trace.events as f64),
        ("trace.dropped", trace.dropped as f64),
        (
            "trace.overhead_frac",
            ratio(
                med(&|_, b| b.host.total_ns as f64),
                med(&|a, _| a.host.total_ns as f64),
            ) - 1.0,
        ),
        (
            "trace.export_ms",
            med(&|_, b| b.trace.map_or(0, |t| t.export_ns) as f64 / MS),
        ),
        (
            "trace.registry_ms",
            med(&|_, b| b.trace.map_or(0, |t| t.registry_ns) as f64 / MS),
        ),
        ("glue.ms", med(&|a, _| a.host.glue_ns() as f64 / MS)),
        ("glue.share", share(|r| r.host.glue_ns())),
    ]))
}

/// `{"name": {"value": v, "unit": u}, ...}` for `metrics`, in catalog order.
fn metrics_json(catalog: &[Metric], values: &BTreeMap<&str, f64>) -> Result<String, String> {
    let mut parts = Vec::with_capacity(catalog.len());
    for m in catalog {
        let v = values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(args: &Args) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut plan_us = Vec::new();
    let mut record = |s: workload::SetupSplit| {
        setup_s.push(s.total_ns as f64 / 1e9);
        gen_ms.push(s.gen_ns as f64 / MS);
        plan_us.push(ratio(s.plan_ns as f64, s.plan_calls as f64) / 1e3);
    };
    // The reference kernel runs beside the set-ups, so `setup_s` can be
    // rescaled like `host_qps`.
    let mut kernel = RefKernel::new();
    let mut setup_ref_ms = Vec::new();
    for _ in 1..SETUP_REPS {
        setup_ref_ms.push(kernel.pass_ms());
        record(workload::setup_only(&args.workload, args.seed, Size::Full)?);
    }
    setup_ref_ms.push(kernel.pass_ms());
    let w = workload::prepare(&args.workload, args.seed, Size::Full)?;
    record(w.setup());

    // One untimed run warms the process and fixes the virtual record
    // every later run must reproduce.
    let warm = w.run(&RunOpts {
        workers: WORKERS,
        instrument: false,
        trace: false,
    })?;
    let mut tally = Tally {
        baseline: warm.virt,
        attempted: 0,
        failed: 0,
    };

    let (catalog, values) = if args.trace {
        let values = per_layer(
            w.as_ref(),
            args,
            &mut tally,
            &mut kernel,
            median(gen_ms),
            median(plan_us),
        )?;
        (PER_LAYER, values)
    } else {
        let setup_s = median(setup_s) * REF_KERNEL_MS / median(setup_ref_ms);
        let values = end_to_end(w.as_ref(), args, &mut tally, &mut kernel, setup_s)?;
        (END_TO_END, values)
    };
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(catalog, &values)?
    );
    Ok(correct)
}

fn main() {
    let code = match parse_args() {
        Ok(None) => 0,
        Ok(Some(args)) => match run(&args) {
            Ok(true) => 0,
            Ok(false) => {
                eprintln!("perfbench: some query results differ from the reference");
                1
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

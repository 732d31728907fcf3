//! Chaos/differential tests for the fault-injection subsystem
//! (DESIGN.md §8): hundreds of seeded fault plans are thrown at full
//! workload runs, and after every run the harness asserts that
//!
//!  1. query results are bit-identical to the fault-free run — faults
//!     change timing and placement, never answers;
//!  2. resource accounting balances: no co-processor heap bytes leak
//!     past the drain, and the executor's transfer metrics agree with
//!     the interconnect's own statistics;
//!  3. the fault metrics are internally consistent: the executor's
//!     injection count matches the plan's, retries never exceed the
//!     transient faults that caused them, aborts cover fallbacks, and
//!     wasted time stays within total device time.
//!
//! The per-event invariants (heap/cache byte conservation, link FIFO
//! sanity) are additionally asserted after *every* simulator event by
//! the executor's debug-build audit hook, which these tests exercise
//! across every seed.

use std::collections::BTreeMap;

use robustq::core::Strategy;
use robustq::sim::{FaultPlan, FaultSpec, SimConfig, VirtualTime};
use robustq::storage::gen::ssb::SsbGenerator;
use robustq::storage::Database;
use robustq::workloads::{micro, ssb, RunReport, RunnerConfig, WorkloadRunner};

/// Seeds per workload; two workloads give ≥ 200 fault plans total.
const SEEDS_PER_WORKLOAD: u64 = 100;

fn db() -> Database {
    SsbGenerator::new(1).with_rows_per_sf(1_000).generate()
}

/// A tight machine: small heap and cache so organic aborts mix with
/// injected ones.
fn tight_sim() -> SimConfig {
    SimConfig::default().with_gpu_memory(512 * 1024).with_gpu_cache(256 * 1024)
}

/// One of five fault-model shapes, cycled over the seed range so the
/// sweep covers allocation faults, transfer faults, kernel aborts,
/// stalls and a mixed plan.
fn spec_for(seed: u64, horizon: VirtualTime) -> FaultSpec {
    let mut spec = FaultSpec::default();
    match seed % 5 {
        0 => spec.alloc_fail_prob = 0.25,
        1 => {
            spec.transfer_transient_prob = 0.15;
            spec.transfer_permanent_prob = 0.05;
            spec.transfer_spike_prob = 0.10;
            spec.transfer_spike_factor = 5.0;
        }
        2 => spec.kernel_abort_prob = 0.25,
        3 => {
            spec.random_stalls = 4;
            spec.stall_horizon = horizon;
            spec.stall_len = (
                VirtualTime::from_nanos(1 + horizon.as_nanos() / 50),
                VirtualTime::from_nanos(1 + horizon.as_nanos() / 10),
            );
        }
        _ => {
            spec.alloc_fail_prob = 0.05;
            spec.alloc_fail_stages = vec![2];
            spec.transfer_transient_prob = 0.05;
            spec.transfer_spike_prob = 0.05;
            spec.transfer_spike_factor = 3.0;
            spec.kernel_abort_prob = 0.05;
            spec.random_stalls = 1;
            spec.stall_horizon = horizon;
            spec.stall_len =
                (VirtualTime::from_nanos(1 + horizon.as_nanos() / 20), VirtualTime::ZERO);
        }
    }
    spec
}

type BaselineMap = BTreeMap<(usize, usize), (usize, u64)>;

fn baseline_map(report: &RunReport) -> BaselineMap {
    report
        .outcomes
        .iter()
        .map(|o| ((o.session, o.seq), (o.rows, o.checksum)))
        .collect()
}

/// Every invariant the chaos harness checks after a faulty run.
fn assert_invariants(report: &RunReport, baseline: &BaselineMap, label: &str) {
    let m = &report.metrics;

    // (1) Differential: identical results per (session, seq).
    assert_eq!(report.outcomes.len(), baseline.len(), "{label}: outcome count");
    for o in &report.outcomes {
        let &(rows, checksum) = baseline
            .get(&(o.session, o.seq))
            .unwrap_or_else(|| panic!("{label}: unknown slot ({}, {})", o.session, o.seq));
        assert_eq!(o.rows, rows, "{label}: ({}, {}) row count drifted", o.session, o.seq);
        assert_eq!(
            o.checksum, checksum,
            "{label}: ({}, {}) result drifted under faults",
            o.session, o.seq
        );
    }

    // (2) Conservation: the heap drained, and the executor's transfer
    // accounting agrees byte-for-byte with the link's own statistics.
    assert_eq!(m.gpu_heap_leaked, 0, "{label}: co-processor heap leaked bytes");
    assert_eq!(m.h2d_bytes, m.link_h2d.bytes, "{label}: H2D byte accounting split");
    assert_eq!(m.d2h_bytes, m.link_d2h.bytes, "{label}: D2H byte accounting split");
    assert_eq!(m.h2d_time, m.link_h2d.busy_time, "{label}: H2D time accounting split");
    assert_eq!(m.d2h_time, m.link_d2h.busy_time, "{label}: D2H time accounting split");

    // (3) Fault-metric consistency.
    assert_eq!(
        m.faults.injected, m.fault_stats.injected,
        "{label}: executor and plan disagree on injections"
    );
    assert!(
        m.faults.retries <= m.fault_stats.transfer_transient,
        "{label}: more retries than transient faults"
    );
    assert!(m.aborts >= m.faults.fallbacks, "{label}: fallbacks without aborts");
    assert!(
        m.wasted_time <= m.total_device_time(),
        "{label}: wasted time exceeds total device time"
    );
    if m.faults.injected == 0 {
        assert_eq!(
            m.faults.injected_wasted,
            VirtualTime::ZERO,
            "{label}: injected waste without injections"
        );
    }

    // Per-query counters can never exceed the run totals (placement
    // transfers are counted at run level only).
    let mut q = robustq::engine::exec::metrics::FaultCounters::default();
    for o in &report.outcomes {
        q.absorb(&o.faults);
    }
    assert!(q.injected <= m.faults.injected, "{label}: per-query injected overflow");
    assert!(q.retries <= m.faults.retries, "{label}: per-query retries overflow");
    assert!(q.fallbacks <= m.faults.fallbacks, "{label}: per-query fallbacks overflow");
    assert!(
        q.injected_wasted <= m.faults.injected_wasted,
        "{label}: per-query waste overflow"
    );
}

/// Sweep `SEEDS_PER_WORKLOAD` fault plans over one workload and return
/// the total number of injections observed (for vacuity checks).
fn chaos_sweep(
    db: &Database,
    queries: &[robustq::engine::plan::PlanNode],
    users: usize,
    base_seed: u64,
    label: &str,
) -> u64 {
    let runner = WorkloadRunner::new(db, tight_sim());
    let cfg = RunnerConfig::default().with_users(users);
    let baseline =
        runner.run(queries, Strategy::GpuPreferred, &cfg).expect("fault-free baseline");
    let map = baseline_map(&baseline);
    let horizon = baseline.metrics.makespan.max(VirtualTime::from_micros(1));

    let mut injected_total = 0;
    for i in 0..SEEDS_PER_WORKLOAD {
        let seed = base_seed + i;
        let plan = FaultPlan::new(seed, spec_for(seed, horizon));
        let cfg = RunnerConfig::default().with_users(users).with_fault_plan(plan);
        let report = runner
            .run(queries, Strategy::GpuPreferred, &cfg)
            .unwrap_or_else(|e| panic!("{label}: seed {seed} failed: {e}"));
        assert_invariants(&report, &map, &format!("{label} seed {seed}"));
        injected_total += report.metrics.faults.injected;
    }
    injected_total
}

#[test]
fn chaos_ssb_workload() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let injected = chaos_sweep(&db, &queries, 2, 0, "ssb");
    assert!(injected > 0, "the SSB sweep never injected a fault — vacuous chaos test");
}

#[test]
fn chaos_micro_workload() {
    let db = db();
    let queries = micro::parallel_selection_workload(12);
    let injected = chaos_sweep(&db, &queries, 4, 10_000, "micro");
    assert!(injected > 0, "the micro sweep never injected a fault — vacuous chaos test");
}

/// The sweep must exercise the recovery paths, not just clean runs:
/// across a few seeds of the mixed/transfer shapes there are retries
/// and injected fallbacks.
#[test]
fn chaos_recovery_paths_are_exercised() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, tight_sim());
    let mut retries = 0;
    let mut fallbacks = 0;
    let mut wasted = VirtualTime::ZERO;
    for seed in [1u64, 6, 11, 2, 7, 12, 4, 9, 14] {
        let plan = FaultPlan::new(seed, spec_for(seed, VirtualTime::from_millis(10)));
        let cfg = RunnerConfig::default().with_users(2).with_fault_plan(plan);
        let report = runner.run(&queries, Strategy::GpuPreferred, &cfg).expect("runs");
        retries += report.metrics.faults.retries;
        fallbacks += report.metrics.faults.fallbacks;
        wasted += report.metrics.faults.injected_wasted;
    }
    assert!(retries > 0, "no transient fault was ever retried");
    assert!(fallbacks > 0, "no operator ever fell back to the CPU");
    assert!(wasted > VirtualTime::ZERO, "injections never cost any virtual time");
}

/// With the fault layer disabled the run is *byte-identical* to one
/// without any fault plumbing: identical metrics (including the debug
/// representation) and identical outcomes. This is the zero-cost-when-
/// disabled guarantee — the fault layer must not perturb the golden
/// figures.
#[test]
fn empty_fault_plan_is_byte_identical() {
    let db = db();
    let queries = ssb::workload(&db).expect("SSB plans");
    let runner = WorkloadRunner::new(&db, tight_sim());
    let plain = RunnerConfig::default().with_users(2);
    let with_disabled_plan =
        RunnerConfig::default().with_users(2).with_fault_plan(FaultPlan::disabled());
    // A plan with a default (all-zero) spec must also behave as a no-op.
    let with_null_plan = RunnerConfig::default()
        .with_users(2)
        .with_fault_plan(FaultPlan::new(42, FaultSpec::default()));

    let a = runner.run(&queries, Strategy::GpuPreferred, &plain).expect("plain");
    for cfg in [&with_disabled_plan, &with_null_plan] {
        let b = runner.run(&queries, Strategy::GpuPreferred, cfg).expect("faultless plan");
        assert_eq!(
            format!("{:?}", a.metrics),
            format!("{:?}", b.metrics),
            "a no-op fault plan changed the run metrics"
        );
        assert_eq!(
            format!("{:?}", a.outcomes),
            format!("{:?}", b.outcomes),
            "a no-op fault plan changed the outcomes"
        );
    }
}

/// Operators aborted mid-flight — by heap pressure or by an injected
/// kernel fault — restart on the CPU from the kernel result they
/// computed at first start. Their children's outputs already moved into
/// that kernel (the executor hands child outputs over by move, never by
/// clone; debug builds assert at completion that none is left behind),
/// so the restart must not need them. Every result, sharded or not,
/// still equals the reference interpreter.
#[test]
fn aborted_operators_rerun_after_child_outputs_moved() {
    use robustq::engine::{ops, ExecOptions, Executor, PlanNode};
    let db = db();
    let plans: Vec<PlanNode> = ssb::workload(&db).unwrap();
    let expected: Vec<_> =
        plans.iter().map(|p| ops::execute_plan(p, &db).unwrap().sorted_rows()).collect();
    let heap_pressure = (FaultPlan::disabled(), 256 * 1024);
    let spec = FaultSpec { kernel_abort_prob: 0.5, ..FaultSpec::default() };
    let kernel_faults = (FaultPlan::new(7, spec), 16 * 1024 * 1024);
    for (label, (fault, memory)) in [("heap", heap_pressure), ("fault", kernel_faults)] {
        for k in [1, 2] {
            let sim = SimConfig::default()
                .with_gpu_memory(memory)
                .with_gpu_cache(memory / 2)
                .with_coprocessors(k);
            let opts = ExecOptions {
                capture_results: true,
                fault: fault.clone(),
                shard_ways: if k >= 2 { k } else { 0 },
                ..ExecOptions::default()
            };
            let mut policy = Strategy::DataDrivenChopping.build();
            let out = Executor::new(&db, sim)
                .run(vec![plans.clone(); 2], policy.as_mut(), &opts)
                .unwrap();
            assert!(out.metrics.aborts > 0, "{label} K={k}: nothing aborted");
            assert_eq!(out.outcomes.len(), 2 * plans.len());
            for o in &out.outcomes {
                let got = o.result.as_ref().expect("captured result").sorted_rows();
                assert_eq!(got, expected[o.seq], "{label} K={k}: query {}", o.seq);
            }
        }
    }
}

//! Self-tests on shortened shapes of the three workloads: every result
//! matches its reference, offered = completed + shed, the virtual clock
//! record repeats exactly across runs, kernel worker counts and tracing,
//! and the layer calls account for all but a small share of a run's host
//! time. Plus: `BENCHMARK.json` names exactly the catalog's metrics.

use robustq_perfbench::catalog::{Metric, END_TO_END, PER_LAYER};
use robustq_perfbench::record::{RunOpts, RunResult, GLUE_MAX_SHARE};
use robustq_perfbench::workload::{self, Size};

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(name: &str, seed: u64, workers: usize, trace: bool) -> RunResult {
    let w = workload::prepare(name, seed, Size::Short).expect("short workload prepares");
    w.run(&RunOpts {
        workers,
        instrument: trace,
        trace,
    })
    .expect("short workload runs")
}

fn check_workload(name: &str) {
    let base = run(name, 3, 1, false);
    let v = &base.virt;
    assert!(v.offered > 0, "{name}: nothing offered");
    assert_eq!(v.errors, 0, "{name}: results differ from the reference");
    assert_eq!(
        v.offered,
        v.completed + v.shed,
        "{name}: offered != completed + shed"
    );
    assert!(
        v.lat_p50_ns > 0 && v.makespan_ns > 0,
        "{name}: empty latency record"
    );

    assert_eq!(
        run(name, 3, 1, false).virt,
        base.virt,
        "{name}: second run drifted"
    );
    assert_eq!(
        run(name, 3, nproc(), false).virt,
        base.virt,
        "{name}: worker count leaks"
    );
    let traced = run(name, 3, 1, true);
    assert_eq!(
        traced.virt, base.virt,
        "{name}: tracing changed virtual time"
    );
    let t = traced.trace.expect("traced run reports trace stats");
    assert!(t.events > 0 && t.dropped == 0, "{name}: trace incomplete");
    // The timed layer calls must account for the run's host time: what
    // the benchmark does between them stays a small share.
    for h in [base.host, traced.host] {
        assert!(
            h.glue_share() <= GLUE_MAX_SHARE,
            "{name}: {:.2} % of the run's host time is outside the layer calls",
            100.0 * h.glue_share()
        );
        // On-CPU time cannot exceed the wall clock, up to the scheduler
        // tick each of the run's few readings may lag by.
        assert!(
            h.cpu_ns > 0 && h.cpu_ns <= h.total_ns + 50_000_000,
            "{name}: on-CPU time {} ns against {} ns of wall clock",
            h.cpu_ns,
            h.total_ns
        );
    }
    assert_ne!(
        run(name, 4, 1, false).virt,
        base.virt,
        "{name}: the seed is ignored"
    );
}

#[test]
fn closed_is_correct_and_deterministic() {
    check_workload("ssb-closed");
}

#[test]
fn adhoc_is_correct_and_deterministic() {
    check_workload("ssb-adhoc");
}

#[test]
fn stream_is_correct_and_deterministic() {
    check_workload("ssb-stream");
}

/// `(name, unit)` of every `{"name": ..., "unit": ...}` entry between
/// `"<section>": [` and the next `]`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, f: &str| {
        let at = entry
            .find(&format!("\"{f}\": \""))
            .map(|i| i + f.len() + 5)?;
        Some(entry[at..at + entry[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|e| {
            (
                field(e, "name").expect("entry has a name"),
                field(e, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expect = |metrics: &[Metric]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(section(&json, "end_to_end"), expect(END_TO_END));
    assert_eq!(section(&json, "per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = section(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, workload::NAMES);
}

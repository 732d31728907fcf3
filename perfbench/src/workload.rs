//! The three workloads behind one interface.

use crate::record::{RunOpts, RunResult, Virtual};
use crate::{adhoc, closed, stream};
use robustq_engine::batch::Chunk;
use robustq_engine::exec::metrics::QueryOutcome;
use robustq_engine::ops::execute_plan;
use robustq_engine::plan::PlanNode;
use robustq_serve::rand::rngs::StdRng;
use robustq_serve::rand::SeedableRng;
use robustq_storage::{Database, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["ssb-closed", "ssb-adhoc", "ssb-stream"];

/// Full size for measurement, or a shortened shape for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Short,
}

/// Host time of one set-up, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Whole set-up: generation, catalog build and template planning.
    pub total_ns: u64,
    /// `SsbGenerator::generate` / `SsbStreamGen::build`.
    pub gen_ns: u64,
    /// `plan_sql` calls made during set-up.
    pub plan_ns: u64,
    pub plan_calls: u64,
}

/// A prepared workload: inputs generated, references computed.
pub trait Workload {
    /// One timed run.
    fn run(&self, opts: &RunOpts) -> Result<RunResult, String>;
    /// The database and plan templates the standalone kernel timing runs.
    fn kernels(&self) -> (&Database, Vec<&PlanNode>);
    /// How long set-up took.
    fn setup(&self) -> SetupSplit;
}

/// Generate `name`'s inputs from `seed` and compute its reference
/// results (the latter outside the set-up timer).
pub fn prepare(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    build(name, seed, size, true)
}

/// Set `name` up without computing references, for timing set-up alone.
pub fn setup_only(name: &str, seed: u64, size: Size) -> Result<SetupSplit, String> {
    Ok(build(name, seed, size, false)?.setup())
}

fn build(name: &str, seed: u64, size: Size, refs: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ssb-closed" => Box::new(closed::Closed::prepare(seed, size, refs)?),
        "ssb-adhoc" => Box::new(adhoc::Adhoc::prepare(seed, size, refs)?),
        "ssb-stream" => Box::new(stream::Stream::prepare(seed, size, refs)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Independent sub-seeds for data, schedule and literals, all drawn
/// from the one `--seed`.
pub struct Seeds {
    pub data: u64,
    pub schedule: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Seeds {
            data: rng.next_u64(),
            schedule: rng.next_u64(),
        }
    }
}

/// A query's reference result, from the serial `ops::execute_plan`:
/// row count and checksum, plus the [`Shape`] the f64-tolerant
/// comparison needs. No result rows are kept.
#[derive(Debug, Clone)]
pub struct Expected {
    rows: usize,
    checksum: u64,
    shape: Shape,
}

/// A result's rows in sorted order, reduced to their f64 values (in
/// order) and one hash of every other value and of where the f64 values
/// sit. Two results with equal hashes differ at most in f64 values.
#[derive(Debug, Clone)]
struct Shape {
    floats: Vec<f64>,
    rest: u64,
}

impl Shape {
    fn of(chunk: &Chunk) -> Self {
        let mut floats = Vec::new();
        let mut h = DefaultHasher::new();
        for row in chunk.sorted_rows() {
            row.len().hash(&mut h);
            for v in &row {
                std::mem::discriminant(v).hash(&mut h);
                match v {
                    Value::Float64(x) => floats.push(*x),
                    other => other.to_string().hash(&mut h),
                }
            }
        }
        Shape {
            floats,
            rest: h.finish(),
        }
    }

    /// Equal up to [`F64_REL_TOL`] on the f64 values.
    fn close(&self, other: &Shape) -> bool {
        self.rest == other.rest
            && self.floats.len() == other.floats.len()
            && self
                .floats
                .iter()
                .zip(&other.floats)
                .all(|(x, y)| (x - y).abs() <= F64_REL_TOL * x.abs().max(y.abs()).max(1.0))
    }
}

/// Relative tolerance for f64 aggregates whose summation order differs
/// between the engine and the reference.
const F64_REL_TOL: f64 = 1e-9;

impl Expected {
    pub fn of(plan: &PlanNode, db: &Database) -> Result<Self, String> {
        let chunk = execute_plan(plan, db).map_err(|e| format!("reference execution: {e}"))?;
        Ok(Expected {
            rows: chunk.num_rows(),
            checksum: chunk.checksum(),
            shape: Shape::of(&chunk),
        })
    }

    /// Judge outcome `o` (run with captured results) and count it into
    /// `v`: bit-identical, equal within [`F64_REL_TOL`] on f64 values
    /// (`v.inexact`), or wrong (`v.errors`).
    pub fn check(&self, o: &QueryOutcome, v: &mut Virtual) {
        if o.rows == self.rows && o.checksum == self.checksum {
            return;
        }
        let close = o.rows == self.rows
            && o.result
                .as_ref()
                .is_some_and(|chunk| Shape::of(chunk).close(&self.shape));
        if close {
            v.inexact += 1;
        } else {
            v.errors += 1;
        }
    }
}

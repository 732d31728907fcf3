//! `ssb-closed`: the paper's §6.1 closed loop on a two-co-processor
//! machine with tight device memory.
//!
//! 13 SSB queries × `rounds`, each round in a seeded order, dealt
//! round-robin over 8 sessions; a warm-up round of the 13 templates,
//! then the measured run on the warm caches. 60 000 lineorder rows, K = 2
//! with 2-way sharded scans, 24 MiB device memory of which 2 MiB is
//! column cache (smaller than the fact table), Data-Driven Chopping with
//! a data-placement update after every query. SQL is planned once,
//! during set-up. At 16 MiB a few operator aborts per run slowed about
//! 1 % of the queries, so p99 sat on the edge of that cluster and was
//! unsteady across seeds.

use crate::probe::{since_ns, TimedPolicy};
use crate::record::{
    est_err_p50, latency_percentile, per_virtual_second, percentile, Meter, RunOpts, RunResult,
    SimTotals, Virtual,
};
use crate::workload::{Expected, Seeds, SetupSplit, Size, Workload};
use robustq_core::{DataDrivenChopping, DataPlacementManager};
use robustq_engine::plan::PlanNode;
use robustq_engine::{ExecOptions, Executor, ParallelCtx};
use robustq_serve::rand::rngs::StdRng;
use robustq_serve::rand::{Rng, SeedableRng};
use robustq_sim::{CacheSet, SimConfig};
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::Database;
use robustq_workloads::{SsbQuery, WorkloadRunner};
use std::time::Instant;

const USERS: usize = 8;
const K: usize = 2;
/// Tables up to this size are replicated into every cache rather than
/// partitioned (the `multigpu` sweep's default).
const REPLICATE_MAX_BYTES: u64 = 64 * 1024;

pub struct Closed {
    db: Database,
    sim: SimConfig,
    templates: Vec<PlanNode>,
    /// Template index of each query of the measured list, in list order.
    order: Vec<usize>,
    expected: Vec<Expected>,
    split: SetupSplit,
}

impl Closed {
    pub fn prepare(seed: u64, size: Size, refs: bool) -> Result<Self, String> {
        let (rows, rounds) = match size {
            Size::Full => (60_000, 80),
            Size::Short => (6_000, 2),
        };
        let seeds = Seeds::from(seed);
        let mut split = SetupSplit::default();
        let t = Instant::now();
        let db = crate::probe::timed(&mut split.gen_ns, || {
            SsbGenerator::new(1)
                .with_rows_per_sf(rows)
                .with_seed(seeds.data)
                .generate()
        });
        let templates = SsbQuery::ALL
            .iter()
            .map(|q| {
                split.plan_calls += 1;
                crate::probe::timed(&mut split.plan_ns, || robustq_sql::plan_sql(q.sql(), &db))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("planning SSB: {e}"))?;
        let mut rng = StdRng::seed_from_u64(seeds.schedule);
        let mut order = Vec::with_capacity(rounds * templates.len());
        for _ in 0..rounds {
            let mut round: Vec<usize> = (0..templates.len()).collect();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.gen_range(0..=i));
            }
            order.extend(round);
        }
        split.total_ns = since_ns(t);

        let expected = match refs {
            true => templates
                .iter()
                .map(|p| Expected::of(p, &db))
                .collect::<Result<_, _>>()?,
            false => Vec::new(),
        };
        let sim = SimConfig::default()
            .with_gpu_memory(24 * 1024 * 1024)
            .with_gpu_cache(2 * 1024 * 1024)
            .with_coprocessors(K);
        Ok(Closed {
            db,
            sim,
            templates,
            order,
            expected,
            split,
        })
    }

    fn sessions(&self) -> Vec<Vec<PlanNode>> {
        let list: Vec<PlanNode> = self
            .order
            .iter()
            .map(|&i| self.templates[i].clone())
            .collect();
        WorkloadRunner::sessions(&list, USERS)
    }
}

impl Workload for Closed {
    fn run(&self, opts: &RunOpts) -> Result<RunResult, String> {
        let mut meter = Meter::start(opts);
        self.db.stats().reset();
        let executor = Executor::new(&self.db, self.sim.clone());
        let mut caches = CacheSet::for_topology(&self.sim.topology, self.sim.cache_policy);
        let manager = DataPlacementManager::lfu().with_sharding(K, REPLICATE_MAX_BYTES);
        let mut policy = TimedPolicy::new(
            Box::new(DataDrivenChopping::with_manager(manager)),
            opts.instrument,
        );
        let mut eopts = ExecOptions {
            parallel: ParallelCtx::serial().with_workers(opts.workers),
            shard_ways: K,
            shard_min_bytes: 0.0,
            capture_results: true,
            ..ExecOptions::default()
        };

        // Warm-up: one round of the 13 templates, which trains the
        // access statistics, the cost model and the data placement.
        let warm = meter.warmup(&mut policy, |p| {
            let round = WorkloadRunner::sessions(&self.templates, USERS);
            executor.run_with_cache(round, p, &eopts, &mut caches)
        })?;
        let out = meter.measured(&mut eopts, &mut policy, |p, o| {
            executor.run_with_cache(self.sessions(), p, o, &mut caches)
        })?;
        let (host, trace, samples) = meter.finish(&policy.clock);

        let all: Vec<_> = out.outcomes.iter().collect();
        let makespan = out.metrics.makespan;
        let mut sim = SimTotals::default();
        sim.absorb(&out, K);
        let mut virt = Virtual {
            offered: self.order.len() as u64,
            completed: out.outcomes.len() as u64,
            shed: out.metrics.shed,
            lat_p50_ns: latency_percentile(&all, 50.0),
            lat_p99_ns: latency_percentile(&all, 99.0),
            makespan_ns: makespan.as_nanos(),
            goodput_qps: per_virtual_second(out.outcomes.len() as u64, makespan),
            admit_wait_p99_ns: percentile(
                out.outcomes
                    .iter()
                    .map(|o| o.admit_wait.as_nanos())
                    .collect(),
                99.0,
            ),
            ops: [&warm, &out]
                .iter()
                .flat_map(|o| o.metrics.ops_completed.values())
                .sum(),
            sim,
            est_err_p50: est_err_p50(&samples),
            ..Virtual::default()
        };
        for o in &out.outcomes {
            self.expected[self.order[o.seq * USERS + o.session]].check(o, &mut virt);
        }
        Ok(RunResult { virt, host, trace })
    }

    fn kernels(&self) -> (&Database, Vec<&PlanNode>) {
        (&self.db, self.templates.iter().collect())
    }

    fn setup(&self) -> SetupSplit {
        self.split
    }
}

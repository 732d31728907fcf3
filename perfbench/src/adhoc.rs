//! `ssb-adhoc`: open-loop ad-hoc SQL over a Poisson ladder of rates.
//!
//! 8 000 lineorder rows on one co-processor with 2 MiB device memory of
//! which 256 KiB is column cache (the `loadgen` regime), admission limit
//! 8 and an admission-queue cap of 32, Data-Driven Chopping. Each rung of
//! the ladder is an independent serving run (fresh statistics, caches
//! and policy; one warm-up pass over the 13 SSB templates). Every
//! arrival carries SSB SQL text with seeded literals; the text is planned
//! with `plan_sql` inside the timed region and submitted through
//! `Executor::run_open_loop_with_cache`.

use crate::probe::{since_ns, PolicyClock, TimedPolicy};
use crate::record::{
    est_err_p50, latency_percentile, per_virtual_second, percentile, Meter, RunOpts, RunResult,
    Virtual,
};
use crate::sqlgen::ssb_sql;
use crate::workload::{Expected, Seeds, SetupSplit, Size, Workload};
use robustq_core::Strategy;
use robustq_engine::plan::PlanNode;
use robustq_engine::{Arrival, ExecOptions, Executor, ParallelCtx};
use robustq_serve::rand::rngs::StdRng;
use robustq_serve::rand::{Rng, SeedableRng};
use robustq_serve::{ArrivalProcess, QueryMix};
use robustq_sim::{CacheSet, SimConfig, VirtualTime};
use robustq_storage::gen::ssb::SsbGenerator;
use robustq_storage::Database;
use robustq_workloads::{SsbQuery, WorkloadRunner};
use std::collections::HashMap;
use std::time::Instant;

const SESSIONS: usize = 1_000;
const ADMISSION_LIMIT: usize = 8;
const QUEUE_CAP: usize = 32;
const ZIPF_THETA: f64 = 1.2;
/// The ladder rung the latency metrics are read at.
const REFERENCE: usize = 0;
/// The latency limit `sustained_qps` is judged against.
const P99_LIMIT: VirtualTime = VirtualTime::from_millis(1);

/// One scheduled arrival before planning.
struct Scheduled {
    at: VirtualTime,
    session: u32,
    seq: u32,
    sql: String,
}

pub struct Adhoc {
    db: Database,
    sim: SimConfig,
    mix: QueryMix,
    /// Offered rates, ascending. The first rung, below the knee, is the
    /// reference the latency metrics are read at; it runs for
    /// `reference_horizon`, the others for `horizon`.
    ladder: Vec<f64>,
    horizon: VirtualTime,
    reference_horizon: VirtualTime,
    schedule_seed: u64,
    /// Reference result per distinct SQL text.
    expected: HashMap<String, Expected>,
    split: SetupSplit,
}

impl Adhoc {
    pub fn prepare(seed: u64, size: Size, refs: bool) -> Result<Self, String> {
        let (ladder, horizon_ms, reference_ms) = match size {
            Size::Full => (
                vec![20_000.0, 50_000.0, 70_000.0, 80_000.0, 90_000.0],
                40,
                300,
            ),
            Size::Short => (vec![20_000.0, 80_000.0], 2, 4),
        };
        let seeds = Seeds::from(seed);
        let mut split = SetupSplit::default();
        let t = Instant::now();
        let db = crate::probe::timed(&mut split.gen_ns, || {
            SsbGenerator::new(1)
                .with_rows_per_sf(8_000)
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
        split.total_ns = since_ns(t);

        let mut this = Adhoc {
            db,
            sim: SimConfig::default()
                .with_gpu_memory(2 * 1024 * 1024)
                .with_gpu_cache(256 * 1024),
            mix: QueryMix::zipf(templates, ZIPF_THETA),
            ladder,
            horizon: VirtualTime::from_millis(horizon_ms),
            reference_horizon: VirtualTime::from_millis(reference_ms),
            schedule_seed: seeds.schedule,
            expected: HashMap::new(),
            split,
        };
        for rung in (0..this.ladder.len()).filter(|_| refs) {
            for s in this.schedule(rung) {
                if !this.expected.contains_key(&s.sql) {
                    let plan = robustq_sql::plan_sql(&s.sql, &this.db)
                        .map_err(|e| format!("planning `{}`: {e}", s.sql))?;
                    let want = Expected::of(&plan, &this.db)?;
                    this.expected.insert(s.sql, want);
                }
            }
        }
        Ok(this)
    }

    /// The arrivals of ladder rung `rung`: Poisson times, then per
    /// arrival a session, a Zipf-drawn SSB shape and its literals. This
    /// follows `ServingRunner::arrivals`, which cannot be reused here:
    /// each arrival carries SQL text, not a plan, and draws its literals
    /// from the same generator.
    fn schedule(&self, rung: usize) -> Vec<Scheduled> {
        let mut rng = StdRng::seed_from_u64(self.schedule_seed ^ (rung as u64 + 1));
        let process = ArrivalProcess::Poisson {
            rate_qps: self.ladder[rung],
        };
        let horizon = if rung == REFERENCE {
            self.reference_horizon
        } else {
            self.horizon
        };
        let times = process.schedule_with(horizon, &mut rng);
        let mut next_seq = vec![0u32; SESSIONS];
        times
            .into_iter()
            .map(|at| {
                let session = rng.gen_range(0..SESSIONS);
                let q = SsbQuery::ALL[self.mix.sample(&mut rng)];
                let seq = next_seq[session];
                next_seq[session] += 1;
                Scheduled {
                    at,
                    session: session as u32,
                    seq,
                    sql: ssb_sql(q, &mut rng),
                }
            })
            .collect()
    }
}

impl Workload for Adhoc {
    fn run(&self, opts: &RunOpts) -> Result<RunResult, String> {
        let mut meter = Meter::start(opts);
        let executor = Executor::new(&self.db, self.sim.clone());
        let mut clock = PolicyClock::default();
        let mut virt = Virtual::default();
        let mut waits = Vec::new();
        // Highest rate of the ladder's passing prefix: a rung passes with
        // no shed arrival and p99 within the limit.
        let mut passing = true;
        for rung in 0..self.ladder.len() {
            self.db.stats().reset();
            let mut caches = CacheSet::for_topology(&self.sim.topology, self.sim.cache_policy);
            let mut policy =
                TimedPolicy::new(Strategy::DataDrivenChopping.build(), opts.instrument);
            let mut eopts = ExecOptions {
                parallel: ParallelCtx::serial().with_workers(opts.workers),
                max_concurrent_queries: ADMISSION_LIMIT,
                ..ExecOptions::default()
            };
            let warm = meter.warmup(&mut policy, |p| {
                let sessions = WorkloadRunner::sessions(self.mix.templates(), 1);
                executor.run_with_cache(sessions, p, &eopts, &mut caches)
            })?;
            virt.ops += warm.metrics.ops_completed.values().sum::<u64>();

            let scheduled = meter.serve(|| self.schedule(rung));
            let mut arrivals = Vec::with_capacity(scheduled.len());
            for s in &scheduled {
                let plan = meter
                    .sql(|| robustq_sql::plan_sql(&s.sql, &self.db))
                    .map_err(|e| format!("planning `{}`: {e}", s.sql))?;
                arrivals.push(Arrival {
                    at: s.at,
                    session: s.session,
                    seq: s.seq,
                    plan,
                });
            }
            eopts.queue_cap = QUEUE_CAP;
            eopts.capture_results = true;
            let out = meter.measured(&mut eopts, &mut policy, |p, o| {
                executor.run_open_loop_with_cache(arrivals, p, o, &mut caches)
            })?;
            clock.absorb(&policy.clock);

            // Check the rung now, so its captured results are dropped
            // before the next rung runs.
            meter.untimed(|| {
                let sql: HashMap<(usize, usize), &str> = scheduled
                    .iter()
                    .map(|s| ((s.session as usize, s.seq as usize), s.sql.as_str()))
                    .collect();
                for o in &out.outcomes {
                    self.expected[sql[&(o.session, o.seq)]].check(o, &mut virt);
                }
                virt.offered += scheduled.len() as u64;
                virt.completed += out.outcomes.len() as u64;
                virt.shed += out.metrics.shed;
                virt.ops += out.metrics.ops_completed.values().sum::<u64>();
                virt.sim.absorb(&out, 1);
                waits.extend(out.outcomes.iter().map(|o| o.admit_wait.as_nanos()));

                let all: Vec<_> = out.outcomes.iter().collect();
                let p99 = latency_percentile(&all, 99.0);
                passing &=
                    !scheduled.is_empty() && out.metrics.shed == 0 && p99 <= P99_LIMIT.as_nanos();
                if passing {
                    virt.sustained_qps = self.ladder[rung];
                }
                if rung == REFERENCE {
                    virt.lat_p50_ns = latency_percentile(&all, 50.0);
                    virt.lat_p99_ns = p99;
                    virt.makespan_ns = out.metrics.makespan.as_nanos();
                    virt.goodput_qps =
                        per_virtual_second(out.outcomes.len() as u64, out.metrics.makespan);
                }
                drop((scheduled, out));
            });
        }
        let (host, trace, samples) = meter.finish(&clock);
        virt.est_err_p50 = est_err_p50(&samples);
        virt.admit_wait_p99_ns = percentile(waits, 99.0);
        Ok(RunResult { virt, host, trace })
    }

    fn kernels(&self) -> (&Database, Vec<&PlanNode>) {
        (&self.db, self.mix.templates().iter().collect())
    }

    fn setup(&self) -> SetupSplit {
        self.split
    }
}

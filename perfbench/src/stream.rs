//! `ssb-stream`: standing queries over the SSB append feed, beside a
//! background ad-hoc stream.
//!
//! 60 000 lineorder rows, half as base data and half in 128 append
//! batches (segments seal every 512 rows) over static dimensions. One
//! batch commits per window period; a tumbling Q1.1 and a sliding Q3.3
//! (two periods long) fire on every tick. A Poisson stream of ad-hoc
//! SSB queries runs below saturation. One co-processor with the default
//! device memory, so the working set fits the column cache and every
//! re-staged byte comes from an append. Admission limit 8, queue cap 32,
//! Data-Driven Chopping.

use crate::probe::{since_ns, TimedPolicy};
use crate::record::{
    est_err_p50, latency_percentile, per_virtual_second, percentile, Meter, RunOpts, RunResult,
    Virtual,
};
use crate::workload::{Expected, Seeds, SetupSplit, Size, Workload};
use robustq_core::Strategy;
use robustq_engine::plan::PlanNode;
use robustq_engine::{ExecOptions, Executor, FeedSchedule, ParallelCtx, StandingQuery, WindowKind};
use robustq_serve::{ArrivalProcess, QueryMix, ServeConfig, ServingRunner};
use robustq_sim::{CacheSet, SimConfig, VirtualTime};
use robustq_workloads::{SsbQuery, SsbStreamData, SsbStreamGen, WorkloadRunner};
use std::collections::HashMap;
use std::time::Instant;

const SESSIONS: usize = 1_000;
const ADMISSION_LIMIT: usize = 8;
const QUEUE_CAP: usize = 32;
const ZIPF_THETA: f64 = 1.2;
const SEAL_ROWS: usize = 512;
/// The standing queries: a tumbling flight-1 aggregate and a sliding
/// multi-join group-by.
const STANDING: [SsbQuery; 2] = [SsbQuery::Q1_1, SsbQuery::Q3_3];

pub struct Stream {
    data: SsbStreamData,
    sim: SimConfig,
    mix: QueryMix,
    standing: Vec<StandingQuery>,
    feed: FeedSchedule,
    rate: f64,
    horizon: VirtualTime,
    schedule_seed: u64,
    /// Reference result per (standing query, tick).
    tick_expected: Vec<Vec<Expected>>,
    /// Reference result per ad-hoc template.
    arrival_expected: Vec<Expected>,
    split: SetupSplit,
}

impl Stream {
    pub fn prepare(seed: u64, size: Size, refs: bool) -> Result<Self, String> {
        let (rows, batches, period_us, rate) = match size {
            Size::Full => (60_000, 128, 6_000, 1_500.0),
            Size::Short => (6_000, 8, 1_000, 8_000.0),
        };
        let seeds = Seeds::from(seed);
        let mut split = SetupSplit::default();
        let t = Instant::now();
        let data = crate::probe::timed(&mut split.gen_ns, || {
            SsbStreamGen::new(1)
                .with_rows_per_sf(rows)
                .with_seed(seeds.data)
                .with_batches(batches)
                .with_seal_rows(SEAL_ROWS)
                .build()
        })
        .map_err(|e| format!("building the SSB stream: {e}"))?;
        let mut plan = |q: SsbQuery| {
            split.plan_calls += 1;
            crate::probe::timed(&mut split.plan_ns, || {
                robustq_sql::plan_sql(q.sql(), &data.db)
            })
            .map_err(|e| format!("planning {}: {e}", q.name()))
        };
        let templates = SsbQuery::ALL
            .into_iter()
            .map(&mut plan)
            .collect::<Result<Vec<_>, _>>()?;
        let period = VirtualTime::from_micros(period_us);
        let ticks = data.epochs.len() as u32;
        let kinds = [
            WindowKind::Tumbling,
            WindowKind::Sliding {
                length: VirtualTime::from_nanos(2 * period.as_nanos()),
            },
        ];
        let mut standing = Vec::with_capacity(STANDING.len());
        for (i, (q, kind)) in STANDING.into_iter().zip(kinds).enumerate() {
            standing.push(StandingQuery {
                session: (SESSIONS + i) as u32,
                plan: plan(q)?,
                table: "lineorder".to_owned(),
                kind,
                period,
                ticks,
            });
        }
        let feed = data.feed_schedule(period, period);
        split.total_ns = since_ns(t);

        let mut this = Stream {
            data,
            sim: SimConfig::default(),
            mix: QueryMix::zipf(templates, ZIPF_THETA),
            standing,
            feed,
            rate,
            horizon: VirtualTime::from_nanos(period.as_nanos() * (ticks as u64 + 2)),
            schedule_seed: seeds.schedule,
            tick_expected: Vec::new(),
            arrival_expected: Vec::new(),
            split,
        };
        if refs {
            this.references()?;
        }
        Ok(this)
    }

    /// Lineorder rows `[lo, hi)` of standing query `s`'s tick `k`: tick
    /// `k` sees batches `0..=k`; the tumbling window covers the last
    /// batch, the sliding one the last two.
    fn window(&self, s: usize, k: usize) -> (usize, usize) {
        let hi = self.data.visible_after(k + 1);
        let lo = match self.standing[s].kind {
            WindowKind::Tumbling => self.data.visible_after(k),
            WindowKind::Sliding { .. } => self.data.visible_after(k.saturating_sub(1)),
        };
        (lo.min(hi), hi)
    }

    /// Reference results from static databases cut to exactly the rows
    /// each query may see (`SsbStreamData::window_db`).
    fn references(&mut self) -> Result<(), String> {
        let oracle = |q: SsbQuery, lo: usize, hi: usize| {
            let snap = self.data.window_db(lo, hi);
            let plan = robustq_sql::plan_sql(q.sql(), &snap)
                .map_err(|e| format!("planning {} on a window: {e}", q.name()))?;
            Expected::of(&plan, &snap)
        };
        let ticks = self.data.epochs.len();
        let tick_expected = (0..STANDING.len())
            .map(|s| {
                (0..ticks)
                    .map(|k| {
                        let (lo, hi) = self.window(s, k);
                        oracle(STANDING[s], lo, hi)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Ad-hoc arrivals are batch queries: they scan the whole stream
        // database, appended batches included.
        let arrival_expected = self
            .mix
            .templates()
            .iter()
            .map(|p| Expected::of(p, &self.data.db))
            .collect::<Result<Vec<_>, _>>()?;
        self.tick_expected = tick_expected;
        self.arrival_expected = arrival_expected;
        Ok(())
    }
}

impl Workload for Stream {
    fn run(&self, opts: &RunOpts) -> Result<RunResult, String> {
        let mut meter = Meter::start(opts);
        let db = &self.data.db;
        db.stats().reset();
        let executor = Executor::new(db, self.sim.clone());
        let mut caches = CacheSet::for_topology(&self.sim.topology, self.sim.cache_policy);
        let mut policy = TimedPolicy::new(Strategy::DataDrivenChopping.build(), opts.instrument);
        let mut eopts = ExecOptions {
            parallel: ParallelCtx::serial().with_workers(opts.workers),
            max_concurrent_queries: ADMISSION_LIMIT,
            ..ExecOptions::default()
        };
        // Warm the caches on the ad-hoc templates and the standing plans.
        let warm = meter.warmup(&mut policy, |p| {
            let mut plans = self.mix.templates().to_vec();
            plans.extend(self.standing.iter().map(|s| s.plan.clone()));
            executor.run_with_cache(WorkloadRunner::sessions(&plans, 1), p, &eopts, &mut caches)
        })?;
        let serve = ServeConfig {
            seed: self.schedule_seed,
            sessions: SESSIONS,
            ..ServeConfig::new(
                ArrivalProcess::Poisson {
                    rate_qps: self.rate,
                },
                self.horizon,
            )
        };
        let arrivals = meter.serve(|| ServingRunner::arrivals(&self.mix, &serve));
        // The template of each arrival, for its reference result.
        let template = meter.untimed(|| {
            arrivals
                .iter()
                .map(|a| {
                    let t = self.mix.templates().iter().position(|p| *p == a.plan);
                    let t = t.expect("every arrival carries a mix template");
                    ((a.session as usize, a.seq as usize), t)
                })
                .collect::<HashMap<_, _>>()
        });
        let arrivals_offered = arrivals.len() as u64;
        eopts.queue_cap = QUEUE_CAP;
        eopts.capture_results = true;
        let out = meter.measured(&mut eopts, &mut policy, |p, o| {
            executor.run_streaming_with_cache(
                arrivals,
                self.feed.clone(),
                self.standing.clone(),
                p,
                o,
                &mut caches,
            )
        })?;
        let (host, trace, samples) = meter.finish(&policy.clock);

        let (ticks, adhoc): (Vec<_>, Vec<_>) =
            out.outcomes.iter().partition(|o| o.session >= SESSIONS);
        let ticks_offered: u64 = self.standing.iter().map(|s| s.ticks as u64).sum();
        let makespan = out.metrics.makespan;
        let mut virt = Virtual {
            offered: arrivals_offered + ticks_offered,
            completed: out.outcomes.len() as u64,
            shed: out.metrics.shed,
            lat_p50_ns: latency_percentile(&adhoc, 50.0),
            lat_p99_ns: latency_percentile(&adhoc, 99.0),
            makespan_ns: makespan.as_nanos(),
            goodput_qps: per_virtual_second(out.outcomes.len() as u64, makespan),
            ticks_offered,
            ticks_done: ticks.len() as u64,
            tick_p50_ns: latency_percentile(&ticks, 50.0),
            tick_p95_ns: latency_percentile(&ticks, 95.0),
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
            est_err_p50: est_err_p50(&samples),
            ..Virtual::default()
        };
        virt.sim.absorb(&out, 1);
        for o in &ticks {
            self.tick_expected[o.session - SESSIONS][o.seq].check(o, &mut virt);
        }
        for o in &adhoc {
            self.arrival_expected[template[&(o.session, o.seq)]].check(o, &mut virt);
        }
        Ok(RunResult { virt, host, trace })
    }

    fn kernels(&self) -> (&robustq_storage::Database, Vec<&PlanNode>) {
        let mut plans: Vec<&PlanNode> = self.mix.templates().iter().collect();
        plans.extend(self.standing.iter().map(|s| &s.plan));
        (&self.data.db, plans)
    }

    fn setup(&self) -> SetupSplit {
        self.split
    }
}

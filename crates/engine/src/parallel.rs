//! Morsel-driven parallel execution of the hot CPU kernels.
//!
//! The paper's CPU baseline is a multi-core Xeon; a serial scalar loop is
//! not an honest stand-in. This module partitions a [`Chunk`] into
//! fixed-size row ranges ("morsels", after HyPer's morsel-driven
//! parallelism), fans kernel work across a scoped worker pool
//! (`std::thread::scope` — no external dependencies), and merges partial
//! results **deterministically in morsel order**, so the parallel kernels
//! are bit-identical to the serial reference in `ops/`:
//!
//! * **selection** — each worker evaluates the predicate over its morsel
//!   ([`Predicate::evaluate_range`]); qualifying positions are concatenated
//!   in morsel order and materialized by a single global `gather`, exactly
//!   like the serial path (so string columns share the same dictionary
//!   `Arc` either way).
//! * **hash-join probe** — the build table is built once and shared
//!   read-only; each worker probes its morsel of the probe side; match
//!   vectors are concatenated in morsel order (= probe row order).
//! * **aggregation** — each worker groups its morsel into a local hash
//!   table (phase 1); local groups are merged serially in morsel order,
//!   which reproduces the serial first-occurrence group numbering; the
//!   aggregate states are then accumulated serially in row order (phase 2),
//!   so even non-associative `f64` sums come out bit-for-bit equal to the
//!   serial fold. Phase 1 — the hashing — is the expensive part.
//!
//! Work is distributed by an atomic next-morsel counter (work stealing):
//! scheduling order is nondeterministic, result order never is. Workers
//! only compute *partial positions/groupings*; everything ordered happens
//! on the calling thread.
//!
//! Kernels whose output is a flat position (or position-pair) stream —
//! selection and the join probes — run through
//! [`ParallelCtx::run_morsels_arena`]: each worker appends every morsel it
//! claims into **one reused arena** instead of allocating a `Vec` per
//! morsel, and the merge pre-sizes the final buffer from the per-worker
//! counts and copies each morsel's span exactly once, in morsel order.
//! Per-morsel allocation churn was what pushed the 10M-row select/probe
//! kernels below 1× against their serial baselines.
//!
//! Parallelism changes only real wall-clock time. Simulated virtual time
//! (`robustq-sim`) is computed from the cost model and is unaffected, and
//! because results are bit-identical, checksums and figures are too.

use crate::batch::{Chunk, SelVec};
use crate::ops;
use crate::ops::hashtbl::JoinTable;
use crate::plan::{AggSpec, JoinKind};
use crate::predicate::Predicate;
use crate::simd::ProdPred;
use robustq_storage::ColumnData;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default rows per morsel.
///
/// Large enough that per-morsel overhead (range bookkeeping, one small
/// `Vec` per morsel) is negligible, small enough that a 1M-row chunk still
/// splits into ~16 units for load balancing.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Default minimum rows each worker must have before fan-out pays off.
///
/// Below `2 ×` this, kernels run serially: thread spawn/join plus
/// per-morsel bookkeeping cost more than the parallel speedup on
/// memory-bound kernels (the PR-1 benchmarks measured a net *slowdown*,
/// 0.97×, at 1M rows).
pub const DEFAULT_MIN_ROWS_PER_WORKER: usize = 524_288;

/// Kernel classes with distinct parallel break-even points.
///
/// Fan-out overhead is roughly constant, so how many rows amortize it
/// depends on per-row kernel cost: block-vectorized selection is the
/// cheapest per row and needs the most rows, hash-probe joins (a
/// dependent load per row) the fewest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Predicate evaluation / selection-vector refinement.
    Selection,
    /// Hash-join build + probe.
    Join,
    /// Group-by aggregation.
    Aggregation,
}

/// How kernel work is spread across CPU worker threads.
///
/// `workers == 1` (the [`Default`]) means strictly serial execution on the
/// calling thread — the `ops/` reference kernels run unchanged, which is
/// what tests use. Any result is bit-identical across all `workers`,
/// `morsel_rows` and `min_rows_per_worker` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelCtx {
    /// Number of worker threads to fan kernel work across (≥ 1).
    pub workers: usize,
    /// Rows per morsel (≥ 1).
    pub morsel_rows: usize,
    /// Minimum rows of input per effective worker; inputs smaller than
    /// `2 × min_rows_per_worker` run serially. `0` disables the threshold
    /// (always fan out), which tests use to exercise parallel paths on
    /// tiny chunks.
    pub min_rows_per_worker: usize,
}

impl Default for ParallelCtx {
    fn default() -> Self {
        ParallelCtx::serial()
    }
}

impl ParallelCtx {
    /// Strictly serial execution (the reference path).
    pub fn serial() -> Self {
        ParallelCtx {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_rows_per_worker: DEFAULT_MIN_ROWS_PER_WORKER,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let workers =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelCtx::serial().with_workers(workers)
    }

    /// Set the worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the morsel size in rows (clamped to ≥ 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Set the serial-fallback threshold (`0` disables it).
    pub fn with_min_rows_per_worker(mut self, rows: usize) -> Self {
        self.min_rows_per_worker = rows;
        self
    }

    /// True if kernels run on the calling thread only.
    pub fn is_serial(&self) -> bool {
        self.workers <= 1
    }

    /// True if an input of `rows` rows is worth fanning out: at least two
    /// workers would each get [`ParallelCtx::min_rows_per_worker`] rows.
    /// Kernels fall back to the serial reference path otherwise.
    pub fn should_parallelize(&self, rows: usize) -> bool {
        !self.is_serial() && rows >= self.min_rows_per_worker.saturating_mul(2)
    }

    /// Class-scaled minimum rows per worker (cost-aware threshold):
    /// vectorized selection needs `2×` the base rows to amortize fan-out,
    /// aggregation breaks even at the base, and join probes at half of it.
    /// `min_rows_per_worker == 0` still disables thresholds entirely.
    pub fn min_rows_for(&self, class: KernelClass) -> usize {
        match class {
            KernelClass::Selection => self.min_rows_per_worker.saturating_mul(2),
            KernelClass::Aggregation => self.min_rows_per_worker,
            KernelClass::Join => self.min_rows_per_worker / 2,
        }
    }

    /// [`ParallelCtx::should_parallelize`] with the per-class threshold.
    pub fn should_parallelize_kernel(&self, rows: usize, class: KernelClass) -> bool {
        !self.is_serial() && rows >= self.min_rows_for(class).saturating_mul(2)
    }

    /// True if an input of `rows` rows would actually fan out to more
    /// than one thread after the hardware cap. Kernels use this on top of
    /// [`ParallelCtx::should_parallelize`] to fall back to the serial
    /// reference when fan-out would be vacuous — e.g. eight requested
    /// workers on a single-core host, where the morsel machinery is pure
    /// overhead. Like the threshold, it is disabled by
    /// `min_rows_per_worker == 0` (the test configuration), so parallel
    /// merge paths stay exercised on single-core CI hosts.
    pub fn fans_out(&self, rows: usize) -> bool {
        let num_morsels = rows.div_ceil(self.morsel_rows.max(1));
        self.effective_workers(rows, num_morsels) > 1
    }

    /// The worker count a `rows`-row input actually fans out to: capped
    /// so each thread gets [`ParallelCtx::min_rows_per_worker`] rows, and
    /// by the hardware thread count — threads beyond the cores are pure
    /// scheduling overhead on a saturated host (the 10M-row kernel bench
    /// measured net slowdowns from oversubscription). With the threshold
    /// disabled (`min_rows_per_worker == 0` — the test configuration)
    /// both caps are off, so parallel merge paths stay exercised even on
    /// single-core CI hosts. Results are bit-identical either way.
    fn effective_workers(&self, rows: usize, num_morsels: usize) -> usize {
        let cap = match self.min_rows_per_worker {
            0 => self.workers,
            min => {
                let hw = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(usize::MAX);
                (rows / min).max(1).min(hw)
            }
        };
        self.workers.min(cap).clamp(1, num_morsels.max(1))
    }

    /// Split `rows` into morsels, apply `f` to every morsel range across
    /// the worker pool, and return the per-morsel results **in morsel
    /// order** (deterministic regardless of scheduling). The first error in
    /// morsel order is returned, matching what a serial left-to-right scan
    /// would report.
    ///
    /// The effective worker count is capped so each thread has at least
    /// [`ParallelCtx::min_rows_per_worker`] rows (and never exceeds the
    /// morsel count or the hardware thread count); with one effective
    /// worker the loop runs on the calling thread with no pool at all.
    pub fn run_morsels<T, F>(&self, rows: usize, f: F) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(Range<usize>) -> Result<T, String> + Sync,
    {
        let morsel = self.morsel_rows.max(1);
        let num_morsels = rows.div_ceil(morsel);
        let range_of = |i: usize| -> Range<usize> {
            let start = i * morsel;
            start..(start + morsel).min(rows)
        };
        let workers = self.effective_workers(rows, num_morsels);
        if workers == 1 {
            return (0..num_morsels).map(|i| f(range_of(i))).collect();
        }

        // Work stealing: each worker claims the next unclaimed morsel.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, String>>> =
            (0..num_morsels).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done: Vec<(usize, Result<T, String>)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= num_morsels {
                                break;
                            }
                            done.push((i, f(range_of(i))));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                let done = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, result) in done {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every morsel index was claimed"))
            .collect()
    }

    /// Like [`ParallelCtx::run_morsels`], but for kernels whose output is
    /// a flat stream: instead of one allocation per morsel, every worker
    /// appends into a single reused [`MorselArena`] and records the span
    /// each morsel produced. The spans are then concatenated — in morsel
    /// order, pre-sized from the per-worker counts — into one buffer, so
    /// the result is bit-identical to a serial left-to-right scan.
    ///
    /// With one effective worker the arena already *is* the result in
    /// morsel order and is returned without any copy at all — the
    /// single-worker path costs exactly what the serial kernel costs.
    pub fn run_morsels_arena<A, F>(&self, rows: usize, f: F) -> Result<A, String>
    where
        A: MorselArena,
        F: Fn(Range<usize>, &mut A) -> Result<(), String> + Sync,
    {
        let morsel = self.morsel_rows.max(1);
        let num_morsels = rows.div_ceil(morsel);
        let range_of = |i: usize| -> Range<usize> {
            let start = i * morsel;
            start..(start + morsel).min(rows)
        };
        let workers = self.effective_workers(rows, num_morsels);
        if workers == 1 {
            let mut arena = A::default();
            for i in 0..num_morsels {
                f(range_of(i), &mut arena)?;
            }
            return Ok(arena);
        }

        // Work stealing as in `run_morsels`; each worker returns its
        // arena, the (morsel index, span) list of what it claimed, and
        // its first error (after which it stops claiming).
        type WorkerPart<A> = (A, Vec<(usize, Range<usize>)>, Option<(usize, String)>);
        let next = AtomicUsize::new(0);
        let parts: Vec<WorkerPart<A>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut arena = A::default();
                            let mut spans = Vec::new();
                            let mut err = None;
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= num_morsels {
                                    break;
                                }
                                let start = arena.len();
                                match f(range_of(i), &mut arena) {
                                    Ok(()) => spans.push((i, start..arena.len())),
                                    Err(e) => {
                                        err = Some((i, e));
                                        break;
                                    }
                                }
                            }
                            (arena, spans, err)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
                    })
                    .collect()
            });

        // First error in morsel order, matching a serial scan: the claim
        // counter is monotonic, so every index below the smallest reported
        // error index was claimed and completed Ok (had it errored, it
        // would be the smaller report).
        if let Some((_, e)) = parts
            .iter()
            .filter_map(|(_, _, err)| err.as_ref())
            .min_by_key(|(i, _)| *i)
        {
            return Err(e.clone());
        }

        // Merge: pre-size the output from the per-worker counts, then
        // copy each morsel's span exactly once, in morsel order.
        let mut slots: Vec<Option<(usize, Range<usize>)>> = vec![None; num_morsels];
        let mut total = 0usize;
        for (w, (_, spans, _)) in parts.iter().enumerate() {
            for (i, span) in spans {
                total += span.len();
                slots[*i] = Some((w, span.clone()));
            }
        }
        let mut out = A::default();
        out.reserve(total);
        for slot in slots {
            let (w, span) = slot.expect("every morsel index was claimed");
            out.append_range(&parts[w].0, span);
        }
        Ok(out)
    }
}

/// A per-worker output buffer [`ParallelCtx::run_morsels_arena`] can
/// append into and concatenate deterministically: a flat growable stream
/// where a morsel's output is the contiguous span it appended.
pub trait MorselArena: Default + Send {
    /// Items currently in the buffer (span endpoints index into this).
    fn len(&self) -> usize;

    /// True if the buffer holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-size for exactly `n` more items.
    fn reserve(&mut self, n: usize);

    /// Append `src[range]` onto `self`.
    fn append_range(&mut self, src: &Self, range: Range<usize>);
}

impl<T: Copy + Send> MorselArena for Vec<T> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn reserve(&mut self, n: usize) {
        Vec::reserve_exact(self, n);
    }

    fn append_range(&mut self, src: &Self, range: Range<usize>) {
        self.extend_from_slice(&src[range]);
    }
}

/// Two streams appended in lockstep (e.g. probe/build position pairs).
impl<T: Copy + Send, U: Copy + Send> MorselArena for (Vec<T>, Vec<U>) {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn reserve(&mut self, n: usize) {
        self.0.reserve_exact(n);
        self.1.reserve_exact(n);
    }

    fn append_range(&mut self, src: &Self, range: Range<usize>) {
        self.0.extend_from_slice(&src.0[range.clone()]);
        self.1.extend_from_slice(&src.1[range]);
    }
}

/// Production selection: bit-identical to [`ops::select::select`].
///
/// Serial or parallel, the selection vector comes from the block
/// predicate evaluator ([`crate::simd`]) and the result is materialized
/// by one global gather, like the serial reference path (so string
/// columns share the same dictionary `Arc` either way).
pub fn select(
    chunk: &Chunk,
    predicate: &Predicate,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    let sel = select_positions(chunk, predicate, ctx)?;
    Ok(chunk.gather(sel.positions()))
}

/// Compute the selection vector for `predicate` over `chunk` without
/// materializing anything: each worker appends its morsels' qualifying
/// positions into its arena and the spans are concatenated **once**, in
/// morsel order — so the result equals the serial
/// [`Predicate::evaluate_selvec`]`(chunk, None)` exactly.
///
/// The predicate is compiled **once** (to the block form when the shape
/// supports it — see [`crate::simd::BlockPred`]) and shared read-only
/// across workers; the serial path runs the same compiled form over the
/// full row range.
pub fn select_positions(
    chunk: &Chunk,
    predicate: &Predicate,
    ctx: ParallelCtx,
) -> Result<SelVec, String> {
    select_positions_range(chunk, predicate, 0..chunk.num_rows(), ctx)
}

/// [`select_positions`] restricted to the row range `rows` of `chunk`:
/// the qualifying positions of that range, as positions into `chunk`.
/// This is the scan path for windows and shards, which read a row range
/// of the shared full-table chunk instead of copying it out.
pub fn select_positions_range(
    chunk: &Chunk,
    predicate: &Predicate,
    rows: Range<usize>,
    ctx: ParallelCtx,
) -> Result<SelVec, String> {
    let n = rows.len();
    if ctx.is_serial()
        || !ctx.should_parallelize_kernel(n, KernelClass::Selection)
        || !ctx.fans_out(n)
    {
        let mut positions = Vec::new();
        crate::simd::eval_positions_range(predicate, chunk, rows, &mut positions)?;
        return Ok(SelVec::new(positions));
    }
    let pred = ProdPred::compile(predicate, chunk)?;
    let lo = rows.start;
    let positions = ctx.run_morsels_arena(n, |r, out: &mut Vec<u32>| {
        pred.append_range(lo + r.start..lo + r.end, out)
    })?;
    Ok(SelVec::new(positions))
}

/// Parallel hash join: bit-identical to [`ops::join::hash_join`].
///
/// The build side is hashed once on the calling thread; only the probe
/// loop fans out.
pub fn hash_join(
    build: &Chunk,
    probe: &Chunk,
    build_key: &str,
    probe_key: &str,
    kind: JoinKind,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    if ctx.is_serial()
        || !ctx.should_parallelize_kernel(probe.num_rows(), KernelClass::Join)
        || !ctx.fans_out(probe.num_rows())
    {
        return ops::join::hash_join_fast(build, probe, build_key, probe_key, kind);
    }
    let bcol = build.require_column(build_key)?;
    let pcol = probe.require_column(probe_key)?;
    ops::join::with_key_buffers(|bkeys, pkeys| {
        ops::join::join_keys_into(bcol, pcol, bkeys, pkeys)?;
        let table = JoinTable::build(bkeys);

        match kind {
            JoinKind::Inner => {
                let (probe_pos, build_pos) = ctx.run_morsels_arena(
                    pkeys.len(),
                    |rows, out: &mut (Vec<u32>, Vec<u32>)| {
                        for i in rows {
                            let k = pkeys[i];
                            if k == u64::MAX {
                                continue; // probe-only string, cannot match
                            }
                            table.for_each_match(k, |b| {
                                out.0.push(i as u32);
                                out.1.push(b);
                            });
                        }
                        Ok(())
                    },
                )?;
                Ok(probe.gather(&probe_pos).zip(build.gather(&build_pos)))
            }
            JoinKind::Semi | JoinKind::Anti => {
                let keep_matches = kind == JoinKind::Semi;
                let pos =
                    ctx.run_morsels_arena(pkeys.len(), |rows, out: &mut Vec<u32>| {
                        out.extend(
                            rows.filter(|&i| {
                                let k = pkeys[i];
                                let found = k != u64::MAX && table.contains(k);
                                found == keep_matches
                            })
                            .map(|i| i as u32),
                        );
                        Ok(())
                    })?;
                Ok(probe.gather(&pos))
            }
        }
    })
}

/// A composite group key (dense cases avoid the per-row `Vec`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    One(u64),
    Two(u64, u64),
    Many(Vec<u64>),
}

fn group_key(key_cols: &[&ColumnData], row: usize) -> GroupKey {
    match key_cols {
        [a] => GroupKey::One(a.key_at(row)),
        [a, b] => GroupKey::Two(a.key_at(row), b.key_at(row)),
        cols => GroupKey::Many(cols.iter().map(|c| c.key_at(row)).collect()),
    }
}

/// Per-morsel grouping result (phase 1).
struct LocalGroups {
    /// Distinct keys, in local first-occurrence order.
    keys: Vec<GroupKey>,
    /// Global row index of each key's first occurrence in this morsel.
    reps: Vec<u32>,
    /// Local group id of every row of the morsel, in row order.
    row_gids: Vec<u32>,
}

/// Parallel group-by aggregation: bit-identical to
/// [`ops::agg::aggregate`].
///
/// Phase 1 (parallel) builds per-morsel hash tables mapping composite keys
/// to local group ids. The merge walks morsels in order, assigning global
/// group ids in first-occurrence order — the same numbering the serial
/// kernel produces. Phase 2 then folds every aggregate input serially in
/// row order, so `f64` sums associate exactly like the serial reference.
///
/// Global aggregation (`group_by` empty) is delegated to the serial
/// kernel: it is a pure fold whose result depends on association order, so
/// there is no bit-identical way to split it.
pub fn aggregate(
    chunk: &Chunk,
    group_by: &[String],
    aggs: &[AggSpec],
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    if ctx.is_serial()
        || group_by.is_empty()
        || !ctx.should_parallelize_kernel(chunk.num_rows(), KernelClass::Aggregation)
        || !ctx.fans_out(chunk.num_rows())
    {
        return ops::agg::aggregate_fast(chunk, group_by, aggs);
    }
    let n = chunk.num_rows();
    let key_cols: Vec<&ColumnData> = group_by
        .iter()
        .map(|name| chunk.require_column(name))
        .collect::<Result<_, _>>()?;
    let agg_inputs: Vec<Vec<f64>> = aggs
        .iter()
        .map(|a| a.input.evaluate_f64(chunk))
        .collect::<Result<_, _>>()?;

    // Phase 1 (parallel): per-morsel grouping.
    let locals = ctx.run_morsels(n, |rows| {
        let mut map: HashMap<GroupKey, u32> = HashMap::new();
        let mut keys = Vec::new();
        let mut reps = Vec::new();
        let mut row_gids = Vec::with_capacity(rows.len());
        for row in rows {
            let gid = match map.entry(group_key(&key_cols, row)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let g = keys.len() as u32;
                    keys.push(e.key().clone());
                    reps.push(row as u32);
                    e.insert(g);
                    g
                }
            };
            row_gids.push(gid);
        }
        Ok(LocalGroups { keys, reps, row_gids })
    })?;

    // Merge (serial, morsel order): global ids in first-occurrence order.
    let mut global: HashMap<GroupKey, u32> = HashMap::new();
    let mut representative: Vec<u32> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(n);
    for local in &locals {
        let translate: Vec<u32> = local
            .keys
            .iter()
            .zip(&local.reps)
            .map(|(key, &rep)| match global.entry(key.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let g = representative.len() as u32;
                    representative.push(rep);
                    e.insert(g);
                    g
                }
            })
            .collect();
        gids.extend(local.row_gids.iter().map(|&l| translate[l as usize]));
    }

    // Phase 2 (serial, row order): exact serial accumulation order.
    let mut states =
        vec![vec![ops::agg::AggState::new(); aggs.len()]; representative.len()];
    for (row, &gid) in gids.iter().enumerate() {
        for (state, input) in states[gid as usize].iter_mut().zip(&agg_inputs) {
            state.update(input[row]);
        }
    }
    Ok(ops::agg::finalize(group_by, &key_cols, aggs, &representative, &states))
}

/// Per-morsel result of a fused filter→aggregate loop: the selected
/// positions plus their local grouping, produced in one pass.
struct FusedLocal {
    /// Qualifying global positions of the morsel, in row order.
    positions: Vec<u32>,
    /// Distinct keys, in local first-occurrence order over the selection.
    keys: Vec<GroupKey>,
    /// Global row of each key's first occurrence in this morsel.
    reps: Vec<u32>,
    /// Local group id of every *selected* row, in selection order.
    row_gids: Vec<u32>,
}

/// Fused filter→aggregate: one morsel loop filters **and** groups, so the
/// filtered intermediate chunk is never materialized.
///
/// Each worker compiles nothing and copies nothing per row: the shared
/// compiled predicate emits a morsel's qualifying positions, which are
/// immediately grouped against the *base* columns. The merge and phase-2
/// accumulation mirror [`aggregate`] — morsel-order group numbering,
/// selection-order `f64` folds, aggregate inputs evaluated at selected
/// positions only — so the result is bit-identical to
/// `select(chunk, pred)` followed by `aggregate(...)`.
pub fn fused_filter_aggregate(
    chunk: &Chunk,
    predicate: &Predicate,
    group_by: &[String],
    aggs: &[AggSpec],
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    if ctx.is_serial()
        || !ctx.should_parallelize_kernel(chunk.num_rows(), KernelClass::Aggregation)
        || !ctx.fans_out(chunk.num_rows())
    {
        let pred = ProdPred::compile(predicate, chunk)?;
        let mut positions = Vec::new();
        pred.append_range(0..chunk.num_rows(), &mut positions)?;
        let sel = SelVec::new(positions);
        return ops::agg::aggregate_sel_fast(chunk, Some(&sel), group_by, aggs);
    }
    let pred = ProdPred::compile(predicate, chunk)?;
    let key_cols: Vec<&ColumnData> = group_by
        .iter()
        .map(|name| chunk.require_column(name))
        .collect::<Result<_, _>>()?;

    // Phase 1 (parallel): filter + local grouping in one pass per morsel.
    let locals = ctx.run_morsels(chunk.num_rows(), |rows| {
        let mut positions = Vec::new();
        pred.append_range(rows, &mut positions)?;
        let mut map: HashMap<GroupKey, u32> = HashMap::new();
        let mut keys = Vec::new();
        let mut reps = Vec::new();
        let mut row_gids = Vec::with_capacity(positions.len());
        for &p in &positions {
            let gid = match map.entry(group_key(&key_cols, p as usize)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let g = keys.len() as u32;
                    keys.push(e.key().clone());
                    reps.push(p);
                    e.insert(g);
                    g
                }
            };
            row_gids.push(gid);
        }
        Ok(FusedLocal { positions, keys, reps, row_gids })
    })?;

    // Merge (serial, morsel order): global ids in first-occurrence order
    // over the concatenated selection.
    let total: usize = locals.iter().map(|l| l.positions.len()).sum();
    let mut global: HashMap<GroupKey, u32> = HashMap::new();
    let mut representative: Vec<u32> = Vec::new();
    let mut positions: Vec<u32> = Vec::with_capacity(total);
    let mut gids: Vec<u32> = Vec::with_capacity(total);
    for local in &locals {
        let translate: Vec<u32> = local
            .keys
            .iter()
            .zip(&local.reps)
            .map(|(key, &rep)| match global.entry(key.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let g = representative.len() as u32;
                    representative.push(rep);
                    e.insert(g);
                    g
                }
            })
            .collect();
        gids.extend(local.row_gids.iter().map(|&l| translate[l as usize]));
        positions.extend_from_slice(&local.positions);
    }

    // Phase 2 (serial, selection order): inputs at selected rows only.
    let agg_inputs: Vec<Vec<f64>> = aggs
        .iter()
        .map(|a| a.input.evaluate_f64_at(chunk, &positions))
        .collect::<Result<_, _>>()?;
    let mut states =
        vec![vec![ops::agg::AggState::new(); aggs.len()]; representative.len()];
    for (j, &gid) in gids.iter().enumerate() {
        for (state, input) in states[gid as usize].iter_mut().zip(&agg_inputs) {
            state.update(input[j]);
        }
    }
    // Global aggregate over an empty selection: one row of neutral values.
    if group_by.is_empty() && states.is_empty() {
        representative.push(0);
        states.push(vec![ops::agg::AggState::new(); aggs.len()]);
    }
    Ok(ops::agg::finalize(group_by, &key_cols, aggs, &representative, &states))
}

/// Fused filter→probe: each worker filters its morsel of the probe side
/// and immediately probes the surviving positions against the (shared,
/// prebuilt) hash table, emitting global position pairs — the filtered
/// probe side is never materialized.
///
/// The concatenation runs in morsel order and the output is gathered once
/// from the *base* probe chunk, so the result is bit-identical to
/// `select(probe, pred)` followed by `hash_join(build, ..., kind)`.
pub fn fused_filter_probe(
    build: &Chunk,
    probe: &Chunk,
    predicate: &Predicate,
    build_key: &str,
    probe_key: &str,
    kind: JoinKind,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    if ctx.is_serial()
        || !ctx.should_parallelize_kernel(probe.num_rows(), KernelClass::Join)
        || !ctx.fans_out(probe.num_rows())
    {
        let pred = ProdPred::compile(predicate, probe)?;
        let mut positions = Vec::new();
        pred.append_range(0..probe.num_rows(), &mut positions)?;
        let sel = SelVec::new(positions);
        return ops::join::hash_join_sel_fast(
            build,
            probe,
            build_key,
            probe_key,
            kind,
            Some(&sel),
        );
    }
    let pred = ProdPred::compile(predicate, probe)?;
    let bcol = build.require_column(build_key)?;
    let pcol = probe.require_column(probe_key)?;
    ops::join::with_key_buffers(|bkeys, _pkeys| {
        let keys = ops::join::probe_key_extractor(bcol, pcol, bkeys)?;
        let table = JoinTable::build(bkeys);
        match kind {
            JoinKind::Inner => {
                let (probe_pos, build_pos) = ctx.run_morsels_arena(
                    probe.num_rows(),
                    |rows, out: &mut (Vec<u32>, Vec<u32>)| {
                        // The filter scratch is morsel-bounded; size it once.
                        let mut positions = Vec::with_capacity(rows.len());
                        pred.append_range(rows, &mut positions)?;
                        ops::join::probe_table_into(
                            &keys,
                            &table,
                            kind,
                            positions.into_iter(),
                            &mut out.0,
                            &mut out.1,
                        );
                        Ok(())
                    },
                )?;
                Ok(probe.gather(&probe_pos).zip(build.gather(&build_pos)))
            }
            // Semi/anti probes emit probe positions only, so the arena is
            // a single stream and the build-side sink stays empty.
            JoinKind::Semi | JoinKind::Anti => {
                let probe_pos = ctx.run_morsels_arena(
                    probe.num_rows(),
                    |rows, out: &mut Vec<u32>| {
                        let mut positions = Vec::with_capacity(rows.len());
                        pred.append_range(rows, &mut positions)?;
                        let mut build_pos = Vec::new();
                        ops::join::probe_table_into(
                            &keys,
                            &table,
                            kind,
                            positions.into_iter(),
                            out,
                            &mut build_pos,
                        );
                        debug_assert!(build_pos.is_empty());
                        Ok(())
                    },
                )?;
                Ok(probe.gather(&probe_pos))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggSpec;
    use robustq_storage::{ColumnData, DataType, DictColumn, Field};

    fn wide_chunk(rows: usize) -> Chunk {
        let ints: Vec<i32> = (0..rows).map(|i| (i as i32 * 7) % 23 - 11).collect();
        let floats: Vec<f64> = (0..rows).map(|i| (i as f64) * 0.37 - 50.0).collect();
        let strs: Vec<String> =
            (0..rows).map(|i| format!("k{}", (i * 13) % 17)).collect();
        Chunk::new(
            vec![
                Field::new("a", DataType::Int32),
                Field::new("f", DataType::Float64),
                Field::new("s", DataType::Str),
            ],
            vec![
                ColumnData::Int32(ints),
                ColumnData::Float64(floats),
                ColumnData::Str(DictColumn::from_strings(strs)),
            ],
        )
    }

    fn ctx(workers: usize, morsel: usize) -> ParallelCtx {
        // Threshold disabled so tiny test chunks still exercise the
        // parallel paths.
        ParallelCtx { workers, morsel_rows: morsel, min_rows_per_worker: 0 }
    }

    #[test]
    fn run_morsels_preserves_order_and_covers_all_rows() {
        let c = ctx(4, 10);
        let parts = c.run_morsels(95, |r| Ok(r.clone())).unwrap();
        assert_eq!(parts.len(), 10);
        assert_eq!(parts[0], 0..10);
        assert_eq!(parts[9], 90..95);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 95);
    }

    #[test]
    fn run_morsels_empty_input() {
        let parts = ctx(4, 8).run_morsels(0, |r| Ok(r.len())).unwrap();
        assert!(parts.is_empty());
    }

    #[test]
    fn run_morsels_reports_first_error_in_morsel_order() {
        let c = ctx(4, 1);
        let err = c
            .run_morsels(10, |r| {
                if r.start >= 3 {
                    Err(format!("boom at {}", r.start))
                } else {
                    Ok(r.start)
                }
            })
            .unwrap_err();
        assert_eq!(err, "boom at 3");
    }

    #[test]
    fn run_morsels_arena_concatenates_in_morsel_order() {
        let c = ctx(4, 10);
        let out: Vec<u32> = c
            .run_morsels_arena(95, |r, out: &mut Vec<u32>| {
                out.extend(r.map(|i| i as u32));
                Ok(())
            })
            .unwrap();
        assert_eq!(out, (0..95).collect::<Vec<u32>>());
    }

    #[test]
    fn run_morsels_arena_empty_input() {
        let out: Vec<u32> = ctx(4, 8)
            .run_morsels_arena(0, |_r, _out: &mut Vec<u32>| {
                panic!("no morsels to run")
            })
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn run_morsels_arena_reports_first_error_in_morsel_order() {
        let err = ctx(4, 1)
            .run_morsels_arena(10, |r, out: &mut Vec<u32>| {
                if r.start >= 3 {
                    Err(format!("boom at {}", r.start))
                } else {
                    out.push(r.start as u32);
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err, "boom at 3");
    }

    #[test]
    fn run_morsels_arena_pair_stays_in_lockstep() {
        let (a, b): (Vec<u32>, Vec<u32>) = ctx(3, 7)
            .run_morsels_arena(50, |r, out: &mut (Vec<u32>, Vec<u32>)| {
                for i in r {
                    out.0.push(i as u32);
                    out.1.push(2 * i as u32);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
        assert_eq!(b, (0..50).map(|i| 2 * i).collect::<Vec<u32>>());
    }

    #[test]
    fn parallel_select_matches_serial_exactly() {
        let chunk = wide_chunk(1_000);
        let pred = Predicate::between("a", -5, 5);
        let serial = ops::select::select(&chunk, &pred).unwrap();
        for workers in [2, 8] {
            for morsel in [1, 7, 64] {
                let par = select(&chunk, &pred, ctx(workers, morsel)).unwrap();
                assert_eq!(par, serial, "workers={workers} morsel={morsel}");
            }
        }
    }

    #[test]
    fn parallel_join_matches_serial_exactly() {
        let build = wide_chunk(50);
        let probe = wide_chunk(777);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let serial =
                ops::join::hash_join(&build, &probe, "a", "a", kind).unwrap();
            let par =
                hash_join(&build, &probe, "a", "a", kind, ctx(3, 13)).unwrap();
            assert_eq!(par, serial, "{kind:?}");
        }
    }

    #[test]
    fn parallel_aggregate_matches_serial_exactly() {
        let chunk = wide_chunk(2_000);
        let aggs = vec![
            AggSpec::sum(Expr::col("f"), "s"),
            AggSpec::count("c"),
            AggSpec::new(crate::plan::AggFunc::Avg, Expr::col("f"), "m"),
        ];
        let group_by = vec!["s".to_string(), "a".to_string()];
        let serial = ops::agg::aggregate(&chunk, &group_by, &aggs).unwrap();
        let par = aggregate(&chunk, &group_by, &aggs, ctx(4, 111)).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn errors_match_serial() {
        let chunk = wide_chunk(100);
        assert!(select(&chunk, &Predicate::eq("zz", 1), ctx(2, 8)).is_err());
        assert!(hash_join(
            &chunk,
            &chunk,
            "zz",
            "a",
            JoinKind::Inner,
            ctx(2, 8)
        )
        .is_err());
        assert!(aggregate(
            &chunk,
            &["zz".to_string()],
            &[AggSpec::count("c")],
            ctx(2, 8)
        )
        .is_err());
    }

    #[test]
    fn default_ctx_is_serial() {
        assert!(ParallelCtx::default().is_serial());
        assert!(ParallelCtx::serial().is_serial());
        assert!(!ParallelCtx::serial().with_workers(4).is_serial());
        assert!(ParallelCtx::auto().workers >= 1);
    }

    #[test]
    fn min_rows_threshold_forces_serial_on_small_inputs() {
        let c = ParallelCtx::serial().with_workers(8);
        assert!(!c.should_parallelize(1_000_000)); // 1M < 2 × 524_288
        assert!(c.should_parallelize(10_000_000));
        assert!(!ParallelCtx::serial().should_parallelize(10_000_000));
        // Threshold disabled: any multi-worker input fans out.
        assert!(c.with_min_rows_per_worker(0).should_parallelize(10));
        // run_morsels caps effective workers by rows/threshold.
        let parts = c
            .with_morsel_rows(100)
            .run_morsels(1_000, |r| Ok(r.len()))
            .unwrap();
        assert_eq!(parts.iter().sum::<usize>(), 1_000);
    }

    #[test]
    fn select_positions_matches_serial_selvec() {
        let chunk = wide_chunk(1_000);
        let pred = Predicate::between("a", -5, 5);
        let serial = pred.evaluate_selvec(&chunk, None).unwrap();
        for workers in [2, 8] {
            for morsel in [1, 7, 64] {
                let par =
                    select_positions(&chunk, &pred, ctx(workers, morsel)).unwrap();
                assert_eq!(
                    par.positions(),
                    serial.positions(),
                    "workers={workers} morsel={morsel}"
                );
            }
        }
    }

    #[test]
    fn fused_filter_aggregate_matches_select_then_aggregate() {
        let chunk = wide_chunk(2_000);
        let pred = Predicate::between("a", -7, 7);
        let aggs = vec![
            AggSpec::sum(Expr::col("f"), "s"),
            AggSpec::count("c"),
            AggSpec::new(crate::plan::AggFunc::Avg, Expr::col("f"), "m"),
        ];
        for group_by in [vec![], vec!["s".to_string()], vec!["s".to_string(), "a".into()]] {
            let filtered = ops::select::select(&chunk, &pred).unwrap();
            let serial = ops::agg::aggregate(&filtered, &group_by, &aggs).unwrap();
            for workers in [1, 2, 8] {
                let fused = fused_filter_aggregate(
                    &chunk,
                    &pred,
                    &group_by,
                    &aggs,
                    ctx(workers, 111),
                )
                .unwrap();
                assert_eq!(fused, serial, "workers={workers} group_by={group_by:?}");
            }
        }
    }

    #[test]
    fn fused_filter_aggregate_empty_selection_global_agg() {
        let chunk = wide_chunk(500);
        let pred = Predicate::eq("a", 9_999); // matches nothing
        let out = fused_filter_aggregate(
            &chunk,
            &pred,
            &[],
            &[AggSpec::count("c")],
            ctx(4, 64),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0].as_i64(), Some(0));
    }

    #[test]
    fn fused_filter_probe_matches_select_then_join() {
        let build = wide_chunk(50);
        let probe = wide_chunk(777);
        let pred = Predicate::between("a", -8, 4);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
            let filtered = ops::select::select(&probe, &pred).unwrap();
            let serial =
                ops::join::hash_join(&build, &filtered, "a", "a", kind).unwrap();
            for workers in [1, 3, 8] {
                let fused = fused_filter_probe(
                    &build,
                    &probe,
                    &pred,
                    "a",
                    "a",
                    kind,
                    ctx(workers, 13),
                )
                .unwrap();
                assert_eq!(fused, serial, "{kind:?} workers={workers}");
            }
        }
    }

    #[test]
    fn fused_string_key_probe_shares_dictionaries() {
        // String keys across distinct dictionaries exercise the probe-key
        // translation table inside the fused loop.
        let build = wide_chunk(40);
        let probe = wide_chunk(333);
        let pred = Predicate::True;
        let filtered = ops::select::select(&probe, &pred).unwrap();
        let serial =
            ops::join::hash_join(&build, &filtered, "s", "s", JoinKind::Inner)
                .unwrap();
        let fused =
            fused_filter_probe(&build, &probe, &pred, "s", "s", JoinKind::Inner, ctx(4, 17))
                .unwrap();
        assert_eq!(fused, serial);
    }

    #[test]
    fn fused_errors_match_serial() {
        let chunk = wide_chunk(100);
        assert!(fused_filter_aggregate(
            &chunk,
            &Predicate::eq("zz", 1),
            &[],
            &[AggSpec::count("c")],
            ctx(2, 8)
        )
        .is_err());
        assert!(fused_filter_probe(
            &chunk,
            &chunk,
            &Predicate::True,
            "zz",
            "a",
            JoinKind::Inner,
            ctx(2, 8)
        )
        .is_err());
    }
}

//! Flattened task graphs.
//!
//! The executor works on a flat, index-addressed form of the plan tree:
//! one [`TaskNode`] per operator, children before parents (postorder), the
//! root last. Query chopping (Section 5.2) falls out naturally: leaves
//! have no dependencies and enter the operator stream immediately; every
//! other task enters when its last child finishes.

use crate::batch::{Chunk, LazyChunk, SelVec};
use crate::expr::Expr;
use crate::ops;
use crate::parallel::{self, ParallelCtx};
use crate::plan::{AggSpec, JoinKind, PlanNode, SortKey};
use crate::predicate::Predicate;
use robustq_sim::OpClass;
use robustq_storage::Database;
use std::ops::Range;
use std::sync::Arc;

/// Which piece of a sharded scan a task covers: shard `index` of `of`
/// equal row-range partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u32,
    /// Total number of shards the operator was split into.
    pub of: u32,
}

impl ShardSpec {
    /// The half-open row range this shard covers out of `rows` total rows.
    /// Ranges of consecutive shards are disjoint, ordered and exhaustive.
    pub fn row_range(&self, rows: usize) -> Range<usize> {
        let of = self.of.max(1) as usize;
        let lo = rows * self.index as usize / of;
        let hi = rows * (self.index as usize + 1) / of;
        lo..hi
    }

    /// Fraction of the operator's rows this shard covers.
    pub fn fraction(&self) -> f64 {
        1.0 / f64::from(self.of.max(1))
    }
}

/// The operator payload of one task (a plan node without its children).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOp {
    /// Scan a base table with an optional pushed-down predicate.
    Scan {
        /// Table to read.
        table: String,
        /// Columns to output.
        columns: Vec<String>,
        /// Pushed-down filter, if any.
        predicate: Option<Predicate>,
    },
    /// Filter an intermediate result.
    Select {
        /// The filter.
        predicate: Predicate,
    },
    /// Hash equi-join (build side is the first child).
    HashJoin {
        /// Key column on the build side.
        build_key: String,
        /// Key column on the probe side.
        probe_key: String,
        /// Inner, semi or anti.
        kind: JoinKind,
    },
    /// Compute named expressions.
    Project {
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Group-by aggregation.
    Aggregate {
        /// Grouping key columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Sort / top-k.
    Sort {
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
        /// Keep only the first `limit` rows, if set.
        limit: Option<usize>,
    },
    /// One device-shard of a partitioned table scan: evaluates the pushed
    /// predicate over its [`ShardSpec::row_range`] only and emits the
    /// qualifying positions as a selection vector over the shared base
    /// chunk (the table's own column buffers). Produced by shard expansion
    /// at admission, never by planning.
    ScanShard {
        /// Table to read.
        table: String,
        /// Columns the merged scan outputs.
        columns: Vec<String>,
        /// Pushed-down filter, if any.
        predicate: Option<Predicate>,
        /// Which row-range partition this shard covers.
        shard: ShardSpec,
    },
    /// Merge barrier for a sharded scan: concatenates its children's
    /// (disjoint, ordered) shard selection vectors into one view over the
    /// shared base chunk, so the union is byte-identical to the unsharded
    /// [`TaskOp::Scan`] output — same rows, same order, same string
    /// dictionaries — without gathering a single payload byte.
    MergeShards {
        /// Columns the merged scan outputs.
        columns: Vec<String>,
    },
}

impl TaskOp {
    /// Cost-model class.
    pub fn op_class(&self) -> OpClass {
        match self {
            TaskOp::Scan { .. } | TaskOp::Select { .. } | TaskOp::ScanShard { .. } => {
                OpClass::Selection
            }
            TaskOp::HashJoin { .. } => OpClass::HashJoin,
            TaskOp::Project { .. } | TaskOp::MergeShards { .. } => OpClass::Projection,
            TaskOp::Aggregate { .. } => OpClass::Aggregation,
            TaskOp::Sort { .. } => OpClass::Sort,
        }
    }

    /// For scans (whole or sharded): table and the full set of base
    /// columns read.
    pub fn scan_access(&self) -> Option<(&str, Vec<String>)> {
        match self {
            TaskOp::Scan { table, columns, predicate }
            | TaskOp::ScanShard { table, columns, predicate, .. } => {
                let mut cols = columns.clone();
                if let Some(p) = predicate {
                    for c in p.referenced_columns() {
                        if !cols.contains(&c) {
                            cols.push(c);
                        }
                    }
                }
                Some((table.as_str(), cols))
            }
            _ => None,
        }
    }

    /// For shard tasks: which partition of the operator this is.
    pub fn shard_spec(&self) -> Option<ShardSpec> {
        match self {
            TaskOp::ScanShard { shard, .. } => Some(*shard),
            _ => None,
        }
    }

    /// Execute the kernel given the children's outputs (build side first
    /// for joins). Serial reference path.
    pub fn execute(&self, children: &[Chunk], db: &Database) -> Result<Chunk, String> {
        self.execute_ctx(children, db, ParallelCtx::serial())
    }

    /// [`TaskOp::execute`] with an explicit parallelism context: scans
    /// with pushed-down predicates, selections, hash joins and
    /// aggregations run through the morsel-parallel kernels
    /// (`crate::parallel`), bit-identical to the serial path.
    pub fn execute_ctx(
        &self,
        children: &[Chunk],
        db: &Database,
        ctx: ParallelCtx,
    ) -> Result<Chunk, String> {
        match self {
            // Shard outputs keep the predicate columns in their base; the
            // materialized form holds the output columns only.
            TaskOp::Scan { columns, .. } | TaskOp::ScanShard { columns, .. } => {
                ops::project::keep_columns(&self.scan(db, ctx, None)?.materialize(), columns)
            }
            TaskOp::Select { predicate } => {
                parallel::select(&children[0], predicate, ctx)
            }
            TaskOp::HashJoin { build_key, probe_key, kind } => parallel::hash_join(
                &children[0],
                &children[1],
                build_key,
                probe_key,
                *kind,
                ctx,
            ),
            TaskOp::Project { exprs } => ops::project::project(&children[0], exprs),
            TaskOp::Aggregate { group_by, aggs } => {
                parallel::aggregate(&children[0], group_by, aggs, ctx)
            }
            TaskOp::Sort { keys, limit } => ops::sort::sort(&children[0], keys, *limit),
            TaskOp::MergeShards { columns } => {
                let merged = Chunk::concat(children)?;
                ops::project::keep_columns(&merged, columns)
            }
        }
    }

    /// Execute the kernel over lazily-filtered inputs, producing a lazy
    /// output — the executor's late-materialization path.
    ///
    /// Scans and shard merges never copy payloads: a scan's base chunk
    /// shares the table's column buffers and its predicate yields a
    /// selection vector over them; a merge concatenates its shards'
    /// selection vectors. A `Select` emits (or refines, for an already
    /// filtered input) a selection vector over the child's base chunk.
    /// Downstream operators consume `(base, selvec)` directly — joins probe
    /// through the selection, aggregations accumulate at selected positions,
    /// projections evaluate at selected positions only — and materialize at
    /// pipeline breakers (join build sides, sort, projection output, final
    /// results). Every output is bit-identical to the materializing
    /// [`TaskOp::execute_ctx`] on materialized children, and reports the
    /// same logical `num_rows`/`byte_size`, so simulated timing and golden
    /// figures are unchanged.
    pub fn execute_lazy(
        &self,
        children: &[LazyChunk],
        db: &Database,
        ctx: ParallelCtx,
    ) -> Result<LazyChunk, String> {
        match self {
            TaskOp::Scan { .. } | TaskOp::ScanShard { .. } => self.scan(db, ctx, None),
            TaskOp::Select { predicate } => match &children[0] {
                LazyChunk::Materialized(c) => {
                    let sel = parallel::select_positions(c, predicate, ctx)?;
                    Ok(LazyChunk::Filtered { base: Arc::new(c.clone()), sel })
                }
                LazyChunk::Filtered { base, sel } => {
                    // AND short-circuit: refine the incoming selection in
                    // place instead of rescanning the base chunk.
                    let sel = crate::simd::refine_selvec(predicate, base, sel)?;
                    Ok(LazyChunk::Filtered { base: Arc::clone(base), sel })
                }
            },
            TaskOp::HashJoin { build_key, probe_key, kind } => {
                // The build side is a pipeline breaker: the hash table
                // needs every build row, so materialize it.
                let build = children[0].chunk();
                let out = match children[1].parts() {
                    (base, Some(sel)) => ops::join::hash_join_sel_fast(
                        &build,
                        base,
                        build_key,
                        probe_key,
                        *kind,
                        Some(sel),
                    )?,
                    (base, None) => parallel::hash_join(
                        &build,
                        base,
                        build_key,
                        probe_key,
                        *kind,
                        ctx,
                    )?,
                };
                Ok(LazyChunk::Materialized(out))
            }
            TaskOp::Project { exprs } => {
                let out = match children[0].parts() {
                    (base, Some(sel)) => {
                        ops::project::project_at(base, exprs, sel.positions())?
                    }
                    (base, None) => ops::project::project(base, exprs)?,
                };
                Ok(LazyChunk::Materialized(out))
            }
            TaskOp::Aggregate { group_by, aggs } => {
                let out = match children[0].parts() {
                    (base, Some(sel)) => {
                        ops::agg::aggregate_sel_fast(base, Some(sel), group_by, aggs)?
                    }
                    (base, None) => parallel::aggregate(base, group_by, aggs, ctx)?,
                };
                Ok(LazyChunk::Materialized(out))
            }
            TaskOp::Sort { keys, limit } => {
                // Sort is a pipeline breaker; materialize its input.
                let out = ops::sort::sort(&children[0].chunk(), keys, *limit)?;
                Ok(LazyChunk::Materialized(out))
            }
            TaskOp::MergeShards { columns } => {
                // Children are ScanShard outputs in shard order: disjoint,
                // ordered selections over the same shared base. Their
                // concatenation is strictly increasing, so one view over
                // the first child's base is the unsharded Scan output bit
                // for bit (shared dictionaries included).
                let mut positions: Vec<u32> = Vec::with_capacity(
                    children.iter().map(LazyChunk::num_rows).sum(),
                );
                let mut base: Option<&Chunk> = None;
                for child in children {
                    match child.parts() {
                        (b, Some(sel)) => {
                            debug_assert!(base.is_none_or(|f| f.num_rows() == b.num_rows()));
                            base.get_or_insert(b);
                            positions.extend_from_slice(sel.positions());
                        }
                        (_, None) => {
                            return Err("merge expects shard selection vectors".into())
                        }
                    }
                }
                let base = base.ok_or("merge of zero shards")?;
                Ok(LazyChunk::filtered(
                    ops::project::keep_columns(base, columns)?,
                    SelVec::new(positions),
                ))
            }
        }
    }

    /// [`TaskOp::execute_lazy`] restricted to a standing-query window:
    /// when `window` names this op's scan table, the scan reads only the
    /// row range `[lo, hi)`. Every other operator (and scans of
    /// non-windowed tables, e.g. static dimension tables) takes the
    /// unwindowed path, so a window covering the whole table is
    /// bit-identical to a plain run.
    pub fn execute_windowed(
        &self,
        children: &[LazyChunk],
        db: &Database,
        ctx: ParallelCtx,
        window: Option<(&str, usize, usize)>,
    ) -> Result<LazyChunk, String> {
        match self {
            TaskOp::Scan { .. } | TaskOp::ScanShard { .. } => self.scan(db, ctx, window),
            _ => self.execute_lazy(children, db, ctx),
        }
    }

    /// The one scan path, shared by whole, windowed and sharded scans.
    ///
    /// The base chunk shares the table's column buffers. The scanned rows
    /// are the whole table, or `[lo, hi)` when `window` names this scan's
    /// table; a shard scans its [`ShardSpec::row_range`] of those rows.
    /// Qualifying positions ride as a selection vector over the base, so
    /// no payload byte is copied, and the logical `num_rows`/`byte_size`
    /// equal those of the gathered result.
    fn scan(
        &self,
        db: &Database,
        ctx: ParallelCtx,
        window: Option<(&str, usize, usize)>,
    ) -> Result<LazyChunk, String> {
        let (table, columns, predicate, shard) = match self {
            TaskOp::Scan { table, columns, predicate } => (table, columns, predicate, None),
            TaskOp::ScanShard { table, columns, predicate, shard } => {
                (table, columns, predicate, Some(*shard))
            }
            _ => unreachable!("scan of a non-scan operator"),
        };
        let t = db.table(table).ok_or_else(|| format!("no table {table}"))?;
        let (_, read_cols) = self.scan_access().expect("scan op");
        let chunk = Chunk::from_table(t, &read_cols)?;
        let n = chunk.num_rows();
        let window = window
            .filter(|&(w, ..)| w == table)
            .map(|(_, lo, hi)| lo.min(n)..hi.min(n));
        let whole = window.is_none() && shard.is_none();
        let range = window.unwrap_or(0..n);
        let rows = match shard {
            Some(s) => {
                let r = s.row_range(range.len());
                range.start + r.start..range.start + r.end
            }
            None => range,
        };
        let sel = match predicate {
            Some(p) => parallel::select_positions_range(&chunk, p, rows, ctx)?,
            None if whole => {
                return Ok(LazyChunk::Materialized(ops::project::keep_columns(
                    &chunk, columns,
                )?));
            }
            None => SelVec::new(rows.map(|i| i as u32).collect()),
        };
        Ok(match shard {
            // A shard's base keeps the predicate columns: its logical size
            // is what the merge's positional cost accounting charges.
            Some(_) => LazyChunk::Filtered { base: Arc::new(chunk), sel },
            None => LazyChunk::filtered(ops::project::keep_columns(&chunk, columns)?, sel),
        })
    }

    /// Short label for diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            TaskOp::Scan { .. } => "scan",
            TaskOp::Select { .. } => "select",
            TaskOp::HashJoin { .. } => "join",
            TaskOp::Project { .. } => "project",
            TaskOp::Aggregate { .. } => "aggregate",
            TaskOp::Sort { .. } => "sort",
            TaskOp::ScanShard { .. } => "scan-shard",
            TaskOp::MergeShards { .. } => "merge",
        }
    }
}

/// One node of a flattened plan.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// The operator payload.
    pub op: TaskOp,
    /// Indices (within the same flattened plan) of the children, build
    /// side first for joins.
    pub children: Vec<usize>,
    /// Index of the parent; `None` for the root.
    pub parent: Option<usize>,
}

/// Flatten a plan tree into postorder task nodes; the root is the last
/// entry.
pub fn flatten(plan: &PlanNode) -> Vec<TaskNode> {
    fn rec(node: &PlanNode, out: &mut Vec<TaskNode>) -> usize {
        let children: Vec<usize> =
            node.children().iter().map(|c| rec(c, out)).collect();
        let op = match node {
            PlanNode::Scan { table, columns, predicate } => TaskOp::Scan {
                table: table.clone(),
                columns: columns.clone(),
                predicate: predicate.clone(),
            },
            PlanNode::Select { predicate, .. } => {
                TaskOp::Select { predicate: predicate.clone() }
            }
            PlanNode::HashJoin { build_key, probe_key, kind, .. } => TaskOp::HashJoin {
                build_key: build_key.clone(),
                probe_key: probe_key.clone(),
                kind: *kind,
            },
            PlanNode::Project { exprs, .. } => TaskOp::Project { exprs: exprs.clone() },
            PlanNode::Aggregate { group_by, aggs, .. } => TaskOp::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            PlanNode::Sort { keys, limit, .. } => {
                TaskOp::Sort { keys: keys.clone(), limit: *limit }
            }
        };
        let idx = out.len();
        out.push(TaskNode { op, children: children.clone(), parent: None });
        for c in children {
            out[c].parent = Some(idx);
        }
        idx
    }
    let mut out = Vec::with_capacity(plan.num_operators());
    rec(plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggSpec;

    fn plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(
                PlanNode::scan("date", ["d_datekey", "d_year"]),
                "lo_orderdate",
                "d_datekey",
            )
            .aggregate(["d_year"], vec![AggSpec::sum(Expr::col("lo_revenue"), "r")])
    }

    #[test]
    fn flatten_is_postorder_with_root_last() {
        let tasks = flatten(&plan());
        assert_eq!(tasks.len(), 4);
        let root = tasks.last().unwrap();
        assert!(matches!(root.op, TaskOp::Aggregate { .. }));
        assert!(root.parent.is_none());
        // Every child index precedes its parent.
        for (i, t) in tasks.iter().enumerate() {
            for &c in &t.children {
                assert!(c < i);
                assert_eq!(tasks[c].parent, Some(i));
            }
        }
    }

    #[test]
    fn join_children_are_build_then_probe() {
        let tasks = flatten(&plan());
        let join = tasks
            .iter()
            .find(|t| matches!(t.op, TaskOp::HashJoin { .. }))
            .unwrap();
        assert_eq!(join.children.len(), 2);
        let build = &tasks[join.children[0]];
        match &build.op {
            TaskOp::Scan { table, .. } => assert_eq!(table, "date"),
            other => panic!("expected date scan on build side, got {other:?}"),
        }
    }

    #[test]
    fn leaves_have_no_children() {
        let tasks = flatten(&plan());
        let leaves: Vec<_> = tasks.iter().filter(|t| t.children.is_empty()).collect();
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|t| matches!(t.op, TaskOp::Scan { .. })));
    }

    #[test]
    fn task_execution_matches_plan_execution() {
        use robustq_storage::gen::ssb::SsbGenerator;
        let db = SsbGenerator::new(1).with_rows_per_sf(500).generate();
        let p = plan();
        let direct = crate::ops::execute_plan(&p, &db).unwrap();

        let tasks = flatten(&p);
        let mut outputs: Vec<Option<Chunk>> = vec![None; tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            let children: Vec<Chunk> = t
                .children
                .iter()
                .map(|&c| outputs[c].clone().expect("postorder guarantees children done"))
                .collect();
            outputs[i] = Some(t.op.execute(&children, &db).unwrap());
        }
        let via_tasks = outputs.last().unwrap().clone().unwrap();
        assert_eq!(direct.checksum(), via_tasks.checksum());
        assert_eq!(direct.num_rows(), via_tasks.num_rows());
    }

    #[test]
    fn sharded_scan_merges_byte_identical_to_unsharded() {
        use robustq_storage::gen::ssb::SsbGenerator;
        let db = SsbGenerator::new(1).with_rows_per_sf(500).generate();
        let cols = vec!["lo_orderdate".to_string(), "lo_revenue".into()];
        let ctx = ParallelCtx::serial();
        for predicate in [None, Some(Predicate::between("lo_discount", 1, 3))] {
            let scan = TaskOp::Scan {
                table: "lineorder".into(),
                columns: cols.clone(),
                predicate: predicate.clone(),
            };
            let whole = scan.execute_lazy(&[], &db, ctx).unwrap().materialize();
            for of in [1u32, 2, 3, 5] {
                let shards: Vec<LazyChunk> = (0..of)
                    .map(|index| {
                        TaskOp::ScanShard {
                            table: "lineorder".into(),
                            columns: cols.clone(),
                            predicate: predicate.clone(),
                            shard: ShardSpec { index, of },
                        }
                        .execute_lazy(&[], &db, ctx)
                        .unwrap()
                    })
                    .collect();
                let merged = TaskOp::MergeShards { columns: cols.clone() }
                    .execute_lazy(&shards, &db, ctx)
                    .unwrap()
                    .materialize();
                assert_eq!(merged, whole, "of={of} predicate={predicate:?}");
            }
        }
    }

    #[test]
    fn scans_and_merges_share_the_table_buffers() {
        use robustq_storage::gen::ssb::SsbGenerator;
        let db = SsbGenerator::new(1).with_rows_per_sf(500).generate();
        let t = db.table("lineorder").unwrap();
        let revenue = &t.columns()[t.schema().index_of("lo_revenue").unwrap()];
        let cols = vec!["lo_revenue".to_string()];
        let ctx = ParallelCtx::serial();
        for predicate in [None, Some(Predicate::between("lo_discount", 1, 3))] {
            let scan = TaskOp::Scan {
                table: "lineorder".into(),
                columns: cols.clone(),
                predicate: predicate.clone(),
            };
            let out = scan.execute_lazy(&[], &db, ctx).unwrap();
            assert!(Arc::ptr_eq(&out.parts().0.columns()[0], revenue), "{predicate:?}");
            let shards: Vec<LazyChunk> = (0..2)
                .map(|index| {
                    TaskOp::ScanShard {
                        table: "lineorder".into(),
                        columns: cols.clone(),
                        predicate: predicate.clone(),
                        shard: ShardSpec { index, of: 2 },
                    }
                    .execute_lazy(&[], &db, ctx)
                    .unwrap()
                })
                .collect();
            let merged = TaskOp::MergeShards { columns: cols.clone() }
                .execute_lazy(&shards, &db, ctx)
                .unwrap();
            assert!(matches!(merged, LazyChunk::Filtered { .. }), "merge must not gather");
            assert!(Arc::ptr_eq(&merged.parts().0.columns()[0], revenue));
            assert_eq!(merged.materialize(), out.materialize());
        }
    }

    #[test]
    fn shard_ranges_partition_the_rows() {
        for rows in [0usize, 1, 7, 100] {
            for of in [1u32, 2, 3, 4, 7] {
                let mut covered = 0;
                for index in 0..of {
                    let r = ShardSpec { index, of }.row_range(rows);
                    assert_eq!(r.start, covered);
                    covered = r.end;
                }
                assert_eq!(covered, rows, "rows={rows} of={of}");
            }
        }
    }

    #[test]
    fn scan_access_merges_predicate_columns() {
        let op = TaskOp::Scan {
            table: "t".into(),
            columns: vec!["a".into()],
            predicate: Some(Predicate::eq("b", 1)),
        };
        let (_, cols) = op.scan_access().unwrap();
        assert_eq!(cols, vec!["a".to_string(), "b".into()]);
    }
}

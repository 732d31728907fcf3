//! Pipeline fusion over flattened task graphs.
//!
//! The flattened [`TaskNode`] list makes producer→consumer chains visible
//! by index. This pass recognizes the two chain shapes that dominate the
//! SSB/TPC-H subset —
//!
//! * filter → `Aggregate` (optionally through a `Project`), and
//! * filter → `HashJoin` where the selection feeds the **probe** side,
//!
//! — and runs each as *one fused morsel loop per worker*
//! ([`parallel::fused_filter_aggregate`] /
//! [`parallel::fused_filter_probe`], reusing [`ParallelCtx`]): the filter
//! emits selection-vector positions that are grouped or probed
//! immediately, so the filtered intermediate is never materialized. A
//! "filter" here is either a standalone `Select` task or a
//! predicate-bearing `Scan` (the planner pushes filters into scans, so
//! that is the common case). Everything else executes through the
//! materializing kernels, which makes materialization points explicit:
//! join build sides, sort inputs, projection outputs and the final
//! result.
//!
//! For filter → `Project` → `Aggregate`, the projection is folded away by
//! *expression substitution*: aggregate inputs are rewritten through the
//! projection's expressions and grouping columns are remapped to the base
//! columns they rename (the chain is left unfused if a grouping key is a
//! computed expression). Scan-sourced chains additionally require that
//! every column the consumer reads survives the scan's column pruning, so
//! "no column" errors stay identical to the materializing path. The
//! fused result is bit-identical to the materializing pipeline —
//! positions keep row order, grouping follows first-occurrence order over
//! the selection, and `f64` accumulation runs in selection order.

use crate::batch::Chunk;
use crate::exec::task::{flatten, TaskNode, TaskOp};
use crate::expr::Expr;
use crate::parallel::{self, ParallelCtx};
use crate::plan::{AggSpec, PlanNode};
use crate::predicate::Predicate;
use robustq_storage::{Database, Field};
use std::collections::HashMap;

/// The chain shape a fused site executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// Filter → `Aggregate` as one filter+group morsel loop.
    FilterAggregate,
    /// Filter → `Project` → `Aggregate`, the projection folded into the
    /// aggregate by expression substitution.
    FilterProjectAggregate,
    /// Filter → `HashJoin` (probe side) as one filter+probe morsel loop.
    FilterProbe,
}

/// Fusion decisions for one flattened task list: `(consumer index, kind)`
/// per fused chain, in consumer order.
///
/// A chain is only fused when the intermediate nodes have no other
/// consumer, which the tree shape guarantees (every node has exactly one
/// parent).
pub fn fusion_sites(tasks: &[TaskNode]) -> Vec<(usize, FusedKind)> {
    let mut sites = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        match &t.op {
            TaskOp::Aggregate { group_by, aggs } => {
                let child = t.children[0];
                let mut needed: Vec<String> = group_by.clone();
                for a in aggs {
                    needed.extend(a.input.referenced_columns());
                }
                if source_covers(&tasks[child].op, &needed) {
                    sites.push((i, FusedKind::FilterAggregate));
                } else if let TaskOp::Project { exprs } = &tasks[child].op {
                    let grandchild = tasks[child].children[0];
                    let mut proj_needs = Vec::new();
                    for (_, e) in exprs {
                        proj_needs.extend(e.referenced_columns());
                    }
                    if source_covers(&tasks[grandchild].op, &proj_needs)
                        && project_folds(exprs, group_by, aggs)
                    {
                        sites.push((i, FusedKind::FilterProjectAggregate));
                    }
                }
            }
            TaskOp::HashJoin { .. } => {
                let probe = t.children[1];
                // Scan-sourced probes additionally require the scan to
                // read exactly its kept columns (no predicate-only
                // columns), since the fused join gathers *every* probe
                // column into the output.
                let probe_ok = match &tasks[probe].op {
                    TaskOp::Select { .. } => true,
                    TaskOp::Scan { columns, predicate: Some(p), .. } => {
                        p.referenced_columns().iter().all(|c| columns.contains(c))
                    }
                    _ => false,
                };
                if probe_ok {
                    sites.push((i, FusedKind::FilterProbe));
                }
            }
            _ => {}
        }
    }
    sites
}

/// Is `op` a fusible filter whose *output* is guaranteed to contain every
/// column in `needed`? `Select` passes its input through unchanged, so it
/// always qualifies; a predicate-bearing `Scan` qualifies only when its
/// kept columns cover `needed` (otherwise the materializing path would
/// report "no column" and fusion must not mask that).
fn source_covers(op: &TaskOp, needed: &[String]) -> bool {
    match op {
        TaskOp::Select { .. } => true,
        TaskOp::Scan { columns, predicate: Some(_), .. } => {
            needed.iter().all(|c| columns.contains(c))
        }
        _ => false,
    }
}

/// Can the projection be folded into the aggregate? Grouping keys must be
/// plain column renames (computed group keys would need materialized key
/// columns) and every column an aggregate input reads must be produced by
/// the projection.
fn project_folds(
    exprs: &[(String, Expr)],
    group_by: &[String],
    aggs: &[AggSpec],
) -> bool {
    let map: HashMap<&str, &Expr> =
        exprs.iter().map(|(n, e)| (n.as_str(), e)).collect();
    let group_keys_are_renames = group_by
        .iter()
        .all(|g| matches!(map.get(g.as_str()), Some(Expr::Col(_))));
    let agg_inputs_covered = aggs.iter().all(|a| {
        a.input
            .referenced_columns()
            .iter()
            .all(|c| map.contains_key(c.as_str()))
    });
    group_keys_are_renames && agg_inputs_covered
}

/// Rewrite `e` so every column reference goes through the projection's
/// defining expression. Returns `None` if a referenced column is not
/// produced by the projection (callers then leave the chain unfused).
fn subst(e: &Expr, map: &HashMap<&str, &Expr>) -> Option<Expr> {
    match e {
        Expr::Col(n) => map.get(n.as_str()).map(|&def| def.clone()),
        Expr::Lit(v) => Some(Expr::Lit(*v)),
        Expr::Add(a, b) => {
            Some(Expr::Add(Box::new(subst(a, map)?), Box::new(subst(b, map)?)))
        }
        Expr::Sub(a, b) => {
            Some(Expr::Sub(Box::new(subst(a, map)?), Box::new(subst(b, map)?)))
        }
        Expr::Mul(a, b) => {
            Some(Expr::Mul(Box::new(subst(a, map)?), Box::new(subst(b, map)?)))
        }
        Expr::Div(a, b) => {
            Some(Expr::Div(Box::new(subst(a, map)?), Box::new(subst(b, map)?)))
        }
        Expr::IntDiv(a, d) => Some(Expr::IntDiv(Box::new(subst(a, map)?), *d)),
    }
}

/// Execute a flattened task list with pipeline fusion, returning the root
/// output. Bit-identical to executing every task through the
/// materializing kernels.
pub fn execute_tasks_fused(
    tasks: &[TaskNode],
    db: &Database,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    let sites: HashMap<usize, FusedKind> = fusion_sites(tasks).into_iter().collect();
    // Mark chain interiors so they are skipped (their work happens inside
    // the fused loop at the consumer).
    let mut skip = vec![false; tasks.len()];
    for (&i, &kind) in &sites {
        match kind {
            FusedKind::FilterAggregate => skip[tasks[i].children[0]] = true,
            FusedKind::FilterProjectAggregate => {
                let project = tasks[i].children[0];
                skip[project] = true;
                skip[tasks[project].children[0]] = true;
            }
            FusedKind::FilterProbe => skip[tasks[i].children[1]] = true,
        }
    }

    let mut outputs: Vec<Option<Chunk>> = vec![None; tasks.len()];
    // Every non-root node has exactly one parent, so child outputs can be
    // moved out (`take`) rather than cloned.
    for (i, t) in tasks.iter().enumerate() {
        if skip[i] {
            continue;
        }
        let out = match sites.get(&i) {
            Some(FusedKind::FilterAggregate) => {
                let (input, predicate) =
                    filter_input(tasks, t.children[0], &mut outputs, db)?;
                let (group_by, aggs) = aggregate_spec(&t.op);
                parallel::fused_filter_aggregate(&input, predicate, group_by, aggs, ctx)?
            }
            Some(FusedKind::FilterProjectAggregate) => {
                let project = tasks[i].children[0];
                let (input, predicate) = filter_input(
                    tasks,
                    tasks[project].children[0],
                    &mut outputs,
                    db,
                )?;
                let exprs = match &tasks[project].op {
                    TaskOp::Project { exprs } => exprs,
                    _ => unreachable!("fusion site shape checked"),
                };
                let (group_by, aggs) = aggregate_spec(&t.op);
                let map: HashMap<&str, &Expr> =
                    exprs.iter().map(|(n, e)| (n.as_str(), e)).collect();
                // Remap grouping keys to the base columns they rename and
                // rewrite aggregate inputs through the projection.
                let base_group_by: Vec<String> = group_by
                    .iter()
                    .map(|g| match map.get(g.as_str()) {
                        Some(Expr::Col(base)) => Ok(base.clone()),
                        _ => Err(format!("group key {g} is not a rename")),
                    })
                    .collect::<Result<_, String>>()?;
                let base_aggs: Vec<AggSpec> = aggs
                    .iter()
                    .map(|a| {
                        let input = subst(&a.input, &map).ok_or_else(|| {
                            format!("aggregate input {} not covered", a.input)
                        })?;
                        Ok(AggSpec::new(a.func, input, a.output_name.clone()))
                    })
                    .collect::<Result<_, String>>()?;
                let out = parallel::fused_filter_aggregate(
                    &input,
                    predicate,
                    &base_group_by,
                    &base_aggs,
                    ctx,
                )?;
                // Key columns carry base names; restore the projected ones.
                rename_key_columns(out, group_by)
            }
            Some(FusedKind::FilterProbe) => {
                let build = take_output(&mut outputs, t.children[0]);
                let (probe, predicate) =
                    filter_input(tasks, t.children[1], &mut outputs, db)?;
                let (build_key, probe_key, kind) = match &t.op {
                    TaskOp::HashJoin { build_key, probe_key, kind } => {
                        (build_key, probe_key, *kind)
                    }
                    _ => unreachable!("fusion site shape checked"),
                };
                parallel::fused_filter_probe(
                    &build, &probe, predicate, build_key, probe_key, kind, ctx,
                )?
            }
            None => {
                let children: Vec<Chunk> = t
                    .children
                    .iter()
                    .map(|&c| take_output(&mut outputs, c))
                    .collect();
                t.op.execute_ctx(&children, db, ctx)?
            }
        };
        outputs[i] = Some(out);
    }
    Ok(outputs
        .pop()
        .flatten()
        .expect("root is last in postorder and never skipped"))
}

/// Execute a plan with pipeline fusion (flatten + [`execute_tasks_fused`]).
pub fn execute_plan_fused(
    plan: &PlanNode,
    db: &Database,
    ctx: ParallelCtx,
) -> Result<Chunk, String> {
    execute_tasks_fused(&flatten(plan), db, ctx)
}

/// Resolve a fused chain's filter task to `(unfiltered input, predicate)`:
/// a `Select` contributes its child's output, a predicate-bearing `Scan`
/// loads its table columns directly (the predicate is *not* applied here —
/// that is the fused loop's job).
fn filter_input<'t>(
    tasks: &'t [TaskNode],
    filt: usize,
    outputs: &mut [Option<Chunk>],
    db: &Database,
) -> Result<(Chunk, &'t Predicate), String> {
    match &tasks[filt].op {
        TaskOp::Select { predicate } => {
            Ok((take_output(outputs, tasks[filt].children[0]), predicate))
        }
        TaskOp::Scan { table, predicate: Some(p), .. } => {
            let (_, read_cols) =
                tasks[filt].op.scan_access().expect("scan op has access");
            let t = db.table(table).ok_or_else(|| format!("no table {table}"))?;
            Ok((Chunk::from_table(t, &read_cols)?, p))
        }
        _ => unreachable!("fusion site shape checked"),
    }
}

fn take_output(outputs: &mut [Option<Chunk>], idx: usize) -> Chunk {
    outputs[idx].take().expect("postorder guarantees children done")
}

fn aggregate_spec(op: &TaskOp) -> (&[String], &[AggSpec]) {
    match op {
        TaskOp::Aggregate { group_by, aggs } => (group_by, aggs),
        _ => unreachable!("fusion site shape checked"),
    }
}

/// Rebuild `chunk` with its leading key columns renamed to `names` (the
/// aggregate columns that follow keep their names).
fn rename_key_columns(chunk: Chunk, names: &[String]) -> Chunk {
    let fields: Vec<Field> = chunk
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| match names.get(i) {
            Some(n) => Field::new(n.clone(), f.data_type),
            None => f.clone(),
        })
        .collect();
    Chunk::shared(fields, chunk.columns().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::plan::AggSpec;
    use robustq_storage::gen::ssb::SsbGenerator;

    fn test_ctx(workers: usize) -> ParallelCtx {
        ParallelCtx::serial()
            .with_workers(workers)
            .with_morsel_rows(64)
            .with_min_rows_per_worker(0)
    }

    /// Scan-sourced filter → aggregate (the planner pushes the filter
    /// into the scan).
    fn agg_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue", "lo_discount"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .aggregate(
                ["lo_orderdate"],
                vec![AggSpec::sum(Expr::col("lo_revenue"), "revenue")],
            )
    }

    /// Select-sourced filter → aggregate: the second filter cannot merge
    /// into the scan, so it stays a standalone `Select` task.
    fn select_agg_plan() -> PlanNode {
        PlanNode::scan(
            "lineorder",
            ["lo_orderdate", "lo_revenue", "lo_discount", "lo_quantity"],
        )
        .filter(Predicate::between("lo_discount", 1, 3))
        .filter(Predicate::between("lo_quantity", 1, 25))
        .aggregate([] as [&str; 0], vec![AggSpec::sum(Expr::col("lo_revenue"), "s")])
    }

    fn proj_agg_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue", "lo_discount"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .project(vec![
                ("od".to_string(), Expr::col("lo_orderdate")),
                (
                    "scaled".to_string(),
                    Expr::col("lo_revenue") * Expr::col("lo_discount"),
                ),
            ])
            .aggregate(["od"], vec![AggSpec::sum(Expr::col("scaled"), "s")])
    }

    fn probe_plan() -> PlanNode {
        PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue", "lo_discount"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .join(
                PlanNode::scan("date", ["d_datekey", "d_year"]),
                "lo_orderdate",
                "d_datekey",
            )
    }

    #[test]
    fn recognizes_chain_shapes() {
        for (plan, kind) in [
            (agg_plan(), FusedKind::FilterAggregate),
            (select_agg_plan(), FusedKind::FilterAggregate),
            (proj_agg_plan(), FusedKind::FilterProjectAggregate),
            (probe_plan(), FusedKind::FilterProbe),
        ] {
            let tasks = flatten(&plan);
            assert_eq!(fusion_sites(&tasks), vec![(tasks.len() - 1, kind)], "{plan}");
        }
    }

    #[test]
    fn computed_group_keys_are_not_fused() {
        let plan = PlanNode::scan("lineorder", ["lo_orderdate", "lo_revenue"])
            .filter(Predicate::between("lo_orderdate", 19_940_101, 19_941_231))
            .project(vec![
                ("year".to_string(), Expr::year_of("lo_orderdate")),
                ("r".to_string(), Expr::col("lo_revenue")),
            ])
            .aggregate(["year"], vec![AggSpec::sum(Expr::col("r"), "s")]);
        assert!(fusion_sites(&flatten(&plan)).is_empty());
        // Still executes correctly, just unfused.
        let db = SsbGenerator::new(1).with_rows_per_sf(400).generate();
        let fused = execute_plan_fused(&plan, &db, test_ctx(4)).unwrap();
        let serial = ops::execute_plan(&plan, &db).unwrap();
        assert_eq!(fused, serial);
    }

    #[test]
    fn pruned_scan_columns_block_fusion_and_errors_match() {
        // The aggregate reads a column the scan prunes away: fusion must
        // not rescue the query — the "no column" error is part of the
        // contract with the materializing path.
        let plan = PlanNode::scan("lineorder", ["lo_revenue"])
            .filter(Predicate::between("lo_discount", 1, 3))
            .aggregate(
                [] as [&str; 0],
                vec![AggSpec::sum(Expr::col("lo_discount"), "s")],
            );
        assert!(fusion_sites(&flatten(&plan)).is_empty());
        let db = SsbGenerator::new(1).with_rows_per_sf(200).generate();
        let serial = ops::execute_plan(&plan, &db).unwrap_err();
        let fused = execute_plan_fused(&plan, &db, test_ctx(4)).unwrap_err();
        assert_eq!(fused, serial);
    }

    #[test]
    fn fused_execution_is_bit_identical_to_serial() {
        let db = SsbGenerator::new(1).with_rows_per_sf(600).generate();
        for plan in [agg_plan(), select_agg_plan(), proj_agg_plan(), probe_plan()] {
            let serial = ops::execute_plan(&plan, &db).unwrap();
            for workers in [1, 4, 8] {
                let fused = execute_plan_fused(&plan, &db, test_ctx(workers)).unwrap();
                assert_eq!(fused, serial, "workers={workers} plan={plan}");
            }
        }
    }
}

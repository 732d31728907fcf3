//! Property-based tests for epoch-versioned storage (DESIGN.md §16):
//! incrementally maintained segment statistics match a from-scratch
//! recomputation after any append/seal history, and snapshots are
//! isolated — data visible at an epoch never changes as later batches
//! commit. Window and shard range scans, which read a row range of the
//! shared full-table columns, match a copy of exactly those rows.

use proptest::prelude::*;
use robustq::engine::exec::task::TaskOp;
use robustq::engine::predicate::Predicate;
use robustq::engine::{ops, Chunk, LazyChunk, ParallelCtx, ShardSpec};
use robustq::storage::{
    ColumnData, Database, DataType, DbEpoch, DictColumn, Field, Schema, Table,
};

/// A database with one two-column table built from the first batch, plus
/// the seal threshold under test.
fn seeded_db(first: &[(i32, i64)], seal_rows: usize) -> Database {
    let mut db = Database::new();
    db.set_seal_rows(seal_rows);
    let (a, b): (Vec<i32>, Vec<i64>) = first.iter().copied().unzip();
    db.add_table(
        Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Int64),
            ]),
            vec![ColumnData::Int32(a), ColumnData::Int64(b)],
        )
        .unwrap(),
    )
    .unwrap();
    db
}

fn batch(rows: &[(i32, i64)]) -> Vec<ColumnData> {
    let (a, b): (Vec<i32>, Vec<i64>) = rows.iter().copied().unzip();
    vec![ColumnData::Int32(a), ColumnData::Int64(b)]
}

proptest! {
    /// After any append history (arbitrary batch sizes and seal
    /// thresholds), every segment's incrementally maintained per-column
    /// stats equal a from-scratch recomputation over its rows.
    #[test]
    fn segment_stats_match_recomputation(
        first in prop::collection::vec((-1000i32..1000, -1000i64..1000), 1..40),
        batches in prop::collection::vec(
            prop::collection::vec((-1000i32..1000, -1000i64..1000), 0..30),
            0..6,
        ),
        seal_rows in 1usize..50,
    ) {
        let mut db = seeded_db(&first, seal_rows);
        for rows in &batches {
            db.append_batch("t", batch(rows)).unwrap();
        }
        let table = db.table("t").unwrap();
        let mut covered = 0usize;
        for (i, seg) in table.segments().iter().enumerate() {
            let recomputed = table.recompute_segment_stats(i);
            for (c, want) in recomputed.iter().enumerate() {
                prop_assert_eq!(
                    seg.stats(c),
                    want.clone(),
                    "segment {} column {} stats drifted from recomputation",
                    i, c
                );
            }
            prop_assert_eq!(seg.rows().start, covered, "segment {} not contiguous", i);
            covered = seg.rows().end;
        }
        prop_assert_eq!(covered, table.num_rows(), "segments must tile the table");
    }

    /// Snapshot isolation: the rows visible at any epoch are immutable.
    /// A reader that captured (visible rows, column prefix) at epoch `e`
    /// sees the identical bytes after every later append, and
    /// `snapshot_at(e)` keeps reporting the same visible count.
    #[test]
    fn snapshots_are_isolated_from_later_appends(
        first in prop::collection::vec((-100i32..100, -100i64..100), 1..30),
        before in prop::collection::vec(
            prop::collection::vec((-100i32..100, -100i64..100), 1..20),
            0..4,
        ),
        after in prop::collection::vec(
            prop::collection::vec((-100i32..100, -100i64..100), 1..20),
            1..4,
        ),
        seal_rows in 1usize..40,
    ) {
        let mut db = seeded_db(&first, seal_rows);
        for rows in &before {
            db.append_batch("t", batch(rows)).unwrap();
        }
        let epoch = db.epoch();
        let snap = db.snapshot();
        let t = db.table_position("t").unwrap();
        let visible = snap.visible_rows(t);
        let frozen: Vec<ColumnData> = (0..db.tables()[t].num_columns())
            .map(|c| db.tables()[t].column_slice(c, 0, visible))
            .collect();

        for rows in &after {
            db.append_batch("t", batch(rows)).unwrap();
        }

        // The snapshot's view is bit-identical after every later commit.
        prop_assert_eq!(db.snapshot_at(epoch).visible_rows(t), visible);
        prop_assert_eq!(db.snapshot_at(epoch).epoch(), epoch);
        for (c, want) in frozen.iter().enumerate() {
            let got = db.tables()[t].column_slice(c, 0, visible);
            prop_assert_eq!(
                &got, want,
                "column {} prefix changed under later appends", c
            );
        }
        // And the database itself did advance.
        let appended: usize = after.iter().map(Vec::len).sum();
        prop_assert_eq!(db.tables()[t].num_rows(), visible + appended);
        prop_assert!(db.epoch() > epoch);
    }

    /// The append log is a faithful journal: epochs are dense and
    /// increasing, base rows chain batch to batch, and replaying the log
    /// reproduces every intermediate snapshot's visible count.
    #[test]
    fn append_log_replays_every_snapshot(
        first in prop::collection::vec((-10i32..10, -10i64..10), 1..20),
        batches in prop::collection::vec(
            prop::collection::vec((-10i32..10, -10i64..10), 1..15),
            1..6,
        ),
    ) {
        let mut db = seeded_db(&first, 25);
        for rows in &batches {
            db.append_batch("t", batch(rows)).unwrap();
        }
        let t = db.table_position("t").unwrap();
        let mut visible = first.len();
        for (i, rec) in db.append_log().iter().enumerate() {
            prop_assert_eq!(rec.epoch, i as u64 + 1, "epochs must be dense");
            prop_assert_eq!(rec.table, t);
            prop_assert_eq!(rec.base_rows, visible, "base rows must chain");
            visible += rec.rows;
            prop_assert_eq!(
                db.snapshot_at(DbEpoch(rec.epoch)).visible_rows(t),
                visible
            );
        }
        prop_assert_eq!(visible, db.tables()[t].num_rows());
    }
}

/// A three-column table (`a` Int32, `b` Int64, `s` Str) built from the
/// first batch and grown by `batches`, sealing every `seal_rows` rows.
fn segmented_db(
    first: &[(i32, i64)],
    batches: &[Vec<(i32, i64)>],
    seal_rows: usize,
) -> Database {
    let cols = |rows: &[(i32, i64)]| {
        let (a, b): (Vec<i32>, Vec<i64>) = rows.iter().copied().unzip();
        let s = DictColumn::from_strings(a.iter().map(|v| format!("k{}", v.rem_euclid(4))));
        vec![ColumnData::Int32(a), ColumnData::Int64(b), ColumnData::Str(s)]
    };
    let mut db = Database::new();
    db.set_seal_rows(seal_rows);
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int32),
        Field::new("b", DataType::Int64),
        Field::new("s", DataType::Str),
    ]);
    db.add_table(Table::new("t", schema, cols(first)).unwrap()).unwrap();
    for rows in batches {
        db.append_batch("t", cols(rows)).unwrap();
    }
    db
}

/// The copying range scan the executor used before scans shared the
/// table's columns: copy rows `[lo, hi)` of the read columns out with
/// `Table::column_slice`, filter with the scalar reference selection,
/// then keep `out`.
fn copied_range_scan(
    table: &Table,
    read: &[String],
    out: &[String],
    predicate: Option<&Predicate>,
    lo: usize,
    hi: usize,
) -> Chunk {
    let idx: Vec<usize> =
        read.iter().map(|n| table.schema().index_of(n).unwrap()).collect();
    let chunk = Chunk::new(
        idx.iter().map(|&i| table.schema().field(i).clone()).collect(),
        idx.iter().map(|&i| table.column_slice(i, lo, hi)).collect(),
    );
    let chunk = match predicate {
        Some(p) => ops::select::select(&chunk, p).unwrap(),
        None => chunk,
    };
    ops::project::keep_columns(&chunk, out).unwrap()
}

/// Assert a lazy scan output is logically and physically the reference.
fn assert_same(got: LazyChunk, want: &Chunk, what: &str) {
    assert_eq!(got.num_rows(), want.num_rows(), "{what} rows");
    assert_eq!(got.byte_size(), want.byte_size(), "{what} bytes");
    assert_eq!(&got.materialize(), want, "{what} payload");
}

proptest! {
    /// Window and shard range scans over the shared full-table columns
    /// materialize byte-identical to copying the window's rows out, with
    /// the same logical `num_rows`/`byte_size` (what the cost model and
    /// traces consume): empty, segment-boundary, cross-segment and
    /// full-table windows, with and without a predicate, at shard counts
    /// 1–3, serial and morsel-parallel.
    #[test]
    fn range_scans_match_copied_rows(
        first in prop::collection::vec((-8i32..8, -100i64..100), 1..30),
        batches in prop::collection::vec(
            prop::collection::vec((-8i32..8, -100i64..100), 1..20),
            0..4,
        ),
        seal_rows in 3usize..25,
        cut in (0usize..200, 0usize..200),
    ) {
        let db = segmented_db(&first, &batches, seal_rows);
        let table = db.table("t").unwrap();
        let n = table.num_rows();
        let mut windows = vec![(0, 0), (n, n), (0, n)];
        let segs: Vec<_> = table.segments().iter().map(|s| s.rows()).collect();
        for a in &segs {
            windows.push((a.start, a.start));
            for b in segs.iter().filter(|b| b.end >= a.start) {
                windows.push((a.start, b.end));
            }
        }
        let (x, y) = (cut.0 % (n + 1), cut.1 % (n + 1));
        windows.push((x.min(y), x.max(y)));

        let out = vec!["b".to_string(), "s".into()];
        let predicates = [
            None,
            Some(Predicate::between("a", -3, 3)),
            Some(Predicate::eq("s", "k1")),
        ];
        let parallel = ParallelCtx::serial()
            .with_workers(2)
            .with_morsel_rows(4)
            .with_min_rows_per_worker(0);
        for ctx in [ParallelCtx::serial(), parallel] {
            for predicate in &predicates {
                let scan = TaskOp::Scan {
                    table: "t".into(),
                    columns: out.clone(),
                    predicate: predicate.clone(),
                };
                let (_, read) = scan.scan_access().unwrap();
                for &(lo, hi) in &windows {
                    let window = Some(("t", lo, hi));
                    let want = copied_range_scan(table, &read, &out, predicate.as_ref(), lo, hi);
                    let got = scan.execute_windowed(&[], &db, ctx, window).unwrap();
                    assert_same(got, &want, &format!("scan {lo}..{hi} {predicate:?}"));
                    for of in 1..=3u32 {
                        let shards: Vec<LazyChunk> = (0..of)
                            .map(|index| {
                                let shard = ShardSpec { index, of };
                                let op = TaskOp::ScanShard {
                                    table: "t".into(),
                                    columns: out.clone(),
                                    predicate: predicate.clone(),
                                    shard,
                                };
                                let got = op.execute_windowed(&[], &db, ctx, window).unwrap();
                                // A shard's logical output is its slice of
                                // the window over all read columns.
                                let r = shard.row_range(hi - lo);
                                let want = copied_range_scan(
                                    table,
                                    &read,
                                    &read,
                                    predicate.as_ref(),
                                    lo + r.start,
                                    lo + r.end,
                                );
                                assert_same(got.clone(), &want, &format!("shard {index}/{of}"));
                                got
                            })
                            .collect();
                        let merged = TaskOp::MergeShards { columns: out.clone() }
                            .execute_windowed(&shards, &db, ctx, window)
                            .unwrap();
                        assert_same(merged, &want, &format!("merge of {of} over {lo}..{hi}"));
                    }
                }
            }
        }
    }
}

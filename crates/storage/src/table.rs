//! Tables and schemas.
//!
//! Tables are append-oriented: rows land in an *open* segment that is
//! sealed once it reaches the seal threshold. Per-segment min/max stats
//! are maintained incrementally while a segment is open and recomputed
//! exactly when it seals, so sealed stats are never stale. A table built
//! via [`Table::new`] starts with a single sealed segment covering all
//! of its initial rows — a never-appended table is indistinguishable
//! from the pre-segmentation layout.

use crate::column::ColumnData;
use crate::error::StorageError;
use crate::types::DataType;
use std::ops::Range;
use std::sync::Arc;

/// Default open-segment size (rows) after which [`Table::append_batch`]
/// seals the segment.
pub const DEFAULT_SEAL_ROWS: usize = 1 << 16;

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// A field with the given name and type.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// A schema over the given fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }
}

/// Per-column min/max over one segment, in the numeric `get_f64` view
/// (strings contribute their dictionary codes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColStats {
    /// Smallest value in the segment.
    pub min: f64,
    /// Largest value in the segment.
    pub max: f64,
}

/// Metadata for one row-range segment of a table.
///
/// Segments are pure metadata over the consolidated column vectors: the
/// physical layout stays one dense vector per column, so scans and
/// chunk construction are unchanged. This mirrors row groups in
/// column stores — the segment carries the row range, seal state, the
/// epoch of the last append that touched it, and per-column stats.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    start: usize,
    end: usize,
    sealed: bool,
    epoch: u64,
    stats: Vec<Option<ColStats>>,
}

impl SegmentMeta {
    /// The row range this segment covers.
    pub fn rows(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Number of rows in the segment.
    pub fn num_rows(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment is sealed (immutable; stats are exact).
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Epoch of the last append that touched this segment (0 for rows
    /// present at table construction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Min/max stats for column `i`, if the segment is non-empty.
    pub fn stats(&self, i: usize) -> Option<ColStats> {
        self.stats.get(i).copied().flatten()
    }

    /// True if the segment's row range intersects `[lo, hi)`.
    pub fn overlaps(&self, lo: usize, hi: usize) -> bool {
        self.start < hi && lo < self.end
    }
}

/// A fully materialized table: a schema plus one column per field.
///
/// Columns sit behind [`Arc`]s so scans hand them to query chunks by
/// reference count instead of copying payloads. Appends are
/// copy-on-write ([`Arc::make_mut`]): a chunk still holding a column
/// keeps its pre-append snapshot while the table grows a fresh copy.
///
/// Invariant: all columns have the same number of rows and each column's
/// type matches its schema field. Segment metadata partitions the row
/// space: segments are contiguous, non-overlapping, and cover exactly
/// `[0, num_rows)`; at most the last segment is open.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<ColumnData>>,
    segments: Vec<SegmentMeta>,
}

impl Table {
    /// Build a table, validating the schema/column invariants.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ColumnData>,
    ) -> Result<Self, StorageError> {
        let name = name.into();
        if schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch {
                table: name,
                detail: format!(
                    "{} fields but {} columns",
                    schema.len(),
                    columns.len()
                ),
            });
        }
        let mut rows: Option<usize> = None;
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(StorageError::SchemaMismatch {
                    table: name,
                    detail: format!(
                        "field {} declared {} but column is {}",
                        f.name,
                        f.data_type,
                        c.data_type()
                    ),
                });
            }
            match rows {
                None => rows = Some(c.len()),
                Some(r) if r != c.len() => {
                    return Err(StorageError::SchemaMismatch {
                        table: name,
                        detail: format!(
                            "column {} has {} rows, expected {}",
                            f.name,
                            c.len(),
                            r
                        ),
                    });
                }
                _ => {}
            }
        }
        let rows = rows.unwrap_or(0);
        let columns: Vec<Arc<ColumnData>> = columns.into_iter().map(Arc::new).collect();
        let mut segments = Vec::new();
        if rows > 0 {
            segments.push(SegmentMeta {
                start: 0,
                end: rows,
                sealed: true,
                epoch: 0,
                stats: compute_stats(&columns, 0, rows),
            });
        }
        Ok(Table { name, schema, columns, segments })
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column data, in schema order. Cloning an entry is a
    /// reference-count bump, which is how scans read the table without
    /// copying.
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.schema.index_of(name).map(|i| &*self.columns[i])
    }

    /// Column by positional index.
    pub fn column_at(&self, i: usize) -> &ColumnData {
        &self.columns[i]
    }

    /// Total payload bytes across all columns.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// The segment metadata, in row order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Segments whose row range intersects `[lo, hi)` — the pruning
    /// primitive window-scoped scans use.
    pub fn segments_overlapping(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().filter(move |s| s.overlaps(lo, hi))
    }

    /// Append a batch of rows (one column per field, same shape rules as
    /// [`Table::new`]). Rows land in the open segment — created if the
    /// last segment is sealed — whose stats are updated incrementally;
    /// once the open segment reaches `seal_rows` rows it is sealed and
    /// its stats recomputed exactly from the stored rows. `epoch` is the
    /// database epoch this append commits under. Columns still shared
    /// with a query chunk are copied before they grow, so the chunk keeps
    /// its snapshot. Returns the number of rows appended.
    pub fn append_batch(
        &mut self,
        columns: Vec<ColumnData>,
        epoch: u64,
        seal_rows: usize,
    ) -> Result<usize, StorageError> {
        if self.schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                detail: format!(
                    "append batch has {} columns, schema has {}",
                    columns.len(),
                    self.schema.len()
                ),
            });
        }
        let mut rows: Option<usize> = None;
        for (f, c) in self.schema.fields().iter().zip(&columns) {
            if f.data_type != c.data_type() {
                return Err(StorageError::SchemaMismatch {
                    table: self.name.clone(),
                    detail: format!(
                        "append field {} declared {} but column is {}",
                        f.name,
                        f.data_type,
                        c.data_type()
                    ),
                });
            }
            match rows {
                None => rows = Some(c.len()),
                Some(r) if r != c.len() => {
                    return Err(StorageError::SchemaMismatch {
                        table: self.name.clone(),
                        detail: format!(
                            "append column {} has {} rows, expected {}",
                            f.name,
                            c.len(),
                            r
                        ),
                    });
                }
                _ => {}
            }
        }
        let batch_rows = rows.unwrap_or(0);
        if batch_rows == 0 {
            return Ok(0);
        }
        let old_rows = self.num_rows();
        for (base, batch) in self.columns.iter_mut().zip(&columns) {
            Arc::make_mut(base).append(batch);
        }
        let new_rows = old_rows + batch_rows;
        // Stats for the appended rows, read back from the consolidated
        // columns so string codes reflect the (possibly grown) base dict.
        let batch_stats = compute_stats(&self.columns, old_rows, new_rows);
        match self.segments.last_mut() {
            Some(open) if !open.sealed => {
                open.end = new_rows;
                open.epoch = epoch;
                for (s, b) in open.stats.iter_mut().zip(&batch_stats) {
                    *s = merge_stats(*s, *b);
                }
            }
            _ => self.segments.push(SegmentMeta {
                start: old_rows,
                end: new_rows,
                sealed: false,
                epoch,
                stats: batch_stats,
            }),
        }
        let open = self.segments.last().expect("open segment exists");
        if open.num_rows() >= seal_rows {
            self.seal_open();
        }
        Ok(batch_rows)
    }

    /// Seal the open segment, if any, recomputing its stats exactly.
    pub fn seal_open(&mut self) {
        if let Some(open) = self.segments.last_mut() {
            if !open.sealed {
                open.stats = compute_stats(&self.columns, open.start, open.end);
                open.sealed = true;
            }
        }
    }

    /// Recompute the stats of segment `i` from the stored rows — the
    /// from-scratch reference the property tests compare incremental
    /// maintenance against.
    pub fn recompute_segment_stats(&self, i: usize) -> Vec<Option<ColStats>> {
        let s = &self.segments[i];
        compute_stats(&self.columns, s.start, s.end)
    }

    /// Rows `lo..hi` of column `i` as a new column (string slices share
    /// the base dictionary).
    pub fn column_slice(&self, i: usize, lo: usize, hi: usize) -> ColumnData {
        self.columns[i].slice(lo, hi)
    }
}

/// Per-column min/max over rows `[lo, hi)` of `columns`.
fn compute_stats(
    columns: &[Arc<ColumnData>],
    lo: usize,
    hi: usize,
) -> Vec<Option<ColStats>> {
    columns
        .iter()
        .map(|c| {
            if hi <= lo {
                return None;
            }
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for i in lo..hi {
                let v = c.get_f64(i);
                min = min.min(v);
                max = max.max(v);
            }
            Some(ColStats { min, max })
        })
        .collect()
}

fn merge_stats(a: Option<ColStats>, b: Option<ColStats>) -> Option<ColStats> {
    match (a, b) {
        (Some(a), Some(b)) => {
            Some(ColStats { min: a.min.min(b.min), max: a.max.max(b.max) })
        }
        (s, None) | (None, s) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int32),
            Field::new("v", DataType::Float64),
        ]);
        Table::new(
            "t",
            schema,
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Float64(vec![0.1, 0.2, 0.3]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let t = two_col_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.schema().index_of("v"), Some(1));
        assert!(t.column("k").is_some());
        assert!(t.column("missing").is_none());
        assert_eq!(t.byte_size(), 3 * 4 + 3 * 8);
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int32),
            Field::new("b", DataType::Int32),
        ]);
        let err = Table::new(
            "bad",
            schema,
            vec![ColumnData::Int32(vec![1]), ColumnData::Int32(vec![1, 2])],
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn rejects_type_mismatch() {
        let schema = Schema::new(vec![Field::new("a", DataType::Float64)]);
        let err =
            Table::new("bad", schema, vec![ColumnData::Int32(vec![1])]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn rejects_column_count_mismatch() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int32)]);
        let err = Table::new("bad", schema, vec![]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn empty_table_has_zero_rows() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int32)]);
        let t = Table::new("e", schema, vec![ColumnData::Int32(vec![])]).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.byte_size(), 0);
        assert!(t.segments().is_empty());
    }

    #[test]
    fn new_table_is_one_sealed_epoch0_segment() {
        let t = two_col_table();
        assert_eq!(t.segments().len(), 1);
        let s = &t.segments()[0];
        assert_eq!(s.rows(), 0..3);
        assert!(s.is_sealed());
        assert_eq!(s.epoch(), 0);
        let k = s.stats(0).unwrap();
        assert_eq!((k.min, k.max), (1.0, 3.0));
        let v = s.stats(1).unwrap();
        assert_eq!((v.min, v.max), (0.1, 0.3));
    }

    #[test]
    fn append_opens_then_seals_segments() {
        let mut t = two_col_table();
        t.append_batch(
            vec![
                ColumnData::Int32(vec![10, -4]),
                ColumnData::Float64(vec![9.0, 0.01]),
            ],
            1,
            4,
        )
        .unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.segments().len(), 2);
        let open = &t.segments()[1];
        assert_eq!(open.rows(), 3..5);
        assert!(!open.is_sealed());
        assert_eq!(open.epoch(), 1);
        let k = open.stats(0).unwrap();
        assert_eq!((k.min, k.max), (-4.0, 10.0));
        // Second append crosses the 4-row seal threshold.
        t.append_batch(
            vec![
                ColumnData::Int32(vec![7, 7]),
                ColumnData::Float64(vec![1.0, 2.0]),
            ],
            2,
            4,
        )
        .unwrap();
        assert_eq!(t.segments().len(), 2);
        let sealed = &t.segments()[1];
        assert!(sealed.is_sealed());
        assert_eq!(sealed.rows(), 3..7);
        assert_eq!(sealed.epoch(), 2);
        assert_eq!(sealed.stats.clone(), t.recompute_segment_stats(1));
        // Next append opens a fresh segment.
        t.append_batch(
            vec![ColumnData::Int32(vec![0]), ColumnData::Float64(vec![0.0])],
            3,
            4,
        )
        .unwrap();
        assert_eq!(t.segments().len(), 3);
        assert!(!t.segments()[2].is_sealed());
    }

    #[test]
    fn append_rejects_shape_mismatches() {
        let mut t = two_col_table();
        assert!(t
            .append_batch(vec![ColumnData::Int32(vec![1])], 1, 16)
            .is_err());
        assert!(t
            .append_batch(
                vec![
                    ColumnData::Int32(vec![1]),
                    ColumnData::Int32(vec![2]), // wrong type
                ],
                1,
                16
            )
            .is_err());
        assert!(t
            .append_batch(
                vec![
                    ColumnData::Int32(vec![1]),
                    ColumnData::Float64(vec![1.0, 2.0]), // wrong rows
                ],
                1,
                16
            )
            .is_err());
        // Failed appends leave the table untouched.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.segments().len(), 1);
    }

    #[test]
    fn string_appends_remap_into_base_dictionary() {
        use crate::column::DictColumn;
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let base = DictColumn::from_strings(["ASIA", "EUROPE"]);
        let mut t =
            Table::new("t", schema, vec![ColumnData::Str(base)]).unwrap();
        let prefix_codes = match t.column_at(0) {
            ColumnData::Str(d) => d.codes().to_vec(),
            _ => unreachable!(),
        };
        let batch = DictColumn::from_strings(["EUROPE", "MARS", "ASIA"]);
        t.append_batch(vec![ColumnData::Str(batch)], 1, 1 << 20).unwrap();
        let d = match t.column_at(0) {
            ColumnData::Str(d) => d,
            _ => unreachable!(),
        };
        // Prefix codes are byte-identical; new rows reuse existing codes
        // and extend the dict only for unseen strings.
        assert_eq!(&d.codes()[..2], &prefix_codes[..]);
        assert_eq!(d.get(2), "EUROPE");
        assert_eq!(d.get(3), "MARS");
        assert_eq!(d.get(4), "ASIA");
        assert_eq!(d.dict().len(), 3);
        assert_eq!(d.codes()[2], prefix_codes[1]);
        assert_eq!(d.codes()[4], prefix_codes[0]);
    }

    #[test]
    fn segment_pruning_by_row_range() {
        let mut t = two_col_table();
        t.append_batch(
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Float64(vec![1.0, 2.0, 3.0]),
            ],
            1,
            3,
        )
        .unwrap();
        assert_eq!(t.segments().len(), 2);
        let hit: Vec<_> =
            t.segments_overlapping(4, 6).map(|s| s.rows()).collect();
        assert_eq!(hit, vec![3..6]);
        let all: Vec<_> =
            t.segments_overlapping(0, 6).map(|s| s.rows()).collect();
        assert_eq!(all, vec![0..3, 3..6]);
        assert!(t.segments_overlapping(6, 9).next().is_none());
    }
}

//! Materialized intermediate results and selection vectors.
//!
//! A [`Chunk`] is what flows between operators: a set of named, typed,
//! equal-length columns. Columns are shared buffers (`Arc<ColumnData>`):
//! a scan hands the table's own columns to its chunk, and projecting or
//! cloning a chunk bumps reference counts instead of copying payloads.
//! The kernels pass a `(Chunk, Option<&SelVec>)` pair — the base columns
//! untouched plus a [`SelVec`] of qualifying row positions — and only
//! pipeline breakers (join build sides, sort, final output) materialize.
//! [`LazyChunk`] is the operator-output form carrying either
//! representation.

use robustq_storage::{ColumnData, DataType, Field, Table, Value};
use std::sync::Arc;

/// A selection vector: qualifying row positions of a base [`Chunk`], as
/// `u32`, strictly increasing.
///
/// Passing positions instead of copied rows is the MonetDB/X100-style
/// late-materialization device: a filter produces a `SelVec`, downstream
/// operators read the base columns *through* it, and row order (hence
/// bit-identical results) is preserved because positions stay sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelVec(Vec<u32>);

impl SelVec {
    /// Wrap a position list. Positions must be strictly increasing (this
    /// is what preserves row order); checked in debug builds.
    pub fn new(positions: Vec<u32>) -> Self {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "selection vector positions must be strictly increasing"
        );
        SelVec(positions)
    }

    /// The identity selection `0..n` (used when a dense input enters a
    /// position-based kernel).
    pub fn all(n: usize) -> Self {
        SelVec((0..n as u32).collect())
    }

    /// An empty selection.
    pub fn empty() -> Self {
        SelVec(Vec::new())
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The positions, in increasing order.
    pub fn positions(&self) -> &[u32] {
        &self.0
    }

    /// The underlying position vector.
    pub fn into_positions(self) -> Vec<u32> {
        self.0
    }
}

impl From<Vec<u32>> for SelVec {
    fn from(positions: Vec<u32>) -> Self {
        SelVec::new(positions)
    }
}

/// An operator output that may still be unmaterialized.
///
/// `Filtered` is a base chunk plus a selection vector: logically it *is*
/// the gathered chunk (same rows, same order, same logical byte size), but
/// no column data has been copied yet. Consumers that understand selection
/// vectors (selection refinement, join probe, aggregation, projection)
/// read through it; everything else calls [`LazyChunk::chunk`] /
/// [`LazyChunk::materialize`] at a pipeline breaker.
#[derive(Debug, Clone)]
pub enum LazyChunk {
    /// A fully materialized chunk.
    Materialized(Chunk),
    /// A base chunk viewed through a selection vector.
    Filtered {
        /// The unfiltered base columns (shared, never copied).
        base: Arc<Chunk>,
        /// Qualifying positions into `base`.
        sel: SelVec,
    },
}

impl LazyChunk {
    /// View `base` through `sel` without copying. A zero-column base stays
    /// materialized: such a chunk reports zero rows (row counts come from
    /// the first column), and the view must report exactly the rows its
    /// gather would.
    pub fn filtered(base: Chunk, sel: SelVec) -> Self {
        if base.num_columns() == 0 {
            return LazyChunk::Materialized(base);
        }
        LazyChunk::Filtered { base: Arc::new(base), sel }
    }

    /// Logical number of rows (selected rows for `Filtered`).
    pub fn num_rows(&self) -> usize {
        match self {
            LazyChunk::Materialized(c) => c.num_rows(),
            LazyChunk::Filtered { sel, .. } => sel.len(),
        }
    }

    /// Logical payload bytes: exactly what the materialized equivalent
    /// would report, so the simulator's transfer/footprint accounting is
    /// unchanged by late materialization.
    pub fn byte_size(&self) -> u64 {
        match self {
            LazyChunk::Materialized(c) => c.byte_size(),
            LazyChunk::Filtered { base, sel } => {
                let row_width: u64 = base
                    .fields()
                    .iter()
                    .map(|f| f.data_type.byte_width() as u64)
                    .sum();
                sel.len() as u64 * row_width
            }
        }
    }

    /// The base chunk and optional selection vector, for kernels that
    /// accept `(Chunk, Option<&SelVec>)`.
    pub fn parts(&self) -> (&Chunk, Option<&SelVec>) {
        match self {
            LazyChunk::Materialized(c) => (c, None),
            LazyChunk::Filtered { base, sel } => (base, Some(sel)),
        }
    }

    /// Materialize into an owned chunk (one gather for `Filtered`).
    pub fn materialize(self) -> Chunk {
        match self {
            LazyChunk::Materialized(c) => c,
            LazyChunk::Filtered { base, sel } => base.gather(sel.positions()),
        }
    }

    /// Materialized view without consuming (`Materialized` shares its
    /// column buffers).
    pub fn chunk(&self) -> Chunk {
        match self {
            LazyChunk::Materialized(c) => c.clone(),
            LazyChunk::Filtered { base, sel } => base.gather(sel.positions()),
        }
    }
}

impl From<Chunk> for LazyChunk {
    fn from(c: Chunk) -> Self {
        LazyChunk::Materialized(c)
    }
}

/// A fully materialized intermediate result over shared column buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    fields: Vec<Field>,
    columns: Vec<Arc<ColumnData>>,
}

impl Chunk {
    /// Build a chunk; panics (debug) if lengths are inconsistent.
    pub fn new(fields: Vec<Field>, columns: Vec<ColumnData>) -> Self {
        Chunk::shared(fields, columns.into_iter().map(Arc::new).collect())
    }

    /// Build a chunk over already-shared column buffers (no copy).
    pub fn shared(fields: Vec<Field>, columns: Vec<Arc<ColumnData>>) -> Self {
        debug_assert_eq!(fields.len(), columns.len());
        debug_assert!(
            columns.windows(2).all(|w| w[0].len() == w[1].len()),
            "all chunk columns must have equal length"
        );
        debug_assert!(fields
            .iter()
            .zip(&columns)
            .all(|(f, c)| f.data_type == c.data_type()));
        Chunk { fields, columns }
    }

    /// An empty, zero-column chunk.
    pub fn empty() -> Self {
        Chunk { fields: Vec::new(), columns: Vec::new() }
    }

    /// Selected columns of a base table as a chunk sharing the table's
    /// column buffers (no payload is copied).
    ///
    /// Column order follows `columns`; unknown names are an error.
    pub fn from_table(table: &Table, columns: &[String]) -> Result<Self, String> {
        let mut fields = Vec::with_capacity(columns.len());
        let mut data = Vec::with_capacity(columns.len());
        for name in columns {
            let idx = table
                .schema()
                .index_of(name)
                .ok_or_else(|| format!("no column {name} in table {}", table.name()))?;
            fields.push(table.schema().field(idx).clone());
            data.push(Arc::clone(&table.columns()[idx]));
        }
        Ok(Chunk { fields, columns: data })
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The column data, in field order (shared buffers).
    pub fn columns(&self) -> &[Arc<ColumnData>] {
        &self.columns
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Payload bytes over all columns — the footprint/transfer unit.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.index_of(name).map(|i| &*self.columns[i])
    }

    /// Column by name, with a descriptive error.
    pub fn require_column(&self, name: &str) -> Result<&ColumnData, String> {
        self.column(name).ok_or_else(|| {
            format!(
                "no column {name} in chunk (have: {})",
                self.fields
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// Type of the column named `name`.
    pub fn column_type(&self, name: &str) -> Option<DataType> {
        self.index_of(name).map(|i| self.fields[i].data_type)
    }

    /// Gather the given row positions (`u32`, selection-vector form) from
    /// every column.
    pub fn gather(&self, positions: &[u32]) -> Chunk {
        Chunk {
            fields: self.fields.clone(),
            columns: self.columns.iter().map(|c| Arc::new(c.gather(positions))).collect(),
        }
    }

    /// Concatenate the columns of two chunks side by side (used by joins).
    ///
    /// Duplicate names on the right side are suffixed with `_r`.
    pub fn zip(mut self, right: Chunk) -> Chunk {
        for (mut f, c) in right.fields.into_iter().zip(right.columns) {
            if self.index_of(&f.name).is_some() {
                f.name.push_str("_r");
            }
            self.fields.push(f);
            self.columns.push(c);
        }
        self
    }

    /// Concatenate chunks with identical schemas row-wise.
    ///
    /// Dictionary columns are rebuilt (each part has its own dictionary).
    /// Returns an error on empty input or schema mismatch.
    pub fn concat(parts: &[Chunk]) -> Result<Chunk, String> {
        let first = parts.first().ok_or("concat of zero chunks")?;
        for p in &parts[1..] {
            if p.fields() != first.fields() {
                return Err(format!(
                    "schema mismatch in concat: {:?} vs {:?}",
                    p.fields(),
                    first.fields()
                ));
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for c in 0..first.num_columns() {
            let col = match &*first.columns[c] {
                ColumnData::Int32(_) => ColumnData::Int32(
                    parts
                        .iter()
                        .flat_map(|p| match &*p.columns[c] {
                            ColumnData::Int32(v) => v.iter().copied(),
                            _ => unreachable!("schemas checked"),
                        })
                        .collect(),
                ),
                ColumnData::Int64(_) => ColumnData::Int64(
                    parts
                        .iter()
                        .flat_map(|p| match &*p.columns[c] {
                            ColumnData::Int64(v) => v.iter().copied(),
                            _ => unreachable!("schemas checked"),
                        })
                        .collect(),
                ),
                ColumnData::Float64(_) => ColumnData::Float64(
                    parts
                        .iter()
                        .flat_map(|p| match &*p.columns[c] {
                            ColumnData::Float64(v) => v.iter().copied(),
                            _ => unreachable!("schemas checked"),
                        })
                        .collect(),
                ),
                ColumnData::Str(_) => {
                    let strings = parts.iter().flat_map(|p| match &*p.columns[c] {
                        ColumnData::Str(d) => {
                            (0..d.len()).map(move |i| d.get(i).to_owned())
                        }
                        _ => unreachable!("schemas checked"),
                    });
                    ColumnData::Str(robustq_storage::DictColumn::from_strings(strings))
                }
            };
            columns.push(Arc::new(col));
        }
        Ok(Chunk { fields: first.fields.clone(), columns })
    }

    /// One row as values (for result checks and display).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// All rows as value vectors, sorted lexicographically by display form.
    ///
    /// Useful for order-insensitive result comparison in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.num_rows()).map(|i| self.row(i)).collect();
        rows.sort_by_key(|r| r.iter().map(Value::to_string).collect::<Vec<_>>());
        rows
    }

    /// A cheap order-insensitive checksum of the chunk's contents.
    pub fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for i in 0..self.num_rows() {
            let mut row_hash = 0xcbf2_9ce4_8422_2325u64;
            for c in &self.columns {
                row_hash = row_hash
                    .rotate_left(13)
                    .wrapping_mul(0x1000_0000_01b3)
                    .wrapping_add(c.key_at(i));
            }
            acc = acc.wrapping_add(row_hash);
        }
        acc ^ (self.num_rows() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustq_storage::{DictColumn, Schema};

    fn chunk() -> Chunk {
        Chunk::new(
            vec![
                Field::new("k", DataType::Int32),
                Field::new("s", DataType::Str),
            ],
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Str(DictColumn::from_strings(["a", "b", "c"])),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let c = chunk();
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.num_columns(), 2);
        assert_eq!(c.byte_size(), 12 + 12);
        assert_eq!(c.column_type("k"), Some(DataType::Int32));
        assert!(c.column("missing").is_none());
        assert!(c.require_column("missing").is_err());
    }

    #[test]
    fn from_table_projects_columns() {
        let t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Float64),
            ]),
            vec![
                ColumnData::Int32(vec![1, 2]),
                ColumnData::Float64(vec![0.5, 1.5]),
            ],
        )
        .unwrap();
        let c = Chunk::from_table(&t, &["b".into()]).unwrap();
        assert_eq!(c.num_columns(), 1);
        assert_eq!(c.column("b").unwrap(), t.column("b").unwrap());
        assert!(Chunk::from_table(&t, &["zz".into()]).is_err());
    }

    fn table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int32),
                Field::new("s", DataType::Str),
            ]),
            vec![
                ColumnData::Int32(vec![1, 2, 3]),
                ColumnData::Str(DictColumn::from_strings(["x", "y", "x"])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_table_and_keep_columns_share_table_buffers() {
        let t = table();
        let c = Chunk::from_table(&t, &["s".into(), "a".into()]).unwrap();
        assert!(Arc::ptr_eq(&c.columns()[0], &t.columns()[1]));
        assert!(Arc::ptr_eq(&c.columns()[1], &t.columns()[0]));
        let kept = crate::ops::project::keep_columns(&c, &["a".into()]).unwrap();
        assert!(Arc::ptr_eq(&kept.columns()[0], &t.columns()[0]));
        // Cloning a chunk, materialized or lazy, shares buffers too.
        let lazy = LazyChunk::Materialized(kept).clone();
        assert!(Arc::ptr_eq(&lazy.parts().0.columns()[0], &t.columns()[0]));
    }

    #[test]
    fn append_copies_on_write_under_a_live_chunk() {
        let mut t = table();
        let c = Chunk::from_table(&t, &["a".into(), "s".into()]).unwrap();
        let before = c.clone();
        t.append_batch(
            vec![
                ColumnData::Int32(vec![4]),
                ColumnData::Str(DictColumn::from_strings(["z"])),
            ],
            1,
            1 << 10,
        )
        .unwrap();
        // The chunk keeps its snapshot; the table grew a fresh copy.
        assert_eq!(c, before);
        assert_eq!(c.num_rows(), 3);
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.column("a").unwrap(), &ColumnData::Int32(vec![1, 2, 3, 4]));
        assert!(!Arc::ptr_eq(&c.columns()[0], &t.columns()[0]));
        // With no chunk holding it, an append grows the buffer in place.
        let ptr = Arc::as_ptr(&t.columns()[0]);
        drop((c, before));
        t.append_batch(
            vec![
                ColumnData::Int32(vec![5]),
                ColumnData::Str(DictColumn::from_strings(["x"])),
            ],
            2,
            1 << 10,
        )
        .unwrap();
        assert_eq!(Arc::as_ptr(&t.columns()[0]), ptr);
    }

    #[test]
    fn filtered_view_of_zero_columns_stays_materialized() {
        let v = LazyChunk::filtered(Chunk::empty(), SelVec::all(5));
        assert!(matches!(v, LazyChunk::Materialized(_)));
        assert_eq!(v.num_rows(), v.materialize().num_rows());
        let v = LazyChunk::filtered(chunk(), SelVec::new(vec![0, 2]));
        assert_eq!(v.num_rows(), 2);
        assert_eq!(v.byte_size(), chunk().gather(&[0, 2]).byte_size());
    }

    #[test]
    fn gather_rows() {
        let c = chunk().gather(&[2, 0]);
        assert_eq!(c.row(0), vec![Value::Int32(3), Value::from("c")]);
        assert_eq!(c.row(1), vec![Value::Int32(1), Value::from("a")]);
    }

    #[test]
    fn zip_renames_duplicates() {
        let a = chunk();
        let b = chunk();
        let z = a.zip(b);
        assert_eq!(z.num_columns(), 4);
        assert!(z.column("k").is_some());
        assert!(z.column("k_r").is_some());
        assert!(z.column("s_r").is_some());
    }

    #[test]
    fn checksum_is_order_insensitive() {
        let a = chunk();
        let b = chunk().gather(&[2, 1, 0]);
        assert_eq!(a.checksum(), b.checksum());
        let c = chunk().gather(&[0, 1]);
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn sorted_rows_for_comparison() {
        let a = chunk().sorted_rows();
        let b = chunk().gather(&[1, 2, 0]).sorted_rows();
        assert_eq!(a, b);
    }

    #[test]
    fn concat_rebuilds_dictionaries() {
        let a = chunk();
        let b = chunk().gather(&[2, 0]);
        let c = Chunk::concat(&[a.clone(), b]).unwrap();
        assert_eq!(c.num_rows(), 5);
        assert_eq!(c.row(3), vec![Value::Int32(3), Value::from("c")]);
        assert_eq!(c.row(4), vec![Value::Int32(1), Value::from("a")]);
        // Schema mismatch and empty input are errors.
        let other = Chunk::new(
            vec![Field::new("x", DataType::Int32)],
            vec![ColumnData::Int32(vec![1])],
        );
        assert!(Chunk::concat(&[a, other]).is_err());
        assert!(Chunk::concat(&[]).is_err());
    }

    #[test]
    fn empty_chunk() {
        let e = Chunk::empty();
        assert_eq!(e.num_rows(), 0);
        assert_eq!(e.byte_size(), 0);
        assert_eq!(e.checksum(), 0);
    }
}

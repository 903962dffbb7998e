//! Columnar unit-table construction (Algorithm 1, Section 5.2.1).
//!
//! The unit table is the flat relation handed to the classical estimators:
//! one row per (unified) unit, with columns for the outcome, the unit's own
//! treatment, the embedded peer treatments, and the embedded own/peer
//! covariates selected by the adjustment plan.
//!
//! Since the estimators only ever consume whole columns, the table is stored
//! **column-major**: one contiguous `Vec<f64>` plus a null bitmap per
//! attribute, filled directly while walking the grounded model — no
//! intermediate row values, no `Value` boxing, no per-row extraction.
//! Estimators borrow columns as zero-copy `&[f64]` slices. The builder reads
//! the [`PeerMap`] and the [`AdjustmentPlan`] by unit row index, reads each
//! unit's treatment once by skeleton row (or symbol), and reads outcomes
//! through [`GroundedValues::unit_values`]. The legacy row-oriented, key-addressed path
//! is preserved in [`crate::rowwise`] as the reference
//! implementation for the differential test harness
//! (`tests/columnar_vs_rowwise.rs`), which asserts that both paths produce
//! bit-identical estimates.

use crate::adjust::AdjustmentPlan;
use crate::embed::EmbeddingKind;
use crate::error::{CarlError, CarlResult};
use crate::ground::{GroundedModel, GroundedValues, UnitRows};
use crate::peers::{same_units, PeerMap};
use reldb::{Instance, Table, UnitKey, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A packed bitmap marking which rows of a column are null.
///
/// Null cells also store `NaN` in the value vector so that code that ignores
/// the bitmap cannot silently read a stale number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    bits: Vec<u64>,
    len: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one row, marked null or not.
    pub fn push(&mut self, null: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if null {
            self.bits[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Whether row `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "null bitmap index {i} out of bounds ({} rows)",
            self.len
        );
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Overwrite the flag of row `i` (which must already be tracked).
    ///
    /// Random-access writes exist for the *sink* use of columns (dense
    /// signature-indexed stores filled out of order during streaming
    /// grounding); append-only tables never need them.
    pub fn set(&mut self, i: usize, null: bool) {
        assert!(
            i < self.len,
            "null bitmap index {i} out of bounds ({} rows)",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if null {
            self.bits[i / 64] |= mask;
        } else {
            self.bits[i / 64] &= !mask;
        }
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap tracks no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any row is null.
    pub fn any_null(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }
}

/// One contiguous `f64` column of the unit table, with its null bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatColumn {
    /// Column name.
    pub name: String,
    values: Vec<f64>,
    nulls: NullBitmap,
}

impl FloatColumn {
    /// An empty column.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            values: Vec::new(),
            nulls: NullBitmap::new(),
        }
    }

    /// Append an observed value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.nulls.push(false);
    }

    /// Append a null cell (stored as `NaN`, flagged in the bitmap).
    pub fn push_null(&mut self) {
        self.values.push(f64::NAN);
        self.nulls.push(true);
    }

    /// Extend the column with null cells until it tracks `len` rows (no-op
    /// when it is already at least that long).
    pub fn grow_to(&mut self, len: usize) {
        while self.values.len() < len {
            self.push_null();
        }
    }

    /// Overwrite cell `i` with an observed value, growing the column with
    /// nulls as needed.
    ///
    /// Together with [`FloatColumn::get`] this turns a column into a dense
    /// random-access *sink*: streaming grounding indexes cells by key
    /// signature and fills them in answer order, with the null bitmap
    /// marking the signatures that never received a value.
    pub fn set(&mut self, i: usize, value: f64) {
        self.grow_to(i + 1);
        self.values[i] = value;
        self.nulls.set(i, false);
    }

    /// Mark cell `i` null again (stored as `NaN`, flagged in the bitmap).
    /// A no-op beyond the column's length — an absent cell is already null
    /// as far as [`FloatColumn::get`] is concerned, and incremental
    /// patching must not allocate rows just to mark them missing.
    pub fn unset(&mut self, i: usize) {
        if i < self.values.len() {
            self.values[i] = f64::NAN;
            self.nulls.set(i, true);
        }
    }

    /// The observed value of cell `i`, or `None` when the cell is null or
    /// beyond the column's length.
    pub fn get(&self, i: usize) -> Option<f64> {
        if i >= self.values.len() || self.nulls.is_null(i) {
            None
        } else {
            Some(self.values[i])
        }
    }

    /// The values as a zero-copy slice (null cells hold `NaN`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A unit table together with the metadata the estimators need to interpret
/// its columns: a column-major store of `f64` columns, plus the unit keys.
#[derive(Debug, Clone)]
pub struct UnitTable {
    /// The numeric columns in declaration order: outcome, treatment, peer
    /// treatment embedding, covariate embeddings.
    columns: Vec<FloatColumn>,
    /// Column name → index into `columns`.
    index: HashMap<String, usize>,
    /// Unit keys, aligned with rows.
    pub units: Vec<UnitKey>,
    /// Name of the outcome column.
    pub outcome_col: String,
    /// Name of the (own) treatment column.
    pub treatment_col: String,
    /// Names of the peer-treatment embedding columns (empty when no unit has
    /// peers).
    pub peer_treatment_cols: Vec<String>,
    /// Names of all covariate columns (own + peer embeddings).
    pub covariate_cols: Vec<String>,
    /// Number of relational peers per row.
    pub peer_counts: Vec<usize>,
    /// The embedding used for peer treatments and covariates.
    pub embedding: EmbeddingKind,
}

impl UnitTable {
    /// Outcome column as a zero-copy slice.
    pub fn outcomes(&self) -> &[f64] {
        self.column(&self.outcome_col)
            .expect("outcome column exists")
    }

    /// Treatment column (0/1) as a zero-copy slice.
    pub fn treatments(&self) -> &[f64] {
        self.column(&self.treatment_col)
            .expect("treatment column exists")
    }

    /// Borrow a column by name as a zero-copy slice.
    pub fn column(&self, name: &str) -> CarlResult<&[f64]> {
        self.float_column(name).map(FloatColumn::values)
    }

    /// Borrow a column (values + null bitmap) by name.
    pub fn float_column(&self, name: &str) -> CarlResult<&FloatColumn> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| CarlError::Rel(reldb::RelError::UnknownColumn(name.to_string())))
    }

    /// The covariate columns, in `covariate_cols` order, as zero-copy slices.
    pub fn covariate_columns(&self) -> Vec<&[f64]> {
        self.columns_named(&self.covariate_cols)
    }

    /// The peer-treatment embedding columns as zero-copy slices.
    pub fn peer_treatment_columns(&self) -> Vec<&[f64]> {
        self.columns_named(&self.peer_treatment_cols)
    }

    /// Borrow the named columns (which must exist) as zero-copy slices.
    pub fn columns_named(&self, names: &[String]) -> Vec<&[f64]> {
        names
            .iter()
            .map(|n| self.column(n).expect("column exists"))
            .collect()
    }

    /// All column names in declaration order (excluding the `unit` key
    /// column, which is not numeric).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Covariate matrix rows (peer-treatment columns excluded). Retained
    /// for inspection and tests; estimators consume columns directly.
    pub fn covariate_rows(&self) -> Vec<Vec<f64>> {
        Self::rows_of(&self.covariate_columns(), self.len())
    }

    /// Peer-treatment embedding rows. Retained for inspection and tests.
    pub fn peer_treatment_rows(&self) -> Vec<Vec<f64>> {
        Self::rows_of(&self.peer_treatment_columns(), self.len())
    }

    fn rows_of(cols: &[&[f64]], n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| cols.iter().map(|c| c[i]).collect())
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gather a row subset (indexes may repeat — this is what bootstrap
    /// resampling uses) into a new unit table.
    pub fn select_rows(&self, idx: &[usize]) -> CarlResult<UnitTable> {
        let n = self.len();
        if let Some(&bad) = idx.iter().find(|&&i| i >= n) {
            return Err(CarlError::InvalidQuery(format!(
                "select_rows: index {bad} out of bounds ({n} rows)"
            )));
        }
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let mut out = FloatColumn::new(c.name.clone());
                for &i in idx {
                    if c.nulls.is_null(i) {
                        out.push_null();
                    } else {
                        out.push(c.values[i]);
                    }
                }
                out
            })
            .collect();
        Ok(UnitTable {
            columns,
            index: self.index.clone(),
            units: idx.iter().map(|&i| self.units[i].clone()).collect(),
            outcome_col: self.outcome_col.clone(),
            treatment_col: self.treatment_col.clone(),
            peer_treatment_cols: self.peer_treatment_cols.clone(),
            covariate_cols: self.covariate_cols.clone(),
            peer_counts: idx.iter().map(|&i| self.peer_counts[i]).collect(),
            embedding: self.embedding,
        })
    }

    /// Export to a row-compatible [`reldb::Table`] (a `unit` key column
    /// followed by every numeric column) for printing and CSV export.
    pub fn to_table(&self) -> Table {
        let mut names: Vec<&str> = vec!["unit"];
        names.extend(self.columns.iter().map(|c| c.name.as_str()));
        let mut table = Table::with_columns(&names);
        for i in 0..self.len() {
            let mut row: Vec<Value> = Vec::with_capacity(1 + self.columns.len());
            row.push(Value::Str(render_unit(&self.units[i])));
            for c in &self.columns {
                if c.nulls.is_null(i) {
                    row.push(Value::Null);
                } else {
                    row.push(Value::Float(c.values[i]));
                }
            }
            table
                .push_row(row)
                .expect("row width matches declared columns");
        }
        table
    }
}

impl fmt::Display for UnitTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_table().fmt(f)
    }
}

/// Inputs to [`build_unit_table`], bundled to keep the signature readable.
///
/// Generic over the grounded source so the same builder serves both the
/// materialised [`GroundedModel`] and the streamed
/// [`crate::ground::StreamedModel`] (whose derived values live in dense
/// signature-indexed columns instead of a sorted map).
pub struct UnitTableSpec<'a, G: GroundedValues = GroundedModel> {
    /// The grounded model (graph + derived aggregate values).
    pub grounded: &'a G,
    /// The observed instance.
    pub instance: &'a Instance,
    /// Treatment attribute name.
    pub treatment_attr: &'a str,
    /// (Unified) response attribute name.
    pub response_attr: &'a str,
    /// Units of analysis (unified treated/response units).
    pub units: &'a [UnitKey],
    /// Relational peers of each unit.
    pub peers: &'a PeerMap,
    /// Covariates selected by Theorem 5.2.
    pub adjustment: &'a AdjustmentPlan,
    /// Embedding strategy.
    pub embedding: EmbeddingKind,
    /// Optional restriction of the units included (e.g. from a `WHERE`
    /// clause binding the treatment variable).
    pub allowed_units: Option<&'a HashSet<UnitKey>>,
}

/// The column layout of a unit table, resolved before construction so the
/// builder can append values column by column.
struct ColumnLayout {
    any_peers: bool,
    peer_treatment_cols: Vec<String>,
    /// Covariate slots (indices into the plan's `own_attributes`) of the
    /// own and the peer covariate columns, in column order.
    own_cov_slots: Vec<u32>,
    peer_cov_slots: Vec<u32>,
    covariate_cols: Vec<String>,
}

impl ColumnLayout {
    fn of<G: GroundedValues>(spec: &UnitTableSpec<'_, G>) -> Self {
        let embedding = spec.embedding;
        let adjustment = spec.adjustment;
        let any_peers = spec.peers.values().any(|p| !p.is_empty());
        let mut covariate_cols = Vec::new();
        for a in adjustment.own_attributes() {
            covariate_cols.extend(embedding.column_names(&format!("own_{a}")));
        }
        for a in adjustment.peer_attributes() {
            covariate_cols.extend(embedding.column_names(&format!("peer_{a}")));
        }
        Self {
            any_peers,
            peer_treatment_cols: embedding.column_names("peer_treatment"),
            own_cov_slots: adjustment
                .own_attributes()
                .iter()
                .map(|a| adjustment.slot_of(a))
                .collect(),
            peer_cov_slots: adjustment
                .peer_attributes()
                .iter()
                .map(|a| adjustment.slot_of(a))
                .collect(),
            covariate_cols,
        }
    }

    /// Declare the full numeric column list, in order.
    fn columns(&self) -> Vec<FloatColumn> {
        let mut columns = vec![FloatColumn::new("outcome"), FloatColumn::new("treatment")];
        if self.any_peers {
            columns.extend(
                self.peer_treatment_cols
                    .iter()
                    .cloned()
                    .map(FloatColumn::new),
            );
        }
        columns.extend(self.covariate_cols.iter().cloned().map(FloatColumn::new));
        columns
    }
}

/// Algorithm 1: construct the unit table `D(Y, ψ_T, Ψ_Z)` as a columnar
/// store, filled directly from the grounded model in a single pass.
///
/// Peers and covariates are read by row index, so `spec.peers` and
/// `spec.adjustment` must have been built over `spec.units`; otherwise
/// [`CarlError::UnitListMismatch`] is returned. Units lacking an observed
/// outcome or an observed binary treatment are skipped (they cannot
/// contribute to estimation). Returns an error if no unit survives.
pub fn build_unit_table<G: GroundedValues>(spec: &UnitTableSpec<'_, G>) -> CarlResult<UnitTable> {
    let syms = UnitRows::resolve(spec.units, spec.instance.skeleton().interner());
    let rows = UnitRows::with_syms(
        spec.units,
        syms.as_deref(),
        spec.instance.skeleton().interner(),
    );
    build_unit_table_rows(spec, rows)
}

/// [`build_unit_table`] with the row addressing of `spec.units`, which
/// `units` must describe.
pub(crate) fn build_unit_table_rows<G: GroundedValues>(
    spec: &UnitTableSpec<'_, G>,
    units: UnitRows<'_>,
) -> CarlResult<UnitTable> {
    let peer_units = spec.peers.units();
    if !same_units(spec.units, peer_units) {
        return Err(CarlError::UnitListMismatch("peer map".into()));
    }
    // A plan built with this peer map shares its unit list.
    let plan_units = spec.adjustment.units();
    if !std::ptr::eq(plan_units, peer_units) && !same_units(spec.units, plan_units) {
        return Err(CarlError::UnitListMismatch("adjustment plan".into()));
    }
    let embedding = spec.embedding;
    let layout = ColumnLayout::of(spec);
    let mut columns = layout.columns();

    // Every unit's treatment, read once by symbol: the unit's own row and
    // each peer edge pointing at it read this. `None` = no assignment,
    // `Some(None)` = not binary.
    let reader = spec.instance.attribute_reader(spec.treatment_attr);
    let treatments: Vec<Option<Option<bool>>> = (0..units.len())
        .map(|i| {
            units
                .cell(spec.instance, spec.treatment_attr, &reader, i)
                .map(Value::as_bool)
        })
        .collect();
    // Outcome: observed or derived value of the (unified) response.
    let outcomes = spec
        .grounded
        .unit_values(spec.instance, spec.response_attr, units);

    let mut units_out = Vec::new();
    let mut peer_counts = Vec::new();
    // Reusable buffers: the value set being embedded and the cells of one
    // row.
    let mut values: Vec<f64> = Vec::new();
    let mut cells: Vec<f64> = Vec::with_capacity(columns.len());
    for (i, unit) in spec.units.iter().enumerate() {
        if let Some(allowed) = spec.allowed_units {
            if !allowed.contains(unit) {
                continue;
            }
        }
        let Some(outcome) = outcomes[i] else {
            continue;
        };
        // Own treatment: must be observed and binary.
        let Some(treated) = treatments[i] else {
            continue;
        };
        let Some(treated) = treated else {
            return Err(CarlError::NonBinaryTreatment(
                spec.treatment_attr.to_string(),
            ));
        };

        // Peers without an observed binary treatment are left out of the
        // peer-treatment embedding and the peer count.
        let unit_peers = spec.peers.peers_of(i);
        values.clear();
        values.extend(
            unit_peers
                .iter()
                .filter_map(|&p| treatments[p as usize].flatten())
                .map(|b| if b { 1.0 } else { 0.0 }),
        );
        let peer_count = values.len();

        cells.clear();
        cells.push(outcome);
        cells.push(if treated { 1.0 } else { 0.0 });
        if layout.any_peers {
            embedding.embed_into(&values, &mut cells);
        }
        for &slot in &layout.own_cov_slots {
            values.clear();
            spec.adjustment.extend_values(i, slot, &mut values);
            embedding.embed_into(&values, &mut cells);
        }
        for &slot in &layout.peer_cov_slots {
            values.clear();
            for &p in unit_peers {
                spec.adjustment.extend_values(p as usize, slot, &mut values);
            }
            embedding.embed_into(&values, &mut cells);
        }
        // Guard the column alignment at runtime (the row-based path got the
        // equivalent check from `Table::push_row`): if an embedding ever
        // yields a different width than its declared column names, fail
        // loudly instead of silently shearing the columns.
        if cells.len() != columns.len() {
            return Err(CarlError::Rel(reldb::RelError::ColumnLengthMismatch {
                column: "<row>".to_string(),
                expected: columns.len(),
                actual: cells.len(),
            }));
        }
        for (column, &v) in columns.iter_mut().zip(&cells) {
            column.push(v);
        }
        units_out.push(unit.clone());
        peer_counts.push(peer_count);
    }

    if units_out.is_empty() {
        return Err(CarlError::EmptyUnitTable(format!(
            "no unit has both an observed `{}` treatment and a `{}` outcome",
            spec.treatment_attr, spec.response_attr
        )));
    }

    let index = columns
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.clone(), i))
        .collect();
    Ok(UnitTable {
        columns,
        index,
        units: units_out,
        outcome_col: "outcome".into(),
        treatment_col: "treatment".into(),
        peer_treatment_cols: if layout.any_peers {
            layout.peer_treatment_cols
        } else {
            Vec::new()
        },
        covariate_cols: layout.covariate_cols,
        peer_counts,
        embedding,
    })
}

/// Render a unit key for the `unit` column.
pub fn render_unit(key: &UnitKey) -> String {
    key.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("|")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::covariates;
    use crate::ground::ground;
    use crate::model::RelationalCausalModel;
    use crate::peers::compute_peers;
    use carl_lang::parse_program;
    use reldb::{RelationalSchema, Value};

    fn setup() -> (RelationalCausalModel, GroundedModel, Instance) {
        let schema = RelationalSchema::review_example();
        let program = parse_program(
            r#"
            Prestige[A]  <= Qualification[A]              WHERE Person(A)
            Quality[S]   <= Qualification[A], Prestige[A] WHERE Author(A, S)
            Score[S]     <= Prestige[A]                   WHERE Author(A, S)
            Score[S]     <= Quality[S]                    WHERE Submission(S)
            AVG_Score[A] <= Score[S]                      WHERE Author(A, S)
            "#,
        )
        .unwrap();
        let model = RelationalCausalModel::new(schema, program).unwrap();
        let instance = Instance::review_example();
        let grounded = ground(&model, &instance).unwrap();
        (model, grounded, instance)
    }

    fn paper_unit_table(embedding: EmbeddingKind) -> UnitTable {
        let (model, grounded, instance) = setup();
        let units: Vec<UnitKey> = ["Bob", "Carlos", "Eva"]
            .iter()
            .map(|p| vec![Value::from(*p)])
            .collect();
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        let adjustment = covariates(&model, &grounded, &instance, "Prestige", &units, &peers);
        build_unit_table(&UnitTableSpec {
            grounded: &grounded,
            instance: &instance,
            treatment_attr: "Prestige",
            response_attr: "AVG_Score",
            units: &units,
            peers: &peers,
            adjustment: &adjustment,
            embedding,
            allowed_units: None,
        })
        .unwrap()
    }

    #[test]
    fn reproduces_table_1_of_the_paper() {
        let ut = paper_unit_table(EmbeddingKind::Mean);
        assert_eq!(ut.len(), 3);
        assert_eq!(ut.to_table().column_names()[0], "unit");

        let row_of = |who: &str| {
            ut.units
                .iter()
                .position(|u| u == &vec![Value::from(who)])
                .unwrap()
        };
        let outcomes = ut.outcomes();
        let treatments = ut.treatments();
        // Outcomes: AVG_Score Bob 0.75, Carlos 0.1, Eva ≈ 0.4167.
        assert!((outcomes[row_of("Bob")] - 0.75).abs() < 1e-12);
        assert!((outcomes[row_of("Carlos")] - 0.1).abs() < 1e-12);
        assert!((outcomes[row_of("Eva")] - (0.75 + 0.4 + 0.1) / 3.0).abs() < 1e-9);
        // Treatments: Bob 1, Carlos 0, Eva 1 (Figure 2).
        assert_eq!(treatments[row_of("Bob")], 1.0);
        assert_eq!(treatments[row_of("Carlos")], 0.0);
        assert_eq!(treatments[row_of("Eva")], 1.0);

        // Peer-treatment embedding (ψ_T of Table 1): mean prestige of peers
        // and peer count (the "centrality" column).
        let peer_rows = ut.peer_treatment_rows();
        // Bob's peer is Eva (prestige 1): mean 1, count 1.
        assert_eq!(peer_rows[row_of("Bob")], vec![1.0, 1.0]);
        // Eva's peers are Bob (1) and Carlos (0): mean 0.5, count 2
        // (Table 1 reports exactly these values).
        assert_eq!(peer_rows[row_of("Eva")], vec![0.5, 2.0]);

        // Peer covariates: embedded collaborators' h-index. Eva's peers have
        // h-indexes {50, 20} → mean 35 (Table 1's last column).
        let peer_qual = ut.column("peer_Qualification_mean").unwrap();
        assert!((peer_qual[row_of("Eva")] - 35.0).abs() < 1e-12);
        assert!((peer_qual[row_of("Bob")] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn embeddings_change_dimensionality_but_not_rows() {
        for embedding in [
            EmbeddingKind::Mean,
            EmbeddingKind::Median,
            EmbeddingKind::Moments(3),
            EmbeddingKind::Padding(4),
        ] {
            let ut = paper_unit_table(embedding);
            assert_eq!(ut.len(), 3, "{embedding:?}");
            assert_eq!(
                ut.peer_treatment_cols.len(),
                embedding.dim(),
                "{embedding:?}"
            );
            assert_eq!(
                ut.covariate_cols.len(),
                2 * embedding.dim(),
                "own + peer qualification embeddings for {embedding:?}"
            );
            assert!(!ut.is_empty());
        }
    }

    #[test]
    fn columns_are_contiguous_and_null_free() {
        let ut = paper_unit_table(EmbeddingKind::Mean);
        for name in ut
            .column_names()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
        {
            let col = ut.float_column(&name).unwrap();
            assert_eq!(col.len(), ut.len(), "{name}");
            assert!(!col.nulls().any_null(), "{name}");
            assert_eq!(col.nulls().null_count(), 0, "{name}");
        }
        // Zero-copy: the slice returned by `column` is the column storage.
        let a = ut.outcomes().as_ptr();
        let b = ut.column("outcome").unwrap().as_ptr();
        assert_eq!(a, b);
    }

    #[test]
    fn null_bitmap_tracks_cells() {
        let mut col = FloatColumn::new("x");
        for i in 0..130 {
            if i % 7 == 0 {
                col.push_null();
            } else {
                col.push(i as f64);
            }
        }
        assert_eq!(col.len(), 130);
        assert_eq!(col.nulls().null_count(), 19);
        assert!(col.nulls().any_null());
        for i in 0..130 {
            assert_eq!(col.nulls().is_null(i), i % 7 == 0, "row {i}");
            assert_eq!(col.values()[i].is_nan(), i % 7 == 0, "row {i}");
        }
        assert!(!NullBitmap::new().any_null());
        assert!(NullBitmap::new().is_empty());
    }

    #[test]
    fn unset_reverts_cells_to_null_without_growing() {
        let mut col = FloatColumn::new("x");
        col.set(3, 7.0);
        assert_eq!(col.len(), 4);
        assert_eq!(col.get(3), Some(7.0));
        col.unset(3);
        assert_eq!(col.get(3), None);
        assert!(col.nulls().is_null(3));
        assert!(col.values()[3].is_nan());
        // Beyond-length unset is a no-op: the cell is already null.
        col.unset(100);
        assert_eq!(col.len(), 4);
        // Round trip: set after unset observes again.
        col.set(3, 2.5);
        assert_eq!(col.get(3), Some(2.5));
        assert_eq!(col.nulls().null_count(), 3);
    }

    #[test]
    fn select_rows_gathers_with_repeats() {
        let ut = paper_unit_table(EmbeddingKind::Mean);
        let sub = ut.select_rows(&[2, 0, 0]).unwrap();
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.units[1], ut.units[0]);
        assert_eq!(sub.units[2], ut.units[0]);
        assert_eq!(sub.outcomes()[0].to_bits(), ut.outcomes()[2].to_bits());
        assert_eq!(sub.peer_counts[0], ut.peer_counts[2]);
        assert!(ut.select_rows(&[99]).is_err());
    }

    #[test]
    fn to_table_round_trips_columns() {
        let ut = paper_unit_table(EmbeddingKind::Mean);
        let table = ut.to_table();
        assert_eq!(table.row_count(), ut.len());
        assert_eq!(table.column_count(), 1 + ut.column_names().len());
        assert_eq!(table.column_f64("outcome").unwrap(), ut.outcomes());
        let rendered = ut.to_string();
        assert!(rendered.contains("outcome"));
        assert!(rendered.contains("Bob"));
    }

    #[test]
    fn allowed_units_restrict_rows() {
        let (model, grounded, instance) = setup();
        let units: Vec<UnitKey> = ["Bob", "Carlos", "Eva"]
            .iter()
            .map(|p| vec![Value::from(*p)])
            .collect();
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        let adjustment = covariates(&model, &grounded, &instance, "Prestige", &units, &peers);
        let allowed: HashSet<UnitKey> = [vec![Value::from("Bob")]].into_iter().collect();
        let ut = build_unit_table(&UnitTableSpec {
            grounded: &grounded,
            instance: &instance,
            treatment_attr: "Prestige",
            response_attr: "AVG_Score",
            units: &units,
            peers: &peers,
            adjustment: &adjustment,
            embedding: EmbeddingKind::Mean,
            allowed_units: Some(&allowed),
        })
        .unwrap();
        assert_eq!(ut.len(), 1);
        assert_eq!(ut.units[0], vec![Value::from("Bob")]);
    }

    #[test]
    fn empty_unit_table_is_an_error() {
        let (model, grounded, instance) = setup();
        let units: Vec<UnitKey> = vec![vec![Value::from("Nobody")]];
        let peers = compute_peers(&grounded, "Prestige", "AVG_Score", &units);
        let adjustment = covariates(&model, &grounded, &instance, "Prestige", &units, &peers);
        let err = build_unit_table(&UnitTableSpec {
            grounded: &grounded,
            instance: &instance,
            treatment_attr: "Prestige",
            response_attr: "AVG_Score",
            units: &units,
            peers: &peers,
            adjustment: &adjustment,
            embedding: EmbeddingKind::Mean,
            allowed_units: None,
        })
        .unwrap_err();
        assert!(matches!(err, CarlError::EmptyUnitTable(_)));
    }

    #[test]
    fn render_unit_joins_keys() {
        assert_eq!(render_unit(&vec![Value::from("Bob")]), "Bob");
        assert_eq!(
            render_unit(&vec![Value::from("Bob"), Value::from("s1")]),
            "Bob|s1"
        );
    }
}

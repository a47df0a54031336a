//! Multi-valued tables with labeled nulls.
//!
//! "Every row has a single value for the subject concept, while it can be
//! multi-valued for the other concepts." A missing value (⊥) is an empty
//! cell — the thing THOR's slot-filling phase fills.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use thor_text::{normalize_phrase, normalize_phrase_into, normalized_eq};

use crate::schema::{Concept, Schema};

/// A cell: a set of concept-instance strings. Empty ⇔ labeled null ⊥.
/// Values are stored in insertion-normalized display form and compared
/// with [`normalized_eq`], which equates equal [`normalize_phrase`] forms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cell {
    /// Sorted ascending and distinct. A cell holds a handful of values,
    /// so a sorted `Vec` is one allocation where a tree is one per
    /// value.
    values: Vec<String>,
}

impl Cell {
    /// The labeled null ⊥.
    pub fn null() -> Self {
        Self::default()
    }

    /// A cell with one value.
    pub fn single(value: impl Into<String>) -> Self {
        let mut c = Self::default();
        c.insert(value);
        c
    }

    /// Insert a value (trimmed); empty strings are ignored. Returns
    /// whether the cell changed (duplicates, compared case-insensitively
    /// after normalization, are not re-added).
    pub fn insert(&mut self, value: impl Into<String>) -> bool {
        let value = value.into();
        let v = value.trim();
        if v.is_empty() || self.contains(v) {
            return false;
        }
        self.insert_new(v);
        true
    }

    /// Insert `value`, which the caller has checked is trimmed,
    /// non-empty and not [`contained`](Cell::contains), at its sorted
    /// place.
    pub(crate) fn insert_new(&mut self, value: &str) {
        if let Err(at) = self.values.binary_search_by(|v| v.as_str().cmp(value)) {
            self.values.insert(at, value.to_string());
        }
    }

    /// Is this cell a labeled null?
    pub fn is_null(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the cell holds no value (alias of [`Cell::is_null`]).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Does the cell contain `value` (normalized comparison)?
    pub fn contains(&self, value: &str) -> bool {
        self.values.iter().any(|v| normalized_eq(v, value))
    }

    /// Iterate the values in deterministic (sorted) order.
    pub fn values(&self) -> impl Iterator<Item = &str> + Clone {
        self.values.iter().map(String::as_str)
    }

    /// Merge another cell's values into this one.
    pub fn merge(&mut self, other: &Cell) {
        for v in other.values() {
            self.insert(v);
        }
    }
}

impl<S: Into<String>> FromIterator<S> for Cell {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut c = Cell::null();
        for v in iter {
            c.insert(v);
        }
        c
    }
}

/// A row: one cell per schema concept. The subject cell must hold
/// exactly one value.
///
/// The row memoizes its rendered CSV line; every cell mutation goes
/// through [`Row::cell_mut`], which clears it. Equality compares cells.
#[derive(Debug)]
pub struct Row {
    cells: Vec<Cell>,
    line: OnceLock<String>,
}

/// A row is cloned to be changed, so the clone starts without a memo.
impl Clone for Row {
    fn clone(&self) -> Self {
        Self::from_cells(self.cells.clone())
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

impl Eq for Row {}

impl Row {
    /// An all-null row of the given arity.
    pub fn empty(arity: usize) -> Self {
        Self::from_cells(vec![Cell::null(); arity])
    }

    fn from_cells(cells: Vec<Cell>) -> Self {
        Self {
            cells,
            line: OnceLock::new(),
        }
    }

    /// The cell at concept index `i`.
    pub fn cell(&self, i: usize) -> &Cell {
        &self.cells[i]
    }

    /// Mutable cell access. Forgets the memoized CSV line.
    pub fn cell_mut(&mut self, i: usize) -> &mut Cell {
        self.line.take();
        &mut self.cells[i]
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// The row's CSV line (newline-terminated), rendered on first use
    /// and memoized until a cell changes.
    pub(crate) fn csv_line(&self) -> &str {
        self.line
            .get_or_init(|| crate::csv::render_row(self.cells.iter().map(Cell::values)))
    }
}

/// A table `R` adhering to a [`Schema`], keyed by the subject concept.
///
/// Rows and the subject index are shared copy-on-write: cloning a table
/// bumps reference counts, and a mutation copies only the row it
/// touches (and the index, when a clone gains a subject).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Arc<Row>>,
    /// normalized subject value → row index.
    index: Arc<HashMap<String, usize>>,
}

impl Table {
    /// An empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
            index: Arc::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows in insertion order.
    pub fn rows(&self) -> &[Arc<Row>] {
        &self.rows
    }

    /// Mutable access to row `i`, copied first if shared (crate-internal;
    /// used by the integration kernel, which upholds the subject-key
    /// index).
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut Row {
        Arc::make_mut(&mut self.rows[i])
    }

    /// Get (creating if necessary) the row for subject instance
    /// `subject`, returning its index.
    pub fn row_for_subject(&mut self, subject: &str) -> usize {
        self.row_for_key(subject, normalize_phrase(subject))
    }

    /// [`row_for_subject`](Self::row_for_subject) with the subject's
    /// [`normalize_phrase`] key already computed.
    pub(crate) fn row_for_key(&mut self, subject: &str, key: String) -> usize {
        assert!(!key.is_empty(), "subject instance must be non-empty");
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let mut row = Row::empty(self.schema.arity());
        row.cell_mut(self.schema.subject_index()).insert(subject);
        self.rows.push(Arc::new(row));
        let i = self.rows.len() - 1;
        Arc::make_mut(&mut self.index).insert(key, i);
        i
    }

    /// Look up a row by subject instance.
    pub fn get_row(&self, subject: &str) -> Option<&Row> {
        self.index
            .get(&normalize_phrase(subject))
            .map(|&i| &*self.rows[i])
    }

    /// Subject instance of row `i` (display form).
    pub fn subject_of(&self, i: usize) -> &str {
        self.rows[i]
            .cell(self.schema.subject_index())
            .values()
            .next()
            .expect("every row has a subject value")
    }

    /// All subject instances in row order.
    pub fn subjects(&self) -> impl Iterator<Item = &str> {
        (0..self.rows.len()).map(move |i| self.subject_of(i))
    }

    /// Insert a value into the cell `(subject, concept)`, creating the
    /// row if needed. Returns `true` when the value is new; a duplicate
    /// leaves a shared row shared.
    ///
    /// The one-off insert: it scans the cell with [`normalized_eq`]. A
    /// pass that inserts many values goes through
    /// [`slot_writer`](Self::slot_writer), which gives the same answers.
    ///
    /// # Panics
    /// If `concept` is not in the schema, or is the subject concept.
    pub fn fill_slot(&mut self, subject: &str, concept: &str, value: &str) -> bool {
        let ci = self
            .schema
            .index_of(concept)
            .unwrap_or_else(|| panic!("concept `{concept}` not in schema"));
        assert_ne!(
            ci,
            self.schema.subject_index(),
            "cannot slot-fill the subject concept"
        );
        let ri = self.row_for_subject(subject);
        let value = value.trim();
        if value.is_empty() || self.rows[ri].cell(ci).contains(value) {
            return false;
        }
        self.row_mut(ri).cell_mut(ci).insert_new(value);
        true
    }

    /// A bulk inserter over this table's cells: the insert a pass of
    /// many values uses (slot filling a run's entities, a delta's table
    /// edit). See [`SlotWriter`].
    pub fn slot_writer(&mut self) -> SlotWriter<'_> {
        SlotWriter {
            table: self,
            cell: None,
            keys: HashSet::new(),
            norm: String::new(),
        }
    }

    /// All values appearing in column `concept` (`R.C`), deduplicated,
    /// in deterministic order.
    pub fn column_values(&self, concept: &str) -> Vec<String> {
        let Some(ci) = self.schema.index_of(concept) else {
            return vec![];
        };
        let mut set = BTreeSet::new();
        for row in &self.rows {
            for v in row.cell(ci).values() {
                set.insert(v.to_string());
            }
        }
        set.into_iter().collect()
    }

    /// A column's value list after values went into it: `values`, the
    /// list [`column_values`](Self::column_values) gave for the column,
    /// with `added` — the trimmed values that [`fill_slot`](Self::fill_slot)
    /// reported as new, or new rows' subjects — merged in at their
    /// sorted places. Equals `column_values` of the grown table without
    /// rescanning its rows; borrowed when nothing was added.
    pub fn merge_column_values<'a>(values: &'a [String], added: &[&str]) -> Cow<'a, [String]> {
        if added.is_empty() {
            return Cow::Borrowed(values);
        }
        let mut list = values.to_vec();
        for &value in added {
            if let Err(at) = list.binary_search_by(|v| v.as_str().cmp(value)) {
                list.insert(at, value.to_string());
            }
        }
        Cow::Owned(list)
    }

    /// Total number of concept instances stored (counting the subject).
    pub fn instance_count(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.cells().iter().map(Cell::len).sum::<usize>())
            .sum()
    }

    /// Widen the table with a new (empty) concept column appended to
    /// the schema: every existing row gains a labeled null ⊥ for it.
    /// Row order and all existing cells are untouched, so builds over
    /// the widened table differ from the original only by the appended
    /// concept.
    ///
    /// # Panics
    /// If `concept` is already in the schema.
    pub fn with_concept(&self, concept: &str) -> Table {
        assert!(
            self.schema.index_of(concept).is_none(),
            "concept `{concept}` already in schema"
        );
        let mut concepts: Vec<Concept> = self.schema.concepts().to_vec();
        concepts.push(Concept::new(concept));
        let subject = self.schema.subject().name().to_string();
        let schema = Schema::new(concepts, &subject);
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = r.cells().to_vec();
                cells.push(Cell::null());
                Arc::new(Row::from_cells(cells))
            })
            .collect();
        Table {
            schema,
            rows,
            index: self.index.clone(),
        }
    }

    /// Strip every non-subject cell (the paper's evaluation setup:
    /// "we deleted the instances of all concepts from these test tables
    /// except for the subject concepts").
    pub fn stripped(&self) -> Table {
        let mut out = Table::new(self.schema.clone());
        for i in 0..self.rows.len() {
            let subject = self.subject_of(i).to_string();
            out.row_for_subject(&subject);
        }
        out
    }
}

/// Inserts many values into a table's cells, each answering as
/// [`Table::fill_slot`] would: a trimmed, non-empty value goes in when
/// no value of its cell is [`normalized_eq`] to it, so the first display
/// form inserted wins.
///
/// Instead of scanning the cell per value, the writer keeps the
/// [`normalize_phrase`] keys of the cell it last filled, seeded from
/// that cell's values when a fill moves to another cell. This is exact
/// in any call order, because `normalized_eq` is equality of those keys
/// and a reseeded set sees every value inserted before. It is fast when
/// a cell's values come together: a pass that sorts its values by cell
/// seeds each touched cell once and costs nothing per untouched cell.
/// The key set uses std's keyed hasher: document text flows into it.
#[derive(Debug)]
pub struct SlotWriter<'t> {
    table: &'t mut Table,
    /// The `(row, concept)` cell `keys` describes.
    cell: Option<(usize, usize)>,
    /// Normalized keys of that cell's values.
    keys: HashSet<String>,
    /// Reused normalization buffer.
    norm: String,
}

impl SlotWriter<'_> {
    /// Insert `value` into the cell at row `ri` (from
    /// [`Table::row_for_subject`]), concept index `ci`. Returns `true`
    /// when the value is new, like [`Table::fill_slot`]; a duplicate
    /// leaves a shared row shared.
    ///
    /// # Panics
    /// If `ci` is the subject concept, or either index is out of range.
    pub fn fill(&mut self, ri: usize, ci: usize, value: &str) -> bool {
        assert_ne!(
            ci,
            self.table.schema.subject_index(),
            "cannot slot-fill the subject concept"
        );
        let value = value.trim();
        if value.is_empty() {
            return false;
        }
        if self.cell != Some((ri, ci)) {
            self.keys.clear();
            let cell = self.table.rows[ri].cell(ci);
            self.keys.extend(cell.values().map(normalize_phrase));
            self.cell = Some((ri, ci));
        }
        normalize_phrase_into(value, &mut self.norm);
        if self.keys.contains(self.norm.as_str()) {
            return false;
        }
        self.keys.insert(self.norm.clone());
        self.table.row_mut(ri).cell_mut(ci).insert_new(value);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::new(["Disease", "Anatomy", "Complication"], "Disease")
    }

    #[test]
    fn cell_null_and_insert() {
        let mut c = Cell::null();
        assert!(c.is_null());
        assert!(c.insert("brain"));
        assert!(!c.insert("brain"));
        assert!(!c.insert("Brain")); // normalized duplicate
        assert!(!c.insert("  "));
        assert_eq!(c.len(), 1);
        assert!(c.contains("BRAIN"));
    }

    #[test]
    fn cell_merge() {
        let mut a = Cell::from_iter(["x", "y"]);
        let b = Cell::from_iter(["y", "z"]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn row_creation_and_lookup() {
        let mut t = Table::new(schema());
        let i = t.row_for_subject("Tuberculosis");
        assert_eq!(t.row_for_subject("tuberculosis"), i, "case-insensitive key");
        assert_eq!(t.len(), 1);
        assert_eq!(t.subject_of(i), "Tuberculosis");
        assert!(t.get_row("Tuberculosis").is_some());
        assert!(t.get_row("Acne").is_none());
    }

    #[test]
    fn merged_column_values_equal_a_rescan() {
        let mut t = Table::new(schema());
        t.fill_slot("Tuberculosis", "Anatomy", "lungs");
        t.fill_slot("Tuberculosis", "Anatomy", "skin");
        let before: Vec<Vec<String>> = ["Disease", "Anatomy"]
            .iter()
            .map(|c| t.column_values(c))
            .collect();
        let mut added: Vec<Vec<String>> = vec![Vec::new(); 2];
        let len = t.len();
        // New, repeated in another row, already in the cell, normalized
        // duplicate of a stored value, and blank.
        for (subject, value) in [
            ("Acne", " brain "),
            ("Acne", "lungs"),
            ("Tuberculosis", "skin"),
            ("Tuberculosis", "Lungs"),
            ("Tuberculosis", "  "),
            ("Asthma", "airway"),
        ] {
            if t.fill_slot(subject, "Anatomy", value) {
                added[1].push(value.trim().to_string());
            }
        }
        added[0].extend((len..t.len()).map(|ri| t.subject_of(ri).to_string()));
        for (ci, concept) in ["Disease", "Anatomy"].iter().enumerate() {
            let added: Vec<&str> = added[ci].iter().map(String::as_str).collect();
            assert_eq!(
                Table::merge_column_values(&before[ci], &added).as_ref(),
                t.column_values(concept).as_slice(),
                "{concept}"
            );
        }
        assert!(matches!(
            Table::merge_column_values(&before[1], &[]),
            Cow::Borrowed(_)
        ));
    }

    #[test]
    fn fill_slot_and_column_values() {
        let mut t = Table::new(schema());
        assert!(t.fill_slot("Tuberculosis", "Anatomy", "lungs"));
        assert!(!t.fill_slot("Tuberculosis", "Anatomy", "lungs"));
        assert!(t.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system"));
        assert_eq!(t.column_values("Anatomy"), ["lungs", "nervous system"]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn fill_unknown_concept_panics() {
        let mut t = Table::new(schema());
        t.fill_slot("X", "Bogus", "v");
    }

    #[test]
    #[should_panic(expected = "subject concept")]
    fn fill_subject_panics() {
        let mut t = Table::new(schema());
        t.fill_slot("X", "Disease", "v");
    }

    #[test]
    fn instance_count_counts_everything() {
        let mut t = Table::new(schema());
        t.fill_slot("TB", "Anatomy", "lungs");
        t.fill_slot("TB", "Complication", "empyema");
        t.fill_slot("TB", "Complication", "meningitis");
        assert_eq!(t.instance_count(), 4); // subject + 3 values
    }

    #[test]
    fn stripped_keeps_only_subjects() {
        let mut t = Table::new(schema());
        t.fill_slot("TB", "Anatomy", "lungs");
        t.fill_slot("Acne", "Anatomy", "skin");
        let s = t.stripped();
        assert_eq!(s.len(), 2);
        assert_eq!(s.instance_count(), 2);
        assert!(s.column_values("Anatomy").is_empty());
    }

    #[test]
    fn with_concept_appends_null_column() {
        let mut t = Table::new(schema());
        t.fill_slot("TB", "Anatomy", "lungs");
        t.fill_slot("Acne", "Anatomy", "skin");
        let wide = t.with_concept("Medicine");
        assert_eq!(wide.schema().arity(), 4);
        assert_eq!(wide.schema().concepts().last().unwrap().name(), "Medicine");
        assert_eq!(wide.len(), 2);
        assert_eq!(wide.subject_of(0), "TB");
        assert_eq!(wide.column_values("Anatomy"), ["lungs", "skin"]);
        assert!(wide.column_values("Medicine").is_empty());
        let mi = wide.schema().index_of("Medicine").unwrap();
        assert!(wide.rows().iter().all(|r| r.cell(mi).is_null()));
        // The widened table is still keyed: slot-filling the new
        // concept lands on the existing row.
        let mut wide = wide;
        assert!(wide.fill_slot("tb", "Medicine", "isoniazid"));
        assert_eq!(wide.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already in schema")]
    fn with_concept_rejects_duplicates() {
        let t = Table::new(schema());
        t.with_concept("anatomy");
    }

    #[test]
    fn multivalued_cells_ordered() {
        let mut t = Table::new(schema());
        t.fill_slot("TB", "Complication", "empyema");
        t.fill_slot("TB", "Complication", "blood clot");
        let row = t.get_row("TB").unwrap();
        let ci = t.schema().index_of("Complication").unwrap();
        let vals: Vec<&str> = row.cell(ci).values().collect();
        assert_eq!(vals, ["blood clot", "empyema"]); // sorted
    }
}

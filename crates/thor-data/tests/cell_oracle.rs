//! `Cell` keeps its values in a sorted `Vec`. This pins it against the
//! ordered-set semantics it replaced, with a `BTreeSet<String>` oracle:
//! the same insert answers, the same `contains` answers, the same
//! values in the same order, the same merge, and copy-on-write rows
//! that leave a clone's source untouched.

use std::collections::BTreeSet;

use proptest::prelude::*;

use thor_data::{Cell, Schema, Table};
use thor_text::normalized_eq;

/// Pieces whose normalized forms collide in awkward ways: case,
/// surrounding whitespace and punctuation, and lowercasing that
/// changes length.
const PIECES: &[&str] = &[
    "a", "A", "b", "ab", "AB", " ", "\t", ".", "-", "ss", "ß", "İ", "i\u{307}", "ΟΣ", "ος", "z",
];

fn value(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

fn values() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::collection::vec(0usize..64, 0..4), 0..12)
        .prop_map(|vs| vs.iter().map(|v| value(v)).collect())
}

/// The set semantics `Cell` had: a trimmed, non-empty value goes in
/// unless a stored value is `normalized_eq` to it; iteration is sorted.
#[derive(Debug, Default, Clone)]
struct Oracle(BTreeSet<String>);

impl Oracle {
    fn insert(&mut self, value: &str) -> bool {
        let v = value.trim();
        if v.is_empty() || self.contains(v) {
            return false;
        }
        self.0.insert(v.to_string())
    }

    fn contains(&self, value: &str) -> bool {
        self.0.iter().any(|v| normalized_eq(v, value))
    }

    fn values(&self) -> Vec<&str> {
        self.0.iter().map(String::as_str).collect()
    }
}

fn cell_values(cell: &Cell) -> Vec<&str> {
    cell.values().collect()
}

proptest! {
    /// Insert, contains and value order agree with the oracle after
    /// every insert.
    #[test]
    fn inserts_and_lookups_match_the_set_oracle(inserts in values(), probes in values()) {
        let (mut cell, mut oracle) = (Cell::null(), Oracle::default());
        for v in &inserts {
            prop_assert_eq!(cell.insert(v.as_str()), oracle.insert(v));
            prop_assert_eq!(cell_values(&cell), oracle.values());
            prop_assert_eq!(cell.len(), oracle.0.len());
            prop_assert_eq!(cell.is_null(), oracle.0.is_empty());
        }
        for p in inserts.iter().chain(&probes) {
            prop_assert_eq!(cell.contains(p), oracle.contains(p));
        }
        let collected: Cell = inserts.iter().map(String::as_str).collect();
        prop_assert_eq!(&collected, &cell);
    }

    /// Merging is inserting the other cell's values in its order.
    #[test]
    fn merge_matches_the_set_oracle(a in values(), b in values()) {
        let (mut cell, mut oracle) = (Cell::null(), Oracle::default());
        let (mut other, mut other_oracle) = (Cell::null(), Oracle::default());
        for v in &a {
            cell.insert(v.as_str());
            oracle.insert(v);
        }
        for v in &b {
            other.insert(v.as_str());
            other_oracle.insert(v);
        }
        cell.merge(&other);
        for v in other_oracle.values() {
            oracle.insert(v);
        }
        prop_assert_eq!(cell_values(&cell), oracle.values());
    }

    /// Filling a clone's cells copies the row it changes and leaves the
    /// source's cell as it was; the clone's cell matches the oracle.
    #[test]
    fn row_copy_on_write_matches_the_set_oracle(first in values(), second in values()) {
        let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        let mut oracle = Oracle::default();
        table.row_for_subject("Acne");
        for v in &first {
            prop_assert_eq!(table.fill_slot("Acne", "Anatomy", v), oracle.insert(v));
        }
        let before = oracle.clone();
        let mut clone = table.clone();
        for v in &second {
            prop_assert_eq!(clone.fill_slot("Acne", "Anatomy", v), oracle.insert(v));
        }
        prop_assert_eq!(cell_values(table.rows()[0].cell(1)), before.values());
        prop_assert_eq!(cell_values(clone.rows()[0].cell(1)), oracle.values());
        let changed = oracle.0.len() != before.0.len();
        prop_assert_eq!(
            !std::sync::Arc::ptr_eq(&table.rows()[0], &clone.rows()[0]),
            changed
        );
    }
}

//! Sparsity statistics.
//!
//! The paper motivates THOR with the observation that integrated data
//! carries ~15% missing values. [`sparsity`] measures exactly that on a
//! table: the fraction of non-subject cells that are labeled nulls,
//! overall and per concept.

use crate::table::Table;

/// Sparsity measurements of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityReport {
    /// Number of non-subject cells (rows × slot concepts).
    pub total_slots: usize,
    /// Number of those cells that are ⊥.
    pub missing_slots: usize,
    /// `missing_slots / total_slots` (0 when there are no slots).
    pub ratio: f64,
    /// Per-concept `(name, missing, total)` in schema order, subject
    /// excluded.
    pub per_concept: Vec<(String, usize, usize)>,
}

/// Measure the sparsity of `table`.
pub fn sparsity(table: &Table) -> SparsityReport {
    let subject_idx = table.schema().subject_index();
    let rows = table.rows();
    let mut per_concept = Vec::new();
    let mut total = 0usize;
    let mut missing = 0usize;

    for (ci, concept) in table.schema().concepts().iter().enumerate() {
        if ci == subject_idx {
            continue;
        }
        let concept_missing = rows.iter().filter(|r| r.cell(ci).is_null()).count();
        per_concept.push((concept.name().to_string(), concept_missing, rows.len()));
        total += rows.len();
        missing += concept_missing;
    }

    SparsityReport {
        total_slots: total,
        missing_slots: missing,
        ratio: if total == 0 {
            0.0
        } else {
            missing as f64 / total as f64
        },
        per_concept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn empty_table_zero_sparsity() {
        let t = Table::new(Schema::new(["D", "A"], "D"));
        let r = sparsity(&t);
        assert_eq!(r.total_slots, 0);
        assert_eq!(r.ratio, 0.0);
    }

    #[test]
    fn mixed_table() {
        let mut t = Table::new(Schema::new(["D", "A", "C"], "D"));
        t.fill_slot("x", "A", "v"); // x: A filled, C null
        t.row_for_subject("y"); // y: both null
        let r = sparsity(&t);
        assert_eq!(r.total_slots, 4);
        assert_eq!(r.missing_slots, 3);
        assert!((r.ratio - 0.75).abs() < 1e-12);
        assert_eq!(
            r.per_concept,
            vec![("A".to_string(), 1, 2), ("C".to_string(), 2, 2)]
        );
    }

    #[test]
    fn enrichment_reduces_sparsity() {
        let mut t = Table::new(Schema::new(["D", "A"], "D"));
        t.row_for_subject("x");
        let before = sparsity(&t).ratio;
        t.fill_slot("x", "A", "v");
        let after = sparsity(&t).ratio;
        assert!(after < before);
    }
}

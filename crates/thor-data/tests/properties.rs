//! Property tests for the structured-data substrate: integration
//! operators and CSV serialization.

use proptest::prelude::*;

use thor_data::csv::{from_csv, to_csv};
use thor_data::{full_disjunction, outer_join, sparsity, Cell, Concept, Schema, Table};
use thor_text::normalize_phrase;

/// Strategy: a small table over a fixed concept universe.
fn arb_table(concepts: &'static [&'static str]) -> impl Strategy<Value = Table> {
    // Each fill: (subject idx, concept idx (non-zero), value idx).
    prop::collection::vec((0usize..5, 1usize..3, 0usize..6), 0..20).prop_map(move |fills| {
        let mut t = Table::new(Schema::new(concepts.iter().copied(), concepts[0]));
        for (s, c, v) in fills {
            let c = c.min(concepts.len() - 1);
            t.fill_slot(&format!("subject{s}"), concepts[c], &format!("value{v}"));
        }
        t
    })
}

fn table_fingerprint(t: &Table) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        let subject = t.subject_of(i).to_string();
        for (ci, concept) in t.schema().concepts().iter().enumerate() {
            for v in t.rows()[i].cell(ci).values() {
                out.push((subject.clone(), concept.key(), v.to_string()));
            }
        }
    }
    out.sort();
    out
}

const CONCEPTS: &[&str] = &["Disease", "Anatomy", "Complication"];

/// Name and value pieces with awkward lowercasing: final sigma,
/// dotted capital I, sharp s and the Kelvin sign (U+212A → `k`).
const PIECES: &[&str] = &[
    "a", "A", "k", "K", "i", "ss", "SS", " ", "\t", ".", ",", "-", "ΟΔΟΣ", "οδος", "İ", "i\u{307}",
    "ß", "\u{212A}",
];

fn pieces(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

proptest! {
    /// Outer join is commutative up to row order.
    #[test]
    fn outer_join_commutative(a in arb_table(CONCEPTS), b in arb_table(CONCEPTS)) {
        let ab = outer_join(&a, &b);
        let ba = outer_join(&b, &a);
        prop_assert_eq!(table_fingerprint(&ab), table_fingerprint(&ba));
    }

    /// Joining a table with itself changes nothing.
    #[test]
    fn outer_join_idempotent(a in arb_table(CONCEPTS)) {
        let aa = outer_join(&a, &a);
        prop_assert_eq!(table_fingerprint(&aa), table_fingerprint(&a));
    }

    /// n-ary full disjunction equals a left fold of binary outer joins.
    #[test]
    fn full_disjunction_equals_fold(
        a in arb_table(CONCEPTS),
        b in arb_table(CONCEPTS),
        c in arb_table(CONCEPTS),
    ) {
        let fd = full_disjunction(&[&a, &b, &c]);
        let folded = outer_join(&outer_join(&a, &b), &c);
        prop_assert_eq!(table_fingerprint(&fd), table_fingerprint(&folded));
    }

    /// Every value of every input survives integration.
    #[test]
    fn integration_is_lossless(a in arb_table(CONCEPTS), b in arb_table(CONCEPTS)) {
        let joined = outer_join(&a, &b);
        let joined_fp = table_fingerprint(&joined);
        for source in [&a, &b] {
            for item in table_fingerprint(source) {
                prop_assert!(joined_fp.contains(&item), "lost {item:?}");
            }
        }
    }

    /// Sparsity is a ratio in [0, 1] and consistent with its counts.
    #[test]
    fn sparsity_consistent(a in arb_table(CONCEPTS)) {
        let r = sparsity(&a);
        prop_assert!((0.0..=1.0).contains(&r.ratio));
        prop_assert!(r.missing_slots <= r.total_slots);
        let per_concept_missing: usize = r.per_concept.iter().map(|(_, m, _)| m).sum();
        prop_assert_eq!(per_concept_missing, r.missing_slots);
    }

    /// CSV round-trips every table (values here avoid the multi-value
    /// separator by construction).
    #[test]
    fn csv_round_trip(a in arb_table(CONCEPTS)) {
        // Empty tables round-trip to empty tables.
        let csv = to_csv(&a);
        let back = from_csv(&csv).expect("parse");
        prop_assert_eq!(table_fingerprint(&back), table_fingerprint(&a));
    }

    /// `Schema::index_of` (no allocation on ASCII) finds the concept
    /// whose lowercase key equals the name's lowercase form.
    #[test]
    fn index_of_matches_lowercase_keys(
        names in prop::collection::vec(prop::collection::vec(0usize..18, 1..4), 1..5),
        query in prop::collection::vec(0usize..18, 0..4),
        pick in 0usize..8,
        upper in 0usize..2,
    ) {
        let mut concepts: Vec<String> = Vec::new();
        for name in names.iter().map(|n| pieces(n)) {
            if !concepts.iter().any(|c| c.to_lowercase() == name.to_lowercase()) {
                concepts.push(name);
            }
        }
        let schema = Schema::new(concepts.iter().map(String::as_str), &concepts[0]);
        // Half the queries name an existing concept in another case.
        let query = match concepts.get(pick) {
            Some(name) if upper == 1 => name.to_uppercase(),
            Some(name) => name.to_lowercase(),
            None => pieces(&query),
        };
        let expected = concepts
            .iter()
            .position(|c| c.to_lowercase() == query.to_lowercase());
        prop_assert_eq!(schema.index_of(&query), expected, "query {:?} in {:?}", query, concepts);
        for (i, c) in concepts.iter().enumerate() {
            prop_assert_eq!(
                Concept::new(c.as_str()).matches(&query),
                c.to_lowercase() == query.to_lowercase(),
                "concept {} {:?} vs {:?}", i, c, query
            );
        }
    }

    /// `Cell::contains` (no allocation on ASCII) agrees with comparing
    /// `normalize_phrase` forms.
    #[test]
    fn cell_contains_matches_normalized_forms(
        values in prop::collection::vec(prop::collection::vec(0usize..18, 1..5), 0..5),
        needle in prop::collection::vec(0usize..18, 0..5),
    ) {
        let cell: Cell = values.iter().map(|v| pieces(v)).collect();
        let needle = pieces(&needle);
        let expected = cell
            .values()
            .any(|v| normalize_phrase(v) == normalize_phrase(&needle));
        prop_assert_eq!(cell.contains(&needle), expected, "{:?} in {:?}", needle, cell);
    }
}

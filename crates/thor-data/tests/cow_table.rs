//! Copy-on-write tables and memoized CSV lines.
//!
//! A cloned [`Table`] shares its rows with the original; a slot fill
//! copies only the row it changes, and each row caches its rendered CSV
//! line until a cell changes. These properties pin what that sharing
//! must never be observable as:
//!
//! - `to_csv` is byte-identical to a plain allocating renderer, before
//!   and after the line memo is warm, and the bytes read back as the
//!   same table;
//! - editing a clone never changes the original's bytes, and the edited
//!   clone equals a table built from scratch with the same edits;
//! - a duplicate fill copies nothing;
//! - a [`thor_data::SlotWriter`] pass makes the same edits, answers and
//!   copies as `fill_slot` one value at a time.
//!
//! Row edits reach `row_mut` through `fill_slot` and `SlotWriter::fill`,
//! its only public callers.

use std::sync::Arc;

use proptest::prelude::*;

use thor_data::csv::{from_csv, to_csv, VALUE_ESCAPE, VALUE_SEPARATOR};
use thor_data::{Schema, Table};

const CONCEPTS: &[&str] = &["Disease", "Anatomy", "Complication"];

/// The awkward lowercasing pieces of `properties.rs`, every byte CSV
/// must quote, and the multi-value separator and its escape, which a
/// value escapes.
const PIECES: &[&str] = &[
    "a", "A", "k", "K", "i", "ss", "SS", " ", "\t", ".", ",", "-", "ΟΔΟΣ", "οδος", "İ", "i\u{307}",
    "ß", "\u{212A}", "\"", "\n", "\r", "\r\n", "x\"y", "|", "\\",
];

fn pieces(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// Subjects get a fixed prefix so no key normalizes to empty.
fn subject(idx: &[usize]) -> String {
    format!("s{}", pieces(idx))
}

/// One value as a multi-valued field holds it: each separator or escape
/// preceded by the escape.
fn escape_value(value: &str) -> String {
    let mut out = String::new();
    for c in value.chars() {
        if c == VALUE_SEPARATOR || c == VALUE_ESCAPE {
            out.push(VALUE_ESCAPE);
        }
        out.push(c);
    }
    out
}

/// The allocating renderer `to_csv` replaced, with `\r` quoted.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn reference_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .concepts()
        .iter()
        .map(|c| escape(&escape_value(c.name())))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let fields: Vec<String> = row
            .cells()
            .iter()
            .map(|cell| {
                let joined: Vec<String> = cell.values().map(escape_value).collect();
                escape(&joined.join(&VALUE_SEPARATOR.to_string()))
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// One table edit: `(kind, subject pieces, concept, value pieces)`.
/// Kind 0 fills a slot, kind 1 only creates (or finds) the row.
type Edit = (usize, Vec<usize>, usize, Vec<usize>);

fn arb_edits(max: usize) -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec(
        (
            0usize..2,
            prop::collection::vec(0usize..PIECES.len(), 0..2),
            1usize..CONCEPTS.len(),
            prop::collection::vec(0usize..PIECES.len(), 0..4),
        ),
        0..max,
    )
}

fn apply(table: &mut Table, edits: &[Edit]) {
    for (kind, s, c, v) in edits {
        let s = subject(s);
        match kind {
            0 => {
                table.fill_slot(&s, CONCEPTS[*c], &pieces(v));
            }
            _ => {
                table.row_for_subject(&s);
            }
        }
    }
}

/// [`apply`] through one [`thor_data::SlotWriter`], in edit order,
/// returning each fill's answer. Fills create no rows, so resolving
/// every edit's row first creates them in the same order.
fn apply_with_writer(table: &mut Table, edits: &[Edit]) -> Vec<bool> {
    let rows: Vec<usize> = edits
        .iter()
        .map(|(_, s, ..)| table.row_for_subject(&subject(s)))
        .collect();
    let mut writer = table.slot_writer();
    let mut answers = Vec::new();
    for ((kind, _, c, v), ri) in edits.iter().zip(rows) {
        if *kind == 0 {
            answers.push(writer.fill(ri, *c, &pieces(v)));
        }
    }
    answers
}

fn build(edits: &[Edit]) -> Table {
    let mut t = Table::new(Schema::new(CONCEPTS.iter().copied(), CONCEPTS[0]));
    apply(&mut t, edits);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (a) `to_csv` equals the allocating renderer cold, warm, and after
    /// edits to a warm table; its bytes read back as the same table.
    #[test]
    fn to_csv_matches_the_allocating_renderer(
        edits in arb_edits(24),
        more in arb_edits(8),
    ) {
        let mut t = build(&edits);
        let cold = to_csv(&t);
        prop_assert_eq!(&cold, &reference_csv(&t));
        prop_assert_eq!(&to_csv(&t), &cold, "warm memo");
        prop_assert_eq!(&to_csv(&from_csv(&cold).expect("parse")), &cold);
        apply(&mut t, &more);
        prop_assert_eq!(to_csv(&t), reference_csv(&t), "after edits");
    }

    /// (b) Editing a clone leaves the original's bytes alone, copies
    /// only rows it changes, and matches a from-scratch rebuild, one-off
    /// or through a writer.
    #[test]
    fn edits_to_a_clone_stay_in_the_clone(
        base in arb_edits(24),
        edits in arb_edits(12),
    ) {
        let a = build(&base);
        let before = to_csv(&a);
        let mut b = a.clone();
        apply(&mut b, &edits);

        prop_assert_eq!(&to_csv(&a), &before);
        prop_assert_eq!(a.rows(), build(&base).rows());
        for s in b.subjects() {
            prop_assert_eq!(a.get_row(s), build(&base).get_row(s), "{:?}", s);
        }

        let rebuilt = build(&[base.as_slice(), edits.as_slice()].concat());
        prop_assert_eq!(b.rows(), rebuilt.rows());
        prop_assert_eq!(to_csv(&b), to_csv(&rebuilt));
        for s in rebuilt.subjects() {
            prop_assert_eq!(b.get_row(s), rebuilt.get_row(s), "{:?}", s);
        }
        for (mine, shared) in b.rows().iter().zip(a.rows()) {
            prop_assert!(Arc::ptr_eq(mine, shared) || mine != shared, "row copied unchanged");
        }

        // The same edits through one writer pass: same answers, bytes
        // and copies.
        let mut w = a.clone();
        let answers = apply_with_writer(&mut w, &edits);
        let mut one_off = a.clone();
        let expected: Vec<bool> = edits
            .iter()
            .filter(|(kind, ..)| *kind == 0)
            .map(|(_, s, c, v)| one_off.fill_slot(&subject(s), CONCEPTS[*c], &pieces(v)))
            .collect();
        prop_assert_eq!(answers, expected);
        prop_assert_eq!(to_csv(&w), to_csv(&b));
        prop_assert_eq!(&to_csv(&a), &before);
        for (mine, shared) in w.rows().iter().zip(a.rows()) {
            prop_assert!(Arc::ptr_eq(mine, shared) || mine != shared, "row copied unchanged");
        }
    }

    /// (c) Re-filling a value a cell already holds — ASCII-uppercased
    /// and padded — or a blank value copies no row, one-off or through
    /// a writer.
    #[test]
    fn a_duplicate_fill_copies_nothing(base in arb_edits(24), pick in 0usize..64) {
        let a = build(&base);
        let mut filled = Vec::new();
        for (i, row) in a.rows().iter().enumerate() {
            for ci in 1..CONCEPTS.len() {
                filled.extend(row.cell(ci).values().map(|v| (i, ci, v)));
            }
        }
        if let Some(&(i, ci, value)) = filled.get(pick % filled.len().max(1)) {
            let mut b = a.clone();
            let subject = a.subject_of(i).to_ascii_uppercase();
            let padded = format!(" {}\t", value.to_ascii_uppercase());
            prop_assert!(!b.fill_slot(&subject, CONCEPTS[ci], &padded));
            prop_assert!(!b.fill_slot(a.subject_of(i), CONCEPTS[ci], "  "));
            let ri = b.row_for_subject(&subject);
            let mut writer = b.slot_writer();
            prop_assert!(!writer.fill(ri, ci, &padded));
            prop_assert!(!writer.fill(ri, ci, "  "));
            for (mine, shared) in b.rows().iter().zip(a.rows()) {
                prop_assert!(Arc::ptr_eq(mine, shared));
            }
        }
    }
}

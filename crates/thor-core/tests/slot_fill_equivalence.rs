//! Property: [`slot_fill`], one keyed [`thor_data::SlotWriter`] pass,
//! enriches a table exactly as filling each entity with
//! [`Table::fill_slot`] in turn does — the same `to_csv` bytes and the
//! same four [`SlotFillStats`] counts.
//!
//! The writer answers "is this value new to its cell?" from a set of
//! `normalize_phrase` keys instead of scanning the cell with
//! `normalized_eq`, so the generated entities aim at what could tell the
//! two apart: case, whitespace and punctuation variants of one value,
//! values that normalize to nothing, non-ASCII folds, phrases that trim
//! to empty, unknown and subject concepts, subjects the table lacks or
//! names two ways, and repeats across documents. They fill a clone that
//! shares its rows with the original, as a run fills the engine's table.

use std::sync::Arc;

use proptest::prelude::*;
use thor_core::slotfill::{slot_fill, SlotFillStats};
use thor_core::ExtractedEntity;
use thor_data::{to_csv, Schema, Table};

/// The per-entity loop `slot_fill` replaced: the oracle.
fn reference_slot_fill(table: &mut Table, entities: &[ExtractedEntity]) -> SlotFillStats {
    let mut stats = SlotFillStats::default();
    for e in entities {
        if table.schema().subject().matches(&e.concept) {
            stats.subject_concept_skipped += 1;
            continue;
        }
        if table.schema().index_of(&e.concept).is_none() {
            stats.unknown_concept_skipped += 1;
            continue;
        }
        if table.fill_slot(&e.subject, &e.concept, &e.phrase) {
            stats.inserted += 1;
        } else {
            stats.duplicates += 1;
        }
    }
    stats
}

const CONCEPTS: &[&str] = &["Disease", "Anatomy", "Complication", "Symptom"];

/// Two display forms of one subject (the Kelvin sign lowercases to an
/// ASCII `k`), case and punctuation variants, and subjects the base
/// table may not have.
const SUBJECTS: &[&str] = &[
    "Tuberculosis",
    "tuberculosis ",
    "TUBERCULOSIS.",
    "Acne",
    "\u{212A}eratitis",
    "keratitis",
    "Absent Disease",
    "ΟΔΟΣ",
];

/// Entity concepts: each column in two cases, the subject concept in
/// two cases, and names outside the schema.
const ENTITY_CONCEPTS: &[&str] = &[
    "Anatomy",
    "anatomy",
    "Complication",
    "SYMPTOM",
    "Symptom",
    "Disease",
    "disease",
    "Bogus",
    "Anatomy ",
];

/// Phrase pieces, concatenated one to three at a time: variants of
/// `lungs`, values that normalize to nothing, blanks, and non-ASCII
/// letters whose lowercase changes length or lands in ASCII (`İ` →
/// `i̇`, final `Σ` → `ς`, Kelvin sign → `k`).
const PIECES: &[&str] = &[
    "Lungs",
    " lungs ",
    "LUNGS.",
    "lungs",
    "***",
    "!!!",
    "  ",
    "",
    "\t",
    "İ",
    "i\u{307}",
    "ΟΔΟΣ",
    "οδος",
    "οδοσ",
    "\u{212A}",
    "k",
    "K",
    " brain stem",
    "Brain  Stem",
    "(brain) ",
    "ß",
    "SS",
    "-",
];

fn phrase(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// One base-table edit: `(subject, concept column, phrase pieces)`.
type Seed = (usize, usize, Vec<usize>);

/// One entity: `(document, subject, concept, phrase pieces)`.
type Pick = (usize, usize, usize, Vec<usize>);

fn base_table(seeds: &[Seed]) -> Table {
    let mut table = Table::new(Schema::new(CONCEPTS.iter().copied(), CONCEPTS[0]));
    // Not every subject has a row: "Absent Disease" and "ΟΔΟΣ" only
    // appear when a seed names them.
    table.row_for_subject("Tuberculosis");
    table.row_for_subject("Acne");
    table.row_for_subject("keratitis");
    for (s, c, v) in seeds {
        table.fill_slot(
            SUBJECTS[s % SUBJECTS.len()],
            CONCEPTS[1 + c % (CONCEPTS.len() - 1)],
            &phrase(v),
        );
    }
    table
}

fn entities(picks: &[Pick], merged_order: bool) -> Vec<ExtractedEntity> {
    let mut entities: Vec<ExtractedEntity> = picks
        .iter()
        .map(|(d, s, c, v)| ExtractedEntity {
            subject: SUBJECTS[s % SUBJECTS.len()].to_string(),
            concept: ENTITY_CONCEPTS[c % ENTITY_CONCEPTS.len()].to_string(),
            phrase: phrase(v),
            score: 0.5,
            matched_instance: String::new(),
            doc_id: format!("d{}", d % 3),
            sentence_index: 0,
        })
        .collect();
    if merged_order {
        // A run's merged order: by document, then concept, so equal
        // concept strings come in runs.
        entities.sort_by(|a, b| {
            (&a.doc_id, a.concept.to_lowercase()).cmp(&(&b.doc_id, b.concept.to_lowercase()))
        });
    }
    entities
}

fn arb_phrase() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..PIECES.len(), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn keyed_slot_fill_equals_the_per_entity_reference(
        seeds in prop::collection::vec((0usize..8, 0usize..3, arb_phrase()), 0..12),
        picks in prop::collection::vec((0usize..3, 0usize..8, 0usize..9, arb_phrase()), 0..40),
        merged_order in 0usize..2,
    ) {
        let base = base_table(&seeds);
        let entities = entities(&picks, merged_order == 1);

        let mut expected = base.clone();
        let expected_stats = reference_slot_fill(&mut expected, &entities);
        let mut keyed = base.clone();
        let stats = slot_fill(&mut keyed, &entities);

        prop_assert_eq!(stats, expected_stats, "{:?}", entities);
        prop_assert_eq!(to_csv(&keyed), to_csv(&expected), "{:?}", entities);
        // Rows the pass left alone stay shared with the original.
        for (mine, shared) in keyed.rows().iter().zip(base.rows()) {
            prop_assert!(Arc::ptr_eq(mine, shared) || mine != shared, "row copied unchanged");
        }

        // Filling the same entities again only finds duplicates.
        let again = slot_fill(&mut keyed, &entities);
        prop_assert_eq!(again, reference_slot_fill(&mut expected, &entities));
        prop_assert_eq!(again.inserted, 0);
        prop_assert_eq!(to_csv(&keyed), to_csv(&expected));
    }
}

#[test]
fn variants_of_one_value_keep_the_first_display_form() {
    let base = base_table(&[]);
    let picks: Vec<Pick> = [1, 0, 2, 3, 4, 5, 6]
        .iter()
        .map(|&v| (0, 0, 0, vec![v]))
        .collect();
    let mut table = base.clone();
    let stats = slot_fill(&mut table, &entities(&picks, false));
    // " lungs " goes in trimmed; "Lungs", "LUNGS." and "lungs" are its
    // duplicates; "***" goes in and "!!!" duplicates it (both normalize
    // to nothing); "  " trims to empty and is a duplicate too.
    assert_eq!(
        stats,
        SlotFillStats {
            inserted: 2,
            duplicates: 5,
            ..SlotFillStats::default()
        }
    );
    let row = table.get_row("Tuberculosis").unwrap();
    let values: Vec<&str> = row.cell(1).values().collect();
    assert_eq!(values, ["***", "lungs"]);
}

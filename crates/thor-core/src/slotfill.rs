//! Phase ③ — slot filling (Algorithm 1 lines 16–20).
//!
//! "THOR iterates over subject instances, and for each subject instance
//! c*, the row r that has value c* … is selected. Then, for every entity
//! e related to subject c*, THOR fills in the slot that corresponds to
//! row r and column e.C with the extracted phrase e.p."

use thor_data::Table;

use crate::entity::ExtractedEntity;

/// Outcome counts of a slot-filling pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotFillStats {
    /// Values newly inserted into cells.
    pub inserted: usize,
    /// Values already present (idempotent re-inserts).
    pub duplicates: usize,
    /// Entities whose concept is the subject concept (never slot-filled:
    /// the subject column is the single-valued key).
    pub subject_concept_skipped: usize,
    /// Entities whose concept is not in the table schema.
    pub unknown_concept_skipped: usize,
}

/// Fill `table` with `entities`, returning the outcome counts. The
/// table is mutated in place; rows are created for unseen subjects
/// (entities always originate from known subjects, but the enriched
/// test tables start stripped). Unmetered: the execution core wraps the
/// pass in the `stage.slot_fill` span and feeds the counts to
/// `slots.inserted` / `slots.duplicate`.
pub fn slot_fill(table: &mut Table, entities: &[ExtractedEntity]) -> SlotFillStats {
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

#[cfg(test)]
mod tests {
    use super::*;
    use thor_data::Schema;

    fn entity(subject: &str, concept: &str, phrase: &str) -> ExtractedEntity {
        ExtractedEntity {
            subject: subject.into(),
            concept: concept.into(),
            phrase: phrase.into(),
            score: 0.5,
            matched_instance: String::new(),
            doc_id: "d".into(),
            sentence_index: 0,
        }
    }

    fn table() -> Table {
        Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ))
    }

    #[test]
    fn fig4_slot_filling() {
        // "two entities, 'unsteadiness' and 'empyema', related to two
        // subjects … fill in two slots for the concept 'Complication'."
        let mut t = table();
        let entities = vec![
            entity("Acoustic Neuroma", "Complication", "unsteadiness"),
            entity("Tuberculosis", "Complication", "empyema"),
        ];
        let stats = slot_fill(&mut t, &entities);
        assert_eq!(stats.inserted, 2);
        assert!(t
            .get_row("Acoustic Neuroma")
            .unwrap()
            .cell(2)
            .contains("unsteadiness"));
        assert!(t
            .get_row("Tuberculosis")
            .unwrap()
            .cell(2)
            .contains("empyema"));
    }

    #[test]
    fn idempotent_refill() {
        let mut t = table();
        let es = vec![entity("TB", "Anatomy", "lungs")];
        assert_eq!(slot_fill(&mut t, &es).inserted, 1);
        let again = slot_fill(&mut t, &es);
        assert_eq!(again.inserted, 0);
        assert_eq!(again.duplicates, 1);
    }

    #[test]
    fn subject_concept_entities_skipped() {
        let mut t = table();
        let es = vec![entity("TB", "Disease", "malaria")];
        let stats = slot_fill(&mut t, &es);
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.subject_concept_skipped, 1);
    }

    #[test]
    fn unknown_concept_entities_skipped() {
        let mut t = table();
        let es = vec![entity("TB", "Bogus", "value")];
        let stats = slot_fill(&mut t, &es);
        assert_eq!(stats.unknown_concept_skipped, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn enrichment_completes_partial_data() {
        // Fig 1: 'Anatomy' already has 'nervous system' for Acoustic
        // Neuroma; the extracted 'brain' is *additional* information.
        let mut t = table();
        t.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
        slot_fill(&mut t, &[entity("Acoustic Neuroma", "Anatomy", "brain")]);
        let row = t.get_row("Acoustic Neuroma").unwrap();
        let ci = t.schema().index_of("Anatomy").unwrap();
        assert_eq!(row.cell(ci).len(), 2);
    }
}

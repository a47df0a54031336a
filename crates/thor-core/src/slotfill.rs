//! Phase ③ — slot filling (Algorithm 1 lines 16–20).
//!
//! "THOR iterates over subject instances, and for each subject instance
//! c*, the row r that has value c* … is selected. Then, for every entity
//! e related to subject c*, THOR fills in the slot that corresponds to
//! row r and column e.C with the extracted phrase e.p."

use thor_data::{Schema, Table};

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

/// Where an entity's concept sends it.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The subject concept: never slot-filled.
    Subject,
    /// Not in the schema.
    Unknown,
    /// The column at this concept index.
    Column(usize),
}

impl Target {
    fn of(schema: &Schema, concept: &str) -> Self {
        if schema.subject().matches(concept) {
            return Target::Subject;
        }
        schema
            .index_of(concept)
            .map_or(Target::Unknown, Target::Column)
    }
}

/// Fill `table` with `entities`, returning the outcome counts. The
/// table is mutated in place; rows are created for unseen subjects
/// (entities always originate from known subjects, but the enriched
/// test tables start stripped). Unmetered: the execution core wraps the
/// pass in the `stage.slot_fill` span and feeds the counts to
/// `slots.inserted` / `slots.duplicate`.
///
/// Each answer equals [`Table::fill_slot`]'s on the same entity in the
/// same order. A first pass, in entity order, resolves each entity's
/// concept and row (once per run of equal strings, which the merged
/// order makes long) and creates missing rows in the order the
/// one-off inserts would. The fills are then sorted stably by cell and
/// go through one [`SlotWriter`](thor_data::SlotWriter), so each
/// touched cell's key set is seeded once and every value is a lookup,
/// not a scan. A cell's values keep their entity order, so its first
/// display form still wins.
pub fn slot_fill(table: &mut Table, entities: &[ExtractedEntity]) -> SlotFillStats {
    let mut stats = SlotFillStats::default();
    // (row, concept index, entity index) per entity to fill.
    let mut fills: Vec<(usize, usize, usize)> = Vec::with_capacity(entities.len());
    let mut concept: Option<(&str, Target)> = None;
    let mut subject: Option<(&str, usize)> = None;
    for (i, e) in entities.iter().enumerate() {
        let target = match concept {
            Some((name, target)) if name == e.concept => target,
            _ => {
                let target = Target::of(table.schema(), &e.concept);
                concept = Some((&e.concept, target));
                target
            }
        };
        let ci = match target {
            Target::Subject => {
                stats.subject_concept_skipped += 1;
                continue;
            }
            Target::Unknown => {
                stats.unknown_concept_skipped += 1;
                continue;
            }
            Target::Column(ci) => ci,
        };
        let ri = match subject {
            Some((name, ri)) if name == e.subject => ri,
            _ => {
                let ri = table.row_for_subject(&e.subject);
                subject = Some((&e.subject, ri));
                ri
            }
        };
        fills.push((ri, ci, i));
    }
    // Entity indices are distinct, so this is the stable sort by cell.
    fills.sort_unstable();
    let mut writer = table.slot_writer();
    for (ri, ci, i) in fills {
        if writer.fill(ri, ci, &entities[i].phrase) {
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

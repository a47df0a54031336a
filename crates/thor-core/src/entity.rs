//! Conceptualized entities — the pipeline's unit of output.

use std::cmp::Ordering;

/// An entity `e = ⟨p, C⟩` extracted for a subject instance: the phrase,
/// the assigned concept, and provenance/score metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedEntity {
    /// The subject instance `c*` the entity belongs to.
    pub subject: String,
    /// The concept `e.C` the phrase was conceptualized as.
    pub concept: String,
    /// The phrase `e.p` (normalized form).
    pub phrase: String,
    /// Combined score: mean of semantic, word-Jaccard and gestalt
    /// similarity to the matched instance.
    pub score: f64,
    /// The seed instance `c_m` that anchored the match.
    pub matched_instance: String,
    /// Identifier of the source document.
    pub doc_id: String,
    /// Index of the source sentence within the document.
    pub sentence_index: usize,
}

impl ExtractedEntity {
    /// Deduplication key: one logical prediction per (document, concept,
    /// phrase) triple, matching the evaluation granularity.
    pub fn key(&self) -> (String, String, String) {
        (
            self.doc_id.clone(),
            self.concept.to_lowercase(),
            self.phrase.to_lowercase(),
        )
    }

    /// `self.key().cmp(&other.key())` without building either key: the
    /// final dedup sort runs this once per comparison.
    pub(crate) fn cmp_key(&self, other: &Self) -> Ordering {
        self.doc_id
            .cmp(&other.doc_id)
            .then_with(|| cmp_lowercase(&self.concept, &other.concept))
            .then_with(|| cmp_lowercase(&self.phrase, &other.phrase))
    }
}

/// `a.to_lowercase().cmp(&b.to_lowercase())`, allocating only when a
/// side is not ASCII. Non-ASCII text goes through `str::to_lowercase`
/// because its context rules (a word-final `Σ` lowercases to `ς`) make
/// per-character lowercasing inexact.
fn cmp_lowercase(a: &str, b: &str) -> Ordering {
    if a.is_ascii() && b.is_ascii() {
        a.bytes()
            .map(|c| c.to_ascii_lowercase())
            .cmp(b.bytes().map(|c| c.to_ascii_lowercase()))
    } else {
        a.to_lowercase().cmp(&b.to_lowercase())
    }
}

/// Render entities as the canonical TSV the CLI's `--entities` option
/// writes: `doc_id<TAB>concept<TAB>phrase<TAB>subject<TAB>score`, one
/// line per entity, score with three decimals. The HTTP `/extract`
/// endpoint emits the same bytes, which is what makes served extraction
/// diff-able against a batch run.
pub fn entities_tsv(entities: &[ExtractedEntity]) -> String {
    use std::fmt::Write as _;
    let mut tsv = String::new();
    for e in entities {
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{}\t{:.3}",
            e.doc_id, e.concept, e.phrase, e.subject, e.score
        );
    }
    tsv
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entity(doc: &str, concept: &str, phrase: &str) -> ExtractedEntity {
        ExtractedEntity {
            subject: "tb".into(),
            concept: concept.into(),
            phrase: phrase.into(),
            score: 0.5,
            matched_instance: "seed".into(),
            doc_id: doc.into(),
            sentence_index: 0,
        }
    }

    #[test]
    fn key_is_case_insensitive_on_concept_and_phrase() {
        assert_eq!(
            entity("d", "Anatomy", "Lungs").key(),
            entity("d", "anatomy", "lungs").key()
        );
        assert_ne!(
            entity("d1", "Anatomy", "x").key(),
            entity("d2", "Anatomy", "x").key()
        );
    }

    /// Case-sensitive, multi-byte and context-sensitive lowercasing:
    /// final sigma (`ΟΔΟΣ` → `οδος`), dotted capital I (`İ` → `i̇`, two
    /// chars), `ß` (lowercase already, uppercases to two chars) and
    /// titlecase `ǅ`.
    const TEXT: &str = "(a|A|b|B|z|Z|ab|AB|ΟΔΟΣ|οδος|οδοσ|Σ|σ|ς|İ|i|I|ß|SS|ǅ|ǆ|Ǆ|é|É| |-){0,4}";

    fn entity_strategy() -> impl Strategy<Value = ExtractedEntity> {
        ("(d0|d1|D0)", TEXT, TEXT).prop_map(|(doc, concept, phrase)| ExtractedEntity {
            doc_id: doc,
            ..entity("", &concept, &phrase)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn cmp_key_orders_like_key(a in entity_strategy(), b in entity_strategy()) {
            prop_assert_eq!(a.cmp_key(&b), a.key().cmp(&b.key()), "{:?} vs {:?}", a, b);
            prop_assert_eq!(b.cmp_key(&a), b.key().cmp(&a.key()));
            prop_assert_eq!(a.cmp_key(&a), Ordering::Equal);
        }

        #[test]
        fn dedup_matches_the_key_based_dedup(
            entities in prop::collection::vec((entity_strategy(), 0usize..3), 0..24),
        ) {
            let entities: Vec<ExtractedEntity> = entities
                .into_iter()
                .map(|(e, s)| ExtractedEntity { score: s as f64 / 2.0, ..e })
                .collect();
            let mut expected = entities.clone();
            expected.sort_by(|a, b| {
                a.key()
                    .cmp(&b.key())
                    .then_with(|| b.score.total_cmp(&a.score))
                    .then_with(|| a.phrase.cmp(&b.phrase))
            });
            expected.dedup_by(|next, first| next.key() == first.key());
            let mut got = entities;
            crate::pipeline::dedup_entities(&mut got);
            prop_assert_eq!(got, expected);
        }

        /// The run's merge of per-document batches is the global dedup
        /// of everything the batches held: batches finishing in any
        /// order, empty ones, several batches of one id (plain runs
        /// allow duplicate ids) and a resumed checkpoint's multi-document
        /// batch, which goes first, as it does in a run.
        #[test]
        fn merged_doc_batches_equal_the_global_dedup(
            batches in prop::collection::vec(
                (
                    0usize..4,
                    0u32..1000,
                    prop::collection::vec((entity_strategy(), 0usize..3), 0..6),
                ),
                0..8,
            ),
            resumed in prop::collection::vec((0usize..4, entity_strategy(), 0usize..3), 0..10),
        ) {
            const IDS: [&str; 4] = ["d0", "d1", "D0", "d2"];
            let place = |doc: usize, e: ExtractedEntity, s: usize| ExtractedEntity {
                doc_id: IDS[doc].to_string(),
                score: s as f64 / 2.0,
                ..e
            };
            let resumed: Vec<ExtractedEntity> =
                resumed.into_iter().map(|(doc, e, s)| place(doc, e, s)).collect();
            // Completion order: the batches sorted by a random key.
            let mut batches: Vec<(u32, Vec<ExtractedEntity>)> = batches
                .into_iter()
                .map(|(doc, order, es)| {
                    (order, es.into_iter().map(|(e, s)| place(doc, e, s)).collect())
                })
                .collect();
            batches.sort_by_key(|(order, _)| *order);

            let mut expected = resumed.clone();
            for (_, batch) in &batches {
                expected.extend(batch.iter().cloned());
            }
            crate::pipeline::dedup_entities(&mut expected);

            let mut run = crate::pipeline::doc_batches(resumed);
            for (_, mut batch) in batches {
                crate::pipeline::dedup_entities(&mut batch);
                run.push(batch);
            }
            prop_assert_eq!(crate::pipeline::merge_doc_batches(run), expected);
        }
    }

    #[test]
    fn cmp_key_handles_final_sigma() {
        // Per-character lowercasing would give `οδοσ`, which sorts
        // after `οδος`; `str::to_lowercase` gives `οδος` itself.
        let upper = entity("d", "c", "ΟΔΟΣ");
        let lower = entity("d", "c", "οδος");
        assert_eq!(upper.cmp_key(&lower), Ordering::Equal);
        assert_eq!(upper.key(), lower.key());
    }
}

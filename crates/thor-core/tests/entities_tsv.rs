//! Property: [`entities_tsv`], which formats each distinct score once
//! per call and copies that text for later lines, writes the bytes of
//! the plain `writeln!("{}\t{}\t{}\t{}\t{:.3}")` renderer.
//!
//! Scores are drawn mostly from a small pool, so bit patterns repeat,
//! and the pool holds what `{:.3}` rounds awkwardly: the exact binary
//! ties at k/16, the neighbours of the 0.0005 and 0.9995 rounding
//! boundaries, `-0.0`, subnormals and 1.0.

use std::fmt::Write as _;

use proptest::prelude::*;
use thor_core::{entities_tsv, ExtractedEntity};

/// The renderer `entities_tsv` replaced: the oracle.
fn reference_tsv(entities: &[ExtractedEntity]) -> String {
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

fn score_pool() -> Vec<f64> {
    let mut pool: Vec<f64> = (0..=16).map(|k| k as f64 / 16.0).collect();
    for edge in [0.0005f64, 0.9995, 0.0015, 0.5005] {
        pool.extend([edge, edge.next_up(), edge.next_down()]);
    }
    pool.extend([
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
        1.0,
        1.0f64.next_down(),
        0.1 + 0.2,
        2.0 / 3.0,
    ]);
    pool
}

/// A score: a pool entry for most picks, otherwise `fresh`.
fn score(pool: &[f64], pick: usize, fresh: f64) -> f64 {
    pool.get(pick).copied().unwrap_or(fresh)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn entities_tsv_equals_the_writeln_reference(
        lines in prop::collection::vec(
            (
                (
                    "(d0|d1|doc-2)",
                    "(Anatomy|Complication|ΟΔΟΣ)",
                    "[a-zA-Z .'İ-]{0,12}",
                    "(Tuberculosis|Acne|)",
                ),
                (0usize..48, 0.0f64..1.0),
            ),
            0..40,
        ),
    ) {
        let pool = score_pool();
        let entities: Vec<ExtractedEntity> = lines
            .into_iter()
            .enumerate()
            .map(|(i, ((doc_id, concept, phrase, subject), (pick, fresh)))| ExtractedEntity {
                subject,
                concept,
                phrase,
                score: score(&pool, pick, fresh),
                matched_instance: String::new(),
                doc_id,
                sentence_index: i,
            })
            .collect();
        prop_assert_eq!(entities_tsv(&entities), reference_tsv(&entities));
    }
}

#[test]
fn every_pool_score_renders_like_the_reference() {
    let entities: Vec<ExtractedEntity> = score_pool()
        .into_iter()
        .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY])
        .map(|score| ExtractedEntity {
            subject: "s".into(),
            concept: "c".into(),
            phrase: "p".into(),
            score,
            matched_instance: String::new(),
            doc_id: "d".into(),
            sentence_index: 0,
        })
        .collect();
    let twice = [entities.as_slice(), entities.as_slice()].concat();
    assert_eq!(entities_tsv(&twice), reference_tsv(&twice));
    assert_eq!(entities_tsv(&[]), "");
    // `-0.0` and `0.0` are distinct bit patterns with distinct text.
    assert!(entities_tsv(&twice).contains("\t-0.000\n"));
}

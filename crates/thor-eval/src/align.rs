//! Prediction–gold alignment.

use thor_text::{is_stopword, normalize_phrase};

/// One annotation: a conceptualized phrase in a document. Both gold
/// annotations and system predictions use this shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Annotation {
    /// Source document id.
    pub doc_id: String,
    /// Concept label.
    pub concept: String,
    /// Entity phrase.
    pub phrase: String,
}

impl Annotation {
    /// Create an annotation; concept and phrase are normalized.
    pub fn new(doc_id: impl Into<String>, concept: &str, phrase: &str) -> Self {
        Self {
            doc_id: doc_id.into(),
            concept: concept.to_lowercase(),
            phrase: normalize_phrase(phrase),
        }
    }
}

/// Sort `annotations` by (document, concept, phrase) and keep each
/// once: the evaluation granularity, at which a document either
/// mentions a conceptualized phrase or does not, however often a gold
/// file lists it. Gold annotations go through here before scoring.
pub fn dedup_annotations(mut annotations: Vec<Annotation>) -> Vec<Annotation> {
    annotations.sort_by(|a, b| {
        (&a.doc_id, &a.concept, &a.phrase).cmp(&(&b.doc_id, &b.concept, &b.phrase))
    });
    annotations.dedup();
    annotations
}

/// SemEval match classes for one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchClass {
    /// Exact boundary and type match.
    Correct,
    /// Boundary overlap, same type.
    Partial,
    /// Boundary overlap, wrong type.
    Incorrect,
    /// No gold counterpart.
    Spurious,
}

/// Do two normalized phrases overlap? True when they share a
/// non-stop-word word, or one is a substring of the other. This mirrors
/// the paper's 'main (vestibular) nerve' example: predicting only
/// 'vestibular' still counts as a partial hit.
pub fn phrases_overlap(a: &str, b: &str) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    if a == b || a.contains(b) || b.contains(a) {
        return true;
    }
    let words_b: std::collections::HashSet<&str> =
        b.split_whitespace().filter(|w| !is_stopword(w)).collect();
    a.split_whitespace()
        .filter(|w| !is_stopword(w))
        .any(|w| words_b.contains(w))
}

/// The alignment of one prediction, with the index of the gold
/// annotation it consumed (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aligned {
    /// Index into the predictions slice.
    pub prediction: usize,
    /// Match class.
    pub class: MatchClass,
    /// Index into the gold slice, for non-spurious classes.
    pub gold: Option<usize>,
    /// Whether the aligned pair has byte-identical (normalized)
    /// boundaries — needed by the boundary-only SemEval schemas
    /// (`exact`, `partial`), where a wrong-type pair with exact
    /// boundaries still scores.
    pub boundary_exact: bool,
}

/// Align predictions to gold annotations.
///
/// Greedy, highest-quality-first: all exact (boundary+type) matches are
/// taken first, then partial same-type overlaps, then wrong-type
/// overlaps; each gold annotation is consumed at most once. Remaining
/// predictions are spurious; unconsumed gold annotations are the missing
/// set (returned as indices).
pub fn align(predictions: &[Annotation], gold: &[Annotation]) -> (Vec<Aligned>, Vec<usize>) {
    let mut gold_used = vec![false; gold.len()];
    let mut result: Vec<Option<Aligned>> = vec![None; predictions.len()];

    // Pass 1: exact matches.
    for (pi, p) in predictions.iter().enumerate() {
        for (gi, g) in gold.iter().enumerate() {
            if gold_used[gi] || result[pi].is_some() {
                continue;
            }
            if p.doc_id == g.doc_id && p.concept == g.concept && p.phrase == g.phrase {
                gold_used[gi] = true;
                result[pi] = Some(Aligned {
                    prediction: pi,
                    class: MatchClass::Correct,
                    gold: Some(gi),
                    boundary_exact: true,
                });
            }
        }
    }
    // Pass 2: partial same-type.
    for (pi, p) in predictions.iter().enumerate() {
        if result[pi].is_some() {
            continue;
        }
        for (gi, g) in gold.iter().enumerate() {
            if gold_used[gi] {
                continue;
            }
            if p.doc_id == g.doc_id
                && p.concept == g.concept
                && phrases_overlap(&p.phrase, &g.phrase)
            {
                gold_used[gi] = true;
                result[pi] = Some(Aligned {
                    prediction: pi,
                    class: MatchClass::Partial,
                    gold: Some(gi),
                    boundary_exact: p.phrase == g.phrase,
                });
                break;
            }
        }
    }
    // Pass 3: overlapping but wrong type.
    for (pi, p) in predictions.iter().enumerate() {
        if result[pi].is_some() {
            continue;
        }
        for (gi, g) in gold.iter().enumerate() {
            if gold_used[gi] {
                continue;
            }
            if p.doc_id == g.doc_id && phrases_overlap(&p.phrase, &g.phrase) {
                gold_used[gi] = true;
                result[pi] = Some(Aligned {
                    prediction: pi,
                    class: MatchClass::Incorrect,
                    gold: Some(gi),
                    boundary_exact: p.phrase == g.phrase,
                });
                break;
            }
        }
    }
    // Rest: spurious.
    let aligned: Vec<Aligned> = result
        .into_iter()
        .enumerate()
        .map(|(pi, a)| {
            a.unwrap_or(Aligned {
                prediction: pi,
                class: MatchClass::Spurious,
                gold: None,
                boundary_exact: false,
            })
        })
        .collect();
    let missing: Vec<usize> = gold_used
        .iter()
        .enumerate()
        .filter_map(|(gi, &used)| (!used).then_some(gi))
        .collect();
    (aligned, missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(doc: &str, concept: &str, phrase: &str) -> Annotation {
        Annotation::new(doc, concept, phrase)
    }

    #[test]
    fn overlap_rules() {
        assert!(phrases_overlap("vestibular", "main vestibular nerve"));
        assert!(phrases_overlap("brain tumor", "tumor"));
        assert!(phrases_overlap("hearing loss", "loss of hearing"));
        assert!(!phrases_overlap("brain", "lungs"));
        assert!(!phrases_overlap("", "lungs"));
        // Stop-word-only overlap doesn't count.
        assert!(!phrases_overlap("loss of balance", "shortness of breath"));
    }

    #[test]
    fn exact_match_preferred_over_partial() {
        let gold = vec![
            ann("d", "anatomy", "nerve"),
            ann("d", "anatomy", "vestibular nerve"),
        ];
        let preds = vec![ann("d", "anatomy", "vestibular nerve")];
        let (aligned, missing) = align(&preds, &gold);
        assert_eq!(aligned[0].class, MatchClass::Correct);
        assert_eq!(aligned[0].gold, Some(1));
        assert_eq!(missing, vec![0]);
    }

    #[test]
    fn partial_same_type() {
        let gold = vec![ann("d", "anatomy", "main vestibular nerve")];
        let preds = vec![ann("d", "anatomy", "vestibular")];
        let (aligned, missing) = align(&preds, &gold);
        assert_eq!(aligned[0].class, MatchClass::Partial);
        assert!(missing.is_empty());
    }

    #[test]
    fn wrong_type_overlap_is_incorrect() {
        let gold = vec![ann("d", "anatomy", "blood vessels")];
        let preds = vec![ann("d", "complication", "blood")];
        let (aligned, _) = align(&preds, &gold);
        assert_eq!(aligned[0].class, MatchClass::Incorrect);
    }

    #[test]
    fn spurious_and_missing() {
        let gold = vec![ann("d", "anatomy", "lungs")];
        let preds = vec![ann("d", "anatomy", "xyzzy")];
        let (aligned, missing) = align(&preds, &gold);
        assert_eq!(aligned[0].class, MatchClass::Spurious);
        assert_eq!(missing, vec![0]);
    }

    #[test]
    fn doc_boundaries_respected() {
        let gold = vec![ann("d1", "anatomy", "lungs")];
        let preds = vec![ann("d2", "anatomy", "lungs")];
        let (aligned, missing) = align(&preds, &gold);
        assert_eq!(aligned[0].class, MatchClass::Spurious);
        assert_eq!(missing.len(), 1);
    }

    #[test]
    fn each_gold_consumed_once() {
        let gold = vec![ann("d", "anatomy", "lungs")];
        let preds = vec![ann("d", "anatomy", "lungs"), ann("d", "anatomy", "lungs")];
        let (aligned, _) = align(&preds, &gold);
        assert_eq!(aligned[0].class, MatchClass::Correct);
        assert_eq!(aligned[1].class, MatchClass::Spurious);
    }
}

//! The dyn-dispatchable candidate surface of the semantic matcher.

use crate::matcher::CandidateEntity;

/// A source of candidate entities for a phrase, implemented by the
/// fine-tuned [`crate::SimilarityMatcher`]. The pipeline calls the
/// matcher's `match_phrase` family directly; this trait is the
/// dyn-dispatchable surface for tools that drive a candidate engine
/// without naming its type.
///
/// Implementations must be deterministic: the same phrase (and anchor
/// decisions) must always yield the same candidate list in the same
/// order — the pipeline's cross-thread determinism and the phrase
/// cache both rely on it.
pub trait CandidateSource {
    /// Candidate entities for `phrase`, considering only subphrases in
    /// which at least one word satisfies `anchor` (the pipeline passes
    /// a nominality test).
    fn candidates_anchored(
        &self,
        phrase: &str,
        anchor: &dyn Fn(&str) -> bool,
    ) -> Vec<CandidateEntity>;

    /// Candidate entities for `phrase` with no anchor restriction.
    fn candidates(&self, phrase: &str) -> Vec<CandidateEntity> {
        self.candidates_anchored(phrase, &|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy source: every word of the phrase becomes a candidate when
    /// anchored.
    struct EveryWord;

    impl CandidateSource for EveryWord {
        fn candidates_anchored(
            &self,
            phrase: &str,
            anchor: &dyn Fn(&str) -> bool,
        ) -> Vec<CandidateEntity> {
            phrase
                .split_whitespace()
                .filter(|w| anchor(w))
                .map(|w| CandidateEntity {
                    phrase: w.to_string(),
                    concept: "Word".to_string(),
                    matched_instance: w.to_string(),
                    semantic_score: 1.0,
                    cluster_score: 1.0,
                })
                .collect()
        }
    }

    #[test]
    fn default_candidates_uses_permissive_anchor() {
        let src = EveryWord;
        assert_eq!(src.candidates("a b c").len(), 3);
        assert_eq!(src.candidates_anchored("a b c", &|w| w == "b").len(), 1);
    }

    #[test]
    fn trait_object_usable() {
        let src: &dyn CandidateSource = &EveryWord;
        assert_eq!(src.candidates("x y").len(), 2);
    }
}

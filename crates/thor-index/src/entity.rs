//! The candidate-entity record every candidate engine produces: the
//! semantic matcher, and the dictionary and tagger baselines.

/// A candidate entity produced by candidate generation: a subphrase of
/// the input noun phrase, the concept it matched, and the best-matching
/// seed instance `c_m` with its semantic score.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEntity {
    /// The matched subphrase `e.p` (normalized).
    pub phrase: String,
    /// The assigned concept `e.C`.
    pub concept: String,
    /// The best-matching seed instance `c_m` (normalized).
    pub matched_instance: String,
    /// Semantic similarity between `e.p` and `c_m` (`e.score_s`).
    pub semantic_score: f64,
    /// Mean pairwise similarity to the concept cluster (ranking score).
    pub cluster_score: f64,
}

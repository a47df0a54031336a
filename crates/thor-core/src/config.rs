//! Pipeline configuration.

/// Weights for the three refinement scores of Algorithm 1 (lines 10–13).
/// The paper averages them (`(score_s + score_w + score_c)/3`); the
/// weights exist for the ablation benches (`abl_scores`) that drop one
/// component at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreWeights {
    /// Weight of the semantic similarity `e.score_s`.
    pub semantic: f64,
    /// Weight of the word-level Jaccard `e.score_w`.
    pub word: f64,
    /// Weight of the character-level gestalt `e.score_c`.
    pub char: f64,
}

impl Default for ScoreWeights {
    fn default() -> Self {
        Self {
            semantic: 1.0,
            word: 1.0,
            char: 1.0,
        }
    }
}

impl ScoreWeights {
    /// Weighted mean of the three scores; all-zero weights yield 0.
    pub fn combine(&self, semantic: f64, word: f64, ch: f64) -> f64 {
        let total = self.semantic + self.word + self.char;
        if total == 0.0 {
            return 0.0;
        }
        (self.semantic * semantic + self.word * word + self.char * ch) / total
    }
}

/// How sentences are associated with subject instances during
/// Preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentationMode {
    /// Exact subject mentions, with carry-forward to following sentences
    /// ("paragraphs, or even entire documents, often talk about a
    /// specific subject instance"), falling back to semantic matching.
    #[default]
    MentionCarryForward,
    /// Semantic matching only (the paper's fallback, exposed for the
    /// `abl_segment` ablation).
    SemanticOnly,
    /// Exact mentions only, no carry-forward (ablation).
    MentionOnly,
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct ThorConfig {
    /// The similarity threshold τ (precision/recall dial).
    pub tau: f64,
    /// Refinement score weights.
    pub weights: ScoreWeights,
    /// Maximum subphrase length considered by the matcher.
    pub max_subphrase_words: usize,
    /// Cap on τ-expansion per concept.
    pub max_expansion: usize,
    /// Capacity of the matcher's phrase cache (distinct normalized
    /// subphrases whose candidate sets are retained across the document
    /// stream); 0 disables caching. Never changes results — candidates
    /// are a pure function of the subphrase once fine-tuning is done.
    pub cache_capacity: usize,
    /// Sentence-to-subject association strategy.
    pub segmentation: SegmentationMode,
    /// Use the dependency-parse noun-phrase chunker (true, the paper's
    /// design) or naive token n-grams (false, the `abl_np` ablation).
    pub np_chunking: bool,
    /// Optional contextual gate — the paper's stated future work
    /// ("reduce the number of false positives … by … leveraging
    /// contextual embeddings"): a candidate entity is kept only when
    /// the *rest of its sentence* is at least this similar to the
    /// candidate's concept cluster. `None` disables the gate (the
    /// paper's published pipeline).
    pub context_gate: Option<f64>,
    /// Worker threads for document-parallel extraction; `1` keeps the
    /// pipeline single-threaded (documents are independent once the
    /// matcher is fine-tuned, so extraction parallelizes trivially).
    pub threads: usize,
    /// Candidate-generation pruning strategy. `Exact` (the default)
    /// skips concepts and row blocks whose cosine upper bound cannot
    /// beat the admission threshold — bit-identical to the exhaustive
    /// scan, an output-neutral execution knob like `threads`.
    /// `Approx { margin }` additionally pre-screens rows with the
    /// i8-quantized copy (survivors are exactly rescored); it trades a
    /// measured sliver of recall for throughput and is the only mode
    /// that can change output. `Off` forces the exhaustive scan.
    /// Excluded from fingerprints and not persisted in engine
    /// artifacts.
    pub prune: thor_match::PruneMode,
}

impl Default for ThorConfig {
    fn default() -> Self {
        Self {
            tau: 0.7,
            weights: ScoreWeights::default(),
            max_subphrase_words: 4,
            max_expansion: 200,
            cache_capacity: 4096,
            segmentation: SegmentationMode::default(),
            np_chunking: true,
            context_gate: None,
            threads: 1,
            prune: thor_match::PruneMode::Exact,
        }
    }
}

impl ThorConfig {
    /// Default configuration at a given τ. Panics outside
    /// [`thor_match::TAU_RANGE`].
    pub fn with_tau(tau: f64) -> Self {
        assert!(
            thor_match::TAU_RANGE.contains(&tau),
            "tau must be in [0, 1] (TAU_RANGE)"
        );
        Self {
            tau,
            ..Self::default()
        }
    }

    /// The matcher-level slice of this configuration — the single place
    /// the pipeline translates its config into a
    /// [`thor_match::MatcherConfig`].
    pub fn matcher_config(&self) -> thor_match::MatcherConfig {
        thor_match::MatcherConfig {
            tau: self.tau,
            max_subphrase_words: self.max_subphrase_words,
            max_expansion: self.max_expansion,
            cache_capacity: self.cache_capacity,
            prune: self.prune,
        }
    }

    /// The fingerprint parts of every field that can change extraction
    /// output (τ, subphrase/expansion caps, context gate, segmentation,
    /// chunking, weights), shared by the engine and checkpoint
    /// fingerprints. Execution knobs (`threads`, `cache_capacity`,
    /// `prune`) are deliberately absent.
    pub(crate) fn fingerprint_parts(&self) -> Vec<String> {
        vec![
            format!("tau={:016x}", self.tau.to_bits()),
            format!("subphrase={}", self.max_subphrase_words),
            format!("expansion={}", self.max_expansion),
            format!("gate={:?}", self.context_gate.map(f64::to_bits)),
            format!("seg={:?}", self.segmentation),
            format!("np={}", self.np_chunking),
            format!(
                "weights={:016x},{:016x},{:016x}",
                self.weights.semantic.to_bits(),
                self.weights.word.to_bits(),
                self.weights.char.to_bits()
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_average() {
        let w = ScoreWeights::default();
        assert!((w.combine(1.0, 0.0, 0.45) - (1.45 / 3.0)).abs() < 1e-12);
        // The paper's e2 example: (0.8 + 0.4 + 0.39)/3 ≈ 0.53.
        assert!((w.combine(0.8, 0.4, 0.39) - 0.53).abs() < 0.005);
    }

    #[test]
    fn dropped_component() {
        let w = ScoreWeights {
            semantic: 1.0,
            word: 1.0,
            char: 0.0,
        };
        assert!((w.combine(0.8, 0.4, 0.99) - 0.6).abs() < 1e-12);
        let zero = ScoreWeights {
            semantic: 0.0,
            word: 0.0,
            char: 0.0,
        };
        assert_eq!(zero.combine(1.0, 1.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "tau must be in")]
    fn tau_range_checked() {
        ThorConfig::with_tau(1.5);
    }
}
